//! Blocking framed TCP client for the runtime wire protocol, plus the
//! listener bind helper.
//!
//! TCP is a byte stream, so every [`Message`] crosses the wire as a
//! little-endian `u32` length prefix plus payload — the framing lives in
//! [`crate::frame`], shared bit-for-bit with the event loop that serves
//! the other end. A [`TcpTransport`] is the client side (`blox-submit`,
//! benchmark generators, test peers): it owns a background reader thread
//! that reassembles frames into a channel, giving the exact blocking /
//! non-blocking / timeout receive semantics of
//! `blox_runtime::wire::Endpoint`. Nothing server-side uses it.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use blox_core::error::{BloxError, Result};
use blox_runtime::wire::{Message, Transport, WireRx, WireSender};
use crossbeam::channel::unbounded;
use parking_lot::Mutex;

use crate::frame::{encode_frame, read_frame, FrameBuf};

/// Bind a TCP listener with an explicit `listen(2)` backlog.
///
/// `std::net::TcpListener::bind` hardcodes a backlog of 128, which a
/// connect burst from thousands of ramping clients overflows — the
/// kernel then drops or resets SYNs and the ramp stalls on retries.
/// The effective ceiling is `net.core.somaxconn`; asking for more is
/// silently clamped by the kernel, never an error.
///
/// IPv4 only (every blox listener binds loopback v4); non-Linux hosts
/// fall back to the std bind and its default backlog.
#[cfg(target_os = "linux")]
pub fn listen_with_backlog(addr: SocketAddr, backlog: i32) -> std::io::Result<TcpListener> {
    use std::os::unix::io::FromRawFd;

    let SocketAddr::V4(v4) = addr else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "listen_with_backlog supports IPv4 addresses only",
        ));
    };

    /// `struct sockaddr_in` as the kernel lays it out: family, then
    /// port and address in network byte order, padded to 16 bytes.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let fail = |fd: i32| {
        let err = std::io::Error::last_os_error();
        unsafe { close(fd) };
        Err(err)
    };
    let one = 1i32;
    if unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) } < 0 {
        return fail(fd);
    }
    let sa = SockAddrIn {
        family: AF_INET as u16,
        port: v4.port().to_be(),
        addr: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    if unsafe { bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) } < 0 {
        return fail(fd);
    }
    if unsafe { listen(fd, backlog.max(1)) } < 0 {
        return fail(fd);
    }
    Ok(unsafe { TcpListener::from_raw_fd(fd) })
}

/// Non-Linux fallback: the std bind and its default backlog (128).
#[cfg(not(target_os = "linux"))]
pub fn listen_with_backlog(addr: SocketAddr, _backlog: i32) -> std::io::Result<TcpListener> {
    TcpListener::bind(addr)
}

struct SenderInner {
    stream: TcpStream,
    /// Once a write fails the stream position is unknowable — a partial
    /// frame may be on the wire — so the connection is poisoned: every
    /// later send fails fast with the original cause instead of
    /// interleaving garbage after the truncated frame.
    poisoned: Option<String>,
}

/// Clonable send half of a TCP link: many producer threads, one socket.
///
/// Writes are serialized under a mutex so concurrent senders (worker
/// manager, heartbeat thread, emulated jobs) never interleave frames. A
/// failed or partial write **poisons** the sender (see
/// [`TcpSender::poison_reason`]): the socket is shut down and every
/// subsequent send surfaces an explicit error, so callers get a
/// failure-detector verdict at the send site instead of waiting for a
/// later read to notice the corpse.
#[derive(Clone)]
pub struct TcpSender {
    inner: Arc<Mutex<SenderInner>>,
}

impl TcpSender {
    pub(crate) fn new(stream: TcpStream) -> Self {
        TcpSender {
            inner: Arc::new(Mutex::new(SenderInner {
                stream,
                poisoned: None,
            })),
        }
    }

    /// Encode and send one message. Fails fast if a previous send
    /// poisoned the connection.
    pub fn send(&self, msg: &Message) -> Result<()> {
        use std::io::Write;
        let mut inner = self.inner.lock();
        if let Some(why) = &inner.poisoned {
            return Err(BloxError::Transport(format!(
                "tcp send on poisoned connection: {why}"
            )));
        }
        // An unencodable (oversized) message fails cleanly here without
        // poisoning the connection: nothing reached the wire.
        let frame = encode_frame(msg)?;
        if let Err(e) = inner.stream.write_all(&frame) {
            // The peer may have received a torn frame; nothing sane can
            // follow it on this socket.
            let why = e.to_string();
            inner.poisoned = Some(why.clone());
            let _ = inner.stream.shutdown(Shutdown::Both);
            return Err(BloxError::Transport(format!(
                "tcp send failed, connection poisoned: {why}"
            )));
        }
        Ok(())
    }

    /// Why this sender is poisoned, if it is (a failed write or a local
    /// [`TcpSender::shutdown`]).
    pub fn poison_reason(&self) -> Option<String> {
        self.inner.lock().poisoned.clone()
    }

    /// Hard-close both directions of the socket with no goodbye message —
    /// exactly what a crashed node looks like to its peer. The sender is
    /// left poisoned so later sends fail explicitly.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock();
        if inner.poisoned.is_none() {
            inner.poisoned = Some("connection closed locally".into());
        }
        let _ = inner.stream.shutdown(Shutdown::Both);
    }
}

impl WireSender for TcpSender {
    fn send(&self, msg: &Message) -> Result<()> {
        TcpSender::send(self, msg)
    }

    fn clone_sender(&self) -> Box<dyn WireSender> {
        Box::new(self.clone())
    }
}

/// A connected, bidirectional TCP message link implementing the runtime's
/// [`Transport`] contract.
pub struct TcpTransport {
    sender: TcpSender,
    frames: WireRx,
    peer: SocketAddr,
}

impl TcpTransport {
    /// Connect to a listening peer.
    pub fn connect(addr: SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| BloxError::Transport(format!("connect {addr}: {e}")))?;
        Self::from_stream(stream)
    }

    /// Wrap an accepted or connected stream.
    pub fn from_stream(stream: TcpStream) -> Result<Self> {
        let _ = stream.set_nodelay(true);
        let peer = stream
            .peer_addr()
            .map_err(|e| BloxError::Transport(format!("peer_addr: {e}")))?;
        let mut reader = stream
            .try_clone()
            .map_err(|e| BloxError::Transport(format!("clone stream: {e}")))?;
        let (tx, frames) = unbounded();
        std::thread::spawn(move || {
            let mut buf = FrameBuf::new();
            while let Ok(frame) = read_frame(&mut reader, &mut buf) {
                if tx.send(frame).is_err() {
                    return; // Transport dropped.
                }
            }
            // Reader error / EOF: dropping `tx` disconnects the channel,
            // which surfaces as a transport error on the receive side.
        });
        Ok(TcpTransport {
            sender: TcpSender::new(stream),
            frames: frames.into(),
            peer,
        })
    }

    /// A clonable send-only handle onto this link.
    pub fn sender(&self) -> TcpSender {
        self.sender.clone()
    }

    /// The remote address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Hard-close the link (see [`TcpSender::shutdown`]).
    pub fn shutdown(&self) {
        self.sender.shutdown();
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // The reader thread holds a dup'd fd of the same socket; an
        // explicit shutdown (not just the fd drop) is what unblocks it and
        // delivers EOF to the peer.
        self.sender.shutdown();
    }
}

impl Transport for TcpTransport {
    fn send(&self, msg: &Message) -> Result<()> {
        self.sender.send(msg)
    }

    fn recv(&self) -> Result<Message> {
        self.frames.recv()
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        self.frames.try_recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>> {
        self.frames.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blox_core::ids::JobId;
    use std::net::TcpListener;

    /// A connected transport pair over an ephemeral loopback port.
    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("local addr");
        let client = std::thread::spawn(move || TcpTransport::connect(addr).expect("connect"));
        let (stream, _) = listener.accept().expect("accept");
        let server = TcpTransport::from_stream(stream).expect("wrap");
        (server, client.join().expect("client thread"))
    }

    #[test]
    fn listen_with_backlog_binds_and_accepts() {
        let listener =
            listen_with_backlog("127.0.0.1:0".parse().unwrap(), 1024).expect("bind with backlog");
        let addr = listener.local_addr().expect("ephemeral addr assigned");
        assert_ne!(addr.port(), 0);
        let t = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (stream, _) = listener.accept().expect("accept");
        drop(t.join().unwrap());
        drop(stream);
    }

    #[test]
    fn tcp_pair_carries_messages_both_ways() {
        let (a, b) = tcp_pair();
        a.send(&Message::LeaseCheck { job: JobId(5) }).unwrap();
        assert_eq!(b.recv().unwrap(), Message::LeaseCheck { job: JobId(5) });
        b.send(&Message::LeaseStatus {
            job: JobId(5),
            valid: true,
        })
        .unwrap();
        assert_eq!(
            a.recv().unwrap(),
            Message::LeaseStatus {
                job: JobId(5),
                valid: true
            }
        );
    }

    #[test]
    fn try_recv_is_non_blocking_over_tcp() {
        let (a, b) = tcp_pair();
        assert_eq!(b.try_recv().unwrap(), None);
        a.send(&Message::Ack).unwrap();
        // Loopback delivery is asynchronous; poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            match b.try_recv().unwrap() {
                Some(m) => {
                    assert_eq!(m, Message::Ack);
                    break;
                }
                None if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                None => panic!("message never arrived"),
            }
        }
    }

    #[test]
    fn disconnect_surfaces_as_error() {
        let (a, b) = tcp_pair();
        drop(a);
        assert!(b.recv().is_err());
    }

    #[test]
    fn concurrent_senders_never_interleave_frames() {
        let (a, b) = tcp_pair();
        let senders: Vec<_> = (0..4).map(|_| a.sender()).collect();
        let threads: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                std::thread::spawn(move || {
                    for k in 0..50 {
                        s.send(&Message::Progress {
                            job: JobId(i as u64),
                            iters: k as f64,
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for _ in 0..200 {
            match b.recv().unwrap() {
                Message::Progress { .. } => {}
                other => panic!("corrupted frame decoded to {other:?}"),
            }
        }
    }
}
