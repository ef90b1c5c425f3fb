//! Readiness backends for the event loop: `epoll(7)` and `poll(2)`
//! behind one [`ReadinessPoller`] contract.
//!
//! The loop in [`crate::event_loop`] used to rebuild a `pollfd` array
//! from its connection slab on *every* wake — an O(registered) cost per
//! wakeup that caps how many mostly-idle connections one loop thread can
//! carry. This module makes interest registration **persistent**: the
//! loop registers a connection's fd once, modifies its interest only
//! when it changes (write interest toggling around a partial write),
//! and deregisters on disconnect. On the epoll backend a wakeup then
//! costs O(ready) — the kernel hands back only the fds with events — so
//! ten thousand idle connections cost a sleeping loop nothing.
//!
//! Two production backends implement the contract. The platform picks
//! between them ([`PollerKind::Auto`], the default everywhere: epoll on
//! Linux, poll elsewhere); pinning a concrete [`PollerKind`] is a
//! library-level choice for the differential tests and the `netload`
//! comparison bench, not a daemon flag:
//!
//! * [`EpollPoller`] — raw extern-C FFI over `epoll_create1` /
//!   `epoll_ctl` / `epoll_wait`, Linux only, level-triggered (the exact
//!   readiness semantics of the poll backend, so the two are
//!   behaviorally interchangeable);
//! * [`PollPoller`] — the portable fallback: a persistent `pollfd` set
//!   maintained incrementally (register/modify/deregister patch the
//!   array in place; no per-wake rebuild), with the `poll(2)` syscall's
//!   inherent O(registered) scan per wake. On non-Linux hosts the wait
//!   degrades to the historical fixed 1 ms tick that reports every fd
//!   ready — spurious readiness is harmless on non-blocking sockets.
//!
//! The contract is deliberately minimal — no ownership of fds, no
//! timers, no wakers. The event loop owns sockets and lifetimes; the
//! poller only answers "which of these fds are ready right now".

use std::io;
use std::time::Duration;

/// OS-level file descriptor as the poller sees it.
pub type RawFd = i32;

/// Which readiness backend an event loop runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PollerKind {
    /// Auto-detect: [`PollerKind::Epoll`] on Linux, [`PollerKind::Poll`]
    /// elsewhere.
    #[default]
    Auto,
    /// `epoll(7)`: O(ready) wakeups, Linux only.
    Epoll,
    /// `poll(2)` (non-Linux: a 1 ms tick): portable, O(registered) per
    /// wake.
    Poll,
}

impl PollerKind {
    /// Resolve `Auto` to the concrete backend for this platform.
    pub fn resolve(self) -> PollerKind {
        match self {
            PollerKind::Auto => {
                if cfg!(target_os = "linux") {
                    PollerKind::Epoll
                } else {
                    PollerKind::Poll
                }
            }
            concrete => concrete,
        }
    }
}

impl std::str::FromStr for PollerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(PollerKind::Auto),
            "epoll" => Ok(PollerKind::Epoll),
            "poll" => Ok(PollerKind::Poll),
            other => Err(format!("unknown poller {other:?} (epoll|poll|auto)")),
        }
    }
}

impl std::fmt::Display for PollerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PollerKind::Auto => "auto",
            PollerKind::Epoll => "epoll",
            PollerKind::Poll => "poll",
        })
    }
}

/// What a registered fd should be watched for. Read interest is implied
/// for every registration (the loop always wants inbound frames and
/// close notifications); write interest toggles around partial writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Watch for writability (a partial write is pending).
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (the steady state of a drained connection).
    pub const READ: Interest = Interest { writable: false };
    /// Read + write interest (a partial write is pending).
    pub const READ_WRITE: Interest = Interest { writable: true };
}

/// One readiness report from [`ReadinessPoller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct ReadyEvent {
    /// The `token` the fd was registered with.
    pub token: u64,
    /// Readable, hung up, or in error — the loop's read path surfaces
    /// buffered bytes first and then the close/error, so all three
    /// funnel into "go read".
    pub readable: bool,
    /// Writable: the pending partial write can make progress.
    pub writable: bool,
    /// The fd was not valid at wait time (`POLLNVAL`): the connection
    /// must be torn down without touching the socket.
    pub invalid: bool,
}

/// Persistent-registration readiness: the event loop's window onto
/// `epoll(7)` / `poll(2)`.
///
/// Contract:
/// * `register` adds an fd with a caller-chosen 64-bit token; the token
///   (not the fd) comes back in [`ReadyEvent`]s, so slab-generation
///   tokens survive fd reuse unambiguously.
/// * `modify` re-arms an *already registered* fd with new interest; the
///   caller only invokes it on actual change (mod-on-change), so a
///   steady-state connection costs zero syscalls between wakes.
/// * `deregister` removes an fd. It must be called **before** the fd is
///   closed (a closed fd cannot be removed from a poll set, and epoll's
///   auto-removal is unreliable in the presence of dup'd descriptors).
/// * `wait` blocks until readiness or `timeout`, appending one
///   [`ReadyEvent`] per ready registration to `ready` (which the caller
///   clears). Registrations changed during a concurrent wake are the
///   caller's race to handle: a token that no longer resolves is
///   silently skipped by the loop.
pub trait ReadinessPoller: Send {
    /// Start watching `fd` under `token` with read (+ optional write)
    /// interest.
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;
    /// Change the interest of an fd registered under `token`.
    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest);
    /// Stop watching an fd registered under `token`.
    fn deregister(&mut self, fd: RawFd, token: u64);
    /// Block until readiness or timeout; append ready registrations.
    fn wait(&mut self, timeout: Duration, ready: &mut Vec<ReadyEvent>);
    /// Which concrete backend this is (telemetry / logs).
    fn kind(&self) -> PollerKind;
}

/// Construct the readiness backend for `kind`.
///
/// `Auto` resolves per platform; requesting `Epoll` off Linux is a
/// configuration error (the caller chose a backend the host cannot
/// provide — auto-detect exists for portable callers).
pub fn new_poller(kind: PollerKind) -> io::Result<Box<dyn ReadinessPoller>> {
    match kind.resolve() {
        #[cfg(target_os = "linux")]
        PollerKind::Epoll => Ok(Box::new(EpollPoller::new()?)),
        #[cfg(not(target_os = "linux"))]
        PollerKind::Epoll => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll is only available on linux (use --poller poll)",
        )),
        PollerKind::Poll => Ok(Box::new(PollPoller::new())),
        PollerKind::Auto => unreachable!("resolve() returns a concrete kind"),
    }
}

// poll(2) ---------------------------------------------------------------------

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// The portable backend: a persistent `pollfd` array patched in place by
/// register/modify/deregister (swap-remove keeps it dense), scanned by
/// one `poll(2)` call per wake.
pub struct PollPoller {
    fds: Vec<PollFd>,
    tokens: Vec<u64>,
}

impl PollPoller {
    /// An empty poll set.
    pub fn new() -> Self {
        PollPoller {
            fds: Vec::new(),
            tokens: Vec::new(),
        }
    }

    fn index_of(&self, fd: RawFd, token: u64) -> Option<usize> {
        // Linear scan: the set is only touched on connection lifecycle
        // events and interest changes, never per wake, and the poll
        // backend is the small-scale engine by design (epoll is the
        // >10k-fd backend).
        self.tokens
            .iter()
            .position(|t| *t == token)
            .filter(|i| self.fds[*i].fd == fd)
    }
}

impl Default for PollPoller {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadinessPoller for PollPoller {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.fds.push(PollFd {
            fd,
            events: POLLIN | if interest.writable { POLLOUT } else { 0 },
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) {
        if let Some(i) = self.index_of(fd, token) {
            self.fds[i].events = POLLIN | if interest.writable { POLLOUT } else { 0 };
        }
    }

    fn deregister(&mut self, fd: RawFd, token: u64) {
        if let Some(i) = self.index_of(fd, token) {
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
        }
    }

    fn wait(&mut self, timeout: Duration, ready: &mut Vec<ReadyEvent>) {
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        poll_wait(&mut self.fds, timeout_ms);
        for (i, fd) in self.fds.iter_mut().enumerate() {
            let revents = std::mem::replace(&mut fd.revents, 0);
            if revents == 0 {
                continue;
            }
            ready.push(ReadyEvent {
                token: self.tokens[i],
                readable: revents & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: revents & POLLOUT != 0,
                invalid: revents & POLLNVAL != 0,
            });
        }
    }

    fn kind(&self) -> PollerKind {
        PollerKind::Poll
    }
}

#[cfg(target_os = "linux")]
fn poll_wait(fds: &mut [PollFd], timeout_ms: i32) {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            // poll(2) only fails on misuse (EFAULT/EINVAL); back off
            // rather than spin so a bug degrades instead of burning a
            // core.
            std::thread::sleep(Duration::from_millis(1));
            return;
        }
    }
}

/// Portable fallback: a fixed 1 ms tick that reports every fd ready.
/// Spurious readiness is harmless on non-blocking sockets (a read just
/// returns `WouldBlock`); it costs one syscall per connection per tick
/// instead of true readiness wakes.
#[cfg(not(target_os = "linux"))]
fn poll_wait(fds: &mut [PollFd], timeout_ms: i32) {
    std::thread::sleep(Duration::from_millis((timeout_ms.max(0) as u64).min(1)));
    for fd in fds.iter_mut() {
        fd.revents = fd.events & (POLLIN | POLLOUT);
    }
}

// epoll(7) --------------------------------------------------------------------

#[cfg(target_os = "linux")]
pub use epoll::EpollPoller;

#[cfg(target_os = "linux")]
mod epoll {
    use super::{Interest, PollerKind, RawFd, ReadinessPoller, ReadyEvent};
    use std::io;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    /// Peer closed its write half; readable (the read path surfaces the
    /// EOF after any buffered bytes).
    const EPOLLRDHUP: u32 = 0x2000;

    /// Kernel ABI struct: packed on x86-64 (12 bytes), aligned
    /// elsewhere. The packed layout is what `epoll_ctl`/`epoll_wait`
    /// expect on this architecture.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn interest_bits(interest: Interest) -> u32 {
        // Level-triggered on purpose: identical readiness semantics to
        // the poll backend, so the fairness cap's "stop mid-drain, the
        // next wake re-reports" contract holds unchanged.
        EPOLLIN | EPOLLRDHUP | if interest.writable { EPOLLOUT } else { 0 }
    }

    /// The Linux backend: one epoll instance per event loop, O(ready)
    /// wakeups, interest persisted in the kernel.
    pub struct EpollPoller {
        epfd: i32,
        /// Reused `epoll_wait` output buffer (grown when it fills: a
        /// full buffer means more events were pending than it could
        /// report in one call).
        events: Vec<EpollEvent>,
    }

    impl EpollPoller {
        /// Create the epoll instance.
        pub fn new() -> io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EpollPoller {
                epfd,
                events: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_bits(interest),
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    impl ReadinessPoller for EpollPoller {
        fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) {
            // A MOD on an fd that raced a close/deregister can only fail
            // with ENOENT/EBADF; the connection is gone either way.
            let _ = self.ctl(EPOLL_CTL_MOD, fd, token, interest);
        }

        fn deregister(&mut self, fd: RawFd, token: u64) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, token, Interest::READ);
        }

        fn wait(&mut self, timeout: Duration, ready: &mut Vec<ReadyEvent>) {
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = loop {
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.events.as_mut_ptr(),
                        self.events.len() as i32,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    // Misuse-class failure (EFAULT/EBADF): degrade to a
                    // backoff instead of spinning.
                    std::thread::sleep(Duration::from_millis(1));
                    break 0;
                }
            };
            for ev in &self.events[..n] {
                let bits = ev.events;
                ready.push(ReadyEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                    invalid: false, // epoll has no NVAL; EBADF fails at ctl time.
                });
            }
            // A full buffer means the kernel had more to report: grow so
            // the next wake drains the backlog in one call.
            if n == self.events.len() {
                self.events.resize(n * 2, EpollEvent { events: 0, data: 0 });
            }
        }

        fn kind(&self) -> PollerKind {
            PollerKind::Epoll
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (server, _) = listener.accept().expect("accept");
        (server, client.join().expect("join"))
    }

    /// Both production backends must agree on the core contract:
    /// nothing ready on idle fds, read readiness on inbound bytes,
    /// write readiness only under write interest, silence after
    /// deregister.
    fn contract(kind: PollerKind) {
        let mut poller = new_poller(kind).expect("poller");
        assert_eq!(poller.kind(), kind.resolve());
        let (server, mut client) = loopback_pair();
        server.set_nonblocking(true).expect("nonblocking");
        let fd = server.as_raw_fd();
        let token = 0xdead_beef_0001u64;
        poller
            .register(fd, token, Interest::READ)
            .expect("register");

        // Idle: no events within a short wait.
        let mut ready = Vec::new();
        poller.wait(Duration::from_millis(10), &mut ready);
        assert!(
            ready.iter().all(|e| e.token != token),
            "idle fd reported ready: {ready:?}"
        );

        // Inbound bytes: read-ready, and not write-ready (no interest).
        client.write_all(b"ping").expect("write");
        ready.clear();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(Duration::from_millis(50), &mut ready);
            if ready.iter().any(|e| e.token == token && e.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "read never ready");
        }
        assert!(
            ready.iter().all(|e| e.token != token
                || !e.writable
                || kind.resolve() == PollerKind::Poll && cfg!(not(target_os = "linux"))),
            "write-ready without write interest: {ready:?}"
        );

        // Write interest: an empty socket buffer is immediately writable.
        poller.modify(fd, token, Interest::READ_WRITE);
        ready.clear();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(Duration::from_millis(50), &mut ready);
            if ready.iter().any(|e| e.token == token && e.writable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "write never ready");
        }

        // Deregister: the fd goes silent even with bytes pending.
        poller.deregister(fd, token);
        client.write_all(b"pong").expect("write");
        ready.clear();
        poller.wait(Duration::from_millis(20), &mut ready);
        assert!(
            ready.iter().all(|e| e.token != token),
            "deregistered fd reported ready: {ready:?}"
        );
    }

    #[test]
    fn poll_backend_honors_the_contract() {
        contract(PollerKind::Poll);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_honors_the_contract() {
        contract(PollerKind::Epoll);
    }

    #[test]
    fn auto_resolves_to_a_concrete_backend() {
        let resolved = PollerKind::Auto.resolve();
        assert_ne!(resolved, PollerKind::Auto);
        if cfg!(target_os = "linux") {
            assert_eq!(resolved, PollerKind::Epoll);
        }
        let poller = new_poller(PollerKind::Auto).expect("auto poller");
        assert_eq!(poller.kind(), resolved);
    }

    #[test]
    fn poller_kind_round_trips_through_strings() {
        for kind in [PollerKind::Auto, PollerKind::Epoll, PollerKind::Poll] {
            let parsed: PollerKind = kind.to_string().parse().expect("parse");
            assert_eq!(parsed, kind);
        }
        assert!("kqueue".parse::<PollerKind>().is_err());
    }

    /// Wakeup cost is O(ready), not O(registered): with many idle
    /// registrations and one hot fd, epoll reports exactly the hot one.
    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reports_only_the_ready_fd_among_many_idle() {
        let mut poller = new_poller(PollerKind::Epoll).expect("epoll");
        let idle: Vec<_> = (0..64).map(|_| loopback_pair()).collect();
        for (i, (server, _client)) in idle.iter().enumerate() {
            poller
                .register(server.as_raw_fd(), i as u64, Interest::READ)
                .expect("register idle");
        }
        let (hot_server, mut hot_client) = loopback_pair();
        poller
            .register(hot_server.as_raw_fd(), 999, Interest::READ)
            .expect("register hot");
        hot_client.write_all(b"x").expect("write");

        let mut ready: Vec<ReadyEvent> = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !ready.iter().any(|e| e.token == 999) {
            poller.wait(Duration::from_millis(50), &mut ready);
            assert!(std::time::Instant::now() < deadline, "hot fd never ready");
        }
        assert!(
            ready.iter().all(|e| e.token == 999),
            "idle fds woke up too: {ready:?}"
        );
    }
}
