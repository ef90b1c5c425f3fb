//! Hand-rolled binary wire format and in-process transport.
//!
//! Every runtime message crosses a channel as a length-prefixed byte frame
//! encoded by this module — the same discipline a gRPC deployment imposes
//! — so the lease-renewal benchmark measures real serialize / transfer /
//! deserialize work, and a TCP transport can be swapped in without
//! touching the protocol. Encoding primitives come from the shared
//! [`blox_core::codec`], the same codec the scheduler state snapshots use.

use blox_core::codec::{put_bool, put_f64, put_str, put_u32, put_u64, put_u8, Reader};
use blox_core::error::{BloxError, Result};
use blox_core::ids::{JobId, NodeId};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

/// Runtime protocol messages (scheduler ⇄ worker ⇄ client library).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker announces itself and its GPU count.
    RegisterWorker {
        /// Registering node.
        node: NodeId,
        /// GPUs on the node.
        gpus: u32,
    },
    /// Scheduler launches (or resumes) a job shard on a worker.
    Launch {
        /// Job to run.
        job: JobId,
        /// Local GPU indices assigned on this worker.
        local_gpus: Vec<u8>,
        /// Seconds per emulated iteration (already placement-adjusted).
        iter_time_s: f64,
        /// Iterations already completed (restore point).
        start_iters: f64,
        /// Total iterations to run.
        total_iters: f64,
        /// Restore/warm-up seconds to pay before progress resumes.
        warmup_s: f64,
        /// True when this worker hosts rank 0 of the job.
        is_rank0: bool,
    },
    /// Scheduler revokes a job's lease (two-phase: sent to rank 0 only).
    Revoke {
        /// Job being preempted.
        job: JobId,
    },
    /// Rank 0 announces the agreed exit iteration for a distributed job.
    ExitAt {
        /// Job being preempted.
        job: JobId,
        /// Iteration count after which every shard stops.
        exit_iter: u64,
    },
    /// Centralized-lease-mode check: "may job X run another iteration?".
    LeaseCheck {
        /// Job asking.
        job: JobId,
    },
    /// Reply to [`Message::LeaseCheck`].
    LeaseStatus {
        /// Job asked about.
        job: JobId,
        /// False once revoked.
        valid: bool,
    },
    /// Client library pushes an application metric.
    PushMetric {
        /// Reporting job.
        job: JobId,
        /// Metric key (e.g. `"loss"`).
        key: String,
        /// Metric value.
        value: f64,
    },
    /// Worker reports job progress (iterations completed so far).
    Progress {
        /// Reporting job.
        job: JobId,
        /// Iterations completed.
        iters: f64,
    },
    /// Worker reports a job finished all its work.
    JobDone {
        /// Finished job.
        job: JobId,
        /// Simulated-time completion timestamp.
        sim_time: f64,
    },
    /// Worker acknowledges a preemption with the checkpointed progress.
    JobSuspended {
        /// Preempted job.
        job: JobId,
        /// Iterations in the checkpoint.
        iters: f64,
    },
    /// Generic acknowledgement.
    Ack,
    /// Worker liveness beacon (networked deployment failure detector).
    Heartbeat {
        /// Reporting node.
        node: NodeId,
        /// Monotonic beacon counter, for debugging lost heartbeats.
        seq: u64,
    },
    /// Scheduler reply to [`Message::RegisterWorker`]: the node's assigned
    /// identity, a clock-sync point, and the runtime configuration the
    /// worker must emulate under.
    AssignNode {
        /// Identity assigned to the registering worker.
        node: NodeId,
        /// Scheduler's simulated clock at assignment (workers align their
        /// local clock to this).
        now_sim: f64,
        /// Wall seconds per simulated second.
        time_scale: f64,
        /// Simulated seconds per emulated training iteration.
        emu_iter_sim_s: f64,
        /// Interval (simulated seconds) at which the worker must send
        /// [`Message::Heartbeat`].
        heartbeat_sim_s: f64,
        /// Scheduling pod the node belongs to (0 when the scheduler runs
        /// unsharded). Workers echo it in diagnostics so a sharded
        /// deployment can attribute a node's traffic to its shard.
        pod: u32,
    },
    /// Client submits a job into the live scheduler's wait queue.
    SubmitJob {
        /// GPUs requested.
        gpus: u32,
        /// Total work in iterations.
        total_iters: f64,
        /// Model-zoo profile name (unknown names fall back to a synthetic
        /// profile).
        model: String,
    },
    /// Scheduler acknowledges a submission with the assigned job id.
    JobAccepted {
        /// Id the scheduler assigned.
        job: JobId,
    },
    /// Orderly shutdown of the receiving daemon.
    Shutdown,
}

// Encoding -----------------------------------------------------------------

impl Message {
    /// Encode into a self-describing frame (1-byte tag + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        self.encode_into(&mut buf);
        buf
    }

    /// Append the encoded frame to an existing buffer — the hot-path
    /// variant transports use to build length-prefixed wire frames in a
    /// single allocation (prefix + payload in one `Vec`).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Message::RegisterWorker { node, gpus } => {
                put_u8(buf, 0);
                put_u32(buf, node.0);
                put_u32(buf, *gpus);
            }
            Message::Launch {
                job,
                local_gpus,
                iter_time_s,
                start_iters,
                total_iters,
                warmup_s,
                is_rank0,
            } => {
                put_u8(buf, 1);
                put_u64(buf, job.0);
                put_u32(buf, local_gpus.len() as u32);
                buf.extend_from_slice(local_gpus);
                put_f64(buf, *iter_time_s);
                put_f64(buf, *start_iters);
                put_f64(buf, *total_iters);
                put_f64(buf, *warmup_s);
                put_bool(buf, *is_rank0);
            }
            Message::Revoke { job } => {
                put_u8(buf, 2);
                put_u64(buf, job.0);
            }
            Message::ExitAt { job, exit_iter } => {
                put_u8(buf, 3);
                put_u64(buf, job.0);
                put_u64(buf, *exit_iter);
            }
            Message::LeaseCheck { job } => {
                put_u8(buf, 4);
                put_u64(buf, job.0);
            }
            Message::LeaseStatus { job, valid } => {
                put_u8(buf, 5);
                put_u64(buf, job.0);
                put_bool(buf, *valid);
            }
            Message::PushMetric { job, key, value } => {
                put_u8(buf, 6);
                put_u64(buf, job.0);
                put_str(buf, key);
                put_f64(buf, *value);
            }
            Message::Progress { job, iters } => {
                put_u8(buf, 7);
                put_u64(buf, job.0);
                put_f64(buf, *iters);
            }
            Message::JobDone { job, sim_time } => {
                put_u8(buf, 8);
                put_u64(buf, job.0);
                put_f64(buf, *sim_time);
            }
            Message::JobSuspended { job, iters } => {
                put_u8(buf, 9);
                put_u64(buf, job.0);
                put_f64(buf, *iters);
            }
            Message::Ack => put_u8(buf, 10),
            Message::Heartbeat { node, seq } => {
                put_u8(buf, 11);
                put_u32(buf, node.0);
                put_u64(buf, *seq);
            }
            Message::AssignNode {
                node,
                now_sim,
                time_scale,
                emu_iter_sim_s,
                heartbeat_sim_s,
                pod,
            } => {
                put_u8(buf, 12);
                put_u32(buf, node.0);
                put_f64(buf, *now_sim);
                put_f64(buf, *time_scale);
                put_f64(buf, *emu_iter_sim_s);
                put_f64(buf, *heartbeat_sim_s);
                put_u32(buf, *pod);
            }
            Message::SubmitJob {
                gpus,
                total_iters,
                model,
            } => {
                put_u8(buf, 13);
                put_u32(buf, *gpus);
                put_f64(buf, *total_iters);
                put_str(buf, model);
            }
            Message::JobAccepted { job } => {
                put_u8(buf, 14);
                put_u64(buf, job.0);
            }
            Message::Shutdown => put_u8(buf, 15),
        }
    }

    /// Decode a frame produced by [`Message::encode`].
    pub fn decode(frame: &[u8]) -> Result<Message> {
        let mut r = Reader::new(frame);
        let tag = r.u8()?;
        let msg = match tag {
            0 => Message::RegisterWorker {
                node: NodeId(r.u32()?),
                gpus: r.u32()?,
            },
            1 => {
                let job = JobId(r.u64()?);
                let n = r.u32()? as usize;
                let local_gpus = r.take(n)?.to_vec();
                Message::Launch {
                    job,
                    local_gpus,
                    iter_time_s: r.f64()?,
                    start_iters: r.f64()?,
                    total_iters: r.f64()?,
                    warmup_s: r.f64()?,
                    is_rank0: r.boolean()?,
                }
            }
            2 => Message::Revoke {
                job: JobId(r.u64()?),
            },
            3 => Message::ExitAt {
                job: JobId(r.u64()?),
                exit_iter: r.u64()?,
            },
            4 => Message::LeaseCheck {
                job: JobId(r.u64()?),
            },
            5 => Message::LeaseStatus {
                job: JobId(r.u64()?),
                valid: r.boolean()?,
            },
            6 => Message::PushMetric {
                job: JobId(r.u64()?),
                key: r.string()?,
                value: r.f64()?,
            },
            7 => Message::Progress {
                job: JobId(r.u64()?),
                iters: r.f64()?,
            },
            8 => Message::JobDone {
                job: JobId(r.u64()?),
                sim_time: r.f64()?,
            },
            9 => Message::JobSuspended {
                job: JobId(r.u64()?),
                iters: r.f64()?,
            },
            10 => Message::Ack,
            11 => Message::Heartbeat {
                node: NodeId(r.u32()?),
                seq: r.u64()?,
            },
            12 => Message::AssignNode {
                node: NodeId(r.u32()?),
                now_sim: r.f64()?,
                time_scale: r.f64()?,
                emu_iter_sim_s: r.f64()?,
                heartbeat_sim_s: r.f64()?,
                pod: r.u32()?,
            },
            13 => Message::SubmitJob {
                gpus: r.u32()?,
                total_iters: r.f64()?,
                model: r.string()?,
            },
            14 => Message::JobAccepted {
                job: JobId(r.u64()?),
            },
            15 => Message::Shutdown,
            other => return Err(BloxError::Transport(format!("unknown message tag {other}"))),
        };
        Ok(msg)
    }
}

// Transport -----------------------------------------------------------------

/// A bidirectional, message-oriented link carrying [`Message`] frames.
///
/// Abstracts the substrate under the runtime protocol: the in-process
/// [`Endpoint`] implements it over crossbeam channels, and `blox-net`
/// implements it over framed loopback TCP, so the same scheduler,
/// worker-manager, and client-library code drives either an emulated
/// single-process cluster or real separate OS processes.
pub trait Transport: Send {
    /// Encode and send a message.
    fn send(&self, msg: &Message) -> Result<()>;
    /// Block until a message arrives.
    fn recv(&self) -> Result<Message>;
    /// Non-blocking receive; `Ok(None)` when no message is waiting.
    fn try_recv(&self) -> Result<Option<Message>>;
    /// Blocking receive with a wall-clock timeout; `Ok(None)` on timeout.
    fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Option<Message>>;
}

/// Boxed transports are transports, so engine-generic code (e.g. a node
/// daemon selecting its TCP engine at runtime) can thread a
/// `Box<dyn Transport>` through decorators that take `impl Transport`.
impl<T: Transport + ?Sized> Transport for Box<T> {
    fn send(&self, msg: &Message) -> Result<()> {
        (**self).send(msg)
    }

    fn recv(&self) -> Result<Message> {
        (**self).recv()
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        (**self).try_recv()
    }

    fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Option<Message>> {
        (**self).recv_timeout(timeout)
    }
}

/// A clonable send-only handle onto a transport's upstream direction.
///
/// Worker managers hand one of these to every emulated training job so
/// progress, metric, and completion messages can be pushed from arbitrary
/// threads regardless of the underlying substrate.
pub trait WireSender: Send {
    /// Encode and send a message.
    fn send(&self, msg: &Message) -> Result<()>;
    /// Clone this sender behind a fresh box (object-safe `Clone`).
    fn clone_sender(&self) -> Box<dyn WireSender>;
}

/// One side of a bidirectional message channel. All traffic is encoded to
/// byte frames and decoded on receipt.
pub struct Endpoint {
    tx: WireTx,
    rx: WireRx,
}

impl Endpoint {
    /// Create a connected endpoint pair.
    pub fn pair() -> (Endpoint, Endpoint) {
        let (atx, brx) = wire_bus();
        let (btx, arx) = wire_bus();
        (Endpoint { tx: atx, rx: arx }, Endpoint { tx: btx, rx: brx })
    }

    /// Encode and send a message.
    pub fn send(&self, msg: &Message) -> Result<()> {
        self.tx.send(msg)
    }

    /// Block until a message arrives.
    pub fn recv(&self) -> Result<Message> {
        self.rx.recv()
    }

    /// Non-blocking receive; `Ok(None)` when no message is waiting.
    pub fn try_recv(&self) -> Result<Option<Message>> {
        self.rx.try_recv()
    }

    /// Blocking receive with a wall-clock timeout.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Option<Message>> {
        self.rx.recv_timeout(timeout)
    }
}

impl Transport for Endpoint {
    fn send(&self, msg: &Message) -> Result<()> {
        Endpoint::send(self, msg)
    }

    fn recv(&self) -> Result<Message> {
        Endpoint::recv(self)
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        Endpoint::try_recv(self)
    }

    fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Option<Message>> {
        Endpoint::recv_timeout(self, timeout)
    }
}

/// Send half of a shared message bus (clonable: many producers).
#[derive(Clone)]
pub struct WireTx {
    tx: Sender<Vec<u8>>,
}

impl WireTx {
    /// Encode and send a message.
    pub fn send(&self, msg: &Message) -> Result<()> {
        self.tx.send(msg.encode()).map_err(|_| disconnected())
    }
}

impl WireSender for WireTx {
    fn send(&self, msg: &Message) -> Result<()> {
        WireTx::send(self, msg)
    }

    fn clone_sender(&self) -> Box<dyn WireSender> {
        Box::new(self.clone())
    }
}

/// The receiving end of a frame channel, decoding each frame on receipt:
/// the receive path of a bus, an [`Endpoint`], and every socket transport
/// whose reader hands it frames.
pub struct WireRx {
    rx: Receiver<Vec<u8>>,
}

impl From<Receiver<Vec<u8>>> for WireRx {
    fn from(rx: Receiver<Vec<u8>>) -> Self {
        WireRx { rx }
    }
}

impl WireRx {
    /// Block until a message arrives.
    pub fn recv(&self) -> Result<Message> {
        Message::decode(&self.rx.recv().map_err(|_| disconnected())?)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Option<Message>> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(Some(Message::decode(&frame)?)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(disconnected()),
        }
    }

    /// Blocking receive with timeout.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Option<Message>> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(Message::decode(&frame)?)),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(disconnected()),
        }
    }
}

fn disconnected() -> BloxError {
    BloxError::Transport("peer disconnected".into())
}

/// Create a many-producer single-consumer message bus.
pub fn wire_bus() -> (WireTx, WireRx) {
    let (tx, rx) = unbounded();
    (WireTx { tx }, rx.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Message> {
        vec![
            Message::RegisterWorker {
                node: NodeId(3),
                gpus: 4,
            },
            Message::Launch {
                job: JobId(42),
                local_gpus: vec![0, 3],
                iter_time_s: 0.25,
                start_iters: 100.5,
                total_iters: 5000.0,
                warmup_s: 12.0,
                is_rank0: true,
            },
            Message::Revoke { job: JobId(7) },
            Message::ExitAt {
                job: JobId(7),
                exit_iter: 991,
            },
            Message::LeaseCheck { job: JobId(1) },
            Message::LeaseStatus {
                job: JobId(1),
                valid: false,
            },
            Message::PushMetric {
                job: JobId(9),
                key: "loss".into(),
                value: 1.25,
            },
            Message::Progress {
                job: JobId(2),
                iters: 123.0,
            },
            Message::JobDone {
                job: JobId(2),
                sim_time: 4200.0,
            },
            Message::JobSuspended {
                job: JobId(2),
                iters: 55.5,
            },
            Message::Ack,
            Message::Heartbeat {
                node: NodeId(7),
                seq: 1234,
            },
            Message::AssignNode {
                node: NodeId(2),
                now_sim: 1800.0,
                time_scale: 1e-4,
                emu_iter_sim_s: 30.0,
                heartbeat_sim_s: 60.0,
                pod: 3,
            },
            Message::SubmitJob {
                gpus: 2,
                total_iters: 9000.0,
                model: "resnet50".into(),
            },
            Message::JobAccepted { job: JobId(77) },
            Message::Shutdown,
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in all_messages() {
            let frame = msg.encode();
            let back = Message::decode(&frame).unwrap();
            assert_eq!(msg, back);
        }
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        for msg in all_messages() {
            let frame = msg.encode();
            for cut in 0..frame.len() {
                // Every strict prefix must fail to decode or decode to a
                // different-but-valid message; it must never panic.
                let _ = Message::decode(&frame[..cut]);
            }
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(Message::decode(&[200]).is_err());
        assert!(Message::decode(&[]).is_err());
    }

    #[test]
    fn endpoint_pair_carries_messages_both_ways() {
        let (a, b) = Endpoint::pair();
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
    fn try_recv_is_non_blocking() {
        let (a, b) = Endpoint::pair();
        assert_eq!(b.try_recv().unwrap(), None);
        a.send(&Message::Ack).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some(Message::Ack));
    }

    #[test]
    fn disconnect_is_an_error() {
        let (a, b) = Endpoint::pair();
        drop(b);
        assert!(a.send(&Message::Ack).is_err());
    }

    #[test]
    fn bad_utf8_in_metric_key_is_rejected() {
        let msg = Message::PushMetric {
            job: JobId(1),
            key: "loss".into(),
            value: 0.0,
        };
        let mut frame = msg.encode();
        // Corrupt the key bytes with invalid UTF-8.
        let key_start = frame.len() - 8 - 4;
        frame[key_start] = 0xFF;
        frame[key_start + 1] = 0xFE;
        assert!(Message::decode(&frame).is_err());
    }
}
