//! Networked multi-process deployment subsystem for the Blox toolkit.
//!
//! The paper's deployment (§6.3, Figure 17) is a distributed
//! three-component system: a central scheduler, per-node worker managers,
//! and a client library talking over RPC. `blox-runtime` emulates all of
//! it inside one process; this crate runs the *same* protocol and the
//! *same* `WorkerManager` code over framed loopback TCP between real OS
//! processes:
//!
//! * [`frame`] — the one u32 length-prefix framing implementation
//!   (encode + streaming reassembly with an oversize guard) the event
//!   loop and the blocking client share;
//! * [`tcp`] — the blocking client: a [`TcpTransport`] implementing the
//!   runtime's `Transport` contract with length-prefixed frames over
//!   `std::net` sockets (no new dependencies), used by `blox-submit` and
//!   test/benchmark peers;
//! * [`poller`] — the readiness backends: `epoll(7)` (Linux, O(ready)
//!   wakeups) and `poll(2)` (portable fallback) behind one persistent-
//!   registration [`poller::ReadinessPoller`] contract, chosen by the
//!   platform;
//! * [`outq`] — the zero-copy outbound queue: refcounted
//!   [`frame::SharedFrame`] chunks drained by `writev(2)` scatter-gather
//!   with exact partial-write accounting;
//! * [`event_loop`] — the one server-side engine: a readiness loop
//!   owning all connections in a slab, with batched decode, write
//!   backpressure, and timer-wheel heartbeats — no per-connection
//!   threads, for tens of thousands of clients. It serves the
//!   scheduler's listener and every node's scheduler link;
//! * [`loadgen`] — open-loop SubmitJob traffic generation (the
//!   `blox-loadgen` binary) with submit→accepted latency percentiles;
//! * [`sched`] — the `bloxschedd` side: a [`NetBackend`]
//!   implementing `blox_core::manager::Backend`, so every existing
//!   scheduling / placement / admission policy drives a real multi-process
//!   cluster unchanged, plus a heartbeat failure detector whose verdicts
//!   feed `ClusterState` churn (node loss → lease revocation → requeue;
//!   reconnection → node re-add);
//! * [`node`] — the `bloxnoded` side: registration, clock sync,
//!   heartbeating, and command serving around the shared `WorkerManager`;
//! * [`client`] — the `blox-submit` side: live job submission into the
//!   scheduler's wait queue over the same wire.
//!
//! Every listener binds `127.0.0.1:0` by default (ephemeral ports), so
//! parallel test runs and co-located daemons never collide; the chosen
//! port is propagated through [`sched::NetBackend::addr`].

#![warn(missing_docs)]

pub mod client;
pub mod event_loop;
pub mod frame;
pub mod loadgen;
pub mod node;
pub mod outq;
pub mod poller;
pub mod sched;
pub mod tcp;

pub use client::{submit, submit_paced, submit_timed, JobRequest};
pub use event_loop::{
    shared_pool, Delivery, EvLoopConfig, EvLoopPool, EvSender, EvTransport, LoopEvent, Token,
    TransportKind,
};
pub use frame::{
    encode_frame, encode_frame_into, encode_shared, FrameBuf, SharedFrame, MAX_FRAME_BYTES,
};
pub use loadgen::{LoadReport, LoadgenConfig, Pacer};
pub use node::{run_node, spawn_node, NodeConfig, NodeHandle};
pub use outq::OutQueue;
pub use poller::{new_poller, Interest, PollerKind, ReadinessPoller, ReadyEvent};
pub use sched::{
    read_checkpoint, serve, serve_with, write_checkpoint, NetBackend, NetReport, RecoveryOptions,
    SchedulerConfig,
};
pub use tcp::{TcpSender, TcpTransport};
