//! Deployment runtime for the Blox toolkit.
//!
//! Mirrors the paper's three-component implementation (§6.3, Figure 17):
//!
//! * **CentralScheduler** — the [`RuntimeBackend`] plugs the scheduling
//!   loop of `blox-core` into real (emulated-hardware) execution;
//! * **WorkerManager** — one per node, launching and preempting emulated
//!   training processes, storing leases and metrics locally;
//! * **BloxClientLibrary** — a data-loader wrapper that checks its lease
//!   each iteration and a metric collector that pushes key/value metrics.
//!
//! The paper uses gRPC. This crate substitutes a hand-rolled
//! length-prefixed binary codec ([`wire`]) over in-process channels,
//! which keeps the message patterns (launch/preempt RPCs, metric pushes,
//! lease checks) while keeping the workspace dependency-light. Training
//! itself is emulated: worker threads run time-scaled iterations, so a
//! multi-day trace replays in seconds while exercising the exact
//! launch / lease / preempt / metric code paths.
//!
//! [`control`] is the scheduler side of that traffic, shared by every
//! deployment backend: it revokes, collects suspension acks, forwards
//! two-phase exits, launches, and applies worker status. A backend only
//! supplies its transport as a [`control::WorkerLinks`].
//!
//! The lease protocol implements both designs evaluated in Figure 19 —
//! centralized renewal (every job round-trips to the scheduler) and
//! Blox's optimistic renewal (leases auto-renew; the scheduler revokes
//! through the worker manager) — plus the two-phase expiration that keeps
//! distributed workers' checkpoints consistent.

#![warn(missing_docs)]

pub mod control;
pub mod fault;
pub mod lease;
pub mod runtime;
pub mod wire;

pub use fault::{FaultySender, FaultyTransport};
pub use lease::{LeaseMode, LeaseTable, TwoPhaseExit};
pub use runtime::{
    EmulatedCluster, RuntimeBackend, RuntimeConfig, ServeEnd, SimClock, WorkerManager,
};
pub use wire::{Endpoint, Message, Transport, WireSender};
