//! Workload substrate for the Blox toolkit: the Table-2 model zoo with
//! performance profiles, and synthetic equivalents of the three workload
//! traces the paper evaluates on (Philly, Pollux, Tiresias), plus the
//! spike/bursty transforms used in §5.
//!
//! The paper's production traces are proprietary. This crate substitutes
//! synthetic traces that preserve the properties the experiments depend
//! on: the Poisson arrival process with a sweepable rate, heavy-tailed
//! isolated runtimes, a GPU-demand mix skewed towards small jobs, and
//! per-job model profiles.

#![warn(missing_docs)]

pub mod dist;
pub mod models;
pub mod philly;
pub mod pollux;
pub mod tiresias;
pub mod trace;
pub mod transforms;

pub use models::ModelZoo;
pub use philly::PhillyTraceGen;
pub use pollux::PolluxTraceGen;
pub use tiresias::TiresiasTraceGen;
pub use trace::Trace;
