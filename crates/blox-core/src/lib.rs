//! Core abstractions for the Blox deep-learning scheduler toolkit.
//!
//! This crate defines the seven abstractions identified by the Blox paper
//! (EuroSys '24) and the shared state they communicate through:
//!
//! * [`JobState`] and [`ClusterState`] — the two shared data structures that
//!   every policy reads and that the execution backend mutates.
//! * [`AdmissionPolicy`], [`SchedulingPolicy`], [`PlacementPolicy`] — the
//!   pluggable decision modules.
//! * [`Backend`] — the execution substrate (job launch, preemption, metric
//!   collection, cluster management). Exactly two backends exist in the
//!   workspace: the simulator (`blox-sim`) and the deployment runtime
//!   (`blox-runtime`); swapping them is the only change between a simulation
//!   and a cluster run, mirroring the paper's design.
//! * [`BloxManager`] — the round-based scheduling loop that chains the
//!   abstractions together (paper Figure 2).
//!
//! # Examples
//!
//! ```
//! use blox_core::{ClusterState, GpuType, NodeSpec};
//!
//! let mut cluster = ClusterState::new();
//! cluster.add_nodes(&NodeSpec::v100_p3_8xlarge(), 32);
//! assert_eq!(cluster.total_gpus(), 128);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod codec;
pub mod delta;
pub mod error;
pub mod fault;
pub mod ids;
pub mod job;
pub mod manager;
pub mod metrics;
pub mod place_index;
pub mod place_util;
pub mod pods;
pub mod policy;
pub mod profile;
pub mod snapshot;
pub mod state;

pub use cluster::{ClusterState, GpuRow, GpuState, GpuType, Node, NodeEvent, NodeSpec};
pub use delta::StateDelta;
pub use error::{BloxError, Result};
pub use fault::{FaultEvent, FaultPlan, FaultState, FaultVerdict, LinkFaults};
pub use ids::{GpuGlobalId, JobId, NodeId};
pub use job::{Job, JobStatus, Metrics};
pub use manager::{
    apply_placement, Backend, BloxManager, ExecMode, PlacementOutcome, RoundOutcome, RunConfig,
    StopCondition,
};
pub use metrics::{JobRecord, RunStats, Stage, StageTimes, Summary};
pub use place_index::PlacementIndex;
pub use pods::{
    AdmitAllGlobal, GlobalAdmission, PodBackend, PodConfig, PodLease, PodPolicies, PodScheduler,
};
pub use policy::{
    AdmissionPolicy, Placement, PlacementPolicy, SchedulingDecision, SchedulingPolicy,
};
pub use profile::{IterTimeModel, JobProfile, LossCurve, PolluxProfile};
pub use snapshot::Snapshot;
pub use state::JobState;
