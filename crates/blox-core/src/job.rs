//! Job descriptions and lifecycle state.

use std::fmt;

use crate::ids::{GpuGlobalId, JobId};
use crate::profile::JobProfile;

/// Lifecycle of a job inside the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted and waiting for its first (or next) allocation.
    Queued,
    /// Currently holding GPUs and making progress.
    Running,
    /// Previously ran, currently preempted (checkpoint on disk).
    Suspended,
    /// Finished all requested work.
    Completed,
    /// Terminated early by a policy (e.g. loss-based termination).
    TerminatedEarly,
    /// Lost to a node failure and not yet requeued.
    Failed,
}

impl JobStatus {
    /// True for states in which the job still wants resources.
    pub fn is_active(self) -> bool {
        matches!(
            self,
            JobStatus::Queued | JobStatus::Running | JobStatus::Suspended
        )
    }

    /// True once the job will never run again.
    pub fn is_done(self) -> bool {
        matches!(self, JobStatus::Completed | JobStatus::TerminatedEarly)
    }
}

/// A single DL training job.
///
/// Combines the static description from the trace (arrival, demand, total
/// work, model profile) with the mutable bookkeeping the scheduling loop
/// maintains (progress, attained service, placement, per-job metric
/// key-value store — the paper's flexible `JobState` dictionary).
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique id, assigned in submission order.
    pub id: JobId,
    /// Time the job was submitted to the scheduler frontend (seconds).
    pub arrival_time: f64,
    /// Number of GPUs the user requested.
    pub requested_gpus: u32,
    /// Total work, in iterations at the requested configuration.
    pub total_iters: f64,
    /// Iterations completed so far.
    pub completed_iters: f64,
    /// Model profile driving the performance model.
    pub profile: JobProfile,
    /// Lifecycle state.
    pub status: JobStatus,
    /// GPU-seconds of service attained (Tiresias' LAS metric).
    pub attained_service: f64,
    /// Wall-clock seconds the job has spent running.
    pub running_time: f64,
    /// Time the job first received GPUs, if ever (responsiveness metric).
    pub first_scheduled: Option<f64>,
    /// Time the job finished, if done.
    pub completion_time: Option<f64>,
    /// Current placement (empty unless running).
    pub placement: Vec<GpuGlobalId>,
    /// Number of times the job has been preempted.
    pub preemptions: u32,
    /// Number of times the job has been (re)started.
    pub launches: u32,
    /// Current per-replica batch size (Pollux may retune this).
    pub batch_size: u64,
    /// Seconds of launch/restore overhead still to pay before the job makes
    /// progress in the current round.
    pub pending_overhead: f64,
    /// Arbitrary application metrics pushed through the client library
    /// (loss, gradient norm, observed iteration time, ...). Mirrors the
    /// paper's key-value metric store; see [`Metrics`] for its layout.
    pub metrics: Metrics,
    /// If set, the scheduler terminates the job once its reported loss is
    /// within this relative distance of the converged loss (Figure 16).
    pub loss_termination_threshold: Option<f64>,
}

impl Job {
    /// Create a queued job from its trace description.
    pub fn new(
        id: JobId,
        arrival_time: f64,
        requested_gpus: u32,
        total_iters: f64,
        profile: JobProfile,
    ) -> Self {
        let batch_size = profile.pollux.as_ref().map(|p| p.init_batch).unwrap_or(32);
        Job {
            id,
            arrival_time,
            requested_gpus,
            total_iters,
            completed_iters: 0.0,
            profile,
            status: JobStatus::Queued,
            attained_service: 0.0,
            running_time: 0.0,
            first_scheduled: None,
            completion_time: None,
            placement: Vec::new(),
            preemptions: 0,
            launches: 0,
            batch_size,
            pending_overhead: 0.0,
            metrics: Metrics::default(),
            loss_termination_threshold: None,
        }
    }

    /// Fraction of requested work completed, in [0, 1].
    pub fn progress(&self) -> f64 {
        if self.total_iters <= 0.0 {
            1.0
        } else {
            (self.completed_iters / self.total_iters).clamp(0.0, 1.0)
        }
    }

    /// Iterations still to run.
    pub fn remaining_iters(&self) -> f64 {
        (self.total_iters - self.completed_iters).max(0.0)
    }

    /// Current loss according to the job's loss curve and progress.
    pub fn current_loss(&self) -> f64 {
        self.profile.loss.loss_at(self.progress())
    }

    /// Job completion time, when finished.
    pub fn jct(&self) -> Option<f64> {
        self.completion_time.map(|c| c - self.arrival_time)
    }

    /// Queueing delay until the first allocation, when scheduled at least
    /// once (the paper's responsiveness metric).
    pub fn responsiveness(&self) -> Option<f64> {
        self.first_scheduled.map(|f| f - self.arrival_time)
    }

    /// Push an application metric (client-library path). Overwrites in
    /// place, without allocating, once the key exists.
    pub fn push_metric(&mut self, key: &str, value: f64) {
        self.metrics.insert(key, value);
    }

    /// Read an application metric.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.get(key)
    }

    /// Estimate of remaining runtime (seconds) at the requested GPU count
    /// on a consolidated V100 placement; used by SRTF and Optimus.
    pub fn estimated_remaining_time(&self) -> f64 {
        let iter = self.profile.iter_model.iter_time(
            self.requested_gpus,
            crate::cluster::GpuType::V100,
            true,
            100.0,
        );
        self.remaining_iters() * iter
    }

    /// Total isolated runtime estimate at the requested configuration.
    pub fn estimated_total_time(&self) -> f64 {
        let iter = self.profile.iter_model.iter_time(
            self.requested_gpus,
            crate::cluster::GpuType::V100,
            true,
            100.0,
        );
        self.total_iters * iter
    }
}

/// Metric keys the simulator pushes every round (plus the inference
/// crate's `request_rate`), in byte-wise order. Each has a fixed slot in
/// [`Metrics`], so storing one never allocates.
const INTERNED_KEYS: [&str; 4] = ["goodput", "iter_time", "loss", "request_rate"];

/// A job's application metric store: a map from string keys to values
/// that iterates in byte-wise key order, the order a
/// `BTreeMap<String, f64>` iterates in (so snapshots encode the same
/// bytes).
///
/// One pointer wide: a job that never reports a metric (a queued job)
/// carries a null pointer, and the store is allocated at the first push.
/// In it, the simulator's keys (`goodput`, `iter_time`, `loss`, and
/// `request_rate`) have fixed slots: pushing one is a write, with no
/// lookup structure and no allocation. A wire `PushMetric` may carry any
/// other string; such keys are kept owned in a sorted `Vec`.
#[derive(Clone, Default, PartialEq)]
pub struct Metrics(Option<Box<MetricSlots>>);

#[derive(Clone, Default, PartialEq)]
struct MetricSlots {
    /// Bit `i` is set when slot `i` holds a value.
    present: u8,
    /// Values of [`INTERNED_KEYS`], by position (0.0 while unset, so the
    /// derived equality holds).
    interned: [f64; 4],
    /// Every other key, sorted.
    other: Vec<(String, f64)>,
}

impl Metrics {
    /// The value stored under `key`.
    pub fn get(&self, key: &str) -> Option<f64> {
        let s = self.0.as_deref()?;
        match slot(key) {
            Some(i) => (s.present & 1 << i != 0).then_some(s.interned[i]),
            None => s.find(key).ok().map(|i| s.other[i].1),
        }
    }

    /// Store `value` under `key`, replacing any previous value.
    pub fn insert(&mut self, key: &str, value: f64) {
        let s = self.0.get_or_insert_with(Box::default);
        if let Some(i) = slot(key) {
            s.interned[i] = value;
            s.present |= 1 << i;
            return;
        }
        match s.find(key) {
            Ok(i) => s.other[i].1 = value,
            Err(i) => s.other.insert(i, (key.to_owned(), value)),
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.0
            .as_deref()
            .map_or(0, |s| s.present.count_ones() as usize + s.other.len())
    }

    /// True when no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(key, value)` pairs in byte-wise key order: the interned slots
    /// merged with the owned keys.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().flat_map(|s| s.iter())
    }
}

impl MetricSlots {
    fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        let mut interned = (0..INTERNED_KEYS.len())
            .filter(|i| self.present & 1 << i != 0)
            .map(|i| (INTERNED_KEYS[i], self.interned[i]))
            .peekable();
        let mut other = self.other.iter().map(|(k, v)| (k.as_str(), *v)).peekable();
        std::iter::from_fn(move || match (interned.peek(), other.peek()) {
            (Some((a, _)), Some((b, _))) if b < a => other.next(),
            (Some(_), _) => interned.next(),
            (None, _) => other.next(),
        })
    }

    fn find(&self, key: &str) -> Result<usize, usize> {
        self.other.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }
}

/// The slot of an interned key.
fn slot(key: &str) -> Option<usize> {
    INTERNED_KEYS.iter().position(|k| *k == key)
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::JobProfile;

    fn job() -> Job {
        Job::new(
            JobId(1),
            100.0,
            2,
            1000.0,
            JobProfile::synthetic("toy", 0.5),
        )
    }

    #[test]
    fn new_job_is_queued_with_zero_progress() {
        let j = job();
        assert_eq!(j.status, JobStatus::Queued);
        assert_eq!(j.progress(), 0.0);
        assert_eq!(j.remaining_iters(), 1000.0);
        assert!(j.jct().is_none());
        assert!(j.responsiveness().is_none());
    }

    #[test]
    fn progress_clamps_at_one() {
        let mut j = job();
        j.completed_iters = 2000.0;
        assert_eq!(j.progress(), 1.0);
        assert_eq!(j.remaining_iters(), 0.0);
    }

    #[test]
    fn jct_and_responsiveness_subtract_arrival() {
        let mut j = job();
        j.first_scheduled = Some(150.0);
        j.completion_time = Some(400.0);
        assert_eq!(j.responsiveness(), Some(50.0));
        assert_eq!(j.jct(), Some(300.0));
    }

    #[test]
    fn metric_store_roundtrip() {
        let mut j = job();
        j.push_metric("loss", 2.5);
        assert_eq!(j.metric("loss"), Some(2.5));
        assert_eq!(j.metric("missing"), None);
    }

    #[test]
    fn loss_follows_curve() {
        let mut j = job();
        let start = j.current_loss();
        j.completed_iters = 900.0;
        assert!(j.current_loss() < start);
    }

    #[test]
    fn remaining_time_shrinks_with_progress() {
        let mut j = job();
        let t0 = j.estimated_remaining_time();
        j.completed_iters = 500.0;
        assert!(j.estimated_remaining_time() < t0);
        assert!(j.estimated_total_time() >= t0);
    }

    #[test]
    fn status_predicates() {
        assert!(JobStatus::Queued.is_active());
        assert!(JobStatus::Suspended.is_active());
        assert!(!JobStatus::Completed.is_active());
        assert!(JobStatus::Completed.is_done());
        assert!(JobStatus::TerminatedEarly.is_done());
        assert!(!JobStatus::Failed.is_done());
    }
}
