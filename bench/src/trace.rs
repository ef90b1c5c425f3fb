//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: a [`Recorder`] shared by timing decorators over the
//! `Backend` and the three policy traits, plus the arithmetic that turns
//! span rows into per-layer self times.
//!
//! Nothing here runs in an untraced measurement.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blox_core::cluster::ClusterState;
use blox_core::delta::StateDelta;
use blox_core::ids::JobId;
use blox_core::job::Job;
use blox_core::manager::{Backend, PlacementOutcome};
use blox_core::policy::{
    AdmissionPolicy, Placement, PlacementPolicy, SchedulingDecision, SchedulingPolicy,
};
use blox_core::state::JobState;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval. Spans of one round (sim) or one job (net) share
/// `key`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span table: pre-sized, appended to on the measured thread,
/// written out only after the measurement ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last; a new span's
    /// parent is the top of this stack.
    open: Vec<u32>,
    key: u64,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Self::starting_at(Instant::now(), spans)
    }

    /// A recorder whose span times count from `origin` (spans pushed
    /// after the fact must not start before it).
    pub fn starting_at(origin: Instant, spans: usize) -> Self {
        Recorder {
            origin,
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
            key: 0,
        }
    }

    /// Set the round (or job) id stamped on spans entered from now on.
    pub fn set_key(&mut self, key: u64) {
        self.key = key;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            name,
            key: self.key,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Append a finished span whose interval was measured elsewhere (the
    /// net generator's sends and ack waits overlap, so they cannot use
    /// the enter/exit stack). Returns its id for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        key: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            key,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drop every recorded span, keeping the allocation.
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with spans still open");
        self.spans.clear();
    }
}

/// The recorder handle the decorators share. `Backend` and the policy
/// traits are `Send`, hence the mutex; it is never contended.
pub type Shared = Arc<Mutex<Recorder>>;

pub fn shared(capacity: usize) -> Shared {
    Arc::new(Mutex::new(Recorder::with_capacity(capacity)))
}

fn lock(rec: &Shared) -> std::sync::MutexGuard<'_, Recorder> {
    rec.lock()
        .expect("no thread panics while holding the recorder")
}

/// Run `f` inside a span.
pub fn timed<T>(rec: &Shared, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = lock(rec).enter(name);
    let out = f();
    lock(rec).exit(id);
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that child spans cover. Overlapping children are counted once (the
/// union of their intervals, clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                children.entry(s.parent).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = 0;
                for &(lo, hi) in kids.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Durations (ms) of every span, grouped by name.
pub fn durations_ms(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64 / 1e6);
    }
    out
}

/// Write the span table as JSON lines. `key_name` is `round` or `job`.
pub fn write_jsonl(path: &Path, key_name: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = match s.parent {
            NO_PARENT => "null".to_string(),
            p => p.to_string(),
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"{key_name}\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.key, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

// Decorators -----------------------------------------------------------------

/// `Backend` decorator: every state-touching trait method runs inside a
/// `sim.*` span; the O(1) accessors forward untimed.
pub struct TimedBackend<B: Backend> {
    inner: B,
    rec: Shared,
}

impl<B: Backend> TimedBackend<B> {
    pub fn new(inner: B, rec: Shared) -> Self {
        TimedBackend { inner, rec }
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn update_cluster(&mut self, cluster: &mut ClusterState) {
        timed(&self.rec, "sim.update_cluster", || {
            self.inner.update_cluster(cluster)
        })
    }

    fn pop_wait_queue(&mut self, now: f64) -> Vec<Job> {
        timed(&self.rec, "sim.pop_wait_queue", || {
            self.inner.pop_wait_queue(now)
        })
    }

    fn peek_next_arrival(&self) -> Option<(JobId, f64)> {
        self.inner.peek_next_arrival()
    }

    fn update_metrics(&mut self, cluster: &mut ClusterState, jobs: &mut JobState, elapsed: f64) {
        timed(&self.rec, "sim.update_metrics", || {
            self.inner.update_metrics(cluster, jobs, elapsed)
        })
    }

    fn observe_delta(&mut self, delta: &StateDelta) {
        timed(&self.rec, "sim.observe_delta", || {
            self.inner.observe_delta(delta)
        })
    }

    fn exec_jobs(
        &mut self,
        placement: &Placement,
        cluster: &mut ClusterState,
        jobs: &mut JobState,
    ) -> PlacementOutcome {
        timed(&self.rec, "sim.exec_jobs", || {
            self.inner.exec_jobs(placement, cluster, jobs)
        })
    }

    fn advance_round(&mut self, round_duration: f64) {
        self.inner.advance_round(round_duration)
    }

    fn next_event_hint(&self, cluster: &ClusterState, jobs: &JobState) -> Option<f64> {
        timed(&self.rec, "sim.next_event_hint", || {
            self.inner.next_event_hint(cluster, jobs)
        })
    }
}

/// Admission decorator (`policies.admit`).
pub struct TimedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    rec: Shared,
}

impl TimedAdmission {
    pub fn new(inner: Box<dyn AdmissionPolicy>, rec: Shared) -> Self {
        TimedAdmission { inner, rec }
    }
}

impl AdmissionPolicy for TimedAdmission {
    fn admit(
        &mut self,
        new_jobs: Vec<Job>,
        job_state: &JobState,
        cluster: &ClusterState,
        now: f64,
    ) -> Vec<Job> {
        timed(&self.rec, "policies.admit", || {
            self.inner.admit(new_jobs, job_state, cluster, now)
        })
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn drain(&mut self) -> Vec<Job> {
        self.inner.drain()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Counts taken at the Schedule and Place boundaries, where the work
/// happens.
#[derive(Debug, Default, Clone, Copy)]
pub struct PolicyCounts {
    pub schedules: u64,
    /// Σ `decision.allocations.len()`.
    pub allocations: u64,
    /// Σ jobs the plan launches.
    pub launches: u64,
    /// Σ waiting (queued or suspended) jobs when `place` was called: the
    /// attempts the launches are the useful outcomes of.
    pub waiting_at_place: u64,
}

impl PolicyCounts {
    pub fn merge(&mut self, other: &PolicyCounts) {
        self.schedules += other.schedules;
        self.allocations += other.allocations;
        self.launches += other.launches;
        self.waiting_at_place += other.waiting_at_place;
    }
}

/// Scheduling decorator (`policies.schedule`, `policies.observe_delta`).
pub struct TimedScheduling {
    inner: Box<dyn SchedulingPolicy>,
    rec: Shared,
    counts: Arc<Mutex<PolicyCounts>>,
}

impl TimedScheduling {
    pub fn new(
        inner: Box<dyn SchedulingPolicy>,
        rec: Shared,
        counts: Arc<Mutex<PolicyCounts>>,
    ) -> Self {
        TimedScheduling { inner, rec, counts }
    }
}

impl SchedulingPolicy for TimedScheduling {
    fn schedule(
        &mut self,
        job_state: &JobState,
        cluster: &ClusterState,
        now: f64,
    ) -> SchedulingDecision {
        let decision = timed(&self.rec, "policies.schedule", || {
            self.inner.schedule(job_state, cluster, now)
        });
        let mut c = self.counts.lock().expect("counts lock is never poisoned");
        c.schedules += 1;
        c.allocations += decision.allocations.len() as u64;
        decision
    }

    fn observe_delta(&mut self, delta: &StateDelta, job_state: &JobState) {
        timed(&self.rec, "policies.observe_delta", || {
            self.inner.observe_delta(delta, job_state)
        })
    }

    fn stable_between_events(&self) -> bool {
        self.inner.stable_between_events()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Placement decorator (`policies.place`).
pub struct TimedPlacement {
    inner: Box<dyn PlacementPolicy>,
    rec: Shared,
    counts: Arc<Mutex<PolicyCounts>>,
}

impl TimedPlacement {
    pub fn new(
        inner: Box<dyn PlacementPolicy>,
        rec: Shared,
        counts: Arc<Mutex<PolicyCounts>>,
    ) -> Self {
        TimedPlacement { inner, rec, counts }
    }
}

impl PlacementPolicy for TimedPlacement {
    fn place(
        &mut self,
        decision: &SchedulingDecision,
        job_state: &JobState,
        cluster: &ClusterState,
        now: f64,
    ) -> Placement {
        let plan = timed(&self.rec, "policies.place", || {
            self.inner.place(decision, job_state, cluster, now)
        });
        let mut c = self.counts.lock().expect("counts lock is never poisoned");
        c.launches += plan.to_launch.len() as u64;
        c.waiting_at_place += job_state.waiting_count() as u64;
        plan
    }

    fn stable_between_events(&self) -> bool {
        self.inner.stable_between_events()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span(0, NO_PARENT, 0, 100),
            // Two children overlapping on [30, 40): union covers [10, 60).
            span(1, 0, 10, 40),
            span(2, 0, 30, 60),
            // A child sticking out of its parent is clipped to it.
            span(3, 0, 90, 130),
            // A grandchild reduces its own parent only.
            span(4, 1, 10, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 40, 10]);
    }

    #[test]
    fn enter_exit_nests_under_the_open_span() {
        let rec = shared(8);
        timed(&rec, "outer", || {
            timed(&rec, "inner", || ());
            timed(&rec, "inner", || ());
        });
        let rec = lock(&rec);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let selfs = self_times_ns(s);
        let kids = (s[1].end_ns - s[1].start_ns) + (s[2].end_ns - s[2].start_ns);
        assert_eq!(selfs[0], (s[0].end_ns - s[0].start_ns) - kids);
    }
}
