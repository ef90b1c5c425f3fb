//! The round-based scheduling loop (`BloxManager`) and the execution
//! backend trait that makes the same loop run in simulation or on a real
//! cluster.
//!
//! # The staged round pipeline
//!
//! [`BloxManager::step`] is an explicit five-stage pipeline — **Collect →
//! Admit → Schedule → Place → Actuate** — with per-stage wall-time
//! telemetry accumulated in [`RunStats::stage_times`] (the paper's
//! scheduler-overhead measurement). Every backend rides the same
//! pipeline; each stage contributes its part of the round's
//! [`StateDelta`], which is delivered to the scheduling policy
//! ([`crate::policy::SchedulingPolicy::observe_delta`]) before its
//! `schedule` call and returned in the [`RoundOutcome`].

use std::time::Instant;

use crate::cluster::ClusterState;
use crate::delta::StateDelta;
use crate::error::BloxError;
use crate::ids::JobId;
use crate::job::{Job, JobStatus};
use crate::metrics::RunStats;
use crate::policy::{AdmissionPolicy, Placement, PlacementPolicy, SchedulingPolicy};
use crate::state::JobState;

/// Execution substrate behind the scheduling loop.
///
/// Exactly the two modules the paper swaps between simulation and cluster
/// runs: cluster management + metric collection on one side, job
/// launch/preemption on the other. Everything else (admission, scheduling,
/// placement, the loop itself) is backend-agnostic.
pub trait Backend: Send {
    /// Current time in seconds (simulated or wall-clock).
    fn now(&self) -> f64;

    /// Apply cluster churn (node failures / additions) for this round.
    fn update_cluster(&mut self, cluster: &mut ClusterState);

    /// Drain jobs whose arrival time is at or before `now`.
    fn pop_wait_queue(&mut self, now: f64) -> Vec<Job>;

    /// The id and arrival time of the next not-yet-popped job, if any.
    fn peek_next_arrival(&self) -> Option<(JobId, f64)>;

    /// Apply `elapsed` seconds of progress to running jobs: advance
    /// iterations, update attained service, push application metrics, and
    /// mark (with exact sub-round completion times) jobs that finished.
    /// Completed jobs must have their GPUs released in `cluster`.
    ///
    /// **Elapsed contract:** `elapsed` is the time span actually covered
    /// since the previous `update_metrics` call, as measured by the
    /// manager from [`Backend::now`] — *not* necessarily one round
    /// duration (the event-driven fast path jumps several rounds at
    /// once, and the first call of a run covers zero time). Backends
    /// without their own notion of progress time must integrate exactly
    /// `elapsed` seconds; backends with an authoritative clock (the
    /// simulator) may re-derive the span themselves but must agree with
    /// the parameter (the simulator debug-asserts this), so the two
    /// families cannot drift apart.
    fn update_metrics(&mut self, cluster: &mut ClusterState, jobs: &mut JobState, elapsed: f64);

    /// Observe the round's assembled [`StateDelta`] at the end of the
    /// Actuate stage, after the plan has executed. Backends that maintain
    /// derived caches over the shared state (e.g. the simulator's
    /// progress-rate cache) use this to invalidate exactly what the round
    /// changed. The default does nothing.
    fn observe_delta(&mut self, delta: &StateDelta) {
        let _ = delta;
    }

    /// Execute this round's placement: suspend, then launch. Returns what
    /// actually happened (the backend's contribution to the round's
    /// [`StateDelta`]); backends built on [`apply_placement`] return its
    /// outcome.
    fn exec_jobs(
        &mut self,
        placement: &Placement,
        cluster: &mut ClusterState,
        jobs: &mut JobState,
    ) -> PlacementOutcome;

    /// Advance to the next round boundary. Simulated backends jump the
    /// clock; real-time backends wait out the round's wall time, and may
    /// serve intake during the wait (the networked backend accepts and
    /// acknowledges submissions as they arrive).
    fn advance_round(&mut self, round_duration: f64);

    /// The earliest future time at which backend-driven state can change,
    /// if the backend can predict it: the next trace arrival, the next
    /// scheduled churn event, or the earliest sub-round completion of a
    /// currently running job under its frozen placement.
    ///
    /// The manager's event-driven fast path ([`ExecMode::EventDriven`])
    /// uses this hint to jump over scheduling rounds that provably cannot
    /// observe anything new. Contract for implementors:
    ///
    /// * Every returned time must be exact or an *underestimate* — the
    ///   manager never skips past the hint, so a too-early hint only costs
    ///   an extra (harmless) round, while a too-late hint would skip over
    ///   an event and corrupt the run.
    /// * Completion predictions may assume placements stay frozen until
    ///   the hint time; the manager only skips when that holds.
    /// * Return `None` when no future event is predictable (this disables
    ///   skipping entirely, the behavior of real-time backends where the
    ///   clock must actually elapse).
    fn next_event_hint(&self, cluster: &ClusterState, jobs: &JobState) -> Option<f64> {
        let _ = (cluster, jobs);
        None
    }
}

/// How the manager's `run` loop advances time between rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Tick every round boundary, even when a round cannot observe any
    /// event. The original (paper) behavior and the default.
    #[default]
    FixedRounds,
    /// Skip rounds that provably observe nothing by jumping the clock to
    /// the backend's [`Backend::next_event_hint`]. Skipped rounds are
    /// still accounted in [`RunStats::rounds`] (and tallied in
    /// [`RunStats::skipped_rounds`]) so round-derived statistics keep
    /// their fixed-round semantics.
    ///
    /// Results are equivalent to [`ExecMode::FixedRounds`] up to
    /// floating-point association: progress accrued over `k` skipped
    /// rounds is applied as one lump instead of `k` per-round increments.
    EventDriven,
}

/// When the manager's `run` loop stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// Stop when every submitted job has finished and the trace is drained.
    AllJobsDone,
    /// Stop once all jobs with ids in `[lo, hi]` have finished (and the
    /// trace has advanced past `hi`). The paper's steady-state methodology:
    /// jobs keep arriving while the tracked window drains.
    TrackedWindowDone {
        /// First tracked job id.
        lo: u64,
        /// Last tracked job id.
        hi: u64,
    },
    /// Stop at the given simulated/wall time.
    TimeLimit(f64),
}

/// Configuration of one scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Length of a scheduling round in seconds (the paper uses 300 s by
    /// default and sweeps 1–8 min in Figure 3).
    pub round_duration: f64,
    /// Hard cap on rounds, a safety net against non-terminating setups.
    pub max_rounds: u64,
    /// Termination condition.
    pub stop: StopCondition,
    /// Whether `run` may skip provably empty rounds (the event-driven
    /// fast path). `step` is unaffected by this setting.
    pub mode: ExecMode,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            round_duration: 300.0,
            max_rounds: 2_000_000,
            stop: StopCondition::AllJobsDone,
            mode: ExecMode::FixedRounds,
        }
    }
}

/// Per-round outcome, useful for logging and the synthesizer's bookkeeping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundOutcome {
    /// Jobs admitted this round.
    pub admitted: usize,
    /// Jobs launched this round.
    pub launched: usize,
    /// Jobs suspended this round.
    pub suspended: usize,
    /// Jobs that finished during the previous round.
    pub completed: usize,
    /// Jobs terminated early by policy this round.
    pub terminated: usize,
    /// Exactly what changed, by id — the round's full state delta.
    pub delta: StateDelta,
    /// Plan entries the backend could not apply this round, with the
    /// reason (from [`PlacementOutcome::skipped`]). Empty on every
    /// healthy round; callers that requeue or alert on skipped launches
    /// read them here.
    pub skipped: Vec<(JobId, BloxError)>,
}

/// The scheduling loop of Figure 2, generic over the execution backend.
///
/// Owns the two shared data structures and the run statistics; policies are
/// passed per-call so the automatic synthesizer can swap them between
/// rounds.
pub struct BloxManager<B: Backend> {
    backend: B,
    cluster: ClusterState,
    jobs: JobState,
    stats: RunStats,
    config: RunConfig,
    /// Jobs injected out of band via [`BloxManager::add_jobs`] since the
    /// last step; folded into the next round's [`StateDelta::admitted`]
    /// so delta-subscribed policies never miss a membership change.
    injected: Vec<JobId>,
    /// The previous round's plan effects (terminated / launched /
    /// suspended), not yet delivered to `observe_delta`. A round's plan
    /// executes *after* its schedule call, so — like completions — plan
    /// effects reach the policy at the next round's delta.
    pending_plan: StateDelta,
    /// Time of the last `update_metrics` call, for reporting the span a
    /// Collect stage actually covers (see the [`Backend::update_metrics`]
    /// elapsed contract). `None` before the first round.
    last_metrics_now: Option<f64>,
    /// Jobs extracted by [`BloxManager::extract_waiting_job`] (cross-pod
    /// migration) since the last step; folded into the next round's
    /// [`StateDelta::migrated_out`] so delta-subscribed policies and the
    /// backend forget the departed jobs.
    migrated_pending: Vec<JobId>,
}

impl<B: Backend> BloxManager<B> {
    /// Create a manager over a backend and an initial cluster.
    pub fn new(backend: B, cluster: ClusterState, config: RunConfig) -> Self {
        BloxManager {
            backend,
            cluster,
            jobs: JobState::new(),
            stats: RunStats::new(),
            config,
            injected: Vec::new(),
            pending_plan: StateDelta::new(),
            last_metrics_now: None,
            migrated_pending: Vec::new(),
        }
    }

    /// Resume a manager from previously captured state: a restored
    /// cluster, job set, and statistics (crash recovery from a
    /// [`crate::snapshot::Snapshot`]). Stop conditions keep working
    /// across the restart because the restored statistics carry the
    /// pre-crash job records.
    pub fn with_state(
        backend: B,
        cluster: ClusterState,
        jobs: JobState,
        stats: RunStats,
        config: RunConfig,
    ) -> Self {
        BloxManager {
            backend,
            cluster,
            jobs,
            stats,
            config,
            injected: Vec::new(),
            pending_plan: StateDelta::new(),
            last_metrics_now: None,
            migrated_pending: Vec::new(),
        }
    }

    /// The execution backend (immutable).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the execution backend. The pod meta-scheduler
    /// uses this to route globally-admitted arrivals into a shard's wait
    /// queue; embedders driving backend-specific state (checkpoint
    /// cadence, expected-job pledges) use it the same way.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The shared cluster state.
    pub fn cluster(&self) -> &ClusterState {
        &self.cluster
    }

    /// The shared job state.
    pub fn jobs(&self) -> &JobState {
        &self.jobs
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Current time.
    pub fn now(&self) -> f64 {
        self.backend.now()
    }

    /// Inject jobs directly into the schedulable set, bypassing the
    /// backend's wait queue. Used by the automatic scheduler synthesizer
    /// to re-offer jobs drained from a swapped-out admission policy. The
    /// injected ids are reported in the next round's
    /// [`StateDelta::admitted`].
    pub fn add_jobs(&mut self, jobs: Vec<Job>) {
        self.injected.extend(jobs.iter().map(|j| j.id));
        self.jobs.add_new_jobs(jobs);
    }

    /// Clone the manager's full state (used by the synthesizer to fork
    /// lookahead simulations). Requires a cloneable backend.
    pub fn fork(&self) -> BloxManager<B>
    where
        B: Clone,
    {
        BloxManager {
            backend: self.backend.clone(),
            cluster: self.cluster.clone(),
            jobs: self.jobs.clone(),
            stats: RunStats::new(),
            config: self.config.clone(),
            injected: self.injected.clone(),
            pending_plan: self.pending_plan.clone(),
            last_metrics_now: self.last_metrics_now,
            migrated_pending: self.migrated_pending.clone(),
        }
    }

    /// Remove one *waiting* (queued or suspended) job from this manager's
    /// shared state and hand its record to the caller — the donor half of
    /// a cross-pod migration (see [`crate::pods`]). Returns `None` when
    /// the job is unknown, running (live GPUs never migrate), or already
    /// done.
    ///
    /// The departure is reported in the next round's
    /// [`StateDelta::migrated_out`] so delta-subscribed policies and the
    /// backend drop their per-job state — unless the job was injected via
    /// [`BloxManager::add_jobs`] and never observed by any round, in which
    /// case it vanishes without a delta entry (no policy ever saw it).
    pub fn extract_waiting_job(&mut self, id: JobId) -> Option<Job> {
        let status = self.jobs.get(id)?.status;
        if !matches!(status, JobStatus::Queued | JobStatus::Suspended) {
            return None;
        }
        let job = self.jobs.take_job(id)?;
        match self.injected.iter().position(|j| *j == id) {
            // Injected this round and gone before any delta mentioned it:
            // report neither the admission nor the departure.
            Some(pos) => {
                self.injected.remove(pos);
            }
            None => self.migrated_pending.push(id),
        }
        Some(job)
    }

    /// Execute one scheduling round with the given policies: the explicit
    /// **Collect → Admit → Schedule → Place → Actuate** pipeline, with
    /// per-stage wall time recorded in [`RunStats::stage_times`] and the
    /// round's [`StateDelta`] assembled along the way.
    pub fn step(
        &mut self,
        admission: &mut dyn AdmissionPolicy,
        scheduling: &mut dyn SchedulingPolicy,
        placement: &mut dyn PlacementPolicy,
    ) -> RoundOutcome {
        let mut outcome = RoundOutcome::default();
        let mut delta = StateDelta::new();

        // --- Stage 1: Collect ------------------------------------------
        // Cluster churn, job progress from the previous round (with exact
        // sub-round completion timestamps), and completion pruning.
        let stage = Instant::now();
        let now = self.backend.now();
        self.backend.update_cluster(&mut self.cluster);
        // Report the span this Collect actually covers (see the
        // `Backend::update_metrics` elapsed contract): zero on the first
        // round, several rounds' worth after an event-driven skip.
        let elapsed = self.last_metrics_now.map_or(0.0, |t| (now - t).max(0.0));
        self.backend
            .update_metrics(&mut self.cluster, &mut self.jobs, elapsed);
        self.last_metrics_now = Some(now);
        for event in self.cluster.take_churn() {
            delta.record_node_event(event);
        }
        // Record done jobs (index-driven — no full scan), then prune them
        // into the finished list.
        for id in self.jobs.done_ids() {
            if let Some(job) = self.jobs.get(*id) {
                self.stats.record_job(job);
                outcome.completed += 1;
            }
        }
        delta.completed = self.jobs.prune_completed();
        // Jobs that left this shard via cross-pod migration since the
        // last step depart through the same delta channel.
        delta.migrated_out = std::mem::take(&mut self.migrated_pending);
        let t_collect = stage.elapsed().as_secs_f64();

        // --- Stage 2: Admit --------------------------------------------
        let stage = Instant::now();
        let new_jobs = self.backend.pop_wait_queue(now);
        let accepted = admission.admit(new_jobs, &self.jobs, &self.cluster, now);
        outcome.admitted = accepted.len();
        delta.admitted = std::mem::take(&mut self.injected);
        delta.admitted.extend(accepted.iter().map(|j| j.id));
        self.jobs.add_new_jobs(accepted);
        let t_admit = stage.elapsed().as_secs_f64();

        // --- Stage 3: Schedule -----------------------------------------
        // Deliver everything since the previous schedule call: this
        // round's membership changes and churn, plus the previous round's
        // plan effects (a round's plan executes after its schedule call,
        // so launches/suspensions/terminations — like completions — reach
        // the policy one round later).
        let stage = Instant::now();
        let mut observed = std::mem::take(&mut self.pending_plan);
        observed.admitted = delta.admitted.clone();
        observed.completed = delta.completed.clone();
        observed.migrated_out = delta.migrated_out.clone();
        observed.added_nodes = delta.added_nodes.clone();
        observed.failed_nodes = delta.failed_nodes.clone();
        observed.revived_nodes = delta.revived_nodes.clone();
        scheduling.observe_delta(&observed, &self.jobs);
        let mut decision = scheduling.schedule(&self.jobs, &self.cluster, now);

        // Apply early terminations before placement.
        for id in std::mem::take(&mut decision.terminate) {
            let status = match self.jobs.get(id) {
                Some(job) => job.status,
                None => continue,
            };
            if status.is_active() {
                if status == JobStatus::Running {
                    self.cluster.release(id);
                    if let Some(job) = self.jobs.get_mut(id) {
                        // A finished job keeps no placement buffer.
                        job.placement = Vec::new();
                    }
                }
                self.jobs
                    .set_status(id, JobStatus::TerminatedEarly)
                    .expect("job verified active above");
                if let Some(job) = self.jobs.get_mut(id) {
                    job.completion_time = Some(now);
                }
                outcome.terminated += 1;
                delta.terminated.push(id);
            }
        }
        decision.allocations.retain(|(id, _)| {
            self.jobs
                .get(*id)
                .map(|j| j.status.is_active())
                .unwrap_or(false)
        });

        // Apply batch-size retuning (Pollux). Only actual moves are
        // recorded in the delta: a batch change invalidates the job's
        // cached progress rate, so re-asserting an unchanged batch must
        // not look like a change.
        for (id, batch) in &decision.batch_sizes {
            if let Some(job) = self.jobs.get_mut(*id) {
                if job.batch_size != *batch {
                    job.batch_size = *batch;
                    delta.retuned.push(*id);
                }
            }
        }
        let t_schedule = stage.elapsed().as_secs_f64();

        // --- Stage 4: Place --------------------------------------------
        let stage = Instant::now();
        let plan = placement.place(&decision, &self.jobs, &self.cluster, now);
        outcome.launched = plan.to_launch.len();
        outcome.suspended = plan.to_suspend.len();
        let t_place = stage.elapsed().as_secs_f64();

        // --- Stage 5: Actuate ------------------------------------------
        // Preempt then launch via the backend mechanism, then account the
        // round. (The inter-round wait in `advance_round` is not part of
        // the measured pipeline: real-time backends wait there, serving
        // intake as it arrives.)
        let stage = Instant::now();
        let exec = self
            .backend
            .exec_jobs(&plan, &mut self.cluster, &mut self.jobs);
        delta.launched = exec.launched;
        delta.suspended = exec.suspended;
        outcome.skipped = exec.skipped;
        // Queue this round's plan effects for the next round's
        // observe_delta delivery.
        self.pending_plan.terminated = delta.terminated.clone();
        self.pending_plan.launched = delta.launched.clone();
        self.pending_plan.suspended = delta.suspended.clone();
        self.pending_plan.retuned = delta.retuned.clone();
        // Backends with derived caches invalidate from the same delta the
        // policies will observe.
        self.backend.observe_delta(&delta);
        let busy = self.cluster.total_gpus() - self.cluster.free_gpu_count();
        self.stats
            .record_round(busy, self.cluster.total_gpus(), now);
        let t_actuate = stage.elapsed().as_secs_f64();

        self.stats
            .stage_times
            .record([t_collect, t_admit, t_schedule, t_place, t_actuate]);

        // The indexes are pure acceleration; in debug builds, verify them
        // against a from-scratch derivation after every round.
        #[cfg(debug_assertions)]
        {
            self.cluster
                .check_invariants()
                .expect("cluster invariants must hold after every round");
            self.jobs
                .check_invariants()
                .expect("job-state invariants must hold after every round");
        }

        // Wait until the next round.
        self.backend.advance_round(self.config.round_duration);

        outcome.delta = delta;
        outcome
    }

    /// True when the configured stop condition holds.
    pub fn should_stop(&self) -> bool {
        if self.stats.rounds >= self.config.max_rounds {
            return true;
        }
        match self.config.stop {
            StopCondition::AllJobsDone => {
                self.jobs.active_count() == 0 && self.backend.peek_next_arrival().is_none()
            }
            StopCondition::TrackedWindowDone { lo, hi } => {
                let arrivals_past = match self.backend.peek_next_arrival() {
                    None => true,
                    Some((id, _)) => id.0 > hi,
                };
                let unfinished_in_window = self.jobs.active().any(|j| j.id.0 >= lo && j.id.0 <= hi);
                let finished_in_window = self
                    .stats
                    .records
                    .iter()
                    .any(|r| r.id.0 >= lo && r.id.0 <= hi);
                arrivals_past && !unfinished_in_window && finished_in_window
            }
            StopCondition::TimeLimit(t) => self.backend.now() >= t,
        }
    }

    /// Jump over upcoming rounds that provably observe nothing, bulk
    /// accounting them in the statistics. No-op unless the config selects
    /// [`ExecMode::EventDriven`] and the current state qualifies:
    ///
    /// * the admission policy holds no deferred jobs (a held-back job may
    ///   be released at any round, per the [`AdmissionPolicy`] contract);
    /// * the backend can name the next event, and it is past the next
    ///   round boundary;
    /// * if any job is active, every active job is `Running`, both
    ///   decision policies are [`stable_between_events`], and re-deriving
    ///   this round's plan confirms it is a no-op (nothing launched,
    ///   suspended, terminated, or retuned).
    ///
    /// [`stable_between_events`]: SchedulingPolicy::stable_between_events
    fn fast_forward(
        &mut self,
        admission: &mut dyn AdmissionPolicy,
        scheduling: &mut dyn SchedulingPolicy,
        placement: &mut dyn PlacementPolicy,
    ) {
        let k = self.skippable_rounds(admission, scheduling, placement, None);
        if k >= 1 {
            self.apply_skip(k);
        }
    }

    /// How many upcoming rounds provably observe nothing and may be
    /// elided — the decision half of the event-driven fast path, split
    /// out so the pod meta-scheduler ([`crate::pods`]) can take the
    /// *minimum* across shards before committing a lockstep skip with
    /// [`BloxManager::apply_skip`]. Returns `0` whenever any gate fails
    /// (see [`BloxManager::run`]'s fast-forward description).
    ///
    /// `extra_event` is an externally-known next event time this
    /// manager's backend cannot see — the meta-scheduler's global arrival
    /// stream. It bounds the skip exactly as a backend hint would.
    pub fn skippable_rounds(
        &mut self,
        admission: &mut dyn AdmissionPolicy,
        scheduling: &mut dyn SchedulingPolicy,
        placement: &mut dyn PlacementPolicy,
        extra_event: Option<f64>,
    ) -> u64 {
        if self.config.mode != ExecMode::EventDriven {
            return 0;
        }
        if admission.pending() > 0 {
            return 0;
        }
        let delta = self.config.round_duration;
        if delta.is_nan() || delta <= 0.0 {
            return 0;
        }
        let hint = self.backend.next_event_hint(&self.cluster, &self.jobs);
        let event = match (hint, extra_event) {
            (Some(h), Some(e)) => h.min(e),
            (Some(h), None) => h,
            (None, Some(e)) => e,
            (None, None) => return 0,
        };
        let now = self.backend.now();
        if event.is_nan() || event <= now {
            // Event due in the round about to execute (or a NaN hint):
            // nothing to skip.
            return 0;
        }
        // Serial execution would step at boundaries `now, now+Δ, …` and
        // first observe the event at the earliest boundary >= `event`;
        // everything before it is skippable.
        let mut k = ((event - now) / delta).ceil();
        // Never skip past the round budget…
        k = k.min(self.config.max_rounds.saturating_sub(self.stats.rounds) as f64);
        // …or past a time limit: boundaries at or beyond it are never
        // executed (nor accounted) by the serial loop.
        if let StopCondition::TimeLimit(t) = self.config.stop {
            if t <= now {
                return 0;
            }
            k = k.min(((t - now) / delta).ceil());
        }
        if k < 1.0 {
            return 0;
        }
        let k = k as u64;

        if self.jobs.active_count() > 0 {
            // Waiting jobs can be (re)started in any round, and only
            // policies that pledge stability may have rounds elided.
            if self.jobs.waiting().next().is_some()
                || !scheduling.stable_between_events()
                || !placement.stable_between_events()
            {
                return 0;
            }
            // Verify this round's decision is a no-op before eliding it
            // (and, by stability, every round up to the event).
            let decision = scheduling.schedule(&self.jobs, &self.cluster, now);
            if !decision.terminate.is_empty() || !decision.batch_sizes.is_empty() {
                return 0;
            }
            let plan = placement.place(&decision, &self.jobs, &self.cluster, now);
            if !plan.is_empty() {
                return 0;
            }
        }
        k
    }

    /// Commit a `k`-round skip decided by [`BloxManager::skippable_rounds`]:
    /// bulk-account the elided rounds and jump the backend clock. The pod
    /// meta-scheduler applies the cross-shard minimum here; `k` must not
    /// exceed what `skippable_rounds` returned for *this* manager.
    pub fn apply_skip(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        let delta = self.config.round_duration;
        let now = self.backend.now();
        let total = self.cluster.total_gpus();
        let busy = total - self.cluster.free_gpu_count();
        self.stats
            .record_skipped_rounds(busy, total, k, now + (k - 1) as f64 * delta);
        self.backend.advance_round(k as f64 * delta);
    }

    /// Run rounds until the stop condition holds; returns the statistics.
    ///
    /// Under [`ExecMode::EventDriven`] the loop first fast-forwards over
    /// rounds that provably observe nothing (see
    /// [`Backend::next_event_hint`]), then executes the next real round.
    pub fn run(
        &mut self,
        admission: &mut dyn AdmissionPolicy,
        scheduling: &mut dyn SchedulingPolicy,
        placement: &mut dyn PlacementPolicy,
    ) -> RunStats {
        while !self.should_stop() {
            self.fast_forward(admission, scheduling, placement);
            if self.should_stop() {
                break;
            }
            self.step(admission, scheduling, placement);
        }
        self.stats.clone()
    }
}

/// What actually happened when a placement plan was applied: the
/// launch/suspension half of the round's [`StateDelta`], plus every
/// launch (or suspension) that had to be skipped and why.
///
/// Placement policies never emit conflicting plans, so `skipped` is empty
/// on every healthy path; when it is not, the *full* set of skipped job
/// ids is reported — not just the first failure — so operators can requeue
/// or alert on each one.
#[derive(Debug, Clone, Default)]
pub struct PlacementOutcome {
    /// Jobs actually (re)started, in plan order.
    pub launched: Vec<JobId>,
    /// Jobs actually transitioned `Running` → `Suspended`, in plan order.
    pub suspended: Vec<JobId>,
    /// Every plan entry that could not be applied, with the reason
    /// (unknown job, busy GPU, ...), in plan order.
    pub skipped: Vec<(JobId, BloxError)>,
}

impl PlacementOutcome {
    /// True when the whole plan applied cleanly.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
    }

    /// The first failure, if any (the error historically reported alone).
    pub fn first_error(&self) -> Option<&BloxError> {
        self.skipped.first().map(|(_, e)| e)
    }
}

/// Running jobs that lost GPUs to a node failure since the last call, in
/// id order. Backends requeue these in Collect.
///
/// Drains [`ClusterState::take_evicted`] and keeps each id whose job is
/// still `Running` and holds fewer GPUs than its placement names, so the
/// cost follows the round's evictions, not the running set. Debug builds
/// re-run the full scan of the running set and check the two lists agree.
pub fn take_lost_jobs(cluster: &mut ClusterState, jobs: &JobState) -> Vec<JobId> {
    let lost: Vec<JobId> = cluster
        .take_evicted()
        .into_iter()
        .filter(|id| jobs.get(*id).is_some_and(|j| lost_gpus(j, cluster)))
        .collect();
    debug_assert_eq!(
        lost,
        jobs.running()
            .filter(|j| lost_gpus(j, cluster))
            .map(|j| j.id)
            .collect::<Vec<_>>(),
        "a running job lost GPUs without fail_node evicting it"
    );
    lost
}

/// A `Running` job whose allocation no longer covers its placement.
fn lost_gpus(job: &Job, cluster: &ClusterState) -> bool {
    job.status == JobStatus::Running && cluster.job_gpu_count(job.id) != job.placement.len()
}

/// Apply a placement plan to the shared state: suspend first, then launch.
///
/// All backends call this to keep state mutation identical between
/// simulation and deployment; the backends add their mechanism-specific
/// side effects (charging overheads, or sending preempt/launch RPCs).
///
/// A plan entry that references an unknown job or a busy GPU is skipped
/// and recorded in [`PlacementOutcome::skipped`] — with *every* skipped
/// id accumulated, not just the first — while the rest of the plan is
/// still applied.
pub fn apply_placement(
    placement: &Placement,
    cluster: &mut ClusterState,
    jobs: &mut JobState,
    now: f64,
) -> PlacementOutcome {
    let mut outcome = PlacementOutcome::default();
    for id in &placement.to_suspend {
        let status = match jobs.get(*id) {
            Some(job) => job.status,
            None => {
                outcome.skipped.push((*id, BloxError::UnknownJob(*id)));
                continue;
            }
        };
        if status == JobStatus::Running {
            cluster.release(*id);
            let job = jobs.get_mut(*id).expect("job verified present above");
            job.placement.clear();
            job.preemptions += 1;
            jobs.set_status(*id, JobStatus::Suspended)
                .expect("job verified present above");
            outcome.suspended.push(*id);
        }
    }
    for (id, gpus) in &placement.to_launch {
        let mem = match jobs.get(*id) {
            Some(job) => job.profile.gpu_mem_gb,
            None => {
                outcome.skipped.push((*id, BloxError::UnknownJob(*id)));
                continue;
            }
        };
        match cluster.allocate(*id, gpus, mem) {
            Ok(()) => {
                let job = jobs.get_mut(*id).expect("job verified present above");
                job.placement = gpus.clone();
                job.launches += 1;
                // Restore/startup overhead is paid before progress resumes.
                job.pending_overhead = job.profile.restore_s;
                if job.first_scheduled.is_none() {
                    job.first_scheduled = Some(now);
                }
                jobs.set_status(*id, JobStatus::Running)
                    .expect("job verified present above");
                outcome.launched.push(*id);
            }
            Err(e) => outcome.skipped.push((*id, e)),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeSpec;
    use crate::ids::GpuGlobalId;
    use crate::profile::JobProfile;

    fn cluster() -> ClusterState {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 1);
        c
    }

    fn job(id: u64, gpus: u32) -> Job {
        Job::new(
            JobId(id),
            0.0,
            gpus,
            100.0,
            JobProfile::synthetic("toy", 0.1),
        )
    }

    #[test]
    fn apply_placement_launches_and_suspends() {
        let mut c = cluster();
        let mut js = JobState::new();
        let mut j1 = job(1, 2);
        j1.status = JobStatus::Running;
        j1.placement = vec![GpuGlobalId(0), GpuGlobalId(1)];
        c.allocate(JobId(1), &j1.placement, 4.0).unwrap();
        js.add_new_jobs(vec![j1, job(2, 2)]);

        let plan = Placement {
            to_suspend: vec![JobId(1)],
            to_launch: vec![(JobId(2), vec![GpuGlobalId(0), GpuGlobalId(1)])],
        };
        let outcome = apply_placement(&plan, &mut c, &mut js, 42.0);
        assert!(outcome.is_clean());
        assert_eq!(outcome.suspended, vec![JobId(1)]);
        assert_eq!(outcome.launched, vec![JobId(2)]);

        let j1 = js.get(JobId(1)).unwrap();
        assert_eq!(j1.status, JobStatus::Suspended);
        assert_eq!(j1.preemptions, 1);
        assert!(j1.placement.is_empty());

        let j2 = js.get(JobId(2)).unwrap();
        assert_eq!(j2.status, JobStatus::Running);
        assert_eq!(j2.first_scheduled, Some(42.0));
        assert_eq!(j2.launches, 1);
        assert!(j2.pending_overhead > 0.0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn apply_placement_reports_conflicts_but_continues() {
        let mut c = cluster();
        let mut js = JobState::new();
        js.add_new_jobs(vec![job(1, 1), job(2, 1)]);
        let plan = Placement {
            to_suspend: vec![],
            to_launch: vec![
                (JobId(1), vec![GpuGlobalId(0)]),
                (JobId(2), vec![GpuGlobalId(0)]), // conflict
            ],
        };
        let outcome = apply_placement(&plan, &mut c, &mut js, 0.0);
        assert!(matches!(
            outcome.first_error(),
            Some(crate::error::BloxError::GpuBusy(_, _))
        ));
        assert_eq!(outcome.launched, vec![JobId(1)]);
        assert_eq!(js.get(JobId(1)).unwrap().status, JobStatus::Running);
        assert_eq!(js.get(JobId(2)).unwrap().status, JobStatus::Queued);
        c.check_invariants().unwrap();
    }

    #[test]
    fn apply_placement_accumulates_every_skipped_launch() {
        // Partial-failure regression: a plan with several bad entries must
        // report each skipped launch id (historically only the first error
        // surfaced), keep applying the valid remainder, and not lose the
        // suspend half.
        let mut c = cluster();
        let mut js = JobState::new();
        let mut j1 = job(1, 2);
        j1.status = JobStatus::Running;
        j1.placement = vec![GpuGlobalId(0), GpuGlobalId(1)];
        c.allocate(JobId(1), &j1.placement, 4.0).unwrap();
        js.add_new_jobs(vec![j1, job(2, 1), job(3, 1), job(4, 1)]);

        let plan = Placement {
            to_suspend: vec![JobId(1)],
            to_launch: vec![
                (JobId(2), vec![GpuGlobalId(2)]),
                (JobId(9), vec![GpuGlobalId(3)]), // unknown job
                (JobId(3), vec![GpuGlobalId(2)]), // conflict with job 2
                (JobId(4), vec![GpuGlobalId(3)]),
            ],
        };
        let outcome = apply_placement(&plan, &mut c, &mut js, 10.0);
        assert_eq!(outcome.suspended, vec![JobId(1)]);
        assert_eq!(outcome.launched, vec![JobId(2), JobId(4)]);
        let skipped_ids: Vec<JobId> = outcome.skipped.iter().map(|(id, _)| *id).collect();
        assert_eq!(skipped_ids, vec![JobId(9), JobId(3)]);
        assert!(matches!(
            outcome.skipped[0].1,
            crate::error::BloxError::UnknownJob(_)
        ));
        assert!(matches!(
            outcome.skipped[1].1,
            crate::error::BloxError::GpuBusy(_, _)
        ));
        // The valid tail of the plan still applied.
        assert_eq!(js.get(JobId(4)).unwrap().status, JobStatus::Running);
        assert_eq!(js.get(JobId(3)).unwrap().status, JobStatus::Queued);
        c.check_invariants().unwrap();
        js.check_invariants().unwrap();
    }

    #[test]
    fn default_config_matches_paper_round_length() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.round_duration, 300.0);
        assert_eq!(cfg.stop, StopCondition::AllJobsDone);
        assert_eq!(cfg.mode, ExecMode::FixedRounds);
    }

    #[test]
    fn observe_delta_carries_membership_now_and_plan_effects_next_round() {
        struct RecordingSched {
            observed: Vec<StateDelta>,
        }
        impl SchedulingPolicy for RecordingSched {
            fn schedule(&mut self, js: &JobState, _: &ClusterState, _: f64) -> SchedulingDecision {
                SchedulingDecision::from_priority_order(js.active())
            }
            fn observe_delta(&mut self, delta: &StateDelta, _: &JobState) {
                self.observed.push(delta.clone());
            }
            fn name(&self) -> &str {
                "recording"
            }
        }

        let arrivals = vec![
            Job::new(JobId(0), 0.0, 1, 100.0, JobProfile::synthetic("t", 1.0)),
            Job::new(JobId(1), 0.0, 1, 100.0, JobProfile::synthetic("t", 1.0)),
        ];
        let mut mgr = BloxManager::new(
            StubBackend::new(arrivals, 5_000.0),
            cluster(),
            RunConfig::default(),
        );
        let mut sched = RecordingSched {
            observed: Vec::new(),
        };
        mgr.step(&mut StubAdmit, &mut sched, &mut StubPlace);
        mgr.step(&mut StubAdmit, &mut sched, &mut StubPlace);

        // Round 1: this round's admissions are visible immediately; no
        // plan has executed yet.
        let first = &sched.observed[0];
        assert_eq!(first.admitted, vec![JobId(0), JobId(1)]);
        assert!(first.launched.is_empty() && first.suspended.is_empty());
        // Round 2: the previous round's launches arrive (the plan executed
        // after round 1's schedule call).
        let second = &sched.observed[1];
        assert!(second.admitted.is_empty());
        assert_eq!(second.launched, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn skipped_launches_surface_in_round_outcome() {
        /// Backend that applies plans verbatim (no clean-plan assertion).
        struct LenientBackend {
            clock: f64,
        }
        impl Backend for LenientBackend {
            fn now(&self) -> f64 {
                self.clock
            }
            fn update_cluster(&mut self, _: &mut ClusterState) {}
            fn pop_wait_queue(&mut self, _: f64) -> Vec<Job> {
                Vec::new()
            }
            fn peek_next_arrival(&self) -> Option<(JobId, f64)> {
                None
            }
            fn update_metrics(&mut self, _: &mut ClusterState, _: &mut JobState, _: f64) {}
            fn exec_jobs(
                &mut self,
                p: &Placement,
                c: &mut ClusterState,
                j: &mut JobState,
            ) -> PlacementOutcome {
                apply_placement(p, c, j, self.clock)
            }
            fn advance_round(&mut self, d: f64) {
                self.clock += d;
            }
        }

        /// Placement that double-books GPU 0 across two launches.
        struct ConflictingPlace;
        impl PlacementPolicy for ConflictingPlace {
            fn place(
                &mut self,
                _: &SchedulingDecision,
                _: &JobState,
                _: &ClusterState,
                _: f64,
            ) -> Placement {
                Placement {
                    to_suspend: vec![],
                    to_launch: vec![
                        (JobId(0), vec![GpuGlobalId(0)]),
                        (JobId(1), vec![GpuGlobalId(0)]),
                    ],
                }
            }
            fn name(&self) -> &str {
                "conflicting"
            }
        }

        let mut mgr = BloxManager::new(
            LenientBackend { clock: 0.0 },
            cluster(),
            RunConfig::default(),
        );
        mgr.add_jobs(vec![job(0, 1), job(1, 1)]);
        let outcome = mgr.step(&mut StubAdmit, &mut StubSched, &mut ConflictingPlace);
        // The conflicting half of the plan is observable, not swallowed.
        assert_eq!(outcome.skipped.len(), 1);
        assert_eq!(outcome.skipped[0].0, JobId(1));
        assert!(matches!(outcome.skipped[0].1, BloxError::GpuBusy(_, _)));
        assert_eq!(outcome.delta.launched, vec![JobId(0)]);
    }

    // --- event-driven fast-path tests over a scripted stub backend ---

    use crate::place_util::{plan_placement, PickStrategy};
    use crate::policy::{AdmissionPolicy, PlacementPolicy, SchedulingDecision, SchedulingPolicy};
    use std::collections::VecDeque;

    /// Minimal simulated backend: arrivals pop by time, running jobs
    /// complete after `work_s` seconds of wall-clock on any placement.
    #[derive(Clone)]
    struct StubBackend {
        clock: f64,
        last_update: f64,
        arrivals: VecDeque<Job>,
        work_s: f64,
    }

    impl StubBackend {
        fn new(jobs: Vec<Job>, work_s: f64) -> Self {
            StubBackend {
                clock: 0.0,
                last_update: 0.0,
                arrivals: jobs.into(),
                work_s,
            }
        }
    }

    impl Backend for StubBackend {
        fn now(&self) -> f64 {
            self.clock
        }

        fn update_cluster(&mut self, _cluster: &mut ClusterState) {}

        fn pop_wait_queue(&mut self, now: f64) -> Vec<Job> {
            let mut out = Vec::new();
            while self.arrivals.front().is_some_and(|j| j.arrival_time <= now) {
                out.push(self.arrivals.pop_front().expect("front exists"));
            }
            out
        }

        fn peek_next_arrival(&self) -> Option<(JobId, f64)> {
            self.arrivals.front().map(|j| (j.id, j.arrival_time))
        }

        fn update_metrics(&mut self, cluster: &mut ClusterState, jobs: &mut JobState, _e: f64) {
            let round_start = self.last_update;
            self.last_update = self.clock;
            let mut done = Vec::new();
            let running: Vec<JobId> = jobs.running_ids().iter().copied().collect();
            for id in running {
                let job = jobs.get_mut(id).expect("running jobs are active");
                job.running_time += self.clock - round_start;
                let started = job.first_scheduled.expect("running implies scheduled");
                if started + self.work_s <= self.clock {
                    job.completion_time = Some(started + self.work_s);
                    done.push(id);
                }
            }
            for id in done {
                cluster.release(id);
                if let Some(job) = jobs.get_mut(id) {
                    job.placement = Vec::new();
                }
                jobs.set_status(id, JobStatus::Completed)
                    .expect("completed job is active");
            }
        }

        fn exec_jobs(
            &mut self,
            p: &Placement,
            c: &mut ClusterState,
            j: &mut JobState,
        ) -> PlacementOutcome {
            let outcome = apply_placement(p, c, j, self.clock);
            assert!(outcome.is_clean(), "stub placements are valid");
            outcome
        }

        fn advance_round(&mut self, round_duration: f64) {
            self.clock += round_duration;
        }

        fn next_event_hint(&self, _cluster: &ClusterState, jobs: &JobState) -> Option<f64> {
            let mut earliest: Option<f64> = None;
            let mut consider = |t: f64| {
                if earliest.is_none_or(|e| t < e) {
                    earliest = Some(t);
                }
            };
            if let Some((_, t)) = self.peek_next_arrival() {
                consider(t);
            }
            for job in jobs.running() {
                consider(job.first_scheduled.expect("running implies scheduled") + self.work_s);
            }
            earliest
        }
    }

    struct StubAdmit;
    impl AdmissionPolicy for StubAdmit {
        fn admit(&mut self, new: Vec<Job>, _: &JobState, _: &ClusterState, _: f64) -> Vec<Job> {
            new
        }
        fn name(&self) -> &str {
            "stub-admit"
        }
    }

    struct StubSched;
    impl SchedulingPolicy for StubSched {
        fn schedule(&mut self, js: &JobState, _: &ClusterState, _: f64) -> SchedulingDecision {
            SchedulingDecision::from_priority_order(js.active())
        }
        fn stable_between_events(&self) -> bool {
            true
        }
        fn name(&self) -> &str {
            "stub-sched"
        }
    }

    struct StubPlace;
    impl PlacementPolicy for StubPlace {
        fn place(
            &mut self,
            d: &SchedulingDecision,
            js: &JobState,
            c: &ClusterState,
            _: f64,
        ) -> Placement {
            plan_placement(d, js, c, |_| PickStrategy::FirstFree)
        }
        fn stable_between_events(&self) -> bool {
            true
        }
        fn name(&self) -> &str {
            "stub-place"
        }
    }

    fn sparse_jobs() -> Vec<Job> {
        // Widely spaced arrivals: long idle gaps plus long running
        // stretches (work 5000 s ≈ 17 rounds) between events.
        (0..4)
            .map(|i| {
                Job::new(
                    JobId(i),
                    20_000.0 * i as f64,
                    1,
                    100.0,
                    JobProfile::synthetic("toy", 1.0),
                )
            })
            .collect()
    }

    fn run_stub(mode: ExecMode, stop: StopCondition, max_rounds: u64) -> RunStats {
        let mut mgr = BloxManager::new(
            StubBackend::new(sparse_jobs(), 5_000.0),
            cluster(),
            RunConfig {
                round_duration: 300.0,
                max_rounds,
                stop,
                mode,
            },
        );
        mgr.run(&mut StubAdmit, &mut StubSched, &mut StubPlace)
    }

    #[test]
    fn event_driven_matches_fixed_rounds_exactly() {
        let fixed = run_stub(ExecMode::FixedRounds, StopCondition::AllJobsDone, 10_000);
        let fast = run_stub(ExecMode::EventDriven, StopCondition::AllJobsDone, 10_000);
        assert_eq!(fixed.skipped_rounds, 0);
        assert!(fast.skipped_rounds > 0, "fast path must skip empty rounds");
        assert_eq!(fixed.rounds, fast.rounds);
        assert_eq!(fixed.end_time, fast.end_time);
        assert_eq!(fixed.records, fast.records);
        assert!(
            (fixed.mean_utilization() - fast.mean_utilization()).abs() < 1e-12,
            "bulk accounting must preserve utilization"
        );
        // Both idle gaps and all-running stretches are elided: of ~267
        // rounds, only a handful (events + their follow-up rounds) step.
        assert!(
            fast.rounds - fast.skipped_rounds <= 16,
            "expected nearly all rounds skipped, stepped {}",
            fast.rounds - fast.skipped_rounds
        );
    }

    #[test]
    fn event_driven_respects_time_limit() {
        let stop = StopCondition::TimeLimit(1_500.0);
        let fixed = run_stub(ExecMode::FixedRounds, stop, 10_000);
        let fast = run_stub(ExecMode::EventDriven, stop, 10_000);
        assert_eq!(fixed.rounds, fast.rounds);
        assert_eq!(fixed.end_time, fast.end_time);
    }

    #[test]
    fn event_driven_respects_max_rounds() {
        let fixed = run_stub(ExecMode::FixedRounds, StopCondition::AllJobsDone, 7);
        let fast = run_stub(ExecMode::EventDriven, StopCondition::AllJobsDone, 7);
        assert_eq!(fixed.rounds, 7);
        assert_eq!(fast.rounds, 7);
    }

    #[test]
    fn unstable_policies_still_step_while_jobs_run() {
        struct UnstableSched;
        impl SchedulingPolicy for UnstableSched {
            fn schedule(&mut self, js: &JobState, _: &ClusterState, _: f64) -> SchedulingDecision {
                SchedulingDecision::from_priority_order(js.active())
            }
            fn name(&self) -> &str {
                "unstable"
            }
        }
        let mut mgr = BloxManager::new(
            StubBackend::new(sparse_jobs(), 5_000.0),
            cluster(),
            RunConfig {
                round_duration: 300.0,
                max_rounds: 10_000,
                stop: StopCondition::AllJobsDone,
                mode: ExecMode::EventDriven,
            },
        );
        let stats = mgr.run(&mut StubAdmit, &mut UnstableSched, &mut StubPlace);
        // Idle gaps still skip, but running stretches must step round by
        // round for a policy that does not pledge stability.
        assert!(stats.skipped_rounds > 0);
        let stepped = stats.rounds - stats.skipped_rounds;
        assert!(
            stepped >= 4 * 16,
            "running stretches (~17 rounds each, 4 jobs) must not be elided, stepped {stepped}"
        );
    }
}
