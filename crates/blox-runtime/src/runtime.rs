//! The emulated cluster runtime: worker managers, the client library, and
//! the [`RuntimeBackend`] that plugs them into the core scheduling loop.
//!
//! Training is emulated under a configurable time scale: one simulated
//! second costs `time_scale` wall seconds, so a multi-day trace replays in
//! seconds while still exercising launch RPCs, per-iteration lease checks,
//! two-phase preemption, metric pushes, and completion reporting — the
//! code paths Figure 18 validates against the simulator.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blox_core::cluster::ClusterState;
use blox_core::ids::{JobId, NodeId};
use blox_core::job::Job;
use blox_core::manager::{Backend, PlacementOutcome};
use blox_core::policy::Placement;
use blox_core::state::JobState;

use crate::control::{self, WorkerLinks};
use crate::lease::LeaseTable;
use crate::wire::{wire_bus, Endpoint, Message, Transport, WireRx, WireSender, WireTx};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Wall-clock seconds per simulated second (e.g. `1e-4`: a 300 s round
    /// takes 30 ms of wall time).
    pub time_scale: f64,
    /// Simulated seconds per emulated training iteration; the lease-check
    /// granularity. Real iteration times are far below the round length,
    /// and so is this.
    pub emu_iter_sim_s: f64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            time_scale: 1e-4,
            emu_iter_sim_s: 30.0,
        }
    }
}

/// Shared wall-clock → simulated-time mapping.
///
/// Every emulated component — worker managers, the runtime backend, and
/// the `blox-net` daemons — derives simulated time from one of these, so
/// progress accounting never accumulates OS-timer error.
#[derive(Debug)]
pub struct SimClock {
    start: Instant,
    scale: f64,
}

impl SimClock {
    /// A clock reading 0 simulated seconds now.
    pub fn new(scale: f64) -> Self {
        Self::synced(0.0, scale)
    }

    /// A clock currently reading `now_sim` simulated seconds — used by
    /// networked node managers to align with the scheduler's clock at
    /// registration time.
    pub fn synced(now_sim: f64, scale: f64) -> Self {
        let offset = Duration::from_secs_f64((now_sim * scale).max(0.0));
        let now = Instant::now();
        SimClock {
            start: now.checked_sub(offset).unwrap_or(now),
            scale,
        }
    }

    /// Wall seconds per simulated second.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Current simulated time.
    pub fn sim_now(&self) -> f64 {
        self.sim_at(Instant::now())
    }

    /// Simulated time at the wall-clock instant `at` (clamped at zero for
    /// instants before the clock's origin).
    pub fn sim_at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.start).as_secs_f64() / self.scale
    }

    /// The wall-clock instant at which the clock reads `sim_t`: the
    /// inverse of [`SimClock::sim_at`].
    pub fn instant_at(&self, sim_t: f64) -> Instant {
        self.start + Duration::from_secs_f64((sim_t * self.scale).max(0.0))
    }

    /// Sleep until the simulated clock reaches `sim_t` (no-op if past).
    pub fn sleep_until(&self, sim_t: f64) {
        let left = self
            .instant_at(sim_t)
            .saturating_duration_since(Instant::now());
        if !left.is_zero() {
            std::thread::sleep(left);
        }
    }
}

// The client library ---------------------------------------------------------

/// The data-loader wrapper of `BloxClientLibrary`: checks the job's lease
/// at every iteration boundary and reports progress.
pub struct BloxDataLoader {
    job: JobId,
    lease: Arc<LeaseTable>,
    iter: Arc<AtomicU64>,
}

impl BloxDataLoader {
    /// Wrap a job's iteration loop.
    pub fn new(job: JobId, lease: Arc<LeaseTable>) -> Self {
        BloxDataLoader {
            job,
            lease,
            iter: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Shared iteration counter (read by the worker manager when it needs
    /// the current iteration for a two-phase revocation).
    pub fn iter_counter(&self) -> Arc<AtomicU64> {
        self.iter.clone()
    }

    /// Called at the top of each iteration; false means "checkpoint and
    /// exit now" — the optimistic lease was revoked.
    pub fn next_iteration(&self) -> bool {
        let i = self.iter.fetch_add(1, Ordering::SeqCst);
        self.lease.may_run(self.job, i)
    }
}

/// The metric-push half of `BloxClientLibrary`: forwards arbitrary
/// key/value application metrics to the central scheduler through the
/// worker's upstream link.
pub struct WorkerMetricsCollector {
    job: JobId,
    up: Box<dyn WireSender>,
}

impl WorkerMetricsCollector {
    /// Collector for one job.
    pub fn new(job: JobId, up: Box<dyn WireSender>) -> Self {
        WorkerMetricsCollector { job, up }
    }

    /// Push one metric sample.
    pub fn push(&self, key: &str, value: f64) {
        let _ = self.up.send(&Message::PushMetric {
            job: self.job,
            key: key.to_string(),
            value,
        });
    }
}

// Worker manager --------------------------------------------------------------

/// Why [`WorkerManager::serve`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEnd {
    /// The scheduler sent an orderly [`Message::Shutdown`].
    Shutdown,
    /// The command link dropped (scheduler gone or socket lost).
    Disconnected,
}

/// The per-node worker manager of Figure 17: launches and preempts
/// emulated training jobs, stores leases locally, and pushes progress,
/// metrics, and completion reports upstream.
///
/// Transport-generic: the in-process [`EmulatedCluster`] drives it over
/// channel [`Endpoint`]s, and `blox-net`'s `bloxnoded` daemon drives the
/// very same code over framed loopback TCP.
pub struct WorkerManager {
    node: NodeId,
    lease: Arc<LeaseTable>,
    /// Live iteration counters for jobs hosted here; rank-0 reads feed the
    /// two-phase revocation's exit-iteration decision.
    counters: parking_lot::Mutex<BTreeMap<JobId, Arc<AtomicU64>>>,
    clock: Arc<SimClock>,
    cfg: RuntimeConfig,
}

impl WorkerManager {
    /// Manager for one node, emulating under the given clock and config.
    pub fn new(node: NodeId, clock: Arc<SimClock>, cfg: RuntimeConfig) -> Self {
        WorkerManager {
            node,
            lease: Arc::new(LeaseTable::new()),
            counters: parking_lot::Mutex::new(BTreeMap::new()),
            clock,
            cfg,
        }
    }

    /// The node this manager serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The worker-local lease table (inspection / tests).
    pub fn lease(&self) -> Arc<LeaseTable> {
        self.lease.clone()
    }

    /// Serve scheduler commands from `cmd`, pushing job traffic to `up`,
    /// until the link drops or the scheduler sends a shutdown.
    pub fn serve(&self, cmd: &dyn Transport, up: &dyn WireSender) -> ServeEnd {
        loop {
            let msg = match cmd.recv() {
                Ok(m) => m,
                Err(_) => return ServeEnd::Disconnected,
            };
            if !self.handle(msg, up) {
                return ServeEnd::Shutdown;
            }
        }
    }

    /// Apply one scheduler command; returns false once the manager should
    /// stop serving (orderly shutdown).
    pub fn handle(&self, msg: Message, up: &dyn WireSender) -> bool {
        match msg {
            Message::Launch {
                job,
                iter_time_s,
                start_iters,
                total_iters,
                warmup_s,
                is_rank0,
                ..
            } => {
                self.lease.grant(job);
                let loader = BloxDataLoader::new(job, self.lease.clone());
                self.counters.lock().insert(job, loader.iter_counter());
                let metrics = WorkerMetricsCollector::new(job, up.clone_sender());
                let up = up.clone_sender();
                let clock = self.clock.clone();
                let lease = self.lease.clone();
                let cfg = self.cfg.clone();
                std::thread::spawn(move || {
                    run_emulated_job(
                        job,
                        loader,
                        metrics,
                        up,
                        clock,
                        lease,
                        cfg,
                        iter_time_s,
                        start_iters,
                        total_iters,
                        warmup_s,
                        is_rank0,
                    );
                });
            }
            Message::Revoke { job } => {
                // Two-phase exit, phase 1: rank 0's worker decides the exit
                // iteration from the live counter and reports it upstream
                // so the scheduler can propagate it to peer shards. The
                // report goes out before the local revoke: the job's
                // `JobSuspended` must not reach the scheduler first.
                let current = self
                    .counters
                    .lock()
                    .get(&job)
                    .map(|c| c.load(Ordering::SeqCst))
                    .unwrap_or(0);
                let exit_iter = current + 1;
                let _ = up.send(&Message::ExitAt { job, exit_iter });
                self.lease.revoke_at(job, exit_iter);
            }
            Message::ExitAt { job, exit_iter } => {
                // Phase 2 at a peer shard.
                self.lease.revoke_at(job, exit_iter);
            }
            Message::Shutdown => return false,
            _ => {}
        }
        true
    }
}

/// Handle the central scheduler holds per worker.
struct WorkerHandle {
    cmd: Endpoint,
    _thread: JoinHandle<()>,
}

fn spawn_worker(
    node: NodeId,
    bus: WireTx,
    clock: Arc<SimClock>,
    cfg: RuntimeConfig,
) -> WorkerHandle {
    let (central_side, worker_side) = Endpoint::pair();
    let manager = WorkerManager::new(node, clock, cfg);
    let thread = std::thread::spawn(move || {
        let _ = bus.send(&Message::RegisterWorker { node, gpus: 0 });
        manager.serve(&worker_side, &bus);
    });
    WorkerHandle {
        cmd: central_side,
        _thread: thread,
    }
}

/// The emulated training process: a loop of time-scaled iterations wrapped
/// in the client library's lease check, exactly as the paper's
/// `BloxDataLoader` wraps a PyTorch loader.
#[allow(clippy::too_many_arguments)]
fn run_emulated_job(
    job: JobId,
    loader: BloxDataLoader,
    metrics: WorkerMetricsCollector,
    up: Box<dyn WireSender>,
    clock: Arc<SimClock>,
    lease: Arc<LeaseTable>,
    cfg: RuntimeConfig,
    iter_time_s: f64,
    start_iters: f64,
    total_iters: f64,
    warmup_s: f64,
    is_rank0: bool,
) {
    // Restore / warm-up before the first iteration.
    if warmup_s > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(warmup_s * cfg.time_scale));
    }
    // Progress is derived from the shared simulated clock rather than from
    // counting nominal sleeps: OS timers overshoot sub-millisecond sleeps,
    // and accumulating that error would make emulated jobs run slower than
    // real time (breaking the Figure 18 fidelity comparison).
    let progress_start = clock.sim_now();
    let mut done = start_iters;
    loop {
        if !loader.next_iteration() {
            // Lease revoked: checkpoint and report.
            if is_rank0 {
                let _ = up.send(&Message::JobSuspended { job, iters: done });
            }
            return;
        }
        std::thread::sleep(Duration::from_secs_f64(cfg.emu_iter_sim_s * cfg.time_scale));
        done = start_iters + (clock.sim_now() - progress_start) / iter_time_s.max(1e-9);
        if is_rank0 {
            metrics.push("iter_time", iter_time_s);
            if up.send(&Message::Progress { job, iters: done }).is_err() {
                return; // Scheduler gone.
            }
        }
        if done >= total_iters {
            lease.remove(job);
            if is_rank0 {
                // Back-date the completion to the exact sub-tick moment the
                // work ran out, mirroring the simulator's sub-round times.
                let overshoot = (done - total_iters) * iter_time_s;
                let _ = up.send(&Message::JobDone {
                    job,
                    sim_time: (clock.sim_now() - overshoot).max(0.0),
                });
            }
            return;
        }
    }
}

// The emulated cluster + backend ----------------------------------------------

/// A running set of worker managers plus the central message bus.
pub struct EmulatedCluster {
    workers: BTreeMap<NodeId, WorkerHandle>,
    bus_rx: WireRx,
    clock: Arc<SimClock>,
    cfg: RuntimeConfig,
}

impl EmulatedCluster {
    /// The runtime configuration this cluster was started with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Start one worker manager per live node of the cluster.
    pub fn start(cluster: &ClusterState, cfg: RuntimeConfig) -> Self {
        let (bus_tx, bus_rx) = wire_bus();
        let clock = Arc::new(SimClock::new(cfg.time_scale));
        let mut workers = BTreeMap::new();
        for node in cluster.nodes() {
            workers.insert(
                node.id,
                spawn_worker(node.id, bus_tx.clone(), clock.clone(), cfg.clone()),
            );
        }
        EmulatedCluster {
            workers,
            bus_rx,
            clock,
            cfg,
        }
    }
}

/// Commands go down each worker's command endpoint; job status comes
/// back on the shared bus.
impl WorkerLinks for EmulatedCluster {
    fn send(&mut self, node: NodeId, msg: &Message, _cluster: &mut ClusterState) {
        if let Some(w) = self.workers.get(&node) {
            let _ = w.cmd.send(msg);
        }
    }

    fn recv_status(&mut self, timeout: Duration, _cluster: &mut ClusterState) -> Option<Message> {
        self.bus_rx.recv_timeout(timeout).ok().flatten()
    }
}

/// Execution backend that drives the emulated cluster; the deployment
/// counterpart of `blox_sim::SimBackend` — the only other module that
/// changes between simulation and a cluster run.
pub struct RuntimeBackend {
    cluster: EmulatedCluster,
    arrivals: std::collections::VecDeque<Job>,
    round_now: f64,
    last_update: f64,
}

impl RuntimeBackend {
    /// Backend over an emulated cluster and an arrival-sorted job list.
    pub fn new(cluster: EmulatedCluster, jobs: Vec<Job>) -> Self {
        RuntimeBackend {
            cluster,
            arrivals: jobs.into(),
            round_now: 0.0,
            last_update: 0.0,
        }
    }
}

impl Backend for RuntimeBackend {
    fn now(&self) -> f64 {
        self.round_now
    }

    fn update_cluster(&mut self, _cluster: &mut ClusterState) {
        // Node churn in the emulated runtime would re-spawn worker
        // threads; not exercised by the paper's runtime experiments.
    }

    fn pop_wait_queue(&mut self, now: f64) -> Vec<Job> {
        let due = self
            .arrivals
            .iter()
            .take_while(|j| j.arrival_time <= now)
            .count();
        self.arrivals.drain(..due).collect()
    }

    fn peek_next_arrival(&self) -> Option<(JobId, f64)> {
        self.arrivals.front().map(|j| (j.id, j.arrival_time))
    }

    fn update_metrics(&mut self, cluster: &mut ClusterState, jobs: &mut JobState, elapsed: f64) {
        // This backend's clock is authoritative (the `Backend::now` the
        // manager measures *is* `round_now`), so re-deriving the span is
        // the same computation the manager performs — assert agreement
        // per the `update_metrics` elapsed contract.
        debug_assert!(
            elapsed <= 0.0 || (elapsed - (self.round_now - self.last_update)).abs() < 1e-6,
            "caller-reported elapsed {elapsed} disagrees with backend clock span {}",
            self.round_now - self.last_update
        );
        let elapsed = (self.round_now - self.last_update).max(0.0);
        self.last_update = self.round_now;
        while let Some(msg) = self.cluster.recv_status(Duration::ZERO, cluster) {
            control::apply_status(msg, cluster, jobs);
        }
        // This backend has no requeue path; drain the eviction record so
        // a failed node cannot make it grow.
        cluster.take_evicted();
        control::accrue_service(jobs, elapsed);
    }

    fn exec_jobs(
        &mut self,
        placement: &Placement,
        cluster: &mut ClusterState,
        jobs: &mut JobState,
    ) -> PlacementOutcome {
        control::actuate(&mut self.cluster, placement, cluster, jobs, self.round_now)
    }

    fn advance_round(&mut self, round_duration: f64) {
        self.round_now += round_duration;
        self.cluster.clock.sleep_until(self.round_now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blox_core::cluster::NodeSpec;
    use blox_core::job::JobStatus;
    use blox_core::manager::{BloxManager, ExecMode, RunConfig, StopCondition};
    use blox_core::policy::{
        AdmissionPolicy, PlacementPolicy, SchedulingDecision, SchedulingPolicy,
    };
    use blox_core::profile::JobProfile;

    struct PassAll;
    impl AdmissionPolicy for PassAll {
        fn admit(
            &mut self,
            new_jobs: Vec<Job>,
            _job_state: &JobState,
            _cluster: &ClusterState,
            _now: f64,
        ) -> Vec<Job> {
            new_jobs
        }
        fn name(&self) -> &str {
            "pass"
        }
    }

    struct FifoSched;
    impl SchedulingPolicy for FifoSched {
        fn schedule(
            &mut self,
            job_state: &JobState,
            _cluster: &ClusterState,
            _now: f64,
        ) -> SchedulingDecision {
            SchedulingDecision::from_priority_order(job_state.active())
        }
        fn name(&self) -> &str {
            "fifo"
        }
    }

    struct FirstFree;
    impl PlacementPolicy for FirstFree {
        fn place(
            &mut self,
            decision: &SchedulingDecision,
            job_state: &JobState,
            cluster: &ClusterState,
            _now: f64,
        ) -> Placement {
            blox_core::place_util::plan_placement(decision, job_state, cluster, |_| {
                blox_core::place_util::PickStrategy::FirstFree
            })
        }
        fn name(&self) -> &str {
            "first-free"
        }
    }

    fn quick_profile() -> JobProfile {
        let mut p = JobProfile::synthetic("emu", 1.0);
        p.iter_model.serial_frac = 1.0;
        p.iter_model.comm_frac = 0.0;
        p.restore_s = 0.0;
        p
    }

    fn cluster(nodes: u32) -> ClusterState {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), nodes);
        c
    }

    /// `instant_at` and `sim_at` are inverses, and instants before the
    /// clock's origin read as time zero.
    #[test]
    fn sim_clock_maps_instants_both_ways() {
        let clock = SimClock::synced(1000.0, 1e-3);
        for sim in [1000.0, 1234.5, 5000.0] {
            let back = clock.sim_at(clock.instant_at(sim));
            assert!((back - sim).abs() < 1e-3, "{sim} -> {back}");
        }
        let origin = clock.instant_at(0.0);
        assert_eq!(clock.sim_at(origin), 0.0);
        if let Some(before) = origin.checked_sub(Duration::from_secs(1)) {
            assert_eq!(clock.sim_at(before), 0.0);
        }
    }

    #[test]
    fn jobs_run_to_completion_on_the_emulated_cluster() {
        let cstate = cluster(1);
        // Two jobs, 600 simulated seconds of work each.
        let jobs: Vec<Job> = (0..2)
            .map(|i| Job::new(JobId(i), 0.0, 1, 600.0, quick_profile()))
            .collect();
        let emu = EmulatedCluster::start(&cstate, RuntimeConfig::default());
        let backend = RuntimeBackend::new(emu, jobs);
        let mut mgr = BloxManager::new(
            backend,
            cstate,
            RunConfig {
                round_duration: 300.0,
                max_rounds: 50,
                stop: StopCondition::AllJobsDone,
                mode: ExecMode::FixedRounds,
            },
        );
        let stats = mgr.run(&mut PassAll, &mut FifoSched, &mut FirstFree);
        assert_eq!(stats.records.len(), 2);
        for r in &stats.records {
            let jct = r.jct();
            assert!(
                (jct - 600.0).abs() < 200.0,
                "expected ~600 s JCT, got {jct}"
            );
        }
    }

    #[test]
    fn preemption_round_trips_through_lease_revocation() {
        let cstate = cluster(1); // 4 GPUs.

        // Job 0 wants all 4 GPUs and runs long; job 1 arrives later; FIFO +
        // first-free means job 0 runs to completion, then job 1. The
        // interesting part: job 0 completes mid-round and job 1 launches.
        let long = Job::new(JobId(0), 0.0, 4, 900.0, quick_profile());
        let short = Job::new(JobId(1), 0.0, 4, 300.0, quick_profile());
        let emu = EmulatedCluster::start(&cstate, RuntimeConfig::default());
        let backend = RuntimeBackend::new(emu, vec![long, short]);
        let mut mgr = BloxManager::new(
            backend,
            cstate,
            RunConfig {
                round_duration: 300.0,
                max_rounds: 60,
                stop: StopCondition::AllJobsDone,
                mode: ExecMode::FixedRounds,
            },
        );
        let stats = mgr.run(&mut PassAll, &mut FifoSched, &mut FirstFree);
        assert_eq!(stats.records.len(), 2);
    }

    /// `Revoke` × `JobDone`: the job finished on the worker just before
    /// the scheduler revoked its lease, so its `JobDone` is already on
    /// the bus when `exec_jobs` sends the `Revoke` and no `JobSuspended`
    /// will ever come. The wait must end when the `JobDone` is applied,
    /// not sit out its 5 s bound. The worker side is scripted: the
    /// cluster has no worker threads, only the test's end of the bus.
    #[test]
    fn revoke_crossing_job_done_does_not_wait_for_a_suspension_ack() {
        let mut cstate = cluster(1);
        let mut job = Job::new(JobId(0), 0.0, 1, 600.0, quick_profile());
        job.status = JobStatus::Running;
        job.placement = vec![cstate.free_gpus()[0]];
        cstate
            .allocate(job.id, &job.placement, job.profile.gpu_mem_gb)
            .expect("first GPU is free");
        let mut jobs = JobState::new();
        jobs.add_new_jobs(vec![job]);

        let (bus_tx, bus_rx) = wire_bus();
        let cfg = RuntimeConfig::default();
        let emu = EmulatedCluster {
            workers: BTreeMap::new(),
            bus_rx,
            clock: Arc::new(SimClock::new(cfg.time_scale)),
            cfg,
        };
        let mut backend = RuntimeBackend::new(emu, vec![]);
        bus_tx
            .send(&Message::JobDone {
                job: JobId(0),
                sim_time: 42.0,
            })
            .expect("bus is open");

        let suspend = Placement {
            to_launch: vec![],
            to_suspend: vec![JobId(0)],
        };
        let t0 = Instant::now();
        let outcome = backend.exec_jobs(&suspend, &mut cstate, &mut jobs);
        let waited = t0.elapsed();

        assert!(
            waited < Duration::from_millis(100),
            "waited {waited:?} for an ack that cannot come"
        );
        assert!(outcome.is_clean(), "skipped: {:?}", outcome.skipped);
        assert!(
            outcome.suspended.is_empty(),
            "a finished job is not suspended"
        );
        let job = jobs
            .get(JobId(0))
            .expect("completed jobs stay until pruned");
        assert_eq!(job.status, JobStatus::Completed);
        assert_eq!(job.completion_time, Some(42.0));
        assert_eq!(job.preemptions, 0);
        assert_eq!(
            jobs.prune_completed(),
            vec![JobId(0)],
            "completed exactly once"
        );
        assert_eq!(cstate.free_gpu_count(), 4);
    }

    #[test]
    fn suspended_jobs_checkpoint_their_progress() {
        // LAS-like forced suspension: run k one-GPU jobs, then explicitly
        // suspend them all in one round via the backend and confirm each
        // job's progress was checkpointed.
        for k in [1, 4] {
            let mut cstate = cluster(1);
            let mut jobs = JobState::new();
            let ids: Vec<JobId> = (0..k).map(JobId).collect();
            jobs.add_new_jobs(
                ids.iter()
                    .map(|id| Job::new(*id, 0.0, 1, 100_000.0, quick_profile()))
                    .collect(),
            );
            let emu = EmulatedCluster::start(&cstate, RuntimeConfig::default());
            let mut backend = RuntimeBackend::new(emu, vec![]);
            let launch = Placement {
                to_launch: ids
                    .iter()
                    .zip(cstate.free_gpus())
                    .map(|(id, g)| (*id, vec![g]))
                    .collect(),
                to_suspend: vec![],
            };
            backend.exec_jobs(&launch, &mut cstate, &mut jobs);
            // Let them run ~3000 simulated seconds (0.3 s wall).
            backend.advance_round(3000.0);
            backend.update_metrics(&mut cstate, &mut jobs, 3000.0);
            let suspend = Placement {
                to_launch: vec![],
                to_suspend: ids.clone(),
            };
            backend.exec_jobs(&suspend, &mut cstate, &mut jobs);
            for id in &ids {
                let j = jobs.get(*id).unwrap();
                assert_eq!(j.status, JobStatus::Suspended, "k = {k}, {id:?}");
                assert!(
                    j.completed_iters > 0.0,
                    "checkpoint must carry progress, got {} (k = {k}, {id:?})",
                    j.completed_iters
                );
            }
            assert_eq!(cstate.free_gpu_count(), 4, "k = {k}");
        }
    }
}
