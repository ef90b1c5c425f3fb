//! The central-scheduler side of the networked deployment.
//!
//! [`NetBackend`] implements `blox_core::manager::Backend`, so the
//! unchanged scheduling loop — and every existing admission, scheduling,
//! and placement policy — drives a cluster of real `bloxnoded` processes
//! over TCP:
//!
//! * an accept thread hands every worker and client connection on an
//!   ephemeral loopback port (`127.0.0.1:0` by default) to the event
//!   loop, which streams their decoded messages into one event channel;
//! * worker registrations grow the shared [`ClusterState`] and are answered
//!   with an [`Message::AssignNode`] carrying identity, a clock-sync point,
//!   and the heartbeat contract;
//! * a missed-heartbeat (or dropped-link) verdict feeds cluster churn:
//!   `fail_node` hides the GPUs, surviving shards of evicted jobs get
//!   their leases revoked, and the jobs are requeued — the Figure 19 lease
//!   protocols closing the loop over a real failure detector;
//! * [`Message::SubmitJob`] from clients lands in the live wait queue,
//!   enabling open-loop online traffic instead of pre-loaded traces.
//!
//! Preemption and launch are not implemented here: `NetBackend` is a
//! [`WorkerLinks`] (commands go out on a node's connection, job status is
//! read in the loop's drain order) and `exec_jobs` is one call to
//! [`control::actuate`], the code the in-process runtime runs too.
//!
//! Intake does not wait for the round clock. Between rounds,
//! `advance_round` blocks on the event channel until the round's
//! wall-clock deadline: a submission is queued and acknowledged the
//! moment it is read, with its arrival stamped at the instant the loop
//! decoded it, so a job read before a round boundary is admitted by that
//! round. Every event that needs the [`ClusterState`] (registrations,
//! heartbeats, job status, closes) is deferred in arrival order and
//! applied by the next `poll`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blox_core::cluster::{ClusterState, GpuType, NodeSpec};
use blox_core::error::{BloxError, Result};
use blox_core::ids::{JobId, NodeId};
use blox_core::job::{Job, JobStatus};
use blox_core::manager::{
    take_lost_jobs, Backend, BloxManager, PlacementOutcome, RunConfig, StopCondition,
};
use blox_core::metrics::RunStats;
use blox_core::policy::{AdmissionPolicy, Placement, PlacementPolicy, SchedulingPolicy};
use blox_core::profile::JobProfile;
use blox_core::snapshot::Snapshot;
use blox_core::state::JobState;
use blox_runtime::control::{self, WorkerLinks};
use blox_runtime::runtime::{RuntimeConfig, SimClock};
use blox_runtime::wire::Message;
use blox_workloads::ModelZoo;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::event_loop::{
    Delivery, EvLoopConfig, EvLoopPool, EvSender, LoopEvent, Token, TransportKind,
};
use crate::frame::encode_shared;
use crate::poller::PollerKind;
use crate::tcp::listen_with_backlog;

/// Floor on the failure-detection deadline, in wall seconds: below this,
/// OS scheduling jitter on a loopback deployment would yield spurious
/// dead-node verdicts at small time scales.
pub const MIN_DETECT_WALL_S: f64 = 0.25;

/// Scheduler-side deployment configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Emulation time scale and iteration granularity, shared with every
    /// worker at registration.
    pub runtime: RuntimeConfig,
    /// Heartbeat period workers are instructed to use (simulated seconds).
    pub heartbeat_sim_s: f64,
    /// Consecutive missed heartbeats before a node is declared dead. The
    /// resulting deadline is evaluated in wall time from each beat's
    /// arrival, floored at [`MIN_DETECT_WALL_S`].
    pub heartbeat_misses: u32,
    /// Rounds a `Running` job may report zero progress before the
    /// scheduler presumes its launch (or its worker's reports) were lost
    /// and requeues it — the self-healing path for dropped `Launch`,
    /// `Progress`, and `JobDone` messages on a lossy link. `0` disables
    /// stall detection.
    pub stall_rounds: u32,
    /// Vestigial: the event loop is the only engine. The field stays
    /// because the frozen spine benchmark (`bench/`) names it.
    pub transport: TransportKind,
    /// Readiness backend the event loop runs on. `Auto` lets the platform
    /// pick (epoll on Linux, poll elsewhere); the differential tests pin
    /// one.
    pub poller: PollerKind,
    /// `listen(2)` backlog for the accept socket. A connect burst from a
    /// ramping client fleet beyond this depth gets SYNs dropped and
    /// stalls on kernel retransmits (the kernel clamps to
    /// `net.core.somaxconn`).
    pub listen_backlog: i32,
    /// Scheduling pod this daemon serves (0 when unsharded). Echoed to
    /// every worker in [`Message::AssignNode`] so a sharded deployment
    /// (see `blox_core::pods`) can attribute nodes to shards.
    pub pod: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            runtime: RuntimeConfig::default(),
            heartbeat_sim_s: 60.0,
            heartbeat_misses: 3,
            stall_rounds: 10,
            transport: TransportKind::EvLoop,
            poller: PollerKind::Auto,
            listen_backlog: 1024,
            pod: 0,
        }
    }
}

/// Hardware template for a registering worker: the paper's p3.8xlarge for
/// 4-GPU nodes, a uniform-NVLink V100 box for other GPU counts.
fn node_spec(gpus: u32) -> NodeSpec {
    let gpus = gpus.max(1);
    if gpus == 4 {
        return NodeSpec::v100_p3_8xlarge();
    }
    let intra = (0..gpus)
        .map(|i| (0..gpus).map(|j| if i == j { 0.0 } else { 50.0 }).collect())
        .collect();
    NodeSpec {
        gpu_type: GpuType::V100,
        gpus,
        cpu_cores: 8 * gpus,
        dram_gb: 61.0 * gpus as f64,
        inter_bw_gbps: 10.0,
        intra_bw_gbps: intra,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// No message seen yet: could become a worker or a client.
    Pending,
    Worker(NodeId),
    Client,
}

struct Conn {
    sender: EvSender,
    role: Role,
}

/// Accept loop: every accepted socket is registered with the event
/// loop, which decodes and stamps messages itself — no per-connection
/// thread is ever spawned.
fn accept_loop(
    listener: TcpListener,
    pool: Arc<EvLoopPool>,
    events: Sender<LoopEvent>,
    stop: Arc<AtomicBool>,
) {
    let _ = listener.set_nonblocking(true);
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if pool
                    .register(stream, Delivery::Events(events.clone()))
                    .is_err()
                {
                    return; // Pool gone: the backend is shutting down.
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Execution backend driving a networked cluster of `bloxnoded` workers;
/// the deployment counterpart of `blox_runtime::RuntimeBackend` with real
/// sockets, registration, and failure detection.
pub struct NetBackend {
    addr: SocketAddr,
    events: Receiver<LoopEvent>,
    /// Events read during the inter-round wait that need a
    /// `ClusterState`, in arrival order. Applied before the channel is
    /// read again, so event order is the channel's order.
    deferred: VecDeque<LoopEvent>,
    stop: Arc<AtomicBool>,
    /// Keeps the event loop alive. `Drop for NetBackend` broadcasts
    /// Shutdown frames before this Arc falls; the loop's command queue is
    /// FIFO, so those frames flush before the pool's Stop closes the loop.
    _pool: Arc<EvLoopPool>,
    conns: BTreeMap<Token, Conn>,
    node_conn: BTreeMap<NodeId, Token>,
    /// Wall-clock arrival time of each live node's last heartbeat.
    last_hb: BTreeMap<NodeId, Instant>,
    clock: Arc<SimClock>,
    cfg: SchedulerConfig,
    /// Live wait queue fed by client submissions.
    queue: VecDeque<Job>,
    /// Worker job-status messages awaiting a `JobState` to apply to.
    pending_status: VecDeque<Message>,
    zoo: ModelZoo,
    next_job: u64,
    /// Jobs the run has pledged to wait for (set by [`serve`] from a
    /// `TrackedWindowDone` stop condition). Until that many submissions
    /// have arrived, `peek_next_arrival` reports a pending future arrival
    /// so the manager cannot mistake an open-loop submission gap for
    /// "trace drained" and stop early.
    expected_jobs: Option<u64>,
    /// Dead nodes inherited from a restored snapshot: a registering
    /// worker with a matching GPU count re-adopts one of these identities
    /// instead of growing the cluster (no double-placed GPUs).
    orphaned: BTreeSet<NodeId>,
    /// Per-running-job stall tracking: last observed progress and how
    /// many consecutive rounds it has not advanced.
    stall: BTreeMap<JobId, (f64, u32)>,
    round_now: f64,
    last_update: f64,
    nodes_joined: u32,
    failures_detected: u32,
    stalls_detected: u32,
}

impl NetBackend {
    /// Bind to `127.0.0.1:0` — an ephemeral port, so parallel schedulers
    /// (and parallel `cargo test` runs) never collide — and start
    /// accepting connections.
    pub fn bind(cfg: SchedulerConfig) -> Result<Self> {
        Self::bind_to("127.0.0.1:0", cfg)
    }

    /// Bind to an explicit address (port 0 still means ephemeral).
    pub fn bind_to(addr: &str, cfg: SchedulerConfig) -> Result<Self> {
        let sock_addr: SocketAddr = addr
            .parse()
            .map_err(|e| BloxError::Transport(format!("parse {addr}: {e}")))?;
        let listener = listen_with_backlog(sock_addr, cfg.listen_backlog)
            .map_err(|e| BloxError::Transport(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| BloxError::Transport(format!("local_addr: {e}")))?;
        let (tx, events) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let pool = Arc::new(EvLoopPool::new(EvLoopConfig {
            poller: cfg.poller,
            ..EvLoopConfig::default()
        })?);
        let pool2 = pool.clone();
        std::thread::spawn(move || accept_loop(listener, pool2, tx, stop2));
        let clock = Arc::new(SimClock::new(cfg.runtime.time_scale));
        Ok(NetBackend {
            addr,
            events,
            deferred: VecDeque::new(),
            stop,
            _pool: pool,
            conns: BTreeMap::new(),
            node_conn: BTreeMap::new(),
            last_hb: BTreeMap::new(),
            clock,
            cfg,
            queue: VecDeque::new(),
            pending_status: VecDeque::new(),
            zoo: ModelZoo::standard(),
            next_job: 0,
            expected_jobs: None,
            orphaned: BTreeSet::new(),
            stall: BTreeMap::new(),
            round_now: 0.0,
            last_update: 0.0,
            nodes_joined: 0,
            failures_detected: 0,
            stalls_detected: 0,
        })
    }

    /// The bound listen address (with the chosen ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Workers that have registered over the backend's lifetime
    /// (re-registrations after a failure count again: node re-add).
    pub fn nodes_joined(&self) -> u32 {
        self.nodes_joined
    }

    /// Nodes the failure detector has declared dead.
    pub fn failures_detected(&self) -> u32 {
        self.failures_detected
    }

    /// Running jobs the stall detector presumed lost and requeued.
    pub fn stalls_detected(&self) -> u32 {
        self.stalls_detected
    }

    /// Pledge that `n` jobs will eventually be submitted: until then,
    /// `peek_next_arrival` reports a pending future arrival so an
    /// open-loop submission gap never reads as a drained trace. [`serve`]
    /// sets this from a `TrackedWindowDone` stop condition; embedders
    /// driving the backend manually call it directly.
    pub fn expect_jobs(&mut self, n: u64) {
        self.expected_jobs = Some(n);
    }

    /// Mark the current simulated time as the start of round execution
    /// (so registration latency never reads as a backlog of instantly
    /// executed rounds) and return it. [`serve`] calls this after the
    /// registration wait; embedders driving the backend manually through
    /// `BloxManager` must do the same.
    pub fn begin_rounds(&mut self) -> f64 {
        let start = self.clock.sim_now();
        self.round_now = start;
        self.last_update = start;
        start
    }

    /// Capture a recoverable snapshot of this scheduler: backend-owned
    /// submission state plus the shared state and statistics the manager
    /// holds. `bloxschedd --checkpoint` persists one of these per
    /// checkpoint interval; `--restore` feeds it back through
    /// [`NetBackend::restore`].
    pub fn snapshot(&self, cluster: &ClusterState, jobs: &JobState, stats: &RunStats) -> Snapshot {
        Snapshot {
            now: self.round_now,
            next_job: self.next_job,
            expected_jobs: self.expected_jobs,
            cluster: cluster.clone(),
            jobs: jobs.clone(),
            queue: self.queue.iter().cloned().collect(),
            stats: stats.clone(),
        }
    }

    /// Rebuild scheduler state from a snapshot, reconciling it with the
    /// reality of a crash: every worker link died with the old process,
    /// so jobs recorded as `Running` are demoted to `Suspended` (they
    /// resume from their last reported checkpoint, one preemption
    /// charged) with their GPUs released, and every node is marked as an
    /// *orphan* — hidden from placement until its worker re-registers, at
    /// which point the node is re-adopted under its old identity instead
    /// of being added again. That reconciliation is what prevents a
    /// restarted scheduler from double-placing GPUs that live workers
    /// still consider theirs.
    ///
    /// Returns the shared state triple to hand to the scheduling loop
    /// (via `BloxManager::with_state`).
    pub fn restore(&mut self, snap: Snapshot) -> (ClusterState, JobState, RunStats) {
        self.clock = Arc::new(SimClock::synced(snap.now, self.cfg.runtime.time_scale));
        self.round_now = snap.now;
        self.last_update = snap.now;
        self.next_job = snap.next_job;
        self.expected_jobs = snap.expected_jobs;
        self.queue = snap.queue.into();
        self.stall.clear();
        let mut cluster = snap.cluster;
        let mut jobs = snap.jobs;

        let running: Vec<JobId> = jobs.running_ids().iter().copied().collect();
        for id in running {
            cluster.release(id);
            if let Some(job) = jobs.get_mut(id) {
                job.placement.clear();
                job.preemptions += 1;
            }
            let _ = jobs.set_status(id, JobStatus::Suspended);
        }

        let nodes: Vec<NodeId> = cluster.all_nodes().map(|n| n.id).collect();
        for node in nodes {
            if cluster.node(node).map(|n| n.alive) == Some(true) {
                let _ = cluster.fail_node(node);
            }
            self.orphaned.insert(node);
        }
        (cluster, jobs, snap.stats)
    }

    /// Answer a worker registration with a node identity: re-adopt an
    /// orphaned node of the same GPU count when one exists (crash
    /// recovery), otherwise grow the cluster with a fresh node.
    fn adopt_or_add(&mut self, gpus: u32, cluster: &mut ClusterState) -> NodeId {
        let wanted = gpus.max(1);
        let orphan = self.orphaned.iter().copied().find(|id| {
            cluster
                .node(*id)
                .is_some_and(|n| !n.alive && n.spec.gpus == wanted)
        });
        match orphan {
            Some(id) => {
                self.orphaned.remove(&id);
                let _ = cluster.revive_node(id);
                id
            }
            None => cluster.add_node(node_spec(gpus)),
        }
    }

    /// Drain and apply every queued connection event (registrations,
    /// heartbeats, submissions, disconnects): first those deferred by the
    /// inter-round wait, then the channel. Job-status traffic is buffered
    /// until the next `update_metrics`, which has the `JobState`.
    pub fn poll(&mut self, cluster: &mut ClusterState) {
        while let Some(ev) = self
            .deferred
            .pop_front()
            .or_else(|| self.events.try_recv().ok())
        {
            self.process_event(ev, cluster);
        }
    }

    fn connect(&mut self, id: Token, sender: EvSender) {
        self.conns.insert(
            id,
            Conn {
                sender,
                role: Role::Pending,
            },
        );
    }

    /// Accept one submission: allocate its id, queue it with its arrival
    /// stamped at `at` (the instant the loop decoded the frame) and
    /// acknowledge it. The only intake path, shared by `poll` and the
    /// inter-round wait.
    fn accept(&mut self, id: Token, gpus: u32, total_iters: f64, model: &str, at: Instant) {
        let job_id = JobId(self.next_job);
        self.next_job += 1;
        let profile = self
            .zoo
            .by_name(model)
            .cloned()
            .unwrap_or_else(|| JobProfile::synthetic(model, 1.0));
        self.queue.push_back(Job::new(
            job_id,
            self.clock.sim_at(at),
            gpus.max(1),
            total_iters,
            profile,
        ));
        if let Some(conn) = self.conns.get_mut(&id) {
            if conn.role == Role::Pending {
                conn.role = Role::Client;
            }
            let _ = conn.sender.send(&Message::JobAccepted { job: job_id });
        }
    }

    fn process_event(&mut self, ev: LoopEvent, cluster: &mut ClusterState) {
        match ev {
            LoopEvent::Connected(id, sender) => self.connect(id, sender),
            LoopEvent::Msg(id, msg, at) => self.process_message(id, msg, at, cluster),
            LoopEvent::Closed(id) => {
                if let Some(conn) = self.conns.remove(&id) {
                    if let Role::Worker(node) = conn.role {
                        self.node_conn.remove(&node);
                        self.declare_dead(node, cluster);
                    }
                }
            }
        }
    }

    fn process_message(
        &mut self,
        id: Token,
        msg: Message,
        at: Instant,
        cluster: &mut ClusterState,
    ) {
        match msg {
            Message::RegisterWorker { gpus, .. } => {
                let node = self.adopt_or_add(gpus, cluster);
                let now_sim = self.clock.sim_now();
                self.node_conn.insert(node, id);
                self.last_hb.insert(node, at);
                self.nodes_joined += 1;
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.role = Role::Worker(node);
                    let _ = conn.sender.send(&Message::AssignNode {
                        node,
                        now_sim,
                        time_scale: self.cfg.runtime.time_scale,
                        emu_iter_sim_s: self.cfg.runtime.emu_iter_sim_s,
                        heartbeat_sim_s: self.cfg.heartbeat_sim_s,
                        pod: self.cfg.pod,
                    });
                }
            }
            // Only a node's own link can keep it alive: a beat naming
            // the node from any other connection would hide its failure.
            Message::Heartbeat { node, .. } => {
                if self.role(id) == Some(Role::Worker(node)) {
                    if let Some(last) = self.last_hb.get_mut(&node) {
                        *last = at;
                    }
                }
            }
            Message::SubmitJob {
                gpus,
                total_iters,
                model,
            } => self.accept(id, gpus, total_iters, &model, at),
            // Job status counts only from a registered worker's link.
            status => {
                if matches!(self.role(id), Some(Role::Worker(_))) {
                    self.pending_status.push_back(status);
                }
            }
        }
    }

    fn role(&self, id: Token) -> Option<Role> {
        self.conns.get(&id).map(|conn| conn.role)
    }

    /// Mark a node dead and hide its GPUs; the running jobs it hosted are
    /// requeued (with surviving-shard lease revocation) by the next
    /// `update_metrics`.
    fn declare_dead(&mut self, node: NodeId, cluster: &mut ClusterState) {
        if cluster.node(node).map(|n| n.alive) != Some(true) {
            return;
        }
        let _ = cluster.fail_node(node);
        self.last_hb.remove(&node);
        self.failures_detected += 1;
        if let Some(cid) = self.node_conn.remove(&node) {
            if let Some(conn) = self.conns.remove(&cid) {
                conn.sender.shutdown();
            }
        }
    }

    /// The wall-clock deadline after which a silent node is declared dead:
    /// `heartbeat_misses` periods converted to wall time, floored at
    /// [`MIN_DETECT_WALL_S`] so OS scheduling jitter cannot produce
    /// spurious verdicts at very small time scales (where a whole period
    /// is only milliseconds of wall time).
    fn heartbeat_deadline(&self) -> Duration {
        let wall = self.cfg.heartbeat_sim_s
            * self.cfg.heartbeat_misses as f64
            * self.cfg.runtime.time_scale;
        Duration::from_secs_f64(wall.max(MIN_DETECT_WALL_S))
    }

    /// The missed-deadline verdict: any live node whose last heartbeat
    /// *arrived* longer than [`Self::heartbeat_deadline`] ago is declared
    /// dead. Checked once per round, so detection granularity is the
    /// round length.
    fn check_heartbeats(&mut self, cluster: &mut ClusterState) {
        let deadline = self.heartbeat_deadline();
        let dead: Vec<NodeId> = self
            .last_hb
            .iter()
            .filter(|(_, at)| at.elapsed() > deadline)
            .map(|(node, _)| *node)
            .collect();
        for node in dead {
            self.declare_dead(node, cluster);
        }
    }

    /// Best-effort crash-style requeue of one running job: revoke the
    /// leases of any shards on still-live nodes (no suspension ack is
    /// awaited — the worker may be dead or unreachable), release the
    /// GPUs, and return the job to the schedulable set from its last
    /// reported checkpoint with a preemption charged.
    fn requeue_job(&mut self, id: JobId, cluster: &mut ClusterState, jobs: &mut JobState) {
        let targets: Vec<NodeId> = match jobs.get(id) {
            Some(job) => cluster
                .nodes_of(&job.placement)
                .into_iter()
                .filter(|n| cluster.node(*n).map(|n| n.alive) == Some(true))
                .collect(),
            None => Vec::new(),
        };
        for node in targets {
            self.send(node, &Message::Revoke { job: id }, cluster);
        }
        cluster.release(id);
        self.stall.remove(&id);
        if let Some(job) = jobs.get_mut(id) {
            job.placement.clear();
            job.preemptions += 1;
            let _ = jobs.set_status(id, JobStatus::Suspended);
        }
    }

    /// Requeue running jobs whose GPUs vanished with a failed node. For
    /// each, surviving shards get their leases revoked first (the orphaned
    /// workers stop burning GPU time), then the job re-enters the
    /// schedulable set from its last reported checkpoint.
    fn requeue_failed(&mut self, cluster: &mut ClusterState, jobs: &mut JobState) {
        // From the ids `fail_node` evicted since the last Collect, not a
        // scan of the running set.
        for id in take_lost_jobs(cluster, jobs) {
            self.requeue_job(id, cluster, jobs);
        }
    }

    /// Loss-tolerant completion and stall handling, evaluated once per
    /// round after worker status traffic has been applied:
    ///
    /// * a `Running` job whose reported progress has reached its total
    ///   work is completed even if the `JobDone` message was lost
    ///   (completion stamps at the round boundary — the exact sub-round
    ///   instant died with the message);
    /// * a `Running` job that reports **zero** progress for
    ///   `stall_rounds` consecutive rounds is presumed lost — its
    ///   `Launch` never arrived, or its worker's reports cannot reach us
    ///   — and is requeued just like a churn eviction.
    fn detect_lost_jobs(&mut self, cluster: &mut ClusterState, jobs: &mut JobState) {
        // Completion fallback for lost JobDone messages (index-driven over
        // the running set).
        let finished: Vec<JobId> = jobs
            .running()
            .filter(|j| j.completed_iters >= j.total_iters)
            .map(|j| j.id)
            .collect();
        for id in finished {
            self.stall.remove(&id);
            let done = Message::JobDone {
                job: id,
                sim_time: self.round_now,
            };
            control::apply_status(done, cluster, jobs);
        }

        // Stall verdicts.
        if self.cfg.stall_rounds == 0 {
            return;
        }
        let mut stalled = Vec::new();
        let mut seen = BTreeSet::new();
        for job in jobs.running() {
            seen.insert(job.id);
            match self.stall.get_mut(&job.id) {
                // First observation sets the baseline only; counting
                // starts next round, so `stall_rounds` means "rounds with
                // zero progress *after* the baseline round" and even
                // `--stall-rounds 1` cannot requeue a healthy job.
                None => {
                    self.stall.insert(job.id, (job.completed_iters, 0));
                }
                Some(entry) => {
                    if job.completed_iters > entry.0 {
                        *entry = (job.completed_iters, 0);
                    } else {
                        entry.1 += 1;
                        if entry.1 >= self.cfg.stall_rounds {
                            stalled.push(job.id);
                        }
                    }
                }
            }
        }
        // Forget jobs that are no longer running (suspended, completed).
        self.stall.retain(|id, _| seen.contains(id));
        for id in stalled {
            self.stalls_detected += 1;
            self.requeue_job(id, cluster, jobs);
        }
    }
}

/// Commands go out on each node's connection; job status is read in the
/// loop's drain order (buffered status, then deferred events, then the
/// event channel), so intake, registrations and closes are served while
/// the control plane waits.
impl WorkerLinks for NetBackend {
    /// A failed send is a failure-detector verdict in its own right: the
    /// event loop has closed the link, so the node is declared dead
    /// immediately — its jobs requeue on the next `update_metrics` —
    /// instead of waiting out the heartbeat deadline on a corpse.
    fn send(&mut self, node: NodeId, msg: &Message, cluster: &mut ClusterState) {
        let sender = self
            .node_conn
            .get(&node)
            .and_then(|cid| self.conns.get(cid))
            .map(|conn| conn.sender.clone());
        if let Some(sender) = sender {
            if sender.send(msg).is_err() {
                self.declare_dead(node, cluster);
            }
        }
    }

    fn recv_status(&mut self, timeout: Duration, cluster: &mut ClusterState) -> Option<Message> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.pending_status.pop_front() {
                return Some(msg);
            }
            let ev = match self.deferred.pop_front() {
                Some(ev) => ev,
                None => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.events.recv_timeout(left).ok()?
                }
            };
            self.process_event(ev, cluster);
        }
    }
}

impl Drop for NetBackend {
    fn drop(&mut self) {
        // Orderly teardown: tell every worker to exit, stop the listener,
        // and close all sockets. The Shutdown broadcast is the canonical
        // fan-out frame: encoded once, shared by `Arc` across every
        // worker's outbound queue.
        self.stop.store(true, Ordering::Relaxed);
        let goodbye = encode_shared(&Message::Shutdown).expect("Shutdown frame is a few bytes");
        for conn in self.conns.values() {
            if matches!(conn.role, Role::Worker(_)) {
                let _ = conn.sender.send_shared(&goodbye);
            }
            conn.sender.shutdown();
        }
    }
}

impl Backend for NetBackend {
    fn now(&self) -> f64 {
        self.round_now
    }

    fn update_cluster(&mut self, cluster: &mut ClusterState) {
        self.poll(cluster);
        self.check_heartbeats(cluster);
    }

    fn pop_wait_queue(&mut self, now: f64) -> Vec<Job> {
        let mut out = Vec::new();
        let mut later = VecDeque::new();
        while let Some(job) = self.queue.pop_front() {
            if job.arrival_time <= now {
                out.push(job);
            } else {
                later.push_back(job);
            }
        }
        self.queue = later;
        out
    }

    fn peek_next_arrival(&self) -> Option<(JobId, f64)> {
        // Open-loop traffic: only already-submitted jobs are knowable...
        if let Some(job) = self.queue.front() {
            return Some((job.id, job.arrival_time));
        }
        // ...but if the run has pledged to wait for N jobs, report the
        // next expected id as a pending far-future arrival until it
        // actually shows up, so a submission gap never reads as a
        // drained trace.
        match self.expected_jobs {
            Some(n) if self.next_job < n => Some((JobId(self.next_job), f64::INFINITY)),
            _ => None,
        }
    }

    fn update_metrics(&mut self, cluster: &mut ClusterState, jobs: &mut JobState, elapsed: f64) {
        // `round_now` is what this backend reports as `Backend::now`, so
        // the manager-measured span and the local derivation are the same
        // quantity — assert agreement per the `update_metrics` elapsed
        // contract.
        debug_assert!(
            elapsed <= 0.0 || (elapsed - (self.round_now - self.last_update)).abs() < 1e-6,
            "caller-reported elapsed {elapsed} disagrees with backend clock span {}",
            self.round_now - self.last_update
        );
        let elapsed = (self.round_now - self.last_update).max(0.0);
        self.last_update = self.round_now;
        self.poll(cluster);
        self.requeue_failed(cluster, jobs);
        while let Some(msg) = self.pending_status.pop_front() {
            control::apply_status(msg, cluster, jobs);
        }
        self.detect_lost_jobs(cluster, jobs);
        control::accrue_service(jobs, elapsed);
    }

    fn exec_jobs(
        &mut self,
        placement: &Placement,
        cluster: &mut ClusterState,
        jobs: &mut JobState,
    ) -> PlacementOutcome {
        let now = self.round_now;
        control::actuate(self, placement, cluster, jobs, now)
    }

    /// Wait for the round's wall-clock deadline while serving intake:
    /// submissions are accepted and new connections recorded as they
    /// arrive; every other event needs the `ClusterState` and is deferred
    /// to the next `poll`.
    fn advance_round(&mut self, round_duration: f64) {
        self.round_now += round_duration;
        let deadline = self.clock.instant_at(self.round_now);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            match self.events.recv_timeout(left) {
                Ok(LoopEvent::Msg(
                    id,
                    Message::SubmitJob {
                        gpus,
                        total_iters,
                        model,
                    },
                    at,
                )) => self.accept(id, gpus, total_iters, &model, at),
                Ok(LoopEvent::Connected(id, sender)) => self.connect(id, sender),
                Ok(ev) => self.deferred.push_back(ev),
                Err(RecvTimeoutError::Timeout) => return,
                Err(RecvTimeoutError::Disconnected) => {
                    std::thread::sleep(left);
                    return;
                }
            }
        }
    }
}

// Serving ---------------------------------------------------------------------

/// Aggregate report of one networked scheduler run.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Run statistics from the scheduling loop.
    pub stats: RunStats,
    /// Workers that registered over the run (re-adds included).
    pub nodes_joined: u32,
    /// Nodes the failure detector declared dead.
    pub failures_detected: u32,
    /// Running jobs the stall detector presumed lost and requeued.
    pub stalls_detected: u32,
    /// Nodes still marked dead at the end of the run.
    pub dead_nodes: Vec<NodeId>,
}

/// Crash-recovery options for [`serve_with`]: periodic checkpointing of
/// the scheduler state and/or restoration from a prior checkpoint.
#[derive(Debug, Default)]
pub struct RecoveryOptions {
    /// Write a snapshot here every `checkpoint_every_rounds` rounds
    /// (atomically: temp file + rename). `None` disables checkpointing.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Checkpoint cadence in rounds; `0` is treated as every round.
    pub checkpoint_every_rounds: u64,
    /// Resume from this snapshot instead of starting fresh (see
    /// [`NetBackend::restore`] for the reconciliation semantics).
    pub restore: Option<Snapshot>,
}

/// Atomically persist a snapshot: write to `<path>.tmp`, then rename, so
/// a crash mid-write can never leave a truncated checkpoint behind.
pub fn write_checkpoint(path: &Path, snap: &Snapshot) -> Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, snap.encode())
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| BloxError::Io(format!("write checkpoint {}: {e}", path.display())))
}

/// Load and decode a checkpoint written by [`write_checkpoint`].
pub fn read_checkpoint(path: &Path) -> Result<Snapshot> {
    let bytes = std::fs::read(path)
        .map_err(|e| BloxError::Io(format!("read checkpoint {}: {e}", path.display())))?;
    Snapshot::decode(&bytes)
}

/// Drive a bound [`NetBackend`] to completion: wait for `min_nodes`
/// workers to register (bounded by `register_timeout`), run the
/// scheduling loop with the given policies, then broadcast shutdown.
///
/// A [`StopCondition::TimeLimit`] in `run` is interpreted relative to the
/// run's start (registration time does not count against it).
/// [`StopCondition::AllJobsDone`] is rejected: with open-loop
/// submissions, an empty wait queue is indistinguishable from a drained
/// trace, so the run would silently stop before the first job arrives —
/// use `TrackedWindowDone` (wait for N jobs) or `TimeLimit` instead.
pub fn serve(
    backend: NetBackend,
    run: RunConfig,
    min_nodes: u32,
    register_timeout: Duration,
    admission: &mut dyn AdmissionPolicy,
    scheduling: &mut dyn SchedulingPolicy,
    placement: &mut dyn PlacementPolicy,
) -> Result<NetReport> {
    serve_with(
        backend,
        run,
        min_nodes,
        register_timeout,
        RecoveryOptions::default(),
        admission,
        scheduling,
        placement,
    )
}

/// [`serve`] with crash-recovery options: optionally restore the run from
/// a snapshot first, and/or write a checkpoint snapshot every N rounds so
/// a later `--restore` can resume the run after a scheduler crash.
///
/// A checkpoint write failure is reported on stderr but does not abort
/// the run — a scheduler that kills its cluster because a disk filled up
/// would be a worse failure mode than running uncheckpointed.
#[allow(clippy::too_many_arguments)]
pub fn serve_with(
    mut backend: NetBackend,
    mut run: RunConfig,
    min_nodes: u32,
    register_timeout: Duration,
    recovery: RecoveryOptions,
    admission: &mut dyn AdmissionPolicy,
    scheduling: &mut dyn SchedulingPolicy,
    placement: &mut dyn PlacementPolicy,
) -> Result<NetReport> {
    if matches!(run.stop, StopCondition::AllJobsDone) {
        return Err(BloxError::Config(
            "serve() requires StopCondition::TrackedWindowDone or TimeLimit: with \
             open-loop submissions, AllJobsDone would stop before the first job arrives"
                .into(),
        ));
    }
    let (mut cluster, jobs, stats) = match recovery.restore {
        Some(snap) => backend.restore(snap),
        None => (ClusterState::new(), JobState::new(), RunStats::new()),
    };
    let deadline = Instant::now() + register_timeout;
    while backend.nodes_joined() < min_nodes {
        if Instant::now() > deadline {
            return Err(BloxError::Transport(format!(
                "only {}/{min_nodes} workers registered within {register_timeout:?}",
                backend.nodes_joined()
            )));
        }
        backend.poll(&mut cluster);
        std::thread::sleep(Duration::from_millis(5));
    }

    // Rounds start at the current simulated time: registration latency
    // must not appear as a backlog of instantly-executed rounds. (A
    // restored backend's clock resumes from the snapshot time.)
    let start = backend.begin_rounds();
    match run.stop {
        StopCondition::TimeLimit(t) => run.stop = StopCondition::TimeLimit(start + t),
        // The run waits for the whole tracked window to be submitted,
        // even across open-loop gaps in the arrival stream.
        StopCondition::TrackedWindowDone { hi, .. } => backend.expected_jobs = Some(hi + 1),
        StopCondition::AllJobsDone => {}
    }

    let mut mgr = BloxManager::with_state(backend, cluster, jobs, stats, run);
    let stats = match &recovery.checkpoint_path {
        // No checkpointing: keep the manager's own run loop (including
        // the event-driven fast-forward path, should a backend ever
        // provide event hints) — byte-identical to the pre-recovery
        // serve() behavior.
        None => mgr.run(admission, scheduling, placement),
        Some(path) => {
            let checkpoint_every = recovery.checkpoint_every_rounds.max(1);
            let mut rounds_since_checkpoint = 0u64;
            while !mgr.should_stop() {
                mgr.step(admission, scheduling, placement);
                rounds_since_checkpoint += 1;
                if rounds_since_checkpoint >= checkpoint_every {
                    rounds_since_checkpoint = 0;
                    let snap = mgr
                        .backend()
                        .snapshot(mgr.cluster(), mgr.jobs(), mgr.stats());
                    if let Err(e) = write_checkpoint(path, &snap) {
                        eprintln!("bloxschedd: checkpoint failed: {e}");
                    }
                }
            }
            mgr.stats().clone()
        }
    };
    let dead_nodes = mgr
        .cluster()
        .all_nodes()
        .filter(|n| !n.alive)
        .map(|n| n.id)
        .collect();
    Ok(NetReport {
        stats,
        nodes_joined: mgr.backend().nodes_joined(),
        failures_detected: mgr.backend().failures_detected(),
        stalls_detected: mgr.backend().stalls_detected(),
        dead_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpTransport;
    use blox_core::profile::JobProfile;
    use blox_runtime::wire::Transport;

    /// A backend whose 200-simulated-second round lasts 200 ms of wall
    /// time, so a peer can act while `advance_round` waits.
    fn slow_round_backend() -> NetBackend {
        NetBackend::bind(SchedulerConfig {
            runtime: RuntimeConfig {
                time_scale: 1e-3,
                emu_iter_sim_s: 30.0,
            },
            ..SchedulerConfig::default()
        })
        .expect("bind ephemeral")
    }

    /// A submission read during the inter-round wait is acknowledged at
    /// once, and its arrival is stamped at decode, so the next round
    /// admits it.
    #[test]
    fn submission_during_the_round_wait_is_acked_and_admitted_next_round() {
        let mut backend = slow_round_backend();
        let addr = backend.addr();
        let mut cluster = ClusterState::new();
        backend.begin_rounds();
        // Until `poll`, the wait is the channel's only reader, so the
        // submission is read there whether it lands before or during it.
        let client = std::thread::spawn(move || {
            let link = TcpTransport::connect(addr).expect("connect");
            let sent = Instant::now();
            link.send(&Message::SubmitJob {
                gpus: 1,
                total_iters: 100.0,
                model: "emu".into(),
            })
            .expect("submit");
            let reply = link
                .recv_timeout(Duration::from_secs(5))
                .expect("link")
                .expect("an ack within 5 s");
            (reply, sent.elapsed())
        });

        backend.advance_round(200.0);
        // Anything still in the channel is applied (and acked) here.
        backend.poll(&mut cluster);
        let (reply, waited) = client.join().expect("client");

        assert!(
            matches!(reply, Message::JobAccepted { job: JobId(0) }),
            "{reply:?}"
        );
        assert!(
            waited < Duration::from_millis(20),
            "ack took {waited:?}: it waited for the round"
        );
        let admitted: Vec<JobId> = backend
            .pop_wait_queue(backend.now())
            .iter()
            .map(|j| j.id)
            .collect();
        assert_eq!(admitted, vec![JobId(0)], "admitted by the next round");
    }

    /// A round that overruns its slot leaves no wait: a submission decoded
    /// before the boundary is read only by the next `poll`, past the
    /// boundary. Its arrival is the decode instant, so that round still
    /// admits it.
    #[test]
    fn submission_decoded_before_an_overrun_boundary_is_admitted_by_that_round() {
        let mut backend = slow_round_backend();
        let addr = backend.addr();
        let mut cluster = ClusterState::new();
        let start = backend.begin_rounds();
        let (sent_tx, sent_rx) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let link = TcpTransport::connect(addr).expect("connect");
            link.send(&Message::SubmitJob {
                gpus: 1,
                total_iters: 100.0,
                model: "emu".into(),
            })
            .expect("submit");
            sent_tx.send(()).expect("signal the send");
            link.recv_timeout(Duration::from_secs(5)).expect("link")
        });

        // The round's work runs past its 200 ms slot, after the send.
        sent_rx.recv().expect("the client sent");
        backend.clock.sleep_until(start + 250.0);
        backend.advance_round(200.0);
        backend.poll(&mut cluster);
        let reply = client.join().expect("client");

        assert!(
            matches!(reply, Some(Message::JobAccepted { job: JobId(0) })),
            "{reply:?}"
        );
        let admitted: Vec<JobId> = backend
            .pop_wait_queue(backend.now())
            .iter()
            .map(|j| j.id)
            .collect();
        assert_eq!(admitted, vec![JobId(0)], "held back a round");
    }

    /// Events that need the cluster state are deferred by the wait and
    /// applied by the next `poll` in arrival order: the registration
    /// first, then the drop that kills the new node.
    #[test]
    fn registration_and_drop_during_the_round_wait_apply_in_order() {
        let mut backend = slow_round_backend();
        let addr = backend.addr();
        let mut cluster = ClusterState::new();
        backend.begin_rounds();
        let worker = std::thread::spawn(move || {
            let link = TcpTransport::connect(addr).expect("connect");
            link.send(&Message::RegisterWorker {
                node: NodeId(0),
                gpus: 4,
            })
            .expect("register");
            // Dropping the link closes the connection.
        });

        backend.advance_round(200.0);
        worker.join().expect("worker");
        assert_eq!(backend.nodes_joined(), 0, "nothing applied during the wait");
        assert_eq!(backend.deferred.len(), 2, "RegisterWorker, then Closed");

        backend.poll(&mut cluster);
        assert_eq!(backend.nodes_joined(), 1);
        assert_eq!(backend.failures_detected(), 1);
        let alive: Vec<bool> = cluster.all_nodes().map(|n| n.alive).collect();
        assert_eq!(alive, vec![false], "the registered node is dead");
    }

    /// A heartbeat naming a node counts only on that node's own link: a
    /// client beating for a silent worker cannot hide its failure.
    #[test]
    fn heartbeat_from_another_connection_does_not_keep_a_silent_node_alive() {
        let mut backend = NetBackend::bind(SchedulerConfig {
            runtime: RuntimeConfig {
                time_scale: 1e-4,
                emu_iter_sim_s: 30.0,
            },
            ..SchedulerConfig::default()
        })
        .expect("bind ephemeral");
        let deadline = backend.heartbeat_deadline();
        let addr = backend.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let (node_tx, node_rx) = std::sync::mpsc::channel();

        let stop_w = stop.clone();
        let worker = std::thread::spawn(move || {
            let link = TcpTransport::connect(addr).expect("connect");
            link.send(&Message::RegisterWorker {
                node: NodeId(0),
                gpus: 4,
            })
            .expect("register");
            let assign = link.recv_timeout(Duration::from_secs(5)).expect("link");
            let Some(Message::AssignNode { node, .. }) = assign else {
                panic!("expected AssignNode, got {assign:?}");
            };
            node_tx.send(node).expect("hand the node id over");
            // Silent from here on, with the socket open.
            while !stop_w.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let stop_f = stop.clone();
        let forger = std::thread::spawn(move || {
            let link = TcpTransport::connect(addr).expect("connect");
            let node = node_rx.recv().expect("assigned node");
            let mut seq = 0;
            while !stop_f.load(Ordering::Relaxed)
                && link.send(&Message::Heartbeat { node, seq }).is_ok()
            {
                seq += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
        });

        let mut cluster = ClusterState::new();
        backend.begin_rounds();
        let start = Instant::now();
        let mut registered = None;
        while backend.failures_detected() == 0 && start.elapsed() < Duration::from_secs(3) {
            backend.update_cluster(&mut cluster);
            if registered.is_none() && backend.nodes_joined() == 1 {
                registered = Some(Instant::now());
            }
            backend.advance_round(100.0);
        }
        stop.store(true, Ordering::Relaxed);
        forger.join().expect("forger");
        worker.join().expect("worker");

        assert_eq!(
            backend.failures_detected(),
            1,
            "forged beats kept the node alive"
        );
        let detected_after = registered.expect("the worker registered").elapsed();
        assert!(
            detected_after < 2 * deadline,
            "declared dead {detected_after:?} after registering (deadline {deadline:?})"
        );
    }

    /// Job status from a connection that never registered as a worker is
    /// dropped: a forged `JobDone` cannot complete a running job.
    #[test]
    fn job_status_from_a_non_worker_connection_is_ignored() {
        let (mut backend, mut cluster, mut jobs) = backend_with_running_job();
        let client = TcpTransport::connect(backend.addr()).expect("connect");
        client
            .send(&Message::JobDone {
                job: JobId(0),
                sim_time: 1.0,
            })
            .expect("forged JobDone");
        // The submission is read after the forged status on the same link.
        client
            .send(&Message::SubmitJob {
                gpus: 1,
                total_iters: 100.0,
                model: "emu".into(),
            })
            .expect("submit");
        let start = Instant::now();
        while backend.next_job == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "submission never read"
            );
            backend.poll(&mut cluster);
            std::thread::sleep(Duration::from_millis(1));
        }

        backend.update_metrics(&mut cluster, &mut jobs, 0.0);
        let job = jobs.get(JobId(0)).expect("still active");
        assert_eq!(job.status, JobStatus::Running);
        assert_eq!(job.completion_time, None);
        assert_eq!(cluster.job_gpu_count(JobId(0)), 1);
    }

    fn flat_running_job(id: u64) -> Job {
        let mut j = Job::new(JobId(id), 0.0, 1, 1e6, JobProfile::synthetic("t", 1.0));
        j.status = JobStatus::Running;
        j.completed_iters = 100.0;
        j
    }

    /// One stall-observation round with no worker traffic: the job's
    /// reported progress stays flat.
    fn flat_round(backend: &mut NetBackend, cluster: &mut ClusterState, jobs: &mut JobState) {
        backend.advance_round(300.0);
        backend.update_metrics(cluster, jobs, 300.0);
    }

    /// A backend plus one live 4-GPU node hosting `flat_running_job(0)` on
    /// its first GPU. The node has no connection, so commands sent to it
    /// go nowhere — the worker side of each test is scripted.
    fn backend_with_running_job() -> (NetBackend, ClusterState, JobState) {
        let backend = NetBackend::bind(SchedulerConfig::default()).expect("bind ephemeral");
        let mut cluster = ClusterState::new();
        cluster.add_node(node_spec(4));
        let mut job = flat_running_job(0);
        job.placement = vec![cluster.free_gpus()[0]];
        cluster
            .allocate(job.id, &job.placement, job.profile.gpu_mem_gb)
            .expect("first GPU is free");
        let mut jobs = JobState::new();
        jobs.add_new_jobs(vec![job]);
        (backend, cluster, jobs)
    }

    fn suspend_job_0() -> Placement {
        Placement {
            to_suspend: vec![JobId(0)],
            to_launch: vec![],
        }
    }

    /// `Revoke` × `JobDone`: the job finished on the worker just before
    /// the scheduler revoked its lease, so its `JobDone` is already
    /// queued when `exec_jobs` sends the `Revoke` and no `JobSuspended`
    /// will ever come. The wait must end when the `JobDone` is applied,
    /// not sit out its 5 s bound.
    #[test]
    fn revoke_crossing_job_done_does_not_wait_for_a_suspension_ack() {
        let (mut backend, mut cluster, mut jobs) = backend_with_running_job();
        backend.pending_status.push_back(Message::JobDone {
            job: JobId(0),
            sim_time: 42.0,
        });

        let t0 = Instant::now();
        let outcome = backend.exec_jobs(&suspend_job_0(), &mut cluster, &mut jobs);
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
        assert_eq!(cluster.free_gpu_count(), 4);
    }

    /// A dead rank-0 node cannot ack either: the job is suspended on the
    /// scheduler's side at once and its GPUs are released.
    #[test]
    fn revoke_to_a_dead_node_does_not_wait_for_a_suspension_ack() {
        let (mut backend, mut cluster, mut jobs) = backend_with_running_job();
        let node = cluster.nodes().next().expect("one node").id;
        backend.declare_dead(node, &mut cluster);

        let t0 = Instant::now();
        let outcome = backend.exec_jobs(&suspend_job_0(), &mut cluster, &mut jobs);
        let waited = t0.elapsed();

        assert!(
            waited < Duration::from_millis(100),
            "waited {waited:?} on a dead node"
        );
        assert!(outcome.is_clean(), "skipped: {:?}", outcome.skipped);
        assert_eq!(outcome.suspended, vec![JobId(0)]);
        assert_eq!(cluster.job_gpu_count(JobId(0)), 0);
    }

    /// Recovery-path regression for the stall detector: the per-job
    /// zero-progress counters live outside the checkpoint, and
    /// [`NetBackend::restore`] clears the tracker, so rounds a job sat
    /// flat *before* a scheduler crash must never count against it after
    /// the restart — a freshly relaunched job gets the full
    /// `stall_rounds` grace again, and the detector still fires once
    /// that grace is genuinely exhausted.
    #[test]
    fn stall_counter_is_not_double_counted_across_restore() {
        let cfg = SchedulerConfig {
            runtime: RuntimeConfig {
                time_scale: 1e-6,
                emu_iter_sim_s: 30.0,
            },
            stall_rounds: 3,
            ..SchedulerConfig::default()
        };
        let mut backend = NetBackend::bind(cfg.clone()).expect("bind ephemeral");
        let mut cluster = ClusterState::new();
        let mut jobs = JobState::new();
        jobs.add_new_jobs(vec![flat_running_job(0)]);
        backend.begin_rounds();

        // Baseline round + two flat counting rounds: one short of the
        // stall verdict at the moment of the crash.
        for _ in 0..3 {
            flat_round(&mut backend, &mut cluster, &mut jobs);
        }
        assert_eq!(backend.stalls_detected(), 0);
        assert_eq!(
            jobs.get(JobId(0)).expect("active").status,
            JobStatus::Running
        );

        // Crash: checkpoint, restore into a fresh scheduler. The restore
        // demotes the running job to suspended (one preemption charged).
        let snap = backend.snapshot(&cluster, &jobs, &RunStats::new());
        let mut backend2 = NetBackend::bind(cfg).expect("bind successor");
        let (mut cluster2, mut jobs2, _stats) = backend2.restore(snap);
        let job = jobs2.get(JobId(0)).expect("active");
        assert_eq!(job.status, JobStatus::Suspended);
        assert_eq!(job.preemptions, 1);

        // Relaunch, still flat. Were the pre-crash count carried over,
        // the first post-restore observation would read 2 + 1 >= 3 and
        // requeue the job the moment it came back. Instead the first
        // round re-seeds the baseline and two more only reach count 2.
        backend2.begin_rounds();
        jobs2
            .set_status(JobId(0), JobStatus::Running)
            .expect("relaunch");
        for _ in 0..3 {
            flat_round(&mut backend2, &mut cluster2, &mut jobs2);
        }
        assert_eq!(
            backend2.stalls_detected(),
            0,
            "post-restore stall counting must restart from a fresh baseline"
        );

        // The detector itself still works: exhausting the full grace
        // after the restart fires exactly one requeue.
        flat_round(&mut backend2, &mut cluster2, &mut jobs2);
        assert_eq!(backend2.stalls_detected(), 1);
        let job = jobs2.get(JobId(0)).expect("active");
        assert_eq!(job.status, JobStatus::Suspended);
        assert_eq!(
            job.preemptions, 2,
            "one preemption from the crash demotion, one from the stall requeue"
        );
    }
}
