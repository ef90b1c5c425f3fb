//! Incremental, memoized progress-rate cache for the simulation backend.
//!
//! PR 5's stage telemetry showed the Collect stage dominating the round
//! at scale: the perf model re-derived every running job's rate every
//! round, and each derivation rebuilt the whole-cluster CPU-pressure map
//! — O(jobs²). The [`RateCache`] turns that into delta-driven incremental
//! maintenance (the MetaSys cross-layer-metadata argument applied to the
//! perf model, exactly as the PR 5 state indexes applied it to the shared
//! state):
//!
//! * **Base-throughput memo** — the contention-free rate is a pure
//!   function of `(profile parameters, GPU type, n, consolidated,
//!   inter-bandwidth, batch size)`; it is computed once per distinct key
//!   and reused across jobs and rounds.
//! * **Incremental pressure** — per-node CPU demand is kept in a reverse
//!   index (`node → job → cores wanted`), so a round that changes `k`
//!   placements re-derives pressure on the touched nodes only, summing
//!   contributions in job-id order (the exact accumulation order of the
//!   from-scratch map, so the result is bit-identical).
//! * **Delta-driven invalidation** — the backend forwards the round's
//!   [`blox_core::delta::StateDelta`] (launches, suspensions,
//!   terminations, Pollux batch retunes) and cluster churn into
//!   [`RateCache::invalidate_job`] / [`RateCache::invalidate_node`];
//!   unchanged jobs reuse last round's rate without recomputation.
//! * **Validation sweep** — [`RateCache::update`] additionally merges
//!   its id-ordered entries against an in-order walk of the active jobs
//!   in one pass (no per-job set or map lookups), dropping entries whose
//!   job stopped running and comparing each remaining entry's stored
//!   placement and batch size against the live job, so direct state
//!   mutations that bypass the delta stream (standalone backend use,
//!   tests) still invalidate correctly. The sweep is the correctness net;
//!   the delta stream is what keeps the rebuild cheap.
//! * **Parallel residual recompute** — when a round leaves a large
//!   recompute set (cold start, mass preemption), the per-job rate math
//!   fans out across scoped threads exactly like [`crate::sweep`] does:
//!   workers claim chunks off an atomic counter, results land in
//!   id-ordered slots, and the merge applies them in id order — so the
//!   cache contents are byte-identical no matter how many threads ran.
//!
//! # Exactness contract
//!
//! After `update`, [`RateCache::rates`] equals
//! [`PerfModel::progress_rates`] *bitwise* for every running job — the
//! cache is pure acceleration, pinned by the property suite
//! (`cached_rates_match_scratch_recompute` in `tests/properties.rs`).
//! Two rules make that hold:
//!
//! 1. Node-liveness changes must be reported via `invalidate_node` (the
//!    backend's churn hook does); a failed or revived node changes which
//!    placements contribute pressure without changing any placement.
//! 2. Entries whose placement straddled a dead node at build time are
//!    marked *degraded* and rebuilt every round until the placement is
//!    cleaned up — their inputs can change with liveness the index
//!    cannot observe. Manager-driven runs requeue such jobs before rates
//!    are read, so degraded entries never survive a round in practice.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use blox_core::cluster::{ClusterState, GpuType};
use blox_core::ids::{GpuGlobalId, JobId, NodeId};
use blox_core::job::{Job, JobStatus};
use blox_core::state::JobState;

use crate::perf::PerfModel;

/// Memo key of the base (contention-free) throughput: every input of
/// [`PerfModel::base_rate`], with floats keyed by their exact bit
/// patterns so a memo hit returns the identical `f64` a fresh
/// computation would.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum BaseKey {
    /// Non-Pollux jobs: the [`blox_core::profile::IterTimeModel`] path.
    Iter {
        /// `(base_iter_s, serial_frac, comm_frac, spread_penalty)` bits.
        model: [u64; 4],
        gpu: GpuType,
        n: u32,
        consolidated: bool,
        /// Interconnect bandwidth bits (the exact value, not a lossy
        /// bucket: placements share few distinct bandwidths, and an
        /// approximate bucket would break bit-exactness).
        inter_bw: u64,
    },
    /// Pollux jobs: goodput at the current batch size.
    Pollux {
        /// `(t_grad_per_sample, t_sync, gns)` bits.
        params: [u64; 3],
        init_batch: u64,
        batch: u64,
        n: u32,
        consolidated: bool,
        /// [`PerfModel::pollux_spread_sync_factor`] bits.
        spread_sync: u64,
    },
}

/// Everything cached for one running job.
#[derive(Debug, Clone)]
struct Entry {
    /// The placement the entry was built from (the sweep's change check).
    placement: Vec<GpuGlobalId>,
    /// The batch size the entry was built from (Pollux retune check).
    batch: u64,
    /// Distinct nodes the placement spans (sorted; includes nodes that
    /// were dead at build time) — the contention-fold domain.
    nodes: Vec<NodeId>,
    /// Memo key of the base rate.
    key: BaseKey,
    /// Placement facts feeding [`PerfModel::base_rate`] on a memo miss.
    n: u32,
    gpu: GpuType,
    consolidated: bool,
    inter_bw: f64,
    /// True when a placement GPU was unresolvable or sat on a dead node
    /// at build time; such entries are rebuilt every round (see the
    /// module docs' exactness contract).
    degraded: bool,
}

/// Incremental progress-rate cache owned by [`crate::SimBackend`]. See
/// the [module docs](self) for the design and exactness contract.
#[derive(Debug, Clone)]
pub struct RateCache {
    /// Worker threads for the residual recompute: `0` = one per
    /// available CPU, `1` = serial.
    threads: usize,
    /// Minimum recompute-set size before fanning out across threads.
    par_threshold: usize,
    /// Base-throughput memo.
    base: HashMap<BaseKey, f64>,
    /// Per-running-job cache entries.
    entries: BTreeMap<JobId, Entry>,
    /// Reverse index: node → (job → CPU cores wanted there). Only
    /// live-node contributions; the incremental `cpu_pressure`.
    node_want: BTreeMap<NodeId, BTreeMap<JobId, f64>>,
    /// Current per-node pressure, bit-identical to
    /// [`PerfModel::cpu_pressure`] over the same state.
    pressure: BTreeMap<NodeId, f64>,
    /// Current per-job rates, bit-identical to
    /// [`PerfModel::progress_rates`] over the same state.
    rates: BTreeMap<JobId, f64>,
    /// Jobs named by deltas/hooks since the last update.
    stale_jobs: BTreeSet<JobId>,
    /// Nodes named by churn since the last update.
    stale_nodes: BTreeSet<NodeId>,
}

impl Default for RateCache {
    fn default() -> Self {
        RateCache::new()
    }
}

impl RateCache {
    /// An empty cache with automatic thread count and the default
    /// parallel threshold.
    pub fn new() -> Self {
        RateCache {
            threads: 0,
            par_threshold: 4096,
            base: HashMap::new(),
            entries: BTreeMap::new(),
            node_want: BTreeMap::new(),
            pressure: BTreeMap::new(),
            rates: BTreeMap::new(),
            stale_jobs: BTreeSet::new(),
            stale_nodes: BTreeSet::new(),
        }
    }

    /// Set the worker-thread count for the residual recompute
    /// (`0` = one per available CPU, `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the recompute-set size at which the residual recompute fans
    /// out across threads (tests lower this to exercise the parallel
    /// path on small states).
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.par_threshold = threshold.max(1);
        self
    }

    /// Mark one job's cached rate stale (placement, status, or batch-size
    /// change). The entry is rebuilt at the next [`RateCache::update`].
    pub fn invalidate_job(&mut self, id: JobId) {
        self.stale_jobs.insert(id);
    }

    /// Mark one node's liveness as changed (failure or revival): every
    /// job contributing pressure there is rebuilt at the next update.
    /// **Required** for exactness — see the module docs.
    pub fn invalidate_node(&mut self, node: NodeId) {
        self.stale_nodes.insert(node);
    }

    /// Drop everything (state restore / wholesale reconfiguration).
    pub fn clear(&mut self) {
        self.base.clear();
        self.entries.clear();
        self.node_want.clear();
        self.pressure.clear();
        self.rates.clear();
        self.stale_jobs.clear();
        self.stale_nodes.clear();
    }

    /// Number of cached per-job entries (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no per-job entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached rates from the last [`RateCache::update`].
    pub fn rates(&self) -> &BTreeMap<JobId, f64> {
        &self.rates
    }

    /// Bring the cache up to date with the shared state and return the
    /// per-running-job rates — bit-identical to
    /// [`PerfModel::progress_rates`] over the same state, at the cost of
    /// rebuilding only what changed.
    pub fn update(
        &mut self,
        perf: &PerfModel,
        jobs: &JobState,
        cluster: &ClusterState,
    ) -> &BTreeMap<JobId, f64> {
        // Nodes whose pressure must be re-derived this round.
        let mut touched: BTreeSet<NodeId> = std::mem::take(&mut self.stale_nodes);
        // Jobs whose entries must be rebuilt.
        let mut stale: BTreeSet<JobId> = std::mem::take(&mut self.stale_jobs);

        // A node-liveness change invalidates every contributor there: the
        // set of nodes a placement feeds pressure into depends on which of
        // its nodes are alive.
        for node in &touched {
            if let Some(residents) = self.node_want.get(node) {
                stale.extend(residents.keys().copied());
            }
        }

        // Validation sweep (the correctness net), one merge of the
        // id-ordered entries against the id-ordered running jobs:
        // - an entry whose job left the running set (completed,
        //   suspended, terminated, pruned) is gone;
        // - a running job whose entry is missing, degraded, or out of
        //   agreement with its live placement/batch is stale, whether or
        //   not a delta named it.
        // The running jobs come from an in-order walk of the active map,
        // not a lookup per running id: sequential reads are the cheaper
        // side at simulator sizes.
        let mut gone = Vec::new();
        let mut cached = self.entries.iter().peekable();
        let running = jobs.active().filter(|j| j.status == JobStatus::Running);
        for job in running {
            while let Some((id, _)) = cached.next_if(|(id, _)| **id < job.id) {
                gone.push(*id);
            }
            let fresh = cached
                .next_if(|(id, _)| **id == job.id)
                .is_some_and(|(_, e)| {
                    !e.degraded && e.batch == job.batch_size && e.placement == job.placement
                });
            if !fresh {
                stale.insert(job.id);
            }
        }
        gone.extend(cached.map(|(id, _)| *id));
        for id in gone {
            self.forget(id, &mut touched);
        }
        let running = jobs.running_ids();
        stale.retain(|id| running.contains(id));

        // Rebuild stale entries' placement facts and pressure
        // contributions (serial: this mutates the reverse index).
        for id in &stale {
            self.forget(*id, &mut touched);
        }
        for id in &stale {
            let job = jobs.get(*id).expect("stale set is a subset of running");
            let entry = self.build_entry(perf, job, cluster, &mut touched);
            self.entries.insert(*id, entry);
        }

        // Re-derive pressure on touched nodes. Contributions sum in
        // job-id order (BTreeMap iteration), the exact accumulation order
        // of the from-scratch map. Jobs resident on a node whose pressure
        // bits changed need their contention term reapplied.
        let mut affected: BTreeSet<JobId> = stale;
        for node in touched {
            let fresh = match (
                self.node_want.get(&node),
                cluster.node(node).filter(|n| n.alive),
            ) {
                (Some(residents), Some(live)) if !residents.is_empty() => {
                    let mut want = 0.0;
                    for w in residents.values() {
                        want += *w;
                    }
                    Some((want / live.spec.cpu_cores as f64).max(1.0))
                }
                _ => None,
            };
            let old = self.pressure.get(&node).copied();
            let changed = match (old, fresh) {
                (Some(a), Some(b)) => a.to_bits() != b.to_bits(),
                (None, None) => false,
                _ => true,
            };
            if changed {
                match fresh {
                    Some(p) => self.pressure.insert(node, p),
                    None => self.pressure.remove(&node),
                };
                if let Some(residents) = self.node_want.get(&node) {
                    affected.extend(residents.keys().copied());
                }
            }
        }

        // Residual rate recompute over the affected set, in id order,
        // fanned out across scoped threads when the set is large.
        let work: Vec<JobId> = affected.into_iter().collect();
        self.recompute_rates(perf, jobs, &work);
        &self.rates
    }

    /// Remove one job's entry, contributions, and rate; touched nodes are
    /// collected for pressure re-derivation.
    fn forget(&mut self, id: JobId, touched: &mut BTreeSet<NodeId>) {
        self.rates.remove(&id);
        let Some(entry) = self.entries.remove(&id) else {
            return;
        };
        for node in &entry.nodes {
            if let Some(residents) = self.node_want.get_mut(node) {
                if residents.remove(&id).is_some() {
                    touched.insert(*node);
                    if residents.is_empty() {
                        self.node_want.remove(node);
                    }
                }
            }
        }
    }

    /// Build one job's entry: placement facts, memo key, and pressure
    /// contributions on its live nodes.
    fn build_entry(
        &mut self,
        perf: &PerfModel,
        job: &Job,
        cluster: &ClusterState,
        touched: &mut BTreeSet<NodeId>,
    ) -> Entry {
        let nodes = cluster.nodes_of(&job.placement);
        let n = job.placement.len() as u32;
        let consolidated = cluster.is_consolidated(&job.placement);
        let inter_bw = cluster.alloc_inter_bw(&job.placement);
        let gpu = PerfModel::placement_gpu_type(cluster, &job.placement);
        let mut resolved = 0usize;
        let mut degraded = false;
        for node in &nodes {
            let here = job
                .placement
                .iter()
                .filter(|g| cluster.gpu(**g).map(|r| r.node) == Some(*node))
                .count();
            resolved += here;
            if !cluster.node(*node).is_some_and(|nd| nd.alive) {
                degraded = true;
                continue;
            }
            self.node_want
                .entry(*node)
                .or_default()
                .insert(job.id, here as f64 * job.profile.cpus_per_gpu);
            touched.insert(*node);
        }
        if resolved != job.placement.len() {
            degraded = true;
        }
        let key = match &job.profile.pollux {
            Some(p) => BaseKey::Pollux {
                params: [
                    p.t_grad_per_sample.to_bits(),
                    p.t_sync.to_bits(),
                    p.gns.to_bits(),
                ],
                init_batch: p.init_batch,
                batch: job.batch_size,
                n,
                consolidated,
                spread_sync: perf.pollux_spread_sync_factor.to_bits(),
            },
            None => {
                let m = &job.profile.iter_model;
                BaseKey::Iter {
                    model: [
                        m.base_iter_s.to_bits(),
                        m.serial_frac.to_bits(),
                        m.comm_frac.to_bits(),
                        m.spread_penalty.to_bits(),
                    ],
                    gpu,
                    n,
                    consolidated,
                    inter_bw: inter_bw.to_bits(),
                }
            }
        };
        Entry {
            placement: job.placement.clone(),
            batch: job.batch_size,
            nodes,
            key,
            n,
            gpu,
            consolidated,
            inter_bw,
            degraded,
        }
    }

    /// Recompute rates for `work` (id-ordered): base from the memo (or
    /// fresh on a miss), contention from the maintained pressure map.
    /// Serial below the parallel threshold; above it, scoped threads
    /// claim chunks off an atomic counter with results merged in chunk
    /// (= id) order, so the outcome is byte-identical either way — the
    /// base rate is a pure function of its key, and the merge applies
    /// results in the same order the serial loop would.
    fn recompute_rates(&mut self, perf: &PerfModel, jobs: &JobState, work: &[JobId]) {
        /// One computed result: the rate, plus the memo insert on a miss.
        type Computed = (f64, Option<(BaseKey, f64)>);
        let results: Vec<Computed> = {
            let entries = &self.entries;
            let memo = &self.base;
            let pressure = &self.pressure;
            let compute = |id: JobId| -> Computed {
                let e = entries.get(&id).expect("affected jobs have entries");
                if e.placement.is_empty() {
                    return (0.0, None);
                }
                let job = jobs.get(id).expect("affected jobs are running");
                let (base, miss) = match memo.get(&e.key) {
                    Some(v) => (*v, None),
                    None => {
                        let b = perf.base_rate(job, e.n, e.gpu, e.consolidated, e.inter_bw);
                        (b, Some((e.key.clone(), b)))
                    }
                };
                (perf.contended_rate(base, job, &e.nodes, pressure), miss)
            };

            let workers = match self.threads {
                0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
                t => t,
            };
            if workers <= 1 || work.len() < self.par_threshold {
                work.iter().map(|id| compute(*id)).collect()
            } else {
                const CHUNK: usize = 256;
                let n_chunks = work.len().div_ceil(CHUNK);
                let slots: Mutex<Vec<Option<Vec<Computed>>>> =
                    Mutex::new((0..n_chunks).map(|_| None).collect());
                let next = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for _ in 0..workers.min(n_chunks) {
                        scope.spawn(|| loop {
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break;
                            }
                            let lo = c * CHUNK;
                            let hi = (lo + CHUNK).min(work.len());
                            let out: Vec<Computed> =
                                work[lo..hi].iter().map(|id| compute(*id)).collect();
                            slots.lock().expect("no poisoned rate slots")[c] = Some(out);
                        });
                    }
                });
                slots
                    .into_inner()
                    .expect("no poisoned rate slots")
                    .into_iter()
                    .flat_map(|c| c.expect("every chunk index was claimed"))
                    .collect()
            }
        };
        for (id, (rate, miss)) in work.iter().zip(results) {
            if let Some((key, base)) = miss {
                self.base.insert(key, base);
            }
            self.rates.insert(*id, rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blox_core::cluster::NodeSpec;
    use blox_core::job::JobStatus;
    use blox_core::profile::JobProfile;

    fn cluster(nodes: u32) -> ClusterState {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), nodes);
        c
    }

    fn launch(c: &mut ClusterState, js: &mut JobState, id: u64, gpus: &[GpuGlobalId]) {
        let mut j = Job::new(
            JobId(id),
            0.0,
            gpus.len() as u32,
            1e9,
            JobProfile::synthetic("t", 0.3),
        );
        j.placement = gpus.to_vec();
        j.status = JobStatus::Running;
        c.allocate(JobId(id), gpus, 4.0).unwrap();
        js.add_new_jobs(vec![j]);
    }

    fn assert_matches_scratch(
        cache: &mut RateCache,
        perf: &PerfModel,
        js: &JobState,
        c: &ClusterState,
    ) {
        let cached = cache.update(perf, js, c).clone();
        let scratch = perf.progress_rates(js, c);
        assert_eq!(cached.len(), scratch.len());
        for (id, rate) in &scratch {
            assert_eq!(cached[id].to_bits(), rate.to_bits(), "job {id:?}");
        }
    }

    #[test]
    fn cold_warm_and_invalidated_rounds_match_scratch() {
        let mut c = cluster(4);
        let mut js = JobState::new();
        let free = c.free_gpus();
        launch(&mut c, &mut js, 1, &free[..4]);
        launch(&mut c, &mut js, 2, &[free[4], free[8]]); // spread
        let perf = PerfModel::default();
        let mut cache = RateCache::new().with_threads(1);

        assert_matches_scratch(&mut cache, &perf, &js, &c); // cold
        assert_matches_scratch(&mut cache, &perf, &js, &c); // warm (no-op)
        assert_eq!(cache.len(), 2);

        // Suspend job 2 through the proper channel.
        c.release(JobId(2));
        js.get_mut(JobId(2)).unwrap().placement.clear();
        js.set_status(JobId(2), JobStatus::Suspended).unwrap();
        cache.invalidate_job(JobId(2));
        assert_matches_scratch(&mut cache, &perf, &js, &c);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn sweep_catches_unreported_changes() {
        // No invalidate_job call at all: the validation sweep alone must
        // notice the placement change.
        let mut c = cluster(2);
        let mut js = JobState::new();
        let free = c.free_gpus();
        launch(&mut c, &mut js, 1, &free[..2]);
        let perf = PerfModel::default();
        let mut cache = RateCache::new().with_threads(1);
        assert_matches_scratch(&mut cache, &perf, &js, &c);

        c.release(JobId(1));
        c.allocate(JobId(1), &[free[0], free[4]], 4.0).unwrap();
        js.get_mut(JobId(1)).unwrap().placement = vec![free[0], free[4]];
        assert_matches_scratch(&mut cache, &perf, &js, &c);
    }

    #[test]
    fn node_churn_invalidation_keeps_exactness() {
        let mut c = cluster(2);
        let mut js = JobState::new();
        let free = c.free_gpus();
        launch(&mut c, &mut js, 1, &free[..2]);
        launch(&mut c, &mut js, 2, &[free[4], free[5]]);
        let perf = PerfModel::default();
        let mut cache = RateCache::new().with_threads(1);
        assert_matches_scratch(&mut cache, &perf, &js, &c);

        // Fail node 0 without requeueing job 1 (the mid-churn window).
        c.fail_node(NodeId(0)).unwrap();
        cache.invalidate_node(NodeId(0));
        assert_matches_scratch(&mut cache, &perf, &js, &c);

        // Revive: the degraded entry for job 1 must pick the node back up.
        c.revive_node(NodeId(0)).unwrap();
        cache.invalidate_node(NodeId(0));
        assert_matches_scratch(&mut cache, &perf, &js, &c);
        // Once healthy again, a further round still agrees.
        assert_matches_scratch(&mut cache, &perf, &js, &c);
    }

    #[test]
    fn base_memo_is_shared_across_identical_jobs() {
        let mut c = cluster(4);
        let mut js = JobState::new();
        let free = c.free_gpus();
        for i in 0..4 {
            launch(
                &mut c,
                &mut js,
                i,
                &free[i as usize * 4..i as usize * 4 + 4],
            );
        }
        let perf = PerfModel::default();
        let mut cache = RateCache::new().with_threads(1);
        cache.update(&perf, &js, &c);
        // Four identical consolidated 4-GPU placements share one key.
        assert_eq!(cache.base.len(), 1);
    }
}
