//! The simulator execution backend.

use std::collections::VecDeque;

use blox_core::cluster::ClusterState;
use blox_core::delta::StateDelta;
use blox_core::fault::{FaultPlan, FaultState, FaultVerdict};
use blox_core::ids::JobId;
use blox_core::job::{Job, JobStatus};
use blox_core::manager::{apply_placement, take_lost_jobs, Backend, PlacementOutcome};
use blox_core::policy::Placement;
use blox_core::state::JobState;

use crate::churn::{ChurnEvent, ChurnScript};
use crate::perf::PerfModel;
use crate::rate_cache::RateCache;

/// Fault-injection layer over the simulator's job status reports.
///
/// The simulator has no real wire, so the "link" the [`FaultPlan`]
/// perturbs is the status-report path: the application metrics (`loss`,
/// `iter_time`, `goodput`) that running jobs would push through the
/// client library each round. Ground-truth progress is untouched — jobs
/// still complete at exact sub-round instants — but what *policies* see
/// in the per-job metric store can now be dropped (stale values persist)
/// or delayed (old samples land rounds later), reproducing the
/// stale-metrics scenarios metric-driven policies (Pollux, Optimus, loss
/// termination) face on a lossy cluster. Fully deterministic: one
/// decision stream, consumed in job-id order each round.
#[derive(Debug, Clone)]
struct SimFaults {
    state: FaultState,
    /// Delayed reports awaiting their release time, in admission order.
    delayed: VecDeque<(f64, JobId, &'static str, f64)>,
}

impl SimFaults {
    /// Deliver matured reports, then admit this round's fresh reports.
    fn route(&mut self, now: f64, fresh: Vec<(JobId, &'static str, f64)>, jobs: &mut JobState) {
        while let Some((release, _, _, _)) = self.delayed.front() {
            if *release > now {
                break;
            }
            let (_, job, key, value) = self.delayed.pop_front().expect("front exists");
            if let Some(j) = jobs.get_mut(job) {
                j.push_metric(key, value);
            }
        }
        for (job, key, value) in fresh {
            match self.state.verdict(now) {
                FaultVerdict::Drop => {}
                FaultVerdict::Deliver {
                    copies, delay_s, ..
                } => {
                    if delay_s > 0.0 {
                        for _ in 0..copies {
                            self.delayed.push_back((now + delay_s, job, key, value));
                        }
                    } else if let Some(j) = jobs.get_mut(job) {
                        // Duplicates overwrite the same key; reordering is
                        // moot within a keyed store.
                        j.push_metric(key, value);
                    }
                }
            }
        }
    }
}

/// Simulated execution backend: drives the clock, feeds trace arrivals,
/// applies the performance model, and mimics the launch/preempt mechanism
/// with overhead accounting.
///
/// `SimBackend` is `Clone`, which the automatic scheduler synthesizer uses
/// to fork lookahead simulations from live state.
#[derive(Debug, Clone)]
pub struct SimBackend {
    clock: f64,
    last_metrics_update: f64,
    arrivals: VecDeque<Job>,
    perf: PerfModel,
    /// Incremental progress-rate cache: delta-invalidated, memoized base
    /// throughput, bit-identical to the from-scratch model (the fix for
    /// the O(jobs²) Collect stage).
    rates: RateCache,
    churn: ChurnScript,
    faults: Option<SimFaults>,
    /// Charge checkpoint/restore overheads on preemption and launch. The
    /// lease-renewal fidelity experiments disable this to isolate effects.
    pub charge_overheads: bool,
}

impl SimBackend {
    /// Backend over a trace (jobs are arrival-sorted, which
    /// `Trace::new` guarantees).
    pub fn new(trace: blox_workloads::Trace) -> Self {
        Self::from_jobs(trace.jobs)
    }

    /// Backend directly over a job list.
    pub fn from_jobs(jobs: Vec<Job>) -> Self {
        SimBackend {
            clock: 0.0,
            last_metrics_update: 0.0,
            arrivals: jobs.into(),
            perf: PerfModel::default(),
            rates: RateCache::new(),
            churn: ChurnScript::default(),
            faults: None,
            charge_overheads: true,
        }
    }

    /// Replace the performance model (and drop any cached rates derived
    /// from the old one).
    pub fn with_perf(mut self, perf: PerfModel) -> Self {
        self.perf = perf;
        self.rates.clear();
        self
    }

    /// Attach a churn script (scheduled node failures/recoveries).
    pub fn with_churn(mut self, events: Vec<ChurnEvent>) -> Self {
        self.churn = ChurnScript::new(events);
        self
    }

    /// Attach a deterministic fault plan perturbing the job status
    /// reports (the simulated "wire"): application metrics can be
    /// dropped or delayed while ground-truth progress stays exact,
    /// opening stale-metrics scenarios for metric-driven policies. A
    /// quiet plan is discarded, keeping the fast path untouched.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_quiet() {
            None
        } else {
            Some(SimFaults {
                state: plan.state(0),
                delayed: VecDeque::new(),
            })
        };
        self
    }

    /// Disable launch/restore overhead charging.
    pub fn without_overheads(mut self) -> Self {
        self.charge_overheads = false;
        self
    }

    /// The performance model in use.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// Remaining (not yet arrived) jobs.
    pub fn arrivals_remaining(&self) -> usize {
        self.arrivals.len()
    }

    /// Enqueue meta-routed arrivals at the back of the wait queue (the
    /// [`blox_core::pods::PodBackend`] contract): the pod meta-scheduler
    /// owns the global trace and pushes each job into its assigned pod's
    /// shard at the round it falls due.
    pub fn push_arrivals(&mut self, jobs: Vec<Job>) {
        self.arrivals.extend(jobs);
    }
}

impl blox_core::pods::PodBackend for SimBackend {
    fn push_arrivals(&mut self, jobs: Vec<Job>) {
        SimBackend::push_arrivals(self, jobs);
    }
}

impl Backend for SimBackend {
    fn now(&self) -> f64 {
        self.clock
    }

    fn update_cluster(&mut self, cluster: &mut ClusterState) {
        for event in self.churn.due(self.clock) {
            match event {
                ChurnEvent::Fail { node, .. } => {
                    if cluster.fail_node(node).is_ok() {
                        // `fail_node` records the jobs it evicts; the
                        // next update_metrics drains that record and
                        // requeues them. Here we only flip node state.
                        self.rates.invalidate_node(node);
                    }
                }
                ChurnEvent::Revive { node, .. } => {
                    if cluster.revive_node(node).is_ok() {
                        self.rates.invalidate_node(node);
                    }
                }
            }
        }
    }

    /// Invalidate the rate cache from the round's delta: every job whose
    /// placement, status, or batch size the round changed, and every node
    /// whose liveness flipped. Unchanged jobs keep last round's rate.
    fn observe_delta(&mut self, delta: &StateDelta) {
        for id in delta
            .launched
            .iter()
            .chain(&delta.suspended)
            .chain(&delta.terminated)
            .chain(&delta.completed)
            .chain(&delta.retuned)
            .chain(&delta.migrated_out)
        {
            self.rates.invalidate_job(*id);
        }
        for node in delta.failed_nodes.iter().chain(&delta.revived_nodes) {
            self.rates.invalidate_node(*node);
        }
    }

    fn pop_wait_queue(&mut self, now: f64) -> Vec<Job> {
        let mut out = Vec::new();
        while let Some(front) = self.arrivals.front() {
            if front.arrival_time <= now {
                out.push(self.arrivals.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        out
    }

    fn peek_next_arrival(&self) -> Option<(JobId, f64)> {
        self.arrivals.front().map(|j| (j.id, j.arrival_time))
    }

    fn update_metrics(&mut self, cluster: &mut ClusterState, jobs: &mut JobState, elapsed: f64) {
        // The simulator's own clock is authoritative for elapsed time:
        // `advance_round` may have jumped several rounds on the
        // event-driven fast path, and metric integration must cover the
        // whole span since the last checkpoint regardless of what cadence
        // the caller believes it is running at. The manager now reports
        // its own measured elapsed span; assert the two views agree so
        // the net/runtime backends (which *must* trust the parameter —
        // they have no simulation clock) can't silently drift from the
        // sim semantics.
        debug_assert!(
            elapsed <= 0.0 || (elapsed - (self.clock - self.last_metrics_update)).abs() < 1e-6,
            "caller-reported elapsed {elapsed} disagrees with sim clock span {}",
            self.clock - self.last_metrics_update
        );
        let elapsed = (self.clock - self.last_metrics_update).max(0.0);
        self.last_metrics_update = self.clock;
        let round_start = self.clock - elapsed;

        // Requeue jobs that lost GPUs to node failures, from the ids
        // `fail_node` evicted since the last Collect: the cost follows
        // the round's evictions, not the running set.
        for id in take_lost_jobs(cluster, jobs) {
            cluster.release(id);
            if let Some(job) = jobs.get_mut(id) {
                job.placement.clear();
                job.preemptions += 1;
            }
            jobs.set_status(id, JobStatus::Suspended)
                .expect("requeued job is active");
            self.rates.invalidate_job(id);
        }

        if elapsed <= 0.0 {
            return;
        }

        // Pass 1: progress rates, incrementally maintained. Only jobs
        // invalidated by this round's delta (and any the validation sweep
        // flags) are recomputed; everything else reuses last round's rate
        // bit-for-bit. This was the O(jobs²) Collect-stage hot spot.
        let rates = self.rates.update(&self.perf, jobs, cluster);

        // Pass 2: apply progress, detect completions sub-round, and push
        // the application metrics the client library would report. Walks
        // the running jobs in id order (as before) with the id-ordered
        // rates merged alongside: no per-job lookup. Without a fault plan
        // the metrics land on the job in hand; with one they are
        // collected for the faulty report path.
        let mut completed = Vec::new();
        let mut reports: Vec<(JobId, &'static str, f64)> = Vec::new();
        let mut rates = rates.iter().peekable();
        for job in jobs.running_mut() {
            let id = job.id;
            while rates.next_if(|(r, _)| **r < id).is_some() {}
            let Some((_, &rate)) = rates.next_if(|(r, _)| **r == id) else {
                continue;
            };
            let gpus = job.placement.len() as f64;
            job.attained_service += gpus * elapsed;
            job.running_time += elapsed;

            let overhead = if self.charge_overheads {
                job.pending_overhead.min(elapsed)
            } else {
                job.pending_overhead = 0.0;
                0.0
            };
            job.pending_overhead -= overhead;
            let effective = elapsed - overhead;
            if rate <= 0.0 || effective <= 0.0 {
                continue;
            }
            let gained = rate * effective;
            if job.completed_iters + gained >= job.total_iters {
                let needed = (job.total_iters - job.completed_iters).max(0.0);
                let finish_offset = overhead + needed / rate;
                job.completed_iters = job.total_iters;
                job.completion_time = Some(round_start + finish_offset);
                completed.push(id);
            } else {
                job.completed_iters += gained;
            }

            let loss = job.current_loss();
            let goodput = job.profile.pollux.is_some().then_some(rate);
            if self.faults.is_none() {
                job.push_metric("loss", loss);
                job.push_metric("iter_time", 1.0 / rate);
                if let Some(goodput) = goodput {
                    job.push_metric("goodput", goodput);
                }
            } else {
                reports.push((id, "loss", loss));
                reports.push((id, "iter_time", 1.0 / rate));
                if let Some(goodput) = goodput {
                    reports.push((id, "goodput", goodput));
                }
            }
        }
        for id in &completed {
            jobs.set_status(*id, JobStatus::Completed)
                .expect("completed job is active");
        }
        if let Some(faults) = &mut self.faults {
            faults.route(self.clock, reports, jobs);
        }
        for id in completed {
            cluster.release(id);
            if let Some(job) = jobs.get_mut(id) {
                // A finished job keeps no placement buffer.
                job.placement = Vec::new();
            }
        }
    }

    fn exec_jobs(
        &mut self,
        placement: &Placement,
        cluster: &mut ClusterState,
        jobs: &mut JobState,
    ) -> PlacementOutcome {
        let outcome = apply_placement(placement, cluster, jobs, self.clock);
        debug_assert!(
            outcome.is_clean(),
            "placement policies must not double-book GPUs: {:?}",
            outcome.skipped
        );
        if !self.charge_overheads {
            for (id, _) in &placement.to_launch {
                if let Some(job) = jobs.get_mut(*id) {
                    job.pending_overhead = 0.0;
                }
            }
        }
        outcome
    }

    fn advance_round(&mut self, round_duration: f64) {
        self.clock += round_duration;
    }

    /// Earliest of: the next trace arrival, the next scheduled churn
    /// event, and the earliest predicted completion of a running job.
    ///
    /// Completion times are predicted from the last metrics checkpoint
    /// with the performance model's current rates — exact as long as
    /// placements stay frozen, which is precisely the condition under
    /// which the manager consumes the hint.
    fn next_event_hint(&self, cluster: &ClusterState, jobs: &JobState) -> Option<f64> {
        let mut earliest: Option<f64> = None;
        let mut consider = |t: f64| {
            if t.is_finite() && earliest.is_none_or(|e| t < e) {
                earliest = Some(t);
            }
        };
        if let Some((_, t)) = self.peek_next_arrival() {
            consider(t);
        }
        if let Some(t) = self.churn.next_at() {
            consider(t);
        }
        // Progress since `last_metrics_update` has not been applied yet,
        // so completions are predicted from that checkpoint — the same
        // base `update_metrics` will integrate from. One batch query: the
        // pressure map is computed once, not once per job.
        let rates = self.perf.progress_rates(jobs, cluster);
        for job in jobs.running() {
            let rate = rates.get(&job.id).copied().unwrap_or(0.0);
            if rate <= 0.0 {
                continue;
            }
            let overhead = if self.charge_overheads {
                job.pending_overhead.max(0.0)
            } else {
                0.0
            };
            consider(self.last_metrics_update + overhead + job.remaining_iters() / rate);
        }
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blox_core::cluster::NodeSpec;
    use blox_core::ids::NodeId;
    use blox_core::profile::JobProfile;

    fn cluster() -> ClusterState {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 1);
        c
    }

    fn quick_job(id: u64, arrival: f64, iters: f64) -> Job {
        // base_iter_s=1.0 on one V100 => `iters` seconds of isolated work.
        let mut p = JobProfile::synthetic("quick", 1.0);
        p.iter_model.serial_frac = 1.0; // no scaling effects
        p.iter_model.comm_frac = 0.0;
        p.restore_s = 0.0;
        Job::new(JobId(id), arrival, 1, iters, p)
    }

    #[test]
    fn arrivals_pop_in_time_order() {
        let mut b = SimBackend::from_jobs(vec![quick_job(0, 10.0, 5.0), quick_job(1, 400.0, 5.0)]);
        assert_eq!(b.peek_next_arrival().unwrap().0, JobId(0));
        assert!(b.pop_wait_queue(5.0).is_empty());
        let first = b.pop_wait_queue(10.0);
        assert_eq!(first.len(), 1);
        assert_eq!(b.arrivals_remaining(), 1);
        let second = b.pop_wait_queue(1000.0);
        assert_eq!(second.len(), 1);
        assert!(b.peek_next_arrival().is_none());
    }

    #[test]
    fn running_job_progresses_and_completes_sub_round() {
        let mut c = cluster();
        let mut jobs = JobState::new();
        let job = quick_job(0, 0.0, 100.0); // 100 s of work
        jobs.add_new_jobs(vec![job]);
        let mut b = SimBackend::from_jobs(vec![]);

        // Launch at t=0 on one GPU.
        let plan = Placement {
            to_launch: vec![(JobId(0), vec![c.free_gpus()[0]])],
            to_suspend: vec![],
        };
        b.exec_jobs(&plan, &mut c, &mut jobs);

        // One 300 s round: job (100 s of work) finishes at t=100 exactly.
        b.advance_round(300.0);
        b.update_metrics(&mut c, &mut jobs, 300.0);
        let j = jobs.get(JobId(0)).unwrap();
        assert_eq!(j.status, JobStatus::Completed);
        assert!((j.completion_time.unwrap() - 100.0).abs() < 1e-6);
        assert_eq!(c.free_gpu_count(), 4, "GPUs released on completion");
        assert_eq!(j.attained_service, 300.0);
    }

    #[test]
    fn restore_overhead_delays_completion() {
        let mut c = cluster();
        let mut jobs = JobState::new();
        let mut job = quick_job(0, 0.0, 100.0);
        job.profile.restore_s = 30.0;
        jobs.add_new_jobs(vec![job]);
        let mut b = SimBackend::from_jobs(vec![]);
        let plan = Placement {
            to_launch: vec![(JobId(0), vec![c.free_gpus()[0]])],
            to_suspend: vec![],
        };
        b.exec_jobs(&plan, &mut c, &mut jobs);
        b.advance_round(300.0);
        b.update_metrics(&mut c, &mut jobs, 300.0);
        let j = jobs.get(JobId(0)).unwrap();
        assert!((j.completion_time.unwrap() - 130.0).abs() < 1e-6);
    }

    #[test]
    fn without_overheads_skips_restore() {
        let mut c = cluster();
        let mut jobs = JobState::new();
        let mut job = quick_job(0, 0.0, 100.0);
        job.profile.restore_s = 30.0;
        jobs.add_new_jobs(vec![job]);
        let mut b = SimBackend::from_jobs(vec![]).without_overheads();
        let plan = Placement {
            to_launch: vec![(JobId(0), vec![c.free_gpus()[0]])],
            to_suspend: vec![],
        };
        b.exec_jobs(&plan, &mut c, &mut jobs);
        b.advance_round(300.0);
        b.update_metrics(&mut c, &mut jobs, 300.0);
        let j = jobs.get(JobId(0)).unwrap();
        assert!((j.completion_time.unwrap() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn node_failure_requeues_running_jobs() {
        let mut c = cluster();
        let mut jobs = JobState::new();
        jobs.add_new_jobs(vec![quick_job(0, 0.0, 1e6)]);
        let mut b = SimBackend::from_jobs(vec![]).with_churn(vec![ChurnEvent::Fail {
            at: 150.0,
            node: NodeId(0),
        }]);
        let plan = Placement {
            to_launch: vec![(JobId(0), vec![c.free_gpus()[0]])],
            to_suspend: vec![],
        };
        b.exec_jobs(&plan, &mut c, &mut jobs);
        b.advance_round(300.0);
        b.update_cluster(&mut c);
        b.update_metrics(&mut c, &mut jobs, 300.0);
        let j = jobs.get(JobId(0)).unwrap();
        assert_eq!(j.status, JobStatus::Suspended);
        assert_eq!(j.preemptions, 1);
        assert!(j.placement.is_empty());
        assert_eq!(c.total_gpus(), 0, "failed node's GPUs are gone");
    }

    #[test]
    fn dropped_status_reports_leave_metrics_stale() {
        use blox_core::fault::{FaultPlan, LinkFaults};
        let mut c = cluster();
        let mut jobs = JobState::new();
        jobs.add_new_jobs(vec![quick_job(0, 0.0, 1e6)]);
        let mut b =
            SimBackend::from_jobs(vec![]).with_faults(FaultPlan::new(1).with_base(LinkFaults {
                drop_p: 1.0,
                ..LinkFaults::default()
            }));
        let plan = Placement {
            to_launch: vec![(JobId(0), vec![c.free_gpus()[0]])],
            to_suspend: vec![],
        };
        b.exec_jobs(&plan, &mut c, &mut jobs);
        b.advance_round(300.0);
        b.update_metrics(&mut c, &mut jobs, 300.0);
        let j = jobs.get(JobId(0)).unwrap();
        assert!(j.completed_iters > 0.0, "ground truth still advances");
        assert!(j.metric("loss").is_none(), "every report was dropped");
    }

    #[test]
    fn delayed_status_reports_land_rounds_later() {
        use blox_core::fault::{FaultPlan, LinkFaults};
        let mut c = cluster();
        let mut jobs = JobState::new();
        jobs.add_new_jobs(vec![quick_job(0, 0.0, 1e6)]);
        // 250 s of report latency: a round-1 sample (release 550) is
        // invisible at the round-1 update (t=300) and lands at round 2
        // (t=600).
        let mut b =
            SimBackend::from_jobs(vec![]).with_faults(FaultPlan::new(2).with_base(LinkFaults {
                delay_s: 250.0,
                ..LinkFaults::default()
            }));
        let plan = Placement {
            to_launch: vec![(JobId(0), vec![c.free_gpus()[0]])],
            to_suspend: vec![],
        };
        b.exec_jobs(&plan, &mut c, &mut jobs);
        b.advance_round(300.0);
        b.update_metrics(&mut c, &mut jobs, 300.0);
        assert!(jobs.get(JobId(0)).unwrap().metric("loss").is_none());
        b.advance_round(300.0);
        b.update_metrics(&mut c, &mut jobs, 300.0);
        let j = jobs.get(JobId(0)).unwrap();
        let seen = j.metric("iter_time").expect("delayed report landed");
        assert_eq!(seen, 1.0, "the sample is the *old* (round-1) value");
    }

    #[test]
    fn faulty_runs_are_seed_deterministic() {
        use blox_core::fault::{FaultPlan, LinkFaults};
        let lossy = LinkFaults {
            drop_p: 0.4,
            delay_s: 150.0,
            dup_p: 0.2,
            reorder_p: 0.1,
        };
        let run = |seed: u64| {
            let mut c = cluster();
            let mut jobs = JobState::new();
            jobs.add_new_jobs(vec![quick_job(0, 0.0, 1e6), quick_job(1, 0.0, 1e6)]);
            let mut b =
                SimBackend::from_jobs(vec![]).with_faults(FaultPlan::new(seed).with_base(lossy));
            let free = c.free_gpus();
            let plan = Placement {
                to_launch: vec![(JobId(0), vec![free[0]]), (JobId(1), vec![free[1]])],
                to_suspend: vec![],
            };
            b.exec_jobs(&plan, &mut c, &mut jobs);
            for _ in 0..10 {
                b.advance_round(300.0);
                b.update_metrics(&mut c, &mut jobs, 300.0);
            }
            jobs.active()
                .map(|j| (j.id, j.metrics.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same stale-metric trajectory");
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn clock_advances_by_round() {
        let mut b = SimBackend::from_jobs(vec![]);
        assert_eq!(b.now(), 0.0);
        b.advance_round(300.0);
        b.advance_round(300.0);
        assert_eq!(b.now(), 600.0);
    }

    #[test]
    fn clone_forks_independent_state() {
        let mut a = SimBackend::from_jobs(vec![quick_job(0, 10.0, 5.0)]);
        let mut b = a.clone();
        a.advance_round(300.0);
        assert_eq!(b.now(), 0.0);
        let popped = a.pop_wait_queue(300.0);
        assert_eq!(popped.len(), 1);
        assert_eq!(b.arrivals_remaining(), 1);
        b.advance_round(300.0);
        assert_eq!(b.pop_wait_queue(300.0).len(), 1);
    }
}
