//! Differential test of the eviction drain: `SimBackend::update_metrics`
//! requeues the jobs `ClusterState::fail_node` recorded, and must requeue
//! exactly the jobs the full scan it replaced would have found (every
//! `Running` job holding fewer GPUs than its placement names), in the
//! same id order.
//!
//! Node failures and revivals arrive both through a `ChurnScript` and by
//! direct `ClusterState` calls between rounds. The test compares the two
//! lists itself rather than relying on the `debug_assert` inside
//! `take_lost_jobs`, so it also holds in release builds.

use blox_core::cluster::{ClusterState, NodeSpec};
use blox_core::ids::{JobId, NodeId};
use blox_core::job::{Job, JobStatus};
use blox_core::manager::Backend;
use blox_core::policy::Placement;
use blox_core::profile::JobProfile;
use blox_core::state::JobState;
use blox_sim::{ChurnEvent, SimBackend};
use proptest::prelude::*;

const ROUND: f64 = 300.0;

/// Deterministic xorshift generator: one proptest seed drives a case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x % n.max(1)
    }
}

fn random_cluster(rng: &mut Rng) -> ClusterState {
    let mut c = ClusterState::new();
    for _ in 0..2 + rng.below(5) {
        let spec = match rng.below(3) {
            0 => NodeSpec::v100_p3_8xlarge(),
            1 => NodeSpec::p100_tiresias(),
            _ => NodeSpec::a100_dgx(),
        };
        c.add_node(spec);
    }
    c
}

/// The requeue rule the drain replaced: a scan of every running job.
fn full_scan(c: &ClusterState, jobs: &JobState) -> Vec<JobId> {
    jobs.running()
        .filter(|j| c.job_gpu_count(j.id) != j.placement.len())
        .map(|j| j.id)
        .collect()
}

/// Launch some waiting jobs on random (often spread) free GPUs.
fn launch_some(rng: &mut Rng, b: &mut SimBackend, c: &mut ClusterState, jobs: &mut JobState) {
    let mut free = c.free_gpus();
    let waiting: Vec<JobId> = jobs.waiting_ids().iter().copied().collect();
    let mut to_launch = Vec::new();
    for id in waiting {
        if free.is_empty() || rng.below(3) == 0 {
            continue;
        }
        let want = 1 + rng.below(6.min(free.len() as u64)) as usize;
        let gpus: Vec<_> = (0..want)
            .map(|_| free.remove(rng.below(free.len() as u64) as usize))
            .collect();
        to_launch.push((id, gpus));
    }
    let plan = Placement {
        to_launch,
        to_suspend: Vec::new(),
    };
    assert!(b.exec_jobs(&plan, c, jobs).is_clean());
}

/// Fail or revive a random node directly on the cluster.
fn direct_churn(rng: &mut Rng, c: &mut ClusterState) {
    let nodes: Vec<NodeId> = c.all_nodes().map(|n| n.id).collect();
    let node = nodes[rng.below(nodes.len() as u64) as usize];
    if rng.below(3) == 0 {
        c.revive_node(node).expect("known node");
    } else {
        c.fail_node(node).expect("known node");
    }
}

fn run_case(seed: u64) -> usize {
    let mut rng = Rng(seed | 1);
    let mut c = random_cluster(&mut rng);
    let n_nodes = c.all_nodes().count() as u64;
    let rounds = 2 + rng.below(10);
    let mut script = Vec::new();
    for _ in 0..rng.below(8) {
        let at = rng.below(rounds * ROUND as u64) as f64;
        let node = NodeId(rng.below(n_nodes) as u32);
        script.push(match rng.below(3) {
            0 => ChurnEvent::Revive { at, node },
            _ => ChurnEvent::Fail { at, node },
        });
    }
    let mut b = SimBackend::from_jobs(Vec::new()).with_churn(script);
    let mut jobs = JobState::new();
    jobs.add_new_jobs(
        (0..24)
            .map(|i| Job::new(JobId(i), 0.0, 1, 1e9, JobProfile::synthetic("t", 0.5)))
            .collect(),
    );

    let mut requeued_total = 0;
    for _ in 0..rounds {
        launch_some(&mut rng, &mut b, &mut c, &mut jobs);
        b.advance_round(ROUND);
        b.update_cluster(&mut c);
        for _ in 0..rng.below(3) {
            direct_churn(&mut rng, &mut c);
        }
        let expected = full_scan(&c, &jobs);
        let before: Vec<(JobId, u32)> = jobs.running().map(|j| (j.id, j.preemptions)).collect();
        b.update_metrics(&mut c, &mut jobs, ROUND);
        let requeued: Vec<JobId> = before
            .iter()
            .filter(|(id, _)| jobs.get(*id).expect("active").status == JobStatus::Suspended)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(requeued, expected, "seed {seed}: drain != full scan");
        for (id, preemptions) in &before {
            let job = jobs.get(*id).expect("active");
            let charged = requeued.contains(id) as u32;
            assert_eq!(job.preemptions, preemptions + charged, "seed {seed}: {id}");
            if charged == 1 {
                assert!(job.placement.is_empty(), "seed {seed}: {id} keeps GPUs");
            }
        }
        assert!(
            full_scan(&c, &jobs).is_empty(),
            "seed {seed}: lost jobs left"
        );
        c.check_invariants().expect("cluster invariants");
        jobs.check_invariants().expect("job-state invariants");
        requeued_total += requeued.len();
    }
    requeued_total
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::env_cases(128),
        seed: 0xB10C_5EED_0000_0041,
    })]

    #[test]
    fn eviction_drain_matches_the_full_scan(seed in any::<u64>()) {
        run_case(seed);
    }
}

/// The random cases do requeue: over a fixed set of seeds, the drain
/// finds lost jobs, so the equality above is not vacuous.
#[test]
fn fixed_seeds_requeue_jobs() {
    let total: usize = (1..=32).map(run_case).sum();
    assert!(total > 0, "no case requeued a job");
}
