//! The control plane of every deployment backend: the only code that
//! interprets worker job-status traffic and actuates a placement.
//!
//! [`RuntimeBackend`](crate::runtime::RuntimeBackend) (worker threads in
//! this process) and `blox-net`'s `NetBackend` (`bloxnoded` daemons over
//! TCP) differ only in their transport. Each implements [`WorkerLinks`],
//! and its `exec_jobs` is one call to [`actuate`].

use std::time::{Duration, Instant};

use blox_core::cluster::{ClusterState, GpuType};
use blox_core::ids::{GpuGlobalId, JobId, NodeId};
use blox_core::job::{Job, JobStatus};
use blox_core::manager::{apply_placement, PlacementOutcome};
use blox_core::policy::Placement;
use blox_core::state::JobState;

use crate::wire::Message;

/// Wall time one round waits for the suspension acks of all the jobs it
/// preempts. A job not acked by then is suspended with its last reported
/// progress.
pub const ACK_DEADLINE: Duration = Duration::from_secs(5);

/// Longest single wait on the links, so a rank-0 node declared dead while
/// other traffic is served settles its job within one slice.
const ACK_POLL: Duration = Duration::from_millis(20);

/// A backend's links to its workers.
pub trait WorkerLinks {
    /// Send one command to `node`. A failed send may declare the node
    /// dead in `cluster`.
    fn send(&mut self, node: NodeId, msg: &Message, cluster: &mut ClusterState);

    /// The next worker job-status message, waiting at most `timeout` and
    /// serving any other traffic meanwhile. `None` once `timeout` passes
    /// without one; before that, only when the links are closed.
    fn recv_status(&mut self, timeout: Duration, cluster: &mut ClusterState) -> Option<Message>;
}

/// Actuate one round's placement on the workers.
///
/// Every running job in `to_suspend` gets its `Revoke` at its rank-0
/// node first; the acks are then collected against one [`ACK_DEADLINE`].
/// A pending job settles when its `JobSuspended` arrives with the
/// checkpointed iterations, when it has left `Running` (its `JobDone`
/// crossed the `Revoke`), or when its rank-0 node is dead. `ExitAt` is
/// forwarded to the job's other nodes as it arrives. Then the placement
/// is applied to the shared state, minus launches of completed jobs, and
/// each launch goes out as one `Launch` per node hosting a shard.
pub fn actuate(
    links: &mut impl WorkerLinks,
    placement: &Placement,
    cluster: &mut ClusterState,
    jobs: &mut JobState,
    now: f64,
) -> PlacementOutcome {
    let mut pending: Vec<(JobId, NodeId)> = Vec::new();
    for &id in &placement.to_suspend {
        let Some(job) = jobs.get(id).filter(|j| j.status == JobStatus::Running) else {
            continue;
        };
        if let Some(rank0) = rank0_node(&job.placement, cluster) {
            links.send(rank0, &Message::Revoke { job: id }, cluster);
            pending.push((id, rank0));
        }
    }
    let deadline = Instant::now() + ACK_DEADLINE;
    loop {
        pending.retain(|&(id, rank0)| {
            jobs.get(id).is_some_and(|j| j.status == JobStatus::Running)
                && cluster.node(rank0).is_some_and(|n| n.alive)
        });
        let left = deadline.saturating_duration_since(Instant::now());
        if pending.is_empty() || left.is_zero() {
            break;
        }
        let (slice, asked) = (left.min(ACK_POLL), Instant::now());
        match links.recv_status(slice, cluster) {
            Some(Message::ExitAt { job, exit_iter }) => {
                let Some(j) = jobs.get(job) else { continue };
                let rank0 = rank0_node(&j.placement, cluster);
                for node in cluster.nodes_of(&j.placement) {
                    if Some(node) != rank0 {
                        links.send(node, &Message::ExitAt { job, exit_iter }, cluster);
                    }
                }
            }
            Some(msg) => {
                if let Message::JobSuspended { job, .. } = msg {
                    pending.retain(|&(id, _)| id != job);
                }
                apply_status(msg, cluster, jobs);
            }
            None if asked.elapsed() < slice => break, // Closed links.
            None => {}
        }
    }

    let mut placement = placement.clone();
    placement.to_launch.retain(|(id, _)| {
        jobs.get(*id)
            .is_some_and(|j| j.status != JobStatus::Completed)
    });
    let outcome = apply_placement(&placement, cluster, jobs, now);
    debug_assert!(
        outcome.is_clean(),
        "placement conflict: {:?}",
        outcome.skipped
    );
    for (id, gpus) in &placement.to_launch {
        if let Some(job) = jobs.get(*id) {
            launch(links, job, gpus, cluster);
        }
    }
    outcome
}

/// Send one `Launch` per node hosting a shard of a just-placed job.
fn launch(
    links: &mut impl WorkerLinks,
    job: &Job,
    gpus: &[GpuGlobalId],
    cluster: &mut ClusterState,
) {
    let iter_time_s = placement_iter_time(job, cluster);
    let rank0 = rank0_node(gpus, cluster);
    for node in cluster.nodes_of(gpus) {
        let local_gpus = gpus
            .iter()
            .filter_map(|g| cluster.gpu(*g))
            .filter(|r| r.node == node)
            .map(|r| r.local)
            .collect();
        let msg = Message::Launch {
            job: job.id,
            local_gpus,
            iter_time_s,
            start_iters: job.completed_iters,
            total_iters: job.total_iters,
            warmup_s: job.profile.restore_s,
            is_rank0: Some(node) == rank0,
        };
        links.send(node, &msg, cluster);
    }
}

/// A job's rank 0: the node of its allocation's first GPU. `Revoke` goes
/// there, and that node's `Launch` has `is_rank0` set.
fn rank0_node(gpus: &[GpuGlobalId], cluster: &ClusterState) -> Option<NodeId> {
    gpus.first().and_then(|g| cluster.gpu(*g)).map(|r| r.node)
}

/// Apply one worker job-status message (progress, metric push,
/// completion, suspension checkpoint) to the scheduler's state. Any other
/// message is ignored.
pub fn apply_status(msg: Message, cluster: &mut ClusterState, jobs: &mut JobState) {
    match msg {
        Message::Progress { job, iters } => {
            if let Some(j) = jobs.get_mut(job).filter(|j| j.status == JobStatus::Running) {
                j.completed_iters = iters.min(j.total_iters);
            }
        }
        Message::PushMetric { job, key, value } => {
            if let Some(j) = jobs.get_mut(job) {
                j.push_metric(&key, value);
            }
        }
        Message::JobDone { job, sim_time } => {
            let Some(j) = jobs.get_mut(job).filter(|j| j.status == JobStatus::Running) else {
                return;
            };
            j.completed_iters = j.total_iters;
            j.completion_time = Some(sim_time);
            // A finished job keeps no placement buffer.
            j.placement = Vec::new();
            jobs.set_status(job, JobStatus::Completed)
                .expect("job verified present above");
            cluster.release(job);
        }
        Message::JobSuspended { job, iters } => {
            if let Some(j) = jobs.get_mut(job) {
                j.completed_iters = iters.min(j.total_iters);
            }
        }
        _ => {}
    }
}

/// Accrue `elapsed` simulated seconds of service to every running job, at
/// round granularity like the simulator; index-driven over the running
/// set.
pub fn accrue_service(jobs: &mut JobState, elapsed: f64) {
    if elapsed <= 0.0 {
        return;
    }
    let running: Vec<JobId> = jobs.running_ids().iter().copied().collect();
    for id in running {
        let job = jobs.get_mut(id).expect("running jobs are active");
        job.attained_service += job.placement.len() as f64 * elapsed;
        job.running_time += elapsed;
    }
}

/// Placement-adjusted per-iteration time of a job under its current
/// placement: the simulator's performance model, so fidelity differences
/// between simulation and deployment come from mechanism, not model.
pub fn placement_iter_time(job: &Job, cluster: &ClusterState) -> f64 {
    let gpu_type = job
        .placement
        .first()
        .and_then(|g| cluster.gpu(*g))
        .map_or(GpuType::V100, |r| r.gpu_type);
    job.profile.iter_model.iter_time(
        job.placement.len() as u32,
        gpu_type,
        cluster.is_consolidated(&job.placement),
        cluster.alloc_inter_bw(&job.placement),
    )
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use blox_core::cluster::NodeSpec;
    use blox_core::profile::JobProfile;

    /// One logged link operation: a send, or a `recv_status` call (`None`).
    type Io = Option<(NodeId, Message)>;

    /// Links that log every send and receive and answer `recv_status`
    /// from a script. An exhausted script reads as closed links.
    struct Scripted {
        log: Vec<Io>,
        replies: VecDeque<Message>,
    }

    impl WorkerLinks for Scripted {
        fn send(&mut self, node: NodeId, msg: &Message, _: &mut ClusterState) {
            self.log.push(Some((node, msg.clone())));
        }

        fn recv_status(&mut self, _: Duration, _: &mut ClusterState) -> Option<Message> {
            self.log.push(None);
            self.replies.pop_front()
        }
    }

    /// What one scripted `actuate` call did.
    struct Run {
        log: Vec<Io>,
        outcome: PlacementOutcome,
        cluster: ClusterState,
        jobs: JobState,
    }

    impl Run {
        fn node(&self, gpu: u32) -> NodeId {
            self.cluster.gpu(GpuGlobalId(gpu)).expect("gpu exists").node
        }
    }

    /// Actuate `placement` against scripted replies on three 4-GPU nodes
    /// (GPUs 0-3 on the first, 4-7 on the second). Job `i` runs on
    /// `running[i]`, job 9 waits, and the node of `dead_gpu` has failed.
    fn scripted(
        running: &[&[u32]],
        dead_gpu: Option<u32>,
        placement: Placement,
        replies: Vec<Message>,
    ) -> Run {
        let mut cluster = ClusterState::new();
        cluster.add_nodes(&NodeSpec::v100_p3_8xlarge(), 3);
        let mut jobs = JobState::new();
        let profile = JobProfile::synthetic("t", 1.0);
        jobs.add_new_jobs(vec![Job::new(JobId(9), 0.0, 3, 1e3, profile.clone())]);
        for (i, gpus) in running.iter().enumerate() {
            let mut job = Job::new(JobId(i as u64), 0.0, 1, 1e3, profile.clone());
            job.status = JobStatus::Running;
            job.placement = gpus.iter().map(|g| GpuGlobalId(*g)).collect();
            cluster.allocate(job.id, &job.placement, 1.0).expect("free");
            jobs.add_new_jobs(vec![job]);
        }
        if let Some(gpu) = dead_gpu {
            let node = cluster.gpu(GpuGlobalId(gpu)).expect("gpu exists").node;
            cluster.fail_node(node).expect("node exists");
        }
        let mut links = Scripted {
            log: Vec::new(),
            replies: replies.into(),
        };
        let outcome = actuate(&mut links, &placement, &mut cluster, &mut jobs, 0.0);
        Run {
            log: links.log,
            outcome,
            cluster,
            jobs,
        }
    }

    fn suspend(ids: &[u64]) -> Placement {
        Placement {
            to_suspend: ids.iter().map(|i| JobId(*i)).collect(),
            to_launch: vec![],
        }
    }

    fn acked(job: u64, iters: f64) -> Message {
        Message::JobSuspended {
            job: JobId(job),
            iters,
        }
    }

    fn revoke(job: u64) -> Message {
        Message::Revoke { job: JobId(job) }
    }

    /// Both `Revoke`s go out before the first read, and acks arriving in
    /// reverse order settle each job with its own checkpoint.
    #[test]
    fn two_job_preemption_revokes_both_before_reading_acks_in_any_order() {
        let acks = vec![acked(1, 70.0), acked(0, 30.0)];
        let run = scripted(&[&[0], &[1]], None, suspend(&[0, 1]), acks);
        let node = run.node(0);
        let want = vec![Some((node, revoke(0))), Some((node, revoke(1))), None, None];
        assert_eq!(run.log, want);
        assert_eq!(run.outcome.suspended, vec![JobId(0), JobId(1)]);
        for (id, iters) in [(0, 30.0), (1, 70.0)] {
            let job = run.jobs.get(JobId(id)).expect("active");
            assert_eq!(job.completed_iters, iters, "job {id}");
        }
    }

    /// Job 0's `JobDone` crossed its `Revoke`, job 1's rank-0 node is
    /// dead and job 2 is acked: after job 2's ack nothing is left to read.
    #[test]
    fn finished_dead_and_acked_jobs_all_settle_in_one_round() {
        let done = Message::JobDone {
            job: JobId(0),
            sim_time: 42.0,
        };
        let running: &[&[u32]] = &[&[0], &[4], &[1]];
        let run = scripted(
            running,
            Some(4),
            suspend(&[0, 1, 2]),
            vec![done, acked(2, 5.0)],
        );
        let recvs = run.log.iter().filter(|io| io.is_none()).count();
        assert_eq!(recvs, 2, "waited for an ack that cannot come");
        assert_eq!(run.outcome.suspended, vec![JobId(1), JobId(2)]);
        let finished = run.jobs.get(JobId(0)).expect("completed jobs stay");
        assert_eq!(finished.status, JobStatus::Completed);
        assert_eq!(finished.completion_time, Some(42.0));
        assert_eq!(run.jobs.get(JobId(2)).expect("active").completed_iters, 5.0);
    }

    #[test]
    fn exit_at_of_a_two_node_job_goes_to_the_peer_node_only() {
        let exit = Message::ExitAt {
            job: JobId(0),
            exit_iter: 9,
        };
        let replies = vec![exit.clone(), acked(0, 8.0)];
        let run = scripted(&[&[0, 4]], None, suspend(&[0]), replies);
        let sent: Vec<_> = run.log.iter().flatten().cloned().collect();
        assert_eq!(sent, vec![(run.node(0), revoke(0)), (run.node(4), exit)]);
    }

    /// Rank 0 of a launch is the node of its first GPU, the node a
    /// `Revoke` would go to, even when a lower-numbered node hosts a shard.
    #[test]
    fn launch_sends_one_message_per_node_with_rank_0_at_the_first_gpu() {
        let gpus = vec![GpuGlobalId(4), GpuGlobalId(0), GpuGlobalId(5)];
        let placement = Placement {
            to_suspend: vec![],
            to_launch: vec![(JobId(9), gpus)],
        };
        let run = scripted(&[], None, placement, vec![]);
        assert_eq!(run.outcome.launched, vec![JobId(9)]);
        let launches: Vec<_> = run
            .log
            .iter()
            .flatten()
            .map(|(node, msg)| match msg {
                Message::Launch {
                    local_gpus,
                    is_rank0,
                    ..
                } => (*node, local_gpus.clone(), *is_rank0),
                other => panic!("expected only launches, got {other:?}"),
            })
            .collect();
        let want = vec![
            (run.node(0), vec![0], false),
            (run.node(4), vec![0, 1], true),
        ];
        assert_eq!(launches, want);
    }
}
