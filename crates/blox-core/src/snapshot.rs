//! Versioned binary snapshots of scheduler state.
//!
//! A [`Snapshot`] captures everything a crashed scheduler needs to resume
//! a run: the simulated clock, the shared [`ClusterState`] and
//! [`JobState`] (including per-job progress checkpoints and leases held
//! as placements), the not-yet-popped wait queue, the id allocator, and
//! the accumulated [`RunStats`]. Encoding uses the workspace's shared
//! binary codec ([`crate::codec`] — the same discipline as the runtime
//! wire protocol), so snapshots are byte-deterministic: equal states
//! encode to equal bytes, which the property suite pins.
//!
//! # Versioning and compatibility
//!
//! Every snapshot starts with the magic `BLXS` and a `u32` format
//! version. Decoding requires an exact version match: a scheduler never
//! guesses at fields written by a different build. Bumping
//! [`Snapshot::VERSION`] is the whole compatibility story — old
//! checkpoints are rejected with a clear error rather than silently
//! misread, which is the correct failure mode for crash-recovery state.

use crate::cluster::{ClusterState, GpuRow, GpuState, GpuType, Node, NodeSpec};
use crate::codec::{put_bool, put_f64, put_str, put_u32, put_u64, put_u8, Reader};
use crate::error::{BloxError, Result};
use crate::ids::{GpuGlobalId, JobId, NodeId};
use crate::job::{Job, JobStatus};
use crate::metrics::{JobRecord, RunStats};
use crate::profile::{IterTimeModel, JobProfile, LossCurve, PolluxProfile};
use crate::state::JobState;

/// Magic bytes opening every snapshot frame.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"BLXS";

/// A point-in-time capture of one scheduler's recoverable state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulated time at capture (the scheduler's `now`).
    pub now: f64,
    /// Next job id the submission frontend would assign.
    pub next_job: u64,
    /// Jobs the run has pledged to wait for, if any (the open-loop
    /// `TrackedWindowDone` pledge).
    pub expected_jobs: Option<u64>,
    /// The shared cluster state, including failed nodes and allocations.
    pub cluster: ClusterState,
    /// The shared job state: active jobs with progress, plus finished.
    pub jobs: JobState,
    /// Submitted jobs not yet popped into the schedulable set.
    pub queue: Vec<Job>,
    /// Run statistics accumulated so far (per-job records, rounds).
    pub stats: RunStats,
}

impl Snapshot {
    /// Current snapshot format version; decoding requires an exact match.
    ///
    /// Version 2: snapshots encode the indexes' *source of truth* only
    /// (node records, GPU rows, jobs, statistics scalars); the maintained
    /// acceleration indexes of [`ClusterState`] and [`JobState`] are
    /// rebuilt on decode. The byte layout is unchanged from v1 — the bump
    /// is a deliberate application of the exact-version discipline: the
    /// state layer behind the bytes changed (index maintenance, the
    /// `set_status` contract), and a checkpoint is crash-recovery state,
    /// where refusing a pre-upgrade file is cheaper than debugging a
    /// subtle cross-version resurrection.
    pub const VERSION: u32 = 2;

    /// Encode into a self-describing, byte-deterministic frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut buf, Self::VERSION);
        put_f64(&mut buf, self.now);
        put_u64(&mut buf, self.next_job);
        put_opt_u64(&mut buf, self.expected_jobs);

        // Cluster: id counters, nodes, then the GPU table.
        let (next_node, next_gpu) = self.cluster.id_counters();
        put_u32(&mut buf, next_node);
        put_u32(&mut buf, next_gpu);
        let nodes: Vec<&Node> = self.cluster.all_nodes().collect();
        put_u32(&mut buf, nodes.len() as u32);
        for node in nodes {
            put_node(&mut buf, node);
        }
        let gpus: Vec<&GpuRow> = self.cluster.all_gpus().collect();
        put_u32(&mut buf, gpus.len() as u32);
        for gpu in gpus {
            put_gpu_row(&mut buf, gpu);
        }

        // Jobs: active (id order), finished (completion order), queue.
        let active: Vec<&Job> = self.jobs.active().collect();
        put_u32(&mut buf, active.len() as u32);
        for job in active {
            put_job(&mut buf, job);
        }
        put_u32(&mut buf, self.jobs.finished().len() as u32);
        for job in self.jobs.finished() {
            put_job(&mut buf, job);
        }
        put_u32(&mut buf, self.queue.len() as u32);
        for job in &self.queue {
            put_job(&mut buf, job);
        }

        // Statistics.
        put_u32(&mut buf, self.stats.records.len() as u32);
        for rec in &self.stats.records {
            put_record(&mut buf, rec);
        }
        put_u64(&mut buf, self.stats.rounds);
        put_u64(&mut buf, self.stats.skipped_rounds);
        put_f64(&mut buf, self.stats.utilization_sum());
        put_f64(&mut buf, self.stats.end_time);
        buf
    }

    /// Decode a frame produced by [`Snapshot::encode`].
    ///
    /// Total: truncated, corrupted, or version-mismatched input returns
    /// `Err`, never panics.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(BloxError::Parse("not a Blox snapshot (bad magic)".into()));
        }
        let version = r.u32()?;
        if version != Self::VERSION {
            return Err(BloxError::Parse(format!(
                "snapshot version {version} incompatible with supported version {}",
                Self::VERSION
            )));
        }
        let now = r.f64()?;
        let next_job = r.u64()?;
        let expected_jobs = read_opt_u64(&mut r)?;

        let next_node = r.u32()?;
        let next_gpu = r.u32()?;
        let n_nodes = r.u32()?;
        let mut nodes = Vec::new();
        for _ in 0..n_nodes {
            nodes.push(read_node(&mut r)?);
        }
        let n_gpus = r.u32()?;
        let mut gpus = Vec::new();
        for _ in 0..n_gpus {
            gpus.push(read_gpu_row(&mut r)?);
        }
        let cluster = ClusterState::from_snapshot_parts(nodes, gpus, next_node, next_gpu);

        let n_active = r.u32()?;
        let mut active = Vec::new();
        for _ in 0..n_active {
            active.push(read_job(&mut r)?);
        }
        let n_finished = r.u32()?;
        let mut finished = Vec::new();
        for _ in 0..n_finished {
            finished.push(read_job(&mut r)?);
        }
        let jobs = JobState::from_snapshot_parts(active, finished);
        let n_queue = r.u32()?;
        let mut queue = Vec::new();
        for _ in 0..n_queue {
            queue.push(read_job(&mut r)?);
        }

        let n_records = r.u32()?;
        let mut records = Vec::new();
        for _ in 0..n_records {
            records.push(read_record(&mut r)?);
        }
        let rounds = r.u64()?;
        let skipped_rounds = r.u64()?;
        let utilization_sum = r.f64()?;
        let end_time = r.f64()?;
        let stats = RunStats::from_snapshot_parts(
            records,
            rounds,
            skipped_rounds,
            utilization_sum,
            end_time,
        );

        Ok(Snapshot {
            now,
            next_job,
            expected_jobs,
            cluster,
            jobs,
            queue,
            stats,
        })
    }
}

// Field helpers --------------------------------------------------------------

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    put_bool(buf, v.is_some());
    put_u64(buf, v.unwrap_or(0));
}

fn read_opt_u64(r: &mut Reader) -> Result<Option<u64>> {
    let present = r.boolean()?;
    let v = r.u64()?;
    Ok(present.then_some(v))
}

fn put_opt_f64(buf: &mut Vec<u8>, v: Option<f64>) {
    put_bool(buf, v.is_some());
    put_f64(buf, v.unwrap_or(0.0));
}

fn read_opt_f64(r: &mut Reader) -> Result<Option<f64>> {
    let present = r.boolean()?;
    let v = r.f64()?;
    Ok(present.then_some(v))
}

fn gpu_type_tag(t: GpuType) -> u8 {
    match t {
        GpuType::K80 => 0,
        GpuType::P100 => 1,
        GpuType::V100 => 2,
        GpuType::A100 => 3,
        GpuType::T4 => 4,
    }
}

fn gpu_type_from_tag(tag: u8) -> Result<GpuType> {
    Ok(match tag {
        0 => GpuType::K80,
        1 => GpuType::P100,
        2 => GpuType::V100,
        3 => GpuType::A100,
        4 => GpuType::T4,
        other => return Err(BloxError::Parse(format!("unknown gpu-type tag {other}"))),
    })
}

fn status_tag(s: JobStatus) -> u8 {
    match s {
        JobStatus::Queued => 0,
        JobStatus::Running => 1,
        JobStatus::Suspended => 2,
        JobStatus::Completed => 3,
        JobStatus::TerminatedEarly => 4,
        JobStatus::Failed => 5,
    }
}

fn status_from_tag(tag: u8) -> Result<JobStatus> {
    Ok(match tag {
        0 => JobStatus::Queued,
        1 => JobStatus::Running,
        2 => JobStatus::Suspended,
        3 => JobStatus::Completed,
        4 => JobStatus::TerminatedEarly,
        5 => JobStatus::Failed,
        other => return Err(BloxError::Parse(format!("unknown job-status tag {other}"))),
    })
}

fn put_node(buf: &mut Vec<u8>, node: &Node) {
    put_u32(buf, node.id.0);
    put_bool(buf, node.alive);
    put_f64(buf, node.free_cpu_cores);
    put_f64(buf, node.free_dram_gb);
    let spec = &node.spec;
    put_u8(buf, gpu_type_tag(spec.gpu_type));
    put_u32(buf, spec.gpus);
    put_u32(buf, spec.cpu_cores);
    put_f64(buf, spec.dram_gb);
    put_f64(buf, spec.inter_bw_gbps);
    put_u32(buf, spec.intra_bw_gbps.len() as u32);
    for row in &spec.intra_bw_gbps {
        put_u32(buf, row.len() as u32);
        for bw in row {
            put_f64(buf, *bw);
        }
    }
}

fn read_node(r: &mut Reader) -> Result<Node> {
    let id = NodeId(r.u32()?);
    let alive = r.boolean()?;
    let free_cpu_cores = r.f64()?;
    let free_dram_gb = r.f64()?;
    let gpu_type = gpu_type_from_tag(r.u8()?)?;
    let gpus = r.u32()?;
    let cpu_cores = r.u32()?;
    let dram_gb = r.f64()?;
    let inter_bw_gbps = r.f64()?;
    let n_rows = r.u32()?;
    let mut intra_bw_gbps = Vec::new();
    for _ in 0..n_rows {
        let n_cols = r.u32()?;
        let mut row = Vec::new();
        for _ in 0..n_cols {
            row.push(r.f64()?);
        }
        intra_bw_gbps.push(row);
    }
    Ok(Node {
        id,
        spec: NodeSpec {
            gpu_type,
            gpus,
            cpu_cores,
            dram_gb,
            inter_bw_gbps,
            intra_bw_gbps,
        },
        alive,
        free_cpu_cores,
        free_dram_gb,
    })
}

fn put_gpu_row(buf: &mut Vec<u8>, gpu: &GpuRow) {
    put_u32(buf, gpu.id.0);
    put_u32(buf, gpu.node.0);
    put_u8(buf, gpu.local);
    put_u8(buf, gpu_type_tag(gpu.gpu_type));
    put_bool(buf, gpu.state == GpuState::Busy);
    put_f64(buf, gpu.free_mem_gb);
    put_opt_u64(buf, gpu.job.map(|j| j.0));
}

fn read_gpu_row(r: &mut Reader) -> Result<GpuRow> {
    Ok(GpuRow {
        id: GpuGlobalId(r.u32()?),
        node: NodeId(r.u32()?),
        local: r.u8()?,
        gpu_type: gpu_type_from_tag(r.u8()?)?,
        state: if r.boolean()? {
            GpuState::Busy
        } else {
            GpuState::Free
        },
        free_mem_gb: r.f64()?,
        job: read_opt_u64(r)?.map(JobId),
    })
}

fn put_profile(buf: &mut Vec<u8>, p: &JobProfile) {
    put_str(buf, &p.model_name);
    put_f64(buf, p.iter_model.base_iter_s);
    put_f64(buf, p.iter_model.serial_frac);
    put_f64(buf, p.iter_model.comm_frac);
    put_f64(buf, p.iter_model.spread_penalty);
    put_f64(buf, p.skew);
    put_bool(buf, p.consolidation_benefit);
    put_f64(buf, p.checkpoint_s);
    put_f64(buf, p.restore_s);
    put_f64(buf, p.gpu_mem_gb);
    put_f64(buf, p.cpus_per_gpu);
    put_f64(buf, p.dram_per_gpu_gb);
    put_f64(buf, p.cpu_sensitivity);
    put_f64(buf, p.loss.l0);
    put_f64(buf, p.loss.l_min);
    put_f64(buf, p.loss.k);
    put_bool(buf, p.pollux.is_some());
    if let Some(px) = &p.pollux {
        put_f64(buf, px.t_grad_per_sample);
        put_f64(buf, px.t_sync);
        put_u64(buf, px.init_batch);
        put_u64(buf, px.max_batch);
        put_f64(buf, px.gns);
    }
}

fn read_profile(r: &mut Reader) -> Result<JobProfile> {
    let model_name = r.string()?;
    let iter_model = IterTimeModel {
        base_iter_s: r.f64()?,
        serial_frac: r.f64()?,
        comm_frac: r.f64()?,
        spread_penalty: r.f64()?,
    };
    let skew = r.f64()?;
    let consolidation_benefit = r.boolean()?;
    let checkpoint_s = r.f64()?;
    let restore_s = r.f64()?;
    let gpu_mem_gb = r.f64()?;
    let cpus_per_gpu = r.f64()?;
    let dram_per_gpu_gb = r.f64()?;
    let cpu_sensitivity = r.f64()?;
    let loss = LossCurve {
        l0: r.f64()?,
        l_min: r.f64()?,
        k: r.f64()?,
    };
    let pollux = if r.boolean()? {
        Some(PolluxProfile {
            t_grad_per_sample: r.f64()?,
            t_sync: r.f64()?,
            init_batch: r.u64()?,
            max_batch: r.u64()?,
            gns: r.f64()?,
        })
    } else {
        None
    };
    Ok(JobProfile {
        model_name,
        iter_model,
        skew,
        consolidation_benefit,
        checkpoint_s,
        restore_s,
        gpu_mem_gb,
        cpus_per_gpu,
        dram_per_gpu_gb,
        cpu_sensitivity,
        loss,
        pollux,
    })
}

fn put_job(buf: &mut Vec<u8>, job: &Job) {
    put_u64(buf, job.id.0);
    put_f64(buf, job.arrival_time);
    put_u32(buf, job.requested_gpus);
    put_f64(buf, job.total_iters);
    put_f64(buf, job.completed_iters);
    put_profile(buf, &job.profile);
    put_u8(buf, status_tag(job.status));
    put_f64(buf, job.attained_service);
    put_f64(buf, job.running_time);
    put_opt_f64(buf, job.first_scheduled);
    put_opt_f64(buf, job.completion_time);
    put_u32(buf, job.placement.len() as u32);
    for gpu in &job.placement {
        put_u32(buf, gpu.0);
    }
    put_u32(buf, job.preemptions);
    put_u32(buf, job.launches);
    put_u64(buf, job.batch_size);
    put_f64(buf, job.pending_overhead);
    put_u32(buf, job.metrics.len() as u32);
    for (key, value) in job.metrics.iter() {
        put_str(buf, key);
        put_f64(buf, value);
    }
    put_opt_f64(buf, job.loss_termination_threshold);
}

fn read_job(r: &mut Reader) -> Result<Job> {
    let id = JobId(r.u64()?);
    let arrival_time = r.f64()?;
    let requested_gpus = r.u32()?;
    let total_iters = r.f64()?;
    let completed_iters = r.f64()?;
    let profile = read_profile(r)?;
    let mut job = Job::new(id, arrival_time, requested_gpus, total_iters, profile);
    job.completed_iters = completed_iters;
    job.status = status_from_tag(r.u8()?)?;
    job.attained_service = r.f64()?;
    job.running_time = r.f64()?;
    job.first_scheduled = read_opt_f64(r)?;
    job.completion_time = read_opt_f64(r)?;
    let n_placement = r.u32()?;
    let mut placement = Vec::new();
    for _ in 0..n_placement {
        placement.push(GpuGlobalId(r.u32()?));
    }
    job.placement = placement;
    job.preemptions = r.u32()?;
    job.launches = r.u32()?;
    job.batch_size = r.u64()?;
    job.pending_overhead = r.f64()?;
    let n_metrics = r.u32()?;
    for _ in 0..n_metrics {
        let key = r.string()?;
        let value = r.f64()?;
        job.metrics.insert(&key, value);
    }
    job.loss_termination_threshold = read_opt_f64(r)?;
    Ok(job)
}

fn put_record(buf: &mut Vec<u8>, rec: &JobRecord) {
    put_u64(buf, rec.id.0);
    put_str(buf, &rec.model);
    put_f64(buf, rec.arrival);
    put_opt_f64(buf, rec.first_scheduled);
    put_f64(buf, rec.completion);
    put_u32(buf, rec.requested_gpus);
    put_u32(buf, rec.preemptions);
    put_f64(buf, rec.attained_service);
    put_bool(buf, rec.terminated_early);
}

fn read_record(r: &mut Reader) -> Result<JobRecord> {
    Ok(JobRecord {
        id: JobId(r.u64()?),
        model: r.string()?,
        arrival: r.f64()?,
        first_scheduled: read_opt_f64(r)?,
        completion: r.f64()?,
        requested_gpus: r.u32()?,
        preemptions: r.u32()?,
        attained_service: r.f64()?,
        terminated_early: r.boolean()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeSpec;

    fn sample_snapshot() -> Snapshot {
        let mut cluster = ClusterState::new();
        cluster.add_nodes(&NodeSpec::v100_p3_8xlarge(), 2);
        let mut jobs = JobState::new();
        let mut running = Job::new(
            JobId(0),
            10.0,
            2,
            5000.0,
            JobProfile::synthetic("resnet50", 0.4),
        );
        running.status = JobStatus::Running;
        running.completed_iters = 1200.5;
        running.placement = cluster.free_gpus()[..2].to_vec();
        cluster
            .allocate(JobId(0), &running.placement.clone(), 4.0)
            .unwrap();
        running.push_metric("loss", 1.25);
        let mut done = Job::new(JobId(1), 0.0, 1, 100.0, JobProfile::synthetic("vgg16", 1.0));
        done.status = JobStatus::Completed;
        done.completion_time = Some(900.0);
        done.completed_iters = 100.0;
        let mut stats = RunStats::new();
        stats.record_job(&done);
        stats.record_round(2, 8, 300.0);
        let queued = Job::new(
            JobId(2),
            2000.0,
            4,
            800.0,
            JobProfile::synthetic("gpt2", 2.0),
        );
        jobs.add_new_jobs(vec![running]);
        let mut fin = JobState::new();
        fin.add_new_jobs(vec![done]);
        fin.prune_completed();
        // Merge the finished job into the same state object.
        let jobs = JobState::from_snapshot_parts(
            jobs.active().cloned().collect(),
            fin.finished().to_vec(),
        );
        Snapshot {
            now: 600.0,
            next_job: 3,
            expected_jobs: Some(8),
            cluster,
            jobs,
            queue: vec![queued],
            stats,
        }
    }

    #[test]
    fn encode_decode_roundtrips_bytes() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).expect("decode");
        assert_eq!(back.encode(), bytes, "round trip must be byte-identical");
        assert_eq!(back.now, 600.0);
        assert_eq!(back.next_job, 3);
        assert_eq!(back.expected_jobs, Some(8));
        assert_eq!(back.cluster.total_gpus(), 8);
        assert_eq!(back.cluster.gpus_of_job(JobId(0)).len(), 2);
        assert_eq!(back.jobs.active_count(), 1);
        assert_eq!(back.jobs.finished().len(), 1);
        assert_eq!(back.queue.len(), 1);
        assert_eq!(back.stats.records.len(), 1);
        assert_eq!(back.stats.rounds, 1);
        back.cluster.check_invariants().unwrap();
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let mut bytes = sample_snapshot().encode();
        assert!(Snapshot::decode(b"nope").is_err());
        bytes[4] = 0xFF; // Corrupt the version.
        assert!(Snapshot::decode(&bytes).is_err());
    }

    #[test]
    fn truncated_snapshots_error_cleanly() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "strict prefix of length {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn restored_job_progress_survives() {
        let snap = sample_snapshot();
        let back = Snapshot::decode(&snap.encode()).unwrap();
        let job = back.jobs.get(JobId(0)).unwrap();
        assert_eq!(job.completed_iters, 1200.5);
        assert_eq!(job.status, JobStatus::Running);
        assert_eq!(job.metric("loss"), Some(1.25));
        assert_eq!(job.profile.model_name, "resnet50");
    }
}
