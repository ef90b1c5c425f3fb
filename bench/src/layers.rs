//! The per-layer metric list of `BENCHMARK.json`, in order. A traced run
//! reports every one of them on every workload: a layer the workload does
//! not exercise reads 0, which is itself the finding (the scale indexes
//! and `blox-net` do nothing on `sim_sweep`; the simulator does nothing on
//! `net_*`).

use crate::record::{Metric, Outcome};

/// `(name, unit, better)`; the name's prefix is the crate it measures.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads.trace_gen_us_per_job", "us", "lower"),
    ("core.step_ms_p50", "ms", "lower"),
    ("core.step_ms_tail", "ms", "lower"),
    ("core.manager_self_ms_mean", "ms", "lower"),
    ("core.stage_collect_ms_mean", "ms", "lower"),
    ("core.stage_admit_ms_mean", "ms", "lower"),
    ("core.stage_schedule_ms_mean", "ms", "lower"),
    ("core.stage_place_ms_mean", "ms", "lower"),
    ("core.stage_actuate_ms_mean", "ms", "lower"),
    ("core.delta_jobs_per_round_mean", "count", "lower"),
    ("core.launched_per_round_mean", "count", "lower"),
    ("core.suspended_per_round_mean", "count", "lower"),
    ("core.completed_per_round_mean", "count", "higher"),
    ("core.active_jobs_mean", "count", "lower"),
    ("core.waiting_jobs_mean", "count", "lower"),
    ("core.skipped_round_ratio", "ratio", "higher"),
    ("core.run_overhead_ratio", "ratio", "lower"),
    ("policies.admit_ms_mean", "ms", "lower"),
    ("policies.observe_delta_ms_mean", "ms", "lower"),
    ("policies.schedule_ms_p50", "ms", "lower"),
    ("policies.schedule_ms_tail", "ms", "lower"),
    ("policies.place_ms_p50", "ms", "lower"),
    ("policies.place_ms_tail", "ms", "lower"),
    ("policies.allocs_per_schedule_mean", "count", "lower"),
    ("policies.place_launch_ratio", "ratio", "higher"),
    ("sim.update_cluster_ms_mean", "ms", "lower"),
    ("sim.update_metrics_ms_p50", "ms", "lower"),
    ("sim.update_metrics_ms_tail", "ms", "lower"),
    ("sim.pop_wait_queue_ms_mean", "ms", "lower"),
    ("sim.exec_jobs_ms_mean", "ms", "lower"),
    ("sim.observe_delta_ms_mean", "ms", "lower"),
    ("sim.next_event_hint_ms_mean", "ms", "lower"),
    ("sim.arrivals_per_round_mean", "count", "lower"),
    ("sim.sweep_trial_ms_p50", "ms", "lower"),
    ("sim.sweep_trial_ms_max", "ms", "lower"),
    ("sim.sweep_parallel_efficiency", "ratio", "higher"),
    ("runtime.encode_ns_per_msg", "ns", "lower"),
    ("runtime.decode_ns_per_msg", "ns", "lower"),
    ("net.frame_encode_ns_per_msg", "ns", "lower"),
    ("net.frame_decode_ns_per_msg", "ns", "lower"),
    ("net.client_send_us_p50", "us", "lower"),
    ("net.client_send_us_tail", "us", "lower"),
    ("net.ack_batch_size_mean", "count", "lower"),
    ("net.ack_batch_interval_ms_p50", "ms", "lower"),
    ("net.gen_late_ms_p99", "ms", "lower"),
    ("net.round_ms_mean", "ms", "lower"),
    ("net.rounds", "count", "higher"),
    ("net.preemptions_total", "count", "lower"),
    ("net.conns_lost", "count", "lower"),
    ("net.failures_detected", "count", "lower"),
    ("net.stalls_detected", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

/// The outcome a traced run starts from: every per-layer metric at 0.
pub fn blank() -> Outcome {
    Outcome {
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit, _)| Metric::new(*name, 0.0, unit, 0))
            .collect(),
        ..Outcome::default()
    }
}

/// Overwrite one per-layer metric with what the workload measured.
pub fn set<'a>(out: &'a mut Outcome, name: &str, value: f64, samples: usize) -> &'a mut Metric {
    let m = out
        .metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in PER_LAYER"));
    // Adding 0.0 turns the -0.0 an empty sum yields into 0.0.
    m.value = value + 0.0;
    m.samples = samples;
    m
}
