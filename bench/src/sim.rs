//! The three simulator workloads. `sim_scale` and `sim_churn` drive
//! `BloxManager::step` themselves, one fixed-size pass after another;
//! `sim_sweep` runs whole `SweepGrid`s.
//!
//! Every pass sets up from scratch (trace, cluster, manager, warm-up), so
//! one run yields several set-up samples and several independent samples
//! of each timing; the reported value is the median over passes. A traced
//! run alternates undecorated and decorated passes, which gives the
//! per-layer numbers and the decorators' own overhead from one process.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use blox_core::fault::splitmix64;
use blox_core::ids::NodeId;
use blox_core::manager::{Backend, BloxManager, ExecMode, RoundOutcome, RunConfig, StopCondition};
use blox_core::metrics::{RunStats, Stage, StageTimes};
use blox_core::policy::{AdmissionPolicy, PlacementPolicy, SchedulingPolicy};
use blox_core::state::JobState;
use blox_policies::admission::AcceptAll;
use blox_policies::placement::{ConsolidatedPlacement, FirstFreePlacement};
use blox_policies::scheduling::{Fifo, Las, Optimus, Pollux, Tiresias};
use blox_sim::{cluster_of_v100, ChurnEvent, PolicySet, SimBackend, SweepGrid};
use blox_workloads::{ModelZoo, PhillyTraceGen, Trace};

use crate::layers::{self, set};
use crate::record::{peak_rss_mb, Metric, Outcome};
use crate::stats::{fnv1a, label, mean, median, percentile, pick_tail, quantile, sorted, P50};
use crate::trace::{
    self, durations_ms, self_times_ns, PolicyCounts, Shared, Span, TimedAdmission, TimedBackend,
    TimedPlacement, TimedScheduling,
};
use crate::Run;

const ROUND_S: f64 = 300.0;
/// Round cap of a sweep trial (the engine's default), far beyond any
/// horizon.
const SWEEP_MAX_ROUNDS: u64 = 500_000;
/// Times a sweep pass repeats its millisecond-scale set-up.
const SWEEP_SETUP_REPEATS: usize = 5;

pub type Policies = (
    Box<dyn AdmissionPolicy>,
    Box<dyn SchedulingPolicy>,
    Box<dyn PlacementPolicy>,
);

/// Keep starting fixed-size passes until their measured time adds up to
/// the run's budget (rounded to the nearest whole pass, at least
/// `min_passes`). `pass` returns its result and its measured seconds.
pub fn passes<T>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> (T, f64),
) -> Vec<T> {
    let mut out = Vec::new();
    let mut measured = 0.0;
    loop {
        let (result, secs) = pass(out.len());
        out.push(result);
        measured += secs;
        let mean_pass = measured / out.len() as f64;
        if out.len() >= min_passes && measured + mean_pass / 2.0 >= seconds {
            return out;
        }
    }
}

// Step-driven workloads --------------------------------------------------------

/// Sizes of a step-driven workload; `full` is what `BENCHMARK.json`
/// measures, `smoke` keeps every code path at a fraction of the size.
#[derive(Debug, Clone)]
struct StepSizes {
    nodes: u32,
    /// Jobs already queued at t = 0, absorbed by the warm-up rounds.
    backlog: usize,
    jobs_per_hour: f64,
    median_runtime_h: f64,
    warmup_rounds: u64,
    rounds: u64,
    /// `(period, share, down)`: every `period` rounds a seeded `share` of
    /// the nodes fails and revives `down` rounds later.
    churn: Option<(u64, f64, u64)>,
}

fn scale_sizes(smoke: bool) -> StepSizes {
    StepSizes {
        nodes: if smoke { 500 } else { 8000 },
        backlog: if smoke { 2_500 } else { 40_000 },
        jobs_per_hour: if smoke { 125.0 } else { 2000.0 },
        median_runtime_h: 4.0,
        warmup_rounds: if smoke { 4 } else { 8 },
        rounds: if smoke { 40 } else { 100 },
        churn: None,
    }
}

fn scale_policies() -> Policies {
    (
        Box::new(AcceptAll::new()),
        Box::new(Tiresias::new()),
        Box::new(ConsolidatedPlacement::preferred()),
    )
}

fn churn_sizes(smoke: bool) -> StepSizes {
    StepSizes {
        nodes: if smoke { 100 } else { 1000 },
        backlog: 0,
        jobs_per_hour: if smoke { 110.0 } else { 1100.0 },
        median_runtime_h: 0.5,
        warmup_rounds: 60,
        rounds: if smoke { 200 } else { 1000 },
        churn: Some((2, 0.05, 4)),
    }
}

fn churn_policies() -> Policies {
    (
        Box::new(AcceptAll::new()),
        Box::new(Las::new()),
        Box::new(FirstFreePlacement::new()),
    )
}

/// A Philly trace whose first `backlog` jobs are already waiting at t = 0
/// and whose remaining arrivals follow on from there at the trace's rate.
fn backlog_trace(sizes: &StepSizes, seed: u64) -> Trace {
    let horizon_h = (sizes.warmup_rounds + sizes.rounds) as f64 * ROUND_S / 3600.0;
    let n = sizes.backlog + (sizes.jobs_per_hour * horizon_h * 1.25) as usize + 64;
    let mut trace = PhillyTraceGen::new(&ModelZoo::standard(), sizes.jobs_per_hour)
        .runtimes(sizes.median_runtime_h, 1.4)
        .generate(n, seed);
    if sizes.backlog > 0 {
        let shift = trace.jobs[sizes.backlog].arrival_time;
        for job in &mut trace.jobs {
            job.arrival_time = (job.arrival_time - shift).max(0.0);
        }
    }
    trace
}

/// The seeded node-failure script of `sim_churn`.
fn churn_script(sizes: &StepSizes, seed: u64) -> Vec<ChurnEvent> {
    let Some((period, share, down)) = sizes.churn else {
        return Vec::new();
    };
    let mut state = seed ^ 0xC4_0A11;
    let batch = ((sizes.nodes as f64 * share) as usize).max(1);
    let mut down_until = vec![0u64; sizes.nodes as usize];
    let mut events = Vec::new();
    let mut round = period;
    while round < sizes.warmup_rounds + sizes.rounds {
        let mut failed = 0;
        while failed < batch {
            let node = (splitmix64(&mut state) % sizes.nodes as u64) as usize;
            if down_until[node] <= round {
                down_until[node] = round + down;
                failed += 1;
                let node = NodeId(node as u32);
                events.push(ChurnEvent::Fail {
                    at: round as f64 * ROUND_S,
                    node,
                });
                events.push(ChurnEvent::Revive {
                    at: (round + down) as f64 * ROUND_S,
                    node,
                });
            }
        }
        round += period;
    }
    events
}

/// Sums over executed rounds of what each round did and left behind.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundCounts {
    rounds: u64,
    /// Delta size, launched, suspended, completed, admitted, active jobs,
    /// waiting jobs.
    sums: [f64; 7],
}

impl RoundCounts {
    fn add(&mut self, out: &RoundOutcome, jobs: &JobState) {
        let d = &out.delta;
        let delta_jobs = d.admitted.len()
            + d.completed.len()
            + d.launched.len()
            + d.suspended.len()
            + d.terminated.len()
            + d.retuned.len();
        self.rounds += 1;
        for (sum, v) in self.sums.iter_mut().zip([
            delta_jobs,
            out.launched,
            out.suspended,
            out.completed,
            out.admitted,
            jobs.active_count(),
            jobs.waiting_count(),
        ]) {
            *sum += v as f64;
        }
    }

    fn merge(&mut self, other: &RoundCounts) {
        self.rounds += other.rounds;
        for (sum, v) in self.sums.iter_mut().zip(other.sums) {
            *sum += v;
        }
    }
}

/// What one pass of a step-driven workload measured.
struct StepPass {
    setup_s: f64,
    trace_gen_us_per_job: f64,
    wall_s: f64,
    round_ms: Vec<f64>,
    completions: usize,
    launches: u64,
    skipped_launches: u64,
    invariants_ok: bool,
    digest: u64,
    stages: StageTimes,
    counts: RoundCounts,
    /// Spans and boundary counts, present on a decorated pass.
    traced: Option<(Vec<Span>, PolicyCounts)>,
}

/// Stage times accumulated since `before`.
fn stages_since(now: &StageTimes, before: &StageTimes) -> StageTimes {
    let mut out = StageTimes::default();
    let rounds = now.measured_rounds - before.measured_rounds;
    if rounds > 0 {
        // `record` adds one round's samples; adding the whole difference
        // as one sample and fixing the count keeps the totals exact.
        out.record(Stage::ALL.map(|s| now.total(s) - before.total(s)));
        out.measured_rounds = rounds;
    }
    out
}

fn run_config(sizes: &StepSizes) -> RunConfig {
    RunConfig {
        round_duration: ROUND_S,
        max_rounds: sizes.warmup_rounds + sizes.rounds,
        stop: StopCondition::AllJobsDone,
        mode: ExecMode::FixedRounds,
    }
}

/// The recorder and boundary counters of a decorated pass.
pub struct Tracing {
    pub rec: Shared,
    counts: Arc<Mutex<PolicyCounts>>,
}

impl Tracing {
    pub fn new(span_capacity: usize) -> Self {
        Tracing {
            rec: trace::shared(span_capacity),
            counts: Arc::default(),
        }
    }
}

/// Warm up (the tail of set-up), then time `sizes.rounds` calls of `step`.
fn drive<B: Backend>(
    mgr: &mut BloxManager<B>,
    (admit, schedule, place): &mut Policies,
    sizes: &StepSizes,
    tracing: Option<&Tracing>,
    setup_start: Instant,
    trace_gen_us_per_job: f64,
) -> StepPass {
    for _ in 0..sizes.warmup_rounds {
        mgr.step(admit.as_mut(), schedule.as_mut(), place.as_mut());
    }
    if let Some(t) = tracing {
        // Only the measured rounds are traced and counted.
        t.rec.lock().expect("recorder lock").clear();
        *t.counts.lock().expect("counts lock") = PolicyCounts::default();
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let stages_before = mgr.stats().stage_times;
    let done_before = mgr.stats().records.len();
    let mut round_ms = Vec::with_capacity(sizes.rounds as usize);
    let mut counts = RoundCounts::default();
    let (mut launches, mut skipped_launches) = (0, 0);
    let start = Instant::now();
    for round in 0..sizes.rounds {
        let step = tracing.map(|t| {
            let mut rec = t.rec.lock().expect("recorder lock");
            rec.set_key(round);
            rec.enter("core.step")
        });
        let t = Instant::now();
        let out = mgr.step(admit.as_mut(), schedule.as_mut(), place.as_mut());
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let (Some(t), Some(step)) = (tracing, step) {
            t.rec.lock().expect("recorder lock").exit(step);
        }
        launches += out.launched as u64;
        skipped_launches += out.skipped.len() as u64;
        counts.add(&out, mgr.jobs());
    }
    let wall_s = start.elapsed().as_secs_f64();

    StepPass {
        setup_s,
        trace_gen_us_per_job,
        wall_s,
        round_ms,
        completions: mgr.stats().records.len() - done_before,
        launches,
        skipped_launches,
        invariants_ok: mgr.cluster().check_invariants().is_ok()
            && mgr.jobs().check_invariants().is_ok(),
        digest: digest_of(mgr.stats()),
        stages: stages_since(&mgr.stats().stage_times, &stages_before),
        counts,
        traced: tracing.map(|t| {
            (
                t.rec.lock().expect("recorder lock").spans().to_vec(),
                *t.counts.lock().expect("counts lock"),
            )
        }),
    }
}

pub fn digest_of(stats: &RunStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// One pass: build everything from `seed`, warm up, measure.
fn step_pass(sizes: &StepSizes, policies: fn() -> Policies, seed: u64, traced: bool) -> StepPass {
    let setup_start = Instant::now();
    let trace = backlog_trace(sizes, seed);
    let gen_us = setup_start.elapsed().as_secs_f64() * 1e6 / trace.len() as f64;
    let backend = SimBackend::new(trace).with_churn(churn_script(sizes, seed));
    let cluster = cluster_of_v100(sizes.nodes);
    if !traced {
        let mut mgr = BloxManager::new(backend, cluster, run_config(sizes));
        return drive(&mut mgr, &mut policies(), sizes, None, setup_start, gen_us);
    }
    let tracing = Tracing::new(sizes.rounds as usize * 16);
    let mut mgr = BloxManager::new(
        TimedBackend::new(backend, tracing.rec.clone()),
        cluster,
        run_config(sizes),
    );
    let mut policies = decorate(policies(), &tracing);
    drive(
        &mut mgr,
        &mut policies,
        sizes,
        Some(&tracing),
        setup_start,
        gen_us,
    )
}

pub fn decorate((admit, schedule, place): Policies, t: &Tracing) -> Policies {
    (
        Box::new(TimedAdmission::new(admit, t.rec.clone())),
        Box::new(TimedScheduling::new(
            schedule,
            t.rec.clone(),
            t.counts.clone(),
        )),
        Box::new(TimedPlacement::new(place, t.rec.clone(), t.counts.clone())),
    )
}

/// The pass seed: pass 0 uses the run's seed itself, so a traced and an
/// untraced run of one seed share (and can compare) their first pass.
/// Decorated and undecorated passes of a traced run come in same-seed
/// pairs for the same reason.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    let mut state = seed;
    let mut out = seed;
    for _ in 0..pass {
        out = splitmix64(&mut state);
    }
    out
}

fn step_workload(
    run: &Run,
    name: &'static str,
    sizes: StepSizes,
    policies: fn() -> Policies,
) -> Outcome {
    let mut out = if run.traced {
        layers::blank()
    } else {
        Outcome::default()
    };
    out.params = vec![
        ("nodes", sizes.nodes.to_string()),
        ("gpus", (sizes.nodes * 4).to_string()),
        ("backlog_jobs", sizes.backlog.to_string()),
        ("jobs_per_hour", sizes.jobs_per_hour.to_string()),
        ("median_runtime_h", sizes.median_runtime_h.to_string()),
        ("warmup_rounds", sizes.warmup_rounds.to_string()),
        ("rounds_per_pass", sizes.rounds.to_string()),
        ("churn", format!("{:?}", sizes.churn)),
    ];
    // A traced run pairs each undecorated pass with a decorated pass of
    // the same seed.
    let all = passes(run.seconds, if run.traced { 2 } else { 1 }, |i| {
        let (seed, decorated) = match run.traced {
            true => (pass_seed(run.seed, i / 2), i % 2 == 1),
            false => (pass_seed(run.seed, i), false),
        };
        let pass = step_pass(&sizes, policies, seed, decorated);
        let secs = pass.wall_s;
        ((seed, pass), secs)
    });
    out.params.push(("passes", all.len().to_string()));

    out.digest = Some(all[0].1.digest);
    for (seed, pass) in &all {
        out.attempted += pass.launches + pass.skipped_launches + 1;
        out.failed += pass.skipped_launches + u64::from(!pass.invariants_ok);
        // Same seed, same simulated statistics: decorators may not
        // perturb results.
        let first = all.iter().find(|(s, _)| s == seed).expect("this pass");
        if first.1.digest != pass.digest {
            out.faults.push(format!(
                "{name}: passes of seed {seed} disagree on result_digest"
            ));
        }
    }

    let plain: Vec<&StepPass> = all
        .iter()
        .map(|(_, p)| p)
        .filter(|p| p.traced.is_none())
        .collect();
    let each = |f: &dyn Fn(&StepPass) -> f64| plain.iter().map(|p| f(p)).collect::<Vec<f64>>();
    let round_ms = |p: &StepPass, q| quantile(&p.round_ms, q);
    let n_rounds = sizes.rounds as usize;

    if !run.traced {
        let tail = pick_tail(n_rounds).unwrap_or(P50);
        let timings = n_rounds * plain.len();
        out.push_slot(
            "setup_s",
            Metric::median_of("setup_s", "s", plain.len(), each(&|p| p.setup_s)),
        );
        out.push_slot(
            "throughput_per_s",
            Metric::median_of(
                "rounds_per_s",
                "1/s",
                plain.len(),
                each(&|p| p.round_ms.len() as f64 / p.wall_s),
            ),
        );
        out.push(Metric::median_of(
            "sim_jobs_per_s",
            "1/s",
            plain.len(),
            each(&|p| p.completions as f64 / p.wall_s),
        ));
        out.push_slot(
            "latency_ms_p50",
            Metric::median_of("round_ms_p50", "ms", timings, each(&|p| round_ms(p, P50))),
        );
        out.push_slot(
            "latency_ms_tail",
            Metric::median_of(
                format!("round_ms_{}", label(tail)),
                "ms",
                timings,
                each(&|p| round_ms(p, tail)),
            )
            .note(format!("{} of {n_rounds} rounds per pass", label(tail))),
        );
        out.push_slot(
            "peak_rss_mb",
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
        );
        return out;
    }

    // Per-layer metrics come from the decorated passes; the undecorated
    // ones are the reference for the decorators' overhead.
    let decorated: Vec<&StepPass> = all
        .iter()
        .map(|(_, p)| p)
        .filter(|p| p.traced.is_some())
        .collect();
    let mut layer = LayerStats::default();
    for pass in &decorated {
        let (spans, counts) = pass.traced.as_ref().expect("decorated pass");
        layer.add_spans(spans);
        layer.counts.merge(counts);
        layer.stages.push(pass.stages);
        layer.wall_s += pass.wall_s;
        layer.rounds += pass.round_ms.len() as u64;
        layer.round_counts.merge(&pass.counts);
    }
    let traced_p50 = median(
        &decorated
            .iter()
            .map(|p| round_ms(p, P50))
            .collect::<Vec<_>>(),
    );
    let plain_p50 = median(&each(&|p| round_ms(p, P50)));
    layer.emit(&mut out);
    set(
        &mut out,
        "workloads.trace_gen_us_per_job",
        median(&each(&|p| p.trace_gen_us_per_job)),
        plain.len(),
    );
    set(
        &mut out,
        "trace.overhead_ratio",
        traced_p50 / plain_p50 - 1.0,
        decorated.len(),
    );
    if let Some(dir) = &run.out_dir {
        let (spans, _) = decorated[0].traced.as_ref().expect("decorated pass");
        if let Err(e) = trace::write_jsonl(&dir.join(format!("trace-{name}.jsonl")), "round", spans)
        {
            out.faults.push(format!("writing trace-{name}.jsonl: {e}"));
        }
    }
    out
}

pub fn sim_scale(run: &Run) -> Outcome {
    step_workload(run, "sim_scale", scale_sizes(run.smoke), scale_policies)
}

pub fn sim_churn(run: &Run) -> Outcome {
    step_workload(run, "sim_churn", churn_sizes(run.smoke), churn_policies)
}

// Per-layer aggregation ----------------------------------------------------------

/// Span durations and boundary counts pooled over the decorated passes
/// (or sweep trials) of one run.
#[derive(Default)]
pub struct LayerStats {
    durations: std::collections::BTreeMap<&'static str, Vec<f64>>,
    /// Self time of every `core.step` span, ms.
    step_self_ms: Vec<f64>,
    counts: PolicyCounts,
    stages: Vec<StageTimes>,
    round_counts: RoundCounts,
    wall_s: f64,
    rounds: u64,
    skipped_rounds: u64,
}

impl LayerStats {
    fn add_spans(&mut self, spans: &[Span]) {
        for (name, mut d) in durations_ms(spans) {
            self.durations.entry(name).or_default().append(&mut d);
        }
        for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            if span.name == "core.step" {
                self.step_self_ms.push(self_ns as f64 / 1e6);
            }
        }
    }

    fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Write every metric these spans and counts support into `out`.
    fn emit(&self, out: &mut Outcome) {
        let p50_and_tail = |out: &mut Outcome, span: &str, metric: &str| {
            let d = sorted(self.durations(span).to_vec());
            set(out, &format!("{metric}_p50"), percentile(&d, P50), d.len());
            let tail = pick_tail(d.len()).unwrap_or(P50);
            set(
                out,
                &format!("{metric}_tail"),
                percentile(&d, tail),
                d.len(),
            )
            .note = label(tail);
        };
        let mean_of = |out: &mut Outcome, span: &str, metric: &str| {
            let d = self.durations(span);
            set(out, metric, mean(d), d.len());
        };
        p50_and_tail(out, "core.step", "core.step_ms");
        set(
            out,
            "core.manager_self_ms_mean",
            mean(&self.step_self_ms),
            self.step_self_ms.len(),
        );
        p50_and_tail(out, "policies.schedule", "policies.schedule_ms");
        p50_and_tail(out, "policies.place", "policies.place_ms");
        p50_and_tail(out, "sim.update_metrics", "sim.update_metrics_ms");
        mean_of(out, "policies.admit", "policies.admit_ms_mean");
        mean_of(
            out,
            "policies.observe_delta",
            "policies.observe_delta_ms_mean",
        );
        mean_of(out, "sim.update_cluster", "sim.update_cluster_ms_mean");
        mean_of(out, "sim.pop_wait_queue", "sim.pop_wait_queue_ms_mean");
        mean_of(out, "sim.exec_jobs", "sim.exec_jobs_ms_mean");
        mean_of(out, "sim.observe_delta", "sim.observe_delta_ms_mean");
        mean_of(out, "sim.next_event_hint", "sim.next_event_hint_ms_mean");

        let stepped: u64 = self.stages.iter().map(|s| s.measured_rounds).sum();
        let mut stage_total_s = 0.0;
        for stage in Stage::ALL {
            let total: f64 = self.stages.iter().map(|s| s.total(stage)).sum();
            stage_total_s += total;
            set(
                out,
                &format!("core.stage_{}_ms_mean", stage.name()),
                total * 1e3 / stepped.max(1) as f64,
                stepped as usize,
            );
        }
        let count = |i: usize| self.round_counts.sums[i] / self.round_counts.rounds.max(1) as f64;
        let stepped_n = stepped as usize;
        set(out, "core.delta_jobs_per_round_mean", count(0), stepped_n);
        set(out, "core.launched_per_round_mean", count(1), stepped_n);
        set(out, "core.suspended_per_round_mean", count(2), stepped_n);
        set(out, "core.completed_per_round_mean", count(3), stepped_n);
        set(out, "sim.arrivals_per_round_mean", count(4), stepped_n);
        set(out, "core.active_jobs_mean", count(5), stepped_n);
        set(out, "core.waiting_jobs_mean", count(6), stepped_n);
        set(
            out,
            "core.skipped_round_ratio",
            self.skipped_rounds as f64 / self.rounds.max(1) as f64,
            self.rounds as usize,
        );
        set(
            out,
            "core.run_overhead_ratio",
            1.0 - stage_total_s / self.wall_s.max(1e-12),
            stepped_n,
        );

        let c = &self.counts;
        set(
            out,
            "policies.allocs_per_schedule_mean",
            c.allocations as f64 / c.schedules.max(1) as f64,
            c.schedules as usize,
        );
        set(
            out,
            "policies.place_launch_ratio",
            c.launches as f64 / c.waiting_at_place.max(1) as f64,
            c.waiting_at_place as usize,
        );
    }
}

// sim_sweep ----------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct SweepSizes {
    jobs: usize,
    /// Simulated hours each trial runs for.
    horizon_h: f64,
    nodes: u32,
    loads: Vec<f64>,
    /// Trace seeds per (policy, load) cell.
    seeds: usize,
}

fn sweep_sizes(smoke: bool) -> SweepSizes {
    SweepSizes {
        jobs: if smoke { 100 } else { 1400 },
        horizon_h: if smoke { 8.0 } else { 120.0 },
        nodes: 32,
        loads: vec![2.0, 4.0, 6.0, 8.0, 9.0],
        seeds: 2,
    }
}

#[cfg(test)]
impl SweepSizes {
    /// A grid small enough for an unoptimised test run.
    pub fn tiny() -> Self {
        SweepSizes {
            jobs: 45,
            horizon_h: 3.0,
            nodes: 8,
            loads: vec![4.0, 9.0],
            seeds: 1,
        }
    }
}

impl SweepSizes {
    /// Every trial simulates the same span. (The paper's tracked-window
    /// stop ends a trial when the slowest of ~200 heavy-tailed jobs
    /// finishes, which makes a trial's length, and so the benchmark's
    /// run time, swing by tens of percent from one trace seed to the
    /// next; a fixed horizon keeps the work per trial a property of the
    /// policy and the load.)
    fn stop(&self) -> StopCondition {
        StopCondition::TimeLimit(self.horizon_h * 3600.0)
    }
}

/// The trace seeds of pass `pass`: each pass takes the next
/// `sizes.seeds` seeds of the run's stream, so no two passes share a trace.
fn sweep_seeds(sizes: &SweepSizes, seed: u64, pass: usize) -> Vec<u64> {
    (0..sizes.seeds)
        .map(|i| pass_seed(seed, pass * sizes.seeds + i))
        .collect()
}

/// A named scheduling-policy constructor: one row of the sweep's policy axis.
type NamedScheduling = (&'static str, fn() -> Box<dyn SchedulingPolicy>);

fn sweep_policy_sets() -> Vec<NamedScheduling> {
    vec![
        ("fifo", || Box::new(Fifo::new())),
        ("las", || Box::new(Las::new())),
        ("tiresias", || Box::new(Tiresias::new())),
        ("optimus", || Box::new(Optimus::new())),
        ("pollux", || Box::new(Pollux::new())),
    ]
}

fn sweep_trace(sizes: &SweepSizes, load: f64, seed: u64) -> Trace {
    PhillyTraceGen::new(&ModelZoo::standard(), load).generate(sizes.jobs, seed)
}

struct SweepPass {
    setup_s: f64,
    wall_s: f64,
    trial_ms: Vec<f64>,
    completions: usize,
    /// Rounds executed and rounds skipped, summed over trials.
    rounds: (u64, u64),
    digest: u64,
    stats: Vec<RunStats>,
}

/// Set-up of a sweep is what a user waits for before the first trial can
/// start: every input of the grid generated and checked once, one cluster
/// built. (The engine builds each trial's own copies again inside the
/// trial, which the trial times include.) It takes milliseconds, so each
/// pass times it [`SWEEP_SETUP_REPEATS`] times and keeps the median. The
/// first pass of a process reads about 40 % above later ones, every repeat
/// of it (allocator state of a young process, not cache warm-up);
/// `--check` pairs passes by position, so the offset cancels there.
fn sweep_setup_s(sizes: &SweepSizes, seeds: &[u64]) -> f64 {
    let repeats: Vec<f64> = (0..SWEEP_SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            for &load in &sizes.loads {
                for &seed in seeds {
                    let trace = sweep_trace(sizes, load, seed);
                    assert!(
                        trace.len() == sizes.jobs && trace.span() > sizes.horizon_h * 3600.0,
                        "arrivals keep coming for the whole horizon at {load} jobs/h"
                    );
                }
            }
            assert_eq!(cluster_of_v100(sizes.nodes).total_gpus(), sizes.nodes * 4);
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&repeats)
}

/// One parallel `SweepGrid` of policies × loads over the traces of `seeds`.
///
/// The trace factory is the first thing each trial calls on its worker
/// thread, so consecutive calls on one thread bracket one trial: that is
/// how per-trial wall times are read without touching the engine.
fn sweep_pass(sizes: &SweepSizes, seeds: &[u64], threads: usize) -> SweepPass {
    let setup_s = sweep_setup_s(sizes, seeds);
    let starts: Arc<Mutex<Vec<(std::thread::ThreadId, Instant)>>> = Arc::default();
    let factory_starts = starts.clone();
    let factory_sizes = sizes.clone();
    let mut builder = SweepGrid::builder()
        .trace(move |load, seed| {
            factory_starts
                .lock()
                .expect("trial-start log")
                .push((std::thread::current().id(), Instant::now()));
            sweep_trace(&factory_sizes, load, seed)
        })
        .cluster_v100(sizes.nodes)
        .loads(&sizes.loads)
        .seeds(seeds)
        .stop(sizes.stop())
        .round_duration(ROUND_S)
        .mode(ExecMode::EventDriven)
        .threads(threads);
    for (name, scheduling) in sweep_policy_sets() {
        builder = builder.policy(PolicySet::new(
            name,
            || Box::new(AcceptAll::new()),
            scheduling,
            || Box::new(ConsolidatedPlacement::preferred()),
        ));
    }
    let grid = builder.build();

    let start = Instant::now();
    let report = grid.run();
    let end = Instant::now();
    let wall_s = (end - start).as_secs_f64();

    let mut starts = std::mem::take(&mut *starts.lock().expect("trial-start log"));
    starts.sort_by_key(|(_, at)| *at);
    let trial_ms = starts
        .iter()
        .enumerate()
        .map(|(i, (thread, at))| {
            let next = starts[i + 1..]
                .iter()
                .find(|(t, _)| t == thread)
                .map_or(end, |(_, at)| *at);
            (next - *at).as_secs_f64() * 1e3
        })
        .collect();
    let stats: Vec<RunStats> = report.trials.into_iter().map(|t| t.stats).collect();
    SweepPass {
        setup_s,
        wall_s,
        trial_ms,
        completions: stats.iter().map(|s| s.records.len()).sum(),
        rounds: (
            stats.iter().map(|s| s.rounds - s.skipped_rounds).sum(),
            stats.iter().map(|s| s.skipped_rounds).sum(),
        ),
        digest: sweep_digest(&stats),
        stats,
    }
}

fn sweep_digest(stats: &[RunStats]) -> u64 {
    fnv1a(
        stats
            .iter()
            .map(|s| format!("{s:?}\n"))
            .collect::<String>()
            .as_bytes(),
    )
}

/// `BloxManager::run` spelled out over public calls, so a span can sit
/// around each step; the decorated-vs-undecorated test pins the two to
/// the same result.
pub fn run_traced<B: Backend>(
    mgr: &mut BloxManager<B>,
    (admit, schedule, place): &mut Policies,
    rec: &Shared,
    counts: &mut RoundCounts,
) -> RunStats {
    let mut round = 0;
    while !mgr.should_stop() {
        let k = mgr.skippable_rounds(admit.as_mut(), schedule.as_mut(), place.as_mut(), None);
        mgr.apply_skip(k);
        if mgr.should_stop() {
            break;
        }
        rec.lock().expect("recorder lock").set_key(round);
        let out = trace::timed(rec, "core.step", || {
            mgr.step(admit.as_mut(), schedule.as_mut(), place.as_mut())
        });
        counts.add(&out, mgr.jobs());
        round += 1;
    }
    mgr.stats().clone()
}

/// What the decorated serial grid measured besides `LayerStats`.
struct TracedSweep {
    stats: Vec<RunStats>,
    trial_ms: Vec<f64>,
    trace_gen_us_per_job: Vec<f64>,
}

/// The same grid as [`sweep_pass`], one decorated trial at a time on this
/// thread, pooling spans and counts into `layer`.
fn sweep_pass_traced(sizes: &SweepSizes, seeds: &[u64], layer: &mut LayerStats) -> TracedSweep {
    let mut out = TracedSweep {
        stats: Vec::new(),
        trial_ms: Vec::new(),
        trace_gen_us_per_job: Vec::new(),
    };
    let cells = sizes
        .loads
        .iter()
        .flat_map(|l| seeds.iter().map(move |s| (*l, *s)));
    for (_, scheduling) in sweep_policy_sets() {
        for (load, seed) in cells.clone() {
            let tracing = Tracing::new(1 << 16);
            let start = Instant::now();
            let trace = sweep_trace(sizes, load, seed);
            out.trace_gen_us_per_job
                .push(start.elapsed().as_secs_f64() * 1e6 / trace.len() as f64);
            let mut mgr = BloxManager::new(
                TimedBackend::new(SimBackend::new(trace), tracing.rec.clone()),
                cluster_of_v100(sizes.nodes),
                RunConfig {
                    round_duration: ROUND_S,
                    max_rounds: SWEEP_MAX_ROUNDS,
                    stop: sizes.stop(),
                    mode: ExecMode::EventDriven,
                },
            );
            let mut policies = decorate(
                (
                    Box::new(AcceptAll::new()),
                    scheduling(),
                    Box::new(ConsolidatedPlacement::preferred()),
                ),
                &tracing,
            );
            let run_start = Instant::now();
            let stats = trace::timed(&tracing.rec, "core.run", || {
                run_traced(
                    &mut mgr,
                    &mut policies,
                    &tracing.rec,
                    &mut layer.round_counts,
                )
            });
            layer.wall_s += run_start.elapsed().as_secs_f64();
            out.trial_ms.push(start.elapsed().as_secs_f64() * 1e3);
            layer.add_spans(tracing.rec.lock().expect("recorder lock").spans());
            layer
                .counts
                .merge(&tracing.counts.lock().expect("counts lock"));
            layer.stages.push(stats.stage_times);
            layer.rounds += stats.rounds;
            layer.skipped_rounds += stats.skipped_rounds;
            out.stats.push(stats);
        }
    }
    out
}

pub fn sim_sweep(run: &Run) -> Outcome {
    sweep_workload(run, sweep_sizes(run.smoke))
}

pub fn sweep_workload(run: &Run, sizes: SweepSizes) -> Outcome {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let trials = sweep_policy_sets().len() * sizes.loads.len() * sizes.seeds;
    let mut out = if run.traced {
        layers::blank()
    } else {
        Outcome::default()
    };
    out.params = vec![
        ("policies", "fifo,las,tiresias,optimus,pollux".into()),
        ("loads_jobs_per_hour", format!("{:?}", sizes.loads)),
        ("seeds_per_cell", sizes.seeds.to_string()),
        ("jobs_per_trace", sizes.jobs.to_string()),
        ("horizon_h", sizes.horizon_h.to_string()),
        ("nodes", sizes.nodes.to_string()),
        ("trials_per_pass", trials.to_string()),
        ("threads", threads.to_string()),
    ];

    if run.traced {
        // Three runs of one grid: parallel (the reference wall time),
        // serial undecorated (the reference CPU time), serial decorated.
        let seeds = sweep_seeds(&sizes, run.seed, 0);
        let parallel = sweep_pass(&sizes, &seeds, threads);
        let serial = sweep_pass(&sizes, &seeds, 1);
        let mut layer = LayerStats::default();
        let traced = sweep_pass_traced(&sizes, &seeds, &mut layer);
        out.digest = Some(sweep_digest(&traced.stats));
        out.attempted = 3 * trials as u64;
        if out.digest != Some(parallel.digest) || out.digest != Some(serial.digest) {
            out.failed += 1;
            out.faults.push(
                "sim_sweep: parallel, serial and decorated grids disagree on result_digest".into(),
            );
        }
        layer.emit(&mut out);
        set(
            &mut out,
            "workloads.trace_gen_us_per_job",
            mean(&traced.trace_gen_us_per_job),
            trials,
        );
        let serial_ms = sorted(serial.trial_ms.clone());
        set(
            &mut out,
            "sim.sweep_trial_ms_p50",
            percentile(&serial_ms, P50),
            trials,
        );
        set(
            &mut out,
            "sim.sweep_trial_ms_max",
            serial_ms.last().copied().unwrap_or(0.0),
            trials,
        );
        set(
            &mut out,
            "sim.sweep_parallel_efficiency",
            serial.wall_s / (threads as f64 * parallel.wall_s),
            trials,
        );
        set(
            &mut out,
            "trace.overhead_ratio",
            traced.trial_ms.iter().sum::<f64>() / serial.trial_ms.iter().sum::<f64>() - 1.0,
            trials,
        );
        return out;
    }

    let all = passes(run.seconds, 1, |i| {
        let pass = sweep_pass(&sizes, &sweep_seeds(&sizes, run.seed, i), threads);
        let secs = pass.wall_s;
        (pass, secs)
    });
    out.params.push(("passes", all.len().to_string()));
    out.digest = Some(all[0].digest);
    for pass in &all {
        out.attempted += trials as u64;
        // A trial that hit the round cap, or finished nothing, did not
        // simulate its horizon.
        out.failed += pass
            .stats
            .iter()
            .filter(|s| s.rounds >= SWEEP_MAX_ROUNDS || s.records.is_empty())
            .count() as u64;
    }
    let each = |f: &dyn Fn(&SweepPass) -> f64| all.iter().map(f).collect::<Vec<f64>>();
    let trial_ms = |p: &SweepPass, q| quantile(&p.trial_ms, q);
    let tail = pick_tail(trials).unwrap_or(P50);
    let per_s = |count: &dyn Fn(&SweepPass) -> f64| each(&|p| count(p) / p.wall_s);
    out.push_slot(
        "setup_s",
        Metric::median_of("setup_s", "s", all.len(), each(&|p| p.setup_s)),
    );
    out.push_slot(
        "throughput_per_s",
        Metric::median_of("trials_per_s", "1/s", all.len(), per_s(&|_| trials as f64)),
    );
    out.push(Metric::median_of(
        "sim_jobs_per_s",
        "1/s",
        all.len(),
        per_s(&|p| p.completions as f64),
    ));
    out.push(Metric::median_of(
        "rounds_per_s",
        "1/s",
        all.len(),
        per_s(&|p| p.rounds.0 as f64),
    ));
    out.push_slot(
        "latency_ms_p50",
        Metric::median_of(
            "trial_ms_p50",
            "ms",
            trials * all.len(),
            each(&|p| trial_ms(p, P50)),
        ),
    );
    out.push_slot(
        "latency_ms_tail",
        Metric::median_of(
            format!("trial_ms_{}", label(tail)),
            "ms",
            trials * all.len(),
            each(&|p| trial_ms(p, tail)),
        )
        .note(format!("{} of {trials} trials per pass", label(tail))),
    );
    out.push_slot(
        "peak_rss_mb",
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
    );
    out
}
