//! Chaos sweep: JCT degradation and failure-recovery time vs fault rate.
//!
//! Two experiments over the deterministic fault-injection layer:
//!
//! 1. **Stale-metrics degradation (simulator)** — loss-based termination
//!    (Figure 16's metric-driven policy) under increasing status-report
//!    drop rates. Dropped `loss` reports delay the convergence verdict,
//!    so average JCT climbs toward the epoch-based ceiling as the report
//!    path degrades: the cost of running a metric-driven policy on a
//!    lossy cluster, quantified.
//! 2. **Crash recovery (networked)** — a real loopback-TCP cluster whose
//!    worker links follow a seeded `FaultPlan`; one node is crashed
//!    mid-run and the sweep measures the simulated seconds from the crash
//!    until every affected job is running again (detection via heartbeat
//!    deadline + requeue + relaunch, with the stall detector absorbing
//!    dropped `Launch` messages at higher fault rates).
//!
//! `BLOX_BENCH_JSON=BENCH_chaos.json cargo run --release -p blox-bench
//! --bin chaos` appends one JSON line per measured point.

use std::io::Write as _;
use std::time::Duration;

use blox_bench::{banner, philly_trace, row, s0, shape_check, PhillySetup};
use blox_core::cluster::ClusterState;
use blox_core::fault::{FaultPlan, LinkFaults};
use blox_core::job::JobStatus;
use blox_core::manager::{BloxManager, ExecMode, RunConfig, StopCondition};
use blox_core::metrics::RunStats;
use blox_net::client::{submit, JobRequest};
use blox_net::node::{spawn_node, NodeConfig};
use blox_net::sched::{NetBackend, SchedulerConfig};
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::{Fifo, LossTermination};
use blox_runtime::runtime::RuntimeConfig;
use blox_sim::{cluster_of_v100, SimBackend};

/// Append one JSON line to the file named by `BLOX_BENCH_JSON` (the bench
/// harness convention); no-op when unset.
fn emit_json(line: &str) {
    let Ok(path) = std::env::var("BLOX_BENCH_JSON") else {
        return;
    };
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = appended {
        eprintln!("BLOX_BENCH_JSON: failed to append to {path}: {e}");
    }
}

/// Experiment 1: simulator run with loss termination under a report-drop
/// fault plan.
fn faulty_sim_jct(setup: &PhillySetup, drop_p: f64) -> f64 {
    let trace = philly_trace(setup, 7.0)
        .assign_early_convergence(0.75, 0.4, 13)
        .with_loss_termination(0.001);
    let backend = SimBackend::new(trace).with_faults(
        FaultPlan::new(0xC7A0_5000 + (drop_p * 100.0) as u64).with_base(LinkFaults {
            drop_p,
            ..LinkFaults::default()
        }),
    );
    let mut mgr = BloxManager::new(
        backend,
        cluster_of_v100(setup.nodes),
        RunConfig {
            round_duration: 300.0,
            max_rounds: 500_000,
            stop: StopCondition::AllJobsDone,
            mode: ExecMode::FixedRounds,
        },
    );
    let stats = mgr.run(
        &mut AcceptAll::new(),
        &mut LossTermination::new(Fifo::new()),
        &mut ConsolidatedPlacement::preferred(),
    );
    stats.summary().avg_jct
}

/// Outcome of one networked recovery trial.
struct RecoveryTrial {
    recovery_sim_s: f64,
    failures: u32,
    stalls: u32,
    stats: RunStats,
}

/// Experiment 2: loopback-TCP cluster under link faults; crash one node
/// and measure simulated time to full recovery (every active job running
/// again on the survivors).
fn net_recovery(drop_p: f64, jobs: usize, iters: f64) -> RecoveryTrial {
    const TIME_SCALE: f64 = 1e-4;
    let backend = NetBackend::bind(SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale: TIME_SCALE,
            emu_iter_sim_s: 30.0,
        },
        heartbeat_sim_s: 60.0,
        heartbeat_misses: 3,
        stall_rounds: 4,
        ..SchedulerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = backend.addr();
    let plan = FaultPlan::new(0x5EED_0000 + (drop_p * 100.0) as u64).with_base(LinkFaults {
        drop_p,
        ..LinkFaults::default()
    });
    let mut nodes: Vec<_> = (0..3)
        .map(|_| {
            spawn_node(NodeConfig {
                faults: (!plan.is_quiet()).then(|| plan.clone()),
                ..NodeConfig::new(addr, 4, false)
            })
        })
        .collect();
    let victim = nodes.pop().expect("three nodes");

    let requests: Vec<JobRequest> = (0..jobs)
        .map(|_| JobRequest {
            gpus: 2,
            total_iters: iters,
            model: "emu-chaos".into(),
        })
        .collect();
    let submitter = std::thread::spawn(move || submit(addr, &requests));

    let mut backend = backend;
    let mut cluster = ClusterState::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while backend.nodes_joined() < 3 {
        assert!(std::time::Instant::now() < deadline, "registration timeout");
        backend.poll(&mut cluster);
        std::thread::sleep(Duration::from_millis(5));
    }
    backend.expect_jobs(jobs as u64);
    backend.begin_rounds();
    let mut mgr = BloxManager::new(
        backend,
        cluster,
        RunConfig {
            round_duration: 300.0,
            max_rounds: 1_000_000,
            stop: StopCondition::TrackedWindowDone {
                lo: 0,
                hi: jobs as u64 - 1,
            },
            mode: ExecMode::FixedRounds,
        },
    );
    let (mut adm, mut sched, mut place) = (
        AcceptAll::new(),
        Fifo::new(),
        ConsolidatedPlacement::preferred(),
    );

    // Let placements settle, then crash the victim.
    let crash_at = mgr.now() + 3_000.0;
    let mut crash_time = None;
    let mut recovered_at = None;
    let wall_deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !mgr.should_stop() && std::time::Instant::now() < wall_deadline {
        mgr.step(&mut adm, &mut sched, &mut place);
        if crash_time.is_none() && mgr.now() >= crash_at {
            victim.crash();
            crash_time = Some(mgr.now());
        }
        if let Some(tc) = crash_time {
            // Recovered: the failure was detected and every still-active
            // job holds GPUs again on the survivors.
            if recovered_at.is_none()
                && mgr.backend().failures_detected() >= 1
                && mgr.jobs().active_count() > 0
                && mgr.jobs().active().all(|j| j.status == JobStatus::Running)
            {
                recovered_at = Some(mgr.now() - tc);
            }
            // The sweep only measures recovery; stop once observed (or
            // the run drains first).
            if recovered_at.is_some() {
                break;
            }
        }
    }
    let trial = RecoveryTrial {
        recovery_sim_s: recovered_at.unwrap_or(f64::NAN),
        failures: mgr.backend().failures_detected(),
        stalls: mgr.backend().stalls_detected(),
        stats: mgr.stats().clone(),
    };
    drop(mgr);
    let _ = victim.join();
    for node in &nodes {
        node.crash();
    }
    for node in nodes {
        let _ = node.join();
    }
    let _ = submitter.join();
    trial
}

fn main() {
    banner(
        "Chaos sweep: deterministic fault injection",
        "Metric-driven JCT degrades as report drops increase; node failures recover within a few rounds, slower on lossier links",
    );
    let scale = blox_bench::scale();

    // Experiment 1: stale metrics vs loss termination.
    let setup = PhillySetup {
        n_jobs: (200.0 * scale) as usize,
        ..Default::default()
    };
    let rates = [0.0, 0.25, 0.5, 0.75, 1.0];
    row(&["report_drop_p,avg_jct,vs_clean".into()]);
    let mut jcts = Vec::new();
    for &drop_p in &rates {
        let avg = faulty_sim_jct(&setup, drop_p);
        let baseline = jcts.first().copied().unwrap_or(avg);
        row(&[
            format!("{drop_p:.2}"),
            s0(avg),
            format!("{:.3}", avg / baseline),
        ]);
        emit_json(&format!(
            "{{\"name\":\"chaos/jct_vs_drop/{drop_p:.2}\",\"avg_jct\":{avg:.3},\"ratio_vs_clean\":{:.6}}}",
            avg / baseline
        ));
        jcts.push(avg);
    }
    shape_check(
        "losing every loss report costs JCT vs a clean report path",
        jcts.last() >= jcts.first(),
    );

    // Experiment 2: networked crash recovery vs link drop rate.
    // Demand (2 GPUs each) must fit the 8 surviving GPUs after the
    // crash, or "every job running again" would measure queueing for
    // capacity rather than recovery.
    let jobs = ((4.0 * scale) as usize).clamp(2, 4);
    let iters = 60_000.0;
    row(&["link_drop_p,recovery_sim_s,failures,stalls,preemptions".into()]);
    let mut recoveries = Vec::new();
    for &drop_p in &[0.0, 0.1, 0.2] {
        let trial = net_recovery(drop_p, jobs, iters);
        let preemptions: u32 = trial.stats.records.iter().map(|r| r.preemptions).sum();
        row(&[
            format!("{drop_p:.2}"),
            s0(trial.recovery_sim_s),
            trial.failures.to_string(),
            trial.stalls.to_string(),
            preemptions.to_string(),
        ]);
        emit_json(&format!(
            "{{\"name\":\"chaos/recovery_vs_drop/{drop_p:.2}\",\"recovery_sim_s\":{:.3},\"failures\":{},\"stalls\":{}}}",
            trial.recovery_sim_s, trial.failures, trial.stalls
        ));
        recoveries.push(trial);
    }
    shape_check(
        "every trial detects the crash and recovers",
        recoveries
            .iter()
            .all(|t| t.failures >= 1 && t.recovery_sim_s.is_finite() && t.recovery_sim_s >= 0.0),
    );
    shape_check(
        "recovery completes within a handful of rounds even under loss",
        recoveries.iter().all(|t| t.recovery_sim_s <= 40.0 * 300.0),
    );
}
