//! Tests that cross modules: the decorators against the product run loop,
//! `--check` against `BENCHMARK.json`'s shape, and the metric lists
//! against `BENCHMARK.json` itself.

use blox_core::manager::{BloxManager, ExecMode, RunConfig, StopCondition};
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::Tiresias;
use blox_sim::{cluster_of_v100, SimBackend};
use blox_workloads::{ModelZoo, PhillyTraceGen};

use crate::check::{compare, verdict, worsening, Status};
use crate::json::{self, Value};
use crate::{layers, sim, trace, Run, WORKLOADS};

fn config(mode: ExecMode) -> RunConfig {
    RunConfig {
        round_duration: 300.0,
        max_rounds: 200,
        stop: StopCondition::AllJobsDone,
        mode,
    }
}

#[test]
fn decorated_and_undecorated_runs_produce_identical_stats() {
    for mode in [ExecMode::FixedRounds, ExecMode::EventDriven] {
        let jobs = || PhillyTraceGen::new(&ModelZoo::standard(), 30.0).generate(120, 5);
        let mut plain = BloxManager::new(SimBackend::new(jobs()), cluster_of_v100(8), config(mode));
        let expected = plain.run(
            &mut AcceptAll::new(),
            &mut Tiresias::new(),
            &mut ConsolidatedPlacement::preferred(),
        );

        let tracing = sim::Tracing::new(4096);
        let mut traced = BloxManager::new(
            trace::TimedBackend::new(SimBackend::new(jobs()), tracing.rec.clone()),
            cluster_of_v100(8),
            config(mode),
        );
        let mut policies = sim::decorate(
            (
                Box::new(AcceptAll::new()),
                Box::new(Tiresias::new()),
                Box::new(ConsolidatedPlacement::preferred()),
            ),
            &tracing,
        );
        let rec = tracing.rec.clone();
        let got = sim::run_traced(
            &mut traced,
            &mut policies,
            &rec,
            &mut sim::RoundCounts::default(),
        );

        assert_eq!(expected.rounds, 200, "the run uses its whole round budget");
        assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{mode:?}");
        // Every executed round left a step span with its children inside.
        let rec = rec.lock().unwrap();
        let steps = rec.spans().iter().filter(|s| s.name == "core.step").count() as u64;
        assert_eq!(steps, expected.rounds - expected.skipped_rounds);
    }
}

fn result_file(round_ms_p50: f64, passes: [f64; 3], failed: u64) -> Value {
    let text = format!(
        r#"{{"records":[{{"workload":"sim_scale","traced":false,"failed":{failed},"correct":{},
            "result_digest":"00ff","metrics":{{
              "round_ms_p50":{{"value":{round_ms_p50},"unit":"ms","slot":"latency_ms_p50","passes":{passes:?}}},
              "sim_jobs_per_s":{{"value":10.0,"unit":"1/s"}}}}}}]}}"#,
        failed == 0
    );
    json::parse(&text).expect("test file is valid JSON")
}

fn benchmark_with_bound(bound: f64) -> Value {
    json::parse(&format!(
        r#"{{"end_to_end":[{{"name":"latency_ms_p50","unit":"ms","better":"lower","bound":{bound}}}]}}"#
    ))
    .expect("valid")
}

#[test]
fn check_flags_a_six_percent_worsening_and_passes_two_percent() {
    let bench = benchmark_with_bound(0.05);
    let steady = |v: f64| result_file(v, [v * 0.99, v, v * 1.01], 0);
    assert_eq!(compare(&steady(30.0), &steady(30.6), &bench), Ok(true));
    assert_eq!(compare(&steady(30.0), &steady(31.8), &bench), Ok(false));
    // Passes that disagree with their counterparts by more than the bound
    // leave the comparison unresolved, which is not a failure...
    let noisy = result_file(30.6, [27.0, 30.6, 34.0], 0);
    assert_eq!(compare(&steady(30.0), &noisy, &bench), Ok(true));
    // ...while an offset both files share (a slow first pass) cancels.
    let offset = |v: f64| result_file(v, [v * 1.4, v, v], 0);
    assert_eq!(compare(&offset(30.0), &offset(31.8), &bench), Ok(false));
    // An improvement is never a regression.
    assert_eq!(compare(&steady(30.0), &steady(20.0), &bench), Ok(true));
    // A failed operation fails the check whatever the timings say.
    assert_eq!(
        compare(&steady(30.0), &result_file(30.0, [30.0; 3], 1), &bench),
        Ok(false)
    );
    // A workload missing from the second file fails it too.
    let empty = json::parse(r#"{"records":[]}"#).unwrap();
    assert_eq!(compare(&steady(30.0), &empty, &bench), Ok(false));
}

#[test]
fn verdict_calls_wide_spreads_unresolved() {
    assert_eq!(worsening(100.0, 106.0, true), 0.06);
    assert_eq!(worsening(100.0, 94.0, false), 0.06);
    assert_eq!(verdict(0.06, 0.01, 0.05), Status::Regressed);
    assert_eq!(verdict(0.02, 0.01, 0.05), Status::Ok);
    assert_eq!(verdict(0.02, 0.08, 0.05), Status::Unresolved);
    assert_eq!(verdict(0.30, 0.08, 0.05), Status::Unresolved);
}

/// `BENCHMARK.json` sits two levels up from this file's crate.
fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json is valid JSON")
}

fn names(list: &Value) -> Vec<&str> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name"))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_spine_reports() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(bench.get("workloads").unwrap()), workloads);
    let per_layer: Vec<&str> = layers::PER_LAYER.iter().map(|(n, ..)| *n).collect();
    assert_eq!(names(bench.get("per_layer").unwrap()), per_layer);
    assert_eq!(
        bench.get("run_seconds").and_then(Value::as_f64),
        Some(crate::RUN_SECONDS)
    );
}

/// One untraced and one traced smoke run of a workload: every end-to-end
/// slot filled and non-zero, every per-layer metric present, and the same
/// digest from both.
fn check_smoke(name: &str, workload: &dyn Fn(&Run) -> crate::record::Outcome) {
    let bench = benchmark_json();
    let slots = names(bench.get("end_to_end").unwrap());
    let mut run = Run {
        seed: 1,
        seconds: 0.05,
        traced: false,
        smoke: true,
        out_dir: None,
    };
    let plain = workload(&run);
    assert!(plain.correct(), "{name}: {:?}", plain.faults);
    let got: Vec<&str> = plain.slots.iter().map(|(s, _)| *s).collect();
    assert_eq!(got, slots, "{name}");
    assert!(plain
        .slots
        .iter()
        .all(|(_, i)| plain.metrics[*i].value > 0.0));
    run.traced = true;
    let traced = workload(&run);
    assert!(traced.correct(), "{name}: {:?}", traced.faults);
    assert_eq!(traced.metrics.len(), layers::PER_LAYER.len());
    assert_eq!(
        traced.digest, plain.digest,
        "{name}: decorators changed the results"
    );
}

// The live workloads have their own smoke test in `net`; timing them under
// a parallel, unoptimised test run would only measure the test harness.
#[test]
fn sim_smoke_runs_fill_every_slot_and_every_layer_metric() {
    for (name, workload) in &WORKLOADS[1..3] {
        check_smoke(name, workload);
    }
    check_smoke("sim_sweep", &|run| {
        sim::sweep_workload(run, sim::SweepSizes::tiny())
    });
}
