//! Smoke tests: every figure/table reproduction binary runs to
//! completion on a tiny trace.
//!
//! Each test launches the corresponding compiled binary (via the
//! `CARGO_BIN_EXE_*` variables cargo sets for integration tests) with
//! `BLOX_SCALE=0.02`, which shrinks every trace to a few dozen jobs. A
//! binary that panics, deadlocks into the 10-minute kill window, or
//! exits non-zero fails its test. The full-scale sweep remains
//! `cargo run --release -p blox-bench --bin run_all`.

use std::process::Command;

/// Scale factor that keeps every experiment under a few seconds.
const SMOKE_SCALE: &str = "0.02";

/// Run one binary at the smoke scale; returns its stdout.
fn run_smoke(bin_path: &str) -> String {
    let output = Command::new(bin_path)
        .env("BLOX_SCALE", SMOKE_SCALE)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin_path}: {e}"));
    assert!(
        output.status.success(),
        "{bin_path} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(
        !output.stdout.is_empty(),
        "{bin_path} produced no output; expected experiment rows"
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

macro_rules! smoke_test {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                run_smoke(env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
            }
        )*
    };
}

smoke_test!(
    chaos,
    fig03_pollux_repro,
    fig04_tiresias_repro,
    fig05_synergy_repro,
    fig06_jct_vs_load,
    fig07_responsiveness_vs_load,
    fig08_pollux_jct,
    fig09_pollux_responsiveness,
    fig10_placement_v100,
    fig11_placement_profiles,
    fig12_admission_compose,
    fig13_admission_spike,
    fig14_auto_synth,
    fig15_auto_synth_timeline,
    fig16_loss_termination,
    fig19_lease_renewal,
    fig20_auto_synth_multiobj,
    fig21_auto_synth_multiobj_timeline,
    table4_intranode_bandwidth,
);

/// fig18 ignores `BLOX_SCALE` and runs in about 2 s, so its fidelity
/// check guards the in-process runtime on every run: the shape must hold,
/// not only the exit code.
#[test]
fn fig18_sim_fidelity() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_fig18_sim_fidelity"));
    assert!(
        stdout.contains("shape[sim and runtime agree within 15% avg per-job]: HOLDS"),
        "fig18 fidelity check failed:\n{stdout}"
    );
}

/// The scale benchmark takes `--quick` (no `BLOX_SCALE` wiring: its
/// dimensions are explicit) and must run to completion and emit its JSON
/// lines — the per-PR CI smoke for the state-layer benchmark.
#[test]
fn scale() {
    let bin = env!("CARGO_BIN_EXE_scale");
    let tmp = std::env::temp_dir().join(format!("blox-scale-smoke-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&tmp);
    let output = Command::new(bin)
        .arg("--quick")
        .env("BLOX_BENCH_JSON", &tmp)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        output.status.success(),
        "scale --quick exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let json = std::fs::read_to_string(&tmp).expect("scale must write BLOX_BENCH_JSON");
    let _ = std::fs::remove_file(&tmp);
    assert!(
        json.contains("\"name\":\"scale/state_layer_round\"") && json.contains("\"speedup\":"),
        "scale JSON missing expected fields: {json}"
    );
    assert!(
        json.contains("\"name\":\"scale/pipeline_round\"") && json.contains("\"collect_ms\":"),
        "scale JSON missing stage telemetry: {json}"
    );
}

/// The `cluster_deployment` example doubles as the deployment-fidelity
/// smoke check: it runs the same policies on the in-process runtime and
/// then on the `blox-net` TCP deployment. Examples belong to the root
/// `blox` package, so no `CARGO_BIN_EXE_*` variable exists for them;
/// resolve the compiled example from this test binary's target directory
/// (a workspace `cargo test` builds examples before running tests).
#[test]
fn cluster_deployment_example() {
    let exe = std::env::current_exe().expect("current test binary path");
    let target_dir = exe
        .parent() // target/<profile>/deps
        .and_then(|p| p.parent()) // target/<profile>
        .expect("test binary lives in target/<profile>/deps");
    let mut example = target_dir.join("examples").join("cluster_deployment");
    if cfg!(windows) {
        example.set_extension("exe");
    }
    if !example.exists() {
        // Package-scoped runs (`cargo test -p blox-bench`) build only this
        // package's targets; compile the root example ourselves.
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut build = Command::new(cargo);
        build.args(["build", "-p", "blox", "--example", "cluster_deployment"]);
        if target_dir.ends_with("release") {
            build.arg("--release");
        }
        let status = build.status().expect("launch cargo build for the example");
        assert!(
            status.success(),
            "building examples/cluster_deployment failed"
        );
    }
    assert!(
        example.exists(),
        "{} still missing after `cargo build --example cluster_deployment`",
        example.display()
    );
    run_smoke(example.to_str().expect("utf-8 path"));
}

/// Locate a compiled binary of a sibling workspace package (no
/// `CARGO_BIN_EXE_*` variable exists across packages); build it if a
/// package-scoped test run skipped it.
fn sibling_binary(package: &str, bin: &str) -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("current test binary path");
    let target_dir = exe
        .parent() // target/<profile>/deps
        .and_then(|p| p.parent()) // target/<profile>
        .expect("test binary lives in target/<profile>/deps");
    let mut path = target_dir.join(bin);
    if cfg!(windows) {
        path.set_extension("exe");
    }
    if !path.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut build = Command::new(cargo);
        build.args(["build", "-p", package, "--bin", bin]);
        if target_dir.ends_with("release") {
            build.arg("--release");
        }
        let status = build.status().expect("launch cargo build");
        assert!(status.success(), "building {package}::{bin} failed");
    }
    assert!(path.exists(), "{} still missing", path.display());
    path
}

/// Daemon smoke for the crash-recovery surface: `bloxschedd --restore`
/// must decode a checkpoint, resume the run, and terminate cleanly. The
/// snapshot already has its whole tracked window finished, so the
/// restored scheduler prints the restored summary and exits without
/// needing any worker.
#[test]
fn bloxschedd_restore_flag() {
    use blox_core::cluster::{ClusterState, NodeSpec};
    use blox_core::ids::JobId;
    use blox_core::job::{Job, JobStatus};
    use blox_core::metrics::RunStats;
    use blox_core::profile::JobProfile;
    use blox_core::snapshot::Snapshot;
    use blox_core::state::JobState;

    let mut cluster = ClusterState::new();
    cluster.add_nodes(&NodeSpec::v100_p3_8xlarge(), 1);
    let mut jobs = JobState::new();
    let mut stats = RunStats::new();
    let done: Vec<Job> = (0..2)
        .map(|i| {
            let mut j = Job::new(
                JobId(i),
                100.0 * i as f64,
                1,
                500.0,
                JobProfile::synthetic("smoke", 1.0),
            );
            j.status = JobStatus::Completed;
            j.completion_time = Some(1_000.0 + 100.0 * i as f64);
            j.completed_iters = 500.0;
            stats.record_job(&j);
            j
        })
        .collect();
    jobs.add_new_jobs(done);
    jobs.prune_completed();
    stats.record_round(0, 4, 2_000.0);
    let snap = Snapshot {
        now: 2_000.0,
        next_job: 2,
        expected_jobs: Some(2),
        cluster,
        jobs,
        queue: Vec::new(),
        stats,
    };
    let path = std::env::temp_dir().join(format!("blox-smoke-restore-{}.snap", std::process::id()));
    blox_net::write_checkpoint(&path, &snap).expect("write snapshot");

    let schedd = sibling_binary("blox-net", "bloxschedd");
    let output = Command::new(schedd)
        .args([
            "--restore",
            path.to_str().expect("utf-8 temp path"),
            "--nodes",
            "0",
            "--jobs",
            "2",
        ])
        .output()
        .expect("run bloxschedd --restore");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "bloxschedd --restore failed: {}\n{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("summary: jobs=2"),
        "restored summary must carry the snapshot's records, got: {stdout}"
    );
}

/// The netload benchmark's quick mode is the per-PR event-loop loadgen
/// smoke: a real evloop scheduler plus open-loop SubmitJob traffic, with
/// the JSON row shape and a non-zero accepted count asserted.
#[test]
fn netload_quick() {
    let bin = env!("CARGO_BIN_EXE_netload");
    let tmp = std::env::temp_dir().join(format!("blox-netload-smoke-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&tmp);
    let output = Command::new(bin)
        .arg("--quick")
        .env("BLOX_BENCH_JSON", &tmp)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "netload --quick exited with {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(
        stdout.contains("shape[netload_accepts]: HOLDS"),
        "netload shape check failed:\n{stdout}"
    );
    let json = std::fs::read_to_string(&tmp).expect("netload must write BLOX_BENCH_JSON");
    let _ = std::fs::remove_file(&tmp);
    assert!(
        json.contains("\"bench\":\"net/loadgen_quick\"")
            && json.contains("\"transport\":\"evloop-")
            && json.contains("\"p99_us\":")
            && json.contains("\"sustained_rate\":"),
        "netload JSON missing expected fields: {json}"
    );
    assert!(
        json.contains("\"accepted\":") && !json.contains("\"accepted\":0,"),
        "netload must accept at least one submission: {json}"
    );
    assert!(
        json.contains("\"bench\":\"net/round_under_load_quick\"")
            && json.contains("\"mean_round_ms\":"),
        "netload JSON missing round telemetry: {json}"
    );
}

/// The sequential `run_all --smoke` sweep duplicates every per-binary
/// test above, so it is ignored by default; run it explicitly with
/// `cargo test -p blox-bench --test smoke -- --ignored`.
#[test]
#[ignore = "duplicates the per-binary smoke tests; run with -- --ignored"]
fn run_all_smoke_sweep() {
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("--smoke")
        .output()
        .expect("launch run_all");
    assert!(
        output.status.success(),
        "run_all --smoke failed\n--- stderr ---\n{}",
        String::from_utf8_lossy(&output.stderr),
    );
}
