//! Loopback cluster integration tests for the networked deployment on
//! its default configuration (the platform picks the readiness backend).
//!
//! These run the real three-component topology — central scheduler,
//! node-manager daemons, submission client — over actual TCP sockets:
//! in-process threads for the white-box assertions (fidelity, churn,
//! preemption, heartbeat deadlines) and the compiled `bloxschedd` /
//! `bloxnoded` / `blox-submit` binaries for the true multi-process
//! end-to-end check.
//! The scenario bodies live in `tests/scenarios/` and are shared with
//! `tests/evloop.rs`, which replays them with each backend pinned.
//!
//! Every listener binds `127.0.0.1:0`, so parallel `cargo test` runs never
//! collide on ports; every test arms a hard watchdog, because a wedged
//! socket test would otherwise hang the whole suite.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use blox_net::sched::NetBackend;
use blox_net::PollerKind;

mod common;
mod scenarios;
use common::watchdog;

/// Tentpole acceptance: scheduler + 2 node managers over real TCP replay a
/// small trace through Tiresias, and the final JCT stats match the
/// in-process `RuntimeBackend` within tolerance.
#[test]
fn networked_jct_matches_in_process_runtime() {
    scenarios::fidelity_scenario(PollerKind::Auto);
}

/// Kill a node mid-run: the failure detector must trigger churn (node
/// dead, GPUs hidden), revoke leases, requeue the evicted jobs, and the
/// run must still complete every job on the surviving nodes.
#[test]
fn node_crash_triggers_churn_and_jobs_still_finish() {
    scenarios::churn_scenario(PollerKind::Auto);
}

/// FIFO backfill on a 16-GPU cluster that fills up: the backfilled jobs
/// are preempted through lease revocation, then every job completes
/// exactly once.
#[test]
fn fifo_backfill_preempts_on_a_full_cluster_and_every_job_completes_once() {
    scenarios::preemption_scenario(PollerKind::Auto);
}

/// A worker that registers, heartbeats briefly, then falls silent with its
/// socket still open: only the missed-deadline verdict can catch this
/// failure mode (the link never drops).
#[test]
fn silent_worker_trips_heartbeat_deadline() {
    scenarios::heartbeat_scenario(PollerKind::Auto);
}

/// An open-loop gap in the arrival stream must not read as a drained
/// trace: a `TrackedWindowDone` run waits for the whole pledged window
/// even when a job completes while the wait queue is empty.
#[test]
fn open_loop_submission_gap_does_not_end_run_early() {
    scenarios::submission_gap_scenario(PollerKind::Auto);
}

/// Two schedulers binding `127.0.0.1:0` concurrently get distinct,
/// resolved ports — the no-collision guarantee parallel tests rely on.
#[test]
fn ephemeral_ports_never_collide() {
    let a = NetBackend::bind(scenarios::sched_config(PollerKind::Auto)).expect("bind a");
    let b = NetBackend::bind(scenarios::sched_config(PollerKind::Auto)).expect("bind b");
    assert_ne!(a.addr().port(), 0);
    assert_ne!(b.addr().port(), 0);
    assert_ne!(a.addr(), b.addr());
}

/// True multi-process end-to-end: the compiled `bloxschedd`, two
/// `bloxnoded` processes, and `blox-submit` (one timed batch, one batch
/// paced with `--rate`) cooperate over loopback TCP.
#[test]
fn daemon_binaries_run_a_real_multi_process_cluster() {
    let _wd = watchdog(Duration::from_secs(240), "multi-process test");
    let mut schedd = Command::new(env!("CARGO_BIN_EXE_bloxschedd"))
        .args([
            "--nodes",
            "2",
            "--jobs",
            "4",
            "--policy",
            "tiresias",
            "--time-scale",
            "1e-4",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bloxschedd");

    // First stdout line advertises the chosen ephemeral port.
    let mut stdout = BufReader::new(schedd.stdout.take().expect("schedd stdout"));
    let mut listen = String::new();
    stdout.read_line(&mut listen).expect("LISTEN line");
    let addr = listen
        .trim()
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("expected `LISTEN <addr>`, got {listen:?}"))
        .to_string();

    let mut noded: Vec<_> = (0..2)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_bloxnoded"))
                .args(["--sched", &addr, "--gpus", "4"])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn bloxnoded")
        })
        .collect();

    for pacing in [&[][..], &["--rate", "50"][..]] {
        let submit = Command::new(env!("CARGO_BIN_EXE_blox-submit"))
            .args([
                "--sched", &addr, "--model", "resnet18", "--gpus", "1", "--iters", "2000",
                "--count", "2",
            ])
            .args(pacing)
            .output()
            .expect("run blox-submit");
        assert!(
            submit.status.success(),
            "blox-submit {pacing:?} failed: {}",
            String::from_utf8_lossy(&submit.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&submit.stdout)
                .lines()
                .filter(|l| l.starts_with("accepted "))
                .count(),
            2
        );
    }

    // The scheduler exits on its own once all 4 jobs complete.
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = schedd.try_wait().expect("try_wait schedd") {
            break status;
        }
        assert!(Instant::now() < deadline, "bloxschedd did not terminate");
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("schedd output");
    for child in &mut noded {
        let _ = child.kill();
        let _ = child.wait();
    }
    assert!(
        status.success(),
        "bloxschedd exited with {status:?}: {rest}"
    );
    assert!(
        rest.contains("summary: jobs=4"),
        "expected a 4-job summary, got: {rest}"
    );
}
