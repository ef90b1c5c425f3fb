//! `netload` — sustained submission throughput of the event-loop
//! scheduler transport.
//!
//! Boots a real `NetBackend` on the readiness event loop, one in-process
//! node-manager daemon (timer-wheel heartbeats), and drives open-loop
//! `SubmitJob` traffic at a configured aggregate rate across many
//! concurrent client connections — the tens-of-thousands-of-live-clients
//! regime the event loop exists for. Reports sustained accepted
//! submissions/sec, submit→accepted latency percentiles, and the round
//! pipeline's mean wall time under load.
//!
//! Modes:
//! - `--quick`: CI smoke (50 connections, 500/s for 2 s).
//! - default (full): 15,000/s over 1,000 connections for 5 s — the
//!   ≥10k/s acceptance floor with headroom.
//! - `--huge`: 10,000 live connections at 12,000/s with a staggered
//!   connect ramp. The client fleet runs in a re-exec'd child process so
//!   neither process carries both halves of 20k sockets against the fd
//!   rlimit (which is raised to its hard cap, best-effort, in both).
//! - `--compare`: the p99 regression gate — the same 1,000-conn run on
//!   the poll backend and then on the auto-resolved backend (epoll on
//!   Linux), asserting epoll's p99 is no worse than poll's (with slack
//!   for scheduler-noise: 1.5× or +20 ms, whichever is larger).
//!
//! `--poller {auto,epoll,poll}`, `--conns N`, `--rate R`, `--ramp-ms MS`
//! and `--backlog N` override the per-mode defaults. JSON rows go to
//! `BLOX_BENCH_JSON` (or `BENCH_net.json` with `--json`).

use std::io::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

use blox_bench::{banner, row, shape_check};
use blox_core::manager::{ExecMode, RunConfig, StopCondition};
use blox_net::loadgen::{run as loadgen_run, LoadReport, LoadgenConfig};
use blox_net::node::{spawn_node, NodeConfig};
use blox_net::sched::{serve, NetBackend, SchedulerConfig};
use blox_net::PollerKind;
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::Fifo;
use blox_runtime::runtime::RuntimeConfig;

const TIME_SCALE: f64 = 1e-4;

/// Raise the open-file soft limit to the hard cap (best-effort): a
/// 10k-connection half needs >10k descriptors in one process, far above
/// the common 1024 default soft limit.
#[cfg(target_os = "linux")]
fn raise_nofile_limit() {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < lim.max {
            lim.cur = lim.max;
            let _ = setrlimit(RLIMIT_NOFILE, &lim);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_nofile_limit() {}

/// One measurement: scheduler + node on the given poller, load from
/// either an in-process generator or a re-exec'd child.
struct Measure {
    conns: usize,
    rate: f64,
    window_s: f64,
    ramp: Duration,
    poller: PollerKind,
    backlog: i32,
    child: bool,
}

fn measure(m: &Measure) -> (LoadReport, f64, u64) {
    let backend = NetBackend::bind(SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale: TIME_SCALE,
            emu_iter_sim_s: 30.0,
        },
        poller: m.poller,
        listen_backlog: m.backlog,
        ..SchedulerConfig::default()
    })
    .expect("bind evloop scheduler");
    let addr = backend.addr();
    let node = spawn_node(NodeConfig {
        poller: m.poller,
        ..NodeConfig::new(addr, 4, false)
    });

    // The serve loop must outlive the connect ramp, the send window and
    // the drain grace; the limit is simulated seconds (wall / time_scale).
    let serve_wall_s = m.ramp.as_secs_f64() + m.window_s * 2.0 + 6.0;
    let server = std::thread::spawn(move || {
        serve(
            backend,
            RunConfig {
                round_duration: 300.0,
                max_rounds: 1_000_000,
                stop: StopCondition::TimeLimit(serve_wall_s / TIME_SCALE),
                mode: ExecMode::FixedRounds,
            },
            1,
            Duration::from_secs(30),
            &mut AcceptAll::new(),
            &mut Fifo::new(),
            &mut ConsolidatedPlacement::preferred(),
        )
        .expect("netload serve")
    });

    let report = if m.child {
        child_loadgen(addr, m)
    } else {
        loadgen_run(&LoadgenConfig {
            sched: addr,
            conns: m.conns,
            rate: m.rate,
            duration: Duration::from_secs_f64(m.window_s),
            drain: Duration::from_secs_f64(m.window_s),
            gpus: 1,
            total_iters: 1e9,
            model: "synthetic-load".into(),
            ramp: m.ramp,
            poller: m.poller,
        })
        .expect("load generation")
    };
    let net = server.join().expect("serve thread");
    let _ = node.join();
    (
        report,
        net.stats.stage_times.mean_round() * 1e3,
        net.stats.rounds,
    )
}

/// Re-exec this binary as `--child-loadgen` so the client half of the
/// socket fleet lives in its own process (its own fd table), and parse
/// the `CHILD_REPORT` line it prints.
fn child_loadgen(addr: SocketAddr, m: &Measure) -> LoadReport {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args([
            "--child-loadgen",
            "--sched",
            &addr.to_string(),
            "--conns",
            &m.conns.to_string(),
            "--rate",
            &m.rate.to_string(),
            "--duration-s",
            &m.window_s.to_string(),
            "--ramp-ms",
            &m.ramp.as_millis().to_string(),
            "--poller",
            &m.poller.to_string(),
        ])
        .output()
        .expect("spawn child loadgen");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        panic!(
            "child loadgen failed ({:?})\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("CHILD_REPORT "))
        .expect("child loadgen printed no CHILD_REPORT line");
    parse_child_report(line)
}

/// `CHILD_REPORT` is `key=value` pairs in a fixed order; parse them back
/// into a [`LoadReport`].
fn parse_child_report(line: &str) -> LoadReport {
    let get = |key: &str| -> f64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("CHILD_REPORT missing {key}: {line}"))
            .parse()
            .unwrap_or_else(|e| panic!("CHILD_REPORT bad {key}: {e}"))
    };
    LoadReport {
        target_rate: get("target_rate"),
        conns: get("conns") as usize,
        conns_lost: get("conns_lost") as usize,
        submitted: get("submitted") as u64,
        accepted: get("accepted") as u64,
        window_s: get("window_s"),
        sustained_rate: get("sustained_rate"),
        p50_us: get("p50_us") as u64,
        p99_us: get("p99_us") as u64,
        p999_us: get("p999_us") as u64,
        max_us: get("max_us") as u64,
    }
}

/// Child half of `--huge`: run the load generator against `--sched` and
/// print one parseable report line.
fn child_main(args: &[String]) -> ! {
    raise_nofile_limit();
    let mut cfg = LoadgenConfig::default();
    let mut i = 0;
    while i < args.len() {
        let val = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("missing value for {}", args[i]))
        };
        match args[i].as_str() {
            "--child-loadgen" => {
                i += 1;
                continue;
            }
            "--sched" => cfg.sched = val(i).parse().expect("--sched addr"),
            "--conns" => cfg.conns = val(i).parse().expect("--conns usize"),
            "--rate" => cfg.rate = val(i).parse().expect("--rate f64"),
            "--duration-s" => {
                cfg.duration = Duration::from_secs_f64(val(i).parse().expect("--duration-s f64"));
                cfg.drain = cfg.duration;
            }
            "--ramp-ms" => cfg.ramp = Duration::from_millis(val(i).parse().expect("--ramp-ms u64")),
            "--poller" => cfg.poller = val(i).parse().expect("--poller kind"),
            other => panic!("child loadgen: unknown flag {other}"),
        }
        i += 2;
    }
    match loadgen_run(&cfg) {
        Ok(r) => {
            println!(
                "CHILD_REPORT target_rate={} conns={} conns_lost={} submitted={} accepted={} \
                 window_s={} sustained_rate={} p50_us={} p99_us={} p999_us={} max_us={}",
                r.target_rate,
                r.conns,
                r.conns_lost,
                r.submitted,
                r.accepted,
                r.window_s,
                r.sustained_rate,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                r.max_us,
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("child loadgen: {e}");
            std::process::exit(1);
        }
    }
}

fn print_report(report: &LoadReport, mean_round_ms: f64) {
    row(&[
        "conns".into(),
        "offered/s".into(),
        "sustained/s".into(),
        "p50_us".into(),
        "p99_us".into(),
        "p999_us".into(),
        "mean_round_ms".into(),
    ]);
    row(&[
        report.conns.to_string(),
        format!("{:.0}", report.target_rate),
        format!("{:.1}", report.sustained_rate),
        report.p50_us.to_string(),
        report.p99_us.to_string(),
        report.p999_us.to_string(),
        format!("{mean_round_ms:.2}"),
    ]);
    println!(
        "accepted {}/{} submissions over {} connections ({} lost)",
        report.accepted, report.submitted, report.conns, report.conns_lost
    );
}

fn append_rows(json_path: &Option<String>, rows: &[String]) {
    let Some(path) = json_path else { return };
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open BLOX_BENCH_JSON file");
    for line in rows {
        writeln!(file, "{line}").expect("append JSON rows");
    }
    println!("json: appended {} lines to {path}", rows.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--child-loadgen") {
        child_main(&args);
    }
    raise_nofile_limit();

    let quick = args.iter().any(|a| a == "--quick");
    let huge = args.iter().any(|a| a == "--huge");
    let compare = args.iter().any(|a| a == "--compare");
    let flag_val = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            })
            .map(|s| s.as_str())
    };
    let poller: PollerKind = flag_val("--poller")
        .map(|v| v.parse().expect("--poller auto|epoll|poll"))
        .unwrap_or(PollerKind::Auto);

    // Per-mode defaults; --conns/--rate/--ramp-ms/--backlog override.
    let (mut conns, mut rate, window_s, mut ramp_ms, mut backlog) = if quick {
        (50usize, 500.0f64, 2.0f64, 0u64, 1024i32)
    } else if huge {
        (10_000, 12_000.0, 5.0, 5_000, 2_048)
    } else {
        (1000, 15_000.0, 5.0, 0, 1024)
    };
    if let Some(v) = flag_val("--conns") {
        conns = v.parse().expect("--conns usize");
    }
    if let Some(v) = flag_val("--rate") {
        rate = v.parse().expect("--rate f64");
    }
    if let Some(v) = flag_val("--ramp-ms") {
        ramp_ms = v.parse().expect("--ramp-ms u64");
    }
    if let Some(v) = flag_val("--backlog") {
        backlog = v.parse().expect("--backlog i32");
    }

    banner(
        "netload",
        "one readiness loop sustains >=10k submissions/s across thousands of live client connections",
    );

    let json_path = std::env::var("BLOX_BENCH_JSON").ok().or_else(|| {
        args.iter()
            .any(|a| a == "--json")
            .then(|| "BENCH_net.json".to_string())
    });

    if compare {
        // p99 regression gate: identical 1k-conn runs, poll first, then
        // the auto-resolved backend (epoll on Linux, poll elsewhere —
        // where the comparison trivially holds).
        let contender = poller.resolve();
        let mut results = Vec::new();
        let mut rows = Vec::new();
        for kind in [PollerKind::Poll, contender] {
            println!("--- compare: {} conns on {kind} ---", conns);
            let (report, mean_round_ms, _rounds) = measure(&Measure {
                conns,
                rate,
                window_s,
                ramp: Duration::from_millis(ramp_ms),
                poller: kind,
                backlog,
                child: false,
            });
            print_report(&report, mean_round_ms);
            rows.push(report.json_row(
                &format!("net/loadgen_compare_{kind}"),
                &format!("evloop-{kind}"),
            ));
            results.push((kind, report));
        }
        let p99_poll = results[0].1.p99_us;
        let p99_new = results[1].1.p99_us;
        println!(
            "compare: p99 poll={p99_poll}us {}={p99_new}us",
            results[1].0
        );
        // "No worse" with measurement slack: scheduler jitter on a busy
        // CI box swings p99 by tens of ms, so allow 1.5x or +20 ms.
        let bound = (p99_poll as f64 * 1.5).max(p99_poll as f64 + 20_000.0);
        shape_check(
            "netload_epoll_p99_no_worse",
            (p99_new as f64) <= bound
                && results
                    .iter()
                    .all(|(_, r)| r.conns_lost == 0 && r.accepted > 0),
        );
        append_rows(&json_path, &rows);
        if results.iter().any(|(_, r)| r.accepted == 0) {
            eprintln!("netload: no submissions were accepted");
            std::process::exit(1);
        }
        return;
    }

    let (report, mean_round_ms, rounds) = measure(&Measure {
        conns,
        rate,
        window_s,
        ramp: Duration::from_millis(ramp_ms),
        poller,
        backlog,
        child: huge,
    });
    print_report(&report, mean_round_ms);

    if quick {
        shape_check(
            "netload_accepts",
            report.accepted > 0 && report.conns_lost == 0,
        );
    } else if huge {
        shape_check(
            "netload_sustained_10k_at_10k_conns",
            report.sustained_rate >= 10_000.0 && report.conns >= 10_000 && report.conns_lost == 0,
        );
    } else {
        shape_check(
            "netload_sustained_10k",
            report.sustained_rate >= 10_000.0 && report.conns >= 1000 && report.conns_lost == 0,
        );
    }

    let mode = if quick {
        "quick"
    } else if huge {
        "huge"
    } else {
        "full"
    };
    let transport = format!("evloop-{}", poller.resolve());
    append_rows(
        &json_path,
        &[
            report.json_row(&format!("net/loadgen_{mode}"), &transport),
            format!(
                "{{\"bench\":\"net/round_under_load_{mode}\",\"transport\":\"{transport}\",\
                 \"mean_round_ms\":{mean_round_ms:.3},\"rounds\":{rounds}}}"
            ),
        ],
    );

    if report.accepted == 0 {
        eprintln!("netload: no submissions were accepted");
        std::process::exit(1);
    }
}
