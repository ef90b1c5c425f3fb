//! `blox-loadgen` — open-loop SubmitJob load generator for a live
//! `bloxschedd`.
//!
//! ```text
//! blox-loadgen --sched 127.0.0.1:PORT [--conns 1000] [--rate 10000]
//!              [--duration-s 5] [--drain-s 5] [--gpus 1] [--iters 1e9]
//!              [--ramp-ms 0] [--model synthetic-load] [--name loadgen]
//!              [--json PATH]
//! ```
//!
//! Opens `--conns` concurrent client connections on one event-loop pool,
//! offers `--rate` aggregate submissions per wall second for
//! `--duration-s` seconds regardless of acknowledgement speed
//! (open-loop, so scheduler slowness shows up as latency, not as a
//! quietly reduced offered rate), then reports sustained accepted
//! submissions/sec and p50/p99/p999 submit→accepted latency.
//!
//! With `--json PATH` (or the `BLOX_BENCH_JSON` environment variable) a
//! fixed-field-order JSON row is appended to PATH, matching the rows in
//! `BENCH_net.json`.

use std::io::Write;

use blox_net::loadgen::{run, LoadgenConfig};

fn main() {
    let mut cfg = LoadgenConfig::default();
    let mut sched: Option<String> = None;
    let mut name = "loadgen".to_string();
    let mut json: Option<String> = std::env::var("BLOX_BENCH_JSON").ok();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |n: &str| it.next().unwrap_or_else(|| panic!("missing value for {n}"));
        match flag.as_str() {
            "--sched" => sched = Some(val("--sched")),
            "--conns" => cfg.conns = val("--conns").parse().expect("--conns usize"),
            "--rate" => cfg.rate = val("--rate").parse().expect("--rate f64"),
            "--duration-s" => {
                cfg.duration = std::time::Duration::from_secs_f64(
                    val("--duration-s").parse().expect("--duration-s f64"),
                )
            }
            "--drain-s" => {
                cfg.drain = std::time::Duration::from_secs_f64(
                    val("--drain-s").parse().expect("--drain-s f64"),
                )
            }
            "--gpus" => cfg.gpus = val("--gpus").parse().expect("--gpus u32"),
            "--iters" => cfg.total_iters = val("--iters").parse().expect("--iters f64"),
            "--ramp-ms" => {
                cfg.ramp = std::time::Duration::from_millis(
                    val("--ramp-ms").parse().expect("--ramp-ms u64"),
                )
            }
            "--model" => cfg.model = val("--model"),
            "--name" => name = val("--name"),
            "--json" => json = Some(val("--json")),
            other => panic!("unknown flag {other}"),
        }
    }
    let Some(sched) = sched else {
        eprintln!("blox-loadgen: error: --sched ADDR is required");
        std::process::exit(2);
    };
    cfg.sched = match sched.parse() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("blox-loadgen: error: --sched {sched}: {e}");
            std::process::exit(2);
        }
    };

    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("blox-loadgen: error: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "loadgen: conns={} lost={} offered={:.0}/s submitted={} accepted={} window={:.2}s",
        report.conns,
        report.conns_lost,
        report.target_rate,
        report.submitted,
        report.accepted,
        report.window_s,
    );
    println!(
        "loadgen: sustained={:.1}/s p50={}us p99={}us p999={}us max={}us",
        report.sustained_rate, report.p50_us, report.p99_us, report.p999_us, report.max_us,
    );
    let transport = format!("evloop-{}", cfg.poller.resolve());
    println!("{}", report.json_row(&name, &transport));

    if let Some(path) = json {
        let row = report.json_row(&name, &transport);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("open {path}: {e}"));
        writeln!(file, "{row}").unwrap_or_else(|e| panic!("append {path}: {e}"));
    }

    // A run that lost connections or accepted nothing is a failed
    // measurement; make that visible to scripts.
    if report.accepted == 0 {
        eprintln!("blox-loadgen: error: no submissions were accepted");
        std::process::exit(1);
    }
}
