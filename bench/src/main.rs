//! `spine`: one end-to-end + per-layer benchmark of the Blox round loop.
//!
//! Three ways in (see `bench/README.md`):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and ends its output with the driver's result line;
//! * `--all` runs every workload, each in its own child process (fresh
//!   event-loop singletons, its own peak RSS), and writes one result file;
//! * `--check A.json B.json` compares two result files against the bounds
//!   of `BENCHMARK.json`.

mod check;
mod json;
mod layers;
mod net;
mod record;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use record::Outcome;

/// A workload by name.
type Workload = (&'static str, fn(&Run) -> Outcome);

/// The workloads of `BENCHMARK.json`, in order.
const WORKLOADS: [Workload; 5] = [
    ("sim_sweep", sim::sim_sweep),
    ("sim_scale", sim::sim_scale),
    ("sim_churn", sim::sim_churn),
    ("net_submit", net::net_submit),
    ("net_jobs", net::net_jobs),
];

/// `run_seconds` of `BENCHMARK.json`, and what `--smoke` shrinks it to.
const RUN_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 1.0;

/// One run of one workload.
pub struct Run {
    pub seed: u64,
    /// Measured time to aim for: passes repeat until it is used up.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Where span tables go, when anywhere.
    pub out_dir: Option<PathBuf>,
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => match self.0.get(i + 1) {
                Some(v) => Ok(Some(v)),
                None => Err(format!("{name} needs a value")),
            },
        }
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read `{v}`")),
        }
    }
}

fn print_rows(workload: &str, out: &Outcome) {
    for m in &out.metrics {
        let note = match m.note.is_empty() {
            true => String::new(),
            false => format!(" ({})", m.note),
        };
        println!(
            "{workload} {} {:?} {} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(d) = out.digest {
        println!("{workload} result_digest {d:016x}");
    }
    println!(
        "{workload} failed_ratio {:?} ratio failed={} attempted={}",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for fault in &out.faults {
        println!("{workload} FAULT {fault}");
    }
    for limit in &out.limits {
        println!("{workload} LIMIT {limit}");
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every end-to-end slot (untraced) or
/// every per-layer metric (traced).
fn result_line(out: &Outcome, traced: bool) -> Value {
    let metric = |m: &record::Metric| {
        json::object([
            ("value", Value::Number(m.value)),
            ("unit", json::string(m.unit)),
        ])
    };
    let metrics = match traced {
        true => json::object(out.metrics.iter().map(|m| (m.name.as_str(), metric(m)))),
        false => json::object(
            out.slots
                .iter()
                .map(|(slot, i)| (*slot, metric(&out.metrics[*i]))),
        ),
    };
    json::object([
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Number(out.attempted.max(1) as f64)),
        ("failed", Value::Number(out.failed as f64)),
        ("metrics", metrics),
    ])
}

fn run_workload(name: &str, args: &Args) -> Result<ExitCode, String> {
    let Some((_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("unknown workload `{name}`; one of {names:?}"));
    };
    let smoke = args.flag("--smoke");
    let traced = match args.value("--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let run = Run {
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds: args.parsed("--seconds")?.unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        }),
        traced,
        smoke,
        out_dir: args.value("--out")?.map(PathBuf::from),
    };
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {}", run.seconds));
    }
    if let Some(dir) = &run.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let out = workload(&run);
    print_rows(name, &out);
    println!(
        "record {}",
        record::record(name, run.seed, run.seconds, traced, &out)
    );
    println!("{}", result_line(&out, traced));
    Ok(ExitCode::SUCCESS)
}

/// Run every workload in its own child process and gather the records.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = PathBuf::from(args.value("--out")?.unwrap_or("bench/out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut records = Vec::new();
    let mut ok = true;
    let modes: &[&str] = if args.flag("--traced") {
        &["0", "1"]
    } else {
        &["0"]
    };
    for (name, _) in WORKLOADS {
        for trace in modes {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace, "--out"])
                .arg(&out_dir);
            for flag in ["--seed", "--seconds"] {
                if let Some(v) = args.value(flag)? {
                    cmd.args([flag, v]);
                }
            }
            if args.flag("--smoke") {
                cmd.arg("--smoke");
            }
            let child = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut record = None;
            for line in stdout.lines() {
                match line.strip_prefix("record ") {
                    Some(json) => record = Some(json::parse(json)?),
                    // The driver's result line repeats the rows above it.
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            match record {
                Some(r) if child.status.success() => {
                    ok &= r.get("correct").and_then(Value::as_bool) == Some(true);
                    ok &= r
                        .get("limits")
                        .and_then(Value::as_array)
                        .is_some_and(<[Value]>::is_empty);
                    records.push(r);
                }
                _ => {
                    eprintln!("spine: {name} (trace {trace}) exited with {}", child.status);
                    ok = false;
                }
            }
        }
    }
    let path = out_dir.join("run.json");
    let file = json::object([
        ("bench", json::string("spine")),
        ("schema", Value::Number(1.0)),
        ("records", Value::Array(records)),
    ]);
    std::fs::write(&path, format!("{file}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spine: wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn usage() -> String {
    "usage: spine --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n\
     \x20      spine --all [--seed N] [--seconds S] [--traced] [--smoke] [--out DIR]\n\
     \x20      spine --check A.json B.json [--benchmark BENCHMARK.json]"
        .to_string()
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let done = if args.flag("--check") {
        check::main(&args.0)
    } else if args.flag("--all") {
        run_all(&args)
    } else {
        match args.value("--workload") {
            Ok(Some(name)) => run_workload(name, &args),
            Ok(None) => Err(usage()),
            Err(e) => Err(e),
        }
    };
    done.unwrap_or_else(|e| {
        eprintln!("spine: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests;
