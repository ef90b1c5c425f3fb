//! What one run of one workload produces, and the one schema every result
//! file is written in.

use crate::json::{self, Value};

/// One named measurement. `samples` is the number of timing samples (or
/// counted events) behind `value`; `per_pass` holds the value each pass
/// measured when `value` is their median (`--check` reads the spread off
/// it); `note` carries what the name cannot, such as which percentile a
/// `_tail` metric is.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub per_pass: Vec<f64>,
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            per_pass: Vec::new(),
            note: String::new(),
        }
    }

    /// The median of one value per pass.
    pub fn median_of(
        name: impl Into<String>,
        unit: &'static str,
        samples: usize,
        per_pass: Vec<f64>,
    ) -> Self {
        Metric {
            per_pass: per_pass.clone(),
            ..Metric::new(name, crate::stats::median(&per_pass), unit, samples)
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The result of running one workload once, traced or not.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Sizes and rates the workload ran with.
    pub params: Vec<(&'static str, String)>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The five `BENCHMARK.json` end-to-end slots, in order, as indexes
    /// into `metrics` (untraced run only).
    pub slots: Vec<(&'static str, usize)>,
    /// Operations whose outcome was checked, and how many were wrong,
    /// refused or late.
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs that are not single operations (digests that
    /// disagree, a span table that could not be written); a non-empty list
    /// makes the run incorrect even when `failed` is 0.
    pub faults: Vec<String>,
    /// Timing limits the run went over: a generator that ran late (void),
    /// a serving workload over its latency limit. The outputs are still
    /// correct and the metrics are reported as measured, so `correct()`
    /// ignores them; `--all` and `--check` do not.
    pub limits: Vec<String>,
    /// FNV of the deterministic outputs (sim workloads).
    pub digest: Option<u64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty()
    }

    pub fn push(&mut self, m: Metric) -> usize {
        self.metrics.push(m);
        self.metrics.len() - 1
    }

    /// Add a metric and name the `BENCHMARK.json` slot it fills.
    pub fn push_slot(&mut self, slot: &'static str, m: Metric) {
        let i = self.push(m);
        self.slots.push((slot, i));
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and when a result was measured: the stamp every record carries.
pub fn stamp() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    json::object([
        (
            "git_rev",
            json::string(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("utc", json::string(utc_timestamp(unix_s))),
        ("nproc", Value::Number(nproc as f64)),
        ("cpu_model", json::string(cpu)),
        ("kernel", json::string(command_line("uname", &["-r"]))),
        ("rustc", json::string(command_line("rustc", &["-V"]))),
    ])
}

/// `2026-09-26T05:06:07Z` from seconds since the epoch (civil-from-days,
/// proleptic Gregorian).
fn utc_timestamp(unix_s: u64) -> String {
    let (days, rem) = (unix_s / 86_400, unix_s % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// One workload's record in a result file.
pub fn record(workload: &str, seed: u64, seconds: f64, traced: bool, out: &Outcome) -> Value {
    let metrics = out.metrics.iter().enumerate().map(|(i, m)| {
        let mut fields = vec![
            ("value", Value::Number(m.value)),
            ("unit", json::string(m.unit)),
            ("samples", Value::Number(m.samples as f64)),
        ];
        if !m.per_pass.is_empty() {
            let passes = m.per_pass.iter().map(|v| Value::Number(*v)).collect();
            fields.push(("passes", Value::Array(passes)));
        }
        if let Some((slot, _)) = out.slots.iter().find(|(_, at)| *at == i) {
            fields.push(("slot", json::string(slot)));
        }
        if !m.note.is_empty() {
            fields.push(("note", json::string(&m.note)));
        }
        (m.name.as_str(), json::object(fields))
    });
    json::object([
        ("bench", json::string("spine")),
        ("workload", json::string(workload)),
        ("seed", Value::Number(seed as f64)),
        ("seconds", Value::Number(seconds)),
        ("traced", Value::Bool(traced)),
        (
            "params",
            json::object(out.params.iter().map(|(k, v)| (*k, json::string(v)))),
        ),
        ("metrics", json::object(metrics)),
        ("attempted", Value::Number(out.attempted as f64)),
        ("failed", Value::Number(out.failed as f64)),
        (
            "failed_ratio",
            Value::Number(out.failed as f64 / out.attempted.max(1) as f64),
        ),
        (
            "faults",
            Value::Array(out.faults.iter().map(json::string).collect()),
        ),
        (
            "limits",
            Value::Array(out.limits.iter().map(json::string).collect()),
        ),
        (
            "result_digest",
            out.digest
                .map_or(Value::Null, |d| json::string(format!("{d:016x}"))),
        ),
        ("correct", Value::Bool(out.correct())),
        ("stamp", stamp()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_civil_utc() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_timestamp(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_timestamp(1_790_312_767), "2026-09-25T05:06:07Z");
    }

    #[test]
    fn a_limit_is_reported_but_is_not_an_incorrect_output() {
        let mut out = Outcome::default();
        out.limits.push("pass 0: void: generator ran late".into());
        assert!(out.correct());
        let rec = record("net_jobs", 1, 10.0, false, &out);
        assert_eq!(rec.get("correct").and_then(Value::as_bool), Some(true));
        let limits = rec.get("limits").and_then(Value::as_array);
        assert_eq!(limits.map(<[Value]>::len), Some(1));
        out.faults.push("digests disagree".into());
        assert!(!out.correct());
    }

    #[test]
    fn records_carry_the_whole_schema() {
        let mut out = Outcome::default();
        out.params.push(("rounds", "10".into()));
        out.push(Metric::new("round_ms_p50", 1.5, "ms", 10).note("median of 3 passes"));
        out.attempted = 4;
        out.digest = Some(0xab);
        let rec = record("sim_scale", 7, 2.0, false, &out);
        let back = json::parse(&rec.to_string()).expect("records are valid JSON");
        assert_eq!(
            back.get("workload").and_then(Value::as_str),
            Some("sim_scale")
        );
        assert_eq!(back.get("failed_ratio").and_then(Value::as_f64), Some(0.0));
        let m = back
            .get("metrics")
            .and_then(|m| m.get("round_ms_p50"))
            .expect("metric");
        assert_eq!(m.get("samples").and_then(Value::as_f64), Some(10.0));
        for key in ["git_rev", "utc", "nproc", "cpu_model", "kernel", "rustc"] {
            assert!(
                back.get("stamp").and_then(|s| s.get(key)).is_some(),
                "{key}"
            );
        }
    }
}
