//! `spine --check A.json B.json`: compare two result files, workload by
//! workload and metric by metric, against the bounds `BENCHMARK.json`
//! fixes for each end-to-end slot.
//!
//! A row is `regressed` when B is worse than A by more than the slot's
//! bound, `unresolved` when the spread of either side's value is wider
//! than the bound (the difference, whatever it is, cannot be told from
//! noise), `ok` otherwise. A value is the median of k passes. When both
//! files hold the same number of passes, pass i of one did the same work in
//! the same process state as pass i of the other, so the noise is read off
//! the k ratios B[i] ÷ A[i] (their quartile spread over sqrt(k)): an offset
//! every first pass carries cancels. Otherwise it is the wider of the two
//! files' own pass spreads. Metrics that fill no slot have no bound and are
//! listed as `info`. Exit is non-zero on any regression, on any failed
//! operation and on any timing limit exceeded (a void or over-limit pass)
//! in either file.

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::stats::quartile_spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn verdict(worsening: f64, spread: f64, bound: f64) -> Status {
    if spread > bound {
        Status::Unresolved
    } else if worsening > bound {
        Status::Regressed
    } else {
        Status::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `slot -> (lower_is_better, bound)` from `BENCHMARK.json`.
fn bounds(benchmark: &Value) -> Result<Vec<(String, bool, f64)>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok((
                field("name")?.as_str().unwrap_or_default().to_string(),
                field("better")?.as_str() == Some("lower"),
                field("bound")?.as_f64().ok_or("bound is not a number")?,
            ))
        })
        .collect()
}

fn untraced(file: &Value) -> Vec<&Value> {
    file.get("records")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("traced").and_then(Value::as_bool) == Some(false))
        .collect()
}

fn passes_of(metric: &Value) -> Vec<f64> {
    metric
        .get("passes")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

/// Spread of a median of `v.len()` values.
fn spread_of_median(v: &[f64]) -> f64 {
    quartile_spread(v) / (v.len().max(1) as f64).sqrt()
}

/// The noise between two measurements of one metric (see the module docs).
fn spread_between(a: &Value, b: &Value) -> f64 {
    let (pa, pb) = (passes_of(a), passes_of(b));
    if pa.len() == pb.len() {
        let ratios: Vec<f64> = pa.iter().zip(&pb).map(|(a, b)| b / a).collect();
        spread_of_median(&ratios)
    } else {
        spread_of_median(&pa).max(spread_of_median(&pb))
    }
}

/// Compare two parsed result files; prints one row per metric and returns
/// whether B holds up (no regression, no failed operation, no limit exceeded).
pub fn compare(a: &Value, b: &Value, benchmark: &Value) -> Result<bool, String> {
    let bounds = bounds(benchmark)?;
    let mut holds = true;
    for ra in untraced(a) {
        let workload = ra.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(rb) = untraced(b)
            .into_iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        else {
            println!("{workload} MISSING from the second file");
            holds = false;
            continue;
        };
        for (side, r) in [("first", ra), ("second", rb)] {
            let failed = r.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
            let correct = r.get("correct").and_then(Value::as_bool) == Some(true);
            if failed > 0.0 || !correct {
                println!("{workload} FAILED in the {side} file: failed={failed} correct={correct}");
                holds = false;
            }
            let limits = r
                .get("limits")
                .and_then(Value::as_array)
                .unwrap_or_default();
            for limit in limits {
                println!("{workload} OVER LIMIT in the {side} file: {limit}");
                holds = false;
            }
        }
        let digest = |r: &Value| r.get("result_digest").map(Value::to_string);
        if ra.get("result_digest") != Some(&Value::Null) {
            let same = digest(ra) == digest(rb);
            println!(
                "{workload} result_digest {}",
                if same { "same" } else { "differs" }
            );
        }
        for (name, ma) in ra.get("metrics").map(Value::entries).unwrap_or_default() {
            let Some(mb) = rb.get("metrics").and_then(|m| m.get(name)) else {
                println!("{workload} {name} missing from the second file");
                continue;
            };
            let value = |m: &Value| m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let (va, vb) = (value(ma), value(mb));
            let slot = ma.get("slot").and_then(Value::as_str);
            let Some((_, lower, bound)) = slot.and_then(|s| bounds.iter().find(|(n, ..)| n == s))
            else {
                println!(
                    "{workload} {name} {va:.4} -> {vb:.4} ({:+.1}%) info",
                    (vb - va) / va * 100.0
                );
                continue;
            };
            let worse = worsening(va, vb, *lower);
            let spread = spread_between(ma, mb);
            let status = verdict(worse, spread, *bound);
            holds &= status != Status::Regressed;
            println!(
                "{workload} {name} [{}] {va:.4} -> {vb:.4} worse by {:+.1}% (bound {:.0}%, spread {:.1}%) {}",
                slot.unwrap_or("-"),
                worse * 100.0,
                bound * 100.0,
                spread * 100.0,
                match status {
                    Status::Ok => "ok",
                    Status::Regressed => "REGRESSED",
                    Status::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(holds)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let at = args
        .iter()
        .position(|a| a == "--check")
        .expect("--check was seen");
    let (Some(a), Some(b)) = (args.get(at + 1), args.get(at + 2)) else {
        return Err("--check needs two result files".into());
    };
    let benchmark = args
        .iter()
        .position(|a| a == "--benchmark")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCHMARK.json", String::as_str);
    let holds = compare(&load(a)?, &load(b)?, &load(benchmark)?)?;
    println!(
        "spine --check: {}",
        if holds { "holds" } else { "DOES NOT HOLD" }
    );
    Ok(if holds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
