//! Independent reference implementations for the reproduction figures.
//!
//! Figures 3–5 of the paper validate the Blox implementations of Pollux,
//! Tiresias, and Synergy against the *authors'* open-source simulators.
//! Those simulators are not part of this workspace, so this module
//! substitutes for them: a second, independently structured
//! implementation of each policy — a plain continuous allocation loop
//! that shares nothing with the `BloxManager` round pipeline except the
//! performance equations — and the figures compare Blox output against
//! it, exactly as the paper compares two codebases implementing the same
//! algorithm.

use std::collections::BTreeMap;

use blox_core::cluster::GpuType;
use blox_core::ids::JobId;
use blox_core::job::Job;
use blox_workloads::Trace;

#[derive(Debug, Clone)]
struct RefJob {
    id: JobId,
    arrival: f64,
    gpus: u32,
    remaining: f64, // iterations
    done: f64,
    total: f64,
    job: Job,
    finish: Option<f64>,
    service: f64,
}

/// Which reference policy the loop applies each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefPolicy {
    /// Discretized LAS with a one-GPU-hour queue boundary (Tiresias).
    DiscreteLas,
    /// Goodput-maximizing co-adaptive allocation (Pollux).
    Pollux,
    /// Resource-sensitive FIFO with proportional CPU shares (Synergy
    /// baseline). The boolean slowdown models CPU starvation.
    SynergyProportional,
    /// Synergy-Tune: profiled CPU shares, no starvation slowdown.
    SynergyTune,
}

/// Run the reference simulator; returns `(job id, jct)` pairs.
///
/// The loop is deliberately *not* the Blox pipeline: a flat vector of job
/// structs, allocation recomputed from scratch each tick, progress
/// integrated forward, no placement model beyond GPU counting (plus the
/// Synergy CPU term). Matching CDFs between this and Blox therefore
/// cross-validate the policy logic, not shared plumbing.
pub fn run_reference(
    trace: &Trace,
    total_gpus: u32,
    round_s: f64,
    policy: RefPolicy,
) -> Vec<(JobId, f64)> {
    let mut jobs: Vec<RefJob> = trace
        .jobs
        .iter()
        .map(|j| RefJob {
            id: j.id,
            arrival: j.arrival_time,
            gpus: j.requested_gpus,
            remaining: j.total_iters,
            done: 0.0,
            total: j.total_iters,
            job: j.clone(),
            finish: None,
            service: 0.0,
        })
        .collect();
    let mut t = 0.0f64;
    let mut finished = 0usize;
    while finished < jobs.len() {
        // Active set.
        let mut active: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.finish.is_none() && j.arrival <= t)
            .map(|(i, _)| i)
            .collect();

        // Priority order + per-job grant.
        let mut grants: BTreeMap<usize, u32> = BTreeMap::new();
        match policy {
            RefPolicy::DiscreteLas => {
                active.sort_by(|&a, &b| {
                    let qa = (jobs[a].service >= 3600.0) as u8;
                    let qb = (jobs[b].service >= 3600.0) as u8;
                    qa.cmp(&qb)
                        .then(jobs[a].arrival.partial_cmp(&jobs[b].arrival).unwrap())
                });
                let mut used = 0u32;
                for &i in &active {
                    if used + jobs[i].gpus <= total_gpus {
                        grants.insert(i, jobs[i].gpus);
                        used += jobs[i].gpus;
                    }
                }
            }
            RefPolicy::SynergyProportional | RefPolicy::SynergyTune => {
                active.sort_by(|&a, &b| jobs[a].arrival.partial_cmp(&jobs[b].arrival).unwrap());
                let mut used = 0u32;
                for &i in &active {
                    if used + jobs[i].gpus <= total_gpus {
                        grants.insert(i, jobs[i].gpus);
                        used += jobs[i].gpus;
                    }
                }
            }
            RefPolicy::Pollux => {
                // Running-first is irrelevant here (no preemption cost in
                // the reference); one GPU each in arrival order, then
                // marginal-goodput expansion.
                active.sort_by(|&a, &b| jobs[a].arrival.partial_cmp(&jobs[b].arrival).unwrap());
                let mut used = 0u32;
                for &i in &active {
                    if used >= total_gpus {
                        break;
                    }
                    grants.insert(i, 1);
                    used += 1;
                }
                loop {
                    if used >= total_gpus {
                        break;
                    }
                    let mut best: Option<(f64, usize)> = None;
                    for (&i, &g) in &grants {
                        if g >= 16 {
                            continue;
                        }
                        let job = &jobs[i].job;
                        let (g0, g1) = match &job.profile.pollux {
                            Some(p) => (
                                p.goodput(g, p.best_batch(g)),
                                p.goodput(g + 1, p.best_batch(g + 1)),
                            ),
                            None => (
                                job.profile
                                    .iter_model
                                    .throughput(g, GpuType::V100, true, 100.0),
                                job.profile.iter_model.throughput(
                                    g + 1,
                                    GpuType::V100,
                                    true,
                                    100.0,
                                ),
                            ),
                        };
                        let gain = g1 / g0 - 1.0;
                        if gain < 0.05 {
                            continue;
                        }
                        if best.map(|(b, _)| gain > b).unwrap_or(true) {
                            best = Some((gain, i));
                        }
                    }
                    match best {
                        Some((_, i)) => {
                            *grants.get_mut(&i).unwrap() += 1;
                            used += 1;
                        }
                        None => break,
                    }
                }
            }
        }

        // CPU pressure for the Synergy variants: total ideal cores over a
        // 32-cores-per-4-gpus cluster.
        let cpu_pressure = {
            let want: f64 = grants
                .iter()
                .map(|(&i, &g)| jobs[i].job.profile.cpus_per_gpu * g as f64)
                .sum();
            let cores = total_gpus as f64 * 8.0;
            (want / cores).max(1.0)
        };

        // Integrate progress over the round.
        for (&i, &g) in &grants {
            let job = &jobs[i].job;
            let mut rate = match &job.profile.pollux {
                Some(p) => {
                    let b = p.best_batch(g);
                    p.goodput(g, b) / p.init_batch.max(1) as f64
                }
                None => job
                    .profile
                    .iter_model
                    .throughput(g, GpuType::V100, true, 100.0),
            };
            if policy == RefPolicy::SynergyProportional && cpu_pressure > 1.0 {
                let deficit = 1.0 - 1.0 / cpu_pressure;
                rate /= 1.0 + job.profile.cpu_sensitivity * deficit;
            }
            let gained = rate * round_s;
            let j = &mut jobs[i];
            j.service += g as f64 * round_s;
            if j.done + gained >= j.total {
                let need = (j.total - j.done) / rate;
                j.finish = Some(t + need);
                j.done = j.total;
                finished += 1;
            } else {
                j.done += gained;
                j.remaining -= gained;
            }
        }
        t += round_s;
        if t > 1e10 {
            break; // Safety net.
        }
    }
    jobs.iter()
        .filter_map(|j| j.finish.map(|f| (j.id, f - j.arrival)))
        .collect()
}

/// Average JCT from a reference run.
pub fn avg_jct(results: &[(JobId, f64)]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|(_, j)| *j).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use blox_workloads::{ModelZoo, PhillyTraceGen};

    #[test]
    fn reference_completes_all_jobs() {
        let zoo = ModelZoo::standard();
        let trace = PhillyTraceGen::new(&zoo, 6.0)
            .runtimes(0.5, 1.0)
            .generate(50, 1);
        for policy in [
            RefPolicy::DiscreteLas,
            RefPolicy::Pollux,
            RefPolicy::SynergyProportional,
            RefPolicy::SynergyTune,
        ] {
            let out = run_reference(&trace, 32, 300.0, policy);
            assert_eq!(out.len(), 50, "{policy:?}");
            assert!(avg_jct(&out) > 0.0);
        }
    }

    #[test]
    fn synergy_tune_beats_proportional_in_reference() {
        let zoo = ModelZoo::standard();
        let trace = PhillyTraceGen::new(&zoo, 10.0)
            .runtimes(1.0, 1.0)
            .generate(120, 2);
        let prop = avg_jct(&run_reference(
            &trace,
            32,
            300.0,
            RefPolicy::SynergyProportional,
        ));
        let tune = avg_jct(&run_reference(&trace, 32, 300.0, RefPolicy::SynergyTune));
        assert!(tune <= prop, "tune {tune} vs proportional {prop}");
    }
}
