//! Model test for the per-job metric store: random push/read sequences
//! against a `BTreeMap<String, f64>`, the store it replaced. The keys mix
//! the interned simulator keys with owned ones that sort before, between
//! and after them, and the snapshot encoding of a job carrying them must
//! be the bytes the map would have produced.

use std::collections::BTreeMap;

use blox_core::cluster::ClusterState;
use blox_core::codec::{put_f64, put_str, put_u32};
use blox_core::ids::JobId;
use blox_core::job::Job;
use blox_core::metrics::RunStats;
use blox_core::profile::JobProfile;
use blox_core::snapshot::Snapshot;
use blox_core::state::JobState;
use proptest::prelude::*;

/// Interned keys, owned keys around each of them (`""`, `"a"`, `"h"`,
/// `"j"`, `"zz"`), and owned keys that share a prefix with an interned
/// one.
const KEYS: [&str; 11] = [
    "",
    "a",
    "goodput",
    "h",
    "iter",
    "iter_time",
    "j",
    "loss",
    "lossy",
    "request_rate",
    "zz",
];

fn job_with(pushes: &[(usize, f64)]) -> Job {
    let mut job = Job::new(JobId(7), 0.0, 1, 100.0, JobProfile::synthetic("m", 1.0));
    for (k, v) in pushes {
        job.push_metric(KEYS[*k], *v);
    }
    job
}

fn snapshot_of(job: Job) -> Vec<u8> {
    let mut jobs = JobState::new();
    jobs.add_new_jobs(vec![job]);
    Snapshot {
        now: 0.0,
        next_job: 8,
        expected_jobs: None,
        cluster: ClusterState::new(),
        jobs,
        queue: Vec::new(),
        stats: RunStats::new(),
    }
    .encode()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::env_cases(256),
        seed: 0xB10C_5EED_0000_0040,
    })]

    #[test]
    fn metric_store_matches_a_btreemap(
        ops in proptest::collection::vec((0usize..KEYS.len(), -1e6f64..1e6, any::<bool>()), 0..48),
    ) {
        let mut job = job_with(&[]);
        let mut model: BTreeMap<String, f64> = BTreeMap::new();
        let mut pushes = Vec::new();
        for (k, value, push) in ops {
            let key = KEYS[k];
            if push {
                job.push_metric(key, value);
                model.insert(key.to_string(), value);
                pushes.push((k, value));
            }
            for probe in KEYS {
                prop_assert_eq!(job.metric(probe), model.get(probe).copied());
            }
            prop_assert_eq!(job.metrics.len(), model.len());
            prop_assert_eq!(job.metrics.is_empty(), model.is_empty());
            let got: Vec<(&str, f64)> = job.metrics.iter().collect();
            let want: Vec<(&str, f64)> = model.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            prop_assert_eq!(got, want);
        }

        // Snapshot bytes: the job without metrics encodes a zero count
        // where the metric block goes; with metrics, that count must be
        // replaced by exactly the block the map would have written.
        let with = snapshot_of(job_with(&pushes));
        let without = snapshot_of(job_with(&[]));
        let mut block = Vec::new();
        put_u32(&mut block, model.len() as u32);
        for (k, v) in &model {
            put_str(&mut block, k);
            put_f64(&mut block, *v);
        }
        if model.is_empty() {
            prop_assert_eq!(with, without);
        } else {
            // A non-empty block starts with a non-zero count byte, so the
            // first differing byte is where the block starts.
            let at = with.iter().zip(&without).take_while(|(a, b)| a == b).count();
            prop_assert_eq!(&without[at..at + 4], &[0u8; 4][..]);
            let mut expected = without[..at].to_vec();
            expected.extend_from_slice(&block);
            expected.extend_from_slice(&without[at + 4..]);
            prop_assert_eq!(with, expected);
        }
    }
}

#[test]
fn metric_store_debug_reads_like_a_map() {
    let job = job_with(&[(7, 1.5), (1, 2.0)]);
    assert_eq!(format!("{:?}", job.metrics), r#"{"a": 2.0, "loss": 1.5}"#);
}
