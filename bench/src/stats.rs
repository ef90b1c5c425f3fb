//! Sample statistics shared by every workload: nearest-rank quantiles,
//! the tail-percentile picker, and the FNV digest used to fingerprint
//! deterministic outputs.

/// A percentile in per-mille (p50 = 500, p99.9 = 999), so rank
/// arithmetic stays in integers.
pub type PerMille = u32;

/// The median.
pub const P50: PerMille = 500;

/// Tail percentiles the picker may choose from, highest first.
pub const TAIL_LADDER: [PerMille; 5] = [999, 990, 950, 900, 750];

/// The highest ladder percentile with at least ten samples beyond it, or
/// `None` when even the lowest rung has fewer (the median is then the only
/// honest number). "Beyond" counts the samples strictly above the
/// nearest-rank position of the percentile.
pub fn pick_tail(n: usize) -> Option<PerMille> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn rank(n: usize, p: PerMille) -> usize {
    (p as usize * n).div_ceil(1000).clamp(1, n.max(1))
}

/// `p99`, `p99.9`: the label a percentile carries in metric names.
pub fn label(p: PerMille) -> String {
    if p.is_multiple_of(10) {
        format!("p{}", p / 10)
    } else {
        format!("p{}.{}", p / 10, p % 10)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
pub fn percentile(sorted: &[f64], p: PerMille) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, p) - 1],
    }
}

/// Sort a sample set ascending (all samples are finite timings).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Nearest-rank percentile of an unsorted sample set.
pub fn quantile(v: &[f64], p: PerMille) -> f64 {
    percentile(&sorted(v.to_vec()), p)
}

/// Median of an unsorted sample set, the mean of the middle two when the
/// count is even (0 when empty). Used across passes, where there are few
/// values and every one should count; sample quantiles within a pass are
/// nearest-rank ([`percentile`]).
pub fn median(v: &[f64]) -> f64 {
    let v = sorted(v.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Distance between the first and third quartile as a share of the
/// median, the quartiles cut as Python's `statistics.quantiles(v, n=4)`
/// cuts them (the driver's steadiness measure). 0 with fewer than two
/// values.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let v = sorted(v.to_vec());
    let m = v.len();
    if m < 2 {
        return 0.0;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = cut(2);
    if mid == 0.0 {
        0.0
    } else {
        (cut(3) - cut(1)) / mid.abs()
    }
}

/// 64-bit FNV-1a over a byte string: the `result_digest` fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_chooses_highest_percentile_with_ten_samples_beyond() {
        // 40 samples: p75 sits at rank 30, ten samples lie beyond it.
        assert_eq!(pick_tail(0), None);
        assert_eq!(pick_tail(39), None);
        assert_eq!(pick_tail(40), Some(750));
        assert_eq!(pick_tail(99), Some(750));
        assert_eq!(pick_tail(100), Some(900));
        assert_eq!(pick_tail(199), Some(900));
        assert_eq!(pick_tail(200), Some(950));
        assert_eq!(pick_tail(999), Some(950));
        assert_eq!(pick_tail(1000), Some(990));
        assert_eq!(pick_tail(9_999), Some(990));
        assert_eq!(pick_tail(10_000), Some(999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, P50), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 999), 100.0);
        assert_eq!(percentile(&[], P50), 0.0);
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p99.9");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]), 10.5 / 4.0);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        assert_eq!(quartile_spread(&[10.0, 11.0, 13.0]), 3.0 / 11.0);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn digest_separates_inputs() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
