//! The estimators every reported number goes through.
//!
//! No end-to-end metric is a mean, a sum, an inverse or a ratio of timings:
//! each is one fixed percentile of samples pooled over the run's interleaved
//! rounds, so a slow spell on the host moves a few samples of every metric
//! instead of owning one of them.

/// Samples a percentile must leave beyond itself before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the latency reports choose from, lowest first.
pub const PERCENTILES: [usize; 3] = [50, 90, 99];

/// Nearest-rank position (1-based) of percentile `pct` in a pool of `n`.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n)
}

/// Value at percentile `pct` of `samples` (nearest rank on the sorted
/// pool). `None` for an empty pool.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// Median of one pool.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// The percentile of the step pool that `step_s` reports: the lower
/// quartile. A step is deterministic work, and what the shared host does to
/// it only ever adds time, in spells of seconds: the upper half of a run's
/// pool follows the host, the lower quartile the code. Over two sets of ten
/// 30-second runs of each workload (a quiet hour and a busier one) the
/// median of the pool spread 1.0 / 7.3 % between runs on `dist2`, 2.0 / 7.7 %
/// on `query_evict`, 3.6 / 5.8 % on `plasma_two_stream` and 6.8 / 7.8 % on
/// `hybrid16`; the lower quartile 1.3 / 4.5 %, 1.5 / 3.8 %, 2.5 / 3.6 % and
/// 7.0 / 7.2 %. The tenth percentile and the fastest sample are worse again
/// (`hybrid16` pools ten steps a run). `setup_s` stays a median: a run of
/// `hybrid16` holds six set-ups, and its fastest are the erratic ones.
pub const STEP_PERCENTILE: usize = 25;

/// Percentile of several rounds' samples pooled into one set — not of the
/// rounds' own percentiles, which would weigh a short round like a long one.
pub fn pooled_percentile(rounds: &[&[f64]], pct: usize) -> Option<f64> {
    percentile(&rounds.concat(), pct)
}

/// The highest of [`PERCENTILES`] that still has [`MIN_BEYOND`] samples
/// above it in a pool of `n`: p90 at 900 samples, p99 at 1500.
pub fn highest_percentile(n: usize) -> Option<usize> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&pct| n > 0 && n - rank(n, pct) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_percentiles_weigh_samples_not_rounds() {
        // Medians of the rounds are 1, 1 and 100; the median of those is 1,
        // but the long slow round holds most of the samples.
        let slow = [100.0; 5];
        assert_eq!(pooled_percentile(&[&[1.0], &[1.0], &slow], 50), Some(100.0));
        assert_eq!(pooled_percentile(&[&[3.0, 1.0], &[2.0]], 50), Some(2.0));
        assert_eq!(pooled_percentile(&[], 50), None);
        // The lower quartile of ten steps is the third fastest.
        let steps: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(
            pooled_percentile(&[&steps[..4], &steps[4..]], STEP_PERCENTILE),
            Some(3.0)
        );
    }

    #[test]
    fn percentile_rule_picks_p90_at_900_and_p99_at_1500() {
        assert_eq!(highest_percentile(900), Some(90));
        assert_eq!(highest_percentile(1000), Some(99));
        assert_eq!(highest_percentile(1500), Some(99));
        assert_eq!(highest_percentile(99), Some(50));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 99), Some(99.0));
        assert_eq!(percentile(&[7.0], 90), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
