//! Order statistics, and the block arithmetic that turns one run's ops
//! into one steady number per metric.

/// Blocks a run's timed window is cut into, equal in time.
pub const BLOCKS: usize = 10;

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `values` need not be sorted.
///
/// # Panics
///
/// Panics on an empty slice or a NaN: neither has a quantile.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the acceptance rule is stated in. The quartiles
/// are those of Python's `statistics.quantiles(values, n=4)` (exclusive
/// method), so this number can be checked against the driver's.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = sorted.len();
    let quartile = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / median(&sorted)
}

/// The block an op that started `elapsed` into a window of `window`
/// belongs to (both in the same unit).
pub fn block_of(elapsed: f64, window: f64) -> usize {
    ((elapsed / window * BLOCKS as f64) as usize).min(BLOCKS - 1)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Reduces per-block values to the run's value: the quartile block on
/// the metric's good side (the third-best of ten). A neighbour on the
/// host can only slow the program, never speed it, and does so for
/// seconds at a time — often for four or five blocks of a run — so the
/// good-side quartile repeats better than the median block, while one
/// lucky block still cannot decide it. Blocks in which nothing was
/// measured are left out.
pub fn steady_block(per_block: &[Option<f64>], better: Better) -> f64 {
    let measured: Vec<f64> = per_block.iter().flatten().copied().collect();
    match better {
        Better::Lower => percentile(&measured, 0.25),
        Better::Higher => percentile(&measured, 0.75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn ops_fall_into_ten_equal_blocks_in_time_order() {
        assert_eq!(block_of(0.0, 20.0), 0);
        assert_eq!(block_of(1.99, 20.0), 0);
        assert_eq!(block_of(2.0, 20.0), 1);
        assert_eq!(block_of(19.99, 20.0), 9);
        // An op that starts on the closing edge still counts.
        assert_eq!(block_of(20.0, 20.0), 9);
    }

    #[test]
    fn steady_block_ignores_a_long_burst_a_lucky_block_and_empty_blocks() {
        // Four of ten blocks under a neighbour's burst, one empty.
        let mut blocks: Vec<Option<f64>> = vec![Some(10.0); 5];
        blocks.extend([Some(13.0), Some(14.0), Some(13.5), Some(12.8), None]);
        assert_eq!(steady_block(&blocks, Better::Lower), 10.0);
        // One block that was somehow fast does not become the value.
        blocks[0] = Some(7.0);
        assert_eq!(steady_block(&blocks, Better::Lower), 10.0);
        // For a rate the good side is the high one.
        let rates: Vec<Option<f64>> = [90.0, 100.0, 100.0, 100.0, 100.0, 70.0, 72.0, 75.0, 71.0]
            .iter()
            .map(|&r| Some(r))
            .collect();
        assert_eq!(steady_block(&rates, Better::Higher), 100.0);
    }
}
