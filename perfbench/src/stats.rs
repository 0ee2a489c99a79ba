//! The benchmark's own order statistics: percentiles, quartiles, spread.
//!
//! Self-contained on purpose — the numbers a later change is judged by
//! must not move because a helper elsewhere in the repo changed.

/// Percentile candidates a timing may be reported at, ascending, in
/// per mille (whole numbers, so the sample-count rule is exact).
const TAILS_PER_MILLE: [usize; 4] = [500, 900, 990, 999];

/// Minimum samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Returns `values` sorted ascending (total order, NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice by linear
/// interpolation between closest ranks; `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The highest of p50, p90, p99 and p99.9 that still has at least ten
/// of `n` samples beyond it; the median when even p90 has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    let per_mille = TAILS_PER_MILLE
        .into_iter()
        .rev()
        .find(|pm| n * (1000 - pm) >= MIN_BEYOND * 1000)
        .unwrap_or(TAILS_PER_MILLE[0]);
    per_mille as f64 / 1000.0
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so spreads printed here match the ones the acceptance check
/// derives. Fewer than two values yield that value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread a bound is compared against. `0.0` when the median
/// is zero.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 0.50);
        assert_eq!(tail_percentile(99), 0.50);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(999), 0.90);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
