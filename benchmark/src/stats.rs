//! Order statistics for benchmark samples.
//!
//! Quartiles use the *exclusive* method of Python's
//! `statistics.quantiles(values, n=4)`, so a spread computed here equals
//! the one the acceptance procedure computes from the same values.

/// Sorted copy of `values` (NaN-free by construction: every sample is a
/// measured duration or a count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let m = v.len();
    if m % 2 == 1 {
        v[m / 2]
    } else {
        (v[m / 2 - 1] + v[m / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` by the exclusive method; a single sample is its own
/// three quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the bounds in `BENCHMARK.json` are compared with.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank index (1-based) of the percentile `permille / 1000`.
fn rank(count: usize, permille: usize) -> usize {
    (count * permille).div_ceil(1000).clamp(1, count)
}

/// The percentile `permille / 1000` by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], permille: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    sorted(values)[rank(values.len(), permille) - 1]
}

/// The highest of the usual tail percentiles (as permille) that still
/// has at least ten samples beyond its nearest rank; `None` below 20
/// samples, where even the median has fewer than ten on its far side.
pub fn highest_supported_permille(count: usize) -> Option<usize> {
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&p| count > 0 && count - rank(count, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&[3.0], 900), 3.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is rank 90: exactly ten beyond it.
        assert_eq!(100 - rank(100, 900), 10);
        assert_eq!(99 - rank(99, 900), 9);
        assert_eq!(highest_supported_permille(100), Some(900));
        assert_eq!(highest_supported_permille(99), Some(750));
        assert_eq!(highest_supported_permille(200), Some(950));
        assert_eq!(highest_supported_permille(1000), Some(990));
        assert_eq!(highest_supported_permille(20), Some(500));
        assert_eq!(highest_supported_permille(19), None);
        assert_eq!(highest_supported_permille(0), None);
    }
}
