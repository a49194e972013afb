//! Order statistics for latency samples and for comparing runs.

/// Sort ascending (samples are finite durations).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of the values between the first and third quartiles (inclusive,
/// by rank): as robust to a few outliers as the median, but with the
/// resolution of a mean.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let (lo, hi) = (s.len() / 4, s.len() - s.len() / 4);
    let mid = &s[lo..hi];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads read the same here as in any script that
/// checks the benchmark.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // May fall outside 0..=4 after the clamp: Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 90.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(
            interquartile_mean(&[9.0, 1.0, 2.0, 3.0, 100.0, 2.0, 3.0, 2.0]),
            2.5
        );
    }
}
