//! Descriptive statistics on slices of `f64`.
//!
//! Used throughout the workspace: per-user median latency (the §3.4
//! conditioning quartiles), summary reporting, and test assertions.

use crate::error::StatsError;

/// Arithmetic mean. Errors on an empty slice.
pub fn mean(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput("mean"));
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Unbiased (n-1) sample variance. Errors on fewer than two points.
pub fn variance(data: &[f64]) -> Result<f64, StatsError> {
    if data.len() < 2 {
        return Err(StatsError::EmptyInput("variance needs >= 2 points"));
    }
    let m = mean(data)?;
    let ss: f64 = data.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / (data.len() - 1) as f64)
}

/// Sample standard deviation.
pub fn std_dev(data: &[f64]) -> Result<f64, StatsError> {
    variance(data).map(f64::sqrt)
}

/// Median (quantile 0.5).
pub fn median(data: &[f64]) -> Result<f64, StatsError> {
    quantile(data, 0.5)
}

/// Linear-interpolation quantile (the "type 7" estimator used by NumPy/R).
///
/// `q` must lie in `[0, 1]`. Errors on an empty slice, non-finite values,
/// or `q` out of range.
pub fn quantile(data: &[f64], q: f64) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput("quantile"));
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(crate::error::invalid(
            "q",
            format!("must be in [0,1], got {q}"),
        ));
    }
    if data.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NonFinite("quantile input"));
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    Ok(quantile_sorted(&sorted, q))
}

/// Quantile on data the caller guarantees is already sorted ascending.
///
/// Panics on empty input (caller bug: check before sorting).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile_sorted on empty slice");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Minimum, ignoring nothing (errors on empty or NaN-containing input).
pub fn min(data: &[f64]) -> Result<f64, StatsError> {
    fold_extreme(data, f64::min, "min")
}

/// Maximum counterpart of [`min`].
pub fn max(data: &[f64]) -> Result<f64, StatsError> {
    fold_extreme(data, f64::max, "max")
}

fn fold_extreme(
    data: &[f64],
    op: fn(f64, f64) -> f64,
    what: &'static str,
) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput(what));
    }
    if data.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NonFinite(what));
    }
    Ok(data.iter().copied().fold(data[0], op))
}

/// A one-pass summary of a data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of points.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a data set. Errors on empty or NaN-containing input.
    pub fn of(data: &[f64]) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptyInput("summary"));
        }
        if data.iter().any(|x| x.is_nan()) {
            return Err(StatsError::NonFinite("summary input"));
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
        Ok(Summary {
            n: data.len(),
            mean: mean(data)?,
            std_dev: if data.len() >= 2 { std_dev(data)? } else { 0.0 },
            min: sorted[0],
            p25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            p75: quantile_sorted(&sorted, 0.75),
            max: *sorted.last().expect("non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_closed_form() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&data).unwrap(), 5.0);
        // Sum of squared deviations is 32; sample variance 32/7.
        assert!((variance(&data).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&data).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_short_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
        assert!(median(&[]).is_err());
        assert!(min(&[]).is_err());
        assert!(max(&[]).is_err());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
        assert_eq!(median(&[42.0]).unwrap(), 42.0);
    }

    #[test]
    fn quantile_linear_interpolation_matches_numpy_type7() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&data, 1.0).unwrap(), 4.0);
        // numpy.percentile([1,2,3,4], 25) == 1.75
        assert!((quantile(&data, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!((quantile(&data, 0.75).unwrap() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn quantile_rejects_bad_inputs() {
        assert!(quantile(&[1.0], -0.1).is_err());
        assert!(quantile(&[1.0], 1.1).is_err());
        assert!(quantile(&[1.0, f64::NAN], 0.5).is_err());
    }

    #[test]
    fn min_max_and_nan_rejection() {
        let data = [3.0, -1.0, 7.0];
        assert_eq!(min(&data).unwrap(), -1.0);
        assert_eq!(max(&data).unwrap(), 7.0);
        assert!(min(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn summary_is_consistent() {
        let data = [5.0, 1.0, 3.0, 2.0, 4.0];
        let s = Summary::of(&data).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p75, 4.0);
        assert!(Summary::of(&[]).is_err());
        let single = Summary::of(&[7.0]).unwrap();
        assert_eq!(single.std_dev, 0.0);
    }
}
