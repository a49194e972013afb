//! Simple smoothing baselines the ablation tests compare against the
//! Savitzky–Golay filter: a centered moving average and a median filter.

use crate::error::{invalid, StatsError};

/// Centered moving average with a shrinking window at the edges.
///
/// `window` must be odd and >= 1. For a point near a boundary the window is
/// truncated symmetrically as far as the data allows (so edge values are
/// averages of fewer points, never padded).
pub fn moving_average(data: &[f64], window: usize) -> Result<Vec<f64>, StatsError> {
    validate(data, window)?;
    let half = window / 2;
    let n = data.len();
    let out = (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            let slice = &data[lo..hi];
            slice.iter().sum::<f64>() / slice.len() as f64
        })
        .collect();
    Ok(out)
}

/// Centered median filter with a shrinking window at the edges.
pub fn median_filter(data: &[f64], window: usize) -> Result<Vec<f64>, StatsError> {
    validate(data, window)?;
    let half = window / 2;
    let n = data.len();
    let mut buf = Vec::with_capacity(window);
    let out = (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            buf.clear();
            buf.extend_from_slice(&data[lo..hi]);
            buf.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
            let m = buf.len();
            if m % 2 == 1 {
                buf[m / 2]
            } else {
                (buf[m / 2 - 1] + buf[m / 2]) / 2.0
            }
        })
        .collect();
    Ok(out)
}

fn validate(data: &[f64], window: usize) -> Result<(), StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput("smoothing input"));
    }
    if window == 0 || window.is_multiple_of(2) {
        return Err(invalid(
            "window",
            format!("must be odd and >= 1, got {window}"),
        ));
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFinite("smoothing input"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_interior_and_edges() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        let out = moving_average(&data, 3).unwrap();
        // Edges shrink to 2-point averages.
        assert_eq!(out, vec![1.5, 2.0, 3.0, 4.0, 4.5]);
    }

    #[test]
    fn window_one_is_identity() {
        let data = [3.0, 1.0, 2.0];
        assert_eq!(moving_average(&data, 1).unwrap(), data.to_vec());
        assert_eq!(median_filter(&data, 1).unwrap(), data.to_vec());
    }

    #[test]
    fn median_filter_removes_impulse_noise() {
        let data = [1.0, 1.0, 100.0, 1.0, 1.0];
        let out = median_filter(&data, 3).unwrap();
        assert_eq!(out[2], 1.0);
        // Moving average would smear the impulse instead.
        let ma = moving_average(&data, 3).unwrap();
        assert!(ma[2] > 30.0);
    }

    #[test]
    fn median_filter_even_truncated_window_averages_middle_pair() {
        let data = [1.0, 3.0, 5.0, 7.0];
        let out = median_filter(&data, 3).unwrap();
        // First point: window [1,3] -> median 2.
        assert_eq!(out[0], 2.0);
        assert_eq!(out[3], 6.0);
    }

    #[test]
    fn validation_errors() {
        assert!(moving_average(&[], 3).is_err());
        assert!(moving_average(&[1.0], 2).is_err());
        assert!(moving_average(&[1.0], 0).is_err());
        assert!(median_filter(&[1.0, f64::NAN], 3).is_err());
    }

    #[test]
    fn constant_series_unchanged() {
        let data = vec![2.5; 20];
        assert_eq!(moving_average(&data, 7).unwrap(), data);
        assert_eq!(median_filter(&data, 7).unwrap(), data);
    }
}
