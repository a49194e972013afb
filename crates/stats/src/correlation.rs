//! Correlation measures.
//!
//! The paper's second locality diagnostic (§2.1, Figure 2) correlates the
//! per-minute temporal density of actions with the per-minute mean latency;
//! a negative correlation indicates that low-latency periods attract
//! disproportionate activity.

use crate::error::StatsError;

/// Pearson product-moment correlation coefficient.
///
/// Errors when either series is constant (undefined correlation).
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    check_pair(x, y)?;
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(crate::error::invalid(
            "series",
            "constant series: correlation undefined",
        ));
    }
    Ok(sxy / (sxx * syy).sqrt())
}

fn check_pair(x: &[f64], y: &[f64]) -> Result<(), StatsError> {
    if x.len() < 2 {
        return Err(StatsError::EmptyInput("correlation needs >= 2 points"));
    }
    if x.len() != y.len() {
        return Err(crate::error::invalid(
            "y",
            format!("length {} != x length {}", y.len(), x.len()),
        ));
    }
    if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite("correlation input"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_hand_computed() {
        let x = [1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 2.0];
        // cov = ((-1)(-2/3)+(0)(1/3)+(1)(1/3))/2 = 0.5 ; sx=1, sy=sqrt(1/3)
        let r = pearson(&x, &y).unwrap();
        assert!((r - 0.866_025_403_784_438_6).abs() < 1e-12, "r = {r}");
    }

    #[test]
    fn error_cases() {
        assert!(pearson(&[1.0], &[2.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[5.0, 5.0]).is_err());
        assert!(pearson(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn uncorrelated_checkerboard_near_zero() {
        // x cycles, y alternates independently of x's magnitude.
        let x: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        let y: Vec<f64> = (0..1000).map(|i| ((i / 10) % 2) as f64).collect();
        let r = pearson(&x, &y).unwrap();
        assert!(r.abs() < 0.05, "r = {r}");
    }
}
