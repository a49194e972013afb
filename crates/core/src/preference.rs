//! From `B` and `U` to the normalized latency preference (§2.3).
//!
//! The per-bin density ratio `B/U` is noisy, so it is smoothed with a
//! Savitzky–Golay filter (window 101, degree 3) and then normalized by its
//! value at a reference latency (300 ms). The result — the **normalized
//! latency preference** — reads directly: a value of 0.8 at some latency
//! means users are 20% less active there than at the reference, all else
//! being equal.

use serde::{Deserialize, Serialize};

use autosens_stats::binning::Binner;
use autosens_stats::histogram::Histogram;
use autosens_stats::savgol::SavGol;

use crate::config::AutoSensConfig;
use crate::error::AutoSensError;

/// A fitted normalized latency preference curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NormalizedPreference {
    binner: Binner,
    /// Raw `B/U` ratio per bin (`None` where unsupported).
    raw: Vec<Option<f64>>,
    /// Smoothed, normalized preference per bin (`None` outside the fitted
    /// span).
    normalized: Vec<Option<f64>>,
    /// First and last bin (inclusive) of the fitted span.
    span: (usize, usize),
    /// The normalization reference latency.
    reference_ms: f64,
}

impl NormalizedPreference {
    /// Fit the preference curve from biased and unbiased histograms.
    ///
    /// Support rule: a bin participates in the raw ratio when both its
    /// biased and unbiased masses meet the configured minima. The curve is
    /// fitted over the contiguous span from the first to the last supported
    /// bin; unsupported holes inside the span are bridged by linear
    /// interpolation before smoothing. The reference latency must fall
    /// inside the span.
    pub fn fit(
        biased: &Histogram,
        unbiased: &Histogram,
        cfg: &AutoSensConfig,
    ) -> Result<NormalizedPreference, AutoSensError> {
        let parent = autosens_obs::Span::noop("fit");
        NormalizedPreference::fit_traced(biased, unbiased, cfg, &parent, &mut Vec::new())
    }

    /// [`NormalizedPreference::fit`] with tracing: the smoothing and
    /// normalization stages open child spans under `parent` and append
    /// their wall-clock timings to `timings`.
    pub(crate) fn fit_traced(
        biased: &Histogram,
        unbiased: &Histogram,
        cfg: &AutoSensConfig,
        parent: &autosens_obs::Span,
        timings: &mut Vec<autosens_obs::StageTiming>,
    ) -> Result<NormalizedPreference, AutoSensError> {
        cfg.validate()?;
        let binner = biased.binner().clone();
        if !binner.same_grid(unbiased.binner()) {
            return Err(AutoSensError::Stats(
                autosens_stats::StatsError::BinnerMismatch,
            ));
        }
        if biased.is_empty() || unbiased.is_empty() {
            return Err(AutoSensError::EmptySlice(
                "preference fit: empty histogram".into(),
            ));
        }
        let n = binner.n_bins();
        let b_total = biased.total();
        let u_total = unbiased.total();

        // Raw per-bin ratio on supported bins.
        let mut raw: Vec<Option<f64>> = vec![None; n];
        for (i, slot) in raw.iter_mut().enumerate() {
            let b = biased.count(i);
            let u = unbiased.count(i);
            if b >= cfg.min_biased_count && u >= cfg.min_unbiased_count && u > 0.0 {
                *slot = Some((b / b_total) / (u / u_total));
            }
        }

        let supported: Vec<usize> = (0..n).filter(|&i| raw[i].is_some()).collect();
        if supported.len() < cfg.min_supported_bins {
            return Err(AutoSensError::InsufficientSupport {
                what: "B/U ratio".into(),
                supported: supported.len(),
                required: cfg.min_supported_bins,
            });
        }
        let first = supported[0];
        // Invariant: `supported.len() >= min_supported_bins >= 1` was just
        // checked, so a last element exists.
        let last = *supported.last().expect("non-empty");

        let mut span = parent.child(crate::plan::op::SMOOTHING);
        span.field("supported_bins", supported.len());
        span.field("window", cfg.savgol_window);
        // Contiguous series over the span with interpolated holes.
        let series = interpolate_holes(&raw[first..=last]);

        // Smooth and normalize.
        let filter =
            SavGol::new(cfg.savgol_window, cfg.savgol_degree).map_err(AutoSensError::from)?;
        let smoothed = filter.smooth(&series).map_err(AutoSensError::from)?;
        // The raw ratios are finite by construction (positive totals, u > 0)
        // and smoothing is a finite linear combination — but extreme masses
        // can overflow to ∞. Fail typed instead of emitting a NaN curve.
        if smoothed.iter().any(|v| !v.is_finite()) {
            return Err(AutoSensError::NonFinite {
                what: "smoothed B/U ratio".into(),
            });
        }
        timings.push(autosens_obs::StageTiming {
            stage: crate::plan::op::SMOOTHING.into(),
            wall_ms: span.finish(),
        });

        let span = parent.child(crate::plan::op::NORMALIZATION);
        let ref_bin = binner
            .index_of(cfg.reference_latency_ms)
            .filter(|&i| i >= first && i <= last)
            .ok_or(AutoSensError::ReferenceUnsupported {
                reference_ms: cfg.reference_latency_ms,
            })?;
        let ref_value = smoothed[ref_bin - first];
        if !(ref_value.is_finite() && ref_value > 0.0) {
            return Err(AutoSensError::ReferenceUnsupported {
                reference_ms: cfg.reference_latency_ms,
            });
        }

        let mut normalized = vec![None; n];
        for (k, v) in smoothed.iter().enumerate() {
            // Smoothing can slightly overshoot below zero on sparse edges;
            // clamp at zero (a negative preference is meaningless).
            normalized[first + k] = Some((v / ref_value).max(0.0));
        }
        timings.push(autosens_obs::StageTiming {
            stage: crate::plan::op::NORMALIZATION.into(),
            wall_ms: span.finish(),
        });

        Ok(NormalizedPreference {
            binner,
            raw,
            normalized,
            span: (first, last),
            reference_ms: cfg.reference_latency_ms,
        })
    }

    /// The binner of the latency axis.
    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    /// Normalized preference at a latency, if within the fitted span.
    pub fn at(&self, latency_ms: f64) -> Option<f64> {
        let i = self.binner.index_of(latency_ms)?;
        self.normalized[i]
    }

    /// Raw (unsmoothed) `B/U` ratio at a latency, if that bin was supported.
    pub fn raw_at(&self, latency_ms: f64) -> Option<f64> {
        let i = self.binner.index_of(latency_ms)?;
        self.raw[i]
    }

    /// The `(latency, preference)` series over the fitted span.
    pub fn series(&self) -> Vec<(f64, f64)> {
        (self.span.0..=self.span.1)
            .filter_map(|i| self.normalized[i].map(|v| (self.binner.center(i), v)))
            .collect()
    }

    /// The `(latency, raw ratio)` series over the supported bins.
    pub fn raw_series(&self) -> Vec<(f64, f64)> {
        (0..self.binner.n_bins())
            .filter_map(|i| self.raw[i].map(|v| (self.binner.center(i), v)))
            .collect()
    }

    /// The fitted latency span `(lo_ms, hi_ms)` (bin centers).
    pub fn span_ms(&self) -> (f64, f64) {
        (
            self.binner.center(self.span.0),
            self.binner.center(self.span.1),
        )
    }

    /// The reference latency used for normalization.
    pub fn reference_ms(&self) -> f64 {
        self.reference_ms
    }

    /// The multiplicative drop factor `pref(from) / pref(to)` — e.g. the
    /// paper's §3.5 uses `drop_factor(500, 1000)` ≈ 1.3. `None` if either
    /// end is outside the span or the denominator is zero.
    pub fn drop_factor(&self, from_ms: f64, to_ms: f64) -> Option<f64> {
        let a = self.at(from_ms)?;
        let b = self.at(to_ms)?;
        if b > 0.0 {
            Some(a / b)
        } else {
            None
        }
    }
}

/// Replace `None` holes by linear interpolation between their supported
/// neighbours. The first and last elements are guaranteed supported by the
/// caller (the span is trimmed to supported bins).
fn interpolate_holes(window: &[Option<f64>]) -> Vec<f64> {
    let n = window.len();
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        match window[i] {
            Some(v) => {
                out[i] = v;
                i += 1;
            }
            None => {
                // Find the hole extent [i, j). Invariant: the caller trims
                // the span to supported endpoints, so a hole always has a
                // supported neighbour on each side.
                let prev = i.checked_sub(1).expect("first element is supported");
                let mut j = i;
                while j < n && window[j].is_none() {
                    j += 1;
                }
                debug_assert!(j < n, "last element is supported");
                let a = out[prev];
                let b = window[j].expect("stop condition");
                let gap = (j - prev) as f64;
                for (k, slot) in out.iter_mut().enumerate().take(j).skip(i) {
                    let frac = (k - prev) as f64 / gap;
                    *slot = a + (b - a) * frac;
                }
                i = j;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_stats::binning::OutOfRange;

    fn binner() -> Binner {
        Binner::new(0.0, 1000.0, 10.0, OutOfRange::Discard).unwrap()
    }

    fn cfg() -> AutoSensConfig {
        AutoSensConfig {
            latency_hi_ms: 1000.0,
            savgol_window: 11,
            savgol_degree: 3,
            min_biased_count: 5.0,
            min_unbiased_count: 5.0,
            min_supported_bins: 10,
            reference_latency_ms: 300.0,
            ..AutoSensConfig::default()
        }
    }

    /// Build histograms whose ratio is a known function of latency.
    fn histograms_with_ratio(f: impl Fn(f64) -> f64) -> (Histogram, Histogram) {
        let b = binner();
        let mut biased = Histogram::new(b.clone());
        let mut unbiased = Histogram::new(b.clone());
        for i in 0..b.n_bins() {
            let center = b.center(i);
            // Uniform unbiased mass, biased mass proportional to f(center).
            unbiased.record_weighted(center, 1000.0);
            biased.record_weighted(center, 1000.0 * f(center));
        }
        (biased, unbiased)
    }

    #[test]
    fn recovers_flat_ratio() {
        let (b, u) = histograms_with_ratio(|_| 1.0);
        let p = NormalizedPreference::fit(&b, &u, &cfg()).unwrap();
        for (_, v) in p.series() {
            assert!((v - 1.0).abs() < 1e-9);
        }
        assert_eq!(p.at(300.0).map(|v| (v * 1e9).round() / 1e9), Some(1.0));
    }

    #[test]
    fn recovers_linear_decay_and_normalizes_at_reference() {
        let (b, u) = histograms_with_ratio(|l| 2.0 - l / 1000.0);
        let p = NormalizedPreference::fit(&b, &u, &cfg()).unwrap();
        // Value at the reference is exactly 1.
        assert!((p.at(300.0).unwrap() - 1.0).abs() < 1e-9);
        // f(600)/f(300) = 1.4/1.7.
        let expect = 1.4 / 1.7;
        assert!((p.at(600.0).unwrap() - expect).abs() < 0.01);
        // Monotone decreasing.
        let series = p.series();
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9);
        }
        // Drop factor matches the ratio of values.
        let d = p.drop_factor(300.0, 600.0).unwrap();
        assert!((d - 1.0 / expect).abs() < 0.02);
    }

    #[test]
    fn smoothing_reduces_noise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let b0 = binner();
        let mut biased = Histogram::new(b0.clone());
        let mut unbiased = Histogram::new(b0.clone());
        for i in 0..b0.n_bins() {
            let center = b0.center(i);
            let truth = 1.5 - center / 1000.0;
            let noise = 1.0 + 0.2 * (rng.gen::<f64>() - 0.5);
            unbiased.record_weighted(center, 1000.0);
            biased.record_weighted(center, 1000.0 * truth * noise);
        }
        let p = NormalizedPreference::fit(&biased, &unbiased, &cfg()).unwrap();
        // Smoothed curve is much closer to the truth than the raw ratio.
        let mut raw_err = 0.0;
        let mut smooth_err = 0.0;
        let mut count = 0;
        for i in 5..(b0.n_bins() - 5) {
            let center = b0.center(i);
            let truth = (1.5 - center / 1000.0) / (1.5 - 0.305); // normalized at ~300
            if let (Some(r), Some(s)) = (p.raw_at(center), p.at(center)) {
                // Raw is normalized differently; normalize by its 300ms value.
                let raw_norm = r / p.raw_at(305.0).unwrap();
                raw_err += (raw_norm - truth).abs();
                smooth_err += (s - truth).abs();
                count += 1;
            }
        }
        assert!(count > 50);
        assert!(
            smooth_err < raw_err * 0.6,
            "smooth {smooth_err} vs raw {raw_err}"
        );
    }

    #[test]
    fn holes_are_interpolated() {
        let b0 = binner();
        let mut biased = Histogram::new(b0.clone());
        let mut unbiased = Histogram::new(b0.clone());
        for i in 0..b0.n_bins() {
            let center = b0.center(i);
            unbiased.record_weighted(center, 1000.0);
            // Leave bins 40..=45 unsupported (below min count).
            let w = if (40..=45).contains(&i) { 1.0 } else { 1000.0 };
            biased.record_weighted(center, w);
        }
        let p = NormalizedPreference::fit(&biased, &unbiased, &cfg()).unwrap();
        // The curve is still defined across the hole.
        assert!(p.at(425.0).is_some());
        // But the raw ratio is not.
        assert!(p.raw_at(425.0).is_none());
    }

    #[test]
    fn insufficient_support_is_an_error() {
        let b0 = binner();
        let mut biased = Histogram::new(b0.clone());
        let mut unbiased = Histogram::new(b0.clone());
        // Only 3 supported bins.
        for i in [10usize, 11, 12] {
            biased.record_weighted(b0.center(i), 100.0);
            unbiased.record_weighted(b0.center(i), 100.0);
        }
        match NormalizedPreference::fit(&biased, &unbiased, &cfg()) {
            Err(AutoSensError::InsufficientSupport { supported, .. }) => {
                assert_eq!(supported, 3)
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn reference_outside_span_is_an_error() {
        let b0 = binner();
        let mut biased = Histogram::new(b0.clone());
        let mut unbiased = Histogram::new(b0.clone());
        // Support only bins 50..80 (500-800 ms); reference 300 ms is outside.
        for i in 50..80 {
            biased.record_weighted(b0.center(i), 100.0);
            unbiased.record_weighted(b0.center(i), 100.0);
        }
        assert!(matches!(
            NormalizedPreference::fit(&biased, &unbiased, &cfg()),
            Err(AutoSensError::ReferenceUnsupported { .. })
        ));
    }

    #[test]
    fn empty_histograms_are_an_error() {
        let e = Histogram::new(binner());
        let (b, u) = histograms_with_ratio(|_| 1.0);
        assert!(NormalizedPreference::fit(&e, &u, &cfg()).is_err());
        assert!(NormalizedPreference::fit(&b, &e, &cfg()).is_err());
    }

    #[test]
    fn mismatched_binners_are_an_error() {
        let (b, _) = histograms_with_ratio(|_| 1.0);
        let other = Histogram::new(Binner::new(0.0, 1000.0, 20.0, OutOfRange::Discard).unwrap());
        assert!(NormalizedPreference::fit(&b, &other, &cfg()).is_err());
    }

    #[test]
    fn interpolate_holes_basics() {
        let w = [Some(1.0), None, None, Some(4.0)];
        assert_eq!(interpolate_holes(&w), vec![1.0, 2.0, 3.0, 4.0]);
        let w = [Some(2.0), Some(3.0)];
        assert_eq!(interpolate_holes(&w), vec![2.0, 3.0]);
        let w = [Some(5.0)];
        assert_eq!(interpolate_holes(&w), vec![5.0]);
    }

    #[test]
    fn span_and_accessors() {
        let (b, u) = histograms_with_ratio(|_| 1.0);
        let p = NormalizedPreference::fit(&b, &u, &cfg()).unwrap();
        let (lo, hi) = p.span_ms();
        assert!(lo < hi);
        assert_eq!(p.reference_ms(), 300.0);
        assert!(p.at(-5.0).is_none());
        assert!(p.at(5000.0).is_none());
        assert_eq!(p.series().len(), p.binner().n_bins());
        assert_eq!(p.raw_series().len(), p.binner().n_bins());
    }
}
