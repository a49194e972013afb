//! Property-based tests for the statistics substrate.

use autosens_stats::binning::{Binner, OutOfRange};
use autosens_stats::histogram::Histogram;
use autosens_stats::{correlation, descriptive, sampling, savgol, smoothing, succdiff};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a vector of finite, reasonably sized floats.
fn finite_vec(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6f64..1.0e6, min_len..=max_len)
}

proptest! {
    // ---------- binning ----------

    #[test]
    fn binner_index_roundtrips_centers(
        n_bins in 1usize..200,
        width in 0.001f64..1000.0,
        lo in -1.0e4f64..1.0e4,
    ) {
        let hi = lo + width * n_bins as f64;
        let b = Binner::new(lo, hi, width, OutOfRange::Discard).unwrap();
        prop_assert_eq!(b.n_bins(), n_bins);
        for i in 0..n_bins {
            // The center of every bin maps back to that bin.
            prop_assert_eq!(b.index_of(b.center(i)), Some(i));
        }
    }

    #[test]
    fn binner_clamp_never_discards_finite(
        v in -1.0e9f64..1.0e9,
    ) {
        let b = Binner::new(0.0, 100.0, 10.0, OutOfRange::Clamp).unwrap();
        prop_assert!(b.index_of(v).is_some());
    }

    // ---------- histogram / pdf ----------

    #[test]
    fn histogram_conserves_count(values in finite_vec(1, 500)) {
        let b = Binner::new(-1.0e6, 1.0e6, 1.0e4, OutOfRange::Discard).unwrap();
        let h = Histogram::from_values(b, &values);
        prop_assert_eq!(h.n_recorded() + h.n_discarded(), values.len() as u64);
        // All inputs are in range, so nothing may be discarded.
        prop_assert_eq!(h.n_discarded(), 0);
        prop_assert!((h.total() - values.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn pdf_mass_is_one(values in finite_vec(1, 500)) {
        let b = Binner::new(-1.0e6, 1.0e6, 1.0e4, OutOfRange::Discard).unwrap();
        let pdf = Histogram::from_values(b, &values).to_pdf().unwrap();
        prop_assert!((pdf.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_is_additive(a in finite_vec(0, 200), b in finite_vec(0, 200)) {
        let binner = Binner::new(-1.0e6, 1.0e6, 1.0e4, OutOfRange::Discard).unwrap();
        let mut ha = Histogram::from_values(binner.clone(), &a);
        let hb = Histogram::from_values(binner.clone(), &b);
        ha.merge(&hb).unwrap();
        let mut both = a.clone();
        both.extend_from_slice(&b);
        let hboth = Histogram::from_values(binner, &both);
        for i in 0..hboth.binner().n_bins() {
            prop_assert!((ha.count(i) - hboth.count(i)).abs() < 1e-9);
        }
    }

    // ---------- descriptive ----------

    #[test]
    fn quantiles_are_monotone_and_bounded(values in finite_vec(1, 300)) {
        let q0 = descriptive::quantile(&values, 0.0).unwrap();
        let q25 = descriptive::quantile(&values, 0.25).unwrap();
        let q50 = descriptive::quantile(&values, 0.5).unwrap();
        let q75 = descriptive::quantile(&values, 0.75).unwrap();
        let q100 = descriptive::quantile(&values, 1.0).unwrap();
        prop_assert!(q0 <= q25 && q25 <= q50 && q50 <= q75 && q75 <= q100);
        prop_assert_eq!(q0, descriptive::min(&values).unwrap());
        prop_assert_eq!(q100, descriptive::max(&values).unwrap());
    }

    #[test]
    fn mean_is_between_min_and_max(values in finite_vec(1, 300)) {
        let m = descriptive::mean(&values).unwrap();
        prop_assert!(m >= descriptive::min(&values).unwrap() - 1e-9);
        prop_assert!(m <= descriptive::max(&values).unwrap() + 1e-9);
    }

    // ---------- successive differences ----------

    #[test]
    fn sorted_series_minimizes_msd(values in finite_vec(3, 200)) {
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let msd_orig = succdiff::mean_successive_difference(&values).unwrap();
        let msd_sorted = succdiff::mean_successive_difference(&sorted).unwrap();
        prop_assert!(msd_sorted <= msd_orig + 1e-9);
    }

    #[test]
    fn mad_is_permutation_invariant(values in finite_vec(2, 200), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shuf = sampling::shuffled(&values, &mut rng);
        let a = succdiff::mean_absolute_difference(&values).unwrap();
        let b = succdiff::mean_absolute_difference(&shuf).unwrap();
        prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
    }

    // ---------- correlation ----------

    #[test]
    fn pearson_is_symmetric_and_bounded(
        pairs in prop::collection::vec((-1.0e3f64..1.0e3, -1.0e3f64..1.0e3), 3..100)
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let (Ok(rxy), Ok(ryx)) = (correlation::pearson(&x, &y), correlation::pearson(&y, &x)) {
            prop_assert!((rxy - ryx).abs() < 1e-9);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&rxy));
        }
    }

    #[test]
    fn pearson_invariant_to_affine_transform(
        pairs in prop::collection::vec((-1.0e3f64..1.0e3, -1.0e3f64..1.0e3), 3..100),
        scale in 0.1f64..10.0,
        shift in -100.0f64..100.0,
    ) {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let x2: Vec<f64> = x.iter().map(|v| v * scale + shift).collect();
        if let (Ok(a), Ok(b)) = (correlation::pearson(&x, &y), correlation::pearson(&x2, &y)) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    // ---------- savgol & smoothing ----------

    #[test]
    fn savgol_reproduces_cubics_exactly(
        c0 in -10.0f64..10.0,
        c1 in -1.0f64..1.0,
        c2 in -0.1f64..0.1,
        c3 in -0.01f64..0.01,
        n in 15usize..120,
    ) {
        let f = savgol::SavGol::new(11, 3).unwrap();
        let data: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64;
                c0 + c1 * x + c2 * x * x + c3 * x * x * x
            })
            .collect();
        let out = f.smooth(&data).unwrap();
        for (a, b) in out.iter().zip(&data) {
            prop_assert!((a - b).abs() < 1e-5 * b.abs().max(1.0), "{} vs {}", a, b);
        }
    }

    #[test]
    fn savgol_output_length_matches(values in finite_vec(1, 300)) {
        let f = savgol::SavGol::new(11, 3).unwrap();
        let out = f.smooth(&values).unwrap();
        prop_assert_eq!(out.len(), values.len());
    }

    #[test]
    fn moving_average_stays_within_range(values in finite_vec(1, 200)) {
        let out = smoothing::moving_average(&values, 7).unwrap();
        let lo = descriptive::min(&values).unwrap();
        let hi = descriptive::max(&values).unwrap();
        for v in out {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn median_filter_outputs_values_within_range(values in finite_vec(1, 200)) {
        let out = smoothing::median_filter(&values, 5).unwrap();
        let lo = descriptive::min(&values).unwrap();
        let hi = descriptive::max(&values).unwrap();
        for v in out {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    // ---------- sampling ----------

    #[test]
    fn shuffle_preserves_multiset(values in finite_vec(0, 200), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shuf = sampling::shuffled(&values, &mut rng);
        let mut orig = values.clone();
        shuf.sort_by(|a, b| a.partial_cmp(b).unwrap());
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(shuf, orig);
    }

}
