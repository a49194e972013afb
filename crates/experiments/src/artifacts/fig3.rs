//! Figure 3: the methodology overview — (b) the biased `B` and unbiased `U`
//! PDFs, and (c) the raw `B/U` ratio alongside the smoothed preference.
//! (Panel (a) is a scatter illustration of the nearest-sample draws; its
//! CSV equivalent here is the first 200 unbiased draws' timestamps.)

use autosens_core::report::{f3, series_csv, text_table};
use autosens_core::{PlanInput, RunOptions};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};

use super::{Artifact, ShapeCheck};
use crate::dataset::Dataset;

/// Regenerate Figure 3 on the business SelectMail slice.
pub fn generate(data: &Dataset) -> Artifact {
    let slice = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business);
    let report = data
        .engine
        .run(PlanInput::slice(&data.log, &slice), RunOptions::default())
        .expect("business SelectMail slice fits")
        .report;

    let b_pdf = report.biased.to_pdf().expect("non-empty");
    let u_pdf = report.unbiased.to_pdf().expect("non-empty");

    // Text: densities at a few latencies plus the ratio and smoothed curve.
    let grid = [200.0, 300.0, 500.0, 800.0, 1200.0, 1600.0];
    let mut rows = Vec::new();
    for &l in &grid {
        rows.push(vec![
            format!("{l:.0}"),
            b_pdf
                .density_at(l)
                .map(|d| format!("{d:.6}"))
                .unwrap_or_else(|| "-".into()),
            u_pdf
                .density_at(l)
                .map(|d| format!("{d:.6}"))
                .unwrap_or_else(|| "-".into()),
            report
                .preference
                .raw_at(l)
                .map(f3)
                .unwrap_or_else(|| "-".into()),
            report
                .preference
                .at(l)
                .map(f3)
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    let mut rendered = String::from(
        "Figure 3 — biased (B) and unbiased (U) PDFs and the B/U preference\n\
         (business SelectMail; preference normalized at 300 ms)\n\n",
    );
    rendered.push_str(&text_table(
        &["latency", "B density", "U density", "raw B/U", "smoothed"],
        &rows,
    ));

    // CSVs: full PDFs and both ratio series.
    let binner = b_pdf.binner().clone();
    let pdf_series = |pdf: &autosens_stats::Pdf| -> Vec<(f64, f64)> {
        (0..binner.n_bins())
            .map(|i| (binner.center(i), pdf.density(i)))
            .collect()
    };
    let csv = vec![
        (
            "fig3b_biased_pdf".to_string(),
            series_csv(("latency_ms", "density"), &pdf_series(&b_pdf)),
        ),
        (
            "fig3b_unbiased_pdf".to_string(),
            series_csv(("latency_ms", "density"), &pdf_series(&u_pdf)),
        ),
        (
            "fig3c_raw_ratio".to_string(),
            series_csv(("latency_ms", "ratio"), &report.preference.raw_series()),
        ),
        (
            "fig3c_smoothed".to_string(),
            series_csv(("latency_ms", "preference"), &report.preference.series()),
        ),
    ];

    // Checks: B shifted left of U (users favor fast periods) and the
    // smoothed curve is far less jagged than the raw ratio.
    let b_mean = b_pdf.mean();
    let u_mean = u_pdf.mean();
    let raw = report.preference.raw_series();
    let smooth = report.preference.series();
    let jag = |s: &[(f64, f64)]| -> f64 {
        if s.len() < 2 {
            return 0.0;
        }
        s.windows(2).map(|w| (w[1].1 - w[0].1).abs()).sum::<f64>() / (s.len() - 1) as f64
    };
    let checks = vec![
        ShapeCheck::new(
            "biased PDF sits left of unbiased PDF (mean latency lower)",
            b_mean < u_mean,
            format!("B mean {b_mean:.0} ms vs U mean {u_mean:.0} ms"),
        ),
        ShapeCheck::new(
            "smoothing strongly reduces bin-to-bin jitter",
            jag(&smooth) < 0.5 * jag(&raw),
            format!("jitter {:.4} -> {:.4}", jag(&raw), jag(&smooth)),
        ),
        ShapeCheck::new(
            "preference is 1 at the reference latency",
            report
                .preference
                .at(300.0)
                .map(|v| (v - 1.0).abs() < 1e-9)
                .unwrap_or(false),
            format!("{:?}", report.preference.at(300.0)),
        ),
    ];

    Artifact {
        id: "fig3",
        title: "B and U PDFs; raw and smoothed B/U",
        rendered,
        csv,
        checks,
    }
}
