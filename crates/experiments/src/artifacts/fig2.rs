//! Figure 2: normalized latency and user-activity rate over a 2-day window
//! (1-minute aggregation), showing that fast periods attract activity.

use autosens_core::locality::{activity_latency_series, density_latency_correlation};
use autosens_core::report::text_table;
use autosens_telemetry::time::MS_PER_DAY;

use super::{Artifact, ShapeCheck};
use crate::dataset::Dataset;

/// Regenerate Figure 2 over days 4–5 (a Tuesday and Wednesday: the epoch,
/// Jan 1, is a Friday), falling back to the log's first two days when the
/// span is shorter.
pub fn generate(data: &Dataset) -> Artifact {
    let span_end = data.log.view().end_time().map(|t| t.millis()).unwrap_or(0);
    let (from, to) = if span_end >= 6 * MS_PER_DAY {
        (4 * MS_PER_DAY, 6 * MS_PER_DAY)
    } else {
        (0, span_end.clamp(MS_PER_DAY, 2 * MS_PER_DAY))
    };
    let points =
        activity_latency_series(&data.log.view(), from, to, 60_000).expect("log covers the window");

    // Hour-level view for the text rendering (the CSV has the full minutes).
    let mut rows = Vec::new();
    for h in 0..48 {
        let lo = h * 60;
        let hi = ((h + 1) * 60).min(points.len());
        if lo >= points.len() {
            break;
        }
        let chunk = &points[lo..hi];
        let act: f64 = chunk.iter().map(|p| p.activity).sum::<f64>() / chunk.len() as f64;
        let lats: Vec<f64> = chunk.iter().filter_map(|p| p.latency).collect();
        let lat = if lats.is_empty() {
            f64::NAN
        } else {
            lats.iter().sum::<f64>() / lats.len() as f64
        };
        rows.push(vec![
            format!("day {} {:02}:00", 4 + h / 24, h % 24),
            format!("{act:.2}"),
            if lat.is_nan() {
                "-".into()
            } else {
                format!("{lat:.2}")
            },
        ]);
    }
    let mut rendered = String::from(
        "Figure 2 — normalized activity rate and latency over two days\n\
         (hourly means of the 1-minute series; y-axes normalized to max = 1)\n\n",
    );
    rendered.push_str(&text_table(&["hour", "activity", "latency"], &rows));

    let mut csv_body = String::from("start_ms,activity,latency\n");
    for p in &points {
        csv_body.push_str(&format!(
            "{},{},{}\n",
            p.start_ms,
            p.activity,
            p.latency.map(|l| l.to_string()).unwrap_or_default()
        ));
    }
    let csv = vec![("fig2_activity_latency".to_string(), csv_body)];

    // The paper's claim: periods of low latency have much higher activity.
    // Across full days the diurnal confounder couples them positively
    // (daytime is both busy and slow); the *within-hour-band* relationship
    // is what carries the preference. Check both: (a) daytime vs night
    // contrast exists, (b) the within-band correlation (controlling the
    // clock by differencing against the hour-of-day means) is negative.
    let corr = density_latency_correlation(&data.log.view(), 60_000).expect("non-trivial log");

    // Within-band: subtract hour-of-day means from both series.
    let mut by_hour: Vec<(f64, f64, u32)> = vec![(0.0, 0.0, 0); 24];
    for (i, p) in points.iter().enumerate() {
        if let Some(l) = p.latency {
            let h = (i / 60) % 24;
            by_hour[h].0 += p.activity;
            by_hour[h].1 += l;
            by_hour[h].2 += 1;
        }
    }
    let mut devs_a = Vec::new();
    let mut devs_l = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if let Some(l) = p.latency {
            let h = (i / 60) % 24;
            let (sa, sl, n) = by_hour[h];
            if n > 1 {
                devs_a.push(p.activity - sa / n as f64);
                devs_l.push(l - sl / n as f64);
            }
        }
    }
    let within = autosens_stats::correlation::pearson(&devs_a, &devs_l).unwrap_or(0.0);
    rendered.push_str(&format!(
        "\npooled density-vs-latency correlation: {:.3}\n\
         within-hour-band (clock-controlled) correlation: {:.3}\n",
        corr.correlation, within
    ));

    let checks = vec![
        ShapeCheck::new(
            "activity varies strongly across the day",
            {
                let max = points.iter().map(|p| p.activity).fold(0.0, f64::max);
                let min = points
                    .iter()
                    .map(|p| p.activity)
                    .fold(f64::INFINITY, f64::min);
                max - min > 0.5
            },
            "diurnal swing present",
        ),
        ShapeCheck::new(
            "clock-controlled activity/latency correlation is negative",
            within < 0.0,
            format!("r = {within:.3}"),
        ),
    ];

    Artifact {
        id: "fig2",
        title: "Activity rate vs latency over two days",
        rendered,
        csv,
        checks,
    }
}
