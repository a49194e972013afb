//! Figure 7: preference by time of day (four 6-hour periods) for business
//! SelectMail. The paper finds every period shows a decreasing preference,
//! daytime periods drop more sharply than nighttime ones, and the pooled
//! curve lies inside the per-period envelope.

use autosens_core::report::{f3, series_csv, text_table};
use autosens_core::{PlanInput, RunOptions};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};
use autosens_telemetry::time::DayPeriod;

use super::{Artifact, ShapeCheck};
use crate::dataset::Dataset;

/// Regenerate Figure 7.
pub fn generate(data: &Dataset) -> Artifact {
    let base = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business);
    let results = data.engine.by_day_period(&data.log, &base);
    let pooled = data
        .engine
        .run(PlanInput::slice(&data.log, &base), RunOptions::default())
        .ok()
        .map(|out| out.report);

    let grid = [600.0, 900.0, 1200.0];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut prefs = std::collections::HashMap::new();
    for (period, result) in &results {
        match result {
            Ok(report) => {
                let mut row = vec![period.label().to_string(), report.n_actions.to_string()];
                for l in grid {
                    row.push(
                        report
                            .preference
                            .at(l)
                            .map(f3)
                            .unwrap_or_else(|| "-".into()),
                    );
                }
                rows.push(row);
                csv.push((
                    format!("fig7_{}", period.label().replace('-', "_")),
                    series_csv(("latency_ms", "preference"), &report.preference.series()),
                ));
                prefs.insert(*period, report.preference.clone());
            }
            Err(e) => rows.push(vec![
                period.label().to_string(),
                "-".into(),
                format!("error: {e}"),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    if let Some(p) = &pooled {
        let mut row = vec!["pooled (all hours)".to_string(), p.n_actions.to_string()];
        for l in grid {
            row.push(p.preference.at(l).map(f3).unwrap_or_else(|| "-".into()));
        }
        rows.push(row);
        csv.push((
            "fig7_pooled".to_string(),
            series_csv(("latency_ms", "preference"), &p.preference.series()),
        ));
    }

    let mut rendered = String::from(
        "Figure 7 — preference by time of day (business SelectMail)\n\
         (reference 300 ms; local-time periods)\n\n",
    );
    rendered.push_str(&text_table(
        &["period", "n", "@600ms", "@900ms", "@1200ms"],
        &rows,
    ));

    let probe = 900.0;
    let at = |p: DayPeriod| prefs.get(&p).and_then(|c| c.at(probe));
    let morning = at(DayPeriod::Morning8to14);
    let afternoon = at(DayPeriod::Afternoon14to20);
    let evening = at(DayPeriod::Evening20to2);
    let night = at(DayPeriod::Night2to8);
    let day_min = [morning, afternoon]
        .into_iter()
        .flatten()
        .fold(f64::INFINITY, f64::min);
    let night_vals: Vec<f64> = [evening, night].into_iter().flatten().collect();

    let mut checks = Vec::new();
    // Every period decreasing, probed within each curve's own supported
    // span (sparse periods — e.g. business evenings — end earlier).
    for (period, pref) in &prefs {
        let (_, span_hi) = pref.span_ms();
        let hi_probe = (span_hi - 55.0).min(1100.0);
        let dec = pref
            .at(600.0)
            .zip(pref.at(hi_probe))
            .map(|(a, b)| b < a && hi_probe > 800.0)
            .unwrap_or(false);
        checks.push(ShapeCheck::new(
            format!(
                "{} curve decreases (600 -> {hi_probe:.0} ms)",
                period.label()
            ),
            dec,
            format!("{:?} -> {:?}", pref.at(600.0), pref.at(hi_probe)),
        ));
    }
    checks.push(ShapeCheck::new(
        "daytime periods steeper than nighttime @900ms",
        !night_vals.is_empty() && day_min.is_finite() && night_vals.iter().all(|&n| day_min < n),
        format!("daytime min {day_min:.3} vs night {night_vals:?}"),
    ));
    if let Some(pooled) = &pooled {
        let v = pooled.preference.at(probe);
        let lo = prefs
            .values()
            .filter_map(|p| p.at(probe))
            .fold(f64::INFINITY, f64::min);
        let hi = prefs
            .values()
            .filter_map(|p| p.at(probe))
            .fold(f64::NEG_INFINITY, f64::max);
        checks.push(ShapeCheck::new(
            "pooled curve lies within the per-period envelope @900ms",
            v.map(|v| v >= lo - 0.02 && v <= hi + 0.02).unwrap_or(false),
            format!("pooled {v:?} in [{lo:.3}, {hi:.3}]"),
        ));
    }

    Artifact {
        id: "fig7",
        title: "Preference by time of day",
        rendered,
        csv,
        checks,
    }
}
