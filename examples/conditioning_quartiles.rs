//! Conditioning to speed (the paper's §3.4 / Figure 6 scenario): group users
//! into quartiles by their per-user median latency and compare each
//! quartile's latency sensitivity. Users accustomed to fast service (Q1)
//! should be the most sensitive.
//!
//! Run with:
//! ```sh
//! cargo run --release --example conditioning_quartiles
//! ```

use autosens_core::report::{f3, text_table};
use autosens_core::{AnalysisPlan, AutoSensConfig};
use autosens_sim::{generate, Scenario, SimConfig};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};
use autosens_telemetry::users::LatencyQuartiles;

fn main() {
    let (log, _) = generate(&SimConfig::scenario(Scenario::Default)).expect("valid scenario");
    let engine = AnalysisPlan::new(AutoSensConfig::default());

    // Consumer SelectMail, as in Figure 6.
    let base = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Consumer);
    let (quartiles, results) = engine
        .by_latency_quartile(&log, &base, 20)
        .expect("enough users for quartiles");

    println!(
        "quartile cuts at per-user median latency: {:.0} / {:.0} / {:.0} ms\n",
        quartiles.cuts[0], quartiles.cuts[1], quartiles.cuts[2]
    );

    let grid = [600.0, 900.0, 1200.0];
    let mut rows = Vec::new();
    for (q, result) in &results {
        match result {
            Ok(report) => {
                let mut row = vec![
                    LatencyQuartiles::label(*q).to_string(),
                    quartiles.groups[*q].len().to_string(),
                    report.n_actions.to_string(),
                ];
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
            }
            Err(e) => eprintln!("Q{}: analysis failed: {e}", q + 1),
        }
    }
    println!(
        "{}",
        text_table(
            &["quartile", "users", "actions", "@600ms", "@900ms", "@1200ms"],
            &rows
        )
    );
    println!(
        "expect: sensitivity decreases monotonically from Q1 (fastest users)\n\
         to Q4 (slowest users) — users conditioned to speed react more\n\
         strongly to latency, as in the paper's Figure 6."
    );
}
