//! Per-action-type latency sensitivity (the paper's §3.2 / Figure 4
//! scenario): compare how sharply user activity drops with latency for
//! SelectMail, SwitchFolder, Search, and ComposeSend.
//!
//! Run with:
//! ```sh
//! cargo run --release --example action_types
//! ```

use autosens_core::report::{f3, text_table};
use autosens_core::{AnalysisPlan, AutoSensConfig};
use autosens_sim::{generate, Scenario, SimConfig};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::UserClass;

fn main() {
    let (log, _) = generate(&SimConfig::scenario(Scenario::Default)).expect("valid scenario");
    let engine = AnalysisPlan::new(AutoSensConfig::default());

    // Business users, as in Figure 4.
    let base = Slice::all().class(UserClass::Business);
    let results = engine.by_action_type(&log, &base);

    let grid = [500.0, 1000.0, 1500.0, 2000.0];
    let mut rows = Vec::new();
    for (action, result) in &results {
        match result {
            Ok(report) => {
                let mut row = vec![format!("{action:?}"), report.n_actions.to_string()];
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
            Err(e) => {
                eprintln!("{action:?}: analysis failed: {e}");
            }
        }
    }
    println!("normalized latency preference by action type (business users, ref 300 ms)\n");
    println!(
        "{}",
        text_table(
            &["action", "n", "@500ms", "@1000ms", "@1500ms", "@2000ms"],
            &rows
        )
    );
    println!(
        "expect: SelectMail steepest, then SwitchFolder; Search shallow;\n\
         ComposeSend (asynchronous UI) nearly flat — as in the paper's Figure 4."
    );
}
