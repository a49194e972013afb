//! §3.5: latency preference vs. latency bottleneck. If high latency merely
//! throttled users mechanically, activity would halve with each doubling of
//! latency; the observed drop factors are far gentler, and differ across
//! action types and user classes — evidence of genuine preference.

use autosens_core::bottleneck::bottleneck_report;
use autosens_core::report::{f3, text_table};
use autosens_core::{PlanInput, RunOptions};
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};

use super::{Artifact, ShapeCheck};
use crate::dataset::Dataset;

/// Regenerate the §3.5 analysis from the Figure 4 SelectMail curve.
pub fn generate(data: &Dataset) -> Artifact {
    let slice = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business);
    let report = data
        .engine
        .run(PlanInput::slice(&data.log, &slice), RunOptions::default())
        .expect("business SelectMail slice fits")
        .report;
    let bn = bottleneck_report(&report.preference, 500.0);

    let mut rows = Vec::new();
    for (lo, hi, f) in &bn.doublings {
        rows.push(vec![
            format!("{lo:.0} -> {hi:.0} ms"),
            f3(*f),
            f3(bn.bottleneck_factor),
        ]);
    }
    let mut rendered = String::from(
        "Section 3.5 — preference vs bottleneck (business SelectMail)\n\
         (a pure bottleneck halves activity per latency doubling)\n\n",
    );
    rendered.push_str(&text_table(
        &["doubling", "observed drop factor", "bottleneck prediction"],
        &rows,
    ));
    rendered.push_str(&format!(
        "\npreference dominates: {}\n",
        bn.preference_dominates()
    ));

    let csv = vec![("bottleneck".to_string(), {
        let mut s = String::from("from_ms,to_ms,drop_factor\n");
        for (lo, hi, f) in &bn.doublings {
            s.push_str(&format!("{lo},{hi},{f}\n"));
        }
        s
    })];

    let first = bn.doublings.first().map(|&(_, _, f)| f);
    let checks = vec![
        ShapeCheck::new(
            "at least one full doubling fits within the curve span",
            !bn.doublings.is_empty(),
            format!(
                "{} doubling(s); span up to {:.0} ms",
                bn.doublings.len(),
                report.preference.span_ms().1
            ),
        ),
        ShapeCheck::new(
            "500 -> 1000 ms drop factor near the paper's ~1.3",
            first.map(|f| (f - 1.3).abs() < 0.15).unwrap_or(false),
            format!("{first:?}"),
        ),
        ShapeCheck::new(
            "all drop factors well below the bottleneck factor 2",
            bn.preference_dominates(),
            format!("{:?}", bn.doublings),
        ),
    ];

    Artifact {
        id: "bottleneck",
        title: "Preference vs bottleneck (Section 3.5)",
        rendered,
        csv,
        checks,
    }
}
