//! Beyond the paper: per-stage wall-clock profile of the pipeline.
//!
//! Runs the full analysis (with a bootstrap confidence band) against the
//! loaded dataset under a collecting [`autosens_obs::Recorder`] and reports
//! where the time goes, stage by stage. The CSV backs the performance
//! discussion in DESIGN.md and gives future optimisation PRs a baseline to
//! diff against.

use autosens_core::plan::op;
use autosens_core::report::text_table;
use autosens_core::{AnalysisPlan, AutoSensConfig, PlanInput, RunOptions};
use autosens_obs::Recorder;
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};

use super::{Artifact, ShapeCheck};

/// Bootstrap replicates for the profiled CI pass: enough for the stage to
/// register in the profile without dominating the run.
const CI_REPLICATES: usize = 50;

/// Profile one end-to-end analysis of the given dataset.
pub fn generate(data: &crate::dataset::Dataset) -> Artifact {
    let recorder = Recorder::new();
    let plan = AnalysisPlan::with_recorder(AutoSensConfig::default(), recorder.clone());
    let slice = Slice::all()
        .action(ActionType::SelectMail)
        .class(UserClass::Business);

    let outcome = plan.run(
        PlanInput::slice(&data.log, &slice),
        RunOptions::with_ci(CI_REPLICATES, 0.95),
    );
    let tree = recorder.finish();

    let mut checks = vec![ShapeCheck::new(
        "analysis succeeds",
        outcome.is_ok(),
        match &outcome {
            Ok(out) => format!("{} actions analyzed", out.report.n_actions),
            Err(e) => e.to_string(),
        },
    )];

    // Wall-clock totals per span name, attributed against the analyze root.
    let totals = tree.totals_by_name();
    let root_ms = tree.total_ms_named("analyze").max(f64::MIN_POSITIVE);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv = String::from("stage,calls,wall_ms,share\n");
    for (name, ms, calls) in &totals {
        let share = ms / root_ms;
        rows.push(vec![
            name.clone(),
            calls.to_string(),
            format!("{ms:.3}"),
            format!("{:.1}%", 100.0 * share),
        ]);
        csv.push_str(&format!("{name},{calls},{ms:.4},{share:.4}\n"));
    }

    // The expected stage column: every always-run stage plus the CI
    // bootstrap requested above.
    for &stage in op::STAGES.iter().chain([&op::CI_BOOTSTRAP]) {
        let n = tree.count_named(stage);
        checks.push(ShapeCheck::new(
            format!("stage {stage} profiled"),
            n >= 1,
            format!("{n} span(s), {:.3} ms", tree.total_ms_named(stage)),
        ));
    }
    checks.push(ShapeCheck::new(
        "all stage times finite",
        totals.iter().all(|(_, ms, _)| ms.is_finite() && *ms >= 0.0),
        format!("{} span names", totals.len()),
    ));

    let rendered = format!(
        "per-stage wall-clock profile ({} records, {} bootstrap replicates)\n\n{}",
        data.log.len(),
        CI_REPLICATES,
        text_table(&["stage", "calls", "wall (ms)", "share"], &rows)
    );

    Artifact {
        id: "profile",
        title: "Per-stage pipeline wall-clock profile (beyond the paper)",
        rendered,
        csv: vec![("stage_profile".to_string(), csv)],
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Scale};

    #[test]
    fn profile_covers_every_stage_at_bench_scale() {
        let art = generate(&Dataset::load(Scale::Bench));
        assert!(art.all_pass(), "{}", art.render_checks());
        let (stem, body) = &art.csv[0];
        assert_eq!(stem, "stage_profile");
        assert!(body.starts_with("stage,calls,wall_ms,share\n"));
        // Parse the stage column: every documented pipeline stage (and the
        // CI stage) must appear as an exact row, each with a positive call
        // count and a finite wall-clock time — substring matching would
        // also accept a stage that only appears inside another's name.
        let mut rows = std::collections::BTreeMap::new();
        for line in body.lines().skip(1) {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 4, "malformed profile row {line:?}");
            let calls: u64 = fields[1].parse().expect("calls column");
            let wall_ms: f64 = fields[2].parse().expect("wall_ms column");
            assert!(wall_ms.is_finite() && wall_ms >= 0.0, "row {line:?}");
            rows.insert(fields[0].to_string(), calls);
        }
        for &stage in op::STAGES.iter().chain([&op::CI_BOOTSTRAP]) {
            let calls = rows.get(stage);
            assert!(
                calls.is_some_and(|&c| c >= 1),
                "stage {stage} missing from the CSV stage column: {body}"
            );
        }
        // The batch profile must not grow streaming-only stages.
        assert!(
            !rows.contains_key("windowed_curve"),
            "windowed_curve must not run in a batch profile: {body}"
        );
    }
}
