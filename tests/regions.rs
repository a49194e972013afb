//! Multi-region populations: the paper analyzes per-country slices (its
//! figures say "users in the U.S."). With users spread across timezones,
//! local-time structure differs per region; slicing by timezone offset
//! restores a homogeneous clock and the analysis recovers the truth per
//! region.

use autosens_core::{AnalysisPlan, AutoSensConfig, PlanInput, RunOptions};
use autosens_sim::config::{Scenario, SimConfig};
use autosens_sim::generate;
use autosens_telemetry::query::Slice;
use autosens_telemetry::record::{ActionType, UserClass};
use autosens_telemetry::time::MS_PER_HOUR;

fn multi_region_config() -> SimConfig {
    let mut cfg = SimConfig::scenario(Scenario::Default);
    cfg.n_business = 400;
    cfg.n_consumer = 200;
    cfg.tz_offsets_hours = vec![0, -6];
    cfg
}

#[test]
fn records_carry_their_region_offset() {
    let (log, truth) = generate(&multi_region_config()).expect("valid");
    let offsets: std::collections::HashSet<i64> =
        log.view().iter().map(|r| r.tz_offset_ms).collect();
    assert_eq!(offsets.len(), 2);
    assert!(offsets.contains(&0));
    assert!(offsets.contains(&(-6 * MS_PER_HOUR)));
    // Population halves match the round-robin assignment.
    let n0 = truth
        .population()
        .iter()
        .filter(|u| u.tz_offset_ms == 0)
        .count();
    assert_eq!(n0, truth.population().len() / 2);
}

#[test]
fn per_region_slices_recover_the_preference() {
    let (log, truth) = generate(&multi_region_config()).expect("valid");
    let plan = AnalysisPlan::new(AutoSensConfig::default());
    for tz_hours in [0i64, -6] {
        let slice = Slice::all()
            .action(ActionType::SelectMail)
            .class(UserClass::Business)
            .tz_offset_hours(tz_hours);
        let report = plan
            .run(PlanInput::slice(&log, &slice), RunOptions::default())
            .unwrap_or_else(|e| panic!("region {tz_hours}: {e}"))
            .report;
        let mut err = 0.0;
        let mut n = 0;
        for l in (400..=1100).step_by(100) {
            if let Some(m) = report.preference.at(l as f64) {
                let t = truth.normalized_preference(
                    ActionType::SelectMail,
                    UserClass::Business,
                    l as f64,
                    300.0,
                );
                err += (m - t).abs();
                n += 1;
            }
        }
        assert!(n >= 6, "region {tz_hours}: too few probes");
        let mae = err / n as f64;
        assert!(
            mae < 0.12,
            "region {tz_hours}: MAE vs planted truth = {mae:.4}"
        );
    }
}

#[test]
fn regional_activity_peaks_follow_local_clocks() {
    let (log, _) = generate(&multi_region_config()).expect("valid");
    // Per region, business activity binned by *local* hour must peak
    // during local working hours and trough at local night — i.e. each
    // region follows its own clock, not the server's.
    for tz_ms in [0i64, -6 * MS_PER_HOUR] {
        let mut counts = [0usize; 24];
        for r in log.view().iter() {
            if r.tz_offset_ms == tz_ms && r.class == UserClass::Business {
                counts[r.time.hour_of_day_local(tz_ms) as usize] += 1;
            }
        }
        let peak = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(h, _)| h)
            .expect("non-empty");
        assert!(
            (8..=15).contains(&peak),
            "region {tz_ms}: local peak hour {peak} (counts {counts:?})"
        );
        let work: usize = (9..=15).map(|h| counts[h]).sum();
        let night: usize = (0..=5).map(|h| counts[h]).sum();
        assert!(
            work > 5 * night,
            "region {tz_ms}: working-hour activity should dwarf night ({work} vs {night})"
        );
    }
}
