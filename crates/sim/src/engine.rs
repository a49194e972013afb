//! The workload generator: a thinned inhomogeneous Poisson process.
//!
//! For every user and every simulated hour, candidate actions arrive at rate
//! `user_rate x diurnal_activity(class, local hour, weekend)`. Each candidate
//! draws an action type and an end-to-end latency; the user then *performs*
//! the action with probability `p(sensed latency)^gamma` where `p` is the
//! planted preference curve and `gamma` composes the user's conditioning
//! exponent with the time-of-day exponent. Rejected candidates leave no
//! trace — exactly like a user who looked at a sluggish inbox and walked
//! away.
//!
//! Generation is deterministic and embarrassingly parallel: every user has
//! an RNG derived from `(master seed, user id)`, shards are concatenated in
//! user order, and the final stable sort by time breaks timestamp ties in
//! that same deterministic order.

use rand::Rng;

use autosens_telemetry::log::TelemetryLog;
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome};
use autosens_telemetry::time::{SimTime, MS_PER_HOUR};

use autosens_stats::dist::poisson;

use crate::config::SimConfig;
use crate::congestion::CongestionSeries;
use crate::diurnal::activity_level;
use crate::latency::LatencyModel;
use crate::population::{sample_population, user_rng, UserProfile};
use crate::preference::{base_curve, period_exponent, SensingMode};
use crate::truth::GroundTruth;

/// Action-type mixture of candidate actions (must sum to 1).
const ACTION_MIX: [(ActionType, f64); 5] = [
    (ActionType::SelectMail, 0.40),
    (ActionType::SwitchFolder, 0.20),
    (ActionType::Search, 0.15),
    (ActionType::ComposeSend, 0.15),
    (ActionType::Other, 0.10),
];

fn draw_action<R: Rng>(rng: &mut R) -> ActionType {
    let mut u: f64 = rng.gen();
    for (action, w) in ACTION_MIX {
        if u < w {
            return action;
        }
        u -= w;
    }
    ActionType::Other
}

/// Generate the telemetry log and its ground truth for a configuration.
///
/// Returns an error string when the configuration is invalid.
///
/// ```
/// use autosens_sim::{generate, Scenario, SimConfig};
///
/// // A deliberately tiny run for the doctest.
/// let mut cfg = SimConfig::scenario(Scenario::Smoke);
/// cfg.days = 1;
/// cfg.n_business = 20;
/// cfg.n_consumer = 20;
/// let (log, truth) = generate(&cfg).unwrap();
/// assert!(log.is_sorted());
/// assert_eq!(truth.population().len(), 40);
/// // Same config, same telemetry — byte for byte.
/// let (again, _) = generate(&cfg).unwrap();
/// assert_eq!(log.to_records(), again.to_records());
/// ```
pub fn generate(cfg: &SimConfig) -> Result<(TelemetryLog, GroundTruth), String> {
    generate_with_threads(cfg, 0)
}

/// [`generate`] with an explicit worker count (`0` = all available cores).
///
/// Generation runs as a chunked job over the user population on the
/// chunk scheduler. Every user's records come from an RNG derived
/// from `(master seed, user id)` and per-chunk shards concatenate in user
/// order, so the telemetry is byte-identical for every thread count.
pub fn generate_with_threads(
    cfg: &SimConfig,
    threads: usize,
) -> Result<(TelemetryLog, GroundTruth), String> {
    cfg.validate()?;
    let mut span = autosens_obs::Recorder::global().root("sim.generate");
    span.field("users", (cfg.n_business + cfg.n_consumer) as u64);
    span.field("days", cfg.days as u64);
    let population = sample_population(cfg);
    let congestion = CongestionSeries::generate(&cfg.congestion, cfg.n_minutes(), cfg.seed);

    // Users are heavy items (a full simulated calendar each), so chunks
    // are much smaller than record-range chunks; boundaries still depend
    // only on the population size.
    let n_users = population.len();
    let chunk_size = (n_users / 64).clamp(1, 256);
    let (shards, report) = autosens_exec::run_chunks(
        "sim_generate",
        n_users,
        chunk_size,
        threads,
        |_, range| -> Vec<ActionRecord> {
            let mut out = Vec::new();
            for i in range {
                out.extend(generate_for_user(
                    cfg,
                    &population[i],
                    i as u32,
                    &congestion,
                ));
            }
            out
        },
    )
    .map_err(|e| format!("generation worker panicked: {e}"))?;

    // Simulated records are valid by construction; skip re-validation.
    let mut log = TelemetryLog::from_trusted_records(shards.concat());
    log.ensure_sorted();

    span.field("records", log.len() as u64);
    span.field("exec_chunks", report.n_chunks as u64);
    span.field("exec_threads", report.threads as u64);
    let metrics = autosens_obs::MetricsRegistry::global();
    metrics
        .counter("autosens_sim_records_generated_total")
        .add(log.len() as u64);
    metrics
        .counter("autosens_exec_chunks_total")
        .add(report.n_chunks as u64);

    let truth = GroundTruth::new(cfg.clone(), population, congestion);
    Ok((log, truth))
}

/// Generate one user's records (already time-ordered within the user).
fn generate_for_user(
    cfg: &SimConfig,
    user: &UserProfile,
    user_index: u32,
    congestion: &CongestionSeries,
) -> Vec<ActionRecord> {
    let mut rng = user_rng(cfg.seed, user_index, 1);
    let model = LatencyModel::new(congestion, cfg.latency_noise_sigma);
    let mut records = Vec::new();
    // EMA state for the Ema sensing mode, seeded at the user's baseline level.
    let mut ema = base_median_for_start(user);

    let mut candidate_times: Vec<i64> = Vec::new();
    for day in 0..cfg.days as i64 {
        for hour in 0..24i64 {
            let hour_start = SimTime::from_dhm(day, hour, 0);
            let local_hour = hour_start.hour_of_day_local(user.tz_offset_ms);
            let weekend = hour_start.is_weekend_local(user.tz_offset_ms);
            let lambda =
                user.rate_per_active_hour * activity_level(user.class, local_hour, weekend);
            let n = poisson(&mut rng, lambda).expect("lambda validated");
            if n == 0 {
                continue;
            }
            // Candidate instants, time-ordered within the hour so the EMA
            // sensing mode sees experiences chronologically.
            candidate_times.clear();
            for _ in 0..n {
                candidate_times.push(hour_start.millis() + rng.gen_range(0..MS_PER_HOUR));
            }
            candidate_times.sort_unstable();

            for &t_ms in candidate_times.iter() {
                let action = draw_action(&mut rng);
                let latency = model.sample_ms(user, action, t_ms, &mut rng);
                let sensed = match cfg.sensing {
                    SensingMode::Oracle => latency,
                    SensingMode::Level => model.level_ms(user, action, t_ms),
                    SensingMode::Ema { .. } => ema,
                };
                let t = SimTime(t_ms);
                let gamma = user.conditioning_gamma
                    * period_exponent(&cfg.period_exponents, t.day_period_local(user.tz_offset_ms));
                let accept_p = base_curve(action, user.class).eval(sensed).powf(gamma);
                if rng.gen::<f64>() >= accept_p {
                    continue;
                }
                // The user performed the action and experienced `latency`.
                if let SensingMode::Ema { beta } = cfg.sensing {
                    ema = beta * ema + (1.0 - beta) * latency;
                }
                let outcome = if rng.gen::<f64>() < cfg.error_rate {
                    Outcome::Error
                } else {
                    Outcome::Success
                };
                records.push(ActionRecord {
                    time: t,
                    action,
                    latency_ms: latency,
                    user: user.id,
                    class: user.class,
                    tz_offset_ms: user.tz_offset_ms,
                    outcome,
                });
            }
        }
    }
    records
}

/// Initial EMA value: the user's baseline level for a typical action under
/// unit congestion.
fn base_median_for_start(user: &UserProfile) -> f64 {
    crate::latency::base_median_ms(ActionType::SelectMail) * user.network_factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scenario;
    use autosens_telemetry::record::UserClass;

    fn smoke() -> SimConfig {
        SimConfig::scenario(Scenario::Smoke)
    }

    #[test]
    fn action_mix_sums_to_one() {
        let total: f64 = ACTION_MIX.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn draw_action_follows_mixture() {
        let mut rng = user_rng(0, 0, 9);
        let mut counts = std::collections::HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            *counts.entry(draw_action(&mut rng)).or_insert(0usize) += 1;
        }
        for (action, w) in ACTION_MIX {
            let frac = counts[&action] as f64 / n as f64;
            assert!((frac - w).abs() < 0.01, "{action:?}: {frac} vs {w}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = smoke();
        let (a, _) = generate(&cfg).unwrap();
        let (b, _) = generate(&cfg).unwrap();
        assert_eq!(a.to_records(), b.to_records());
    }

    #[test]
    fn generation_is_identical_across_thread_counts() {
        let cfg = smoke();
        let (reference, _) = generate_with_threads(&cfg, 1).unwrap();
        for threads in [2, 4, 8] {
            let (log, _) = generate_with_threads(&cfg, threads).unwrap();
            assert_eq!(
                log.to_records(),
                reference.to_records(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = smoke();
        let (a, _) = generate(&cfg).unwrap();
        cfg.seed += 1;
        let (b, _) = generate(&cfg).unwrap();
        assert_ne!(a.to_records(), b.to_records());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = smoke();
        cfg.days = 0;
        assert!(generate(&cfg).is_err());
    }

    #[test]
    fn log_is_sorted_and_in_range() {
        let cfg = smoke();
        let (log, _) = generate(&cfg).unwrap();
        assert!(log.is_sorted());
        assert!(!log.is_empty());
        let end = (cfg.days as i64) * 24 * MS_PER_HOUR;
        for r in log.view().iter() {
            assert!(r.time.millis() >= 0 && r.time.millis() < end);
            assert!(r.latency_ms > 0.0 && r.latency_ms.is_finite());
        }
    }

    #[test]
    fn both_classes_and_all_actions_present() {
        let (log, _) = generate(&smoke()).unwrap();
        let view = log.view();
        for class in UserClass::all() {
            assert!(view.iter().any(|r| r.class == class), "{class:?} missing");
        }
        for action in ActionType::analyzed() {
            assert!(
                view.iter().any(|r| r.action == action),
                "{action:?} missing"
            );
        }
    }

    #[test]
    fn error_rate_roughly_respected() {
        let (log, _) = generate(&smoke()).unwrap();
        let view = log.view();
        let n_err = view.iter().filter(|r| r.outcome == Outcome::Error).count();
        let frac = n_err as f64 / log.len() as f64;
        let expect = smoke().error_rate;
        assert!((frac - expect).abs() < 0.01, "error fraction {frac}");
    }

    #[test]
    fn day_activity_exceeds_night_activity() {
        let (log, _) = generate(&smoke()).unwrap();
        let mut day = 0usize;
        let mut night = 0usize;
        for r in log.view().iter() {
            let h = r.time.hour_of_day_local(r.tz_offset_ms);
            if (9..17).contains(&h) {
                day += 1;
            } else if h < 6 {
                night += 1;
            }
        }
        // 8 day hours vs 6 night hours; per-hour rate must differ hugely.
        let day_rate = day as f64 / 8.0;
        let night_rate = night as f64 / 6.0;
        assert!(
            day_rate > 3.0 * night_rate,
            "day {day_rate} night {night_rate}"
        );
    }

    #[test]
    fn higher_latency_users_act_less_given_same_rate() {
        // Direct check of the planted preference: freeze diurnal and
        // congestion noise so latency differences come only from the
        // network factor, then compare acceptance volume.
        let mut cfg = smoke();
        cfg.congestion.sigma = 0.0;
        cfg.congestion.incident_rate_per_min = 0.0;
        cfg.conditioning_strength = 0.0;
        cfg.latency_noise_sigma = 0.0;
        let congestion = CongestionSeries::generate(&cfg.congestion, cfg.n_minutes(), cfg.seed);
        let mk_user = |network: f64| UserProfile {
            id: autosens_telemetry::record::UserId(0),
            class: UserClass::Business,
            network_factor: network,
            rate_per_active_hour: 3.0,
            tz_offset_ms: 0,
            conditioning_gamma: 1.0,
        };
        let fast = generate_for_user(&cfg, &mk_user(0.5), 0, &congestion);
        let slow = generate_for_user(&cfg, &mk_user(3.0), 0, &congestion);
        assert!(
            fast.len() as f64 > 1.1 * slow.len() as f64,
            "fast {} slow {}",
            fast.len(),
            slow.len()
        );
    }

    #[test]
    fn ema_sensing_mode_runs() {
        let mut cfg = smoke();
        cfg.sensing = SensingMode::Ema { beta: 0.8 };
        let (log, _) = generate(&cfg).unwrap();
        assert!(!log.is_empty());
    }

    #[test]
    fn level_sensing_mode_runs() {
        let mut cfg = smoke();
        cfg.sensing = SensingMode::Level;
        let (log, _) = generate(&cfg).unwrap();
        assert!(!log.is_empty());
    }
}
