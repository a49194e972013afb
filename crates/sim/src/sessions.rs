//! Session-based workload generation for the *non-sticky service* extension.
//!
//! The paper (§4) argues AutoSens applies beyond "sticky" services like
//! email to services users can simply abandon — where the natural signal is
//! **session continuation**: after an action completes with latency `L`,
//! does the user perform another action or walk away? This module generates
//! telemetry from an explicit session model with a *planted continuation
//! curve*, so the `autosens-core` abandonment analysis can be validated the
//! same way the preference pipeline is.
//!
//! Model: per user, sessions arrive as an inhomogeneous Poisson process
//! (diurnal activity profile); within a session, after each action the user
//! continues with probability `base_continue x q(L)` where `q` is the
//! planted [`PrefCurve`] for the user's class, and inter-action gaps are
//! exponential. Latency comes from the same congestion/network/noise model
//! as the rate-based generator.

use rand::Rng;
use serde::{Deserialize, Serialize};

use autosens_stats::dist::{poisson, Exponential};
use autosens_telemetry::log::TelemetryLog;
use autosens_telemetry::record::UserClass;
use autosens_telemetry::record::{ActionRecord, ActionType, Outcome};
use autosens_telemetry::time::{SimTime, MS_PER_HOUR};

use crate::config::SimConfig;
use crate::congestion::CongestionSeries;
use crate::diurnal::activity_level;
use crate::latency::LatencyModel;
use crate::population::{sample_population, user_rng};
use crate::preference::PrefCurve;
use crate::truth::GroundTruth;

/// Configuration of the session model, layered on a [`SimConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Mean sessions per user per fully-active hour.
    pub sessions_per_active_hour: f64,
    /// Mean within-session inter-action gap in ms.
    pub mean_gap_ms: f64,
    /// Latency-independent continuation probability (session "stickiness").
    pub base_continue: f64,
    /// Planted continuation curve for business users.
    pub continuation_business: PrefCurve,
    /// Planted continuation curve for consumers (shallower: less invested).
    pub continuation_consumer: PrefCurve,
    /// Hard cap on actions per session (guards runaway loops).
    pub max_actions_per_session: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            sessions_per_active_hour: 0.8,
            mean_gap_ms: 25_000.0,
            base_continue: 0.92,
            continuation_business: PrefCurve {
                floor: 0.55,
                amp: 0.55,
                tau_ms: 700.0,
            },
            continuation_consumer: PrefCurve {
                floor: 0.70,
                amp: 0.35,
                tau_ms: 800.0,
            },
            max_actions_per_session: 200,
        }
    }
}

impl SessionConfig {
    /// The planted continuation curve for a class.
    pub fn continuation(&self, class: UserClass) -> PrefCurve {
        match class {
            UserClass::Business => self.continuation_business,
            UserClass::Consumer => self.continuation_consumer,
        }
    }

    /// Validate parameter domains.
    pub fn validate(&self) -> Result<(), String> {
        if !self.sessions_per_active_hour.is_finite() || self.sessions_per_active_hour <= 0.0 {
            return Err("sessions_per_active_hour must be > 0".into());
        }
        if !self.mean_gap_ms.is_finite() || self.mean_gap_ms <= 0.0 {
            return Err("mean_gap_ms must be > 0".into());
        }
        if !(0.0 < self.base_continue && self.base_continue < 1.0) {
            return Err("base_continue must be in (0,1)".into());
        }
        if self.max_actions_per_session == 0 {
            return Err("max_actions_per_session must be >= 1".into());
        }
        Ok(())
    }
}

/// Generate session-structured telemetry with a planted continuation curve.
///
/// Returns the log plus the ground truth (population + congestion) of the
/// underlying latency model. The session structure itself is implicit in
/// the record stream — exactly what a server log would show.
pub fn generate_sessions(
    cfg: &SimConfig,
    scfg: &SessionConfig,
) -> Result<(TelemetryLog, GroundTruth), String> {
    cfg.validate()?;
    scfg.validate()?;
    let population = sample_population(cfg);
    let congestion = CongestionSeries::generate(&cfg.congestion, cfg.n_minutes(), cfg.seed);
    let model = LatencyModel::new(&congestion, cfg.latency_noise_sigma);
    let horizon_ms = cfg.n_minutes() as i64 * 60_000;

    let mut records = Vec::new();
    for (user_index, user) in population.iter().enumerate() {
        let mut rng = user_rng(cfg.seed, user_index as u32, 2);
        let gap = Exponential::new(1.0 / scfg.mean_gap_ms).expect("validated gap");
        let q = scfg.continuation(user.class);

        for day in 0..cfg.days as i64 {
            for hour in 0..24i64 {
                let hour_start = SimTime::from_dhm(day, hour, 0);
                let local_hour = hour_start.hour_of_day_local(user.tz_offset_ms);
                let weekend = hour_start.is_weekend_local(user.tz_offset_ms);
                let lambda =
                    scfg.sessions_per_active_hour * activity_level(user.class, local_hour, weekend);
                let n_sessions = poisson(&mut rng, lambda).expect("lambda validated");
                for _ in 0..n_sessions {
                    let mut t = hour_start.millis() + rng.gen_range(0..MS_PER_HOUR);
                    for _ in 0..scfg.max_actions_per_session {
                        if t >= horizon_ms {
                            break;
                        }
                        let action = ActionType::SelectMail;
                        let latency = model.sample_ms(user, action, t, &mut rng);
                        let outcome = if rng.gen::<f64>() < cfg.error_rate {
                            Outcome::Error
                        } else {
                            Outcome::Success
                        };
                        records.push(ActionRecord {
                            time: SimTime(t),
                            action,
                            latency_ms: latency,
                            user: user.id,
                            class: user.class,
                            tz_offset_ms: user.tz_offset_ms,
                            outcome,
                        });
                        // Continue the session?
                        let p_continue = scfg.base_continue * q.eval(latency);
                        if rng.gen::<f64>() >= p_continue {
                            break;
                        }
                        t += gap.sample(&mut rng).ceil() as i64 + 1;
                    }
                }
            }
        }
    }

    let mut log = TelemetryLog::from_records(records).map_err(|e| e.to_string())?;
    log.ensure_sorted();
    let truth = GroundTruth::new(cfg.clone(), population, congestion);
    Ok((log, truth))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scenario;

    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::scenario(Scenario::Smoke);
        cfg.days = 5;
        cfg.n_business = 100;
        cfg.n_consumer = 100;
        cfg
    }

    #[test]
    fn default_session_config_is_valid() {
        assert!(SessionConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_violations() {
        let good = SessionConfig::default();
        let mut c;
        c = good.clone();
        c.sessions_per_active_hour = 0.0;
        assert!(c.validate().is_err());
        c = good.clone();
        c.mean_gap_ms = -1.0;
        assert!(c.validate().is_err());
        c = good.clone();
        c.base_continue = 1.0;
        assert!(c.validate().is_err());
        c = good.clone();
        c.max_actions_per_session = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn generates_sorted_valid_records() {
        let (log, _) = generate_sessions(&small_cfg(), &SessionConfig::default()).unwrap();
        assert!(log.len() > 1_000, "got {}", log.len());
        assert!(log.is_sorted());
        for r in log.view().iter().take(1000) {
            assert!(r.validate().is_ok());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let scfg = SessionConfig::default();
        let (a, _) = generate_sessions(&small_cfg(), &scfg).unwrap();
        let (b, _) = generate_sessions(&small_cfg(), &scfg).unwrap();
        assert_eq!(a.to_records(), b.to_records());
    }

    #[test]
    fn sessions_are_longer_when_latency_is_low() {
        // Freeze all latency variation except the user's network factor;
        // fast users should produce more actions per session start.
        let mut cfg = small_cfg();
        cfg.congestion.sigma = 0.0;
        cfg.congestion.incident_rate_per_min = 0.0;
        cfg.congestion.diurnal_peak_log = 0.0;
        cfg.congestion.diurnal_trough_log = 0.0;
        cfg.latency_noise_sigma = 0.0;
        cfg.network_sigma = 0.6; // widen the spread so the effect is clear
        let (log, truth) = generate_sessions(&cfg, &SessionConfig::default()).unwrap();
        // Mean actions per user, split by network factor.
        let mut counts = std::collections::HashMap::new();
        for r in log.view().iter() {
            *counts.entry(r.user).or_insert(0usize) += 1;
        }
        let mut fast_total = 0.0;
        let mut fast_n = 0.0;
        let mut slow_total = 0.0;
        let mut slow_n = 0.0;
        for u in truth.population() {
            let c = *counts.get(&u.id).unwrap_or(&0) as f64;
            if u.network_factor < 0.8 {
                fast_total += c;
                fast_n += 1.0;
            } else if u.network_factor > 1.25 {
                slow_total += c;
                slow_n += 1.0;
            }
        }
        assert!(fast_n > 5.0 && slow_n > 5.0);
        let fast_mean = fast_total / fast_n;
        let slow_mean = slow_total / slow_n;
        assert!(
            fast_mean > 1.2 * slow_mean,
            "fast {fast_mean:.1} vs slow {slow_mean:.1} actions/user"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = small_cfg();
        cfg.days = 0;
        assert!(generate_sessions(&cfg, &SessionConfig::default()).is_err());
        let scfg = SessionConfig {
            base_continue: 2.0,
            ..SessionConfig::default()
        };
        assert!(generate_sessions(&small_cfg(), &scfg).is_err());
    }
}
