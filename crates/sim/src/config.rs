//! Scenario configuration for the simulator.
//!
//! Everything a simulation run depends on lives in one serde-serializable
//! [`SimConfig`], so runs are fully reproducible from `(config, seed)` and
//! scenarios can be shipped as JSON files.

use serde::{Deserialize, Serialize};

use crate::preference::SensingMode;

/// Named preset scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scenario {
    /// Tiny scenario for unit tests and doc examples (seconds to generate).
    Smoke,
    /// The default scenario used by the examples and experiment regenerators:
    /// two simulated months (Jan 1 – Feb 28), a population large enough for
    /// smooth preference curves out to ~2 s latency.
    Default,
    /// A larger population, for large-log runs (`generate --scenario
    /// paper-scale`).
    PaperScale,
}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed; every stochastic component derives its stream from this.
    pub seed: u64,
    /// Number of simulated days starting at the epoch (Jan 1).
    pub days: u32,
    /// Number of business users.
    pub n_business: u32,
    /// Number of consumer users.
    pub n_consumer: u32,
    /// Mean candidate-action rate per user per *active* hour (the diurnal
    /// profile scales this by 0..1).
    pub mean_actions_per_active_hour: f64,
    /// Log-space spread of per-user activity rates.
    pub activity_sigma: f64,
    /// Log-space spread of per-user network quality factors (drives the
    /// §3.4 latency quartiles).
    pub network_sigma: f64,
    /// Per-action lognormal noise sigma (log space).
    pub latency_noise_sigma: f64,
    /// Probability that a generated action is logged as an error (errors are
    /// excluded by the analysis, as in the paper's §3.1).
    pub error_rate: f64,
    /// How users sense latency when exercising their preference.
    pub sensing: SensingMode,
    /// Exponent applied to preference curves during the daytime periods vs
    /// night (§3.6 ground truth): `[morning, afternoon, evening, night]`.
    pub period_exponents: [f64; 4],
    /// Strength of the conditioning-to-speed effect (§3.4): the preference
    /// exponent for a user is `(1/network_factor)^conditioning_strength`,
    /// clamped to `[0.5, 2.0]`. Zero disables conditioning.
    pub conditioning_strength: f64,
    /// Timezone offsets (whole hours) users are spread across, assigned
    /// round-robin. Default `[0]`: a single-region population, matching the
    /// paper's per-country analysis slices. With several offsets, analyses
    /// should slice per region (`Slice::tz_offset_hours`) exactly as the
    /// paper restricts to U.S. users.
    #[serde(default = "default_tz_offsets")]
    pub tz_offsets_hours: Vec<i64>,
    /// Congestion process parameters.
    pub congestion: CongestionConfig,
    /// Upper latency bound used by downstream binning, carried here so the
    /// simulator and analysis agree (values above are still *generated*;
    /// the analysis discards them, as any real pipeline would cap its axis).
    pub latency_hi_ms: f64,
}

fn default_tz_offsets() -> Vec<i64> {
    vec![0]
}

/// Parameters of the global congestion multiplier process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionConfig {
    /// AR(1) coefficient per minute (0..1); higher = more temporal locality.
    pub rho: f64,
    /// Stationary log-space standard deviation of the AR(1) component.
    pub sigma: f64,
    /// Peak (busy-hour) log-multiplier of the diurnal load curve.
    pub diurnal_peak_log: f64,
    /// Trough (night) log-multiplier of the diurnal load curve.
    pub diurnal_trough_log: f64,
    /// Probability per minute of an incident (regime spike) starting.
    pub incident_rate_per_min: f64,
    /// Mean incident duration in minutes (exponential).
    pub incident_mean_duration_min: f64,
    /// Median latency multiplier during an incident.
    pub incident_median_multiplier: f64,
    /// Additive log-load applied on weekends (default 0). A negative value
    /// models a service that is faster on weekends because load drops —
    /// which makes *day of week* a confounder, the case the paper's §2.4.1
    /// names but folds into its time normalization. Exercised by the
    /// weekday/weekend-aware alpha grouping.
    #[serde(default)]
    pub weekend_load_log: f64,
    /// Planted regime windows with *known* boundaries, applied additively in
    /// log space on top of the stochastic process — the labeled ground truth
    /// the regime-shift detector is scored against. The schedule consumes
    /// zero RNG draws, so an empty schedule is bit-identical to not having
    /// the field at all and a planted run differs from its clean twin only
    /// inside the windows.
    #[serde(default)]
    pub regimes: Vec<RegimeWindow>,
}

/// One planted congestion regime: between `start_ms` and `end_ms`
/// (half-open, epoch milliseconds) the log-multiplier shifts by
/// `log_multiplier`. Overlapping windows add.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegimeWindow {
    /// Window start, epoch ms (inclusive).
    pub start_ms: i64,
    /// Window end, epoch ms (exclusive).
    pub end_ms: i64,
    /// Additive log-space shift while the window is active (e.g. `0.9`
    /// multiplies latency by ~2.46×).
    pub log_multiplier: f64,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        // The AR component is deliberately strong relative to the per-user
        // and per-action spreads (see `SimConfig::scenario`): AutoSens
        // infers preference from activity modulation against the *shared*
        // latency level, so that level must dominate observed latency —
        // which is also what the paper's own Figure 1 (very low MSD/MAD on
        // OWA data, i.e. successive cross-user samples are similar) shows
        // for the real service.
        CongestionConfig {
            rho: 0.985,
            sigma: 0.50,
            diurnal_peak_log: 0.45,    // e^0.45 ~ 1.57x at the busiest hour
            diurnal_trough_log: -0.35, // e^-0.35 ~ 0.70x at night
            incident_rate_per_min: 1.0 / 1440.0, // ~one per day
            incident_mean_duration_min: 60.0,
            incident_median_multiplier: 2.2,
            weekend_load_log: 0.0,
            regimes: Vec::new(),
        }
    }
}

impl SimConfig {
    /// Resolve a named scenario into a concrete configuration.
    pub fn scenario(which: Scenario) -> SimConfig {
        match which {
            Scenario::Smoke => SimConfig {
                seed: 0xA0705E75,
                days: 14,
                n_business: 300,
                n_consumer: 300,
                ..SimConfig::scenario(Scenario::Default)
            },
            // Per-user (`network_sigma`) and per-action
            // (`latency_noise_sigma`) spreads are kept well below the
            // congestion spread: the idiosyncratic variance shrinks the
            // recovered curve's latency axis by
            // `s_level^2 / (s_level^2 + s_idio^2)` in log space, so a
            // shared-dominant mix is required for faithful recovery — and
            // matches the strong cross-user locality the paper reports.
            Scenario::Default => SimConfig {
                seed: 0xA0705E75,
                days: 59, // Jan 1 .. Feb 28
                n_business: 700,
                n_consumer: 700,
                mean_actions_per_active_hour: 2.6,
                activity_sigma: 0.5,
                network_sigma: 0.15,
                latency_noise_sigma: 0.12,
                error_rate: 0.01,
                sensing: SensingMode::Oracle,
                period_exponents: [1.15, 1.0, 0.7, 0.5],
                conditioning_strength: 2.2,
                tz_offsets_hours: vec![0],
                congestion: CongestionConfig::default(),
                latency_hi_ms: 5_000.0,
            },
            Scenario::PaperScale => SimConfig {
                n_business: 2_500,
                n_consumer: 2_500,
                ..SimConfig::scenario(Scenario::Default)
            },
        }
    }

    /// Total user count.
    pub fn n_users(&self) -> u32 {
        self.n_business + self.n_consumer
    }

    /// Number of simulated minutes.
    pub fn n_minutes(&self) -> usize {
        self.days as usize * 24 * 60
    }

    /// Validate parameter domains; call before generating.
    pub fn validate(&self) -> Result<(), String> {
        if self.days == 0 {
            return Err("days must be >= 1".into());
        }
        if self.n_users() == 0 {
            return Err("population must be non-empty".into());
        }
        if self.mean_actions_per_active_hour.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        {
            return Err("mean_actions_per_active_hour must be > 0".into());
        }
        for (name, v) in [
            ("activity_sigma", self.activity_sigma),
            ("network_sigma", self.network_sigma),
            ("latency_noise_sigma", self.latency_noise_sigma),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and >= 0"));
            }
        }
        if !(0.0..=1.0).contains(&self.error_rate) {
            return Err("error_rate must be in [0,1]".into());
        }
        if self
            .period_exponents
            .iter()
            .any(|e| !e.is_finite() || *e <= 0.0)
        {
            return Err("period_exponents must be positive".into());
        }
        if !(self.conditioning_strength.is_finite() && self.conditioning_strength >= 0.0) {
            return Err("conditioning_strength must be >= 0".into());
        }
        if self.tz_offsets_hours.is_empty() {
            return Err("tz_offsets_hours must not be empty".into());
        }
        if self.tz_offsets_hours.iter().any(|h| h.abs() > 14) {
            return Err("tz_offsets_hours must be within +/-14".into());
        }
        let c = &self.congestion;
        if !(0.0..1.0).contains(&c.rho) {
            return Err("congestion.rho must be in [0,1)".into());
        }
        if !(c.sigma.is_finite() && c.sigma >= 0.0) {
            return Err("congestion.sigma must be >= 0".into());
        }
        if !(c.incident_rate_per_min >= 0.0 && c.incident_rate_per_min <= 1.0) {
            return Err("congestion.incident_rate_per_min must be in [0,1]".into());
        }
        if !c.incident_mean_duration_min.is_finite() || c.incident_mean_duration_min <= 0.0 {
            return Err("congestion.incident_mean_duration_min must be > 0".into());
        }
        if !c.incident_median_multiplier.is_finite() || c.incident_median_multiplier <= 0.0 {
            return Err("congestion.incident_median_multiplier must be > 0".into());
        }
        if !c.weekend_load_log.is_finite() {
            return Err("congestion.weekend_load_log must be finite".into());
        }
        for w in &c.regimes {
            if w.end_ms <= w.start_ms {
                return Err(format!(
                    "congestion.regimes window [{}, {}) is empty or inverted",
                    w.start_ms, w.end_ms
                ));
            }
            if !w.log_multiplier.is_finite() {
                return Err("congestion.regimes log_multiplier must be finite".into());
            }
        }
        if !self.latency_hi_ms.is_finite() || self.latency_hi_ms <= 0.0 {
            return Err("latency_hi_ms must be > 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for s in [Scenario::Smoke, Scenario::Default, Scenario::PaperScale] {
            let cfg = SimConfig::scenario(s);
            assert!(cfg.validate().is_ok(), "{s:?}: {:?}", cfg.validate());
        }
    }

    #[test]
    fn smoke_is_smaller_than_default() {
        let smoke = SimConfig::scenario(Scenario::Smoke);
        let def = SimConfig::scenario(Scenario::Default);
        assert!(smoke.days < def.days);
        assert!(smoke.n_users() < def.n_users());
        assert_eq!(def.days, 59, "Jan+Feb of a non-leap year");
    }

    #[test]
    fn derived_quantities() {
        let cfg = SimConfig::scenario(Scenario::Smoke);
        assert_eq!(cfg.n_users(), 600);
        assert_eq!(cfg.n_minutes(), 14 * 1440);
    }

    #[test]
    fn validation_catches_each_violation() {
        let good = SimConfig::scenario(Scenario::Smoke);
        let mut c;

        c = good.clone();
        c.days = 0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.n_business = 0;
        c.n_consumer = 0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.mean_actions_per_active_hour = 0.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.activity_sigma = -1.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.error_rate = 1.5;
        assert!(c.validate().is_err());

        c = good.clone();
        c.period_exponents[2] = 0.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.conditioning_strength = f64::NAN;
        assert!(c.validate().is_err());

        c = good.clone();
        c.congestion.rho = 1.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.congestion.sigma = f64::NAN;
        assert!(c.validate().is_err());

        c = good.clone();
        c.congestion.incident_rate_per_min = 2.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.congestion.incident_mean_duration_min = 0.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.congestion.incident_median_multiplier = -2.0;
        assert!(c.validate().is_err());

        c = good.clone();
        c.congestion.regimes = vec![RegimeWindow {
            start_ms: 100,
            end_ms: 100,
            log_multiplier: 0.5,
        }];
        assert!(c.validate().is_err());

        c = good.clone();
        c.congestion.regimes = vec![RegimeWindow {
            start_ms: 0,
            end_ms: 100,
            log_multiplier: f64::INFINITY,
        }];
        assert!(c.validate().is_err());

        c = good.clone();
        c.latency_hi_ms = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = SimConfig::scenario(Scenario::Default);
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
