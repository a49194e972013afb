//! Shared dataset setup for the experiment regenerators.

use autosens_core::{AnalysisPlan, AutoSensConfig};
use autosens_sim::{generate, generate_with_threads, GroundTruth, Scenario, SimConfig};
use autosens_telemetry::TelemetryLog;

/// How much data to generate for the artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The full two-month scenario used for the reported reproduction.
    Full,
    /// The two-week smoke scenario, for quick runs and CI gates.
    Bench,
}

/// A generated dataset plus the analysis engine, shared by all artifacts.
pub struct Dataset {
    /// The telemetry log.
    pub log: TelemetryLog,
    /// The simulator's ground truth for this log.
    pub truth: GroundTruth,
    /// The analysis engine with the paper's configuration.
    pub engine: AnalysisPlan,
}

impl Dataset {
    /// Generate a dataset at the given scale with an explicit worker count
    /// (0 = auto). Generation and every pipeline stage use the same count.
    pub fn load(scale: Scale, threads: usize) -> Dataset {
        let scenario = match scale {
            Scale::Full => Scenario::Default,
            Scale::Bench => Scenario::Smoke,
        };
        let cfg = SimConfig::scenario(scenario);
        let (log, truth) =
            generate_with_threads(&cfg, threads).expect("preset scenarios are valid");
        Dataset {
            log,
            truth,
            engine: AnalysisPlan::new(AutoSensConfig {
                threads,
                ..AutoSensConfig::default()
            }),
        }
    }

    /// Generate from an explicit simulator configuration.
    pub fn from_config(cfg: &SimConfig, analysis: AutoSensConfig) -> Result<Dataset, String> {
        let (log, truth) = generate(cfg)?;
        Ok(Dataset {
            log,
            truth,
            engine: AnalysisPlan::new(analysis),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scale_loads() {
        let d = Dataset::load(Scale::Bench, 0);
        assert!(d.log.len() > 10_000);
        assert!(!d.truth.population().is_empty());
    }
}
