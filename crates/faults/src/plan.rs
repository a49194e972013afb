//! Composable, seed-deterministic corruption operators over telemetry logs.
//!
//! Each [`FaultOp`] models one failure mode real telemetry pipelines
//! exhibit: record loss (uniform MCAR and bursty latency-correlated MNAR,
//! the failure mode sensor-network studies such as Gupchup et al. document
//! for congested collection paths), duplication from at-least-once
//! delivery, reordering from shard merges, per-device clock skew and
//! drift, latency quantization ("heaping") from coarse client timers, and
//! metadata nulling from enrichment-join failures.
//!
//! A [`FaultPlan`] is a seed plus an ordered list of operators. Applying
//! the same plan to the same log always produces the *byte-identical*
//! corrupted log: every operator draws from its own RNG stream derived
//! from the plan seed and the operator's position, so editing one operator
//! never perturbs the randomness of the others.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use autosens_telemetry::log::TelemetryLog;
use autosens_telemetry::record::{ActionRecord, UserClass};
use autosens_telemetry::time::SimTime;
use autosens_telemetry::TelemetryError;

/// One corruption operator. All probabilities are in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultOp {
    /// Drop each record independently with probability `rate` (MCAR loss).
    DropUniform {
        /// Per-record drop probability.
        rate: f64,
    },
    /// Bursty, latency-correlated loss (MNAR): drop whole runs of
    /// consecutive records, with burst onset more likely when latency is
    /// high — the collection path itself degrades when the service is
    /// slow, so slow-period records are preferentially lost. The expected
    /// overall loss fraction is approximately `rate`.
    DropBursty {
        /// Target expected fraction of records lost.
        rate: f64,
        /// Mean burst length in records (>= 1).
        mean_burst: u32,
    },
    /// Emit each record a second time with probability `rate`
    /// (at-least-once delivery).
    Duplicate {
        /// Per-record duplication probability.
        rate: f64,
    },
    /// Jitter the timestamps of a `rate` fraction of records uniformly in
    /// `[-max_shift_ms, +max_shift_ms]`, producing local reordering such
    /// as a merge of unaligned shards would.
    Reorder {
        /// Fraction of records jittered.
        rate: f64,
        /// Maximum absolute timestamp shift in ms.
        max_shift_ms: i64,
    },
    /// Per-user clock error: each user's records are shifted by a fixed
    /// offset drawn uniformly in `[-max_offset_ms, +max_offset_ms]` plus a
    /// per-user linear drift of up to `±drift_ms_per_day` per elapsed day.
    ClockSkew {
        /// Maximum absolute fixed offset per user, ms.
        max_offset_ms: i64,
        /// Maximum absolute drift per user, ms per day.
        drift_ms_per_day: i64,
    },
    /// Round every latency to the nearest multiple of `grain_ms`
    /// (timer-resolution heaping).
    QuantizeLatency {
        /// Quantization grain in ms (> 0).
        grain_ms: f64,
    },
    /// With probability `rate`, null a record's metadata: the user class
    /// collapses to the default (`Consumer`) and the timezone offset to 0,
    /// as when an enrichment join fails.
    NullMetadata {
        /// Per-record nulling probability.
        rate: f64,
    },
}

impl FaultOp {
    /// Validate the operator's parameter domains.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, p: f64| {
            if (0.0..=1.0).contains(&p) && p.is_finite() {
                Ok(())
            } else {
                Err(format!("{name} must be a probability in [0,1], got {p}"))
            }
        };
        match *self {
            FaultOp::DropUniform { rate } => prob("DropUniform.rate", rate),
            FaultOp::DropBursty { rate, mean_burst } => {
                prob("DropBursty.rate", rate)?;
                if mean_burst == 0 {
                    return Err("DropBursty.mean_burst must be >= 1".into());
                }
                Ok(())
            }
            FaultOp::Duplicate { rate } => prob("Duplicate.rate", rate),
            FaultOp::Reorder { rate, max_shift_ms } => {
                prob("Reorder.rate", rate)?;
                if max_shift_ms < 0 {
                    return Err("Reorder.max_shift_ms must be >= 0".into());
                }
                Ok(())
            }
            FaultOp::ClockSkew {
                max_offset_ms,
                drift_ms_per_day,
            } => {
                if max_offset_ms < 0 || drift_ms_per_day < 0 {
                    return Err("ClockSkew parameters must be >= 0".into());
                }
                Ok(())
            }
            FaultOp::QuantizeLatency { grain_ms } => {
                if grain_ms > 0.0 && grain_ms.is_finite() {
                    Ok(())
                } else {
                    Err(format!(
                        "QuantizeLatency.grain_ms must be > 0, got {grain_ms}"
                    ))
                }
            }
            FaultOp::NullMetadata { rate } => prob("NullMetadata.rate", rate),
        }
    }

    /// Apply the operator to a record vector, drawing from `rng`.
    fn apply(&self, records: Vec<ActionRecord>, rng: &mut StdRng) -> Vec<ActionRecord> {
        match *self {
            FaultOp::DropUniform { rate } => records
                .into_iter()
                .filter(|_| !rng.gen_bool(rate))
                .collect(),
            FaultOp::DropBursty { rate, mean_burst } => {
                drop_bursty(records, rate, mean_burst.max(1) as f64, rng)
            }
            FaultOp::Duplicate { rate } => {
                let mut out = Vec::with_capacity(records.len());
                for r in records {
                    out.push(r);
                    if rng.gen_bool(rate) {
                        out.push(r);
                    }
                }
                out
            }
            FaultOp::Reorder { rate, max_shift_ms } => {
                let mut out = records;
                for r in &mut out {
                    if rng.gen_bool(rate) {
                        let shift = if max_shift_ms == 0 {
                            0
                        } else {
                            rng.gen_range(-max_shift_ms..=max_shift_ms)
                        };
                        r.time = SimTime(r.time.millis() + shift);
                    }
                }
                out
            }
            FaultOp::ClockSkew {
                max_offset_ms,
                drift_ms_per_day,
            } => clock_skew(records, max_offset_ms, drift_ms_per_day, rng),
            FaultOp::QuantizeLatency { grain_ms } => {
                let mut out = records;
                for r in &mut out {
                    r.latency_ms = (r.latency_ms / grain_ms).round() * grain_ms;
                    // Rounding cannot go negative for grain > 0, but keep the
                    // log invariant airtight against float edge cases.
                    r.latency_ms = r.latency_ms.max(0.0);
                }
                out
            }
            FaultOp::NullMetadata { rate } => {
                let mut out = records;
                for r in &mut out {
                    if rng.gen_bool(rate) {
                        r.class = UserClass::Consumer;
                        r.tz_offset_ms = 0;
                    }
                }
                out
            }
        }
    }

    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match *self {
            FaultOp::DropUniform { rate } => format!("drop {:.1}% uniformly", rate * 100.0),
            FaultOp::DropBursty { rate, mean_burst } => format!(
                "drop ~{:.1}% in latency-correlated bursts (mean length {mean_burst})",
                rate * 100.0
            ),
            FaultOp::Duplicate { rate } => format!("duplicate {:.1}%", rate * 100.0),
            FaultOp::Reorder { rate, max_shift_ms } => {
                format!("jitter {:.1}% by up to {max_shift_ms} ms", rate * 100.0)
            }
            FaultOp::ClockSkew {
                max_offset_ms,
                drift_ms_per_day,
            } => format!(
                "per-user clock skew up to {max_offset_ms} ms, drift up to {drift_ms_per_day} ms/day"
            ),
            FaultOp::QuantizeLatency { grain_ms } => {
                format!("quantize latency to {grain_ms} ms grain")
            }
            FaultOp::NullMetadata { rate } => format!("null metadata on {:.1}%", rate * 100.0),
        }
    }
}

/// Bursty MNAR loss: walk the records in order; outside a burst, enter one
/// with a probability proportional to the record's latency (relative to the
/// mean), scaled so the expected overall loss is ~`rate`; inside a burst,
/// drop the record and exit with probability `1/mean_burst`.
fn drop_bursty(
    records: Vec<ActionRecord>,
    rate: f64,
    mean_burst: f64,
    rng: &mut StdRng,
) -> Vec<ActionRecord> {
    if records.is_empty() || rate <= 0.0 {
        return records;
    }
    if rate >= 1.0 {
        return Vec::new();
    }
    let mean_latency = records.iter().map(|r| r.latency_ms).sum::<f64>() / records.len() as f64;
    let base = rate / mean_burst;
    let mut in_burst = false;
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        if in_burst {
            // Exit check happens after the drop so bursts average
            // `mean_burst` records.
            if rng.gen_bool(1.0 / mean_burst) {
                in_burst = false;
            }
            continue;
        }
        // Latency weight with mean ~1 over the log makes the expected loss
        // track `rate` while concentrating it on slow periods.
        let weight = if mean_latency > 0.0 {
            r.latency_ms / mean_latency
        } else {
            1.0
        };
        let p = (base * weight).clamp(0.0, 1.0);
        if rng.gen_bool(p) {
            in_burst = true;
            continue;
        }
        out.push(r);
    }
    out
}

/// Per-user clock error. The offset and drift are derived from a hash of
/// (stream seed, user id), not from consumption order, so the result is
/// independent of record order and reproducible.
fn clock_skew(
    records: Vec<ActionRecord>,
    max_offset_ms: i64,
    drift_ms_per_day: i64,
    rng: &mut StdRng,
) -> Vec<ActionRecord> {
    const MS_PER_DAY: f64 = 86_400_000.0;
    let stream: u64 = rng.gen();
    let t0 = records
        .iter()
        .map(|r| r.time.millis())
        .min()
        .unwrap_or_default();
    let mut out = records;
    for r in &mut out {
        let h = splitmix64(stream ^ r.user.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Two independent uniforms in [-1, 1) from the hash halves.
        let u_off = ((h >> 32) as f64 / f64::powi(2.0, 31)) - 1.0;
        let u_drift = ((h & 0xFFFF_FFFF) as f64 / f64::powi(2.0, 31)) - 1.0;
        let offset = (u_off * max_offset_ms as f64).round() as i64;
        let elapsed_days = (r.time.millis() - t0) as f64 / MS_PER_DAY;
        let drift = (u_drift * drift_ms_per_day as f64 * elapsed_days).round() as i64;
        r.time = SimTime(r.time.millis() + offset + drift);
    }
    out
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A reproducible corruption recipe: a seed plus an ordered operator list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master seed; each operator derives its own stream from it.
    pub seed: u64,
    /// Operators, applied in order.
    pub ops: Vec<FaultOp>,
}

impl FaultPlan {
    /// A plan with no operators (identity).
    pub fn identity(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ops: Vec::new(),
        }
    }

    /// Validate every operator.
    pub fn validate(&self) -> Result<(), String> {
        for (i, op) in self.ops.iter().enumerate() {
            op.validate().map_err(|e| format!("op {i}: {e}"))?;
        }
        Ok(())
    }

    /// Apply the plan to a log, returning the corrupted log.
    ///
    /// The output preserves the corrupted record order (it may be
    /// unsorted — that is the point of the reordering and skew operators);
    /// callers that need time order must `ensure_sorted` themselves, as
    /// the analysis pipeline's sanitization stage does. Fails only if the
    /// plan is invalid; the operators never produce records that violate
    /// the log's semantic invariants.
    pub fn apply(&self, log: &TelemetryLog) -> Result<TelemetryLog, TelemetryError> {
        self.validate().map_err(TelemetryError::InvalidRecord)?;
        let mut records: Vec<ActionRecord> = log.to_records();
        for (i, op) in self.ops.iter().enumerate() {
            // One independent stream per operator position: editing op k
            // cannot perturb the randomness of ops != k.
            let mut rng = StdRng::seed_from_u64(splitmix64(self.seed ^ (i as u64 + 1)));
            records = op.apply(records, &mut rng);
        }
        let mut out = TelemetryLog::new();
        for r in records {
            // Operators preserve record validity (finite latency >= 0,
            // sane tz offsets), so push cannot fail.
            out.push(r)?;
        }
        Ok(out)
    }

    /// Serialize to pretty JSON (the `autosens inject --plan` file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serialization is infallible")
    }

    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let plan: FaultPlan = serde_json::from_str(text).map_err(|e| e.to_string())?;
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_telemetry::record::{ActionType, Outcome, UserId};

    fn rec(t: i64, latency: f64, user: u64) -> ActionRecord {
        ActionRecord {
            time: SimTime(t),
            action: ActionType::SelectMail,
            latency_ms: latency,
            user: UserId(user),
            class: UserClass::Business,
            tz_offset_ms: 3_600_000,
            outcome: Outcome::Success,
        }
    }

    /// A log with a slow stretch in the middle (records 400..600).
    fn sample_log() -> TelemetryLog {
        let records: Vec<ActionRecord> = (0..1000)
            .map(|i| {
                let latency = if (400..600).contains(&i) {
                    900.0
                } else {
                    100.0
                };
                rec(i * 1000, latency, i as u64 % 50)
            })
            .collect();
        TelemetryLog::from_records(records).unwrap()
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let log = sample_log();
        let plan = FaultPlan {
            seed: 42,
            ops: vec![
                FaultOp::DropBursty {
                    rate: 0.3,
                    mean_burst: 10,
                },
                FaultOp::Duplicate { rate: 0.05 },
                FaultOp::Reorder {
                    rate: 0.1,
                    max_shift_ms: 5_000,
                },
                FaultOp::ClockSkew {
                    max_offset_ms: 2_000,
                    drift_ms_per_day: 500,
                },
                FaultOp::QuantizeLatency { grain_ms: 50.0 },
                FaultOp::NullMetadata { rate: 0.2 },
            ],
        };
        let a = plan.apply(&log).unwrap();
        let b = plan.apply(&log).unwrap();
        assert_eq!(a.to_records(), b.to_records());
        // A different seed produces a different corruption.
        let plan2 = FaultPlan { seed: 43, ..plan };
        let c = plan2.apply(&log).unwrap();
        assert_ne!(a.to_records(), c.to_records());
    }

    #[test]
    fn op_streams_are_independent_of_earlier_edits() {
        // Changing op 0's parameters must not change op 1's draws: the
        // surviving-record *choices* of Duplicate are positional, so probe
        // with an identity-like first op swap instead.
        let log = sample_log();
        let with_noop_first = FaultPlan {
            seed: 7,
            ops: vec![
                FaultOp::DropUniform { rate: 0.0 },
                FaultOp::NullMetadata { rate: 0.3 },
            ],
        };
        let with_other_noop = FaultPlan {
            seed: 7,
            ops: vec![
                FaultOp::QuantizeLatency { grain_ms: 1e-9 },
                FaultOp::NullMetadata { rate: 0.3 },
            ],
        };
        let a = with_noop_first.apply(&log).unwrap();
        let b = with_other_noop.apply(&log).unwrap();
        let nulled = |l: &TelemetryLog| -> Vec<bool> {
            l.view().iter().map(|r| r.tz_offset_ms == 0).collect()
        };
        assert_eq!(nulled(&a), nulled(&b));
    }

    #[test]
    fn drop_uniform_hits_the_target_rate() {
        let log = sample_log();
        let plan = FaultPlan {
            seed: 1,
            ops: vec![FaultOp::DropUniform { rate: 0.3 }],
        };
        let out = plan.apply(&log).unwrap();
        let kept = out.len() as f64 / log.len() as f64;
        assert!((kept - 0.7).abs() < 0.05, "kept {kept}");
    }

    #[test]
    fn drop_bursty_is_latency_correlated() {
        let log = sample_log();
        let plan = FaultPlan {
            seed: 2,
            ops: vec![FaultOp::DropBursty {
                rate: 0.3,
                mean_burst: 10,
            }],
        };
        let out = plan.apply(&log).unwrap();
        let lost = 1.0 - out.len() as f64 / log.len() as f64;
        assert!((lost - 0.3).abs() < 0.12, "lost {lost}");
        // Slow records (latency 900) are lost preferentially.
        let slow_before = log.view().iter().filter(|r| r.latency_ms > 500.0).count() as f64;
        let slow_after = out.view().iter().filter(|r| r.latency_ms > 500.0).count() as f64;
        let fast_before = log.len() as f64 - slow_before;
        let fast_after = out.len() as f64 - slow_after;
        let slow_loss = 1.0 - slow_after / slow_before;
        let fast_loss = 1.0 - fast_after / fast_before;
        assert!(
            slow_loss > fast_loss + 0.1,
            "slow loss {slow_loss} vs fast loss {fast_loss}"
        );
    }

    #[test]
    fn drop_bursty_extremes() {
        let log = sample_log();
        let none = FaultPlan {
            seed: 3,
            ops: vec![FaultOp::DropBursty {
                rate: 0.0,
                mean_burst: 5,
            }],
        };
        assert_eq!(none.apply(&log).unwrap().len(), log.len());
        let all = FaultPlan {
            seed: 3,
            ops: vec![FaultOp::DropBursty {
                rate: 1.0,
                mean_burst: 5,
            }],
        };
        assert_eq!(all.apply(&log).unwrap().len(), 0);
    }

    #[test]
    fn duplicate_adds_exact_copies() {
        let log = sample_log();
        let plan = FaultPlan {
            seed: 4,
            ops: vec![FaultOp::Duplicate { rate: 0.2 }],
        };
        let out = plan.apply(&log).unwrap();
        let added = out.len() - log.len();
        assert!(
            (added as f64 / log.len() as f64 - 0.2).abs() < 0.05,
            "added {added}"
        );
        // Duplicates are adjacent and field-for-field identical.
        let dups = out.to_records().windows(2).filter(|w| w[0] == w[1]).count();
        assert_eq!(dups, added);
    }

    #[test]
    fn reorder_unsorts_the_log() {
        let log = sample_log();
        let plan = FaultPlan {
            seed: 5,
            ops: vec![FaultOp::Reorder {
                rate: 0.3,
                max_shift_ms: 10_000,
            }],
        };
        let out = plan.apply(&log).unwrap();
        assert_eq!(out.len(), log.len());
        assert!(!out.is_sorted());
    }

    #[test]
    fn clock_skew_is_per_user_and_order_independent() {
        let log = sample_log();
        let plan = FaultPlan {
            seed: 6,
            ops: vec![FaultOp::ClockSkew {
                max_offset_ms: 60_000,
                drift_ms_per_day: 0,
            }],
        };
        let out = plan.apply(&log).unwrap();
        // With zero drift, every record of a user shifts by one constant.
        let mut shift_of_user: std::collections::HashMap<u64, i64> = Default::default();
        for (orig, skewed) in log.view().iter().zip(out.view().iter()) {
            let d = skewed.time.millis() - orig.time.millis();
            let prev = shift_of_user.entry(orig.user.0).or_insert(d);
            assert_eq!(*prev, d, "user {} shift changed", orig.user.0);
        }
        // Different users get different shifts (with 50 users, collisions
        // of *all* of them on one value are impossible).
        let distinct: std::collections::HashSet<i64> = shift_of_user.values().copied().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn quantize_heaps_latencies() {
        let log = sample_log();
        let plan = FaultPlan {
            seed: 7,
            ops: vec![FaultOp::QuantizeLatency { grain_ms: 100.0 }],
        };
        let out = plan.apply(&log).unwrap();
        for r in out.view().iter() {
            assert_eq!(r.latency_ms % 100.0, 0.0, "latency {}", r.latency_ms);
        }
    }

    #[test]
    fn null_metadata_resets_class_and_tz() {
        let log = sample_log();
        let plan = FaultPlan {
            seed: 8,
            ops: vec![FaultOp::NullMetadata { rate: 0.5 }],
        };
        let out = plan.apply(&log).unwrap();
        let nulled = out
            .view()
            .iter()
            .filter(|r| r.tz_offset_ms == 0 && r.class == UserClass::Consumer)
            .count();
        assert!(
            (nulled as f64 / out.len() as f64 - 0.5).abs() < 0.06,
            "nulled {nulled}"
        );
        // Untouched records keep their metadata.
        assert!(out.view().iter().any(|r| r.tz_offset_ms == 3_600_000));
    }

    #[test]
    fn json_roundtrip_preserves_the_plan() {
        let plan = FaultPlan {
            seed: 0xDEADBEEF,
            ops: vec![
                FaultOp::DropBursty {
                    rate: 0.25,
                    mean_burst: 20,
                },
                FaultOp::QuantizeLatency { grain_ms: 10.0 },
            ],
        };
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        // And the corruption it produces is identical.
        let log = sample_log();
        assert_eq!(
            plan.apply(&log).unwrap().to_records(),
            back.apply(&log).unwrap().to_records()
        );
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let log = sample_log();
        let bad = FaultPlan {
            seed: 0,
            ops: vec![FaultOp::DropUniform { rate: 1.5 }],
        };
        assert!(bad.apply(&log).is_err());
        assert!(FaultPlan::from_json(
            "{\"seed\": 0, \"ops\": [{\"DropUniform\": {\"rate\": -0.1}}]}"
        )
        .is_err());
        assert!(FaultPlan::from_json("not json").is_err());
        for bad_op in [
            FaultOp::DropBursty {
                rate: 0.1,
                mean_burst: 0,
            },
            FaultOp::Reorder {
                rate: 0.1,
                max_shift_ms: -1,
            },
            FaultOp::ClockSkew {
                max_offset_ms: -1,
                drift_ms_per_day: 0,
            },
            FaultOp::QuantizeLatency { grain_ms: 0.0 },
            FaultOp::NullMetadata { rate: f64::NAN },
        ] {
            assert!(bad_op.validate().is_err(), "{bad_op:?}");
        }
    }

    #[test]
    fn identity_plan_is_identity() {
        let log = sample_log();
        let out = FaultPlan::identity(9).apply(&log).unwrap();
        assert_eq!(out.to_records(), log.to_records());
    }

    #[test]
    fn corrupted_records_always_validate() {
        // Whatever the plan does, the output records must satisfy the
        // telemetry invariants (finite latency >= 0, sane tz).
        let log = sample_log();
        let plan = FaultPlan {
            seed: 10,
            ops: vec![
                FaultOp::ClockSkew {
                    max_offset_ms: 10_000_000,
                    drift_ms_per_day: 100_000,
                },
                FaultOp::QuantizeLatency { grain_ms: 333.0 },
                FaultOp::NullMetadata { rate: 1.0 },
            ],
        };
        let out = plan.apply(&log).unwrap();
        for r in out.view().iter() {
            assert!(r.validate().is_ok());
        }
    }
}
