//! Record-at-a-time fault injection for streaming ingest boundaries.
//!
//! [`FaultPlan::apply`](crate::FaultPlan::apply) corrupts a complete log in
//! one pass per operator. A streaming pipeline never holds the complete
//! log, so [`FaultStream`] applies the same operator chain record by
//! record, keeping one persistent RNG stream per operator (derived exactly
//! as the batch path derives them) plus whatever little state an operator
//! carries across records (burst flags, running means).
//!
//! For operators whose batch randomness is consumed strictly per record in
//! input order — `DropUniform`, `Duplicate`, `Reorder`, `QuantizeLatency`,
//! `NullMetadata` — feeding a log through a `FaultStream` produces output
//! **byte-identical** to `FaultPlan::apply` on the same log. The two
//! whole-log operators approximate their batch statistics causally:
//! `DropBursty` weights burst onset by a running latency mean instead of
//! the global mean, and `ClockSkew` anchors drift at the first record seen
//! instead of the global minimum time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use autosens_telemetry::record::{ActionRecord, UserClass};
use autosens_telemetry::time::SimTime;

use crate::plan::{splitmix64, FaultOp, FaultPlan};

const MS_PER_DAY: f64 = 86_400_000.0;

/// Per-operator streaming state.
#[derive(Debug)]
struct OpState {
    op: FaultOp,
    rng: StdRng,
    /// `DropBursty`: currently inside a drop burst.
    in_burst: bool,
    /// `DropBursty`: running latency sum / count for the onset weight.
    latency_sum: f64,
    latency_count: u64,
    /// `ClockSkew`: the per-plan stream value (drawn on first record, as
    /// the batch path draws it before its pass) and the drift anchor.
    skew_stream: Option<u64>,
    t0: Option<i64>,
}

impl OpState {
    fn new(op: FaultOp, seed: u64, position: usize) -> OpState {
        OpState {
            op,
            rng: StdRng::seed_from_u64(splitmix64(seed ^ (position as u64 + 1))),
            in_burst: false,
            latency_sum: 0.0,
            latency_count: 0,
            skew_stream: None,
            t0: None,
        }
    }

    /// Apply the operator to one record: zero, one, or two output records.
    fn push(&mut self, r: ActionRecord, out: &mut Vec<ActionRecord>) {
        match self.op {
            FaultOp::DropUniform { rate } => {
                if !self.rng.gen_bool(rate) {
                    out.push(r);
                }
            }
            FaultOp::DropBursty { rate, mean_burst } => {
                let mean_burst = mean_burst.max(1) as f64;
                if rate >= 1.0 {
                    return;
                }
                self.latency_sum += r.latency_ms;
                self.latency_count += 1;
                if rate <= 0.0 {
                    out.push(r);
                    return;
                }
                if self.in_burst {
                    if self.rng.gen_bool(1.0 / mean_burst) {
                        self.in_burst = false;
                    }
                    return;
                }
                let mean_latency = self.latency_sum / self.latency_count as f64;
                let weight = if mean_latency > 0.0 {
                    r.latency_ms / mean_latency
                } else {
                    1.0
                };
                let p = (rate / mean_burst * weight).clamp(0.0, 1.0);
                if self.rng.gen_bool(p) {
                    self.in_burst = true;
                    return;
                }
                out.push(r);
            }
            FaultOp::Duplicate { rate } => {
                out.push(r);
                if self.rng.gen_bool(rate) {
                    out.push(r);
                }
            }
            FaultOp::Reorder { rate, max_shift_ms } => {
                let mut r = r;
                if self.rng.gen_bool(rate) {
                    let shift = if max_shift_ms == 0 {
                        0
                    } else {
                        self.rng.gen_range(-max_shift_ms..=max_shift_ms)
                    };
                    r.time = SimTime(r.time.millis() + shift);
                }
                out.push(r);
            }
            FaultOp::ClockSkew {
                max_offset_ms,
                drift_ms_per_day,
            } => {
                let stream = *self.skew_stream.get_or_insert_with(|| self.rng.gen());
                let t0 = *self.t0.get_or_insert(r.time.millis());
                let h = splitmix64(stream ^ r.user.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let u_off = ((h >> 32) as f64 / f64::powi(2.0, 31)) - 1.0;
                let u_drift = ((h & 0xFFFF_FFFF) as f64 / f64::powi(2.0, 31)) - 1.0;
                let offset = (u_off * max_offset_ms as f64).round() as i64;
                let elapsed_days = (r.time.millis() - t0) as f64 / MS_PER_DAY;
                let drift = (u_drift * drift_ms_per_day as f64 * elapsed_days).round() as i64;
                let mut r = r;
                r.time = SimTime(r.time.millis() + offset + drift);
                out.push(r);
            }
            FaultOp::QuantizeLatency { grain_ms } => {
                let mut r = r;
                r.latency_ms = ((r.latency_ms / grain_ms).round() * grain_ms).max(0.0);
                out.push(r);
            }
            FaultOp::NullMetadata { rate } => {
                let mut r = r;
                if self.rng.gen_bool(rate) {
                    r.class = UserClass::Consumer;
                    r.tz_offset_ms = 0;
                }
                out.push(r);
            }
        }
    }
}

/// A [`FaultPlan`] unrolled for record-at-a-time application at an ingest
/// boundary. Feed records in arrival order with [`FaultStream::push`];
/// each call returns the (possibly empty) corrupted records the chain
/// emits for that input.
#[derive(Debug)]
pub struct FaultStream {
    ops: Vec<OpState>,
}

impl FaultStream {
    /// Build the streaming form of a plan. Fails if the plan is invalid.
    pub fn new(plan: &FaultPlan) -> Result<FaultStream, String> {
        plan.validate()?;
        Ok(FaultStream {
            ops: plan
                .ops
                .iter()
                .enumerate()
                .map(|(i, op)| OpState::new(op.clone(), plan.seed, i))
                .collect(),
        })
    }

    /// Run one arriving record through the operator chain, returning the
    /// records that survive (possibly duplicated, jittered, or nulled).
    pub fn push(&mut self, record: ActionRecord) -> Vec<ActionRecord> {
        let mut current = vec![record];
        for op in &mut self.ops {
            let mut next = Vec::with_capacity(current.len());
            for r in current {
                op.push(r, &mut next);
            }
            current = next;
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosens_telemetry::record::{ActionType, Outcome, UserId};
    use autosens_telemetry::TelemetryLog;

    fn sample_log() -> TelemetryLog {
        let records: Vec<ActionRecord> = (0..1000)
            .map(|i| ActionRecord {
                time: SimTime(i * 1000),
                action: ActionType::SelectMail,
                latency_ms: if (400..600).contains(&i) {
                    900.0
                } else {
                    100.0
                },
                user: UserId(i as u64 % 50),
                class: UserClass::Business,
                tz_offset_ms: 3_600_000,
                outcome: Outcome::Success,
            })
            .collect();
        TelemetryLog::from_records(records).unwrap()
    }

    #[test]
    fn per_record_ops_match_the_batch_path_exactly() {
        // Every operator whose batch RNG use is per-record-in-order must
        // stream byte-identically to FaultPlan::apply.
        let log = sample_log();
        let plan = FaultPlan {
            seed: 0x57AE,
            ops: vec![
                FaultOp::DropUniform { rate: 0.1 },
                FaultOp::Duplicate { rate: 0.1 },
                FaultOp::Reorder {
                    rate: 0.2,
                    max_shift_ms: 30_000,
                },
                FaultOp::QuantizeLatency { grain_ms: 25.0 },
                FaultOp::NullMetadata { rate: 0.15 },
            ],
        };
        let batch = plan.apply(&log).unwrap();
        let mut stream = FaultStream::new(&plan).unwrap();
        let streamed: Vec<ActionRecord> = log.view().iter().flat_map(|r| stream.push(r)).collect();
        assert_eq!(streamed, batch.to_records());
    }

    #[test]
    fn bursty_loss_tracks_the_target_rate_online() {
        let log = sample_log();
        let plan = FaultPlan {
            seed: 2,
            ops: vec![FaultOp::DropBursty {
                rate: 0.3,
                mean_burst: 10,
            }],
        };
        let mut stream = FaultStream::new(&plan).unwrap();
        let kept: usize = log.view().iter().map(|r| stream.push(r).len()).sum();
        let lost = 1.0 - kept as f64 / log.len() as f64;
        assert!((lost - 0.3).abs() < 0.15, "lost {lost}");
    }

    #[test]
    fn clock_skew_streams_with_constant_per_user_offsets() {
        let log = sample_log();
        let plan = FaultPlan {
            seed: 6,
            ops: vec![FaultOp::ClockSkew {
                max_offset_ms: 60_000,
                drift_ms_per_day: 0,
            }],
        };
        let mut stream = FaultStream::new(&plan).unwrap();
        let mut shift_of_user: std::collections::HashMap<u64, i64> = Default::default();
        for r in log.view().iter() {
            let out = stream.push(r);
            assert_eq!(out.len(), 1);
            let d = out[0].time.millis() - r.time.millis();
            let prev = shift_of_user.entry(r.user.0).or_insert(d);
            assert_eq!(*prev, d, "user {} shift changed", r.user.0);
        }
        assert!(
            shift_of_user
                .values()
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1
        );
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let bad = FaultPlan {
            seed: 0,
            ops: vec![FaultOp::DropUniform { rate: 1.5 }],
        };
        assert!(FaultStream::new(&bad).is_err());
    }
}
