//! Bounded intake queue with explicit backpressure and shed-and-count
//! overflow accounting, plus an optional fault-injection hook.
//!
//! The [`Ingestor`] sits between a telemetry source (a tailed file, a
//! simulator, a network receiver) and the [`StreamEngine`].
//! It deliberately keeps the engine out of the hot producer path: sources
//! call [`Ingestor::offer`] (cheap, lock-scoped queue push), a consumer
//! periodically calls [`Ingestor::drain_into`]. Overflow is never silent:
//! under [`OverflowPolicy::Shed`] the dropped record bumps
//! `autosens_stream_shed_events_total`; under [`OverflowPolicy::Block`]
//! the caller gets [`Offer::Full`] back and owns the retry (this crate
//! has no async runtime to park on).
//!
//! A [`FaultStream`] can be attached so reorder/drop/duplicate injection
//! happens **at the ingest boundary** — upstream of the queue and the
//! engine — which keeps the engine itself deterministic and
//! checkpointable while the intake sees realistic corruption.

use std::collections::VecDeque;

use parking_lot::Mutex;

use autosens_faults::FaultStream;
use autosens_obs::{Gauge, Recorder};
use autosens_telemetry::record::ActionRecord;

use crate::engine::{Ingest, StreamEngine};
use crate::error::StreamError;

/// What to do when the bounded queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Reject the offer with [`Offer::Full`]; the producer retries after
    /// the consumer drains (explicit backpressure).
    Block,
    /// Drop the newest record, count it, and keep going (load shedding).
    Shed,
}

/// Outcome of one [`Ingestor::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Enqueued (possibly as several records, if a fault duplicated it).
    Accepted,
    /// Dropped and counted under [`OverflowPolicy::Shed`].
    Shed,
    /// Queue at capacity under [`OverflowPolicy::Block`]; retry later.
    Full,
}

struct IngestorState {
    queue: VecDeque<ActionRecord>,
    faults: Option<FaultStream>,
    shed: u64,
}

/// A bounded, mutex-guarded intake queue. See the module docs.
pub struct Ingestor {
    state: Mutex<IngestorState>,
    capacity: usize,
    policy: OverflowPolicy,
    recorder: Recorder,
    /// `autosens_stream_queue_depth`, resolved once: every offer sets it.
    queue_depth: Gauge,
}

impl Ingestor {
    /// A queue holding at most `capacity` records.
    pub fn new(capacity: usize, policy: OverflowPolicy, recorder: Recorder) -> Ingestor {
        assert!(capacity > 0, "ingestor capacity must be > 0");
        Ingestor {
            state: Mutex::new(IngestorState {
                queue: VecDeque::with_capacity(capacity.min(4096)),
                faults: None,
                shed: 0,
            }),
            capacity,
            policy,
            queue_depth: recorder.metrics().gauge("autosens_stream_queue_depth"),
            recorder,
        }
    }

    /// Attach a fault stream; every subsequent offer passes through it
    /// before queueing. Returns the previous stream, if any.
    pub fn set_faults(&self, faults: Option<FaultStream>) -> Option<FaultStream> {
        std::mem::replace(&mut self.state.lock().faults, faults)
    }

    /// Offer one record. Fault injection (if attached) may drop it, mutate
    /// it, or fan it out into several records; capacity is enforced per
    /// resulting record, so a duplicate burst can partially shed.
    pub fn offer(&self, record: ActionRecord) -> Offer {
        let mut state = self.state.lock();
        let outcome = match state.faults.as_mut().map(|fs| fs.push(record)) {
            None => self.enqueue(&mut state, record),
            Some(produced) => {
                // A fault-dropped record is not an overflow: report it
                // accepted so the producer keeps going (the FaultStream
                // already accounted it).
                let mut outcome = Offer::Accepted;
                for r in produced {
                    match self.enqueue(&mut state, r) {
                        Offer::Full => {
                            outcome = Offer::Full;
                            break;
                        }
                        Offer::Shed => outcome = Offer::Shed,
                        Offer::Accepted => {}
                    }
                }
                outcome
            }
        };
        self.queue_depth.set(state.queue.len() as f64);
        outcome
    }

    /// Queue one record, or shed it or refuse it at capacity.
    fn enqueue(&self, state: &mut IngestorState, r: ActionRecord) -> Offer {
        if state.queue.len() >= self.capacity {
            return match self.policy {
                OverflowPolicy::Block => Offer::Full,
                OverflowPolicy::Shed => {
                    state.shed += 1;
                    self.recorder
                        .metrics()
                        .counter("autosens_stream_shed_events_total")
                        .inc();
                    Offer::Shed
                }
            };
        }
        state.queue.push_back(r);
        Offer::Accepted
    }

    /// Records currently queued.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Records shed so far (transient — intentionally not checkpointed;
    /// a shed record never reached durable state).
    pub fn shed(&self) -> u64 {
        self.state.lock().shed
    }

    /// Drain every queued record into the engine, in arrival order.
    /// Returns how many were pushed and how many of those were admitted.
    ///
    /// The queue's buffer leaves with the records, so a drained queue
    /// holds no memory until its next offer.
    pub fn drain_into(&self, engine: &mut StreamEngine) -> Result<DrainSummary, StreamError> {
        let drained = Vec::from(std::mem::take(&mut self.state.lock().queue));
        self.queue_depth.set(0.0);
        let mut summary = DrainSummary::default();
        for r in drained {
            summary.pushed += 1;
            if engine.push(r) == Ingest::Admitted {
                summary.admitted += 1;
            }
        }
        Ok(summary)
    }
}

/// What one [`Ingestor::drain_into`] call moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Records handed to the engine.
    pub pushed: usize,
    /// Of those, records the engine admitted into a shard.
    pub admitted: usize,
}
