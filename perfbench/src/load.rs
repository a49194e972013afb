//! The open loop the serve workloads share.
//!
//! It runs one worker per thread; a worker owns its connections and
//! generator state, so threads share nothing while measuring.

use std::time::{Duration, Instant};

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// From when the operation was due to when it completed.
    pub latency_ms: f64,
    /// How late the generator sent the operation once it could have:
    /// send time minus the later of its due time and the end of the
    /// worker's previous operation.
    pub lag_ms: f64,
    pub ok: bool,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// First failure, for the run's diagnostics.
    pub first_error: Option<String>,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    fn absorb(&mut self, samples: Vec<Sample>, error: Option<String>) {
        self.samples.extend(samples);
        if self.first_error.is_none() {
            self.first_error = error;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Open loop: operation `i` is due at `i / rate` seconds after the start
/// and goes to worker `i % workers.len()`; every operation due within
/// `duration` is sent, however late. A worker still behind schedule at
/// twice the phase length stops, and its remaining operations count as
/// failed: by then the offered rate is far past what the program sustains.
pub fn open_loop<W: Send>(
    workers: &mut [W],
    rate: f64,
    duration: Duration,
    op: impl Fn(&mut W, usize) -> Result<(), String> + Sync,
) -> Phase {
    let total = (rate * duration.as_secs_f64()).ceil() as usize;
    let n = workers.len();
    let start = Instant::now() + Duration::from_millis(5);
    let give_up = start + 2 * duration;
    let op = &op;
    let mut phase = Phase::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(j, w)| {
                s.spawn(move || {
                    let mut samples = Vec::with_capacity(total / n + 1);
                    let mut error = None;
                    let mut ready = start;
                    for i in (j..total).step_by(n) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now > give_up {
                            let lost = (i..total).step_by(n).map(|_| Sample {
                                latency_ms: ms(now - due),
                                lag_ms: 0.0,
                                ok: false,
                            });
                            samples.extend(lost);
                            error.get_or_insert("open loop fell behind by a full phase".into());
                            break;
                        }
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let result = op(w, i);
                        let done = Instant::now();
                        samples.push(Sample {
                            latency_ms: ms(done - due),
                            lag_ms: ms(sent - due.max(ready)),
                            ok: result.is_ok(),
                        });
                        if let Err(e) = result {
                            error.get_or_insert(e);
                        }
                        ready = done;
                    }
                    (samples, error)
                })
            })
            .collect();
        for h in handles {
            let (samples, error) = h.join().expect("load worker panicked");
            phase.absorb(samples, error);
        }
    });
    phase
}
