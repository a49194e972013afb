//! The self-scheduling chunk loop.
//!
//! A job over `n_items` is cut into fixed-size chunks (boundaries depend
//! only on `n_items` and `chunk_size`, never on the worker count). Every
//! worker claims the next unclaimed chunk index from one shared counter
//! until none is left; the calling thread is worker 0, so a one-thread
//! job spawns nothing. Results are collected **by chunk index**, so
//! downstream merges always happen in chunk order and the job's output is
//! bit-identical for 1..N threads.
//!
//! A chunk that panics is caught ([`std::panic::catch_unwind`]) and the
//! whole job fails with a typed [`ExecError`] naming the lowest-indexed
//! panicked chunk — deterministic even when several chunks fail — and no
//! partial result ever escapes.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::faults;
use crate::merge::Mergeable;
use crate::resolve_threads;

/// A chunk of a job panicked; the job was abandoned with no partial merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// The job label (e.g. the pipeline stage name).
    pub label: String,
    /// The lowest-indexed chunk that panicked.
    pub chunk: usize,
    /// The captured panic message.
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chunk {} of job '{}' panicked: {}",
            self.chunk, self.label, self.message
        )
    }
}

impl std::error::Error for ExecError {}

/// Per-worker scheduling statistics, for observability spans.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Worker index within the job (0-based).
    pub worker: usize,
    /// Chunks this worker executed.
    pub chunks: u64,
    /// Worker wall-clock time in milliseconds.
    pub wall_ms: f64,
}

/// What a job did: chunk geometry plus per-worker statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// The job label.
    pub label: String,
    /// Items covered by the job.
    pub n_items: usize,
    /// Number of chunks the job was cut into.
    pub n_chunks: usize,
    /// The (fixed) chunk size; the last chunk may be shorter.
    pub chunk_size: usize,
    /// Workers that ran the job (after clamping to the chunk count).
    pub threads: usize,
    /// Per-worker statistics.
    pub workers: Vec<WorkerStats>,
}

/// Run `map` over every chunk of `0..n_items` and return the per-chunk
/// results **in chunk order**, plus a scheduling report.
///
/// `threads == 0` means "all available cores"; the worker count is
/// clamped to the chunk count. The output is independent of `threads`.
pub fn run_chunks<T, F>(
    label: &str,
    n_items: usize,
    chunk_size: usize,
    threads: usize,
    map: F,
) -> Result<(Vec<T>, ExecReport), ExecError>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let chunk_size = chunk_size.max(1);
    let n_chunks = n_items.div_ceil(chunk_size);
    let threads = resolve_threads(threads).min(n_chunks.max(1));
    let mut report = ExecReport {
        label: label.to_string(),
        n_items,
        n_chunks,
        chunk_size,
        threads,
        workers: Vec::new(),
    };
    if n_chunks == 0 {
        return Ok((Vec::new(), report));
    }

    // One worker's loop: claim the next chunk index until none is left.
    // Which worker ran a chunk is the scheduler's only nondeterminism, and
    // the chunk-order reassembly below erases it.
    let next = AtomicUsize::new(0);
    let work = |worker: usize| {
        let t0 = Instant::now();
        let mut out: Vec<(usize, std::thread::Result<T>)> = Vec::new();
        loop {
            let chunk = next.fetch_add(1, Ordering::Relaxed);
            if chunk >= n_chunks {
                break;
            }
            let range = chunk * chunk_size..((chunk + 1) * chunk_size).min(n_items);
            out.push((
                chunk,
                catch_unwind(AssertUnwindSafe(|| {
                    faults::check(label, chunk);
                    map(chunk, range)
                })),
            ));
        }
        let stats = WorkerStats {
            worker,
            chunks: out.len() as u64,
            wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
        };
        (stats, out)
    };
    let per_worker = std::thread::scope(|scope| {
        let work = &work;
        let helpers: Vec<_> = (1..threads).map(|w| scope.spawn(move || work(w))).collect();
        let mut per_worker = vec![work(0)];
        per_worker.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("exec worker catches its own unwinds")),
        );
        per_worker
    });

    // Reassemble in chunk order; surface the lowest-indexed panic.
    let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
    let mut first_panic: Option<(usize, String)> = None;
    for (stats, out) in per_worker {
        report.workers.push(stats);
        for (chunk, result) in out {
            match result {
                Ok(value) => slots[chunk] = Some(value),
                Err(payload) => {
                    let message = panic_message(payload);
                    if first_panic.as_ref().is_none_or(|(c, _)| chunk < *c) {
                        first_panic = Some((chunk, message));
                    }
                }
            }
        }
    }
    if let Some((chunk, message)) = first_panic {
        return Err(ExecError {
            label: label.to_string(),
            chunk,
            message,
        });
    }
    let results = slots
        .into_iter()
        // Invariant: every chunk index was claimed exactly once and either
        // produced a value or a panic (handled above).
        .map(|s| s.expect("every chunk ran"))
        .collect();
    Ok((results, report))
}

/// Chunked map-reduce: run `map` over every chunk and fold the partial
/// aggregates **in chunk order**. Returns `None` for an empty job.
pub fn map_reduce<M, F>(
    label: &str,
    n_items: usize,
    chunk_size: usize,
    threads: usize,
    map: F,
) -> Result<(Option<M>, ExecReport), ExecError>
where
    M: Mergeable + Send,
    F: Fn(usize, Range<usize>) -> M + Sync,
{
    let (parts, report) = run_chunks(label, n_items, chunk_size, threads, map)?;
    let mut parts = parts.into_iter();
    let mut acc = parts.next();
    if let Some(acc) = acc.as_mut() {
        for p in parts {
            acc.merge(p);
        }
    }
    Ok((acc, report))
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_chunk_order() {
        for threads in [1, 2, 4, 8] {
            let (out, report) =
                run_chunks("order", 1000, 7, threads, |chunk, range| (chunk, range)).unwrap();
            assert_eq!(out.len(), 1000usize.div_ceil(7));
            for (i, (chunk, range)) in out.iter().enumerate() {
                assert_eq!(*chunk, i);
                assert_eq!(range.start, i * 7);
                assert_eq!(range.end, ((i + 1) * 7).min(1000));
            }
            let total: u64 = report.workers.iter().map(|w| w.chunks).sum();
            assert_eq!(total, report.n_chunks as u64);
        }
    }

    #[test]
    fn float_reduce_is_bit_identical_across_thread_counts() {
        // A sum whose value depends on association order: identical chunk
        // boundaries + ordered merge must give bit-identical results.
        let f = |_, range: Range<usize>| {
            let mut s = 0.0f64;
            for i in range {
                s += 1.0 / (1.0 + i as f64).sqrt();
            }
            s
        };
        let (baseline, _) = map_reduce("sum", 100_000, 1_234, 1, f).unwrap();
        for threads in [2, 4, 8] {
            let (sum, _) = map_reduce("sum", 100_000, 1_234, threads, f).unwrap();
            assert_eq!(baseline.unwrap().to_bits(), sum.unwrap().to_bits());
        }
    }

    #[test]
    fn empty_job_is_ok() {
        let (out, report) = run_chunks("empty", 0, 8, 4, |_, _| 1u64).unwrap();
        assert!(out.is_empty());
        assert_eq!(report.n_chunks, 0);
        let (agg, _) = map_reduce::<u64, _>("empty", 0, 8, 4, |_, _| 1).unwrap();
        assert_eq!(agg, None);
    }

    #[test]
    fn panicking_chunk_fails_typed_with_lowest_index() {
        for threads in [1, 3] {
            let err = run_chunks("boom", 100, 10, threads, |chunk, _| {
                if chunk >= 4 {
                    panic!("chunk {chunk} exploded");
                }
                chunk
            })
            .unwrap_err();
            assert_eq!(err.chunk, 4);
            assert_eq!(err.label, "boom");
            assert!(err.message.contains("exploded"), "{}", err.message);
            assert!(err.to_string().contains("job 'boom'"));
        }
    }

    #[test]
    fn one_thread_runs_every_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        let (ids, report) =
            run_chunks("caller", 100, 10, 1, |_, _| std::thread::current().id()).unwrap();
        assert_eq!(ids.len(), 10);
        assert!(ids.iter().all(|&id| id == caller));
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].chunks, 10);
        // With helpers, the caller is still worker 0 and every chunk runs
        // on the caller or on a helper spawned for this job.
        let (ids, report) =
            run_chunks("caller", 100, 10, 4, |_, _| std::thread::current().id()).unwrap();
        assert_eq!(report.workers.len(), 4);
        assert_eq!(report.workers[0].worker, 0);
        let helpers = ids.iter().filter(|&&id| id != caller).count() as u64;
        let on_caller = ids.len() as u64 - helpers;
        assert_eq!(on_caller, report.workers[0].chunks);
    }

    #[test]
    fn threads_are_clamped_to_chunks() {
        let (_, report) = run_chunks("small", 10, 100, 8, |_, r| r.len()).unwrap();
        assert_eq!(report.n_chunks, 1);
        assert_eq!(report.threads, 1);
    }
}
