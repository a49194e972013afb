//! # `autosens-exec` — deterministic data-parallel execution
//!
//! The AutoSens hot path is shard → map → **ordered** reduce: every stage
//! that walks millions of telemetry records (sanitize, the α slot
//! partition, unbiased draw accumulation, bootstrap replicates, sim record
//! generation) is expressed as a chunked map over fixed-size record ranges
//! whose per-chunk partial results are merged **in chunk order**.
//!
//! Determinism contract: the output of [`scheduler::run_chunks`] and
//! [`scheduler::map_reduce`] is a pure function of `(n_items, chunk_size,
//! map)` — the worker count only changes *which thread* computes a chunk,
//! never the chunk boundaries, the per-chunk computation, or the merge
//! order. Callers that need randomness seed an independent RNG stream per
//! chunk (never per worker), so results are bit-identical for 1..N
//! threads. Chunk sizes come from [`chunk_size_for`], which depends only
//! on the item count.
//!
//! Scheduling is one self-scheduling loop: the calling thread and
//! `threads − 1` scoped helpers each claim the next chunk index from one
//! shared counter until none is left (a one-thread job spawns nothing),
//! and a chunk that panics is captured and surfaced as a typed
//! [`scheduler::ExecError`] (smallest chunk index wins, so even the error
//! is deterministic) — never a hang and never a partial merge. The crate
//! depends on nothing but `std`.

pub mod faults;
pub mod merge;
pub mod scheduler;

pub use merge::Mergeable;
pub use scheduler::{map_reduce, run_chunks, ExecError, ExecReport, WorkerStats};

/// Resolve a configured thread count: `0` means "all available cores".
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// The chunk size used for record-range jobs over `n` items.
///
/// Deliberately a function of `n` only — never of the thread count — so
/// chunk boundaries (and therefore merge order and per-chunk RNG streams)
/// are identical no matter how many workers run the job. The policy aims
/// for ~64 chunks on large inputs, floored so tiny chunks don't drown the
/// job in scheduling overhead and capped so one chunk cannot monopolize a
/// worker.
pub fn chunk_size_for(n: usize) -> usize {
    (n / 64).clamp(4_096, 131_072).min(n.max(1))
}

/// The chunk size for pure *scan* jobs — chunked maps that carry no
/// per-chunk RNG stream (slice filtering, deduplication, the α loss-cell
/// partition, loss counting).
///
/// Scan partials are often heavyweight (the α partition allocates one
/// histogram per loss cell a chunk touches, up to 96), so fine chunking
/// taxes the job twice: once in
/// per-chunk allocation and once in the ordered merge. This policy aims
/// for ~16 large chunks instead of [`chunk_size_for`]'s ~64, and its floor
/// means small inputs run as a single chunk (one worker, no spawn
/// overhead). Like `chunk_size_for` it depends only on `n`, never on the
/// thread count, so chunk boundaries and merge order are identical for
/// 1..N workers. RNG-bearing jobs must keep using [`chunk_size_for`]:
/// their per-chunk seed streams are part of the pinned output.
pub fn scan_chunk_size_for(n: usize) -> usize {
    (n / 16).clamp(65_536, 2_097_152).min(n.max(1))
}

/// Derive the RNG seed of one chunk from a job's base seed.
///
/// Jobs that draw random numbers seed one independent stream per *chunk*
/// (never per worker) with this function, so the draws a chunk makes are a
/// pure function of `(base, chunk)` and the job's output does not depend
/// on which worker ran the chunk. The mixer is SplitMix64: consecutive
/// chunk indices land far apart in seed space.
pub fn chunk_seed(base: u64, chunk: u64) -> u64 {
    let mut z = base ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_depends_only_on_n() {
        assert_eq!(chunk_size_for(0), 1);
        assert_eq!(chunk_size_for(100), 100);
        assert_eq!(chunk_size_for(10_000), 4_096);
        assert_eq!(chunk_size_for(1 << 20), 16_384);
        assert_eq!(chunk_size_for(100_000_000), 131_072);
    }

    #[test]
    fn scan_chunk_size_depends_only_on_n() {
        assert_eq!(scan_chunk_size_for(0), 1);
        assert_eq!(scan_chunk_size_for(100), 100);
        // Below the floor the whole scan is one chunk.
        assert_eq!(scan_chunk_size_for(60_000), 60_000);
        assert_eq!(scan_chunk_size_for(1 << 20), 65_536);
        assert_eq!(scan_chunk_size_for(8_000_000), 500_000);
        assert_eq!(scan_chunk_size_for(100_000_000), 2_097_152);
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn chunk_seeds_are_stable_and_distinct() {
        assert_eq!(chunk_seed(42, 7), chunk_seed(42, 7));
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|c| chunk_seed(0xABCD, c)).collect();
        assert_eq!(seeds.len(), 1000);
    }
}
