//! # knnshap_parallel — one claim-counter scheduler with a determinism contract
//!
//! Every hot path in the workspace used to shard work with one-off
//! `std::thread::scope` blocks and fixed even chunking. That loses exactly
//! where the paper's extended estimators hurt most: per-item cost is highly
//! non-uniform (weighted Shapley recursions, LSH table builds, skewed query
//! batches), so static shards finish at very different times. This crate
//! replaces all of them with one hand-rolled pool whose workers claim work
//! from a shared counter.
//!
//! ## API
//!
//! * [`current_threads`] — the workspace-wide worker-count policy: the
//!   `KNNSHAP_THREADS` env var when set to a positive integer, else one
//!   worker per available core. Every default that used to read
//!   `available_parallelism` directly now routes through here.
//! * [`par_map`]`(n, threads, f)` — order-preserving `(0..n).map(f)`.
//! * [`par_chunks`]`(items, chunk_size, threads, f)` — disjoint mutable
//!   chunks of a slice, chunk boundaries fixed by the caller.
//! * [`par_claim`]`(units, threads, participant)` — dynamic claiming:
//!   each participant drains unit indices from one shared counter, so
//!   per-worker state is built once per worker, not once per unit. Only
//!   for results that cannot depend on which worker ran which unit.
//! * [`par_ordered`]`(threads, init, claim, work, commit)` — ordered
//!   commit: units are claimed one at a time in sequence order, worked on
//!   in parallel and committed one at a time in sequence order, so a
//!   stream (CSV windows in, CSV row blocks out) keeps its order on every
//!   worker.
//! * [`ThreadPool`] — the pool itself, for dedicated pools in tests or
//!   embedders; the free functions above run on a lazily-built global pool
//!   sized by [`current_threads`].
//!
//! ## Determinism contract
//!
//! Parallel results are **bitwise-identical across thread counts**,
//! including the serial case, because nothing a caller keeps depends on
//! which participant ran which unit:
//!
//! * `par_map` writes `f(i)` into slot `i`, and `par_chunks` hands `f` the
//!   caller's fixed chunk bounds — scheduling can move neither.
//! * `par_claim` hands units out in an order that varies from run to run,
//!   so its callers keep only what that order cannot change: writes
//!   indexed by unit, and exact sums (`knnshap_numerics::exact`), whose
//!   merge is error-free and therefore order-free.
//! * `par_ordered` commits units one at a time in sequence order.
//!
//! This is what lets the estimator suites assert that Shapley vectors from
//! 1-, 2- and 8-thread runs agree to the last bit (see
//! `tests/parallel_determinism.rs` at the workspace root).
//!
//! ## Scheduling
//!
//! Every region admits at most `min(threads, pool, units)` participants,
//! and its participants drain one shared claim counter (`par_ordered`: one
//! sequence lock). The submitting thread is always participant 0 (a pool
//! of size 1 spawns no threads) and runs every participant slot no worker
//! took, panics are caught and re-thrown on the submitter, and nested
//! regions are deadlock-free because waiting is implemented as helping.
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! // Order-preserving map and caller-fixed chunks.
//! let squares = knnshap_parallel::par_map(8, 4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! let mut roots = vec![0.0f64; 1_000];
//! knnshap_parallel::par_chunks(&mut roots, 64, 4, |offset, chunk| {
//!     for (j, r) in chunk.iter_mut().enumerate() {
//!         *r = ((offset + j) as f64).sqrt();
//!     }
//! });
//! assert!(roots.iter().enumerate().all(|(i, r)| r.to_bits() == (i as f64).sqrt().to_bits()));
//!
//! // Every unit is claimed exactly once, whichever participant claims it.
//! let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
//! knnshap_parallel::par_claim(100, 4, |claims| {
//!     for unit in claims {
//!         hits[unit].fetch_add(1, Ordering::Relaxed);
//!     }
//! });
//! assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
//! ```

mod pool;

pub use pool::{Claims, ThreadPool};

/// Worker-count policy for the whole workspace: `KNNSHAP_THREADS` when set
/// to a positive integer, else one worker per available core (1 if the
/// hardware count is unavailable). `0`, empty, or garbage values fall back
/// to the hardware count.
///
/// The global pool reads this once, on first use.
pub fn current_threads() -> usize {
    threads_from(std::env::var("KNNSHAP_THREADS").ok().as_deref())
}

/// The one place the `KNNSHAP_THREADS` value is interpreted: a positive
/// integer wins; `0`, empty, or garbage count as unset.
fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

/// The parsing half of [`current_threads`], split out so the env-var policy
/// is testable without mutating the process environment.
pub fn threads_from(var: Option<&str>) -> usize {
    parse_threads(var).unwrap_or_else(hardware_threads)
}

/// Worker floor for the global pool when `KNNSHAP_THREADS` is unset: callers
/// that explicitly ask for up to this many threads get them even on machines
/// with fewer cores (see [`ThreadPool::global`] for the rationale).
const MIN_GLOBAL_POOL: usize = 8;

/// Size of the global pool: `KNNSHAP_THREADS` exactly when set, else
/// `max(cores, MIN_GLOBAL_POOL)`.
pub(crate) fn global_pool_threads() -> usize {
    match parse_threads(std::env::var("KNNSHAP_THREADS").ok().as_deref()) {
        Some(n) => n,
        None => hardware_threads().max(MIN_GLOBAL_POOL),
    }
}

/// Order-preserving parallel map over `0..n` on the global pool, capped at
/// `threads` workers. Output `i` is exactly `f(i)` for every thread count.
pub fn par_map<U, F>(n: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    ThreadPool::global().par_map(n, threads, f)
}

/// Parallel iteration over disjoint `chunk_size` chunks of `items` on the
/// global pool; `f` gets each chunk's offset and the mutable chunk.
pub fn par_chunks<T, F>(items: &mut [T], chunk_size: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    ThreadPool::global().par_chunks(items, chunk_size, threads, f)
}

/// Dynamic claiming on the global pool: at most `threads` participants
/// each run `participant` once and claim unit indices of `0..units` from
/// one shared counter. See [`ThreadPool::par_claim`].
pub fn par_claim<F>(units: usize, threads: usize, participant: F)
where
    F: Fn(&mut Claims<'_>) + Sync,
{
    ThreadPool::global().par_claim(units, threads, participant)
}

/// Ordered commit on the global pool: participants claim units in
/// sequence order, work on them in parallel and commit them one at a time
/// in sequence order. See [`ThreadPool::par_ordered`].
pub fn par_ordered<S, I, C, W, K>(threads: usize, init: I, claim: C, work: W, commit: K)
where
    I: Fn() -> S + Sync,
    C: FnMut(usize, &mut S) -> bool + Send,
    W: Fn(&mut S) + Sync,
    K: FnMut(&mut S) -> bool + Send,
{
    ThreadPool::global().par_ordered(threads, init, claim, work, commit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_from_env_policy() {
        let hw = std::thread::available_parallelism().map_or(1, |t| t.get());
        assert_eq!(threads_from(Some("1")), 1);
        assert_eq!(threads_from(Some("8")), 8);
        assert_eq!(threads_from(Some(" 3 ")), 3);
        assert_eq!(threads_from(Some("0")), hw);
        assert_eq!(threads_from(Some("not-a-number")), hw);
        assert_eq!(threads_from(None), hw);
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn par_chunks_empty_and_offsets() {
        let mut empty: Vec<u32> = Vec::new();
        par_chunks(&mut empty, 4, 8, |_, _| panic!("no chunks for no items"));

        let mut data = vec![0usize; 103];
        par_chunks(&mut data, 10, 4, |offset, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = offset + j;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i));
    }
}
