//! # knnshap_parallel — work-stealing runtime with a determinism contract
//!
//! Every hot path in the workspace used to shard work with one-off
//! `std::thread::scope` blocks and fixed even chunking. That loses exactly
//! where the paper's extended estimators hurt most: per-item cost is highly
//! non-uniform (weighted Shapley recursions, LSH table builds, skewed query
//! batches), so static shards finish at very different times. This crate
//! replaces all of them with one hand-rolled work-stealing pool.
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
//! * [`par_map_reduce`]`(n, threads, init, step, reduce)` — blocked fold
//!   whose reduction order is a function of `n` alone.
//! * [`par_indexed_map_reduce`] — the same fold, but `init` sees the block's
//!   index range so accumulators can set up block-scoped scratch (how the
//!   Monte Carlo estimators seat a forked utility per block).
//! * [`par_claim`]`(units, threads, participant)` — dynamic claiming:
//!   each participant drains unit indices from one shared counter, so
//!   per-worker state is built once per worker, not once per unit. Only
//!   for results that cannot depend on which worker ran which unit.
//! * [`ThreadPool`] — the pool itself, for dedicated pools in tests or
//!   embedders; the free functions above run on a lazily-built global pool
//!   sized by [`current_threads`].
//!
//! ## Determinism contract
//!
//! Parallel results are **bitwise-identical across thread counts**,
//! including the serial case:
//!
//! * `par_map` writes `f(i)` into slot `i` — scheduling cannot reorder it.
//! * `par_map_reduce` cuts `0..n` into a fixed partition (a function of `n`
//!   only), folds each block in index order into a fresh accumulator, and
//!   combines the per-block accumulators in block order on the calling
//!   thread. The floating-point reduction tree is therefore invariant under
//!   the thread count and under scheduling, and `threads = 1` executes the
//!   *same* tree serially.
//!
//! This is what lets the estimator suites assert that Shapley vectors from
//! 1-, 2- and 8-thread runs agree to the last bit (see
//! `tests/parallel_determinism.rs` at the workspace root).
//!
//! ## Scheduling
//!
//! Blocks are dealt round-robin onto per-participant deques; owners pop the
//! front, idle participants steal from the back of their neighbors. The
//! submitting thread always participates (a pool of size 1 spawns no
//! threads), panics in tasks are caught and re-thrown on the submitter, and
//! nested regions are deadlock-free because waiting is implemented as
//! helping.
//!
//! ```
//! // Order-preserving map, deterministic blocked reduction.
//! let squares = knnshap_parallel::par_map(8, 4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! let sum: f64 = knnshap_parallel::par_map_reduce(
//!     1_000,
//!     4,
//!     || 0.0f64,
//!     |acc, i| *acc += (i as f64).sqrt(),
//!     |a, b| *a += b,
//! );
//! let serial = knnshap_parallel::par_map_reduce(
//!     1_000,
//!     1,
//!     || 0.0f64,
//!     |acc, i| *acc += (i as f64).sqrt(),
//!     |a, b| *a += b,
//! );
//! assert_eq!(sum.to_bits(), serial.to_bits()); // bitwise, not approximately
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

/// Deterministic parallel fold on the global pool: per-block accumulators
/// (`init` + `step` over each block's indices in order) combined in block
/// order via `reduce`. Bitwise-identical results for every `threads` value;
/// returns `init()` when `n == 0`. See the [crate docs](crate) for the full
/// contract.
pub fn par_map_reduce<A, I, S, R>(n: usize, threads: usize, init: I, step: S, reduce: R) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    S: Fn(&mut A, usize) + Sync,
    R: Fn(&mut A, A),
{
    ThreadPool::global().par_map_reduce(n, threads, init, step, reduce)
}

/// [`par_map_reduce`] whose `init` receives the block's index range, so
/// accumulators can carry block-scoped scratch (forked utilities, stream
/// tables, reusable permutation buffers). Same fixed partition and block-order
/// reduction — and therefore the same bitwise-determinism contract — as
/// [`par_map_reduce`]; the parallel Monte Carlo estimators in `knnshap_core`
/// are built on this entry point.
pub fn par_indexed_map_reduce<A, I, S, R>(
    n: usize,
    threads: usize,
    init: I,
    step: S,
    reduce: R,
) -> A
where
    A: Send,
    I: Fn(std::ops::Range<usize>) -> A + Sync,
    S: Fn(&mut A, usize) + Sync,
    R: Fn(&mut A, A),
{
    ThreadPool::global().par_indexed_map_reduce(n, threads, init, step, reduce)
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
    fn par_map_reduce_empty_returns_init() {
        let v = par_map_reduce(0, 8, || 7i64, |_, _| unreachable!(), |_, _| unreachable!());
        assert_eq!(v, 7);
    }

    #[test]
    fn par_indexed_map_reduce_sees_block_ranges() {
        // Each block's accumulator starts at its range start; folding the
        // starts plus the per-item steps must cover 0..n exactly once, and
        // the result must be thread-count-free.
        let run = |threads: usize| -> (u64, usize) {
            par_indexed_map_reduce(
                1000,
                threads,
                |range| (0u64, range.start),
                |acc, i| {
                    assert!(i >= acc.1, "item before block start");
                    acc.0 += i as u64;
                },
                |a, b| a.0 += b.0,
            )
        };
        let serial = run(1);
        assert_eq!(serial.0, (0..1000u64).sum::<u64>());
        for threads in [2, 8] {
            assert_eq!(run(threads), serial);
        }
    }

    #[test]
    fn par_indexed_map_reduce_empty_gets_empty_range() {
        let v = par_indexed_map_reduce(
            0,
            4,
            |range| {
                assert!(range.is_empty());
                3i32
            },
            |_, _| unreachable!(),
            |_, _| unreachable!(),
        );
        assert_eq!(v, 3);
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
