//! The work-stealing thread pool.
//!
//! A [`ThreadPool`] owns `threads − 1` background workers; the thread that
//! submits a parallel region always participates as the region's first
//! worker, so a pool of size 1 spawns no threads at all and every operation
//! degrades to a plain serial loop on the caller.
//!
//! A *region* is one `par_map` / `par_chunks` / `par_map_reduce` call: the
//! item range is cut into [`Block`]s (boundaries depend only on the item
//! count — see `partition_with`), the blocks are dealt round-robin onto
//! per-participant deques, and each participant pops from the front of its
//! own deque and steals from the back of the others when it runs dry. The
//! submitting caller blocks until every block has finished — by working, not
//! by sleeping — which is also what makes nested regions deadlock-free: a
//! worker that starts a nested region drains it itself if nobody helps.
//!
//! Panics inside a task are caught per block; the first payload is stashed
//! and re-thrown on the submitting thread once the region completes, so a
//! panicking `par_map` behaves like a panicking serial loop (and the pool
//! stays usable afterwards).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

// Telemetry instruments (no-ops unless `KNNSHAP_METRICS`/`KNNSHAP_LOG`
// enable them — `knnshap_obs` is write-only from here, so the counters can
// observe scheduling without being able to influence it). Utilization is
// derived downstream as `pool.busy_micros / pool.capacity_micros`:
// capacity accrues `workers × wall` per region, busy accrues actual
// block-execution time.
static POOL_STEALS: knnshap_obs::Counter = knnshap_obs::Counter::new("pool.steals");
static POOL_BLOCKS: knnshap_obs::Counter = knnshap_obs::Counter::new("pool.blocks");
static POOL_REGIONS: knnshap_obs::Counter = knnshap_obs::Counter::new("pool.regions");
static POOL_BUSY_MICROS: knnshap_obs::Counter = knnshap_obs::Counter::new("pool.busy_micros");
static POOL_CAPACITY_MICROS: knnshap_obs::Counter =
    knnshap_obs::Counter::new("pool.capacity_micros");
static POOL_QUEUE_DEPTH: knnshap_obs::Gauge = knnshap_obs::Gauge::new("pool.queue_depth");

/// A contiguous run of item indices `[start, end)` — the unit of scheduling
/// and of reduction. Block boundaries are a function of the item count
/// alone, never of the thread count, which is what makes
/// [`ThreadPool::par_map_reduce`] bitwise-deterministic.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Block {
    /// Position of this block in the fixed partition (reduction order).
    pub(crate) index: usize,
    pub(crate) start: usize,
    pub(crate) end: usize,
}

/// Upper bound on scheduling units per region: enough slack for stealing to
/// balance very skewed per-item costs, few enough that per-block overhead is
/// invisible next to any real valuation workload.
const MAX_BLOCKS: usize = 256;

/// Tighter bound for reductions: every reduce block materializes a full
/// accumulator (for the Shapley drivers, a vector the size of the training
/// set) that stays live until the final fold, so the block count directly
/// multiplies peak memory. 32 still leaves 4-to-1 stealing slack at 8
/// workers while keeping the worst case at 32 accumulators.
const MAX_REDUCE_BLOCKS: usize = 32;

/// Fixed tiling of `0..n` into `size`-item blocks (the last may be short).
/// Depends only on the arguments — never on the thread count — preserving
/// the Block invariants (contiguous, `index` = position) the determinism
/// contract rests on.
fn tile_with_size(n: usize, size: usize) -> Vec<Block> {
    let size = size.max(1);
    (0..n.div_ceil(size))
        .map(|b| Block {
            index: b,
            start: b * size,
            end: ((b + 1) * size).min(n),
        })
        .collect()
}

/// Fixed partition of `0..n` into at most `max_blocks` equal blocks (the
/// last may be short).
fn partition_with(n: usize, max_blocks: usize) -> Vec<Block> {
    tile_with_size(n, n.div_ceil(max_blocks))
}

/// One in-flight parallel region.
struct Region {
    /// The borrowed task, lifetime-erased to a raw pointer (not a `&'static`
    /// reference: workers may briefly hold the `Region` Arc after the
    /// submitting caller returns and the closure dies, and a dangling
    /// reference would be invalid even if never dereferenced). Only
    /// dereferenced while executing a popped block; the submitting caller
    /// does not return from [`ThreadPool::run_blocks`] until `pending` hits
    /// zero, so the pointee outlives every dereference.
    func: *const (dyn Fn(Block) + Sync),
    /// Per-participant block queues. Owner pops the front, thieves steal
    /// from the back.
    deques: Vec<Mutex<VecDeque<Block>>>,
    /// Blocks not yet finished executing.
    pending: AtomicUsize,
    /// Participants that have ever joined (caller claims slot 0 before the
    /// region is published). Monotonic; capped by `deques.len()`.
    joined: AtomicUsize,
    /// Set on the first task panic; later blocks are skipped (but still
    /// drained and counted) so the region winds down quickly.
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: every field but `func` is Send + Sync; `func` points at a `Sync`
// closure on the submitting caller's stack that outlives all dereferences
// (see the field docs).
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    fn new(blocks: Vec<Block>, slots: usize, func: *const (dyn Fn(Block) + Sync)) -> Self {
        let pending = blocks.len();
        let mut deques: Vec<VecDeque<Block>> = (0..slots).map(|_| VecDeque::new()).collect();
        for (i, b) in blocks.into_iter().enumerate() {
            deques[i % slots].push_back(b);
        }
        Region {
            func,
            deques: deques.into_iter().map(Mutex::new).collect(),
            pending: AtomicUsize::new(pending),
            joined: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    /// Does any deque still hold an unclaimed block?
    fn has_queued_work(&self) -> bool {
        self.deques.iter().any(|d| !d.lock().unwrap().is_empty())
    }

    /// Pop from our own deque, else steal from the others (scanning from our
    /// right-hand neighbor so thieves spread out).
    fn pop_or_steal(&self, slot: usize) -> Option<Block> {
        if let Some(b) = self.deques[slot].lock().unwrap().pop_front() {
            return Some(b);
        }
        let n = self.deques.len();
        for off in 1..n {
            let stolen = self.deques[(slot + off) % n].lock().unwrap().pop_back();
            if stolen.is_some() {
                POOL_STEALS.incr();
                return stolen;
            }
        }
        None
    }

    /// Run blocks until none can be claimed. Returns when the participant
    /// has nothing left to do (other participants may still be executing).
    fn participate(&self, slot: usize) {
        while let Some(block) = self.pop_or_steal(slot) {
            if !self.panicked.load(Ordering::Acquire) {
                let timer = knnshap_obs::metrics_enabled().then(std::time::Instant::now);
                // SAFETY: we hold an unexecuted block, so the submitting
                // caller is still inside `run_blocks` and the closure is
                // alive.
                let func = unsafe { &*self.func };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(block))) {
                    self.panicked.store(true, Ordering::Release);
                    let mut first = self.panic.lock().unwrap();
                    if first.is_none() {
                        *first = Some(payload);
                    }
                }
                if let Some(t) = timer {
                    POOL_BUSY_MICROS.add(t.elapsed().as_micros() as u64);
                }
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = self.done.lock().unwrap();
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }
}

/// State shared between the pool handle and its background workers.
struct Shared {
    /// Regions with (possibly) unclaimed blocks. The submitting caller
    /// pushes on entry and removes on completion.
    regions: Mutex<Vec<Arc<Region>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let claimed: (Arc<Region>, usize) = {
            let mut regions = shared.regions.lock().unwrap();
            'wait: loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                for r in regions.iter() {
                    if r.has_queued_work() {
                        let slot = r.joined.fetch_add(1, Ordering::AcqRel);
                        if slot < r.deques.len() {
                            break 'wait (Arc::clone(r), slot);
                        }
                        // Concurrency cap reached; leave it to the joined
                        // participants (the increment is harmless — `joined`
                        // is monotonic and only compared against the cap).
                    }
                }
                regions = shared.work_cv.wait(regions).unwrap();
            }
        };
        claimed.0.participate(claimed.1);
    }
}

/// A work-stealing pool of `threads` workers (including every caller that
/// submits work). See the [crate docs](crate) for the API contract.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

impl ThreadPool {
    /// A dedicated pool with `threads` total workers (`threads − 1`
    /// background threads; the caller is always the first worker). A pool of
    /// size ≤ 1 spawns nothing and runs everything serially inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            regions: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("knnshap-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            threads,
            workers,
        }
    }

    /// The process-wide pool. Built on first use; `KNNSHAP_THREADS` is read
    /// once.
    ///
    /// Sizing: when `KNNSHAP_THREADS` is set it pins the pool exactly (so
    /// `=1` forces fully serial execution no matter what individual calls
    /// request). Otherwise the pool holds `max(cores, 8)` workers — the
    /// *default* concurrency of every API is still [`crate::current_threads`]
    /// (= the core count), but an explicit per-call `threads` above the core
    /// count gets real threads, matching the old `thread::scope` behavior
    /// and keeping the cross-thread-count determinism suites meaningful on
    /// small machines. Idle workers park on a condvar and cost nothing.
    pub fn global() -> &'static ThreadPool {
        GLOBAL.get_or_init(|| ThreadPool::new(crate::global_pool_threads()))
    }

    /// Total worker count (background workers + the submitting caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `func` once per block. Serial (caller thread, block order)
    /// when the effective concurrency is 1; otherwise submits a region and
    /// helps until it completes. Panics from `func` propagate to the caller
    /// either way. `func` counts its own units of work in `pool.blocks`.
    fn run_blocks(&self, blocks: Vec<Block>, threads: usize, func: &(dyn Fn(Block) + Sync)) {
        if blocks.is_empty() {
            return;
        }
        let cap = threads.max(1).min(self.threads).min(blocks.len());
        if cap <= 1 || self.workers.is_empty() {
            let timer = knnshap_obs::metrics_enabled().then(std::time::Instant::now);
            for b in blocks {
                func(b);
            }
            if let Some(t) = timer {
                // Serial execution: one worker, fully busy.
                let us = t.elapsed().as_micros() as u64;
                POOL_BUSY_MICROS.add(us);
                POOL_CAPACITY_MICROS.add(us);
            }
            return;
        }
        POOL_REGIONS.incr();
        POOL_QUEUE_DEPTH.set(blocks.len() as f64);
        knnshap_obs::emit(
            knnshap_obs::Level::Debug,
            "pool",
            "region",
            &[("blocks", blocks.len().into()), ("workers", cap.into())],
        );
        let region_timer = knnshap_obs::metrics_enabled().then(std::time::Instant::now);
        // SAFETY: lifetime erasure of the borrowed closure. Every
        // dereference of the pointer is confined to this call — we help
        // until `pending == 0` and only then return, and participants never
        // touch it after their last block.
        let func = unsafe {
            std::mem::transmute::<*const (dyn Fn(Block) + Sync + '_), *const (dyn Fn(Block) + Sync)>(
                func,
            )
        };
        let region = Arc::new(Region::new(blocks, cap, func));
        let slot = region.joined.fetch_add(1, Ordering::AcqRel);
        debug_assert_eq!(slot, 0, "caller claims slot 0 before publication");
        {
            let mut regions = self.shared.regions.lock().unwrap();
            regions.push(Arc::clone(&region));
            // Wake only the helpers the region admits (the caller is the
            // first participant). A worker re-scans `regions` before it
            // waits, so a wake-up that lands on a busy worker loses no work.
            for _ in 1..cap {
                self.shared.work_cv.notify_one();
            }
        }
        region.participate(slot);
        let mut done = region.done.lock().unwrap();
        while !*done {
            done = region.done_cv.wait(done).unwrap();
        }
        drop(done);
        self.shared
            .regions
            .lock()
            .unwrap()
            .retain(|r| !Arc::ptr_eq(r, &region));
        if let Some(t) = region_timer {
            POOL_CAPACITY_MICROS.add((t.elapsed().as_micros() as u64).saturating_mul(cap as u64));
        }
        // Fold boundary: the region is fully reduced, so drain this thread's
        // event buffer (no-op when logging is off).
        knnshap_obs::flush();
        let payload = region.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Order-preserving parallel map: `(0..n).map(f)` with at most `threads`
    /// workers. Output `i` is exactly `f(i)` regardless of thread count.
    ///
    /// Implemented on [`ThreadPool::par_chunks`] over the output buffer with
    /// the standard 256-block granularity.
    pub fn par_map<U, F>(&self, n: usize, threads: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let mut slots: Vec<Option<U>> = Vec::new();
        slots.resize_with(n, || None);
        let chunk_size = n.div_ceil(MAX_BLOCKS).max(1);
        self.par_chunks(&mut slots, chunk_size, threads, |offset, chunk| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(f(offset + j));
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index computed"))
            .collect()
    }

    /// Parallel iteration over disjoint `chunk_size`-sized sub-slices of
    /// `items`; `f` receives the chunk's offset into `items` and the chunk.
    /// Chunk boundaries are caller-fixed, so results cannot depend on the
    /// thread count.
    pub fn par_chunks<T, F>(&self, items: &mut [T], chunk_size: usize, threads: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = items.len();
        let base = SendPtr(items.as_mut_ptr());
        let blocks = tile_with_size(n, chunk_size);
        self.run_blocks(blocks, threads, &|b: Block| {
            POOL_BLOCKS.incr();
            // SAFETY: blocks tile `0..n` disjointly, so each element is
            // visible to exactly one participant at a time.
            let sub = unsafe { std::slice::from_raw_parts_mut(base.at(b.start), b.end - b.start) };
            f(b.start, sub);
        });
    }

    /// Deterministic parallel fold: `0..n` is cut into a fixed partition (at
    /// most `MAX_REDUCE_BLOCKS` (= 32) blocks, a function of `n` alone), each
    /// block folds its items (in order) into a fresh `init()` accumulator
    /// via `step`, and the per-block accumulators are combined **in block
    /// order on the calling thread** via `reduce`. The reduction tree
    /// therefore depends only on `n` — never on `threads` or on scheduling —
    /// so floating-point results are bitwise-identical for every thread
    /// count, including 1.
    pub fn par_map_reduce<A, I, S, R>(
        &self,
        n: usize,
        threads: usize,
        init: I,
        step: S,
        reduce: R,
    ) -> A
    where
        A: Send,
        I: Fn() -> A + Sync,
        S: Fn(&mut A, usize) + Sync,
        R: Fn(&mut A, A),
    {
        self.par_indexed_map_reduce(n, threads, |_| init(), step, reduce)
    }

    /// [`ThreadPool::par_map_reduce`] whose `init` receives the block's index
    /// range, for accumulators that carry block-scoped scratch (a forked
    /// utility, a stream-offset table, a reusable permutation buffer). The
    /// partition and reduction order are exactly those of `par_map_reduce`,
    /// so the same bitwise-determinism contract holds — provided `init`
    /// derives state only from the given range (which is a function of `n`
    /// alone), never from the executing thread.
    pub fn par_indexed_map_reduce<A, I, S, R>(
        &self,
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
        let blocks = partition_with(n, MAX_REDUCE_BLOCKS);
        if blocks.is_empty() {
            return init(0..0);
        }
        let mut partials: Vec<Option<A>> = Vec::new();
        partials.resize_with(blocks.len(), || None);
        let out = SendPtr(partials.as_mut_ptr());
        self.run_blocks(blocks, threads, &|b: Block| {
            POOL_BLOCKS.incr();
            let mut acc = init(b.start..b.end);
            for i in b.start..b.end {
                step(&mut acc, i);
            }
            // SAFETY: one writer per block index; `partials` outlives the
            // region.
            unsafe { *out.at(b.index) = Some(acc) };
        });
        let mut parts = partials.into_iter().map(|p| p.expect("every block folded"));
        let mut total = parts.next().expect("at least one block");
        for p in parts {
            reduce(&mut total, p);
        }
        total
    }

    /// Dynamic claiming over `units` units of work: at most `threads`
    /// participants each call `participant` once, with a [`Claims`]
    /// iterator that hands out unit indices from one shared counter until
    /// all are taken. State a participant builds before draining its claims
    /// is therefore built once per worker, however many units there are.
    /// Each claimed unit counts as one pool block.
    ///
    /// Which participant runs which unit varies from run to run, so only
    /// results that are invariant under that assignment (exact sums, writes
    /// indexed by unit) may depend on it.
    pub fn par_claim<F>(&self, units: usize, threads: usize, participant: F)
    where
        F: Fn(&mut Claims<'_>) + Sync,
    {
        let cap = threads.max(1).min(self.threads).min(units);
        let next = AtomicUsize::new(0);
        self.run_blocks(tile_with_size(cap, 1), cap, &|_| {
            participant(&mut Claims {
                next: &next,
                units,
                solo: cap == 1,
            })
        });
    }

    /// Ordered commit over a sequence of units whose count need not be
    /// known up front. At most `threads` participants each build one state
    /// with `init`, then repeat three steps:
    ///
    /// 1. under one lock, `claim(seq, state)` loads the unit with the next
    ///    sequence number into the state, or returns `false` when no unit
    ///    is left;
    /// 2. `work(state)` processes it, in parallel with the others;
    /// 3. `commit(state)` consumes it once every earlier unit has been
    ///    committed, so commits run one at a time in sequence order. A
    ///    commit that returns `false` stops the run: no later unit is
    ///    claimed or committed.
    ///
    /// A participant claims its next unit only after committing its last,
    /// and units are claimed in sequence order, so the lowest uncommitted
    /// unit always belongs to a running participant: the run cannot
    /// deadlock. A panic in any step stops the run and propagates once
    /// every participant has returned. Each claimed unit counts as one pool
    /// block.
    pub fn par_ordered<S, I, C, W, K>(&self, threads: usize, init: I, claim: C, work: W, commit: K)
    where
        I: Fn() -> S + Sync,
        C: FnMut(usize, &mut S) -> bool + Send,
        W: Fn(&mut S) + Sync,
        K: FnMut(&mut S) -> bool + Send,
    {
        let cap = threads.max(1).min(self.threads);
        // The claim step and the next sequence number to hand out; the
        // commit step and the next sequence number to commit.
        let claim = Mutex::new((claim, 0usize));
        let turn = Mutex::new((commit, 0usize));
        let turned = Condvar::new();
        let stop = AtomicBool::new(false);
        self.run_blocks(tile_with_size(cap, 1), cap, &|_| {
            let _unwind = StopOnUnwind {
                stop: &stop,
                turn: &turn,
                turned: &turned,
            };
            let mut state = init();
            loop {
                // A poisoned lock means another participant panicked there.
                let seq = {
                    let Ok(mut c) = claim.lock() else { return };
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let seq = c.1;
                    if !(c.0)(seq, &mut state) {
                        return;
                    }
                    c.1 += 1;
                    seq
                };
                POOL_BLOCKS.incr();
                work(&mut state);
                let Ok(mut t) = turn.lock() else { return };
                while t.1 != seq && !stop.load(Ordering::SeqCst) {
                    let Ok(next) = turned.wait(t) else { return };
                    t = next;
                }
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let go = (t.0)(&mut state);
                t.1 += 1;
                if !go {
                    stop.store(true, Ordering::SeqCst);
                }
                turned.notify_all();
                if !go {
                    return;
                }
            }
        });
    }
}

/// Stops a [`ThreadPool::par_ordered`] run when its participant unwinds,
/// and wakes the participants waiting for their turn, so none waits for a
/// unit the panicking one will never commit.
struct StopOnUnwind<'a, T> {
    stop: &'a AtomicBool,
    turn: &'a Mutex<T>,
    turned: &'a Condvar,
}

impl<T> Drop for StopOnUnwind<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.stop.store(true, Ordering::SeqCst);
            // Taken (poisoned or not) so no waiter misses the wake-up
            // between checking `stop` and sleeping.
            let _turn = self.turn.lock();
            self.turned.notify_all();
        }
    }
}

/// One participant's view of a [`ThreadPool::par_claim`] region: iterating
/// claims the next unclaimed unit index.
pub struct Claims<'a> {
    next: &'a AtomicUsize,
    units: usize,
    solo: bool,
}

impl Claims<'_> {
    /// Is this participant the region's only one (it will claim every
    /// unit, on the submitting thread)?
    pub fn solo(&self) -> bool {
        self.solo
    }
}

impl Iterator for Claims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let unit = self.next.fetch_add(1, Ordering::Relaxed);
        (unit < self.units).then(|| {
            POOL_BLOCKS.incr();
            unit
        })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.regions.lock().unwrap();
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Raw-pointer wrapper asserting that the wrapped writes are disjoint across
/// participants (see the SAFETY comments at each use). Accessed only through
/// [`SendPtr::at`] so closures capture the `Sync` wrapper, not the bare
/// pointer (edition-2021 disjoint capture would otherwise grab the field).
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to element `i` of the wrapped buffer.
    ///
    /// # Safety
    /// `i` must be in bounds of the allocation the wrapper was built from,
    /// and the caller must be the only participant touching that element.
    unsafe fn at(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_tiles_the_range_exactly() {
        for max_blocks in [MAX_BLOCKS, MAX_REDUCE_BLOCKS] {
            for n in [0usize, 1, 2, 255, 256, 257, 1000, 100_000] {
                let blocks = partition_with(n, max_blocks);
                assert!(blocks.len() <= max_blocks);
                let mut next = 0usize;
                for (i, b) in blocks.iter().enumerate() {
                    assert_eq!(b.index, i);
                    assert_eq!(b.start, next);
                    assert!(b.end > b.start);
                    next = b.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn partition_is_thread_count_free() {
        // The partition takes no thread-count input at all; pin the shape so
        // a future "optimization" that sneaks one in breaks loudly.
        let blocks = partition_with(1000, MAX_BLOCKS);
        assert_eq!(blocks.len(), 250);
        assert!(blocks.iter().all(|b| b.end - b.start == 4));
    }

    #[test]
    fn pool_of_one_spawns_no_workers() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        let caller = std::thread::current().id();
        let ids = pool.par_map(64, 8, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.par_map(3, 0, |i| i * 2), vec![0, 2, 4]);
    }

    #[test]
    fn stealing_pool_uses_background_workers() {
        let pool = ThreadPool::new(4);
        // Every block sleeps, so a worker that gets any CPU time within the
        // ~100ms a serial drain would take will steal something. Scheduling
        // on a loaded one-core machine can still starve the workers for a
        // whole region, so allow a few attempts before declaring failure;
        // correctness (order preservation) is asserted on every attempt.
        let mut stolen = false;
        for _ in 0..5 {
            let ids = pool.par_map(64, 4, |i| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                (i, std::thread::current().id())
            });
            assert!(ids.iter().enumerate().all(|(i, &(j, _))| i == j));
            let distinct: std::collections::HashSet<_> = ids.iter().map(|&(_, id)| id).collect();
            if distinct.len() > 1 {
                stolen = true;
                break;
            }
        }
        assert!(stolen, "no work was stolen in any attempt");
    }

    #[test]
    fn telemetry_counts_work_without_changing_results() {
        let pool = ThreadPool::new(4);
        let off: Vec<u64> = pool
            .par_map(257, 4, |i| (i as f64).sqrt())
            .iter()
            .map(|v| v.to_bits())
            .collect();
        knnshap_obs::set_metrics(true);
        let before = knnshap_obs::snapshot().counter("pool.blocks").unwrap_or(0);
        let on: Vec<u64> = pool
            .par_map(257, 4, |i| (i as f64).sqrt())
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let after = knnshap_obs::snapshot().counter("pool.blocks").unwrap_or(0);
        knnshap_obs::set_metrics(false);
        assert!(after > before, "enabled run must count blocks");
        assert_eq!(off, on, "telemetry must not move a bit");
    }

    #[test]
    fn par_claim_hands_out_every_unit_once() {
        let pool = ThreadPool::new(4);
        for units in [0usize, 1, 3, 17, 100] {
            for threads in [1usize, 2, 3, 4, 8] {
                let seen: Vec<AtomicUsize> = (0..units).map(|_| AtomicUsize::new(0)).collect();
                let (participants, solos) = (AtomicUsize::new(0), AtomicUsize::new(0));
                pool.par_claim(units, threads, |claims| {
                    participants.fetch_add(1, Ordering::Relaxed);
                    if claims.solo() {
                        solos.fetch_add(1, Ordering::Relaxed);
                    }
                    for unit in claims {
                        seen[unit].fetch_add(1, Ordering::Relaxed);
                    }
                });
                let what = format!("{units} units at {threads} threads");
                assert!(
                    seen.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "{what}"
                );
                let cap = threads.min(4).min(units);
                assert_eq!(participants.into_inner(), cap, "{what}");
                assert_eq!(solos.into_inner(), usize::from(cap == 1), "{what}");
            }
        }
    }

    /// The units whose work has finished, in finishing order; a unit's
    /// work can wait for another's to finish, which forces the order in
    /// which units complete.
    #[derive(Default)]
    struct Finished {
        order: Mutex<Vec<usize>>,
        cv: Condvar,
    }

    impl Finished {
        fn finish(&self, seq: usize) {
            self.order.lock().unwrap().push(seq);
            self.cv.notify_all();
        }

        /// Wait until unit `seq` has finished its work. The bound only
        /// keeps a broken primitive from hanging the test.
        fn wait_for(&self, seq: usize) {
            let order = self.order.lock().unwrap();
            let (order, timeout) = self
                .cv
                .wait_timeout_while(order, std::time::Duration::from_secs(20), |o| {
                    !o.contains(&seq)
                })
                .unwrap();
            assert!(!timeout.timed_out(), "unit {seq} never finished: {order:?}");
        }
    }

    /// Run `par_ordered` over `units` units on `pool`. Before finishing
    /// its work, unit `seq` waits for the units `after(seq)` names; unit
    /// `stop_at`'s commit stops the run. Returns the committed units in
    /// commit order, the units in work-finishing order, and the number of
    /// claims.
    fn ordered(
        pool: &ThreadPool,
        units: usize,
        threads: usize,
        after: impl Fn(usize) -> Option<usize> + Sync,
        stop_at: Option<usize>,
    ) -> (Vec<usize>, Vec<usize>, usize) {
        let finished = Finished::default();
        let (mut committed, mut claimed) = (Vec::new(), 0);
        pool.par_ordered(
            threads,
            || None,
            |seq, unit: &mut Option<usize>| {
                claimed += 1;
                *unit = (seq < units).then_some(seq);
                unit.is_some()
            },
            |unit| {
                let seq = unit.expect("claimed");
                if let Some(other) = after(seq) {
                    finished.wait_for(other);
                }
                finished.finish(seq);
            },
            |unit| {
                let seq = unit.take().expect("claimed");
                committed.push(seq);
                Some(seq) != stop_at
            },
        );
        (committed, finished.order.into_inner().unwrap(), claimed)
    }

    #[test]
    fn par_ordered_commits_in_sequence_order_whatever_finishes_first() {
        let pool = ThreadPool::new(4);
        for threads in [1usize, 2, 3, 4, 8] {
            // With two or more participants, every even unit finishes its
            // work only after the next unit has finished its own.
            let after = |seq: usize| {
                (threads > 1 && seq.is_multiple_of(2) && seq + 1 < 13).then(|| seq + 1)
            };
            let (committed, finished, claimed) = ordered(&pool, 13, threads, after, None);
            assert_eq!(committed, (0..13).collect::<Vec<_>>(), "threads {threads}");
            if threads > 1 {
                assert_ne!(
                    finished, committed,
                    "threads {threads}: no unit finished early"
                );
            }
            // Each participant's last claim finds no unit.
            let cap = threads.min(4);
            assert_eq!(claimed, 13 + cap, "threads {threads}");
        }
    }

    #[test]
    fn par_ordered_more_threads_than_units_and_no_units() {
        let pool = ThreadPool::new(4);
        for threads in [1usize, 3, 8] {
            for units in [0usize, 1, 2] {
                let (committed, _, _) = ordered(&pool, units, threads, |_| None, None);
                assert_eq!(
                    committed,
                    (0..units).collect::<Vec<_>>(),
                    "{units} units at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn par_ordered_commit_can_stop_the_run() {
        let pool = ThreadPool::new(4);
        for threads in [1usize, 2, 4] {
            // Unit 5 finishes after unit 6, so unit 6 is done and waiting
            // for its turn when unit 5's commit stops the run.
            let after = |seq: usize| (threads > 1 && seq == 5).then_some(6);
            let (committed, _, claimed) = ordered(&pool, 40, threads, after, Some(5));
            assert_eq!(committed, (0..=5).collect::<Vec<_>>(), "threads {threads}");
            // Each participant holds at most one uncommitted unit.
            assert!(
                claimed <= 6 + threads,
                "threads {threads}: {claimed} claims"
            );
        }
    }

    #[test]
    fn par_ordered_panics_propagate_without_a_hang() {
        let pool = Arc::new(ThreadPool::new(4));
        for (threads, step) in [1usize, 2, 4, 8]
            .into_iter()
            .flat_map(|t| ["claim", "work", "commit"].map(|s| (t, s)))
        {
            let (tx, rx) = std::sync::mpsc::channel();
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let finished = Finished::default();
                // Unit 3 fails only once unit 4 is done and waiting for its
                // turn behind it.
                let fail = |at: &str, seq: usize| {
                    if at == step && seq == 3 {
                        if threads > 1 && step != "claim" {
                            finished.wait_for(4);
                        }
                        panic!("unit 3 fails in {step}");
                    }
                };
                let run = catch_unwind(AssertUnwindSafe(|| {
                    pool.par_ordered(
                        threads,
                        || 0,
                        |seq, unit| {
                            fail("claim", seq);
                            *unit = seq;
                            seq < 50
                        },
                        |&mut seq| {
                            fail("work", seq);
                            finished.finish(seq);
                        },
                        |&mut seq| {
                            fail("commit", seq);
                            true
                        },
                    )
                }));
                tx.send(run.is_err()).ok();
            });
            let panicked = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{step} panic at {threads} threads hung the run"));
            assert!(panicked, "{step} panic at {threads} threads was swallowed");
        }
        // The pool stays usable afterwards.
        assert_eq!(ordered(&pool, 3, 4, |_| None, None).0, vec![0, 1, 2]);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(3);
        let _ = pool.par_map(10, 3, |i| i);
        drop(pool); // must not hang
    }
}
