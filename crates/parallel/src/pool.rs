//! The thread pool.
//!
//! A [`ThreadPool`] owns `threads − 1` background workers; the thread that
//! submits a parallel region always participates as the region's first
//! worker, so a pool of size 1 spawns no threads at all and every operation
//! degrades to a plain serial loop on the caller.
//!
//! A *region* is one `par_claim` / `par_chunks` / `par_map` / `par_ordered`
//! call. It has at most `min(threads, pool, units)` participant slots, and
//! each slot runs the region's participant closure once. Participants
//! drain work from one place they share: the claim counter of
//! [`ThreadPool::par_claim`] (which `par_chunks` and `par_map` are built
//! on), or the sequence lock of [`ThreadPool::par_ordered`]. Background
//! workers take slots while the region is listed; the submitting caller
//! takes slot 0 and then every slot no worker has taken, so it only ever
//! waits for participants that are already running. Waiting is helping,
//! which is what makes nested regions deadlock-free: a worker that starts
//! a nested region drains it itself if nobody helps.
//!
//! Panics inside a participant are caught; the first payload is stashed
//! and re-thrown on the submitting thread once the region completes, so a
//! panicking `par_map` behaves like a panicking serial loop (and the pool
//! stays usable afterwards). After a panic no slot starts and no unit is
//! claimed.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

// Telemetry instruments (no-ops unless `KNNSHAP_METRICS`/`KNNSHAP_LOG`
// enable them — `knnshap_obs` is write-only from here, so the counters can
// observe scheduling without being able to influence it). Utilization is
// derived downstream as `pool.busy_micros / pool.capacity_micros`:
// capacity accrues `workers × wall` per region, busy accrues actual
// participant time.
static POOL_BLOCKS: knnshap_obs::Counter = knnshap_obs::Counter::new("pool.blocks");
static POOL_REGIONS: knnshap_obs::Counter = knnshap_obs::Counter::new("pool.regions");
static POOL_BUSY_MICROS: knnshap_obs::Counter = knnshap_obs::Counter::new("pool.busy_micros");
static POOL_CAPACITY_MICROS: knnshap_obs::Counter =
    knnshap_obs::Counter::new("pool.capacity_micros");
static POOL_QUEUE_DEPTH: knnshap_obs::Gauge = knnshap_obs::Gauge::new("pool.queue_depth");

/// Chunks per [`ThreadPool::par_map`] region: enough claim units to balance
/// very skewed per-item costs, few enough that per-chunk overhead is
/// invisible next to any real valuation workload.
const MAP_CHUNKS: usize = 256;

/// One in-flight parallel region.
struct Region {
    /// The participant, lifetime-erased to a raw pointer (not a `&'static`
    /// reference: workers may briefly hold the `Region` Arc after the
    /// submitting caller returns and the closure dies, and a dangling
    /// reference would be invalid even if never dereferenced). Only
    /// dereferenced by the submitter or by a worker counted in `running`;
    /// the submitter does not return from [`ThreadPool::run_region`] until
    /// it has unlisted the region and `running` is zero, so the pointee
    /// outlives every dereference.
    func: *const (dyn Fn() + Sync),
    /// Participant slots: `func` runs at most this many times.
    cap: usize,
    /// Slots taken (the submitter takes slot 0 before publication).
    /// Monotonic; only compared against `cap`.
    joined: AtomicUsize,
    /// Workers inside `func`. A worker is counted when it takes its slot,
    /// under the `regions` lock, so one that joined before the submitter
    /// unlisted the region is always waited for.
    running: Mutex<usize>,
    left: Condvar,
    /// The first participant panic.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// Neither lock is held across a call that can panic, so neither is ever
// poisoned.
const PANIC_SLOT: &str = "region panic slot poisoned";
const RUNNING: &str = "region running count poisoned";

// SAFETY: every field but `func` is Send + Sync; `func` points at a `Sync`
// closure on the submitting caller's stack that outlives all dereferences
// (see the field docs).
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// Take a free participant slot, unless a participant has panicked.
    fn take_slot(&self) -> bool {
        self.panic.lock().expect(PANIC_SLOT).is_none()
            && self.joined.fetch_add(1, Ordering::AcqRel) < self.cap
    }

    /// Run the participant once in a slot the caller has taken, catching
    /// its panic.
    fn participate(&self) {
        let timer = knnshap_obs::metrics_enabled().then(std::time::Instant::now);
        // SAFETY: the caller holds a slot, so it is the submitter or a
        // worker counted in `running`, and the closure is alive.
        let func = unsafe { &*self.func };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(func)) {
            self.panic.lock().expect(PANIC_SLOT).get_or_insert(payload);
        }
        if let Some(t) = timer {
            POOL_BUSY_MICROS.add(t.elapsed().as_micros() as u64);
        }
    }
}

/// State shared between the pool handle and its background workers.
struct Shared {
    /// Regions with (possibly) free slots. The submitting caller pushes on
    /// entry and removes once it has run every slot it could take.
    regions: Mutex<Vec<Arc<Region>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let region = {
            let mut regions = shared.regions.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(r) = regions.iter().find(|r| r.take_slot()) {
                    *r.running.lock().expect(RUNNING) += 1;
                    break Arc::clone(r);
                }
                regions = shared.work_cv.wait(regions).unwrap();
            }
        };
        region.participate();
        let mut running = region.running.lock().expect(RUNNING);
        *running -= 1;
        if *running == 0 {
            region.left.notify_all();
        }
    }
}

/// A pool of `threads` workers (including every caller that submits work).
/// See the [crate docs](crate) for the API contract.
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

    /// Run `func` once in each of `cap` participant slots: inline on the
    /// caller when `cap` is 1; otherwise in a region whose slots background
    /// workers may take, with the caller running slot 0 and every slot no
    /// worker took. Returns once every participant has. `units` is the
    /// region's queue depth. Panics from `func` propagate to the caller
    /// either way.
    fn run_region(&self, units: usize, cap: usize, func: &(dyn Fn() + Sync)) {
        if cap == 0 {
            return;
        }
        if cap == 1 {
            let timer = knnshap_obs::metrics_enabled().then(std::time::Instant::now);
            func();
            if let Some(t) = timer {
                // Serial execution: one worker, fully busy.
                let us = t.elapsed().as_micros() as u64;
                POOL_BUSY_MICROS.add(us);
                POOL_CAPACITY_MICROS.add(us);
            }
            return;
        }
        POOL_REGIONS.incr();
        POOL_QUEUE_DEPTH.set(units as f64);
        knnshap_obs::emit(
            knnshap_obs::Level::Debug,
            "pool",
            "region",
            &[("blocks", units.into()), ("workers", cap.into())],
        );
        let region_timer = knnshap_obs::metrics_enabled().then(std::time::Instant::now);
        // SAFETY: lifetime erasure of the borrowed closure. Every
        // dereference of the pointer is confined to this call — we unlist
        // the region and wait until `running == 0` before returning, and no
        // worker takes a slot once the region is unlisted.
        let func = unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync)>(func)
        };
        let region = Arc::new(Region {
            func,
            cap,
            joined: AtomicUsize::new(1),
            running: Mutex::new(0),
            left: Condvar::new(),
            panic: Mutex::new(None),
        });
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
        region.participate();
        while region.take_slot() {
            region.participate();
        }
        self.shared
            .regions
            .lock()
            .unwrap()
            .retain(|r| !Arc::ptr_eq(r, &region));
        let mut running = region.running.lock().expect(RUNNING);
        while *running > 0 {
            running = region.left.wait(running).expect(RUNNING);
        }
        drop(running);
        if let Some(t) = region_timer {
            POOL_CAPACITY_MICROS.add((t.elapsed().as_micros() as u64).saturating_mul(cap as u64));
        }
        // Fold boundary: the region is fully reduced, so drain this thread's
        // event buffer (no-op when logging is off).
        knnshap_obs::flush();
        let payload = region.panic.lock().expect(PANIC_SLOT).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Order-preserving parallel map: `(0..n).map(f)` with at most `threads`
    /// workers. Output `i` is exactly `f(i)` regardless of thread count.
    ///
    /// Implemented on [`ThreadPool::par_chunks`] over the output buffer in
    /// at most `MAP_CHUNKS` (= 256) chunks.
    pub fn par_map<U, F>(&self, n: usize, threads: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let mut slots: Vec<Option<U>> = Vec::new();
        slots.resize_with(n, || None);
        let chunk_size = n.div_ceil(MAP_CHUNKS).max(1);
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
    /// A [`ThreadPool::par_claim`] over the chunk indices: chunk boundaries
    /// are caller-fixed, so results cannot depend on the thread count.
    pub fn par_chunks<T, F>(&self, items: &mut [T], chunk_size: usize, threads: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let (n, size) = (items.len(), chunk_size.max(1));
        let base = SendPtr(items.as_mut_ptr());
        self.par_claim(n.div_ceil(size), threads, |claims| {
            for chunk in claims {
                let start = chunk * size;
                // SAFETY: each chunk index is claimed once and the chunks
                // tile `0..n` disjointly, so each element is visible to
                // exactly one participant.
                let sub =
                    unsafe { std::slice::from_raw_parts_mut(base.at(start), size.min(n - start)) };
                f(start, sub);
            }
        });
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
        self.run_region(units, cap, &|| {
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
        self.run_region(cap, cap, &|| {
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

/// A participant that unwinds drains the counter, so no unit is claimed
/// after a panic.
impl Drop for Claims<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.next.fetch_max(self.units, Ordering::Relaxed);
        }
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
/// participants (see the SAFETY comment at the use). Accessed only through
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
        // Every chunk sleeps, so a worker that gets any CPU time within the
        // ~100ms a serial drain would take will claim something. Scheduling
        // on a loaded one-core machine can still starve the workers for a
        // whole region, so allow a few attempts before declaring failure;
        // correctness (order preservation) is asserted on every attempt.
        let mut helped = false;
        for _ in 0..5 {
            let ids = pool.par_map(64, 4, |i| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                (i, std::thread::current().id())
            });
            assert!(ids.iter().enumerate().all(|(i, &(j, _))| i == j));
            let distinct: std::collections::HashSet<_> = ids.iter().map(|&(_, id)| id).collect();
            if distinct.len() > 1 {
                helped = true;
                break;
            }
        }
        assert!(helped, "no worker claimed a chunk in any attempt");
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
