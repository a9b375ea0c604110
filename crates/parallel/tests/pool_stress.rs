//! Stress and edge-case battery for the thread pool: empty input, one
//! item, items ≫ workers, panic propagation (and no unit claimed after a
//! panic), nested regions, skewed costs and concurrent submitters.

use knnshap_parallel::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

#[test]
fn empty_input_on_every_entry_point() {
    let pool = ThreadPool::new(4);
    assert_eq!(pool.par_map(0, 4, |i| i), Vec::<usize>::new());
    pool.par_claim(0, 4, |_| panic!("no participant for no units"));
    let mut nothing: [u8; 0] = [];
    pool.par_chunks(&mut nothing, 3, 4, |_, _| panic!("no chunks"));
}

#[test]
fn one_item() {
    let pool = ThreadPool::new(8);
    assert_eq!(pool.par_map(1, 8, |i| i + 1), vec![1]);
    let (participants, sum) = (AtomicUsize::new(0), AtomicU64::new(0));
    pool.par_claim(1, 8, |claims| {
        participants.fetch_add(1, Ordering::Relaxed);
        assert!(claims.solo(), "one unit admits one participant");
        for i in claims {
            sum.fetch_add(i as u64 + 10, Ordering::Relaxed);
        }
    });
    assert_eq!(participants.into_inner(), 1);
    assert_eq!(sum.into_inner(), 10);
}

#[test]
fn many_items_few_workers() {
    // Items ≫ workers ≫ blocks-per-worker: everything must still be mapped
    // exactly once and land in its own slot.
    let pool = ThreadPool::new(3);
    let n = 100_000usize;
    let calls = AtomicUsize::new(0);
    let out = pool.par_map(n, 3, |i| {
        calls.fetch_add(1, Ordering::Relaxed);
        i as u64 * 2
    });
    assert_eq!(calls.load(Ordering::Relaxed), n);
    assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
}

#[test]
fn panic_in_task_propagates_and_pool_survives() {
    let pool = ThreadPool::new(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.par_map(1024, 4, |i| {
            if i == 517 {
                panic!("boom at {i}");
            }
            i
        })
    }));
    let payload = result.expect_err("panic must reach the submitting thread");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("boom at 517"), "unexpected payload: {msg}");

    // The pool must stay fully usable after a panicked region.
    assert_eq!(pool.par_map(5, 4, |i| i * i), vec![0, 1, 4, 9, 16]);
}

#[test]
fn panic_in_reduce_region_propagates() {
    let pool = ThreadPool::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.par_claim(600, 2, |claims| {
            for i in claims {
                if i == 300 {
                    panic!("unit panic");
                }
            }
        })
    }));
    assert!(result.is_err());
}

#[test]
fn nested_par_map_does_not_deadlock() {
    // Every outer item runs a nested region on the same pool; waiting is
    // implemented as helping, so this must complete even though the outer
    // region already occupies every worker.
    let pool = ThreadPool::new(4);
    let table = pool.par_map(16, 4, |i| pool.par_map(16, 4, move |j| i * j));
    for (i, row) in table.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            assert_eq!(v, i * j);
        }
    }
}

#[test]
fn doubly_nested_regions() {
    let pool = ThreadPool::new(2);
    let sums = pool.par_map(4, 2, |i| {
        let sum = AtomicUsize::new(0);
        pool.par_claim(64, 2, |claims| {
            for j in claims {
                sum.fetch_add(i + j, Ordering::Relaxed);
            }
        });
        sum.into_inner()
    });
    for (i, &s) in sums.iter().enumerate() {
        assert_eq!(s, 64 * i + (0..64).sum::<usize>());
    }
}

#[test]
fn single_thread_pool_degrades_to_serial() {
    // `ThreadPool::new(1)` is the `KNNSHAP_THREADS=1` configuration of the
    // global pool (see tests/env_serial.rs for the env-var half): no worker
    // threads, every closure runs on the caller.
    let pool = ThreadPool::new(1);
    let caller = std::thread::current().id();
    let ids = pool.par_map(256, 8, |_| std::thread::current().id());
    assert!(ids.into_iter().all(|id| id == caller));
}

#[test]
fn skewed_workloads_balance_and_stay_ordered() {
    // Cost ∝ item index: the tail chunks are far heavier than the head —
    // the static-chunking worst case that claiming from one counter
    // balances.
    let pool = ThreadPool::new(4);
    let n = 4_000usize;
    let out = pool.par_map(n, 4, |i| {
        let mut acc = 0u64;
        for j in 0..(i % 97) * 50 {
            acc = acc.wrapping_add((j as u64).wrapping_mul(2654435761));
        }
        (i, acc)
    });
    assert!(out.iter().enumerate().all(|(i, &(j, _))| i == j));
}

#[test]
fn concurrent_submitters_share_the_pool() {
    // Two OS threads submitting regions to one pool at once: regions must
    // not cross wires.
    let pool = ThreadPool::new(4);
    std::thread::scope(|scope| {
        let pool = &pool;
        let a = scope.spawn(move || pool.par_map(2_000, 4, |i| i as u64 + 1));
        let b = scope.spawn(move || pool.par_map(2_000, 4, |i| i as u64 * 3));
        let a = a.join().unwrap();
        let b = b.join().unwrap();
        assert!(a.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
        assert!(b.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    });
}

#[test]
fn panic_at_unit_three_runs_no_later_unit() {
    // At one thread the region's one participant claims units in order, so
    // the units that ran are exactly those up to the panicking one.
    for pool_threads in [1usize, 4] {
        let pool = ThreadPool::new(pool_threads);
        let ran = Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_claim(10, 1, |claims| {
                for unit in claims {
                    ran.lock().unwrap().push(unit);
                    if unit == 3 {
                        panic!("unit 3");
                    }
                }
            })
        }));
        assert!(result.is_err(), "pool of {pool_threads}: panic swallowed");
        assert_eq!(
            *ran.lock().unwrap(),
            vec![0, 1, 2, 3],
            "pool of {pool_threads}"
        );

        let mut items = vec![0u8; 10];
        let ran = Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_chunks(&mut items, 1, 1, |offset, _| {
                ran.lock().unwrap().push(offset);
                if offset == 3 {
                    panic!("chunk 3");
                }
            })
        }));
        assert!(result.is_err(), "pool of {pool_threads}: panic swallowed");
        assert_eq!(
            *ran.lock().unwrap(),
            vec![0, 1, 2, 3],
            "pool of {pool_threads}"
        );
    }
}
