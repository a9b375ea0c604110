//! `KNNSHAP_THREADS=1` must degrade the global pool to fully serial
//! execution. This lives in its own integration-test binary (= its own
//! process) so the env var is set before anything touches
//! `ThreadPool::global()`, which reads it exactly once.

use knnshap_parallel::{current_threads, par_claim, par_map, ThreadPool};

#[test]
fn env_var_forces_global_pool_serial() {
    std::env::set_var("KNNSHAP_THREADS", "1");

    assert_eq!(current_threads(), 1);
    assert_eq!(ThreadPool::global().threads(), 1);

    // Every closure runs on the calling thread, whatever cap the call asks for.
    let caller = std::thread::current().id();
    let ids = par_map(512, 8, |_| std::thread::current().id());
    assert!(ids.into_iter().all(|id| id == caller));

    // And a claim region has one participant, on the caller, that claims
    // every unit in order.
    let claimed = std::sync::Mutex::new(Vec::new());
    par_claim(777, 8, |claims| {
        assert!(claims.solo());
        assert_eq!(std::thread::current().id(), caller);
        claimed.lock().unwrap().extend(claims);
    });
    assert_eq!(claimed.into_inner().unwrap(), (0..777).collect::<Vec<_>>());
}
