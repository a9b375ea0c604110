//! `pool.blocks` counts exactly one per claimed unit, chunk or ordered
//! unit — the figure perfbench's self-test compares with the fold-block
//! count of its rebuild. The counter is process-global, so this lives in
//! its own test binary with one test: no other region can move it between
//! the two reads.

use knnshap_parallel::ThreadPool;

fn blocks() -> u64 {
    knnshap_obs::snapshot().counter("pool.blocks").unwrap_or(0)
}

/// The `pool.blocks` delta `region` leaves behind.
fn delta(region: impl FnOnce()) -> u64 {
    let before = blocks();
    region();
    blocks() - before
}

#[test]
fn pool_blocks_counts_one_per_chunk_unit_and_ordered_unit() {
    knnshap_obs::set_metrics(true);
    let pool = ThreadPool::new(4);
    for threads in [1usize, 2, 4, 8] {
        let mut items = vec![0u32; 103];
        let chunks = delta(|| pool.par_chunks(&mut items, 10, threads, |_, _| {}));
        assert_eq!(chunks, 11, "par_chunks at {threads} threads");

        let units = delta(|| pool.par_claim(37, threads, |claims| claims.for_each(drop)));
        assert_eq!(units, 37, "par_claim at {threads} threads");

        // Every participant's last claim finds no unit; only the 13 claimed
        // units count.
        let ordered =
            delta(|| pool.par_ordered(threads, || (), |seq, _| seq < 13, |_| {}, |_| true));
        assert_eq!(ordered, 13, "par_ordered at {threads} threads");
    }
    knnshap_obs::set_metrics(false);
}
