//! Shard-scaling bench for the sharded valuation runtime (ISSUE 4): ONE
//! improved-MC job (fixed permutation budget) split into 1/2/4/8 shards.
//! Each shard runs serially (modeling one process per shard), every partial
//! round-trips through the wire format, and the merge is timed separately —
//! so the numbers expose both the per-shard compute and the merge overhead
//! an operator pays for distribution.
//!
//! Every configuration first asserts the determinism contract: the merged
//! Shapley vector must be bitwise-identical to the unsharded run. Results
//! (per-shard wall-clock, merge time, shard-file bytes) go to
//! `BENCH_shard.json` at the workspace root so CI can archive them (see
//! `docs/benchmarks.md` for artifact caveats).
//!
//! Knobs: `KNNSHAP_BENCH_N` (training points, default 2000),
//! `KNNSHAP_BENCH_PERMS` (permutation budget, default 256).

use knnshap_core::estimator::{Data, Estimator, Family};
use knnshap_core::sharding::{merge_partials, ShardPartial, ShardSpec};
use knnshap_datasets::synth::deepfeat::EmbeddingSpec;
use knnshap_knn::weights::WeightFn;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    knnshap_bench::telemetry::enable();
    let n = env_usize("KNNSHAP_BENCH_N", 2_000);
    let perms = env_usize("KNNSHAP_BENCH_PERMS", 256);
    let k = 5usize;
    let seed = 1u64;
    let spec = EmbeddingSpec::mnist_like(n);
    let train = spec.generate();
    let test = spec.queries(4);
    let family = Family::McImproved { perms, seed };
    let est = Estimator::new(
        Data::class(&train, &test),
        k,
        WeightFn::Uniform,
        family,
        None,
    )
    .expect("valid job");
    // Warm-up, untimed: an empty shard (`count` > `perms`) builds the
    // distance matrix and computes nothing, so no timed region below pays
    // for the build.
    est.compute(ShardSpec::new(0, perms + 1), 1);

    // Unsharded reference (single process, serial).
    let start = Instant::now();
    let reference = est.run(1).values.into_vec();
    let unsharded_secs = start.elapsed().as_secs_f64();

    println!(
        "== shard scaling: mc_shapley_improved, {perms} permutations, N = {n}, K = {k} \
         (unsharded serial: {unsharded_secs:.3} s) =="
    );
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let probe = knnshap_bench::telemetry::Probe::start();
        // Compute each shard serially, through the wire format — what a
        // fleet of single-core workers would do, minus the network.
        let mut shard_secs = Vec::new();
        let mut total_bytes = 0usize;
        let mut parts = Vec::new();
        for i in 0..shards {
            let t0 = Instant::now();
            let p = est.compute(ShardSpec::new(i, shards), 1);
            let bytes = p.to_bytes();
            shard_secs.push(t0.elapsed().as_secs_f64());
            total_bytes += bytes.len();
            parts.push(ShardPartial::from_bytes(&bytes).expect("round trip"));
        }
        let t0 = Instant::now();
        let merged = merge_partials(&parts).expect("merge");
        let merge_secs = t0.elapsed().as_secs_f64();

        // The determinism contract, checked on the real workload: the shard
        // count must not move a single mantissa bit.
        for (i, (a, b)) in reference.iter().zip(merged.values.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "shards={shards} changed value {i}: {a:?} vs {b:?}"
            );
        }

        let max_shard = shard_secs.iter().cloned().fold(0.0f64, f64::max);
        let sum_shards: f64 = shard_secs.iter().sum();
        // Ideal-fleet wall clock: slowest shard plus the merge.
        let wall = max_shard + merge_secs;
        let speedup = unsharded_secs / wall;
        println!(
            "shards = {shards}: slowest shard {max_shard:.3} s, merge {merge_secs:.4} s, \
             fleet wall {wall:.3} s (x{speedup:.2} vs unsharded), \
             {total_bytes} shard-file bytes"
        );
        rows.push(format!(
            "    {{ \"shards\": {shards}, \"slowest_shard_seconds\": {max_shard:.6}, \
             \"sum_shard_seconds\": {sum_shards:.6}, \"merge_seconds\": {merge_secs:.6}, \
             \"fleet_wall_seconds\": {wall:.6}, \"speedup_vs_unsharded\": {speedup:.3}, \
             \"shard_file_bytes\": {total_bytes}{} }}",
            probe.finish().json_fields(sum_shards + merge_secs)
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"shard_scaling_improved\",\n  \"host\": {},\n  \
         \"n_train\": {n},\n  \"n_test\": 4,\n  \"k\": {k},\n  \"perms\": {perms},\n  \
         \"unsharded_seconds\": {unsharded_secs:.6},\n  \"results\": [\n{}\n  ]\n}}\n",
        knnshap_bench::util::host_json(),
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(out, &json).expect("write BENCH_shard.json");
    println!("wrote {out}");
}
