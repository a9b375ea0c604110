//! Graph-artifact bench, two layers:
//!
//! 1. **Kernel**: the query-lane distance kernel
//!    (`knnshap_knn::block::QueryTile`, one train row against
//!    `QUERY_TILE` queries held in SIMD lanes) against its oracle, the
//!    per-pair `squared_l2` loop, on the full train × test pass — the pass
//!    `build-graph` runs once and every `--graph` consumer then skips.
//! 2. **End to end**: brute-force `knn_class_shapley_with_threads` (distance
//!    pass + argsort + recursion) against `KnnGraph::build` once plus a
//!    graph-backed `Estimator::run` per valuation — the amortization story:
//!    one artifact, many graph-backed runs paying only the recursion.
//!
//! Both layers assert the bitwise contract on the real workload before any
//! number is reported: kernel distances must equal per-pair distances bit
//! for bit, and the graph-backed Shapley vector must equal the brute-force
//! one. Results go to `BENCH_graph.json` at the workspace root, with a
//! `host` block (nproc, CPU model, commit) naming the machine measured.
//!
//! Knobs: `KNNSHAP_BENCH_N` (training points, default 1 000 000 — the
//! paper's N = 10⁶ regime), `KNNSHAP_BENCH_QUERIES` (test points, default
//! 8), `KNNSHAP_BENCH_THREADS` (valuation threads, default 1). The kernel
//! layer always runs on one thread, so its ratio is the lanes, not
//! parallelism.

use knnshap_core::estimator::{Data, Estimator, Family};
use knnshap_core::exact_unweighted::knn_class_shapley_with_threads;
use knnshap_datasets::synth::deepfeat::EmbeddingSpec;
use knnshap_knn::block::{QueryTile, QUERY_TILE};
use knnshap_knn::distance::squared_l2;
use knnshap_knn::graph::KnnGraph;
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
    let probe = knnshap_bench::telemetry::Probe::start();
    let n = env_usize("KNNSHAP_BENCH_N", 1_000_000);
    let n_test = env_usize("KNNSHAP_BENCH_QUERIES", 8);
    let threads = env_usize("KNNSHAP_BENCH_THREADS", 1);
    let k = 5usize;
    let spec = EmbeddingSpec::mnist_like(n);
    let train = spec.generate();
    let test = spec.queries(n_test);
    let dim = train.dim();
    println!(
        "== graph bench: N = {n}, {n_test} queries, dim {dim}, K = {k}, threads = {threads} =="
    );

    // -- Layer 1: the distance kernel ------------------------------------
    // Both sides write every distance into one pre-faulted q × N buffer and
    // report the fastest of three passes, so the ratio is the arithmetic
    // alone: no page faults, no allocator, no ranking.
    let n_pairs = n * n_test;
    let fastest = |out: &mut [f32], pass: &dyn Fn(&mut [f32])| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                pass(out);
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let mut oracle = vec![f32::NAN; n_pairs];
    let per_pair_secs = fastest(&mut oracle, &|out| {
        for (q, row) in test.x.rows().zip(out.chunks_exact_mut(n.max(1))) {
            for (slot, t) in row.iter_mut().zip(train.x.rows()) {
                *slot = squared_l2(q, t);
            }
        }
    });
    let mut lanes = vec![f32::NAN; n_pairs];
    let lane_secs = fastest(&mut lanes, &|out| {
        for (tile, rows) in out.chunks_mut(QUERY_TILE * n.max(1)).enumerate() {
            let lo = tile * QUERY_TILE;
            QueryTile::new(&test.x, lo..(lo + QUERY_TILE).min(n_test)).distances(&train.x, rows);
        }
    });
    for (i, (x, y)) in oracle.iter().zip(&lanes).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "lanes changed distance ({}, {}): {x:?} vs {y:?}",
            i / n,
            i % n
        );
    }
    let kernel_speedup = per_pair_secs / lane_secs;
    println!(
        "kernel: per-pair {per_pair_secs:.3} s, query-lane ({QUERY_TILE} lanes) \
         {lane_secs:.3} s (x{kernel_speedup:.2}), bitwise-identical"
    );
    drop(oracle);
    drop(lanes);

    // -- Layer 2: end-to-end valuation ------------------------------------
    let t0 = Instant::now();
    let reference = knn_class_shapley_with_threads(&train, &test, k, threads);
    let brute_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let graph = KnnGraph::build(&train.x, &test.x, threads);
    let build_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let data = Data::class(&train, &test);
    let backed = Estimator::new(data, k, WeightFn::Uniform, Family::Exact, Some(&graph))
        .expect("graph matches")
        .run(threads)
        .values;
    let graph_secs = t0.elapsed().as_secs_f64();

    for (i, (a, b)) in reference
        .as_slice()
        .iter()
        .zip(backed.as_slice())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "graph path changed value {i}: {a:?} vs {b:?}"
        );
    }
    let e2e_speedup = brute_secs / graph_secs;
    // Runs of the same artifact needed before build + graph runs beat
    // brute-force runs (1 if the first graph run is already ahead).
    let breakeven = if brute_secs > graph_secs {
        (build_secs / (brute_secs - graph_secs)).ceil().max(1.0)
    } else {
        f64::INFINITY
    };
    println!(
        "end to end: brute force {brute_secs:.3} s, build {build_secs:.3} s + \
         graph-backed {graph_secs:.3} s per run (x{e2e_speedup:.2} per run, \
         break-even at {breakeven} runs), bitwise-identical"
    );

    let json = format!(
        "{{\n  \"bench\": \"graph_artifact\",\n  \"host\": {},\n  \"n_train\": {n},\n  \
         \"n_test\": {n_test},\n  \"dim\": {dim},\n  \"k\": {k},\n  \
         \"threads\": {threads},\n  \"kernel\": {{\n    \
         \"query_tile\": {QUERY_TILE},\n    \
         \"per_pair_seconds\": {per_pair_secs:.6},\n    \
         \"query_lane_seconds\": {lane_secs:.6},\n    \
         \"speedup\": {kernel_speedup:.3},\n    \"bitwise_identical\": true\n  }},\n  \
         \"end_to_end\": {{\n    \"brute_force_seconds\": {brute_secs:.6},\n    \
         \"graph_build_seconds\": {build_secs:.6},\n    \
         \"graph_backed_seconds\": {graph_secs:.6},\n    \
         \"speedup_per_run\": {e2e_speedup:.3},\n    \
         \"breakeven_runs\": {breakeven},\n    \"bitwise_identical\": true\n  }},\n  \
         \"telemetry\": {{ {} }}\n}}\n",
        knnshap_bench::util::host_json(),
        probe
            .finish()
            .json_fields(per_pair_secs + lane_secs + brute_secs + build_secs + graph_secs)
            .trim_start_matches(", ")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_graph.json");
    std::fs::write(out, &json).expect("write BENCH_graph.json");
    println!("wrote {out}");
}
