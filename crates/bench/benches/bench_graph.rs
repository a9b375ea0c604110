//! Graph-artifact bench (ISSUE 7), two layers:
//!
//! 1. **Kernel**: the blocked, cache-tiled distance kernel
//!    (`knnshap_knn::block::blocked_squared_l2`) against the naive
//!    query-major loop, on the full train × test pair — the pass
//!    `build-graph` runs once and every `--graph` consumer then skips.
//! 2. **End to end**: brute-force `knn_class_shapley_with_threads` (distance
//!    pass + argsort + recursion) against `KnnGraph::build` once plus a
//!    graph-backed `Estimator::run` per valuation — the amortization story:
//!    one artifact, many graph-backed runs paying only the recursion.
//!
//! Both layers assert the bitwise contract on the real workload before any
//! number is reported: blocked distances must equal naive distances bit for
//! bit, and the graph-backed Shapley vector must equal the brute-force one.
//! Results go to `BENCH_graph.json` at the workspace root (see
//! `docs/benchmarks.md` for the single-core-container caveat).
//!
//! Knobs: `KNNSHAP_BENCH_N` (training points, default 1 000 000 — the
//! paper's N = 10⁶ regime), `KNNSHAP_BENCH_QUERIES` (test points, default
//! 8), `KNNSHAP_BENCH_THREADS` (kernel/valuation threads, default 1 so
//! the kernel win is cache behavior, not parallelism).

use knnshap_core::estimator::{Data, Estimator, Family};
use knnshap_core::exact_unweighted::knn_class_shapley_with_threads;
use knnshap_datasets::synth::deepfeat::EmbeddingSpec;
use knnshap_knn::block::{blocked_squared_l2, naive_squared_l2};
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
    let t0 = Instant::now();
    let naive = naive_squared_l2(&train.x, &test.x);
    let naive_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let blocked = blocked_squared_l2(&train.x, &test.x, threads);
    let blocked_secs = t0.elapsed().as_secs_f64();
    assert_eq!(naive.len(), blocked.len());
    for (j, (a, b)) in naive.iter().zip(&blocked).enumerate() {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "tiling changed distance ({j}, {i}): {x:?} vs {y:?}"
            );
        }
    }
    let kernel_speedup = naive_secs / blocked_secs;
    println!(
        "kernel: naive {naive_secs:.3} s, blocked {blocked_secs:.3} s \
         (x{kernel_speedup:.2}), bitwise-identical"
    );
    drop(naive);
    drop(blocked);

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
        "{{\n  \"bench\": \"graph_artifact\",\n  \"n_train\": {n},\n  \
         \"n_test\": {n_test},\n  \"dim\": {dim},\n  \"k\": {k},\n  \
         \"threads\": {threads},\n  \"kernel\": {{\n    \
         \"naive_seconds\": {naive_secs:.6},\n    \
         \"blocked_seconds\": {blocked_secs:.6},\n    \
         \"speedup\": {kernel_speedup:.3},\n    \"bitwise_identical\": true\n  }},\n  \
         \"end_to_end\": {{\n    \"brute_force_seconds\": {brute_secs:.6},\n    \
         \"graph_build_seconds\": {build_secs:.6},\n    \
         \"graph_backed_seconds\": {graph_secs:.6},\n    \
         \"speedup_per_run\": {e2e_speedup:.3},\n    \
         \"breakeven_runs\": {breakeven},\n    \"bitwise_identical\": true\n  }},\n  \
         \"telemetry\": {{ {} }}\n}}\n",
        probe
            .finish()
            .json_fields(naive_secs + blocked_secs + brute_secs + build_secs + graph_secs)
            .trim_start_matches(", ")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_graph.json");
    std::fs::write(out, &json).expect("write BENCH_graph.json");
    println!("wrote {out}");
}
