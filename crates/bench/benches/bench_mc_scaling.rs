//! Thread-scaling bench for the deterministic parallel Monte Carlo runtime:
//! `mc_shapley_improved` — its permutation budget fanned across the pool as
//! counter-based RNG streams — timed at 1/2/4/8 threads on the N = 2000
//! smoke config. The estimator's own inner loop is what scales here.
//!
//! Every timing first asserts the determinism contract: the Shapley vector
//! of every thread count must be bitwise-identical to the serial one — the
//! tiling may change with the thread count, never a mantissa bit. Results
//! (wall-clock, per-permutation throughput, speedup over serial) go to
//! `BENCH_mc.json` at the workspace root, with the `host` block of the
//! other committed benches, so CI can archive them.
//!
//! Knobs: `KNNSHAP_BENCH_N` (training points, default 2000),
//! `KNNSHAP_BENCH_PERMS` (permutation budget, default 256).
//!
//! Regression gate: when `KNNSHAP_MC_SPEEDUP_FLOOR` is set (CI exports it
//! from `crates/bench/mc_speedup_floor` on runners with ≥ 4 cores), the best
//! multi-thread (≥ 4) speedup over serial must meet that floor or the bench
//! fails. Taking the best row keeps the gate robust on 4-core runners where
//! the 8-thread cell oversubscribes. Leave it unset on single-core
//! machines — see docs/benchmarks.md.

use knnshap_core::mc::{mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule};
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
    let spec = EmbeddingSpec::mnist_like(n);
    let train = spec.generate();
    let test = spec.queries(4);
    let inc = IncKnnUtility::classification(&train, &test, k, WeightFn::Uniform);

    let run = |threads: usize| -> (f64, Vec<f64>) {
        let rule = StoppingRule::Fixed(perms);
        let start = Instant::now();
        let res = mc_shapley_improved_with_threads(&inc, rule, 1, None, threads);
        (start.elapsed().as_secs_f64(), res.values.into_vec())
    };

    // Warm-up: build the global pool and fault in the distance matrix.
    let _ = run(knnshap_parallel::current_threads());

    println!("== mc scaling: mc_shapley_improved, {perms} permutations, N = {n}, K = {k} ==");
    let mut rows = Vec::new();
    let mut serial_secs = None;
    let mut serial_values: Option<Vec<f64>> = None;
    let mut best_multi_speedup: Option<f64> = None;
    for threads in [1usize, 2, 4, 8] {
        let probe = knnshap_bench::telemetry::Probe::start();
        let (secs, values) = run(threads);
        let delta = probe.finish();
        match &serial_values {
            None => serial_values = Some(values),
            Some(reference) => {
                // The determinism contract, checked on the real workload:
                // the thread count may not move a single mantissa bit.
                for (i, (a, b)) in reference.iter().zip(&values).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "threads={threads} changed value {i}: {a:?} vs {b:?}"
                    );
                }
            }
        }
        let serial = *serial_secs.get_or_insert(secs);
        let speedup = serial / secs;
        if threads >= 4 {
            best_multi_speedup =
                Some(best_multi_speedup.map_or(speedup, |best: f64| best.max(speedup)));
        }
        let tput = perms as f64 / secs;
        println!("threads = {threads}: {secs:.3} s  ({tput:.1} perms/s, speedup ×{speedup:.2})");
        rows.push(format!(
            "    {{ \"threads\": {threads}, \"seconds\": {secs:.6}, \
             \"perms_per_sec\": {tput:.3}, \"speedup\": {speedup:.3}{} }}",
            delta.json_fields(secs)
        ));
    }

    // Regression gate: CI exports the floor (from crates/bench/mc_speedup_floor)
    // only on multi-core runners; unset means report-only.
    if let Ok(floor) = std::env::var("KNNSHAP_MC_SPEEDUP_FLOOR") {
        let floor: f64 = floor
            .trim()
            .parse()
            .expect("KNNSHAP_MC_SPEEDUP_FLOOR: a number");
        let speedup = best_multi_speedup.expect("multi-thread rows always run");
        assert!(
            speedup >= floor,
            "best multi-thread MC speedup ×{speedup:.2} regressed below the ×{floor} floor \
             (stored in crates/bench/mc_speedup_floor)"
        );
        println!("gate: best multi-thread speedup ×{speedup:.2} >= ×{floor} floor — ok");
    }

    let json = format!(
        "{{\n  \"bench\": \"mc_scaling_improved\",\n  \"host\": {},\n  \
         \"n_train\": {n},\n  \"n_test\": 4,\n  \"k\": {k},\n  \"perms\": {perms},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        knnshap_bench::util::host_json(),
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mc.json");
    std::fs::write(out, &json).expect("write BENCH_mc.json");
    println!("wrote {out}");
}
