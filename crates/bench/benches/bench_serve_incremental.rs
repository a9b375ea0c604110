//! Incremental-revaluation bench for the serving runtime (ISSUE 6): apply
//! an M-mutation insert/delete script to a resident engine
//! (`ResidentValuator`: rank lists stay hot, each mutation splices and
//! reruns only the Theorem 1 recursion) and to a cold baseline (full
//! `knn_class_shapley_with_threads` recompute of the mutated dataset —
//! distances + sort + recursion from scratch, the cost a daemon-less
//! deployment would pay per mutation).
//!
//! Every step first asserts the serving determinism contract: the
//! incremental vector must equal the cold recompute **bitwise**. Then the
//! two wall-clocks are compared; the acceptance bar for the serving PR is
//! incremental ≥ 5× faster at N = 10⁵ (the default config). Results go to
//! `BENCH_serve.json` at the workspace root so CI can archive them.
//!
//! `--batched` (ISSUE 8) adds a third path: the same script replayed
//! through `ResidentValuator::apply_batch` in groups of
//! `KNNSHAP_BENCH_BATCH` (default 8) — one splice pass and one Theorem 1
//! recursion per *group* instead of per mutation, exactly what the
//! daemon's coalescing write path does under concurrent writers. Each
//! group-final vector is asserted bitwise-equal to the per-mutation
//! replay at the same step, then the two replay wall-clocks are compared;
//! the acceptance bar is batched ≥ 1.5× over per-mutation at N = 10⁵.
//!
//! The JSON also records the median latency of one what-if request on the
//! mutated engine and a `host` block (nproc, CPU, git revision).
//!
//! Knobs: `KNNSHAP_BENCH_N` (training points, default 100 000),
//! `KNNSHAP_BENCH_MUTATIONS` (script length, default 16),
//! `KNNSHAP_BENCH_NTEST` (test points, default 64 — valuation in the
//! paper is w.r.t. a whole test set, and the per-test-point cost is where
//! the resident engine's savings amortize its per-vector fixed cost),
//! `KNNSHAP_BENCH_BATCH` (group size for `--batched`, default 8).
//! Gates: setting `KNNSHAP_SERVE_SPEEDUP_FLOOR` (e.g. `5`) turns the
//! incremental-vs-cold speedup report into an assertion, and
//! `KNNSHAP_SERVE_BATCH_FLOOR` (e.g. `1.5`) does the same for the
//! batched-vs-per-mutation speedup — see docs/benchmarks.md.

use knnshap_core::exact_unweighted::knn_class_shapley_with_threads;
use knnshap_core::resident::Mutation as EngineMutation;
use knnshap_core::resident::ResidentValuator;
use knnshap_core::types::ShapleyValues;
use knnshap_datasets::synth::deepfeat::EmbeddingSpec;
use knnshap_datasets::ClassDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// What-if requests timed one at a time for the per-request median.
const WHATIF_REQUESTS: usize = 33;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

enum Mutation {
    Insert(Vec<f32>, u32),
    Delete(usize),
}

fn assert_bitwise(a: &ShapleyValues, b: &ShapleyValues, step: usize) {
    assert_eq!(a.len(), b.len(), "step {step}: length");
    for i in 0..a.len() {
        assert_eq!(
            a.get(i).to_bits(),
            b.get(i).to_bits(),
            "step {step}: incremental and cold disagree at value {i}"
        );
    }
}

fn main() {
    knnshap_bench::telemetry::enable();
    let probe = knnshap_bench::telemetry::Probe::start();
    let batched_mode = std::env::args().any(|a| a == "--batched");
    let n = env_usize("KNNSHAP_BENCH_N", 100_000);
    let mutations = env_usize("KNNSHAP_BENCH_MUTATIONS", 16);
    let n_test = env_usize("KNNSHAP_BENCH_NTEST", 64);
    let batch_size = env_usize("KNNSHAP_BENCH_BATCH", 8).max(1);
    let k = 5usize;
    let threads = knnshap_parallel::current_threads();

    // The paper's deep-feature regime (same generator family as
    // bench_mc_scaling): 32-dim MNIST-like embeddings, 10 classes.
    let spec = EmbeddingSpec::mnist_like(n);
    let train = spec.generate();
    let test = spec.queries(n_test);
    let dim = train.x.dim();
    let n_classes = train.n_classes;

    // The mutation script: ~1/3 deletes, rest inserts (near the data).
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut size = n;
    let script: Vec<Mutation> = (0..mutations)
        .map(|_| {
            if size > 2 && rng.gen_range(0..3) == 0 {
                size -= 1;
                Mutation::Delete(rng.gen_range(0..size))
            } else {
                size += 1;
                let row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
                Mutation::Insert(row, rng.gen_range(0..n_classes))
            }
        })
        .collect();

    println!(
        "== serve incremental: N = {n}, {mutations} mutations, n_test = {n_test}, \
         K = {k}, dim = {dim}, threads = {threads} =="
    );

    // --- Resident path: load once, then M × (mutate + revalue). ---------
    let load_start = Instant::now();
    let mut engine =
        ResidentValuator::new(train.clone(), test.clone(), k, threads).expect("engine");
    let _ = engine.values(); // initial publication, outside the timed loop
    let load_secs = load_start.elapsed().as_secs_f64();

    let mut incremental_vectors = Vec::with_capacity(mutations);
    let incr_start = Instant::now();
    for m in &script {
        match m {
            Mutation::Insert(row, label) => {
                engine.insert(row, *label).expect("insert");
            }
            Mutation::Delete(i) => engine.delete(*i).expect("delete"),
        }
        incremental_vectors.push(engine.values());
    }
    let incr_secs = incr_start.elapsed().as_secs_f64();

    // --- What-if: per-request latency on the mutated engine (each request
    // splices a candidate virtually and stops the recursion at its rank).
    let mut whatif_ms: Vec<f64> = (0..WHATIF_REQUESTS)
        .map(|_| {
            let row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let label = rng.gen_range(0..n_classes);
            let start = Instant::now();
            let value = engine.what_if(&row, label).expect("what-if");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(value);
            ms
        })
        .collect();
    whatif_ms.sort_by(f64::total_cmp);
    let whatif_median_ms = whatif_ms[WHATIF_REQUESTS / 2];

    // --- Batched replay (--batched): same script, groups of B mutations
    // through apply_batch — one splice pass + one recursion per group,
    // the daemon's coalesced write path. Timed like the per-mutation
    // loop (valuations inside, asserts outside); group-final vectors must
    // equal the per-mutation replay bitwise at the same step.
    let mut batched = None;
    if batched_mode {
        let mut engine =
            ResidentValuator::new(train.clone(), test.clone(), k, threads).expect("engine");
        let _ = engine.values();
        let mut group_vectors = Vec::with_capacity(mutations.div_ceil(batch_size));
        let batch_start = Instant::now();
        for group in script.chunks(batch_size) {
            let muts: Vec<EngineMutation> = group
                .iter()
                .map(|m| match m {
                    Mutation::Insert(row, label) => EngineMutation::Insert {
                        features: row.clone(),
                        label: *label,
                    },
                    Mutation::Delete(i) => EngineMutation::Delete { index: *i },
                })
                .collect();
            for ack in engine.apply_batch(&muts) {
                ack.expect("batched mutation");
            }
            group_vectors.push(engine.values());
        }
        let batched_secs = batch_start.elapsed().as_secs_f64();
        let mut step = 0usize;
        for (g, v) in group_vectors.iter().enumerate() {
            step += script[g * batch_size..].len().min(batch_size);
            assert_bitwise(&incremental_vectors[step - 1], v, step - 1);
        }
        batched = Some(batched_secs);
    }

    // --- Cold baseline: M × full recompute of the mutated dataset. ------
    // Mutate a plain dataset copy the same way the engine does (append;
    // delete = gather of survivors), then run the one-shot estimator.
    let mut cold_train = train;
    let mut cold_secs = 0.0f64;
    for (step, m) in script.iter().enumerate() {
        match m {
            Mutation::Insert(row, label) => {
                cold_train.x.push_row(row);
                cold_train.y.push(*label);
                cold_train.n_classes = cold_train.n_classes.max(label + 1);
            }
            Mutation::Delete(i) => {
                let keep: Vec<usize> = (0..cold_train.len()).filter(|j| j != i).collect();
                cold_train = cold_train.gather(&keep);
            }
        }
        let start = Instant::now();
        let cold = knn_class_shapley_with_threads(&cold_train, &test, k, threads);
        cold_secs += start.elapsed().as_secs_f64();
        // The determinism contract on the real workload, every step.
        assert_bitwise(&incremental_vectors[step], &cold, step);
    }
    drop(incremental_vectors);
    let _ = ClassDataset::len(&cold_train); // keep the final dataset nameable

    let speedup = cold_secs / incr_secs;
    let per_mutation_incr = incr_secs / mutations as f64;
    let per_mutation_cold = cold_secs / mutations as f64;
    println!("engine load (distances + sort + initial valuation): {load_secs:.3} s");
    println!(
        "incremental replay: {incr_secs:.3} s total ({:.1} ms/mutation)",
        per_mutation_incr * 1e3
    );
    println!(
        "cold recomputes:    {cold_secs:.3} s total ({:.1} ms/mutation)",
        per_mutation_cold * 1e3
    );
    println!("speedup: ×{speedup:.2} (all {mutations} steps bitwise-identical)");
    println!("what-if: {whatif_median_ms:.2} ms/request (median of {WHATIF_REQUESTS})");

    let batch_speedup = batched.map(|batched_secs| {
        let bs = incr_secs / batched_secs;
        println!(
            "batched replay ({batch_size}/group): {batched_secs:.3} s total \
             ({:.1} ms/mutation) — ×{bs:.2} over per-mutation, group-final \
             vectors bitwise-identical",
            batched_secs / mutations as f64 * 1e3
        );
        bs
    });

    // Regression gates (CI sets the floors; unset = report-only).
    if let Ok(floor) = std::env::var("KNNSHAP_SERVE_SPEEDUP_FLOOR") {
        let floor: f64 = floor
            .parse()
            .expect("KNNSHAP_SERVE_SPEEDUP_FLOOR: a number");
        assert!(
            speedup >= floor,
            "incremental speedup ×{speedup:.2} regressed below the ×{floor} floor"
        );
        println!("gate: ×{speedup:.2} >= ×{floor} floor — ok");
    }
    if let Ok(floor) = std::env::var("KNNSHAP_SERVE_BATCH_FLOOR") {
        let floor: f64 = floor.parse().expect("KNNSHAP_SERVE_BATCH_FLOOR: a number");
        let bs = batch_speedup
            .expect("KNNSHAP_SERVE_BATCH_FLOOR set without --batched: nothing to gate");
        assert!(
            bs >= floor,
            "batched speedup ×{bs:.2} regressed below the ×{floor} floor"
        );
        println!("batch gate: ×{bs:.2} >= ×{floor} floor — ok");
    }

    let (batch_secs_json, batch_speedup_json) = match (batched, batch_speedup) {
        (Some(s), Some(b)) => (format!("{s:.6}"), format!("{b:.3}")),
        _ => ("null".into(), "null".into()),
    };
    let json = format!(
        "{{\n  \"bench\": \"serve_incremental\",\n  \"n_train\": {n},\n  \
         \"n_test\": {n_test},\n  \"k\": {k},\n  \"dim\": {dim},\n  \
         \"mutations\": {mutations},\n  \"threads\": {threads},\n  \
         \"load_seconds\": {load_secs:.6},\n  \
         \"incremental_seconds\": {incr_secs:.6},\n  \
         \"cold_seconds\": {cold_secs:.6},\n  \"speedup\": {speedup:.3},\n  \
         \"batch_size\": {batch_size},\n  \
         \"batched_seconds\": {batch_secs_json},\n  \
         \"batch_speedup\": {batch_speedup_json},\n  \
         \"bitwise_identical_steps\": {mutations},\n  \
         \"whatif_requests\": {WHATIF_REQUESTS},\n  \
         \"whatif_ms_median\": {whatif_median_ms:.4},\n  \
         \"host\": {},\n  \
         \"telemetry\": {{ {} }}\n}}\n",
        knnshap_bench::util::host_json(),
        probe
            .finish()
            .json_fields(load_secs + incr_secs + cold_secs)
            .trim_start_matches(", ")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(out, &json).expect("write BENCH_serve.json");
    println!("wrote {out}");
}
