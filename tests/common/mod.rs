//! Scaffolding shared by the determinism batteries
//! (`parallel_determinism.rs`, `mc_determinism.rs`): bitwise comparison
//! helpers and seeded random instance generators.
//!
//! Not every suite uses every helper, and each test target compiles this
//! module independently, so dead-code warnings are silenced wholesale.
#![allow(dead_code)]

use knnshap::datasets::{ClassDataset, Features, RegDataset};
use knnshap::knn::graph::KnnGraph;
use knnshap::knn::WeightFn;
use knnshap::valuation::estimator::{Data, Estimator, Family};
use knnshap::valuation::types::ShapleyValues;
use rand::rngs::StdRng;
use rand::Rng;

/// Thread counts the batteries compare against the serial (1-thread) path.
pub const THREAD_COUNTS: [usize; 3] = [2, 3, 8];

pub fn assert_bitwise(serial: &ShapleyValues, par: &ShapleyValues, what: &str) {
    assert_eq!(serial.len(), par.len(), "{what}: length mismatch");
    for (i, (a, b)) in serial.as_slice().iter().zip(par.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: value {i} differs: {a:?} vs {b:?}"
        );
    }
}

pub fn bitwise_ok(serial: &ShapleyValues, par: &ShapleyValues) -> bool {
    serial.len() == par.len()
        && serial
            .as_slice()
            .iter()
            .zip(par.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Bind a job through the estimator seam (the batteries only build valid
/// ones).
pub fn estimator<'a>(
    data: Data<'a>,
    k: usize,
    weight: WeightFn,
    family: Family,
    graph: Option<&'a KnnGraph>,
) -> Estimator<'a> {
    Estimator::new(data, k, weight, family, graph).expect("valid job")
}

/// Unsharded uniform exact regression (Theorem 6) on `threads` workers.
pub fn exact_reg(train: &RegDataset, test: &RegDataset, k: usize, threads: usize) -> ShapleyValues {
    let data = Data::reg(train, test);
    estimator(data, k, WeightFn::Uniform, Family::Exact, None)
        .run(threads)
        .values
}

/// Unsharded truncated classification (Theorem 2) on `threads` workers.
pub fn truncated(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    eps: f64,
    threads: usize,
) -> ShapleyValues {
    let family = Family::Truncated { eps };
    estimator(Data::class(train, test), k, WeightFn::Uniform, family, None)
        .run(threads)
        .values
}

pub fn random_class(
    rng: &mut StdRng,
    n: usize,
    n_test: usize,
    classes: u32,
) -> (ClassDataset, ClassDataset) {
    let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    let train = ClassDataset::new(Features::new(feats, 2), labels, classes);
    let tfeats: Vec<f32> = (0..n_test * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let tlabels: Vec<u32> = (0..n_test).map(|_| rng.gen_range(0..classes)).collect();
    let test = ClassDataset::new(Features::new(tfeats, 2), tlabels, classes);
    (train, test)
}

pub fn random_reg(rng: &mut StdRng, n: usize, n_test: usize) -> (RegDataset, RegDataset) {
    let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let train = RegDataset::new(Features::new(feats, 2), targets);
    let tfeats: Vec<f32> = (0..n_test * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let ttargets: Vec<f64> = (0..n_test).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let test = RegDataset::new(Features::new(tfeats, 2), ttargets);
    (train, test)
}
