//! Differential battery for graph-backed valuation (ISSUE 7): every
//! estimator family that accepts a precomputed `KNNGRAPH` artifact must
//! reproduce its brute-force sibling **bit for bit** — unsharded, across
//! {1, 2, 7} shards, at {1, 8} threads per shard, and with the graph
//! round-tripped through the wire format before use (what ships on disk is
//! what computes).
//!
//! Two adversarial datasets ride along: a k-boundary instance (k = N, so
//! every training point is always in the neighborhood) and an
//! all-duplicate-distance instance (every train point at the same location,
//! so the entire ranking is decided by the index tie-break the graph must
//! have frozen in argsort order). A final layer pins the daemon seed path:
//! `ResidentValuator::with_graph` serves the same bits as a cold `new`.

use knnshap::datasets::{ClassDataset, Features};
use knnshap::knn::graph::KnnGraph;
use knnshap::knn::WeightFn;
use knnshap::valuation::estimator::{Data, Estimator, Family};
use knnshap::valuation::exact_unweighted::{
    knn_class_shapley_shard, knn_class_shapley_with_threads,
};
use knnshap::valuation::exact_weighted::{weighted_knn_class_shapley, weighted_knn_reg_shapley};
use knnshap::valuation::group_testing::group_testing_shapley_with_threads;
use knnshap::valuation::mc::{
    mc_shapley_baseline_with_threads, mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule,
};
use knnshap::valuation::pipeline::KnnShapley;
use knnshap::valuation::resident::ResidentValuator;
use knnshap::valuation::sharding::{merge_partials, ShardPartial, ShardSpec};
use knnshap::valuation::types::ShapleyValues;
use knnshap::valuation::utility::KnnClassUtility;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{assert_bitwise, estimator, exact_reg, random_class, random_reg, truncated};

/// Uniform exact classification backed by `graph`.
fn exact_class_on<'a>(
    train: &'a ClassDataset,
    test: &'a ClassDataset,
    k: usize,
    graph: &'a KnnGraph,
) -> Estimator<'a> {
    let data = Data::class(train, test);
    estimator(data, k, WeightFn::Uniform, Family::Exact, Some(graph))
}

/// Shard counts every graph-backed family is checked at.
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
/// Per-shard thread counts.
const THREADS: [usize; 2] = [1, 8];

/// Build the graph for `(train, test)` features and round-trip it through
/// the wire format, so every assertion downstream exercises the decoder's
/// output rather than the in-memory builder's.
fn wire_graph(train: &Features, test: &Features) -> KnnGraph {
    let built = KnnGraph::build(train, test, 4);
    let decoded = KnnGraph::from_bytes(&built.to_bytes()).expect("graph wire round trip");
    assert_eq!(built, decoded, "decode must reproduce the built graph");
    decoded
}

/// Merge `make_shard` partials at every (shard, thread) combination and
/// compare bitwise against `reference` (the brute-force, graph-free run).
fn check_family<F>(reference: &ShapleyValues, what: &str, make_shard: F)
where
    F: Fn(ShardSpec, usize) -> ShardPartial,
{
    for shards in SHARD_COUNTS {
        for threads in THREADS {
            let parts: Vec<ShardPartial> = (0..shards)
                .map(|i| {
                    let p = make_shard(ShardSpec::new(i, shards), threads);
                    ShardPartial::from_bytes(&p.to_bytes()).expect("round trip")
                })
                .collect();
            let merged = merge_partials(&parts).expect("merge");
            assert_bitwise(
                reference,
                &merged.values,
                &format!("{what}: {shards} shards x {threads} threads"),
            );
        }
    }
}

#[test]
fn exact_classification_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x71), 80, 31, 3);
    let graph = wire_graph(&train.x, &test.x);
    for k in [1usize, 3] {
        let reference = knn_class_shapley_with_threads(&train, &test, k, 1);
        let est = exact_class_on(&train, &test, k, &graph);
        for threads in THREADS {
            assert_bitwise(
                &reference,
                &est.run(threads).values,
                &format!("exact class from_graph k={k} threads={threads}"),
            );
        }
        check_family(
            &reference,
            &format!("exact class k={k}"),
            |spec, threads| est.compute(spec, threads),
        );
    }
}

#[test]
fn exact_regression_graph_shards_bitwise() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0x72), 70, 23);
    let graph = wire_graph(&train.x, &test.x);
    let reference = exact_reg(&train, &test, 3, 1);
    let data = Data::reg(&train, &test);
    let est = estimator(data, 3, WeightFn::Uniform, Family::Exact, Some(&graph));
    for threads in THREADS {
        assert_bitwise(
            &reference,
            &est.run(threads).values,
            &format!("exact reg from_graph threads={threads}"),
        );
    }
    check_family(&reference, "exact reg", |spec, threads| {
        est.compute(spec, threads)
    });
}

#[test]
fn weighted_classification_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x73), 30, 9, 2);
    let graph = wire_graph(&train.x, &test.x);
    let weight = WeightFn::InverseDistance { eps: 1e-3 };
    let reference = weighted_knn_class_shapley(&train, &test, 2, weight, 1);
    let est = estimator(
        Data::class(&train, &test),
        2,
        weight,
        Family::Exact,
        Some(&graph),
    );
    for threads in THREADS {
        assert_bitwise(
            &reference,
            &est.run(threads).values,
            &format!("weighted class from_graph threads={threads}"),
        );
    }
    check_family(&reference, "weighted class", |spec, threads| {
        est.compute(spec, threads)
    });
}

#[test]
fn weighted_regression_graph_bitwise() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0x74), 40, 11);
    let graph = wire_graph(&train.x, &test.x);
    let weight = WeightFn::InverseDistance { eps: 1e-2 };
    let reference = weighted_knn_reg_shapley(&train, &test, 2, weight, 1);
    for threads in THREADS {
        assert_bitwise(
            &reference,
            &KnnShapley::over(Data::reg(&train, &test))
                .k(2)
                .weight(weight)
                .graph(&graph)
                .threads(threads)
                .run()
                .expect("valid job"),
            &format!("weighted reg from_graph threads={threads}"),
        );
    }
}

#[test]
fn truncated_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x75), 90, 17, 3);
    let graph = wire_graph(&train.x, &test.x);
    let reference = truncated(&train, &test, 2, 0.15, 1);
    let family = Family::Truncated { eps: 0.15 };
    let data = Data::class(&train, &test);
    let est = estimator(data, 2, WeightFn::Uniform, family, Some(&graph));
    for threads in THREADS {
        assert_bitwise(
            &reference,
            &est.run(threads).values,
            &format!("truncated from_graph threads={threads}"),
        );
    }
    check_family(&reference, "truncated", |spec, threads| {
        est.compute(spec, threads)
    });
}

#[test]
fn mc_baseline_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x76), 25, 4, 2);
    let graph = wire_graph(&train.x, &test.x);
    let brute = KnnClassUtility::unweighted(&train, &test, 2);
    let family = Family::McBaseline {
        perms: 100,
        seed: 7,
    };
    let data = || Data::class(&train, &test);
    let backed = estimator(data(), 2, WeightFn::Uniform, family, Some(&graph));
    // Same dataset-content fingerprint: MC shards built either way
    // inter-merge.
    let unbacked = estimator(data(), 2, WeightFn::Uniform, family, None);
    assert_eq!(unbacked.identity(), backed.identity());
    let reference = mc_shapley_baseline_with_threads(&brute, StoppingRule::Fixed(100), 7, None, 1);
    check_family(&reference.values, "mc baseline", |spec, threads| {
        backed.compute(spec, threads)
    });
}

#[test]
fn mc_improved_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x77), 40, 5, 2);
    let graph = wire_graph(&train.x, &test.x);
    let brute = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
    let family = Family::McImproved {
        perms: 100,
        seed: 11,
    };
    let data = Data::class(&train, &test);
    let backed = estimator(data, 3, WeightFn::Uniform, family, Some(&graph));
    let reference = mc_shapley_improved_with_threads(&brute, StoppingRule::Fixed(100), 11, None, 1);
    check_family(&reference.values, "mc improved", |spec, threads| {
        backed.compute(spec, threads)
    });
}

#[test]
fn mc_improved_regression_graph_bitwise() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0x78), 30, 6);
    let graph = wire_graph(&train.x, &test.x);
    let brute = IncKnnUtility::regression(&train, &test, 2, WeightFn::Uniform);
    let family = Family::McImproved { perms: 60, seed: 5 };
    let data = Data::reg(&train, &test);
    let backed = estimator(data, 2, WeightFn::Uniform, family, Some(&graph));
    let a = mc_shapley_improved_with_threads(&brute, StoppingRule::Fixed(60), 5, None, 1);
    let b = backed.run(8);
    assert_bitwise(&a.values, &b.values, "mc improved regression via graph");
}

#[test]
fn group_testing_graph_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x79), 15, 3, 2);
    let graph = wire_graph(&train.x, &test.x);
    let brute = KnnClassUtility::unweighted(&train, &test, 2);
    let family = Family::GroupTesting {
        tests: 500,
        seed: 13,
    };
    let data = Data::class(&train, &test);
    let backed = estimator(data, 2, WeightFn::Uniform, family, Some(&graph));
    let reference = group_testing_shapley_with_threads(&brute, 500, 13, 1);
    check_family(&reference.values, "group testing", |spec, threads| {
        backed.compute(spec, threads)
    });
}

#[test]
fn graph_and_brute_force_shards_inter_merge() {
    // The headline operational property: a job may mix workers that have
    // the artifact with workers that do not — the shards carry the same
    // kind and fingerprint, so the merge neither knows nor cares.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x7A), 50, 13, 3);
    let graph = wire_graph(&train.x, &test.x);
    let reference = knn_class_shapley_with_threads(&train, &test, 2, 1);
    let parts = [
        knn_class_shapley_shard(&train, &test, 2, ShardSpec::new(0, 3), 1),
        exact_class_on(&train, &test, 2, &graph).compute(ShardSpec::new(1, 3), 8),
        knn_class_shapley_shard(&train, &test, 2, ShardSpec::new(2, 3), 8),
    ];
    let merged = merge_partials(&parts).expect("mixed merge");
    assert_bitwise(&reference, &merged.values, "brute-force + graph shards");
}

// ---------------------------------------------------------------------------
// Adversarial datasets: k-boundary and all-duplicate distances.
// ---------------------------------------------------------------------------

#[test]
fn k_boundary_graph_bitwise() {
    // k = N and k > N: every training point sits inside the neighborhood,
    // so the recursion's boundary terms dominate.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x7B), 12, 5, 2);
    let graph = wire_graph(&train.x, &test.x);
    for k in [train.len(), train.len() + 3] {
        let reference = knn_class_shapley_with_threads(&train, &test, k, 1);
        let est = exact_class_on(&train, &test, k, &graph);
        check_family(&reference, &format!("k-boundary k={k}"), |spec, threads| {
            est.compute(spec, threads)
        });
    }
}

/// Every training point at the exact same location: all N distances to any
/// test point are bitwise-equal, so the graph's entire order is the index
/// tie-break.
fn all_duplicate_instance() -> (ClassDataset, ClassDataset) {
    let n = 20;
    let row = [0.25f32, -0.75, 0.5];
    let feats: Vec<f32> = (0..n).flat_map(|_| row).collect();
    let labels: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
    let train = ClassDataset::new(Features::new(feats, 3), labels, 3);
    let test = ClassDataset::new(
        Features::new(vec![0.0, 0.0, 0.0, 1.0, -1.0, 1.0], 3),
        vec![0, 2],
        3,
    );
    (train, test)
}

#[test]
fn all_duplicate_distances_graph_bitwise() {
    let (train, test) = all_duplicate_instance();
    let graph = wire_graph(&train.x, &test.x);
    // The graph must have resolved every tie to ascending index.
    for j in 0..test.len() {
        let order: Vec<u32> = graph.list(j).iter().map(|n| n.index).collect();
        let expected: Vec<u32> = (0..train.len() as u32).collect();
        assert_eq!(order, expected, "tie-break order for test point {j}");
    }
    let reference = knn_class_shapley_with_threads(&train, &test, 3, 1);
    let est = exact_class_on(&train, &test, 3, &graph);
    check_family(&reference, "all-duplicate exact", |spec, threads| {
        est.compute(spec, threads)
    });
    let weight = WeightFn::InverseDistance { eps: 1e-3 };
    let wref = weighted_knn_class_shapley(&train, &test, 3, weight, 1);
    assert_bitwise(
        &wref,
        &estimator(
            Data::class(&train, &test),
            3,
            weight,
            Family::Exact,
            Some(&graph),
        )
        .run(8)
        .values,
        "all-duplicate weighted",
    );
}

// ---------------------------------------------------------------------------
// Daemon seed path.
// ---------------------------------------------------------------------------

#[test]
fn resident_valuator_with_graph_matches_cold_start() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x7C), 35, 8, 3);
    let graph = wire_graph(&train.x, &test.x);
    for threads in THREADS {
        let cold = ResidentValuator::new(train.clone(), test.clone(), 2, threads).expect("cold");
        let seeded = ResidentValuator::with_graph(train.clone(), test.clone(), 2, threads, &graph)
            .expect("seeded");
        assert_bitwise(&cold.values(), &seeded.values(), "resident graph seed");

        // The seeded daemon must keep the contract through mutations too:
        // insert then delete a point on both and compare again.
        let mut cold = cold;
        let mut seeded = seeded;
        for v in [&mut cold, &mut seeded] {
            let idx = v.insert(&[0.1, 0.9], 1).expect("insert");
            v.delete(idx.saturating_sub(1)).expect("delete");
        }
        assert_bitwise(
            &cold.values(),
            &seeded.values(),
            "resident graph seed after churn",
        );
    }
}
