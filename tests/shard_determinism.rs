//! Determinism battery for the sharded valuation runtime (ISSUE 4),
//! completing the trilogy of `parallel_determinism.rs` (thread counts) and
//! `mc_determinism.rs` (stochastic estimators): for every estimator with a
//! shard identity — exact classification/regression, weighted
//! classification/regression, truncated, baseline/improved MC, group
//! testing — splitting the job into
//! {1, 2, 7} shards, running each shard at {1, 8} threads, round-tripping
//! every partial through the versioned wire format, and merging must
//! reproduce the unsharded estimator **bit for bit**.
//!
//! A second layer pins the merge protocol itself: input-order invariance,
//! and loud rejection of version mismatches, mixed jobs (different seeds ⇒
//! different fingerprints), coverage gaps and overlaps.

use knnshap::datasets::RegDataset;
use knnshap::knn::graph::KnnGraph;
use knnshap::knn::WeightFn;
use knnshap::valuation::estimator::{Data, Family};
use knnshap::valuation::exact_unweighted::{
    knn_class_shapley_shard, knn_class_shapley_with_threads,
};
use knnshap::valuation::exact_weighted::{weighted_knn_class_shapley, weighted_knn_reg_shapley};
use knnshap::valuation::group_testing::group_testing_shapley_with_threads;
use knnshap::valuation::mc::{
    mc_shapley_baseline_with_threads, mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule,
};
use knnshap::valuation::sharding::{
    merge_partials, ShardError, ShardKind, ShardPartial, ShardSpec, SHARD_FORMAT_VERSION,
};
use knnshap::valuation::types::ShapleyValues;
use knnshap::valuation::utility::KnnClassUtility;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{assert_bitwise, estimator, exact_reg, random_class, random_reg, truncated};

/// Shard counts every family is checked at (1 = trivial split, 2 = even,
/// 7 = deliberately awkward against 31 test points / 100 permutations).
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
/// Per-shard thread counts.
const THREADS: [usize; 2] = [1, 8];

/// Run `make_shard` for every (shard, thread) combination, round-trip each
/// partial through bytes, merge, and compare bitwise against `reference`.
fn check_family<F>(reference: &ShapleyValues, what: &str, make_shard: F)
where
    F: Fn(ShardSpec, usize) -> ShardPartial,
{
    for shards in SHARD_COUNTS {
        for threads in THREADS {
            let parts: Vec<ShardPartial> = (0..shards)
                .map(|i| {
                    let p = make_shard(ShardSpec::new(i, shards), threads);
                    // Wire-format round trip: what lands on disk is what merges.
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
fn exact_classification_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xA1), 80, 31, 3);
    for k in [1usize, 3] {
        // The unsharded reference must itself be thread-count-free…
        let reference = knn_class_shapley_with_threads(&train, &test, k, 1);
        assert_bitwise(
            &reference,
            &knn_class_shapley_with_threads(&train, &test, k, 8),
            "exact class unsharded across threads",
        );
        // …and every shard/thread combination must land on the same bits.
        check_family(
            &reference,
            &format!("exact class k={k}"),
            |spec, threads| knn_class_shapley_shard(&train, &test, k, spec, threads),
        );
    }
}

#[test]
fn exact_regression_shards_bitwise() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0xB2), 70, 23);
    let reference = exact_reg(&train, &test, 3, 1);
    let est = estimator(
        Data::reg(&train, &test),
        3,
        WeightFn::Uniform,
        Family::Exact,
        None,
    );
    check_family(&reference, "exact reg", |spec, threads| {
        est.compute(spec, threads)
    });
}

#[test]
fn weighted_classification_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xC3), 30, 9, 2);
    let weight = WeightFn::InverseDistance { eps: 1e-3 };
    let reference = weighted_knn_class_shapley(&train, &test, 2, weight, 1);
    let est = estimator(Data::class(&train, &test), 2, weight, Family::Exact, None);
    check_family(&reference, "weighted class", |spec, threads| {
        est.compute(spec, threads)
    });
}

/// `weighted_knn_reg_shapley` on a seeded instance (K = 2, inverse-distance
/// weights, 1 thread), recorded as f64 bits by the build in which weighted
/// regression ran outside the estimator seam and could not shard.
const WEIGHTED_REG_BITS: &str = include_str!("fixtures/weighted_exact_reg.bits");

fn weighted_reg_instance() -> (RegDataset, RegDataset) {
    random_reg(&mut StdRng::seed_from_u64(0x6024), 24, 9)
}

const WEIGHTED_REG: WeightFn = WeightFn::InverseDistance { eps: 1e-3 };

#[test]
fn weighted_regression_shards_reproduce_the_recorded_bits() {
    let recorded = ShapleyValues::new(
        WEIGHTED_REG_BITS
            .lines()
            .map(|l| f64::from_bits(u64::from_str_radix(l, 16).expect("hex bits")))
            .collect(),
    );
    let (train, test) = weighted_reg_instance();
    assert_eq!(recorded.len(), train.len());
    for threads in [1, 8] {
        let whole = weighted_knn_reg_shapley(&train, &test, 2, WEIGHTED_REG, threads);
        assert_bitwise(
            &recorded,
            &whole,
            &format!("unsharded at {threads} threads"),
        );
    }
    let data = || Data::reg(&train, &test);
    let est = estimator(data(), 2, WEIGHTED_REG, Family::Exact, None);
    check_family(&recorded, "weighted reg", |spec, threads| {
        est.compute(spec, threads)
    });
    let graph = KnnGraph::build(&train.x, &test.x, 2);
    let est = estimator(data(), 2, WEIGHTED_REG, Family::Exact, Some(&graph));
    check_family(&recorded, "weighted reg, graph-backed", |spec, threads| {
        est.compute(spec, threads)
    });
}

#[test]
fn weighted_and_uniform_regression_shards_never_merge() {
    let (train, test) = weighted_reg_instance();
    let part = |weight, i| {
        let est = estimator(Data::reg(&train, &test), 2, weight, Family::Exact, None);
        est.compute(ShardSpec::new(i, 2), 1)
    };
    let (weighted, uniform) = (part(WEIGHTED_REG, 0), part(WeightFn::Uniform, 1));
    assert_eq!(weighted.meta.kind, ShardKind::ExactReg);
    assert_eq!(uniform.meta.kind, ShardKind::ExactReg);
    assert_ne!(weighted.meta.fingerprint, uniform.meta.fingerprint);
    // Two weight functions differ too, not just weighted vs uniform.
    let exponential = part(WeightFn::Exponential { beta: 0.5 }, 1);
    assert_ne!(weighted.meta.fingerprint, exponential.meta.fingerprint);
    let err = merge_partials(&[weighted.clone(), uniform]).unwrap_err();
    assert!(matches!(err, ShardError::Incompatible(_)), "{err}");
    let err = merge_partials(&[weighted, exponential]).unwrap_err();
    assert!(matches!(err, ShardError::Incompatible(_)), "{err}");
}

#[test]
fn truncated_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xD4), 90, 17, 3);
    let reference = truncated(&train, &test, 2, 0.15, 1);
    let family = Family::Truncated { eps: 0.15 };
    let est = estimator(
        Data::class(&train, &test),
        2,
        WeightFn::Uniform,
        family,
        None,
    );
    check_family(&reference, "truncated", |spec, threads| {
        est.compute(spec, threads)
    });
}

#[test]
fn mc_baseline_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xE5), 25, 4, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let reference =
        mc_shapley_baseline_with_threads(&u, StoppingRule::Fixed(100), 7, None, 1).values;
    let family = Family::McBaseline {
        perms: 100,
        seed: 7,
    };
    let est = estimator(
        Data::class(&train, &test),
        2,
        WeightFn::Uniform,
        family,
        None,
    );
    check_family(&reference, "mc baseline", |spec, threads| {
        est.compute(spec, threads)
    });
}

#[test]
fn mc_improved_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0xF6), 40, 5, 2);
    let inc = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
    let reference =
        mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(100), 11, None, 1).values;
    let family = Family::McImproved {
        perms: 100,
        seed: 11,
    };
    let est = estimator(
        Data::class(&train, &test),
        3,
        WeightFn::Uniform,
        family,
        None,
    );
    check_family(&reference, "mc improved", |spec, threads| {
        est.compute(spec, threads)
    });
}

#[test]
fn group_testing_shards_bitwise() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x17), 15, 3, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let reference = group_testing_shapley_with_threads(&u, 500, 13, 1).values;
    let family = Family::GroupTesting {
        tests: 500,
        seed: 13,
    };
    let est = estimator(
        Data::class(&train, &test),
        2,
        WeightFn::Uniform,
        family,
        None,
    );
    check_family(&reference, "group testing", |spec, threads| {
        est.compute(spec, threads)
    });
}

// ---------------------------------------------------------------------------
// Merge protocol: ordering, versioning, and failure modes.
// ---------------------------------------------------------------------------

fn three_shards() -> (ShapleyValues, Vec<ShardPartial>) {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x28), 40, 10, 2);
    let reference = knn_class_shapley_with_threads(&train, &test, 2, 1);
    let parts = (0..3)
        .map(|i| knn_class_shapley_shard(&train, &test, 2, ShardSpec::new(i, 3), 1))
        .collect();
    (reference, parts)
}

#[test]
fn merge_is_input_order_invariant() {
    let (reference, mut parts) = three_shards();
    parts.rotate_left(1);
    parts.swap(0, 1);
    let merged = merge_partials(&parts).expect("merge in scrambled order");
    assert_bitwise(&reference, &merged.values, "scrambled merge order");
}

#[test]
fn merge_rejects_version_mismatch() {
    let (_, parts) = three_shards();
    let mut bytes = parts[1].to_bytes();
    bytes[8] = (SHARD_FORMAT_VERSION + 1) as u8; // bump the version field
    let err = ShardPartial::from_bytes(&bytes).unwrap_err();
    assert_eq!(
        err,
        ShardError::UnsupportedVersion {
            found: SHARD_FORMAT_VERSION + 1
        }
    );
}

#[test]
fn merge_rejects_mixed_seeds_sizes_and_coverage_faults() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x39), 20, 4, 2);
    let shard = |perms, seed, i| {
        let family = Family::McBaseline { perms, seed };
        let est = estimator(
            Data::class(&train, &test),
            2,
            WeightFn::Uniform,
            family,
            None,
        );
        est.compute(ShardSpec::new(i, 2), 1)
    };
    let parts: Vec<ShardPartial> = (0..2).map(|i| shard(40, 1, i)).collect();

    // Same job, different seed ⇒ fingerprint mismatch.
    let alien = shard(40, 2, 1);
    let err = merge_partials(&[parts[0].clone(), alien]).unwrap_err();
    assert!(matches!(err, ShardError::Incompatible(_)), "{err}");

    // Different budget ⇒ different total_items.
    let short = shard(30, 1, 1);
    let err = merge_partials(&[parts[0].clone(), short]).unwrap_err();
    assert!(matches!(err, ShardError::Incompatible(_)), "{err}");

    // Gap and overlap.
    let err = merge_partials(&[parts[1].clone()]).unwrap_err();
    assert!(matches!(err, ShardError::Coverage(_)), "{err}");
    let err = merge_partials(&[parts[0].clone(), parts[0].clone(), parts[1].clone()]).unwrap_err();
    assert!(matches!(err, ShardError::Coverage(_)), "{err}");
    assert_eq!(merge_partials(&[]).unwrap_err(), ShardError::Empty);
}

#[test]
fn oversharded_jobs_merge_through_empty_shards() {
    // 7 shards of a 4-item test set: some shards cover nothing; the merge
    // must still reproduce the unsharded bits.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x4A), 30, 4, 2);
    let reference = knn_class_shapley_with_threads(&train, &test, 1, 1);
    let parts: Vec<ShardPartial> = (0..7)
        .map(|i| knn_class_shapley_shard(&train, &test, 1, ShardSpec::new(i, 7), 1))
        .collect();
    assert!(parts.iter().any(|p| p.meta.item_lo == p.meta.item_hi));
    let merged = merge_partials(&parts).expect("merge with empty shards");
    assert_bitwise(&reference, &merged.values, "oversharded");
}

#[test]
fn shard_files_are_canonical_across_thread_counts() {
    // Same shard computed at 1 and 8 threads serializes to identical BYTES —
    // the property that lets operators checksum shard files.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x5B), 60, 12, 3);
    for i in 0..2 {
        let a = knn_class_shapley_shard(&train, &test, 2, ShardSpec::new(i, 2), 1);
        let b = knn_class_shapley_shard(&train, &test, 2, ShardSpec::new(i, 2), 8);
        assert_eq!(a.to_bytes(), b.to_bytes(), "shard {i} bytes");
    }
}
