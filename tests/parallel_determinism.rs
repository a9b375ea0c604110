//! Determinism battery for the work-stealing runtime (ISSUE 2): for every
//! estimator migrated onto `knnshap_parallel`, the parallel output with 1, 2
//! and 8 threads must be **bitwise-identical** to the serial path — not
//! approximately equal, identical to the last mantissa bit. This is the
//! `par_map_reduce` contract (fixed block partition + fixed reduction order)
//! checked end-to-end through the real Shapley recursions.
//!
//! Two layers:
//! * proptest over randomized instances (the shim seeds deterministically
//!   from the test name, so every run replays the same pinned cases);
//! * fixed-seed `StdRng` instances large enough (hundreds of test points)
//!   that every thread count actually schedules many blocks.

use knnshap::knn::classifier::KnnClassifier;
use knnshap::knn::WeightFn;
use knnshap::valuation::exact_unweighted::knn_class_shapley_with_threads;
use knnshap::valuation::exact_weighted::{weighted_knn_class_shapley, weighted_knn_reg_shapley};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{assert_bitwise, bitwise_ok, exact_reg, random_class, random_reg, THREAD_COUNTS};

// ---------------------------------------------------------------------------
// Fixed-seed instances, large enough to schedule many blocks per region.
// ---------------------------------------------------------------------------

#[test]
fn unweighted_classification_bitwise_across_thread_counts() {
    for seed in [7u64, 1234, 0xD5] {
        let (train, test) = random_class(&mut StdRng::seed_from_u64(seed), 200, 300, 3);
        for k in [1usize, 5, 16] {
            let serial = knn_class_shapley_with_threads(&train, &test, k, 1);
            for threads in THREAD_COUNTS {
                let par = knn_class_shapley_with_threads(&train, &test, k, threads);
                assert_bitwise(
                    &serial,
                    &par,
                    &format!("class seed={seed} k={k} t={threads}"),
                );
            }
        }
    }
}

#[test]
fn unweighted_regression_bitwise_across_thread_counts() {
    for seed in [3u64, 99] {
        let (train, test) = random_reg(&mut StdRng::seed_from_u64(seed), 150, 300);
        for k in [1usize, 7] {
            let serial = exact_reg(&train, &test, k, 1);
            for threads in THREAD_COUNTS {
                let par = exact_reg(&train, &test, k, threads);
                assert_bitwise(&serial, &par, &format!("reg seed={seed} k={k} t={threads}"));
            }
        }
    }
}

#[test]
fn weighted_classification_bitwise_across_thread_counts() {
    // Theorem 7 is O(N^K): keep N modest, push the test-point count instead
    // so the parallel region still spans many blocks.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(41), 40, 120, 3);
    let w = WeightFn::InverseDistance { eps: 1e-3 };
    let serial = weighted_knn_class_shapley(&train, &test, 2, w, 1);
    for threads in THREAD_COUNTS {
        let par = weighted_knn_class_shapley(&train, &test, 2, w, threads);
        assert_bitwise(&serial, &par, &format!("weighted class t={threads}"));
    }
}

#[test]
fn weighted_regression_bitwise_across_thread_counts() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(17), 30, 120);
    let w = WeightFn::Exponential { beta: 0.5 };
    let serial = weighted_knn_reg_shapley(&train, &test, 2, w, 1);
    for threads in THREAD_COUNTS {
        let par = weighted_knn_reg_shapley(&train, &test, 2, w, threads);
        assert_bitwise(&serial, &par, &format!("weighted reg t={threads}"));
    }
}

#[test]
fn repeated_runs_never_wobble() {
    // Same input, same thread count, many runs: scheduling (and therefore
    // stealing patterns) varies — the Shapley vector must not.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(2026), 120, 200, 2);
    let reference = knn_class_shapley_with_threads(&train, &test, 3, 8);
    for run in 0..5 {
        let again = knn_class_shapley_with_threads(&train, &test, 3, 8);
        assert_bitwise(&reference, &again, &format!("repeat run {run}"));
    }
}

#[test]
fn classifier_accuracy_identical_across_thread_counts() {
    // The batched prediction path (par_map over queries) is order-preserving
    // by construction; pin that too.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(5), 300, 400, 4);
    let clf = KnnClassifier::unweighted(&train, 5);
    let serial = clf.accuracy(&test, 1);
    for threads in THREAD_COUNTS {
        assert_eq!(serial.to_bits(), clf.accuracy(&test, threads).to_bits());
    }
}

// ---------------------------------------------------------------------------
// Randomized instances (deterministically seeded by the proptest shim).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_unweighted_class_bitwise(
        seed in 0u64..1_000_000,
        n in 5usize..60,
        n_test in 1usize..40,
        k in 1usize..8,
    ) {
        let (train, test) = random_class(&mut StdRng::seed_from_u64(seed), n, n_test, 3);
        let serial = knn_class_shapley_with_threads(&train, &test, k, 1);
        for threads in THREAD_COUNTS {
            let par = knn_class_shapley_with_threads(&train, &test, k, threads);
            prop_assert!(bitwise_ok(&serial, &par), "threads={threads}");
        }
    }

    #[test]
    fn prop_unweighted_reg_bitwise(
        seed in 0u64..1_000_000,
        n in 5usize..50,
        n_test in 1usize..40,
        k in 1usize..8,
    ) {
        let (train, test) = random_reg(&mut StdRng::seed_from_u64(seed), n, n_test);
        let serial = exact_reg(&train, &test, k, 1);
        for threads in THREAD_COUNTS {
            let par = exact_reg(&train, &test, k, threads);
            prop_assert!(bitwise_ok(&serial, &par), "threads={threads}");
        }
    }

    #[test]
    fn prop_weighted_class_bitwise(
        seed in 0u64..1_000_000,
        n in 4usize..14,
        n_test in 1usize..24,
        k in 1usize..4,
    ) {
        let (train, test) = random_class(&mut StdRng::seed_from_u64(seed), n, n_test, 2);
        let w = WeightFn::InverseDistance { eps: 1e-3 };
        let serial = weighted_knn_class_shapley(&train, &test, k, w, 1);
        for threads in THREAD_COUNTS {
            let par = weighted_knn_class_shapley(&train, &test, k, w, threads);
            prop_assert!(bitwise_ok(&serial, &par), "threads={threads}");
        }
    }

    #[test]
    fn prop_weighted_reg_bitwise(
        seed in 0u64..1_000_000,
        n in 4usize..12,
        n_test in 1usize..24,
        k in 1usize..4,
    ) {
        let (train, test) = random_reg(&mut StdRng::seed_from_u64(seed), n, n_test);
        let w = WeightFn::Exponential { beta: 1.0 };
        let serial = weighted_knn_reg_shapley(&train, &test, k, w, 1);
        for threads in THREAD_COUNTS {
            let par = weighted_knn_reg_shapley(&train, &test, k, w, threads);
            prop_assert!(bitwise_ok(&serial, &par), "threads={threads}");
        }
    }
}
