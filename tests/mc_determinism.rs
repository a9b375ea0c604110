//! Determinism battery for the parallel Monte Carlo runtime (ISSUE 3),
//! mirroring `parallel_determinism.rs` for the stochastic half of the
//! codebase: for every estimator routed through counter-based RNG streams and
//! compensated blocked reductions — baseline MC, improved MC (classification
//! and regression), group testing, and the truncated multi-test average —
//! the output at 2 and 8 threads must be **bitwise-identical** to the
//! 1-thread path, permutation counts included.
//!
//! Two layers, as in the exact-estimator battery:
//! * fixed-seed instances large enough that every thread count schedules
//!   many blocks;
//! * proptest over randomized instances (deterministically seeded by the
//!   shim), plus golden-value checks against the O(2^N) enumeration so the
//!   parallel rewrite is held to the estimators' statistical contract, not
//!   just to self-consistency.

use knnshap::knn::WeightFn;
use knnshap::valuation::exact_enum::shapley_enumeration;
use knnshap::valuation::group_testing::group_testing_shapley_with_threads;
use knnshap::valuation::mc::{
    mc_shapley_baseline_with_threads, mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule,
};
use knnshap::valuation::utility::{KnnClassUtility, KnnRegUtility, Utility};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{assert_bitwise, bitwise_ok, random_class, random_reg, truncated, THREAD_COUNTS};

// ---------------------------------------------------------------------------
// Fixed-seed instances: every estimator, both stopping-rule scheduling paths.
// ---------------------------------------------------------------------------

#[test]
fn baseline_mc_bitwise_across_thread_counts() {
    for seed in [7u64, 0xD5] {
        let (train, test) = random_class(&mut StdRng::seed_from_u64(seed), 60, 4, 3);
        let u = KnnClassUtility::unweighted(&train, &test, 3);
        for rule in [
            StoppingRule::Fixed(200),
            StoppingRule::Heuristic {
                threshold: 1e-4,
                max: 500,
            },
        ] {
            let serial = mc_shapley_baseline_with_threads(&u, rule, seed, None, 1);
            for threads in THREAD_COUNTS {
                let par = mc_shapley_baseline_with_threads(&u, rule, seed, None, threads);
                assert_eq!(serial.permutations, par.permutations, "seed={seed}");
                assert_bitwise(
                    &serial.values,
                    &par.values,
                    &format!("baseline seed={seed} t={threads}"),
                );
            }
        }
    }
}

#[test]
fn improved_mc_class_bitwise_across_thread_counts() {
    for seed in [3u64, 1234] {
        let (train, test) = random_class(&mut StdRng::seed_from_u64(seed), 300, 8, 3);
        let inc = IncKnnUtility::classification(&train, &test, 5, WeightFn::Uniform);
        for rule in [
            StoppingRule::Fixed(400),
            StoppingRule::Heuristic {
                threshold: 1e-4,
                max: 1000,
            },
        ] {
            let serial = mc_shapley_improved_with_threads(&inc, rule, seed, None, 1);
            for threads in THREAD_COUNTS {
                let par = mc_shapley_improved_with_threads(&inc, rule, seed, None, threads);
                assert_eq!(serial.permutations, par.permutations, "seed={seed}");
                assert_bitwise(
                    &serial.values,
                    &par.values,
                    &format!("improved seed={seed} t={threads}"),
                );
            }
        }
    }
}

#[test]
fn improved_mc_reg_bitwise_across_thread_counts() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(17), 200, 6);
    let inc = IncKnnUtility::regression(&train, &test, 3, WeightFn::Uniform);
    let serial = mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(300), 11, None, 1);
    for threads in THREAD_COUNTS {
        let par =
            mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(300), 11, None, threads);
        assert_bitwise(&serial.values, &par.values, &format!("reg t={threads}"));
    }
}

#[test]
fn group_testing_bitwise_across_thread_counts() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(5), 40, 6, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let serial = group_testing_shapley_with_threads(&u, 5_000, 21, 1);
    for threads in THREAD_COUNTS {
        let par = group_testing_shapley_with_threads(&u, 5_000, 21, threads);
        assert_eq!(serial.tests, par.tests);
        assert_bitwise(&serial.values, &par.values, &format!("gt t={threads}"));
    }
}

#[test]
fn truncated_multi_test_bitwise_across_thread_counts() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(29), 250, 300, 3);
    let serial = truncated(&train, &test, 3, 0.1, 1);
    for threads in THREAD_COUNTS {
        let par = truncated(&train, &test, 3, 0.1, threads);
        assert_bitwise(&serial, &par, &format!("truncated t={threads}"));
    }
}

#[test]
fn snapshots_and_early_stop_identical_across_thread_counts() {
    // The round path's per-permutation bookkeeping (snapshots, heuristic
    // stop) must replay identically, not just the final vector.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(2026), 80, 5, 2);
    let inc = IncKnnUtility::classification(&train, &test, 2, WeightFn::Uniform);
    let serial = mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(120), 7, Some(25), 1);
    assert_eq!(serial.snapshots.len(), 4);
    for threads in THREAD_COUNTS {
        let par =
            mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(120), 7, Some(25), threads);
        assert_eq!(par.snapshots.len(), serial.snapshots.len());
        for ((ta, va), (tb, vb)) in serial.snapshots.iter().zip(&par.snapshots) {
            assert_eq!(ta, tb);
            assert_bitwise(va, vb, &format!("snapshot t={ta} threads={threads}"));
        }
    }
}

#[test]
fn zero_budget_matches_serial_empty_run() {
    // Degenerate budget: no permutations at all, on either scheduling path.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(1), 12, 2, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let inc = IncKnnUtility::classification(&train, &test, 2, WeightFn::Uniform);
    for snapshot_every in [None, Some(5)] {
        let what = format!("zero budget, snapshots {snapshot_every:?}");
        let rule = StoppingRule::Fixed(0);
        let serial = mc_shapley_improved_with_threads(&inc, rule, 9, snapshot_every, 1);
        let par = mc_shapley_improved_with_threads(&inc, rule, 9, snapshot_every, 8);
        assert_eq!((serial.permutations, par.permutations), (0, 0), "{what}");
        assert_bitwise(&serial.values, &par.values, &what);
        let serial = mc_shapley_baseline_with_threads(&u, rule, 9, snapshot_every, 1);
        let par = mc_shapley_baseline_with_threads(&u, rule, 9, snapshot_every, 8);
        assert_eq!((serial.permutations, par.permutations), (0, 0), "{what}");
        assert_bitwise(&serial.values, &par.values, &what);
    }
}

#[test]
fn repeated_runs_never_wobble() {
    // Same input, same thread count, many runs: scheduling (and therefore
    // stealing patterns) varies — the MC Shapley vector must not.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(99), 150, 6, 2);
    let inc = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
    let reference = mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(200), 4, None, 8);
    for run in 0..5 {
        let again = mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(200), 4, None, 8);
        assert_bitwise(&reference.values, &again.values, &format!("repeat {run}"));
    }
}

// ---------------------------------------------------------------------------
// Golden values: the parallel estimators against the O(2^N) enumeration.
// ---------------------------------------------------------------------------

#[test]
fn parallel_mc_converges_to_enumeration() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(41), 10, 3, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let truth = shapley_enumeration(&u);
    let inc = IncKnnUtility::classification(&train, &test, 2, WeightFn::Uniform);
    for threads in [1usize, 8] {
        let imp =
            mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(6_000), 13, None, threads);
        assert!(
            imp.values.max_abs_diff(&truth) < 0.03,
            "improved t={threads}: {}",
            imp.values.max_abs_diff(&truth)
        );
        let base =
            mc_shapley_baseline_with_threads(&u, StoppingRule::Fixed(3_000), 13, None, threads);
        assert!(
            base.values.max_abs_diff(&truth) < 0.04,
            "baseline t={threads}: {}",
            base.values.max_abs_diff(&truth)
        );
    }
    let gt = group_testing_shapley_with_threads(&u, 60_000, 13, 8);
    assert!(
        gt.values.max_abs_diff(&truth) < 0.06,
        "group testing: {}",
        gt.values.max_abs_diff(&truth)
    );
    assert!((gt.values.total() - u.grand()).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Randomized instances (deterministically seeded by the proptest shim).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_improved_mc_bitwise(
        seed in 0u64..1_000_000,
        n in 5usize..40,
        n_test in 1usize..8,
        k in 1usize..5,
        perms in 1usize..120,
    ) {
        let (train, test) = random_class(&mut StdRng::seed_from_u64(seed), n, n_test, 3);
        let inc = IncKnnUtility::classification(&train, &test, k, WeightFn::Uniform);
        let serial =
            mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(perms), seed, None, 1);
        for threads in THREAD_COUNTS {
            let par = mc_shapley_improved_with_threads(
                &inc, StoppingRule::Fixed(perms), seed, None, threads,
            );
            prop_assert!(bitwise_ok(&serial.values, &par.values), "threads={threads}");
        }
    }

    #[test]
    fn prop_baseline_mc_bitwise(
        seed in 0u64..1_000_000,
        n in 4usize..20,
        n_test in 1usize..6,
        perms in 1usize..60,
    ) {
        let (train, test) = random_class(&mut StdRng::seed_from_u64(seed), n, n_test, 2);
        let u = KnnClassUtility::unweighted(&train, &test, 2);
        let serial =
            mc_shapley_baseline_with_threads(&u, StoppingRule::Fixed(perms), seed, None, 1);
        for threads in THREAD_COUNTS {
            let par = mc_shapley_baseline_with_threads(
                &u, StoppingRule::Fixed(perms), seed, None, threads,
            );
            prop_assert!(bitwise_ok(&serial.values, &par.values), "threads={threads}");
        }
    }

    #[test]
    fn prop_reg_improved_tracks_enumeration(
        seed in 0u64..100_000,
        n in 4usize..9,
    ) {
        // Golden-value proptest: the parallel improved estimator vs the
        // enumeration on regression games small enough to enumerate.
        let (train, test) = random_reg(&mut StdRng::seed_from_u64(seed), n, 2);
        let u = KnnRegUtility::unweighted(&train, &test, 2);
        let truth = shapley_enumeration(&u);
        let inc = IncKnnUtility::regression(&train, &test, 2, WeightFn::Uniform);
        let est = mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(4_000), seed, None, 8);
        let spread = truth
            .as_slice()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-9);
        prop_assert!(
            est.values.max_abs_diff(&truth) < 0.2 * spread + 0.05,
            "err={}",
            est.values.max_abs_diff(&truth)
        );
    }
}
