//! Determinism battery for the adaptive MC scheduler (ISSUE 9), extending
//! `mc_determinism.rs`: the measured-cost-model planners may re-tile *which
//! permutations run in which round, chunk and block*, but the output of
//! every estimator family must stay **bitwise-identical** to the static
//! schedule at every thread count — and under adversarially-forced
//! schedules pinned through the `KNNSHAP_SCHED_FORCE` test hook.
//!
//! Three layers:
//! * adaptive vs static, per family (baseline MC, improved MC class + reg,
//!   group testing, truncated), at 1/2/8 threads, covering both scheduling
//!   shapes (fixed budget → fan-out; heuristic/snapshots → rounds);
//! * forced pathological tilings (serial, one-permutation chunks, absurd
//!   block sizes, garbage strings) against the same static goldens;
//! * snapshot trajectories, not just final vectors — the round path's
//!   per-permutation bookkeeping must replay identically however the
//!   scheduler slices the rounds.
//!
//! `KNNSHAP_SCHED_FORCE` is process-global, and the test harness runs tests
//! of this binary concurrently, so every test here serializes on `ENV_LOCK`
//! (the unforced tests too — they must observe an *unset* variable).

use knnshap::knn::WeightFn;
use knnshap::valuation::group_testing::{
    group_testing_shapley_adaptive, group_testing_shapley_with_threads,
};
use knnshap::valuation::mc::{
    mc_shapley_baseline_adaptive, mc_shapley_baseline_with_threads, mc_shapley_improved_adaptive,
    mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule,
};
use knnshap::valuation::truncated::truncated_class_shapley_adaptive;
use knnshap::valuation::utility::KnnClassUtility;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

mod common;
use common::{assert_bitwise, random_class, random_reg, truncated};

/// Serializes every test in this binary around the process-global
/// `KNNSHAP_SCHED_FORCE` variable. Poisoning is ignored: a failed sibling
/// must not mask this test's own verdict.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_force<R>(force: Option<&str>, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    match force {
        Some(v) => std::env::set_var("KNNSHAP_SCHED_FORCE", v),
        None => std::env::remove_var("KNNSHAP_SCHED_FORCE"),
    }
    let out = f();
    std::env::remove_var("KNNSHAP_SCHED_FORCE");
    out
}

const THREADS: [usize; 3] = [1, 2, 8];

/// Adversarial tilings: serial everything, one-permutation chunks on a wide
/// pool, absurd block sizes, partial specs, and garbage that must parse to
/// "no constraint" rather than to a behavior change.
const FORCES: [&str; 6] = [
    "serial",
    "threads=8,block=1,round=3,chunk=1",
    "threads=2,block=7",
    "round=1,chunk=1",
    "threads=8,block=1000000,round=4096,chunk=4096",
    "garbage,threads=banana,block=",
];

#[test]
fn adaptive_baseline_bitwise_matches_static() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(7), 60, 4, 3);
    let u = KnnClassUtility::unweighted(&train, &test, 3);
    for rule in [
        StoppingRule::Fixed(200),
        StoppingRule::Heuristic {
            threshold: 1e-4,
            max: 500,
        },
    ] {
        let golden = mc_shapley_baseline_with_threads(&u, rule, 7, None, 1);
        for threads in THREADS {
            let adaptive = with_force(None, || {
                mc_shapley_baseline_adaptive(&u, rule, 7, None, threads)
            });
            assert_eq!(golden.permutations, adaptive.permutations, "t={threads}");
            assert_bitwise(
                &golden.values,
                &adaptive.values,
                &format!("baseline adaptive t={threads}"),
            );
        }
    }
}

#[test]
fn adaptive_improved_bitwise_matches_static_with_snapshots() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(3), 120, 6, 3);
    let inc = IncKnnUtility::classification(&train, &test, 5, WeightFn::Uniform);
    for (rule, snapshot_every) in [
        (StoppingRule::Fixed(300), None),
        (StoppingRule::Fixed(120), Some(25)),
        (
            StoppingRule::Heuristic {
                threshold: 1e-4,
                max: 600,
            },
            None,
        ),
    ] {
        let golden = mc_shapley_improved_with_threads(&inc, rule, 3, snapshot_every, 1);
        for threads in THREADS {
            let adaptive = with_force(None, || {
                mc_shapley_improved_adaptive(&inc, rule, 3, snapshot_every, threads)
            });
            assert_eq!(golden.permutations, adaptive.permutations, "t={threads}");
            assert_bitwise(
                &golden.values,
                &adaptive.values,
                &format!("improved adaptive t={threads}"),
            );
            assert_eq!(golden.snapshots.len(), adaptive.snapshots.len());
            for ((ta, va), (tb, vb)) in golden.snapshots.iter().zip(&adaptive.snapshots) {
                assert_eq!(ta, tb);
                assert_bitwise(va, vb, &format!("snapshot t={ta} threads={threads}"));
            }
        }
    }
}

#[test]
fn adaptive_improved_reg_bitwise_matches_static() {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(17), 100, 5);
    let inc = IncKnnUtility::regression(&train, &test, 3, WeightFn::Uniform);
    let golden = mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(200), 11, None, 1);
    for threads in THREADS {
        let adaptive = with_force(None, || {
            mc_shapley_improved_adaptive(&inc, StoppingRule::Fixed(200), 11, None, threads)
        });
        assert_bitwise(
            &golden.values,
            &adaptive.values,
            &format!("reg adaptive t={threads}"),
        );
    }
}

#[test]
fn adaptive_group_testing_bitwise_matches_static() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(5), 40, 6, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    let golden = group_testing_shapley_with_threads(&u, 3_000, 21, 1);
    for threads in THREADS {
        let adaptive = with_force(None, || {
            group_testing_shapley_adaptive(&u, 3_000, 21, threads)
        });
        assert_eq!(golden.tests, adaptive.tests);
        assert_bitwise(
            &golden.values,
            &adaptive.values,
            &format!("gt adaptive t={threads}"),
        );
    }
}

#[test]
fn adaptive_truncated_bitwise_matches_static() {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(29), 150, 200, 3);
    let golden = truncated(&train, &test, 3, 0.1, 1);
    for threads in THREADS {
        let adaptive = with_force(None, || {
            truncated_class_shapley_adaptive(&train, &test, 3, 0.1, threads)
        });
        assert_bitwise(
            &golden,
            &adaptive,
            &format!("truncated adaptive t={threads}"),
        );
    }
}

#[test]
fn forced_schedules_never_move_a_bit() {
    // Every family, every adversarial tiling, against goldens computed on
    // the unforced static path. A forced schedule may slow the run down; it
    // must not change one output bit anywhere.
    let (ctrain, ctest) = random_class(&mut StdRng::seed_from_u64(2027), 70, 5, 3);
    let u = KnnClassUtility::unweighted(&ctrain, &ctest, 3);
    let inc = IncKnnUtility::classification(&ctrain, &ctest, 3, WeightFn::Uniform);
    let heuristic = StoppingRule::Heuristic {
        threshold: 1e-4,
        max: 300,
    };

    let g_base = mc_shapley_baseline_with_threads(&u, StoppingRule::Fixed(90), 13, None, 1);
    let g_imp_fan = mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(90), 13, None, 1);
    let g_imp_rounds = mc_shapley_improved_with_threads(&inc, heuristic, 13, Some(20), 1);
    let g_gt = group_testing_shapley_with_threads(&u, 1_500, 13, 1);
    let g_trunc = truncated(&ctrain, &ctest, 3, 0.1, 1);

    for force in FORCES {
        for threads in [2usize, 8] {
            with_force(Some(force), || {
                let base =
                    mc_shapley_baseline_adaptive(&u, StoppingRule::Fixed(90), 13, None, threads);
                assert_eq!(
                    g_base.permutations, base.permutations,
                    "{force} t={threads}"
                );
                assert_bitwise(
                    &g_base.values,
                    &base.values,
                    &format!("baseline forced '{force}' t={threads}"),
                );

                let fan =
                    mc_shapley_improved_adaptive(&inc, StoppingRule::Fixed(90), 13, None, threads);
                assert_bitwise(
                    &g_imp_fan.values,
                    &fan.values,
                    &format!("improved fan-out forced '{force}' t={threads}"),
                );

                let rounds = mc_shapley_improved_adaptive(&inc, heuristic, 13, Some(20), threads);
                assert_eq!(g_imp_rounds.permutations, rounds.permutations, "{force}");
                assert_bitwise(
                    &g_imp_rounds.values,
                    &rounds.values,
                    &format!("improved rounds forced '{force}' t={threads}"),
                );
                assert_eq!(g_imp_rounds.snapshots.len(), rounds.snapshots.len());
                for ((ta, va), (tb, vb)) in g_imp_rounds.snapshots.iter().zip(&rounds.snapshots) {
                    assert_eq!(ta, tb);
                    assert_bitwise(va, vb, &format!("snapshot t={ta} forced '{force}'"));
                }

                let gt = group_testing_shapley_adaptive(&u, 1_500, 13, threads);
                assert_eq!(g_gt.tests, gt.tests);
                assert_bitwise(
                    &g_gt.values,
                    &gt.values,
                    &format!("group testing forced '{force}' t={threads}"),
                );

                let trunc = truncated_class_shapley_adaptive(&ctrain, &ctest, 3, 0.1, threads);
                assert_bitwise(
                    &g_trunc,
                    &trunc,
                    &format!("truncated forced '{force}' t={threads}"),
                );
            });
        }
    }
}

#[test]
fn adaptive_zero_budget_matches_static_empty_run() {
    // Degenerate budget: no permutations at all. The adaptive entry points
    // must not even attempt a measurement (there is nothing to measure on)
    // and must return the same all-zero vector as the static path.
    let (train, test) = random_class(&mut StdRng::seed_from_u64(1), 12, 2, 2);
    let inc = IncKnnUtility::classification(&train, &test, 2, WeightFn::Uniform);
    let golden = mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(0), 9, None, 1);
    let adaptive = with_force(None, || {
        mc_shapley_improved_adaptive(&inc, StoppingRule::Fixed(0), 9, None, 8)
    });
    assert_eq!(golden.permutations, adaptive.permutations);
    assert_bitwise(&golden.values, &adaptive.values, "zero budget");
}
