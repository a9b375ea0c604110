//! The group-testing estimator of the authors' prior work ([JDW+19],
//! "Towards Efficient Data Valuation Based on the Shapley Value", AISTATS
//! 2019) — the third baseline of the paper's Fig. 6 comparison ("we also
//! tested the approximation approach proposed in our prior work … the
//! experiment for 1000 training points did not finish in 4 hours").
//!
//! The estimator treats each utility evaluation as a *group test*:
//!
//! 1. draw a coalition size `k ~ q` with `q(k) ∝ 1/k + 1/(N−k)`
//!    (k = 1 … N−1), then a uniform size-`k` coalition `S_t`;
//! 2. record `u_t = ν(S_t)` and the membership vector `β_t`;
//! 3. the Shapley *difference* of any pair is estimated by
//!    `Δ_ij = (Z/T) Σ_t u_t (β_ti − β_tj)` with `Z = 2 Σ_{k=1}^{N−1} 1/k`
//!    (an unbiased estimator — the sampling distribution is engineered so
//!    membership asymmetry integrates to the Shapley difference);
//! 4. recover values consistent with the differences and with group
//!    rationality `Σ ŝ = ν(I)`.
//!
//! [JDW+19] phrase step 4 as a feasibility program solved by an LP; we use
//! the least-squares projection instead, which has the closed form
//! `ŝ_i = ν(I)/N + (1/N) Σ_j Δ_ij` — the unique minimizer of
//! `Σ_{ij} ((ŝ_i − ŝ_j) − Δ_ij)²` on the efficiency hyperplane. It needs no
//! LP machinery and, conveniently, `Σ_j Δ_ij = (Z/T) Σ_t u_t (N·β_ti − k_t)`
//! collapses the recovery to O(T·N) with no pairwise matrix at all.
//!
//! Why keep a strictly-worse baseline? Because the paper's headline claim is
//! *relative*: its exact algorithm beats the best generic SV estimators.
//! This module is that generic competitor, wired into the Fig. 6 harness.

use crate::types::ShapleyValues;
use crate::utility::Utility;
use knnshap_numerics::exact::{ExactSum, ExactVec};
use knnshap_numerics::sampling::{identity_shuffle, RngStreams};
use rand::Rng;

/// `Z = 2 Σ_{k=1}^{N−1} 1/k` — the normalizer of the sampling distribution.
pub fn z_constant(n: usize) -> f64 {
    assert!(n >= 2, "need at least two players");
    2.0 * (1..n).map(|k| 1.0 / k as f64).sum::<f64>()
}

/// Number of tests for an (ε, δ)-style guarantee on all pairwise
/// differences, via Hoeffding over the `T` i.i.d. terms of each `Δ_ij`
/// (each bounded by `Z·r`, where `r` bounds `|ν|`) and a union bound over
/// the `N(N−1)/2` pairs:
///
/// `T ≥ (2 Z² r² / ε²) · ln(N(N−1)/δ)`.
///
/// With `Z ≈ 2 ln N` this is the `O((log N)² /ε² · log(N/δ))` utility-
/// evaluation budget of [JDW+19] — compare Fig. 2's `O(N log N)` *total*
/// cost for the exact Theorem 1 algorithm (each group test itself costs a
/// full KNN utility evaluation!).
pub fn group_testing_tests(n: usize, eps: f64, delta: f64, range: f64) -> usize {
    assert!(eps > 0.0 && range > 0.0, "eps and range must be positive");
    assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta in (0,1)");
    let z = z_constant(n);
    let pairs = (n * (n - 1)) as f64;
    let t = 2.0 * z * z * range * range / (eps * eps) * (pairs / delta).ln();
    t.ceil() as usize
}

/// Outcome of a group-testing run.
#[derive(Debug, Clone)]
pub struct GroupTestingResult {
    /// Recovered values (`Σ = ν(I)` exactly, by construction).
    pub values: ShapleyValues,
    /// Utility evaluations performed (= the number of tests).
    pub tests: usize,
}

/// Run the group-testing estimator with a fixed test budget on the workspace
/// default worker count.
///
/// # Panics
///
/// Panics if the game has fewer than two players or `tests == 0`.
pub fn group_testing_shapley<U: Utility + ?Sized>(
    u: &U,
    tests: usize,
    seed: u64,
) -> GroupTestingResult {
    group_testing_shapley_with_threads(u, tests, seed, knnshap_parallel::current_threads())
}

/// `q(k) ∝ 1/k + 1/(N−k)`, cumulative for inverse-CDF sampling.
fn size_cdf(n: usize) -> Vec<f64> {
    let z = z_constant(n);
    let mut cdf = Vec::with_capacity(n - 1);
    let mut acc = 0.0f64;
    for k in 1..n {
        acc += (1.0 / k as f64 + 1.0 / (n - k) as f64) / z;
        cdf.push(acc);
    }
    cdf
}

/// Value recovery from the accumulated sums — the single finalization both
/// [`group_testing_shapley_with_threads`] and the shard merge
/// ([`crate::sharding::merge_partials`]) run, so the two paths cannot
/// drift: `ŝ_i = ν(I)/N + (Z/T)(point_i − shared)`, then a re-projection
/// onto the efficiency hyperplane to scrub residual float drift.
pub(crate) fn recover_values(
    grand: f64,
    tests: usize,
    point: Vec<f64>,
    shared: f64,
) -> ShapleyValues {
    let n = point.len();
    let scale = z_constant(n) / tests as f64;
    let values: Vec<f64> = point
        .into_iter()
        .map(|p| grand / n as f64 + scale * (p - shared))
        .collect();
    let mut sv = ShapleyValues::new(values);
    let drift = (sv.total() - grand) / n as f64;
    for v in sv.as_mut_slice() {
        *v -= drift;
    }
    sv
}

/// [`group_testing_shapley`] with an explicit worker count.
///
/// Test `t` draws its coalition from counter-based stream `t` of `seed` (a
/// pure function of `(seed, t)`), and the per-point accumulators are exact —
/// so the recovered values are **bitwise-identical for every `threads`
/// value** and for every sharding of the test-stream range (the
/// `GroupTesting` family of [`crate::estimator::Estimator`]), matching the
/// contract of the Monte Carlo estimators in [`crate::mc`].
pub fn group_testing_shapley_with_threads<U: Utility + ?Sized>(
    u: &U,
    tests: usize,
    seed: u64,
    threads: usize,
) -> GroupTestingResult {
    assert!(tests >= 1, "need at least one test");
    let (point, shared) = gt_sums(u, seed, 0..tests, threads);
    let values = recover_values(u.grand(), tests, point.values(), shared.value());
    GroupTestingResult { values, tests }
}

/// The fold over coalition-test streams `range` — shared by the
/// fixed-budget estimator and [`crate::estimator::Estimator`]: exact per-point/shared accumulators in
/// [`crate::sharding::static_fold_block`] units. The tiling is bitwise-free:
/// accumulators are exact, so every block partition deposits the same
/// multiset of summands.
pub(crate) fn gt_sums<U: Utility + ?Sized>(
    u: &U,
    seed: u64,
    range: std::ops::Range<usize>,
    threads: usize,
) -> (ExactVec, ExactSum) {
    let n = u.n();
    assert!(n >= 2, "need at least two players");
    let streams = RngStreams::new(seed);
    let cdf = size_cdf(n);

    // Accumulate per-point weighted membership sums so that
    //   ŝ_i = ν(I)/N + (Z/T)·(point_i − shared)    (see module docs);
    // members of test t pick up u_t (= u_t·N/N), every point owes the
    // `u_t·k_t/N` share, tracked once as a scalar instead of N subtractions.
    crate::sharding::exact_fold(
        range.len(),
        threads,
        crate::sharding::static_fold_block(range.len(), threads),
        || (ExactVec::zeros(n), ExactSum::new()),
        || (0..n).collect::<Vec<usize>>(),
        |pool, (point, shared), items| {
            for t in items {
                // Test t's coalition: a size from q, then a shuffled pool —
                // a pure function of (seed, t).
                let mut rng = streams.stream((range.start + t) as u64);
                let x: f64 = rng.gen();
                let k = (cdf.partition_point(|&c| c < x) + 1).min(n - 1);
                identity_shuffle(&mut rng, pool);
                let ut = u.eval(&pool[..k]);
                if ut == 0.0 {
                    continue;
                }
                for &i in &pool[..k] {
                    point.add(i, ut);
                }
                shared.add(ut * k as f64 / n as f64);
            }
        },
        |(point, shared), (p, s)| {
            point.merge(p);
            shared.merge(s);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_enum::shapley_enumeration;
    use crate::exact_unweighted::knn_class_shapley_with_threads;
    use crate::utility::KnnClassUtility;
    use knnshap_datasets::synth::blobs::{self, BlobConfig};
    use knnshap_datasets::{ClassDataset, Features};

    fn small_game() -> (ClassDataset, ClassDataset) {
        let cfg = BlobConfig {
            n: 10,
            dim: 2,
            n_classes: 2,
            cluster_std: 0.6,
            center_scale: 2.5,
            seed: 4,
        };
        (blobs::generate(&cfg), blobs::queries(&cfg, 3, 9))
    }

    #[test]
    fn z_constant_matches_harmonic_sum() {
        assert!((z_constant(2) - 2.0).abs() < 1e-12);
        assert!((z_constant(4) - 2.0 * (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        let (train, test) = small_game();
        let u = KnnClassUtility::unweighted(&train, &test, 2);
        let serial = group_testing_shapley_with_threads(&u, 2000, 9, 1).values;
        for threads in [2usize, 8] {
            let par = group_testing_shapley_with_threads(&u, 2000, 9, threads).values;
            for i in 0..10 {
                assert_eq!(
                    serial.get(i).to_bits(),
                    par.get(i).to_bits(),
                    "i={i} threads={threads}"
                );
            }
        }
    }

    /// One-test claim units (a 32-test budget at 8 threads) give the serial
    /// bits.
    #[test]
    fn one_test_claim_units_match_serial_bits() {
        let (train, test) = small_game();
        let u = KnnClassUtility::unweighted(&train, &test, 2);
        assert_eq!(crate::sharding::static_fold_block(32, 8), 1);
        let serial = group_testing_shapley_with_threads(&u, 32, 13, 1);
        let par = group_testing_shapley_with_threads(&u, 32, 13, 8);
        assert_eq!(par.tests, serial.tests);
        for i in 0..u.n() {
            assert_eq!(
                serial.values.get(i).to_bits(),
                par.values.get(i).to_bits(),
                "i={i}"
            );
        }
    }

    #[test]
    fn efficiency_holds_exactly() {
        let (train, test) = small_game();
        let u = KnnClassUtility::unweighted(&train, &test, 2);
        let r = group_testing_shapley(&u, 500, 7);
        assert!((r.values.total() - u.grand()).abs() < 1e-9);
        assert_eq!(r.tests, 500);
    }

    #[test]
    fn converges_to_enumeration_on_small_games() {
        let (train, test) = small_game();
        let u = KnnClassUtility::unweighted(&train, &test, 2);
        let truth = shapley_enumeration(&u);
        let est = group_testing_shapley(&u, 60_000, 11).values;
        let err = est.max_abs_diff(&truth);
        assert!(err < 0.05, "err = {err}; truth {:?}", truth.as_slice());
    }

    #[test]
    fn more_tests_reduce_error() {
        let (train, test) = small_game();
        let u = KnnClassUtility::unweighted(&train, &test, 2);
        let truth = shapley_enumeration(&u);
        // average over seeds to smooth sampling luck
        let mean_err = |t: usize| -> f64 {
            (0..5)
                .map(|s| {
                    group_testing_shapley(&u, t, 100 + s)
                        .values
                        .max_abs_diff(&truth)
                })
                .sum::<f64>()
                / 5.0
        };
        let coarse = mean_err(500);
        let fine = mean_err(20_000);
        assert!(fine < coarse, "coarse {coarse} vs fine {fine}");
    }

    #[test]
    fn tracks_the_exact_algorithm_at_moderate_n() {
        let cfg = BlobConfig {
            n: 60,
            dim: 4,
            n_classes: 3,
            cluster_std: 0.6,
            center_scale: 3.0,
            seed: 12,
        };
        let train = blobs::generate(&cfg);
        let test = blobs::queries(&cfg, 5, 3);
        let u = KnnClassUtility::unweighted(&train, &test, 3);
        let exact = knn_class_shapley_with_threads(&train, &test, 3, 1);
        // Convergence is slow by design — the Z ≈ 2 ln N factor inflates the
        // per-test variance; that slowness is the very reason Fig. 6 finds
        // this baseline uncompetitive. Measured on this instance:
        // T = 40k → L∞ ≈ 0.052, T = 160k → L∞ ≈ 0.017, ρ ≈ 0.52.
        let est = group_testing_shapley(&u, 160_000, 21).values;
        assert!(est.max_abs_diff(&exact) < 0.05);
        assert!(knnshap_numerics::stats::pearson(est.as_slice(), exact.as_slice()) > 0.4);
    }

    #[test]
    fn duplicate_points_get_close_values() {
        // two identical training points must receive (statistically) equal
        // values — the symmetry axiom, which the estimator respects in
        // expectation
        let train = ClassDataset::new(
            Features::new(vec![0.0, 0.0, 1.0, 5.0], 1),
            vec![1, 1, 1, 0],
            2,
        );
        let test = ClassDataset::new(Features::new(vec![0.2], 1), vec![1], 2);
        let u = KnnClassUtility::unweighted(&train, &test, 1);
        let est = group_testing_shapley(&u, 80_000, 5).values;
        assert!(
            (est[0] - est[1]).abs() < 0.05,
            "duplicates diverged: {} vs {}",
            est[0],
            est[1]
        );
    }

    #[test]
    fn test_budget_formula_grows_with_n_and_shrinks_with_eps() {
        let t1 = group_testing_tests(100, 0.1, 0.1, 1.0);
        let t2 = group_testing_tests(1000, 0.1, 0.1, 1.0);
        let t3 = group_testing_tests(100, 0.2, 0.1, 1.0);
        assert!(t2 > t1);
        assert!(t3 < t1);
    }

    #[test]
    #[should_panic(expected = "two players")]
    fn rejects_single_player() {
        let train = ClassDataset::new(Features::new(vec![0.0], 1), vec![0], 1);
        let test = ClassDataset::new(Features::new(vec![0.0], 1), vec![0], 1);
        let u = KnnClassUtility::unweighted(&train, &test, 1);
        group_testing_shapley(&u, 10, 0);
    }
}
