//! Theorem 6 (Appendix E.1): exact Shapley values for unweighted KNN
//! regression in O(N log N) per test point.
//!
//! The utility is `ν(S) = −((1/K) Σ_{k≤min(K,|S|)} y_{α_k(S)} − y_test)²`
//! (eq. 25) with `ν(∅) = 0` (the paper's group-rationality convention; see
//! `crate::utility` docs). The recursion is
//!
//! ```text
//! s_{α_i} = s_{α_{i+1}} + (1/K)(y_{α_{i+1}} − y_{α_i}) · min(K,i)/i ·
//!           ((1/K) Σ_l A_i^{(l)} y_{α_l} − 2 y_test)
//! ```
//!
//! with the piecewise coefficients `A_i^{(l)}` of eq. (64). Evaluating
//! `Σ_l A_i^{(l)} y_{α_l}` naively costs O(N) per rank (O(N²) per test
//! point); we instead maintain a prefix sum of the sorted targets and a
//! suffix sum of `min(K,l−1)min(K−1,l−2)/((l−1)(l−2)) · y_{α_l}`, which makes
//! every step O(1) and keeps the whole computation sort-dominated, matching
//! the paper's quasi-linear claim.
//!
//! For `K ≥ N` every point is always retrieved and the derivation behind
//! eq. (62) breaks down (as it does for classification); the closed form
//! `s_i = −(y_i/K)(y_i/K − 2 y_test + (1/K) Σ_{l≠i} y_l) − y_test²/N`
//! (derived in the same way, validated against enumeration) is used instead.

use crate::estimator::{Data, Estimator, Family};
use crate::types::ShapleyValues;
use knnshap_datasets::RegDataset;
use knnshap_knn::distance::Metric;
use knnshap_knn::neighbors::{argsort_by_distance, Neighbor};
use knnshap_knn::weights::WeightFn;

/// Exact regression SVs w.r.t. a single test point (Theorem 6).
pub fn knn_reg_shapley_single(
    train: &RegDataset,
    query: &[f32],
    test_target: f64,
    k: usize,
) -> ShapleyValues {
    let mut out = ShapleyValues::zeros(train.len());
    {
        let acc = out.as_mut_slice();
        accumulate_single(train, query, test_target, k, |i, s| acc[i] += s);
    }
    out
}

fn accumulate_single<S: FnMut(usize, f64)>(
    train: &RegDataset,
    query: &[f32],
    test_target: f64,
    k: usize,
    sink: S,
) {
    let n = train.len();
    assert!(n >= 1, "need at least one training point");
    if n == 1 {
        accumulate_ranked(train, &[], test_target, k, sink);
        return;
    }
    let ranked = argsort_by_distance(&train.x, query, Metric::SquaredL2);
    accumulate_ranked(train, &ranked, test_target, k, sink);
}

/// The recursion over an already-computed distance ranking — the seam the
/// graph-backed path enters through (`ranked` is ignored for the
/// single-player closed form).
fn accumulate_ranked<S: FnMut(usize, f64)>(
    train: &RegDataset,
    ranked: &[Neighbor],
    test_target: f64,
    k: usize,
    mut sink: S,
) {
    let n = train.len();
    assert!(n >= 1, "need at least one training point");
    assert!(k >= 1, "K must be at least 1");
    let t = test_target;
    let kf = k as f64;

    if n == 1 {
        // Single player: s = ν({0}) − ν(∅) = −((1/K)y − t)².
        let e = train.y[0] / kf - t;
        sink(0, -(e * e));
        return;
    }
    // z[j] = target of the point with paper rank j+1.
    let z: Vec<f64> = ranked.iter().map(|r| train.y[r.index as usize]).collect();
    let sum_all: f64 = z.iter().sum();

    if k >= n {
        // Closed form for the always-fully-retrieved regime (see module docs).
        for (j, r) in ranked.iter().enumerate() {
            let yi = z[j];
            let s = -(yi / kf) * (yi / kf - 2.0 * t + (sum_all - yi) / kf) - t * t / n as f64;
            sink(r.index as usize, s);
        }
        return;
    }

    // Suffix sums of c(l)·z where c(l) = min(K,l−1)min(K−1,l−2)/((l−1)(l−2))
    // for paper rank l ≥ 3 (zero otherwise).
    let coeff = |l: usize| -> f64 {
        if l < 3 {
            0.0
        } else {
            (k.min(l - 1) * (k - 1).min(l - 2)) as f64 / ((l - 1) * (l - 2)) as f64
        }
    };
    // suffix[j] = Σ_{ranks l ≥ j+1} c(l)·z[l−1]  (0-based storage, 1-based ranks)
    let mut suffix = vec![0.0f64; n + 2];
    for j in (0..n).rev() {
        suffix[j] = suffix[j + 1] + coeff(j + 1) * z[j];
    }

    // Base: eq. (62) for rank N.
    let zn = z[n - 1];
    let prefix_others = sum_all - zn;
    let e_single = zn / kf - t;
    let mut s = -((k - 1) as f64) / (n as f64 * kf)
        * zn
        * (zn / kf - 2.0 * t + prefix_others / (n - 1) as f64)
        - e_single * e_single / n as f64;
    sink(ranked[n - 1].index as usize, s);

    // Backward sweep with O(1) updates; pref tracks Σ_{l ≤ i−1} z_l.
    let mut pref: f64 = z[..n - 1].iter().sum(); // Σ for i = N−1 (ranks 1..N−2) adjusted below
    for i in (1..n).rev() {
        // paper rank i ∈ {N−1, …, 1}; code index ip = i−1
        let ip = i - 1;
        pref -= z[ip]; // now pref = Σ_{l=1}^{i−1} z_l
        let min_ki = k.min(i) as f64;
        let prefix_term = if i >= 2 {
            ((k - 1).min(i - 1) as f64 / (i - 1) as f64) * pref
        } else {
            0.0
        };
        let suffix_term = (i as f64 / min_ki) * suffix[i + 1]; // ranks ≥ i+2
        let inner = (prefix_term + z[ip] + z[ip + 1] + suffix_term) / kf - 2.0 * t;
        s += (z[ip + 1] - z[ip]) / kf * (min_ki / i as f64) * inner;
        sink(ranked[ip].index as usize, s);
    }
}

/// One test point's Theorem 6 values over `ranked`, written densely into
/// `out` — the per-test step of [`crate::estimator`]'s fold (every training
/// point receives exactly one value).
pub(crate) fn fill_ranked(
    train: &RegDataset,
    ranked: &[Neighbor],
    test_target: f64,
    k: usize,
    out: &mut [f64],
) {
    accumulate_ranked(train, ranked, test_target, k, |i, s| out[i] = s);
}

/// Exact regression SVs w.r.t. a test set, averaged over test points on the
/// workspace default worker count ([`knnshap_parallel::current_threads`]).
/// Pick the worker count, shard the job or feed a precomputed graph through
/// [`crate::estimator::Estimator`].
///
/// # Panics
///
/// Panics on data [`crate::estimator::Estimator::new`] rejects.
pub fn knn_reg_shapley(train: &RegDataset, test: &RegDataset, k: usize) -> ShapleyValues {
    let data = Data::reg(train, test);
    Estimator::new(data, k, WeightFn::Uniform, Family::Exact, None)
        .unwrap_or_else(|e| panic!("{e}"))
        .run(knnshap_parallel::current_threads())
        .values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_enum::shapley_enumeration;
    use crate::utility::{KnnRegUtility, Utility};
    use knnshap_datasets::Features;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn with_threads(
        train: &RegDataset,
        test: &RegDataset,
        k: usize,
        threads: usize,
    ) -> ShapleyValues {
        let data = Data::reg(train, test);
        let est = Estimator::new(data, k, WeightFn::Uniform, Family::Exact, None).unwrap();
        est.run(threads).values
    }

    fn random_instance(seed: u64, n: usize) -> (RegDataset, RegDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let train = RegDataset::new(Features::new(feats, 2), targets);
        let tfeats: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let ttargets: Vec<f64> = (0..2).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let test = RegDataset::new(Features::new(tfeats, 2), ttargets);
        (train, test)
    }

    #[test]
    fn matches_enumeration_across_k() {
        for seed in 0..6u64 {
            for k in [1usize, 2, 3, 5, 8, 9, 15] {
                let (train, test) = random_instance(seed, 8);
                let single =
                    RegDataset::new(Features::new(test.x.row(0).to_vec(), 2), vec![test.y[0]]);
                let fast = knn_reg_shapley_single(&train, test.x.row(0), test.y[0], k);
                let truth = shapley_enumeration(&KnnRegUtility::unweighted(&train, &single, k));
                assert!(
                    fast.max_abs_diff(&truth) < 1e-9,
                    "seed={seed} k={k}: err={}",
                    fast.max_abs_diff(&truth)
                );
            }
        }
    }

    #[test]
    fn matches_enumeration_multi_test() {
        for seed in [2u64, 31] {
            let (train, test) = random_instance(seed, 7);
            let fast = with_threads(&train, &test, 3, 1);
            let truth = shapley_enumeration(&KnnRegUtility::unweighted(&train, &test, 3));
            assert!(fast.max_abs_diff(&truth) < 1e-9, "seed={seed}");
        }
    }

    #[test]
    fn group_rationality() {
        let (train, test) = random_instance(9, 30);
        for k in [1usize, 5, 29, 30, 50] {
            let sv = with_threads(&train, &test, k, 2);
            let u = KnnRegUtility::unweighted(&train, &test, k);
            assert!(
                (sv.total() - u.grand()).abs() < 1e-8,
                "k={k}: {} vs {}",
                sv.total(),
                u.grand()
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (train, test) = random_instance(4, 50);
        let a = with_threads(&train, &test, 4, 1);
        let b = with_threads(&train, &test, 4, 4);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn same_label_neighbors_share_value() {
        // (63): adjacent-ranked points with equal targets have equal SVs.
        let train = RegDataset::new(
            Features::new(vec![1.0, 1.1, 3.0, 4.0], 1),
            vec![2.0, 2.0, -1.0, 0.5],
        );
        let sv = knn_reg_shapley_single(&train, &[0.0], 1.0, 2);
        assert!((sv[0] - sv[1]).abs() < 1e-12);
    }

    #[test]
    fn perfect_nearest_neighbor_gets_positive_value() {
        // A training point that exactly predicts the test target and sits
        // nearest should carry positive value under K=1.
        let train = RegDataset::new(Features::new(vec![0.1, 2.0, 3.0], 1), vec![1.0, 5.0, -4.0]);
        let sv = knn_reg_shapley_single(&train, &[0.0], 1.0, 1);
        assert!(sv[0] > 0.0, "{:?}", sv.as_slice());
        assert!(sv[0] >= sv[1] && sv[0] >= sv[2]);
    }

    #[test]
    fn single_training_point() {
        let train = RegDataset::new(Features::new(vec![0.5], 1), vec![2.0]);
        let sv = knn_reg_shapley_single(&train, &[0.0], 1.0, 2);
        // s = −((2/2) − 1)² = 0
        assert!(sv[0].abs() < 1e-12);
        let sv2 = knn_reg_shapley_single(&train, &[0.0], 3.0, 1);
        assert!((sv2[0] + 1.0).abs() < 1e-12); // −(2−3)²
    }
}
