//! Theorems 9–11 (Appendix E.4): the *composite game* that values the
//! analyst's computation alongside the sellers' data.
//!
//! The composite utility over `M + 1` players (sellers `I_s` plus analyst
//! `C`) is eq. (28): `ν_c(S) = 0` if `S ⊆ I_s` or `S = {C}`, else
//! `ν(S \ {C})`. Data alone earns nothing, computation alone earns nothing;
//! only their combination produces a model. Consequences proved in the paper
//! and reproduced here:
//!
//! * every seller's value is scaled down relative to the data-only game by
//!   the factor `(min{i,K}+1)/(2(i+1)) ≤ 1/2` at rank `i` (eqs. 88–89);
//! * the analyst receives at least half the total utility,
//!   `s_C = ν(I) − Σ_i s_i` (eqs. 87/92/95).
//!
//! The recursions only differ from their data-only counterparts in the
//! binomial weights (there is one extra mandatory player), so the weighted
//! variant delegates to the Theorem 7 driver in [`crate::exact_weighted`]
//! parameterized by [`GameForm`].

use crate::types::ShapleyValues;
use crate::utility::Utility;
use knnshap_datasets::{ClassDataset, RegDataset};
use knnshap_knn::distance::Metric;
use knnshap_knn::neighbors::argsort_by_distance;
use knnshap_knn::weights::WeightFn;

/// Which cooperative game is being solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GameForm {
    /// Sellers only (the paper's "data-only game").
    DataOnly,
    /// Sellers plus one analyst whose participation is required for any
    /// utility (the paper's "composite game", eq. 28).
    Composite,
}

/// Seller values plus the analyst's value.
#[derive(Debug, Clone)]
pub struct CompositeShapley {
    /// Per-seller (or per-training-point) values.
    pub sellers: ShapleyValues,
    /// The analyst's value `s_C = ν(I) − Σ_i s_i`.
    pub analyst: f64,
}

/// Wraps a base utility into the composite game of eq. (28): players
/// `0..n-1` are the base players and player `n` is the analyst. Used by the
/// enumeration ground truth in tests.
pub struct CompositeUtility<'a, U: Utility + ?Sized> {
    base: &'a U,
}

impl<'a, U: Utility + ?Sized> CompositeUtility<'a, U> {
    pub fn new(base: &'a U) -> Self {
        Self { base }
    }

    pub fn analyst_player(&self) -> usize {
        self.base.n()
    }
}

impl<U: Utility + ?Sized> Utility for CompositeUtility<'_, U> {
    fn n(&self) -> usize {
        self.base.n() + 1
    }

    fn eval(&self, subset: &[usize]) -> f64 {
        let analyst = self.base.n();
        if !subset.contains(&analyst) {
            return 0.0;
        }
        let sellers: Vec<usize> = subset.iter().copied().filter(|&p| p != analyst).collect();
        if sellers.is_empty() {
            return 0.0;
        }
        self.base.eval(&sellers)
    }
}

/// Theorem 9: composite-game SVs for the unweighted KNN classifier, one test
/// point, O(N log N).
pub fn composite_knn_class_shapley_single(
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
) -> CompositeShapley {
    let n = train.len();
    assert!(n >= 1 && k >= 1);
    let ranked = argsort_by_distance(&train.x, query, Metric::SquaredL2);
    let correct =
        |rank: usize| -> f64 { f64::from(train.y[ranked[rank].index as usize] == test_label) };
    let mut values = vec![0.0f64; n];
    // Base (eq. 85, stated for K < N; the min() form below also covers K ≥ N,
    // mirroring the data-only generalization — validated by enumeration):
    // s_{α_N} = 1[correct] · min(K,N)(min(K,N)+1) / (2(N+1)·N·K).
    let mk = k.min(n) as f64;
    let mut s = correct(n - 1) * mk * (mk + 1.0) / (2.0 * (n + 1) as f64 * n as f64 * k as f64);
    values[ranked[n - 1].index as usize] = s;
    for i in (0..n.saturating_sub(1)).rev() {
        let rank1 = (i + 1) as f64; // paper's 1-based rank of element i
        let mi = k.min(i + 1) as f64;
        s += (correct(i) - correct(i + 1)) / k as f64 * mi * (mi + 1.0)
            / (2.0 * rank1 * (rank1 + 1.0));
        values[ranked[i].index as usize] = s;
    }
    let sellers = ShapleyValues::new(values);
    // ν(I): utility of the grand coalition (eq. 87).
    let grand = {
        let k_eff = k.min(n);
        (0..k_eff).map(correct).sum::<f64>() / k as f64
    };
    let analyst = grand - sellers.total();
    CompositeShapley { sellers, analyst }
}

/// Theorem 9 averaged over a test set.
pub fn composite_knn_class_shapley(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
) -> CompositeShapley {
    assert!(!test.is_empty(), "need at least one test point");
    let mut sellers = ShapleyValues::zeros(train.len());
    let mut analyst = 0.0;
    for j in 0..test.len() {
        let one = composite_knn_class_shapley_single(train, test.x.row(j), test.y[j], k);
        sellers.add_assign(&one.sellers);
        analyst += one.analyst;
    }
    sellers.scale(1.0 / test.len() as f64);
    CompositeShapley {
        sellers,
        analyst: analyst / test.len() as f64,
    }
}

/// Theorem 10: composite-game SVs for unweighted KNN regression, one test
/// point, O(N log N) via the same prefix/suffix-sum trick as Theorem 6.
/// Requires `K < N` (the paper's standing assumption for this recursion).
pub fn composite_knn_reg_shapley_single(
    train: &RegDataset,
    query: &[f32],
    test_target: f64,
    k: usize,
) -> CompositeShapley {
    let n = train.len();
    assert!(n >= 1 && k >= 1);
    let t = test_target;
    let kf = k as f64;

    if n == 1 {
        // Two players (point + analyst), both needed: each gets ν({0})/2.
        let e = train.y[0] / kf - t;
        let v = -(e * e);
        return CompositeShapley {
            sellers: ShapleyValues::new(vec![v / 2.0]),
            analyst: v / 2.0,
        };
    }
    assert!(
        k < n,
        "Theorem 10 recursion requires K < N (got K={k}, N={n})"
    );

    let ranked = argsort_by_distance(&train.x, query, Metric::SquaredL2);
    let z: Vec<f64> = ranked.iter().map(|r| train.y[r.index as usize]).collect();
    let sum_all: f64 = z.iter().sum();

    // Suffix sums of c(l)·z[l] with
    // c(l) = 2·min(K+1,l)·min(K,l−1)·min(K−1,l−2) / (3·l·(l−1)·(l−2)).
    let coeff = |l: usize| -> f64 {
        if l < 3 {
            0.0
        } else {
            2.0 * ((k + 1).min(l) * k.min(l - 1) * (k - 1).min(l - 2)) as f64
                / (3.0 * (l * (l - 1) * (l - 2)) as f64)
        }
    };
    let mut suffix = vec![0.0f64; n + 2];
    for j in (0..n).rev() {
        suffix[j] = suffix[j + 1] + coeff(j + 1) * z[j];
    }

    // Base (eq. 90).
    let zn = z[n - 1];
    let sum_others = sum_all - zn;
    let e_single = zn / kf - t;
    let mut s = -(zn / (kf * (n + 1) as f64))
        * (((k + 2) * (k - 1)) as f64 / (2.0 * n as f64) * (zn / kf - 2.0 * t)
            + 2.0 * ((k - 1) * (k + 1)) as f64 / (3.0 * (n * (n - 1)) as f64) * sum_others)
        - e_single * e_single / ((n * (n + 1)) as f64);

    let mut values = vec![0.0f64; n];
    values[ranked[n - 1].index as usize] = s;

    let mut pref: f64 = z[..n - 1].iter().sum();
    for i in (1..n).rev() {
        // paper rank i; code index ip = i−1
        let ip = i - 1;
        pref -= z[ip]; // Σ_{l ≤ i−1} z_l
        let head = (z[ip] / kf + z[ip + 1] / kf - 2.0 * t) * ((k + 1).min(i + 1) * k.min(i)) as f64
            / (2.0 * (i * (i + 1)) as f64);
        let pref_term = if i >= 2 {
            pref / kf * 2.0 * ((k + 1).min(i + 1) * k.min(i) * (k - 1).min(i - 1)) as f64
                / (3.0 * ((i - 1) * i * (i + 1)) as f64)
        } else {
            0.0
        };
        let suff_term = suffix[i + 1] / kf; // ranks ≥ i+2, coefficients baked in
        s += (z[ip + 1] - z[ip]) / kf * (head + pref_term + suff_term);
        values[ranked[ip].index as usize] = s;
    }

    let sellers = ShapleyValues::new(values);
    // ν(I) = −((1/K) Σ_{top-K} y − t)².
    let grand = {
        let pred: f64 = z[..k.min(n)].iter().sum::<f64>() / kf;
        let e = pred - t;
        -(e * e)
    };
    let analyst = grand - sellers.total();
    CompositeShapley { sellers, analyst }
}

/// Theorem 10 averaged over a test set.
pub fn composite_knn_reg_shapley(
    train: &RegDataset,
    test: &RegDataset,
    k: usize,
) -> CompositeShapley {
    assert!(!test.is_empty(), "need at least one test point");
    let mut sellers = ShapleyValues::zeros(train.len());
    let mut analyst = 0.0;
    for j in 0..test.len() {
        let one = composite_knn_reg_shapley_single(train, test.x.row(j), test.y[j], k);
        sellers.add_assign(&one.sellers);
        analyst += one.analyst;
    }
    sellers.scale(1.0 / test.len() as f64);
    CompositeShapley {
        sellers,
        analyst: analyst / test.len() as f64,
    }
}

/// Theorem 11: composite-game SVs for *weighted* KNN classification, one
/// test point, O(N^K) (delegates to the Theorem 7 driver with composite
/// binomial weights).
pub fn composite_weighted_knn_class_shapley_single(
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
    weight: WeightFn,
) -> CompositeShapley {
    let (sellers, grand) = crate::exact_weighted::weighted_class_shapley_form(
        train,
        query,
        test_label,
        k,
        weight,
        GameForm::Composite,
    );
    let analyst = grand - sellers.total();
    CompositeShapley { sellers, analyst }
}

/// Theorem 11 for weighted KNN regression.
pub fn composite_weighted_knn_reg_shapley_single(
    train: &RegDataset,
    query: &[f32],
    test_target: f64,
    k: usize,
    weight: WeightFn,
) -> CompositeShapley {
    let (sellers, grand) = crate::exact_weighted::weighted_reg_shapley_form(
        train,
        query,
        test_target,
        k,
        weight,
        GameForm::Composite,
    );
    let analyst = grand - sellers.total();
    CompositeShapley { sellers, analyst }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_enum::shapley_enumeration;
    use crate::exact_unweighted::knn_class_shapley_single;
    use crate::utility::{KnnClassUtility, KnnRegUtility};
    use knnshap_datasets::Features;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_class(seed: u64, n: usize) -> (ClassDataset, ClassDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        (
            ClassDataset::new(Features::new(feats, 2), labels, 2),
            ClassDataset::new(
                Features::new(vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)], 2),
                vec![rng.gen_range(0..2)],
                2,
            ),
        )
    }

    fn random_reg(seed: u64, n: usize) -> (RegDataset, RegDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        (
            RegDataset::new(Features::new(feats, 2), targets),
            RegDataset::new(
                Features::new(vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)], 2),
                vec![rng.gen_range(-2.0..2.0)],
            ),
        )
    }

    #[test]
    fn theorem9_matches_composite_enumeration() {
        for seed in 0..6u64 {
            for k in [1usize, 2, 3, 8, 12] {
                let (train, test) = random_class(seed, 8);
                let base = KnnClassUtility::unweighted(&train, &test, k);
                let comp = CompositeUtility::new(&base);
                let truth = shapley_enumeration(&comp);
                let fast = composite_knn_class_shapley_single(&train, test.x.row(0), test.y[0], k);
                for i in 0..train.len() {
                    assert!(
                        (fast.sellers[i] - truth[i]).abs() < 1e-10,
                        "seed={seed} k={k} i={i}: {} vs {}",
                        fast.sellers[i],
                        truth[i]
                    );
                }
                assert!(
                    (fast.analyst - truth[comp.analyst_player()]).abs() < 1e-10,
                    "seed={seed} k={k} analyst"
                );
            }
        }
    }

    #[test]
    fn theorem10_matches_composite_enumeration() {
        for seed in 0..5u64 {
            for k in [1usize, 2, 3] {
                let (train, test) = random_reg(seed, 7);
                let base = KnnRegUtility::unweighted(&train, &test, k);
                let comp = CompositeUtility::new(&base);
                let truth = shapley_enumeration(&comp);
                let fast = composite_knn_reg_shapley_single(&train, test.x.row(0), test.y[0], k);
                for i in 0..train.len() {
                    assert!(
                        (fast.sellers[i] - truth[i]).abs() < 1e-9,
                        "seed={seed} k={k} i={i}: {} vs {}",
                        fast.sellers[i],
                        truth[i]
                    );
                }
                assert!((fast.analyst - truth[comp.analyst_player()]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn theorem11_matches_composite_enumeration() {
        let w = WeightFn::InverseDistance { eps: 1e-3 };
        for seed in 0..4u64 {
            for k in [1usize, 2, 3] {
                let (train, test) = random_class(seed, 7);
                let base = KnnClassUtility::new(&train, &test, k, w);
                let comp = CompositeUtility::new(&base);
                let truth = shapley_enumeration(&comp);
                let fast = composite_weighted_knn_class_shapley_single(
                    &train,
                    test.x.row(0),
                    test.y[0],
                    k,
                    w,
                );
                for i in 0..train.len() {
                    assert!(
                        (fast.sellers[i] - truth[i]).abs() < 1e-9,
                        "seed={seed} k={k} i={i}: {} vs {}",
                        fast.sellers[i],
                        truth[i]
                    );
                }
                assert!((fast.analyst - truth[comp.analyst_player()]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn theorem11_regression_matches_enumeration() {
        let w = WeightFn::Exponential { beta: 0.5 };
        let (train, test) = random_reg(3, 6);
        let base = KnnRegUtility::new(&train, &test, 2, w);
        let comp = CompositeUtility::new(&base);
        let truth = shapley_enumeration(&comp);
        let fast =
            composite_weighted_knn_reg_shapley_single(&train, test.x.row(0), test.y[0], 2, w);
        for i in 0..train.len() {
            assert!((fast.sellers[i] - truth[i]).abs() < 1e-9, "i={i}");
        }
        assert!((fast.analyst - truth[comp.analyst_player()]).abs() < 1e-9);
    }

    #[test]
    fn seller_share_halved_vs_data_only() {
        // eqs. (88)-(89): composite seller values are at most half the
        // data-only values (ratio (min{i,K}+1)/(2(i+1)) ≤ 1/2), so the
        // analyst takes at least half of ν(I).
        let (train, test) = random_class(9, 20);
        let k = 3;
        let comp = composite_knn_class_shapley_single(&train, test.x.row(0), test.y[0], k);
        let data_only = knn_class_shapley_single(&train, test.x.row(0), test.y[0], k);
        let grand = comp.sellers.total() + comp.analyst;
        assert!((data_only.total() - grand).abs() < 1e-10); // both games share ν(I)
        if grand > 0.0 {
            assert!(
                comp.analyst >= grand / 2.0 - 1e-10,
                "analyst={} grand={grand}",
                comp.analyst
            );
        }
    }

    #[test]
    fn analyst_value_grows_with_utility() {
        // Fig. 15(a): s_C increases with the total utility of the model.
        // Two separated clusters with clean labels (high utility) vs. the
        // same geometry with every label flipped (utility ≈ 0).
        let feats: Vec<f32> = (0..16)
            .map(|i| {
                if i % 2 == 0 {
                    i as f32 * 0.01
                } else {
                    10.0 + i as f32 * 0.01
                }
            })
            .collect();
        let labels: Vec<u32> = (0..16).map(|i| (i % 2) as u32).collect();
        let train = ClassDataset::new(Features::new(feats, 1), labels.clone(), 2);
        let test = ClassDataset::new(
            Features::new(vec![0.05, 10.05, 0.02, 10.07], 1),
            vec![0, 1, 0, 1],
            2,
        );
        let good = composite_knn_class_shapley(&train, &test, 2);
        let flipped: Vec<u32> = labels.iter().map(|&l| 1 - l).collect();
        let bad_train = ClassDataset::new(train.x.clone(), flipped, 2);
        let bad = composite_knn_class_shapley(&bad_train, &test, 2);
        assert!(
            good.analyst > bad.analyst,
            "good={} bad={}",
            good.analyst,
            bad.analyst
        );
        // With a perfect model the analyst's share is large and positive.
        assert!(good.analyst > 0.4, "analyst={}", good.analyst);
    }

    #[test]
    fn composite_multi_test_is_average() {
        let (train, _) = random_class(4, 10);
        let mut rng = StdRng::seed_from_u64(77);
        let test = ClassDataset::new(
            Features::new((0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), 2),
            vec![0, 1, 0],
            2,
        );
        let avg = composite_knn_class_shapley(&train, &test, 2);
        let mut manual = ShapleyValues::zeros(train.len());
        let mut analyst = 0.0;
        for j in 0..test.len() {
            let one = composite_knn_class_shapley_single(&train, test.x.row(j), test.y[j], 2);
            manual.add_assign(&one.sellers);
            analyst += one.analyst;
        }
        manual.scale(1.0 / 3.0);
        assert!(avg.sellers.max_abs_diff(&manual) < 1e-12);
        assert!((avg.analyst - analyst / 3.0).abs() < 1e-12);

        // Theorem 10 over a test set: the mean of the per-test games, and
        // (the composite game being linear in ν) the enumerated Shapley
        // values of the composite game over the test-set utility.
        let (train, _) = random_reg(5, 7);
        let test = RegDataset::new(
            Features::new((0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), 2),
            vec![0.5, -1.0, 1.5],
        );
        let avg = composite_knn_reg_shapley(&train, &test, 2);
        let mut manual = ShapleyValues::zeros(train.len());
        let mut analyst = 0.0;
        for j in 0..test.len() {
            let one = composite_knn_reg_shapley_single(&train, test.x.row(j), test.y[j], 2);
            manual.add_assign(&one.sellers);
            analyst += one.analyst;
        }
        manual.scale(1.0 / 3.0);
        assert!(avg.sellers.max_abs_diff(&manual) < 1e-12);
        assert!((avg.analyst - analyst / 3.0).abs() < 1e-12);
        let base = KnnRegUtility::new(&train, &test, 2, WeightFn::Uniform);
        let comp = CompositeUtility::new(&base);
        let truth = shapley_enumeration(&comp);
        for i in 0..train.len() {
            assert!((avg.sellers[i] - truth[i]).abs() < 1e-9, "i={i}");
        }
        assert!((avg.analyst - truth[comp.analyst_player()]).abs() < 1e-9);
    }
}
