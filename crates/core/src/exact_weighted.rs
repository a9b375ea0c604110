//! Theorem 7 (Appendix E.2): exact Shapley values for *weighted* KNN
//! classifiers and regressors in O(N^K) time — and, through the same driver,
//! Theorem 11's composite-game variant.
//!
//! The paper's key observation (Fig. 4): a KNN utility only depends on the
//! identity of the top-K neighbors, and there are at most `N^K` distinct
//! top-K sets, so the exponential sum of eq. (2) collapses to a polynomial
//! one. Concretely, for the adjacent-rank difference (Lemma 1)
//!
//! ```text
//! s_i − s_{i+1} = 1/(N−1) Σ_{S ⊆ I\{i,i+1}} [ν(S∪{i}) − ν(S∪{i+1})] / C(N−2, |S|)
//! ```
//!
//! only coalitions whose top-(K−1) set can change the difference matter:
//! subsets of size `≤ K−2` contribute directly, and each subset `S` of size
//! `K−1` represents all of its supersets whose extra members rank farther
//! than `max rank(S ∪ {i, i+1})`, contributing with multiplicity
//! `W(m) = Σ_{k≥K−1} C(N−m, k−K+1)/C(N−2, k)` (eqs. 74–77; `W` is
//! precomputed per rank in log-space binomials). In the composite game
//! ([`GameForm::Composite`], Theorem 11) the analyst is a mandatory extra
//! player, shifting every binomial to `C(N−1, k+1)` and the prefactor to
//! `1/N` (eq. 94).
//!
//! The data-only recursion base is recovered from the efficiency axiom
//! `Σ_j s_j = ν(I) − ν(∅)` rather than by enumerating `B_k(α_N)` — cheaper
//! by a factor of `N` and validated against the O(2^N) enumeration in the
//! tests. The composite base is eq. (93), which costs one subset sweep.
//! Note eq. (75)/(94) in the paper read `s_{α_{i+1}} = s_{α_i} + Δ`;
//! consistency with Lemma 1 (and with the enumeration ground truth) requires
//! `s_{α_i} = s_{α_{i+1}} + Δ`, which is what we implement.

use crate::composite::GameForm;
use crate::estimator::{Data, Estimator, Family};
use crate::types::ShapleyValues;
use knnshap_datasets::{ClassDataset, RegDataset};
use knnshap_knn::distance::Metric;
use knnshap_knn::neighbors::{argsort_by_distance, Neighbor};
use knnshap_knn::weights::WeightFn;
use knnshap_numerics::binom::{Combinations, LogFactorialTable};

/// Which estimate the weighted utility scores.
enum Task<'a> {
    /// 1[label == test label] votes (eq. 26).
    Class { labels: &'a [u32], test_label: u32 },
    /// −(prediction − target)² (eq. 27), ν(∅) = 0 convention.
    Reg {
        targets: &'a [f64],
        test_target: f64,
    },
}

impl Task<'_> {
    /// Utility of a coalition given as ascending *ranks* (0-based; rank r is
    /// the (r+1)-nearest point). All members are within the top-K because
    /// Theorem 7 only ever evaluates coalitions of size ≤ K.
    fn utility(&self, ranks: &[usize], dists_l2: &[f32], k: usize, weight: WeightFn) -> f64 {
        if ranks.is_empty() {
            return 0.0;
        }
        debug_assert!(ranks.len() <= k);
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        let d: Vec<f32> = ranks.iter().map(|&r| dists_l2[r]).collect();
        let w = weight.weights(&d, k);
        match self {
            Task::Class { labels, test_label } => ranks
                .iter()
                .zip(&w)
                .filter(|(&r, _)| labels[r] == *test_label)
                .map(|(_, &wk)| wk)
                .sum(),
            Task::Reg {
                targets,
                test_target,
            } => {
                let pred: f64 = ranks.iter().zip(&w).map(|(&r, &wk)| wk * targets[r]).sum();
                let e = pred - test_target;
                -(e * e)
            }
        }
    }
}

/// `W(m)` of eq. (77) (data-only) or its eq. (94) analogue (composite) for
/// every 1-based max-rank `m`, in log-space binomials.
fn multiplicity_table(n: usize, k: usize, lf: &LogFactorialTable, form: GameForm) -> Vec<f64> {
    let mut w = vec![0.0f64; n + 1];
    for (m, slot) in w.iter_mut().enumerate().skip(1) {
        let avail = n - m; // points ranked strictly beyond m
        let mut acc = 0.0;
        for kk in (k - 1)..=(n.saturating_sub(2)) {
            let extra = kk - (k - 1);
            if extra > avail {
                break;
            }
            acc += match form {
                GameForm::DataOnly => lf.binomial_ratio(avail, extra, n - 2, kk),
                GameForm::Composite => lf.binomial_ratio(avail, extra, n - 1, kk + 1),
            };
        }
        *slot = acc;
    }
    w
}

/// Shapley values per *rank* for one test point plus the grand-coalition
/// utility ν(I); `dists_l2` must be the ascending sorted distances.
fn weighted_shapley_ranked(
    task: &Task<'_>,
    dists_l2: &[f32],
    k: usize,
    weight: WeightFn,
    form: GameForm,
) -> (Vec<f64>, f64) {
    let n = dists_l2.len();
    assert!(n >= 1);
    let grand_ranks: Vec<usize> = (0..n.min(k)).collect();
    let nu_grand = task.utility(&grand_ranks, dists_l2, k, weight);
    if n == 1 {
        // One seller: data-only gives them everything; in the composite game
        // the seller and the analyst are symmetric and split ν(I) evenly.
        let v = match form {
            GameForm::DataOnly => nu_grand,
            GameForm::Composite => nu_grand / 2.0,
        };
        return (vec![v], nu_grand);
    }

    let lf = LogFactorialTable::new(n.max(2));
    let need_big_branch = k - 1 <= n - 2;
    let w_table = if need_big_branch {
        multiplicity_table(n, k, &lf, form)
    } else {
        Vec::new()
    };
    let prefactor = match form {
        GameForm::DataOnly => 1.0 / (n - 1) as f64,
        GameForm::Composite => 1.0 / n as f64,
    };
    let small_divisor = |sz: usize| -> f64 {
        match form {
            GameForm::DataOnly => lf.binomial(n - 2, sz),
            GameForm::Composite => lf.binomial(n - 1, sz + 1),
        }
    };

    // d[i] = s_{rank i} − s_{rank i+1} for 0-based adjacent ranks.
    let mut d = vec![0.0f64; n - 1];
    let mut coalition: Vec<usize> = Vec::with_capacity(k);
    let mut others: Vec<usize> = Vec::with_capacity(n - 2);
    for (i, di) in d.iter_mut().enumerate() {
        others.clear();
        others.extend((0..n).filter(|&r| r != i && r != i + 1));
        let mut total = 0.0f64;

        // Small coalitions: |S| ≤ K−2, every member inside the top-K of both
        // S∪{i} and S∪{i+1} regardless of what else joins.
        if k >= 2 {
            for sz in 0..=(k - 2).min(n - 2) {
                let mut acc = 0.0f64;
                let mut combos = Combinations::new(others.len(), sz);
                while let Some(c) = combos.next_combination() {
                    let diff = pair_diff(task, dists_l2, k, weight, &others, c, i, &mut coalition);
                    acc += diff;
                }
                total += acc / small_divisor(sz);
            }
        }

        // Representative coalitions of size exactly K−1, each standing in for
        // all supersets whose extras rank beyond max(S∪{i,i+1}), carrying the
        // W(m) multiplicity.
        if need_big_branch {
            let sz = k - 1;
            let mut combos = Combinations::new(others.len(), sz);
            while let Some(c) = combos.next_combination() {
                // max 1-based rank over S ∪ {i, i+1}: ranks are 0-based here.
                let max_rank0 = c
                    .iter()
                    .map(|&ci| others[ci])
                    .chain([i + 1])
                    .max()
                    .expect("nonempty");
                let diff = pair_diff(task, dists_l2, k, weight, &others, c, i, &mut coalition);
                total += diff * w_table[max_rank0 + 1];
            }
        }

        *di = total * prefactor;
    }

    // Recursion base.
    let s_last = match form {
        GameForm::DataOnly => {
            // Efficiency: Σ_j s_j = ν(I) − ν(∅) = nu_grand (ν(∅) = 0).
            let weighted_d: f64 = d
                .iter()
                .enumerate()
                .map(|(i0, &di)| (i0 + 1) as f64 * di)
                .sum();
            (nu_grand - weighted_d) / n as f64
        }
        GameForm::Composite => {
            // Eq. (93): s_{α_N} = 1/(N+1) Σ_{sz≤K−1} (1/C(N, sz+1))
            //                     Σ_{S∈B_sz(α_N)} [ν(S∪{α_N}) − ν(S)].
            let mut acc = 0.0f64;
            let others_last: Vec<usize> = (0..n - 1).collect();
            let mut with: Vec<usize> = Vec::with_capacity(k);
            for sz in 0..=(k - 1).min(n - 1) {
                let mut inner = 0.0f64;
                let mut combos = Combinations::new(others_last.len(), sz);
                while let Some(c) = combos.next_combination() {
                    with.clear();
                    with.extend(c.iter().map(|&ci| others_last[ci]));
                    let without = task.utility(&with, dists_l2, k, weight);
                    with.push(n - 1); // already the largest rank, stays sorted
                    let with_last = task.utility(&with, dists_l2, k, weight);
                    inner += with_last - without;
                }
                acc += inner / lf.binomial(n, sz + 1);
            }
            acc / (n + 1) as f64
        }
    };

    let mut s = vec![0.0f64; n];
    s[n - 1] = s_last;
    for i in (0..n - 1).rev() {
        s[i] = s[i + 1] + d[i];
    }
    (s, nu_grand)
}

/// `ν(S∪{i}) − ν(S∪{i+1})` where `S` is the combination `c` over `others`.
#[allow(clippy::too_many_arguments)]
fn pair_diff(
    task: &Task<'_>,
    dists_l2: &[f32],
    k: usize,
    weight: WeightFn,
    others: &[usize],
    c: &[usize],
    i: usize,
    coalition: &mut Vec<usize>,
) -> f64 {
    let build = |extra: usize, coalition: &mut Vec<usize>| {
        coalition.clear();
        coalition.extend(c.iter().map(|&ci| others[ci]));
        coalition.push(extra);
        coalition.sort_unstable();
    };
    build(i, coalition);
    let with_i = task.utility(coalition, dists_l2, k, weight);
    build(i + 1, coalition);
    let with_next = task.utility(coalition, dists_l2, k, weight);
    with_i - with_next
}

fn map_back(ranked_idx: &[u32], per_rank: &[f64], n: usize) -> ShapleyValues {
    let mut out = ShapleyValues::zeros(n);
    for (rank, &idx) in ranked_idx.iter().enumerate() {
        out.as_mut_slice()[idx as usize] = per_rank[rank];
    }
    out
}

/// Weighted classification SVs under either game form; returns the values
/// and ν(I) (the composite layer derives the analyst value from the latter).
pub(crate) fn weighted_class_shapley_form(
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
    weight: WeightFn,
    form: GameForm,
) -> (ShapleyValues, f64) {
    let ranked = argsort_by_distance(&train.x, query, Metric::SquaredL2);
    weighted_class_shapley_ranked_form(train, &ranked, test_label, k, weight, form)
}

/// [`weighted_class_shapley_form`] over an already-computed ranking — the
/// seam the graph-backed path enters through. The stored graph distances
/// are bitwise-identical squared-L2 values, so `sqrt` here produces the
/// exact floats the brute-force path feeds the recursion.
fn weighted_class_shapley_ranked_form(
    train: &ClassDataset,
    ranked: &[Neighbor],
    test_label: u32,
    k: usize,
    weight: WeightFn,
    form: GameForm,
) -> (ShapleyValues, f64) {
    assert!(k >= 1, "K must be at least 1");
    let idx: Vec<u32> = ranked.iter().map(|r| r.index).collect();
    let dists: Vec<f32> = ranked.iter().map(|r| r.dist.sqrt()).collect();
    let labels: Vec<u32> = idx.iter().map(|&i| train.y[i as usize]).collect();
    let task = Task::Class {
        labels: &labels,
        test_label,
    };
    let (per_rank, grand) = weighted_shapley_ranked(&task, &dists, k, weight, form);
    (map_back(&idx, &per_rank, train.len()), grand)
}

/// Weighted regression SVs under either game form.
pub(crate) fn weighted_reg_shapley_form(
    train: &RegDataset,
    query: &[f32],
    test_target: f64,
    k: usize,
    weight: WeightFn,
    form: GameForm,
) -> (ShapleyValues, f64) {
    let ranked = argsort_by_distance(&train.x, query, Metric::SquaredL2);
    weighted_reg_shapley_ranked_form(train, &ranked, test_target, k, weight, form)
}

/// Regression analogue of [`weighted_class_shapley_ranked_form`].
fn weighted_reg_shapley_ranked_form(
    train: &RegDataset,
    ranked: &[Neighbor],
    test_target: f64,
    k: usize,
    weight: WeightFn,
    form: GameForm,
) -> (ShapleyValues, f64) {
    assert!(k >= 1, "K must be at least 1");
    let idx: Vec<u32> = ranked.iter().map(|r| r.index).collect();
    let dists: Vec<f32> = ranked.iter().map(|r| r.dist.sqrt()).collect();
    let targets: Vec<f64> = idx.iter().map(|&i| train.y[i as usize]).collect();
    let task = Task::Reg {
        targets: &targets,
        test_target,
    };
    let (per_rank, grand) = weighted_shapley_ranked(&task, &dists, k, weight, form);
    (map_back(&idx, &per_rank, train.len()), grand)
}

/// Exact weighted-KNN classification SVs for a single test point (Theorem 7).
pub fn weighted_knn_class_shapley_single(
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
    weight: WeightFn,
) -> ShapleyValues {
    weighted_class_shapley_form(train, query, test_label, k, weight, GameForm::DataOnly).0
}

/// Exact weighted-KNN regression SVs for a single test point (Theorem 7).
pub fn weighted_knn_reg_shapley_single(
    train: &RegDataset,
    query: &[f32],
    test_target: f64,
    k: usize,
    weight: WeightFn,
) -> ShapleyValues {
    weighted_reg_shapley_form(train, query, test_target, k, weight, GameForm::DataOnly).0
}

/// One test point's weighted classification values over `ranked`, written
/// densely into `out` — the per-test step of [`crate::estimator`]'s fold.
pub(crate) fn fill_class_ranked(
    train: &ClassDataset,
    ranked: &[Neighbor],
    test_label: u32,
    k: usize,
    weight: WeightFn,
    out: &mut [f64],
) {
    let form = GameForm::DataOnly;
    let (values, _) =
        weighted_class_shapley_ranked_form(train, ranked, test_label, k, weight, form);
    out.copy_from_slice(values.as_slice());
}

/// Regression analogue of [`fill_class_ranked`].
pub(crate) fn fill_reg_ranked(
    train: &RegDataset,
    ranked: &[Neighbor],
    test_target: f64,
    k: usize,
    weight: WeightFn,
    out: &mut [f64],
) {
    let form = GameForm::DataOnly;
    let (values, _) = weighted_reg_shapley_ranked_form(train, ranked, test_target, k, weight, form);
    out.copy_from_slice(values.as_slice());
}

/// Multi-test weighted classification SVs (average of per-test games),
/// parallelized over test points into exact accumulators — bitwise-identical
/// at every thread count and reproducible by any full shard set of the
/// weighted [`Estimator`].
///
/// # Panics
///
/// Panics on data [`Estimator::new`] rejects.
pub fn weighted_knn_class_shapley(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    weight: WeightFn,
    threads: usize,
) -> ShapleyValues {
    Estimator::new(Data::class(train, test), k, weight, Family::Exact, None)
        .unwrap_or_else(|e| panic!("{e}"))
        .run(threads)
        .values
}

/// Multi-test weighted regression SVs, with the same thread and shard
/// invariance as [`weighted_knn_class_shapley`].
///
/// # Panics
///
/// Panics on data [`Estimator::new`] rejects.
pub fn weighted_knn_reg_shapley(
    train: &RegDataset,
    test: &RegDataset,
    k: usize,
    weight: WeightFn,
    threads: usize,
) -> ShapleyValues {
    Estimator::new(Data::reg(train, test), k, weight, Family::Exact, None)
        .unwrap_or_else(|e| panic!("{e}"))
        .run(threads)
        .values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_enum::shapley_enumeration;
    use crate::exact_regression::knn_reg_shapley_single;
    use crate::exact_unweighted::knn_class_shapley_single;
    use crate::utility::{KnnClassUtility, KnnRegUtility};
    use knnshap_datasets::Features;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_class(seed: u64, n: usize) -> (ClassDataset, ClassDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
        let train = ClassDataset::new(Features::new(feats, 2), labels, 3);
        let test = ClassDataset::new(
            Features::new(vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)], 2),
            vec![rng.gen_range(0..3)],
            3,
        );
        (train, test)
    }

    fn random_reg(seed: u64, n: usize) -> (RegDataset, RegDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let targets: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let train = RegDataset::new(Features::new(feats, 2), targets);
        let test = RegDataset::new(
            Features::new(vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)], 2),
            vec![rng.gen_range(-2.0..2.0)],
        );
        (train, test)
    }

    const INV: WeightFn = WeightFn::InverseDistance { eps: 1e-3 };

    #[test]
    fn classification_matches_enumeration() {
        for seed in 0..5u64 {
            for k in [1usize, 2, 3, 4] {
                let (train, test) = random_class(seed, 8);
                let fast =
                    weighted_knn_class_shapley_single(&train, test.x.row(0), test.y[0], k, INV);
                let truth = shapley_enumeration(&KnnClassUtility::new(&train, &test, k, INV));
                assert!(
                    fast.max_abs_diff(&truth) < 1e-9,
                    "seed={seed} k={k}: err={}",
                    fast.max_abs_diff(&truth)
                );
            }
        }
    }

    #[test]
    fn regression_matches_enumeration() {
        for seed in 0..5u64 {
            for k in [1usize, 2, 3] {
                let (train, test) = random_reg(seed, 7);
                let fast =
                    weighted_knn_reg_shapley_single(&train, test.x.row(0), test.y[0], k, INV);
                let truth = shapley_enumeration(&KnnRegUtility::new(&train, &test, k, INV));
                assert!(
                    fast.max_abs_diff(&truth) < 1e-9,
                    "seed={seed} k={k}: err={}",
                    fast.max_abs_diff(&truth)
                );
            }
        }
    }

    #[test]
    fn uniform_weights_recover_unweighted_classification() {
        let (train, test) = random_class(7, 12);
        for k in [1usize, 3, 5] {
            let weighted = weighted_knn_class_shapley_single(
                &train,
                test.x.row(0),
                test.y[0],
                k,
                WeightFn::Uniform,
            );
            let unweighted = knn_class_shapley_single(&train, test.x.row(0), test.y[0], k);
            assert!(
                weighted.max_abs_diff(&unweighted) < 1e-9,
                "k={k}: err={}",
                weighted.max_abs_diff(&unweighted)
            );
        }
    }

    #[test]
    fn uniform_weights_recover_unweighted_regression() {
        let (train, test) = random_reg(8, 10);
        for k in [1usize, 2, 4] {
            let weighted = weighted_knn_reg_shapley_single(
                &train,
                test.x.row(0),
                test.y[0],
                k,
                WeightFn::Uniform,
            );
            let unweighted = knn_reg_shapley_single(&train, test.x.row(0), test.y[0], k);
            assert!(
                weighted.max_abs_diff(&unweighted) < 1e-9,
                "k={k}: err={}",
                weighted.max_abs_diff(&unweighted)
            );
        }
    }

    #[test]
    fn k_exceeding_n_matches_enumeration() {
        let (train, test) = random_class(3, 6);
        for k in [6usize, 7, 10] {
            let fast = weighted_knn_class_shapley_single(&train, test.x.row(0), test.y[0], k, INV);
            let truth = shapley_enumeration(&KnnClassUtility::new(&train, &test, k, INV));
            assert!(fast.max_abs_diff(&truth) < 1e-9, "k={k}");
        }
    }

    #[test]
    fn multi_test_averages_and_parallelism() {
        let (train, _) = random_class(1, 9);
        let mut rng = StdRng::seed_from_u64(5);
        let test = ClassDataset::new(
            Features::new((0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), 2),
            vec![0, 1, 2, 0],
            3,
        );
        let serial = weighted_knn_class_shapley(&train, &test, 2, INV, 1);
        let par = weighted_knn_class_shapley(&train, &test, 2, INV, 4);
        assert!(serial.max_abs_diff(&par) < 1e-12);
        // average of singles
        let mut manual = ShapleyValues::zeros(train.len());
        for j in 0..test.len() {
            manual.add_assign(&weighted_knn_class_shapley_single(
                &train,
                test.x.row(j),
                test.y[j],
                2,
                INV,
            ));
        }
        manual.scale(1.0 / test.len() as f64);
        assert!(serial.max_abs_diff(&manual) < 1e-12);
    }

    #[test]
    fn single_point_training_set() {
        let train = ClassDataset::new(Features::new(vec![1.0], 1), vec![0], 2);
        let sv = weighted_knn_class_shapley_single(&train, &[0.0], 0, 3, INV);
        // ν({0}) with one vote of weight 1 (normalized) = 1
        assert!((sv[0] - 1.0).abs() < 1e-12);
    }
}
