//! Utility functions ν(S) for coalitions of training points.
//!
//! These are the games whose Shapley values the paper computes:
//!
//! * [`KnnClassUtility`] — eq. (5) (single test) / eq. (8) (multi test):
//!   `ν(S) = (1/N_test) Σ_j (1/K) Σ_{k≤min(K,|S|)} 1[y_{α_k^j(S)} = y_test,j]`,
//!   generalized to weighted voting (eq. 26) via a [`WeightFn`];
//! * [`KnnRegUtility`] — eq. (25) / eq. (27): negative squared prediction
//!   error of the (weighted) KNN regressor.
//!
//! ### The empty coalition
//!
//! The paper's group-rationality axiom states `ν(I) = Σ_i s_i`, which is the
//! efficiency axiom under the convention `ν(∅) = 0`. For classification
//! eq. (5) gives `ν(∅) = 0` automatically; for regression eq. (25) would
//! literally give `ν(∅) = −y_test²`, but the paper's Theorem 6 recursion (and
//! its group-rationality claim) correspond to the game with `ν(∅) := 0`, so
//! [`KnnRegUtility`] adopts that convention. (The two games differ only by a
//! constant `y_test²/N` shift of every Shapley value.)
//!
//! Every utility precomputes the `N_test × N` distance matrix once, so one
//! `eval(S)` costs `O(|S| · K · N_test)` — the dominant cost of the Monte
//! Carlo baselines, which is exactly why the paper's exact algorithms matter.

use knnshap_datasets::{ClassDataset, RegDataset};
use knnshap_knn::block::{QueryTile, QUERY_TILE};
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::weights::WeightFn;

/// A cooperative-game utility over coalitions of the `n` training points.
///
/// `subset` elements are training indices in `0..n`, distinct, in any order.
///
/// A game carries no job identity: only the KNN games shard, and
/// [`Estimator::identity`](crate::estimator::Estimator::identity) derives
/// their fingerprints from the datasets and parameters it binds.
pub trait Utility: Sync {
    /// Number of players.
    fn n(&self) -> usize;
    /// Evaluate ν(S).
    fn eval(&self, subset: &[usize]) -> f64;
    /// ν over the grand coalition (default: evaluates `eval(0..n)`).
    fn grand(&self) -> f64 {
        let all: Vec<usize> = (0..self.n()).collect();
        self.eval(&all)
    }
}

/// Dense `n_test × n` matrix of true L2 query-to-training distances.
#[derive(Debug, Clone)]
pub(crate) struct DistMatrix {
    d: Vec<f32>,
    n: usize,
}

impl DistMatrix {
    pub(crate) fn build(
        train: &knnshap_datasets::Features,
        test: &knnshap_datasets::Features,
    ) -> Self {
        assert_eq!(train.dim(), test.dim(), "train/test dimension mismatch");
        let n = train.len();
        let mut d = vec![0.0f32; test.len() * n];
        // Each query tile's squared distances come from the query-lane
        // kernel (bitwise `squared_l2`); `sqrt` of them is bitwise `l2`.
        for (tile, rows) in d.chunks_mut(QUERY_TILE * n.max(1)).enumerate() {
            let lo = tile * QUERY_TILE;
            QueryTile::new(test, lo..(lo + QUERY_TILE).min(test.len())).distances(train, rows);
            for x in rows.iter_mut() {
                *x = x.sqrt();
            }
        }
        Self { d, n }
    }

    /// Rebuild the matrix from a precomputed graph instead of a distance
    /// pass. The graph stores squared-L2 values bitwise-identical to
    /// `squared_l2`, and [`l2`](knnshap_knn::distance::l2) is exactly
    /// `squared_l2(..).sqrt()`, so scattering `dist.sqrt()` back to
    /// training-index positions reproduces [`DistMatrix::build`] bit for
    /// bit. Every rank list is a validated permutation, so every slot is
    /// filled exactly once.
    pub(crate) fn from_graph(graph: &KnnGraph) -> Self {
        let n = graph.n_train();
        let mut d = vec![0.0f32; graph.n_test() * n];
        for (j, row) in d.chunks_exact_mut(n.max(1)).enumerate() {
            for nb in graph.list(j) {
                row[nb.index as usize] = nb.dist.sqrt();
            }
        }
        Self { d, n }
    }

    #[inline]
    pub(crate) fn row(&self, test_idx: usize) -> &[f32] {
        &self.d[test_idx * self.n..(test_idx + 1) * self.n]
    }
}

/// Retain the `min(k, |subset|)` nearest members of `subset` under the
/// distance row `dist`, returning `(distance, train_index)` pairs in
/// ascending order. Ties break toward the smaller training index so results
/// are deterministic (and consistent with the `knn` crate's retrieval).
pub(crate) fn nearest_in_subset(
    dist: &[f32],
    subset: &[usize],
    k: usize,
    buf: &mut Vec<(f32, usize)>,
) {
    buf.clear();
    for &i in subset {
        let d = dist[i];
        let pos = buf
            .iter()
            .position(|&(bd, bi)| (d, i) < (bd, bi))
            .unwrap_or(buf.len());
        if pos < k {
            if buf.len() == k {
                buf.pop();
            }
            buf.insert(pos, (d, i));
        }
    }
}

/// The (weighted) KNN classification utility, eqs. (5)/(8)/(26).
pub struct KnnClassUtility {
    dist: DistMatrix,
    labels: Vec<u32>,
    test_labels: Vec<u32>,
    k: usize,
    weight: WeightFn,
}

impl KnnClassUtility {
    pub fn new(train: &ClassDataset, test: &ClassDataset, k: usize, weight: WeightFn) -> Self {
        Self::over(DistMatrix::build(&train.x, &test.x), train, test, k, weight)
    }

    /// [`KnnClassUtility::new`] over an already-built distance matrix.
    pub(crate) fn over(
        dist: DistMatrix,
        train: &ClassDataset,
        test: &ClassDataset,
        k: usize,
        weight: WeightFn,
    ) -> Self {
        assert!(k >= 1, "K must be at least 1");
        assert!(!test.is_empty(), "need at least one test point");
        Self {
            dist,
            labels: train.y.clone(),
            test_labels: test.y.clone(),
            k,
            weight,
        }
    }

    pub fn unweighted(train: &ClassDataset, test: &ClassDataset, k: usize) -> Self {
        Self::new(train, test, k, WeightFn::Uniform)
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Per-test-point utility (the summand of eq. 8).
    pub fn eval_for_test(
        &self,
        test_idx: usize,
        subset: &[usize],
        buf: &mut Vec<(f32, usize)>,
    ) -> f64 {
        let dist = self.dist.row(test_idx);
        nearest_in_subset(dist, subset, self.k, buf);
        if buf.is_empty() {
            return 0.0;
        }
        let dists: Vec<f32> = buf.iter().map(|&(d, _)| d).collect();
        let w = self.weight.weights(&dists, self.k.max(dists.len()));
        buf.iter()
            .zip(&w)
            .filter(|(&(_, i), _)| self.labels[i] == self.test_labels[test_idx])
            .map(|(_, &wk)| wk)
            .sum()
    }
}

impl Utility for KnnClassUtility {
    fn n(&self) -> usize {
        self.labels.len()
    }

    fn eval(&self, subset: &[usize]) -> f64 {
        let mut buf = Vec::with_capacity(self.k);
        let total: f64 = (0..self.test_labels.len())
            .map(|j| self.eval_for_test(j, subset, &mut buf))
            .sum();
        total / self.test_labels.len() as f64
    }
}

/// The (weighted) KNN regression utility, eqs. (25)/(27), with `ν(∅) = 0`.
pub struct KnnRegUtility {
    dist: DistMatrix,
    targets: Vec<f64>,
    test_targets: Vec<f64>,
    k: usize,
    weight: WeightFn,
}

impl KnnRegUtility {
    pub fn new(train: &RegDataset, test: &RegDataset, k: usize, weight: WeightFn) -> Self {
        Self::over(DistMatrix::build(&train.x, &test.x), train, test, k, weight)
    }

    /// [`KnnRegUtility::new`] over an already-built distance matrix.
    pub(crate) fn over(
        dist: DistMatrix,
        train: &RegDataset,
        test: &RegDataset,
        k: usize,
        weight: WeightFn,
    ) -> Self {
        assert!(k >= 1, "K must be at least 1");
        assert!(!test.is_empty(), "need at least one test point");
        Self {
            dist,
            targets: train.y.clone(),
            test_targets: test.y.clone(),
            k,
            weight,
        }
    }

    pub fn unweighted(train: &RegDataset, test: &RegDataset, k: usize) -> Self {
        Self::new(train, test, k, WeightFn::Uniform)
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Per-test-point utility (`0` for the empty coalition, see module docs).
    pub fn eval_for_test(
        &self,
        test_idx: usize,
        subset: &[usize],
        buf: &mut Vec<(f32, usize)>,
    ) -> f64 {
        if subset.is_empty() {
            return 0.0;
        }
        let dist = self.dist.row(test_idx);
        nearest_in_subset(dist, subset, self.k, buf);
        let dists: Vec<f32> = buf.iter().map(|&(d, _)| d).collect();
        let w = self.weight.weights(&dists, self.k.max(dists.len()));
        let pred: f64 = buf
            .iter()
            .zip(&w)
            .map(|(&(_, i), &wk)| wk * self.targets[i])
            .sum();
        let e = pred - self.test_targets[test_idx];
        -(e * e)
    }
}

impl Utility for KnnRegUtility {
    fn n(&self) -> usize {
        self.targets.len()
    }

    fn eval(&self, subset: &[usize]) -> f64 {
        if subset.is_empty() {
            return 0.0;
        }
        let mut buf = Vec::with_capacity(self.k);
        let total: f64 = (0..self.test_targets.len())
            .map(|j| self.eval_for_test(j, subset, &mut buf))
            .sum();
        total / self.test_targets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knnshap_datasets::Features;

    fn class_data() -> (ClassDataset, ClassDataset) {
        // 1-D training points at 0..5, labels alternate
        let train = ClassDataset::new(
            Features::new(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 1),
            vec![0, 1, 0, 1, 0, 1],
            2,
        );
        let test = ClassDataset::new(Features::new(vec![0.2], 1), vec![0], 2);
        (train, test)
    }

    #[test]
    fn nearest_in_subset_selects_and_sorts() {
        let dist = [5.0f32, 1.0, 3.0, 0.5, 2.0];
        let mut buf = Vec::new();
        nearest_in_subset(&dist, &[0, 1, 2, 3, 4], 3, &mut buf);
        assert_eq!(buf, vec![(0.5, 3), (1.0, 1), (2.0, 4)]);
        nearest_in_subset(&dist, &[0, 2], 3, &mut buf);
        assert_eq!(buf, vec![(3.0, 2), (5.0, 0)]);
        nearest_in_subset(&dist, &[], 3, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn nearest_in_subset_tie_break_by_index() {
        let dist = [1.0f32, 1.0, 1.0];
        let mut buf = Vec::new();
        nearest_in_subset(&dist, &[2, 0, 1], 2, &mut buf);
        assert_eq!(buf, vec![(1.0, 0), (1.0, 1)]);
    }

    #[test]
    fn class_utility_eq5_semantics() {
        let (train, test) = class_data();
        let u = KnnClassUtility::unweighted(&train, &test, 3);
        assert_eq!(u.n(), 6);
        // empty coalition
        assert_eq!(u.eval(&[]), 0.0);
        // single correct-label point: 1/K
        assert!((u.eval(&[0]) - 1.0 / 3.0).abs() < 1e-12);
        // single wrong-label point: 0
        assert_eq!(u.eval(&[1]), 0.0);
        // full set: neighbors of 0.2 are {0,1,2}, labels {0,1,0} => 2/3
        assert!((u.grand() - 2.0 / 3.0).abs() < 1e-12);
        // subset {3,4,5}: neighbors all three, labels {1,0,1} => 1/3
        assert!((u.eval(&[3, 4, 5]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn class_utility_multi_test_averages() {
        let (train, _) = class_data();
        let test = ClassDataset::new(Features::new(vec![0.2, 5.1], 1), vec![0, 0], 2);
        let u = KnnClassUtility::unweighted(&train, &test, 1);
        // test 0: 1-NN is point 0 (label 0, correct) => 1
        // test 1: 1-NN is point 5 (label 1, wrong) => 0
        assert!((u.grand() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_uniform_matches_unweighted() {
        let (train, test) = class_data();
        let u1 = KnnClassUtility::unweighted(&train, &test, 3);
        let u2 = KnnClassUtility::new(&train, &test, 3, WeightFn::Uniform);
        for subset in [vec![], vec![0], vec![1, 2, 3], vec![0, 1, 2, 3, 4, 5]] {
            assert_eq!(u1.eval(&subset), u2.eval(&subset));
        }
    }

    #[test]
    fn weighted_votes_sum_to_one_for_pure_subsets() {
        let (train, test) = class_data();
        let u = KnnClassUtility::new(&train, &test, 2, WeightFn::InverseDistance { eps: 1e-6 });
        // subset of two correct-label points: weights sum to 1
        assert!((u.eval(&[0, 2]) - 1.0).abs() < 1e-9);
        // mixed subset: in (0, 1)
        let v = u.eval(&[0, 1]);
        assert!(v > 0.0 && v < 1.0);
    }

    #[test]
    fn reg_utility_semantics() {
        let train = RegDataset::new(Features::new(vec![0.0, 1.0, 2.0], 1), vec![0.0, 1.0, 2.0]);
        let test = RegDataset::new(Features::new(vec![0.1], 1), vec![0.5]);
        let u = KnnRegUtility::unweighted(&train, &test, 2);
        // empty coalition: 0 by convention
        assert_eq!(u.eval(&[]), 0.0);
        // {0}: pred = 0/2 = 0 (divide by K), err -0.25
        assert!((u.eval(&[0]) + 0.25).abs() < 1e-9);
        // {0,1}: pred = (0+1)/2 = 0.5, err 0
        assert!(u.eval(&[0, 1]).abs() < 1e-9);
        // grand: nearest two of 0.1 are {0,1} => same as above
        assert!(u.grand().abs() < 1e-9);
    }

    #[test]
    fn reg_utility_is_never_positive() {
        let train = RegDataset::new(Features::new(vec![0.0, 3.0, 5.0], 1), vec![1.0, -2.0, 4.0]);
        let test = RegDataset::new(Features::new(vec![1.0, 4.0], 1), vec![0.3, 0.7]);
        let u = KnnRegUtility::unweighted(&train, &test, 2);
        for subset in [vec![], vec![0], vec![1, 2], vec![0, 1, 2]] {
            assert!(u.eval(&subset) <= 1e-15);
        }
    }
}
