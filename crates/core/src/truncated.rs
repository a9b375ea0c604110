//! Theorem 2: the truncated (ε, 0)-approximation.
//!
//! Only the `K* = max(K, ⌈1/ε⌉)` nearest neighbors matter: the true SV of the
//! rank-`i` point is bounded by `min(1/i, 1/K)` (proof of Theorem 2), so
//! setting `ŝ_{α_i} = 0` for ranks `i ≥ K*` and running the Theorem 1
//! recursion below rank `K*` yields `‖ŝ − s‖_∞ ≤ ε` with *zero* failure
//! probability — and, because `ŝ_i − ŝ_{i+1} = s_i − s_{i+1}` for
//! `i ≤ K* − 1`, the approximation preserves the exact value ranking of the
//! `K*` nearest points.
//!
//! Retrieval uses `select_nth_unstable` (expected O(N)) instead of a full
//! sort, so a single-test valuation costs O(N + K* log K*) versus the exact
//! algorithm's O(N log N).
//!
//! One behaviour worth flagging for users: when every retained neighbor has
//! the same label-correctness (e.g. perfectly pure clusters), every
//! recursion difference is zero and the estimate is *identically zero* —
//! still within ε of the truth (each exact value is ≤ 1/K* ≤ ε there), but
//! carrying no ranking information. Ranking-sensitive applications should
//! tighten ε or fall back to the exact algorithm when the estimate
//! degenerates; see `all_zero_estimate_on_pure_clusters_is_still_valid`.

use crate::estimator::{Data, Estimator, Family};
use crate::exact_unweighted::{switch_points, theorem1_until};
use crate::types::ShapleyValues;
use knnshap_datasets::ClassDataset;
use knnshap_knn::distance::Metric;
use knnshap_knn::neighbors::{partial_k_nearest, Neighbor};
use knnshap_knn::weights::WeightFn;

/// `K* = max(K, ⌈1/ε⌉)` — the number of neighbors whose values must be
/// computed to achieve ‖ŝ − s‖_∞ ≤ ε.
///
/// ```
/// use knnshap_core::truncated::k_star;
/// assert_eq!(k_star(5, 0.1), 10);   // ⌈1/0.1⌉ dominates
/// assert_eq!(k_star(50, 0.1), 50);  // K dominates
/// ```
pub fn k_star(k: usize, eps: f64) -> usize {
    assert!(k >= 1, "K must be at least 1");
    assert!(eps > 0.0, "epsilon must be positive");
    k.max((1.0 / eps).ceil() as usize)
}

/// Run the truncated recursion (eqs. 18–19) over an already-retrieved,
/// ascending-sorted neighbor list covering ranks `1..=len`.
///
/// This is shared by the exact-retrieval path below and the LSH-backed path
/// in [`crate::lsh_approx`]; `n` is the full training-set size (values of
/// unretrieved points are 0).
#[doc(hidden)]
pub fn truncated_recursion(
    neighbors: &[Neighbor],
    labels: &[u32],
    test_label: u32,
    k: usize,
    k_star: usize,
    n: usize,
) -> ShapleyValues {
    let mut out = ShapleyValues::zeros(n);
    fill_ranked(neighbors, labels, test_label, k, k_star, out.as_mut_slice());
    out
}

/// [`truncated_recursion`] written into the zeroed `out` (length `n`):
/// the ranks past `K*` (and the unretrieved points) keep their zeros.
pub(crate) fn fill_ranked(
    neighbors: &[Neighbor],
    labels: &[u32],
    test_label: u32,
    k: usize,
    k_star: usize,
    out: &mut [f64],
) {
    if neighbors.is_empty() {
        return;
    }
    let correct =
        |rank: usize| -> f64 { f64::from(labels[neighbors[rank].index as usize] == test_label) };
    let len = neighbors.len().min(k_star);
    let exact = len == out.len();
    let sink = |rank: usize, s: f64| out[neighbors[rank].index as usize] = s;
    if exact {
        // Every point retrieved: fall back to the exact base (Theorem 1) so
        // the "truncated" estimator degrades gracefully to the exact SV.
        theorem1_until(len, k, 0, correct, sink);
    } else {
        // ŝ at rank K* is 0 by eq. (18).
        switch_points(len, 0, k, 0.0, correct, sink);
    }
}

/// Truncated SVs w.r.t. a single test point, using exact partial retrieval.
pub fn truncated_class_shapley_single(
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
    eps: f64,
) -> ShapleyValues {
    let ks = k_star(k, eps);
    let neighbors = partial_k_nearest(&train.x, query, ks, Metric::SquaredL2);
    truncated_recursion(&neighbors, &train.y, test_label, k, ks, train.len())
}

/// Truncated SVs using a prebuilt kd-tree for retrieval — exact neighbors,
/// so the same (ε, 0) guarantee as [`truncated_class_shapley_single`], with
/// sub-scan query cost in low/moderate dimensions (the tree is the paper's
/// §3.2 alternative to LSH).
pub fn truncated_class_shapley_with_kdtree(
    tree: &knnshap_knn::kdtree::KdTree<'_>,
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
    eps: f64,
) -> ShapleyValues {
    assert_eq!(tree.len(), train.len(), "tree/dataset size mismatch");
    let ks = k_star(k, eps);
    let neighbors = tree.k_nearest(query, ks);
    truncated_recursion(&neighbors, &train.y, test_label, k, ks, train.len())
}

/// Truncated SVs w.r.t. a test set (average of per-test values), on the
/// workspace default worker count. The per-test games fan across the pool
/// into *exact* accumulators, so the average is bitwise-identical for every
/// thread count — and for every sharding of the test range through
/// [`crate::estimator::Estimator`], which also picks the worker count and
/// takes a precomputed graph.
///
/// # Panics
///
/// Panics on data [`crate::estimator::Estimator::new`] rejects.
pub fn truncated_class_shapley(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    eps: f64,
) -> ShapleyValues {
    let data = Data::class(train, test);
    Estimator::new(data, k, WeightFn::Uniform, Family::Truncated { eps }, None)
        .unwrap_or_else(|e| panic!("{e}"))
        .run(knnshap_parallel::current_threads())
        .values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_unweighted::{knn_class_shapley_single, knn_class_shapley_with_threads};
    use knnshap_datasets::synth::blobs::{self, BlobConfig};
    use knnshap_datasets::Features;

    fn truncated_class_shapley_with_threads(
        train: &ClassDataset,
        test: &ClassDataset,
        k: usize,
        eps: f64,
        threads: usize,
    ) -> ShapleyValues {
        let family = Family::Truncated { eps };
        let est = Estimator::new(Data::class(train, test), k, WeightFn::Uniform, family, None);
        est.unwrap().run(threads).values
    }

    fn instance(n: usize) -> (ClassDataset, ClassDataset) {
        let cfg = BlobConfig {
            n,
            dim: 4,
            n_classes: 3,
            cluster_std: 1.0,
            center_scale: 2.0,
            seed: 42,
        };
        (blobs::generate(&cfg), blobs::queries(&cfg, 5, 7))
    }

    #[test]
    fn k_star_formula() {
        assert_eq!(k_star(1, 0.1), 10);
        assert_eq!(k_star(50, 0.1), 50);
        assert_eq!(k_star(2, 0.34), 3); // ceil(1/0.34) = 3
        assert_eq!(k_star(1, 2.0), 1);
    }

    #[test]
    fn error_within_epsilon_single() {
        let (train, test) = instance(120);
        for eps in [0.5, 0.1, 0.05] {
            for k in [1usize, 3] {
                let exact = knn_class_shapley_single(&train, test.x.row(0), test.y[0], k);
                let approx =
                    truncated_class_shapley_single(&train, test.x.row(0), test.y[0], k, eps);
                let err = exact.max_abs_diff(&approx);
                assert!(err <= eps + 1e-12, "eps={eps} k={k}: err={err}");
            }
        }
    }

    #[test]
    fn error_within_epsilon_multi() {
        let (train, test) = instance(100);
        let eps = 0.08;
        let exact = knn_class_shapley_with_threads(&train, &test, 2, 1);
        let approx = truncated_class_shapley(&train, &test, 2, eps);
        assert!(exact.max_abs_diff(&approx) <= eps + 1e-12);
    }

    #[test]
    fn multi_test_bitwise_identical_across_thread_counts() {
        let (train, test) = instance(90);
        let serial = truncated_class_shapley_with_threads(&train, &test, 2, 0.1, 1);
        for threads in [2usize, 8] {
            let par = truncated_class_shapley_with_threads(&train, &test, 2, 0.1, threads);
            for i in 0..train.len() {
                assert_eq!(
                    serial.get(i).to_bits(),
                    par.get(i).to_bits(),
                    "i={i} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn rank_preserved_for_top_k_star() {
        // Theorem 2: ŝ_i − ŝ_{i+1} = s_i − s_{i+1} for i ≤ K*−1, so the value
        // order of the retrieved prefix matches the exact order exactly.
        let (train, test) = instance(80);
        let eps = 0.2; // K* = 5
        let k = 2;
        let exact = knn_class_shapley_single(&train, test.x.row(1), test.y[1], k);
        let approx = truncated_class_shapley_single(&train, test.x.row(1), test.y[1], k, eps);
        let ks = k_star(k, eps);
        let neighbors = partial_k_nearest(&train.x, test.x.row(1), ks, Metric::SquaredL2);
        for w in neighbors.windows(2) {
            let (a, b) = (w[0].index as usize, w[1].index as usize);
            let de = exact[a] - exact[b];
            let da = approx[a] - approx[b];
            assert!((de - da).abs() < 1e-12, "difference not preserved");
        }
    }

    #[test]
    fn degenerates_to_exact_when_k_star_covers_all() {
        let (train, test) = instance(30);
        // eps tiny => K* >= N => estimator must equal the exact SV.
        let exact = knn_class_shapley_single(&train, test.x.row(0), test.y[0], 3);
        let approx = truncated_class_shapley_single(&train, test.x.row(0), test.y[0], 3, 1e-9);
        assert!(exact.max_abs_diff(&approx) < 1e-12);
    }

    #[test]
    fn unretrieved_points_are_zero() {
        let (train, test) = instance(60);
        let approx = truncated_class_shapley_single(&train, test.x.row(0), test.y[0], 1, 0.25);
        let nonzero = approx.as_slice().iter().filter(|v| **v != 0.0).count();
        assert!(nonzero <= k_star(1, 0.25));
    }

    #[test]
    fn kdtree_backend_matches_scan_backend() {
        let (train, test) = instance(150);
        let tree = knnshap_knn::kdtree::KdTree::build(&train.x);
        for eps in [0.3, 0.1] {
            for k in [1usize, 3] {
                let scan = truncated_class_shapley_single(&train, test.x.row(2), test.y[2], k, eps);
                let via_tree = truncated_class_shapley_with_kdtree(
                    &tree,
                    &train,
                    test.x.row(2),
                    test.y[2],
                    k,
                    eps,
                );
                assert!(scan.max_abs_diff(&via_tree) < 1e-12, "eps={eps} k={k}");
            }
        }
    }

    #[test]
    fn tiny_training_set() {
        let train = ClassDataset::new(Features::new(vec![0.0, 1.0], 1), vec![1, 0], 2);
        let approx = truncated_class_shapley_single(&train, &[0.1], 1, 1, 0.5);
        let exact = knn_class_shapley_single(&train, &[0.1], 1, 1);
        // K* = 2 >= N: must be exact
        assert!(approx.max_abs_diff(&exact) < 1e-12);
    }

    #[test]
    fn all_zero_estimate_on_pure_clusters_is_still_valid() {
        // All K* retained neighbors carry the query's label, so every
        // recursion difference is zero and the estimate degenerates to the
        // all-zero vector — which Theorem 2 nevertheless certifies, because
        // every exact value is ≤ 1/K* ≤ ε here.
        let n = 100;
        let feats: Vec<f32> = (0..n).map(|i| i as f32 * 0.01).collect();
        let train = ClassDataset::new(Features::new(feats, 1), vec![0; n], 1);
        let eps = 0.1; // K* = 10 < N
        let approx = truncated_class_shapley_single(&train, &[0.0], 0, 2, eps);
        assert!(approx.as_slice().iter().all(|&v| v == 0.0));
        let exact = knn_class_shapley_single(&train, &[0.0], 0, 2);
        assert!(approx.max_abs_diff(&exact) <= eps + 1e-12);
        // and the exact values really are individually below ε
        assert!(exact.as_slice().iter().all(|&v| v.abs() <= eps + 1e-12));
    }
}
