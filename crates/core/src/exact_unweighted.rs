//! Theorem 1 / Algorithm 1: exact Shapley values for the unweighted KNN
//! classifier in O(N log N) per test point.
//!
//! For one test point `(x_test, y_test)`, sort training points by distance
//! (`α_i` = index of the i-th nearest). Then:
//!
//! ```text
//! s_{α_N} = 1[y_{α_N} = y_test] / N
//! s_{α_i} = s_{α_{i+1}} + (1[y_{α_i} = y_test] − 1[y_{α_{i+1}} = y_test]) / K · min(K, i) / i
//! ```
//!
//! The multi-test value (utility eq. 8) is the average of per-test values by
//! the additivity axiom (Algorithm 1 lines 8–10). Test points run through
//! `knnshap_parallel::par_map_reduce`: each fixed block of test points folds
//! into a private accumulator (the hot recursion never touches shared
//! state).
//!
//! ### Determinism contract
//!
//! Per-test vectors accumulate in *exact* fixed-point sums
//! ([`knnshap_numerics::exact::ExactVec`]), so the multi-test average is a
//! pure function of the test-point multiset: bitwise-identical for every
//! thread count **and** for every sharding of the test range — the same
//! additivity decomposition that justifies averaging also makes any
//! contiguous test-point range ([`knn_class_shapley_shard`]) an independent
//! unit of work whose merged result reproduces the unsharded bits (see
//! [`crate::sharding`]).

use crate::sharding::{Fingerprint, ShardKind, ShardPartial, ShardSpec};
use crate::types::ShapleyValues;
use knnshap_datasets::ClassDataset;
use knnshap_knn::distance::Metric;
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::neighbors::{argsort_by_distance, Neighbor, Ranker};
use knnshap_numerics::exact::ExactVec;

/// Exact SVs w.r.t. a single test point (Theorem 1).
pub fn knn_class_shapley_single(
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
) -> ShapleyValues {
    let mut out = ShapleyValues::zeros(train.len());
    {
        let acc = out.as_mut_slice();
        accumulate_single(train, query, test_label, k, |i, s| acc[i] += s);
    }
    out
}

/// The Theorem 1 backward recursion over an *abstract* distance ranking.
///
/// `correct(r)` must return `1[y_{α_{r+1}} = y_test]` as an `f64` for the
/// 0-based rank `r`; `sink(r, s)` receives each rank's per-test Shapley
/// value, farthest rank first.
///
/// Backward recursion over ranks (1-based `i` in the paper, 0-based here).
/// The paper states the base as 1[y_{α_N} = y_test]/N, which assumes K < N;
/// re-deriving eq. (15)–(17) without that assumption gives
/// s_{α_N} = 1[...] · min(K, N)/(N·K), which the enumeration ground truth
/// confirms (with K ≥ N the game is additive and every correct point is
/// worth exactly 1/K).
///
/// This is the **one** implementation of the recursion's arithmetic in the
/// workspace: the batch drivers here feed it fresh argsorts, while the
/// resident engine ([`crate::resident`]) feeds it incrementally maintained
/// rank lists (including virtually spliced ones for what-if queries). Both
/// paths therefore execute the identical sequence of float operations, which
/// is what makes the serving layer's bitwise-equality contract hold.
pub fn theorem1_recurrence<C, S>(n: usize, k: usize, correct: C, mut sink: S)
where
    C: Fn(usize) -> f64,
    S: FnMut(usize, f64),
{
    assert!(n >= 1, "need at least one training point");
    assert!(k >= 1, "K must be at least 1");
    let mut s = correct(n - 1) * k.min(n) as f64 / (n as f64 * k as f64);
    sink(n - 1, s);
    for i in (0..n - 1).rev() {
        let rank1 = i + 1; // paper's 1-based rank of element `i`
        s += (correct(i) - correct(i + 1)) / k as f64 * (k.min(rank1) as f64 / rank1 as f64);
        sink(i, s);
    }
}

/// Runs the Theorem 1 recursion for one test point, handing each
/// `(train index, value)` pair to `sink` (a plain slice for the single-test
/// API, an exact accumulator for the multi-test/shard drivers).
fn accumulate_single<S: FnMut(usize, f64)>(
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
    sink: S,
) {
    assert!(train.len() >= 1, "need at least one training point");
    let ranked = argsort_by_distance(&train.x, query, Metric::SquaredL2);
    accumulate_ranked(train, &ranked, test_label, k, sink);
}

/// The recursion over an already-computed distance ranking — the seam the
/// graph-backed path enters through. The brute-force path above funnels into
/// this too, so both execute the identical float sequence.
fn accumulate_ranked<S: FnMut(usize, f64)>(
    train: &ClassDataset,
    ranked: &[Neighbor],
    test_label: u32,
    k: usize,
    mut sink: S,
) {
    let n = train.len();
    assert!(n >= 1, "need at least one training point");
    theorem1_recurrence(
        n,
        k,
        |rank| f64::from(train.y[ranked[rank].index as usize] == test_label),
        |rank, s| sink(ranked[rank].index as usize, s),
    );
}

/// Exact partial sums over one canonical shard of the test range, folded
/// with `threads` workers into exact accumulators.
///
/// ### Determinism contract
///
/// The shard's partial state depends only on `(train, test, k)` and the
/// shard's item range — not on `threads`, and not on how the rest of the
/// job is sharded. Merging the partials of any full shard set with
/// [`crate::sharding::merge_partials`] reproduces
/// [`knn_class_shapley_with_threads`] bit for bit.
///
/// ```
/// use knnshap_core::exact_unweighted::{knn_class_shapley, knn_class_shapley_shard};
/// use knnshap_core::sharding::{merge_partials, ShardSpec};
/// use knnshap_datasets::synth::blobs::{self, BlobConfig};
///
/// let cfg = BlobConfig { n: 40, dim: 3, n_classes: 2, ..Default::default() };
/// let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 7, 1));
/// let parts: Vec<_> = (0..2)
///     .map(|i| knn_class_shapley_shard(&train, &test, 1, ShardSpec::new(i, 2), 1))
///     .collect();
/// let merged = merge_partials(&parts).unwrap().values;
/// let whole = knn_class_shapley(&train, &test, 1);
/// assert!(merged.as_slice().iter().zip(whole.as_slice()).all(|(a, b)| a == b));
/// ```
pub fn knn_class_shapley_shard(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    spec: ShardSpec,
    threads: usize,
) -> ShardPartial {
    assert!(!test.is_empty(), "need at least one test point");
    assert_eq!(train.dim(), test.dim(), "train/test dimension mismatch");
    let range = spec.range(test.len());
    let sums = shard_sums(train, test, k, range.clone(), threads);
    let fingerprint = class_fingerprint(train, test, k);
    ShardPartial::new(
        ShardKind::ExactClass,
        fingerprint,
        train.len(),
        test.len(),
        range,
        sums,
    )
}

/// The job fingerprint of the unweighted exact-classification family — also
/// recomputed by the CLI `merge` to cross-check shard files against the
/// datasets and parameters it was invoked with.
pub fn class_fingerprint(train: &ClassDataset, test: &ClassDataset, k: usize) -> u64 {
    Fingerprint::new("exact-class")
        .u64(k as u64)
        .u64(crate::sharding::hash_class_dataset(train))
        .u64(crate::sharding::hash_class_dataset(test))
        .finish()
}

/// The shared fold both the shard entry point and the unsharded driver use.
fn shard_sums(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    range: std::ops::Range<usize>,
    threads: usize,
) -> ExactVec {
    // Dense fill: the recursion assigns every training point exactly one
    // contribution per test point, so each item overwrites the scratch
    // completely and the fold deposits it linearly (same bits, see
    // `exact_sums_over_dense`). Each fold block ranks into one reused
    // ranking scratch and list instead of allocating per test point.
    crate::sharding::exact_sums_over_dense(
        train.len(),
        range,
        threads,
        || (Ranker::new(), Vec::new()),
        |j, (ranker, ranked), scratch| {
            ranker.argsort(&train.x, test.x.row(j), Metric::SquaredL2, ranked);
            accumulate_ranked(train, ranked, test.y[j], k, |i, s| scratch[i] = s);
        },
    )
}

/// [`knn_class_shapley_shard`] fed by a precomputed graph instead of a
/// fresh distance pass.
///
/// The graph stores exactly the ranking [`argsort_by_distance`] produces
/// (same per-pair arithmetic, same tie-break), so the partial — and any
/// merge it participates in — is bitwise-identical to the brute-force
/// shard's, and carries the *same* kind and fingerprint: graph-backed and
/// brute-force partials of one job inter-merge freely.
///
/// Panics if the graph was not built from exactly `(train.x, test.x)`; CLI
/// entry points validate first and report a proper error.
pub fn knn_class_shapley_graph_shard(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    graph: &KnnGraph,
    spec: ShardSpec,
    threads: usize,
) -> ShardPartial {
    assert!(!test.is_empty(), "need at least one test point");
    graph
        .validate_against(&train.x, &test.x)
        .expect("graph/dataset mismatch");
    let range = spec.range(test.len());
    let sums = graph_shard_sums(train, test, k, graph, range.clone(), threads);
    let fingerprint = class_fingerprint(train, test, k);
    ShardPartial::new(
        ShardKind::ExactClass,
        fingerprint,
        train.len(),
        test.len(),
        range,
        sums,
    )
}

/// The graph-backed fold: identical to [`shard_sums`] except each test
/// point's ranking comes from the artifact instead of an argsort.
fn graph_shard_sums(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    graph: &KnnGraph,
    range: std::ops::Range<usize>,
    threads: usize,
) -> ExactVec {
    crate::sharding::exact_sums_over_dense(
        train.len(),
        range,
        threads,
        || (),
        |j, _, scratch| {
            accumulate_ranked(train, graph.list(j), test.y[j], k, |i, s| scratch[i] = s);
        },
    )
}

/// [`knn_class_shapley_with_threads`] fed by a precomputed graph: skips the
/// O(N·N_test·d) distance pass, returns the same bits.
pub fn knn_class_shapley_from_graph(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    graph: &KnnGraph,
    threads: usize,
) -> ShapleyValues {
    assert!(!test.is_empty(), "need at least one test point");
    graph
        .validate_against(&train.x, &test.x)
        .expect("graph/dataset mismatch");
    let sums = graph_shard_sums(train, test, k, graph, 0..test.len(), threads);
    crate::sharding::finalize_mean(&sums, test.len() as u64)
}

/// Exact SVs w.r.t. a whole test set (utility eq. 8): the average of the
/// per-test-point SVs, computed with `threads` workers.
pub fn knn_class_shapley_with_threads(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    threads: usize,
) -> ShapleyValues {
    assert!(!test.is_empty(), "need at least one test point");
    assert_eq!(train.dim(), test.dim(), "train/test dimension mismatch");
    let sums = shard_sums(train, test, k, 0..test.len(), threads);
    crate::sharding::finalize_mean(&sums, test.len() as u64)
}

/// [`knn_class_shapley_with_threads`] with the workspace default worker
/// count ([`knnshap_parallel::current_threads`]: `KNNSHAP_THREADS`, else one
/// per core).
///
/// ```
/// use knnshap_core::exact_unweighted::knn_class_shapley;
/// use knnshap_core::utility::{KnnClassUtility, Utility};
/// use knnshap_datasets::synth::blobs::{self, BlobConfig};
///
/// let cfg = BlobConfig { n: 150, dim: 4, n_classes: 3, ..Default::default() };
/// let train = blobs::generate(&cfg);
/// let test = blobs::queries(&cfg, 10, 42);
/// let sv = knn_class_shapley(&train, &test, 5);
/// // group rationality: the values distribute exactly the model's utility
/// let u = KnnClassUtility::unweighted(&train, &test, 5);
/// assert!((sv.total() - u.grand()).abs() < 1e-9);
/// ```
pub fn knn_class_shapley(train: &ClassDataset, test: &ClassDataset, k: usize) -> ShapleyValues {
    knn_class_shapley_with_threads(train, test, k, knnshap_parallel::current_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_enum::shapley_enumeration;
    use crate::utility::{KnnClassUtility, Utility};
    use knnshap_datasets::Features;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(seed: u64, n: usize, classes: u32) -> (ClassDataset, ClassDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
        let train = ClassDataset::new(Features::new(feats, 2), labels, classes);
        let tfeats: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let tlabels: Vec<u32> = (0..3).map(|_| rng.gen_range(0..classes)).collect();
        let test = ClassDataset::new(Features::new(tfeats, 2), tlabels, classes);
        (train, test)
    }

    #[test]
    fn matches_enumeration_single_test() {
        for seed in 0..8u64 {
            for k in [1usize, 2, 3, 7, 12] {
                let (train, test) = random_instance(seed, 9, 3);
                let single =
                    ClassDataset::new(Features::new(test.x.row(0).to_vec(), 2), vec![test.y[0]], 3);
                let fast = knn_class_shapley_single(&train, test.x.row(0), test.y[0], k);
                let truth = shapley_enumeration(&KnnClassUtility::unweighted(&train, &single, k));
                assert!(
                    fast.max_abs_diff(&truth) < 1e-10,
                    "seed={seed} k={k}: {:?} vs {:?}",
                    fast.as_slice(),
                    truth.as_slice()
                );
            }
        }
    }

    #[test]
    fn matches_enumeration_multi_test() {
        for seed in [3u64, 17, 99] {
            let (train, test) = random_instance(seed, 8, 2);
            let fast = knn_class_shapley_with_threads(&train, &test, 2, 1);
            let truth = shapley_enumeration(&KnnClassUtility::unweighted(&train, &test, 2));
            assert!(fast.max_abs_diff(&truth) < 1e-10, "seed={seed}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (train, test) = random_instance(5, 40, 3);
        let serial = knn_class_shapley_with_threads(&train, &test, 3, 1);
        let par = knn_class_shapley_with_threads(&train, &test, 3, 4);
        assert!(serial.max_abs_diff(&par) < 1e-12);
    }

    #[test]
    fn group_rationality() {
        // Σ s_i = ν(I) (classification has ν(∅) = 0).
        let (train, test) = random_instance(11, 25, 3);
        for k in [1usize, 4, 25, 40] {
            let sv = knn_class_shapley_with_threads(&train, &test, k, 2);
            let u = KnnClassUtility::unweighted(&train, &test, k);
            assert!(
                (sv.total() - u.grand()).abs() < 1e-9,
                "k={k}: {} vs {}",
                sv.total(),
                u.grand()
            );
        }
    }

    #[test]
    fn nearest_correct_point_is_most_valuable_k1() {
        // With K=1 and a single test point, the nearest correct-label point
        // must receive the largest SV.
        let train = ClassDataset::new(
            Features::new(vec![0.1, 0.9, 2.0, 3.0], 1),
            vec![1, 0, 1, 0],
            2,
        );
        let sv = knn_class_shapley_single(&train, &[0.0], 1, 1);
        let ranking = sv.ranking();
        assert_eq!(ranking[0], 0);
    }

    #[test]
    fn farthest_point_value_formula() {
        // s_{α_N} = 1[y_{α_N} = y_test] / N exactly.
        let train = ClassDataset::new(Features::new(vec![0.0, 1.0, 10.0], 1), vec![0, 0, 0], 1);
        let sv = knn_class_shapley_single(&train, &[0.0], 0, 2);
        assert!((sv[2] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_training_point() {
        let train = ClassDataset::new(Features::new(vec![0.5], 1), vec![1], 2);
        let sv = knn_class_shapley_single(&train, &[0.0], 1, 3);
        // ν({0}) = 1/K = 1/3; s_0 = 1/3 (efficiency with one player)
        assert!((sv[0] - 1.0 / 3.0).abs() < 1e-12);
        let sv_wrong = knn_class_shapley_single(&train, &[0.0], 0, 3);
        assert_eq!(sv_wrong[0], 0.0);
    }

    #[test]
    fn wrong_label_points_never_exceed_correct_at_same_rank() {
        // All-same-distance degenerate case: ties broken by index; just check
        // the recursion runs and values are finite and bounded by 1/K.
        let train = ClassDataset::new(Features::new(vec![1.0; 6], 1), vec![0, 1, 0, 1, 0, 1], 2);
        let sv = knn_class_shapley_single(&train, &[1.0], 0, 2);
        for i in 0..6 {
            assert!(sv[i].abs() <= 0.5 + 1e-12);
            assert!(sv[i].is_finite());
        }
    }
}
