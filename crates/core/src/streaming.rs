//! Online valuation over a stream of test points (§3.1, C1.2).
//!
//! The paper motivates the sublinear approximation with workloads such as
//! document retrieval, where "test points could arrive sequentially and the
//! values of each training point need to get updated and accumulated on the
//! fly, which makes it impossible to complete sorting offline".
//!
//! [`OnlineValuator`] owns the running per-point accumulator: each
//! [`observe`](OnlineValuator::observe) folds one test point's single-query
//! Shapley game into the sum — or, when queries arrive in bursts,
//! [`observe_batch`](OnlineValuator::observe_batch) fans a whole chunk across
//! the `knnshap_parallel` pool with its usual fixed-block, block-order
//! reduction — and [`values`](OnlineValuator::values) returns the average
//! over everything seen so far; by the additivity axiom this *equals* the
//! batch value of the utility (eq. 8) over the observed test set. Three
//! interchangeable backends trade accuracy for per-query cost:
//!
//! | backend | per-query cost | guarantee |
//! |---|---|---|
//! | [`StreamBackend::Exact`] | O(N log N) | exact (Theorem 1) |
//! | [`StreamBackend::Truncated`] | O(N + K* log K*) | (ε, 0) (Theorem 2) |
//! | [`StreamBackend::Lsh`] | sublinear | (ε, δ) (Theorem 4) |

use crate::exact_unweighted::knn_class_shapley_single;
use crate::lsh_approx::lsh_class_shapley_single;
use crate::truncated::truncated_class_shapley_single;
use crate::types::ShapleyValues;
use knnshap_datasets::ClassDataset;
use knnshap_lsh::index::LshIndex;
use knnshap_numerics::exact::ExactVec;

/// Per-query valuation strategy for [`OnlineValuator`].
pub enum StreamBackend<'a> {
    /// Theorem 1: full argsort per query.
    Exact,
    /// Theorem 2: exact partial retrieval of K* = max{K, ⌈1/ε⌉} neighbors.
    Truncated { eps: f64 },
    /// Theorem 4: approximate retrieval from a prebuilt p-stable LSH index
    /// over the *same* training matrix.
    Lsh { index: LshIndex<'a>, eps: f64 },
}

impl std::fmt::Debug for StreamBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamBackend::Exact => write!(f, "Exact"),
            StreamBackend::Truncated { eps } => write!(f, "Truncated {{ eps: {eps} }}"),
            StreamBackend::Lsh { index, eps } => {
                write!(f, "Lsh {{ tables: {}, eps: {eps} }}", index.num_tables())
            }
        }
    }
}

/// Accumulates training-point values as test points arrive.
///
/// ```
/// use knnshap_core::streaming::{OnlineValuator, StreamBackend};
/// use knnshap_datasets::synth::blobs::{self, BlobConfig};
///
/// let cfg = BlobConfig { n: 100, dim: 4, n_classes: 2, ..Default::default() };
/// let train = blobs::generate(&cfg);
/// let stream = blobs::queries(&cfg, 20, 11);
/// let mut online = OnlineValuator::new(&train, 3, StreamBackend::Exact);
/// for j in 0..stream.len() {
///     online.observe(stream.x.row(j), stream.y[j]);
/// }
/// let sv = online.values();
/// assert_eq!(sv.len(), 100);
/// assert_eq!(online.queries_seen(), 20);
/// ```
pub struct OnlineValuator<'a> {
    train: &'a ClassDataset,
    k: usize,
    backend: StreamBackend<'a>,
    /// Exact per-point accumulation of the per-query games: the running
    /// values are a pure function of the observed query *multiset*, so
    /// loops, batches and [`merge`](Self::merge)d shards all land on the
    /// same bits.
    sum: ExactVec,
    n_queries: usize,
}

impl<'a> OnlineValuator<'a> {
    /// Starts an empty accumulator over `train` with the given `K`.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or `k == 0`.
    pub fn new(train: &'a ClassDataset, k: usize, backend: StreamBackend<'a>) -> Self {
        assert!(!train.is_empty(), "training set is empty");
        assert!(k >= 1, "K must be at least 1");
        Self {
            train,
            k,
            backend,
            sum: ExactVec::zeros(train.len()),
            n_queries: 0,
        }
    }

    /// One query's single-test Shapley game under the configured backend.
    fn per_query(&self, query: &[f32], label: u32) -> ShapleyValues {
        assert_eq!(query.len(), self.train.dim(), "query dimension mismatch");
        match &self.backend {
            StreamBackend::Exact => knn_class_shapley_single(self.train, query, label, self.k),
            StreamBackend::Truncated { eps } => {
                truncated_class_shapley_single(self.train, query, label, self.k, *eps)
            }
            StreamBackend::Lsh { index, eps } => {
                lsh_class_shapley_single(index, self.train, query, label, self.k, *eps)
            }
        }
    }

    /// Folds one labeled test point into the running values and returns that
    /// query's own single-test Shapley vector (useful for per-query
    /// diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong dimensionality.
    pub fn observe(&mut self, query: &[f32], label: u32) -> ShapleyValues {
        let per_query = self.per_query(query, label);
        self.sum.add_dense(per_query.as_slice());
        self.n_queries += 1;
        per_query
    }

    /// Folds a whole chunk of arriving test points at once on the workspace
    /// default worker count. See [`observe_batch_with_threads`](Self::observe_batch_with_threads).
    pub fn observe_batch(&mut self, chunk: &ClassDataset) {
        self.observe_batch_with_threads(chunk, knnshap_parallel::current_threads());
    }

    /// Folds a chunk of arriving test points with an explicit worker count:
    /// the per-query games fan across the pool into exact accumulators, so
    /// the accumulator state after the call is bitwise-identical for every
    /// `threads` value — **and** to a query-by-query
    /// [`observe`](Self::observe) loop over the same chunk (exact
    /// accumulation makes the addition order immaterial).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` has the wrong dimensionality.
    pub fn observe_batch_with_threads(&mut self, chunk: &ClassDataset, threads: usize) {
        assert_eq!(chunk.dim(), self.train.dim(), "query dimension mismatch");
        if chunk.is_empty() {
            return;
        }
        let this: &OnlineValuator<'_> = self;
        let partial = crate::sharding::exact_sums_over(
            this.train.len(),
            0..chunk.len(),
            threads,
            |j, acc| acc.add_dense(this.per_query(chunk.x.row(j), chunk.y[j]).as_slice()),
        );
        self.sum.merge(&partial);
        self.n_queries += chunk.len();
    }

    /// Number of test points observed so far.
    pub fn queries_seen(&self) -> usize {
        self.n_queries
    }

    /// Running values: the average of the per-query games (zeros before the
    /// first observation), each exact sum rounded once and divided by the
    /// query count — the same finalization as the batch estimators, so an
    /// exact-backend stream over a test set reproduces
    /// [`crate::exact_unweighted::knn_class_shapley`] bit for bit.
    pub fn values(&self) -> ShapleyValues {
        crate::sharding::finalize_mean(&self.sum, self.n_queries as u64, 1)
    }

    /// Merges another accumulator over the *same* training set (e.g. a
    /// shard of the query stream processed by another worker). Panics on
    /// training-set-size or K mismatch.
    ///
    /// ### Semantics and determinism contract
    ///
    /// `merge` is **multiset union**, not idempotent: merging the same
    /// observations twice counts them twice (by design — a valuator carries
    /// no identity for its queries, only their accumulated games). Merging
    /// an empty valuator is a no-op. Because the accumulation is exact, any
    /// partition of a query stream into shards, each observed independently
    /// and merged in any order, yields [`values`](Self::values)
    /// bitwise-identical to a single valuator observing the whole stream —
    /// the property `tests/shard_determinism.rs` and the core proptests
    /// pin down. (Aliasing self-merge is unrepresentable in safe Rust;
    /// duplicate *shard files* are caught by the CLI merge's coverage
    /// check instead.)
    pub fn merge(&mut self, other: &OnlineValuator<'_>) {
        assert_eq!(self.sum.len(), other.sum.len(), "training set mismatch");
        assert_eq!(self.k, other.k, "K mismatch");
        self.sum.merge(&other.sum);
        self.n_queries += other.n_queries;
    }

    /// Discards the accumulated state, keeping train/K/backend.
    pub fn reset(&mut self) {
        self.sum = ExactVec::zeros(self.train.len());
        self.n_queries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_unweighted::knn_class_shapley_with_threads;
    use crate::lsh_approx::plan_index_params;
    use crate::truncated::k_star;
    use knnshap_datasets::synth::blobs::{self, BlobConfig};
    use knnshap_datasets::{contrast, normalize};

    fn data(n: usize, n_test: usize) -> (ClassDataset, ClassDataset) {
        let cfg = BlobConfig {
            n,
            dim: 6,
            n_classes: 3,
            cluster_std: 0.5,
            center_scale: 3.0,
            seed: 77,
        };
        (blobs::generate(&cfg), blobs::queries(&cfg, n_test, 5))
    }

    #[test]
    fn exact_stream_equals_batch() {
        let (train, test) = data(150, 12);
        let mut online = OnlineValuator::new(&train, 3, StreamBackend::Exact);
        for j in 0..test.len() {
            online.observe(test.x.row(j), test.y[j]);
        }
        let batch = knn_class_shapley_with_threads(&train, &test, 3, 1);
        assert!(online.values().max_abs_diff(&batch) < 1e-12);
        assert_eq!(online.queries_seen(), 12);
    }

    #[test]
    fn truncated_stream_within_eps_of_batch() {
        let (train, test) = data(200, 10);
        let eps = 0.1;
        let mut online = OnlineValuator::new(&train, 2, StreamBackend::Truncated { eps });
        for j in 0..test.len() {
            online.observe(test.x.row(j), test.y[j]);
        }
        let batch = knn_class_shapley_with_threads(&train, &test, 2, 1);
        assert!(online.values().max_abs_diff(&batch) <= eps + 1e-12);
    }

    #[test]
    fn lsh_stream_runs_and_is_bounded() {
        let (mut train, mut test) = data(400, 8);
        let factor = normalize::scale_to_unit_dmean(&mut train.x, 200, 3);
        normalize::apply_scale(&mut test.x, factor);
        let (k, eps, delta) = (1usize, 0.2f64, 0.2f64);
        let ks = k_star(k, eps);
        let est = contrast::estimate(&train.x, &test.x, ks, 8, 32, 5);
        let params = plan_index_params(train.len(), &est, k, eps, delta, 1.0, 24, 7);
        let index = LshIndex::build(&train.x, params);
        let mut online = OnlineValuator::new(&train, k, StreamBackend::Lsh { index, eps });
        for j in 0..test.len() {
            online.observe(test.x.row(j), test.y[j]);
        }
        let batch = knn_class_shapley_with_threads(&train, &test, k, 1);
        // δ-probability failures allowed; generous envelope.
        assert!(online.values().max_abs_diff(&batch) <= 0.5);
    }

    #[test]
    fn batch_ingestion_matches_query_loop_and_is_thread_count_free() {
        let (train, test) = data(120, 16);
        let mut looped = OnlineValuator::new(&train, 3, StreamBackend::Exact);
        for j in 0..test.len() {
            looped.observe(test.x.row(j), test.y[j]);
        }
        let mut batched = OnlineValuator::new(&train, 3, StreamBackend::Exact);
        batched.observe_batch(&test);
        assert_eq!(batched.queries_seen(), test.len());
        // Exact accumulation: the batched fold equals the query loop to the
        // bit, not merely approximately.
        let (a, b) = (batched.values(), looped.values());
        for i in 0..train.len() {
            assert_eq!(a.get(i).to_bits(), b.get(i).to_bits(), "i={i}");
        }

        // Bitwise thread-count invariance of the batched fold.
        let run = |threads: usize| {
            let mut v = OnlineValuator::new(&train, 3, StreamBackend::Exact);
            v.observe_batch_with_threads(&test, threads);
            v.values()
        };
        let serial = run(1);
        for threads in [2usize, 8] {
            let par = run(threads);
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
    fn empty_batch_is_a_no_op() {
        let (train, _) = data(30, 1);
        let empty = ClassDataset::new(
            knnshap_datasets::Features::new(vec![], train.dim()),
            vec![],
            3,
        );
        let mut online = OnlineValuator::new(&train, 2, StreamBackend::Exact);
        online.observe_batch(&empty);
        assert_eq!(online.queries_seen(), 0);
        assert_eq!(online.values().total(), 0.0);
    }

    #[test]
    fn per_query_vector_is_returned() {
        let (train, test) = data(50, 1);
        let mut online = OnlineValuator::new(&train, 1, StreamBackend::Exact);
        let pq = online.observe(test.x.row(0), test.y[0]);
        // single query: running average equals the per-query game
        assert!(online.values().max_abs_diff(&pq) < 1e-15);
    }

    #[test]
    fn values_before_any_query_are_zero() {
        let (train, _) = data(30, 1);
        let online = OnlineValuator::new(&train, 2, StreamBackend::Exact);
        assert_eq!(online.values().total(), 0.0);
        assert_eq!(online.queries_seen(), 0);
    }

    #[test]
    fn merging_empty_valuator_is_a_no_op() {
        let (train, test) = data(40, 5);
        let mut seen = OnlineValuator::new(&train, 2, StreamBackend::Exact);
        for j in 0..test.len() {
            seen.observe(test.x.row(j), test.y[j]);
        }
        let before = seen.values();
        let empty = OnlineValuator::new(&train, 2, StreamBackend::Exact);
        seen.merge(&empty);
        assert_eq!(seen.queries_seen(), 5);
        let after = seen.values();
        for i in 0..train.len() {
            assert_eq!(before.get(i).to_bits(), after.get(i).to_bits(), "i={i}");
        }
        // The mirror: folding observations into a fresh valuator.
        let mut fresh = OnlineValuator::new(&train, 2, StreamBackend::Exact);
        fresh.merge(&seen);
        assert_eq!(fresh.queries_seen(), 5);
        assert!(fresh.values().max_abs_diff(&after) == 0.0);
    }

    #[test]
    fn merge_is_multiset_union_not_idempotent() {
        // Documented semantics: merging the same observations twice counts
        // them twice. The *average* is unchanged (both copies carry the same
        // mean) but the query count doubles — merge is a union of
        // observation multisets, with no deduplication.
        let (train, test) = data(30, 4);
        let mut a = OnlineValuator::new(&train, 2, StreamBackend::Exact);
        let mut b = OnlineValuator::new(&train, 2, StreamBackend::Exact);
        for j in 0..test.len() {
            a.observe(test.x.row(j), test.y[j]);
            b.observe(test.x.row(j), test.y[j]);
        }
        let single = a.values();
        a.merge(&b);
        assert_eq!(a.queries_seen(), 8, "observations count twice");
        assert!(a.values().max_abs_diff(&single) < 1e-15, "mean unchanged");
    }

    #[test]
    fn merge_matches_single_pass() {
        let (train, test) = data(80, 10);
        let mut whole = OnlineValuator::new(&train, 2, StreamBackend::Exact);
        for j in 0..test.len() {
            whole.observe(test.x.row(j), test.y[j]);
        }
        let mut left = OnlineValuator::new(&train, 2, StreamBackend::Exact);
        let mut right = OnlineValuator::new(&train, 2, StreamBackend::Exact);
        for j in 0..5 {
            left.observe(test.x.row(j), test.y[j]);
        }
        for j in 5..10 {
            right.observe(test.x.row(j), test.y[j]);
        }
        left.merge(&right);
        assert_eq!(left.queries_seen(), 10);
        assert!(left.values().max_abs_diff(&whole.values()) < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let (train, test) = data(40, 3);
        let mut online = OnlineValuator::new(&train, 1, StreamBackend::Exact);
        for j in 0..3 {
            online.observe(test.x.row(j), test.y[j]);
        }
        online.reset();
        assert_eq!(online.queries_seen(), 0);
        assert_eq!(online.values().total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn observe_rejects_wrong_dim() {
        let (train, _) = data(20, 1);
        let mut online = OnlineValuator::new(&train, 1, StreamBackend::Exact);
        online.observe(&[0.0, 0.0], 0);
    }

    #[test]
    #[should_panic(expected = "training set is empty")]
    fn new_rejects_empty_train() {
        let empty = ClassDataset::new(knnshap_datasets::Features::new(vec![], 4), vec![], 2);
        OnlineValuator::new(&empty, 1, StreamBackend::Exact);
    }
}
