//! Resident valuation state with incremental train-point churn — the engine
//! behind `knnshap serve`.
//!
//! The paper's O(N_test · N log N) cost (Theorem 1) is dominated by work
//! that does **not** depend on which training points are present: computing
//! N_test × N distances and sorting them. [`ResidentValuator`] keeps that
//! state resident — one rank list per test point — so that inserting or
//! deleting a single training point only perturbs each rank list locally
//! (a binary search + splice per test point) and revaluation reruns just
//! the O(N) Theorem 1 recursion per test point, with no distance
//! computation and no sorting. An M-mutation replay therefore costs
//! M · O(N_test · N) cheap arithmetic instead of M cold
//! O(N_test · (N·d + N)) rebuilds (`bench_serve_incremental`
//! quantifies the gap).
//!
//! ### Determinism contract
//!
//! After **any** sequence of [`insert`](ResidentValuator::insert) /
//! [`delete`](ResidentValuator::delete) mutations, [`values`](ResidentValuator::values)
//! is **bitwise-identical** to a cold
//! [`knn_class_shapley_with_threads`](crate::exact_unweighted::knn_class_shapley_with_threads)
//! run on the final dataset, at every thread count. Three facts carry this:
//!
//! 1. **Rank lists stay canonical.** The batch path ranks by
//!    `(distance, train index)` (ties broken toward the smaller index).
//!    An inserted point takes the *largest* index, so splicing it after all
//!    equal-distance entries reproduces the cold sort; deletion preserves
//!    the relative order of the survivors, and renumbering (indices above
//!    the deleted point shift down by one) preserves it still — so the
//!    maintained list equals a fresh argsort of the mutated dataset entry
//!    for entry, duplicate distances included.
//! 2. **One recursion.** Both paths run the identical
//!    [`theorem1_recurrence`] arithmetic over those (equal) rank lists.
//! 3. **Exact accumulation.** Per-test vectors fold into
//!    [`knnshap_numerics::exact::ExactVec`] and finalize through the same
//!    `sharding::finalize_mean` as the batch estimator, so the
//!    cross-test reduction is a pure function of the test multiset — never
//!    of threads.
//!
//! `tests/serve_incremental.rs` (workspace root) holds the engine to this
//! with randomized mutation interleavings, cross-checked against an
//! independent implementation of the recurrence following the Wang–Jia
//! correction note (arXiv:2304.04258).
//!
//! ### Batched mutations
//!
//! [`apply_batch`](ResidentValuator::apply_batch) applies a whole group of
//! mutations with **one** rank-list splice pass (each test point's list is
//! updated once, walking the group's splices in order) instead of one
//! parallel pass per mutation — and, because revaluation is a separate
//! step ([`values`](ResidentValuator::values)), a caller that coalesces M
//! mutations pays for **one** recursion instead of M. The per-test-point
//! splice operations are the identical ones the one-at-a-time path runs in
//! the identical order, so the resulting rank lists — and therefore the
//! bits of every vector computed from them — are the same as sequential
//! application. `insert` and `delete` are in fact thin wrappers over a
//! one-element batch, so there is exactly one splice implementation to
//! trust. `tests/serve_batching.rs` holds batched-vs-sequential to bitwise
//! equality over random groups.

use crate::exact_unweighted::theorem1_recurrence;
use crate::types::ShapleyValues;
use knnshap_datasets::ClassDataset;
use knnshap_knn::distance::Metric;
use knnshap_knn::neighbors::{argsort_by_distance, Neighbor};

/// Everything a mutation or query on resident state can reject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResidentError {
    /// Candidate/query feature count differs from the dataset dimension.
    DimMismatch { expected: usize, got: usize },
    /// Candidate features contain NaN/±inf (distance ordering undefined).
    NonFinite,
    /// Train-point index past the current training-set size.
    OutOfRange { index: usize, len: usize },
    /// Deleting the last training point would leave an empty game.
    LastPoint,
    /// The supplied KNN graph was not built from these datasets
    /// ([`ResidentValuator::with_graph`]).
    GraphMismatch { detail: String },
}

impl std::fmt::Display for ResidentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResidentError::DimMismatch { expected, got } => {
                write!(f, "point has {got} features but the dataset has {expected}")
            }
            ResidentError::NonFinite => {
                write!(f, "point has non-finite features (NaN or infinity)")
            }
            ResidentError::OutOfRange { index, len } => {
                write!(f, "train index {index} out of range 0..{len}")
            }
            ResidentError::LastPoint => {
                write!(f, "cannot delete the last training point")
            }
            ResidentError::GraphMismatch { detail } => {
                write!(f, "graph does not match the datasets: {detail}")
            }
        }
    }
}

impl std::error::Error for ResidentError {}

/// One train-set mutation, as submitted to
/// [`ResidentValuator::apply_batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Append a training point (it takes the next free index).
    Insert { features: Vec<f32>, label: u32 },
    /// Remove training point `index`; survivors above renumber down by one.
    Delete { index: usize },
}

/// A committed mutation's receipt: the train index it touched (new index
/// for inserts, removed index for deletes) and the dataset version its
/// commit produced — each accepted mutation of a batch gets its own
/// consecutive version, exactly as sequential application would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    pub index: usize,
    pub version: u64,
}

/// An accepted mutation, resolved against the dataset state at its point
/// in the batch — everything the splice pass needs without re-touching the
/// (already mutated) training set.
enum ResolvedOp {
    /// The new point's features and the index it was assigned.
    Insert { row: Vec<f32>, index: u32 },
    /// The index that was removed (as numbered when the delete applied).
    Delete { index: usize },
}

/// Resident distance/rank state over `(train, test, K)` supporting
/// incremental train-point insert/delete and exact revaluation.
///
/// ```
/// use knnshap_core::exact_unweighted::knn_class_shapley_with_threads;
/// use knnshap_core::resident::ResidentValuator;
/// use knnshap_datasets::synth::blobs::{self, BlobConfig};
///
/// let cfg = BlobConfig { n: 60, dim: 4, n_classes: 2, ..Default::default() };
/// let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 8, 3));
/// let mut engine = ResidentValuator::new(train.clone(), test.clone(), 3, 1).unwrap();
///
/// // Mutate: drop point 5, re-insert a copy of point 0's features.
/// engine.delete(5).unwrap();
/// let new_idx = engine.insert(train.x.row(0), train.y[0]).unwrap();
/// assert_eq!(new_idx, 59); // appended at the end of the renumbered set
/// assert_eq!(engine.version(), 2);
///
/// // Bitwise-identical to a cold run on the final dataset.
/// let served = engine.values();
/// let cold = knn_class_shapley_with_threads(engine.train(), &test, 3, 1);
/// for i in 0..served.len() {
///     assert_eq!(served.get(i).to_bits(), cold.get(i).to_bits());
/// }
/// ```
#[derive(Debug)]
pub struct ResidentValuator {
    train: ClassDataset,
    test: ClassDataset,
    k: usize,
    threads: usize,
    /// One canonical `(distance, index)`-sorted rank list per test point —
    /// always equal to a fresh `argsort_by_distance` of the current train
    /// set (the invariant every mutation maintains).
    ranked: Vec<Vec<Neighbor>>,
    /// Dataset version: 0 for the loaded dataset, +1 per committed mutation.
    version: u64,
}

impl ResidentValuator {
    /// Builds resident rank state for `(train, test)` with `threads`
    /// workers. Rejects empty datasets, `k == 0`, dimension mismatches and
    /// non-finite features (a NaN distance has no defined rank).
    pub fn new(
        train: ClassDataset,
        test: ClassDataset,
        k: usize,
        threads: usize,
    ) -> Result<Self, ResidentError> {
        assert!(!train.is_empty(), "training set is empty");
        assert!(!test.is_empty(), "test set is empty");
        assert!(k >= 1, "K must be at least 1");
        if train.dim() != test.dim() {
            return Err(ResidentError::DimMismatch {
                expected: train.dim(),
                got: test.dim(),
            });
        }
        if train.x.first_non_finite_row().is_some() || test.x.first_non_finite_row().is_some() {
            return Err(ResidentError::NonFinite);
        }
        let ranked = knnshap_parallel::par_map(test.len(), threads, |j| {
            argsort_by_distance(&train.x, test.x.row(j), Metric::SquaredL2)
        });
        Ok(Self {
            train,
            test,
            k,
            threads,
            ranked,
            version: 0,
        })
    }

    /// [`ResidentValuator::new`] seeded from a precomputed graph: the
    /// initial rank lists are taken from the artifact (which stores exactly
    /// the canonical `(distance, index)`-sorted lists `new` would argsort),
    /// so daemon startup skips the O(N·N_test·d) distance pass entirely.
    /// Subsequent mutations maintain the lists incrementally as usual, and
    /// the bitwise-equality contract with a cold batch run is unchanged.
    pub fn with_graph(
        train: ClassDataset,
        test: ClassDataset,
        k: usize,
        threads: usize,
        graph: &knnshap_knn::graph::KnnGraph,
    ) -> Result<Self, ResidentError> {
        assert!(!train.is_empty(), "training set is empty");
        assert!(!test.is_empty(), "test set is empty");
        assert!(k >= 1, "K must be at least 1");
        if train.dim() != test.dim() {
            return Err(ResidentError::DimMismatch {
                expected: train.dim(),
                got: test.dim(),
            });
        }
        if train.x.first_non_finite_row().is_some() || test.x.first_non_finite_row().is_some() {
            return Err(ResidentError::NonFinite);
        }
        graph
            .validate_against(&train.x, &test.x)
            .map_err(|e| ResidentError::GraphMismatch {
                detail: e.to_string(),
            })?;
        Ok(Self {
            train,
            test,
            k,
            threads,
            ranked: graph.lists().to_vec(),
            version: 0,
        })
    }

    /// Current dataset version (0 = as loaded; each committed mutation
    /// increments it by one).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The current (mutated) training set.
    pub fn train(&self) -> &ClassDataset {
        &self.train
    }

    /// The resident test set (immutable for the engine's lifetime).
    pub fn test(&self) -> &ClassDataset {
        &self.test
    }

    pub fn n_train(&self) -> usize {
        self.train.len()
    }

    pub fn n_test(&self) -> usize {
        self.test.len()
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    fn check_point(&self, row: &[f32]) -> Result<(), ResidentError> {
        if row.len() != self.train.dim() {
            return Err(ResidentError::DimMismatch {
                expected: self.train.dim(),
                got: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(ResidentError::NonFinite);
        }
        Ok(())
    }

    /// Inserts a training point, returning its index (always the current
    /// training-set size: new points append, so existing indices are
    /// stable). Each rank list gains one spliced entry after all
    /// equal-distance incumbents — exactly where the cold
    /// `(distance, index)` sort would place the largest index.
    ///
    /// A one-element [`apply_batch`](Self::apply_batch): single mutations
    /// and batches share one splice implementation.
    pub fn insert(&mut self, row: &[f32], label: u32) -> Result<usize, ResidentError> {
        self.apply_batch(&[Mutation::Insert {
            features: row.to_vec(),
            label,
        }])
        .pop()
        .expect("one ack per mutation")
        .map(|a| a.index)
    }

    /// Deletes training point `index`. Surviving points renumber down by
    /// one above `index` (matching what reloading the shrunk dataset would
    /// produce); renumbering preserves the survivors' relative order, so
    /// each rank list just drops one entry.
    ///
    /// A one-element [`apply_batch`](Self::apply_batch), like `insert`.
    pub fn delete(&mut self, index: usize) -> Result<(), ResidentError> {
        self.apply_batch(&[Mutation::Delete { index }])
            .pop()
            .expect("one ack per mutation")
            .map(|_| ())
    }

    /// Applies a group of mutations with **one** rank-list pass, returning
    /// one receipt per mutation in order.
    ///
    /// Semantics are exactly sequential application: each mutation is
    /// validated against the dataset state its predecessors left behind
    /// (an insert's index counts earlier accepted inserts, a delete's
    /// range check sees earlier deletes), a rejected mutation is a no-op
    /// that does not bump the version, and accepted mutations commit in
    /// order with consecutive versions. The resulting rank lists are
    /// bitwise-identical to one-at-a-time application because each test
    /// point's list undergoes the identical splice operations in the
    /// identical order — the batch only fuses M parallel passes into one.
    ///
    /// What a batch **saves** is everything downstream of the lists: a
    /// caller coalescing M mutations runs [`values`](Self::values) (the
    /// recursion + exact accumulation, the dominant cost) once instead of
    /// M times, plus M−1 fork/join barriers. `bench_serve_incremental`
    /// measures the gap; `KNNSHAP_SERVE_BATCH_FLOOR` gates it.
    pub fn apply_batch(&mut self, muts: &[Mutation]) -> Vec<Result<Applied, ResidentError>> {
        // Pass 1 (serial): validate each mutation against the evolving
        // dataset, mutate the dataset, and resolve the splice ops.
        let mut acks = Vec::with_capacity(muts.len());
        let mut ops = Vec::with_capacity(muts.len());
        for m in muts {
            match m {
                Mutation::Insert { features, label } => {
                    if let Err(e) = self.check_point(features) {
                        acks.push(Err(e));
                        continue;
                    }
                    let new_idx = self.train.len();
                    assert!(
                        new_idx < u32::MAX as usize,
                        "training set exceeds u32 indices"
                    );
                    self.train.x.push_row(features);
                    self.train.y.push(*label);
                    self.train.n_classes = self.train.n_classes.max(label + 1);
                    ops.push(ResolvedOp::Insert {
                        row: features.clone(),
                        index: new_idx as u32,
                    });
                    self.version += 1;
                    acks.push(Ok(Applied {
                        index: new_idx,
                        version: self.version,
                    }));
                }
                Mutation::Delete { index } => {
                    let index = *index;
                    if index >= self.train.len() {
                        acks.push(Err(ResidentError::OutOfRange {
                            index,
                            len: self.train.len(),
                        }));
                        continue;
                    }
                    if self.train.len() == 1 {
                        acks.push(Err(ResidentError::LastPoint));
                        continue;
                    }
                    let keep: Vec<usize> = (0..self.train.len()).filter(|&i| i != index).collect();
                    self.train = self.train.gather(&keep);
                    ops.push(ResolvedOp::Delete { index });
                    self.version += 1;
                    acks.push(Ok(Applied {
                        index,
                        version: self.version,
                    }));
                }
            }
        }
        if ops.is_empty() {
            return acks; // nothing accepted — rank lists are untouched
        }
        // Pass 2 (parallel, once per batch): replay the accepted splices
        // in order on every rank list. Distances and splice positions are
        // computed by the same expressions the sequential path used, so
        // the lists come out entry-for-entry identical.
        let old = std::mem::take(&mut self.ranked);
        let test = &self.test;
        self.ranked = knnshap_parallel::par_map(test.len(), self.threads, |j| {
            let mut list = old[j].clone();
            for op in &ops {
                match op {
                    ResolvedOp::Insert { row, index } => {
                        let d = Metric::SquaredL2.eval(test.x.row(j), row);
                        let pos = list.partition_point(|nb| nb.dist <= d);
                        list.insert(
                            pos,
                            Neighbor {
                                index: *index,
                                dist: d,
                            },
                        );
                    }
                    ResolvedOp::Delete { index } => {
                        list.retain(|nb| nb.index as usize != *index);
                        for nb in list.iter_mut() {
                            nb.index -= u32::from(nb.index as usize > *index);
                        }
                    }
                }
            }
            list
        });
        acks
    }

    /// The Shapley vector of the current training set — bitwise-identical
    /// to a cold [`crate::exact_unweighted::knn_class_shapley_with_threads`]
    /// run on [`train`](Self::train), at every thread count, but computed
    /// from the resident rank lists (no distances, no sorting).
    pub fn values(&self) -> ShapleyValues {
        let n = self.train.len();
        // Dense fill, like the batch path: one contribution per training
        // point per test point, deposited linearly (same bits — see
        // `exact_sums_over_dense`). This is what keeps per-mutation
        // revaluation fast: the recursion's rank order would otherwise do a
        // random walk over `n` heap-backed exact accumulators.
        let sums = crate::sharding::exact_sums_over_dense(
            n,
            0..self.test.len(),
            self.threads,
            || (),
            |j, _, scratch| {
                let (list, y) = (&self.ranked[j], self.test.y[j]);
                theorem1_recurrence(
                    list.len(),
                    self.k,
                    |r| f64::from(self.train.y[list[r].index as usize] == y),
                    |r, s| scratch[list[r].index as usize] = s,
                );
            },
        );
        crate::sharding::finalize_mean(&sums, self.test.len() as u64)
    }

    /// What-if valuation: the Shapley value the candidate point **would**
    /// receive if inserted — bitwise-identical to
    /// `insert(row, label)` followed by `values()[new index]` — without
    /// committing anything. The candidate is spliced *virtually* into each
    /// rank list (an index remap around its insertion position), and only
    /// its own rank's value is kept from each per-test recursion.
    pub fn what_if(&self, row: &[f32], label: u32) -> Result<f64, ResidentError> {
        self.check_point(row)?;
        let n = self.train.len();
        let sums =
            crate::sharding::exact_sums_over(1, 0..self.test.len(), self.threads, |j, acc| {
                let (list, y) = (&self.ranked[j], self.test.y[j]);
                let d = Metric::SquaredL2.eval(self.test.x.row(j), row);
                let pos = list.partition_point(|nb| nb.dist <= d);
                let cand = f64::from(label == y);
                theorem1_recurrence(
                    n + 1,
                    self.k,
                    |r| match r.cmp(&pos) {
                        std::cmp::Ordering::Less => {
                            f64::from(self.train.y[list[r].index as usize] == y)
                        }
                        std::cmp::Ordering::Equal => cand,
                        std::cmp::Ordering::Greater => {
                            f64::from(self.train.y[list[r - 1].index as usize] == y)
                        }
                    },
                    |r, s| {
                        if r == pos {
                            acc.add(0, s);
                        }
                    },
                );
            });
        Ok(crate::sharding::finalize_mean(&sums, self.test.len() as u64).get(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_unweighted::knn_class_shapley_with_threads;
    use knnshap_datasets::synth::blobs::{self, BlobConfig};
    use knnshap_datasets::Features;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(n: usize, n_test: usize, seed: u64) -> (ClassDataset, ClassDataset) {
        let cfg = BlobConfig {
            n,
            dim: 5,
            n_classes: 3,
            cluster_std: 0.6,
            center_scale: 3.0,
            seed,
        };
        (
            blobs::generate(&cfg),
            blobs::queries(&cfg, n_test, seed + 1),
        )
    }

    fn assert_bitwise(a: &ShapleyValues, b: &ShapleyValues, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for i in 0..a.len() {
            assert_eq!(
                a.get(i).to_bits(),
                b.get(i).to_bits(),
                "{what}: value {i}: {} vs {}",
                a.get(i),
                b.get(i)
            );
        }
    }

    #[test]
    fn fresh_engine_matches_batch_estimator_bitwise() {
        let (train, test) = data(70, 9, 3);
        for k in [1usize, 3, 70, 100] {
            let engine = ResidentValuator::new(train.clone(), test.clone(), k, 2).unwrap();
            let cold = knn_class_shapley_with_threads(&train, &test, k, 1);
            assert_bitwise(&engine.values(), &cold, &format!("k={k}"));
        }
    }

    #[test]
    fn mutation_sequence_matches_cold_recompute_bitwise() {
        let (train, test) = data(40, 7, 11);
        let mut rng = StdRng::seed_from_u64(99);
        let mut engine = ResidentValuator::new(train.clone(), test.clone(), 3, 2).unwrap();
        for step in 0..25 {
            if engine.n_train() > 2 && rng.gen_range(0..3) == 0 {
                let idx = rng.gen_range(0..engine.n_train());
                engine.delete(idx).unwrap();
            } else {
                // Half the inserts duplicate an existing row — exact
                // duplicate distances stress the tie-break invariant.
                let (row, label): (Vec<f32>, u32) = if rng.gen_range(0..2) == 0 {
                    let src = rng.gen_range(0..engine.n_train());
                    (
                        engine.train().x.row(src).to_vec(),
                        engine.train().y[src] ^ u32::from(rng.gen_range(0..2) == 0),
                    )
                } else {
                    (
                        (0..engine.train().dim())
                            .map(|_| rng.gen_range(-3.0..3.0))
                            .collect(),
                        rng.gen_range(0..3),
                    )
                };
                engine.insert(&row, label).unwrap();
            }
            assert_eq!(engine.version(), step + 1);
            let cold = knn_class_shapley_with_threads(engine.train(), &test, 3, 1);
            assert_bitwise(&engine.values(), &cold, &format!("step {step}"));
        }
    }

    #[test]
    fn values_are_thread_count_invariant() {
        let (train, test) = data(50, 8, 21);
        let run = |threads: usize| {
            let mut e = ResidentValuator::new(train.clone(), test.clone(), 2, threads).unwrap();
            e.delete(13).unwrap();
            e.insert(&[0.5; 5], 1).unwrap();
            e.values()
        };
        let serial = run(1);
        for threads in [2usize, 8] {
            assert_bitwise(&serial, &run(threads), &format!("threads={threads}"));
        }
    }

    #[test]
    fn what_if_matches_committed_insert_bitwise() {
        let (train, test) = data(35, 6, 7);
        let engine = ResidentValuator::new(train.clone(), test.clone(), 2, 2).unwrap();
        for (row, label) in [
            (vec![0.0f32; 5], 0u32),
            (train.x.row(4).to_vec(), train.y[4]), // duplicate point
            (train.x.row(4).to_vec(), train.y[4] ^ 1), // duplicate, flipped label
        ] {
            let hypothetical = engine.what_if(&row, label).unwrap();
            let mut committed = ResidentValuator::new(train.clone(), test.clone(), 2, 2).unwrap();
            let idx = committed.insert(&row, label).unwrap();
            assert_eq!(
                hypothetical.to_bits(),
                committed.values().get(idx).to_bits(),
                "label {label}"
            );
        }
    }

    #[test]
    fn delete_then_reload_equivalence_with_renumbering() {
        // Deleting index 3 must behave exactly like valuing the dataset with
        // row 3 removed (indices above shift down).
        let (train, test) = data(20, 5, 5);
        let mut engine = ResidentValuator::new(train.clone(), test.clone(), 1, 1).unwrap();
        engine.delete(3).unwrap();
        let keep: Vec<usize> = (0..20).filter(|&i| i != 3).collect();
        let shrunk = train.gather(&keep);
        assert_eq!(engine.n_train(), 19);
        let cold = knn_class_shapley_with_threads(&shrunk, &test, 1, 1);
        assert_bitwise(&engine.values(), &cold, "renumbered delete");
    }

    #[test]
    fn k_boundary_cases_survive_churn() {
        // K equal to, one below, and above the (shrinking) training size.
        let (train, test) = data(6, 4, 13);
        for k in [5usize, 6, 7, 12] {
            let mut engine = ResidentValuator::new(train.clone(), test.clone(), k, 1).unwrap();
            engine.delete(0).unwrap();
            engine.insert(&[1.0; 5], 2).unwrap();
            engine.delete(4).unwrap();
            let cold = knn_class_shapley_with_threads(engine.train(), &test, k, 1);
            assert_bitwise(&engine.values(), &cold, &format!("k={k}"));
        }
    }

    #[test]
    fn rejects_bad_mutations() {
        let (train, test) = data(10, 3, 1);
        let mut engine = ResidentValuator::new(train, test, 2, 1).unwrap();
        assert_eq!(
            engine.insert(&[1.0, 2.0], 0).unwrap_err(),
            ResidentError::DimMismatch {
                expected: 5,
                got: 2
            }
        );
        assert_eq!(
            engine
                .insert(&[1.0, 2.0, f32::NAN, 0.0, 0.0], 0)
                .unwrap_err(),
            ResidentError::NonFinite
        );
        assert_eq!(
            engine.delete(10).unwrap_err(),
            ResidentError::OutOfRange { index: 10, len: 10 }
        );
        assert_eq!(engine.what_if(&[1.0], 0).unwrap_err(), {
            ResidentError::DimMismatch {
                expected: 5,
                got: 1,
            }
        });
        for _ in 0..9 {
            engine.delete(0).unwrap();
        }
        assert_eq!(engine.delete(0).unwrap_err(), ResidentError::LastPoint);
        assert_eq!(engine.version(), 9, "failed mutations must not bump");
    }

    #[test]
    fn batched_mutations_match_sequential_bitwise() {
        // The core batching invariant: applying a random mutation group via
        // apply_batch yields the same rank lists — hence the same value
        // bits — as applying them one at a time, at serial and parallel
        // thread counts alike.
        let (train, test) = data(40, 7, 17);
        for threads in [1usize, 8] {
            let mut rng = StdRng::seed_from_u64(4242);
            let mut batched =
                ResidentValuator::new(train.clone(), test.clone(), 3, threads).unwrap();
            let mut sequential =
                ResidentValuator::new(train.clone(), test.clone(), 3, threads).unwrap();
            for round in 0..6 {
                let mut group = Vec::new();
                let mut len = batched.n_train();
                for _ in 0..rng.gen_range(1..=7) {
                    if len > 2 && rng.gen_range(0..3) == 0 {
                        group.push(Mutation::Delete {
                            index: rng.gen_range(0..len),
                        });
                        len -= 1;
                    } else {
                        let features = if rng.gen_range(0..2) == 0 {
                            batched.train().x.row(rng.gen_range(0..len)).to_vec()
                        } else {
                            (0..5).map(|_| rng.gen_range(-3.0..3.0)).collect()
                        };
                        group.push(Mutation::Insert {
                            features,
                            label: rng.gen_range(0..3),
                        });
                        len += 1;
                    }
                }
                let acks = batched.apply_batch(&group);
                assert_eq!(acks.len(), group.len(), "one ack per mutation");
                for (m, ack) in group.iter().zip(&acks) {
                    match m {
                        Mutation::Insert { features, label } => {
                            let idx = sequential.insert(features, *label).unwrap();
                            let a = ack.as_ref().unwrap();
                            assert_eq!(a.index, idx);
                            assert_eq!(a.version, sequential.version());
                        }
                        Mutation::Delete { index } => {
                            sequential.delete(*index).unwrap();
                            assert_eq!(ack.as_ref().unwrap().version, sequential.version());
                        }
                    }
                }
                assert_eq!(batched.version(), sequential.version());
                assert_bitwise(
                    &batched.values(),
                    &sequential.values(),
                    &format!("threads={threads} round={round}"),
                );
            }
            let cold = knn_class_shapley_with_threads(batched.train(), &test, 3, 1);
            assert_bitwise(&batched.values(), &cold, "final vs cold recompute");
        }
    }

    #[test]
    fn batch_rejects_are_per_mutation_and_do_not_bump_version() {
        let (train, test) = data(12, 4, 29);
        let mut engine = ResidentValuator::new(train.clone(), test.clone(), 2, 1).unwrap();
        let acks = engine.apply_batch(&[
            Mutation::Insert {
                features: vec![0.25; 5],
                label: 1,
            },
            Mutation::Delete { index: 99 }, // rejected: out of range
            Mutation::Insert {
                features: vec![1.0, f32::NAN, 0.0, 0.0, 0.0],
                label: 0,
            }, // rejected: non-finite
            Mutation::Delete { index: 12 }, // accepted: the point just inserted
        ]);
        assert_eq!(acks.len(), 4);
        assert_eq!(
            acks[0].as_ref().unwrap(),
            &Applied {
                index: 12,
                version: 1
            }
        );
        assert_eq!(
            acks[1].as_ref().unwrap_err(),
            // Range check sees the state after the first insert (len 13).
            &ResidentError::OutOfRange { index: 99, len: 13 }
        );
        assert_eq!(acks[2].as_ref().unwrap_err(), &ResidentError::NonFinite);
        assert_eq!(
            acks[3].as_ref().unwrap(),
            &Applied {
                index: 12,
                version: 2
            }
        );
        assert_eq!(engine.version(), 2, "rejected mutations must not bump");
        // Net effect is insert-then-delete of the same point: identical to
        // never touching the dataset.
        let cold = knn_class_shapley_with_threads(&train, &test, 2, 1);
        assert_bitwise(&engine.values(), &cold, "insert+delete round-trip");
    }

    #[test]
    fn all_rejected_batch_leaves_rank_lists_untouched() {
        let (train, test) = data(10, 3, 31);
        let mut engine = ResidentValuator::new(train, test, 2, 1).unwrap();
        let before = engine.values();
        let acks = engine.apply_batch(&[
            Mutation::Delete { index: 77 },
            Mutation::Insert {
                features: vec![1.0],
                label: 0,
            },
        ]);
        assert!(acks.iter().all(Result::is_err));
        assert_eq!(engine.version(), 0);
        assert_bitwise(&engine.values(), &before, "no-op batch");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (train, test) = data(8, 2, 37);
        let mut engine = ResidentValuator::new(train, test, 1, 1).unwrap();
        assert!(engine.apply_batch(&[]).is_empty());
        assert_eq!(engine.version(), 0);
    }

    #[test]
    fn dimension_mismatch_between_train_and_test_is_rejected() {
        let train = ClassDataset::new(Features::new(vec![0.0, 1.0], 2), vec![0], 1);
        let test = ClassDataset::new(Features::new(vec![0.0], 1), vec![0], 1);
        assert!(matches!(
            ResidentValuator::new(train, test, 1, 1),
            Err(ResidentError::DimMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_training_features_are_rejected() {
        let train = ClassDataset::new(Features::new(vec![f32::INFINITY, 1.0], 1), vec![0, 1], 2);
        let test = ClassDataset::new(Features::new(vec![0.0], 1), vec![0], 1);
        assert_eq!(
            ResidentValuator::new(train, test, 1, 1).unwrap_err(),
            ResidentError::NonFinite
        );
    }

    #[test]
    fn error_messages_name_the_problem() {
        let errs: Vec<String> = [
            ResidentError::DimMismatch {
                expected: 4,
                got: 2,
            },
            ResidentError::NonFinite,
            ResidentError::OutOfRange { index: 9, len: 3 },
            ResidentError::LastPoint,
        ]
        .iter()
        .map(|e| e.to_string())
        .collect();
        assert!(errs[0].contains("2 features"));
        assert!(errs[1].contains("non-finite"));
        assert!(errs[2].contains("9 out of range"));
        assert!(errs[3].contains("last training point"));
    }
}
