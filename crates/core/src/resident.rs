//! Resident valuation state with incremental train-point churn — the engine
//! behind `knnshap serve`.
//!
//! The paper's O(N_test · N log N) cost (Theorem 1) is dominated by work
//! that does **not** depend on which training points are present: computing
//! N_test × N distances and sorting them. [`ResidentValuator`] keeps that
//! state resident — one rank list per test point — so that inserting or
//! deleting a single training point only perturbs each rank list locally
//! (a binary search + splice per test point) and revaluation reruns just
//! the Theorem 1 recursion per test point, with no distance computation
//! and no sorting — and only through one rank past the test point's
//! farthest same-label training point, which each list keeps up to date:
//! the ranks past it hold the recursion's zero tail (see
//! [`crate::exact_unweighted`]). The exact per-point sums of every test
//! point's values stay resident too, with their finalized vector: the
//! multi-test value is the mean of per-test games, so a mutation re-folds
//! only the test points whose head it can touch — those whose head it
//! enters, whose label it inserts, or whose head is the whole ranking —
//! taking their old head values out and putting their new ones in, and
//! rounds again only the rows those heads hold. A mutation therefore
//! costs the rank-list splices (O(N_test · N) moves) plus
//! O(touched · N) re-fold, instead of a cold O(N_test · (N·d + N))
//! rebuild (`bench_serve_incremental` quantifies the gap), and reading
//! the values is a copy.
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
//! 2. **One recursion.** Both paths run the identical switch-point
//!    Theorem 1 loop over those (equal) rank lists, through the same
//!    zero-tail cut (see [`crate::exact_unweighted`]).
//!    That loop evaluates its increment only at ranks where the indicator
//!    `correct(r)` flips: elsewhere the increment is `+0.0`, and adding
//!    `+0.0` to a running value that is never `−0.0` leaves its bits alone.
//!    The argument needs `correct` to return exactly `0.0` or `1.0`, which
//!    a label comparison does.
//! 3. **Exact accumulation.** Per-test vectors fold into
//!    [`knnshap_numerics::exact::ExactVec`] and finalize through the same
//!    `sharding::finalize_mean` rounding as the batch estimator, so the
//!    cross-test reduction is a pure function of the test multiset — never
//!    of threads. Taking a test point's old head values out (deposited
//!    negated) and its new ones in leaves each row the same real sum a
//!    fresh fold gives, so the rounded row keeps a fresh fold's bits, and
//!    a row no touched head holds keeps its sum and its rounded value.
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
//! parallel pass per mutation — and one re-fold of the touched test
//! points, so a caller that coalesces M mutations pays for **one**
//! recursion per touched test point instead of M. The per-test-point
//! splice operations are the identical ones the one-at-a-time path runs in
//! the identical order, so the resulting rank lists — and therefore the
//! bits of every vector computed from them — are the same as sequential
//! application. `insert` and `delete` are in fact thin wrappers over a
//! one-element batch, so there is exactly one splice implementation to
//! trust. `tests/serve_batching.rs` holds batched-vs-sequential to bitwise
//! equality over random groups.

use crate::exact_unweighted::{farthest_rank, fill_head, head_len, theorem1_head};
use crate::sharding::{fold_scratch_into, Scratch};
use crate::types::ShapleyValues;
use knnshap_datasets::ClassDataset;
use knnshap_knn::distance::Metric;
use knnshap_knn::neighbors::Neighbor;
use knnshap_numerics::exact::ExactVec;

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
    /// `K` is zero: a KNN utility needs at least one neighbor.
    ZeroK,
    /// The label is above [`ClassDataset::MAX_LABEL`], so the class count
    /// `label + 1` would not fit a `u32` (the CSV loader's rule).
    LabelTooLarge { label: u32 },
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
            ResidentError::ZeroK => write!(f, "K must be at least 1"),
            ResidentError::LabelTooLarge { label } => write!(
                f,
                "label {label} is too large (labels must be at most {})",
                ClassDataset::MAX_LABEL
            ),
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
    /// The new point's features, label and the index it was assigned.
    Insert {
        row: Vec<f32>,
        label: u32,
        index: u32,
    },
    /// The index that was removed (as numbered when the delete applied)
    /// and the removed point's features.
    Delete { index: usize, row: Vec<f32> },
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
    /// set (the invariant every mutation maintains) — with its farthest
    /// same-label rank.
    ranked: Vec<Ranked>,
    /// Every test point's Theorem 1 head values, summed exactly per
    /// training point — the batch estimator's fold, kept across mutations
    /// and re-folded only for the test points a mutation touches.
    sums: ExactVec,
    /// `sums` finalized: each point's mean over the test points.
    values: Vec<f64>,
    /// Dataset version: 0 for the loaded dataset, +1 per committed mutation.
    version: u64,
}

impl ResidentValuator {
    /// Builds resident rank state for `(train, test)` with `threads`
    /// workers. Panics on an empty dataset; returns a typed
    /// [`ResidentError`] on `k == 0`, a dimension mismatch or a non-finite
    /// feature (a NaN distance has no defined rank).
    pub fn new(
        train: ClassDataset,
        test: ClassDataset,
        k: usize,
        threads: usize,
    ) -> Result<Self, ResidentError> {
        assert!(!train.is_empty(), "training set is empty");
        assert!(!test.is_empty(), "test set is empty");
        if k == 0 {
            return Err(ResidentError::ZeroK);
        }
        if train.dim() != test.dim() {
            return Err(ResidentError::DimMismatch {
                expected: train.dim(),
                got: test.dim(),
            });
        }
        if train.x.first_non_finite_row().is_some() || test.x.first_non_finite_row().is_some() {
            return Err(ResidentError::NonFinite);
        }
        let lists = knnshap_knn::block::argsort_all(&train.x, &test.x, threads);
        let ranked = Ranked::all(lists, &train, &test);
        Ok(Self::seeded(train, test, k, threads, ranked))
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
        if k == 0 {
            return Err(ResidentError::ZeroK);
        }
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
        let ranked = Ranked::all(graph.lists().to_vec(), &train, &test);
        Ok(Self::seeded(train, test, k, threads, ranked))
    }

    /// The engine over the rank lists `ranked`, its exact sums folded from
    /// every test point's head and finalized.
    fn seeded(
        train: ClassDataset,
        test: ClassDataset,
        k: usize,
        threads: usize,
        ranked: Vec<Ranked>,
    ) -> Self {
        let mut engine = Self {
            train,
            test,
            k,
            threads,
            ranked,
            sums: ExactVec::zeros(0),
            values: Vec::new(),
            version: 0,
        };
        let mut sums = ExactVec::zeros(engine.train.len());
        let every: Vec<usize> = (0..engine.test.len()).collect();
        engine.deposit_heads(&mut sums, &engine.train.y, &every, false);
        engine.values =
            crate::sharding::finalize_mean(&sums, every.len() as u64, threads).into_vec();
        engine.sums = sums;
        engine
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

    fn check_point(&self, row: &[f32], label: u32) -> Result<(), ResidentError> {
        if row.len() != self.train.dim() {
            return Err(ResidentError::DimMismatch {
                expected: self.train.dim(),
                got: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(ResidentError::NonFinite);
        }
        if label > ClassDataset::MAX_LABEL {
            return Err(ResidentError::LabelTooLarge { label });
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
    /// The batch also brings the resident exact sums up to date, for the
    /// test points whose Theorem 1 head it can touch only (see
    /// `touched`): their pre-batch head values are
    /// deposited negated at the pre-batch indices, the exact rows move with
    /// the batch (a delete removes its row, an insert appends a zero one),
    /// their post-batch head values are deposited, and only the rows those
    /// deposits reached are rounded again. Exact accumulation makes
    /// −old + new the same real sum a fresh fold over every test point
    /// gives, so every value keeps the bits a cold run gives. A batch that
    /// touches more than half the test points folds every test point into
    /// zero sums once it is spliced instead: the same sums, for less work.
    ///
    /// What a batch **saves** is one re-fold and one re-rounding for M
    /// mutations instead of M, plus M−1 fork/join barriers.
    /// `bench_serve_incremental` measures the gap;
    /// `KNNSHAP_SERVE_BATCH_FLOOR` gates it.
    pub fn apply_batch(&mut self, muts: &[Mutation]) -> Vec<Result<Applied, ResidentError>> {
        // The pre-batch labels: the touched heads' old values read them.
        let labels = self.train.y.clone();
        // Pass 1 (serial): validate each mutation against the evolving
        // dataset, mutate the dataset, and resolve the splice ops.
        let mut acks = Vec::with_capacity(muts.len());
        let mut ops = Vec::with_capacity(muts.len());
        for m in muts {
            match m {
                Mutation::Insert { features, label } => {
                    if let Err(e) = self.check_point(features, *label) {
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
                        label: *label,
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
                    let row = self.train.x.row(index).to_vec();
                    self.train.x.remove_row(index);
                    self.train.y.remove(index);
                    ops.push(ResolvedOp::Delete { index, row });
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
        // Take the touched test points' pre-batch head values back out of
        // the sums, then move the exact rows, the finalized values and the
        // marks of the rows to round again with the batch.
        // Past half the test points, taking the old values out and putting
        // the new ones in costs more than folding every test point into
        // zero sums once the batch is spliced; both give the same sums.
        let mut touched = self.touched(labels.len(), &ops);
        let refold_all = 2 * touched.len() > self.test.len();
        let mut sums = std::mem::replace(&mut self.sums, ExactVec::zeros(0));
        let mut moved = vec![refold_all; labels.len()];
        if refold_all {
            touched = (0..self.test.len()).collect();
            sums = ExactVec::zeros(labels.len());
        } else {
            self.deposit_heads(&mut sums, &labels, &touched, true);
            self.mark_heads(&mut moved, &touched);
        }
        for op in &ops {
            match op {
                ResolvedOp::Insert { .. } => {
                    sums.push_zero_row();
                    self.values.push(0.0);
                    moved.push(refold_all);
                }
                ResolvedOp::Delete { index, .. } => {
                    // Every head holding the row took its value back.
                    debug_assert!(
                        sums.is_zero(*index),
                        "deleted row {index} still holds value"
                    );
                    sums.remove_row(*index);
                    self.values.remove(*index);
                    moved.remove(*index);
                }
            }
        }
        // Pass 2 (parallel, once per batch): replay the accepted splices
        // in order on every rank list. Distances and splice positions are
        // computed by the same expressions the sequential path used, so
        // the lists come out entry-for-entry identical. Each splice also
        // moves the list's farthest same-label rank; deleting that entry
        // leaves it to be found again once the batch is spliced, when the
        // list's indices are the final training set's.
        let (train, test) = (&self.train, &self.test);
        knnshap_parallel::par_chunks(&mut self.ranked, 1, self.threads, |j, lists| {
            let Ranked { list, far } = &mut lists[0];
            let y = test.y[j];
            let mut lost = false;
            for op in &ops {
                match op {
                    ResolvedOp::Insert { row, label, index } => {
                        let d = Metric::SquaredL2.eval(test.x.row(j), row);
                        let pos = list.partition_point(|nb| nb.dist <= d);
                        list.insert(
                            pos,
                            Neighbor {
                                index: *index,
                                dist: d,
                            },
                        );
                        *far = match *far {
                            Some(f) if pos <= f => Some(f + 1),
                            _ if *label == y => Some(pos),
                            f => f,
                        };
                    }
                    ResolvedOp::Delete { index, .. } => {
                        let index = u32::try_from(*index).expect("train indices fit u32");
                        let mut rank = 0;
                        let mut at = 0;
                        list.retain_mut(|nb| {
                            let keep = nb.index != index;
                            if !keep {
                                at = rank;
                            }
                            rank += 1;
                            nb.index -= u32::from(nb.index > index);
                            keep
                        });
                        match *far {
                            Some(f) if at < f => *far = Some(f - 1),
                            Some(f) if at == f => lost = true,
                            _ => {}
                        }
                    }
                }
            }
            if lost {
                *far = farthest_rank(list, &train.y, y);
            }
        });
        // Deposit the touched heads' post-batch values and round again
        // every row either deposit reached.
        self.deposit_heads(&mut sums, &self.train.y, &touched, false);
        self.mark_heads(&mut moved, &touched);
        let n_test = self.test.len() as u64;
        crate::sharding::finalize_mean_into(
            &sums,
            n_test,
            self.threads,
            &mut self.values,
            Some(&moved),
        );
        self.sums = sums;
        acks
    }

    /// The test points whose Theorem 1 head the resolved batch `ops` can
    /// change, judged on the pre-batch rank lists of `n` training points:
    /// a head that is the whole ranking (its base term depends on N), and
    /// a head an op reaches — an insert with the test point's label, or an
    /// insert or delete of a row no farther than the head's last row, the
    /// one at rank `far + 1` (a distance tie with it counts as reaching
    /// it). Any other head keeps its rows, their order and their labels
    /// through the batch, and its values keep their bits.
    fn touched(&self, n: usize, ops: &[ResolvedOp]) -> Vec<usize> {
        (0..self.test.len())
            .filter(|&j| {
                let (Ranked { list, far }, y) = (&self.ranked[j], self.test.y[j]);
                let len = head_len(n, *far);
                if len == n {
                    return true;
                }
                let query = self.test.x.row(j);
                let reaches = |row: &[f32]| {
                    len > 0 && Metric::SquaredL2.eval(query, row) <= list[len - 1].dist
                };
                ops.iter().any(|op| match op {
                    ResolvedOp::Insert { row, label, .. } => *label == y || reaches(row),
                    ResolvedOp::Delete { row, .. } => reaches(row),
                })
            })
            .collect()
    }

    /// Deposit the Theorem 1 head values of the test points `tests` into
    /// `sums` — negated when `negate` — with `labels` the labels of the
    /// training points the rank lists index. Dense fill, like the batch
    /// path, deposited linearly block by block; each test point writes
    /// only the head of its list — every rank past its farthest same-label
    /// one is Theorem 1's zero tail, the `+0.0` the scratch already holds
    /// — and only those rows are zeroed again (see
    /// [`crate::exact_unweighted`]).
    fn deposit_heads(&self, sums: &mut ExactVec, labels: &[u32], tests: &[usize], negate: bool) {
        let n = labels.len();
        fold_scratch_into(
            sums,
            0..tests.len(),
            self.threads,
            None,
            || (),
            |t, _, _, out: &mut Scratch| {
                let j = tests[t];
                let head = self.head(j, n);
                let values = out.values();
                fill_head(n, head, labels, self.test.y[j], self.k, values);
                if negate {
                    for nb in head {
                        let v = &mut values[nb.index as usize];
                        *v = -*v;
                    }
                }
                out.only(head);
            },
        );
    }

    /// Mark in `rows` the training points in the heads of the test points
    /// `tests`.
    fn mark_heads(&self, rows: &mut [bool], tests: &[usize]) {
        for &j in tests {
            for nb in self.head(j, rows.len()) {
                rows[nb.index as usize] = true;
            }
        }
    }

    /// Test point `j`'s head: the ranks of its list Theorem 1 reads, with
    /// `n` training points.
    fn head(&self, j: usize, n: usize) -> &[Neighbor] {
        let ranked = &self.ranked[j];
        &ranked.list[..head_len(n, ranked.far)]
    }

    /// The Shapley vector of the current training set — bitwise-identical
    /// to a cold [`crate::exact_unweighted::knn_class_shapley_with_threads`]
    /// run on [`train`](Self::train), at every thread count. A copy of the
    /// vector [`apply_batch`](Self::apply_batch) keeps up to date: no
    /// recursion, no fold and no rounding happen here.
    pub fn values(&self) -> ShapleyValues {
        ShapleyValues::new(self.values.clone())
    }

    /// What-if valuation: the Shapley value the candidate point **would**
    /// receive if inserted — bitwise-identical to
    /// `insert(row, label)` followed by `values()[new index]` — without
    /// committing anything. The candidate is spliced *virtually* into each
    /// rank list (an index remap around its insertion position `pos`), and
    /// each per-test recursion runs from one rank past `max(pos, far′)`,
    /// where `far′` is the farthest same-label rank of the spliced list,
    /// down to `pos`: the ranks nearer than the candidate never feed its
    /// value, and the ranks past `far′ + 1` are the zero tail, so a what-if
    /// costs O(max(pos, far′) − pos) per test point.
    pub fn what_if(&self, row: &[f32], label: u32) -> Result<f64, ResidentError> {
        self.check_point(row, label)?;
        let n = self.train.len();
        let sums = crate::sharding::exact_sums_over_dense(
            1,
            0..self.test.len(),
            self.threads,
            || (),
            |j, _, _, scratch| {
                let (Ranked { list, far }, y) = (&self.ranked[j], self.test.y[j]);
                let d = Metric::SquaredL2.eval(self.test.x.row(j), row);
                let pos = list.partition_point(|nb| nb.dist <= d);
                let cand = f64::from(label == y);
                // The spliced list has the candidate at `pos` and the
                // incumbent of rank `r - 1` at every rank `r > pos`; ranks
                // below `pos` never feed the value at `pos`, so the pass
                // stops there, and it starts past the farthest same-label
                // rank of the spliced list (or past `pos`).
                let spliced = far.map(|f| f + usize::from(f >= pos));
                let top = spliced.map_or(pos, |f| f.max(pos));
                let s = theorem1_head(
                    n + 1,
                    (top + 2).min(n + 1),
                    self.k,
                    pos,
                    |r| {
                        if r == pos {
                            cand
                        } else {
                            f64::from(self.train.y[list[r - 1].index as usize] == y)
                        }
                    },
                    |_, _| {},
                );
                scratch[0] = s;
            },
        );
        Ok(crate::sharding::finalize_mean(&sums, self.test.len() as u64, self.threads).get(0))
    }
}

/// One test point's rank list and the rank of its farthest training point
/// with the test point's label (`None` when it has none): the last rank
/// whose Theorem 1 value can be nonzero.
#[derive(Debug)]
struct Ranked {
    list: Vec<Neighbor>,
    far: Option<usize>,
}

impl Ranked {
    /// The rank lists of every test point, each with its farthest
    /// same-label rank.
    fn all(lists: Vec<Vec<Neighbor>>, train: &ClassDataset, test: &ClassDataset) -> Vec<Ranked> {
        lists
            .into_iter()
            .zip(&test.y)
            .map(|(list, &y)| Ranked {
                far: farthest_rank(&list, &train.y, y),
                list,
            })
            .collect()
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

    /// The tracked farthest same-label rank is every list's last rank with
    /// its test point's label, after single mutations and after batches
    /// that delete it and splice on, at 1 and 2 threads. (An over-estimate
    /// would keep the values' bits and only cost zero-tail work, so the
    /// value batteries cannot see it.)
    #[test]
    fn tracked_farthest_rank_is_the_last_same_label_rank() {
        let (train, test) = data(30, 6, 19);
        for threads in [1usize, 2] {
            let mut rng = StdRng::seed_from_u64(5);
            let mut engine =
                ResidentValuator::new(train.clone(), test.clone(), 2, threads).unwrap();
            let check = |engine: &ResidentValuator, what: &str| {
                for (j, ranked) in engine.ranked.iter().enumerate() {
                    let want = farthest_rank(&ranked.list, &engine.train.y, engine.test.y[j]);
                    assert_eq!(ranked.far, want, "{what}: test point {j}");
                }
            };
            check(&engine, "fresh");
            for step in 0..40 {
                let len = engine.n_train();
                // Delete some test point's farthest same-label row, then
                // splice on in the same batch.
                let j = rng.gen_range(0..engine.n_test());
                let far = engine.ranked[j]
                    .far
                    .map(|f| engine.ranked[j].list[f].index as usize);
                let mut batch = vec![Mutation::Insert {
                    features: (0..5).map(|_| rng.gen_range(-9.0..9.0)).collect(),
                    label: rng.gen_range(0..3),
                }];
                if let Some(i) = far.filter(|_| len > 3) {
                    batch.insert(0, Mutation::Delete { index: i });
                    batch.push(Mutation::Delete {
                        index: rng.gen_range(0..len - 1),
                    });
                }
                if step % 2 == 0 {
                    for m in batch {
                        assert!(engine.apply_batch(&[m])[0].is_ok());
                    }
                } else {
                    assert!(engine.apply_batch(&batch).iter().all(Result::is_ok));
                }
                check(&engine, &format!("threads {threads} step {step}"));
            }
        }
    }

    /// A mutation in every list's zero tail — past each farthest
    /// same-label row and the row after it — with a label no test point
    /// has re-folds no test point; the same insert with a test point's
    /// label re-folds that one. Values stay bitwise on a cold run.
    #[test]
    fn a_zero_tail_mutation_of_an_unseen_label_refolds_no_test_point() {
        let (train, test) = data(40, 6, 23);
        let mut engine = ResidentValuator::new(train, test.clone(), 3, 2).unwrap();
        // Past every row with a label no test point has: no head is the
        // whole ranking any more.
        engine.insert(&[1e3; 5], 7).unwrap();
        let n = engine.n_train();
        assert!((0..6).all(|j| engine.head(j, n).len() < n));
        let far = vec![2e3f32; 5];
        let insert = |label| ResolvedOp::Insert {
            row: far.clone(),
            label,
            index: n as u32,
        };
        assert!(engine.touched(n, &[insert(7)]).is_empty());
        let delete = ResolvedOp::Delete {
            index: n - 1,
            row: vec![1e3; 5],
        };
        assert!(engine.touched(n, &[delete]).is_empty());
        let y = engine.test().y[0];
        let own: Vec<usize> = (0..6).filter(|&j| test.y[j] == y).collect();
        assert_eq!(engine.touched(n, &[insert(y)]), own);
        for (row, label) in [(far.clone(), 7), (far, y)] {
            engine.insert(&row, label).unwrap();
            let cold = knn_class_shapley_with_threads(engine.train(), &test, 3, 1);
            assert_bitwise(&engine.values(), &cold, &format!("label {label}"));
        }
        engine.delete(n - 1).unwrap();
        let cold = knn_class_shapley_with_threads(engine.train(), &test, 3, 1);
        assert_bitwise(&engine.values(), &cold, "tail delete");
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

    /// The candidate's rank in test point 0's list, as `what_if` splices it.
    fn splice_rank(engine: &ResidentValuator, row: &[f32]) -> usize {
        let d = Metric::SquaredL2.eval(engine.test().x.row(0), row);
        engine.ranked[0].list.partition_point(|nb| nb.dist <= d)
    }

    #[test]
    fn what_if_matches_committed_insert_at_the_ends_and_on_ties() {
        // One test point, so the candidate's rank is the same in the only
        // list: rank 0 (the query itself), rank N (far away) and a tie
        // with an incumbent (a duplicate row).
        let (train, test) = data(30, 1, 43);
        let q = test.x.row(0).to_vec();
        let far: Vec<f32> = q.iter().map(|v| v + 1e3).collect();
        let dup = train.x.row(7).to_vec();
        for k in [1usize, 3, 30, 31, 40] {
            for threads in [1usize, 2] {
                let engine =
                    ResidentValuator::new(train.clone(), test.clone(), k, threads).unwrap();
                let d_dup = Metric::SquaredL2.eval(&q, &dup);
                let tie = splice_rank(&engine, &dup);
                assert_eq!(
                    engine.ranked[0].list[tie - 1].dist,
                    d_dup,
                    "a tie splices after"
                );
                assert_eq!(splice_rank(&engine, &q), 0);
                assert_eq!(splice_rank(&engine, &far), 30);
                for (row, what) in [(&q, "rank 0"), (&far, "rank N"), (&dup, "tie")] {
                    for label in 0..3u32 {
                        let hypothetical = engine.what_if(row, label).unwrap();
                        let mut committed =
                            ResidentValuator::new(train.clone(), test.clone(), k, threads).unwrap();
                        let idx = committed.insert(row, label).unwrap();
                        assert_eq!(
                            hypothetical.to_bits(),
                            committed.values().get(idx).to_bits(),
                            "{what}, k={k}, label {label}, threads {threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_label_at_the_bound_is_rejected_by_every_entry() {
        let (train, test) = data(10, 3, 41);
        let mut engine = ResidentValuator::new(train, test, 2, 1).unwrap();
        let bad = ClassDataset::MAX_LABEL + 1;
        let err = ResidentError::LabelTooLarge { label: bad };
        assert_eq!(engine.insert(&[0.5; 5], bad).unwrap_err(), err);
        assert_eq!(engine.what_if(&[0.5; 5], bad).unwrap_err(), err);
        let acks = engine.apply_batch(&[
            Mutation::Insert {
                features: vec![0.5; 5],
                label: bad,
            },
            Mutation::Insert {
                features: vec![0.5; 5],
                label: bad - 1,
            },
        ]);
        assert_eq!(acks[0].as_ref().unwrap_err(), &err);
        assert_eq!(acks[1].as_ref().unwrap().index, 10);
        assert_eq!(engine.version(), 1, "the rejected insert must not bump");
        assert_eq!(engine.train().n_classes, u32::MAX);
        assert_eq!(engine.values().len(), 11);
        assert!(err.to_string().contains("too large"), "{err}");
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
