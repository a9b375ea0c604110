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
//! costs one splice per rank list (a binary search and one memmove) plus
//! O(touched · N) re-fold, instead of a cold O(N_test · (N·d + N))
//! rebuild (`bench_serve_incremental` quantifies the gap), and reading
//! the values is a gather.
//!
//! ### Stable row slots
//!
//! Every training row lives in a **slot** that never moves while the row
//! lives: the rank lists, the labels, the features, the exact sums and the
//! finalized values are all indexed by slot. An insert takes a fresh slot
//! past every other; a delete leaves its slot behind as a tombstone, so no
//! other row is renumbered and no rank-list entry but the deleted one is
//! touched. The live slots in ascending order map a served index to its
//! slot, so indices keep their meaning outside the engine: the `i`-th live
//! row is training point `i`, and a delete shifts the points above it down
//! by one, as reloading the shrunk dataset would. Once tombstones outnumber
//! the live rows, the engine **compacts**: each live row moves down to its
//! served index, every list entry is renumbered once (a monotone map, so
//! each list keeps its order) and every test point's head is folded afresh.
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
//!    The lists rank by `(distance, slot)`, and slots ascend with the
//!    served index, so the two orders agree. An inserted point takes the
//!    *largest* slot, so splicing it after all equal-distance entries
//!    reproduces the cold sort; a delete finds its entry by the same
//!    `(distance, slot)` key and removes it, leaving the survivors' order
//!    alone — so the maintained list equals a fresh argsort of the mutated
//!    dataset entry for entry, duplicate distances included.
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
//!    a row no touched head holds keeps its sum and its rounded value. A
//!    tombstone's sum is zero: every head that held the row took its value
//!    back.
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
use knnshap_datasets::{ClassDataset, Features};
use knnshap_knn::distance::Metric;
use knnshap_knn::neighbors::Neighbor;
use knnshap_numerics::exact::ExactVec;
use std::sync::OnceLock;

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

/// An accepted mutation, resolved to the slot it fills or retires. The
/// slot's features and label stay in place through the batch, so the
/// splice pass reads them there.
#[derive(Debug, Clone, Copy)]
enum SlotOp {
    Insert(u32),
    Delete(u32),
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
    test: ClassDataset,
    k: usize,
    threads: usize,
    dim: usize,
    /// Every slot's features, row-major. A deleted row stays until the
    /// next compaction.
    features: Vec<f32>,
    /// Every slot's label.
    labels: Vec<u32>,
    /// The live slots in ascending order: training point `i` is slot
    /// `order[i]`.
    order: Vec<u32>,
    /// The class count the training set reports: one past the largest
    /// label it has held.
    n_classes: u32,
    /// One canonical `(distance, slot)`-sorted rank list of the live slots
    /// per test point — always equal to a fresh `argsort_by_distance` of
    /// the current train set, slots read as training indices (the
    /// invariant every mutation maintains) — with its farthest same-label
    /// rank.
    ranked: Vec<Ranked>,
    /// Every test point's Theorem 1 head values, summed exactly per slot —
    /// the batch estimator's fold, kept across mutations and re-folded
    /// only for the test points a mutation touches.
    sums: ExactVec,
    /// `sums` finalized: each slot's mean over the test points.
    values: Vec<f64>,
    /// Dataset version: 0 for the loaded dataset, +1 per committed mutation.
    version: u64,
    /// The live rows as a dataset, built by the first
    /// [`train`](Self::train) after a mutation and dropped by the next.
    dense: OnceLock<ClassDataset>,
}

/// The input checks of both engine constructors, in their order: panics
/// on an empty dataset, then `ZeroK`, `DimMismatch` and `NonFinite`.
fn check_inputs(train: &ClassDataset, test: &ClassDataset, k: usize) -> Result<(), ResidentError> {
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
    Ok(())
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
        check_inputs(&train, &test, k)?;
        let lists = knnshap_knn::block::argsort_all(&train.x, &test.x, threads);
        Ok(Self::seeded(train, test, k, threads, lists))
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
        check_inputs(&train, &test, k)?;
        graph
            .validate_against(&train.x, &test.x)
            .map_err(|e| ResidentError::GraphMismatch {
                detail: e.to_string(),
            })?;
        let lists = graph.lists().to_vec();
        Ok(Self::seeded(train, test, k, threads, lists))
    }

    /// The engine over the rank lists `lists`, row `i` in slot `i`, its
    /// exact sums folded from every test point's head and finalized.
    fn seeded(
        train: ClassDataset,
        test: ClassDataset,
        k: usize,
        threads: usize,
        lists: Vec<Vec<Neighbor>>,
    ) -> Self {
        let n = train.len();
        let ranked = lists
            .into_iter()
            .zip(&test.y)
            .map(|(list, &y)| Ranked {
                far: farthest_rank(&list, &train.y, y),
                list,
            })
            .collect();
        let mut engine = Self {
            test,
            k,
            threads,
            dim: train.dim(),
            features: train.x.into_vec(),
            labels: train.y,
            order: (0..n as u32).collect(),
            n_classes: train.n_classes,
            ranked,
            sums: ExactVec::zeros(0),
            values: Vec::new(),
            version: 0,
            dense: OnceLock::new(),
        };
        engine.refold_all();
        engine
    }

    /// Current dataset version (0 = as loaded; each committed mutation
    /// increments it by one).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The current (mutated) training set, built from the live slots on
    /// the first call after a mutation and kept until the next one.
    pub fn train(&self) -> &ClassDataset {
        self.dense.get_or_init(|| {
            let mut x = Vec::with_capacity(self.order.len() * self.dim);
            for (row, _) in self.rows() {
                x.extend_from_slice(row);
            }
            ClassDataset::new(Features::new(x, self.dim), self.labels(), self.n_classes)
        })
    }

    /// Every training point's features and label, in training order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (&[f32], u32)> + '_ {
        self.order
            .iter()
            .map(|&s| (self.row(s), self.labels[s as usize]))
    }

    /// Every training point's label, in training order.
    pub fn labels(&self) -> Vec<u32> {
        self.order
            .iter()
            .map(|&s| self.labels[s as usize])
            .collect()
    }

    /// The resident test set (immutable for the engine's lifetime).
    pub fn test(&self) -> &ClassDataset {
        &self.test
    }

    pub fn n_train(&self) -> usize {
        self.order.len()
    }

    /// Row slots held: the training points plus the deleted rows the next
    /// compaction drops. Never more than twice the training points once a
    /// batch is applied.
    pub fn slots(&self) -> usize {
        self.labels.len()
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

    /// Slot `slot`'s features.
    fn row(&self, slot: u32) -> &[f32] {
        let at = slot as usize * self.dim;
        &self.features[at..at + self.dim]
    }

    fn check_point(&self, row: &[f32], label: u32) -> Result<(), ResidentError> {
        if row.len() != self.dim {
            return Err(ResidentError::DimMismatch {
                expected: self.dim,
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
    /// produce); their slots stay, so each rank list just drops one entry.
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
    /// `touched`): their pre-batch head values are deposited negated,
    /// their post-batch head values are deposited, and only the slots
    /// those deposits reached are rounded again. Slots do not move, so
    /// both deposits land on the same rows. Exact accumulation makes
    /// −old + new the same real sum a fresh fold over every test point
    /// gives, so every value keeps the bits a cold run gives. A batch that
    /// touches more than half the test points, or that leaves more
    /// tombstones than live rows and so compacts the slots, folds every
    /// test point into zero sums once it is spliced instead: the same
    /// sums, for less work.
    ///
    /// What a batch **saves** is one re-fold and one re-rounding for M
    /// mutations instead of M, plus M−1 fork/join barriers.
    /// `bench_serve_incremental` measures the gap;
    /// `KNNSHAP_SERVE_BATCH_FLOOR` gates it.
    pub fn apply_batch(&mut self, muts: &[Mutation]) -> Vec<Result<Applied, ResidentError>> {
        // Pass 1 (serial): validate each mutation against the evolving
        // dataset and resolve it to a slot — a fresh one for an insert,
        // the deleted row's for a delete.
        let mut acks = Vec::with_capacity(muts.len());
        let mut ops = Vec::with_capacity(muts.len());
        for m in muts {
            let index = match m {
                Mutation::Insert { features, label } => {
                    self.check_point(features, *label).map(|()| {
                        let slot = self.labels.len();
                        assert!(slot < u32::MAX as usize, "training set exceeds u32 slots");
                        self.features.extend_from_slice(features);
                        self.labels.push(*label);
                        self.n_classes = self.n_classes.max(label + 1);
                        self.order.push(slot as u32);
                        self.sums.push_zero_row();
                        self.values.push(0.0);
                        ops.push(SlotOp::Insert(slot as u32));
                        self.order.len() - 1
                    })
                }
                Mutation::Delete { index } => {
                    let (index, len) = (*index, self.order.len());
                    if index >= len {
                        Err(ResidentError::OutOfRange { index, len })
                    } else if len == 1 {
                        Err(ResidentError::LastPoint)
                    } else {
                        ops.push(SlotOp::Delete(self.order.remove(index)));
                        Ok(index)
                    }
                }
            };
            acks.push(index.map(|index| {
                self.version += 1;
                Applied {
                    index,
                    version: self.version,
                }
            }));
        }
        if ops.is_empty() {
            return acks; // nothing accepted — rank lists are untouched
        }
        self.dense = OnceLock::new();
        let live = self.order.len();
        let compact = self.slots() - live > live;
        // Past half the test points, taking the old values out and putting
        // the new ones in costs more than folding every test point into
        // zero sums once the batch is spliced; both give the same sums.
        let touched = self.touched(&ops);
        if compact || 2 * touched.len() > self.test.len() {
            self.splice(&ops);
            if compact {
                self.compact();
            }
            self.refold_all();
            return acks;
        }
        // Take the touched test points' pre-batch head values back out of
        // the sums, splice, put their post-batch values in, and round
        // again every slot either deposit reached.
        let mut sums = std::mem::replace(&mut self.sums, ExactVec::zeros(0));
        let mut moved = vec![false; self.slots()];
        self.deposit_heads(&mut sums, &touched, true);
        self.mark_heads(&mut moved, &touched);
        for op in &ops {
            if let SlotOp::Delete(slot) = *op {
                // Every head holding the row took its value back.
                debug_assert!(
                    sums.is_zero(slot as usize),
                    "deleted slot {slot} holds value"
                );
            }
        }
        self.splice(&ops);
        self.deposit_heads(&mut sums, &touched, false);
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

    /// Pass 2 (parallel, once per batch): replay the accepted splices in
    /// order on every rank list. Distances and splice positions are
    /// computed by the same expressions the sequential path used, so the
    /// lists come out entry-for-entry identical.
    fn splice(&mut self, ops: &[SlotOp]) {
        let mut ranked = std::mem::take(&mut self.ranked);
        let this = &*self;
        knnshap_parallel::par_chunks(&mut ranked, 1, this.threads, |j, lists| {
            let (query, y) = (this.test.x.row(j), this.test.y[j]);
            for &op in ops {
                match op {
                    SlotOp::Insert(slot) => {
                        let d = Metric::SquaredL2.eval(query, this.row(slot));
                        lists[0].insert(slot, d, this.labels[slot as usize] == y);
                    }
                    SlotOp::Delete(slot) => {
                        let d = Metric::SquaredL2.eval(query, this.row(slot));
                        lists[0].remove(slot, d, &this.labels, y);
                    }
                }
            }
        });
        self.ranked = ranked;
    }

    /// Drop the tombstones: each live row moves down to the slot of its
    /// training index (never up, since `order` ascends), and every rank
    /// list entry takes its row's new slot — a map that keeps the slots'
    /// order, so each list keeps its order and its farthest same-label
    /// rank. The sums and values are left for [`refold_all`](Self::refold_all).
    fn compact(&mut self) {
        let dim = self.dim;
        let mut renumber = vec![0u32; self.slots()];
        for (i, &slot) in self.order.iter().enumerate() {
            let s = slot as usize;
            renumber[s] = i as u32;
            self.features.copy_within(s * dim..(s + 1) * dim, i * dim);
            self.labels[i] = self.labels[s];
        }
        let live = self.order.len();
        self.features.truncate(live * dim);
        self.labels.truncate(live);
        for (i, slot) in self.order.iter_mut().enumerate() {
            *slot = i as u32;
        }
        knnshap_parallel::par_chunks(&mut self.ranked, 1, self.threads, |_, lists| {
            for nb in &mut lists[0].list {
                nb.index = renumber[nb.index as usize];
            }
        });
    }

    /// Fold every test point's head into fresh zero sums and finalize
    /// every slot.
    fn refold_all(&mut self) {
        self.sums = ExactVec::zeros(0);
        let mut sums = ExactVec::zeros(self.slots());
        let every: Vec<usize> = (0..self.test.len()).collect();
        self.deposit_heads(&mut sums, &every, false);
        self.values.resize(self.slots(), 0.0);
        let n_test = self.test.len() as u64;
        crate::sharding::finalize_mean_into(&sums, n_test, self.threads, &mut self.values, None);
        self.sums = sums;
    }

    /// The test points whose Theorem 1 head the resolved batch `ops` can
    /// change, judged on the pre-batch rank lists: a head that is the
    /// whole ranking (its base term depends on N), and a head an op
    /// reaches — an insert with the test point's label, or an insert or
    /// delete of a row no farther than the head's last row, the one at
    /// rank `far + 1` (a distance tie with it counts as reaching it). Any
    /// other head keeps its rows, their order and their labels through the
    /// batch, and its values keep their bits.
    fn touched(&self, ops: &[SlotOp]) -> Vec<usize> {
        (0..self.test.len())
            .filter(|&j| {
                let (ranked, y) = (&self.ranked[j], self.test.y[j]);
                let head = ranked.head();
                if head.len() == ranked.list.len() {
                    return true;
                }
                let query = self.test.x.row(j);
                let reaches = |slot: u32| {
                    head.last().is_some_and(|last| {
                        Metric::SquaredL2.eval(query, self.row(slot)) <= last.dist
                    })
                };
                ops.iter().any(|&op| match op {
                    SlotOp::Insert(slot) => self.labels[slot as usize] == y || reaches(slot),
                    SlotOp::Delete(slot) => reaches(slot),
                })
            })
            .collect()
    }

    /// Deposit the Theorem 1 head values of the test points `tests` into
    /// `sums` — negated when `negate` — at the slots their rank lists
    /// hold. Dense fill, like the batch path, deposited linearly block by
    /// block; each test point writes only the head of its list — every
    /// rank past its farthest same-label one is Theorem 1's zero tail, the
    /// `+0.0` the scratch already holds — and only those rows are zeroed
    /// again (see [`crate::exact_unweighted`]).
    fn deposit_heads(&self, sums: &mut ExactVec, tests: &[usize], negate: bool) {
        fold_scratch_into(
            sums,
            0..tests.len(),
            self.threads,
            None,
            || (),
            |t, _, _, out: &mut Scratch| {
                let j = tests[t];
                let ranked = &self.ranked[j];
                let head = ranked.head();
                let values = out.values();
                fill_head(
                    ranked.list.len(),
                    head,
                    &self.labels,
                    self.test.y[j],
                    self.k,
                    values,
                );
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

    /// Mark in `slots` the slots in the heads of the test points `tests`.
    fn mark_heads(&self, slots: &mut [bool], tests: &[usize]) {
        for &j in tests {
            for nb in self.ranked[j].head() {
                slots[nb.index as usize] = true;
            }
        }
    }

    /// The Shapley vector of the current training set — bitwise-identical
    /// to a cold [`crate::exact_unweighted::knn_class_shapley_with_threads`]
    /// run on [`train`](Self::train), at every thread count. A gather of
    /// the vector [`apply_batch`](Self::apply_batch) keeps up to date: no
    /// recursion, no fold and no rounding happen here.
    pub fn values(&self) -> ShapleyValues {
        ShapleyValues::new(
            self.order
                .iter()
                .map(|&s| self.values[s as usize])
                .collect(),
        )
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
        let n = self.order.len();
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
                            f64::from(self.labels[list[r - 1].index as usize] == y)
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
#[derive(Debug, Default)]
struct Ranked {
    list: Vec<Neighbor>,
    far: Option<usize>,
}

impl Ranked {
    /// The ranks Theorem 1 reads: through one past the farthest
    /// same-label rank.
    fn head(&self) -> &[Neighbor] {
        &self.list[..head_len(self.list.len(), self.far)]
    }

    /// Splice in `slot` at distance `dist`, after every entry at that
    /// distance (the slot is the largest yet), with `same_label` whether
    /// its label is the test point's.
    fn insert(&mut self, slot: u32, dist: f32, same_label: bool) {
        let pos = self.list.partition_point(|nb| nb.dist <= dist);
        self.list.insert(pos, Neighbor { index: slot, dist });
        self.far = match self.far {
            Some(f) if pos <= f => Some(f + 1),
            _ if same_label => Some(pos),
            f => f,
        };
    }

    /// Remove `slot`'s entry, found by its `(distance, slot)` key with
    /// `dist` the distance [`insert`](Self::insert) or the startup ranking
    /// gave it; a list whose stored distance differs (a graph artifact
    /// ranked by another kernel) is searched entry by entry. Deleting the
    /// farthest row labelled `label` walks that rank back to the previous
    /// such row, read through `labels`.
    fn remove(&mut self, slot: u32, dist: f32, labels: &[u32], label: u32) {
        let at = self
            .list
            .partition_point(|nb| (nb.dist, nb.index) < (dist, slot));
        let at = if self.list.get(at).is_some_and(|nb| nb.index == slot) {
            at
        } else {
            self.list
                .iter()
                .position(|nb| nb.index == slot)
                .expect("a live slot is in every rank list")
        };
        self.list.remove(at);
        self.far = match self.far {
            Some(f) if at < f => Some(f - 1),
            Some(f) if at == f => farthest_rank(&self.list[..at], labels, label),
            f => f,
        };
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
                    let want = farthest_rank(&ranked.list, &engine.labels, engine.test.y[j]);
                    assert_eq!(ranked.far, want, "{what}: test point {j}");
                }
            };
            check(&engine, "fresh");
            for step in 0..40 {
                let len = engine.n_train();
                // Delete some test point's farthest same-label row, then
                // splice on in the same batch.
                let j = rng.gen_range(0..engine.n_test());
                let far = engine.ranked[j].far.map(|f| {
                    let slot = engine.ranked[j].list[f].index;
                    engine.order.binary_search(&slot).unwrap()
                });
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
        assert!((0..6).all(|j| engine.ranked[j].head().len() < n));
        let far = vec![2e3f32; 5];
        // An insert's row and label sit in their slot before the lists
        // are spliced, which is all `touched` reads.
        let touched_by_insert = |engine: &mut ResidentValuator, label| {
            engine.features.extend_from_slice(&far);
            engine.labels.push(label);
            let touched = engine.touched(&[SlotOp::Insert(n as u32)]);
            engine.features.truncate(n * 5);
            engine.labels.truncate(n);
            touched
        };
        assert!(touched_by_insert(&mut engine, 7).is_empty());
        let delete = SlotOp::Delete(engine.order[n - 1]);
        assert!(engine.touched(&[delete]).is_empty());
        let y = engine.test().y[0];
        let own: Vec<usize> = (0..6).filter(|&j| test.y[j] == y).collect();
        assert_eq!(touched_by_insert(&mut engine, y), own);
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
