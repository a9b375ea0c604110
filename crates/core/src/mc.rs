//! Monte Carlo Shapley estimators: the baseline of §2.2 and the improved
//! estimator of Algorithm 2, on a deterministic parallel runtime.
//!
//! Both regard eq. (3) as an expectation over random permutations and average
//! the marginal contribution `φ_i = ν(P_i^π ∪ {i}) − ν(P_i^π)`:
//!
//! * [`mc_shapley_baseline`] re-evaluates ν from scratch at every prefix —
//!   `O(N)` utility evaluations per permutation, each `O(|S|·K)` here (the
//!   paper's baseline sorts, `O(|S| log |S|)`; we charge the cheaper
//!   selection cost, which only *helps* the baseline).
//! * [`mc_shapley_improved`] (Algorithm 2) streams each permutation through a
//!   bounded max-heap per test point and recomputes the utility **only when
//!   the K-nearest set changes** — expected `O(K log N)` changes per
//!   permutation instead of `N`.
//!
//! Stopping is governed by [`StoppingRule`]: a fixed budget, the Hoeffding or
//! Bennett bounds of [`crate::bounds`], or the paper's §6.2.2 heuristic
//! ("terminate when the change of the SV estimates in two consecutive
//! iterations is below" [`crate::bounds::heuristic_threshold`], i.e. ε/50).
//!
//! ### The parallel runtime and its determinism contract
//!
//! Permutation `t` draws its bits from stream `t` of a counter-based
//! [`RngStreams`] family (a pure function of `(seed, t)`), so permutations
//! can be fanned across `knnshap_parallel` workers without any shared
//! generator. Two scheduling shapes exist, chosen by the *arguments only*
//! (never by the thread count):
//!
//! * a-priori budgets without snapshots fan the whole budget out over the
//!   shared dense fold of [`crate::sharding`] into one **exact** accumulator
//!   ([`knnshap_numerics::exact::ExactVec`]), whose error-free,
//!   order-invariant merge makes the estimate a pure function of the
//!   permutation multiset — bitwise-identical at every thread count *and*
//!   every sharding of the stream range (the `McBaseline` / `McImproved`
//!   families of [`crate::estimator::Estimator`]);
//! * the heuristic rule and snapshot requests ingest permutations in rounds
//!   of [`crate::bounds::mc_round_size`] streams, folding each round into a
//!   running compensated ([`CompensatedVec`], Neumaier) estimate in
//!   permutation order so per-permutation stopping and snapshot semantics
//!   are preserved exactly. This path is inherently sequential in `t` and
//!   therefore **not shardable** — a shard cannot know whether an earlier
//!   shard would have stopped; use a fixed budget to shard.

use crate::types::ShapleyValues;
use crate::utility::{DistMatrix, Utility};
use knnshap_datasets::{ClassDataset, RegDataset};
use knnshap_knn::heap::KnnHeap;
use knnshap_knn::weights::WeightFn;
use knnshap_numerics::compensated::CompensatedVec;
use knnshap_numerics::exact::ExactVec;
use knnshap_numerics::sampling::{identity_shuffle, RngStreams};
use std::sync::Arc;

// Telemetry (write-only; see `knnshap_obs` crate docs — nothing below feeds
// back into the estimate). `mc.perms` counts permutation streams consumed
// across every MC drive; `mc.rounds` counts round-path fold boundaries.
static MC_PERMS: knnshap_obs::Counter = knnshap_obs::Counter::new("mc.perms");
static MC_ROUNDS: knnshap_obs::Counter = knnshap_obs::Counter::new("mc.rounds");

/// When to stop drawing permutations.
#[derive(Debug, Clone, Copy)]
pub enum StoppingRule {
    /// Exactly this many permutations.
    Fixed(usize),
    /// The Hoeffding budget of the baseline method (§2.2).
    Hoeffding { eps: f64, delta: f64, range: f64 },
    /// The Bennett budget of Theorem 5 (requires K for the q_i profile).
    Bennett {
        eps: f64,
        delta: f64,
        range: f64,
        k: usize,
    },
    /// Stop once `max_i |ŝ_i^{(t)} − ŝ_i^{(t−1)}| < threshold`, bounded by
    /// `max` permutations. The paper's §6.2.2 choice of threshold is ε/50 —
    /// build it with [`crate::bounds::heuristic_threshold`] so every caller
    /// shares that one definition.
    Heuristic { threshold: f64, max: usize },
}

impl StoppingRule {
    /// The a-priori permutation budget (for [`StoppingRule::Heuristic`] this
    /// is its `max`; the run may stop earlier).
    pub fn budget(&self, n: usize) -> usize {
        match *self {
            StoppingRule::Fixed(t) => t,
            StoppingRule::Hoeffding { eps, delta, range } => {
                crate::bounds::hoeffding_permutations(n, eps, delta, range)
            }
            StoppingRule::Bennett {
                eps,
                delta,
                range,
                k,
            } => crate::bounds::bennett_permutations(n, k, eps, delta, range),
            StoppingRule::Heuristic { max, .. } => max,
        }
    }

    fn threshold(&self) -> Option<f64> {
        match *self {
            StoppingRule::Heuristic { threshold, .. } => Some(threshold),
            _ => None,
        }
    }
}

/// Output of a Monte Carlo run.
#[derive(Debug, Clone)]
pub struct McResult {
    pub values: ShapleyValues,
    /// Permutations actually consumed.
    pub permutations: usize,
    /// `(t, running estimate)` pairs recorded every `snapshot_every`
    /// permutations (empty unless requested).
    pub snapshots: Vec<(usize, ShapleyValues)>,
}

/// Fan-out drive shared by the a-priori-budget estimators and the shard
/// entry points: run permutation streams `range` (of a job whose full
/// stream space is `0..total`) in [`crate::sharding::static_fold_block`]
/// claim units, depositing every marginal-contribution vector into the
/// exact accumulator `sums`, shared by the workers, each holding its own
/// permutation worker and contribution scratch
/// ([`crate::sharding::fold_dense_into`]). What the range deposits is a
/// pure function of `(job, range)` — never of `threads` or of how the rest
/// of the job is sharded.
fn run_fanout<W, F>(
    sums: &mut ExactVec,
    range: std::ops::Range<usize>,
    threads: usize,
    make_worker: F,
) where
    W: FnMut(usize, &mut [f64]) + Send,
    F: Fn() -> W + Sync,
{
    let perms = range.len() as u64;
    crate::sharding::fold_dense_into(sums, range, threads, None, make_worker, |t, _, w, phi| {
        w(t, phi)
    });
    MC_PERMS.add(perms);
}

/// Round-path drive of both estimators (heuristic stopping and/or
/// snapshots): `make_worker()` builds a block-local closure that fills
/// permutation `t`'s marginal-contribution vector (one entry per training
/// point). Rounds hold [`crate::bounds::mc_round_size`] permutations, cut
/// into a few chunks per worker so fork cost amortizes — a pure function of
/// `(budget, threads)`. See the module docs for the scheduling shapes and
/// the determinism contract.
fn drive_rounds<W, F>(
    n: usize,
    rule: StoppingRule,
    snapshot_every: Option<usize>,
    threads: usize,
    make_worker: F,
) -> McResult
where
    W: FnMut(usize, &mut [f64]) + Send,
    F: Fn() -> W + Sync,
{
    let round = crate::bounds::mc_round_size(rule.budget(n));
    let chunk_perms = round.div_ceil(threads.max(1).saturating_mul(4));
    drive_tiled(
        n,
        rule,
        snapshot_every,
        threads,
        (round, chunk_perms),
        make_worker,
    )
}

/// [`drive_rounds`] on a given `(round, chunk_perms)` tiling: `round`
/// permutations in flight per round, forked `chunk_perms` per worker.
fn drive_tiled<W, F>(
    n: usize,
    rule: StoppingRule,
    snapshot_every: Option<usize>,
    threads: usize,
    (round, chunk_perms): (usize, usize),
    make_worker: F,
) -> McResult
where
    W: FnMut(usize, &mut [f64]) + Send,
    F: Fn() -> W + Sync,
{
    let budget = rule.budget(n);
    let threshold = rule.threshold();

    // Launch `round` streams at a time into one flat buffer (chunks of
    // `chunk_perms` permutations per worker fork, so fork cost is paid per
    // chunk, not per permutation), then fold them into the running estimate
    // in permutation order so the heuristic check and snapshots see exactly
    // the serial per-permutation sequence. Round and chunk sizes are
    // bitwise-free: the fold order and the per-permutation stop/snapshot
    // checks never depend on them.
    let round = round.clamp(1, budget.max(1));
    let chunk_perms = chunk_perms.clamp(1, round);
    let threads = threads.max(1);
    let mut round_buf = vec![0.0f64; round * n];
    let mut sums = CompensatedVec::zeros(n);
    let mut snapshots = Vec::new();
    let mut t = 0usize;
    'drawing: while t < budget {
        let base = t;
        let count = round.min(budget - base);
        let buf = &mut round_buf[..count * n];
        // `buf` is `count` permutation slots of `n` entries; a chunk size
        // that is a multiple of `n` keeps every chunk boundary on a
        // permutation boundary. Workers fully overwrite their slots, so no
        // zeroing between rounds is needed.
        knnshap_parallel::par_chunks(buf, chunk_perms * n, threads, |start, sub| {
            let mut worker = make_worker();
            let first = base + start / n;
            for (j, phi) in sub.chunks_mut(n).enumerate() {
                worker(first + j, phi);
            }
        });
        MC_ROUNDS.incr();
        knnshap_obs::emit(
            knnshap_obs::Level::Debug,
            "mc",
            "round",
            &[
                ("first", base.into()),
                ("perms", count.into()),
                ("budget", budget.into()),
            ],
        );
        for phi in round_buf[..count * n].chunks(n) {
            let mut max_update = 0.0f64;
            for (i, &p) in phi.iter().enumerate() {
                let old_est = if t == 0 {
                    0.0
                } else {
                    sums.value(i) / t as f64
                };
                sums.add(i, p);
                let new_est = sums.value(i) / (t + 1) as f64;
                max_update = max_update.max((new_est - old_est).abs());
            }
            t += 1;
            if let Some(every) = snapshot_every {
                if t.is_multiple_of(every) {
                    let est: Vec<f64> = (0..n).map(|i| sums.value(i) / t as f64).collect();
                    snapshots.push((t, ShapleyValues::new(est)));
                }
            }
            if let Some(th) = threshold {
                if t >= 2 && max_update < th {
                    break 'drawing;
                }
            }
        }
    }
    MC_PERMS.add(t as u64);
    knnshap_obs::flush();
    let scale = 1.0 / t.max(1) as f64;
    let values: Vec<f64> = (0..n).map(|i| sums.value(i) * scale).collect();
    McResult {
        values: ShapleyValues::new(values),
        permutations: t,
        snapshots,
    }
}

/// The baseline estimator (§2.2) on the workspace default worker count.
///
/// ```
/// use knnshap_core::mc::{mc_shapley_baseline, StoppingRule};
/// use knnshap_core::utility::KnnClassUtility;
/// use knnshap_datasets::synth::blobs::{self, BlobConfig};
///
/// let cfg = BlobConfig { n: 20, dim: 2, n_classes: 2, ..Default::default() };
/// let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 3, 7));
/// let u = KnnClassUtility::unweighted(&train, &test, 2);
/// let res = mc_shapley_baseline(&u, StoppingRule::Fixed(30), 42, None);
/// assert_eq!(res.values.len(), 20);
/// assert_eq!(res.permutations, 30);
/// ```
pub fn mc_shapley_baseline<U: Utility + ?Sized>(
    u: &U,
    rule: StoppingRule,
    seed: u64,
    snapshot_every: Option<usize>,
) -> McResult {
    mc_shapley_baseline_with_threads(
        u,
        rule,
        seed,
        snapshot_every,
        knnshap_parallel::current_threads(),
    )
}

/// The baseline estimator (§2.2): full utility re-evaluation per prefix,
/// permutations fanned across `threads` pool workers. Bitwise-identical
/// output for every `threads` value (see the module docs).
pub fn mc_shapley_baseline_with_threads<U: Utility + ?Sized>(
    u: &U,
    rule: StoppingRule,
    seed: u64,
    snapshot_every: Option<usize>,
    threads: usize,
) -> McResult {
    let n = u.n();
    if matches!(rule, StoppingRule::Heuristic { .. }) || snapshot_every.is_some() {
        let streams = RngStreams::new(seed);
        let nu_empty = u.eval(&[]);
        return drive_rounds(n, rule, snapshot_every, threads, || {
            baseline_worker(u, streams, nu_empty)
        });
    }
    let budget = rule.budget(n);
    let mut sums = ExactVec::zeros(n);
    baseline_sums(u, seed, 0..budget, threads, &mut sums);
    McResult {
        values: crate::sharding::finalize_mean(&sums, budget as u64, threads),
        permutations: budget,
        snapshots: Vec::new(),
    }
}

/// The baseline estimator's per-permutation worker: full utility
/// re-evaluation at every prefix. Permutation `t` is a pure function of
/// `(streams, t)`.
fn baseline_worker<'a, U: Utility + ?Sized>(
    u: &'a U,
    streams: RngStreams,
    nu_empty: f64,
) -> impl FnMut(usize, &mut [f64]) + Send + 'a {
    let n = u.n();
    let mut perm: Vec<usize> = vec![0; n];
    let mut prefix: Vec<usize> = Vec::with_capacity(n);
    move |t: usize, phi: &mut [f64]| {
        identity_shuffle(&mut streams.stream(t as u64), &mut perm);
        prefix.clear();
        let mut prev = nu_empty;
        for &p in &perm {
            prefix.push(p);
            let cur = u.eval(&prefix);
            phi[p] = cur - prev;
            prev = cur;
        }
    }
}

/// Baseline-MC exact partial sums over permutation streams `range`, into
/// `sums` — the one fold behind the fixed-budget estimator and
/// [`crate::estimator::Estimator`].
pub(crate) fn baseline_sums<U: Utility + ?Sized>(
    u: &U,
    seed: u64,
    range: std::ops::Range<usize>,
    threads: usize,
    sums: &mut ExactVec,
) {
    let streams = RngStreams::new(seed);
    let nu_empty = u.eval(&[]);
    run_fanout(sums, range, threads, || {
        baseline_worker(u, streams, nu_empty)
    });
}

/// The immutable half of [`IncKnnUtility`], shared (via `Arc`) by every fork
/// so parallel workers reuse one distance matrix.
struct IncShared {
    dist: DistMatrix,
    k: usize,
    weight: WeightFn,
    task: IncTask,
}

/// A KNN utility that supports the streaming-insertion access pattern of
/// Algorithm 2 (lines 13–20): `insert` returns the new total utility only
/// when some test point's K-nearest set changed.
///
/// The distance matrix and task data live behind an `Arc`, so
/// [`fork`](IncKnnUtility::fork) hands each parallel permutation worker its own
/// mutable heap state at the cost of a few small allocations — never a second
/// `O(N · N_test)` distance matrix.
pub struct IncKnnUtility {
    shared: Arc<IncShared>,
    heaps: Vec<KnnHeap>,
    /// Per-test current utility contribution.
    per_test: Vec<f64>,
    /// Current total (mean over tests).
    total: f64,
    /// Reusable recompute buffers. Before this scratch, every K-set change
    /// allocated three fresh vectors (sorted members, distances, weights) —
    /// ~3·K·log N allocations per permutation, which serialized parallel MC
    /// on the allocator (the `BENCH_mc.json` thread-scaling stall).
    scratch: IncScratch,
}

/// The per-utility recompute buffers of [`IncKnnUtility::recompute_one`].
#[derive(Default)]
struct IncScratch {
    members: Vec<(f32, u32)>,
    dists: Vec<f32>,
    weights: Vec<f64>,
}

enum IncTask {
    Class {
        labels: Vec<u32>,
        test_labels: Vec<u32>,
    },
    Reg {
        targets: Vec<f64>,
        test_targets: Vec<f64>,
    },
}

impl IncKnnUtility {
    fn from_shared(shared: Arc<IncShared>, n_test: usize) -> Self {
        let k = shared.k;
        Self {
            shared,
            heaps: (0..n_test).map(|_| KnnHeap::new(k)).collect(),
            per_test: vec![0.0; n_test],
            total: 0.0,
            scratch: IncScratch::default(),
        }
    }

    pub fn classification(
        train: &ClassDataset,
        test: &ClassDataset,
        k: usize,
        weight: WeightFn,
    ) -> Self {
        Self::class_over(DistMatrix::build(&train.x, &test.x), train, test, k, weight)
    }

    /// [`classification`](Self::classification) over an already-built
    /// distance matrix.
    pub(crate) fn class_over(
        dist: DistMatrix,
        train: &ClassDataset,
        test: &ClassDataset,
        k: usize,
        weight: WeightFn,
    ) -> Self {
        assert!(k >= 1 && !test.is_empty());
        let task = IncTask::Class {
            labels: train.y.clone(),
            test_labels: test.y.clone(),
        };
        let shared = IncShared {
            dist,
            k,
            weight,
            task,
        };
        Self::from_shared(Arc::new(shared), test.len())
    }

    pub fn regression(train: &RegDataset, test: &RegDataset, k: usize, weight: WeightFn) -> Self {
        Self::reg_over(DistMatrix::build(&train.x, &test.x), train, test, k, weight)
    }

    /// [`regression`](Self::regression) over an already-built distance
    /// matrix.
    pub(crate) fn reg_over(
        dist: DistMatrix,
        train: &RegDataset,
        test: &RegDataset,
        k: usize,
        weight: WeightFn,
    ) -> Self {
        assert!(k >= 1 && !test.is_empty());
        let task = IncTask::Reg {
            targets: train.y.clone(),
            test_targets: test.y.clone(),
        };
        let shared = IncShared {
            dist,
            k,
            weight,
            task,
        };
        Self::from_shared(Arc::new(shared), test.len())
    }

    /// A fresh-state utility over the *same* shared distance matrix — the
    /// per-worker scratch of the parallel estimator.
    pub fn fork(&self) -> Self {
        Self::from_shared(Arc::clone(&self.shared), self.n_test())
    }

    pub fn n(&self) -> usize {
        match &self.shared.task {
            IncTask::Class { labels, .. } => labels.len(),
            IncTask::Reg { targets, .. } => targets.len(),
        }
    }

    fn n_test(&self) -> usize {
        self.per_test.len()
    }

    /// Start a fresh permutation (paper line 13: empty heap).
    pub fn reset(&mut self) {
        for h in &mut self.heaps {
            h.clear();
        }
        for v in &mut self.per_test {
            // ν(∅) = 0 for both task conventions (see crate::utility docs).
            *v = 0.0;
        }
        self.total = 0.0;
    }

    /// Recompute one test point's utility contribution from its heap. All
    /// buffers come from `scratch` (no per-change allocation — this runs
    /// ~K·log N times per permutation); the arithmetic order is identical
    /// to the historical allocate-per-call version, so the bits are too.
    fn recompute_one(
        shared: &IncShared,
        heap: &KnnHeap,
        j: usize,
        scratch: &mut IncScratch,
    ) -> f64 {
        heap.sorted_into(&mut scratch.members);
        scratch.dists.clear();
        scratch
            .dists
            .extend(scratch.members.iter().map(|&(d, _)| d));
        shared
            .weight
            .weights_into(&scratch.dists, shared.k, &mut scratch.weights);
        let (members, w) = (&scratch.members, &scratch.weights);
        match &shared.task {
            IncTask::Class {
                labels,
                test_labels,
            } => members
                .iter()
                .zip(w)
                .filter(|(&(_, i), _)| labels[i as usize] == test_labels[j])
                .map(|(_, &wk)| wk)
                .sum(),
            IncTask::Reg {
                targets,
                test_targets,
            } => {
                if members.is_empty() {
                    return 0.0;
                }
                let pred: f64 = members
                    .iter()
                    .zip(w)
                    .map(|(&(_, i), &wk)| wk * targets[i as usize])
                    .sum();
                let e = pred - test_targets[j];
                -(e * e)
            }
        }
    }

    /// Insert training point `i`; `Some(total)` iff any K-NN set changed.
    pub fn insert(&mut self, i: usize) -> Option<f64> {
        let mut changed = false;
        let n_test = self.n_test();
        for j in 0..n_test {
            let d = self.shared.dist.row(j)[i];
            if self.heaps[j].insert(d, i as u32).changed() {
                let nu = Self::recompute_one(&self.shared, &self.heaps[j], j, &mut self.scratch);
                self.total += (nu - self.per_test[j]) / n_test as f64;
                self.per_test[j] = nu;
                changed = true;
            }
        }
        changed.then_some(self.total)
    }

    /// Current total utility (mean over test points).
    pub fn current(&self) -> f64 {
        self.total
    }
}

/// The improved estimator (Algorithm 2) on the workspace default worker
/// count.
///
/// ```
/// use knnshap_core::mc::{mc_shapley_improved, IncKnnUtility, StoppingRule};
/// use knnshap_datasets::synth::blobs::{self, BlobConfig};
/// use knnshap_knn::weights::WeightFn;
///
/// let cfg = BlobConfig { n: 25, dim: 2, n_classes: 2, ..Default::default() };
/// let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 3, 7));
/// let mut inc = IncKnnUtility::classification(&train, &test, 2, WeightFn::Uniform);
/// let res = mc_shapley_improved(&mut inc, StoppingRule::Fixed(200), 42, None);
/// // Deterministic: the same seed reproduces the same estimate bit for bit.
/// let again = mc_shapley_improved(&mut inc, StoppingRule::Fixed(200), 42, None);
/// assert_eq!(res.values, again.values);
/// ```
pub fn mc_shapley_improved(
    u: &mut IncKnnUtility,
    rule: StoppingRule,
    seed: u64,
    snapshot_every: Option<usize>,
) -> McResult {
    mc_shapley_improved_with_threads(
        u,
        rule,
        seed,
        snapshot_every,
        knnshap_parallel::current_threads(),
    )
}

/// The improved estimator (Algorithm 2): heap-incremental utility updates,
/// permutations fanned across `threads` pool workers, each on a
/// [`fork`](IncKnnUtility::fork) of `u`. Bitwise-identical output for every
/// `threads` value (see the module docs).
pub fn mc_shapley_improved_with_threads(
    u: &IncKnnUtility,
    rule: StoppingRule,
    seed: u64,
    snapshot_every: Option<usize>,
    threads: usize,
) -> McResult {
    let n = u.n();
    if matches!(rule, StoppingRule::Heuristic { .. }) || snapshot_every.is_some() {
        let streams = RngStreams::new(seed);
        return drive_rounds(n, rule, snapshot_every, threads, || {
            improved_worker(u, streams)
        });
    }
    let budget = rule.budget(n);
    let mut sums = ExactVec::zeros(n);
    improved_sums(u, seed, 0..budget, threads, &mut sums);
    McResult {
        values: crate::sharding::finalize_mean(&sums, budget as u64, threads),
        permutations: budget,
        snapshots: Vec::new(),
    }
}

/// Algorithm 2's per-permutation worker: heap-incremental utility updates on
/// a [`fork`](IncKnnUtility::fork) of the shared distance matrix.
fn improved_worker<'a>(
    u: &'a IncKnnUtility,
    streams: RngStreams,
) -> impl FnMut(usize, &mut [f64]) + Send + 'a {
    let n = u.n();
    let mut fork = u.fork();
    let mut perm: Vec<usize> = vec![0; n];
    move |t: usize, phi: &mut [f64]| {
        identity_shuffle(&mut streams.stream(t as u64), &mut perm);
        fork.reset();
        let mut prev = 0.0f64;
        for &p in &perm {
            phi[p] = match fork.insert(p) {
                Some(cur) => {
                    let d = cur - prev;
                    prev = cur;
                    d
                }
                None => 0.0, // heap unchanged ⇒ φ = 0 (paper lines 18–19)
            };
        }
    }
}

/// Improved-MC exact partial sums over permutation streams `range`, into
/// `sums` (see [`baseline_sums`]).
pub(crate) fn improved_sums(
    u: &IncKnnUtility,
    seed: u64,
    range: std::ops::Range<usize>,
    threads: usize,
    sums: &mut ExactVec,
) {
    let streams = RngStreams::new(seed);
    run_fanout(sums, range, threads, || improved_worker(u, streams));
}

/// Empirical "ground truth" permutation demand (Fig. 11): the first `t` at
/// which the running estimate is within `eps` of `reference` in `‖·‖_∞`.
/// Returns `None` if `max_t` permutations never reach it.
///
/// Draws permutation `t` from stream `t − 1`, so the permutation sequence is
/// exactly the one [`mc_shapley_improved`] consumes for the same seed.
pub fn permutations_until_error(
    u: &mut IncKnnUtility,
    reference: &ShapleyValues,
    eps: f64,
    max_t: usize,
    seed: u64,
) -> Option<usize> {
    let n = u.n();
    assert_eq!(reference.len(), n);
    let streams = RngStreams::new(seed);
    let mut perm: Vec<usize> = vec![0; n];
    let mut sums = CompensatedVec::zeros(n);
    for t in 1..=max_t {
        identity_shuffle(&mut streams.stream((t - 1) as u64), &mut perm);
        u.reset();
        let mut prev = 0.0;
        for &p in &perm {
            if let Some(cur) = u.insert(p) {
                sums.add(p, cur - prev);
                prev = cur;
            }
        }
        let worst = reference
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, r)| (sums.value(i) / t as f64 - r).abs())
            .fold(0.0f64, f64::max);
        if worst <= eps {
            return Some(t);
        }
    }
    None
}

/// Verify the `nearest_in_subset` selection agrees with the heap-based
/// incremental path; exposed for integration tests.
#[doc(hidden)]
pub fn incremental_matches_batch(
    inc: &mut IncKnnUtility,
    batch: &dyn Utility,
    order: &[usize],
) -> bool {
    inc.reset();
    let mut prefix: Vec<usize> = Vec::new();
    let mut current = 0.0;
    for &p in order {
        prefix.push(p);
        if let Some(nu) = inc.insert(p) {
            current = nu;
        }
        let want = batch.eval(&prefix);
        if (current - want).abs() > 1e-9 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_unweighted::knn_class_shapley_with_threads;
    use crate::utility::{KnnClassUtility, KnnRegUtility};
    use knnshap_datasets::Features;
    use knnshap_numerics::sampling::shuffle_in_place;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_class(seed: u64, n: usize) -> (ClassDataset, ClassDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let train = ClassDataset::new(Features::new(feats, 2), labels, 2);
        let test = ClassDataset::new(Features::new(vec![0.1, -0.2, 0.4, 0.3], 2), vec![0, 1], 2);
        (train, test)
    }

    #[test]
    fn incremental_equals_batch_eval_class() {
        let (train, test) = small_class(1, 15);
        for weight in [WeightFn::Uniform, WeightFn::InverseDistance { eps: 1e-3 }] {
            let batch = KnnClassUtility::new(&train, &test, 3, weight);
            let mut inc = IncKnnUtility::classification(&train, &test, 3, weight);
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..10 {
                let mut order: Vec<usize> = (0..train.len()).collect();
                shuffle_in_place(&mut rng, &mut order);
                assert!(incremental_matches_batch(&mut inc, &batch, &order));
            }
        }
    }

    #[test]
    fn incremental_equals_batch_eval_reg() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 12;
        let train = RegDataset::new(
            Features::new((0..n * 2).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), 2),
            (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let test = RegDataset::new(Features::new(vec![0.0, 0.0], 2), vec![0.3]);
        for weight in [WeightFn::Uniform, WeightFn::Exponential { beta: 1.0 }] {
            let batch = KnnRegUtility::new(&train, &test, 2, weight);
            let mut inc = IncKnnUtility::regression(&train, &test, 2, weight);
            for seed in 0..6u64 {
                let mut order: Vec<usize> = (0..n).collect();
                let mut r2 = StdRng::seed_from_u64(seed);
                shuffle_in_place(&mut r2, &mut order);
                assert!(incremental_matches_batch(&mut inc, &batch, &order));
            }
        }
    }

    #[test]
    fn fork_shares_distances_but_not_state() {
        let (train, test) = small_class(10, 12);
        let mut inc = IncKnnUtility::classification(&train, &test, 2, WeightFn::Uniform);
        inc.insert(0);
        inc.insert(3);
        let mut fork = inc.fork();
        assert_eq!(fork.current(), 0.0, "fork must start empty");
        assert_eq!(fork.n(), inc.n());
        // Replaying the same insertions on the fork reaches the same total.
        fork.insert(0);
        fork.insert(3);
        assert_eq!(fork.current().to_bits(), inc.current().to_bits());
    }

    #[test]
    fn baseline_converges_to_exact() {
        let (train, test) = small_class(3, 10);
        let exact = knn_class_shapley_with_threads(&train, &test, 2, 1);
        let u = KnnClassUtility::unweighted(&train, &test, 2);
        let res = mc_shapley_baseline(&u, StoppingRule::Fixed(4000), 7, None);
        assert!(
            exact.max_abs_diff(&res.values) < 0.03,
            "err={}",
            exact.max_abs_diff(&res.values)
        );
        assert_eq!(res.permutations, 4000);
    }

    #[test]
    fn improved_converges_to_exact() {
        let (train, test) = small_class(4, 12);
        let exact = knn_class_shapley_with_threads(&train, &test, 3, 1);
        let mut inc = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
        let res = mc_shapley_improved(&mut inc, StoppingRule::Fixed(4000), 11, None);
        assert!(
            exact.max_abs_diff(&res.values) < 0.03,
            "err={}",
            exact.max_abs_diff(&res.values)
        );
    }

    #[test]
    fn improved_and_baseline_agree_statistically() {
        let (train, test) = small_class(5, 10);
        let u = KnnClassUtility::unweighted(&train, &test, 2);
        let mut inc = IncKnnUtility::classification(&train, &test, 2, WeightFn::Uniform);
        let a = mc_shapley_baseline(&u, StoppingRule::Fixed(3000), 1, None);
        let b = mc_shapley_improved(&mut inc, StoppingRule::Fixed(3000), 2, None);
        assert!(a.values.max_abs_diff(&b.values) < 0.05);
    }

    #[test]
    fn baseline_and_improved_agree_exactly_on_same_streams() {
        // Same seed ⇒ same permutation sequence ⇒ the two estimators see the
        // same marginals (they differ only in how they evaluate ν).
        let (train, test) = small_class(12, 14);
        let u = KnnClassUtility::unweighted(&train, &test, 3);
        let mut inc = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
        let a = mc_shapley_baseline(&u, StoppingRule::Fixed(40), 9, None);
        let b = mc_shapley_improved(&mut inc, StoppingRule::Fixed(40), 9, None);
        assert!(
            a.values.max_abs_diff(&b.values) < 1e-9,
            "err={}",
            a.values.max_abs_diff(&b.values)
        );
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        let (train, test) = small_class(6, 18);
        let u = KnnClassUtility::unweighted(&train, &test, 2);
        let inc = IncKnnUtility::classification(&train, &test, 2, WeightFn::Uniform);
        for rule in [
            StoppingRule::Fixed(100),
            StoppingRule::Heuristic {
                threshold: 1e-4,
                max: 300,
            },
        ] {
            let serial_b = mc_shapley_baseline_with_threads(&u, rule, 3, None, 1);
            let serial_i = mc_shapley_improved_with_threads(&inc, rule, 3, None, 1);
            for threads in [2usize, 8] {
                let par_b = mc_shapley_baseline_with_threads(&u, rule, 3, None, threads);
                let par_i = mc_shapley_improved_with_threads(&inc, rule, 3, None, threads);
                assert_eq!(par_b.permutations, serial_b.permutations);
                assert_eq!(par_i.permutations, serial_i.permutations);
                for i in 0..u.n() {
                    assert_eq!(
                        serial_b.values.get(i).to_bits(),
                        par_b.values.get(i).to_bits(),
                        "baseline i={i} threads={threads}"
                    );
                    assert_eq!(
                        serial_i.values.get(i).to_bits(),
                        par_i.values.get(i).to_bits(),
                        "improved i={i} threads={threads}"
                    );
                }
            }
        }
    }

    /// The finest tilings the static schedule can take still give the
    /// serial bits: one-permutation claim units on the fan-out path (a
    /// 32-stream budget at 8 threads), and rounds of 3 forked one
    /// permutation per chunk on the round path, under the heuristic stop
    /// with snapshots every 20.
    #[test]
    fn finest_tilings_match_serial_bits() {
        let (train, test) = small_class(2027, 24);
        let u = KnnClassUtility::unweighted(&train, &test, 3);
        let inc = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
        let bits = |v: &ShapleyValues| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        assert_eq!(crate::sharding::static_fold_block(32, 8), 1);
        let fixed = StoppingRule::Fixed(32);
        let serial_b = mc_shapley_baseline_with_threads(&u, fixed, 13, None, 1);
        let serial_i = mc_shapley_improved_with_threads(&inc, fixed, 13, None, 1);
        let par_b = mc_shapley_baseline_with_threads(&u, fixed, 13, None, 8);
        let par_i = mc_shapley_improved_with_threads(&inc, fixed, 13, None, 8);
        assert_eq!(
            bits(&par_b.values),
            bits(&serial_b.values),
            "baseline fan-out"
        );
        assert_eq!(
            bits(&par_i.values),
            bits(&serial_i.values),
            "improved fan-out"
        );
        assert_eq!((par_b.permutations, par_i.permutations), (32, 32));

        let heuristic = StoppingRule::Heuristic {
            threshold: 1e-4,
            max: 300,
        };
        let streams = RngStreams::new(13);
        let nu_empty = u.eval(&[]);
        let serial = mc_shapley_baseline_with_threads(&u, heuristic, 13, Some(20), 1);
        let tiled = drive_tiled(u.n(), heuristic, Some(20), 8, (3, 1), || {
            baseline_worker(&u, streams, nu_empty)
        });
        let serial_inc = mc_shapley_improved_with_threads(&inc, heuristic, 13, Some(20), 1);
        let tiled_inc = drive_tiled(inc.n(), heuristic, Some(20), 8, (3, 1), || {
            improved_worker(&inc, streams)
        });
        for (what, serial, tiled) in [
            ("baseline", serial, tiled),
            ("improved", serial_inc, tiled_inc),
        ] {
            assert_eq!(tiled.permutations, serial.permutations, "{what}");
            assert_eq!(bits(&tiled.values), bits(&serial.values), "{what}");
            assert!(!serial.snapshots.is_empty(), "{what}: no snapshot taken");
            assert_eq!(tiled.snapshots.len(), serial.snapshots.len(), "{what}");
            for ((ta, va), (tb, vb)) in serial.snapshots.iter().zip(&tiled.snapshots) {
                assert_eq!(ta, tb, "{what}");
                assert_eq!(bits(va), bits(vb), "{what}: snapshot t={ta}");
            }
        }
    }

    #[test]
    fn heuristic_stops_early() {
        let (train, test) = small_class(6, 10);
        let mut inc = IncKnnUtility::classification(&train, &test, 2, WeightFn::Uniform);
        let res = mc_shapley_improved(
            &mut inc,
            StoppingRule::Heuristic {
                threshold: 1e-3,
                max: 100_000,
            },
            3,
            None,
        );
        assert!(res.permutations < 100_000, "never stopped");
        assert!(res.permutations >= 2);
    }

    #[test]
    fn snapshots_are_recorded() {
        let (train, test) = small_class(7, 8);
        let u = KnnClassUtility::unweighted(&train, &test, 1);
        let res = mc_shapley_baseline(&u, StoppingRule::Fixed(50), 1, Some(10));
        assert_eq!(res.snapshots.len(), 5);
        assert_eq!(res.snapshots[0].0, 10);
        assert_eq!(res.snapshots.last().unwrap().0, 50);
        // last snapshot equals final values
        assert!(res.snapshots.last().unwrap().1.max_abs_diff(&res.values) < 1e-12);
    }

    #[test]
    fn permutations_until_error_reaches_target() {
        let (train, test) = small_class(8, 10);
        let exact = knn_class_shapley_with_threads(&train, &test, 2, 1);
        let mut inc = IncKnnUtility::classification(&train, &test, 2, WeightFn::Uniform);
        let t = permutations_until_error(&mut inc, &exact, 0.1, 50_000, 3);
        assert!(t.is_some());
        let loose = permutations_until_error(&mut inc, &exact, 0.5, 50_000, 3).unwrap();
        assert!(loose <= t.unwrap());
    }

    #[test]
    fn stopping_rule_budgets() {
        let r = StoppingRule::Hoeffding {
            eps: 0.1,
            delta: 0.1,
            range: 1.0,
        };
        assert_eq!(
            r.budget(100),
            crate::bounds::hoeffding_permutations(100, 0.1, 0.1, 1.0)
        );
        assert_eq!(StoppingRule::Fixed(7).budget(10), 7);
        assert_eq!(
            StoppingRule::Heuristic {
                threshold: 0.1,
                max: 42
            }
            .budget(10),
            42
        );
    }
}
