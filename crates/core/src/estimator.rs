//! One estimator seam: every shardable valuation family behind four
//! operations — [`identity`](Estimator::identity),
//! [`items`](Estimator::items), [`compute`](Estimator::compute) and
//! [`run`](Estimator::run).
//!
//! Each family rests on the same fact of the paper: the multi-test value is
//! the *mean of independent per-item games* — per test point for the exact
//! and truncated decompositions (utility eq. 8, Algorithm 1 lines 8–10), per
//! permutation for Monte Carlo (§2.2, Algorithm 2), per coalition test for
//! group testing. An [`Estimator`] binds the datasets, `K`, the weight
//! function, the [`Family`] (with its fixed item budget) and an optional
//! precomputed [`KnnGraph`], validates them once, and from then on:
//!
//! * [`identity`](Estimator::identity) is the `(kind, fingerprint)` every
//!   `KNNSHARD` header carries — computed once per estimator;
//! * [`items`](Estimator::items) is the size of the item space (test points,
//!   permutations or coalition tests);
//! * [`compute`](Estimator::compute) folds one canonical
//!   [`ShardSpec`] range of items into a [`ShardPartial`];
//! * [`run`](Estimator::run) folds every item and finalizes, without hashing
//!   a dataset or encoding a partial.
//!
//! Brute-force and graph-backed runs share one fold per family: only the
//! source of each test point's ranking differs (a fresh argsort, or the
//! graph's stored list — which is bitwise the same ranking). Partials of one
//! job therefore carry the same identity and inter-merge freely, whichever
//! way each shard ranked.
//!
//! ### Determinism contract
//!
//! Merging the partials of any full shard set with [`merge_partials`]
//! reproduces [`run`](Estimator::run) bit for bit, at every shard and thread
//! count (see [`crate::sharding`]).
//!
//! ```
//! use knnshap_core::estimator::{Data, Estimator, Family};
//! use knnshap_core::sharding::{merge_partials, ShardSpec};
//! use knnshap_datasets::synth::regression::{self, RegressionConfig};
//! use knnshap_knn::weights::WeightFn;
//!
//! let cfg = RegressionConfig { n: 30, ..Default::default() };
//! let (train, test) = (regression::generate(&cfg), regression::queries(&cfg, 5));
//! let est = Estimator::new(Data::reg(&train, &test), 2, WeightFn::Uniform, Family::Exact, None)
//!     .unwrap();
//! let parts: Vec<_> = (0..2).map(|i| est.compute(ShardSpec::new(i, 2), 1)).collect();
//! let merged = merge_partials(&parts).unwrap();
//! let whole = est.run(4);
//! assert_eq!(merged.items, 5);
//! for i in 0..train.len() {
//!     assert_eq!(merged.values.get(i).to_bits(), whole.values.get(i).to_bits());
//! }
//! ```
//!
//! [`merge_partials`]: crate::sharding::merge_partials

use crate::mc::IncKnnUtility;
use crate::pipeline::PipelineError;
use crate::sharding::{
    finalize, hash_class_dataset, hash_reg_dataset, stream_fingerprint, weight_code, Fingerprint,
    MergedValuation, ShardKind, ShardPartial, ShardSpec,
};
use crate::utility::{DistMatrix, KnnClassUtility, KnnRegUtility, Utility};
use knnshap_datasets::{ClassDataset, Features, RegDataset};
use knnshap_knn::block::TileRows;
use knnshap_knn::distance::Metric;
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::neighbors::{partial_k_nearest, Neighbor, Ranker};
use knnshap_knn::weights::WeightFn;
use knnshap_numerics::exact::{ExactSum, ExactVec};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;

/// The prediction task a pair of datasets holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Classification (features…, integer label).
    Class,
    /// Regression (features…, float target).
    Reg,
}

impl Task {
    /// The task's name in the CLI (`--task`) and in job plans.
    pub fn name(self) -> &'static str {
        match self {
            Task::Class => "class",
            Task::Reg => "reg",
        }
    }

    /// The task [`name`](Self::name) names.
    pub fn parse(name: &str) -> Result<Task, String> {
        by_name("task", name, [Task::Class, Task::Reg], Task::name)
    }
}

/// The entry of `table` whose name is `name`, or an error naming every
/// entry of the table of `what`s.
fn by_name<T: Copy, const N: usize>(
    what: &str,
    name: &str,
    table: [T; N],
    name_of: fn(T) -> &'static str,
) -> Result<T, String> {
    table
        .into_iter()
        .find(|&t| name_of(t) == name)
        .ok_or_else(|| {
            let known: Vec<_> = table.into_iter().map(name_of).collect();
            format!("unknown {what} '{name}' ({})", known.join(", "))
        })
}

/// The datasets an estimator values, typed by task — borrowed
/// ([`Data::class`], [`Data::reg`]) or owned (a job that loaded them).
#[derive(Debug, Clone)]
pub enum Data<'a> {
    Class {
        train: Cow<'a, ClassDataset>,
        test: Cow<'a, ClassDataset>,
    },
    Reg {
        train: Cow<'a, RegDataset>,
        test: Cow<'a, RegDataset>,
    },
}

impl<'a> Data<'a> {
    /// Borrowed classification data.
    pub fn class(train: &'a ClassDataset, test: &'a ClassDataset) -> Self {
        Data::Class {
            train: Cow::Borrowed(train),
            test: Cow::Borrowed(test),
        }
    }

    /// Borrowed regression data.
    pub fn reg(train: &'a RegDataset, test: &'a RegDataset) -> Self {
        Data::Reg {
            train: Cow::Borrowed(train),
            test: Cow::Borrowed(test),
        }
    }

    /// The same datasets, borrowed from `self` (never a copy of owned
    /// ones).
    pub fn reborrow(&self) -> Data<'_> {
        match self {
            Data::Class { train, test } => Data::class(train, test),
            Data::Reg { train, test } => Data::reg(train, test),
        }
    }

    /// The task the datasets hold.
    pub fn task(&self) -> Task {
        match self {
            Data::Class { .. } => Task::Class,
            Data::Reg { .. } => Task::Reg,
        }
    }

    pub(crate) fn features(&self) -> (&Features, &Features) {
        match self {
            Data::Class { train, test } => (&train.x, &test.x),
            Data::Reg { train, test } => (&train.x, &test.x),
        }
    }

    /// Content hashes of the train and test sets, labels or targets
    /// included.
    fn hashes(&self) -> (u64, u64) {
        match self {
            Data::Class { train, test } => (hash_class_dataset(train), hash_class_dataset(test)),
            Data::Reg { train, test } => (hash_reg_dataset(train), hash_reg_dataset(test)),
        }
    }
}

/// An estimator family together with its fixed item budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Theorem 1 (uniform classification), Theorem 6 (uniform regression)
    /// or Theorem 7 (weighted, either task): one item per test point.
    Exact,
    /// Theorem 2's (ε, 0)-approximation, uniform classification only.
    Truncated { eps: f64 },
    /// Baseline Monte Carlo (§2.2) over `perms` permutation streams.
    McBaseline { perms: usize, seed: u64 },
    /// Improved Monte Carlo (Algorithm 2) over `perms` permutation streams.
    McImproved { perms: usize, seed: u64 },
    /// The group-testing baseline over `tests` coalition-test streams.
    GroupTesting { tests: usize, seed: u64 },
}

impl Family {
    /// The family's name in the CLI (`--method`) and in job plans.
    pub fn name(self) -> &'static str {
        match self {
            Family::Exact => "exact",
            Family::Truncated { .. } => "truncated",
            Family::McBaseline { .. } => "mc-baseline",
            Family::McImproved { .. } => "mc-improved",
            Family::GroupTesting { .. } => "group-testing",
        }
    }

    /// The family named `name`, taking from `eps`, `perms` (the stream
    /// budget) and `seed` the parameters it has and ignoring the others.
    pub fn parse(name: &str, eps: f64, perms: usize, seed: u64) -> Result<Family, String> {
        let table = [
            Family::Exact,
            Family::Truncated { eps },
            Family::McBaseline { perms, seed },
            Family::McImproved { perms, seed },
            Family::GroupTesting { tests: perms, seed },
        ];
        by_name("method", name, table, Family::name)
    }

    /// `(eps, perms, seed)` as [`parse`](Self::parse) reads them: `0` for
    /// a parameter the family does not have.
    pub fn params(self) -> (f64, usize, u64) {
        match self {
            Family::Exact => (0.0, 0, 0),
            Family::Truncated { eps } => (eps, 0, 0),
            Family::McBaseline { perms, seed } | Family::McImproved { perms, seed } => {
                (0.0, perms, seed)
            }
            Family::GroupTesting { tests, seed } => (0.0, tests, seed),
        }
    }

    /// The rules on `K`, ε, the task and the weight that hold before any
    /// dataset is read: `K ≥ 1`, and truncation is uniform classification
    /// only, at a finite ε > 0.
    pub fn check(self, task: Task, k: usize, weight: WeightFn) -> Result<(), PipelineError> {
        check_k(k)?;
        if let Family::Truncated { eps } = self {
            check_eps(eps)?;
            if task == Task::Reg {
                return Err(PipelineError::TaskUnsupported("Truncated"));
            }
            if !matches!(weight, WeightFn::Uniform) {
                return Err(PipelineError::WeightedUnsupported("Truncated"));
            }
        }
        Ok(())
    }
}

/// A validated valuation job: datasets, `K`, weights, family and an
/// optional graph, bound once (see the [module docs](self)).
///
/// Sharding a truncated job and merging the partials reproduces the
/// whole-set value bit for bit:
///
/// ```
/// use knnshap_core::estimator::{Data, Estimator, Family};
/// use knnshap_core::sharding::{merge_partials, ShardSpec};
/// use knnshap_core::truncated::truncated_class_shapley;
/// use knnshap_datasets::synth::blobs::{self, BlobConfig};
/// use knnshap_knn::weights::WeightFn;
///
/// let cfg = BlobConfig { n: 60, dim: 4, n_classes: 3, ..Default::default() };
/// let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 8, 2));
/// let family = Family::Truncated { eps: 0.2 };
/// let est = Estimator::new(Data::class(&train, &test), 2, WeightFn::Uniform, family, None)
///     .unwrap();
/// let parts: Vec<_> = (0..3).map(|i| est.compute(ShardSpec::new(i, 3), 1)).collect();
/// let merged = merge_partials(&parts).unwrap().values;
/// let whole = truncated_class_shapley(&train, &test, 2, 0.2);
/// assert!(merged.as_slice().iter().zip(whole.as_slice()).all(|(a, b)| a == b));
/// ```
pub struct Estimator<'a> {
    data: Data<'a>,
    k: usize,
    weight: WeightFn,
    family: Family,
    graph: Option<Cow<'a, KnnGraph>>,
    identity: OnceLock<(ShardKind, u64)>,
    /// The baseline-MC / group-testing game, built on first use.
    utility: OnceLock<Box<dyn Utility + Send>>,
    /// The improved-MC game, built on first use.
    inc: OnceLock<IncKnnUtility>,
}

impl<'a> Estimator<'a> {
    /// Bind and validate a job. Fails with a typed [`PipelineError`] on
    /// `k == 0`, an empty train or test set, a dimension mismatch, a
    /// NaN/infinite feature, a graph built from other data, a weighted
    /// truncated job, truncation on a regression task or at an ε that is not
    /// finite and positive, and group testing over fewer than two training
    /// points.
    pub fn new(
        data: Data<'a>,
        k: usize,
        weight: WeightFn,
        family: Family,
        graph: Option<&'a KnnGraph>,
    ) -> Result<Self, PipelineError> {
        let (train_x, test_x) = data.features();
        check_data(train_x, test_x, k, graph)?;
        family.check(data.task(), k, weight)?;
        if matches!(family, Family::GroupTesting { .. }) && train_x.len() < 2 {
            return Err(PipelineError::TooFewTrainPoints {
                method: "group testing",
                min: 2,
            });
        }
        Ok(Self {
            data,
            k,
            weight,
            family,
            graph: graph.map(Cow::Borrowed),
            identity: OnceLock::new(),
            utility: OnceLock::new(),
            inc: OnceLock::new(),
        })
    }

    /// Attach an owned precomputed graph after construction, validated as
    /// [`new`](Self::new) validates one. The identity is unchanged (a graph
    /// stores the same rankings a distance pass computes).
    pub fn attach_graph(&mut self, graph: KnnGraph) -> Result<(), PipelineError> {
        let (train_x, test_x) = self.data.features();
        check_graph(&graph, train_x, test_x)?;
        self.graph = Some(Cow::Owned(graph));
        self.utility = OnceLock::new();
        self.inc = OnceLock::new();
        Ok(())
    }

    /// The bound datasets.
    pub fn data(&self) -> &Data<'a> {
        &self.data
    }

    /// Training points (the length of every value vector).
    pub fn n_train(&self) -> usize {
        self.data.features().0.len()
    }

    /// The item space: test points for the exact and truncated families,
    /// the stream budget for Monte Carlo and group testing.
    pub fn items(&self) -> usize {
        match self.family {
            Family::Exact | Family::Truncated { .. } => self.data.features().1.len(),
            streams => streams.params().1,
        }
    }

    /// Whether the items are permutation streams (what reports count as
    /// "permutations consumed").
    pub fn is_monte_carlo(&self) -> bool {
        matches!(
            self.family,
            Family::McBaseline { .. } | Family::McImproved { .. }
        )
    }

    /// The `(kind, fingerprint)` every partial of this job carries: a hash
    /// of the dataset contents and every parameter that changes a per-item
    /// contribution. Computed on first use, then cached.
    pub fn identity(&self) -> (ShardKind, u64) {
        *self
            .identity
            .get_or_init(|| (self.kind(), self.fingerprint()))
    }

    /// The partial sums of one canonical shard of the item space.
    pub fn compute(&self, spec: ShardSpec, threads: usize) -> ShardPartial {
        let (kind, fingerprint) = self.identity();
        let total = self.items();
        let range = spec.range(total);
        let (sums, shared) = self.fold(range.clone(), threads);
        let partial = ShardPartial::new(kind, fingerprint, self.n_train(), total, range, sums);
        match shared {
            Some((grand, shared)) => partial.with_shared(grand, &shared),
            None => partial,
        }
    }

    /// The whole job: fold every item, then finalize — bitwise what merging
    /// any full shard set of [`compute`](Self::compute) returns.
    pub fn run(&self, threads: usize) -> MergedValuation {
        let total = self.items();
        let (sums, shared) = self.fold(0..total, threads);
        let shared = shared.map(|(grand, s)| (grand, s.value()));
        MergedValuation {
            values: finalize(&sums, total as u64, shared, threads),
            items: total as u64,
        }
    }

    fn kind(&self) -> ShardKind {
        match (&self.data, self.family) {
            (Data::Class { .. }, Family::Exact) => ShardKind::ExactClass,
            (Data::Reg { .. }, Family::Exact) => ShardKind::ExactReg,
            (_, Family::Truncated { .. }) => ShardKind::Truncated,
            (_, Family::McBaseline { .. }) => ShardKind::McBaseline,
            (_, Family::McImproved { .. }) => ShardKind::McImproved,
            (_, Family::GroupTesting { .. }) => ShardKind::GroupTesting,
        }
    }

    /// The one derivation of a job's fingerprint.
    fn fingerprint(&self) -> u64 {
        let (k, weight) = (self.k as u64, self.weight);
        let (wtag, wparam) = weight_code(weight);
        // Every hash ends with the datasets' content hashes.
        let with_data = |fp: Fingerprint| {
            let (train, test) = self.data.hashes();
            fp.u64(train).u64(test).finish()
        };
        // The per-test families hash under their kind's name: `K`, then
        // what the family adds (a non-uniform weight, ε), then the datasets.
        // A uniform weight adds nothing: uniform headers predate weights in
        // the fingerprint and keep their bytes.
        let domain = self.kind().name();
        match self.family {
            Family::Exact => {
                let fp = Fingerprint::new(domain).u64(k);
                with_data(match weight {
                    WeightFn::Uniform => fp,
                    _ => fp.u64(wtag).f64(wparam),
                })
            }
            Family::Truncated { eps } => with_data(Fingerprint::new(domain).u64(k).f64(eps)),
            // The stream families hash the seed and the content of the game
            // they sample: the game's name, `K`, the weight, Algorithm 2's
            // task tag, then the datasets.
            streams => {
                let game = |name| Fingerprint::new(name).u64(k).u64(wtag).f64(wparam);
                let content = match (streams, self.data.task()) {
                    (Family::McImproved { .. }, Task::Class) => game("inc-knn-utility").u64(0),
                    (Family::McImproved { .. }, Task::Reg) => game("inc-knn-utility").u64(1),
                    (_, Task::Class) => game("knn-class-utility"),
                    (_, Task::Reg) => game("knn-reg-utility"),
                };
                stream_fingerprint(domain, streams.params().2, with_data(content))
            }
        }
    }

    /// Exact per-training-point sums over items `range`, plus group
    /// testing's `(ν(I), shared term)`.
    fn fold(&self, range: Range<usize>, threads: usize) -> (ExactVec, Option<(f64, ExactSum)>) {
        let k = self.k;
        let uniform = matches!(self.weight, WeightFn::Uniform);
        let ranks = ranks(&self.data, self.graph.as_deref());
        let sums = match (&self.data, self.family) {
            (Data::Class { train, test }, Family::Exact) if uniform => {
                per_test_sums(ranks, range, threads, None, |j, r, out| {
                    crate::exact_unweighted::fill_ranked(train, r, test.y[j], k, out)
                })
            }
            (Data::Reg { train, test }, Family::Exact) if uniform => {
                per_test_sums(ranks, range, threads, None, |j, r, out| {
                    crate::exact_regression::fill_ranked(train, r, test.y[j], k, out)
                })
            }
            (Data::Class { train, test }, Family::Exact) => {
                per_test_sums(ranks, range, threads, None, |j, r, out| {
                    crate::exact_weighted::fill_class_ranked(
                        train,
                        r,
                        test.y[j],
                        k,
                        self.weight,
                        out,
                    )
                })
            }
            (Data::Reg { train, test }, Family::Exact) => {
                per_test_sums(ranks, range, threads, None, |j, r, out| {
                    crate::exact_weighted::fill_reg_ranked(train, r, test.y[j], k, self.weight, out)
                })
            }
            (Data::Class { train, test }, Family::Truncated { eps }) => {
                let ks = crate::truncated::k_star(k, eps);
                per_test_sums(ranks, range, threads, Some(ks), |j, r, out| {
                    crate::truncated::fill_ranked(r, &train.y, test.y[j], k, ks, out)
                })
            }
            (Data::Reg { .. }, Family::Truncated { .. }) => unreachable!("rejected by new()"),
            (_, Family::McBaseline { seed, .. }) => {
                crate::mc::baseline_sums(self.utility(), seed, range, threads)
            }
            (_, Family::McImproved { seed, .. }) => {
                crate::mc::improved_sums(self.inc(), seed, range, threads)
            }
            (_, Family::GroupTesting { seed, .. }) => {
                let u = self.utility();
                let (point, shared) = crate::group_testing::gt_sums(u, seed, range, threads);
                return (point, Some((u.grand(), shared)));
            }
        };
        (sums, None)
    }

    /// The Monte Carlo distance matrix: rebuilt from the graph's lists when
    /// one is attached (bitwise the same entries), else a distance pass.
    fn dist_matrix(&self) -> DistMatrix {
        match &self.graph {
            Some(g) => DistMatrix::from_graph(g),
            None => {
                let (train, test) = self.data.features();
                DistMatrix::build(train, test)
            }
        }
    }

    /// The baseline-MC / group-testing game (also what the pipeline's
    /// round-based Monte Carlo drivers run on).
    pub(crate) fn utility(&self) -> &dyn Utility {
        let (k, weight) = (self.k, self.weight);
        self.utility
            .get_or_init(|| match &self.data {
                Data::Class { train, test } => Box::new(KnnClassUtility::over(
                    self.dist_matrix(),
                    train,
                    test,
                    k,
                    weight,
                )),
                Data::Reg { train, test } => Box::new(KnnRegUtility::over(
                    self.dist_matrix(),
                    train,
                    test,
                    k,
                    weight,
                )),
            })
            .as_ref()
    }

    /// The improved-MC game.
    pub(crate) fn inc(&self) -> &IncKnnUtility {
        let (k, weight) = (self.k, self.weight);
        self.inc.get_or_init(|| match &self.data {
            Data::Class { train, test } => {
                IncKnnUtility::class_over(self.dist_matrix(), train, test, k, weight)
            }
            Data::Reg { train, test } => {
                IncKnnUtility::reg_over(self.dist_matrix(), train, test, k, weight)
            }
        })
    }
}

/// The checks every valuation entry point runs before any work: `k ≥ 1`,
/// both sets non-empty, matching dimensions, finite features, and an
/// attached graph built from exactly these features.
pub(crate) fn check_data(
    train: &Features,
    test: &Features,
    k: usize,
    graph: Option<&KnnGraph>,
) -> Result<(), PipelineError> {
    check_k(k)?;
    if train.is_empty() {
        return Err(PipelineError::EmptyTrainSet);
    }
    if test.is_empty() {
        return Err(PipelineError::EmptyTestSet);
    }
    if train.dim() != test.dim() {
        return Err(PipelineError::DimensionMismatch);
    }
    if let Some(row) = train.first_non_finite_row() {
        return Err(PipelineError::NonFiniteFeature {
            which: "train",
            row,
        });
    }
    if let Some(row) = test.first_non_finite_row() {
        return Err(PipelineError::NonFiniteFeature { which: "test", row });
    }
    match graph {
        Some(g) => check_graph(g, train, test),
        None => Ok(()),
    }
}

/// ε must be finite and > 0: truncation keeps `max(K, ⌈1/ε⌉)` neighbors,
/// and the Monte Carlo heuristic stop scales its threshold with ε.
pub fn check_eps(eps: f64) -> Result<(), PipelineError> {
    if eps.is_finite() && eps > 0.0 {
        Ok(())
    } else {
        Err(PipelineError::BadEps(eps))
    }
}

/// `K ≥ 1`: a KNN utility needs at least one neighbor.
fn check_k(k: usize) -> Result<(), PipelineError> {
    if k == 0 {
        Err(PipelineError::ZeroK)
    } else {
        Ok(())
    }
}

fn check_graph(graph: &KnnGraph, train: &Features, test: &Features) -> Result<(), PipelineError> {
    graph
        .validate_against(train, test)
        .map_err(|e| PipelineError::GraphMismatch(e.to_string()))
}

/// Where each test point's ascending distance ranking comes from.
#[derive(Clone, Copy)]
enum Ranks<'a> {
    /// A fresh distance pass per test point.
    Brute {
        train: &'a Features,
        test: &'a Features,
    },
    /// The stored lists of a precomputed graph.
    Graph(&'a KnnGraph),
}

/// A graph's stored lists when one is attached, else a distance pass.
fn ranks<'a>(data: &'a Data<'_>, graph: Option<&'a KnnGraph>) -> Ranks<'a> {
    match graph {
        Some(g) => Ranks::Graph(g),
        None => {
            let (train, test) = data.features();
            Ranks::Brute { train, test }
        }
    }
}

/// Per-worker ranking buffers, reused across every test point the worker
/// claims.
struct RankScratch {
    ranker: Ranker,
    list: Vec<Neighbor>,
    /// The distance rows of the current query tile (this thread's buffer).
    rows: TileRows,
}

impl RankScratch {
    fn new() -> Self {
        Self {
            ranker: Ranker::new(),
            list: Vec::new(),
            rows: TileRows::new(),
        }
    }
}

impl Ranks<'_> {
    /// Test point `j`'s full ranking, or its first `m` ranks when `prefix`
    /// is `Some(m)`. A full brute-force ranking ranks `j`'s row of the
    /// query tile starting at `j` and stopping before `end` (the end of the
    /// fold unit holding `j`) — computed on the tile's first query by the
    /// query-lane kernel, bit for bit the per-pair distances. A graph
    /// list is exactly the argsort a distance pass computes, and its
    /// `[..m]` prefix exactly what [`partial_k_nearest`] retrieves, so both
    /// sources feed the families identical bits.
    fn rank<'s>(
        &'s self,
        j: usize,
        end: usize,
        prefix: Option<usize>,
        st: &'s mut RankScratch,
    ) -> &'s [Neighbor] {
        match (*self, prefix) {
            (Ranks::Brute { train, test }, None) => {
                let row = st.rows.row(train, test, j, end);
                st.ranker.rank(row, &mut st.list);
                &st.list
            }
            (Ranks::Brute { train, test }, Some(m)) => {
                st.list = partial_k_nearest(train, test.row(j), m, Metric::SquaredL2);
                &st.list
            }
            (Ranks::Graph(g), None) => g.list(j),
            (Ranks::Graph(g), Some(m)) => {
                let list = g.list(j);
                &list[..m.min(list.len())]
            }
        }
    }

    fn n_train(&self) -> usize {
        match self {
            Ranks::Brute { train, .. } => train.len(),
            Ranks::Graph(g) => g.n_train(),
        }
    }
}

/// The one fold of the per-test-point families: rank each test point of
/// `range` from `ranks`, let `fill(j, ranking, out)` write its per-test
/// values densely into the zeroed `out`, and accumulate exactly. The dense
/// deposit walks the accumulator linearly and deposits the same `f64`s a
/// per-contribution sink would, so the bits are the same.
fn per_test_sums<F>(
    ranks: Ranks<'_>,
    range: Range<usize>,
    threads: usize,
    prefix: Option<usize>,
    fill: F,
) -> ExactVec
where
    F: Fn(usize, &[Neighbor], &mut [f64]) + Sync,
{
    crate::sharding::exact_sums_over_dense(
        ranks.n_train(),
        range,
        threads,
        RankScratch::new,
        |j, unit, st, out| fill(j, ranks.rank(j, unit.end, prefix, st), out),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_their_tables() {
        for f in [
            Family::Exact,
            Family::Truncated { eps: 0.25 },
            Family::McBaseline { perms: 7, seed: 3 },
            Family::McImproved { perms: 7, seed: 3 },
            Family::GroupTesting { tests: 7, seed: 3 },
        ] {
            let (eps, perms, seed) = f.params();
            assert_eq!(Family::parse(f.name(), eps, perms, seed), Ok(f));
        }
        // A parameter the family does not have is ignored.
        assert_eq!(Family::parse("exact", 0.5, 9, 42), Ok(Family::Exact));
        assert_eq!(
            Family::parse("truncated", 0.5, 9, 42),
            Ok(Family::Truncated { eps: 0.5 })
        );
        assert_eq!(
            Family::parse("lsh", 0.1, 0, 42).unwrap_err(),
            "unknown method 'lsh' (exact, truncated, mc-baseline, mc-improved, group-testing)"
        );
        for t in [Task::Class, Task::Reg] {
            assert_eq!(Task::parse(t.name()), Ok(t));
        }
        assert_eq!(
            Task::parse("graph").unwrap_err(),
            "unknown task 'graph' (class, reg)"
        );
    }

    #[test]
    fn family_check_holds_the_k_and_truncation_rules() {
        let (uniform, inverse) = (WeightFn::Uniform, WeightFn::InverseDistance { eps: 1e-3 });
        let truncated = Family::Truncated { eps: 0.1 };
        let zero_k = Err(PipelineError::ZeroK);
        assert_eq!(Family::Exact.check(Task::Class, 0, uniform), zero_k);
        assert_eq!(truncated.check(Task::Reg, 0, inverse), zero_k, "K first");
        assert_eq!(
            truncated.check(Task::Reg, 2, inverse),
            Err(PipelineError::TaskUnsupported("Truncated"))
        );
        assert_eq!(
            truncated.check(Task::Class, 2, inverse),
            Err(PipelineError::WeightedUnsupported("Truncated"))
        );
        assert_eq!(truncated.check(Task::Class, 2, uniform), Ok(()));
        for eps in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            let bad = Family::Truncated { eps }.check(Task::Class, 2, uniform);
            assert!(matches!(bad, Err(PipelineError::BadEps(e)) if e.to_bits() == eps.to_bits()));
        }
        for f in [
            Family::Exact,
            Family::McBaseline { perms: 0, seed: 1 },
            Family::McImproved { perms: 0, seed: 1 },
            Family::GroupTesting { tests: 0, seed: 1 },
        ] {
            assert_eq!(f.check(Task::Reg, 1, inverse), Ok(()), "{}", f.name());
        }
    }

    #[test]
    fn stream_identities_change_with_seed_k_data_and_family() {
        let train = ClassDataset::new(
            Features::new(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 1),
            vec![0, 1, 0, 1, 0, 1],
            2,
        );
        let test = ClassDataset::new(Features::new(vec![0.2, 3.6], 1), vec![0, 1], 2);
        let mut moved = train.clone();
        moved.x = Features::new(vec![0.0, 1.0, 2.0, 3.5, 4.0, 5.0], 1);
        let id = |train: &ClassDataset, k: usize, family: Family| {
            let data = Data::class(train, &test);
            Estimator::new(data, k, WeightFn::Uniform, family, None)
                .unwrap()
                .identity()
                .1
        };
        for stream in [
            |seed| Family::McBaseline { perms: 4, seed },
            |seed| Family::McImproved { perms: 4, seed },
            |seed| Family::GroupTesting { tests: 4, seed },
        ] {
            let base = id(&train, 2, stream(7));
            let name = stream(7).name();
            assert_eq!(base, id(&train, 2, stream(7)), "{name}: stable");
            assert_ne!(base, id(&train, 2, stream(8)), "{name}: seed");
            assert_ne!(base, id(&train, 3, stream(7)), "{name}: K");
            assert_ne!(base, id(&moved, 2, stream(7)), "{name}: one row");
        }
        assert_ne!(
            id(&train, 2, Family::McBaseline { perms: 4, seed: 7 }),
            id(&train, 2, Family::McImproved { perms: 4, seed: 7 }),
            "baseline and improved never merge"
        );
    }
}
