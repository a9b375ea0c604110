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
use crate::types::ShapleyValues;
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

    fn features(&self) -> (&Features, &Features) {
        match self {
            Data::Class { train, test } => (&train.x, &test.x),
            Data::Reg { train, test } => (&train.x, &test.x),
        }
    }
}

/// An estimator family together with its fixed item budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Theorem 1 (uniform classification), Theorem 7 (weighted
    /// classification) or Theorem 6 (uniform regression): one item per test
    /// point.
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
    /// truncated job, weighted exact regression (which does not shard),
    /// truncation on a regression task and group testing over fewer than
    /// two training points.
    pub fn new(
        data: Data<'a>,
        k: usize,
        weight: WeightFn,
        family: Family,
        graph: Option<&'a KnnGraph>,
    ) -> Result<Self, PipelineError> {
        let (train_x, test_x) = data.features();
        check_data(train_x, test_x, k, graph)?;
        if matches!(family, Family::GroupTesting { .. }) && train_x.len() < 2 {
            return Err(PipelineError::TooFewTrainPoints {
                method: "group testing",
                min: 2,
            });
        }
        let uniform = matches!(weight, WeightFn::Uniform);
        match (&data, family) {
            (Data::Reg { .. }, Family::Truncated { .. }) => {
                return Err(PipelineError::TaskUnsupported("Truncated"))
            }
            (_, Family::Truncated { .. }) if !uniform => {
                return Err(PipelineError::WeightedUnsupported("Truncated"))
            }
            (Data::Reg { .. }, Family::Exact) if !uniform => {
                return Err(PipelineError::WeightedUnsupported(
                    "sharded exact regression",
                ))
            }
            _ => {}
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

    /// Training points (the length of every value vector).
    pub fn n_train(&self) -> usize {
        self.data.features().0.len()
    }

    /// The item space: test points for the exact and truncated families,
    /// the stream budget for Monte Carlo and group testing.
    pub fn items(&self) -> usize {
        match self.family {
            Family::Exact | Family::Truncated { .. } => self.data.features().1.len(),
            Family::McBaseline { perms, .. } | Family::McImproved { perms, .. } => perms,
            Family::GroupTesting { tests, .. } => tests,
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
            values: finalize(&sums, total as u64, shared),
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

    fn fingerprint(&self) -> u64 {
        let (k, weight) = (self.k, self.weight);
        // The stream families hash the content of the game they sample.
        let stream = |domain: &str, seed: u64| {
            let content = match (&self.data, self.family) {
                (Data::Class { train, test }, Family::McImproved { .. }) => {
                    IncKnnUtility::class_content_fingerprint(train, test, k, weight)
                }
                (Data::Reg { train, test }, Family::McImproved { .. }) => {
                    IncKnnUtility::reg_content_fingerprint(train, test, k, weight)
                }
                (Data::Class { train, test }, _) => {
                    KnnClassUtility::content_fingerprint(train, test, k, weight)
                }
                (Data::Reg { train, test }, _) => {
                    KnnRegUtility::content_fingerprint(train, test, k, weight)
                }
            };
            stream_fingerprint(domain, seed, content)
        };
        match (&self.data, self.family) {
            (Data::Class { train, test }, Family::Exact) => {
                let fp = Fingerprint::new("exact-class").u64(k as u64);
                let fp = match weight {
                    WeightFn::Uniform => fp,
                    _ => {
                        let (wtag, wparam) = weight_code(weight);
                        fp.u64(wtag).f64(wparam)
                    }
                };
                fp.u64(hash_class_dataset(train))
                    .u64(hash_class_dataset(test))
                    .finish()
            }
            (Data::Reg { train, test }, Family::Exact) => Fingerprint::new("exact-reg")
                .u64(k as u64)
                .u64(hash_reg_dataset(train))
                .u64(hash_reg_dataset(test))
                .finish(),
            (Data::Class { train, test }, Family::Truncated { eps }) => {
                Fingerprint::new("truncated")
                    .u64(k as u64)
                    .f64(eps)
                    .u64(hash_class_dataset(train))
                    .u64(hash_class_dataset(test))
                    .finish()
            }
            (Data::Reg { .. }, Family::Truncated { .. }) => unreachable!("rejected by new()"),
            (_, Family::McBaseline { seed, .. }) => stream("mc-baseline", seed),
            (_, Family::McImproved { seed, .. }) => stream("mc-improved", seed),
            (_, Family::GroupTesting { seed, .. }) => stream("group-testing", seed),
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
            (data, Family::Exact) => weighted_sums(data, ranks, range, threads, k, self.weight),
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
    if k == 0 {
        return Err(PipelineError::ZeroK);
    }
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

/// Theorem 7's per-test sums for either task, under any weight function.
fn weighted_sums(
    data: &Data<'_>,
    ranks: Ranks<'_>,
    range: Range<usize>,
    threads: usize,
    k: usize,
    weight: WeightFn,
) -> ExactVec {
    match data {
        Data::Class { train, test } => per_test_sums(ranks, range, threads, None, |j, r, out| {
            crate::exact_weighted::fill_class_ranked(train, r, test.y[j], k, weight, out)
        }),
        Data::Reg { train, test } => per_test_sums(ranks, range, threads, None, |j, r, out| {
            crate::exact_weighted::fill_reg_ranked(train, r, test.y[j], k, weight, out)
        }),
    }
}

/// Theorem 7 values averaged over the test set, for either task and under
/// any weight function, on the same fold as the seam's families. Weighted
/// regression runs here rather than through [`Estimator`]: it has no shard
/// identity, so it never shards.
pub(crate) fn weighted_values(
    data: &Data<'_>,
    k: usize,
    weight: WeightFn,
    graph: Option<&KnnGraph>,
    threads: usize,
) -> ShapleyValues {
    let n_test = data.features().1.len();
    let sums = weighted_sums(data, ranks(data, graph), 0..n_test, threads, k, weight);
    crate::sharding::finalize_mean(&sums, n_test as u64)
}
