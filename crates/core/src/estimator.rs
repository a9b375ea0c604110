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
    finalize, fold_dense_into, hash_class_dataset, hash_reg_dataset, stream_fingerprint,
    weight_code, Fingerprint, MergedValuation, Participants, ShardError, ShardKind, ShardPartial,
    ShardSpec,
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

    /// Content hash of the training set, labels or targets included.
    fn train_hash(&self) -> u64 {
        match self {
            Data::Class { train, .. } => hash_class_dataset(train),
            Data::Reg { train, .. } => hash_reg_dataset(train),
        }
    }

    /// Content hash of the test set, labels or targets included.
    fn test_hash(&self) -> u64 {
        match self {
            Data::Class { test, .. } => hash_class_dataset(test),
            Data::Reg { test, .. } => hash_reg_dataset(test),
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
    /// The training set's content hash, computed on first use or seeded by
    /// [`with_train_hash`](Self::with_train_hash).
    train_hash: OnceLock<u64>,
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
            train_hash: OnceLock::new(),
            utility: OnceLock::new(),
            inc: OnceLock::new(),
        })
    }

    /// The same job, with the training set's content hash (what
    /// [`train_hash`](Self::train_hash) returns) already known: a caller
    /// that recorded it when it first bound these rows saves hashing every
    /// feature again. The test set, `K`, the weight and the family still
    /// enter the [`identity`](Self::identity) as always. Debug builds
    /// re-derive the hash and check it.
    pub fn with_train_hash(self, hash: u64) -> Self {
        debug_assert_eq!(
            hash,
            self.data.train_hash(),
            "a seeded training hash must be the training set's"
        );
        // A fresh estimator has no hash yet, so the seed always lands.
        let _ = self.train_hash.set(hash);
        self
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

    /// The bound datasets, without the estimator.
    pub fn into_data(self) -> Data<'a> {
        self.data
    }

    /// The training set's content hash (`hash_class_dataset` or
    /// `hash_reg_dataset`), which the [`identity`](Self::identity) ends
    /// with. Computed on first use, then cached.
    pub fn train_hash(&self) -> u64 {
        *self.train_hash.get_or_init(|| self.data.train_hash())
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

    /// The partial sums of one canonical shard of the item space: its
    /// [`shard_fold`](Self::shard_fold) extended over the whole shard at
    /// once.
    pub fn compute(&self, spec: ShardSpec, threads: usize) -> ShardPartial {
        let range = spec.range(self.items());
        let mut fold = self.shard_fold(range.clone(), None).expect("a fresh fold");
        fold.extend(range, threads).expect("the shard's own range");
        fold.into_partial()
    }

    /// Start folding the shard of items `range` a chunk at a time
    /// ([`ShardFold::extend`]): from the shard's start, or on from `from`,
    /// a partial of this job covering a prefix of the shard (a
    /// checkpoint). Fails with [`ShardError::Incompatible`] when `from`
    /// belongs to another job, and with [`ShardError::Coverage`] when it
    /// does not start at the shard's start or runs past its end.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not inside the item space.
    pub fn shard_fold(
        &self,
        range: Range<usize>,
        from: Option<ShardPartial>,
    ) -> Result<ShardFold<'_, 'a>, ShardError> {
        assert!(
            range.start <= range.end && range.end <= self.items(),
            "shard {range:?} outside the item space 0..{}",
            self.items()
        );
        let fresh = self.empty_partial(range.start);
        let partial = match from {
            None => fresh,
            Some(p) => {
                fresh.check_same_job(&p)?;
                let (lo, hi) = (p.meta.item_lo, p.meta.item_hi);
                if lo != range.start as u64 || hi > range.end as u64 {
                    return Err(ShardError::Coverage(format!(
                        "items {lo}..{hi} are not a prefix of the shard {}..{}",
                        range.start, range.end
                    )));
                }
                p
            }
        };
        Ok(ShardFold {
            estimator: self,
            end: range.end,
            partial,
            participants: Participants::new(range.end),
        })
    }

    /// The whole job: fold every item, then finalize — bitwise what merging
    /// any full shard set of [`compute`](Self::compute) returns.
    pub fn run(&self, threads: usize) -> MergedValuation {
        let total = self.items();
        let (mut sums, mut shared) = (ExactVec::zeros(self.n_train()), self.aux());
        self.fold_into(&mut sums, &mut shared, 0..total, threads, None);
        let group_testing = (!shared.is_empty()).then(|| (self.utility().grand(), shared.value(0)));
        MergedValuation {
            values: finalize(&sums, total as u64, group_testing, threads),
            items: total as u64,
        }
    }

    /// This job's partial over no items, starting at item `at`.
    fn empty_partial(&self, at: usize) -> ShardPartial {
        let (kind, fingerprint) = self.identity();
        let range = at..at;
        let sums = ExactVec::zeros(self.n_train());
        let partial =
            ShardPartial::new(kind, fingerprint, self.n_train(), self.items(), range, sums);
        match self.family {
            Family::GroupTesting { .. } => partial.with_shared(self.utility().grand()),
            _ => partial,
        }
    }

    /// The family's aux accumulators, zeroed: group testing's shared term,
    /// or none.
    fn aux(&self) -> ExactVec {
        ExactVec::zeros(matches!(self.family, Family::GroupTesting { .. }) as usize)
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
            fp.u64(self.train_hash())
                .u64(self.data.test_hash())
                .finish()
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

    /// Fold items `range` into the exact per-training-point sums `sums`,
    /// and group testing's shared term into `shared`, its one aux entry.
    /// With `kept`, the per-test families take their ranking buffers and
    /// dense scratch from it and put them back (see
    /// [`fold_dense_into`]).
    fn fold_into(
        &self,
        sums: &mut ExactVec,
        shared: &mut ExactVec,
        range: Range<usize>,
        threads: usize,
        kept: Option<&Participants<RankScratch>>,
    ) {
        let k = self.k;
        let uniform = matches!(self.weight, WeightFn::Uniform);
        let ranks = ranks(&self.data, self.graph.as_deref());
        // The one fold of the per-test-point families: rank each test point
        // of `range`, let `fill(j, ranking, out)` write its per-test values
        // densely into the zeroed `out`, and accumulate exactly.
        let per_test =
            |prefix,
             sums: &mut ExactVec,
             fill: &(dyn Fn(usize, &[Neighbor], &mut [f64]) + Sync)| {
                fold_dense_into(
                    sums,
                    range.clone(),
                    threads,
                    kept,
                    RankScratch::new,
                    |j, window, st, out| fill(j, ranks.rank(j, window.end, prefix, st), out),
                )
            };
        match (&self.data, self.family) {
            (Data::Class { train, test }, Family::Exact) if uniform => {
                per_test(None, sums, &|j, r, out| {
                    crate::exact_unweighted::fill_ranked(train, r, test.y[j], k, out)
                })
            }
            (Data::Reg { train, test }, Family::Exact) if uniform => {
                per_test(None, sums, &|j, r, out| {
                    crate::exact_regression::fill_ranked(train, r, test.y[j], k, out)
                })
            }
            (Data::Class { train, test }, Family::Exact) => per_test(None, sums, &|j, r, out| {
                crate::exact_weighted::fill_class_ranked(train, r, test.y[j], k, self.weight, out)
            }),
            (Data::Reg { train, test }, Family::Exact) => per_test(None, sums, &|j, r, out| {
                crate::exact_weighted::fill_reg_ranked(train, r, test.y[j], k, self.weight, out)
            }),
            (Data::Class { train, test }, Family::Truncated { eps }) => {
                let ks = crate::truncated::k_star(k, eps);
                per_test(Some(ks), sums, &|j, r, out| {
                    crate::truncated::fill_ranked(r, &train.y, test.y[j], k, ks, out)
                })
            }
            (Data::Reg { .. }, Family::Truncated { .. }) => unreachable!("rejected by new()"),
            (_, Family::McBaseline { seed, .. }) => {
                crate::mc::baseline_sums(self.utility(), seed, range, threads, sums)
            }
            (_, Family::McImproved { seed, .. }) => {
                crate::mc::improved_sums(self.inc(), seed, range, threads, sums)
            }
            (_, Family::GroupTesting { seed, .. }) => {
                let mut acc = (std::mem::replace(sums, ExactVec::zeros(0)), ExactSum::new());
                crate::group_testing::gt_sums(self.utility(), seed, range, threads, &mut acc);
                *sums = acc.0;
                shared.merge_scalar(0, &acc.1);
            }
        }
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

/// One shard of an [`Estimator`]'s item space, folded a chunk at a time —
/// what a checkpointing job worker runs: [`extend`](Self::extend) folds the
/// next chunk into one running partial, which is at every step the partial
/// of the prefix covered so far, byte for byte what
/// [`Estimator::compute`] returns for that range.
///
/// Its chunks share one fold state: the running accumulator (also when the
/// fold continues a checkpoint), and, for the per-test families, each
/// participant's ranking buffers and dense scratch, so a chunk allocates,
/// zeroes and merges no per-training-point state of its own. At one
/// thread a query tile may also reach past the chunk into the rest of the
/// shard: the distance rows a tile computes for the next chunk's test
/// points are the ones that chunk reads.
///
/// ```
/// use knnshap_core::estimator::{Data, Estimator, Family};
/// use knnshap_core::sharding::{ShardPartial, ShardSpec};
/// use knnshap_datasets::synth::blobs::{self, BlobConfig};
/// use knnshap_knn::weights::WeightFn;
///
/// let cfg = BlobConfig { n: 40, dim: 3, n_classes: 2, ..Default::default() };
/// let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 9, 2));
/// let est = Estimator::new(Data::class(&train, &test), 2, WeightFn::Uniform, Family::Exact, None)
///     .unwrap();
/// let mut fold = est.shard_fold(0..9, None).unwrap();
/// fold.extend(0..4, 1).unwrap();
/// // A checkpoint of the prefix, continued by another fold.
/// let checkpoint = ShardPartial::from_bytes(&fold.partial().to_bytes()).unwrap();
/// let mut resumed = est.shard_fold(0..9, Some(checkpoint)).unwrap();
/// resumed.extend(4..9, 1).unwrap();
/// let whole = est.compute(ShardSpec::full(), 1);
/// assert_eq!(resumed.partial().to_bytes(), whole.to_bytes());
/// ```
pub struct ShardFold<'e, 'a> {
    estimator: &'e Estimator<'a>,
    /// The shard's end: a serial fold's query tiles may reach it.
    end: usize,
    /// The prefix covered so far.
    partial: ShardPartial,
    /// The per-test families' ranking buffers and dense scratch.
    participants: Participants<RankScratch>,
}

impl ShardFold<'_, '_> {
    /// Fold the items `items`, which must start where the covered prefix
    /// ends and stay inside the shard ([`ShardError::Coverage`] otherwise).
    /// An empty range is a no-op.
    pub fn extend(&mut self, items: Range<usize>, threads: usize) -> Result<(), ShardError> {
        let (lo, hi) = (self.partial.meta.item_lo, self.partial.meta.item_hi);
        if items.start as u64 != hi || items.end < items.start || items.end > self.end {
            return Err(ShardError::Coverage(format!(
                "items {}..{} do not extend {lo}..{hi} inside the shard's end {}",
                items.start, items.end, self.end
            )));
        }
        let p = &mut self.partial;
        let kept = Some(&self.participants);
        self.estimator
            .fold_into(&mut p.sums, &mut p.aux, items.clone(), threads, kept);
        p.meta.item_hi = items.end as u64;
        Ok(())
    }

    /// The partial of the prefix covered so far.
    pub fn partial(&self) -> &ShardPartial {
        &self.partial
    }

    /// The partial of the prefix covered so far, dropping the fold state.
    pub fn into_partial(self) -> ShardPartial {
        self.partial
    }

    /// The distance passes over the training set this fold has run: one per
    /// query tile its ranking buffers computed. A graph-backed or truncated
    /// fold runs none.
    pub fn distance_passes(&self) -> usize {
        self.participants.total(|st| st.rows.passes())
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

/// δ must lie in (0, 1): the LSH recipe sizes its tables for a failure
/// probability δ (§6.1).
pub fn check_delta(delta: f64) -> Result<(), PipelineError> {
    if delta > 0.0 && delta < 1.0 {
        Ok(())
    } else {
        Err(PipelineError::BadDelta(delta))
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
    /// query tile starting at `j` and stopping before `end` (the end of
    /// `j`'s fold window) — computed on the tile's first query by the
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

    fn blobs(queries: usize) -> (ClassDataset, ClassDataset) {
        use knnshap_datasets::synth::blobs::{self, BlobConfig};
        let cfg = BlobConfig {
            n: 50,
            dim: 4,
            n_classes: 2,
            cluster_std: 0.6,
            center_scale: 3.0,
            seed: 8,
        };
        (blobs::generate(&cfg), blobs::queries(&cfg, queries, 5))
    }

    /// Folding a shard chunk by chunk — empty chunks included, at 1, 2 and
    /// 8 threads, and continued from the bytes of every checkpoint —
    /// leaves the bytes one `compute` of the shard gives, in every branch
    /// of the fold.
    #[test]
    fn shard_fold_chunks_reproduce_single_range_bytes() {
        let (train, test) = blobs(11);
        for family in [
            Family::Exact,
            Family::Truncated { eps: 0.3 },
            Family::McBaseline { perms: 11, seed: 4 },
            Family::McImproved { perms: 11, seed: 4 },
            Family::GroupTesting { tests: 11, seed: 4 },
        ] {
            let data = Data::class(&train, &test);
            let est = Estimator::new(data, 2, WeightFn::Uniform, family, None).unwrap();
            let spec = ShardSpec::new(1, 2);
            let shard = spec.range(est.items());
            let want = est.compute(spec, 1).to_bytes();
            let cuts = [
                shard.start,
                shard.start,
                shard.start + 2,
                shard.start + 3,
                shard.end,
            ];
            for threads in [1usize, 2, 8] {
                let mut fold = est.shard_fold(shard.clone(), None).unwrap();
                let mut checkpoints = Vec::new();
                for w in cuts.windows(2) {
                    fold.extend(w[0]..w[1], threads).unwrap();
                    checkpoints.push(fold.partial().to_bytes());
                }
                let what = format!("{} at {threads} threads", family.name());
                assert_eq!(fold.partial().to_bytes(), want, "{what}");
                for (c, bytes) in checkpoints.iter().enumerate() {
                    let from = ShardPartial::from_bytes(bytes).unwrap();
                    let covered = from.meta.item_hi as usize;
                    let mut resumed = est.shard_fold(shard.clone(), Some(from)).unwrap();
                    resumed.extend(covered..shard.end, threads).unwrap();
                    assert_eq!(resumed.into_partial().to_bytes(), want, "{what}, from {c}");
                }
            }
        }
    }

    /// A fold continues only a prefix of its own shard of its own job, and
    /// extends only by the chunk that starts where its prefix ends and
    /// stays inside the shard.
    #[test]
    fn shard_fold_rejects_gaps_overlaps_and_mixed_jobs() {
        let (train, test) = blobs(11);
        let est = |k| {
            Estimator::new(
                Data::class(&train, &test),
                k,
                WeightFn::Uniform,
                Family::Exact,
                None,
            )
            .unwrap()
        };
        let (two, three) = (est(2), est(3));
        let coverage = |r: Result<(), ShardError>| matches!(r, Err(ShardError::Coverage(_)));
        let mut fold = two.shard_fold(0..6, None).unwrap();
        assert!(coverage(fold.extend(2..5, 1)), "a gap");
        fold.extend(0..4, 1).unwrap();
        assert!(coverage(fold.extend(2..6, 1)), "an overlap");
        assert!(coverage(fold.extend(4..7, 1)), "past the shard's end");
        #[allow(clippy::reversed_empty_ranges)]
        let backwards = 4..3;
        assert!(coverage(fold.extend(backwards, 1)), "a reversed range");
        fold.extend(4..4, 1).unwrap();
        assert_eq!(fold.partial().meta.item_hi, 4, "an empty chunk is a no-op");

        // Another job's partial (K differs ⇒ fingerprint differs).
        let other = three.compute(ShardSpec::new(0, 2), 1);
        let err = two.shard_fold(0..5, Some(other)).err().unwrap();
        assert!(matches!(err, ShardError::Incompatible(_)), "{err}");
        // This job's partials that are no prefix of the shard.
        let later = two.compute(ShardSpec::new(1, 2), 1);
        let err = two.shard_fold(0..5, Some(later)).err().unwrap();
        assert!(matches!(err, ShardError::Coverage(_)), "{err}");
        let longer = two.compute(ShardSpec::new(0, 1), 1);
        let err = two.shard_fold(0..5, Some(longer)).err().unwrap();
        assert!(matches!(err, ShardError::Coverage(_)), "{err}");
    }

    /// At one thread a shard's query tiles cross its chunk boundaries: 8
    /// test points in 4 chunks of 2 run 2 distance passes, where a fresh
    /// fold per chunk runs 4. At more threads a fold never runs more passes
    /// than fresh folds of its chunks do.
    #[test]
    fn a_serial_shard_fold_runs_one_distance_pass_per_tile() {
        let (train, test) = blobs(8);
        let data = Data::class(&train, &test);
        let est = Estimator::new(data, 2, WeightFn::Uniform, Family::Exact, None).unwrap();
        let chunks = [0..2, 2..4, 4..6, 6..8];
        let passes = |threads: usize, fresh: bool| {
            let mut total = 0;
            let mut fold = est.shard_fold(0..8, None).unwrap();
            for c in &chunks {
                if fresh {
                    let mut once = est.shard_fold(c.start..8, None).unwrap();
                    once.extend(c.clone(), threads).unwrap();
                    total += once.distance_passes();
                } else {
                    fold.extend(c.clone(), threads).unwrap();
                }
            }
            total + fold.distance_passes()
        };
        assert_eq!(passes(1, false), 2);
        assert_eq!(passes(1, true), 4);
        for threads in [2usize, 8] {
            let (kept, fresh) = (passes(threads, false), passes(threads, true));
            assert!(kept <= fresh, "{threads} threads: {kept} vs {fresh} passes");
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

    /// A seeded training hash is the one the data derives, and binds the
    /// identity the unseeded estimator derives, for every family and both
    /// tasks; the test set, `K` and the family still enter it.
    #[test]
    fn a_seeded_train_hash_binds_the_same_identity() {
        use knnshap_datasets::synth::regression::{self, RegressionConfig};
        let (train, test) = blobs(5);
        let cfg = RegressionConfig {
            n: 30,
            ..Default::default()
        };
        let (rtrain, rtest) = (regression::generate(&cfg), regression::queries(&cfg, 4));
        let (_, other_test) = blobs(6);
        let jobs = [
            (Data::class(&train, &test), Family::Exact),
            (Data::class(&train, &test), Family::Truncated { eps: 0.2 }),
            (
                Data::class(&train, &test),
                Family::McImproved { perms: 4, seed: 1 },
            ),
            (
                Data::class(&train, &test),
                Family::GroupTesting { tests: 4, seed: 1 },
            ),
            (Data::reg(&rtrain, &rtest), Family::Exact),
            (
                Data::reg(&rtrain, &rtest),
                Family::McBaseline { perms: 4, seed: 1 },
            ),
        ];
        fn bind(data: Data<'_>, k: usize, family: Family) -> Estimator<'_> {
            Estimator::new(data, k, WeightFn::Uniform, family, None).unwrap()
        }
        for (data, family) in jobs {
            let fresh = bind(data.reborrow(), 2, family);
            let hash = fresh.train_hash();
            let want = match &data {
                Data::Class { train, .. } => hash_class_dataset(train),
                Data::Reg { train, .. } => hash_reg_dataset(train),
            };
            assert_eq!(hash, want, "{}", family.name());
            let seeded = bind(data.reborrow(), 2, family).with_train_hash(hash);
            assert_eq!(seeded.identity(), fresh.identity(), "{}", family.name());
            let k3 = bind(data.reborrow(), 3, family).with_train_hash(hash);
            assert_ne!(k3.identity(), fresh.identity(), "{}: K", family.name());
        }
        let fresh = bind(Data::class(&train, &test), 2, Family::Exact);
        let other = bind(Data::class(&train, &other_test), 2, Family::Exact)
            .with_train_hash(fresh.train_hash());
        assert_ne!(other.identity(), fresh.identity(), "the test set");
    }

    /// Debug builds refuse a seeded hash the training set does not derive.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a seeded training hash must be the training set's")]
    fn debug_builds_check_a_seeded_train_hash() {
        let (train, test) = blobs(3);
        let est = Estimator::new(
            Data::class(&train, &test),
            2,
            WeightFn::Uniform,
            Family::Exact,
            None,
        )
        .unwrap();
        let wrong = est.train_hash() ^ 1;
        let _ = est.with_train_hash(wrong);
    }
}
