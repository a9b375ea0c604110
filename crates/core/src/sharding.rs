//! Sharded valuation runtime: per-shard partial sums with a deterministic,
//! bitwise-reproducible merge.
//!
//! The paper targets valuation over data sets "containing millions of data
//! points"; past a single machine, the job has to split. Two decompositions
//! make that split exact rather than approximate:
//!
//! * **By test point** — Theorem 1 (and Theorems 2/6/7) express the
//!   multi-test Shapley vector as the *mean of independent per-test-point
//!   games* (the additivity axiom applied to utility eq. 8). Any contiguous
//!   range of test points is therefore a self-contained unit of work.
//! * **By permutation stream** — the Monte Carlo family (§2.2, Algorithm 2)
//!   is an average over i.i.d. permutations, and since PR 3 permutation `t`
//!   draws from counter-based RNG stream `t`
//!   ([`knnshap_numerics::sampling::RngStreams`]), a pure function of
//!   `(seed, t)`. Any contiguous range of stream indices is likewise
//!   self-contained. (The group-testing baseline shards the same way over
//!   its coalition-test streams.)
//!
//! A *shard* runs one such range and produces a [`ShardPartial`]: unscaled
//! per-training-point partial sums held in **exact accumulators**
//! ([`knnshap_numerics::exact::ExactVec`]), plus a self-describing
//! [`ShardMeta`] header. [`merge_partials`] validates that the shards belong
//! to the same job (version, kind, fingerprint, sizes), that their ranges
//! tile the item space exactly, folds them in fixed shard order, and applies
//! the job's finalization (the mean scaling, or the group-testing recovery).
//!
//! ### Determinism contract
//!
//! The merged Shapley vector is **bitwise-identical to the unsharded run at
//! every shard count and every thread count**. This rests on two facts:
//!
//! 1. each per-item contribution (a per-test-point Shapley vector, or a
//!    per-permutation marginal vector) is already a pure function of the job
//!    inputs — never of threads or shards (PR 2/3 contracts);
//! 2. the cross-item summation is *exact* ([`ExactVec`]): an error-free
//!    fixed-point accumulation whose merge is mathematically associative and
//!    commutative, rounded to `f64` exactly once, at finalization.
//!
//! Because of (2) the reduction tree simply does not matter: 1, 2 or 7
//! shards — or the unsharded estimator, which since this PR routes through
//! the same accumulators — deposit the same multiset of summands and round
//! once. `tests/shard_determinism.rs` holds the whole runtime to this, and
//! `docs/sharding.md` is the operator's handbook (file format, CLI
//! workflow, failure modes).
//!
//! ```
//! use knnshap_core::exact_unweighted::{knn_class_shapley_shard, knn_class_shapley_with_threads};
//! use knnshap_core::sharding::{merge_partials, ShardSpec};
//! use knnshap_datasets::synth::blobs::{self, BlobConfig};
//!
//! let cfg = BlobConfig { n: 80, dim: 4, n_classes: 2, ..Default::default() };
//! let train = blobs::generate(&cfg);
//! let test = blobs::queries(&cfg, 9, 3);
//!
//! // Three shards, computed independently (here in-process; in production
//! // each runs in its own process via `knnshap shard` and lands on disk).
//! let parts: Vec<_> = (0..3)
//!     .map(|i| knn_class_shapley_shard(&train, &test, 2, ShardSpec::new(i, 3), 1))
//!     .collect();
//! let merged = merge_partials(&parts).unwrap();
//!
//! // Bitwise-identical to the unsharded estimator, not merely close.
//! let whole = knn_class_shapley_with_threads(&train, &test, 2, 1);
//! for i in 0..train.len() {
//!     assert_eq!(merged.values.get(i).to_bits(), whole.get(i).to_bits());
//! }
//! ```

use crate::types::ShapleyValues;
use knnshap_datasets::{ClassDataset, RegDataset};
use knnshap_knn::weights::WeightFn;
use knnshap_numerics::exact::ExactVec;

/// On-disk format version written/required by
/// [`ShardPartial::to_bytes`]/[`from_bytes`](ShardPartial::from_bytes).
pub const SHARD_FORMAT_VERSION: u32 = 1;

/// Magic prefix of every shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"KNNSHARD";

/// Sanity cap on header-declared array lengths, so a corrupt header cannot
/// request absurd allocations before payload validation.
const MAX_EXTRAS: u32 = 64;

/// Which estimator family produced a shard — determines the finalization
/// applied at merge time and guards against mixing incompatible partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKind {
    /// Exact per-test decomposition, classification (Theorems 1/7).
    ExactClass,
    /// Exact per-test decomposition, regression (Theorems 6/7).
    ExactReg,
    /// Truncated (ε, 0) per-test decomposition (Theorem 2).
    Truncated,
    /// Baseline Monte Carlo over permutation streams (§2.2).
    McBaseline,
    /// Improved Monte Carlo (Algorithm 2) over permutation streams.
    McImproved,
    /// Group-testing baseline ([JDW+19]) over coalition-test streams.
    GroupTesting,
}

impl ShardKind {
    fn code(self) -> u8 {
        match self {
            ShardKind::ExactClass => 0,
            ShardKind::ExactReg => 1,
            ShardKind::Truncated => 2,
            ShardKind::McBaseline => 3,
            ShardKind::McImproved => 4,
            ShardKind::GroupTesting => 5,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => ShardKind::ExactClass,
            1 => ShardKind::ExactReg,
            2 => ShardKind::Truncated,
            3 => ShardKind::McBaseline,
            4 => ShardKind::McImproved,
            5 => ShardKind::GroupTesting,
            _ => return None,
        })
    }

    /// Human-readable name used by reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            ShardKind::ExactClass => "exact-class",
            ShardKind::ExactReg => "exact-reg",
            ShardKind::Truncated => "truncated",
            ShardKind::McBaseline => "mc-baseline",
            ShardKind::McImproved => "mc-improved",
            ShardKind::GroupTesting => "group-testing",
        }
    }
}

/// Which slice of a job a worker should run: shard `index` of `count`.
///
/// The induced item range ([`range`](Self::range)) is the canonical balanced
/// contiguous partition — a pure function of `(total, index, count)`, so
/// every process that agrees on the job agrees on the split without
/// coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    index: usize,
    count: usize,
}

impl ShardSpec {
    /// Shard `index` of `count`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `index >= count`.
    pub fn new(index: usize, count: usize) -> Self {
        assert!(count >= 1, "shard count must be at least 1");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        Self { index, count }
    }

    /// The whole job as a single shard.
    pub fn full() -> Self {
        Self { index: 0, count: 1 }
    }

    pub fn index(&self) -> usize {
        self.index
    }

    pub fn count(&self) -> usize {
        self.count
    }

    /// The canonical item range of this shard: `⌊index·total/count⌋ ..
    /// ⌊(index+1)·total/count⌋`. Ranges of consecutive indices tile
    /// `0..total` exactly; when `count > total` trailing shards are empty
    /// (and merge as no-ops).
    ///
    /// ```
    /// use knnshap_core::sharding::ShardSpec;
    /// let ranges: Vec<_> = (0..3).map(|i| ShardSpec::new(i, 3).range(10)).collect();
    /// assert_eq!(ranges, vec![0..3, 3..6, 6..10]);
    /// ```
    pub fn range(&self, total: usize) -> std::ops::Range<usize> {
        let cut = |i: usize| (i as u128 * total as u128 / self.count as u128) as usize;
        cut(self.index)..cut(self.index + 1)
    }
}

/// Self-describing identity of a shard: enough for [`merge_partials`] to
/// verify that a set of partials belongs to one job and covers it exactly,
/// without access to the datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMeta {
    /// Estimator family (selects the finalization at merge time).
    pub kind: ShardKind,
    /// Job fingerprint: a hash of the datasets and every parameter that
    /// changes the per-item contributions (K, seed, ε, weights…). Two shard
    /// files merge only if their fingerprints agree bit for bit.
    pub fingerprint: u64,
    /// Number of training points (= length of the partial-sum vector).
    pub n_train: u64,
    /// Total items in the job: test points for the exact decompositions,
    /// permutation/test streams for the stochastic ones.
    pub total_items: u64,
    /// First item (inclusive) this shard covered.
    pub item_lo: u64,
    /// One past the last item this shard covered.
    pub item_hi: u64,
    /// Kind-specific finalization constants, bitwise-checked equal across
    /// shards (group testing stores `[ν(I)]`; the mean families store none).
    pub extras: Vec<f64>,
}

/// One shard's output: identity plus unscaled exact partial sums.
#[derive(Debug, Clone)]
pub struct ShardPartial {
    pub meta: ShardMeta,
    /// Per-training-point partial sums over the shard's item range.
    pub sums: ExactVec,
    /// Kind-specific scalar accumulators (group testing's shared term);
    /// empty for the other kinds.
    pub aux: ExactVec,
}

/// A merged, finalized valuation.
#[derive(Debug, Clone)]
pub struct MergedValuation {
    pub values: ShapleyValues,
    /// Items the job consumed (permutations for the MC kinds, test points
    /// for the exact kinds) — what the CLI reports.
    pub items: u64,
}

/// Everything that can go wrong assembling shards back into a valuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The byte stream does not start with [`SHARD_MAGIC`].
    BadMagic,
    /// The file's format version is not [`SHARD_FORMAT_VERSION`].
    UnsupportedVersion { found: u32 },
    /// Structurally invalid bytes (truncation, bad ranges, trailing data…).
    Malformed(String),
    /// Shards describe different jobs (kind/fingerprint/size mismatch).
    Incompatible(String),
    /// Shard ranges do not tile the job's item space exactly.
    Coverage(String),
    /// No shards supplied.
    Empty,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::BadMagic => write!(f, "not a knnshap shard file (bad magic)"),
            ShardError::UnsupportedVersion { found } => write!(
                f,
                "shard format version {found} is not supported (this build reads \
                 version {SHARD_FORMAT_VERSION})"
            ),
            ShardError::Malformed(m) => write!(f, "malformed shard file: {m}"),
            ShardError::Incompatible(m) => write!(f, "incompatible shards: {m}"),
            ShardError::Coverage(m) => write!(f, "shard coverage error: {m}"),
            ShardError::Empty => write!(f, "no shards to merge"),
        }
    }
}

impl std::error::Error for ShardError {}

impl ShardPartial {
    /// Assemble a partial for the per-item-mean families (no extras, no
    /// aux) — the one construction every `*_shard` entry point shares.
    pub(crate) fn new(
        kind: ShardKind,
        fingerprint: u64,
        n_train: usize,
        total_items: usize,
        range: std::ops::Range<usize>,
        sums: ExactVec,
    ) -> Self {
        ShardPartial {
            meta: ShardMeta {
                kind,
                fingerprint,
                n_train: n_train as u64,
                total_items: total_items as u64,
                item_lo: range.start as u64,
                item_hi: range.end as u64,
                extras: vec![],
            },
            sums,
            aux: ExactVec::zeros(0),
        }
    }

    /// Serialize to the versioned on-disk format (fully specified in
    /// `docs/sharding.md`; all integers and float bit patterns
    /// little-endian). The payload is canonical: equal exact partial sums
    /// produce identical bytes, whatever thread count computed them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let m = &self.meta;
        debug_assert_eq!(self.sums.len() as u64, m.n_train);
        let mut out = Vec::with_capacity(64 + self.sums.len() * 12);
        out.extend_from_slice(&SHARD_MAGIC);
        out.extend_from_slice(&SHARD_FORMAT_VERSION.to_le_bytes());
        out.push(m.kind.code());
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&m.fingerprint.to_le_bytes());
        out.extend_from_slice(&m.n_train.to_le_bytes());
        out.extend_from_slice(&m.total_items.to_le_bytes());
        out.extend_from_slice(&m.item_lo.to_le_bytes());
        out.extend_from_slice(&m.item_hi.to_le_bytes());
        out.extend_from_slice(&(m.extras.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.aux.len() as u32).to_le_bytes());
        for &x in &m.extras {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        self.sums.encode_into(&mut out);
        self.aux.encode_into(&mut out);
        out
    }

    /// Parse a shard file, validating magic, version, and structure.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ShardError> {
        let header = |pos: usize, n: usize| -> Result<&[u8], ShardError> {
            buf.get(pos..pos + n)
                .ok_or_else(|| ShardError::Malformed("header truncated".into()))
        };
        if buf.len() < 8 || buf[..8] != SHARD_MAGIC {
            return Err(ShardError::BadMagic);
        }
        let version = u32::from_le_bytes(header(8, 4)?.try_into().expect("4 bytes"));
        if version != SHARD_FORMAT_VERSION {
            return Err(ShardError::UnsupportedVersion { found: version });
        }
        let kind = ShardKind::from_code(header(12, 1)?[0])
            .ok_or_else(|| ShardError::Malformed("unknown estimator kind".into()))?;
        let u64_at = |pos: usize| -> Result<u64, ShardError> {
            Ok(u64::from_le_bytes(header(pos, 8)?.try_into().expect("8")))
        };
        let fingerprint = u64_at(16)?;
        let n_train = u64_at(24)?;
        let total_items = u64_at(32)?;
        let item_lo = u64_at(40)?;
        let item_hi = u64_at(48)?;
        let extras_len = u32::from_le_bytes(header(56, 4)?.try_into().expect("4"));
        let aux_len = u32::from_le_bytes(header(60, 4)?.try_into().expect("4"));
        if item_lo > item_hi || item_hi > total_items {
            return Err(ShardError::Malformed(format!(
                "item range {item_lo}..{item_hi} outside 0..{total_items}"
            )));
        }
        if extras_len > MAX_EXTRAS || aux_len > MAX_EXTRAS {
            return Err(ShardError::Malformed("implausible header lengths".into()));
        }
        let n = usize::try_from(n_train)
            .map_err(|_| ShardError::Malformed("n_train exceeds this platform".into()))?;
        // Every accumulator record is at least 5 bytes, so a header that
        // declares more records than the remaining payload could possibly
        // hold is corrupt — reject it before allocating anything.
        if n > buf.len().saturating_sub(64) / 5 {
            return Err(ShardError::Malformed(format!(
                "header declares {n} training points but only {} payload bytes follow",
                buf.len().saturating_sub(64)
            )));
        }
        let mut pos = 64;
        let mut extras = Vec::with_capacity(extras_len as usize);
        for _ in 0..extras_len {
            extras.push(f64::from_bits(u64_at(pos)?));
            pos += 8;
        }
        let sums = ExactVec::decode_from(buf, &mut pos, n)
            .map_err(|e| ShardError::Malformed(e.to_string()))?;
        let aux = ExactVec::decode_from(buf, &mut pos, aux_len as usize)
            .map_err(|e| ShardError::Malformed(e.to_string()))?;
        if pos != buf.len() {
            return Err(ShardError::Malformed(format!(
                "{} trailing bytes after payload",
                buf.len() - pos
            )));
        }
        Ok(ShardPartial {
            meta: ShardMeta {
                kind,
                fingerprint,
                n_train,
                total_items,
                item_lo,
                item_hi,
                extras,
            },
            sums,
            aux,
        })
    }

    /// Fold the **adjacent** partial `next` into this one, extending the
    /// covered item range to `self.item_lo .. next.item_hi` — the
    /// incremental form of [`merge_partials`] used by the job-orchestration
    /// runtime's checkpointing workers (`knnshap_runtime`): a shard's range
    /// is computed chunk by chunk, each finished chunk absorbed and the
    /// accumulated partial checkpointed, so a killed worker resumes from the
    /// last checkpoint instead of restarting the shard.
    ///
    /// Validates the same job-identity invariants as [`merge_partials`]
    /// (kind, fingerprint, sizes, finalization constants) plus exact
    /// adjacency (`next.item_lo == self.item_hi`). Because the accumulators
    /// are exact, absorbing chunks one at a time leaves state — and
    /// serialized bytes — bitwise-identical to computing the whole range in
    /// one call.
    pub fn absorb_adjacent(&mut self, next: &ShardPartial) -> Result<(), ShardError> {
        let (a, b) = (&self.meta, &next.meta);
        if a.kind != b.kind {
            return Err(ShardError::Incompatible(format!(
                "kind {} vs {}",
                b.kind.name(),
                a.kind.name()
            )));
        }
        if a.fingerprint != b.fingerprint {
            return Err(ShardError::Incompatible(format!(
                "job fingerprint {:016x} vs {:016x}",
                b.fingerprint, a.fingerprint
            )));
        }
        if a.n_train != b.n_train || a.total_items != b.total_items {
            return Err(ShardError::Incompatible(format!(
                "sizes differ: {} train / {} items vs {} train / {} items",
                b.n_train, b.total_items, a.n_train, a.total_items
            )));
        }
        if a.extras.len() != b.extras.len()
            || a.extras
                .iter()
                .zip(&b.extras)
                .any(|(x, y)| x.to_bits() != y.to_bits())
        {
            return Err(ShardError::Incompatible(
                "finalization constants differ between chunks".into(),
            ));
        }
        if next.sums.len() as u64 != b.n_train || next.aux.len() != self.aux.len() {
            return Err(ShardError::Incompatible(
                "payload lengths disagree with headers".into(),
            ));
        }
        if b.item_lo != a.item_hi {
            return Err(ShardError::Coverage(format!(
                "chunk {}..{} is not adjacent to accumulated {}..{}",
                b.item_lo, b.item_hi, a.item_lo, a.item_hi
            )));
        }
        self.sums.merge(&next.sums);
        self.aux.merge(&next.aux);
        self.meta.item_hi = next.meta.item_hi;
        Ok(())
    }
}

/// The one finalization of every per-item-mean family (exact, truncated,
/// Monte Carlo): round each exact partial sum once, then divide by the item
/// count. Both the unsharded estimators and [`merge_partials`] call this, so
/// the two paths cannot drift.
pub(crate) fn finalize_mean(sums: &ExactVec, total_items: u64) -> ShapleyValues {
    let d = (total_items.max(1)) as f64;
    ShapleyValues::new((0..sums.len()).map(|i| sums.value(i) / d).collect())
}

/// Block-granularity cap for the exact folds: enough scheduling units for
/// the pool to balance skewed per-item costs, few enough that block setup
/// is invisible. The actual block count also scales with the thread count
/// (see [`exact_block_fold`]): every block pays O(`n_train`) accumulator
/// setup, so a serial fold uses one block and a parallel one a few blocks
/// per worker — never more than this cap.
const FOLD_BLOCKS: usize = 32;

/// Scheduling units per worker below the [`FOLD_BLOCKS`] cap — enough slack
/// to rebalance skewed items without multiplying accumulator setup.
const FOLD_BLOCKS_PER_THREAD: usize = 4;

/// The one parallel fold shape behind every exact accumulation in the
/// workspace: tile `count` items into a fixed block partition, give each
/// block a fresh accumulator from `make`, `step` it over the block's items
/// in order, and hand the finished accumulator to `fold` — which merges it
/// into a shared total and **drops it immediately**, so live accumulators
/// are bounded by the worker count rather than the block count (exact
/// accumulators cost ~0.5 KiB per training point; 32 simultaneous partials
/// of a million-point job would be ~18 GiB, while this shape stays at
/// `threads + 1` partials).
///
/// ### Determinism contract
///
/// `fold` runs in scheduling order, which varies — that is sound *only*
/// because the accumulators merged here are exact ([`ExactVec`] /
/// [`knnshap_numerics::exact::ExactSum`]), whose merge is error-free and
/// therefore order-invariant. Never route rounded (f64/Neumaier) partials
/// through this helper.
pub(crate) fn exact_block_fold<A, M, S, F>(count: usize, threads: usize, make: M, step: S, fold: F)
where
    A: Send,
    M: Fn() -> A + Sync,
    S: Fn(&mut A, usize) + Sync,
    F: Fn(A) + Sync,
{
    let block = static_fold_block(count, threads);
    exact_block_fold_sized(count, threads, block, make, step, fold);
}

/// The static (non-measured) block size of [`exact_block_fold`]: one block
/// per serial fold; a few per worker otherwise, capped at [`FOLD_BLOCKS`].
/// Bitwise-free choice — the accumulators are exact, so the partition (like
/// the fold order) cannot move a bit; it is picked purely for cost.
pub(crate) fn static_fold_block(count: usize, threads: usize) -> usize {
    let target = if threads <= 1 {
        1
    } else {
        FOLD_BLOCKS.min(threads.saturating_mul(FOLD_BLOCKS_PER_THREAD))
    };
    count.div_ceil(target).max(1)
}

/// [`exact_block_fold`] with a caller-chosen block size — the entry point of
/// the measured scheduler ([`crate::schedule`]), which picks `block` so one
/// block's compute amortizes the accumulator setup (`make`) and merge
/// (`fold`) it pays. The partition is still bitwise-free: exact accumulators
/// make every tiling of `0..count` deposit the same multiset of summands.
pub(crate) fn exact_block_fold_sized<A, M, S, F>(
    count: usize,
    threads: usize,
    block: usize,
    make: M,
    step: S,
    fold: F,
) where
    A: Send,
    M: Fn() -> A + Sync,
    S: Fn(&mut A, usize) + Sync,
    F: Fn(A) + Sync,
{
    if count == 0 {
        return;
    }
    let block = block.clamp(1, count);
    let blocks = count.div_ceil(block);
    knnshap_parallel::par_map(blocks, threads, |b| {
        let lo = b * block;
        let hi = ((b + 1) * block).min(count);
        let mut acc = make();
        for j in lo..hi {
            step(&mut acc, j);
        }
        fold(acc);
    });
}

/// [`exact_block_fold`] specialized to the per-item-mean families: fill a
/// per-training-point [`ExactVec`] from each item of `range` (absolute
/// indices), eagerly merged into one total.
pub(crate) fn exact_sums_over<F>(
    n_train: usize,
    range: std::ops::Range<usize>,
    threads: usize,
    fill: F,
) -> ExactVec
where
    F: Fn(usize, &mut ExactVec) + Sync,
{
    let total = std::sync::Mutex::new(ExactVec::zeros(n_train));
    exact_block_fold(
        range.len(),
        threads,
        || ExactVec::zeros(n_train),
        |acc, j| fill(range.start + j, acc),
        |acc| total.lock().expect("fold poisoned").merge(&acc),
    );
    total.into_inner().expect("fold poisoned")
}

/// [`exact_sums_over`] with a caller-chosen block size (see
/// [`exact_block_fold_sized`]) — same bits, scheduler-picked tiling.
pub(crate) fn exact_sums_over_sized<F>(
    n_train: usize,
    range: std::ops::Range<usize>,
    threads: usize,
    block: usize,
    fill: F,
) -> ExactVec
where
    F: Fn(usize, &mut ExactVec) + Sync,
{
    let total = std::sync::Mutex::new(ExactVec::zeros(n_train));
    exact_block_fold_sized(
        range.len(),
        threads,
        block,
        || ExactVec::zeros(n_train),
        |acc, j| fill(range.start + j, acc),
        |acc| total.lock().expect("fold poisoned").merge(&acc),
    );
    total.into_inner().expect("fold poisoned")
}

/// [`exact_sums_over`] for fills that touch (nearly) every training point
/// per item — the exact recursions do, one contribution per rank: `fill`
/// writes item `j`'s contributions into a zeroed dense `f64` scratch
/// (`scratch[i] = contribution of train point i`), and the fold deposits
/// the scratch with [`ExactVec::add_dense`]. `fill` also gets a per-block
/// state from `state` (one per serial fold) to reuse across the block's
/// items, e.g. ranking buffers.
///
/// Identical bits to the sink-per-contribution shape — the deposited
/// values are the same `f64`s and exact accumulation is order-invariant —
/// but the deposits walk the accumulator array *sequentially* instead of
/// in rank order, which is what makes per-mutation revaluation in the
/// serving engine (and the cold batch path it must match) cache-friendly:
/// the rank-ordered sink is a random walk over `n_train` heap-backed
/// accumulators, the dense pass a linear one.
pub(crate) fn exact_sums_over_dense<T, M, F>(
    n_train: usize,
    range: std::ops::Range<usize>,
    threads: usize,
    state: M,
    fill: F,
) -> ExactVec
where
    T: Send,
    M: Fn() -> T + Sync,
    F: Fn(usize, &mut T, &mut [f64]) + Sync,
{
    if threads <= 1 {
        // Serial fast path: deposit each item's scratch straight into the
        // total — no intermediate block accumulator, no final full-length
        // merge. Exactness makes the grouping invisible in the bits.
        let mut total = ExactVec::zeros(n_train);
        let mut scratch = vec![0.0f64; n_train];
        let mut st = state();
        for j in range {
            scratch.fill(0.0);
            fill(j, &mut st, &mut scratch);
            total.add_dense(&scratch);
        }
        return total;
    }
    let total = std::sync::Mutex::new(ExactVec::zeros(n_train));
    exact_block_fold(
        range.len(),
        threads,
        || (ExactVec::zeros(n_train), vec![0.0f64; n_train], state()),
        |(acc, scratch, st), j| {
            scratch.fill(0.0);
            fill(range.start + j, st, scratch);
            acc.add_dense(scratch);
        },
        |(acc, _, _)| total.lock().expect("fold poisoned").merge(&acc),
    );
    total.into_inner().expect("fold poisoned")
}

/// Merge shard partials into the job's final valuation.
///
/// Shards may arrive in any order; they are sorted into fixed shard order
/// (by `item_lo`) before folding — and because the partial sums are exact,
/// the fold order cannot change the result anyway. Validation rejects:
/// mixed jobs ([`ShardError::Incompatible`]: kind, fingerprint, sizes or
/// finalization constants differ), and ranges that overlap, leave gaps, or
/// don't span `0..total_items` ([`ShardError::Coverage`]).
///
/// ### Determinism contract
///
/// For any partition of the job into shards, the returned values are
/// bitwise-identical to the unsharded estimator's output (which accumulates
/// through the same [`ExactVec`] and finalizes with the same code path).
pub fn merge_partials(parts: &[ShardPartial]) -> Result<MergedValuation, ShardError> {
    let first = parts.first().ok_or(ShardError::Empty)?;
    let m0 = &first.meta;
    for p in parts {
        let m = &p.meta;
        if m.kind != m0.kind {
            return Err(ShardError::Incompatible(format!(
                "kind {} vs {}",
                m.kind.name(),
                m0.kind.name()
            )));
        }
        if m.fingerprint != m0.fingerprint {
            return Err(ShardError::Incompatible(format!(
                "job fingerprint {:016x} vs {:016x} (different datasets, seeds or \
                 parameters)",
                m.fingerprint, m0.fingerprint
            )));
        }
        if m.n_train != m0.n_train || m.total_items != m0.total_items {
            return Err(ShardError::Incompatible(format!(
                "sizes differ: {} train / {} items vs {} train / {} items",
                m.n_train, m.total_items, m0.n_train, m0.total_items
            )));
        }
        if m.extras.len() != m0.extras.len()
            || m.extras
                .iter()
                .zip(&m0.extras)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(ShardError::Incompatible(
                "finalization constants differ between shards".into(),
            ));
        }
        if p.sums.len() as u64 != m.n_train || p.aux.len() != first.aux.len() {
            return Err(ShardError::Incompatible(
                "payload lengths disagree with headers".into(),
            ));
        }
    }

    // Fixed shard order; verify the non-empty ranges tile 0..total exactly.
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by_key(|&i| (parts[i].meta.item_lo, parts[i].meta.item_hi));
    let mut expected = 0u64;
    for &i in &order {
        let m = &parts[i].meta;
        if m.item_lo == m.item_hi {
            continue; // empty shard (count > items): a validated no-op
        }
        match m.item_lo.cmp(&expected) {
            std::cmp::Ordering::Less => {
                return Err(ShardError::Coverage(format!(
                    "items {}..{} covered twice",
                    m.item_lo,
                    m.item_hi.min(expected)
                )))
            }
            std::cmp::Ordering::Greater => {
                return Err(ShardError::Coverage(format!(
                    "items {expected}..{} missing",
                    m.item_lo
                )))
            }
            std::cmp::Ordering::Equal => expected = m.item_hi,
        }
    }
    if expected != m0.total_items {
        return Err(ShardError::Coverage(format!(
            "items {expected}..{} missing",
            m0.total_items
        )));
    }

    // Fold in fixed shard order (exactness makes the order immaterial; fixing
    // it anyway keeps the procedure auditable).
    let mut sums = parts[order[0]].sums.clone();
    let mut aux = parts[order[0]].aux.clone();
    for &i in &order[1..] {
        sums.merge(&parts[i].sums);
        aux.merge(&parts[i].aux);
    }

    let values = match m0.kind {
        ShardKind::ExactClass
        | ShardKind::ExactReg
        | ShardKind::Truncated
        | ShardKind::McBaseline
        | ShardKind::McImproved => finalize_mean(&sums, m0.total_items),
        ShardKind::GroupTesting => {
            let grand = *m0.extras.first().ok_or_else(|| {
                ShardError::Incompatible("group-testing shards missing ν(I)".into())
            })?;
            if aux.len() != 1 {
                return Err(ShardError::Incompatible(
                    "group-testing shards need exactly one shared accumulator".into(),
                ));
            }
            crate::group_testing::recover_values(
                grand,
                m0.total_items as usize,
                sums.values(),
                aux.value(0),
            )
        }
    };
    Ok(MergedValuation {
        values,
        items: m0.total_items,
    })
}

// ---------------------------------------------------------------------------
// Job fingerprints
// ---------------------------------------------------------------------------

/// Order-sensitive 64-bit fingerprint builder, re-exported from
/// [`knnshap_numerics::fingerprint`] (it moved there so artifact formats
/// below `knnshap_core` — e.g. the `KNNGRAPH` neighbor graph in
/// `knnshap_knn::graph` — can stamp the same dataset-content fingerprints).
pub use knnshap_numerics::fingerprint::Fingerprint;

/// Content hash of a classification dataset (feature bits + labels).
pub fn hash_class_dataset(d: &ClassDataset) -> u64 {
    Fingerprint::new("class-dataset")
        .u64(d.dim() as u64)
        .f32s(d.x.as_slice())
        .u32s(&d.y)
        .finish()
}

/// Content hash of a regression dataset (feature bits + targets).
pub fn hash_reg_dataset(d: &RegDataset) -> u64 {
    Fingerprint::new("reg-dataset")
        .u64(d.dim() as u64)
        .f32s(d.x.as_slice())
        .f64s(&d.y)
        .finish()
}

/// Stable encoding of a weight function for fingerprinting.
pub(crate) fn weight_code(w: WeightFn) -> (u64, f64) {
    match w {
        WeightFn::Uniform => (0, 0.0),
        WeightFn::InverseDistance { eps } => (1, eps as f64),
        WeightFn::Exponential { beta } => (2, beta as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knnshap_datasets::synth::blobs::{self, BlobConfig};

    fn data() -> (ClassDataset, ClassDataset) {
        let cfg = BlobConfig {
            n: 50,
            dim: 4,
            n_classes: 2,
            cluster_std: 0.6,
            center_scale: 3.0,
            seed: 8,
        };
        (blobs::generate(&cfg), blobs::queries(&cfg, 11, 5))
    }

    fn parts(shards: usize) -> Vec<ShardPartial> {
        let (train, test) = data();
        (0..shards)
            .map(|i| {
                crate::exact_unweighted::knn_class_shapley_shard(
                    &train,
                    &test,
                    2,
                    ShardSpec::new(i, shards),
                    1,
                )
            })
            .collect()
    }

    #[test]
    fn spec_ranges_tile_for_awkward_counts() {
        for total in [0usize, 1, 3, 10, 11, 97] {
            for count in [1usize, 2, 3, 7, 13] {
                let mut expected = 0;
                for i in 0..count {
                    let r = ShardSpec::new(i, count).range(total);
                    assert_eq!(r.start, expected, "total={total} count={count} i={i}");
                    assert!(r.end >= r.start);
                    expected = r.end;
                }
                assert_eq!(expected, total);
            }
        }
        assert_eq!(ShardSpec::full().range(42), 0..42);
        assert_eq!(ShardSpec::new(1, 3).index(), 1);
        assert_eq!(ShardSpec::new(1, 3).count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spec_rejects_index_past_count() {
        ShardSpec::new(3, 3);
    }

    #[test]
    fn roundtrip_bytes_preserve_everything() {
        for p in parts(3) {
            let bytes = p.to_bytes();
            let back = ShardPartial::from_bytes(&bytes).unwrap();
            assert_eq!(back.meta, p.meta);
            assert_eq!(back.sums.values(), p.sums.values());
            // Canonical payload: re-serializing yields identical bytes.
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn merge_accepts_any_input_order() {
        let mut ps = parts(4);
        let sorted = merge_partials(&ps).unwrap();
        ps.reverse();
        ps.swap(0, 2);
        let scrambled = merge_partials(&ps).unwrap();
        for i in 0..sorted.values.len() {
            assert_eq!(
                sorted.values.get(i).to_bits(),
                scrambled.values.get(i).to_bits()
            );
        }
        assert_eq!(sorted.items, 11);
    }

    #[test]
    fn merge_tolerates_empty_shards_from_oversharding() {
        // 13 shards of an 11-item job: two shards are empty ranges.
        let ps = parts(13);
        assert!(ps.iter().any(|p| p.meta.item_lo == p.meta.item_hi));
        let merged = merge_partials(&ps).unwrap();
        let whole = merge_partials(&parts(1)).unwrap();
        for i in 0..whole.values.len() {
            assert_eq!(
                merged.values.get(i).to_bits(),
                whole.values.get(i).to_bits()
            );
        }
    }

    #[test]
    fn merge_rejects_gap_overlap_and_mixed_jobs() {
        let ps = parts(3);
        // Gap: drop the middle shard.
        let err = merge_partials(&[ps[0].clone(), ps[2].clone()]).unwrap_err();
        assert!(matches!(err, ShardError::Coverage(_)), "{err}");
        // Overlap: duplicate a shard.
        let err = merge_partials(&[ps[0].clone(), ps[0].clone(), ps[1].clone(), ps[2].clone()])
            .unwrap_err();
        assert!(matches!(err, ShardError::Coverage(_)), "{err}");
        // Mixed jobs: different K ⇒ different fingerprint.
        let (train, test) = data();
        let other = crate::exact_unweighted::knn_class_shapley_shard(
            &train,
            &test,
            3,
            ShardSpec::new(0, 3),
            1,
        );
        let err = merge_partials(&[other, ps[1].clone(), ps[2].clone()]).unwrap_err();
        assert!(matches!(err, ShardError::Incompatible(_)), "{err}");
        // Nothing at all.
        assert_eq!(merge_partials(&[]).unwrap_err(), ShardError::Empty);
    }

    #[test]
    fn from_bytes_rejects_bad_magic_version_and_corruption() {
        let p = &parts(1)[0];
        let good = p.to_bytes();

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            ShardPartial::from_bytes(&bad).unwrap_err(),
            ShardError::BadMagic
        );

        let mut bad = good.clone();
        bad[8] = 99; // version field
        assert_eq!(
            ShardPartial::from_bytes(&bad).unwrap_err(),
            ShardError::UnsupportedVersion { found: 99 }
        );

        let mut bad = good.clone();
        bad[12] = 200; // kind code
        assert!(matches!(
            ShardPartial::from_bytes(&bad).unwrap_err(),
            ShardError::Malformed(_)
        ));

        // A header claiming an absurd n_train must be rejected before any
        // allocation happens (no capacity-overflow panic, no OOM).
        let mut bad = good.clone();
        bad[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ShardPartial::from_bytes(&bad).unwrap_err(),
            ShardError::Malformed(_)
        ));

        // Truncated payload and trailing garbage.
        assert!(matches!(
            ShardPartial::from_bytes(&good[..good.len() - 3]).unwrap_err(),
            ShardError::Malformed(_)
        ));
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            ShardPartial::from_bytes(&bad).unwrap_err(),
            ShardError::Malformed(_)
        ));
        assert!(matches!(
            ShardPartial::from_bytes(&good[..20]).unwrap_err(),
            ShardError::Malformed(_)
        ));
    }

    #[test]
    fn absorb_adjacent_chunks_reproduce_single_range_bytes() {
        // Computing a shard as many adjacent micro-chunks and absorbing them
        // one by one must leave byte-identical state to the one-shot
        // computation — the invariant the runtime's checkpoint/resume path
        // rests on.
        let fine = parts(6); // chunk boundaries refine the 2-shard partition
        let coarse = parts(2);
        for (s, coarse_part) in coarse.iter().enumerate() {
            let mut acc: Option<ShardPartial> = None;
            for chunk in fine.iter().skip(s * 3).take(3) {
                match &mut acc {
                    None => acc = Some(chunk.clone()),
                    Some(a) => a.absorb_adjacent(chunk).unwrap(),
                }
            }
            assert_eq!(acc.unwrap().to_bytes(), coarse_part.to_bytes(), "shard {s}");
        }
    }

    #[test]
    fn absorb_adjacent_rejects_gaps_and_mixed_jobs() {
        let ps = parts(3);
        // Non-adjacent (gap).
        let mut a = ps[0].clone();
        let err = a.absorb_adjacent(&ps[2]).unwrap_err();
        assert!(matches!(err, ShardError::Coverage(_)), "{err}");
        // Self-absorb = overlap, also non-adjacent.
        let mut a = ps[1].clone();
        let err = a.absorb_adjacent(&ps[1].clone()).unwrap_err();
        assert!(matches!(err, ShardError::Coverage(_)), "{err}");
        // Different job (different K ⇒ fingerprint).
        let (train, test) = data();
        let other = crate::exact_unweighted::knn_class_shapley_shard(
            &train,
            &test,
            3,
            ShardSpec::new(1, 3),
            1,
        );
        let mut a = ps[0].clone();
        let err = a.absorb_adjacent(&other).unwrap_err();
        assert!(matches!(err, ShardError::Incompatible(_)), "{err}");
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let a = Fingerprint::new("t").u64(1).u64(2).finish();
        let b = Fingerprint::new("t").u64(2).u64(1).finish();
        let c = Fingerprint::new("u").u64(1).u64(2).finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        let (train, _) = data();
        let mut train2 = train.clone();
        train2.y[0] ^= 1;
        assert_ne!(hash_class_dataset(&train), hash_class_dataset(&train2));
    }
}
