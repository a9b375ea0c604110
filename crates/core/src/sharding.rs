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
use knnshap_knn::neighbors::Neighbor;
use knnshap_knn::weights::WeightFn;
use knnshap_numerics::exact::{ExactBlock, ExactVec};
use std::sync::Mutex;

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

/// Every kind with its name, at the index that is its `KNNSHARD` header
/// code: the one table both directions of each encoding read. Codes are
/// on disk, so a new kind is appended, never inserted.
const KINDS: [(ShardKind, &str); 6] = [
    (ShardKind::ExactClass, "exact-class"),
    (ShardKind::ExactReg, "exact-reg"),
    (ShardKind::Truncated, "truncated"),
    (ShardKind::McBaseline, "mc-baseline"),
    (ShardKind::McImproved, "mc-improved"),
    (ShardKind::GroupTesting, "group-testing"),
];

impl ShardKind {
    fn code(self) -> u8 {
        let code = KINDS.iter().position(|e| e.0 == self);
        code.expect("every kind is in the table") as u8
    }

    fn from_code(code: u8) -> Option<Self> {
        KINDS.get(code as usize).map(|e| e.0)
    }

    /// Human-readable name used by reports, error messages and job plans.
    pub fn name(self) -> &'static str {
        KINDS[self.code() as usize].1
    }

    /// The kind [`name`](Self::name) names.
    pub fn from_name(name: &str) -> Option<Self> {
        KINDS.iter().find(|e| e.1 == name).map(|e| e.0)
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

    /// Attach group testing's finalization state: `ν(I)` as the one
    /// header constant, and a zeroed `aux` accumulator for the shared term.
    pub(crate) fn with_shared(mut self, grand: f64) -> Self {
        self.meta.extras = vec![grand];
        self.aux = ExactVec::zeros(1);
        self
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

    /// Check that `other` belongs to this partial's job: the same kind,
    /// fingerprint, sizes and finalization constants, with payloads as long
    /// as the headers say. [`merge_partials`] runs it on every shard, and
    /// [`crate::estimator::Estimator::shard_fold`] on a checkpoint it is
    /// asked to continue.
    pub(crate) fn check_same_job(&self, other: &ShardPartial) -> Result<(), ShardError> {
        let (m0, m) = (&self.meta, &other.meta);
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
        if other.sums.len() as u64 != m.n_train || other.aux.len() != self.aux.len() {
            return Err(ShardError::Incompatible(
                "payload lengths disagree with headers".into(),
            ));
        }
        Ok(())
    }
}

/// Points per finalize chunk: one chunk is about 0.15 ms of rounding, well
/// above a pool region's fork cost, and a vector of at most one chunk is
/// rounded on the caller without entering the pool.
const FINALIZE_CHUNK: usize = 4096;

/// The one finalization of every per-item-mean family (exact, truncated,
/// Monte Carlo): round each exact partial sum once, then divide by the item
/// count. Both the unsharded estimators and [`merge_partials`] call this, so
/// the two paths cannot drift.
///
/// Points are rounded in fixed [`FINALIZE_CHUNK`]-point chunks on up to
/// `threads` workers (the fold's own budget). Each value is a pure
/// function of its own plane row, so the result does not depend on
/// `threads`.
pub(crate) fn finalize_mean(sums: &ExactVec, total_items: u64, threads: usize) -> ShapleyValues {
    let mut out = vec![0.0f64; sums.len()];
    finalize_mean_into(sums, total_items, threads, &mut out, None);
    ShapleyValues::new(out)
}

/// [`finalize_mean`] into `out`, rounding only the points `only` marks
/// (every point without it); the others keep their values. The serving
/// engine re-rounds just the points a mutation moved.
pub(crate) fn finalize_mean_into(
    sums: &ExactVec,
    total_items: u64,
    threads: usize,
    out: &mut [f64],
    only: Option<&[bool]>,
) {
    let d = (total_items.max(1)) as f64;
    let round = |lo: usize, chunk: &mut [f64]| {
        for (i, v) in (lo..).zip(chunk.iter_mut()) {
            if only.is_none_or(|marked| marked[i]) {
                *v = sums.value(i) / d;
            }
        }
    };
    if threads <= 1 || out.len() <= FINALIZE_CHUNK {
        round(0, out);
    } else {
        knnshap_parallel::par_chunks(out, FINALIZE_CHUNK, threads, round);
    }
}

/// The job finalization [`merge_partials`] and
/// [`crate::estimator::Estimator::run`] share: the per-item mean on
/// `threads` workers, or — given group testing's `(ν(I), shared term)` —
/// its value recovery.
pub(crate) fn finalize(
    sums: &ExactVec,
    total_items: u64,
    group_testing: Option<(f64, f64)>,
    threads: usize,
) -> ShapleyValues {
    match group_testing {
        None => finalize_mean(sums, total_items, threads),
        Some((grand, shared)) => {
            crate::group_testing::recover_values(grand, total_items as usize, sums.values(), shared)
        }
    }
}

/// Claim-unit cap for the exact folds: enough units for the pool to balance
/// skewed per-item costs. A unit is only a scheduling grain — no
/// accumulator is allocated per unit (see [`exact_fold`] and
/// [`exact_sums_over_dense`]) — so a serial fold uses one unit and a
/// parallel one a few per worker, never more than this cap.
const FOLD_BLOCKS: usize = 32;

/// Claim units per worker below the [`FOLD_BLOCKS`] cap — enough slack to
/// rebalance skewed items.
const FOLD_BLOCKS_PER_THREAD: usize = 4;

/// The parallel fold behind group testing's sparse exact accumulation.
/// `0..count` is cut into `block`-item claim units.
/// Each participant of a [`knnshap_parallel::par_claim`] region of at most
/// `threads` workers claims units from one shared counter and `step`s its
/// per-worker state `W` (from `make`, built once, on the participant's
/// first claim) over each unit's item range, depositing into an
/// accumulator `A`:
///
/// - a serial fold (one participant) deposits straight into `total` (the
///   caller's): no accumulator of its own, no merge;
/// - otherwise every participant deposits into its own `zero()`
///   accumulator, `merge`s it into the caller's total once, after its last
///   unit, and drops it on its own thread. (Depositing the caller's share
///   straight into the total saves one accumulator, but the total then
///   passes between threads' malloc arenas, and the serving daemon's peak
///   RSS rose by more than the saving.)
///
/// So live accumulators stay at most `min(threads, units) + 1` however many
/// units there are, and none is allocated per unit. Dense folds — where
/// every item deposits a value for (nearly) every training point — do not
/// come here: [`exact_sums_over_dense`] deposits into one accumulator that
/// all participants share, block by block, so it holds one vector whatever
/// the thread count. A group test deposits a handful of `add(i, x)` at
/// scattered points (the coalition's members); sharing the total would
/// take a lock per deposit, so it keeps a private accumulator per worker
/// and pays the merge instead.
///
/// ### Determinism contract
///
/// Which worker runs which unit, and the merge order, vary from run to
/// run — that is sound *only* because the accumulators merged here are
/// exact ([`ExactVec`] / [`knnshap_numerics::exact::ExactSum`]), whose
/// merge is error-free and therefore order- and grouping-invariant, and
/// because `step` must deposit a pure function of each item index
/// (per-worker state is scratch, never carried from one item into the next
/// one's value). Never route rounded (f64/Neumaier) partials through this
/// helper.
// The fold's inputs are independent knobs; bundling them would only
// rename them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exact_fold<A, W>(
    total: &mut A,
    count: usize,
    threads: usize,
    block: usize,
    zero: impl Fn() -> A + Sync,
    make: impl Fn() -> W + Sync,
    step: impl Fn(&mut W, &mut A, std::ops::Range<usize>) + Sync,
    merge: impl Fn(&mut A, &A) + Sync,
) where
    A: Send,
{
    let block = block.clamp(1, count.max(1));
    let items = |unit: usize| unit * block..((unit + 1) * block).min(count);
    let total = Mutex::new(total);
    knnshap_parallel::par_claim(count.div_ceil(block), threads, |claims| {
        // A participant that finds the counter drained builds nothing.
        let Some(first) = claims.next() else { return };
        let mut state = make();
        let solo = claims.solo();
        let mut drain = |acc: &mut A| {
            for unit in std::iter::once(first).chain(&mut *claims) {
                step(&mut state, acc, items(unit));
            }
        };
        if solo {
            drain(&mut total.lock().expect("fold poisoned"));
        } else {
            let mut own = zero();
            drain(&mut own);
            merge(&mut total.lock().expect("fold poisoned"), &own);
        }
    });
}

/// The claim-unit size of [`exact_fold`] and [`exact_sums_over_dense`]:
/// one unit per serial fold; a few per worker otherwise, capped at
/// [`FOLD_BLOCKS`]. Bitwise-free choice — the accumulators are exact, so
/// the partition (like the deposit order) cannot move a bit; it is picked
/// purely for cost.
pub(crate) fn static_fold_block(count: usize, threads: usize) -> usize {
    let target = if threads <= 1 {
        1
    } else {
        FOLD_BLOCKS.min(threads.saturating_mul(FOLD_BLOCKS_PER_THREAD))
    };
    count.div_ceil(target).max(1)
}

/// The exact fold for fills that touch (nearly) every training point per
/// item — the exact recursions do, one contribution per rank, and so does
/// every Monte Carlo permutation: `fill(j, window, state, scratch)` writes
/// item `j`'s contributions into a zeroed dense `f64` scratch
/// (`scratch[i] = contribution of train point i`). It also gets a window:
/// the absolute item range of the claim unit holding `j` — work batched
/// over several items, such as distance rows computed a query tile at a
/// time, must not reach past it into another worker's unit — and a
/// per-worker state from `state`, built once per worker and reused across
/// every item it claims (ranking buffers, a permutation worker).
///
/// Every participant deposits into **one** [`ExactVec`], shared by all of
/// them: after filling its scratch for one item, it deposits the scratch
/// one [`ExactBlock`] at a time ([`ExactBlock::add_dense`]), each block
/// behind its own `Mutex`. A participant starts at the block matching its
/// first claim unit's place among the units and wraps around, so
/// participants sweep different blocks at any moment and rarely wait on
/// one another. Per-worker state is the ranking buffers (or permutation
/// worker) and one `f64` per training point of scratch; nothing is merged,
/// and the fold holds one accumulator at every thread count.
///
/// Identical bits to a sink per contribution, or to per-worker vectors
/// merged at the end — the deposited values are the same `f64`s and exact
/// accumulation is order-invariant — but the deposits walk each block
/// *sequentially* instead of in rank order, which is what makes
/// per-mutation revaluation in the serving engine (and the cold batch path
/// it must match) cache-friendly: the rank-ordered sink is a random walk
/// over the `n_train` rows of the exact limb planes, the dense pass a
/// linear one.
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
    F: Fn(usize, &std::ops::Range<usize>, &mut T, &mut [f64]) + Sync,
{
    let mut total = ExactVec::zeros(n_train);
    fold_dense_into(&mut total, range, threads, None, state, fill);
    total
}

/// The participant states a dense fold keeps from one call to the next,
/// for a shard folded a chunk at a time
/// ([`crate::estimator::ShardFold`]): each entry is one participant's dense
/// scratch and fill state, taken by a participant on its first claim and
/// put back after its last, so consecutive chunks reuse the ranking
/// buffers, the distance rows already computed and the scratch instead of
/// building them again.
pub(crate) struct Participants<T> {
    states: Mutex<Vec<(Scratch, T)>>,
    /// How far a serial fold's batched work may reach: the shard's end.
    reach: usize,
}

impl<T> Participants<T> {
    pub(crate) fn new(reach: usize) -> Self {
        Self {
            states: Mutex::new(Vec::new()),
            reach,
        }
    }

    /// `count` summed over the kept states.
    pub(crate) fn total(&self, count: impl Fn(&T) -> usize) -> usize {
        let states = self.states.lock().expect("fold poisoned");
        states.iter().map(|(_, st)| count(st)).sum()
    }
}

/// One participant's dense scratch: a value per training point, all zero
/// between items, for a fill to write an item's contributions into. A fill
/// that writes only some rows says which ([`only`](Self::only)), and only
/// those are zeroed again after the deposit.
pub(crate) struct Scratch {
    values: Vec<f64>,
    /// The rows the item wrote, when `sparse`.
    rows: Vec<u32>,
    sparse: bool,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            values: vec![0.0; n],
            rows: Vec::new(),
            sparse: false,
        }
    }

    /// The values to write, one per training point, zero on entry.
    pub(crate) fn values(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Declare that the item wrote only the entries of `rows`: every other
    /// entry is still zero — Theorem 1 writes a ranking's head and leaves
    /// its zero tail (see [`crate::exact_unweighted`]). A head of every row
    /// is zeroed whole, as a dense fill is.
    pub(crate) fn only(&mut self, rows: &[Neighbor]) {
        if rows.len() < self.values.len() {
            self.rows.clear();
            self.rows.extend(rows.iter().map(|nb| nb.index));
            self.sparse = true;
        }
    }

    /// Deposit the item just filled, one [`ExactBlock`] at a time from
    /// block `lead` on, wrapping around (a zero entry costs a branch and
    /// moves no bit), and leave the scratch all zero again.
    fn deposit(&mut self, blocks: &[Mutex<&mut ExactBlock>], lead: usize) {
        let n = self.values.len();
        for b in (lead..blocks.len()).chain(0..lead) {
            let rows = b * ExactVec::BLOCK..((b + 1) * ExactVec::BLOCK).min(n);
            let mut acc = blocks[b].lock().expect("fold poisoned");
            acc.add_dense(&self.values[rows]);
        }
        if self.sparse {
            for &i in &self.rows {
                self.values[i as usize] = 0.0;
            }
        } else {
            self.values.fill(0.0);
        }
        self.sparse = false;
    }
}

/// [`exact_sums_over_dense`] into the accumulator `total`, which the caller
/// built. With `kept`, participants take their state and scratch from it
/// and put them back, and a serial fold's window runs from its unit's
/// start to `kept`'s reach instead of stopping at the unit's end: the
/// items past `range` are the ones the next call folds, on this same
/// state. Without it, each participant builds its own and drops it on its
/// own thread, as a one-off fold does.
pub(crate) fn fold_dense_into<T, M, F>(
    total: &mut ExactVec,
    range: std::ops::Range<usize>,
    threads: usize,
    kept: Option<&Participants<T>>,
    state: M,
    fill: F,
) where
    T: Send,
    M: Fn() -> T + Sync,
    F: Fn(usize, &std::ops::Range<usize>, &mut T, &mut [f64]) + Sync,
{
    fold_scratch_into(total, range, threads, kept, state, |j, window, st, out| {
        fill(j, window, st, out.values())
    })
}

/// [`fold_dense_into`] with the fill handed the [`Scratch`] itself, so it
/// can say which rows it wrote ([`Scratch::only`]), and only those are
/// zeroed again.
pub(crate) fn fold_scratch_into<T, M, F>(
    total: &mut ExactVec,
    range: std::ops::Range<usize>,
    threads: usize,
    kept: Option<&Participants<T>>,
    state: M,
    fill: F,
) where
    T: Send,
    M: Fn() -> T + Sync,
    F: Fn(usize, &std::ops::Range<usize>, &mut T, &mut Scratch) + Sync,
{
    let (count, start) = (range.len(), range.start);
    let block = static_fold_block(count, threads);
    let units = count.div_ceil(block);
    let n = total.len();
    let blocks: Vec<Mutex<&mut ExactBlock>> =
        total.blocks_mut().iter_mut().map(Mutex::new).collect();
    knnshap_parallel::par_claim(units, threads, |claims| {
        // A participant that finds the counter drained builds nothing.
        let Some(first) = claims.next() else { return };
        let taken = kept.and_then(|k| k.states.lock().expect("fold poisoned").pop());
        let (mut scratch, mut st) = taken.unwrap_or_else(|| (Scratch::new(n), state()));
        let reach = kept.filter(|_| claims.solo()).map(|k| k.reach);
        let lead = first * blocks.len() / units;
        for u in std::iter::once(first).chain(&mut *claims) {
            let unit = start + u * block..start + ((u + 1) * block).min(count);
            let window = unit.start..reach.unwrap_or(unit.end);
            for j in unit {
                fill(j, &window, &mut st, &mut scratch);
                scratch.deposit(&blocks, lead);
            }
        }
        if let Some(k) = kept {
            k.states.lock().expect("fold poisoned").push((scratch, st));
        }
    });
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
    merge_partials_with_threads(parts, 1)
}

/// [`merge_partials`], finalizing on `threads` workers: the same bits at
/// every thread count.
pub fn merge_partials_with_threads(
    parts: &[ShardPartial],
    threads: usize,
) -> Result<MergedValuation, ShardError> {
    let first = parts.first().ok_or(ShardError::Empty)?;
    let m0 = &first.meta;
    for p in parts {
        first.check_same_job(p)?;
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

    let group_testing = match m0.kind {
        ShardKind::GroupTesting => {
            let grand = *m0.extras.first().ok_or_else(|| {
                ShardError::Incompatible("group-testing shards missing ν(I)".into())
            })?;
            if aux.len() != 1 {
                return Err(ShardError::Incompatible(
                    "group-testing shards need exactly one shared accumulator".into(),
                ));
            }
            Some((grand, aux.value(0)))
        }
        _ => None,
    };
    Ok(MergedValuation {
        values: finalize(&sums, m0.total_items, group_testing, threads),
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

/// The job fingerprint of a stream family (Monte Carlo, group testing): its
/// domain, the seed, and the content hash of the game it samples.
pub(crate) fn stream_fingerprint(domain: &str, seed: u64, content: u64) -> u64 {
    Fingerprint::new(domain).u64(seed).u64(content).finish()
}

/// Stable encoding of a weight function for fingerprinting.
pub(crate) fn weight_code(w: WeightFn) -> (u64, f64) {
    let tag = match w {
        WeightFn::Uniform => 0,
        WeightFn::InverseDistance { .. } => 1,
        WeightFn::Exponential { .. } => 2,
    };
    (tag, w.param())
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

    /// Each kind's header code and name read one table, both ways, and the
    /// codes are the ones shard files have always carried.
    #[test]
    fn kind_codes_and_names_round_trip() {
        for (code, (kind, name)) in (0u8..).zip(KINDS) {
            assert_eq!((kind.code(), kind.name()), (code, name));
            assert_eq!(ShardKind::from_code(code), Some(kind));
            assert_eq!(ShardKind::from_name(name), Some(kind));
        }
        assert_eq!(ShardKind::from_code(KINDS.len() as u8), None);
        let codes = [
            ShardKind::ExactClass,
            ShardKind::ExactReg,
            ShardKind::Truncated,
            ShardKind::McBaseline,
            ShardKind::McImproved,
            ShardKind::GroupTesting,
        ]
        .map(ShardKind::code);
        assert_eq!(codes, [0, 1, 2, 3, 4, 5]);
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
    fn from_bytes_allocation_stays_bounded_for_hand_built_payloads() {
        // `n` zero records plus one record spanning the whole 68-limb
        // register: the flat accumulator keeps at most 8 limbs per point
        // (its width cap) and spills the outlier into its own window.
        const WIDTH_CAP: usize = 8;
        const LIMBS: usize = 68;
        let n = 4096;
        let mut buf = parts(1)[0].to_bytes()[..64].to_vec();
        buf[24..32].copy_from_slice(&(n as u64 + 1).to_le_bytes());
        buf.resize(64 + 5 * n, 0);
        let full = buf.len();
        buf.extend_from_slice(&[1, 0, 0, LIMBS as u8, 0]);
        for l in 0..LIMBS as u32 {
            buf.extend_from_slice(&(l + 1).to_le_bytes());
        }
        let p = ShardPartial::from_bytes(&buf).expect("well-formed payload");
        assert_eq!(p.sums.len(), n + 1);
        assert!(
            p.sums.window_limbs() <= (n + 1) * WIDTH_CAP + LIMBS,
            "window_limbs = {}",
            p.sums.window_limbs()
        );
        assert!((0..n).all(|i| p.sums.value(i) == 0.0));
        assert!(p.sums.value(n) > 1e300);
        assert_eq!(p.to_bytes(), buf, "re-encodes byte for byte");

        // Every truncation of the outlier record, and a bad sign byte
        // anywhere, is a typed error — never a panic.
        for cut in full..buf.len() {
            assert!(
                matches!(
                    ShardPartial::from_bytes(&buf[..cut]).unwrap_err(),
                    ShardError::Malformed(_)
                ),
                "cut at {cut}"
            );
        }
        for (at, byte) in [(64, 0x80u8), (64 + 5 * (n / 2), 0x03), (full, 0x7F)] {
            let mut bad = buf.clone();
            bad[at] = byte;
            assert!(
                matches!(
                    ShardPartial::from_bytes(&bad).unwrap_err(),
                    ShardError::Malformed(_)
                ),
                "sign byte {byte:#x} at {at}"
            );
        }
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

    /// Every item is stepped exactly once, inside a unit of at most `block`
    /// items; worker state and accumulators are built once per
    /// participating worker, never per claim unit; and a serial fold builds
    /// one state, deposits straight into the caller's total and merges
    /// nothing.
    #[test]
    fn exact_fold_builds_state_once_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for count in [1usize, 5, 7, 32, 33, 101] {
            for block in [1usize, 3, 4, 5, 8, 200] {
                for threads in [1usize, 2, 3, 8] {
                    let (makes, zeros, merges) = (
                        AtomicUsize::new(0),
                        AtomicUsize::new(0),
                        AtomicUsize::new(0),
                    );
                    let mut seen = vec![0usize; count];
                    exact_fold(
                        &mut seen,
                        count,
                        threads,
                        block,
                        || {
                            zeros.fetch_add(1, Ordering::Relaxed);
                            vec![0usize; count]
                        },
                        || makes.fetch_add(1, Ordering::Relaxed),
                        |_, acc, items| {
                            assert!(items.len() <= block && items.start % block == 0);
                            items.for_each(|j| acc[j] += 1);
                        },
                        |total, own| {
                            merges.fetch_add(1, Ordering::Relaxed);
                            total.iter_mut().zip(own).for_each(|(t, o)| *t += o);
                        },
                    );
                    let what = format!("count {count}, block {block}, threads {threads}");
                    assert!(seen.iter().all(|&n| n == 1), "{what}: {seen:?}");
                    let (makes, zeros, merges) =
                        (makes.into_inner(), zeros.into_inner(), merges.into_inner());
                    let units = count.div_ceil(block);
                    assert!(
                        makes >= 1 && makes <= threads.min(units),
                        "{what}: {makes} makes"
                    );
                    // One accumulator per worker that merges into the total.
                    assert_eq!(zeros, merges, "{what}");
                    let pool = knnshap_parallel::ThreadPool::global().threads();
                    if threads.min(pool).min(units) == 1 {
                        assert_eq!((makes, merges), (1, 0), "{what}");
                    } else {
                        assert_eq!(merges, makes, "{what}");
                    }
                }
            }
        }
    }

    /// The dense fold keeps the static partition (so a fold over few items
    /// still spreads over `min(threads, items)` workers), builds each
    /// worker's state once, hands `fill` the claim unit holding each item,
    /// and deposits every item into the caller's one accumulator — at
    /// every thread count, over lengths of one and several exact blocks.
    #[test]
    fn dense_fold_builds_state_once_per_worker() {
        /// A worker's state: the units it saw, logged when the worker drops it.
        struct Seen<'a> {
            units: Vec<std::ops::Range<usize>>,
            log: &'a Mutex<Vec<Vec<std::ops::Range<usize>>>>,
        }
        impl Drop for Seen<'_> {
            fn drop(&mut self) {
                let units = std::mem::take(&mut self.units);
                self.log.lock().unwrap().push(units);
            }
        }
        let ranges = [
            (0usize, 1usize),
            (3, 7),
            (3, 10),
            (0, 32),
            (5, 38),
            (2, 103),
        ];
        for n_train in [3, 2 * ExactVec::BLOCK + 5] {
            for (lo, hi) in ranges {
                for threads in [1usize, 2, 3, 8] {
                    let log = Mutex::new(Vec::new());
                    let mut sums = ExactVec::zeros(n_train);
                    fold_dense_into(
                        &mut sums,
                        lo..hi,
                        threads,
                        None,
                        || Seen {
                            units: Vec::new(),
                            log: &log,
                        },
                        |j, unit, st, out| {
                            assert!(unit.contains(&j));
                            if st.units.last() != Some(unit) {
                                st.units.push(unit.clone());
                            }
                            out[j % 3] = 1.0;
                            out[n_train - 1 - j % 3] += 0.5;
                        },
                    );
                    let what = format!("{lo}..{hi} at {threads} threads, n_train {n_train}");
                    assert_eq!(
                        sums.values().iter().sum::<f64>(),
                        1.5 * (hi - lo) as f64,
                        "{what}"
                    );
                    let log = log.into_inner().unwrap();
                    let block = static_fold_block(hi - lo, threads);
                    let units = (hi - lo).div_ceil(block);
                    assert!(
                        !log.is_empty() && log.len() <= threads.min(units),
                        "{what}: {} states",
                        log.len()
                    );
                    if threads == 1 {
                        assert_eq!(log.len(), 1, "{what}");
                    }
                    let mut all: Vec<_> = log.concat();
                    all.sort_unstable_by_key(|u| u.start);
                    let want: Vec<_> = (lo..hi)
                        .step_by(block)
                        .map(|a| a..(a + block).min(hi))
                        .collect();
                    assert_eq!(all, want, "{what}");
                }
            }
        }
    }

    /// A fold carried over consecutive chunks on kept participants builds
    /// each state once for the whole shard — one at 1 thread — lets a
    /// serial fold's window reach the shard's end, and deposits exactly
    /// what one fold over the whole range deposits, empty chunks included.
    #[test]
    fn kept_participants_carry_state_across_chunks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n_train = 2 * ExactVec::BLOCK + 3;
        let fill = |j: usize, out: &mut [f64]| {
            out[j % n_train] = 1.0 + j as f64;
            out[(j * 7 + 2) % n_train] -= 0.25;
        };
        let bytes = |v: &ExactVec| {
            let mut out = Vec::new();
            v.encode_into(&mut out);
            out
        };
        let whole = exact_sums_over_dense(n_train, 3..20, 1, || (), |j, _, _, out| fill(j, out));
        for threads in [1usize, 2, 3, 8] {
            let built = AtomicUsize::new(0);
            let kept = Participants::new(20);
            let mut sums = ExactVec::zeros(n_train);
            for chunk in [3..3, 3..7, 7..8, 8..8, 8..20] {
                fold_dense_into(
                    &mut sums,
                    chunk,
                    threads,
                    Some(&kept),
                    || built.fetch_add(1, Ordering::Relaxed),
                    |j, window, _, out| {
                        assert!(window.contains(&j), "{j} outside {window:?}");
                        if threads == 1 {
                            assert_eq!(window.end, 20, "a serial window reaches the end");
                        }
                        fill(j, out);
                    },
                );
            }
            let built = built.into_inner();
            assert!(
                (1..=threads).contains(&built),
                "{threads} threads: {built} states"
            );
            if threads == 1 {
                assert_eq!(built, 1);
            }
            assert_eq!(kept.states.lock().unwrap().len(), built, "every state kept");
            assert!(bytes(&sums) == bytes(&whole), "{threads} threads");
        }
    }

    proptest::proptest! {
        /// The parallel finalize rounds every point exactly as the serial
        /// loop does, at 1/2/3/8 threads: lengths below, at and past whole
        /// chunks, spilled points (deposits too far apart in magnitude for
        /// the shared limb window) and special points (±inf, NaN).
        #[test]
        fn finalize_mean_is_the_serial_rounding_at_every_thread_count(
            chunks in 0usize..3,
            offset in 0usize..64,
            seed in proptest::prelude::any::<u64>(),
            items in 1u64..50,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let n = (chunks * FINALIZE_CHUNK + offset).max(1);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sums = ExactVec::zeros(n);
            let dense: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            sums.add_dense(&dense);
            let odd = [1e300, -1e-300, 3e-310, 1e200, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            for _ in 0..rng.gen_range(0..12) {
                sums.add(rng.gen_range(0..n), odd[rng.gen_range(0..odd.len())]);
            }
            let d = items as f64;
            let serial: Vec<u64> = (0..n).map(|i| (sums.value(i) / d).to_bits()).collect();
            for threads in [1usize, 2, 3, 8] {
                let got = finalize_mean(&sums, items, threads);
                let bits: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
                proptest::prop_assert!(bits == serial, "n={} threads={}", n, threads);
            }
        }
    }
}
