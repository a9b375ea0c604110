//! Precomputed KNN-graph artifacts: the `KNNGRAPH` wire format.
//!
//! The paper's complexity headline — exact KNN Shapley in O(N log N) per test
//! point (Theorem 1) — counts *valuation* work, not the O(N · N_test · d)
//! distance pass every estimator in this repo used to pay on each run. A
//! `KNNGRAPH` file cuts the pipeline at the natural seam: it stores, for
//! every test point, the complete training-set ranking in the exact
//! tie-broken order [`argsort_by_distance`](crate::neighbors::argsort_by_distance)
//! produces (ascending
//! `(distance, index)` under squared L2), so any estimator can start from
//! rank lists and skip the distance pass entirely. Build once with
//! `knnshap build-graph` (which uses the blocked kernel in [`crate::block`]),
//! then feed the artifact to `value --graph`, `shard`, `run-job` or `serve`.
//!
//! ### Integrity contract (mirrors `KNNSHARD`)
//!
//! * **Versioned strict decode** — magic, version and metric are checked
//!   first; the expected payload size is computed with checked arithmetic
//!   from the header counts and compared against the actual buffer *before
//!   any allocation*, so a corrupt header cannot request an absurd
//!   allocation; trailing bytes are rejected.
//! * **Dataset-content fingerprints** — the header stores feature-content
//!   hashes of the exact train/test matrices the graph was built from
//!   ([`hash_features`]); loaders call [`KnnGraph::validate_against`] and
//!   refuse a graph whose datasets drifted. (Feature-only hashes, so one
//!   graph serves classification and regression over the same features.)
//! * **Structural validation** — every rank list must be a permutation of
//!   `0..n_train` in strictly ascending `(distance, index)` order with
//!   finite distances; [`KnnGraph::from_bytes`] re-checks all of it, so a
//!   hand-corrupted payload cannot smuggle a non-argsort order into the
//!   estimators.
//!
//! Because the stored distances are bitwise-identical to what
//! [`squared_l2`](crate::distance::squared_l2) computes (the blocked kernel
//! is bitwise-neutral), graph-backed valuation is bitwise-identical to the
//! brute-force path — including weighted estimators that take `sqrt` of
//! these entries. `tests/graph_determinism.rs` proves this across estimator
//! families × shard counts × thread counts.

use crate::block::blocked_squared_l2;
use crate::neighbors::{cmp_dist_idx, rank_distances, Neighbor};
use knnshap_datasets::Features;
use knnshap_numerics::fingerprint::Fingerprint;

/// On-disk format version written/required by
/// [`KnnGraph::to_bytes`]/[`from_bytes`](KnnGraph::from_bytes).
pub const GRAPH_FORMAT_VERSION: u32 = 1;

/// Magic prefix of every graph file.
pub const GRAPH_MAGIC: [u8; 8] = *b"KNNGRAPH";

/// Metric code stored in the header. Only squared L2 (code 0) is defined in
/// format version 1 — it is the metric every estimator in the workspace
/// ranks by.
const METRIC_SQUARED_L2: u8 = 0;

/// Header: magic (8) + version (4) + metric (1) + reserved (3) + dim (4)
/// + n_train (8) + n_test (8) + train_hash (8) + test_hash (8).
const HEADER_LEN: usize = 52;

/// Bytes per rank-list entry: index `u32` LE + distance `f32` bits LE.
const ENTRY_LEN: usize = 8;

/// Content hash of a feature matrix (dimension + every value's bits).
///
/// Deliberately label-free: the graph depends only on geometry, so one
/// artifact serves classification and regression over the same features.
pub fn hash_features(f: &Features) -> u64 {
    Fingerprint::new("knngraph-features")
        .u64(f.dim() as u64)
        .f32s(f.as_slice())
        .finish()
}

/// Errors from decoding or validating a graph artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Magic prefix is not `KNNGRAPH`.
    BadMagic,
    /// Header version differs from [`GRAPH_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// Unknown metric code.
    UnsupportedMetric(u8),
    /// Reserved header bytes are non-zero.
    ReservedNonZero,
    /// Header counts overflow the expected-size computation.
    Overflow,
    /// Buffer length does not equal the header-implied length (covers both
    /// truncated payloads and trailing garbage; checked before allocating).
    SizeMismatch { expected: u64, actual: u64 },
    /// A rank list is not strictly ascending in `(distance, index)`.
    NotAscending { row: usize, pos: usize },
    /// A stored distance is NaN or infinite.
    NonFiniteDistance { row: usize, pos: usize },
    /// A neighbor index is `>= n_train`.
    IndexOutOfRange { row: usize, pos: usize },
    /// A rank list repeats (and therefore also omits) a training index.
    NotPermutation { row: usize },
    /// The artifact's dataset fingerprints do not match the datasets the
    /// caller is valuing (`which` names the offending matrix).
    DatasetMismatch { which: &'static str },
    /// Dataset shape differs from the header (dimension or row counts).
    ShapeMismatch { which: &'static str },
    /// Filesystem error from [`KnnGraph::load`]/[`save`](KnnGraph::save).
    Io(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Truncated => write!(f, "graph file truncated (shorter than header)"),
            GraphError::BadMagic => write!(f, "not a KNNGRAPH file (bad magic)"),
            GraphError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported KNNGRAPH version {v} (expected {GRAPH_FORMAT_VERSION})"
                )
            }
            GraphError::UnsupportedMetric(m) => write!(f, "unsupported metric code {m}"),
            GraphError::ReservedNonZero => write!(f, "reserved header bytes are non-zero"),
            GraphError::Overflow => write!(f, "header counts overflow the expected file size"),
            GraphError::SizeMismatch { expected, actual } => write!(
                f,
                "file size {actual} does not match header-implied size {expected}"
            ),
            GraphError::NotAscending { row, pos } => write!(
                f,
                "rank list {row} is not strictly ascending in (distance, index) at position {pos}"
            ),
            GraphError::NonFiniteDistance { row, pos } => {
                write!(
                    f,
                    "rank list {row} has a non-finite distance at position {pos}"
                )
            }
            GraphError::IndexOutOfRange { row, pos } => {
                write!(
                    f,
                    "rank list {row} has an out-of-range index at position {pos}"
                )
            }
            GraphError::NotPermutation { row } => {
                write!(
                    f,
                    "rank list {row} is not a permutation of the training indices"
                )
            }
            GraphError::DatasetMismatch { which } => write!(
                f,
                "graph was built from a different {which} set (content fingerprint mismatch)"
            ),
            GraphError::ShapeMismatch { which } => {
                write!(f, "graph {which} shape does not match the supplied dataset")
            }
            GraphError::Io(e) => write!(f, "graph i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A precomputed KNN graph: for every test point, the complete training-set
/// ranking in ascending `(squared-L2 distance, index)` order — byte-for-byte
/// the list [`argsort_by_distance`] would produce.
///
/// [`argsort_by_distance`]: crate::neighbors::argsort_by_distance
#[derive(Debug, Clone, PartialEq)]
pub struct KnnGraph {
    dim: u32,
    n_train: u64,
    train_hash: u64,
    test_hash: u64,
    lists: Vec<Vec<Neighbor>>,
}

impl KnnGraph {
    /// Build the graph with the blocked kernel ([`blocked_squared_l2`]) and
    /// the shared ranking ([`Ranker`](crate::neighbors::Ranker)) of each
    /// distance row.
    ///
    /// The kernel's rows are bitwise-identical to the per-pair distances and
    /// the ranking is a total order, so every list is exactly the ranking of
    /// [`argsort_by_distance`](crate::neighbors::argsort_by_distance): the
    /// result is bitwise-independent of tiles and `threads`.
    pub fn build(train: &Features, test: &Features, threads: usize) -> KnnGraph {
        assert_eq!(train.dim(), test.dim(), "train/test dimension mismatch");
        let rows = blocked_squared_l2(train, test, threads);
        let lists: Vec<Vec<Neighbor>> =
            knnshap_parallel::par_map(rows.len(), threads, |j| rank_distances(&rows[j]));
        KnnGraph {
            dim: train.dim() as u32,
            n_train: train.len() as u64,
            train_hash: hash_features(train),
            test_hash: hash_features(test),
            lists,
        }
    }

    /// Feature dimension the graph was built over.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Number of training points ranked in every list.
    pub fn n_train(&self) -> usize {
        self.n_train as usize
    }

    /// Number of test points (rank lists).
    pub fn n_test(&self) -> usize {
        self.lists.len()
    }

    /// Content hash of the training features the graph was built from.
    pub fn train_hash(&self) -> u64 {
        self.train_hash
    }

    /// Content hash of the test features the graph was built from.
    pub fn test_hash(&self) -> u64 {
        self.test_hash
    }

    /// The rank list of test point `j` (ascending `(distance, index)`).
    pub fn list(&self, j: usize) -> &[Neighbor] {
        &self.lists[j]
    }

    /// All rank lists, in test-point order.
    pub fn lists(&self) -> &[Vec<Neighbor>] {
        &self.lists
    }

    /// Refuse the graph unless it was built from exactly these feature
    /// matrices (shape check, then content-fingerprint check).
    pub fn validate_against(&self, train: &Features, test: &Features) -> Result<(), GraphError> {
        if train.dim() != self.dim() || train.len() != self.n_train() {
            return Err(GraphError::ShapeMismatch { which: "train" });
        }
        if test.dim() != self.dim() || test.len() != self.n_test() {
            return Err(GraphError::ShapeMismatch { which: "test" });
        }
        if hash_features(train) != self.train_hash {
            return Err(GraphError::DatasetMismatch { which: "train" });
        }
        if hash_features(test) != self.test_hash {
            return Err(GraphError::DatasetMismatch { which: "test" });
        }
        Ok(())
    }

    /// Canonical serialization: fixed header, then the rank lists in test
    /// order, each entry as `(index u32 LE, distance f32 bits LE)`. The
    /// encoding has no optional parts, so equal graphs produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n_test = self.lists.len() as u64;
        let payload = (self.n_train as usize) * ENTRY_LEN * (n_test as usize);
        let mut out = Vec::with_capacity(HEADER_LEN + payload);
        out.extend_from_slice(&GRAPH_MAGIC);
        out.extend_from_slice(&GRAPH_FORMAT_VERSION.to_le_bytes());
        out.push(METRIC_SQUARED_L2);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&self.dim.to_le_bytes());
        out.extend_from_slice(&self.n_train.to_le_bytes());
        out.extend_from_slice(&n_test.to_le_bytes());
        out.extend_from_slice(&self.train_hash.to_le_bytes());
        out.extend_from_slice(&self.test_hash.to_le_bytes());
        for list in &self.lists {
            for n in list {
                out.extend_from_slice(&n.index.to_le_bytes());
                out.extend_from_slice(&n.dist.to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Strict decode. Validates the header, checks the exact expected length
    /// *before allocating anything* (checked arithmetic, so oversized header
    /// counts fail cleanly), then re-validates every rank list: finite
    /// distances, strictly ascending `(distance, index)`, and a permutation
    /// of `0..n_train`.
    pub fn from_bytes(bytes: &[u8]) -> Result<KnnGraph, GraphError> {
        if bytes.len() < HEADER_LEN {
            return Err(GraphError::Truncated);
        }
        if bytes[..8] != GRAPH_MAGIC {
            return Err(GraphError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != GRAPH_FORMAT_VERSION {
            return Err(GraphError::UnsupportedVersion(version));
        }
        if bytes[12] != METRIC_SQUARED_L2 {
            return Err(GraphError::UnsupportedMetric(bytes[12]));
        }
        if bytes[13..16] != [0u8; 3] {
            return Err(GraphError::ReservedNonZero);
        }
        let dim = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
        let n_train = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let n_test = u64::from_le_bytes(bytes[28..36].try_into().unwrap());
        let train_hash = u64::from_le_bytes(bytes[36..44].try_into().unwrap());
        let test_hash = u64::from_le_bytes(bytes[44..52].try_into().unwrap());

        // Size gate BEFORE any allocation: a corrupt header declaring 2^60
        // rank entries dies here on checked arithmetic / length comparison,
        // never in the allocator.
        let entries = n_train.checked_mul(n_test).ok_or(GraphError::Overflow)?;
        let payload = entries
            .checked_mul(ENTRY_LEN as u64)
            .ok_or(GraphError::Overflow)?;
        let expected = payload
            .checked_add(HEADER_LEN as u64)
            .ok_or(GraphError::Overflow)?;
        let actual = bytes.len() as u64;
        if expected != actual {
            return Err(GraphError::SizeMismatch { expected, actual });
        }

        let n_train_us = n_train as usize;
        let n_test_us = n_test as usize;
        let mut lists: Vec<Vec<Neighbor>> = Vec::with_capacity(n_test_us);
        let mut seen = vec![false; n_train_us];
        let mut off = HEADER_LEN;
        for row in 0..n_test_us {
            let mut list: Vec<Neighbor> = Vec::with_capacity(n_train_us);
            seen.iter_mut().for_each(|s| *s = false);
            for pos in 0..n_train_us {
                let index = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
                let dist = f32::from_bits(u32::from_le_bytes(
                    bytes[off + 4..off + 8].try_into().unwrap(),
                ));
                off += ENTRY_LEN;
                if !dist.is_finite() {
                    return Err(GraphError::NonFiniteDistance { row, pos });
                }
                if (index as usize) >= n_train_us {
                    return Err(GraphError::IndexOutOfRange { row, pos });
                }
                if seen[index as usize] {
                    return Err(GraphError::NotPermutation { row });
                }
                seen[index as usize] = true;
                let n = Neighbor { index, dist };
                if let Some(prev) = list.last() {
                    if !cmp_dist_idx(prev, &n).is_lt() {
                        return Err(GraphError::NotAscending { row, pos });
                    }
                }
                list.push(n);
            }
            lists.push(list);
        }
        Ok(KnnGraph {
            dim,
            n_train,
            train_hash,
            test_hash,
            lists,
        })
    }

    /// Write the canonical bytes to `path`.
    pub fn save(&self, path: &std::path::Path) -> Result<(), GraphError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| GraphError::Io(e.to_string()))
    }

    /// Read and strictly decode `path`.
    pub fn load(path: &std::path::Path) -> Result<KnnGraph, GraphError> {
        let bytes = std::fs::read(path).map_err(|e| GraphError::Io(e.to_string()))?;
        KnnGraph::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;
    use crate::neighbors::argsort_by_distance;

    fn features(n: usize, dim: usize, seed: u32) -> Features {
        let mut f = Features::with_capacity(n, dim);
        for i in 0..n {
            let row: Vec<f32> = (0..dim)
                .map(|j| {
                    let x = (i * dim + j) as f32 + seed as f32 * 0.43;
                    (x * 0.618_034).sin() * 2.5
                })
                .collect();
            f.push_row(&row);
        }
        f
    }

    fn graph() -> (Features, Features, KnnGraph) {
        let train = features(41, 5, 1);
        let test = features(7, 5, 2);
        let g = KnnGraph::build(&train, &test, 2);
        (train, test, g)
    }

    #[test]
    fn build_matches_argsort_bitwise() {
        let (train, test, g) = graph();
        for j in 0..test.len() {
            let want = argsort_by_distance(&train, test.row(j), Metric::SquaredL2);
            let got = g.list(j);
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.index, b.index, "row {j}");
                assert_eq!(a.dist.to_bits(), b.dist.to_bits(), "row {j}");
            }
        }
    }

    #[test]
    fn duplicate_points_tie_break_by_index() {
        // All-identical training points: every distance ties; the ranking
        // must be 0..n by the index tiebreak, same as argsort.
        let train = Features::new(vec![1.0; 12], 2);
        let test = Features::new(vec![0.5, -0.5], 2);
        let g = KnnGraph::build(&train, &test, 3);
        let idx: Vec<u32> = g.list(0).iter().map(|n| n.index).collect();
        assert_eq!(idx, (0..6).collect::<Vec<u32>>());
    }

    #[test]
    fn round_trip_is_canonical() {
        let (_, _, g) = graph();
        let bytes = g.to_bytes();
        let g2 = KnnGraph::from_bytes(&bytes).unwrap();
        assert_eq!(g2.to_bytes(), bytes);
        assert_eq!(g2.n_train(), g.n_train());
        assert_eq!(g2.n_test(), g.n_test());
        assert_eq!(g2.train_hash(), g.train_hash());
    }

    #[test]
    fn validate_against_accepts_builders_and_refuses_drift() {
        let (train, test, g) = graph();
        assert!(g.validate_against(&train, &test).is_ok());

        // One bit of feature drift must be refused.
        let mut drifted = train.clone();
        drifted.row_mut(3)[1] += 1e-3;
        assert_eq!(
            g.validate_against(&drifted, &test),
            Err(GraphError::DatasetMismatch { which: "train" })
        );
        let mut tdrift = test.clone();
        tdrift.row_mut(0)[0] = -9.0;
        assert_eq!(
            g.validate_against(&train, &tdrift),
            Err(GraphError::DatasetMismatch { which: "test" })
        );
        // Shape mismatch reported before fingerprints.
        let short = features(40, 5, 1);
        assert_eq!(
            g.validate_against(&short, &test),
            Err(GraphError::ShapeMismatch { which: "train" })
        );
    }

    #[test]
    fn truncated_header_rejected() {
        let (_, _, g) = graph();
        let bytes = g.to_bytes();
        for cut in [0usize, 4, 8, 16, HEADER_LEN - 1] {
            assert_eq!(
                KnnGraph::from_bytes(&bytes[..cut]),
                Err(GraphError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn truncated_payload_and_trailing_bytes_rejected() {
        let (_, _, g) = graph();
        let bytes = g.to_bytes();
        let short = &bytes[..bytes.len() - ENTRY_LEN];
        assert!(matches!(
            KnnGraph::from_bytes(short),
            Err(GraphError::SizeMismatch { .. })
        ));
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            KnnGraph::from_bytes(&long),
            Err(GraphError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_version_metric_reserved_rejected() {
        let (_, _, g) = graph();
        let bytes = g.to_bytes();

        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert_eq!(KnnGraph::from_bytes(&b), Err(GraphError::BadMagic));

        let mut b = bytes.clone();
        b[8] = 99;
        assert_eq!(
            KnnGraph::from_bytes(&b),
            Err(GraphError::UnsupportedVersion(99))
        );

        let mut b = bytes.clone();
        b[12] = 7;
        assert_eq!(
            KnnGraph::from_bytes(&b),
            Err(GraphError::UnsupportedMetric(7))
        );

        let mut b = bytes.clone();
        b[14] = 1;
        assert_eq!(KnnGraph::from_bytes(&b), Err(GraphError::ReservedNonZero));
    }

    #[test]
    fn oversized_counts_rejected_before_allocation() {
        let (_, _, g) = graph();
        let mut bytes = g.to_bytes();
        // Declare ~10¹² training points; the size gate must reject long
        // before any Vec::with_capacity sees the number.
        bytes[20..28].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            KnnGraph::from_bytes(&bytes),
            Err(GraphError::SizeMismatch { .. })
        ));
        // And counts whose product overflows u64 entirely.
        bytes[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        bytes[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(KnnGraph::from_bytes(&bytes), Err(GraphError::Overflow));
    }

    #[test]
    fn corrupt_payload_rejected() {
        let (_, _, g) = graph();
        let bytes = g.to_bytes();
        let n_train = g.n_train() as u32;

        // Out-of-range index.
        let mut b = bytes.clone();
        b[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&n_train.to_le_bytes());
        assert_eq!(
            KnnGraph::from_bytes(&b),
            Err(GraphError::IndexOutOfRange { row: 0, pos: 0 })
        );

        // Duplicate index (copy entry 0 over entry 1) breaks both ascending
        // order and the permutation property; ascending is checked per-entry.
        let mut b = bytes.clone();
        let (e0, e1) = (HEADER_LEN, HEADER_LEN + ENTRY_LEN);
        let entry0: Vec<u8> = b[e0..e0 + ENTRY_LEN].to_vec();
        b[e1..e1 + ENTRY_LEN].copy_from_slice(&entry0);
        assert!(matches!(
            KnnGraph::from_bytes(&b),
            Err(GraphError::NotPermutation { row: 0 } | GraphError::NotAscending { row: 0, pos: 1 })
        ));

        // NaN distance.
        let mut b = bytes.clone();
        b[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&f32::NAN.to_bits().to_le_bytes());
        assert_eq!(
            KnnGraph::from_bytes(&b),
            Err(GraphError::NonFiniteDistance { row: 0, pos: 0 })
        );

        // Descending distances (swap the first two whole entries).
        let mut b = bytes.clone();
        let (head, rest) = b[HEADER_LEN..].split_at_mut(ENTRY_LEN);
        head.swap_with_slice(&mut rest[..ENTRY_LEN]);
        assert!(matches!(
            KnnGraph::from_bytes(&b),
            Err(GraphError::NotAscending { row: 0, .. })
        ));
    }

    #[test]
    fn save_load_round_trip() {
        let (train, test, g) = graph();
        let dir = std::env::temp_dir().join("knngraph-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.knngraph");
        g.save(&path).unwrap();
        let loaded = KnnGraph::load(&path).unwrap();
        assert!(loaded.validate_against(&train, &test).is_ok());
        assert_eq!(loaded.to_bytes(), g.to_bytes());
        std::fs::remove_file(&path).ok();
    }
}
