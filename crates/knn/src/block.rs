//! Query-lane distance kernel: one train row against a tile of queries.
//!
//! Every full ranking (Theorem 1 needs one per test point, Algorithm 1
//! line 2) starts with an O(N·d) distance pass. That pass is
//! **compute-bound, not memory-bound**: on a 2-core Xeon, 32 queries ×
//! 3·10⁵ rows × d = 32 took 0.250 s streamed from DRAM, and the same pairs
//! against a cache-resident 1024-row slice took 0.250 s too. Re-using a
//! cached train tile across queries (the cache-tiled kernel this module
//! used to hold) therefore gained only ×1.2. What pays is running *pairs*
//! in parallel lanes: a [`QueryTile`] holds up to [`QUERY_TILE`] queries
//! transposed to `[[f32; QUERY_TILE]; d]`, so each SIMD lane is one
//! (query, train) pair and one train row is compared with every query of
//! the tile at once — opendataval's "crosswise per batch" distance, in
//! portable Rust that LLVM vectorizes across queries (no intrinsics, no
//! `target_feature`, no runtime dispatch).
//!
//! ### Bitwise neutrality
//!
//! Lane `l` of [`QueryTile::squared_l2`] runs exactly
//! [`squared_l2`](crate::distance::squared_l2)'s per-pair arithmetic on query `l`:
//! `query − train`, lane accumulator `a_{j mod 4}` over the dims below
//! `4⌊d/4⌋` in increasing `j`, a tail from `0.0`, and the combine
//! `(((a0 + a1) + a2) + a3) + tail`. Vectorizing *across* lanes never
//! reassociates within a pair, and Rust never contracts to FMA, so every
//! distance is bit-for-bit the per-pair one, whatever the tile or thread
//! count. The differential proptest in `tests/proptests.rs` pins it.

use crate::neighbors::{rank_distances, Neighbor};
use knnshap_datasets::Features;
use std::ops::Range;

/// Queries per tile: one 128-bit SIMD register of `f32` lanes, the width
/// the baseline x86-64 and aarch64 targets vectorize to without any
/// `target_feature`. Eight lanes ran full tiles about 20% faster on a
/// 2-core Xeon, but a 32-query job at nproc = 2 folds 4-query blocks, so
/// half of every 8-lane pass would be padding there, and a one-query run
/// would pay for eight lanes instead of four.
pub const QUERY_TILE: usize = 4;

/// Up to [`QUERY_TILE`] query rows, transposed dim-major: entry `j` holds
/// dimension `j` of every query, lane `l` belonging to query `l`. Lanes
/// past the tile's queries are zero and their distances are never read.
#[derive(Debug, Clone)]
pub struct QueryTile {
    lanes: Vec<[f32; QUERY_TILE]>,
    len: usize,
}

impl QueryTile {
    /// The tile of `queries` rows `range` (1 to [`QUERY_TILE`] rows).
    pub fn new(queries: &Features, range: Range<usize>) -> Self {
        assert!(
            (1..=QUERY_TILE).contains(&range.len()),
            "a query tile holds 1 to {QUERY_TILE} queries, got {}",
            range.len()
        );
        let mut lanes = vec![[0.0f32; QUERY_TILE]; queries.dim()];
        for (lane, q) in range.clone().enumerate() {
            for (slot, &x) in lanes.iter_mut().zip(queries.row(q)) {
                slot[lane] = x;
            }
        }
        Self {
            lanes,
            len: range.len(),
        }
    }

    /// `squared_l2(query l, row)` in lane `l`, bit for bit.
    #[inline]
    pub fn squared_l2(&self, row: &[f32]) -> [f32; QUERY_TILE] {
        assert_eq!(
            row.len(),
            self.lanes.len(),
            "train/query dimension mismatch"
        );
        let body = row.len() / 4 * 4;
        let mut acc = [[0.0f32; QUERY_TILE]; 4];
        for (q4, t4) in self.lanes[..body]
            .chunks_exact(4)
            .zip(row[..body].chunks_exact(4))
        {
            for l in 0..4 {
                for lane in 0..QUERY_TILE {
                    let d = q4[l][lane] - t4[l];
                    acc[l][lane] += d * d;
                }
            }
        }
        let mut tail = [0.0f32; QUERY_TILE];
        for (q, &t) in self.lanes[body..].iter().zip(&row[body..]) {
            for lane in 0..QUERY_TILE {
                let d = q[lane] - t;
                tail[lane] += d * d;
            }
        }
        std::array::from_fn(|lane| {
            acc[0][lane] + acc[1][lane] + acc[2][lane] + acc[3][lane] + tail[lane]
        })
    }

    /// The tile's distance rows: `out[l * n + t]` is query `l`'s squared
    /// distance to training row `t`, where `n = train.len()`; `out` holds
    /// one row per query of the tile.
    pub fn distances(&self, train: &Features, out: &mut [f32]) {
        let n = train.len();
        assert_eq!(out.len(), self.len * n, "distance rows of the wrong size");
        for (t, row) in train.rows().enumerate() {
            let d = self.squared_l2(row);
            for (lane, &x) in d[..self.len].iter().enumerate() {
                out[lane * n + t] = x;
            }
        }
    }
}

/// The distance rows of one query tile, in a buffer this thread keeps for
/// its life: [`TileRows::new`] takes it and dropping the `TileRows` gives
/// it back, so a worker that ranks many tiles faults in one buffer of at
/// most [`QUERY_TILE`] rows (4 bytes per training row each).
#[derive(Debug)]
pub struct TileRows {
    rows: Vec<f32>,
    /// The queries whose rows `rows` holds.
    tile: Range<usize>,
    /// Tiles computed so far: one pass over `train` each.
    passes: usize,
}

thread_local! {
    static ROWS: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

impl TileRows {
    /// Take this thread's row buffer (empty if another `TileRows` on this
    /// thread holds it).
    pub fn new() -> Self {
        Self {
            rows: ROWS.take(),
            tile: 0..0,
            passes: 0,
        }
    }

    /// The distance passes over `train` this `TileRows` has run, one per
    /// tile computed.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Query `j`'s squared distance to every row of `train`. When `j`'s row
    /// is not loaded, the tile `j..min(j + QUERY_TILE, end)` is computed
    /// first, so queries asked for in increasing order cost one pass over
    /// `train` per tile and no row past `end` is computed.
    pub fn row(&mut self, train: &Features, queries: &Features, j: usize, end: usize) -> &[f32] {
        let n = train.len();
        if !self.tile.contains(&j) {
            let tile = j..end.min(j + QUERY_TILE);
            assert!(!tile.is_empty(), "query {j} lies past the end {end}");
            self.rows.resize(tile.len() * n, 0.0);
            QueryTile::new(queries, tile.clone()).distances(train, &mut self.rows);
            self.tile = tile;
            self.passes += 1;
        }
        let lane = j - self.tile.start;
        &self.rows[lane * n..(lane + 1) * n]
    }
}

impl Default for TileRows {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for TileRows {
    fn drop(&mut self) {
        let rows = std::mem::take(&mut self.rows);
        // Keep the larger of two buffers when another TileRows on this
        // thread returned one first.
        let _ = ROWS.try_with(|slot| {
            let held = slot.take();
            slot.set(if held.capacity() > rows.capacity() {
                held
            } else {
                rows
            });
        });
    }
}

/// Every query's full ranking of `train` (the list
/// [`argsort_by_distance`](crate::neighbors::argsort_by_distance) returns),
/// computed tile by tile on `threads` workers: at most [`QUERY_TILE`]
/// distance rows are live per worker, never all `queries × train`. With
/// fewer than `QUERY_TILE` queries per worker the tiles narrow so every
/// worker still gets one (the bits do not depend on the tiling).
pub fn argsort_all(train: &Features, queries: &Features, threads: usize) -> Vec<Vec<Neighbor>> {
    assert_eq!(
        train.dim(),
        queries.dim(),
        "train/query dimension mismatch: {} vs {}",
        train.dim(),
        queries.dim()
    );
    let n_queries = queries.len();
    let width = n_queries.div_ceil(threads.max(1)).clamp(1, QUERY_TILE);
    let tiles = knnshap_parallel::par_map(n_queries.div_ceil(width), threads, |tile| {
        let lo = tile * width;
        let hi = (lo + width).min(n_queries);
        let mut rows = TileRows::new();
        (lo..hi)
            .map(|j| rank_distances(rows.row(train, queries, j, hi)))
            .collect::<Vec<_>>()
    });
    tiles.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::squared_l2;

    fn features(n: usize, dim: usize, seed: u32) -> Features {
        // Cheap deterministic pseudo-data; values vary per (row, col, seed).
        let mut f = Features::with_capacity(n, dim);
        for i in 0..n {
            let row: Vec<f32> = (0..dim)
                .map(|j| {
                    let x = (i * dim + j) as f32 + seed as f32 * 0.37;
                    (x * 0.618_034).sin() * 3.0
                })
                .collect();
            f.push_row(&row);
        }
        f
    }

    /// The oracle: [`squared_l2`] of each query against each train row, one
    /// pair at a time.
    fn per_pair_squared_l2(train: &Features, queries: &Features) -> Vec<Vec<f32>> {
        queries
            .rows()
            .map(|q| train.rows().map(|t| squared_l2(q, t)).collect())
            .collect()
    }

    /// Every query's row through [`TileRows`], walking the queries in order
    /// the way a fold block does.
    fn tiled(train: &Features, queries: &Features) -> Vec<Vec<f32>> {
        let mut rows = TileRows::new();
        (0..queries.len())
            .map(|j| rows.row(train, queries, j, queries.len()).to_vec())
            .collect()
    }

    fn assert_bitwise(a: &[Vec<f32>], b: &[Vec<f32>], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: row count");
        for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ra.len(), rb.len(), "{what}: row {i} length");
            for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: slot ({i}, {j})");
            }
        }
    }

    #[test]
    fn fixed_partition_matches_naive_bitwise() {
        let train = features(523, 7, 1);
        let queries = features(19, 7, 2); // not divisible by QUERY_TILE
        assert_bitwise(
            &tiled(&train, &queries),
            &per_pair_squared_l2(&train, &queries),
            "tiled rows",
        );
    }

    #[test]
    fn degenerate_tiles_match_naive_bitwise() {
        // Every partial tile width, and every d mod 4.
        for dim in 1..=9 {
            let train = features(37, dim, 3);
            let queries = features(QUERY_TILE, dim, 4);
            let naive = per_pair_squared_l2(&train, &queries);
            for len in 1..=QUERY_TILE {
                let tile = QueryTile::new(&queries, 0..len);
                let mut out = vec![0.0; len * train.len()];
                tile.distances(&train, &mut out);
                let rows: Vec<Vec<f32>> = out.chunks(train.len()).map(<[f32]>::to_vec).collect();
                assert_bitwise(&rows, &naive[..len], &format!("dim {dim}, {len} lanes"));
            }
        }
    }

    #[test]
    fn empty_query_set() {
        let train = features(10, 2, 5);
        let queries = Features::new(Vec::new(), 2);
        assert!(argsort_all(&train, &queries, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dim_mismatch_panics() {
        let train = features(4, 2, 6);
        let queries = features(4, 3, 7);
        argsort_all(&train, &queries, 1);
    }
}
