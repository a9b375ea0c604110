//! Brute-force nearest-neighbor retrieval.
//!
//! ### Ranking contract
//!
//! Every ranking in the workspace orders training rows by ascending
//! `(distance, index)`, the order [`cmp_dist_idx`] defines: distances
//! compare numerically (−0.0 equals +0.0, +inf sorts last), exact ties go to
//! the smaller training index, and a NaN distance panics with
//! `"NaN distance"`. The order is total, so each ranking is one
//! deterministic list even with duplicated points (common after bootstrap
//! resampling).
//!
//! Three access patterns, matching the three algorithm families in the paper:
//!
//! * [`argsort_by_distance`] / [`Ranker`] — the complete distance ranking,
//!   O(N·d + N) per query: one distance pass, then a stable LSD radix sort
//!   of order-preserving integer images of the distances. Consumed by the
//!   exact Shapley recursions (Theorems 1 & 6, Algorithm 1 line 2), the
//!   `KNNGRAPH` builder and the serving engine's rank seeding.
//! * [`partial_k_nearest`] — the `K*` nearest in sorted order via
//!   `select_nth_unstable`, O(N·d + N + K* log K*); consumed by the truncated
//!   (ε, 0)-approximation (Theorem 2), which never needs the full ranking.
//! * [`top_k`] — heap-based top-K used for plain prediction and candidate
//!   re-ranking inside the LSH index.
//!
//! Batched variants fan queries out on the `knnshap_parallel` pool;
//! per-test-point valuation is embarrassingly parallel.

use crate::distance::Metric;
use knnshap_datasets::Features;

/// One retrieved neighbor: training-set index plus distance under the metric
/// used for the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    pub index: u32,
    pub dist: f32,
}

/// The ranking order of the module docs: distance, then index. Panics with
/// `"NaN distance"` on a NaN.
#[inline]
pub fn cmp_dist_idx(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.dist
        .partial_cmp(&b.dist)
        .expect("NaN distance")
        .then(a.index.cmp(&b.index))
}

/// Bits per radix digit: three passes cover the 32-bit distance key.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;
const DIGIT_MASK: u32 = BUCKETS as u32 - 1;
const PASSES: usize = 3;

/// An order-preserving `u32` image of a distance: `a < b` as floats iff
/// `dist_key(a) < dist_key(b)`, and −0.0 shares the key of +0.0. Negative
/// floats flip all bits, the rest only the sign bit. Panics on NaN.
#[inline]
fn dist_key(d: f32) -> u32 {
    if d.is_nan() {
        nan_distance();
    }
    // −0.0 + 0.0 is +0.0, so both zeros share one key.
    let bits = (d + 0.0).to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

#[cold]
fn nan_distance() -> ! {
    panic!("NaN distance")
}

/// Reusable scratch of the full ranking. One `Ranker` serves any number of
/// queries, so a worker that ranks many test points allocates once.
#[derive(Debug, Default, Clone)]
pub struct Ranker {
    /// The scatter target of the radix passes.
    swap: Vec<Neighbor>,
}

impl Ranker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rank every row of `train` by distance to `query` into `out`
    /// (replacing its contents): the list [`argsort_by_distance`] returns.
    pub fn argsort(
        &mut self,
        train: &Features,
        query: &[f32],
        metric: Metric,
        out: &mut Vec<Neighbor>,
    ) {
        self.rank_iter(train.rows().map(|row| metric.eval(query, row)), out);
    }

    /// Rank the precomputed distances `dists` (row `i` at distance
    /// `dists[i]`) into `out`, replacing its contents.
    pub fn rank(&mut self, dists: &[f32], out: &mut Vec<Neighbor>) {
        self.rank_iter(dists.iter().copied(), out);
    }

    /// Rank rows `0, 1, …` at the distances `dists` yields. The rows are
    /// collected in index order while every pass's digit histogram is
    /// counted; then LSD radix passes over [`dist_key`], each stable, so
    /// rows with equal keys keep their index order: the result is the
    /// `(distance, index)` order. A pass whose digit is the same for every
    /// row is skipped.
    fn rank_iter(&mut self, dists: impl Iterator<Item = f32>, out: &mut Vec<Neighbor>) {
        let mut counts = [[0u32; BUCKETS]; PASSES];
        out.clear();
        out.extend(dists.enumerate().map(|(i, dist)| {
            let key = dist_key(dist);
            for (pass, count) in counts.iter_mut().enumerate() {
                count[digit(key, pass)] += 1;
            }
            Neighbor {
                index: i as u32,
                dist,
            }
        }));
        let n = out.len();
        if self.swap.len() < n {
            self.swap.clone_from(out);
        }
        let mut in_out = true;
        for (pass, count) in counts.iter().enumerate() {
            if count.contains(&(n as u32)) {
                continue;
            }
            let mut next = [0u32; BUCKETS];
            let mut sum = 0;
            for (slot, &c) in next.iter_mut().zip(count) {
                *slot = sum;
                sum += c;
            }
            let (src, dst) = if in_out {
                (&out[..], &mut self.swap[..n])
            } else {
                (&self.swap[..n], &mut out[..])
            };
            for nb in src {
                let slot = &mut next[digit(dist_key(nb.dist), pass)];
                dst[*slot as usize] = *nb;
                *slot += 1;
            }
            in_out = !in_out;
        }
        if !in_out {
            // Copy rather than swap buffers: `out` keeps its own capacity,
            // so a short ranking never hands back a long-lived scratch.
            out.copy_from_slice(&self.swap[..n]);
        }
    }
}

/// Digit `pass` (least significant first) of a distance key.
#[inline]
fn digit(key: u32, pass: usize) -> usize {
    (key >> (pass as u32 * DIGIT_BITS) & DIGIT_MASK) as usize
}

/// Run `f` with this thread's [`Ranker`], kept for the thread's life, so
/// repeated rankings fault in no new scratch pages. It grows to the largest
/// list ranked on that thread (8 bytes per row).
fn with_thread_ranker(f: impl FnOnce(&mut Ranker)) {
    thread_local! {
        static RANKER: std::cell::RefCell<Ranker> = std::cell::RefCell::new(Ranker::new());
    }
    RANKER.with_borrow_mut(f);
}

/// Rank all training rows by ascending distance to `query`.
pub fn argsort_by_distance(train: &Features, query: &[f32], metric: Metric) -> Vec<Neighbor> {
    let mut out = Vec::new();
    with_thread_ranker(|r| r.argsort(train, query, metric, &mut out));
    out
}

/// Rank precomputed distances (row `i` at `dists[i]`) with this thread's
/// ranking scratch.
pub(crate) fn rank_distances(dists: &[f32]) -> Vec<Neighbor> {
    let mut out = Vec::new();
    with_thread_ranker(|r| r.rank(dists, &mut out));
    out
}

/// The `k` nearest rows in ascending order, without sorting the rest.
///
/// Uses `select_nth_unstable` (expected O(N)) and then sorts only the `k`
/// selected entries. When `k >= N` this is the full ranking.
pub fn partial_k_nearest(
    train: &Features,
    query: &[f32],
    k: usize,
    metric: Metric,
) -> Vec<Neighbor> {
    if k >= train.len() {
        return argsort_by_distance(train, query, metric);
    }
    let mut all: Vec<Neighbor> = train
        .rows()
        .enumerate()
        .map(|(i, row)| Neighbor {
            index: i as u32,
            dist: metric.eval(query, row),
        })
        .collect();
    all.select_nth_unstable_by(k, cmp_dist_idx);
    all.truncate(k);
    all.sort_unstable_by(cmp_dist_idx);
    all
}

/// Heap-based top-`k`: maintains a bounded max-heap while streaming the rows.
/// Preferable to [`partial_k_nearest`] when the candidate set is much smaller
/// than the full training set (LSH re-ranking).
pub fn top_k(train: &Features, query: &[f32], k: usize, metric: Metric) -> Vec<Neighbor> {
    top_k_of_candidates(
        train,
        (0..train.len() as u32).collect::<Vec<_>>().as_slice(),
        query,
        k,
        metric,
    )
}

/// Top-`k` restricted to the given candidate indices.
pub fn top_k_of_candidates(
    train: &Features,
    candidates: &[u32],
    query: &[f32],
    k: usize,
    metric: Metric,
) -> Vec<Neighbor> {
    if k == 0 {
        return Vec::new();
    }
    // Bounded max-heap on (dist, index); the root is the current worst.
    let mut heap: Vec<Neighbor> = Vec::with_capacity(k + 1);
    for &c in candidates {
        let n = Neighbor {
            index: c,
            dist: metric.eval(query, train.row(c as usize)),
        };
        if heap.len() < k {
            heap.push(n);
            sift_up(&mut heap);
        } else if cmp_dist_idx(&n, &heap[0]).is_lt() {
            heap[0] = n;
            sift_down(&mut heap);
        }
    }
    heap.sort_unstable_by(cmp_dist_idx);
    heap
}

fn sift_up(heap: &mut [Neighbor]) {
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if cmp_dist_idx(&heap[i], &heap[parent]).is_gt() {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down(heap: &mut [Neighbor]) {
    let n = heap.len();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut largest = i;
        if l < n && cmp_dist_idx(&heap[l], &heap[largest]).is_gt() {
            largest = l;
        }
        if r < n && cmp_dist_idx(&heap[r], &heap[largest]).is_gt() {
            largest = r;
        }
        if largest == i {
            return;
        }
        heap.swap(i, largest);
        i = largest;
    }
}

/// Apply `f` to every query row in parallel (order preserving),
/// collecting results in query order. `f` must be cheap to share (it is
/// called from multiple threads).
pub fn par_map_queries<T, F>(queries: &Features, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[f32]) -> T + Sync,
{
    knnshap_parallel::par_map(queries.len(), threads, |i| f(i, queries.row(i)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> Features {
        // 1-D points 0, 1, 2, ..., 9
        Features::new((0..10).map(|i| i as f32).collect(), 1)
    }

    #[test]
    fn argsort_ranks_correctly() {
        let f = matrix();
        let ranked = argsort_by_distance(&f, &[3.2], Metric::SquaredL2);
        let order: Vec<u32> = ranked.iter().map(|n| n.index).collect();
        assert_eq!(order, vec![3, 4, 2, 5, 1, 6, 0, 7, 8, 9]);
        assert!(ranked.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn ties_break_by_index() {
        let f = Features::new(vec![1.0, 1.0, 1.0, 5.0], 1);
        let ranked = argsort_by_distance(&f, &[1.0], Metric::SquaredL2);
        assert_eq!(
            ranked.iter().map(|n| n.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn dist_key_preserves_float_order() {
        let ascending = [
            f32::NEG_INFINITY,
            -f32::MAX,
            -1.0,
            -f32::from_bits(1), // largest negative subnormal
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for w in ascending.windows(2) {
            assert!(dist_key(w[0]) < dist_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(dist_key(-0.0), dist_key(0.0));
    }

    #[test]
    fn partial_matches_full_prefix() {
        let f = matrix();
        let full = argsort_by_distance(&f, &[6.7], Metric::SquaredL2);
        for k in [1usize, 3, 5, 10, 15] {
            let part = partial_k_nearest(&f, &[6.7], k, Metric::SquaredL2);
            assert_eq!(part.len(), k.min(10));
            assert_eq!(&full[..part.len()], part.as_slice(), "k={k}");
        }
    }

    #[test]
    fn top_k_matches_argsort_prefix() {
        let f = matrix();
        for k in [0usize, 1, 4, 10, 12] {
            let a = argsort_by_distance(&f, &[2.9], Metric::SquaredL2);
            let t = top_k(&f, &[2.9], k, Metric::SquaredL2);
            assert_eq!(t.len(), k.min(10));
            assert_eq!(&a[..t.len()], t.as_slice(), "k={k}");
        }
    }

    #[test]
    fn top_k_of_candidates_respects_subset() {
        let f = matrix();
        let t = top_k_of_candidates(&f, &[9, 0, 5], &[4.0], 2, Metric::SquaredL2);
        assert_eq!(t.iter().map(|n| n.index).collect::<Vec<_>>(), vec![5, 0]);
    }

    #[test]
    fn par_map_matches_serial() {
        let f = matrix();
        let queries = Features::new(vec![0.1, 3.3, 8.8, 5.0, 2.0], 1);
        let serial: Vec<u32> = (0..queries.len())
            .map(|i| argsort_by_distance(&f, queries.row(i), Metric::SquaredL2)[0].index)
            .collect();
        let par = par_map_queries(&queries, 4, |_, q| {
            argsort_by_distance(&f, q, Metric::SquaredL2)[0].index
        });
        assert_eq!(serial, par);
    }

    #[test]
    fn par_map_single_thread_path() {
        let queries = Features::new(vec![1.0], 1);
        let out = par_map_queries(&queries, 8, |i, _| i);
        assert_eq!(out, vec![0]);
    }
}
