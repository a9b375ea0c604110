//! Property-based tests for the KNN substrate.

use knnshap_datasets::Features;
use knnshap_knn::block::{argsort_all, QueryTile, TileRows, QUERY_TILE};
use knnshap_knn::distance::{squared_l2, Metric};
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::heap::KnnHeap;
use knnshap_knn::kdtree::KdTree;
use knnshap_knn::neighbors::{
    argsort_by_distance, cmp_dist_idx, partial_k_nearest, top_k, Neighbor, Ranker,
};
use proptest::prelude::*;

fn features(n: usize, dim: usize, vals: &[f32]) -> Features {
    Features::new(vals[..n * dim].to_vec(), dim)
}

/// Row counts around the radix histogram width (2¹¹ buckets) plus the
/// degenerate ones; `pick` indexes them, wrapping into a random size.
fn rank_size(pick: usize, random: usize) -> usize {
    [0, 1, 2, 2047, 2048, 2049]
        .get(pick)
        .copied()
        .unwrap_or(random)
}

/// A distance that stresses the key mapping: both zeros, subnormals, the
/// extremes, ±inf, a few heavily duplicated values, or any non-NaN bit
/// pattern (every exponent, both signs).
fn edge_dist(sel: u32, bits: u32) -> f32 {
    match sel % 10 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(bits & 0x807f_ffff), // ± subnormal
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => [f32::MAX, f32::MIN_POSITIVE, -f32::MAX][bits as usize % 3],
        6 | 7 => [1.0, 0.25, -0.5, 1e-30][bits as usize % 4],
        _ => match f32::from_bits(bits) {
            d if d.is_nan() => f32::from_bits(bits & 0xff80_0000), // ±inf
            d => d,
        },
    }
}

/// A feature value that stresses the distance kernel: both zeros, ±
/// subnormals, finite magnitudes of at least 2⁶⁴ (whose squares overflow
/// to `inf`), `±f32::MAX`, or — most often, so that reassociating a sum
/// shows in the bits — an ordinary value in [−10, 10].
fn edge_feature(sel: u32, bits: u32) -> f32 {
    match sel % 24 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(bits & 0x807f_ffff),
        3 => f32::from_bits(bits & 0x807f_ffff | 0x5f80_0000),
        4 => f32::MAX.copysign(f32::from_bits(bits)),
        _ => (bits % 20_001) as f32 / 1000.0 - 10.0,
    }
}

/// `n` rows of `dim` edge-case features drawn from `sel` and `bits`.
fn edge_features(n: usize, dim: usize, sel: &[u32], bits: &[u32]) -> Features {
    let vals = sel[..n * dim]
        .iter()
        .zip(bits)
        .map(|(&s, &b)| edge_feature(s, b))
        .collect();
    Features::new(vals, dim)
}

/// Training rows for the kernel properties: none, one, two, or an odd
/// count up to 41.
fn kernel_train_size(pick: usize) -> usize {
    match pick % 23 {
        p @ 0..=2 => p,
        p => 2 * p - 5,
    }
}

/// The ranking contract's reference: the comparison sort on
/// [`cmp_dist_idx`].
fn oracle(dists: &[f32]) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = dists
        .iter()
        .enumerate()
        .map(|(i, &dist)| Neighbor {
            index: i as u32,
            dist,
        })
        .collect();
    all.sort_unstable_by(cmp_dist_idx);
    all
}

/// Equal in index and in distance bits (so −0.0 and +0.0 differ).
fn same_ranking(a: &[Neighbor], b: &[Neighbor]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (r, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert_eq!(x.index, y.index, "index at rank {}", r);
        prop_assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "dist at rank {}", r);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn retrieval_backends_agree(
        vals in prop::collection::vec(-10.0f32..10.0, 60),
        q in prop::collection::vec(-10.0f32..10.0, 2),
        k in 1usize..12,
    ) {
        let data = features(30, 2, &vals);
        let full = argsort_by_distance(&data, &q, Metric::SquaredL2);
        let partial = partial_k_nearest(&data, &q, k, Metric::SquaredL2);
        let heap = top_k(&data, &q, k, Metric::SquaredL2);
        let tree = KdTree::build(&data);
        let via_tree = tree.k_nearest(&q, k);
        let kk = k.min(30);
        for backend in [&partial, &heap, &via_tree] {
            prop_assert_eq!(backend.len(), kk);
            for (a, b) in backend.iter().zip(&full[..kk]) {
                prop_assert_eq!(a.index, b.index);
            }
        }
    }

    #[test]
    fn radix_ranking_equals_comparison_sort(
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 2049..2600),
        pick in 0usize..9,
        random in 3usize..2600,
        all_equal in 0u32..5,
    ) {
        let n = rank_size(pick, random).min(raw.len());
        let mut dists: Vec<f32> = raw[..n].iter().map(|&(s, b)| edge_dist(s, b)).collect();
        if all_equal == 0 {
            let first = dists.first().copied().unwrap_or(0.0);
            dists.iter_mut().for_each(|d| *d = first);
        }
        let mut ranker = Ranker::new();
        let mut got = vec![Neighbor { index: 7, dist: 7.0 }]; // overwritten
        ranker.rank(&dists, &mut got);
        same_ranking(&got, &oracle(&dists))?;
        // A reused ranker gives the same answer on a second, shorter input.
        let half = &dists[..n / 2];
        ranker.rank(half, &mut got);
        same_ranking(&got, &oracle(half))?;
    }

    #[test]
    fn argsort_equals_comparison_sort_for_every_metric(
        protos in prop::collection::vec((0u32..8, -4i32..4), 12),
        rows in prop::collection::vec(0usize..4, 2600),
        q in prop::collection::vec(-4i32..4, 3),
        pick in 0usize..9,
        random in 3usize..2600,
        distinct in 0usize..5,
    ) {
        // Rows drawn from a few prototypes (heavy duplicates; one prototype
        // = all-equal rows) whose coordinates mix zeros, subnormals, and
        // magnitudes whose squares overflow to +inf.
        let scale = [0.0, 1e-40, 1e-20, 0.5, 1.0, 3.0, 1e15, 3e19];
        let cell = |(s, m): (u32, i32)| scale[s as usize] * m as f32;
        let n = rank_size(pick, random);
        let protos: Vec<[f32; 3]> = protos
            .chunks_exact(3)
            .map(|c| [cell(c[0]), cell(c[1]), cell(c[2])])
            .collect();
        let vals: Vec<f32> = rows[..n]
            .iter()
            .flat_map(|&r| protos[r.min(distinct)])
            .collect();
        let train = Features::new(vals, 3);
        let query: Vec<f32> = q.iter().map(|&m| m as f32 * 0.5).collect();
        for metric in [Metric::SquaredL2, Metric::L2, Metric::Cosine] {
            let dists: Vec<f32> = train.rows().map(|r| metric.eval(&query, r)).collect();
            if dists.iter().any(|d| d.is_nan()) {
                continue; // inf/inf under Cosine: the NaN case is pinned below
            }
            let want = oracle(&dists);
            same_ranking(&argsort_by_distance(&train, &query, metric), &want)?;
            same_ranking(&partial_k_nearest(&train, &query, n, metric), &want)?;
        }
        if n > 0 {
            let g = KnnGraph::build(&train, &Features::new(query.clone(), 3), 2);
            let dists: Vec<f32> =
                train.rows().map(|r| Metric::SquaredL2.eval(&query, r)).collect();
            same_ranking(g.list(0), &oracle(&dists))?;
        }
    }

    #[test]
    fn argsort_is_a_sorted_permutation(
        vals in prop::collection::vec(-5.0f32..5.0, 40),
        q in prop::collection::vec(-5.0f32..5.0, 4),
    ) {
        let data = features(10, 4, &vals);
        let ranked = argsort_by_distance(&data, &q, Metric::SquaredL2);
        prop_assert!(ranked.windows(2).all(|w| w[0].dist <= w[1].dist));
        let mut idx: Vec<u32> = ranked.iter().map(|n| n.index).collect();
        idx.sort_unstable();
        prop_assert_eq!(idx, (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    fn heap_tracks_k_smallest(
        dists in prop::collection::vec(0.0f32..100.0, 1..60),
        k in 1usize..10,
    ) {
        let mut h = KnnHeap::new(k);
        for (i, &d) in dists.iter().enumerate() {
            h.insert(d, i as u32);
        }
        let mut sorted = dists.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got: Vec<f32> = h.sorted().iter().map(|&(d, _)| d).collect();
        prop_assert_eq!(got, sorted[..k.min(dists.len())].to_vec());
    }

    #[test]
    fn heap_change_detection_is_consistent(
        dists in prop::collection::vec(0.0f32..100.0, 1..40),
        k in 1usize..6,
    ) {
        // `changed` must be true exactly when the sorted contents change.
        let mut h = KnnHeap::new(k);
        let mut prev = h.sorted();
        for (i, &d) in dists.iter().enumerate() {
            let changed = h.insert(d, i as u32).changed();
            let now = h.sorted();
            prop_assert_eq!(changed, prev != now);
            prev = now;
        }
    }

    #[test]
    fn graph_build_matches_argsort_and_survives_round_trip(
        vals in prop::collection::vec(-5.0f32..5.0, 48),
        qvals in prop::collection::vec(-5.0f32..5.0, 8),
        n in 1usize..24,
        threads in 1usize..4,
    ) {
        let train = features(n, 2, &vals);
        let queries = features(4, 2, &qvals);
        let g = KnnGraph::build(&train, &queries, threads);
        let g2 = KnnGraph::from_bytes(&g.to_bytes()).unwrap();
        prop_assert!(g2.validate_against(&train, &queries).is_ok());
        for j in 0..queries.len() {
            let want = argsort_by_distance(&train, queries.row(j), Metric::SquaredL2);
            let got = g2.list(j);
            prop_assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                prop_assert_eq!(a.index, b.index);
                prop_assert_eq!(a.dist.to_bits(), b.dist.to_bits());
            }
        }
    }

    #[test]
    fn metrics_nonnegative_and_symmetric(
        a in prop::collection::vec(-3.0f32..3.0, 6),
        b in prop::collection::vec(-3.0f32..3.0, 6),
    ) {
        for m in [Metric::SquaredL2, Metric::L2, Metric::Cosine] {
            let ab = m.eval(&a, &b);
            let ba = m.eval(&b, &a);
            prop_assert!(ab >= 0.0);
            prop_assert!((ab - ba).abs() < 1e-5);
        }
    }
}

// The distance-kernel battery: the case count follows `PROPTEST_CASES`
// (default 32), so CI can replay it at a larger count in debug and release.
proptest! {
    /// The query-lane kernel is bit for bit the per-pair `squared_l2`:
    /// every dimension 1–37 (each `d mod 4`), every partial tile of 1 to
    /// `QUERY_TILE` queries, train sizes 0, 1 and odd, over ±0,
    /// subnormals and finite inputs whose squares overflow to `inf`, both
    /// through `QueryTile` and through a fold block's `TileRows` walk.
    #[test]
    fn query_lane_kernel_matches_per_pair_squared_l2(
        sel in prop::collection::vec(any::<u32>(), 41 * 37),
        bits in prop::collection::vec(any::<u32>(), 41 * 37),
        qsel in prop::collection::vec(any::<u32>(), QUERY_TILE * 37),
        qbits in prop::collection::vec(any::<u32>(), QUERY_TILE * 37),
        dim in 1usize..38,
        lanes in 1usize..=QUERY_TILE,
        pick in 0usize..23,
    ) {
        let n = kernel_train_size(pick);
        let train = edge_features(n, dim, &sel, &bits);
        let queries = edge_features(lanes, dim, &qsel, &qbits);
        let mut out = vec![f32::NAN; lanes * n];
        QueryTile::new(&queries, 0..lanes).distances(&train, &mut out);
        let mut rows = TileRows::new();
        for (l, q) in queries.rows().enumerate() {
            let walked = rows.row(&train, &queries, l, lanes).to_vec();
            for (t, row) in train.rows().enumerate() {
                let want = squared_l2(q, row).to_bits();
                prop_assert_eq!(out[l * n + t].to_bits(), want, "tile ({}, {})", l, t);
                prop_assert_eq!(walked[t].to_bits(), want, "walk ({}, {})", l, t);
            }
        }
    }

    /// The tiled rankings — `argsort_all` and the `KnnGraph::build` lists
    /// on it — equal one `argsort_by_distance` per query at 1, 2, 3 and 8
    /// threads, for query counts that leave partial tiles.
    #[test]
    fn query_lane_rankings_match_argsort_at_every_thread_count(
        sel in prop::collection::vec(any::<u32>(), 41 * 37),
        bits in prop::collection::vec(any::<u32>(), 41 * 37),
        qsel in prop::collection::vec(any::<u32>(), 11 * 37),
        qbits in prop::collection::vec(any::<u32>(), 11 * 37),
        dim in 1usize..38,
        n_queries in 0usize..12,
        pick in 0usize..23,
    ) {
        let n = kernel_train_size(pick);
        let train = edge_features(n, dim, &sel, &bits);
        let queries = edge_features(n_queries, dim, &qsel, &qbits);
        let want: Vec<Vec<Neighbor>> = queries
            .rows()
            .map(|q| argsort_by_distance(&train, q, Metric::SquaredL2))
            .collect();
        for threads in [1, 2, 3, 8] {
            let lists = argsort_all(&train, &queries, threads);
            prop_assert_eq!(lists.len(), want.len());
            for (got, w) in lists.iter().zip(&want) {
                same_ranking(got, w)?;
            }
            let g = KnnGraph::build(&train, &queries, threads);
            for (got, w) in g.lists().iter().zip(&want) {
                same_ranking(got, w)?;
            }
        }
    }
}

#[test]
#[should_panic(expected = "NaN distance")]
fn ranking_panics_on_nan_distance() {
    let mut dists = vec![1.0f32; 3000];
    dists[1234] = f32::NAN;
    Ranker::new().rank(&dists, &mut Vec::new());
}

#[test]
#[should_panic(expected = "NaN distance")]
fn argsort_panics_on_nan_features() {
    let train = Features::new(vec![0.0, f32::NAN, 1.0], 1);
    argsort_by_distance(&train, &[0.5], Metric::SquaredL2);
}
