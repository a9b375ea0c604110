//! Theorem 1 / Algorithm 1: exact Shapley values for the unweighted KNN
//! classifier in O(N log N) per test point.
//!
//! For one test point `(x_test, y_test)`, sort training points by distance
//! (`α_i` = index of the i-th nearest). Then:
//!
//! ```text
//! s_{α_N} = 1[y_{α_N} = y_test] / N
//! s_{α_i} = s_{α_{i+1}} + (1[y_{α_i} = y_test] − 1[y_{α_{i+1}} = y_test]) / K · min(K, i) / i
//! ```
//!
//! Every exact path runs one loop for this recursion ([`theorem1_until`]).
//! The increment is `+0.0` wherever the indicator does not flip, so the loop
//! evaluates it only at the switch points and keeps every bit: `s` is never
//! `−0.0`, so adding `+0.0` cannot change it. That holds because the
//! indicator `correct(r)` returns exactly `0.0` or `1.0`. The loop also
//! takes a stop rank, so a caller that needs the value at one rank skips
//! the ranks below it.
//!
//! ### The zero tail
//!
//! Let `f` be the rank of the test point's farthest same-label training
//! point. Every rank past `f` holds exactly `+0.0`: the base is
//! `0.0 · min(K, N)/(N·K) = +0.0` when rank `N − 1` has the wrong label,
//! and no increment is evaluated before the indicator first flips, at `f`.
//! So the batch fold, the serving engine and the what-if run the loop only
//! over ranks `0 ..= min(f + 1, N − 1)` (`theorem1_head`), and the dense
//! scratch they deposit holds `+0.0` at every other row:
//!
//! * rank `f + 1`, when it exists, has the wrong label, so the shortened
//!   loop starts there with base `0.0 · min(K, N)/(N·K) = +0.0` and
//!   indicator `0.0` — exactly the state the full loop reaches at that
//!   rank — and every later float operation is the same one on the same
//!   operands;
//! * a test point with no same-label row writes nothing, and the rows past
//!   `f + 1` are never written: they keep the scratch's `+0.0`, which is
//!   what the full loop writes there, so the fold deposits the same `f64`s
//!   and only the ranking, recursion and re-zeroing of those rows are
//!   saved. (A what-if deposits only the candidate's value.)
//!
//! The brute-force fold (`head`, then
//! [`knnshap_knn::neighbors::Ranker::rank_through`]) also sorts only that
//! prefix. What it saves is the share of ranks past `f`, measured per test
//! point; a test point whose farthest row overall shares its label is
//! ranked in full and costs one extra pass over its distances.
//!
//! The multi-test value (utility eq. 8) is the average of per-test values by
//! the additivity axiom (Algorithm 1 lines 8–10). The multi-test drivers
//! run through [`crate::estimator`], whose per-test fold hands each ranking
//! to `fill_ranked` and deposits its dense scratch into one shared exact
//! accumulator, block by block.
//!
//! ### Determinism contract
//!
//! Per-test vectors accumulate in *exact* fixed-point sums
//! ([`knnshap_numerics::exact::ExactVec`]), so the multi-test average is a
//! pure function of the test-point multiset: bitwise-identical for every
//! thread count **and** for every sharding of the test range — the same
//! additivity decomposition that justifies averaging also makes any
//! contiguous test-point range ([`knn_class_shapley_shard`]) an independent
//! unit of work whose merged result reproduces the unsharded bits (see
//! [`crate::sharding`]).

use crate::estimator::{Data, Estimator, Family};
use crate::sharding::{ShardPartial, ShardSpec};
use crate::types::ShapleyValues;
use knnshap_datasets::ClassDataset;
use knnshap_knn::distance::Metric;
use knnshap_knn::neighbors::{argsort_by_distance, Neighbor};
use knnshap_knn::weights::WeightFn;

/// Exact SVs w.r.t. a single test point (Theorem 1).
pub fn knn_class_shapley_single(
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
) -> ShapleyValues {
    let mut out = ShapleyValues::zeros(train.len());
    {
        let acc = out.as_mut_slice();
        accumulate_single(train, query, test_label, k, |i, s| acc[i] += s);
    }
    out
}

/// The Theorem 1 backward recursion over an *abstract* distance ranking.
///
/// `correct(r)` must return `1[y_{α_{r+1}} = y_test]` as an `f64` for the
/// 0-based rank `r` — exactly `0.0` or `1.0` (see [`theorem1_until`]);
/// `sink(r, s)` receives each rank's per-test Shapley value, farthest rank
/// first.
///
/// Backward recursion over ranks (1-based `i` in the paper, 0-based here).
/// The paper states the base as 1[y_{α_N} = y_test]/N, which assumes K < N;
/// re-deriving eq. (15)–(17) without that assumption gives
/// s_{α_N} = 1[...] · min(K, N)/(N·K), which the enumeration ground truth
/// confirms (with K ≥ N the game is additive and every correct point is
/// worth exactly 1/K).
///
/// This and [`theorem1_until`] are the entries to the **one**
/// implementation of the recursion's arithmetic in the workspace (the
/// truncated estimator shares its loop): the batch drivers here feed it
/// fresh argsorts, while the resident engine ([`crate::resident`]) feeds it
/// incrementally maintained rank lists (including virtually spliced ones
/// for what-if queries). Both paths therefore execute the identical
/// sequence of float operations, which is what makes the serving layer's
/// bitwise-equality contract hold.
pub fn theorem1_recurrence<C, S>(n: usize, k: usize, correct: C, sink: S)
where
    C: Fn(usize) -> f64,
    S: FnMut(usize, f64),
{
    theorem1_until(n, k, 0, correct, sink);
}

/// [`theorem1_recurrence`] stopped at rank `stop`: `sink` sees ranks
/// `n − 1` down to `stop`, and the return value is the value at `stop`.
/// Ranks below `stop` never feed the values above them, so a caller that
/// needs one rank (a what-if at the candidate's rank) pays O(N − stop).
///
/// ### The switch-point pass
///
/// Step `i` of the paper adds `(c_i − c_{i+1}) / K · min(K, i)/i`. Where
/// the indicator does not flip (`c_i == c_{i+1}`), that increment is
/// `+0.0`, and `s + (+0.0)` is `s` bit for bit because `s` is never `−0.0`:
/// it starts at `c · min(K, N)/(N·K) ≥ +0`, and a round-to-nearest sum of
/// operands that are not `−0.0` is never `−0.0`. So the loop evaluates the
/// increment, with its two divisions, only at ranks where the indicator
/// flips — the same expression on the same operands as the per-step loop —
/// and every value keeps its bits. That argument needs `correct` to return
/// exactly `0.0` or `1.0`.
///
/// # Panics
///
/// Panics when `n` or `k` is zero, or `stop >= n`.
pub fn theorem1_until<C, S>(n: usize, k: usize, stop: usize, correct: C, sink: S) -> f64
where
    C: Fn(usize) -> f64,
    S: FnMut(usize, f64),
{
    theorem1_head(n, n, k, stop, correct, sink)
}

/// [`theorem1_until`] over the first `len` ranks of an `n`-point ranking
/// whose ranks `len ..` hold the zero tail (see the [module docs](self)):
/// `sink` sees ranks `len − 1` down to `stop`, each with the bits the full
/// loop gives it. Needs `correct(r) == 0.0` for every rank `r ≥ len − 1`
/// unless `len == n`; `len` is [`head_len`] of the farthest correct rank.
///
/// # Panics
///
/// Panics when `n`, `len` or `k` is zero, `len > n`, or `stop >= len`.
pub(crate) fn theorem1_head<C, S>(
    n: usize,
    len: usize,
    k: usize,
    stop: usize,
    correct: C,
    sink: S,
) -> f64
where
    C: Fn(usize) -> f64,
    S: FnMut(usize, f64),
{
    assert!(n >= 1, "need at least one training point");
    assert!(k >= 1, "K must be at least 1");
    assert!(len <= n, "head {len} longer than the ranking {n}");
    let base = correct(len - 1) * k.min(n) as f64 / (n as f64 * k as f64);
    switch_points(len, stop, k, base, correct, sink)
}

/// The ranks [`theorem1_head`] runs over for an `n`-point ranking whose
/// farthest same-label row sits at rank `far`: through one rank past it,
/// none without one.
pub(crate) fn head_len(n: usize, far: Option<usize>) -> usize {
    far.map_or(0, |f| (f + 2).min(n))
}

/// How much of a test point's ranking Theorem 1 reads: none of it (no row
/// has its label), all of it (its farthest row overall has its label), or
/// the ranks through one past its farthest same-label row, the cut
/// [`Ranker::rank_through`] takes.
///
/// [`Ranker::rank_through`]: knnshap_knn::neighbors::Ranker::rank_through
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Head {
    Empty,
    Full,
    Through(Neighbor),
}

/// The [`Head`] of a test point labelled `label`, with `dists[i]` the
/// distance of training row `i` and `labels[i]` its label: one pass
/// that finds the farthest row labelled `label` and the farthest row
/// overall, each in `(distance, index)` order — the largest distance, the
/// largest index among equal ones. The pass runs in [`LANES`] interleaved
/// lanes, each keeping its own two maxima, so no compare waits on the one
/// before it; the lanes are merged at the end.
pub(crate) fn head(dists: &[f32], labels: &[u32], label: u32) -> Head {
    // Per lane: the farthest distance labelled `label` and the chunk it
    // was seen in (`u32::MAX`: none yet), then the same over every row.
    // (Separate arrays, not pairs: the loop then keeps each in registers.)
    let mut same = [f32::NEG_INFINITY; LANES];
    let mut same_at = [u32::MAX; LANES];
    let mut all = [f32::NEG_INFINITY; LANES];
    let mut all_at = [0u32; LANES];
    let chunks = dists.chunks_exact(LANES).zip(labels.chunks_exact(LANES));
    for (c, (ds, ys)) in (0u32..).zip(chunks) {
        for l in 0..LANES {
            let d = ds[l];
            // `>=` on ascending indices: ties go to the larger index.
            let hit = (ys[l] == label) & (d >= same[l]);
            same[l] = if hit { d } else { same[l] };
            same_at[l] = if hit { c } else { same_at[l] };
            let top = d >= all[l];
            all[l] = if top { d } else { all[l] };
            all_at[l] = if top { c } else { all_at[l] };
        }
    }
    // Merge the lanes' bests, as `(distance, row)`, then the rows past the
    // last whole chunk, whose indices are larger than every lane's.
    let later = |a: (f32, usize), b: (f32, usize)| {
        if b.0 > a.0 || (b.0 == a.0 && b.1 > a.1) {
            b
        } else {
            a
        }
    };
    let row = |l: usize, d: f32, c: u32| (d, c as usize * LANES + l);
    let tail = dists.len() - dists.len() % LANES;
    let mut far: Option<(f32, usize)> = None;
    let mut last = (f32::NEG_INFINITY, 0);
    for l in (0..LANES).filter(|_| tail > 0) {
        if same_at[l] != u32::MAX {
            let r = row(l, same[l], same_at[l]);
            far = Some(far.map_or(r, |f| later(f, r)));
        }
        last = later(last, row(l, all[l], all_at[l]));
    }
    for (i, (&d, &y)) in dists.iter().zip(labels).enumerate().skip(tail) {
        if y == label {
            far = Some(far.map_or((d, i), |f| later(f, (d, i))));
        }
        last = later(last, (d, i));
    }
    match far {
        None => Head::Empty,
        Some((_, i)) if i == last.1 => Head::Full,
        Some((dist, i)) => Head::Through(Neighbor {
            index: i as u32,
            dist,
        }),
    }
}

/// The lanes of [`head`]'s pass.
const LANES: usize = 8;

/// The one Theorem 1 loop: value `base` at rank `len − 1`, then each rank
/// down to `stop` by the paper's step, its increment evaluated only where
/// the indicator flips (see [`theorem1_until`]). Returns the value at
/// `stop`. The exact base is [`theorem1_until`]'s; the truncated estimator
/// starts at `0.0` at rank `K*` (eq. 18).
pub(crate) fn switch_points<C, S>(
    len: usize,
    stop: usize,
    k: usize,
    base: f64,
    correct: C,
    mut sink: S,
) -> f64
where
    C: Fn(usize) -> f64,
    S: FnMut(usize, f64),
{
    assert!(stop < len, "stop rank {stop} out of range 0..{len}");
    let mut s = base;
    let mut prev = correct(len - 1);
    sink(len - 1, s);
    for i in (stop..len - 1).rev() {
        let cur = correct(i);
        if cur != prev {
            let rank1 = i + 1; // paper's 1-based rank of element `i`
            s += (cur - prev) / k as f64 * (k.min(rank1) as f64 / rank1 as f64);
            prev = cur;
        }
        sink(i, s);
    }
    s
}

/// Runs the Theorem 1 recursion for one test point over its full ranking,
/// handing each `(train index, value)` pair to `sink` — the zero tail
/// included. The single-test entry keeps this path, and the tests hold the
/// zero-tail fold ([`fill_ranked`]) to it bit for bit.
fn accumulate_single<S: FnMut(usize, f64)>(
    train: &ClassDataset,
    query: &[f32],
    test_label: u32,
    k: usize,
    mut sink: S,
) {
    assert!(train.len() >= 1, "need at least one training point");
    let ranked = argsort_by_distance(&train.x, query, Metric::SquaredL2);
    theorem1_recurrence(
        train.len(),
        k,
        |rank| f64::from(train.y[ranked[rank].index as usize] == test_label),
        |rank, s| sink(ranked[rank].index as usize, s),
    );
}

/// One test point's Theorem 1 values over `ranked` — the full ranking, or a
/// prefix that runs one rank past its farthest row labelled `test_label`
/// ([`Ranker::rank_through`]) — written into `out` for the rows of the
/// returned head of `ranked`. Every other row's value is the zero tail's
/// `+0.0` (see the [module docs](self)), and `out` keeps it unwritten.
///
/// [`Ranker::rank_through`]: knnshap_knn::neighbors::Ranker::rank_through
pub(crate) fn fill_ranked<'r>(
    train: &ClassDataset,
    ranked: &'r [Neighbor],
    test_label: u32,
    k: usize,
    out: &mut [f64],
) -> &'r [Neighbor] {
    let far = farthest_rank(ranked, &train.y, test_label);
    let head = &ranked[..head_len(train.len(), far)];
    fill_head(train.len(), head, &train.y, test_label, k, out);
    head
}

/// The last rank of `ranked` whose training row is labelled `label`.
pub(crate) fn farthest_rank(ranked: &[Neighbor], labels: &[u32], label: u32) -> Option<usize> {
    ranked
        .iter()
        .rposition(|nb| labels[nb.index as usize] == label)
}

/// Theorem 1's values over `head`, the first [`head_len`] ranks of an
/// `n`-point ranking, written into `out` at the rows of `head`.
pub(crate) fn fill_head(
    n: usize,
    head: &[Neighbor],
    labels: &[u32],
    test_label: u32,
    k: usize,
    out: &mut [f64],
) {
    if head.is_empty() {
        return;
    }
    theorem1_head(
        n,
        head.len(),
        k,
        0,
        |r| f64::from(labels[head[r].index as usize] == test_label),
        |r, s| out[head[r].index as usize] = s,
    );
}

/// Exact partial sums over one canonical shard of the test range, folded
/// with `threads` workers into exact accumulators — a one-line call into
/// [`Estimator::compute`].
///
/// ### Determinism contract
///
/// The shard's partial state depends only on `(train, test, k)` and the
/// shard's item range — not on `threads`, and not on how the rest of the
/// job is sharded. Merging the partials of any full shard set with
/// [`crate::sharding::merge_partials`] reproduces
/// [`knn_class_shapley_with_threads`] bit for bit.
///
/// # Panics
///
/// Panics on data [`Estimator::new`] rejects (an empty set, mismatched
/// dimensions, a NaN/infinite feature).
///
/// ```
/// use knnshap_core::exact_unweighted::{knn_class_shapley, knn_class_shapley_shard};
/// use knnshap_core::sharding::{merge_partials, ShardSpec};
/// use knnshap_datasets::synth::blobs::{self, BlobConfig};
///
/// let cfg = BlobConfig { n: 40, dim: 3, n_classes: 2, ..Default::default() };
/// let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 7, 1));
/// let parts: Vec<_> = (0..2)
///     .map(|i| knn_class_shapley_shard(&train, &test, 1, ShardSpec::new(i, 2), 1))
///     .collect();
/// let merged = merge_partials(&parts).unwrap().values;
/// let whole = knn_class_shapley(&train, &test, 1);
/// assert!(merged.as_slice().iter().zip(whole.as_slice()).all(|(a, b)| a == b));
/// ```
pub fn knn_class_shapley_shard(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    spec: ShardSpec,
    threads: usize,
) -> ShardPartial {
    seam(train, test, k).compute(spec, threads)
}

/// The uniform exact-classification job over `(train, test, k)`.
fn seam<'a>(train: &'a ClassDataset, test: &'a ClassDataset, k: usize) -> Estimator<'a> {
    let data = Data::class(train, test);
    Estimator::new(data, k, WeightFn::Uniform, Family::Exact, None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Exact SVs w.r.t. a whole test set (utility eq. 8): the average of the
/// per-test-point SVs, computed with `threads` workers.
///
/// # Panics
///
/// Panics on data [`Estimator::new`] rejects.
pub fn knn_class_shapley_with_threads(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    threads: usize,
) -> ShapleyValues {
    seam(train, test, k).run(threads).values
}

/// [`knn_class_shapley_with_threads`] with the workspace default worker
/// count ([`knnshap_parallel::current_threads`]: `KNNSHAP_THREADS`, else one
/// per core).
///
/// ```
/// use knnshap_core::exact_unweighted::knn_class_shapley;
/// use knnshap_core::utility::{KnnClassUtility, Utility};
/// use knnshap_datasets::synth::blobs::{self, BlobConfig};
///
/// let cfg = BlobConfig { n: 150, dim: 4, n_classes: 3, ..Default::default() };
/// let train = blobs::generate(&cfg);
/// let test = blobs::queries(&cfg, 10, 42);
/// let sv = knn_class_shapley(&train, &test, 5);
/// // group rationality: the values distribute exactly the model's utility
/// let u = KnnClassUtility::unweighted(&train, &test, 5);
/// assert!((sv.total() - u.grand()).abs() < 1e-9);
/// ```
pub fn knn_class_shapley(train: &ClassDataset, test: &ClassDataset, k: usize) -> ShapleyValues {
    knn_class_shapley_with_threads(train, test, k, knnshap_parallel::current_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_enum::shapley_enumeration;
    use crate::utility::{KnnClassUtility, Utility};
    use knnshap_datasets::Features;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(seed: u64, n: usize, classes: u32) -> (ClassDataset, ClassDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
        let train = ClassDataset::new(Features::new(feats, 2), labels, classes);
        let tfeats: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let tlabels: Vec<u32> = (0..3).map(|_| rng.gen_range(0..classes)).collect();
        let test = ClassDataset::new(Features::new(tfeats, 2), tlabels, classes);
        (train, test)
    }

    #[test]
    fn matches_enumeration_single_test() {
        for seed in 0..8u64 {
            for k in [1usize, 2, 3, 7, 12] {
                let (train, test) = random_instance(seed, 9, 3);
                let single =
                    ClassDataset::new(Features::new(test.x.row(0).to_vec(), 2), vec![test.y[0]], 3);
                let fast = knn_class_shapley_single(&train, test.x.row(0), test.y[0], k);
                let truth = shapley_enumeration(&KnnClassUtility::unweighted(&train, &single, k));
                assert!(
                    fast.max_abs_diff(&truth) < 1e-10,
                    "seed={seed} k={k}: {:?} vs {:?}",
                    fast.as_slice(),
                    truth.as_slice()
                );
            }
        }
    }

    /// `head` is read off the full ranking: empty without a same-label
    /// row, full when the last rank has the label, else through the last
    /// same-label rank — over lengths below, at and past whole lanes, with
    /// ties (also between `−0.0` and `+0.0`) inside and across lanes.
    #[test]
    fn head_is_the_full_rankings_last_same_label_rank() {
        let mut ranker = knnshap_knn::neighbors::Ranker::new();
        let mut ranked = Vec::new();
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n: usize = rng.gen_range(0..(if seed % 4 == 0 { 70 } else { 20 }));
            let spread = [1u32, 3, 50][rng.gen_range(0..3usize)];
            let dists: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0..spread) {
                    0 if rng.gen::<bool>() => -0.0,
                    d => d as f32,
                })
                .collect();
            let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            ranker.rank(&dists, &mut ranked);
            for label in 0..4 {
                let far = ranked
                    .iter()
                    .rposition(|nb| labels[nb.index as usize] == label);
                let want = match far {
                    None => Head::Empty,
                    Some(f) if f == n - 1 => Head::Full,
                    Some(f) => Head::Through(ranked[f]),
                };
                let got = head(&dists, &labels, label);
                assert_eq!(got, want, "seed {seed} n {n} label {label}");
                if let (Head::Through(a), Head::Through(b)) = (got, want) {
                    assert_eq!(a.dist.to_bits(), b.dist.to_bits(), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn matches_enumeration_multi_test() {
        for seed in [3u64, 17, 99] {
            let (train, test) = random_instance(seed, 8, 2);
            let fast = knn_class_shapley_with_threads(&train, &test, 2, 1);
            let truth = shapley_enumeration(&KnnClassUtility::unweighted(&train, &test, 2));
            assert!(fast.max_abs_diff(&truth) < 1e-10, "seed={seed}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (train, test) = random_instance(5, 40, 3);
        let serial = knn_class_shapley_with_threads(&train, &test, 3, 1);
        let par = knn_class_shapley_with_threads(&train, &test, 3, 4);
        assert!(serial.max_abs_diff(&par) < 1e-12);
    }

    #[test]
    fn group_rationality() {
        // Σ s_i = ν(I) (classification has ν(∅) = 0).
        let (train, test) = random_instance(11, 25, 3);
        for k in [1usize, 4, 25, 40] {
            let sv = knn_class_shapley_with_threads(&train, &test, k, 2);
            let u = KnnClassUtility::unweighted(&train, &test, k);
            assert!(
                (sv.total() - u.grand()).abs() < 1e-9,
                "k={k}: {} vs {}",
                sv.total(),
                u.grand()
            );
        }
    }

    #[test]
    fn nearest_correct_point_is_most_valuable_k1() {
        // With K=1 and a single test point, the nearest correct-label point
        // must receive the largest SV.
        let train = ClassDataset::new(
            Features::new(vec![0.1, 0.9, 2.0, 3.0], 1),
            vec![1, 0, 1, 0],
            2,
        );
        let sv = knn_class_shapley_single(&train, &[0.0], 1, 1);
        let ranking = sv.ranking();
        assert_eq!(ranking[0], 0);
    }

    #[test]
    fn farthest_point_value_formula() {
        // s_{α_N} = 1[y_{α_N} = y_test] / N exactly.
        let train = ClassDataset::new(Features::new(vec![0.0, 1.0, 10.0], 1), vec![0, 0, 0], 1);
        let sv = knn_class_shapley_single(&train, &[0.0], 0, 2);
        assert!((sv[2] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_training_point() {
        let train = ClassDataset::new(Features::new(vec![0.5], 1), vec![1], 2);
        let sv = knn_class_shapley_single(&train, &[0.0], 1, 3);
        // ν({0}) = 1/K = 1/3; s_0 = 1/3 (efficiency with one player)
        assert!((sv[0] - 1.0 / 3.0).abs() < 1e-12);
        let sv_wrong = knn_class_shapley_single(&train, &[0.0], 0, 3);
        assert_eq!(sv_wrong[0], 0.0);
    }

    #[test]
    fn wrong_label_points_never_exceed_correct_at_same_rank() {
        // All-same-distance degenerate case: ties broken by index; just check
        // the recursion runs and values are finite and bounded by 1/K.
        let train = ClassDataset::new(Features::new(vec![1.0; 6], 1), vec![0, 1, 0, 1, 0, 1], 2);
        let sv = knn_class_shapley_single(&train, &[1.0], 0, 2);
        for i in 0..6 {
            assert!(sv[i].abs() <= 0.5 + 1e-12);
            assert!(sv[i].is_finite());
        }
    }
}
