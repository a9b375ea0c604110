//! Property-based tests for the §7 analysis tools and the streaming
//! valuator: structural invariants that must hold for *any* value vector,
//! mask, or query order — complementing the fixed-instance unit tests inside
//! the modules.

use knnshap_core::analysis::{monetary_payout, per_class_summary, rank_agreement, DetectionCurve};
use knnshap_core::exact_unweighted::knn_class_shapley_with_threads;
use knnshap_core::streaming::{OnlineValuator, StreamBackend};
use knnshap_core::types::ShapleyValues;
use knnshap_datasets::{ClassDataset, Features};
use proptest::prelude::*;

/// A small random classification instance: features in [-1, 1]², labels in
/// `0..classes`, plus a query set.
fn instance_strategy() -> impl Strategy<Value = (ClassDataset, ClassDataset, usize)> {
    (4usize..24, 1u32..4, 1usize..6, any::<u64>()).prop_map(|(n, classes, k, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let feats: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
        let train = ClassDataset::new(Features::new(feats, 2), labels, classes);
        let nq = rng.gen_range(1..6);
        let qfeats: Vec<f32> = (0..nq * 2).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let qlabels: Vec<u32> = (0..nq).map(|_| rng.gen_range(0..classes)).collect();
        let test = ClassDataset::new(Features::new(qfeats, 2), qlabels, classes);
        (train, test, k)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Payout conservation: Σ payout = a·Σ value + b, each payout is the
    /// affine image of its value.
    #[test]
    fn payout_conserves_revenue(
        values in proptest::collection::vec(-1.0f64..1.0, 1..50),
        a in -100.0f64..100.0,
        b in 0.0f64..1000.0,
    ) {
        let sv = ShapleyValues::new(values.clone());
        let pay = monetary_payout(&sv, a, b);
        let paid: f64 = pay.iter().sum();
        prop_assert!((paid - (a * sv.total() + b)).abs() < 1e-6 * (1.0 + paid.abs()));
        let flat = b / values.len() as f64;
        for (p, v) in pay.iter().zip(&values) {
            prop_assert!((p - (a * v + flat)).abs() < 1e-9);
        }
    }

    /// DetectionCurve structural invariants: recall is monotone from 0 to 1,
    /// AUC ∈ [0, 1], and precision·m = recall·n_bad at every budget.
    #[test]
    fn detection_curve_invariants(
        values in proptest::collection::vec(-1.0f64..1.0, 2..60),
        bad_seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = values.len();
        let mut rng = StdRng::seed_from_u64(bad_seed);
        let mut is_bad: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
        if !is_bad.iter().any(|&b| b) {
            is_bad[rng.gen_range(0..n)] = true;
        }
        let n_bad = is_bad.iter().filter(|&&b| b).count();
        let sv = ShapleyValues::new(values);
        let curve = DetectionCurve::new(&sv, &is_bad);
        prop_assert_eq!(curve.n_bad(), n_bad);
        let mut prev = 0.0;
        for m in 0..=n {
            let r = curve.recall_at(m);
            prop_assert!(r >= prev - 1e-15);
            prop_assert!((0.0..=1.0 + 1e-15).contains(&r));
            if m > 0 {
                let p = curve.precision_at(m);
                prop_assert!((p * m as f64 - r * n_bad as f64).abs() < 1e-9);
            }
            prev = r;
        }
        prop_assert_eq!(curve.recall_at(n), 1.0);
        let auc = curve.auc();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&auc));
    }

    /// Class summaries partition the total: counts sum to N and per-class
    /// totals sum to the grand total; min ≤ mean ≤ max within each class.
    #[test]
    fn class_summary_partitions(
        pairs in proptest::collection::vec((-1.0f64..1.0, 0u32..5), 1..60),
    ) {
        let (values, labels): (Vec<f64>, Vec<u32>) = pairs.into_iter().unzip();
        let sv = ShapleyValues::new(values);
        let summaries = per_class_summary(&sv, &labels, 5);
        prop_assert_eq!(summaries.len(), 5);
        let count: usize = summaries.iter().map(|s| s.count).sum();
        prop_assert_eq!(count, labels.len());
        let total: f64 = summaries.iter().map(|s| s.total).sum();
        prop_assert!((total - sv.total()).abs() < 1e-9);
        for s in &summaries {
            if s.count > 0 {
                prop_assert!(s.min <= s.mean + 1e-12 && s.mean <= s.max + 1e-12);
            }
        }
    }

    /// Rank agreement is symmetric, bounded by [-1, 1], and exactly 1 against
    /// any strictly increasing transform.
    #[test]
    fn rank_agreement_properties(
        values in proptest::collection::vec(-10.0f64..10.0, 3..40),
        scale in 0.1f64..10.0,
        shift in -5.0f64..5.0,
    ) {
        let a = ShapleyValues::new(values.clone());
        let b = ShapleyValues::new(values.iter().map(|v| scale * v + shift).collect());
        let ab = rank_agreement(&a, &b);
        prop_assert!((ab - 1.0).abs() < 1e-9, "monotone transform must preserve ranks: {ab}");
        let c = ShapleyValues::new(values.iter().rev().cloned().collect());
        let ac = rank_agreement(&a, &c);
        let ca = rank_agreement(&c, &a);
        prop_assert!((ac - ca).abs() < 1e-9);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&ac));
    }

    /// Streaming with the exact backend equals the batch valuation on random
    /// instances, in any prefix: after observing the first q queries, the
    /// running values are **bitwise** the batch values over those q queries
    /// (both paths accumulate the same per-query games exactly and finalize
    /// with the same division).
    #[test]
    fn streaming_prefix_equals_batch((train, test, k) in instance_strategy()) {
        let mut online = OnlineValuator::new(&train, k, StreamBackend::Exact);
        for q in 0..test.len() {
            online.observe(test.x.row(q), test.y[q]);
            let prefix = test.gather(&(0..=q).collect::<Vec<_>>());
            let batch = knn_class_shapley_with_threads(&train, &prefix, k, 1);
            let got = online.values();
            for i in 0..train.len() {
                prop_assert_eq!(got.get(i).to_bits(), batch.get(i).to_bits());
            }
        }
    }

    /// Splitting the query stream into *any* number of contiguous shards
    /// (including empty ones), observing each in its own valuator, and
    /// merging reproduces the single-pass result **bitwise** — the
    /// `OnlineValuator::merge` half of the sharded-runtime contract
    /// (`tests/shard_determinism.rs` covers the batch estimators).
    #[test]
    fn streaming_any_partition_merges_to_single_pass(
        (train, test, k) in instance_strategy(),
        cut_fracs in proptest::collection::vec(0.0f64..1.0, 0..4),
    ) {
        // Shard boundaries from the random fractions; duplicates create
        // empty shards, which must merge as no-ops.
        let mut cuts: Vec<usize> = cut_fracs
            .iter()
            .map(|f| ((test.len() as f64) * f) as usize)
            .collect();
        cuts.push(0);
        cuts.push(test.len());
        cuts.sort_unstable();

        let mut whole = OnlineValuator::new(&train, k, StreamBackend::Exact);
        for q in 0..test.len() {
            whole.observe(test.x.row(q), test.y[q]);
        }

        let mut shards: Vec<OnlineValuator> = cuts
            .windows(2)
            .map(|w| {
                let mut v = OnlineValuator::new(&train, k, StreamBackend::Exact);
                for q in w[0]..w[1] {
                    v.observe(test.x.row(q), test.y[q]);
                }
                v
            })
            .collect();
        let mut total = shards.remove(0);
        for shard in &shards {
            total.merge(shard);
        }
        prop_assert_eq!(total.queries_seen(), whole.queries_seen());
        let (a, b) = (total.values(), whole.values());
        for i in 0..train.len() {
            prop_assert_eq!(a.get(i).to_bits(), b.get(i).to_bits());
        }
    }

    /// `bounds::mc_round_size` invariants over the whole budget range the
    /// schedulers feed it (ISSUE 9 satellite): a round is never zero, never
    /// exceeds the remaining budget, and growing the budget never shrinks
    /// the round — so the static round path can always make progress and a
    /// larger run never degenerates into smaller rounds.
    #[test]
    fn mc_round_size_never_zero_never_over_budget(budget in 0usize..2_000_000) {
        let r = knnshap_core::bounds::mc_round_size(budget);
        prop_assert!(r >= 1, "budget={budget}: round size 0");
        prop_assert!(r <= budget.max(1), "budget={budget}: round {r} exceeds budget");
    }

    #[test]
    fn mc_round_size_monotone_in_budget(
        budget in 1usize..1_000_000,
        extra in 0usize..1_000_000,
    ) {
        let r0 = knnshap_core::bounds::mc_round_size(budget);
        let r1 = knnshap_core::bounds::mc_round_size(budget + extra);
        prop_assert!(
            r1 >= r0,
            "budget {budget}->{}: round shrank {r0}->{r1}",
            budget + extra
        );
    }
}

/// A value vector full of ties: every value comes from a small palette
/// that includes both zeros, so selection and sort must agree on ties.
fn tied_values(codes: &[u8], seed: u64) -> Vec<f64> {
    let palette = [-0.0, 0.0, 1.0, -1.0, 0.25, 1e-300, -2.5, f64::MIN_POSITIVE];
    codes
        .iter()
        .enumerate()
        .map(|(i, &c)| match c {
            8 => (seed.wrapping_mul(i as u64 + 1) % 1000) as f64 / 7.0,
            c => palette[c as usize],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `top_k` and `bottom_k` select instead of sorting everything; they
    /// must still be the prefix and the reversed suffix of `ranking()`.
    #[test]
    fn top_and_bottom_k_are_ranking_prefixes(
        codes in prop::collection::vec(0u8..9, 0..80),
        seed in any::<u64>(),
        k in 0usize..90,
    ) {
        let sv = ShapleyValues::new(tied_values(&codes, seed));
        let ranking = sv.ranking();
        let top: Vec<usize> = ranking.iter().copied().take(k).collect();
        let bottom: Vec<usize> = ranking.iter().rev().copied().take(k).collect();
        prop_assert_eq!(sv.top_k(k), top);
        prop_assert_eq!(sv.bottom_k(k), bottom);
    }
}

// ---------------------------------------------------------------------------
// The recursion battery: the switch-point Theorem 1 loop against the
// per-step loop it replaced, the truncated recursion that shares it, and
// the what-if that stops at the candidate's rank. The case count follows
// `PROPTEST_CASES` (default 32), so CI replays it at a larger count in debug
// and release.
// ---------------------------------------------------------------------------

/// The Theorem 1 loop before the switch-point pass, kept only as the oracle:
/// value `base` at rank `len − 1`, then every rank adds its increment, `+0.0`
/// where the indicator does not flip. Returns the value of every rank.
fn per_step_oracle(len: usize, k: usize, base: f64, c: &[f64]) -> Vec<f64> {
    let mut out = vec![f64::NAN; len];
    let mut s = base;
    out[len - 1] = s;
    for i in (0..len - 1).rev() {
        let rank1 = i + 1;
        s += (c[i] - c[i + 1]) / k as f64 * (k.min(rank1) as f64 / rank1 as f64);
        out[i] = s;
    }
    out
}

/// Theorem 1's base at rank `n − 1` (the one `theorem1_recurrence` uses).
fn exact_base(n: usize, k: usize, top: f64) -> f64 {
    top * k.min(n) as f64 / (n as f64 * k as f64)
}

/// A 0/1 indicator sequence of length `n`: all 0, all 1, alternating, long
/// runs, or independent draws.
fn indicators(n: usize, kind: u8, seed: u64) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let first = rng.gen_range(0..2u32) as usize;
    let mut c = Vec::with_capacity(n);
    let mut bit = first;
    while c.len() < n {
        let run = match kind {
            0 | 1 => n,
            2 => 1,
            3 => rng.gen_range(1..=64),
            _ => rng.gen_range(1..=3),
        };
        let v = match kind {
            0 => 0.0,
            1 => 1.0,
            _ => bit as f64,
        };
        c.extend(std::iter::repeat_n(v, run.min(n - c.len())));
        bit ^= if kind == 4 { rng.gen_range(0..2) } else { 1 };
    }
    c
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    /// `theorem1_recurrence` hands `sink` every rank, farthest first, with
    /// the per-step loop's bits; `theorem1_until` at every stop rank hands
    /// it ranks `n − 1` down to the stop and returns the value there.
    #[test]
    fn recursion_switch_points_match_the_per_step_loop(
        n in 1usize..=300,
        kpick in any::<u64>(),
        kind in 0u8..5,
        seed in any::<u64>(),
    ) {
        use knnshap_core::exact_unweighted::{theorem1_recurrence, theorem1_until};
        let k = 1 + (kpick % (n as u64 + 3)) as usize;
        let c = indicators(n, kind, seed);
        let oracle = per_step_oracle(n, k, exact_base(n, k, c[n - 1]), &c);
        let mut ranks = Vec::with_capacity(n);
        let mut got = vec![f64::NAN; n];
        theorem1_recurrence(n, k, |r| c[r], |r, s| {
            ranks.push(r);
            got[r] = s;
        });
        prop_assert!(ranks.iter().copied().eq((0..n).rev()), "rank order");
        prop_assert!(same_bits(&got, &oracle), "n={} k={} kind={}", n, k, kind);
        for stop in 0..n {
            let mut seen = Vec::with_capacity(n - stop);
            let at = theorem1_until(n, k, stop, |r| c[r], |r, s| seen.push((r, s.to_bits())));
            prop_assert_eq!(at.to_bits(), oracle[stop].to_bits(), "stop {}", stop);
            let want: Vec<(usize, u64)> =
                (stop..n).rev().map(|r| (r, oracle[r].to_bits())).collect();
            prop_assert_eq!(seen, want, "stop {}", stop);
        }
    }

    /// The truncated recursion starts at `0.0` at rank `K*` (or at the exact
    /// base when every point is retrieved) and runs the same loop.
    #[test]
    fn recursion_truncated_matches_the_per_step_loop(
        n in 1usize..=300,
        kpick in any::<u64>(),
        kspick in any::<u64>(),
        kind in 0u8..5,
        seed in any::<u64>(),
    ) {
        use knnshap_core::truncated::truncated_recursion;
        use knnshap_knn::neighbors::Neighbor;
        let k = 1 + (kpick % (n as u64 + 3)) as usize;
        let k_star = 1 + (kspick % (n as u64 + 2)) as usize;
        let c = indicators(n, kind, seed);
        // Rank r holds train point (r · 7 + seed) mod n when that is a
        // permutation, else r; its label is the test label iff c[r] is 1.
        let stride = if n % 7 == 0 { 1 } else { 7 };
        let index = |r: usize| (r * stride + seed as usize % n) % n;
        let neighbors: Vec<Neighbor> = (0..n)
            .map(|r| Neighbor { index: index(r) as u32, dist: r as f32 })
            .collect();
        let mut labels = vec![0u32; n];
        for r in 0..n {
            labels[index(r)] = if c[r] == 1.0 { 2 } else { 1 };
        }
        let len = n.min(k_star);
        let base = if len == n { exact_base(n, k, c[n - 1]) } else { 0.0 };
        let by_rank = per_step_oracle(len, k, base, &c[..len]);
        let mut want = vec![0.0f64; n];
        for r in 0..len {
            want[index(r)] = by_rank[r];
        }
        let got = truncated_recursion(&neighbors, &labels, 2, k, k_star, n);
        prop_assert!(same_bits(got.as_slice(), &want), "n={} k={} K*={}", n, k, k_star);
    }

    /// A what-if is bitwise the committed insert's value, for candidates at
    /// rank 0 of a list (a query point), past every incumbent (far away),
    /// tied with an incumbent (a duplicate row) or anywhere.
    #[test]
    fn recursion_what_if_matches_a_committed_insert(
        (train, test, k) in instance_strategy(),
        where_ in 0u8..4,
        pick in any::<u64>(),
        tpick in 0usize..4,
        label in 0u32..4,
    ) {
        use knnshap_core::resident::ResidentValuator;
        let threads = [1usize, 2, 3, 8][tpick];
        let k = k + (pick % 3) as usize * train.len() / 2;
        let row: Vec<f32> = match where_ {
            0 => test.x.row(pick as usize % test.len()).to_vec(),
            1 => vec![1e3; train.dim()],
            2 => train.x.row(pick as usize % train.len()).to_vec(),
            _ => vec![(pick % 17) as f32 / 8.0 - 1.0, (pick % 13) as f32 / 6.0 - 1.0],
        };
        let engine = ResidentValuator::new(train.clone(), test.clone(), k, threads).unwrap();
        let hypothetical = engine.what_if(&row, label).unwrap();
        let mut committed = ResidentValuator::new(train, test, k, threads).unwrap();
        let idx = committed.insert(&row, label).unwrap();
        prop_assert_eq!(hypothetical.to_bits(), committed.values().get(idx).to_bits());
    }
}
