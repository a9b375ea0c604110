//! Differential battery for batched mutations (ISSUE 8, satellite 1).
//!
//! The claim under test: applying a group of insert/delete mutations via
//! `ResidentValuator::apply_batch` — and via the daemon's `Batch` frame —
//! is **bitwise-identical** to applying them one at a time, at every
//! thread count, with per-mutation acks carrying exactly the versions and
//! indices sequential application would produce. Three checks triangulate:
//!
//! 1. **Batched vs sequential, bitwise** — same engine type, same script,
//!    one `apply_batch` per random group vs one `insert`/`delete` call per
//!    mutation, compared value-for-value by bits at `KNNSHAP_THREADS`-
//!    relevant worker counts (CI replays this file at 1 and 8).
//! 2. **Cold recompute** — the batched engine's final vector equals a
//!    serial `knn_class_shapley_with_threads` run on the final dataset.
//! 3. **The independent Wang–Jia oracle** (arXiv:2304.04258) — forward
//!    closed form, f64 distances, none of the production path; compared to
//!    1e-9 on integer-grid features where both rankings are provably
//!    identical (and exact duplicate distances are everywhere, stressing
//!    the tie-break rule inside the batch splice loop).
//!
//! Deterministic cases pin the k-boundary (batch shrinks N below K and
//! regrows it) and the all-duplicate-distance dataset; server-level tests
//! drive the same invariants through `ValuationServer::handle(Batch)`,
//! including mid-batch rejections and the admission-control `Busy` tier.

use knnshap::datasets::{ClassDataset, Features};
use knnshap::serve::{BatchMutation, BatchOutcome, ErrorCode, Request, Response, ValuationServer};
use knnshap::valuation::exact_unweighted::knn_class_shapley_with_threads;
use knnshap::valuation::resident::{Mutation, ResidentValuator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::assert_bitwise;

const CLASSES: u32 = 3;

fn grid_row(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-4i32..=4) as f32).collect()
}

fn grid_dataset(rng: &mut StdRng, n: usize, dim: usize) -> ClassDataset {
    let mut x = Features::new(Vec::new(), dim);
    let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..CLASSES)).collect();
    for _ in 0..n {
        x.push_row(&grid_row(rng, dim));
    }
    ClassDataset::new(x, y, CLASSES)
}

/// The Wang–Jia-note closed form (arXiv:2304.04258), from scratch — same
/// oracle `serve_incremental.rs` uses; deliberately O(N²) and naive.
fn wang_jia_reference(train: &ClassDataset, test: &ClassDataset, k: usize) -> Vec<f64> {
    let n = train.len();
    let mut total = vec![0.0f64; n];
    for t in 0..test.len() {
        let q = test.x.row(t);
        let y = test.y[t];
        let dist: Vec<f64> = (0..n)
            .map(|i| {
                train
                    .x
                    .row(i)
                    .iter()
                    .zip(q)
                    .map(|(a, b)| {
                        let d = f64::from(*a) - f64::from(*b);
                        d * d
                    })
                    .sum()
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap().then(a.cmp(&b)));
        let hit = |rank1: usize| u8::from(train.y[order[rank1 - 1]] == y) as f64;
        for i in 1..=n {
            let mut acc = 0.0f64;
            for j in i..n {
                acc += (hit(j) - hit(j + 1)) * k.min(j) as f64 / j as f64;
            }
            acc += hit(n) * k.min(n) as f64 / n as f64;
            total[order[i - 1]] += acc / k as f64;
        }
    }
    total.iter().map(|v| v / test.len() as f64).collect()
}

fn assert_close_to_oracle(engine: &ResidentValuator, test: &ClassDataset, k: usize) {
    let got = engine.values();
    let oracle = wang_jia_reference(engine.train(), test, k);
    assert_eq!(got.len(), oracle.len());
    for (i, (a, b)) in got.as_slice().iter().zip(&oracle).enumerate() {
        assert!(
            (a - b).abs() < 1e-9,
            "value {i} disagrees with the Wang–Jia oracle: {a} vs {b}"
        );
    }
}

/// A random always-valid mutation group (≈1/3 deletes, ≈1/3 duplicate
/// inserts, rest fresh inserts), with delete indices resolved against the
/// training size as it evolves *within* the group.
fn random_group(rng: &mut StdRng, engine: &ResidentValuator, max_len: usize) -> Vec<Mutation> {
    let mut len = engine.n_train();
    let dim = engine.train().dim();
    // Resolve duplicate-inserts against the *current* dataset only — rows
    // inserted earlier in the same group can't be sampled, which keeps
    // generation simple while exact duplicates still occur constantly.
    (0..rng.gen_range(1..=max_len))
        .map(|_| {
            if len > 2 && rng.gen_range(0..3) == 0 {
                let index = rng.gen_range(0..len);
                len -= 1;
                Mutation::Delete { index }
            } else {
                len += 1;
                let features = if rng.gen_range(0..2) == 0 && engine.n_train() > 0 {
                    let src = rng.gen_range(0..engine.n_train());
                    engine.train().x.row(src).to_vec()
                } else {
                    grid_row(rng, dim)
                };
                Mutation::Insert {
                    features,
                    label: rng.gen_range(0..CLASSES),
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random mutation groups applied batched vs one-at-a-time are
    /// bitwise-identical at serial and parallel thread counts, with acks
    /// mirroring sequential versions/indices — and the final state agrees
    /// with the cold recompute and the independent oracle.
    #[test]
    fn batched_groups_match_sequential_bitwise(
        seed in 0u64..1_000_000,
        n in 4usize..28,
        n_test in 1usize..6,
        dim in 1usize..4,
        k in 1usize..8,
        rounds in 1usize..5,
    ) {
        for threads in [1usize, knnshap::parallel::current_threads()] {
            let mut rng = StdRng::seed_from_u64(seed);
            let train = grid_dataset(&mut rng, n, dim);
            let test = grid_dataset(&mut rng, n_test, dim);
            let mut batched =
                ResidentValuator::new(train.clone(), test.clone(), k, threads).unwrap();
            let mut sequential =
                ResidentValuator::new(train, test.clone(), k, threads).unwrap();

            for round in 0..rounds {
                let group = random_group(&mut rng, &batched, 7);
                let acks = batched.apply_batch(&group);
                prop_assert_eq!(acks.len(), group.len());
                for (m, ack) in group.iter().zip(&acks) {
                    let a = ack.as_ref().expect("always-valid group");
                    match m {
                        Mutation::Insert { features, label } => {
                            let idx = sequential.insert(features, *label).unwrap();
                            prop_assert_eq!(a.index, idx, "insert index (seed {})", seed);
                        }
                        Mutation::Delete { index } => {
                            sequential.delete(*index).unwrap();
                            prop_assert_eq!(a.index, *index);
                        }
                    }
                    prop_assert_eq!(a.version, sequential.version(),
                        "ack version must match sequential numbering (seed {})", seed);
                }
                prop_assert!(
                    common::bitwise_ok(&sequential.values(), &batched.values()),
                    "batched diverged from sequential (seed {seed}, threads {threads}, \
                     round {round})"
                );
            }

            let cold = knn_class_shapley_with_threads(batched.train(), &test, k, 1);
            prop_assert!(common::bitwise_ok(&cold, &batched.values()),
                "batched diverged from cold recompute (seed {seed})");
            assert_close_to_oracle(&batched, &test, k);
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases.
// ---------------------------------------------------------------------------

/// One batch drags N below K (deletes) and regrows it (inserts) — the
/// k-boundary crossing happens *inside* a single splice pass.
#[test]
fn k_boundary_crossing_inside_one_batch() {
    let mut rng = StdRng::seed_from_u64(23);
    let test = grid_dataset(&mut rng, 3, 2);
    for k in [1usize, 4, 5, 6, 9] {
        let train = grid_dataset(&mut rng, 5, 2);
        let mut batched = ResidentValuator::new(train.clone(), test.clone(), k, 2).unwrap();
        let mut sequential = ResidentValuator::new(train, test.clone(), k, 2).unwrap();
        let group = vec![
            Mutation::Delete { index: 4 },
            Mutation::Delete { index: 0 },
            Mutation::Delete { index: 1 }, // N = 2, below most k
            Mutation::Insert {
                features: vec![0.0, 0.0],
                label: 0,
            },
            Mutation::Insert {
                features: vec![1.0, -1.0],
                label: 1,
            },
            Mutation::Insert {
                features: vec![2.0, -2.0],
                label: 2,
            },
            Mutation::Insert {
                features: vec![3.0, -3.0],
                label: 0,
            }, // back to N = 6
        ];
        for ack in batched.apply_batch(&group) {
            ack.expect("valid boundary script");
        }
        for m in &group {
            match m {
                Mutation::Insert { features, label } => {
                    sequential.insert(features, *label).unwrap();
                }
                Mutation::Delete { index } => sequential.delete(*index).unwrap(),
            }
        }
        assert_bitwise(
            &sequential.values(),
            &batched.values(),
            &format!("k={k} boundary batch"),
        );
        let cold = knn_class_shapley_with_threads(batched.train(), &test, k, 1);
        assert_bitwise(&cold, &batched.values(), &format!("k={k} vs cold"));
        assert_close_to_oracle(&batched, &test, k);
    }
}

/// Every training point at the same location: a batch that deletes from
/// the middle and front of the tie run and inserts more duplicates rides
/// entirely on the (distance, index) tie-break.
#[test]
fn all_duplicate_distances_in_one_batch() {
    let n = 10;
    let x = Features::new(vec![1.0f32; n * 2], 2);
    let y: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
    let train = ClassDataset::new(x, y, 2);
    let test = ClassDataset::new(Features::new(vec![0.0, 0.0, 2.0, 2.0], 2), vec![0, 1], 2);

    let group = vec![
        Mutation::Delete { index: 4 },
        Mutation::Insert {
            features: vec![1.0, 1.0],
            label: 0,
        },
        Mutation::Delete { index: 0 },
        Mutation::Insert {
            features: vec![1.0, 1.0],
            label: 1,
        },
    ];
    for threads in [1usize, 8] {
        let mut batched = ResidentValuator::new(train.clone(), test.clone(), 3, threads).unwrap();
        let mut sequential =
            ResidentValuator::new(train.clone(), test.clone(), 3, threads).unwrap();
        for ack in batched.apply_batch(&group) {
            ack.expect("valid duplicate script");
        }
        for m in &group {
            match m {
                Mutation::Insert { features, label } => {
                    sequential.insert(features, *label).unwrap();
                }
                Mutation::Delete { index } => sequential.delete(*index).unwrap(),
            }
        }
        assert_bitwise(
            &sequential.values(),
            &batched.values(),
            &format!("all-duplicate batch, threads {threads}"),
        );
        let cold = knn_class_shapley_with_threads(batched.train(), &test, 3, 1);
        assert_bitwise(&cold, &batched.values(), "all-duplicate vs cold");
        assert_close_to_oracle(&batched, &test, 3);
    }
}

// ---------------------------------------------------------------------------
// Server-level: the same invariants through the daemon's dispatch.
// ---------------------------------------------------------------------------

/// A `Batch` frame through `handle` publishes ONE snapshot whose vector is
/// bitwise-equal to replaying the same mutations as individual requests,
/// and per-mutation outcomes carry the sequential versions.
#[test]
fn served_batch_matches_served_sequential_bitwise() {
    let mut rng = StdRng::seed_from_u64(77);
    let train = grid_dataset(&mut rng, 20, 3);
    let test = grid_dataset(&mut rng, 4, 3);
    let batched_srv = ValuationServer::new(train.clone(), test.clone(), 2, 2).unwrap();
    let seq_srv = ValuationServer::new(train, test, 2, 2).unwrap();

    let mutations = vec![
        BatchMutation::Insert {
            features: vec![0.0, 0.0, 0.0],
            label: 1,
        },
        BatchMutation::Delete { index: 3 },
        BatchMutation::Insert {
            features: vec![1.0, 2.0, -1.0],
            label: 0,
        },
        BatchMutation::Delete { index: 20 },
    ];
    match batched_srv.handle(&Request::Batch {
        mutations: mutations.clone(),
    }) {
        Response::BatchApplied { version, outcomes } => {
            assert_eq!(version, 4);
            for (i, o) in outcomes.iter().enumerate() {
                assert!(
                    matches!(o, BatchOutcome::Applied { version, .. }
                        if *version == i as u64 + 1),
                    "outcome {i}: {o:?}"
                );
            }
        }
        other => panic!("batch failed: {other:?}"),
    }
    for (i, m) in mutations.iter().enumerate() {
        let req = match m {
            BatchMutation::Insert { features, label } => Request::Insert {
                features: features.clone(),
                label: *label,
            },
            BatchMutation::Delete { index } => Request::Delete { index: *index },
        };
        match seq_srv.handle(&req) {
            Response::Mutated { version, .. } => assert_eq!(version, i as u64 + 1),
            other => panic!("sequential mutation {i} failed: {other:?}"),
        }
    }

    let (b, s) = (batched_srv.snapshot(), seq_srv.snapshot());
    assert_eq!(b.version, s.version);
    assert!(b.verify() && s.verify());
    assert_eq!(b.labels, s.labels);
    assert_bitwise(&s.values, &b.values, "served batch vs served sequential");
}

/// Mid-batch rejections: the bad mutation gets a `Rejected` outcome, the
/// rest of the group still applies, and the published vector equals what
/// sequential application of the *accepted* mutations produces.
#[test]
fn served_batch_rejections_are_per_mutation() {
    let mut rng = StdRng::seed_from_u64(99);
    let train = grid_dataset(&mut rng, 12, 2);
    let test = grid_dataset(&mut rng, 3, 2);
    let srv = ValuationServer::new(train.clone(), test.clone(), 3, 1).unwrap();

    match srv.handle(&Request::Batch {
        mutations: vec![
            BatchMutation::Insert {
                features: vec![2.0, -2.0],
                label: 1,
            },
            BatchMutation::Delete { index: 999 }, // out of range
            BatchMutation::Insert {
                features: vec![2.0],
                label: 0,
            }, // dim mismatch
            BatchMutation::Delete { index: 12 },  // the point inserted above
        ],
    }) {
        Response::BatchApplied { version, outcomes } => {
            assert_eq!(version, 2);
            assert!(matches!(
                outcomes[0],
                BatchOutcome::Applied {
                    version: 1,
                    index: 12
                }
            ));
            assert!(matches!(
                &outcomes[1],
                BatchOutcome::Rejected { code: ErrorCode::Rejected, message }
                    if message.contains("out of range")
            ));
            assert!(matches!(
                &outcomes[2],
                BatchOutcome::Rejected { code: ErrorCode::Rejected, message }
                    if message.contains("features")
            ));
            assert!(matches!(
                outcomes[3],
                BatchOutcome::Applied {
                    version: 2,
                    index: 12
                }
            ));
        }
        other => panic!("batch failed: {other:?}"),
    }
    // Net effect: insert then delete the same point — original valuation.
    let snap = srv.snapshot();
    assert_eq!(snap.version, 2);
    let cold = knn_class_shapley_with_threads(&train, &test, 3, 1);
    assert_bitwise(&cold, &snap.values, "rejections leave accepted net effect");
}

/// Admission control at the dispatch level: bound 0 refuses every
/// mutation — single or batched — with the `Busy` tier, touches nothing,
/// and keeps serving reads.
#[test]
fn served_batch_respects_admission_control() {
    let mut rng = StdRng::seed_from_u64(5);
    let train = grid_dataset(&mut rng, 10, 2);
    let test = grid_dataset(&mut rng, 2, 2);
    let srv = ValuationServer::new(train, test, 2, 1).unwrap();
    srv.set_queue_bound(0);
    match srv.handle(&Request::Batch {
        mutations: vec![BatchMutation::Delete { index: 0 }],
    }) {
        Response::Error {
            code: ErrorCode::Busy,
            ..
        } => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    assert_eq!(srv.snapshot().version, 0);
    assert!(matches!(
        srv.handle(&Request::Dump),
        Response::Vector { .. }
    ));
}

/// The resident exact sums under long batched churn: random groups of up
/// to 7 mutations — some inserting a point and deleting it in the same
/// group, some shrinking N to 1 (K ≥ N) before growing it again — for at
/// least 400 mutations at 1, 2 and 8 threads, against a cold run each
/// time the count passes a multiple of 50.
#[test]
fn long_batched_churn_matches_cold_runs_every_50_mutations() {
    for threads in [1usize, 2, 8] {
        let mut rng = StdRng::seed_from_u64(67);
        let train = grid_dataset(&mut rng, 24, 2);
        let test = grid_dataset(&mut rng, 4, 2);
        let k = 4;
        let mut engine = ResidentValuator::new(train, test.clone(), k, threads).unwrap();
        let mut applied = 0usize;
        let mut group_no = 0usize;
        while applied < 420 {
            let n = engine.n_train();
            let group = match group_no % 5 {
                // Insert a point and delete it again, in one group.
                0 => vec![
                    Mutation::Insert {
                        features: grid_row(&mut rng, 2),
                        label: rng.gen_range(0..CLASSES),
                    },
                    Mutation::Delete { index: n },
                ],
                // Shrink to one point, once per thread count.
                1 if group_no == 31 => (1..n).map(|i| Mutation::Delete { index: n - i }).collect(),
                _ => random_group(&mut rng, &engine, 7),
            };
            group_no += 1;
            let acks = engine.apply_batch(&group);
            assert!(
                acks.iter().all(Result::is_ok),
                "threads {threads}: group {group_no}"
            );
            let before = applied;
            applied += group.len();
            if engine.n_train() == 1 || applied / 50 > before / 50 {
                let cold = knn_class_shapley_with_threads(engine.train(), &test, k, 1);
                assert_bitwise(
                    &cold,
                    &engine.values(),
                    &format!("threads {threads}: after {applied} mutations"),
                );
            }
        }
    }
}
