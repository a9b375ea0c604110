//! Differential-testing battery for the incremental serving path (ISSUE 6).
//!
//! The claim under test is the serving determinism contract: after **any**
//! interleaving of train-point inserts and deletes, the resident engine's
//! vector — and the vector the daemon actually serves — is
//! **bitwise-identical** to a cold `exact_unweighted` recompute on the
//! final dataset, at every thread count. Three independent checks triangulate:
//!
//! 1. **Bitwise vs cold recompute** (`knn_class_shapley_with_threads` on
//!    the post-mutation dataset, serial) — same recurrence, so identity
//!    must hold to the last bit.
//! 2. **Thread invariance** — engines run at 1, 8 and `KNNSHAP_THREADS`
//!    workers must agree bitwise (CI replays this file at
//!    `KNNSHAP_THREADS=1` and `=8`).
//! 3. **An independent Wang–Jia-note oracle** (arXiv:2304.04258): a
//!    from-scratch implementation of the recurrence in its *forward
//!    closed-form* — f64 distances, index sort, O(N²) per-rank suffix
//!    sums; none of the production code path. Bitwise equality is not
//!    meaningful across a different float-op order, so the oracle is
//!    compared to 1e-9 absolute — tight enough that a wrong tie-break,
//!    off-by-one rank or bad min(K,i)/i factor fails loudly. Features are
//!    drawn on a small integer grid so f32 and f64 squared distances are
//!    both exact and the two implementations provably rank identically
//!    (and exact duplicate distances occur constantly, stressing the
//!    tie-break rule).
//!
//! Property tests drive random interleavings (including k ≥ N boundaries
//! and duplicate points); deterministic tests pin the named edge cases.

use knnshap::datasets::{ClassDataset, Features};
use knnshap::knn::distance::Metric;
use knnshap::knn::neighbors::argsort_by_distance;
use knnshap::numerics::exact::ExactVec;
use knnshap::serve::{Request, Response, ValuationServer};
use knnshap::valuation::exact_unweighted::{
    knn_class_shapley_single, knn_class_shapley_with_threads,
};
use knnshap::valuation::resident::{Mutation as Op, ResidentValuator};
use knnshap::valuation::types::ShapleyValues;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::assert_bitwise;

// ---------------------------------------------------------------------------
// Independent reference: the Wang–Jia-note recurrence, forward closed form.
// ---------------------------------------------------------------------------

/// From-scratch KNN Shapley (unweighted classification): for each test
/// point, rank by f64 squared L2 (ties toward the smaller index), then for
/// each 1-based rank `i` evaluate the closed-form suffix sum
///
/// ```text
/// s_i = (1/K) [ Σ_{j=i}^{N−1} (1[y_j = y] − 1[y_{j+1} = y]) · min(K,j)/j
///               + 1[y_N = y] · min(K,N)/N ]
/// ```
///
/// which is the unrolled form of the paper's Theorem 1 recurrence as
/// restated (with the min(K,i)/i correction) in the Wang–Jia note. O(N²)
/// per test point and deliberately naive.
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

fn assert_close_to_oracle(
    got: &ShapleyValues,
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
) {
    let oracle = wang_jia_reference(train, test, k);
    assert_eq!(got.len(), oracle.len());
    for (i, (a, b)) in got.as_slice().iter().zip(&oracle).enumerate() {
        assert!(
            (a - b).abs() < 1e-9,
            "value {i} disagrees with the Wang–Jia oracle: {a} vs {b}"
        );
    }
}

// ---------------------------------------------------------------------------
// Random-instance machinery. Integer-grid features: f32/f64 squared
// distances are exactly representable, so the production f32 path and the
// oracle's f64 path provably produce the same ranking — and duplicate
// distances are common, exercising the (dist, index) tie-break everywhere.
// ---------------------------------------------------------------------------

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

enum Mutation {
    Insert(Vec<f32>, u32),
    Delete(usize),
}

/// A random mutation script: ~1/3 deletes, ~1/3 fresh-point inserts, ~1/3
/// duplicate-of-existing-point inserts (exact duplicate distances).
fn random_script(rng: &mut StdRng, engine: &mut ResidentValuator, steps: usize) -> Vec<Mutation> {
    let mut script = Vec::with_capacity(steps);
    for _ in 0..steps {
        let m = if engine.n_train() > 2 && rng.gen_range(0..3) == 0 {
            Mutation::Delete(rng.gen_range(0..engine.n_train()))
        } else if rng.gen_range(0..2) == 0 {
            let src = rng.gen_range(0..engine.n_train());
            Mutation::Insert(
                engine.train().x.row(src).to_vec(),
                rng.gen_range(0..CLASSES),
            )
        } else {
            Mutation::Insert(
                grid_row(rng, engine.train().dim()),
                rng.gen_range(0..CLASSES),
            )
        };
        match &m {
            Mutation::Insert(row, label) => {
                engine.insert(row, *label).expect("insert");
            }
            Mutation::Delete(i) => engine.delete(*i).expect("delete"),
        }
        script.push(m);
    }
    script
}

fn replay(script: &[Mutation], engine: &mut ResidentValuator) {
    for m in script {
        match m {
            Mutation::Insert(row, label) => {
                engine.insert(row, *label).expect("replay insert");
            }
            Mutation::Delete(i) => engine.delete(*i).expect("replay delete"),
        }
    }
}

// ---------------------------------------------------------------------------
// Property battery.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings: engine values after the script are bitwise-
    /// identical to the cold recompute, at 1, 8 and `KNNSHAP_THREADS`
    /// workers, and agree with the independent oracle.
    #[test]
    fn mutation_interleavings_match_cold_recompute(
        seed in 0u64..1_000_000,
        n in 4usize..32,
        n_test in 1usize..6,
        dim in 1usize..4,
        k in 1usize..8,
        steps in 1usize..14,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let train = grid_dataset(&mut rng, n, dim);
        let test = grid_dataset(&mut rng, n_test, dim);

        let mut engine = ResidentValuator::new(train.clone(), test.clone(), k, 1).unwrap();
        let script = random_script(&mut rng, &mut engine, steps);
        let served = engine.values();

        // 1. Bitwise vs cold serial recompute on the final dataset.
        let cold = knn_class_shapley_with_threads(engine.train(), &test, k, 1);
        prop_assert!(common::bitwise_ok(&cold, &served),
            "engine diverged from cold recompute (seed {seed})");

        // 2. Thread invariance: same script at 8 and at the env-driven
        //    thread count (CI replays with KNNSHAP_THREADS=1 and =8).
        for threads in [8usize, knnshap::parallel::current_threads()] {
            let mut other = ResidentValuator::new(train.clone(), test.clone(), k, threads).unwrap();
            replay(&script, &mut other);
            prop_assert!(common::bitwise_ok(&served, &other.values()),
                "engine at {threads} threads diverged (seed {seed})");
        }

        // 3. Independent Wang–Jia oracle on the final dataset.
        let oracle = wang_jia_reference(engine.train(), &test, k);
        for (i, (a, b)) in served.as_slice().iter().zip(&oracle).enumerate() {
            prop_assert!((a - b).abs() < 1e-9,
                "value {i} disagrees with the oracle: {a} vs {b} (seed {seed})");
        }
    }

    /// What-if is a pure preview: bitwise-equal to committing the insert
    /// and reading the new point's value, with no state change.
    #[test]
    fn what_if_equals_committed_insert(
        seed in 0u64..1_000_000,
        n in 3usize..24,
        n_test in 1usize..5,
        k in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let train = grid_dataset(&mut rng, n, 2);
        let test = grid_dataset(&mut rng, n_test, 2);
        // Half the candidates duplicate an existing point exactly.
        let (row, label) = if rng.gen_range(0..2) == 0 {
            (train.x.row(rng.gen_range(0..n)).to_vec(), rng.gen_range(0..CLASSES))
        } else {
            (grid_row(&mut rng, 2), rng.gen_range(0..CLASSES))
        };

        let engine = ResidentValuator::new(train.clone(), test.clone(), k, 1).unwrap();
        let before = engine.version();
        let preview = engine.what_if(&row, label).unwrap();
        prop_assert_eq!(engine.version(), before, "what_if must not commit");

        let mut committed = ResidentValuator::new(train, test, k, 1).unwrap();
        let idx = committed.insert(&row, label).unwrap();
        let actual = committed.values().get(idx);
        prop_assert_eq!(preview.to_bits(), actual.to_bits(),
            "what_if {} != committed {} (seed {})", preview, actual, seed);
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases.
// ---------------------------------------------------------------------------

/// K at and across the shrinking/growing training-set size: deletes that
/// pull N below K, inserts that push it back above.
#[test]
fn k_boundary_churn_stays_bitwise() {
    let mut rng = StdRng::seed_from_u64(7);
    let test = grid_dataset(&mut rng, 3, 2);
    for k in [1usize, 4, 5, 6, 9] {
        let train = grid_dataset(&mut rng, 5, 2);
        let mut engine = ResidentValuator::new(train, test.clone(), k, 2).unwrap();
        // Shrink to 2 points (N < K for most k), then regrow to 6.
        engine.delete(4).unwrap();
        engine.delete(0).unwrap();
        engine.delete(1).unwrap();
        for i in 0..4 {
            engine
                .insert(&[i as f32, -(i as f32)], i % CLASSES)
                .unwrap();
        }
        let cold = knn_class_shapley_with_threads(engine.train(), &test, k, 1);
        assert_bitwise(&cold, &engine.values(), &format!("k={k} boundary churn"));
        assert_close_to_oracle(&engine.values(), engine.train(), &test, k);
    }
}

/// Every training point at the same location (all pairwise distances
/// duplicate): ordering is pure index tie-break; churn must preserve it.
#[test]
fn all_duplicate_distances_survive_churn() {
    let n = 10;
    let x = Features::new(vec![1.0f32; n * 2], 2);
    let y: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
    let train = ClassDataset::new(x, y, 2);
    let test = ClassDataset::new(Features::new(vec![0.0, 0.0, 2.0, 2.0], 2), vec![0, 1], 2);

    let mut engine = ResidentValuator::new(train, test.clone(), 3, 2).unwrap();
    engine.delete(4).unwrap(); // middle of the tie run
    engine.insert(&[1.0, 1.0], 0).unwrap(); // yet another duplicate
    engine.delete(0).unwrap(); // front of the tie run
    let cold = knn_class_shapley_with_threads(engine.train(), &test, 3, 1);
    assert_bitwise(&cold, &engine.values(), "all-duplicate distances");
    assert_close_to_oracle(&engine.values(), engine.train(), &test, 3);
}

/// The vector the *daemon* serves (through `handle`, the same dispatch the
/// socket loop uses) obeys the contract too — version tags, checksums and
/// all. Mirrors the socket-level CI smoke in-process.
#[test]
fn served_dump_matches_cold_value_run() {
    let mut rng = StdRng::seed_from_u64(41);
    let train = grid_dataset(&mut rng, 20, 3);
    let test = grid_dataset(&mut rng, 4, 3);
    let server = ValuationServer::new(train, test.clone(), 2, 2).unwrap();

    let script: Vec<Request> = vec![
        Request::Insert {
            features: vec![0.0, 0.0, 0.0],
            label: 1,
        },
        Request::Delete { index: 3 },
        Request::Insert {
            features: vec![1.0, 2.0, -1.0],
            label: 0,
        },
        Request::Delete { index: 20 },
        Request::Delete { index: 0 },
    ];
    for (i, req) in script.iter().enumerate() {
        match server.handle(req) {
            Response::Mutated { version, .. } => assert_eq!(version, i as u64 + 1),
            other => panic!("mutation {i} failed: {other:?}"),
        }
    }

    let (final_train, served) = match server.handle(&Request::TrainCsv) {
        Response::TrainCsv { csv, .. } => {
            let dir = std::env::temp_dir();
            let path = dir.join(format!("knnshap-serveinc-{}.csv", std::process::id()));
            std::fs::write(&path, &csv).unwrap();
            let train = knnshap::datasets::io::load_class_csv(&path).unwrap();
            std::fs::remove_file(&path).ok();
            (train, server.snapshot())
        }
        other => panic!("train-csv failed: {other:?}"),
    };
    assert_eq!(served.version, script.len() as u64);
    assert!(served.verify(), "served snapshot checksum");

    // Cold one-shot run on the dataset as a client would reload it.
    let cold = knn_class_shapley_with_threads(&final_train, &test, 2, 1);
    assert_bitwise(&cold, &served.values, "served vs cold value run");
}

/// The fresh (unmutated) engine already agrees with both references —
/// anchors the oracle itself against the production batch path.
#[test]
fn oracle_agrees_with_batch_path_on_fresh_datasets() {
    let mut rng = StdRng::seed_from_u64(17);
    for k in [1usize, 3, 10, 40] {
        let train = grid_dataset(&mut rng, 30, 2);
        let test = grid_dataset(&mut rng, 5, 2);
        let batch = knn_class_shapley_with_threads(&train, &test, k, 1);
        assert_close_to_oracle(&batch, &train, &test, k);
    }
}

// ---------------------------------------------------------------------------
// The farthest same-label point: past it every value is Theorem 1's zero
// tail, and the engine recurses only through it, tracking its rank
// through every splice.
// ---------------------------------------------------------------------------

/// The full-ranking oracle: each test point's Theorem 1 loop over every
/// rank (`knn_class_shapley_single`), summed exactly and averaged as the
/// batch path does.
fn full_ranking_values(train: &ClassDataset, test: &ClassDataset, k: usize) -> ShapleyValues {
    let mut sums = ExactVec::zeros(train.len());
    for j in 0..test.len() {
        sums.add_dense(knn_class_shapley_single(train, test.x.row(j), test.y[j], k).as_slice());
    }
    let d = test.len() as f64;
    ShapleyValues::new((0..train.len()).map(|i| sums.value(i) / d).collect())
}

/// The training index of test point `j`'s farthest same-label row, if any.
fn farthest_same_label(engine: &ResidentValuator, j: usize) -> Option<usize> {
    let (train, test) = (engine.train(), engine.test());
    let ranked = argsort_by_distance(&train.x, test.x.row(j), Metric::SquaredL2);
    ranked
        .iter()
        .rev()
        .find(|nb| train.y[nb.index as usize] == test.y[j])
        .map(|nb| nb.index as usize)
}

/// Served values equal the cold batch run and the full-ranking oracle.
fn assert_matches_full_ranking(engine: &ResidentValuator, what: &str) {
    let (train, test, k) = (engine.train(), engine.test(), engine.k());
    let served = engine.values();
    assert_bitwise(&full_ranking_values(train, test, k), &served, what);
    assert_bitwise(
        &knn_class_shapley_with_threads(train, test, k, 1),
        &served,
        what,
    );
}

/// A dataset on the grid whose test points carry labels 0 and 1, and a
/// third test label no training row has.
fn far_fixture(seed: u64) -> (ClassDataset, ClassDataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let train = grid_dataset(&mut rng, 24, 2);
    let mut test = grid_dataset(&mut rng, 3, 2);
    test.y = vec![0, 1, CLASSES];
    test.n_classes = CLASSES + 1;
    (train, test)
}

/// Inserts beyond, at and before each test point's farthest same-label
/// point, of either label; deletes of that point (its rank walks back),
/// of points before it, and of the only point with a label — one at a
/// time and inside batches, where a delete of the farthest point is
/// followed by more splices — all stay bitwise on the full-ranking oracle.
#[test]
fn churn_around_the_farthest_same_label_point_stays_bitwise() {
    for (seed, k, threads) in [(3u64, 1usize, 1usize), (5, 3, 2), (8, 30, 8)] {
        let (train, test) = far_fixture(seed);
        let mut engine = ResidentValuator::new(train, test, k, threads).unwrap();
        assert_matches_full_ranking(&engine, "fresh");
        // Each step's far points lie past every earlier one.
        let far_away = |step: usize| [50.0 + 30.0 * step as f32, 50.0];
        for step in 0..6 {
            let what = |m: &str| format!("seed {seed} k {k} step {step}: {m}");
            for j in 0..2 {
                let y = engine.test().y[j];
                // Past every row, with the label: the farthest moves there.
                let far = far_away(2 * step + j);
                let idx = engine.insert(&far, y).unwrap();
                assert_eq!(farthest_same_label(&engine, j), Some(idx));
                assert_matches_full_ranking(&engine, &what("same label past far"));
                // Past it again, with another label: nothing moves.
                engine.insert(&[far[0] + 10.0, 50.0], y ^ 1).unwrap();
                assert_eq!(farthest_same_label(&engine, j), Some(idx));
                assert_matches_full_ranking(&engine, &what("other label past far"));
                // Delete the farthest: it walks back to the previous one.
                engine.delete(idx).unwrap();
                assert_matches_full_ranking(&engine, &what("delete far"));
                if let Some(f) = farthest_same_label(&engine, j) {
                    // A duplicate of it ties its distance and splices after.
                    let row = engine.train().x.row(f).to_vec();
                    let dup = engine.insert(&row, y).unwrap();
                    assert_eq!(farthest_same_label(&engine, j), Some(dup));
                    assert_matches_full_ranking(&engine, &what("tie at far"));
                    engine.delete(f).unwrap();
                    assert_matches_full_ranking(&engine, &what("delete the tied one"));
                }
                // Near the query: before the farthest, either label.
                let near = engine.test().x.row(j).to_vec();
                engine.insert(&near, y ^ (step as u32 & 1)).unwrap();
                assert_matches_full_ranking(&engine, &what("insert before far"));
                engine.delete(0).unwrap();
                assert_matches_full_ranking(&engine, &what("delete row 0"));
            }
            // The third test point's label appears, then goes again.
            let idx = engine.insert(&[1.0, -1.0], CLASSES).unwrap();
            assert_matches_full_ranking(&engine, &what("first point of a label"));
            engine.delete(idx).unwrap();
            assert_matches_full_ranking(&engine, &what("last point of a label"));

            // One batch: delete test 0's farthest, then splice on.
            let f = farthest_same_label(&engine, 0).expect("label 0 present");
            let n = engine.n_train();
            let acks = engine.apply_batch(&[
                Op::Delete { index: f },
                Op::Insert {
                    features: vec![-500.0, 0.0],
                    label: 1,
                },
                Op::Insert {
                    features: vec![0.0, 0.0],
                    label: 0,
                },
                Op::Delete { index: n - 1 },
                Op::Insert {
                    features: vec![-40.0, 40.0],
                    label: 0,
                },
                Op::Delete { index: 0 },
            ]);
            assert!(acks.iter().all(Result::is_ok), "{}", what("batch acks"));
            assert_matches_full_ranking(&engine, &what("batch"));
        }
    }
}

/// A what-if before, at (tied with) and past each test point's farthest
/// same-label point, with its label and with another, equals the
/// committed insert's value; so does one for a label no row has.
#[test]
fn what_if_around_the_farthest_same_label_point() {
    for (seed, k) in [(11u64, 1usize), (12, 2), (13, 5), (14, 40)] {
        let (train, test) = far_fixture(seed);
        let engine = ResidentValuator::new(train.clone(), test.clone(), k, 2).unwrap();
        let mut rows: Vec<Vec<f32>> = vec![vec![50.0, 50.0], vec![0.0, 0.0]];
        for j in 0..2 {
            rows.push(test.x.row(j).to_vec());
            let f = farthest_same_label(&engine, j).expect("label present");
            let at = train.x.row(f).to_vec();
            rows.push(at.iter().map(|v| v * 0.5).collect());
            rows.push(at.iter().map(|v| v * 1.5).collect());
            rows.push(at);
        }
        for row in &rows {
            for label in 0..=CLASSES {
                let preview = engine.what_if(row, label).unwrap();
                let mut committed =
                    ResidentValuator::new(train.clone(), test.clone(), k, 2).unwrap();
                let idx = committed.insert(row, label).unwrap();
                let full = full_ranking_values(committed.train(), &test, k);
                assert_eq!(
                    preview.to_bits(),
                    full.get(idx).to_bits(),
                    "seed {seed} k {k} row {row:?} label {label}"
                );
                assert_eq!(preview.to_bits(), committed.values().get(idx).to_bits());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The resident exact sums: a mutation re-folds only the test points whose
// head it touches, so a long script is held to cold runs at every phase
// where the touched set is easy to get wrong.
// ---------------------------------------------------------------------------

/// Test point `j`'s rank `far + 1` row, when its head stops short of the
/// whole ranking: the last row whose distance decides whether an insert or
/// delete reaches the head.
fn row_past_far(engine: &ResidentValuator, j: usize) -> Option<usize> {
    let (train, test) = (engine.train(), engine.test());
    let ranked = argsort_by_distance(&train.x, test.x.row(j), Metric::SquaredL2);
    let far = ranked
        .iter()
        .rposition(|nb| train.y[nb.index as usize] == test.y[j])?;
    ranked.get(far + 1).map(|nb| nb.index as usize)
}

/// A 420-mutation script at 1, 2 and 8 threads, against a cold run every
/// 50 steps and after each phase: deletes of a list's farthest same-label
/// row, inserts tied exactly with the row at `far + 1` and deletes of that
/// row, one batch that inserts a point and deletes it, inserts past every
/// row with a test point's label (a head that is the whole ranking), and a
/// phase that shrinks N to 1 (K ≥ N) and grows it again.
#[test]
fn long_churn_matches_cold_runs_every_50_steps() {
    for threads in [1usize, 2, 8] {
        let mut rng = StdRng::seed_from_u64(61);
        let train = grid_dataset(&mut rng, 30, 2);
        let test = grid_dataset(&mut rng, 4, 2);
        let k = 3;
        let mut engine = ResidentValuator::new(train, test.clone(), k, threads).unwrap();
        let check = |engine: &ResidentValuator, what: &str| {
            let cold = knn_class_shapley_with_threads(engine.train(), &test, k, 1);
            assert_bitwise(
                &cold,
                &engine.values(),
                &format!("threads {threads}: {what}"),
            );
        };
        for step in 0..420usize {
            let n = engine.n_train();
            let j = step % test.len();
            match step % 6 {
                _ if (200..230).contains(&step) => {
                    // Shrink to one point, then grow again.
                    if n > 1 {
                        engine.delete(rng.gen_range(0..n)).unwrap();
                    }
                    if n == 2 {
                        assert_eq!(engine.n_train(), 1);
                        check(&engine, "N = 1");
                    }
                }
                0 => match farthest_same_label(&engine, j) {
                    Some(f) if n > 1 => engine.delete(f).unwrap(),
                    _ => {
                        engine.insert(&grid_row(&mut rng, 2), test.y[j]).unwrap();
                    }
                },
                1 => match row_past_far(&engine, j) {
                    // A tie exactly with the row at `far + 1`: it splices
                    // after it, past the head.
                    Some(r) => {
                        let row = engine.train().x.row(r).to_vec();
                        let label = rng.gen_range(0..CLASSES);
                        engine.insert(&row, label).unwrap();
                        if rng.gen_range(0..2) == 0 && engine.n_train() > 1 {
                            engine.delete(r).unwrap();
                        }
                    }
                    None => {
                        engine.insert(&grid_row(&mut rng, 2), 0).unwrap();
                    }
                },
                2 => {
                    let acks = engine.apply_batch(&[
                        Op::Insert {
                            features: grid_row(&mut rng, 2),
                            label: rng.gen_range(0..CLASSES),
                        },
                        Op::Delete { index: n },
                    ]);
                    assert!(acks.iter().all(Result::is_ok));
                }
                3 => {
                    // Past every row, with the test point's label.
                    let far = [40.0 + step as f32, 40.0];
                    engine.insert(&far, test.y[j]).unwrap();
                }
                _ if n > 2 && rng.gen_range(0..2) == 0 => {
                    engine.delete(rng.gen_range(0..n)).unwrap();
                }
                _ => {
                    let src = rng.gen_range(0..n);
                    let row = if rng.gen_range(0..2) == 0 {
                        engine.train().x.row(src).to_vec()
                    } else {
                        grid_row(&mut rng, 2)
                    };
                    engine.insert(&row, rng.gen_range(0..CLASSES)).unwrap();
                }
            }
            if step % 50 == 49 || step == 230 {
                check(&engine, &format!("step {step}"));
            }
        }
        check(&engine, "end");
    }
}

// ---------------------------------------------------------------------------
// Deletes on stable row slots: a delete leaves its slot behind, and the
// engine compacts once those outnumber the live rows.
// ---------------------------------------------------------------------------

/// The training indices of the largest group of rows tied at one distance
/// from test point `j`, in rank order, when any distance is shared.
fn largest_tie(engine: &ResidentValuator, j: usize) -> Option<Vec<usize>> {
    let (train, test) = (engine.train(), engine.test());
    let ranked = argsort_by_distance(&train.x, test.x.row(j), Metric::SquaredL2);
    ranked
        .chunk_by(|a, b| a.dist == b.dist)
        .filter(|group| group.len() > 1)
        .max_by_key(|group| group.len())
        .map(|group| group.iter().map(|nb| nb.index as usize).collect())
}

/// A delete-heavy script at 1, 2 and 8 threads: deletes of index 0, of the
/// last index, of each test point's farthest same-label row and of a row
/// inside a distance tie, until the slots have compacted twice. After each
/// compaction, duplicates of live rows are reinserted, each first valued as
/// a what-if and checked against its committed insert. The values equal a
/// cold run bit for bit after every step.
#[test]
fn delete_heavy_churn_compacts_and_stays_bitwise() {
    for threads in [1usize, 2, 8] {
        let mut rng = StdRng::seed_from_u64(83);
        let train = grid_dataset(&mut rng, 40, 2);
        let test = grid_dataset(&mut rng, 4, 2);
        let k = 3;
        let mut engine = ResidentValuator::new(train, test.clone(), k, threads).unwrap();
        let check = |engine: &ResidentValuator, what: &str| {
            let cold = knn_class_shapley_with_threads(engine.train(), &test, k, 1);
            assert_bitwise(
                &cold,
                &engine.values(),
                &format!("threads {threads}: {what}"),
            );
        };
        let mut compactions = 0;
        for step in 0..100usize {
            let n = engine.n_train();
            let j = step % test.len();
            let index = match step % 4 {
                0 => 0,
                1 => n - 1,
                2 => farthest_same_label(&engine, j).unwrap_or(n / 2),
                _ => largest_tie(&engine, j).map_or(n / 2, |tie| tie[tie.len() / 2]),
            };
            let slots = engine.slots();
            engine.delete(index).unwrap();
            check(&engine, &format!("step {step}: delete {index} of {n}"));
            assert!(
                engine.slots() <= 2 * engine.n_train(),
                "step {step}: {} slots for {} rows",
                engine.slots(),
                engine.n_train()
            );
            if engine.slots() >= slots {
                continue;
            }
            compactions += 1;
            assert_eq!(engine.slots(), engine.n_train(), "step {step}: compacted");
            for dup in 0..3 {
                let src = rng.gen_range(0..engine.n_train());
                let row = engine.train().x.row(src).to_vec();
                let label = rng.gen_range(0..CLASSES);
                let preview = engine.what_if(&row, label).unwrap();
                let idx = engine.insert(&row, label).unwrap();
                assert_eq!(
                    preview.to_bits(),
                    engine.values().get(idx).to_bits(),
                    "threads {threads} step {step}: what-if of duplicate {dup}"
                );
                check(&engine, &format!("step {step}: duplicate {dup}"));
            }
            if compactions == 2 {
                break;
            }
        }
        assert_eq!(compactions, 2, "threads {threads}");
    }
}
