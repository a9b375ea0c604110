//! End-to-end orchestration battery: every shardable estimator family, run
//! through plan → fleet → auto-merge, must be **bitwise-identical** to the
//! unsharded estimator — at worker counts {1, 2, 4}, after crashes at every
//! kill point between checkpoint writes, after lease-expiry reassignment,
//! and with corrupt or foreign checkpoints lying around.
//!
//! CI replays this suite under `KNNSHAP_THREADS=1` and `=8`, extending the
//! guarantee across thread counts.

use knnshap_core::estimator::{Family, Task};
use knnshap_core::mc::{IncKnnUtility, StoppingRule};
use knnshap_core::sharding::{ShardKind, ShardPartial, ShardSpec};
use knnshap_core::utility::KnnClassUtility;
use knnshap_core::ShapleyValues;
use knnshap_datasets::synth::blobs::{self, BlobConfig};
use knnshap_datasets::synth::regression::{self, RegressionConfig};
use knnshap_knn::weights::WeightFn;
use knnshap_runtime::dispatch::PreparedJob;
use knnshap_runtime::layout::JobDirs;
use knnshap_runtime::queue;
use knnshap_runtime::snapshot::{self, TrainSet};
use knnshap_runtime::spec::{JobPlan, JobSpec};
use knnshap_runtime::supervisor::{run_job, JobOutcome, Launcher, SupervisorOptions};
use knnshap_runtime::worker::{run_worker, FaultPoint, WorkerOptions};
use knnshap_runtime::JobError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const K: usize = 2;
const SEED: u64 = 9;
const PERMS: usize = 30;
const GT_TESTS: usize = 40;
const WEIGHT: WeightFn = WeightFn::Exponential { beta: 0.7 };

/// A scratch workspace holding the CSVs and job dirs of one test.
struct Workspace {
    root: PathBuf,
}

impl Workspace {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("knnshap-orch-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        Self { root }
    }

    fn class_csvs(&self) -> (PathBuf, PathBuf) {
        let cfg = BlobConfig {
            n: 36,
            dim: 3,
            n_classes: 2,
            cluster_std: 0.6,
            center_scale: 2.5,
            seed: 12,
        };
        let train = blobs::generate(&cfg);
        let test = blobs::queries(&cfg, 7, 5);
        let (t, q) = (self.root.join("train.csv"), self.root.join("test.csv"));
        knnshap_datasets::io::save_class_csv(&t, &train).unwrap();
        knnshap_datasets::io::save_class_csv(&q, &test).unwrap();
        (t, q)
    }

    fn reg_csvs(&self) -> (PathBuf, PathBuf) {
        let cfg = RegressionConfig {
            n: 30,
            dim: 2,
            ..Default::default()
        };
        let train = regression::generate(&cfg);
        let test = regression::queries(&cfg, 5);
        let (t, q) = (self.root.join("rtrain.csv"), self.root.join("rtest.csv"));
        knnshap_datasets::io::save_reg_csv(&t, &train).unwrap();
        knnshap_datasets::io::save_reg_csv(&q, &test).unwrap();
        (t, q)
    }

    fn job_dirs(&self, name: &str) -> JobDirs {
        JobDirs::new(self.root.join(name))
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// The seven shard kinds as job specs, with the exact kinds weighted and
/// uniform (paths filled by caller).
fn families(ws: &Workspace) -> Vec<(&'static str, JobSpec)> {
    let (ct, cq) = ws.class_csvs();
    let (rt, rq) = ws.reg_csvs();
    let reg = |weight| JobSpec {
        task: Task::Reg,
        train: rt.clone(),
        test: rq.clone(),
        k: K,
        weight,
        family: Family::Exact,
        shards: 5,
        checkpoint_chunks: 2,
    };
    let class = |family, weight| JobSpec {
        task: Task::Class,
        train: ct.clone(),
        test: cq.clone(),
        k: K,
        weight,
        family,
        shards: 5,
        checkpoint_chunks: 2,
    };
    vec![
        ("exact-class", class(Family::Exact, WeightFn::Uniform)),
        ("exact-weighted", class(Family::Exact, WEIGHT)),
        ("exact-reg", reg(WeightFn::Uniform)),
        ("exact-reg-weighted", reg(WEIGHT)),
        (
            "truncated",
            class(Family::Truncated { eps: 0.2 }, WeightFn::Uniform),
        ),
        (
            "mc-baseline",
            class(
                Family::McBaseline {
                    perms: PERMS,
                    seed: SEED,
                },
                WeightFn::Uniform,
            ),
        ),
        (
            "mc-improved",
            class(
                Family::McImproved {
                    perms: PERMS,
                    seed: SEED,
                },
                WEIGHT,
            ),
        ),
        (
            "group-testing",
            class(
                Family::GroupTesting {
                    tests: GT_TESTS,
                    seed: SEED,
                },
                WeightFn::Uniform,
            ),
        ),
    ]
}

/// The unsharded reference for a family, computed straight through core.
fn reference(spec: &JobSpec) -> ShapleyValues {
    let threads = knnshap_parallel::current_threads();
    match spec.task {
        Task::Reg => {
            let train = knnshap_datasets::io::load_reg_csv(&spec.train).unwrap();
            let test = knnshap_datasets::io::load_reg_csv(&spec.test).unwrap();
            match spec.weight {
                WeightFn::Uniform => {
                    knnshap_core::exact_regression::knn_reg_shapley(&train, &test, spec.k)
                }
                w => knnshap_core::exact_weighted::weighted_knn_reg_shapley(
                    &train, &test, spec.k, w, threads,
                ),
            }
        }
        Task::Class => {
            let train = knnshap_datasets::io::load_class_csv(&spec.train).unwrap();
            let test = knnshap_datasets::io::load_class_csv(&spec.test).unwrap();
            match spec.family {
                Family::Exact => match spec.weight {
                    WeightFn::Uniform => {
                        knnshap_core::exact_unweighted::knn_class_shapley_with_threads(
                            &train, &test, spec.k, threads,
                        )
                    }
                    w => knnshap_core::exact_weighted::weighted_knn_class_shapley(
                        &train, &test, spec.k, w, threads,
                    ),
                },
                Family::Truncated { eps } => {
                    knnshap_core::truncated::truncated_class_shapley(&train, &test, spec.k, eps)
                }
                Family::McBaseline { perms, seed } => {
                    let u = KnnClassUtility::new(&train, &test, spec.k, spec.weight);
                    knnshap_core::mc::mc_shapley_baseline(
                        &u,
                        StoppingRule::Fixed(perms),
                        seed,
                        None,
                    )
                    .values
                }
                Family::McImproved { perms, seed } => {
                    let mut u = IncKnnUtility::classification(&train, &test, spec.k, spec.weight);
                    knnshap_core::mc::mc_shapley_improved(
                        &mut u,
                        StoppingRule::Fixed(perms),
                        seed,
                        None,
                    )
                    .values
                }
                Family::GroupTesting { tests, seed } => {
                    let u = KnnClassUtility::new(&train, &test, spec.k, spec.weight);
                    knnshap_core::group_testing::group_testing_shapley(&u, tests, seed).values
                }
            }
        }
    }
}

fn assert_bitwise(got: &ShapleyValues, want: &ShapleyValues, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: lengths differ");
    for i in 0..want.len() {
        assert_eq!(
            got.get(i).to_bits(),
            want.get(i).to_bits(),
            "{what}: point {i}: {} vs {}",
            got.get(i),
            want.get(i),
        );
    }
}

/// Acceptance-criterion battery: every family × worker counts {1, 2, 4},
/// supervised end to end, merged output bitwise vs the unsharded run.
#[test]
fn all_seven_families_match_unsharded_at_every_worker_count() {
    let ws = Workspace::new("families");
    for (name, spec) in families(&ws) {
        let want = reference(&spec);
        for workers in [1usize, 2, 4] {
            let dirs = ws.job_dirs(&format!("job-{name}-{workers}"));
            plan_with_snapshot(&spec, &dirs);
            let outcome = run_job(
                &dirs,
                SupervisorOptions {
                    workers,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_bitwise(
                &outcome.values,
                &want,
                &format!("{name} × {workers} workers"),
            );
            assert!(outcome.spawned >= 1);
            assert_eq!(outcome.worker_failures, 0, "{name}");
            // The job directory afterwards is clean: no leases, no
            // checkpoints, all shards published.
            assert!(dirs.missing_shards(spec.shards).is_empty());
            assert!((0..spec.shards).all(|i| !dirs.lease_path(i).exists()));
        }
    }
}

/// Satellite: kill a worker at **every** kill point between checkpoint
/// writes — after computing a chunk (its work is lost) and after
/// checkpointing it (its work survives) — restart, and require the merged
/// output to be bitwise-identical to the clean run. Also checks the resume
/// actually used the checkpoint (no full recompute) for post-checkpoint
/// kills past the first chunk.
#[test]
fn crash_and_resume_at_every_kill_point_is_bitwise_clean() {
    let ws = Workspace::new("crash");
    let (t, q) = ws.class_csvs();
    let (rt, rq) = ws.reg_csvs();
    let truncated = JobSpec {
        task: Task::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        family: Family::Truncated { eps: 0.2 },
        shards: 2,
        checkpoint_chunks: 4,
    };
    let weighted_reg = JobSpec {
        task: Task::Reg,
        train: rt,
        test: rq,
        weight: WEIGHT,
        family: Family::Exact,
        // Shard 0 holds 2 of the 5 test points: one per chunk, none empty.
        checkpoint_chunks: 2,
        ..truncated.clone()
    };
    for (name, spec) in [
        ("truncated", truncated),
        ("exact-reg-weighted", weighted_reg),
    ] {
        crash_and_resume_at_every_kill_point(&ws, name, &spec);
    }
}

fn crash_and_resume_at_every_kill_point(ws: &Workspace, name: &str, spec: &JobSpec) {
    let want = reference(spec);

    let kill_points: Vec<FaultPoint> = (0..spec.checkpoint_chunks)
        .flat_map(|c| {
            [
                FaultPoint::AfterChunk { shard: 0, chunk: c },
                FaultPoint::AfterCheckpoint { shard: 0, chunk: c },
            ]
        })
        .collect();

    for (ki, kill) in kill_points.into_iter().enumerate() {
        let dirs = ws.job_dirs(&format!("job-{name}-kill-{ki}"));
        plan_with_snapshot(spec, &dirs);

        // Worker 1 crashes at the kill point, leaving lease + checkpoint.
        let err = run_worker(
            &dirs,
            WorkerOptions {
                worker_id: "victim".into(),
                fault: Some(Box::new(move |at| at == kill)),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, JobError::Crashed(_)), "{err}");
        assert!(
            dirs.lease_path(0).exists(),
            "a crashed worker must leave its lease behind"
        );

        // While the (dead) lease is still fresh, the shard is not claimable:
        // a second worker completes everything else and exits.
        let partial = run_worker(&dirs, WorkerOptions::default()).unwrap();
        assert!(!partial.completed.contains(&0), "shard 0 is leased");
        assert!(!dirs.missing_shards(spec.shards).contains(&1));

        // TTL recovery (what the supervisor does), then a successor worker.
        queue::expire_stale(&dirs, spec.shards, Duration::ZERO).unwrap();
        let report = run_worker(
            &dirs,
            WorkerOptions {
                worker_id: "successor".into(),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.completed.contains(&0));
        if matches!(kill, FaultPoint::AfterCheckpoint { chunk, .. } if chunk > 0)
            || matches!(kill, FaultPoint::AfterChunk { chunk, .. } if chunk > 0)
        {
            assert_eq!(report.resumed, 1, "{name}: kill point {kill:?} must resume");
            assert!(
                report.chunks_computed < spec.checkpoint_chunks,
                "resume must skip checkpointed chunks (computed {})",
                report.chunks_computed
            );
        }

        assert_bitwise(
            &merge(&dirs).unwrap(),
            &want,
            &format!("{name}, kill point {kill:?}"),
        );
    }
}

/// The partial of a shard's chunk prefix: the chunks' sums merged, covering
/// the first chunk's start to the last chunk's end.
fn prefix(chunks: &[ShardPartial]) -> ShardPartial {
    let mut acc = chunks[0].clone();
    for c in &chunks[1..] {
        acc.sums.merge(&c.sums);
        acc.aux.merge(&c.aux);
        acc.meta.item_hi = c.meta.item_hi;
    }
    acc
}

/// Every fault point a worker passes, with the checkpoint bytes on disk
/// right after each `AfterCheckpoint`; the worker never crashes.
fn recorded(dirs: &JobDirs, threads: usize) -> Vec<(FaultPoint, Option<Vec<u8>>)> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (log, at_dirs) = (seen.clone(), dirs.clone());
    let hook = move |at: FaultPoint| {
        let bytes = match at {
            FaultPoint::AfterCheckpoint { shard, .. } => {
                Some(std::fs::read(at_dirs.checkpoint_path(shard)).unwrap())
            }
            FaultPoint::AfterChunk { .. } => None,
        };
        log.lock().unwrap().push((at, bytes));
        false
    };
    let opts = WorkerOptions {
        threads,
        fault: Some(Box::new(hook)),
        ..Default::default()
    };
    run_worker(dirs, opts).unwrap();
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    seen
}

/// A shard's bytes do not depend on how it is chunked. At chunk counts
/// {1, 2, 4, items, items + 2} per shard (the last with empty chunks) and
/// worker threads {1, 2, 8}, every checkpoint a worker writes is byte for
/// byte the merge of its chunk prefix, and every published shard is one
/// `compute` of the shard's range. For the exact and group-testing kinds, a
/// worker killed at each fault point of shard 0 leaves what its successor
/// resumes to the same bytes.
#[test]
fn shard_bytes_do_not_depend_on_chunking() {
    let ws = Workspace::new("chunking");
    let chosen = [
        "exact-class",
        "exact-reg-weighted",
        "truncated",
        "mc-improved",
        "group-testing",
    ];
    for (name, base) in families(&ws) {
        if !chosen.contains(&name) {
            continue;
        }
        let base = JobSpec { shards: 2, ..base };
        let kills = matches!(name, "exact-class" | "group-testing");
        let items = plan_with_snapshot(&base, &ws.job_dirs(&format!("{name}-items")))
            .shard_range(0)
            .len();
        for chunks in [1, 2, 4, items, items + 2] {
            let spec = JobSpec {
                checkpoint_chunks: chunks,
                ..base.clone()
            };
            for threads in [1usize, 2, 8] {
                let what = format!("{name}, {chunks} chunks, {threads} threads");
                let dirs = ws.job_dirs(&format!("{name}-{chunks}-{threads}"));
                let plan = plan_with_snapshot(&spec, &dirs);
                let oracle = PreparedJob::load(&dirs, 1, "oracle").unwrap();
                let compute = |shard| {
                    let spec = ShardSpec::new(shard, spec.shards);
                    oracle.compute_chunk(spec, 1).to_bytes()
                };
                let points = recorded(&dirs, threads);
                for (at, bytes) in &points {
                    let (FaultPoint::AfterCheckpoint { shard, chunk }, Some(bytes)) = (at, bytes)
                    else {
                        continue;
                    };
                    let parts: Vec<_> = (0..=*chunk)
                        .map(|c| oracle.compute_chunk(plan.micro_spec(*shard, c), 1))
                        .collect();
                    assert!(*bytes == prefix(&parts).to_bytes(), "{what}: {at:?}");
                }
                for shard in 0..spec.shards {
                    let published = std::fs::read(dirs.shard_path(shard)).unwrap();
                    assert!(published == compute(shard), "{what}: shard {shard}");
                }
                if !kills {
                    continue;
                }
                let shard0 = points.iter().map(|p| p.0).filter(|at| {
                    matches!(
                        at,
                        FaultPoint::AfterChunk { shard: 0, .. }
                            | FaultPoint::AfterCheckpoint { shard: 0, .. }
                    )
                });
                for (ki, kill) in shard0.enumerate() {
                    let dirs = ws.job_dirs(&format!("{name}-{chunks}-{threads}-kill-{ki}"));
                    plan_with_snapshot(&spec, &dirs);
                    let victim = WorkerOptions {
                        threads,
                        fault: Some(Box::new(move |at| at == kill)),
                        ..Default::default()
                    };
                    let err = run_worker(&dirs, victim).unwrap_err();
                    assert!(matches!(err, JobError::Crashed(_)), "{what}: {err}");
                    queue::expire_stale(&dirs, spec.shards, Duration::ZERO).unwrap();
                    let successor = WorkerOptions {
                        threads,
                        ..Default::default()
                    };
                    run_worker(&dirs, successor).unwrap();
                    let published = std::fs::read(dirs.shard_path(0)).unwrap();
                    assert!(published == compute(0), "{what}: killed at {kill:?}");
                }
            }
        }
    }
}

/// The supervisor end of the same story: a worker that crashes mid-job is
/// detected, its lease expires, a respawned worker resumes, and the merged
/// output is untouched.
#[test]
fn supervisor_reassigns_after_crash_and_respawns() {
    let ws = Workspace::new("respawn");
    let (t, q) = ws.class_csvs();
    let spec = JobSpec {
        task: Task::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        family: Family::Exact,
        shards: 4,
        checkpoint_chunks: 2,
    };
    let want = reference(&spec);
    let dirs = ws.job_dirs("job");
    plan_with_snapshot(&spec, &dirs);

    // The first spawned worker dies right after its first computed chunk
    // (one worker, so it deterministically gets work); every later spawn
    // runs clean and inherits the checkpoint.
    let outcome = run_job(
        &dirs,
        SupervisorOptions {
            workers: 1,
            lease_ttl: Duration::from_millis(200),
            poll: Duration::from_millis(25),
            launcher: Launcher::InProcess {
                fault_factory: Some(Box::new(|seq| {
                    (seq == 0).then(|| {
                        let hits = AtomicUsize::new(0);
                        Box::new(move |_at| hits.fetch_add(1, Ordering::Relaxed) == 0)
                            as knnshap_runtime::worker::FaultHook
                    })
                })),
            },
            ..Default::default()
        },
    )
    .unwrap();
    assert_bitwise(&outcome.values, &want, "respawn");
    assert_eq!(outcome.worker_failures, 1, "the crash must be observed");
    assert!(outcome.spawned >= 2, "a replacement worker must be spawned");
    assert!(outcome.reassigned >= 1, "the stale lease must be reclaimed");
}

/// Corrupt checkpoints — truncated bytes or a different job's checkpoint —
/// are discarded (clean recompute), never merged.
#[test]
fn corrupt_or_foreign_checkpoints_are_ignored() {
    let ws = Workspace::new("ckpt");
    let (t, q) = ws.class_csvs();
    let spec = JobSpec {
        task: Task::Class,
        train: t.clone(),
        test: q.clone(),
        k: K,
        weight: WeightFn::Uniform,
        family: Family::McImproved {
            perms: PERMS,
            seed: SEED,
        },
        shards: 2,
        checkpoint_chunks: 2,
    };
    let want = reference(&spec);

    // Garbage bytes.
    let dirs = ws.job_dirs("garbage");
    plan_with_snapshot(&spec, &dirs);
    std::fs::write(dirs.checkpoint_path(0), b"not a shard file").unwrap();
    let report = run_worker(&dirs, WorkerOptions::default()).unwrap();
    assert_eq!(report.resumed, 0, "garbage must not count as a resume");
    assert_bitwise(&merge(&dirs).unwrap(), &want, "garbage ckpt");

    // A different job's (valid!) checkpoint: same shape, different seed ⇒
    // different fingerprint ⇒ ignored.
    let foreign_spec = JobSpec {
        family: Family::McImproved {
            perms: PERMS,
            seed: SEED + 1,
        },
        ..spec.clone()
    };
    let fdirs = ws.job_dirs("foreign-src");
    plan_with_snapshot(&foreign_spec, &fdirs);
    run_worker(&fdirs, WorkerOptions::default()).unwrap();

    let dirs = ws.job_dirs("foreign");
    plan_with_snapshot(&spec, &dirs);
    std::fs::copy(fdirs.shard_path(0), dirs.checkpoint_path(0)).unwrap();
    let report = run_worker(&dirs, WorkerOptions::default()).unwrap();
    assert_eq!(report.resumed, 0, "foreign checkpoint must not resume");
    assert_bitwise(&merge(&dirs).unwrap(), &want, "foreign ckpt");
}

/// A worker pointed at datasets that changed since `shard-plan` refuses to
/// compute (fingerprint mismatch), and a plan for one job refuses to merge
/// another job's shards.
#[test]
fn dataset_drift_and_wrong_job_fail_loudly() {
    let ws = Workspace::new("drift");
    let (t, q) = ws.class_csvs();
    let spec = JobSpec {
        task: Task::Class,
        train: t.clone(),
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        family: Family::Exact,
        shards: 2,
        checkpoint_chunks: 1,
    };
    let dirs = ws.job_dirs("job");
    let plan = plan_with_snapshot(&spec, &dirs);

    // Flip one label in the training CSV after planning.
    let text = std::fs::read_to_string(&t).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let flipped = if lines[0].ends_with('0') {
        lines[0].trim_end_matches('0').to_string() + "1"
    } else {
        lines[0].trim_end_matches('1').to_string() + "0"
    };
    lines[0] = flipped;
    std::fs::write(&t, lines.join("\n") + "\n").unwrap();

    let err = run_worker(&dirs, WorkerOptions::default()).unwrap_err();
    assert!(matches!(err, JobError::FingerprintMismatch { .. }), "{err}");
    // Restore and complete normally.
    std::fs::write(&t, &text).unwrap();
    run_worker(&dirs, WorkerOptions::default()).unwrap();

    // A hand-edited plan fingerprint no longer matches the datasets: the
    // merge's own content re-verification rejects it (this is the only
    // check that runs when no worker needs to spawn).
    let mut wrong = plan.clone();
    wrong.fingerprint ^= 1;
    wrong.save(&dirs).unwrap();
    let err = merge(&dirs).unwrap_err();
    assert!(matches!(err, JobError::FingerprintMismatch { .. }), "{err}");

    // A *consistent* plan for a different job (k = 3) over the same
    // datasets passes the content check but must reject this directory's
    // k = 2 shards.
    let other = JobSpec {
        k: K + 1,
        ..spec.clone()
    };
    let other_plan = plan_with_snapshot(&other, &ws.job_dirs("other"));
    other_plan.save(&dirs).unwrap();
    let err = merge(&dirs).unwrap_err();
    assert!(err.to_string().contains("another job"), "{err}");
}

/// The merge verifies the loaded datasets with the check workers run: a
/// plan whose fingerprint holds but whose kind or counts were edited is
/// refused before any shard is read, as a worker would refuse it.
#[test]
fn the_merge_checks_the_whole_identity_as_workers_do() {
    let ws = Workspace::new("merge-identity");
    let (t, q) = ws.class_csvs();
    let spec = JobSpec {
        task: Task::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        family: Family::Exact,
        shards: 2,
        checkpoint_chunks: 1,
    };
    let dirs = ws.job_dirs("job");
    let plan = plan_with_snapshot(&spec, &dirs);
    run_worker(&dirs, WorkerOptions::default()).unwrap();
    merge(&dirs).unwrap();
    for what in ["n-train", "total-items", "kind"] {
        let mut wrong = plan.clone();
        match what {
            "n-train" => wrong.n_train += 1,
            "total-items" => wrong.total_items += 1,
            _ => wrong.kind = ShardKind::Truncated,
        }
        wrong.save(&dirs).unwrap();
        let err = merge(&dirs).unwrap_err();
        assert!(err.to_string().contains("plan disagrees"), "{what}: {err}");
        let err = run_worker(&dirs, WorkerOptions::default()).unwrap_err();
        assert!(err.to_string().contains("plan disagrees"), "{what}: {err}");
    }
}

/// Earlier builds wrote the CLI's `--seed` into exact and truncated plans,
/// which have no use for it. Such a plan parses to the job this build
/// plans — same kind, fingerprint, training points and items — and a fleet
/// runs it to the same bits.
#[test]
fn plans_with_an_unused_seed_parse_and_run_as_the_same_job() {
    let ws = Workspace::new("unused-seed");
    for (name, spec) in families(&ws) {
        if !matches!(spec.family, Family::Exact | Family::Truncated { .. }) {
            continue;
        }
        let dirs = ws.job_dirs(&format!("job-{name}"));
        let plan = plan_with_snapshot(&spec, &dirs);
        let text = plan.to_file_string();
        assert!(text.contains("\nseed 0\n"), "{name}: {text}");
        let earlier = text.replace("\nseed 0\n", "\nseed 42\n");
        let parsed = JobPlan::parse(&earlier).unwrap();
        assert_eq!(
            (parsed.kind, parsed.fingerprint),
            (plan.kind, plan.fingerprint),
            "{name}"
        );
        assert_eq!(
            (parsed.n_train, parsed.total_items),
            (plan.n_train, plan.total_items),
            "{name}"
        );
        assert_eq!(parsed, plan, "{name}");
        std::fs::write(dirs.plan_path(), &earlier).unwrap();
        let outcome = run_job(&dirs, SupervisorOptions::default()).unwrap();
        assert_bitwise(&outcome.values, &reference(&spec), name);
    }
}

/// Over-sharding is an operational no-op: more shards (and chunks) than
/// items still merges to the identical bits.
#[test]
fn oversharded_jobs_merge_identically() {
    let ws = Workspace::new("overshard");
    let (t, q) = ws.class_csvs();
    let spec = JobSpec {
        task: Task::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        family: Family::Exact,
        shards: 11, // > 7 test points: several empty shards
        checkpoint_chunks: 3,
    };
    let want = reference(&spec);
    let dirs = ws.job_dirs("job");
    plan_with_snapshot(&spec, &dirs);
    let outcome = run_job(
        &dirs,
        SupervisorOptions {
            workers: 3,
            ..Default::default()
        },
    )
    .unwrap();
    assert_bitwise(&outcome.values, &want, "oversharded");
}

/// The published artifacts are canonical: running the same job in two
/// directories yields byte-identical shard files — the property that makes
/// duplicated work (stale-lease races) harmless and artifacts checksummable.
#[test]
fn shard_files_are_canonical_across_runs_and_worker_counts() {
    let ws = Workspace::new("canon");
    let (t, q) = ws.class_csvs();
    let spec = JobSpec {
        task: Task::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        family: Family::GroupTesting {
            tests: GT_TESTS,
            seed: SEED,
        },
        shards: 3,
        checkpoint_chunks: 2,
    };
    let (a, b) = (ws.job_dirs("a"), ws.job_dirs("b"));
    for (dirs, workers) in [(&a, 1usize), (&b, 4usize)] {
        plan_with_snapshot(&spec, dirs);
        run_job(
            dirs,
            SupervisorOptions {
                workers,
                ..Default::default()
            },
        )
        .unwrap();
    }
    for i in 0..spec.shards {
        assert_eq!(
            std::fs::read(a.shard_path(i)).unwrap(),
            std::fs::read(b.shard_path(i)).unwrap(),
            "shard {i} must be canonical"
        );
    }
    assert_eq!(JobPlan::load(&a).unwrap().kind, ShardKind::GroupTesting);
}

/// Run `run_job` on a side thread and wait at most a minute for it: a
/// supervisor that only notices a finished worker on its poll tick would
/// sleep out `poll` (an hour in the test below) and trip the bound.
fn run_job_bounded(dirs: &JobDirs, opts: SupervisorOptions) -> JobOutcome {
    let (tx, rx) = std::sync::mpsc::channel();
    let dirs = dirs.clone();
    std::thread::spawn(move || tx.send(run_job(&dirs, opts)));
    rx.recv_timeout(Duration::from_secs(60))
        .expect("run_job hung: a worker's exit never woke the supervisor")
        .unwrap()
}

/// The supervisor wakes when a worker exits, not when its poll tick comes
/// round: with an hour-long tick the job still completes at once — also
/// when the first worker crashes without writing another event, so only
/// its exit can tell the supervisor to reclaim its shard and respawn.
#[test]
fn completion_is_driven_by_worker_exit_not_the_poll_tick() {
    let ws = Workspace::new("wake");
    let (t, q) = ws.class_csvs();
    let spec = JobSpec {
        task: Task::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        family: Family::Exact,
        shards: 3,
        checkpoint_chunks: 2,
    };
    let want = reference(&spec);
    let hour = Duration::from_secs(3600);
    for workers in [1usize, 2, 4] {
        let dirs = ws.job_dirs(&format!("job-{workers}"));
        plan_with_snapshot(&spec, &dirs);
        let outcome = run_job_bounded(
            &dirs,
            SupervisorOptions {
                workers,
                poll: hour,
                ..Default::default()
            },
        );
        assert_bitwise(&outcome.values, &want, &format!("{workers} workers"));
    }

    let dirs = ws.job_dirs("job-crash");
    plan_with_snapshot(&spec, &dirs);
    let outcome = run_job_bounded(
        &dirs,
        SupervisorOptions {
            workers: 1,
            poll: hour,
            // The crashed worker's lease is reclaimable as soon as the
            // supervisor looks.
            lease_ttl: Duration::ZERO,
            launcher: Launcher::InProcess {
                fault_factory: Some(Box::new(|seq| {
                    (seq == 0).then(|| {
                        Box::new(|at| matches!(at, FaultPoint::AfterChunk { .. }))
                            as knnshap_runtime::worker::FaultHook
                    })
                })),
            },
            ..Default::default()
        },
    );
    assert_bitwise(&outcome.values, &want, "crash, then respawn");
    assert_eq!(outcome.worker_failures, 1, "the crash must be observed");
    assert_eq!(outcome.spawned, 2);
}

/// With every shard already published, `run_job` spawns nothing and goes
/// straight to the merge tail — whose one dataset load must still catch a
/// CSV edited after planning.
#[test]
fn merge_only_run_job_rejects_a_csv_edited_after_planning() {
    let ws = Workspace::new("merge-only-drift");
    let (t, q) = ws.class_csvs();
    let spec = JobSpec {
        task: Task::Class,
        train: t,
        test: q.clone(),
        k: K,
        weight: WeightFn::Uniform,
        family: Family::Exact,
        shards: 2,
        checkpoint_chunks: 1,
    };
    let dirs = ws.job_dirs("job");
    plan_with_snapshot(&spec, &dirs);
    run_worker(&dirs, WorkerOptions::default()).unwrap();
    assert!(dirs.missing_shards(spec.shards).is_empty());

    // Drop the last test point: the shards still cover the planned items.
    let text = std::fs::read_to_string(&q).unwrap();
    let kept: Vec<&str> = text.lines().collect();
    std::fs::write(&q, kept[..kept.len() - 1].join("\n") + "\n").unwrap();
    for workers in [1usize, 3] {
        let err = run_job(
            &dirs,
            SupervisorOptions {
                workers,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, JobError::FingerprintMismatch { .. }), "{err}");
    }
    let events = std::fs::read_to_string(dirs.events_path()).unwrap();
    assert!(
        !events.contains("\"ev\":\"spawn\""),
        "a merge-only run spawns no worker"
    );
}

// ---------------------------------------------------------------------------
// The training-set snapshot (`train.knndata`): a hit reproduces the CSV's
// bits, and every kind of damage is a miss that falls back to the CSV.
// ---------------------------------------------------------------------------

/// Plan `spec` into `dirs` the way `shard-plan` does: with the training-set
/// snapshot published next to the plan.
fn plan_with_snapshot(spec: &JobSpec, dirs: &JobDirs) -> JobPlan {
    let (prepared, staged) = PreparedJob::from_spec_with_snapshot(spec, 2, dirs).unwrap();
    let plan = prepared.into_plan();
    plan.save(dirs).unwrap();
    staged.unwrap().publish().unwrap();
    plan
}

/// Merge a job directory whose every shard is published: `run_job` spawns
/// no worker then, and goes straight to the merge tail.
fn merge(dirs: &JobDirs) -> Result<ShapleyValues, JobError> {
    let outcome = run_job(dirs, SupervisorOptions::default())?;
    assert_eq!(outcome.spawned, 0, "a merge-only run spawns no worker");
    Ok(outcome.values)
}

/// The `(source, reason)` of every `load` event in the job's stream.
fn loads(dirs: &JobDirs) -> Vec<(String, Option<String>)> {
    let text = std::fs::read_to_string(dirs.events_path()).unwrap_or_default();
    text.lines()
        .filter_map(|l| {
            let v = knnshap_obs::json::parse(l).ok()?;
            let field = |k: &str| v.get(k).and_then(|x| x.as_str()).map(String::from);
            (field("ev")? == "load").then(|| (field("source").unwrap(), field("reason")))
        })
        .collect()
}

/// Run the planned job in `dirs` from scratch — no shards, checkpoints or
/// events left from an earlier run — with one in-process worker. Returns
/// the merged values and the run's load events (the worker's, then the
/// merge tail's).
fn rerun(dirs: &JobDirs) -> (ShapleyValues, Vec<(String, Option<String>)>) {
    for d in [dirs.shards_dir(), dirs.checkpoints_dir(), dirs.leases_dir()] {
        std::fs::remove_dir_all(d).ok();
    }
    std::fs::remove_file(dirs.events_path()).ok();
    dirs.create().unwrap();
    let outcome = run_job(
        dirs,
        SupervisorOptions {
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();
    (outcome.values, loads(dirs))
}

fn miss(reason: &str) -> Vec<(String, Option<String>)> {
    vec![("csv".into(), Some(reason.into())); 2]
}

/// Exact regression jobs, uniform and weighted, read their training set
/// from the snapshot and merge to the bits of the CSV-parsed run — with
/// `-0.0`, subnormal features and subnormal targets in the data.
#[test]
fn exact_reg_jobs_round_trip_bit_exactly_through_the_snapshot() {
    let ws = Workspace::new("snap-reg");
    let specials = [
        -0.0f32,
        1e-40,
        f32::from_bits(0x8000_0001),
        f32::MIN_POSITIVE / 4.0,
    ];
    let rows = |n: usize, shift: f32| {
        let mut feats = Vec::new();
        for i in 0..n {
            feats.extend([i as f32 * 0.25 - shift, specials[i % 4]]);
        }
        let y = (0..n)
            .map(|i| match i % 3 {
                0 => -0.0,
                1 => 1e-310,
                _ => i as f64 * 0.5 - 4.0,
            })
            .collect();
        knnshap_datasets::RegDataset::new(knnshap_datasets::Features::new(feats, 2), y)
    };
    let (t, q) = (ws.root.join("rtrain.csv"), ws.root.join("rtest.csv"));
    knnshap_datasets::io::save_reg_csv(&t, &rows(24, 3.0)).unwrap();
    knnshap_datasets::io::save_reg_csv(&q, &rows(5, 0.4)).unwrap();
    let parsed = knnshap_datasets::io::load_reg_csv(&t).unwrap();
    assert!(
        parsed.x.as_slice()[1].is_sign_negative(),
        "-0 parses to -0.0"
    );

    for (name, weight) in [("uniform", WeightFn::Uniform), ("weighted", WEIGHT)] {
        let spec = JobSpec {
            task: Task::Reg,
            train: t.clone(),
            test: q.clone(),
            k: K,
            weight,
            family: Family::Exact,
            shards: 3,
            checkpoint_chunks: 2,
        };
        let dirs = ws.job_dirs(name);
        plan_with_snapshot(&spec, &dirs);
        let Ok(TrainSet::Reg(snap)) = snapshot::read(&dirs, &spec) else {
            panic!("{name}: the fresh snapshot must be a hit");
        };
        let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bits64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits32(snap.x.as_slice()), bits32(parsed.x.as_slice()));
        assert_eq!(bits64(&snap.y), bits64(&parsed.y));
        let (values, loads) = rerun(&dirs);
        assert_bitwise(&values, &reference(&spec), name);
        assert_eq!(loads, vec![("snapshot".to_string(), None); 2], "{name}");
    }
}

/// Every kind of damage to the snapshot — any truncation, a wrong magic,
/// version or task, `n · dim` that disagrees with the file length, an
/// inflated `n`, any flipped payload byte — is a miss: the worker and the
/// merge parse the CSV instead and the job merges to the same bits. None
/// panics, and an inflated `n` allocates nothing (`n = 2^61` rows would
/// abort the process if it were trusted).
#[test]
fn a_damaged_snapshot_is_a_miss_that_falls_back_to_the_csv() {
    let ws = Workspace::new("snap-decode");
    let cfg = BlobConfig {
        n: 10,
        dim: 2,
        n_classes: 2,
        cluster_std: 0.6,
        center_scale: 2.5,
        seed: 3,
    };
    let (t, q) = (ws.root.join("train.csv"), ws.root.join("test.csv"));
    knnshap_datasets::io::save_class_csv(&t, &blobs::generate(&cfg)).unwrap();
    knnshap_datasets::io::save_class_csv(&q, &blobs::queries(&cfg, 3, 4)).unwrap();
    let spec = JobSpec {
        task: Task::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        family: Family::Exact,
        shards: 1,
        checkpoint_chunks: 1,
    };
    let want = reference(&spec);
    let dirs = ws.job_dirs("job");
    plan_with_snapshot(&spec, &dirs);
    let good = std::fs::read(dirs.snapshot_path()).unwrap();
    assert_eq!(good.len(), snapshot::HEADER_LEN + 10 * 2 * 4 + 10 * 4);
    let (values, hit) = rerun(&dirs);
    assert_bitwise(&values, &want, "intact snapshot");
    assert_eq!(hit, vec![("snapshot".to_string(), None); 2]);

    let check = |bytes: &[u8], what: &str, reasons: &[&str]| {
        std::fs::write(dirs.snapshot_path(), bytes).unwrap();
        let (values, loads) = rerun(&dirs);
        assert_bitwise(&values, &want, what);
        assert!(
            reasons.iter().any(|r| loads == miss(r)),
            "{what}: {loads:?}, expected a miss for {reasons:?}"
        );
    };
    for len in 0..good.len() {
        check(
            &good[..len],
            &format!("truncated to {len} bytes"),
            &["decode"],
        );
    }
    let patched = |at: usize, field: &[u8]| {
        let mut b = good.clone();
        b[at..at + field.len()].copy_from_slice(field);
        b
    };
    check(&patched(0, b"KNNDATB"), "wrong magic", &["decode"]);
    check(
        &patched(8, &2u32.to_le_bytes()),
        "wrong version",
        &["decode"],
    );
    check(&patched(12, &1u32.to_le_bytes()), "wrong task", &["decode"]);
    check(
        &patched(16, &9u64.to_le_bytes()),
        "n one short",
        &["decode"],
    );
    check(
        &patched(24, &3u64.to_le_bytes()),
        "dim one long",
        &["decode"],
    );
    check(
        &patched(16, &(1u64 << 61).to_le_bytes()),
        "inflated n",
        &["decode"],
    );
    check(
        &patched(16, &u64::MAX.to_le_bytes()),
        "n = 2^64 - 1",
        &["decode"],
    );
    check(&patched(16, &0u64.to_le_bytes()), "n = 0", &["decode"]);
    for at in snapshot::HEADER_LEN..good.len() {
        let mut b = good.clone();
        b[at] ^= 0xFF;
        check(
            &b,
            &format!("payload byte {at} flipped"),
            &["identity", "decode"],
        );
    }
    let mut longer = good.clone();
    longer.push(0);
    check(&longer, "a trailing byte", &["decode"]);

    std::fs::remove_file(dirs.snapshot_path()).unwrap();
    let (values, loads) = rerun(&dirs);
    assert_bitwise(&values, &want, "no snapshot");
    assert_eq!(loads, miss("absent"));
}
