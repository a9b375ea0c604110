//! End-to-end orchestration battery: every shardable estimator family, run
//! through plan → fleet → auto-merge, must be **bitwise-identical** to the
//! unsharded estimator — at worker counts {1, 2, 4}, after crashes at every
//! kill point between checkpoint writes, after lease-expiry reassignment,
//! and with corrupt or foreign checkpoints lying around.
//!
//! CI replays this suite under `KNNSHAP_THREADS=1` and `=8`, extending the
//! guarantee across thread counts.

use knnshap_core::mc::{IncKnnUtility, StoppingRule};
use knnshap_core::sharding::ShardKind;
use knnshap_core::utility::KnnClassUtility;
use knnshap_core::ShapleyValues;
use knnshap_datasets::synth::blobs::{self, BlobConfig};
use knnshap_datasets::synth::regression::{self, RegressionConfig};
use knnshap_knn::weights::WeightFn;
use knnshap_runtime::layout::JobDirs;
use knnshap_runtime::queue;
use knnshap_runtime::spec::{plan_job, JobMethod, JobSpec, TaskKind};
use knnshap_runtime::supervisor::{merge_job, run_job, JobOutcome, Launcher, SupervisorOptions};
use knnshap_runtime::worker::{run_worker, FaultPoint, WorkerOptions};
use knnshap_runtime::JobError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// The seven shardable families as job specs (paths filled by caller).
fn families(ws: &Workspace) -> Vec<(&'static str, JobSpec)> {
    let (ct, cq) = ws.class_csvs();
    let (rt, rq) = ws.reg_csvs();
    let class = |method, weight| JobSpec {
        task: TaskKind::Class,
        train: ct.clone(),
        test: cq.clone(),
        k: K,
        weight,
        method,
        seed: SEED,
        shards: 5,
        checkpoint_chunks: 2,
    };
    vec![
        ("exact-class", class(JobMethod::Exact, WeightFn::Uniform)),
        ("exact-weighted", class(JobMethod::Exact, WEIGHT)),
        (
            "exact-reg",
            JobSpec {
                task: TaskKind::Reg,
                train: rt,
                test: rq,
                weight: WeightFn::Uniform,
                ..class(JobMethod::Exact, WeightFn::Uniform)
            },
        ),
        (
            "truncated",
            class(JobMethod::Truncated { eps: 0.2 }, WeightFn::Uniform),
        ),
        (
            "mc-baseline",
            class(JobMethod::McBaseline { perms: PERMS }, WeightFn::Uniform),
        ),
        (
            "mc-improved",
            class(JobMethod::McImproved { perms: PERMS }, WEIGHT),
        ),
        (
            "group-testing",
            class(
                JobMethod::GroupTesting { tests: GT_TESTS },
                WeightFn::Uniform,
            ),
        ),
    ]
}

/// The unsharded reference for a family, computed straight through core.
fn reference(spec: &JobSpec) -> ShapleyValues {
    let threads = knnshap_parallel::current_threads();
    match spec.task {
        TaskKind::Reg => {
            let train = knnshap_datasets::io::load_reg_csv(&spec.train).unwrap();
            let test = knnshap_datasets::io::load_reg_csv(&spec.test).unwrap();
            knnshap_core::exact_regression::knn_reg_shapley(&train, &test, spec.k)
        }
        TaskKind::Class => {
            let train = knnshap_datasets::io::load_class_csv(&spec.train).unwrap();
            let test = knnshap_datasets::io::load_class_csv(&spec.test).unwrap();
            match spec.method {
                JobMethod::Exact => match spec.weight {
                    WeightFn::Uniform => {
                        knnshap_core::exact_unweighted::knn_class_shapley_with_threads(
                            &train, &test, spec.k, threads,
                        )
                    }
                    w => knnshap_core::exact_weighted::weighted_knn_class_shapley(
                        &train, &test, spec.k, w, threads,
                    ),
                },
                JobMethod::Truncated { eps } => {
                    knnshap_core::truncated::truncated_class_shapley(&train, &test, spec.k, eps)
                }
                JobMethod::McBaseline { perms } => {
                    let u = KnnClassUtility::new(&train, &test, spec.k, spec.weight);
                    knnshap_core::mc::mc_shapley_baseline(
                        &u,
                        StoppingRule::Fixed(perms),
                        spec.seed,
                        None,
                    )
                    .values
                }
                JobMethod::McImproved { perms } => {
                    let mut u = IncKnnUtility::classification(&train, &test, spec.k, spec.weight);
                    knnshap_core::mc::mc_shapley_improved(
                        &mut u,
                        StoppingRule::Fixed(perms),
                        spec.seed,
                        None,
                    )
                    .values
                }
                JobMethod::GroupTesting { tests } => {
                    let u = KnnClassUtility::new(&train, &test, spec.k, spec.weight);
                    knnshap_core::group_testing::group_testing_shapley(&u, tests, spec.seed).values
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
            plan_job(&spec, 1).unwrap().save(&dirs).unwrap();
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
    let spec = JobSpec {
        task: TaskKind::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        method: JobMethod::Truncated { eps: 0.2 },
        seed: SEED,
        shards: 2,
        checkpoint_chunks: 4,
    };
    let want = reference(&spec);
    let plan = plan_job(&spec, 1).unwrap();

    let kill_points: Vec<FaultPoint> = (0..spec.checkpoint_chunks)
        .flat_map(|c| {
            [
                FaultPoint::AfterChunk { shard: 0, chunk: c },
                FaultPoint::AfterCheckpoint { shard: 0, chunk: c },
            ]
        })
        .collect();

    for (ki, kill) in kill_points.into_iter().enumerate() {
        let dirs = ws.job_dirs(&format!("job-kill-{ki}"));
        plan.save(&dirs).unwrap();

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
            assert_eq!(report.resumed, 1, "kill point {kill:?} must resume");
            assert!(
                report.chunks_computed < spec.checkpoint_chunks,
                "resume must skip checkpointed chunks (computed {})",
                report.chunks_computed
            );
        }

        let merged = merge_job(&dirs, &plan, 3).unwrap();
        assert_bitwise(&merged.values, &want, &format!("kill point {kill:?}"));
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
        task: TaskKind::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        method: JobMethod::Exact,
        seed: SEED,
        shards: 4,
        checkpoint_chunks: 2,
    };
    let want = reference(&spec);
    let dirs = ws.job_dirs("job");
    plan_job(&spec, 1).unwrap().save(&dirs).unwrap();

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
        task: TaskKind::Class,
        train: t.clone(),
        test: q.clone(),
        k: K,
        weight: WeightFn::Uniform,
        method: JobMethod::McImproved { perms: PERMS },
        seed: SEED,
        shards: 2,
        checkpoint_chunks: 2,
    };
    let want = reference(&spec);
    let plan = plan_job(&spec, 1).unwrap();

    // Garbage bytes.
    let dirs = ws.job_dirs("garbage");
    plan.save(&dirs).unwrap();
    std::fs::write(dirs.checkpoint_path(0), b"not a shard file").unwrap();
    let report = run_worker(&dirs, WorkerOptions::default()).unwrap();
    assert_eq!(report.resumed, 0, "garbage must not count as a resume");
    assert_bitwise(
        &merge_job(&dirs, &plan, 3).unwrap().values,
        &want,
        "garbage ckpt",
    );

    // A different job's (valid!) checkpoint: same shape, different seed ⇒
    // different fingerprint ⇒ ignored.
    let foreign_spec = JobSpec {
        seed: SEED + 1,
        ..spec.clone()
    };
    let foreign_plan = plan_job(&foreign_spec, 1).unwrap();
    let fdirs = ws.job_dirs("foreign-src");
    foreign_plan.save(&fdirs).unwrap();
    run_worker(&fdirs, WorkerOptions::default()).unwrap();

    let dirs = ws.job_dirs("foreign");
    plan.save(&dirs).unwrap();
    std::fs::copy(fdirs.shard_path(0), dirs.checkpoint_path(0)).unwrap();
    let report = run_worker(&dirs, WorkerOptions::default()).unwrap();
    assert_eq!(report.resumed, 0, "foreign checkpoint must not resume");
    assert_bitwise(
        &merge_job(&dirs, &plan, 3).unwrap().values,
        &want,
        "foreign ckpt",
    );
}

/// A worker pointed at datasets that changed since `shard-plan` refuses to
/// compute (fingerprint mismatch), and a plan for one job refuses to merge
/// another job's shards.
#[test]
fn dataset_drift_and_wrong_job_fail_loudly() {
    let ws = Workspace::new("drift");
    let (t, q) = ws.class_csvs();
    let spec = JobSpec {
        task: TaskKind::Class,
        train: t.clone(),
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        method: JobMethod::Exact,
        seed: SEED,
        shards: 2,
        checkpoint_chunks: 1,
    };
    let plan = plan_job(&spec, 1).unwrap();
    let dirs = ws.job_dirs("job");
    plan.save(&dirs).unwrap();

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
    let err = merge_job(&dirs, &wrong, 3).unwrap_err();
    assert!(matches!(err, JobError::FingerprintMismatch { .. }), "{err}");

    // A *consistent* plan for a different job (k = 3) over the same
    // datasets passes the content check but must reject this directory's
    // k = 2 shards.
    let other_plan = plan_job(
        &JobSpec {
            k: K + 1,
            ..spec.clone()
        },
        2,
    )
    .unwrap();
    let err = merge_job(&dirs, &other_plan, 3).unwrap_err();
    assert!(err.to_string().contains("another job"), "{err}");
}

/// Over-sharding is an operational no-op: more shards (and chunks) than
/// items still merges to the identical bits.
#[test]
fn oversharded_jobs_merge_identically() {
    let ws = Workspace::new("overshard");
    let (t, q) = ws.class_csvs();
    let spec = JobSpec {
        task: TaskKind::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        method: JobMethod::Exact,
        seed: SEED,
        shards: 11, // > 7 test points: several empty shards
        checkpoint_chunks: 3,
    };
    let want = reference(&spec);
    let dirs = ws.job_dirs("job");
    plan_job(&spec, 1).unwrap().save(&dirs).unwrap();
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
        task: TaskKind::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        method: JobMethod::GroupTesting { tests: GT_TESTS },
        seed: SEED,
        shards: 3,
        checkpoint_chunks: 2,
    };
    let plan = plan_job(&spec, 1).unwrap();
    let (a, b) = (ws.job_dirs("a"), ws.job_dirs("b"));
    for (dirs, workers) in [(&a, 1usize), (&b, 4usize)] {
        plan.save(dirs).unwrap();
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
    assert_eq!(plan.kind, ShardKind::GroupTesting);
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
        task: TaskKind::Class,
        train: t,
        test: q,
        k: K,
        weight: WeightFn::Uniform,
        method: JobMethod::Exact,
        seed: SEED,
        shards: 3,
        checkpoint_chunks: 2,
    };
    let want = reference(&spec);
    let hour = Duration::from_secs(3600);
    for workers in [1usize, 2, 4] {
        let dirs = ws.job_dirs(&format!("job-{workers}"));
        plan_job(&spec, 1).unwrap().save(&dirs).unwrap();
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
    plan_job(&spec, 1).unwrap().save(&dirs).unwrap();
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
        task: TaskKind::Class,
        train: t,
        test: q.clone(),
        k: K,
        weight: WeightFn::Uniform,
        method: JobMethod::Exact,
        seed: SEED,
        shards: 2,
        checkpoint_chunks: 1,
    };
    let dirs = ws.job_dirs("job");
    plan_job(&spec, 1).unwrap().save(&dirs).unwrap();
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
