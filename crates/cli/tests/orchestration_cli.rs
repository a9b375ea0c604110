//! Process-level orchestration round trip through the real `knnshap`
//! binary: `shard-plan` → `run-job` (which spawns actual `knnshap worker`
//! child processes) → auto-merge, byte-compared against an unsharded
//! `value` run — including a worker killed mid-run by the
//! `KNNSHAP_FAULT_AFTER_CHUNKS` switch and resumed by the supervisor.
//!
//! This is the same drill CI's "orchestration smoke" step performs from
//! shell; having it as a test keeps it debuggable locally.

use knnshap_runtime::layout::JobDirs;
use knnshap_runtime::supervisor::{run_job, Column, Launcher, SupervisorOptions};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_knnshap")
}

fn run(args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn knnshap");
    assert!(
        out.status.success(),
        "knnshap {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("knnshap-orchcli-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        Scratch(p)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn synth(train: &Path, test: &Path) {
    run(&[
        "synth",
        "--kind",
        "blobs",
        "--n",
        "60",
        "--dim",
        "4",
        "--classes",
        "2",
        "--seed",
        "5",
        "--out",
        train.to_str().unwrap(),
        "--queries",
        "9",
        "--queries-out",
        test.to_str().unwrap(),
    ]);
}

#[test]
fn plan_fleet_merge_is_byte_identical_to_value() {
    let ws = Scratch::new("clean");
    let (train, test) = (ws.path("train.csv"), ws.path("test.csv"));
    synth(&train, &test);
    let direct = ws.path("direct.csv");
    run(&[
        "value",
        "--train",
        train.to_str().unwrap(),
        "--test",
        test.to_str().unwrap(),
        "--k",
        "3",
        "--out",
        direct.to_str().unwrap(),
    ]);

    let job = ws.path("job");
    run(&[
        "shard-plan",
        "--train",
        train.to_str().unwrap(),
        "--test",
        test.to_str().unwrap(),
        "--k",
        "3",
        "--shards",
        "4",
        "--job",
        job.to_str().unwrap(),
    ]);
    let merged = ws.path("merged.csv");
    let report = run(&[
        "run-job",
        "--job",
        job.to_str().unwrap(),
        "--workers",
        "3",
        "--out",
        merged.to_str().unwrap(),
    ]);
    assert!(report.contains("job complete"), "{report}");
    assert_eq!(
        std::fs::read(&direct).unwrap(),
        std::fs::read(&merged).unwrap(),
        "fleet-merged CSV must equal the unsharded value CSV byte for byte"
    );
}

#[test]
fn killed_worker_resumes_and_merge_stays_byte_identical() {
    let ws = Scratch::new("kill");
    let (train, test) = (ws.path("train.csv"), ws.path("test.csv"));
    synth(&train, &test);
    let direct = ws.path("direct.csv");
    run(&[
        "value",
        "--train",
        train.to_str().unwrap(),
        "--test",
        test.to_str().unwrap(),
        "--k",
        "3",
        "--method",
        "mc-improved",
        "--perms",
        "48",
        "--seed",
        "7",
        "--out",
        direct.to_str().unwrap(),
    ]);

    let job = ws.path("job");
    run(&[
        "shard-plan",
        "--train",
        train.to_str().unwrap(),
        "--test",
        test.to_str().unwrap(),
        "--k",
        "3",
        "--method",
        "mc-improved",
        "--perms",
        "48",
        "--seed",
        "7",
        "--shards",
        "3",
        "--checkpoint-chunks",
        "4",
        "--job",
        job.to_str().unwrap(),
    ]);

    // A doomed worker: crashes after two computed chunks, leaving its lease
    // and a checkpoint behind (unit exit status, lease file intact).
    let out = Command::new(bin())
        .args([
            "worker",
            "--job",
            job.to_str().unwrap(),
            "--worker-id",
            "victim",
        ])
        .env("KNNSHAP_FAULT_AFTER_CHUNKS", "2")
        .output()
        .expect("spawn doomed worker");
    assert!(!out.status.success(), "the doomed worker must crash");
    let leases: Vec<_> = std::fs::read_dir(job.join("leases"))
        .unwrap()
        .filter_map(|e| e.ok())
        .collect();
    assert!(!leases.is_empty(), "crash must leave its lease behind");

    // The supervisor expires the dead lease (short TTL), respawns, resumes
    // from the checkpoint, and merges.
    let merged = ws.path("merged.csv");
    std::thread::sleep(std::time::Duration::from_millis(300));
    let report = run(&[
        "run-job",
        "--job",
        job.to_str().unwrap(),
        "--workers",
        "2",
        "--lease-ttl",
        "0.2",
        "--out",
        merged.to_str().unwrap(),
    ]);
    assert!(report.contains("job complete"), "{report}");
    assert_eq!(
        std::fs::read(&direct).unwrap(),
        std::fs::read(&merged).unwrap(),
        "kill + resume must not change a single CSV byte"
    );
}

/// The report from its first `Valued` line on: `run-job` prints the
/// orchestration summary (with a wall time) before it. Its workers' `worker
/// done:` lines go to stderr.
fn report_tail(stdout: &str) -> &str {
    &stdout[stdout.find("Valued").expect("a value report")..]
}

fn plan_and_run(job: &Path, plan: &[&str], workers: usize, threads: usize, out: &Path) -> String {
    let job = job.to_str().unwrap();
    std::fs::remove_dir_all(job).ok();
    let mut argv = vec!["shard-plan", "--k", "3", "--shards", "3", "--job", job];
    argv.extend_from_slice(plan);
    run(&argv);
    let (w, t) = (workers.to_string(), threads.to_string());
    let argv = [
        "run-job",
        "--job",
        job,
        "--workers",
        &w,
        "--threads",
        &t,
        "--out",
        out.to_str().unwrap(),
    ];
    let stdout = run(&argv);
    assert!(
        !stdout.lines().any(|l| l.starts_with("worker done:")),
        "worker output leaked into run-job's stdout at --workers {w}:\n{stdout}"
    );
    report_tail(&stdout).to_string()
}

/// `run-job` loads, verifies and writes on `workers × threads` threads (the
/// fleet's cores, capped at the default budget) once the fleet is done; the
/// CSV and the report must not depend on that budget. A classification job
/// must equal `value`; a regression job must give the same bytes
/// throughout.
#[test]
fn run_job_bytes_do_not_depend_on_the_tail_budget() {
    let ws = Scratch::new("budget");
    let (train, test) = (ws.path("train.csv"), ws.path("test.csv"));
    synth(&train, &test);
    let out = ws.path("values.csv");
    let (t, q) = (train.to_str().unwrap(), test.to_str().unwrap());
    let direct = run(&[
        "value",
        "--train",
        t,
        "--test",
        q,
        "--k",
        "3",
        "--out",
        out.to_str().unwrap(),
    ]);
    let want_csv = std::fs::read(&out).unwrap();

    let cfg = knnshap_datasets::synth::regression::RegressionConfig {
        n: 40,
        dim: 3,
        ..Default::default()
    };
    let (rtrain, rtest) = (ws.path("rtrain.csv"), ws.path("rtest.csv"));
    knnshap_datasets::io::save_reg_csv(
        &rtrain,
        &knnshap_datasets::synth::regression::generate(&cfg),
    )
    .unwrap();
    knnshap_datasets::io::save_reg_csv(
        &rtest,
        &knnshap_datasets::synth::regression::queries(&cfg, 7),
    )
    .unwrap();
    let (rt, rq) = (rtrain.to_str().unwrap(), rtest.to_str().unwrap());
    let mut reg_want: Option<(Vec<u8>, String)> = None;

    for workers in 1..=3 {
        for threads in [1, 2] {
            let at = format!("--workers {workers} --threads {threads}");
            let class = ["--train", t, "--test", q];
            let report = plan_and_run(&ws.path("job"), &class, workers, threads, &out);
            assert_eq!(std::fs::read(&out).unwrap(), want_csv, "class CSV at {at}");
            assert_eq!(report, direct, "class report at {at}");

            let reg = ["--task", "reg", "--train", rt, "--test", rq];
            let report = plan_and_run(&ws.path("rjob"), &reg, workers, threads, &out);
            let csv = std::fs::read(&out).unwrap();
            match &reg_want {
                None => {
                    assert!(report.contains("method = exact-reg"), "{report}");
                    reg_want = Some((csv, report));
                }
                Some((want_csv, want_report)) => {
                    assert_eq!(&csv, want_csv, "reg CSV at {at}");
                    assert_eq!(&report, want_report, "reg report at {at}");
                }
            }
        }
    }
}

/// Worker processes cannot signal the supervisor's in-process event
/// notifier, yet the supervisor must not sleep out its poll tick once they
/// are done: the thread waiting on each child wakes it when the child
/// exits. With an hour-long tick the job still completes at once.
#[test]
fn worker_process_exits_wake_the_supervisor() {
    let ws = Scratch::new("wake");
    let (train, test) = (ws.path("train.csv"), ws.path("test.csv"));
    synth(&train, &test);
    let job = ws.path("job");
    run(&[
        "shard-plan",
        "--train",
        train.to_str().unwrap(),
        "--test",
        test.to_str().unwrap(),
        "--k",
        "3",
        "--shards",
        "3",
        "--job",
        job.to_str().unwrap(),
    ]);
    let opts = SupervisorOptions {
        workers: 2,
        threads: 1,
        poll: Duration::from_secs(3600),
        launcher: Launcher::Command {
            program: bin().into(),
            args: vec![
                "worker".into(),
                "--job".into(),
                job.to_str().unwrap().into(),
            ],
        },
        ..Default::default()
    };
    let dirs = JobDirs::new(&job);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(run_job(&dirs, opts)));
    let outcome = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("run_job hung: a worker process's exit never woke the supervisor")
        .unwrap();
    assert_eq!(outcome.worker_failures, 0);
    assert_eq!(outcome.n_test, 9);
    assert!(matches!(&outcome.column, Column::Labels(l) if l.len() == 60));
    assert_eq!(outcome.values.len(), 60);
}

/// A job directory holds one job. Planning another job into a directory
/// that holds a run job must fail before anything is computed, name the
/// directory, and leave the first plan as it was; planning the same job
/// again is accepted.
#[test]
fn shard_plan_refuses_to_overwrite_another_jobs_plan() {
    let ws = Scratch::new("replan");
    let (train, test) = (ws.path("train.csv"), ws.path("test.csv"));
    synth(&train, &test);
    let (job, out) = (ws.path("job"), ws.path("values.csv"));
    let (t, q, j) = (
        train.to_str().unwrap(),
        test.to_str().unwrap(),
        job.to_str().unwrap(),
    );
    let plan = |k: &str, shards: &str| {
        Command::new(bin())
            .args(["shard-plan", "--train", t, "--test", q])
            .args(["--k", k, "--shards", shards, "--job", j])
            .output()
            .expect("spawn knnshap")
    };
    assert!(plan("3", "2").status.success());
    run(&[
        "run-job",
        "--job",
        j,
        "--workers",
        "2",
        "--out",
        out.to_str().unwrap(),
    ]);
    let plan_path = JobDirs::new(&job).plan_path();
    let first = std::fs::read(&plan_path).unwrap();

    let other = plan("5", "3");
    let stderr = String::from_utf8_lossy(&other.stderr);
    assert!(
        !other.status.success(),
        "a second job was planned over the first"
    );
    assert!(
        stderr.contains(j),
        "the error must name the directory: {stderr}"
    );
    assert_eq!(
        std::fs::read(&plan_path).unwrap(),
        first,
        "first plan overwritten"
    );

    let again = plan("3", "2");
    assert!(
        again.status.success(),
        "re-planning the same job was refused: {}",
        String::from_utf8_lossy(&again.stderr)
    );
    assert_eq!(std::fs::read(&plan_path).unwrap(), first);
}
