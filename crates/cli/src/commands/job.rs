//! `knnshap shard-plan` / `worker` / `run-job` — the job-orchestration
//! runtime's command-line surface (`knnshap_runtime`; operator's handbook in
//! `docs/operations.md`).
//!
//! ```text
//! knnshap shard-plan --train t.csv --test q.csv --k 3 --shards 8 --job jobdir
//! knnshap run-job --job jobdir --workers 4 --out values.csv
//! # or, by hand / on other machines sharing jobdir's filesystem:
//! knnshap worker --job jobdir &
//! knnshap worker --job jobdir &
//! ```
//!
//! `shard-plan` derives and writes the versioned job plan (datasets are read
//! once to fingerprint their contents) and leaves the parsed training set
//! in the job directory as a binary snapshot, which workers and the merge
//! read instead of the CSV while the CSV is unchanged. `worker` is one
//! fleet member: claim → compute → checkpoint → publish until nothing is
//! claimable.
//! `run-job` supervises: spawns local `worker` processes, expires stale
//! leases, respawns after crashes, auto-merges, and prints the same report
//! `value` would — with a byte-identical `--out` CSV for classification
//! jobs, whatever the fleet went through on the way.

use crate::args::Args;
use crate::commands::{parse_eps, parse_task, parse_weight};
use crate::CliError;
use knnshap_core::estimator::Family;
use knnshap_runtime::dispatch::PreparedJob;
use knnshap_runtime::layout::JobDirs;
use knnshap_runtime::spec::{absolutize, JobPlan, JobSpec};
use knnshap_runtime::supervisor::{run_job, tail_threads, Launcher, SupervisorOptions};
use knnshap_runtime::worker::{run_worker, FaultHook, FaultPoint, WorkerOptions};
use knnshap_runtime::JobError;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Why `--method lsh` is rejected by `shard`, `merge`, `shard-plan` and
/// the job runtime — the full explanation, not a generic "unsupported"
/// line, because the obvious workaround (build a per-shard index) silently
/// breaks the determinism contract. The planned sharding design for LSH is
/// documented in `docs/sharding.md` ("Why LSH does not shard yet").
pub(crate) const LSH_UNSHARDABLE: &str =
    "the LSH method cannot shard by test range: its index needs whole-test-set \
     statistics (the relative-contrast estimate that picks hash width, table \
     count and probe schedule), so independently built per-shard indexes would \
     answer queries differently and the merged values would not match the \
     unsharded run. Planned design: build the index once, then stream query \
     ranges through OnlineValuator workers — see docs/sharding.md";

/// Parse `--method` for sharded work through the family table. Unlike
/// `value`'s parser this knows `group-testing`, and it rejects `lsh` with
/// the full explanation (the satellite of `docs/sharding.md`'s "Why LSH
/// does not shard yet").
fn parse_family(args: &Args) -> Result<Family, CliError> {
    let name = args.str("method").unwrap_or("exact");
    if name == "lsh" {
        return Err(CliError::Invalid(LSH_UNSHARDABLE.into()));
    }
    let eps = parse_eps(args)?;
    let perms = args.usize_or("perms", 0)?;
    let seed = args.u64_or("seed", 42)?;
    Family::parse(name, eps, perms, seed).map_err(CliError::Invalid)
}

/// The job `--train`, `--test`, `--task`, `--k`, `--weight`,
/// `--weight-param`, `--method` (with `--eps`, `--perms`, `--seed`) and
/// `--checkpoint-chunks` describe, over `shards` shards: the one reading
/// of a sharded job's arguments, behind `shard-plan`, `shard` and `merge`.
/// Not yet validated ([`JobSpec::validate`]).
pub(crate) fn job_spec(args: &Args, shards: usize) -> Result<JobSpec, CliError> {
    Ok(JobSpec {
        task: parse_task(args)?,
        train: absolutize(Path::new(args.require("train")?)),
        test: absolutize(Path::new(args.require("test")?)),
        k: args.usize_or("k", 1)?,
        weight: parse_weight(args)?,
        family: parse_family(args)?,
        shards,
        checkpoint_chunks: args.usize_or("checkpoint-chunks", 4)?,
    })
}

const SHARD_PLAN_ALLOWED: &[&str] = &[
    "job",
    "train",
    "test",
    "task",
    "k",
    "method",
    "eps",
    "weight",
    "weight-param",
    "seed",
    "perms",
    "shards",
    "checkpoint-chunks",
    "auto",
];

/// When `--auto` caps are unset, how many shards the cost model may suggest
/// at most — one per worker of a generously sized fleet.
const AUTO_SHARD_CAP: usize = 64;

/// A shard's compute must be at least this multiple of the per-shard
/// overhead it pays (dataset load, utility build, merge).
const AMORTIZE: f64 = 8.0;

/// Suggested process-level shard count for `items` work items, given the
/// measured per-item cost and the per-shard overhead (dataset load +
/// utility build + merge). Pure function of its arguments.
///
/// Policy: each shard's compute must amortize its overhead
/// ([`AMORTIZE`]×), so `s ≤ items·per_item / (AMORTIZE·overhead)`, clamped
/// to `[1, max_shards]` and never more shards than items.
fn suggest_shards(
    per_item_secs: f64,
    shard_overhead_secs: f64,
    items: usize,
    max_shards: usize,
) -> usize {
    let cap = max_shards.max(1).min(items.max(1));
    if !(per_item_secs.is_finite() && per_item_secs > 0.0) {
        return 1;
    }
    let overhead = shard_overhead_secs.max(0.0);
    if overhead <= 0.0 || !overhead.is_finite() {
        return cap;
    }
    let total = per_item_secs * items as f64;
    let s = (total / (AMORTIZE * overhead)).floor();
    if s.is_finite() && s >= 1.0 {
        (s as usize).min(cap)
    } else {
        1
    }
}

/// `knnshap shard-plan`: derive and write a job plan into `--job DIR`.
///
/// With `--auto`, the shard count is derived from a measured cost model
/// instead of being required: the datasets are loaded and bound once (the
/// plan is derived from the same binding), two one-item chunks are timed
/// (the first pays the lazy distance-matrix build — the per-shard overhead
/// every worker process repeats; the second is the steady-state per-item
/// cost), and `suggest_shards` picks the largest count that still
/// amortizes the overhead. `--shards` then acts as an
/// optional cap. Sharding never changes results (the merge is
/// bitwise-deterministic), so the suggestion is purely a wall-clock call.
pub fn run_shard_plan(args: &Args) -> Result<String, CliError> {
    args.expect_only(SHARD_PLAN_ALLOWED)?;
    let job = PathBuf::from(args.require("job")?);
    args.require("train")?;
    args.require("test")?;
    let auto = args.flag("auto");
    if !auto {
        args.require("shards")?;
    }
    let requested = args.usize_or("shards", 0)?;
    // shard-plan takes no --threads: it parses on the default budget.
    let threads = knnshap_parallel::current_threads();
    let spec = job_spec(args, if auto { 1 } else { requested })?;
    let dirs = JobDirs::new(&job);
    let t0 = std::time::Instant::now();
    let (prepared, snapshot) =
        PreparedJob::from_spec_with_snapshot(&spec, threads, &dirs).map_err(CliError::Runtime)?;
    let mut auto_line = None;
    let plan = if auto {
        let load_secs = t0.elapsed().as_secs_f64();
        let cap = if requested > 0 {
            requested
        } else {
            AUTO_SHARD_CAP
        };
        let (suggested, line) = probe_shard_count(&prepared, load_secs, cap);
        auto_line = Some(line);
        // The identity and counts do not depend on the shard count, so the
        // probe's plan with the suggested count is the plan `--shards
        // <suggested>` writes.
        let mut plan = prepared.into_plan();
        plan.spec.shards = suggested;
        plan
    } else {
        prepared.into_plan()
    };
    // A job directory holds one job: re-planning the same job is a no-op,
    // but another plan would strand the old job's shards there. Plans
    // compare parsed, so a plan an earlier build wrote (`seed 42` on an
    // exact job, say) is the same job. (An unpublished snapshot is removed
    // when it goes out of scope.)
    if std::fs::read_to_string(dirs.plan_path())
        .is_ok_and(|old| JobPlan::parse(&old).ok().as_ref() != Some(&plan))
    {
        return Err(CliError::Runtime(JobError::PlanConflict(
            job.display().to_string(),
        )));
    }
    plan.save(&dirs).map_err(CliError::Runtime)?;
    // The snapshot only saves workers a parse: a job without one (the
    // disk was full, say) still runs, from the CSVs.
    if let Ok(snapshot) = snapshot {
        snapshot.publish().ok();
    }

    let mut out = String::new();
    if let Some(line) = auto_line {
        out.push_str(&line);
    }
    out += &format!(
        "planned {} job {:016x}: {} training points, {} items across {} shards \
         ({} checkpoint chunks each)\n",
        plan.kind.name(),
        plan.fingerprint,
        plan.n_train,
        plan.total_items,
        plan.spec.shards,
        plan.spec.checkpoint_chunks,
    );
    out.push_str(&format!(
        "plan written to {}\n\nshard ranges:\n",
        dirs.plan_path().display()
    ));
    for i in 0..plan.spec.shards {
        let r = plan.shard_range(i);
        out.push_str(&format!("  s{i}: items {}..{}\n", r.start, r.end));
    }
    out.push_str(&format!(
        "\nrun it:  knnshap run-job --job {0} --workers N [--out values.csv]\n\
         or join workers by hand (same or other machines sharing this path):\n\
         \x20        knnshap worker --job {0}\n",
        job.display(),
    ));
    Ok(out)
}

/// Measure the `--auto` cost model on a bound probe job (whose binding
/// took `load_secs`) and return the suggested shard count plus a report
/// line. The probes are ordinary one-item chunk computations whose partials
/// are discarded — nothing is written, so the measurement cannot perturb
/// the job the final plan describes.
fn probe_shard_count(prepared: &PreparedJob, load_secs: f64, max_shards: usize) -> (usize, String) {
    use knnshap_core::sharding::ShardSpec;
    let total = prepared.plan().total_items as usize;
    // The first one-item chunk pays the lazy utility build (distance
    // matrices) — a cost every shard-owning worker process repeats. The
    // second reuses it and times the steady state.
    let t1 = std::time::Instant::now();
    prepared.compute_chunk(ShardSpec::new(0, total.max(1)), 1);
    let first_secs = t1.elapsed().as_secs_f64();
    let (per_item, overhead) = if total >= 2 {
        let t2 = std::time::Instant::now();
        prepared.compute_chunk(ShardSpec::new(1, total), 1);
        let per = t2.elapsed().as_secs_f64();
        (per, load_secs + (first_secs - per).max(0.0))
    } else {
        (first_secs, load_secs)
    };
    let suggested = suggest_shards(per_item, overhead, total, max_shards);
    (
        suggested,
        format!(
            "auto-sharding: measured {:.3} ms/item, {:.3} ms/shard overhead over {} items \
             => {} shard(s) (cap {})\n",
            per_item * 1e3,
            overhead * 1e3,
            total,
            suggested,
            max_shards,
        ),
    )
}

const WORKER_ALLOWED: &[&str] = &["job", "threads", "worker-id", "graph"];

/// `knnshap worker`: one fleet member against a planned job directory.
pub fn run_worker_cmd(args: &Args) -> Result<String, CliError> {
    args.expect_only(WORKER_ALLOWED)?;
    let dirs = JobDirs::new(args.require("job")?);
    let opts = WorkerOptions {
        worker_id: args
            .str("worker-id")
            .map(String::from)
            .unwrap_or_else(|| format!("pid{}", std::process::id())),
        threads: args.usize_or("threads", 0)?,
        fault: fault_from_env(),
        graph: args.str("graph").map(PathBuf::from),
    };
    let report = run_worker(&dirs, opts).map_err(CliError::Runtime)?;
    Ok(format!(
        "worker done: completed {} shard(s) {:?}, computed {} chunk(s), resumed {} \
         from checkpoints\n",
        report.completed.len(),
        report.completed,
        report.chunks_computed,
        report.resumed,
    ))
}

/// `KNNSHAP_FAULT_AFTER_CHUNKS=N` makes the worker crash after computing
/// its Nth micro-chunk, **before** that chunk's checkpoint is written —
/// the process-level kill switch CI's orchestration smoke uses to rehearse
/// worker death and resume. Unset (production): no hook, zero overhead.
fn fault_from_env() -> Option<FaultHook> {
    let n: usize = std::env::var("KNNSHAP_FAULT_AFTER_CHUNKS")
        .ok()?
        .parse()
        .ok()?;
    Some(fault_after_chunks(n))
}

/// The hook behind [`fault_from_env`]: crash after the `n`th computed
/// chunk, before its checkpoint lands.
fn fault_after_chunks(n: usize) -> FaultHook {
    let mut computed = 0usize;
    Box::new(move |at| {
        if matches!(at, FaultPoint::AfterChunk { .. }) {
            computed += 1;
            computed >= n.max(1)
        } else {
            false
        }
    })
}

const RUN_JOB_ALLOWED: &[&str] = &[
    "job",
    "workers",
    "threads",
    "lease-ttl",
    "max-spawns",
    "worker-bin",
    "graph",
    "top",
    "out",
    "revenue",
    "base-fee",
    "watch",
];

/// `knnshap run-job`: supervise a local fleet to completion and report.
pub fn run_run_job(args: &Args) -> Result<String, CliError> {
    args.expect_only(RUN_JOB_ALLOWED)?;
    let job = args.require("job")?.to_string();
    let dirs = JobDirs::new(&job);
    let plan = JobPlan::load(&dirs).map_err(CliError::Runtime)?;
    let workers = args.usize_or("workers", 2)?;
    let threads = args.usize_or("threads", 0)?;
    let lease_ttl = Duration::from_secs_f64(args.f64_or("lease-ttl", 30.0)?.max(0.0));
    let max_spawns = args.usize_or("max-spawns", workers.saturating_mul(8).max(8))?;

    // The supervisor respawns this very binary as `knnshap worker`;
    // `--worker-bin` overrides for tests and exotic deployments.
    let program = match args.str("worker-bin") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe().map_err(|e| {
            CliError::Invalid(format!("cannot locate own binary for worker spawns: {e}"))
        })?,
    };
    let mut worker_args = vec!["worker".to_string(), "--job".into(), job.clone()];
    if threads > 0 {
        worker_args.push("--threads".into());
        worker_args.push(threads.to_string());
    }
    if let Some(graph) = args.str("graph") {
        worker_args.push("--graph".into());
        worker_args.push(graph.to_string());
    }

    // `--watch` streams live progress lines from a side thread while the
    // supervisor works. The watcher only tails events.jsonl (read-only), so
    // it cannot perturb the job; the stop flag covers the failure path,
    // where no job_done event would ever release it.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = if args.flag("watch") {
        let (dirs, plan, stop) = (JobDirs::new(&job), plan.clone(), stop.clone());
        Some(std::thread::spawn(move || {
            super::watch::stream_progress(&dirs, &plan, Duration::from_millis(200), &stop);
        }))
    } else {
        None
    };

    let started = std::time::Instant::now();
    let outcome = run_job(
        &dirs,
        SupervisorOptions {
            workers,
            threads,
            lease_ttl,
            poll: Duration::from_millis(50),
            max_spawns,
            launcher: Launcher::Command {
                program,
                args: worker_args,
            },
        },
    );
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(h) = watcher {
        h.join().ok();
    }
    let outcome = outcome.map_err(CliError::Runtime)?;
    let secs = started.elapsed().as_secs_f64();

    let mut out = format!(
        "job complete: {} shards via {} worker(s) ({} spawned, {} reassigned, {} \
         worker failure(s)) in {secs:.3} s\n\n",
        plan.spec.shards, workers, outcome.spawned, outcome.reassigned, outcome.worker_failures,
    );
    // The supervisor kept the one dataset column the outputs need, so
    // nothing is parsed again; the CSV is written on the fleet's cores.
    // The report tail and the --out CSV are `value`'s, byte for byte.
    out += &super::value::report(
        args,
        &outcome.column,
        outcome.n_test,
        plan.spec.k,
        &outcome.values,
        None,
        plan.spec.family.name(),
        tail_threads(workers, threads),
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::csv_pair;
    use std::path::PathBuf;

    fn job_dir(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("knnshap-cli-job-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn plan_argv(t: &Path, q: &Path, job: &Path, extra: &[&str]) -> Vec<String> {
        let mut v = vec![
            "shard-plan".to_string(),
            "--train".into(),
            t.to_str().unwrap().into(),
            "--test".into(),
            q.to_str().unwrap().into(),
            "--shards".into(),
            "3".into(),
            "--job".into(),
            job.to_str().unwrap().into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    }

    #[test]
    fn suggest_shards_amortizes_overhead() {
        // 1 ms/item × 8000 items = 8 s of work; 0.1 s/shard overhead ⇒
        // 8 / (8 × 0.1) = 10 shards.
        assert_eq!(suggest_shards(1e-3, 0.1, 8000, 64), 10);
        // Capped by max_shards and by items.
        assert_eq!(suggest_shards(1e-3, 1e-6, 8000, 4), 4);
        assert_eq!(suggest_shards(1.0, 1e-9, 3, 64), 3);
        // Overhead dwarfing the job ⇒ one shard.
        assert_eq!(suggest_shards(1e-6, 10.0, 100, 64), 1);
        // Degenerate timings ⇒ one shard, never zero or a panic.
        assert_eq!(suggest_shards(0.0, 0.1, 100, 64), 1);
        assert_eq!(suggest_shards(f64::NAN, 0.1, 100, 64), 1);
        // Free overhead ⇒ as many shards as allowed.
        assert_eq!(suggest_shards(1e-3, 0.0, 8000, 64), 64);
    }

    #[test]
    fn shard_plan_writes_a_loadable_plan_with_ranges() {
        let (t, q) = csv_pair("plan-ok", 30, 6);
        let job = job_dir("plan-ok");
        let report = crate::run(plan_argv(&t, &q, &job, &["--k", "2"])).unwrap();
        assert!(report.contains("planned exact-class job"), "{report}");
        assert!(report.contains("s2: items"), "{report}");
        let plan = JobPlan::load(&JobDirs::new(&job)).unwrap();
        assert_eq!(plan.spec.shards, 3);
        assert_eq!(plan.total_items, 6);
        std::fs::remove_dir_all(&job).ok();
    }

    #[test]
    fn shard_plan_auto_derives_a_count_and_respects_the_cap() {
        let (t, q) = csv_pair("plan-auto", 40, 8);
        let job = job_dir("plan-auto");
        // --auto with --shards as a cap: the suggestion may never exceed it.
        let report = crate::run([
            "shard-plan",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--job",
            job.to_str().unwrap(),
            "--auto",
            "--shards",
            "4",
            "--k",
            "2",
        ])
        .unwrap();
        assert!(report.contains("auto-sharding: measured"), "{report}");
        let plan = JobPlan::load(&JobDirs::new(&job)).unwrap();
        assert!(
            (1..=4).contains(&plan.spec.shards),
            "suggested {} shards",
            plan.spec.shards
        );
        std::fs::remove_dir_all(&job).ok();

        // --auto alone: --shards is no longer required.
        let job2 = job_dir("plan-auto-free");
        crate::run([
            "shard-plan",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--job",
            job2.to_str().unwrap(),
            "--auto",
        ])
        .unwrap();
        let plan2 = JobPlan::load(&JobDirs::new(&job2)).unwrap();
        assert!(plan2.spec.shards >= 1);
        std::fs::remove_dir_all(&job2).ok();
    }

    /// `--auto` binds the datasets once and keeps the probe's plan with the
    /// suggested shard count: the very plan `--shards <suggested>` writes.
    #[test]
    fn shard_plan_auto_writes_the_plan_of_its_suggested_count() {
        let (t, q) = csv_pair("plan-auto-same", 40, 8);
        let (auto, fixed) = (job_dir("plan-auto-same"), job_dir("plan-auto-same-fixed"));
        let plan = |job: &Path, method: &[&str], shards: &[&str]| {
            let (t, q, job) = (
                t.to_str().unwrap(),
                q.to_str().unwrap(),
                job.to_str().unwrap(),
            );
            let mut argv = vec![
                "shard-plan",
                "--train",
                t,
                "--test",
                q,
                "--job",
                job,
                "--k",
                "2",
            ];
            argv.extend_from_slice(method);
            argv.extend_from_slice(shards);
            crate::run(argv).unwrap()
        };
        for method in [
            &["--method", "exact"][..],
            &["--method", "mc-improved", "--perms", "30"],
        ] {
            let report = plan(&auto, method, &["--auto"]);
            let suggested = report
                .split_once("=> ")
                .and_then(|(_, rest)| rest.split_once(' '))
                .map(|(n, _)| n.to_string())
                .unwrap_or_else(|| panic!("no suggestion in {report}"));
            plan(&fixed, method, &["--shards", &suggested]);
            assert_eq!(
                std::fs::read(JobDirs::new(&auto).plan_path()).unwrap(),
                std::fs::read(JobDirs::new(&fixed).plan_path()).unwrap(),
                "{method:?}: --auto => {suggested} shards"
            );
            // Each method is another job, which a job directory refuses.
            std::fs::remove_dir_all(&auto).ok();
            std::fs::remove_dir_all(&fixed).ok();
        }
    }

    /// Earlier builds wrote the CLI's `--seed 42` into exact and truncated
    /// plans. Re-planning such a job directory with the same arguments is
    /// the same job, not a conflict; another job still is one.
    #[test]
    fn replanning_a_job_an_earlier_build_wrote_is_not_a_conflict() {
        let (t, q) = csv_pair("replan-earlier", 30, 6);
        let job = job_dir("replan-earlier");
        let plan_path = JobDirs::new(&job).plan_path();
        for method in [
            &["--method", "exact", "--k", "2"][..],
            &["--method", "truncated", "--eps", "0.2"],
        ] {
            crate::run(plan_argv(&t, &q, &job, method)).unwrap();
            let text = std::fs::read_to_string(&plan_path).unwrap();
            assert!(text.contains("\nseed 0\n"), "{text}");
            let earlier = text.replace("\nseed 0\n", "\nseed 42\n");
            std::fs::write(&plan_path, &earlier).unwrap();
            crate::run(plan_argv(&t, &q, &job, method)).unwrap();
            std::fs::write(&plan_path, &earlier).unwrap();
            let err = crate::run(plan_argv(&t, &q, &job, &["--k", "3"])).unwrap_err();
            assert!(
                matches!(err, CliError::Runtime(JobError::PlanConflict(_))),
                "{err}"
            );
            std::fs::remove_dir_all(&job).ok();
        }
    }

    #[test]
    fn shard_plan_rejects_lsh_with_the_full_explanation() {
        let (t, q) = csv_pair("plan-lsh", 20, 4);
        let job = job_dir("plan-lsh");
        let err = crate::run(plan_argv(&t, &q, &job, &["--method", "lsh"])).unwrap_err();
        assert!(err.to_string().contains("whole-test-set"), "{err}");
        assert!(err.to_string().contains("OnlineValuator"), "{err}");
        std::fs::remove_dir_all(&job).ok();
    }

    #[test]
    fn shard_plan_requires_perms_for_stochastic_methods() {
        let (t, q) = csv_pair("plan-mc", 20, 4);
        let job = job_dir("plan-mc");
        for m in ["mc-baseline", "mc-improved", "group-testing"] {
            let err = crate::run(plan_argv(&t, &q, &job, &["--method", m])).unwrap_err();
            assert!(err.to_string().contains("--perms"), "{m}: {err}");
        }
        crate::run(plan_argv(
            &t,
            &q,
            &job,
            &["--method", "mc-improved", "--perms", "40"],
        ))
        .unwrap();
        std::fs::remove_dir_all(&job).ok();
    }

    #[test]
    fn worker_completes_a_planned_job_in_process() {
        let (t, q) = csv_pair("worker-run", 25, 5);
        let job = job_dir("worker-run");
        crate::run(plan_argv(&t, &q, &job, &["--k", "2"])).unwrap();
        let report = crate::run([
            "worker",
            "--job",
            job.to_str().unwrap(),
            "--worker-id",
            "t1",
        ])
        .unwrap();
        assert!(report.contains("completed 3 shard(s)"), "{report}");
        // Everything published; a second worker finds nothing to do.
        let again = crate::run(["worker", "--job", job.to_str().unwrap()]).unwrap();
        assert!(again.contains("completed 0 shard(s)"), "{again}");
        std::fs::remove_dir_all(&job).ok();
    }

    #[test]
    fn run_job_report_and_csv_match_value_for_class_jobs() {
        let (t, q) = csv_pair("runjob", 30, 6);
        let job = job_dir("runjob");
        let merged_csv = std::env::temp_dir().join(format!(
            "knnshap-cli-job-{}-runjob-merged.csv",
            std::process::id()
        ));
        let direct_csv = std::env::temp_dir().join(format!(
            "knnshap-cli-job-{}-runjob-direct.csv",
            std::process::id()
        ));
        crate::run(plan_argv(&t, &q, &job, &["--k", "2"])).unwrap();
        // In-process completion (worker), then supervise-merge via run-job:
        // with all shards done, run-job just merges and reports — this keeps
        // the unit test free of subprocess spawning (the process path is
        // covered by crates/cli/tests/orchestration_cli.rs and CI).
        crate::run(["worker", "--job", job.to_str().unwrap()]).unwrap();
        let report = crate::run([
            "run-job",
            "--job",
            job.to_str().unwrap(),
            "--workers",
            "1",
            "--out",
            merged_csv.to_str().unwrap(),
        ])
        .unwrap();
        assert!(report.contains("job complete"), "{report}");
        assert!(report.contains("total value"), "{report}");
        let direct = crate::run([
            "value",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--k",
            "2",
            "--out",
            direct_csv.to_str().unwrap(),
        ])
        .unwrap();
        // The report tail (after the orchestration summary) is the `value`
        // report, modulo the --out path lines.
        let tail = report.split_once("\n\n").unwrap().1;
        assert_eq!(
            tail.replace(merged_csv.to_str().unwrap(), "X"),
            direct.replace(direct_csv.to_str().unwrap(), "X"),
            "run-job must render the value report"
        );
        assert_eq!(
            std::fs::read(&merged_csv).unwrap(),
            std::fs::read(&direct_csv).unwrap(),
            "run-job CSV must be byte-identical to value's"
        );
        std::fs::remove_file(&merged_csv).ok();
        std::fs::remove_file(&direct_csv).ok();
        std::fs::remove_dir_all(&job).ok();
    }

    #[test]
    fn reg_jobs_plan_run_and_export() {
        // Build a tiny regression CSV pair by hand.
        let dir = std::env::temp_dir();
        let t = dir.join(format!(
            "knnshap-cli-job-{}-reg-train.csv",
            std::process::id()
        ));
        let q = dir.join(format!(
            "knnshap-cli-job-{}-reg-test.csv",
            std::process::id()
        ));
        let cfg = knnshap_datasets::synth::regression::RegressionConfig {
            n: 20,
            dim: 2,
            ..Default::default()
        };
        let train = knnshap_datasets::synth::regression::generate(&cfg);
        let test = knnshap_datasets::synth::regression::queries(&cfg, 4);
        knnshap_datasets::io::save_reg_csv(&t, &train).unwrap();
        knnshap_datasets::io::save_reg_csv(&q, &test).unwrap();

        let job = job_dir("reg");
        crate::run(plan_argv(&t, &q, &job, &["--task", "reg", "--k", "2"])).unwrap();
        crate::run(["worker", "--job", job.to_str().unwrap()]).unwrap();
        let out_csv = dir.join(format!(
            "knnshap-cli-job-{}-reg-values.csv",
            std::process::id()
        ));
        let report = crate::run([
            "run-job",
            "--job",
            job.to_str().unwrap(),
            "--out",
            out_csv.to_str().unwrap(),
        ])
        .unwrap();
        assert!(report.contains("method = exact-reg"), "{report}");
        let csv = std::fs::read_to_string(&out_csv).unwrap();
        assert!(csv.starts_with("index,target,shapley_value"));
        assert_eq!(csv.lines().count(), 21);

        // Bitwise vs the library's unsharded regression estimator.
        let want = knnshap_core::exact_regression::knn_reg_shapley(&train, &test, 2);
        for (line, i) in csv.lines().skip(1).zip(0..) {
            let got: f64 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert_eq!(got.to_bits(), want.get(i).to_bits(), "point {i}");
        }
        for p in [&t, &q, &out_csv] {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(&job).ok();
    }

    #[test]
    fn worker_fault_env_crashes_and_leaves_resume_state() {
        let (t, q) = csv_pair("fault", 24, 6);
        let job = job_dir("fault");
        crate::run(plan_argv(&t, &q, &job, &["--checkpoint-chunks", "3"])).unwrap();
        // Same hook the KNNSHAP_FAULT_AFTER_CHUNKS env switch installs
        // (CI's kill-and-restart smoke and orchestration_cli.rs exercise the
        // env route on real subprocesses; mutating the env here would race
        // sibling tests running workers in this process).
        let hook = Some(super::fault_after_chunks(2));
        let dirs = JobDirs::new(&job);
        let err = run_worker(
            &dirs,
            WorkerOptions {
                worker_id: "env-fault".into(),
                fault: hook,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, knnshap_runtime::JobError::Crashed(_)),
            "{err}"
        );
        // Lease left behind, checkpoint present: exactly the crash scene a
        // successor resumes from.
        assert!(dirs.lease_path(0).exists());
        assert!(dirs.checkpoint_path(0).exists());
        std::fs::remove_dir_all(&job).ok();
    }
}
