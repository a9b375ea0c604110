//! `job_shards`: `knnshap shard-plan --method exact --shards 4`, then
//! `knnshap run-job --workers 2 --threads 1 --out`. The exact path routed
//! through lease files, worker processes, per-worker CSV loads,
//! checkpoints, shard files and the merge.

use crate::inputs::Inputs;
use crate::stats::median;
use crate::{read_values, same_bits, same_bytes, span, value_cmd, Ctx, K};
use knnshap_core::exact_unweighted::knn_class_shapley_shard;
use knnshap_core::sharding::{merge_partials, ShardPartial, ShardSpec};
use knnshap_datasets::io::load_class_csv;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const SHARDS: usize = 4;
const WORKERS: usize = 2;

fn sizes(ctx: &Ctx) -> (usize, usize) {
    if ctx.tiny {
        (600, 6)
    } else {
        (100_000, 32)
    }
}

/// One planned-and-run job: plan, run, and the unsharded 1-thread
/// reference, with the job CSV checked against the reference.
struct JobRun {
    plan: crate::proc::Run,
    job: crate::proc::Run,
    reference: crate::proc::Run,
}

fn run_once(ctx: &mut Ctx, inp: &Inputs, first: bool) -> JobRun {
    let job = ctx.path("job");
    std::fs::remove_dir_all(&job).ok();
    let (out_job, out_ref, first_ref) = (
        ctx.path("values_job.csv"),
        ctx.path("values_ref.csv"),
        ctx.path("values_first.csv"),
    );
    let s = |p: &Path| p.display().to_string();
    let (jobs, train, test, out) = (s(&job), s(&inp.train), s(&inp.test), s(&out_job));
    let (k, shards, workers) = (K.to_string(), SHARDS.to_string(), WORKERS.to_string());
    let plan = ctx.cmd(&[
        "shard-plan",
        "--job",
        &jobs,
        "--train",
        &train,
        "--test",
        &test,
        "--k",
        &k,
        "--method",
        "exact",
        "--shards",
        &shards,
    ]);
    let run = ctx.cmd(&[
        "run-job",
        "--job",
        &jobs,
        "--workers",
        &workers,
        "--threads",
        "1",
        "--out",
        &out,
    ]);
    let reference = ctx.cmd(&value_cmd(inp, 1, &out_ref, &["--method", "exact"]));
    if first {
        std::fs::copy(&out_ref, &first_ref).ok();
        ctx.maybe_corrupt(&out_job);
    }
    ctx.check(
        same_bytes(&out_job, &out_ref),
        "run-job CSV differs from the unsharded value CSV",
    );
    ctx.check(
        same_bytes(&out_ref, &first_ref),
        "value CSV differs across iterations",
    );
    JobRun {
        plan,
        job: run,
        reference,
    }
}

pub fn run(ctx: &mut Ctx) {
    let (n, q) = sizes(ctx);
    let inp = ctx.inputs("inputs", n, q);
    ctx.threads = vec![("run_job_workers", WORKERS), ("worker", 1), ("value_1t", 1)];
    let (mut wall, mut wall_1t, mut setup, mut rss) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while ctx.again(start, wall.len()) {
        let r = run_once(ctx, &inp, wall.is_empty());
        setup.push(r.plan.secs);
        wall.push(r.job.secs);
        wall_1t.push(r.reference.secs);
        rss.push(r.job.maxrss_mb);
    }
    let rep = &mut ctx.report;
    rep.set("wall_s", median(&wall));
    rep.set("wall_1t_s", median(&wall_1t));
    rep.set("setup_s", median(&setup));
    rep.set("peak_rss_mb", median(&rss));
    rep.detail("iterations", wall.len() as f64, "count");
}

/// Orchestration figures from the job's `events.jsonl`.
struct Events {
    spawns: usize,
    chunks: usize,
    /// claim → shard_done seconds, summed per worker.
    busy_by_worker: BTreeMap<String, f64>,
}

fn read_events(path: &Path) -> Events {
    let mut ev = Events {
        spawns: 0,
        chunks: 0,
        busy_by_worker: BTreeMap::new(),
    };
    let mut claimed: BTreeMap<(String, u64), f64> = BTreeMap::new();
    let text = std::fs::read_to_string(path).unwrap_or_default();
    for line in text.lines() {
        let Ok(v) = knnshap_obs::json::parse(line) else {
            continue;
        };
        let ts = v.get("ts").and_then(|x| x.as_f64()).unwrap_or(0.0);
        let worker = v
            .get("worker")
            .and_then(|x| x.as_str())
            .unwrap_or("")
            .to_string();
        let shard = v.get("shard").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
        match v.get("ev").and_then(|x| x.as_str()) {
            Some("spawn") => ev.spawns += 1,
            Some("chunk") => ev.chunks += 1,
            Some("claim") => {
                claimed.insert((worker, shard), ts);
            }
            Some("shard_done") => {
                if let Some(t) = claimed.remove(&(worker.clone(), shard)) {
                    *ev.busy_by_worker.entry(worker).or_default() += ts - t;
                }
            }
            _ => {}
        }
    }
    ev
}

pub fn trace(ctx: &mut Ctx) {
    let (n, q) = sizes(ctx);
    let inp = ctx.inputs("inputs", n, q);
    ctx.threads = vec![("run_job_workers", WORKERS), ("worker", 1), ("trace", 1)];
    let r = run_once(ctx, &inp, true);
    let cli = read_values(&ctx.path("values_job.csv"));
    let job = ctx.path("job");
    let ev = read_events(&job.join("events.jsonl"));
    let busiest = ev.busy_by_worker.values().copied().fold(0.0, f64::max);

    // The traced rebuild: parse, compute every shard in-process, then decode
    // and merge the job's own shard files.
    let t0 = Instant::now();
    let [mut parse_s, mut compute_s, mut merge_s] = [0.0; 3];
    let load = |p: &Path| {
        load_class_csv(p).unwrap_or_else(|e| crate::fail(&format!("{}: {e}", p.display())))
    };
    let (train, test) = span(&mut parse_s, || (load(&inp.train), load(&inp.test)));
    let local: Vec<Vec<u8>> = span(&mut compute_s, || {
        (0..SHARDS)
            .map(|i| {
                knn_class_shapley_shard(&train, &test, K, ShardSpec::new(i, SHARDS), 1).to_bytes()
            })
            .collect()
    });
    let (files, merged) = span(&mut merge_s, || {
        let files: Vec<Vec<u8>> = (0..SHARDS)
            .map(|i| {
                std::fs::read(job.join("shards").join(format!("s{i}.shard"))).unwrap_or_default()
            })
            .collect();
        let parts: Result<Vec<ShardPartial>, _> =
            files.iter().map(|b| ShardPartial::from_bytes(b)).collect();
        let merged = parts.and_then(|p| merge_partials(&p));
        (files, merged)
    });
    let wall = t0.elapsed().as_secs_f64();
    let merged = merged
        .map(|m| m.values.as_slice().to_vec())
        .unwrap_or_default();
    ctx.check(
        same_bits(&merged, &cli),
        "merged shard files differ from the job CSV",
    );
    ctx.check(
        local == files,
        "in-process shards differ from the job's shard files",
    );

    let rep = &mut ctx.report;
    rep.set("datasets.io.parse_s", parse_s);
    rep.set(
        "datasets.io.parse_mb_per_s",
        (inp.train_bytes + inp.test_bytes) as f64 / 1e6 / parse_s,
    );
    rep.set("runtime.plan_s", r.plan.secs);
    rep.set("runtime.worker_spawns", ev.spawns as f64);
    rep.set("runtime.chunks", ev.chunks as f64);
    rep.set("runtime.worker_busy_s", ev.busy_by_worker.values().sum());
    rep.set("runtime.overhead_s", r.job.secs - busiest);
    rep.set(
        "core.sharding.shard_bytes",
        files.iter().map(Vec::len).sum::<usize>() as f64,
    );
    rep.set("core.sharding.compute_s", compute_s);
    rep.set("core.sharding.merge_s", merge_s);
    // The rebuild runs on one thread, so it is compared with the 1-thread
    // `value` reference (the same math), not with the two-worker job.
    let untraced = r.reference.secs;
    rep.set("trace.coverage", (parse_s + compute_s + merge_s) / untraced);
    rep.set("trace.overhead_frac", wall / untraced - 1.0);
    rep.detail("untraced_wall_s", untraced, "s");
    rep.detail("traced_wall_s", wall, "s");
    rep.detail("longest_worker_busy_s", busiest, "s");
}
