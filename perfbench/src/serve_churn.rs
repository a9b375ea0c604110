//! `serve_churn`: a `knnshap serve --socket` daemon driven by two
//! closed-loop connections, each replaying its own seeded mix of insert,
//! delete, what-if and get/top requests. Mutations pay splice + Theorem 1
//! recursion + exact fold on the resident engine; the sort is paid only at
//! daemon start (`setup_s`).

use crate::exact_csv::{counted, exact_layers};
use crate::inputs::{candidates, Inputs};
use crate::stats::{median, tail};
use crate::{same_bits, same_bytes, span, value_cmd, Ctx, K};
use knnshap_core::exact_unweighted::knn_class_shapley_with_threads;
use knnshap_core::resident::{Mutation, ResidentValuator};
use knnshap_datasets::ClassDataset;
use knnshap_serve::client::{Backoff, Client, MetricsInfo};
use knnshap_serve::server::Endpoint;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop client connections (never more than `nproc`).
const CONNECTIONS: usize = 2;

/// Candidate rows inserts and what-ifs draw from.
const CANDIDATES: usize = 512;

/// `(train points, queries, steps per connection)`. Two connections of 20
/// steps make the 40 mutations of the concurrent-writer stress test.
fn sizes(ctx: &Ctx) -> (usize, usize, usize) {
    if ctx.tiny {
        (500, 4, 6)
    } else {
        (50_000, 32, 20)
    }
}

/// One scripted request.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(usize),
    Delete(u64),
    WhatIf(usize),
    Get(u64),
    Top,
}

impl Op {
    fn is_mutation(self) -> bool {
        matches!(self, Op::Insert(_) | Op::Delete(_))
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Connection `conn`'s request script, modelled on the writer and readers
/// of `crates/serve/tests/concurrency_stress.rs`. Each step is one mutation
/// followed by one read. Every third mutation is a delete and the others
/// are inserts, the split of that test's writer and of
/// `bench_serve_incremental`; the reads rotate what-if, get and top-10 as
/// the test's readers rotate their three reads. The seed picks the rows
/// inserted and asked about and the indices deleted and read. Deletes and
/// gets address the lower half of the initial set, which no script can
/// shrink away.
fn script(seed: u64, conn: u64, steps: usize, n0: usize) -> Vec<Op> {
    let mut st = seed ^ (conn + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut draw = |m: usize| (splitmix64(&mut st) % m.max(1) as u64) as usize;
    let mut ops = Vec::with_capacity(2 * steps);
    for i in 0..steps {
        ops.push(if i % 3 == 2 {
            Op::Delete(draw(n0 / 2) as u64)
        } else {
            Op::Insert(draw(CANDIDATES))
        });
        ops.push(match i % 3 {
            0 => Op::WhatIf(draw(CANDIDATES)),
            1 => Op::Get(draw(n0 / 2) as u64),
            _ => Op::Top,
        });
    }
    ops
}

/// Client-observed outcome of one request.
struct Sample {
    op: Op,
    ms: f64,
    ok: bool,
}

fn drive(client: &mut Client, ops: &[Op], cands: &ClassDataset, conn: u64) -> Vec<Sample> {
    let backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(50), 8, conn);
    ops.iter()
        .map(|&op| {
            let t = Instant::now();
            let ok = match op {
                Op::Insert(c) => client
                    .insert_retrying(cands.x.row(c), cands.y[c], &backoff)
                    .is_ok(),
                Op::Delete(i) => client.delete_retrying(i, &backoff).is_ok(),
                Op::WhatIf(c) => client.what_if(cands.x.row(c), cands.y[c]).is_ok(),
                Op::Get(i) => client.get(i).is_ok(),
                Op::Top => client.ranked(10, true).is_ok(),
            };
            Sample {
                op,
                ms: t.elapsed().as_secs_f64() * 1e3,
                ok,
            }
        })
        .collect()
}

/// One daemon lifetime: start, replay the scripts, check, shut down.
struct Session {
    setup_s: f64,
    script_s: f64,
    samples: Vec<Sample>,
    metrics: Option<MetricsInfo>,
    maxrss_mb: f64,
    cold_s: f64,
}

fn session(
    ctx: &mut Ctx,
    inp: &Inputs,
    scripts: &[Vec<Op>],
    cands: &ClassDataset,
    first: bool,
) -> Option<Session> {
    // Relative to the working directory: socket paths are length-limited.
    let sock = ctx.path("daemon.sock");
    std::fs::remove_file(&sock).ok();
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ctx.path("stderr.log"))
        .map_or(Stdio::null(), Stdio::from);
    ctx.attempted += 1;
    let start = Instant::now();
    let spawned = Command::new(&ctx.bin)
        .args(["serve", "--train"])
        .arg(&inp.train)
        .arg("--test")
        .arg(&inp.test)
        .args([
            "--k",
            &K.to_string(),
            "--threads",
            &ctx.nproc.to_string(),
            "--socket",
        ])
        .arg(&sock)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .spawn();
    let Ok(mut child) = spawned else {
        ctx.failed += 1;
        eprintln!("perfbench: cannot spawn the daemon");
        return None;
    };
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).ok();
    let setup_s = start.elapsed().as_secs_f64();
    let endpoint = Endpoint::Unix(sock.clone());
    let ready = banner.starts_with("knnshap serve: listening");
    let clients: Option<Vec<Client>> = ready
        .then(|| {
            (0..CONNECTIONS)
                .map(|_| Client::connect(&endpoint).ok())
                .collect()
        })
        .flatten();
    let Some(mut clients) = clients else {
        ctx.failed += 1;
        eprintln!("perfbench: daemon did not come up: {banner}");
        child.kill().ok();
        crate::proc::reap(child);
        return None;
    };

    let t = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts)
            .enumerate()
            .map(|(c, (client, ops))| s.spawn(move || drive(client, ops, cands, c as u64)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("script thread panicked"))
            .collect()
    });
    let script_s = t.elapsed().as_secs_f64();
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    ctx.ops(samples.len() as u64, failed);

    // After the script: metrics, the final vector, the training set.
    let ctl = &mut clients[0];
    let metrics = ctl.metrics().ok();
    let dump = ctl.dump().ok();
    let export = ctl.train_csv().ok();
    let shut = ctl.shutdown().is_ok();
    drop(clients);
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).ok();
    let exit = crate::proc::reap(child);
    ctx.check(
        metrics.is_some() && dump.is_some() && export.is_some() && shut && exit.ok,
        "daemon control requests or shutdown failed",
    );

    // A cold `value` run on the daemon's final training set must print the
    // served vector byte for byte.
    let (served, exported, cold) = (
        ctx.path("served.csv"),
        ctx.path("final_train.csv"),
        ctx.path("cold.csv"),
    );
    if let Some(d) = &dump {
        write_dump_csv(&served, &d.labels, &d.values).ok();
    }
    if let Some((_, csv)) = &export {
        std::fs::write(&exported, csv).ok();
    }
    let final_inputs = Inputs {
        train: exported,
        ..inp.clone()
    };
    let cold_run = ctx.cmd(&value_cmd(&final_inputs, 1, &cold, &["--method", "exact"]));
    if first {
        ctx.maybe_corrupt(&served);
    }
    ctx.check(
        same_bytes(&served, &cold),
        "served dump differs from a cold value run on the exported training set",
    );
    Some(Session {
        setup_s,
        script_s,
        samples,
        metrics,
        maxrss_mb: exit.maxrss_mb,
        cold_s: cold_run.secs,
    })
}

/// The CSV `knnshap client --op dump --out` writes: byte-comparable with
/// `knnshap value --out`.
fn write_dump_csv(path: &Path, labels: &[u32], values: &[f64]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index,label,shapley_value")?;
    for (i, (label, value)) in labels.iter().zip(values).enumerate() {
        writeln!(w, "{i},{label},{value}")?;
    }
    w.flush()
}

fn setup(ctx: &mut Ctx) -> (Inputs, Vec<Vec<Op>>, ClassDataset) {
    let (n, q, ops) = sizes(ctx);
    let inp = ctx.inputs("inputs", n, q);
    let scripts = (0..CONNECTIONS as u64)
        .map(|c| script(ctx.seed, c, ops, n))
        .collect();
    (inp, scripts, candidates(ctx.seed, n, CANDIDATES))
}

fn latencies(samples: &[Sample], keep: impl Fn(Op) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s.op))
        .map(|s| s.ms)
        .collect()
}

pub fn run(ctx: &mut Ctx) {
    let (inp, scripts, cands) = setup(ctx);
    ctx.threads = vec![
        ("daemon", ctx.nproc),
        ("connections", CONNECTIONS),
        ("value_1t", 1),
    ];
    let (mut setup_s, mut wall, mut wall_1t, mut rss) = (vec![], vec![], vec![], vec![]);
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut iters = 0;
    while ctx.again(start, iters) {
        iters += 1;
        let Some(s) = session(ctx, &inp, &scripts, &cands, iters == 1) else {
            continue;
        };
        setup_s.push(s.setup_s);
        wall.push(s.script_s);
        wall_1t.push(s.cold_s);
        rss.push(s.maxrss_mb);
        samples.extend(s.samples);
    }
    let requests: usize = scripts.iter().map(Vec::len).sum();
    let mutation = latencies(&samples, Op::is_mutation);
    let whatif = latencies(&samples, |op| matches!(op, Op::WhatIf(_)));
    let (m_pct, m_tail) = tail(&mutation);
    let (w_pct, w_tail) = tail(&whatif);
    let rep = &mut ctx.report;
    rep.set("wall_s", median(&wall));
    rep.set("wall_1t_s", median(&wall_1t));
    rep.set("setup_s", median(&setup_s));
    rep.set("peak_rss_mb", median(&rss));
    rep.detail("ops_per_s", requests as f64 / median(&wall), "1/s");
    rep.detail("mutation_ms_p50", median(&mutation), "ms");
    rep.detail("mutation_ms_tail", m_tail, "ms");
    rep.detail("mutation_ms_tail_percentile", m_pct, "pct");
    rep.detail("mutation_samples", mutation.len() as f64, "count");
    rep.detail("whatif_ms_p50", median(&whatif), "ms");
    rep.detail("whatif_ms_tail", w_tail, "ms");
    rep.detail("whatif_ms_tail_percentile", w_pct, "pct");
    rep.detail("whatif_samples", whatif.len() as f64, "count");
    rep.detail("iterations", wall.len() as f64, "count");
}

pub fn trace(ctx: &mut Ctx) {
    let (inp, scripts, cands) = setup(ctx);
    let nproc = ctx.nproc;
    ctx.threads = vec![
        ("daemon", nproc),
        ("connections", CONNECTIONS),
        ("trace", nproc),
    ];
    let Some(s) = session(ctx, &inp, &scripts, &cands, true) else {
        return;
    };
    let untraced = s.setup_s + s.script_s;
    if let Some(m) = &s.metrics {
        let client_mean = s.samples.iter().map(|x| x.ms).sum::<f64>() / s.samples.len() as f64;
        let lookups = m.whatif_hits + m.whatif_misses;
        let rep = &mut ctx.report;
        rep.set("serve.requests", m.requests as f64);
        rep.set("serve.batch_mean", m.batch_sizes.mean());
        rep.set("serve.queue_depth_max", m.batch_sizes.max as f64);
        rep.set(
            "serve.whatif_cache_hit_ratio",
            m.whatif_hits as f64 / lookups.max(1) as f64,
        );
        rep.set("serve.whatif_cache_hits", m.whatif_hits as f64);
        rep.set("serve.whatif_cache_lookups", lookups as f64);
        rep.set("serve.server_latency_mean_us", m.latency_micros.mean());
        rep.set(
            "serve.wire_overhead_ms",
            client_mean - m.latency_micros.mean() / 1e3,
        );
    }

    // The traced rebuild: the exact layers on the initial set (what the
    // daemon's start pays), then the resident engine replaying both
    // scripts in alternation, one span per engine call.
    let layers = exact_layers(&inp, nproc);
    layers.report(ctx, inp.train_bytes + inp.test_bytes);
    let [mut seed_s, mut apply_s, mut values_s, mut whatif_s] = [0.0; 4];
    let (mut apply_ms, mut values_ms, mut whatif_ms) = (vec![], vec![], vec![]);
    let (train, test) = (layers.train.clone(), layers.test.clone());
    let t0 = Instant::now();
    let (engine, counters) = counted(|| {
        let mut engine = span(&mut seed_s, || ResidentValuator::new(train, test, K, nproc))
            .unwrap_or_else(|e| crate::fail(&format!("resident engine: {e}")));
        let longest = scripts.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for op in scripts.iter().filter_map(|s| s.get(i)) {
                let m = match *op {
                    Op::Insert(c) => Mutation::Insert {
                        features: cands.x.row(c).to_vec(),
                        label: cands.y[c],
                    },
                    Op::Delete(idx) => Mutation::Delete {
                        index: idx as usize,
                    },
                    Op::WhatIf(c) => {
                        let mut t = 0.0;
                        span(&mut t, || engine.what_if(cands.x.row(c), cands.y[c]).ok());
                        whatif_s += t;
                        whatif_ms.push(t * 1e3);
                        continue;
                    }
                    Op::Get(_) | Op::Top => continue,
                };
                let mut t = 0.0;
                span(&mut t, || engine.apply_batch(&[m]));
                apply_s += t;
                apply_ms.push(t * 1e3);
                let mut t = 0.0;
                span(&mut t, || engine.values());
                values_s += t;
                values_ms.push(t * 1e3);
            }
        }
        engine
    });
    let replay_s = t0.elapsed().as_secs_f64();
    counters.report_pool(&mut ctx.report);
    let served = engine.values();
    let cold = knn_class_shapley_with_threads(engine.train(), engine.test(), K, 1);
    ctx.check(
        same_bits(served.as_slice(), cold.as_slice()),
        "resident replay differs from a cold run on its final training set",
    );

    // The daemon parses, seeds the engine and serves the script at `nproc`
    // threads, as the replay does. The rebuild's other exact layers are
    // probes the daemon never runs, so they are left out of both figures.
    let traced = layers.parse_s + replay_s;
    let covered = layers.parse_s + seed_s + apply_s + values_s + whatif_s;
    let rep = &mut ctx.report;
    rep.set("core.resident.seed_s", seed_s);
    rep.set("core.resident.apply_ms", median(&apply_ms));
    rep.set("core.resident.values_ms", median(&values_ms));
    rep.set("core.resident.whatif_ms", median(&whatif_ms));
    rep.set("trace.coverage", covered / untraced);
    rep.set("trace.overhead_frac", traced / untraced - 1.0);
    rep.detail("untraced_wall_s", untraced, "s");
    rep.detail("traced_wall_s", traced, "s");
}
