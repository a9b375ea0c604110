//! `knnshap serve` / `knnshap client` — the valuation daemon and its
//! one-shot command-line client.
//!
//! `serve` loads a train/test CSV pair once, computes the initial exact
//! valuation, and answers protocol requests until a client sends
//! `--op shutdown`. `client` performs one operation per invocation (plus a
//! `--script` mode that replays a mutation script over one connection),
//! which keeps the CLI stateless and shell-scriptable; long-lived callers
//! should use `knnshap_serve::Client` directly.
//!
//! The `--op dump --out FILE` CSV is byte-identical to what
//! `knnshap value --out FILE` writes for the same dataset — that equality
//! (after an arbitrary mutation script) is exactly what the CI serve smoke
//! asserts.

use crate::args::Args;
use crate::CliError;
use knnshap_serve::client::Client;
use knnshap_serve::protocol::{BatchMutation, BatchOutcome};
use knnshap_serve::server::{bind, Endpoint, ValuationServer, DEFAULT_QUEUE_BOUND};
use std::io::Write;
use std::path::{Path, PathBuf};

const SERVE_ALLOWED: &[&str] = &[
    "train",
    "test",
    "k",
    "threads",
    "addr",
    "socket",
    "graph",
    "queue-bound",
];
const CLIENT_ALLOWED: &[&str] = &[
    "addr", "socket", "op", "index", "count", "point", "label", "script", "out", "batch",
];

/// Default mutations per `Batch` frame in `--op script --batch` mode.
const DEFAULT_SCRIPT_BATCH: usize = 16;

/// `--addr HOST:PORT` or `--socket PATH` (exactly one) → [`Endpoint`].
fn parse_endpoint(args: &Args) -> Result<Endpoint, CliError> {
    match (args.str("addr"), args.str("socket")) {
        (Some(addr), None) => Ok(Endpoint::Tcp(addr.to_string())),
        (None, Some(path)) => Ok(Endpoint::Unix(PathBuf::from(path))),
        (Some(_), Some(_)) => Err(CliError::Invalid(
            "--addr and --socket are mutually exclusive".into(),
        )),
        (None, None) => Err(CliError::Invalid(
            "need an endpoint: --addr HOST:PORT or --socket PATH".into(),
        )),
    }
}

/// Comma-separated feature list (`"0.5,1,-2.25"`) → `Vec<f32>`.
fn parse_point(spec: &str) -> Result<Vec<f32>, CliError> {
    spec.split(',')
        .map(|t| {
            let t = t.trim();
            t.parse::<f32>()
                .map_err(|_| CliError::Invalid(format!("bad feature value '{t}' in --point")))
        })
        .collect()
}

pub fn run_serve(args: &Args) -> Result<String, CliError> {
    args.expect_only(SERVE_ALLOWED)?;
    let endpoint = parse_endpoint(args)?;
    let (train, test) = super::load_pair(args)?;
    let k = args.usize_or("k", 1)?;
    let threads = args.usize_or("threads", knnshap_parallel::current_threads())?;

    let graph = super::load_graph(args, &train.x, &test.x)?;
    let server = match &graph {
        Some(g) => ValuationServer::with_graph(train, test, k, threads, g),
        None => ValuationServer::new(train, test, k, threads),
    }
    .map_err(|e| CliError::Invalid(format!("cannot load dataset into the engine: {e}")))?;
    // Admission bound on queued mutations (0 = read-only daemon).
    server.set_queue_bound(args.usize_or("queue-bound", DEFAULT_QUEUE_BOUND)?);
    let stat = server.handle(&knnshap_serve::Request::Stat);

    // With `KNNSHAP_METRICS=PATH` in the environment, a side thread appends
    // one JSONL metrics snapshot (the obs event schema — same validator as
    // the log) per second until shutdown, plus a final line so short-lived
    // daemons still leave a record. Strictly write-only: served values are
    // bitwise-identical with and without the recorder.
    let recorder = knnshap_obs::metrics_path().map(|path| {
        let server = server.clone();
        std::thread::spawn(move || {
            let append = |line: String| {
                let _ = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .and_then(|mut f| writeln!(f, "{line}"));
            };
            while !server.shutting_down() {
                append(server.metrics_jsonl_line());
                // Nap in short steps so shutdown is never held up by a
                // full snapshot period.
                for _ in 0..10 {
                    if server.shutting_down() {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
            }
            append(server.metrics_jsonl_line());
        })
    });

    let bound = bind(server, &endpoint).map_err(|e| CliError::Serve(e.to_string()))?;

    // The daemon announces readiness on stdout *before* blocking in the
    // accept loop, so wrappers can wait for this line instead of polling.
    if let knnshap_serve::Response::Stat {
        version,
        n_train,
        n_test,
        k,
        dim,
        ..
    } = stat
    {
        println!(
            "knnshap serve: listening on {} (n_train = {n_train}, n_test = {n_test}, \
             k = {k}, dim = {dim}, version = {version}, threads = {threads})",
            bound.local_endpoint()
        );
        std::io::stdout().flush().ok();
    }

    // On an accept-loop error the shutdown flag may never rise, so the
    // recorder is only joined on the clean path (the process is about to
    // exit either way — an unjoined recorder cannot outlive it).
    bound.run().map_err(|e| CliError::Serve(e.to_string()))?;
    if let Some(h) = recorder {
        h.join().ok();
    }
    Ok("knnshap serve: shut down cleanly".to_string())
}

pub fn run_client(args: &Args) -> Result<String, CliError> {
    args.expect_only(CLIENT_ALLOWED)?;
    let endpoint = parse_endpoint(args)?;
    let mut client = Client::connect(&endpoint)
        .map_err(|e| CliError::Serve(format!("cannot connect to {endpoint}: {e}")))?;
    let op = args.str("op").unwrap_or("stat");
    match op {
        "stat" => {
            let s = client.stat().map_err(serve_err)?;
            Ok(format!(
                "version {} | n_train {} | n_test {} | k {} | dim {} | \
                 protocol {} | checksum {:016x}",
                s.version, s.n_train, s.n_test, s.k, s.dim, s.protocol, s.checksum
            ))
        }
        "get" => {
            let index = required_index(args, "get")?;
            let (version, value) = client.get(index).map_err(serve_err)?;
            Ok(format!("version {version} | value[{index}] = {value}"))
        }
        "dump" => {
            let dump = client.dump().map_err(serve_err)?;
            let out = args
                .str("out")
                .ok_or_else(|| CliError::Invalid("--op dump needs --out FILE".into()))?;
            write_dump_csv(Path::new(out), &dump).map_err(|e| CliError::Serve(e.to_string()))?;
            Ok(format!(
                "version {} | wrote {} values to {out}",
                dump.version,
                dump.values.len()
            ))
        }
        "top" | "bottom" => {
            let count = args.u64_or("count", 10)?;
            let (version, entries) = client.ranked(count, op == "top").map_err(serve_err)?;
            let mut out = format!(
                "version {version} | {} {} valuable points:\n",
                entries.len(),
                if op == "top" { "most" } else { "least" }
            );
            for (i, v) in &entries {
                out.push_str(&format!("  {i}: {v}\n"));
            }
            Ok(out)
        }
        "what-if" | "insert" => {
            let point = parse_point(args.require("point")?)?;
            let label = args.u64_or("label", 0)?;
            let label = u32::try_from(label).map_err(|_| {
                CliError::Invalid(format!(
                    "--label {label} exceeds the largest label, u32::MAX"
                ))
            })?;
            if op == "what-if" {
                let (version, value) = client.what_if(&point, label).map_err(serve_err)?;
                Ok(format!("version {version} | hypothetical value = {value}"))
            } else {
                let (version, index) = client.insert(&point, label).map_err(serve_err)?;
                Ok(format!("version {version} | inserted as index {index}"))
            }
        }
        "delete" => {
            let index = required_index(args, "delete")?;
            let (version, _) = client.delete(index).map_err(serve_err)?;
            Ok(format!("version {version} | deleted index {index}"))
        }
        "train-csv" => {
            let out = args
                .str("out")
                .ok_or_else(|| CliError::Invalid("--op train-csv needs --out FILE".into()))?;
            let (version, bytes) = export_train_csv(&mut client, Path::new(out))?;
            Ok(format!(
                "version {version} | wrote the training set ({bytes} bytes) to {out}"
            ))
        }
        "script" => {
            let path = args
                .str("script")
                .ok_or_else(|| CliError::Invalid("--op script needs --script FILE".into()))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Serve(format!("cannot read {path}: {e}")))?;
            // `--batch` (bare) or `--batch N` turns on batched replay:
            // consecutive mutations are coalesced into `Batch` frames of
            // up to N (default 16); what-if lines flush the group first.
            let batch = if args.flag("batch") {
                Some(DEFAULT_SCRIPT_BATCH)
            } else {
                args.str("batch")
                    .map(|_| args.usize_or("batch", DEFAULT_SCRIPT_BATCH))
                    .transpose()?
            };
            match batch {
                Some(0) => Err(CliError::Invalid("--batch needs a group size >= 1".into())),
                batch => run_script(&mut client, &text, batch),
            }
        }
        "metrics" => {
            let m = client.metrics().map_err(serve_err)?;
            Ok(format!(
                "version {} | protocol {} | uptime {:.1} s | requests {}\n\
                 queue: {} pending / bound {}\n\
                 what-ifs: {}\n\
                 latency: {} timed, mean {:.1} us, max {} us\n\
                 batches: {} drained, mean {:.1} mutations, max {}",
                m.version,
                m.protocol,
                m.uptime_secs,
                m.requests,
                m.queue_depth,
                m.queue_bound,
                m.whatif_misses,
                m.latency_micros.count,
                m.latency_micros.mean(),
                m.latency_micros.max,
                m.batch_sizes.count,
                m.batch_sizes.mean(),
                m.batch_sizes.max,
            ))
        }
        "shutdown" => {
            client.shutdown().map_err(serve_err)?;
            Ok("daemon is shutting down".to_string())
        }
        other => Err(CliError::Invalid(format!(
            "unknown --op '{other}' (stat, get, dump, top, bottom, what-if, insert, \
             delete, train-csv, script, metrics, shutdown)"
        ))),
    }
}

/// One parsed script line, with its 1-based line number and raw text for
/// error reporting.
struct ScriptLine {
    lineno: usize,
    text: String,
    op: ScriptOp,
}

enum ScriptOp {
    Insert { features: Vec<f32>, label: u32 },
    Delete { index: u64 },
    WhatIf { features: Vec<f32>, label: u32 },
}

/// Parse the whole script up front, so a syntax error fails the run
/// *before anything is sent* — no partial application on a bad script.
fn parse_script(text: &str) -> Result<Vec<ScriptLine>, CliError> {
    let mut ops = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad =
            |what: &str| CliError::Invalid(format!("script line {}: {what}: '{line}'", lineno + 1));
        let mut tokens = line.split_whitespace();
        let verb = tokens.next().expect("non-empty line");
        let op = match verb {
            "insert" | "what-if" => {
                let features = parse_point(tokens.next().ok_or_else(|| bad("missing features"))?)?;
                let label = tokens
                    .next()
                    .ok_or_else(|| bad("missing label"))?
                    .parse::<u32>()
                    .map_err(|_| bad("bad label"))?;
                if tokens.next().is_some() {
                    return Err(bad("trailing tokens"));
                }
                if verb == "insert" {
                    ScriptOp::Insert { features, label }
                } else {
                    ScriptOp::WhatIf { features, label }
                }
            }
            "delete" => {
                let index = tokens
                    .next()
                    .ok_or_else(|| bad("missing index"))?
                    .parse::<u64>()
                    .map_err(|_| bad("bad index"))?;
                if tokens.next().is_some() {
                    return Err(bad("trailing tokens"));
                }
                ScriptOp::Delete { index }
            }
            _ => return Err(bad("unknown verb (insert, delete, what-if)")),
        };
        ops.push(ScriptLine {
            lineno: lineno + 1,
            text: line.to_string(),
            op,
        });
    }
    Ok(ops)
}

/// A server-side failure pinned to the script line that caused it. The
/// replay stops here; the trailer says what was (not) applied.
fn script_err(line: &ScriptLine, detail: &str, trailer: &str) -> CliError {
    CliError::Serve(format!(
        "script line {} ('{}'): {detail}; stopping — {trailer}",
        line.lineno, line.text
    ))
}

/// Replay a mutation script over one connection. Line format (blank lines
/// and `#` comments ignored):
///
/// ```text
/// insert  F1,F2,...  LABEL
/// delete  INDEX
/// what-if F1,F2,...  LABEL
/// ```
///
/// With `batch = Some(n)`, consecutive insert/delete lines are coalesced
/// into `Batch` frames of up to `n` mutations (a what-if flushes the
/// pending group first, so it sees every earlier mutation applied). The
/// per-mutation acks carry the same versions and indices sequential replay
/// would produce, so stdout is identical in both modes for a script that
/// fully applies.
///
/// Any server-side rejection stops the replay at the failing line, with
/// the line number in the error. In sequential mode no later mutation has
/// been sent; in batched mode later mutations of the *same group* were
/// already applied (the error says so) — later groups are never sent.
fn run_script(client: &mut Client, text: &str, batch: Option<usize>) -> Result<String, CliError> {
    let lines = parse_script(text)?;
    let mut out = String::new();
    let mut applied = 0usize;
    let mut pending: Vec<&ScriptLine> = Vec::new();

    let flush = |client: &mut Client,
                 pending: &mut Vec<&ScriptLine>,
                 out: &mut String,
                 applied: &mut usize|
     -> Result<(), CliError> {
        if pending.is_empty() {
            return Ok(());
        }
        let muts: Vec<BatchMutation> = pending
            .iter()
            .map(|l| match &l.op {
                ScriptOp::Insert { features, label } => BatchMutation::Insert {
                    features: features.clone(),
                    label: *label,
                },
                ScriptOp::Delete { index } => BatchMutation::Delete { index: *index },
                ScriptOp::WhatIf { .. } => unreachable!("what-if lines are never queued"),
            })
            .collect();
        let (_, outcomes) = client.apply_batch(&muts).map_err(|e| {
            script_err(
                pending[0],
                &e.to_string(),
                "no mutation of this group was applied",
            )
        })?;
        for (line, outcome) in pending.drain(..).zip(outcomes) {
            match outcome {
                BatchOutcome::Applied { version, index } => {
                    *applied += 1;
                    match &line.op {
                        ScriptOp::Insert { .. } => {
                            out.push_str(&format!("insert -> index {index} (version {version})\n"))
                        }
                        ScriptOp::Delete { .. } => {
                            out.push_str(&format!("delete {index} (version {version})\n"))
                        }
                        ScriptOp::WhatIf { .. } => unreachable!(),
                    }
                }
                BatchOutcome::Rejected { message, .. } => {
                    return Err(script_err(
                        line,
                        &format!("server rejected: {message}"),
                        "mutations after it in the same batch group may already be applied; \
                         later groups were not sent",
                    ));
                }
            }
        }
        Ok(())
    };

    for line in &lines {
        match &line.op {
            ScriptOp::WhatIf { features, label } => {
                // A what-if must observe every earlier mutation: flush.
                flush(client, &mut pending, &mut out, &mut applied)?;
                let (version, value) = client
                    .what_if(features, *label)
                    .map_err(|e| script_err(line, &e.to_string(), "no later line was applied"))?;
                out.push_str(&format!("what-if -> {value} (version {version})\n"));
            }
            ScriptOp::Insert { features, label } if batch.is_none() => {
                let (version, index) = client
                    .insert(features, *label)
                    .map_err(|e| script_err(line, &e.to_string(), "no later line was applied"))?;
                applied += 1;
                out.push_str(&format!("insert -> index {index} (version {version})\n"));
            }
            ScriptOp::Delete { index } if batch.is_none() => {
                let (version, _) = client
                    .delete(*index)
                    .map_err(|e| script_err(line, &e.to_string(), "no later line was applied"))?;
                applied += 1;
                out.push_str(&format!("delete {index} (version {version})\n"));
            }
            ScriptOp::Insert { .. } | ScriptOp::Delete { .. } => {
                pending.push(line);
                if pending.len() >= batch.expect("batched arm") {
                    flush(client, &mut pending, &mut out, &mut applied)?;
                }
            }
        }
    }
    flush(client, &mut pending, &mut out, &mut applied)?;

    let stat = client.stat().map_err(serve_err)?;
    out.push_str(&format!(
        "script done: {applied} mutations applied, dataset at version {} \
         with {} training points",
        stat.version, stat.n_train
    ));
    Ok(out)
}

/// The dump CSV — the exact format (header and `f64` `Display` rendering)
/// of `knnshap value --out`, so the two artifacts are byte-comparable.
fn write_dump_csv(path: &Path, dump: &knnshap_serve::Dump) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index,label,shapley_value")?;
    for (i, (label, value)) in dump.labels.iter().zip(&dump.values).enumerate() {
        writeln!(w, "{i},{label},{value}")?;
    }
    w.flush()
}

/// Stream the daemon's training set into `path` as its parts arrive,
/// through a temporary sibling that is renamed into place once the export
/// checked out. A failed export leaves no partial file, and a file already
/// at `path` stays as it was.
fn export_train_csv(client: &mut Client, path: &Path) -> Result<(u64, u64), CliError> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(name);
    let io_err =
        |e: std::io::Error| CliError::Serve(format!("cannot write {}: {e}", path.display()));
    let written = std::fs::File::create(&tmp)
        .map_err(io_err)
        .and_then(|mut file| client.train_csv_to(&mut file).map_err(serve_err))
        .and_then(|got| std::fs::rename(&tmp, path).map(|()| got).map_err(io_err));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// `--index I` of `--op get|delete`. Every `u64` is a value, so an index
/// past the training set reaches the daemon and its out-of-range refusal.
fn required_index(args: &Args, op: &str) -> Result<u64, CliError> {
    args.u64_opt("index")?
        .ok_or_else(|| CliError::Invalid(format!("--op {op} needs --index I")))
}

fn serve_err(e: knnshap_serve::ClientError) -> CliError {
    CliError::Serve(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::csv_pair;

    fn spawn_daemon(tag: &str) -> (Endpoint, std::thread::JoinHandle<std::io::Result<()>>) {
        let (train, test) = csv_pair(tag, 25, 5);
        let train = knnshap_datasets::io::load_class_csv(&train).unwrap();
        let test = knnshap_datasets::io::load_class_csv(&test).unwrap();
        let server = ValuationServer::new(train, test, 3, 1).unwrap();
        let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let endpoint = bound.local_endpoint().clone();
        (endpoint, std::thread::spawn(move || bound.run()))
    }

    fn client_args(endpoint: &Endpoint, rest: &[&str]) -> Args {
        let Endpoint::Tcp(addr) = endpoint else {
            panic!("tcp endpoint expected")
        };
        let mut argv = vec!["client", "--addr", addr];
        argv.extend_from_slice(rest);
        Args::parse(argv).unwrap()
    }

    #[test]
    fn client_round_trip_through_a_live_daemon() {
        let (endpoint, daemon) = spawn_daemon("client-rt");
        let out = run_client(&client_args(&endpoint, &["--op", "stat"])).unwrap();
        assert!(out.contains("n_train 25"), "{out}");

        let out = run_client(&client_args(
            &endpoint,
            &[
                "--op",
                "insert",
                "--point",
                "0.5,0.5,0.5,0.5",
                "--label",
                "1",
            ],
        ))
        .unwrap();
        assert!(out.contains("inserted as index 25"), "{out}");

        let out = run_client(&client_args(&endpoint, &["--op", "get", "--index", "25"])).unwrap();
        assert!(out.contains("version 1"), "{out}");

        let out = run_client(&client_args(&endpoint, &["--op", "top", "--count", "3"])).unwrap();
        assert!(out.contains("3 most valuable"), "{out}");

        let out = run_client(&client_args(&endpoint, &["--op", "metrics"])).unwrap();
        assert!(out.contains("protocol 4"), "{out}");
        assert!(out.contains("what-ifs: 0"), "{out}");
        assert!(out.contains("queue: 0 pending"), "{out}");

        run_client(&client_args(&endpoint, &["--op", "shutdown"])).unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn script_mode_applies_mutations_in_order() {
        let (endpoint, daemon) = spawn_daemon("client-script");
        let dir = std::env::temp_dir();
        let script = dir.join(format!("knnshap-cli-{}-script.txt", std::process::id()));
        std::fs::write(
            &script,
            "# comment\n\ninsert 1,2,3,4 1\ndelete 0\nwhat-if 0,0,0,0 0\n",
        )
        .unwrap();
        let out = run_client(&client_args(
            &endpoint,
            &["--op", "script", "--script", script.to_str().unwrap()],
        ))
        .unwrap();
        assert!(out.contains("2 mutations applied"), "{out}");
        assert!(out.contains("version 2"), "{out}");
        assert!(out.contains("what-if ->"), "{out}");
        std::fs::remove_file(&script).ok();
        run_client(&client_args(&endpoint, &["--op", "shutdown"])).unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn batched_script_replay_prints_the_same_transcript() {
        // Two daemons, same dataset; one replays the script unbatched, the
        // other batched with a group size that forces mid-script flushes.
        // The printed transcript (versions, indices, what-if values) must
        // be identical — the CI smoke asserts the same for dumped CSVs.
        let script = "insert 1,2,3,4 1\ninsert 4,3,2,1 0\nwhat-if 0,0,0,0 0\n\
                      delete 0\ninsert 0.5,0.5,0.5,0.5 2\ndelete 3\ndelete 1\n";
        let mut transcripts = Vec::new();
        for batch in ["seq", "batched"] {
            let (endpoint, daemon) = spawn_daemon(&format!("client-batch-{batch}"));
            let dir = std::env::temp_dir();
            let path = dir.join(format!(
                "knnshap-cli-{}-{batch}-script.txt",
                std::process::id()
            ));
            std::fs::write(&path, script).unwrap();
            let mut argv = vec!["--op", "script", "--script", path.to_str().unwrap()];
            if batch == "batched" {
                argv.extend_from_slice(&["--batch", "2"]);
            }
            let out = run_client(&client_args(&endpoint, &argv)).unwrap();
            std::fs::remove_file(&path).ok();
            run_client(&client_args(&endpoint, &["--op", "shutdown"])).unwrap();
            daemon.join().unwrap().unwrap();
            assert!(out.contains("6 mutations applied"), "{batch}: {out}");
            transcripts.push(out);
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "batched and sequential replay must print identical transcripts"
        );
    }

    #[test]
    fn script_stops_at_the_failing_line_with_its_number() {
        // Server-side rejection (delete out of range) mid-script: the
        // error names the line, and the insert after it was never applied.
        let (endpoint, daemon) = spawn_daemon("client-script-fail");
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "knnshap-cli-{}-fail-script.txt",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "# leading comment\ninsert 1,2,3,4 1\ndelete 9999\ninsert 9,9,9,9 0\n",
        )
        .unwrap();
        let err = run_client(&client_args(
            &endpoint,
            &["--op", "script", "--script", path.to_str().unwrap()],
        ))
        .unwrap_err();
        std::fs::remove_file(&path).ok();
        let msg = err.to_string();
        assert!(msg.contains("script line 3"), "{msg}");
        assert!(msg.contains("out of range"), "{msg}");
        assert!(msg.contains("no later line was applied"), "{msg}");
        // Line 2 applied (version 1, n_train 26); line 4 did not.
        let out = run_client(&client_args(&endpoint, &["--op", "stat"])).unwrap();
        assert!(out.contains("version 1 | n_train 26"), "{out}");
        run_client(&client_args(&endpoint, &["--op", "shutdown"])).unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn script_rejects_batch_group_size_zero() {
        let (endpoint, daemon) = spawn_daemon("client-batch-zero");
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "knnshap-cli-{}-zero-script.txt",
            std::process::id()
        ));
        std::fs::write(&path, "delete 0\n").unwrap();
        let err = run_client(&client_args(
            &endpoint,
            &[
                "--op",
                "script",
                "--script",
                path.to_str().unwrap(),
                "--batch",
                "0",
            ],
        ))
        .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("group size"), "{err}");
        run_client(&client_args(&endpoint, &["--op", "shutdown"])).unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn a_failed_train_csv_export_leaves_no_partial_file() {
        use knnshap_serve::protocol::{read_frame, write_frame, Response};
        let dir = std::env::temp_dir().join(format!("knnshap-cli-{}-export", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("train.csv");
        for earlier in [None, Some(&b"earlier export\n"[..])] {
            if let Some(bytes) = earlier {
                std::fs::write(&out, bytes).unwrap();
            }
            // A peer that answers the export with one part, then hangs up.
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
            let peer = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                read_frame(&mut s).unwrap().expect("export request");
                let part = Response::TrainCsvPart {
                    csv: b"1,2,0\n".to_vec(),
                };
                write_frame(&mut s, &part.encode()).unwrap();
            });
            let err = run_client(&client_args(
                &endpoint,
                &["--op", "train-csv", "--out", out.to_str().unwrap()],
            ))
            .unwrap_err();
            peer.join().unwrap();
            assert!(err.to_string().contains("truncated"), "{err}");
            // No partial file and no temporary sibling; an earlier file
            // at `--out` is untouched.
            let names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            match earlier {
                None => assert!(names.is_empty(), "{names:?}"),
                Some(bytes) => {
                    assert_eq!(names, ["train.csv"]);
                    assert_eq!(std::fs::read(&out).unwrap(), bytes);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn endpoint_and_point_parsing_reject_garbage() {
        let args = Args::parse(["client"]).unwrap();
        assert!(matches!(parse_endpoint(&args), Err(CliError::Invalid(_))));
        let args = Args::parse(["client", "--addr", "h:1", "--socket", "/s"]).unwrap();
        assert!(matches!(parse_endpoint(&args), Err(CliError::Invalid(_))));
        assert!(parse_point("1.5, 2,-3").is_ok());
        assert!(parse_point("1.5,two").is_err());
    }

    #[test]
    fn client_ops_validate_their_required_options() {
        let (endpoint, daemon) = spawn_daemon("client-validate");
        for argv in [
            vec!["--op", "get"],
            vec!["--op", "delete"],
            vec!["--op", "dump"],
            vec!["--op", "train-csv"],
            vec!["--op", "script"],
            vec!["--op", "frobnicate"],
        ] {
            let err = run_client(&client_args(&endpoint, &argv)).unwrap_err();
            assert!(matches!(err, CliError::Invalid(_)), "{argv:?}: {err}");
        }
        run_client(&client_args(&endpoint, &["--op", "shutdown"])).unwrap();
        daemon.join().unwrap().unwrap();
    }
}
