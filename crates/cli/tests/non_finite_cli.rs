//! A non-finite feature cell in an input CSV (`NaN`, `inf`, or a literal
//! that overflows `f32`) must stop every command that loads CSVs with a
//! one-line format error naming the 1-based line — never a panic from the
//! distance ranking further down. So must a label of `u32::MAX`, whose
//! class count `max(label) + 1` does not fit a `u32`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let p =
            std::env::temp_dir().join(format!("knnshap-nonfinite-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        Scratch(p)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn knnshap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_knnshap"))
        .args(args)
        .output()
        .expect("spawn knnshap")
}

/// Write a clean train/test pair, then return the train CSV with the first
/// feature of line 3 replaced by `cell`.
fn inputs(ws: &Scratch, cell: &str) -> (String, String, String) {
    let (train, test) = (ws.path("train.csv"), ws.path("test.csv"));
    let out = knnshap(&[
        "synth",
        "--kind",
        "blobs",
        "--n",
        "40",
        "--dim",
        "3",
        "--classes",
        "2",
        "--seed",
        "3",
        "--out",
        &train,
        "--queries",
        "6",
        "--queries-out",
        &test,
    ]);
    assert!(out.status.success(), "synth failed");
    let text = std::fs::read_to_string(&train).unwrap();
    let bad: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, line)| match (i, line.split_once(',')) {
            (2, Some((_, rest))) => format!("{cell},{rest}"),
            _ => line.to_string(),
        })
        .collect();
    let bad_path = ws.path("bad.csv");
    std::fs::write(&bad_path, bad.join("\n") + "\n").unwrap();
    (train, test, bad_path)
}

fn assert_typed_failure(out: &Output, cell: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what} accepted a '{cell}' cell");
    assert!(
        stderr.contains("line 3") && stderr.contains(cell),
        "{what}: error does not name line 3 and '{cell}':\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
}

#[test]
fn shard_rejects_non_finite_cells() {
    let ws = Scratch::new("shard");
    for cell in ["NaN", "inf", "-1e39"] {
        let (_, test, bad) = inputs(&ws, cell);
        let out = knnshap(&[
            "shard",
            "--train",
            &bad,
            "--test",
            &test,
            "--k",
            "3",
            "--shard-index",
            "0",
            "--shard-count",
            "2",
            "--out",
            &ws.path("s.shard"),
        ]);
        assert_typed_failure(&out, cell, "shard");
    }
}

#[test]
fn build_graph_rejects_non_finite_cells() {
    let ws = Scratch::new("graph");
    for cell in ["NaN", "-inf"] {
        let (_, test, bad) = inputs(&ws, cell);
        let out = knnshap(&[
            "build-graph",
            "--train",
            &bad,
            "--test",
            &test,
            "--out",
            &ws.path("g.knngraph"),
        ]);
        assert_typed_failure(&out, cell, "build-graph");
    }
}

/// The plan is made from clean files; the training CSV then goes bad under
/// the job, so the workers `run-job` spawns are the ones that load it.
#[test]
fn run_job_rejects_non_finite_cells() {
    let ws = Scratch::new("job");
    let (train, test, bad) = inputs(&ws, "NaN");
    let job = ws.path("job");
    let plan = knnshap(&[
        "shard-plan",
        "--train",
        &train,
        "--test",
        &test,
        "--k",
        "3",
        "--shards",
        "2",
        "--job",
        &job,
    ]);
    assert!(plan.status.success(), "shard-plan failed on clean inputs");
    std::fs::copy(Path::new(&bad), Path::new(&train)).unwrap();
    let out = knnshap(&[
        "run-job",
        "--job",
        &job,
        "--workers",
        "2",
        "--out",
        &ws.path("merged.csv"),
    ]);
    assert_typed_failure(&out, "NaN", "run-job");
}

#[test]
fn value_rejects_the_largest_label() {
    let ws = Scratch::new("label");
    let (train, test) = (ws.path("train.csv"), ws.path("test.csv"));
    std::fs::write(&train, "1.0,2.0,4294967295\n3.0,4.0,1\n").unwrap();
    std::fs::write(&test, "1.0,2.0,0\n").unwrap();
    let out = knnshap(&["value", "--train", &train, "--test", &test, "--k", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "value accepted label u32::MAX");
    assert!(
        stderr.contains("line 1") && stderr.contains("4294967295"),
        "error does not name line 1 and the label:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "value panicked:\n{stderr}");
}
