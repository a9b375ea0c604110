//! `--k 0` must stop every command that takes a `K` with a one-line typed
//! error and a non-zero exit — never a panic (exit 101) from an assertion
//! deeper down. So must a one-row training set, for the commands that
//! sample distances between training points.

use std::path::PathBuf;
use std::process::{Command, Output};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("knnshap-zero-k-{}-{tag}", std::process::id()));
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

#[test]
fn k_zero_is_a_typed_error_on_every_command() {
    let ws = Scratch::new("k0");
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
    let data = ["--train", &train, "--test", &test, "--k", "0"];
    let (values, shard, job, socket) = (
        ws.path("values.csv"),
        ws.path("s.shard"),
        ws.path("job"),
        ws.path("s.sock"),
    );
    let commands: Vec<Vec<&str>> = vec![
        vec!["value", "--method", "exact", "--out", &values],
        vec!["value", "--method", "truncated", "--out", &values],
        vec![
            "value",
            "--method",
            "mc-improved",
            "--perms",
            "8",
            "--out",
            &values,
        ],
        vec!["value", "--method", "lsh", "--out", &values],
        vec!["audit"],
        vec!["contrast"],
        vec![
            "shard",
            "--shard-index",
            "0",
            "--shard-count",
            "2",
            "--out",
            &shard,
        ],
        vec!["shard-plan", "--shards", "2", "--job", &job],
        vec!["serve", "--socket", &socket],
    ];
    for cmd in commands {
        let args: Vec<&str> = cmd.iter().copied().chain(data).collect();
        let out = knnshap(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = cmd.join(" ");
        assert!(!out.status.success(), "{what} accepted --k 0");
        assert_eq!(out.status.code(), Some(1), "{what}: exit code\n{stderr}");
        assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
        assert!(
            stderr.to_lowercase().contains("k must be at least 1"),
            "{what}: error does not name K:\n{stderr}"
        );
    }
}

#[test]
fn a_one_row_training_set_is_a_typed_error_where_pairs_are_sampled() {
    let ws = Scratch::new("one-row");
    let (train, test, values) = (ws.path("one.csv"), ws.path("q.csv"), ws.path("v.csv"));
    std::fs::write(&train, "0.5,1.25,-2,1\n").unwrap();
    std::fs::write(&test, "0.25,1,-1.5,1\n3,0,0.5,0\n").unwrap();
    let data = ["--train", &train, "--test", &test, "--k", "1"];
    let commands: [&[&str]; 2] = [
        &["value", "--method", "lsh", "--out", &values],
        &["contrast"],
    ];
    for cmd in commands {
        let args: Vec<&str> = cmd.iter().copied().chain(data).collect();
        let out = knnshap(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = cmd.join(" ");
        assert_eq!(out.status.code(), Some(1), "{what}: exit code\n{stderr}");
        assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
        assert!(
            stderr.contains("needs at least 2 training points"),
            "{what}: error does not name the training set:\n{stderr}"
        );
    }
}
