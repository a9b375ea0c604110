//! A `--weight-param` the weight cannot use — non-finite as an `f32`, an
//! inverse-distance `eps ≤ 0`, an exponential `beta < 0` — must stop every
//! command that takes a weight with a one-line typed error, and so must
//! such a parameter hand-edited into a job plan: never NaN values followed
//! by a panic (exit 101). The same holds for an `--eps` that is not finite
//! and positive, on every command that reads it.

use std::path::PathBuf;
use std::process::{Command, Output};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let p =
            std::env::temp_dir().join(format!("knnshap-weight-param-{}-{tag}", std::process::id()));
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

/// A non-zero exit that is not a panic's 101, no panic message, and an
/// error that names `name`.
fn assert_typed_failure(out: &Output, what: &str, name: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what} succeeded");
    assert_ne!(out.status.code(), Some(101), "{what}: exit code\n{stderr}");
    assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
    assert!(
        stderr.contains(name),
        "{what}: error does not name the {name}:\n{stderr}"
    );
}

fn synth(ws: &Scratch) -> (String, String) {
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
    (train, test)
}

#[test]
fn unusable_weight_parameters_are_typed_errors_on_every_command() {
    let ws = Scratch::new("commands");
    let (train, test) = synth(&ws);
    let (values, shard, job) = (ws.path("values.csv"), ws.path("s.shard"), ws.path("job"));
    let commands: Vec<Vec<&str>> = vec![
        vec!["value", "--out", &values],
        vec!["audit"],
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
    ];
    for (weight, param) in [
        ("inverse", "nan"),
        ("exponential", "nan"),
        ("exponential", "-inf"),
        ("exponential", "-1e30"),
        ("inverse", "0"),
        ("inverse", "1e39"),
    ] {
        for cmd in &commands {
            let mut args = cmd.clone();
            args.extend([
                "--train",
                &train,
                "--test",
                &test,
                "--k",
                "3",
                "--weight",
                weight,
                "--weight-param",
                param,
            ]);
            let what = format!("{} --weight {weight} --weight-param {param}", cmd[0]);
            assert_typed_failure(&knnshap(&args), &what, "weight");
        }
        assert!(
            !std::path::Path::new(&values).exists(),
            "a values CSV was written"
        );
        assert!(!std::path::Path::new(&job).exists(), "a job was planned");
    }
}

#[test]
fn a_hand_edited_weight_parameter_in_a_plan_is_a_typed_error() {
    let ws = Scratch::new("plan");
    let (train, test) = synth(&ws);
    let job = ws.path("job");
    let out = knnshap(&[
        "shard-plan",
        "--train",
        &train,
        "--test",
        &test,
        "--k",
        "3",
        "--weight",
        "inverse",
        "--weight-param",
        "0.01",
        "--shards",
        "2",
        "--job",
        &job,
    ]);
    assert!(out.status.success(), "shard-plan failed");
    let plan_path = ws.0.join("job").join("plan");
    let text = std::fs::read_to_string(&plan_path).unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("weight-param "))
        .expect("a weight-param line")
        .to_string();
    for bad in ["NaN", "-inf", "0"] {
        std::fs::write(
            &plan_path,
            text.replace(&line, &format!("weight-param {bad}")),
        )
        .unwrap();
        for cmd in [
            vec!["run-job", "--job", &job, "--workers", "1"],
            vec!["worker", "--job", &job],
        ] {
            let what = format!("{} on weight-param {bad}", cmd[0]);
            assert_typed_failure(&knnshap(&cmd), &what, "weight");
        }
    }
}

#[test]
fn unusable_eps_values_are_typed_errors_on_every_command() {
    let ws = Scratch::new("eps");
    let (train, test) = synth(&ws);
    let (values, job) = (ws.path("values.csv"), ws.path("job"));
    let mut commands: Vec<Vec<&str>> = ["nan", "-1", "0"]
        .into_iter()
        .map(|eps| {
            vec![
                "value",
                "--method",
                "truncated",
                "--eps",
                eps,
                "--out",
                &values,
            ]
        })
        .collect();
    commands.extend([
        vec!["value", "--method", "mc-improved", "--eps", "nan"],
        vec!["value", "--method", "lsh", "--eps", "nan"],
        vec!["contrast", "--eps", "nan"],
        vec![
            "shard-plan",
            "--method",
            "truncated",
            "--eps",
            "nan",
            "--shards",
            "2",
            "--job",
            &job,
        ],
    ]);
    for cmd in &commands {
        let mut args = cmd.clone();
        args.extend(["--train", &train, "--test", &test, "--k", "3"]);
        assert_typed_failure(&knnshap(&args), &cmd.join(" "), "eps");
    }
    assert!(
        !std::path::Path::new(&values).exists(),
        "a values CSV was written"
    );
    assert!(!std::path::Path::new(&job).exists(), "a job was planned");
}

/// `--delta` must lie in (0, 1): `value --method lsh` and `contrast` exit 1
/// with an error naming it, never with a panic.
#[test]
fn unusable_delta_values_are_typed_errors_on_every_command() {
    let ws = Scratch::new("delta");
    let (train, test) = synth(&ws);
    let values = ws.path("values.csv");
    let mut commands: Vec<Vec<&str>> = ["nan", "0", "2"]
        .into_iter()
        .map(|delta| {
            vec![
                "value", "--method", "lsh", "--delta", delta, "--out", &values,
            ]
        })
        .collect();
    commands.extend(["nan", "0"].map(|delta| vec!["contrast", "--delta", delta]));
    for cmd in &commands {
        let mut args = cmd.clone();
        args.extend(["--train", &train, "--test", &test, "--k", "3"]);
        let out = knnshap(&args);
        let what = cmd.join(" ");
        assert_eq!(out.status.code(), Some(1), "{what}: exit code");
        assert_typed_failure(&out, &what, "delta");
    }
    assert!(
        !std::path::Path::new(&values).exists(),
        "a values CSV was written"
    );
}

#[test]
fn a_hand_edited_eps_in_a_plan_is_a_typed_error() {
    let ws = Scratch::new("plan-eps");
    let (train, test) = synth(&ws);
    let job = ws.path("job");
    let out = knnshap(&[
        "shard-plan",
        "--train",
        &train,
        "--test",
        &test,
        "--k",
        "3",
        "--method",
        "truncated",
        "--eps",
        "0.2",
        "--shards",
        "2",
        "--job",
        &job,
    ]);
    assert!(out.status.success(), "shard-plan failed");
    let plan_path = ws.0.join("job").join("plan");
    let text = std::fs::read_to_string(&plan_path).unwrap();
    for bad in ["NaN", "-1", "0"] {
        std::fs::write(&plan_path, text.replace("eps 0.2", &format!("eps {bad}"))).unwrap();
        for cmd in [
            vec!["run-job", "--job", &job, "--workers", "1"],
            vec!["worker", "--job", &job],
        ] {
            let what = format!("{} on eps {bad}", cmd[0]);
            assert_typed_failure(&knnshap(&cmd), &what, "eps");
        }
    }
}
