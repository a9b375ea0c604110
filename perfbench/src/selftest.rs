//! The benchmark's self-test at tiny sizes: every workload in both modes
//! prints exactly the metrics `BENCHMARK.json` declares, with their units,
//! in a result line that parses; traced counters repeat exactly across two
//! runs; and a deliberately corrupted output makes the run fail.

use crate::report::{END_TO_END, PER_LAYER};
use crate::WORKLOADS;
use knnshap_obs::json::{parse, Value};
use std::path::Path;
use std::process::Command;

/// Counters that must read the same on two traced runs of one seed.
const COUNTERS: &[&str] = &[
    "core.mc.perms",
    "parallel.pool.blocks",
    "runtime.chunks",
    "serve.requests",
];

/// Run this binary on one tiny workload; returns (exit ok, stdout lines).
fn invoke(bin: &Path, workload: &str, trace: bool, corrupt: bool) -> (bool, Vec<String>) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.arg("--bin").arg(bin).args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
        "--scale",
        "tiny",
    ]);
    if corrupt {
        cmd.arg("--corrupt");
    }
    match cmd.output() {
        Ok(out) => (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .map(String::from)
                .collect(),
        ),
        Err(_) => (false, Vec::new()),
    }
}

/// The `(name, unit)` list of one metric class in `BENCHMARK.json`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    match doc.get(key) {
        Some(Value::Arr(items)) => items
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The detail line of a run's stdout: the one before the result.
fn detail(lines: &[String]) -> Option<Value> {
    parse(lines.get(lines.len().checked_sub(2)?)?).ok()
}

/// Check one result line against the declared metrics; returns the parsed
/// metrics object for counter comparison.
fn check_result(
    line: &str,
    want: &[(String, String)],
    expect_ok: bool,
    problems: &mut Vec<String>,
    tag: &str,
) -> Option<Value> {
    let v = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            problems.push(format!("{tag}: result line does not parse: {e}"));
            return None;
        }
    };
    let keys: Vec<&str> = v
        .as_object()
        .map(|kv| kv.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("{tag}: result keys are {keys:?}"));
    }
    let failed = v.get("failed").and_then(Value::as_f64).unwrap_or(-1.0);
    let correct = matches!(v.get("correct"), Some(Value::Bool(true)));
    if expect_ok && (failed != 0.0 || !correct) {
        problems.push(format!("{tag}: failed = {failed}, correct = {correct}"));
    }
    if !expect_ok && (failed < 1.0 || correct) {
        problems.push(format!(
            "{tag}: corrupted output was not caught (failed = {failed})"
        ));
    }
    let metrics = v.get("metrics")?.clone();
    let names: Vec<&str> = metrics
        .as_object()
        .map(|kv| kv.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    if names != want_names {
        problems.push(format!("{tag}: metrics {names:?}, declared {want_names:?}"));
    }
    for (name, unit) in want {
        let m = metrics.get(name);
        let value = m.and_then(|m| m.get("value")).and_then(Value::as_f64);
        let got_unit = m.and_then(|m| m.get("unit")).and_then(Value::as_str);
        if value.is_none() || got_unit != Some(unit.as_str()) {
            problems.push(format!(
                "{tag}: metric {name} lacks a number or unit {unit}"
            ));
        }
    }
    Some(metrics)
}

pub fn run(bin: &Path) -> i32 {
    let mut problems = Vec::new();
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|s| parse(&s));
    let doc = match doc {
        Ok(d) => d,
        Err(e) => {
            eprintln!("selftest: cannot read BENCHMARK.json: {e}");
            return 1;
        }
    };
    let (e2e, layers) = (declared(&doc, "end_to_end"), declared(&doc, "per_layer"));
    let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if e2e != ours(END_TO_END) || layers != ours(PER_LAYER) {
        problems.push("BENCHMARK.json metrics differ from the benchmark's own lists".into());
    }
    for w in WORKLOADS {
        let (ok, lines) = invoke(bin, w, false, false);
        if !ok {
            problems.push(format!("{w}: untraced run exited non-zero"));
        }
        if detail(&lines)
            .and_then(|d| d.get("host").cloned())
            .is_none()
        {
            problems.push(format!("{w}: no detail line with a host block"));
        }
        if let Some(last) = lines.last() {
            check_result(last, &e2e, true, &mut problems, &format!("{w} untraced"));
        }

        let mut counters = Vec::new();
        for rep in 0..2 {
            let (ok, lines) = invoke(bin, w, true, false);
            if !ok {
                problems.push(format!("{w}: traced run {rep} exited non-zero"));
            }
            let tag = format!("{w} traced #{rep}");
            let m = lines
                .last()
                .and_then(|l| check_result(l, &layers, true, &mut problems, &tag));
            if *w == "exact_csv" {
                // The rebuild copies the library's fold partition; a drift
                // would leave numerics.exact.merge_s timing another shape.
                let rebuilt = detail(&lines).and_then(|d| {
                    d.get("detail")?
                        .get("rebuild_fold_blocks")?
                        .get("value")?
                        .as_f64()
                });
                let pool = m
                    .as_ref()
                    .and_then(|m| m.get("parallel.pool.blocks")?.get("value")?.as_f64());
                if rebuilt.is_none() || rebuilt != pool {
                    problems.push(format!(
                        "{tag}: rebuild fold blocks {rebuilt:?}, library pool blocks {pool:?}"
                    ));
                }
            }
            counters.push(
                COUNTERS
                    .iter()
                    .map(|c| m.as_ref().and_then(|m| m.get(c)?.get("value")?.as_f64()))
                    .collect::<Vec<_>>(),
            );
        }
        if counters[0] != counters[1] {
            problems.push(format!("{w}: traced counters differ: {counters:?}"));
        }

        let (ok, lines) = invoke(bin, w, false, true);
        if ok {
            problems.push(format!("{w}: corrupted run exited 0"));
        }
        match lines.last() {
            Some(last) => {
                check_result(last, &e2e, false, &mut problems, &format!("{w} corrupted"));
            }
            None => problems.push(format!("{w}: corrupted run printed no result")),
        }
        let frac = detail(&lines)
            .and_then(|d| d.get("detail")?.get("failed_frac")?.get("value")?.as_f64());
        if !frac.is_some_and(|f| f > 0.0) {
            problems.push(format!("{w}: corrupted run reports failed_frac {frac:?}"));
        }
        eprintln!("selftest: {w} done");
    }
    for p in &problems {
        eprintln!("selftest: {p}");
    }
    if problems.is_empty() {
        println!("selftest: ok");
        0
    } else {
        println!("selftest: {} problem(s)", problems.len());
        1
    }
}
