//! `knnshap build-graph` — precompute the KNN graph artifact.
//!
//! Runs the blocked distance kernel over the train × test pair once and
//! writes a versioned `KNNGRAPH` file: per-test-point neighbor lists in
//! argsort-identical tie-broken order, stamped with dataset-content
//! fingerprints. Every consumer (`value --graph`, `shard --graph`,
//! `worker --graph`, `serve --graph`) skips its distance pass and produces
//! byte-identical output to the brute-force run, because the graph stores
//! the exact bits the brute-force path would have computed.
//!
//! The graph is **label-free** (features only), so one artifact serves both
//! classification and regression valuation over the same feature matrix —
//! `--task` only selects which CSV format to parse.
//!
//! ```text
//! knnshap build-graph --train t.csv --test q.csv --out g.knngraph
//! knnshap value --train t.csv --test q.csv --k 3 --graph g.knngraph
//! ```

use crate::args::Args;
use crate::CliError;
use knnshap_datasets::io::{load_class_csv_with_threads, load_reg_csv_with_threads};
use knnshap_knn::graph::KnnGraph;
use std::path::Path;

const ALLOWED: &[&str] = &["train", "test", "out", "task", "threads"];

pub fn run(args: &Args) -> Result<String, CliError> {
    args.expect_only(ALLOWED)?;
    let train_path = args.require("train")?;
    let test_path = args.require("test")?;
    let out = args.require("out")?.to_string();
    let threads = args.usize_or("threads", knnshap_parallel::current_threads())?;

    // The artifact only involves features; --task picks the CSV parser.
    let (train_path, test_path) = (Path::new(train_path), Path::new(test_path));
    let (train_x, test_x) = match args.str("task").unwrap_or("class") {
        "class" => (
            load_class_csv_with_threads(train_path, threads)?.x,
            load_class_csv_with_threads(test_path, threads)?.x,
        ),
        "reg" => (
            load_reg_csv_with_threads(train_path, threads)?.x,
            load_reg_csv_with_threads(test_path, threads)?.x,
        ),
        other => {
            return Err(CliError::Invalid(format!(
                "unknown task '{other}' (class, reg)"
            )))
        }
    };
    if train_x.dim() != test_x.dim() {
        return Err(CliError::Invalid(format!(
            "train has {} features but test has {}",
            train_x.dim(),
            test_x.dim()
        )));
    }
    if train_x.is_empty() || test_x.is_empty() {
        return Err(CliError::Invalid(
            "need at least one training and one test point".into(),
        ));
    }

    let started = std::time::Instant::now();
    let graph = KnnGraph::build(&train_x, &test_x, threads);
    let secs = started.elapsed().as_secs_f64();
    graph
        .save(Path::new(&out))
        .map_err(|e| CliError::Invalid(format!("{out}: {e}")))?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or_default();

    Ok(format!(
        "built KNN graph: {} train x {} test points, dim {} in {secs:.3} s \
         (threads = {threads})\n\
         train fingerprint {:016x} | test fingerprint {:016x}\n\
         wrote {bytes} bytes to {out}\n",
        graph.n_train(),
        graph.n_test(),
        graph.dim(),
        graph.train_hash(),
        graph.test_hash(),
    ))
}

#[cfg(test)]
mod tests {
    use crate::commands::testutil::csv_pair;

    fn build_argv(t: &std::path::Path, q: &std::path::Path, out: &std::path::Path) -> Vec<String> {
        vec![
            "build-graph".to_string(),
            "--train".into(),
            t.to_str().unwrap().into(),
            "--test".into(),
            q.to_str().unwrap().into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ]
    }

    #[test]
    fn build_graph_then_value_graph_matches_plain_value_bytes() {
        let (t, q) = csv_pair("buildgraph", 40, 6);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let gpath = dir.join(format!("knnshap-cli-{pid}-bg.knngraph"));
        let report = crate::run(build_argv(&t, &q, &gpath)).unwrap();
        assert!(
            report.contains("built KNN graph: 40 train x 6 test"),
            "{report}"
        );
        assert!(report.contains("fingerprint"), "{report}");

        let direct_csv = dir.join(format!("knnshap-cli-{pid}-bg-direct.csv"));
        let graph_csv = dir.join(format!("knnshap-cli-{pid}-bg-graph.csv"));
        let base = |out: &std::path::Path| {
            vec![
                "value".to_string(),
                "--train".into(),
                t.to_str().unwrap().into(),
                "--test".into(),
                q.to_str().unwrap().into(),
                "--k".into(),
                "3".into(),
                "--out".into(),
                out.to_str().unwrap().into(),
            ]
        };
        crate::run(base(&direct_csv)).unwrap();
        let mut with_graph = base(&graph_csv);
        with_graph.extend(["--graph".to_string(), gpath.to_str().unwrap().into()]);
        crate::run(with_graph).unwrap();
        // Full-precision CSVs: byte equality is bitwise equality of values.
        assert_eq!(
            std::fs::read(&direct_csv).unwrap(),
            std::fs::read(&graph_csv).unwrap(),
            "value --graph must reproduce value byte for byte"
        );
        for p in [&gpath, &direct_csv, &graph_csv] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn value_rejects_a_graph_built_from_other_data() {
        let (t, q) = csv_pair("graphdrift", 30, 5);
        let (t2, _) = csv_pair("graphdrift2", 31, 5);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let gpath = dir.join(format!("knnshap-cli-{pid}-drift.knngraph"));
        crate::run(build_argv(&t2, &q, &gpath)).unwrap();
        let err = crate::run([
            "value",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--graph",
            gpath.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(
            err.to_string().contains("graph"),
            "drifted graph must be refused: {err}"
        );
        std::fs::remove_file(&gpath).ok();
    }

    #[test]
    fn sharded_value_with_graph_matches_plain_value() {
        let (t, q) = csv_pair("graphshards", 30, 7);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let gpath = dir.join(format!("knnshap-cli-{pid}-gs.knngraph"));
        crate::run(build_argv(&t, &q, &gpath)).unwrap();
        let plain = crate::run([
            "value",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--k",
            "2",
        ])
        .unwrap();
        let sharded = crate::run([
            "value",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--k",
            "2",
            "--shards",
            "3",
            "--graph",
            gpath.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(plain, sharded);
        std::fs::remove_file(&gpath).ok();
    }

    #[test]
    fn build_graph_validates_inputs() {
        let (t, q) = csv_pair("graphargs", 10, 2);
        let out = std::env::temp_dir().join(format!(
            "knnshap-cli-{}-graphargs.knngraph",
            std::process::id()
        ));
        // missing --out
        let err = crate::run([
            "build-graph",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("out"), "{err}");
        // bad --task
        let mut argv = build_argv(&t, &q, &out);
        argv.extend(["--task".to_string(), "frob".into()]);
        let err = crate::run(argv).unwrap_err();
        assert!(err.to_string().contains("unknown task"), "{err}");
        std::fs::remove_file(&out).ok();
    }
}
