//! `knnshap audit` — surface the lowest-valued (most suspicious) points.
//!
//! The paper's §7 observation that mislabeled/poisoned points receive low
//! values, operationalized: rank ascending, show the inspection list, and —
//! when ground truth is available via `--flagged` — score the ranking with
//! recall/precision/AUC.

use crate::args::Args;
use crate::commands::load_pair;
use crate::report::{fmt_f64, Table};
use crate::CliError;
use knnshap_core::analysis::{per_class_summary, DetectionCurve};
use std::path::Path;

const ALLOWED: &[&str] = &[
    "train",
    "test",
    "k",
    "method",
    "eps",
    "delta",
    "max-tables",
    "weight",
    "weight-param",
    "threads",
    "perms",
    "inspect",
    "flagged",
    "seed",
    "graph",
];

pub fn run(args: &Args) -> Result<String, CliError> {
    args.expect_only(ALLOWED)?;
    let (train, test) = load_pair(args)?;
    let k = args.usize_or("k", 1)?;
    let inspect = args.usize_or("inspect", 20)?.min(train.len());

    let threads = args.usize_or("threads", knnshap_parallel::current_threads())?;
    let (valuation, secs) = super::valuate(args, &train, &test, k, threads)?;
    let sv = valuation.values;

    let mut out = String::new();
    out.push_str(&format!(
        "Audited {} training points against {} test points (K = {k}).\n",
        train.len(),
        test.len()
    ));
    if let Some(perms) = valuation.permutations {
        out.push_str(&crate::commands::mc_throughput_line(perms, secs, threads));
    }
    out.push('\n');

    // Inspection list: ascending value.
    let mut order = sv.ranking();
    order.reverse();
    let mut table = Table::new(["inspect#", "index", "label", "value"]);
    for (pos, &i) in order.iter().take(inspect).enumerate() {
        table.row([
            format!("{}", pos + 1),
            format!("{i}"),
            format!("{}", train.y[i]),
            fmt_f64(sv.get(i)),
        ]);
    }
    out.push_str(&format!(
        "{inspect} most suspicious (lowest-value) points:\n"
    ));
    out.push_str(&table.render());

    // Per-class aggregation (the Fig 14(b) analysis).
    let mut cls = Table::new(["class", "count", "total value", "mean value"]);
    for s in per_class_summary(&sv, &train.y, train.n_classes) {
        cls.row([
            format!("{}", s.class),
            format!("{}", s.count),
            fmt_f64(s.total),
            fmt_f64(s.mean),
        ]);
    }
    out.push_str("\nvalue by class:\n");
    out.push_str(&cls.render());

    // Optional scoring against ground truth.
    if let Some(flagged_path) = args.str("flagged") {
        let is_bad = load_flagged(Path::new(flagged_path), train.len())?;
        let curve = DetectionCurve::new(&sv, &is_bad);
        out.push_str(&format!(
            "\ndetection against {} flagged points:\n\
             recall@{inspect}: {}\n\
             precision@{inspect}: {}\n\
             AUC: {} (1.0 = perfect, 0.5 = random)\n",
            curve.n_bad(),
            fmt_f64(curve.recall_at(inspect)),
            fmt_f64(curve.precision_at(inspect)),
            fmt_f64(curve.auc()),
        ));
    }
    Ok(out)
}

/// Reads one training-point index per line (blank lines and `#` comments
/// skipped) into a boolean mask.
fn load_flagged(path: &Path, n: usize) -> Result<Vec<bool>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(knnshap_datasets::io::IoError::Io(e)))?;
    let mut mask = vec![false; n];
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let idx: usize = line.parse().map_err(|_| {
            CliError::Invalid(format!(
                "{}:{}: '{line}' is not a training-point index",
                path.display(),
                lineno + 1
            ))
        })?;
        if idx >= n {
            return Err(CliError::Invalid(format!(
                "{}:{}: index {idx} out of range (N = {n})",
                path.display(),
                lineno + 1
            )));
        }
        mask[idx] = true;
    }
    if !mask.iter().any(|&b| b) {
        return Err(CliError::Invalid(format!(
            "{}: no indices found",
            path.display()
        )));
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use crate::commands::testutil::csv_pair;

    fn argv(t: &std::path::Path, q: &std::path::Path, extra: &[&str]) -> Vec<String> {
        let mut v = vec![
            "audit".to_string(),
            "--train".into(),
            t.to_str().unwrap().into(),
            "--test".into(),
            q.to_str().unwrap().into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    }

    #[test]
    fn audit_lists_suspicious_points_and_class_totals() {
        let (t, q) = csv_pair("audit-basic", 50, 6);
        let out = crate::run(argv(&t, &q, &["--k", "2", "--inspect", "5"])).unwrap();
        assert!(out.contains("5 most suspicious"));
        assert!(out.contains("value by class:"));
        assert!(out.contains("inspect#"));
    }

    #[test]
    fn flagged_file_produces_detection_metrics() {
        let (t, q) = csv_pair("audit-flag", 40, 5);
        let flagged =
            std::env::temp_dir().join(format!("knnshap-cli-{}-flagged.txt", std::process::id()));
        std::fs::write(&flagged, "# known-bad\n3\n17\n\n25\n").unwrap();
        let out = crate::run(argv(
            &t,
            &q,
            &["--flagged", flagged.to_str().unwrap(), "--inspect", "10"],
        ))
        .unwrap();
        assert!(out.contains("detection against 3 flagged points"));
        assert!(out.contains("AUC:"));
        std::fs::remove_file(&flagged).ok();
    }

    #[test]
    fn flagged_index_out_of_range_is_rejected() {
        let (t, q) = csv_pair("audit-range", 10, 3);
        let flagged = std::env::temp_dir().join(format!(
            "knnshap-cli-{}-flagged-bad.txt",
            std::process::id()
        ));
        std::fs::write(&flagged, "99\n").unwrap();
        let err = crate::run(argv(&t, &q, &["--flagged", flagged.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("out of range"));
        std::fs::remove_file(&flagged).ok();
    }

    #[test]
    fn empty_flagged_file_is_rejected() {
        let (t, q) = csv_pair("audit-empty", 10, 3);
        let flagged = std::env::temp_dir().join(format!(
            "knnshap-cli-{}-flagged-empty.txt",
            std::process::id()
        ));
        std::fs::write(&flagged, "# nothing here\n").unwrap();
        let err = crate::run(argv(&t, &q, &["--flagged", flagged.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("no indices"));
        std::fs::remove_file(&flagged).ok();
    }

    #[test]
    fn mc_audit_reports_permutation_throughput() {
        let (t, q) = csv_pair("audit-mc-tput", 30, 4);
        let out = crate::run(argv(
            &t,
            &q,
            &["--method", "mc-improved", "--eps", "0.3", "--threads", "2"],
        ))
        .unwrap();
        assert!(out.contains("permutations/s"), "{out}");
        assert!(out.contains("threads = 2"));
    }

    #[test]
    fn inspect_clamps_to_dataset_size() {
        let (t, q) = csv_pair("audit-clamp", 8, 2);
        let out = crate::run(argv(&t, &q, &["--inspect", "1000"])).unwrap();
        assert!(out.contains("8 most suspicious"));
    }
}
