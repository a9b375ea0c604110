//! `knnshap value` — compute per-point values, optionally price them.

use crate::args::Args;
use crate::commands::{load_pair, parse_method, parse_weight};
use crate::report::{fmt_f64, Table};
use crate::CliError;
use knnshap_core::analysis::monetary_payout;
use knnshap_core::pipeline::KnnShapley;
use knnshap_core::ShapleyValues;
use knnshap_numerics::stats::Summary;
use std::io::Write;
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
    "shards",
    "perms",
    "top",
    "out",
    "revenue",
    "base-fee",
    "seed",
    "graph",
];

pub fn run(args: &Args) -> Result<String, CliError> {
    args.expect_only(ALLOWED)?;
    let (train, test) = load_pair(args)?;
    let k = args.usize_or("k", 1)?;
    let method = parse_method(args)?;
    let weight = parse_weight(args)?;
    let threads = args.usize_or("threads", knnshap_parallel::current_threads())?;
    let top = args.usize_or("top", 10)?;
    let shards = args.usize_or("shards", 0)?;

    let graph = super::load_graph(args, &train.x, &test.x)?;

    let started = std::time::Instant::now();
    let (sv, permutations) = if shards > 0 {
        // In-process sharded run: N partials through the wire format, then
        // the deterministic merge — bitwise-identical to the unsharded path.
        super::shard::run_sharded(
            &train,
            &test,
            k,
            method,
            weight,
            graph.as_ref(),
            shards,
            threads,
        )?
    } else {
        let mut builder = KnnShapley::new(&train, &test)
            .k(k)
            .weight(weight)
            .method(method)
            .threads(threads);
        if let Some(g) = &graph {
            builder = builder.graph(g);
        }
        let report = builder.run_report()?;
        (report.values, report.permutations)
    };
    let secs = started.elapsed().as_secs_f64();

    // Per-permutation throughput of the (parallel) MC paths — the number to
    // watch when tuning --threads.
    let mc_line =
        permutations.map(|perms| crate::commands::mc_throughput_line(perms, secs, threads));

    let payout = match args.f64_opt("revenue")? {
        Some(revenue) => {
            let base = args.f64_or("base-fee", 0.0)?;
            Some(monetary_payout(&sv, revenue, base))
        }
        None => None,
    };

    if let Some(out) = args.str("out") {
        write_csv(
            Path::new(out),
            "label",
            &train.y,
            &sv,
            payout.as_deref(),
            threads,
        )
        .map_err(knnshap_datasets::io::IoError::Io)?;
    }

    Ok(render(
        &train.y,
        test.len(),
        k,
        &sv,
        payout.as_deref(),
        top,
        mc_line.as_deref(),
        args.str("method").unwrap_or("exact"),
        args.str("out"),
    ))
}

/// Rows per block of [`write_csv`]. With [`ROW_BYTES`] reserved per row,
/// a block's buffer stays below glibc's default mmap threshold (128 KiB),
/// for the reason `WINDOW` in `knnshap_datasets::io` gives.
const WRITE_BLOCK: usize = 2048;

/// Bytes reserved per row of a [`write_csv`] block: a payout row with a
/// 7-digit index, a 3-digit label, a value of about 10⁻⁶ and a 3-digit
/// payout, both to 17 significant digits, fits. (`{}` prints an `f64` in
/// full decimal, so values far from 1 print longer rows; the buffer then
/// grows, and only the memory guard is lost.)
const ROW_BYTES: usize = 60;

/// Write the values CSV: `index,<column>,shapley_value[,payout]`, one row
/// per training point, with `labels[i]` (a class label or a regression
/// target) in `column`. Blocks of rows are formatted on `threads` workers
/// and written in file order, so the bytes do not depend on `threads`.
pub(crate) fn write_csv<L: std::fmt::Display + Sync>(
    path: &Path,
    column: &str,
    labels: &[L],
    sv: &ShapleyValues,
    payout: Option<&[f64]>,
    threads: usize,
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    match payout {
        Some(_) => writeln!(w, "index,{column},shapley_value,payout")?,
        None => writeln!(w, "index,{column},shapley_value")?,
    }
    let n = sv.len();
    let blocks = n.div_ceil(WRITE_BLOCK);
    let mut failed = None;
    knnshap_parallel::par_ordered(
        threads.min(blocks),
        || (0..0, Vec::with_capacity(WRITE_BLOCK * ROW_BYTES)),
        |b, (rows, _)| {
            *rows = b * WRITE_BLOCK..n.min((b + 1) * WRITE_BLOCK);
            b < blocks
        },
        |(rows, buf)| {
            buf.clear();
            for i in rows.clone() {
                match payout {
                    Some(p) => writeln!(buf, "{i},{},{},{}", labels[i], sv.get(i), p[i]),
                    None => writeln!(buf, "{i},{},{}", labels[i], sv.get(i)),
                }
                .expect("writing to a Vec cannot fail");
            }
        },
        |(_, buf)| match w.write_all(buf) {
            Ok(()) => true,
            Err(e) => {
                failed = Some(e);
                false
            }
        },
    );
    match failed {
        Some(e) => Err(e),
        None => w.flush(),
    }
}

/// Renders the `value` report from the training labels and the test-set
/// size. Also used verbatim by `merge` and `run-job`, so a sharded run's
/// report is byte-identical to the unsharded one (for the deterministic
/// methods — the MC throughput line carries wall-clock time).
#[allow(clippy::too_many_arguments)]
pub(crate) fn render(
    labels: &[u32],
    n_test: usize,
    k: usize,
    sv: &ShapleyValues,
    payout: Option<&[f64]>,
    top: usize,
    mc_line: Option<&str>,
    method_label: &str,
    out_path: Option<&str>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Valued {} training points against {n_test} test points (K = {k}, method = \
         {method_label}).\n",
        labels.len(),
    ));
    if let Some(line) = mc_line {
        out.push_str(line);
    }
    let s = Summary::of(sv.as_slice());
    out.push_str(&format!(
        "total value (= utility of the full set): {}\n\
         per-point: mean {}  std {}  min {}  max {}\n\n",
        fmt_f64(sv.total()),
        fmt_f64(s.mean),
        fmt_f64(s.std_dev),
        fmt_f64(s.min),
        fmt_f64(s.max),
    ));
    if let Some(p) = payout {
        out.push_str(&format!(
            "payout: revenue×value + equal base-fee split; total paid {}\n\n",
            fmt_f64(p.iter().sum::<f64>()),
        ));
    }

    let mut table = Table::new(if payout.is_some() {
        vec!["rank", "index", "label", "value", "payout"]
    } else {
        vec!["rank", "index", "label", "value"]
    });
    for (rank, &i) in sv.top_k(top).iter().enumerate() {
        let mut row = vec![
            format!("{}", rank + 1),
            format!("{i}"),
            format!("{}", labels[i]),
            fmt_f64(sv.get(i)),
        ];
        if let Some(p) = payout {
            row.push(fmt_f64(p[i]));
        }
        table.row(row);
    }
    out.push_str(&format!("top {top} most valuable points:\n"));
    out.push_str(&table.render());
    if let Some(path) = out_path {
        out.push_str(&format!("\nfull values written to {path}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::csv_pair;

    fn argv(tpath: &std::path::Path, qpath: &std::path::Path, extra: &[&str]) -> Vec<String> {
        let mut v = vec![
            "value".to_string(),
            "--train".into(),
            tpath.to_str().unwrap().into(),
            "--test".into(),
            qpath.to_str().unwrap().into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    }

    #[test]
    fn exact_value_report_contains_summary_and_top_table() {
        let (t, q) = csv_pair("value-exact", 60, 8);
        let out = crate::run(argv(&t, &q, &["--k", "3"])).unwrap();
        assert!(out.contains("Valued 60 training points"));
        assert!(out.contains("total value"));
        assert!(out.contains("rank  index  label  value"));
    }

    #[test]
    fn revenue_adds_payout_column_and_conserves_money() {
        let (t, q) = csv_pair("value-pay", 40, 5);
        let out = crate::run(argv(&t, &q, &["--revenue", "1000", "--base-fee", "100"])).unwrap();
        assert!(out.contains("payout"));
        assert!(out.contains("total paid"));
    }

    #[test]
    fn out_writes_csv_with_header() {
        let (t, q) = csv_pair("value-out", 30, 4);
        let out_path =
            std::env::temp_dir().join(format!("knnshap-cli-{}-values.csv", std::process::id()));
        crate::run(argv(&t, &q, &["--out", out_path.to_str().unwrap()])).unwrap();
        let contents = std::fs::read_to_string(&out_path).unwrap();
        let mut lines = contents.lines();
        assert_eq!(lines.next().unwrap(), "index,label,shapley_value");
        assert_eq!(contents.lines().count(), 31);
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn truncated_and_mc_methods_run_end_to_end() {
        let (t, q) = csv_pair("value-methods", 50, 5);
        for m in ["truncated", "mc-improved"] {
            let out = crate::run(argv(&t, &q, &["--method", m, "--eps", "0.2"])).unwrap();
            assert!(out.contains("total value"), "{m}");
        }
    }

    #[test]
    fn mc_methods_report_permutation_throughput() {
        let (t, q) = csv_pair("value-mc-tput", 40, 4);
        for m in ["mc-baseline", "mc-improved"] {
            let out = crate::run(argv(
                &t,
                &q,
                &["--method", m, "--eps", "0.3", "--threads", "2"],
            ))
            .unwrap();
            assert!(out.contains("permutations/s"), "{m}: {out}");
            assert!(out.contains("threads = 2"), "{m}");
        }
        // Deterministic methods stay silent about permutations.
        let out = crate::run(argv(&t, &q, &["--method", "exact"])).unwrap();
        assert!(!out.contains("permutations/s"));
    }

    /// The one-row-at-a-time writer the ordered block writer replaced.
    fn serial_csv<L: std::fmt::Display>(
        column: &str,
        labels: &[L],
        sv: &ShapleyValues,
        payout: Option<&[f64]>,
    ) -> Vec<u8> {
        let mut w = Vec::new();
        match payout {
            Some(_) => writeln!(w, "index,{column},shapley_value,payout").unwrap(),
            None => writeln!(w, "index,{column},shapley_value").unwrap(),
        }
        for i in 0..sv.len() {
            match payout {
                Some(p) => writeln!(w, "{i},{},{},{}", labels[i], sv.get(i), p[i]).unwrap(),
                None => writeln!(w, "{i},{},{}", labels[i], sv.get(i)).unwrap(),
            }
        }
        w
    }

    #[test]
    fn block_writer_is_the_serial_writer_at_every_thread_count() {
        let path =
            std::env::temp_dir().join(format!("knnshap-cli-{}-blocks.csv", std::process::id()));
        for n in [0, 1, WRITE_BLOCK - 1, WRITE_BLOCK, 2 * WRITE_BLOCK + 17] {
            let values: Vec<f64> = (0..n)
                .map(|i| match i % 5 {
                    0 => -0.0,
                    1 => (i as f64).sqrt() / 3.0,
                    2 => -1e-300 * i as f64,
                    3 => 1.0 / (i as f64 + 0.5),
                    _ => 0.0,
                })
                .collect();
            let sv = ShapleyValues::new(values);
            let pay: Vec<f64> = (0..n).map(|i| i as f64 * 0.1 - 7.0).collect();
            let labels: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
            let targets: Vec<f64> = (0..n).map(|i| i as f64 / 9.0).collect();
            for payout in [None, Some(pay.as_slice())] {
                for threads in [1, 2, 3, 8] {
                    let what = format!("n {n}, payout {}, threads {threads}", payout.is_some());
                    write_csv(&path, "label", &labels, &sv, payout, threads).unwrap();
                    let want = serial_csv("label", &labels, &sv, payout);
                    assert!(std::fs::read(&path).unwrap() == want, "{what}");
                    write_csv(&path, "target", &targets, &sv, payout, threads).unwrap();
                    let want = serial_csv("target", &targets, &sv, payout);
                    assert!(std::fs::read(&path).unwrap() == want, "reg, {what}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_write_block_stays_below_the_mmap_threshold() {
        const MMAP_THRESHOLD: usize = 128 << 10;
        const { assert!(WRITE_BLOCK * ROW_BYTES < MMAP_THRESHOLD) };
        // The widest row `ROW_BYTES` is sized for fits it, so a block's
        // buffer is never regrown past its reservation.
        let (v, p) = (-1.2345678901234567e-6, -123.45678901234567);
        let widest = format!("{},{},{v},{p}\n", 9_999_999, 999);
        assert!(widest.len() <= ROW_BYTES, "{} bytes", widest.len());
    }

    #[test]
    fn typo_in_option_is_rejected() {
        let (t, q) = csv_pair("value-typo", 20, 3);
        let err = crate::run(argv(&t, &q, &["--kay", "3"])).unwrap_err();
        assert!(err.to_string().contains("unknown option"));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = crate::run([
            "value",
            "--train",
            "/nonexistent/knnshap.csv",
            "--test",
            "/nonexistent/knnshap.csv",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
