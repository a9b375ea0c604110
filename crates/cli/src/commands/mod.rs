//! One module per subcommand; each exposes `run(&Args) -> Result<String, CliError>`.

pub mod audit;
pub mod contrast;
pub mod graph;
pub mod job;
pub mod serve;
pub mod shard;
pub mod synth;
pub mod value;
pub mod watch;

use crate::args::Args;
use crate::CliError;
use knnshap_core::estimator::Task;
use knnshap_core::mc::StoppingRule;
use knnshap_core::pipeline::{KnnShapley, Method, Valuation};
use knnshap_datasets::ClassDataset;
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::weights::WeightFn;
use std::path::Path;

/// Loads the `--train`/`--test` CSV pair shared by value/audit/serve/
/// contrast, parsing on the command's `--threads` budget (the default
/// thread count where the command takes no `--threads`).
pub(crate) fn load_pair(args: &Args) -> Result<(ClassDataset, ClassDataset), CliError> {
    let threads = args.usize_or("threads", knnshap_parallel::current_threads())?;
    let load = |key| {
        knnshap_datasets::io::load_class_csv_with_threads(Path::new(args.require(key)?), threads)
            .map_err(CliError::from)
    };
    let (train, test) = (load("train")?, load("test")?);
    if train.dim() != test.dim() {
        return Err(CliError::Invalid(format!(
            "train has {} features but test has {}",
            train.dim(),
            test.dim()
        )));
    }
    Ok((train, test))
}

/// Resolves `--method`/`--eps`/`--delta`/`--seed`/`--perms` into a pipeline
/// [`Method`]. The MC methods default to the §6.2.2 heuristic stop; an
/// explicit `--perms N` pins a fixed N-permutation budget instead.
pub(crate) fn parse_method(args: &Args) -> Result<Method, CliError> {
    let eps = parse_eps(args)?;
    let delta = parse_delta(args)?;
    let seed = args.u64_or("seed", 42)?;
    let perms = args.usize_or("perms", 0)?;
    let mc_rule = |heuristic_max: usize| match perms {
        0 => StoppingRule::Heuristic {
            threshold: knnshap_core::bounds::heuristic_threshold(eps),
            max: heuristic_max,
        },
        t => StoppingRule::Fixed(t),
    };
    match args.str("method").unwrap_or("exact") {
        "exact" => Ok(Method::Exact),
        "truncated" => Ok(Method::Truncated { eps }),
        "lsh" => Ok(Method::Lsh {
            eps,
            delta,
            max_tables: args.usize_or("max-tables", 64)?,
        }),
        "mc-baseline" => Ok(Method::McBaseline {
            rule: mc_rule(50_000),
            seed,
        }),
        "mc-improved" => Ok(Method::McImproved {
            rule: mc_rule(200_000),
            seed,
        }),
        other => Err(CliError::Invalid(format!(
            "unknown method '{other}' (exact, truncated, lsh, mc-baseline, mc-improved)"
        ))),
    }
}

/// `--eps` (default 0.1), which must be finite and > 0 whatever method
/// reads it.
pub(crate) fn parse_eps(args: &Args) -> Result<f64, CliError> {
    let eps = args.f64_or("eps", 0.1)?;
    knnshap_core::estimator::check_eps(eps)?;
    Ok(eps)
}

/// `--delta` (default 0.1), the LSH failure probability, which must lie in
/// (0, 1) whatever method reads it.
pub(crate) fn parse_delta(args: &Args) -> Result<f64, CliError> {
    let delta = args.f64_or("delta", 0.1)?;
    knnshap_core::estimator::check_delta(delta)?;
    Ok(delta)
}

/// The valuation behind `value` and `audit`: resolves `--method`,
/// `--weight` and `--graph`, then runs the builder. Returns the values, the
/// Monte Carlo permutation count and the valuation's wall-clock seconds
/// (the CSV loads and argument parsing excluded).
pub(crate) fn valuate(
    args: &Args,
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    threads: usize,
) -> Result<(Valuation, f64), CliError> {
    let method = parse_method(args)?;
    let weight = parse_weight(args)?;
    let graph = load_graph(args, &train.x, &test.x)?;
    let started = std::time::Instant::now();
    let mut builder = KnnShapley::new(train, test)
        .k(k)
        .weight(weight)
        .method(method)
        .threads(threads);
    if let Some(g) = &graph {
        builder = builder.graph(g);
    }
    let valuation = builder.run_report()?;
    Ok((valuation, started.elapsed().as_secs_f64()))
}

/// The per-permutation throughput line the MC paths of `value` and `audit`
/// both print: permutations consumed, wall-clock, permutations/s, threads.
pub(crate) fn mc_throughput_line(permutations: usize, secs: f64, threads: usize) -> String {
    format!(
        "monte carlo: {permutations} permutations in {secs:.3} s \
         ({:.1} permutations/s, threads = {threads})\n",
        permutations as f64 / secs.max(1e-9),
    )
}

/// Loads the optional `--graph FILE` artifact (`knnshap build-graph`) and
/// fingerprint-checks it against the datasets it is about to value, so a
/// graph built from drifted CSVs is refused up front with a CLI error
/// instead of a panic deep inside an estimator.
pub(crate) fn load_graph(
    args: &Args,
    train: &knnshap_datasets::Features,
    test: &knnshap_datasets::Features,
) -> Result<Option<KnnGraph>, CliError> {
    let Some(path) = args.str("graph") else {
        return Ok(None);
    };
    let graph =
        KnnGraph::load(Path::new(path)).map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
    graph
        .validate_against(train, test)
        .map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
    Ok(Some(graph))
}

/// Resolves `--task` (default `class`) through the task table.
pub(crate) fn parse_task(args: &Args) -> Result<Task, CliError> {
    Task::parse(args.str("task").unwrap_or("class")).map_err(CliError::Invalid)
}

/// Resolves `--weight`/`--weight-param` into a [`WeightFn`] through the
/// weight table (`WeightFn::parse`): a parameter the weight cannot use is
/// refused here.
pub(crate) fn parse_weight(args: &Args) -> Result<WeightFn, CliError> {
    let name = args.str("weight").unwrap_or("uniform");
    WeightFn::parse(name, args.f64_opt("weight-param")?)
        .map_err(|e| CliError::Invalid(e.to_string()))
}

#[cfg(test)]
pub(crate) mod testutil {
    use knnshap_datasets::synth::blobs::{self, BlobConfig};
    use std::path::PathBuf;

    /// Writes a small train/test CSV pair into the temp dir; returns paths.
    pub fn csv_pair(tag: &str, n: usize, n_test: usize) -> (PathBuf, PathBuf) {
        let cfg = BlobConfig {
            n,
            dim: 4,
            n_classes: 2,
            cluster_std: 0.5,
            center_scale: 3.0,
            seed: 11,
        };
        let train = blobs::generate(&cfg);
        let test = blobs::queries(&cfg, n_test, 23);
        let dir = std::env::temp_dir();
        let tpath = dir.join(format!(
            "knnshap-cli-{}-{tag}-train.csv",
            std::process::id()
        ));
        let qpath = dir.join(format!("knnshap-cli-{}-{tag}-test.csv", std::process::id()));
        knnshap_datasets::io::save_class_csv(&tpath, &train).unwrap();
        knnshap_datasets::io::save_class_csv(&qpath, &test).unwrap();
        (tpath, qpath)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_parsing_covers_all_variants() {
        for (name, ok) in [
            ("exact", true),
            ("truncated", true),
            ("lsh", true),
            ("mc-baseline", true),
            ("mc-improved", true),
            ("bogus", false),
        ] {
            let args = Args::parse(["value", "--method", name]).unwrap();
            assert_eq!(parse_method(&args).is_ok(), ok, "{name}");
        }
    }

    #[test]
    fn weight_parsing_covers_all_variants() {
        let args = Args::parse(["value", "--weight", "inverse", "--weight-param", "0.01"]).unwrap();
        assert!(matches!(
            parse_weight(&args).unwrap(),
            WeightFn::InverseDistance { .. }
        ));
        let args = Args::parse(["value", "--weight", "nope"]).unwrap();
        assert!(parse_weight(&args).is_err());
        let args = Args::parse(["value"]).unwrap();
        assert!(matches!(parse_weight(&args).unwrap(), WeightFn::Uniform));
    }

    #[test]
    fn load_pair_validates_dimensions() {
        let (tpath, _) = testutil::csv_pair("dim-a", 20, 5);
        let dir = std::env::temp_dir();
        let bad = dir.join(format!("knnshap-cli-{}-dim-bad.csv", std::process::id()));
        std::fs::write(&bad, "1.0,2.0,0\n3.0,4.0,1\n").unwrap();
        let args = Args::parse([
            "value",
            "--train",
            tpath.to_str().unwrap(),
            "--test",
            bad.to_str().unwrap(),
        ])
        .unwrap();
        let err = load_pair(&args).unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)), "{err}");
        std::fs::remove_file(&bad).ok();
    }
}
