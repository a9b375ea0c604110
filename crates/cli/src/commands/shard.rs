//! `knnshap shard` / `knnshap merge` — a sharded valuation job by hand,
//! one shard file per invocation.
//!
//! `shard` computes one canonical shard of a valuation job and writes its
//! partial sums to a self-describing binary file
//! (`knnshap_core::sharding::ShardPartial::to_bytes`; format spec in
//! `docs/sharding.md`). `merge` reads a full set of shard files, checks
//! that they belong to the job its own arguments describe and tile it
//! exactly, and prints the same report `value` would — **byte-identical**
//! to an unsharded `value` run for the deterministic methods, because the
//! partial sums are exact and finalized once.
//!
//! Both read the job as `shard-plan` does (`job::job_spec`) and bind it as
//! a job worker does (`knnshap_runtime::dispatch`), so a shard file is byte
//! for byte the one a `run-job` of the same job publishes, and `merge`
//! runs the merge tail's identity check (`supervisor::merge_shards`).
//!
//! ```text
//! knnshap shard --train t.csv --test q.csv --k 3 --shard-index 0 --shard-count 3 --out s0.shard
//! knnshap shard --train t.csv --test q.csv --k 3 --shard-index 1 --shard-count 3 --out s1.shard
//! knnshap shard --train t.csv --test q.csv --k 3 --shard-index 2 --shard-count 3 --out s2.shard
//! knnshap merge --train t.csv --test q.csv --k 3 --inputs s0.shard,s1.shard,s2.shard
//! ```

use crate::args::Args;
use crate::commands::job::job_spec;
use crate::CliError;
use knnshap_core::estimator::Estimator;
use knnshap_core::sharding::{ShardPartial, ShardSpec};
use knnshap_datasets::io::IoError;
use knnshap_runtime::dispatch::{attach_graph, load_data};
use knnshap_runtime::spec::JobSpec;
use knnshap_runtime::supervisor::{merge_shards, Column};
use knnshap_runtime::JobError;
use std::path::Path;

/// Bind `spec` to the datasets it names, parsed on `threads` workers, with
/// the `KNNGRAPH` artifact at `graph` attached: a job worker's binding,
/// without a plan to check it against.
fn bind(
    spec: &JobSpec,
    threads: usize,
    graph: Option<&str>,
) -> Result<Estimator<'static>, CliError> {
    let data = load_data(spec, threads)?;
    let mut estimator = Estimator::new(data, spec.k, spec.weight, spec.family, None)?;
    if let Some(path) = graph {
        attach_graph(&mut estimator, Path::new(path))?;
    }
    Ok(estimator)
}

const SHARD_ALLOWED: &[&str] = &[
    "train",
    "test",
    "k",
    "method",
    "eps",
    "weight",
    "weight-param",
    "threads",
    "seed",
    "perms",
    "shard-index",
    "shard-count",
    "out",
    "graph",
];

/// `knnshap shard`: compute one shard and write it to `--out`.
pub fn run_shard(args: &Args) -> Result<String, CliError> {
    args.expect_only(SHARD_ALLOWED)?;
    args.require("shard-index")?;
    args.require("shard-count")?;
    let index = args.usize_or("shard-index", 0)?;
    let count = args.usize_or("shard-count", 0)?;
    if count == 0 || index >= count {
        return Err(CliError::Invalid(format!(
            "--shard-index {index} / --shard-count {count}: need 0 <= index < count"
        )));
    }
    let out = args.require("out")?;
    let threads = args.usize_or("threads", knnshap_parallel::current_threads())?;
    let spec = job_spec(args, count)?;
    spec.validate()?;
    let partial =
        bind(&spec, threads, args.str("graph"))?.compute(ShardSpec::new(index, count), threads);
    let bytes = partial.to_bytes();
    std::fs::write(Path::new(out), &bytes).map_err(IoError::Io)?;

    let m = &partial.meta;
    Ok(format!(
        "shard {index}/{count} of {} job {:016x}: items {}..{} of {} \
         ({} training points)\nwrote {} bytes to {out}\n",
        m.kind.name(),
        m.fingerprint,
        m.item_lo,
        m.item_hi,
        m.total_items,
        m.n_train,
        bytes.len(),
    ))
}

const MERGE_ALLOWED: &[&str] = &[
    "inputs",
    "train",
    "test",
    "k",
    "method",
    "eps",
    "weight",
    "weight-param",
    "threads",
    "seed",
    "perms",
    "top",
    "out",
    "revenue",
    "base-fee",
];

/// `knnshap merge`: read `--inputs a,b,c`, check them against the job this
/// invocation's datasets and arguments describe, merge, and print the
/// `value` report (byte-identical to an unsharded `value` run for the
/// deterministic methods). The job's identity ignores the stream budget,
/// so the job is bound without `JobSpec::validate`: a Monte Carlo merge
/// need not repeat `--perms`.
pub fn run_merge(args: &Args) -> Result<String, CliError> {
    args.expect_only(MERGE_ALLOWED)?;
    let inputs = args.require("inputs")?;
    let threads = args.usize_or("threads", knnshap_parallel::current_threads())?;
    let spec = job_spec(args, 1)?;
    let estimator = bind(&spec, threads, None)?;
    let (job, n_train) = (estimator.identity(), estimator.n_train() as u64);
    // The features go before the shards are read, as in the merge tail.
    let (column, n_test) = Column::of(estimator.into_data());
    let parts = inputs
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|path| {
            let bytes = std::fs::read(Path::new(path)).map_err(IoError::Io)?;
            ShardPartial::from_bytes(&bytes).map_err(|e| CliError::Runtime(JobError::Shard(e)))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let merged = merge_shards(&parts, job, n_train, threads)?;
    super::value::report(
        args,
        &column,
        n_test,
        spec.k,
        &merged.values,
        None,
        spec.family.name(),
        threads,
    )
}

#[cfg(test)]
mod tests {
    use crate::commands::testutil::csv_pair;
    use std::path::Path;

    fn shard_argv(
        t: &Path,
        q: &Path,
        out: &Path,
        i: usize,
        n: usize,
        extra: &[&str],
    ) -> Vec<String> {
        let mut v = vec![
            "shard".to_string(),
            "--train".into(),
            t.to_str().unwrap().into(),
            "--test".into(),
            q.to_str().unwrap().into(),
            "--shard-index".into(),
            i.to_string(),
            "--shard-count".into(),
            n.to_string(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    }

    #[test]
    fn shard_then_merge_reproduces_value_bytes() {
        let (t, q) = csv_pair("shardcmd", 40, 6);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let shard_paths: Vec<_> = (0..3)
            .map(|i| dir.join(format!("knnshap-cli-{pid}-s{i}.shard")))
            .collect();
        for (i, p) in shard_paths.iter().enumerate() {
            let report = crate::run(shard_argv(&t, &q, p, i, 3, &["--k", "2"])).unwrap();
            assert!(report.contains(&format!("shard {i}/3")), "{report}");
        }
        let inputs = shard_paths
            .iter()
            .map(|p| p.to_str().unwrap())
            .collect::<Vec<_>>()
            .join(",");
        let merged = crate::run([
            "merge",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--k",
            "2",
            "--inputs",
            &inputs,
        ])
        .unwrap();
        let unsharded = crate::run([
            "value",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--k",
            "2",
        ])
        .unwrap();
        assert_eq!(merged, unsharded, "merge report must be byte-identical");
        for p in &shard_paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn merge_rejects_incomplete_and_tampered_sets() {
        let (t, q) = csv_pair("shardbad", 30, 5);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let s0 = dir.join(format!("knnshap-cli-{pid}-bad0.shard"));
        let s1 = dir.join(format!("knnshap-cli-{pid}-bad1.shard"));
        crate::run(shard_argv(&t, &q, &s0, 0, 2, &[])).unwrap();
        crate::run(shard_argv(&t, &q, &s1, 1, 2, &[])).unwrap();
        let merge = |inputs: &str| {
            crate::run([
                "merge",
                "--train",
                t.to_str().unwrap(),
                "--test",
                q.to_str().unwrap(),
                "--inputs",
                inputs,
            ])
        };
        // Gap: only one shard of two.
        let err = merge(s0.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        // Merging with a different --k than the shards were built with is a
        // fingerprint mismatch, not a silently mislabeled report.
        let err = crate::run([
            "merge",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--k",
            "3",
            "--inputs",
            &format!("{},{}", s0.to_str().unwrap(), s1.to_str().unwrap()),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // LSH does not shard, so no LSH job owns these shards: `merge`
        // refuses the method before it renders any report over them.
        let err = crate::run([
            "merge",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--method",
            "lsh",
            "--k",
            "5",
            "--inputs",
            &format!("{},{}", s0.to_str().unwrap(), s1.to_str().unwrap()),
        ])
        .unwrap_err();
        assert_eq!(err.to_string(), crate::commands::job::LSH_UNSHARDABLE);
        // Version tampering fails loudly.
        let mut bytes = std::fs::read(&s1).unwrap();
        bytes[8] = 42;
        std::fs::write(&s1, &bytes).unwrap();
        let err = merge(&format!(
            "{},{}",
            s0.to_str().unwrap(),
            s1.to_str().unwrap()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_file(&s0).ok();
        std::fs::remove_file(&s1).ok();
    }

    #[test]
    fn shard_validates_its_arguments() {
        let (t, q) = csv_pair("shardargs", 20, 3);
        let dir = std::env::temp_dir();
        let out = dir.join(format!("knnshap-cli-{}-argcheck.shard", std::process::id()));
        // index >= count
        let err = crate::run(shard_argv(&t, &q, &out, 5, 2, &[])).unwrap_err();
        assert!(err.to_string().contains("index"), "{err}");
        // lsh is not shardable, and the error says exactly why.
        let err = crate::run(shard_argv(&t, &q, &out, 0, 2, &["--method", "lsh"])).unwrap_err();
        assert!(err.to_string().contains("whole-test-set"), "{err}");
        assert!(err.to_string().contains("docs/sharding.md"), "{err}");
        // mc without --perms is not shardable
        let err =
            crate::run(shard_argv(&t, &q, &out, 0, 2, &["--method", "mc-improved"])).unwrap_err();
        assert!(err.to_string().contains("--perms"), "{err}");
        std::fs::remove_file(&out).ok();
    }

    /// `shard` ×2 + `merge` of a stream job writes the `--out` CSV a
    /// `shard-plan` + `run-job` of the same job writes, from the same shard
    /// bytes, and reports no throughput of its own.
    #[test]
    fn stream_shard_merge_matches_run_job_csv() {
        let (t, q) = csv_pair("shardjob", 30, 4);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let (t, q) = (t.to_str().unwrap(), q.to_str().unwrap());
        for method in ["group-testing", "mc-improved"] {
            let args = ["--method", method, "--perms", "50", "--seed", "5"];
            let tmp = |name: &str| dir.join(format!("knnshap-cli-{pid}-{method}-{name}"));
            let paths: Vec<_> = (0..2).map(|i| tmp(&format!("s{i}.shard"))).collect();
            for (i, p) in paths.iter().enumerate() {
                crate::run(shard_argv(Path::new(t), Path::new(q), p, i, 2, &args)).unwrap();
            }
            let (merged_csv, job_csv, job) = (tmp("merged.csv"), tmp("job.csv"), tmp("job"));
            let (merged_csv, job_csv, job) = (
                merged_csv.to_str().unwrap(),
                job_csv.to_str().unwrap(),
                job.to_str().unwrap(),
            );
            std::fs::remove_dir_all(job).ok();
            let inputs = format!(
                "{},{}",
                paths[0].to_str().unwrap(),
                paths[1].to_str().unwrap()
            );
            let mut merge = vec![
                "merge", "--train", t, "--test", q, "--inputs", &inputs, "--out", merged_csv,
            ];
            merge.extend(&args[..2]);
            merge.extend(&args[4..]);
            let report = crate::run(merge).unwrap();
            assert!(!report.contains("permutations/s"), "{method}: {report}");
            let mut plan = vec![
                "shard-plan",
                "--train",
                t,
                "--test",
                q,
                "--shards",
                "2",
                "--job",
                job,
            ];
            plan.extend(args);
            crate::run(plan).unwrap();
            crate::run(["worker", "--job", job]).unwrap();
            crate::run(["run-job", "--job", job, "--workers", "1", "--out", job_csv]).unwrap();
            assert_eq!(
                std::fs::read(merged_csv).unwrap(),
                std::fs::read(job_csv).unwrap(),
                "{method}"
            );
            let dirs = knnshap_runtime::layout::JobDirs::new(job);
            for (i, p) in paths.iter().enumerate() {
                assert_eq!(
                    std::fs::read(p).unwrap(),
                    std::fs::read(dirs.shard_path(i)).unwrap(),
                    "{method}: shard {i}"
                );
                std::fs::remove_file(p).ok();
            }
            std::fs::remove_file(merged_csv).ok();
            std::fs::remove_file(job_csv).ok();
            std::fs::remove_dir_all(job).ok();
        }
    }

    #[test]
    fn mc_shard_merge_matches_unsharded_csv() {
        let (t, q) = csv_pair("shardmc", 25, 4);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let paths: Vec<_> = (0..2)
            .map(|i| dir.join(format!("knnshap-cli-{pid}-mc{i}.shard")))
            .collect();
        let mc_args = ["--method", "mc-improved", "--perms", "60", "--seed", "9"];
        for (i, p) in paths.iter().enumerate() {
            crate::run(shard_argv(&t, &q, p, i, 2, &mc_args)).unwrap();
        }
        let inputs = paths
            .iter()
            .map(|p| p.to_str().unwrap())
            .collect::<Vec<_>>()
            .join(",");
        let merged_csv = dir.join(format!("knnshap-cli-{pid}-mc-merged.csv"));
        let direct_csv = dir.join(format!("knnshap-cli-{pid}-mc-direct.csv"));
        // `merge` must repeat the job-defining arguments (here --seed): the
        // fingerprint cross-check rejects a mismatched invocation.
        crate::run([
            "merge",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--method",
            "mc-improved",
            "--seed",
            "9",
            "--inputs",
            &inputs,
            "--out",
            merged_csv.to_str().unwrap(),
        ])
        .unwrap();
        let mut value_args = vec![
            "value".to_string(),
            "--train".into(),
            t.to_str().unwrap().into(),
            "--test".into(),
            q.to_str().unwrap().into(),
            "--out".into(),
            direct_csv.to_str().unwrap().into(),
        ];
        value_args.extend(mc_args.iter().map(|s| s.to_string()));
        crate::run(value_args).unwrap();
        // CSV artifacts carry full-precision values: byte equality here is
        // bitwise equality of the Shapley vector.
        assert_eq!(
            std::fs::read(&merged_csv).unwrap(),
            std::fs::read(&direct_csv).unwrap()
        );
        for p in paths.iter().chain([&merged_csv, &direct_csv]) {
            std::fs::remove_file(p).ok();
        }
    }
}
