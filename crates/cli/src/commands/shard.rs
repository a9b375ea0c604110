//! `knnshap shard` / `knnshap merge` — the out-of-process half of the
//! sharded valuation runtime.
//!
//! `shard` computes one canonical shard of a valuation job and writes its
//! partial sums to a self-describing binary file
//! (`knnshap_core::sharding::ShardPartial::to_bytes`; format spec in
//! `docs/sharding.md`). `merge` reads a full set of shard files, validates
//! that they belong to one job and tile it exactly, and prints the same
//! report `value` would — **byte-identical** to an unsharded `value` run
//! for the deterministic methods, because the partial sums are exact and
//! finalized once.
//!
//! ```text
//! knnshap shard --train t.csv --test q.csv --k 3 --shard-index 0 --shard-count 3 --out s0.shard
//! knnshap shard --train t.csv --test q.csv --k 3 --shard-index 1 --shard-count 3 --out s1.shard
//! knnshap shard --train t.csv --test q.csv --k 3 --shard-index 2 --shard-count 3 --out s2.shard
//! knnshap merge --train t.csv --test q.csv --k 3 --inputs s0.shard,s1.shard,s2.shard
//! ```

use crate::args::Args;
use crate::commands::{load_pair, parse_method, parse_weight};
use crate::CliError;
use knnshap_core::estimator::{Data, Estimator};
use knnshap_core::mc::StoppingRule;
use knnshap_core::pipeline::{Method, Valuation};
use knnshap_core::sharding::{merge_partials, ShardKind, ShardPartial, ShardSpec};
use knnshap_datasets::ClassDataset;
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::weights::WeightFn;
use std::path::Path;

/// Binds a classification valuation job to the estimator seam — the single
/// dispatch behind `shard`, `merge`, `value --shards` and `audit --shards`,
/// so in-process and multi-process sharding cannot diverge. When a
/// precomputed `graph` is given the shards skip the distance pass; their
/// kind, fingerprint and bytes are identical either way, so graph-backed
/// and brute-force shards of one job inter-merge freely.
fn estimator<'a>(
    train: &'a ClassDataset,
    test: &'a ClassDataset,
    k: usize,
    method: Method,
    weight: WeightFn,
    graph: Option<&'a KnnGraph>,
) -> Result<Estimator<'a>, CliError> {
    if let Method::McBaseline { rule, .. } | Method::McImproved { rule, .. } = method {
        require_fixed_budget(rule)?;
    }
    // LSH is the one method `parse_method` returns that is not a family.
    let Some(family) = method.family(train.len()) else {
        return Err(CliError::Invalid(LSH_UNSHARDABLE.into()));
    };
    let data = Data::class(train, test);
    Ok(Estimator::new(data, k, weight, family, graph)?)
}

/// Why `--method lsh` is rejected by `shard`, `shard-plan` and the job
/// runtime — the full explanation, not a generic "unsupported" line, because
/// the obvious workaround (build a per-shard index) silently breaks the
/// determinism contract. The planned sharding design for LSH is documented
/// in `docs/sharding.md` ("Why LSH does not shard yet").
pub(crate) const LSH_UNSHARDABLE: &str =
    "the LSH method cannot shard by test range: its index needs whole-test-set \
     statistics (the relative-contrast estimate that picks hash width, table \
     count and probe schedule), so independently built per-shard indexes would \
     answer queries differently and the merged values would not match the \
     unsharded run. Planned design: build the index once, then stream query \
     ranges through OnlineValuator workers — see docs/sharding.md";

/// Sharded Monte Carlo needs an a-priori stream budget: the heuristic rule
/// stops on a *sequential* criterion no shard can evaluate alone. The CLI
/// builds `Fixed` rules whenever `--perms N` is given.
fn require_fixed_budget(rule: StoppingRule) -> Result<(), CliError> {
    match rule {
        StoppingRule::Fixed(_) => Ok(()),
        _ => Err(CliError::Invalid(
            "sharded Monte Carlo needs a fixed permutation budget: pass --perms N \
             (the §6.2.2 heuristic stop is sequential and cannot be sharded)"
                .into(),
        )),
    }
}

/// In-process sharded run for `value --shards N` / `audit --shards N`:
/// computes each shard (round-tripping it through the wire format so the
/// in-process path exercises exactly what lands on disk) and merges.
/// Returns the values plus the consumed permutation count for MC methods.
pub(crate) fn run_sharded(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    method: Method,
    weight: WeightFn,
    graph: Option<&KnnGraph>,
    shards: usize,
    threads: usize,
) -> Result<Valuation, CliError> {
    let est = estimator(train, test, k, method, weight, graph)?;
    let parts: Vec<ShardPartial> = (0..shards)
        .map(|i| {
            let p = est.compute(ShardSpec::new(i, shards), threads);
            ShardPartial::from_bytes(&p.to_bytes()).map_err(CliError::Shard)
        })
        .collect::<Result<_, _>>()?;
    let merged = merge_partials(&parts).map_err(CliError::Shard)?;
    Ok(Valuation {
        values: merged.values,
        permutations: est.is_monte_carlo().then_some(merged.items as usize),
    })
}

const SHARD_ALLOWED: &[&str] = &[
    "train",
    "test",
    "k",
    "method",
    "eps",
    "delta",
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
    let (train, test) = load_pair(args)?;
    let k = args.usize_or("k", 1)?;
    args.require("shard-index")?;
    args.require("shard-count")?;
    let index = args.usize_or("shard-index", 0)?;
    let count = args.usize_or("shard-count", 0)?;
    if count == 0 || index >= count {
        return Err(CliError::Invalid(format!(
            "--shard-index {index} / --shard-count {count}: need 0 <= index < count"
        )));
    }
    let out = args.require("out")?.to_string();
    let threads = args.usize_or("threads", knnshap_parallel::current_threads())?;
    let method = parse_method(args)?;
    let weight = parse_weight(args)?;
    let graph = super::load_graph(args, &train.x, &test.x)?;

    let est = estimator(&train, &test, k, method, weight, graph.as_ref())?;
    let partial = est.compute(ShardSpec::new(index, count), threads);
    let bytes = partial.to_bytes();
    std::fs::write(Path::new(&out), &bytes).map_err(knnshap_datasets::io::IoError::Io)?;

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

/// The shard kind and job fingerprint the given datasets + arguments WOULD
/// produce — `merge` compares this against what the shard files claim.
/// `None` for methods that cannot shard (their kind check would already have
/// failed at shard time). The identity ignores the stream budget, so a
/// Monte Carlo `merge` need not repeat `--perms`; it hashes dataset
/// contents, never rebuilding the O(N · N_test) distance matrix.
fn expected_job(
    train: &ClassDataset,
    test: &ClassDataset,
    k: usize,
    method: Method,
    weight: WeightFn,
) -> Result<Option<(ShardKind, u64)>, CliError> {
    let Some(family) = method.family(train.len()) else {
        return Ok(None);
    };
    let data = Data::class(train, test);
    Ok(Some(
        Estimator::new(data, k, weight, family, None)?.identity(),
    ))
}

const MERGE_ALLOWED: &[&str] = &[
    "inputs",
    "train",
    "test",
    "k",
    "method",
    "eps",
    "delta",
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

/// `knnshap merge`: read `--inputs a,b,c`, merge, and print the `value`
/// report (byte-identical to an unsharded `value` run for the deterministic
/// methods).
pub fn run_merge(args: &Args) -> Result<String, CliError> {
    args.expect_only(MERGE_ALLOWED)?;
    let (train, test) = load_pair(args)?;
    let k = args.usize_or("k", 1)?;
    let top = args.usize_or("top", 10)?;

    let inputs = args.require("inputs")?;
    let mut parts = Vec::new();
    for path in inputs.split(',').filter(|p| !p.is_empty()) {
        let bytes = std::fs::read(Path::new(path)).map_err(knnshap_datasets::io::IoError::Io)?;
        parts.push(ShardPartial::from_bytes(&bytes).map_err(CliError::Shard)?);
    }
    if let Some(p) = parts.first() {
        if p.meta.n_train != train.len() as u64 {
            return Err(CliError::Invalid(format!(
                "shards value {} training points but --train has {}",
                p.meta.n_train,
                train.len()
            )));
        }
        let per_test = matches!(
            p.meta.kind,
            ShardKind::ExactClass | ShardKind::ExactReg | ShardKind::Truncated
        );
        if per_test && p.meta.total_items != test.len() as u64 {
            return Err(CliError::Invalid(format!(
                "shards cover {} test points but --test has {}",
                p.meta.total_items,
                test.len()
            )));
        }
        // Recompute the job identity from THIS invocation's datasets and
        // arguments and require it to match the shards', so a `merge` run
        // with a different --k/--method/--seed/--weight (or a swapped CSV of
        // the same size) fails loudly instead of rendering a mislabeled
        // report over someone else's numbers.
        if let Some((kind, fingerprint)) =
            expected_job(&train, &test, k, parse_method(args)?, parse_weight(args)?)?
        {
            if p.meta.kind != kind {
                return Err(CliError::Invalid(format!(
                    "shards were produced by the {} estimator but merge was invoked \
                     for {} — pass the same --method the shards were built with",
                    p.meta.kind.name(),
                    kind.name(),
                )));
            }
            if p.meta.fingerprint != fingerprint {
                return Err(CliError::Invalid(format!(
                    "shards carry job fingerprint {:016x} but these datasets and \
                     arguments produce {fingerprint:016x} — the merge invocation \
                     disagrees with the shard invocations on --k, --seed, --eps, \
                     --weight, or the train/test CSV contents",
                    p.meta.fingerprint,
                )));
            }
        }
    }
    let is_mc = parts
        .first()
        .is_some_and(|p| matches!(p.meta.kind, ShardKind::McBaseline | ShardKind::McImproved));
    let started = std::time::Instant::now();
    let merged = merge_partials(&parts).map_err(CliError::Shard)?;
    let secs = started.elapsed().as_secs_f64();
    let sv = merged.values;
    let threads = args.usize_or("threads", knnshap_parallel::current_threads())?;
    let mc_line =
        is_mc.then(|| crate::commands::mc_throughput_line(merged.items as usize, secs, threads));

    let payout = match args.f64_opt("revenue")? {
        Some(revenue) => {
            let base = args.f64_or("base-fee", 0.0)?;
            Some(knnshap_core::analysis::monetary_payout(&sv, revenue, base))
        }
        None => None,
    };
    if let Some(out) = args.str("out") {
        super::value::write_csv(
            Path::new(out),
            "label",
            &train.y,
            &sv,
            payout.as_deref(),
            threads,
        )
        .map_err(knnshap_datasets::io::IoError::Io)?;
    }
    Ok(super::value::render(
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
