//! # knnshap-cli — data valuation from the command line
//!
//! A thin, scriptable front end over the workspace: bring a training and a
//! test CSV (features…, integer label — the `knnshap_datasets::io` format),
//! get per-point Shapley values, audits and LSH feasibility reports back.
//!
//! ```text
//! knnshap synth    --kind blobs --n 2000 --out train.csv --queries 100 --queries-out test.csv
//! knnshap value    --train train.csv --test test.csv --k 3 --method exact --out values.csv
//! knnshap value    --train train.csv --test test.csv --k 3 --revenue 10000 --base-fee 500
//! knnshap audit    --train train.csv --test test.csv --k 3 --inspect 25
//! knnshap contrast --train train.csv --test test.csv --k 1 --eps 0.1
//! ```
//!
//! Every command is a pure function from parsed arguments to a report
//! string (plus optional CSV side effects), so the whole surface is unit-
//! tested without spawning processes.

pub mod args;
pub mod commands;
pub mod report;

use args::{ArgError, Args};

/// Top-level CLI failure.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Dataset file problems.
    Io(knnshap_datasets::io::IoError),
    /// Valuation pipeline configuration problems.
    Pipeline(knnshap_core::pipeline::PipelineError),
    /// Sharded-job problems (`shard`/`merge`/`shard-plan`/`worker`/`run-job`).
    Runtime(knnshap_runtime::JobError),
    /// Daemon/client problems (`serve`/`client`: bind, connect, protocol).
    Serve(String),
    /// Anything command-specific (bad enum value, inconsistent datasets…).
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(
                    f,
                    "unknown command '{c}' (try: value, audit, contrast, synth, build-graph, \
                     shard, merge, shard-plan, run-job, watch, worker, serve, client)"
                )
            }
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
            CliError::Runtime(e) => write!(f, "{e}"),
            CliError::Serve(m) => write!(f, "{m}"),
            CliError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<knnshap_datasets::io::IoError> for CliError {
    fn from(e: knnshap_datasets::io::IoError) -> Self {
        CliError::Io(e)
    }
}

impl From<knnshap_core::pipeline::PipelineError> for CliError {
    fn from(e: knnshap_core::pipeline::PipelineError) -> Self {
        CliError::Pipeline(e)
    }
}

impl From<knnshap_runtime::JobError> for CliError {
    fn from(e: knnshap_runtime::JobError) -> Self {
        CliError::Runtime(e)
    }
}

/// Usage text printed on `help` or argument errors.
pub const USAGE: &str = "\
knnshap — efficient task-specific data valuation for nearest neighbors
         (Jia et al., VLDB 2019)

USAGE: knnshap <command> [--option value]...

COMMANDS
  value     compute per-point Shapley values of a training CSV
            --train FILE --test FILE [--k 1] [--method exact|truncated|lsh|
            mc-baseline|mc-improved] [--eps 0.1] [--delta 0.1]
            [--weight uniform|inverse|exponential] [--weight-param X]
            [--threads N] [--perms N] [--top 10] [--out FILE]
            [--graph FILE]               (skip the distance pass; bitwise-
                                          identical output — see build-graph)
            [--revenue A --base-fee B]   (affine §7 payout mapping)
  audit     rank suspicious (lowest-value) points; optionally score the
            ranking against known-bad indices
            --train FILE --test FILE [--k 1] [--method ...] [--eps 0.1]
            [--perms N] [--inspect 20] [--flagged FILE]
            [--graph FILE]
  build-graph  precompute the KNN graph artifact every other command can
            reuse via --graph: per-test-point neighbor lists in the exact
            tie-broken order the estimators sort into, stamped with
            dataset-content fingerprints (label-free — one graph serves
            classification and regression over the same features)
            --train FILE --test FILE --out FILE [--task class|reg]
            [--threads N]
  shard     compute ONE shard of a valuation job and write its partial sums
            to a self-describing binary file (see docs/sharding.md)
            --train FILE --test FILE --shard-index I --shard-count N
            --out FILE [--k 1] [--method exact|truncated|mc-baseline|
            mc-improved|group-testing] [--perms N] [--seed 42] [--eps 0.1]
            [--weight uniform|inverse|exponential] [--weight-param X]
            [--threads N] [--graph FILE]
  merge     merge a full set of shard files; bitwise-identical to the
            unsharded `value` run (same report, same --out CSV). Repeat the
            job-defining options the shards were built with — the merge
            cross-checks them against the shard headers
            --inputs A,B,C --train FILE --test FILE [--k 1] [--method exact|
            truncated|mc-baseline|mc-improved|group-testing] [--seed 42]
            [--eps 0.1] [--weight ...] [--weight-param X] [--threads N]
            [--top 10] [--out FILE] [--revenue A --base-fee B]
  shard-plan  plan a multi-process valuation job: write the versioned job
            plan + directory a worker fleet executes (docs/operations.md)
            --train FILE --test FILE --shards N --job DIR [--task class|reg]
            [--k 1] [--method exact|truncated|mc-baseline|mc-improved|
            group-testing] [--perms N] [--seed 42] [--eps 0.1]
            [--weight ...] [--checkpoint-chunks 4]
  run-job   supervise a planned job to completion: spawn local workers,
            expire stale leases, respawn after crashes, auto-merge; report
            and --out CSV match the unsharded `value` run byte for byte.
            --threads is per worker; once the fleet exits, the merge loads
            the CSVs and writes --out on workers x N threads, capped at
            the default budget
            --job DIR [--workers 2] [--threads N] [--lease-ttl 30]
            [--max-spawns N] [--top 10] [--out FILE] [--graph FILE]
            [--revenue A --base-fee B]
            [--watch]                    (stream live shard x chunk progress
                                          lines while the fleet runs)
  watch     follow a job directory's event stream (events.jsonl) from any
            process sharing its path: one progress line per change, exits
            when the job merges (docs/observability.md)
            --job DIR [--poll MS] [--timeout SECS]
  worker    one fleet member: claim shards from a job directory (lease
            files), compute with checkpoints, publish, exit when nothing is
            claimable. Run any number, on any machines sharing the path
            --job DIR [--threads N] [--worker-id ID] [--graph FILE]
  serve     long-lived valuation daemon: load the dataset once, keep rank
            state resident, answer socket requests (docs/serving.md);
            insert/delete mutations revalue incrementally and the served
            vector stays bitwise-identical to a cold `value` run
            --train FILE --test FILE (--addr HOST:PORT | --socket PATH)
            [--k 1] [--threads N] [--graph FILE]
  client    one-shot client for a running daemon
            (--addr HOST:PORT | --socket PATH) --op stat|get|dump|top|
            bottom|what-if|insert|delete|train-csv|script|metrics|shutdown
            [--index I] [--count N] [--point F1,F2,...] [--label L]
            [--script FILE] [--out FILE]
  contrast  estimate relative contrast C_K* and the LSH feasibility report
            --train FILE --test FILE [--k 1] [--eps 0.1] [--delta 0.1]
  synth     generate synthetic datasets (see DESIGN.md substitutions)
            --kind blobs|dogfish|iris|deep|gist|mnist --out FILE
            [--n 1000] [--dim 16] [--classes 3] [--std 0.6] [--seed 7]
            [--queries N --queries-out FILE]
  help      print this text

Dataset format: CSV, one point per row, features then integer label last.
";

/// Parses `argv` (without program name) and runs the matching command,
/// returning the printable report.
pub fn run<I, S>(argv: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args = Args::parse(argv)?;
    match args.subcommand() {
        "value" => commands::value::run(&args),
        "audit" => commands::audit::run(&args),
        "contrast" => commands::contrast::run(&args),
        "synth" => commands::synth::run(&args),
        "build-graph" => commands::graph::run(&args),
        "shard" => commands::shard::run_shard(&args),
        "merge" => commands::shard::run_merge(&args),
        "shard-plan" => commands::job::run_shard_plan(&args),
        "worker" => commands::job::run_worker_cmd(&args),
        "run-job" => commands::job::run_run_job(&args),
        "watch" => commands::watch::run_watch(&args),
        "serve" => commands::serve::run_serve(&args),
        "client" => commands::serve::run_client(&args),
        "help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_command_is_reported() {
        let err = run(["frobnicate"]).unwrap_err();
        assert!(matches!(err, CliError::UnknownCommand(_)));
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("contrast"));
    }

    #[test]
    fn arg_errors_bubble_up() {
        assert!(matches!(
            run(Vec::<String>::new()).unwrap_err(),
            CliError::Args(ArgError::MissingSubcommand)
        ));
    }
}
