//! # knnshap_runtime — plan, execute, checkpoint and resume sharded
//! valuation fleets
//!
//! `knnshap_core::sharding` (PR 4) made every additive estimator *splittable*:
//! a shard computes exact partial sums over a canonical item range and the
//! merge is bitwise-identical to the unsharded run. But "splittable" is not
//! "operable" — an operator still had to hand-craft one `knnshap shard`
//! invocation per range, babysit the processes, and re-run anything that
//! died. This crate is the missing layer: a **job-orchestration runtime**
//! that turns one job description into a supervised, restartable fleet.
//!
//! The moving parts, bottom to top:
//!
//! * [`spec`] — a versioned on-disk **job plan** (`KNNJOBPLAN`): datasets,
//!   estimator family, parameters, shard count, checkpoint granularity, and
//!   the job fingerprint everything downstream is cross-checked against.
//!   Written once by `knnshap shard-plan`, read by every worker and the
//!   supervisor.
//! * [`layout`] — the job directory (`plan` + `shards/` + `leases/` +
//!   `checkpoints/`) and crash-safe publication: files land under temporary
//!   names and are moved into place with **atomic renames**, so a reader
//!   never observes a half-written shard or checkpoint.
//! * [`queue`] — a coordination-free **file-based work queue** over a shared
//!   filesystem. A worker claims shard `i` by exclusively creating
//!   `leases/s<i>.lease` (`O_CREAT|O_EXCL` — first writer wins, every other
//!   claimant loses cleanly); heartbeats refresh the lease's mtime; the
//!   supervisor expires leases whose heartbeat went stale and the shard
//!   becomes claimable again.
//! * [`dispatch`] — loads the datasets named by the plan, **verifies the job
//!   fingerprint** (a plan pointed at edited CSVs fails loudly instead of
//!   merging garbage), and computes micro-chunk partials for all seven
//!   shardable estimator families through the `knnshap_core` shard entry
//!   points.
//! * [`worker`] — the claim → compute → checkpoint → publish loop. A shard
//!   is computed as a sequence of canonical micro-chunks; after each chunk
//!   the accumulated partial (a valid `KNNSHARD` file covering a prefix of
//!   the shard's range) is checkpointed, so a killed worker **resumes
//!   mid-shard** from the last checkpoint. A fault-injection hook lets tests
//!   kill workers between any two writes.
//! * [`supervisor`] — `run_job`: spawns N local workers (in-process threads
//!   or `knnshap worker` processes), expires stale leases, respawns workers
//!   while unclaimed work remains, and **auto-merges** the completed shard
//!   set through `merge_partials`, cross-checking the result against the
//!   plan's fingerprint.
//! * [`fleet`] — a small bounded process pool (used by the bench battery's
//!   `run_all` to fan experiments out across processes).
//!
//! ### Determinism contract
//!
//! Everything the runtime adds is *bookkeeping*; the numbers flow through
//! the exact accumulators and canonical shard ranges of
//! `knnshap_core::sharding`. Consequently the merged valuation is
//! **bitwise-identical to the unsharded run** for every worker count, every
//! thread count, every checkpoint granularity, every crash/resume/reassign
//! schedule — and every interleaving the scheduler happens to produce.
//! Shard files are canonical, so even a shard computed twice (a stale lease
//! reassigned while the original worker limps on) publishes the same bytes;
//! last-write-wins is harmless. `crates/runtime/tests/orchestration.rs`
//! holds the runtime to this across all seven estimator families, worker
//! counts {1, 2, 4}, and kill points between every checkpoint write.
//!
//! `docs/operations.md` is the operator's handbook (job-dir layout,
//! lease/checkpoint semantics, failure-mode table, worked example).
//!
//! ```no_run
//! use knnshap_runtime::spec::{JobMethod, JobSpec, TaskKind};
//! use knnshap_runtime::supervisor::{run_job, SupervisorOptions};
//! use knnshap_runtime::layout::JobDirs;
//!
//! let spec = JobSpec {
//!     task: TaskKind::Class,
//!     train: "train.csv".into(),
//!     test: "test.csv".into(),
//!     k: 3,
//!     weight: knnshap_knn::weights::WeightFn::Uniform,
//!     method: JobMethod::Exact,
//!     seed: 42,
//!     shards: 8,
//!     checkpoint_chunks: 4,
//! };
//! let dirs = JobDirs::new("job");
//! knnshap_runtime::spec::plan_job(&spec, knnshap_parallel::current_threads())?.save(&dirs)?;
//! let outcome = run_job(&dirs, SupervisorOptions::default())?;
//! println!("total value {}", outcome.values.total());
//! # Ok::<(), knnshap_runtime::JobError>(())
//! ```

pub mod dispatch;
pub mod fleet;
pub mod layout;
pub mod progress;
pub mod queue;
pub mod spec;
pub mod supervisor;
pub mod worker;

use knnshap_core::sharding::ShardError;

/// A worker/supervisor thread option: `0` means
/// `knnshap_parallel::current_threads()`.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        knnshap_parallel::current_threads()
    } else {
        threads
    }
}

/// Everything that can go wrong planning, executing, or merging a job.
#[derive(Debug)]
pub enum JobError {
    /// Filesystem trouble, with the path it happened on.
    Io(String, std::io::Error),
    /// Dataset file contents (CSV parse, dimension mismatch…).
    Dataset(String),
    /// A plan file that does not parse or carries an unsupported version.
    Plan(String),
    /// A spec that names an impossible job (bad combos, zero shards…).
    Spec(String),
    /// The datasets on disk no longer match the plan's job fingerprint.
    FingerprintMismatch { expected: u64, found: u64 },
    /// Shard-file or merge validation failures.
    Shard(ShardError),
    /// A worker hit an injected fault (tests) or unrecoverable state.
    Crashed(String),
    /// The supervisor ran out of its spawn budget with work outstanding.
    Workers(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Io(path, e) => write!(f, "{path}: {e}"),
            JobError::Dataset(m) => write!(f, "dataset error: {m}"),
            JobError::Plan(m) => write!(f, "job plan error: {m}"),
            JobError::Spec(m) => write!(f, "job spec error: {m}"),
            JobError::FingerprintMismatch { expected, found } => write!(
                f,
                "job fingerprint mismatch: the plan was built for {expected:016x} but the \
                 datasets on disk produce {found:016x} — the train/test files changed after \
                 `shard-plan` (re-plan, or restore the original files)"
            ),
            JobError::Shard(e) => write!(f, "{e}"),
            JobError::Crashed(m) => write!(f, "worker crashed: {m}"),
            JobError::Workers(m) => write!(f, "supervisor error: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<ShardError> for JobError {
    fn from(e: ShardError) -> Self {
        JobError::Shard(e)
    }
}

/// Attach a path to an `io::Error` (the bare error never names the file).
pub(crate) fn io_err(path: &std::path::Path, e: std::io::Error) -> JobError {
    JobError::Io(path.display().to_string(), e)
}
