//! The supervisor: spawn local workers, expire stale leases, respawn while
//! unclaimed work remains, auto-merge on completion.
//!
//! `run_job` is what `knnshap run-job` executes. It owns no computation
//! itself; it watches the job directory (the single source of truth — the
//! same one remote workers on a shared filesystem would mutate), keeps the
//! configured number of local workers alive while any *claimable* shard
//! remains, and reclaims shards whose worker stopped heartbeating. When
//! every shard file exists it validates and merges them
//! (`merge_partials`), cross-checking the merged job identity against the
//! plan.
//!
//! Crash-tolerance invariants worth internalizing:
//!
//! * a worker death loses at most one micro-chunk of work (the rest is in
//!   its shard checkpoint, which its successor adopts);
//! * a *slow* worker wrongly presumed dead is harmless — the reassigned
//!   shard publishes canonical bytes, so whoever finishes last rewrites the
//!   identical file;
//! * the spawn budget ([`SupervisorOptions::max_spawns`]) bounds
//!   crash-loops: a job whose workers keep dying fails loudly with
//!   [`JobError::Workers`] instead of spinning forever.

use crate::layout::JobDirs;
use crate::queue;
use crate::spec::JobPlan;
use crate::worker::{run_worker, FaultHook, WorkerOptions, WorkerReport};
use crate::JobError;
use knnshap_core::sharding::{merge_partials, MergedValuation};
use std::path::PathBuf;
use std::time::Duration;

/// How the supervisor launches a worker.
pub enum Launcher {
    /// Spawn worker loops on threads of this process. `fault_factory`, if
    /// set, is consulted with the spawn sequence number and may hand the
    /// worker a fault-injection hook (tests of the respawn path).
    InProcess {
        fault_factory: Option<Box<dyn Fn(usize) -> Option<FaultHook> + Send + Sync>>,
    },
    /// Spawn `program args…` as a child process per worker (the CLI passes
    /// its own binary with `worker --job <dir>`). The child inherits the
    /// environment (`KNNSHAP_THREADS` included).
    Command { program: PathBuf, args: Vec<String> },
}

impl Default for Launcher {
    fn default() -> Self {
        Launcher::InProcess {
            fault_factory: None,
        }
    }
}

/// Supervisor configuration.
pub struct SupervisorOptions {
    /// Target number of live local workers.
    pub workers: usize,
    /// Threads per worker (0 ⇒ `KNNSHAP_THREADS` / all cores).
    pub threads: usize,
    /// A lease whose heartbeat is older than this is presumed dead.
    pub lease_ttl: Duration,
    /// Poll cadence of the watch loop.
    pub poll: Duration,
    /// Total spawn budget (initial workers + respawns after crashes).
    pub max_spawns: usize,
    pub launcher: Launcher,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            threads: 0,
            lease_ttl: Duration::from_secs(30),
            poll: Duration::from_millis(50),
            max_spawns: 16,
            launcher: Launcher::default(),
        }
    }
}

/// The merged result plus orchestration accounting.
#[derive(Debug)]
pub struct JobOutcome {
    /// The finalized valuation — bitwise-identical to the unsharded run.
    pub values: knnshap_core::ShapleyValues,
    /// Items the job consumed (test points or stream budget).
    pub items: u64,
    /// Workers spawned over the job's lifetime.
    pub spawned: usize,
    /// Stale leases expired (shards reassigned after a presumed death).
    pub reassigned: usize,
    /// Worker deaths observed (crashes or kills; clean exits not counted).
    pub worker_failures: usize,
}

enum Handle {
    Thread(std::thread::JoinHandle<Result<WorkerReport, JobError>>),
    Process(std::process::Child),
}

impl Handle {
    fn is_running(&mut self) -> bool {
        match self {
            Handle::Thread(h) => !h.is_finished(),
            Handle::Process(c) => matches!(c.try_wait(), Ok(None)),
        }
    }

    /// Join a finished handle; `Ok(true)` means the worker ended cleanly.
    fn reap(self) -> bool {
        match self {
            Handle::Thread(h) => matches!(h.join(), Ok(Ok(_))),
            Handle::Process(mut c) => c.wait().map(|s| s.success()).unwrap_or(false),
        }
    }
}

/// Orchestrate a planned job to completion and merge it. See module docs.
pub fn run_job(dirs: &JobDirs, opts: SupervisorOptions) -> Result<JobOutcome, JobError> {
    let plan = JobPlan::load(dirs)?;
    let shards = plan.spec.shards;
    let workers = opts.workers.max(1);
    let mut spawned = 0usize;
    let mut reassigned = 0usize;
    let mut failures = 0usize;
    let mut handles: Vec<Handle> = Vec::new();
    // Wait on the event stream instead of busy-polling: in-process workers
    // wake us the instant they claim/checkpoint/publish; `opts.poll` bounds
    // the wait for out-of-process workers (see crate::progress).
    let mut seen_gen = crate::progress::generation();

    let spawn = |seq: usize| -> Result<Handle, JobError> {
        match &opts.launcher {
            Launcher::InProcess { fault_factory } => {
                let fault = fault_factory.as_ref().and_then(|f| f(seq));
                let dirs = dirs.clone();
                let wopts = WorkerOptions {
                    worker_id: format!("inproc-{seq}"),
                    threads: opts.threads,
                    fault,
                    graph: None,
                };
                Ok(Handle::Thread(std::thread::spawn(move || {
                    run_worker(&dirs, wopts)
                })))
            }
            Launcher::Command { program, args } => std::process::Command::new(program)
                .args(args)
                .spawn()
                .map(Handle::Process)
                .map_err(|e| crate::io_err(program, e)),
        }
    };

    loop {
        // Reap finished workers (counting unclean deaths).
        let mut still = Vec::with_capacity(handles.len());
        for mut h in handles {
            if h.is_running() {
                still.push(h);
            } else if !h.reap() {
                failures += 1;
            }
        }
        handles = still;

        let missing = dirs.missing_shards(shards);
        if missing.is_empty() {
            break;
        }
        let expired = queue::expire_stale(dirs, shards, opts.lease_ttl)
            .map_err(|e| crate::io_err(dirs.root(), e))?;
        for &shard in &expired {
            crate::progress::append_event(dirs, "reassign", &[("shard", shard.into())]);
        }
        reassigned += expired.len();

        // A shard is claimable iff unfinished and unleased. Keep the worker
        // pool at strength while claimable work exists; when everything
        // outstanding is leased, live workers are (presumably) on it and
        // dead workers' leases will age out above.
        let claimable = missing.iter().any(|&i| !dirs.lease_path(i).exists());
        if claimable {
            while handles.len() < workers {
                if spawned >= opts.max_spawns {
                    if handles.is_empty() {
                        return Err(JobError::Workers(format!(
                            "spawn budget of {} workers exhausted with {} shard(s) \
                             outstanding ({} worker deaths observed) — the job is \
                             crashing faster than it progresses",
                            opts.max_spawns,
                            missing.len(),
                            failures,
                        )));
                    }
                    break;
                }
                handles.push(spawn(spawned)?);
                crate::progress::append_event(
                    dirs,
                    "spawn",
                    &[("seq", spawned.into()), ("workers", workers.into())],
                );
                spawned += 1;
            }
        }
        seen_gen = crate::progress::wait_for_event(seen_gen, opts.poll);
    }

    // All shards are published; workers exit on their own once nothing is
    // claimable. Reap them before merging so the accounting is complete.
    for mut h in handles.drain(..) {
        while h.is_running() {
            seen_gen = crate::progress::wait_for_event(seen_gen, opts.poll);
        }
        if !h.reap() {
            failures += 1;
        }
    }

    let merged = merge_job(dirs, &plan, crate::resolve_threads(opts.threads))?;
    crate::progress::append_event(
        dirs,
        "job_done",
        &[
            ("shards", shards.into()),
            ("spawned", spawned.into()),
            ("reassigned", reassigned.into()),
        ],
    );
    Ok(JobOutcome {
        values: merged.values,
        items: merged.items,
        spawned,
        reassigned,
        worker_failures: failures,
    })
}

/// Validate and merge a completed job directory against its plan. Exposed
/// separately so tests (and operators with remotely-computed shards) can
/// merge without spawning anything. The datasets are parsed on `threads`
/// workers.
pub fn merge_job(
    dirs: &JobDirs,
    plan: &JobPlan,
    threads: usize,
) -> Result<MergedValuation, JobError> {
    // Re-verify the datasets' *contents* before finalizing: when every
    // shard is already published, a merge-only `run_job` spawns no worker,
    // so this is the only place that catches CSVs edited after planning —
    // without it the report would pair stale values with drifted labels.
    // Dataset-content fingerprints make this O(dataset), not O(N · N_test).
    let data = crate::dispatch::load_data(&plan.spec, threads)?;
    let (_, fingerprint) = crate::dispatch::job_identity(&plan.spec, &data);
    if fingerprint != plan.fingerprint {
        return Err(JobError::FingerprintMismatch {
            expected: plan.fingerprint,
            found: fingerprint,
        });
    }
    let parts = queue::read_all_shards(dirs, plan.spec.shards)?;
    if let Some(p) = parts.first() {
        if p.meta.fingerprint != plan.fingerprint || p.meta.kind != plan.kind {
            return Err(JobError::Plan(format!(
                "shard files carry {} job {:016x} but the plan says {} job {:016x} — \
                 the job directory holds another job's shards",
                p.meta.kind.name(),
                p.meta.fingerprint,
                plan.kind.name(),
                plan.fingerprint,
            )));
        }
    }
    Ok(merge_partials(&parts)?)
}
