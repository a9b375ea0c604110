//! The supervisor: spawn local workers, expire stale leases, respawn while
//! unclaimed work remains, auto-merge on completion.
//!
//! `run_job` is what `knnshap run-job` executes. It owns no computation
//! itself; it watches the job directory (the single source of truth — the
//! same one remote workers on a shared filesystem would mutate), keeps the
//! configured number of local workers alive while any *claimable* shard
//! remains, and reclaims shards whose worker stopped heartbeating. When
//! every shard file exists and every worker has exited it validates and
//! merges them (`merge_partials`), cross-checking the merged job identity
//! against the plan.
//!
//! Each worker is watched by a thread of its own, which wakes the
//! supervisor the moment the worker exits; the poll tick
//! only bounds the wait for progress in other processes and drives lease
//! expiry. The merge tail then parses each dataset once, on the threads the
//! fleet held ([`tail_threads`]): it verifies the fingerprint, keeps the one
//! column the outputs need ([`Column`]) and drops the features before it
//! reads and merges the shards.
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
use crate::worker::{run_worker, FaultHook, WorkerOptions};
use crate::JobError;
use knnshap_core::estimator::Data;
use knnshap_core::sharding::{merge_partials, MergedValuation};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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
    /// Longest wait between two looks at the job directory (worker exits
    /// and in-process events wake the supervisor sooner).
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
    /// The training set's label or target column, for the values CSV and
    /// the report.
    pub column: Column,
    /// Points in the job's test set.
    pub n_test: usize,
    /// Workers spawned over the job's lifetime.
    pub spawned: usize,
    /// Stale leases expired (shards reassigned after a presumed death).
    pub reassigned: usize,
    /// Worker deaths observed (crashes or kills; clean exits not counted).
    pub worker_failures: usize,
}

/// The one training-set column a job's outputs print next to each value.
#[derive(Debug)]
pub enum Column {
    /// Class labels of a classification job.
    Labels(Vec<u32>),
    /// Targets of a regression job.
    Targets(Vec<f64>),
}

/// Threads the merge tail runs on once every worker has exited: the cores
/// the fleet held, `workers × threads` (`threads` per worker, `0` ⇒ the
/// default budget), capped at the default budget
/// (`knnshap_parallel::current_threads()`). The tail's parse and the CLI's
/// ordered CSV writer give the same bytes at any thread count.
pub fn tail_threads(workers: usize, threads: usize) -> usize {
    workers
        .max(1)
        .saturating_mul(crate::resolve_threads(threads))
        .min(knnshap_parallel::current_threads())
}

/// A launched worker, watched by a thread of its own: in-process the thread
/// runs the worker loop, for a child process it waits on the child. When
/// the worker ends — cleanly, with an error or by unwinding — the thread's
/// [`Exited`] guard marks the handle finished and wakes the supervisor.
struct Handle {
    done: Arc<AtomicBool>,
    thread: JoinHandle<bool>,
}

impl Handle {
    /// Watch `worker`, which returns whether the worker ended cleanly.
    fn watch(worker: impl FnOnce() -> bool + Send + 'static) -> Self {
        let done = Arc::new(AtomicBool::new(false));
        let exited = Exited(Arc::clone(&done));
        let thread = std::thread::spawn(move || {
            let _exited = exited;
            worker()
        });
        Handle { done, thread }
    }

    fn is_running(&self) -> bool {
        !self.done.load(Ordering::Acquire)
    }

    /// Join a finished handle; `true` means the worker ended cleanly.
    fn reap(self) -> bool {
        matches!(self.thread.join(), Ok(true))
    }
}

/// Marks a [`Handle`] finished, then wakes the supervisor, when its thread
/// ends. The flag is stored (`Release`, paired with the `Acquire` in
/// [`Handle::is_running`]) before the wake-up, so a woken supervisor sees
/// it; `JoinHandle::is_finished` could still read `false` at that point.
struct Exited(Arc<AtomicBool>);

impl Drop for Exited {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
        crate::progress::notify();
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
    // wake us the instant they claim/checkpoint/publish, and every worker
    // wakes us when it exits; `opts.poll` bounds the wait for progress in
    // other processes and paces lease expiry (see crate::progress).
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
                Ok(Handle::watch(move || run_worker(&dirs, wopts).is_ok()))
            }
            Launcher::Command { program, args } => {
                let mut child = std::process::Command::new(program)
                    .args(args)
                    .spawn()
                    .map_err(|e| crate::io_err(program, e))?;
                Ok(Handle::watch(move || {
                    child.wait().is_ok_and(|status| status.success())
                }))
            }
        }
    };

    loop {
        // Reap finished workers (counting unclean deaths).
        let mut still = Vec::with_capacity(handles.len());
        for h in handles {
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
    // claimable. Reap them before merging so the accounting is complete and
    // the tail has their cores.
    for h in handles.drain(..) {
        while h.is_running() {
            seen_gen = crate::progress::wait_for_event(seen_gen, opts.poll);
        }
        if !h.reap() {
            failures += 1;
        }
    }

    let (merged, column, n_test) = merge_tail(dirs, &plan, tail_threads(workers, opts.threads))?;
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
        column,
        n_test,
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
    merge_tail(dirs, plan, threads).map(|(merged, _, _)| merged)
}

/// The merge both [`run_job`] and [`merge_job`] end in: load the datasets
/// once, verify them, keep the label column and the test count, then merge.
fn merge_tail(
    dirs: &JobDirs,
    plan: &JobPlan,
    threads: usize,
) -> Result<(MergedValuation, Column, usize), JobError> {
    // Re-verify the datasets' *contents* before finalizing: when every
    // shard is already published, a merge-only `run_job` spawns no worker,
    // so this is the only place that catches CSVs edited after planning —
    // without it the report would pair stale values with drifted labels.
    // Dataset-content fingerprints make this O(dataset), not O(N · N_test).
    let data = crate::dispatch::load_data(&plan.spec, threads)?;
    let view = match &data {
        Data::Class { train, test } => Data::class(train, test),
        Data::Reg { train, test } => Data::reg(train, test),
    };
    let (_, fingerprint) = crate::dispatch::bind(&plan.spec, view)?.identity();
    if fingerprint != plan.fingerprint {
        return Err(JobError::FingerprintMismatch {
            expected: plan.fingerprint,
            found: fingerprint,
        });
    }
    // The features go before the shards are read: the merge's peak memory
    // holds the partials and one column, never a dataset.
    let (column, n_test) = match data {
        Data::Class { train, test } => (Column::Labels(train.into_owned().y), test.len()),
        Data::Reg { train, test } => (Column::Targets(train.into_owned().y), test.len()),
    };
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
    Ok((merge_partials(&parts)?, column, n_test))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handle marks itself finished and wakes a waiting supervisor
    /// however its worker ends: cleanly, with an error, or by unwinding.
    #[test]
    fn a_handle_wakes_the_supervisor_however_its_worker_ends() {
        type Worker = Box<dyn FnOnce() -> bool + Send>;
        let cases: [(bool, Worker); 3] = [
            (true, Box::new(|| true)),
            (false, Box::new(|| false)),
            (false, Box::new(|| panic!("injected worker panic"))),
        ];
        for (clean, worker) in cases {
            let (go, wait) = std::sync::mpsc::channel::<()>();
            let mut seen = crate::progress::generation();
            let h = Handle::watch(move || {
                wait.recv().ok();
                worker()
            });
            assert!(h.is_running(), "the worker is held until `go`");
            go.send(()).unwrap();
            let start = std::time::Instant::now();
            while h.is_running() {
                seen = crate::progress::wait_for_event(seen, Duration::from_secs(60));
                assert!(
                    start.elapsed() < Duration::from_secs(50),
                    "the exit never woke the waiter"
                );
            }
            assert_eq!(h.reap(), clean);
        }
    }

    #[test]
    fn the_tail_uses_the_fleets_cores_up_to_the_default_budget() {
        let cap = knnshap_parallel::current_threads();
        assert_eq!(tail_threads(1, 1), 1);
        assert_eq!(tail_threads(0, 1), 1, "at least one worker");
        assert_eq!(tail_threads(2, 1), 2.min(cap));
        assert_eq!(tail_threads(3, 2), 6.min(cap));
        assert_eq!(tail_threads(2, 0), cap, "0 threads ⇒ the default budget");
        assert_eq!(tail_threads(usize::MAX, 8), cap);
    }
}
