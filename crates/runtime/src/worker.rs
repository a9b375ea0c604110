//! The worker loop: claim a shard, compute it chunk by chunk with
//! checkpoints, publish, repeat until nothing is claimable.
//!
//! ## Resume semantics
//!
//! A shard's range is the ordered concatenation of its canonical
//! micro-chunks ([`JobPlan::micro_spec`](crate::spec::JobPlan::micro_spec)).
//! The worker folds the chunks one after another into one running fold
//! (`Estimator::shard_fold`: one accumulator, one set of ranking buffers
//! and scratch for the whole shard) and checkpoints the fold after every
//! chunk — each checkpoint is itself a valid `KNNSHARD` file covering
//! `shard_lo .. chunk_end`, and the last one's bytes are the published
//! shard's. On claim, a worker first looks for a checkpoint; if it belongs
//! to this job (fingerprint), starts at the shard's start, and ends
//! **exactly on a chunk boundary**, the fold continues it and the covered
//! chunks are skipped. Anything else (corrupt bytes, stale job, different
//! chunk geometry) is discarded and the shard recomputes from scratch —
//! always sound, because exact accumulation makes the final bytes a pure
//! function of the covered range, however it was reassembled.
//!
//! ## Fault injection
//!
//! [`WorkerOptions::fault`] is consulted at the two interesting crash
//! points of every chunk — after computing it (checkpoint **not yet**
//! written) and after checkpointing it. Returning `true` makes the worker
//! abandon ship exactly as `kill -9` would: lease and checkpoint files are
//! left in place, nothing is cleaned up, and the caller gets
//! [`JobError::Crashed`]. The orchestration tests drive every kill point
//! this hook exposes; the CLI `worker` command wires it to the
//! `KNNSHAP_FAULT_AFTER_CHUNKS` environment variable (exiting the real
//! process) for process-level CI smoke tests.

use crate::dispatch::PreparedJob;
use crate::layout::JobDirs;
use crate::queue;
use crate::{io_err, JobError};

/// Where a fault hook is consulted (both are "between checkpoint writes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Chunk computed, checkpoint **not** written: the chunk's work is lost.
    AfterChunk { shard: usize, chunk: usize },
    /// Checkpoint written: the chunk's work survives the crash.
    AfterCheckpoint { shard: usize, chunk: usize },
}

/// A test hook deciding whether to crash at a [`FaultPoint`].
pub type FaultHook = Box<dyn FnMut(FaultPoint) -> bool + Send>;

/// Worker configuration.
pub struct WorkerOptions {
    /// Identity written into lease files (diagnostics only).
    pub worker_id: String,
    /// Threads for CSV parsing and the in-shard parallel folds (0 ⇒
    /// `knnshap_parallel::current_threads()`, i.e. `KNNSHAP_THREADS`-aware).
    pub threads: usize,
    /// Fault-injection hook; `None` in production.
    pub fault: Option<FaultHook>,
    /// Path to a precomputed `KNNGRAPH` artifact (`knnshap build-graph`).
    /// Loaded once, fingerprint-checked against the job's datasets, and used
    /// by every chunk this worker computes — skipping the distance pass
    /// while publishing the same bytes a graph-less worker would.
    pub graph: Option<std::path::PathBuf>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            worker_id: format!("pid{}", std::process::id()),
            threads: 0,
            fault: None,
            graph: None,
        }
    }
}

/// What a worker accomplished before exiting cleanly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Shards this worker claimed, completed and published.
    pub completed: Vec<usize>,
    /// Micro-chunks actually computed (excludes chunks skipped via resume).
    pub chunks_computed: usize,
    /// Shards whose computation resumed from a predecessor's checkpoint.
    pub resumed: usize,
}

/// Run one worker against a job directory until no shard is claimable:
/// every shard is either published or leased to someone else. Returns what
/// was accomplished; stale-lease recovery is the supervisor's business, not
/// the worker's.
pub fn run_worker(dirs: &JobDirs, mut opts: WorkerOptions) -> Result<WorkerReport, JobError> {
    let threads = crate::resolve_threads(opts.threads);
    let mut prepared = PreparedJob::load(dirs, threads, &opts.worker_id)?;
    if let Some(path) = &opts.graph {
        prepared.attach_graph(path)?;
    }
    let shards = prepared.plan().spec.shards;
    let mut report = WorkerReport::default();
    loop {
        let mut claimed_any = false;
        for i in dirs.missing_shards(shards) {
            let Some(lease) = queue::try_claim(dirs, i, &opts.worker_id)
                .map_err(|e| io_err(&dirs.lease_path(i), e))?
            else {
                continue; // someone else holds it
            };
            if dirs.shard_done(i) {
                // Published by a peer between our scan and the claim —
                // don't recompute a whole shard just to rewrite its bytes.
                lease.release().ok();
                continue;
            }
            claimed_any = true;
            crate::progress::append_event(
                dirs,
                "claim",
                &[
                    ("shard", i.into()),
                    ("worker", opts.worker_id.as_str().into()),
                ],
            );
            compute_shard(
                dirs,
                &prepared,
                i,
                &lease,
                threads,
                &mut opts.fault,
                &mut report,
            )?;
            queue::clear_checkpoint(dirs, i);
            lease.release().ok(); // already expired? fine — shard is published
            report.completed.push(i);
            crate::progress::append_event(
                dirs,
                "shard_done",
                &[
                    ("shard", i.into()),
                    ("worker", opts.worker_id.as_str().into()),
                ],
            );
        }
        if !claimed_any {
            // Everything is published or leased out; a worker that waited
            // here could wait forever on a dead peer — TTL recovery is the
            // supervisor's job, so exit cleanly instead.
            return Ok(report);
        }
    }
}

/// Compute shard `i` chunk by chunk on one running fold, resuming from a
/// valid checkpoint.
fn compute_shard(
    dirs: &JobDirs,
    prepared: &PreparedJob,
    i: usize,
    lease: &queue::Lease,
    threads: usize,
    fault: &mut Option<FaultHook>,
    report: &mut WorkerReport,
) -> Result<(), JobError> {
    let plan = prepared.plan();
    let chunks = plan.spec.checkpoint_chunks;
    let total = plan.total_items as usize;
    let chunk_range = |c| plan.micro_spec(i, c).range(total);

    // Adopt a checkpoint only if it provably covers a chunk-aligned prefix
    // of this shard of this job.
    let adopted = queue::read_checkpoint(dirs, i)
        .filter(|p| (0..chunks).any(|c| chunk_range(c).end == p.meta.item_hi as usize))
        .and_then(|p| prepared.shard_fold(i, Some(p)).ok());
    let mut started = adopted.is_some();
    if started {
        report.resumed += 1;
    }
    let mut fold = match adopted {
        Some(fold) => fold,
        None => prepared.shard_fold(i, None)?,
    };

    // The last checkpoint's bytes are the bytes the shard is published with.
    let mut bytes = None;
    let mut passes = 0;
    for c in 0..chunks {
        let range = chunk_range(c);
        if started && range.end <= fold.partial().meta.item_hi as usize {
            continue; // checkpointed, or an empty chunk after the first
        }
        fold.extend(range, threads)?;
        started = true;
        report.chunks_computed += 1;
        lease.heartbeat().ok();
        if crash(fault, FaultPoint::AfterChunk { shard: i, chunk: c }) {
            return Err(JobError::Crashed(format!(
                "injected fault after computing chunk {c} of shard {i}"
            )));
        }
        let encoded = fold.partial().to_bytes();
        queue::write_checkpoint(dirs, i, &encoded)
            .map_err(|e| io_err(&dirs.checkpoint_path(i), e))?;
        let now = fold.distance_passes();
        crate::progress::append_event(
            dirs,
            "chunk",
            &[
                ("shard", i.into()),
                ("chunk", c.into()),
                ("chunks", chunks.into()),
                ("item_hi", (fold.partial().meta.item_hi as usize).into()),
                ("passes", (now - passes).into()),
            ],
        );
        passes = now;
        bytes = Some(encoded);
        if crash(fault, FaultPoint::AfterCheckpoint { shard: i, chunk: c }) {
            return Err(JobError::Crashed(format!(
                "injected fault after checkpointing chunk {c} of shard {i}"
            )));
        }
    }
    let (done, shard) = (fold.partial(), plan.shard_range(i));
    debug_assert_eq!(done.meta.item_lo, shard.start as u64);
    debug_assert_eq!(done.meta.item_hi, shard.end as u64);
    // Nothing left to compute after a checkpoint that covered the shard.
    let bytes = bytes.unwrap_or_else(|| done.to_bytes());
    queue::publish_shard(dirs, i, &bytes).map_err(|e| io_err(&dirs.shard_path(i), e))
}

fn crash(fault: &mut Option<FaultHook>, at: FaultPoint) -> bool {
    fault.as_mut().is_some_and(|f| f(at))
}
