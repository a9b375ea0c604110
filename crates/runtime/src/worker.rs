//! The worker loop: claim a shard, compute it chunk by chunk with
//! checkpoints, publish, repeat until nothing is claimable.
//!
//! ## Resume semantics
//!
//! A shard's range is the ordered concatenation of its canonical
//! micro-chunks ([`JobPlan::micro_spec`](crate::spec::JobPlan::micro_spec)).
//! The worker folds finished chunks into an accumulated partial with
//! `ShardPartial::absorb_adjacent` and checkpoints the accumulation after
//! every chunk — each checkpoint is itself a valid `KNNSHARD` file covering
//! `shard_lo .. chunk_end`. On claim, a worker first looks for a
//! checkpoint; if it belongs to this job (fingerprint), starts at the
//! shard's start, and ends **exactly on a chunk boundary**, the covered
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
use knnshap_core::sharding::ShardPartial;

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
        let graph = knnshap_knn::graph::KnnGraph::load(path)
            .map_err(|e| JobError::Dataset(format!("{}: {e}", path.display())))?;
        prepared.attach_graph(graph)?;
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

/// Compute shard `i` chunk by chunk, resuming from a valid checkpoint.
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
    let shard_range = plan.shard_range(i);
    let total = plan.total_items as usize;

    // Adopt a checkpoint only if it provably covers a chunk-aligned prefix
    // of this shard of this job.
    let mut acc: Option<ShardPartial> = queue::read_checkpoint(dirs, i).filter(|p| {
        p.meta.fingerprint == plan.fingerprint
            && p.meta.kind == plan.kind
            && p.meta.item_lo as usize == shard_range.start
            && p.meta.item_hi as usize <= shard_range.end
            && (0..chunks)
                .any(|c| plan.micro_spec(i, c).range(total).end == p.meta.item_hi as usize)
    });
    if acc.is_some() {
        report.resumed += 1;
    }

    for c in 0..chunks {
        let chunk_range = plan.micro_spec(i, c).range(total);
        if let Some(p) = &acc {
            if chunk_range.end <= p.meta.item_hi as usize {
                continue; // covered by the checkpoint
            }
        }
        let part = prepared.compute_chunk(plan.micro_spec(i, c), threads);
        report.chunks_computed += 1;
        match &mut acc {
            None => acc = Some(part),
            Some(a) => a.absorb_adjacent(&part)?,
        }
        lease.heartbeat().ok();
        if crash(fault, FaultPoint::AfterChunk { shard: i, chunk: c }) {
            return Err(JobError::Crashed(format!(
                "injected fault after computing chunk {c} of shard {i}"
            )));
        }
        let a = acc.as_ref().expect("accumulated above");
        queue::write_checkpoint(dirs, i, a).map_err(|e| io_err(&dirs.checkpoint_path(i), e))?;
        crate::progress::append_event(
            dirs,
            "chunk",
            &[
                ("shard", i.into()),
                ("chunk", c.into()),
                ("chunks", chunks.into()),
                ("item_hi", (a.meta.item_hi as usize).into()),
            ],
        );
        if crash(fault, FaultPoint::AfterCheckpoint { shard: i, chunk: c }) {
            return Err(JobError::Crashed(format!(
                "injected fault after checkpointing chunk {c} of shard {i}"
            )));
        }
    }
    let done = acc.expect("checkpoint_chunks >= 1 always computes at least one chunk");
    debug_assert_eq!(done.meta.item_lo as usize, shard_range.start);
    debug_assert_eq!(done.meta.item_hi as usize, shard_range.end);
    queue::publish_shard(dirs, i, &done).map_err(|e| io_err(&dirs.shard_path(i), e))
}

fn crash(fault: &mut Option<FaultHook>, at: FaultPoint) -> bool {
    fault.as_mut().is_some_and(|f| f(at))
}
