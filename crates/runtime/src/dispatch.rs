//! From plan to partial sums: load the datasets a plan names, verify the
//! job fingerprint against their *contents*, and compute micro-chunk
//! partials through the `knnshap_core::estimator` seam — all seven
//! shardable estimator families behind one value.
//!
//! `shard-plan` parses the training CSV once and leaves its rows in the
//! job's snapshot ([`crate::snapshot`]); workers and the merge tail load
//! them from there through `load_checked` while the CSV is unchanged.

use crate::layout::{JobDirs, Staged};
use crate::snapshot::{self, Miss, Stamp, TrainSet};
use crate::spec::{JobPlan, JobSpec};
use crate::JobError;
use knnshap_core::estimator::{Data, Estimator, ShardFold, Task};
use knnshap_core::sharding::{ShardError, ShardPartial, ShardSpec};
use knnshap_datasets::io::{load_class_csv_from_reader, load_reg_csv_from_reader, IoError};
use knnshap_knn::graph::KnnGraph;
use knnshap_numerics::fingerprint::DigestReader;
use std::io::Read;
use std::time::Instant;

/// Load the CSVs a spec names on `threads` parse workers.
pub fn load_data(spec: &JobSpec, threads: usize) -> Result<Data<'static>, JobError> {
    read_train(spec, threads, open_train(spec)?)?.with_test(spec, threads)
}

fn open_train(spec: &JobSpec) -> Result<std::fs::File, JobError> {
    std::fs::File::open(&spec.train).map_err(|e| train_err(spec, IoError::Io(e)))
}

fn train_err(spec: &JobSpec, e: IoError) -> JobError {
    JobError::Dataset(format!("{}: {e}", spec.train.display()))
}

/// Parse the spec's training CSV from `r` on `threads` workers.
fn read_train(spec: &JobSpec, threads: usize, r: impl Read + Send) -> Result<TrainSet, JobError> {
    Ok(match spec.task {
        Task::Class => {
            TrainSet::Class(load_class_csv_from_reader(r, threads).map_err(|e| train_err(spec, e))?)
        }
        Task::Reg => {
            TrainSet::Reg(load_reg_csv_from_reader(r, threads).map_err(|e| train_err(spec, e))?)
        }
    })
}

/// Load a planned job's datasets and hand them to `check`, which verifies
/// them against the plan: from the job's training-set snapshot when it is
/// current, otherwise — or when `check` rejects the snapshot's rows — from
/// the CSVs. Appends one `load` event to `events.jsonl`: its `source`
/// (`snapshot` or `csv`), the `reason` the snapshot missed, the `secs`
/// spent loading and checking, and the loading `worker`, if any.
pub(crate) fn load_checked<T>(
    dirs: &JobDirs,
    plan: &JobPlan,
    threads: usize,
    worker: Option<&str>,
    check: impl Fn(Data<'static>) -> Result<T, JobError>,
) -> Result<T, JobError> {
    let start = Instant::now();
    let miss = match snapshot::read(dirs, &plan.spec) {
        Ok(train) => match check(train.with_test(&plan.spec, threads)?) {
            Ok(t) => {
                log_load(dirs, worker, None, start);
                return Ok(t);
            }
            Err(_) => Miss::Identity,
        },
        Err(miss) => miss,
    };
    let t = check(load_data(&plan.spec, threads)?)?;
    log_load(dirs, worker, Some(miss), start);
    Ok(t)
}

fn log_load(dirs: &JobDirs, worker: Option<&str>, miss: Option<Miss>, start: Instant) {
    let mut fields = vec![(
        "source",
        if miss.is_some() { "csv" } else { "snapshot" }.into(),
    )];
    if let Some(miss) = miss {
        fields.push(("reason", miss.reason().into()));
    }
    fields.push(("secs", start.elapsed().as_secs_f64().into()));
    if let Some(worker) = worker {
        fields.push(("worker", worker.into()));
    }
    crate::progress::append_event(dirs, "load", &fields);
}

/// The plan `spec` derives over the datasets `estimator` binds: the job
/// identity (kind, dataset-content fingerprint, item counts) — the one
/// place fingerprints enter the system.
pub(crate) fn derive_plan(spec: &JobSpec, estimator: &Estimator) -> JobPlan {
    let (kind, fingerprint) = estimator.identity();
    JobPlan {
        spec: spec.clone(),
        kind,
        fingerprint,
        n_train: estimator.n_train() as u64,
        total_items: estimator.items() as u64,
    }
}

/// Compare the plan `estimator` derives from the datasets actually loaded
/// with `plan`: the fingerprint, then the kind and the counts, which also
/// catches a hand-edited plan file. Workers and the merge both run it.
pub(crate) fn check_identity(plan: &JobPlan, estimator: &Estimator) -> Result<(), JobError> {
    let derived = derive_plan(&plan.spec, estimator);
    if derived.fingerprint != plan.fingerprint {
        return Err(JobError::FingerprintMismatch {
            expected: plan.fingerprint,
            found: derived.fingerprint,
        });
    }
    let counts = |p: &JobPlan| (p.kind, p.n_train, p.total_items);
    if counts(&derived) != counts(plan) {
        return Err(JobError::Plan(format!(
            "plan disagrees with its spec: derived {} / {} train / {} items, plan says \
             {} / {} train / {} items",
            derived.kind.name(),
            derived.n_train,
            derived.total_items,
            plan.kind.name(),
            plan.n_train,
            plan.total_items,
        )));
    }
    Ok(())
}

/// A plan bound to its verified datasets, ready to compute chunks.
///
/// Construction re-derives the job identity from the files actually read
/// and compares it to the plan's — a worker pointed at a drifted CSV (one
/// edited row is enough) refuses to compute instead of publishing partials
/// that would poison the merge. The identity is computed once here, and
/// the stochastic utilities (distance matrices) lazily, once per
/// `PreparedJob`; both are reused across every chunk and shard the owning
/// worker computes.
pub struct PreparedJob {
    plan: JobPlan,
    estimator: Estimator<'static>,
}

impl PreparedJob {
    /// Validate `spec`, bind it to its datasets and derive its plan from
    /// them, for `shard-plan`: the training CSV's bytes are digested as the
    /// parse (on `threads` workers) reads them, and the training set's
    /// snapshot is staged in `dirs` on a second thread while the job
    /// identity is hashed. The caller publishes the snapshot once the plan
    /// is saved; a snapshot that could not be written is only a cache the
    /// job goes without. `shard-plan --auto` first times chunks on the
    /// bound estimator, then keeps the plan with its shard count set — the
    /// identity and counts do not depend on it.
    pub fn from_spec_with_snapshot(
        spec: &JobSpec,
        threads: usize,
        dirs: &JobDirs,
    ) -> Result<(Self, std::io::Result<Staged>), JobError> {
        spec.validate()?;
        let mut train = DigestReader::new(open_train(spec)?);
        let data = read_train(spec, threads, &mut train)?.with_test(spec, threads)?;
        let stamp = Stamp::of(train.digest());
        let estimator = Estimator::new(data, spec.k, spec.weight, spec.family, None)?;
        let staged = std::thread::scope(|s| {
            let data = estimator.data();
            let staged = s.spawn(move || {
                dirs.create()?;
                snapshot::stage(dirs, data, stamp)
            });
            estimator.identity();
            staged.join().expect("snapshot writer panicked")
        });
        let plan = derive_plan(spec, &estimator);
        Ok((Self { plan, estimator }, staged))
    }

    /// Bind `plan` to `data`, verifying the identity the data derives
    /// ([`check_identity`]).
    fn verified(plan: &JobPlan, data: Data<'static>) -> Result<Self, JobError> {
        let s = &plan.spec;
        let estimator = Estimator::new(data, s.k, s.weight, s.family, None)?;
        check_identity(plan, &estimator)?;
        Ok(Self {
            plan: plan.clone(),
            estimator,
        })
    }

    /// Load the plan from a job directory and bind it to its verified
    /// datasets (parsed on `threads` workers, or read from the job's
    /// snapshot), logging the load as `worker`'s.
    pub fn load(dirs: &JobDirs, threads: usize, worker: &str) -> Result<Self, JobError> {
        let plan = JobPlan::load(dirs)?;
        load_checked(dirs, &plan, threads, Some(worker), |data| {
            Self::verified(&plan, data)
        })
    }

    /// Attach a precomputed KNN graph. The graph's dataset-content
    /// fingerprints must match the datasets this job actually loaded — a
    /// graph built from drifted CSVs is refused here, before any chunk is
    /// computed, for the same reason `load` verifies the job
    /// fingerprint. With a graph every chunk skips the distance pass; the
    /// published bytes are identical either way.
    pub fn attach_graph(&mut self, graph: KnnGraph) -> Result<(), JobError> {
        self.estimator
            .attach_graph(graph)
            .map_err(|e| JobError::Dataset(format!("precomputed graph rejected: {e}")))
    }

    pub fn plan(&self) -> &JobPlan {
        &self.plan
    }

    /// The plan, without the datasets.
    pub fn into_plan(self) -> JobPlan {
        self.plan
    }

    /// Compute the partial of one canonical chunk (`spec` indexes the
    /// micro-partition — or the shard partition itself when
    /// `checkpoint_chunks == 1`). Pure: a function of the job and the chunk
    /// range only, per the `knnshap_core::sharding` determinism contract.
    pub fn compute_chunk(&self, chunk: ShardSpec, threads: usize) -> ShardPartial {
        self.estimator.compute(chunk, threads)
    }

    /// Start folding shard `shard` chunk by chunk, from its start or on
    /// from `from`, a checkpoint of this job covering a prefix of it (see
    /// `Estimator::shard_fold`: a checkpoint of another job, or one that
    /// is no prefix of the shard, is an error).
    pub fn shard_fold(
        &self,
        shard: usize,
        from: Option<ShardPartial>,
    ) -> Result<ShardFold<'_, 'static>, ShardError> {
        self.estimator
            .shard_fold(self.plan.shard_range(shard), from)
    }
}
