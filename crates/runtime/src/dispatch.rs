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
use crate::spec::{JobMethod, JobPlan, JobSpec, TaskKind};
use crate::JobError;
use knnshap_core::estimator::{Data, Estimator, Family};
use knnshap_core::sharding::{ShardPartial, ShardSpec};
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
        TaskKind::Class => {
            TrainSet::Class(load_class_csv_from_reader(r, threads).map_err(|e| train_err(spec, e))?)
        }
        TaskKind::Reg => {
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

/// Bind a spec to its loaded datasets: the one estimator that plan, workers
/// and merge all derive the job identity (the dataset-content fingerprints
/// stamped into every `KNNSHARD` header) and the partials from. The data
/// checks (non-empty sets, matching dimensions, finite features) run here.
/// `data` may be owned or a borrowed view ([`Data::class`], [`Data::reg`])
/// of datasets the caller keeps.
pub fn bind<'a>(spec: &JobSpec, data: Data<'a>) -> Result<Estimator<'a>, JobError> {
    let seed = spec.seed;
    let family = match spec.method {
        JobMethod::Exact => Family::Exact,
        JobMethod::Truncated { eps } => Family::Truncated { eps },
        JobMethod::McBaseline { perms } => Family::McBaseline { perms, seed },
        JobMethod::McImproved { perms } => Family::McImproved { perms, seed },
        JobMethod::GroupTesting { tests } => Family::GroupTesting { tests, seed },
    };
    Estimator::new(data, spec.k, spec.weight, family, None)
        .map_err(|e| JobError::Dataset(e.to_string()))
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
    /// Validate `spec`, bind it to its datasets (parsed once, on `threads`
    /// workers) and derive its plan from them.
    /// [`plan_job`](crate::spec::plan_job) keeps only the plan;
    /// `shard-plan --auto` first times chunks on the bound estimator, then
    /// keeps the plan with its shard count set — the identity and counts do
    /// not depend on it.
    pub fn from_spec(spec: &JobSpec, threads: usize) -> Result<Self, JobError> {
        spec.validate()?;
        Ok(Self::derive(spec, bind(spec, load_data(spec, threads)?)?))
    }

    /// [`from_spec`](Self::from_spec) for `shard-plan`: the training CSV's
    /// bytes are digested as the parse reads them, and the training set's
    /// snapshot is staged in `dirs` on a second thread while the job
    /// identity is hashed. The caller publishes the snapshot once the plan
    /// is saved; a snapshot that could not be written is only a cache the
    /// job goes without.
    pub fn from_spec_with_snapshot(
        spec: &JobSpec,
        threads: usize,
        dirs: &JobDirs,
    ) -> Result<(Self, std::io::Result<Staged>), JobError> {
        spec.validate()?;
        let mut train = DigestReader::new(open_train(spec)?);
        let data = read_train(spec, threads, &mut train)?.with_test(spec, threads)?;
        let stamp = Stamp::of(train.digest());
        let estimator = bind(spec, data)?;
        let staged = std::thread::scope(|s| {
            let data = estimator.data();
            let staged = s.spawn(move || {
                dirs.create()?;
                snapshot::stage(dirs, data, stamp)
            });
            estimator.identity();
            staged.join().expect("snapshot writer panicked")
        });
        Ok((Self::derive(spec, estimator), staged))
    }

    fn derive(spec: &JobSpec, estimator: Estimator<'static>) -> Self {
        let (kind, fingerprint) = estimator.identity();
        let plan = JobPlan {
            spec: spec.clone(),
            kind,
            fingerprint,
            n_train: estimator.n_train() as u64,
            total_items: estimator.items() as u64,
        };
        Self { plan, estimator }
    }

    /// Bind `plan` to `data`, verifying the fingerprint: the identity is
    /// re-derived from the data actually loaded, and comparing the whole
    /// identity also catches a hand-edited plan file.
    fn verified(plan: &JobPlan, data: Data<'static>) -> Result<Self, JobError> {
        let Self {
            plan: derived,
            estimator,
        } = Self::derive(&plan.spec, bind(&plan.spec, data)?);
        if derived.fingerprint != plan.fingerprint {
            return Err(JobError::FingerprintMismatch {
                expected: plan.fingerprint,
                found: derived.fingerprint,
            });
        }
        if derived.kind != plan.kind
            || derived.n_train != plan.n_train
            || derived.total_items != plan.total_items
        {
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
        plan.spec.validate()?;
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
}
