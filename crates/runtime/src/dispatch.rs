//! From plan to partial sums: load the datasets a plan names, verify the
//! job fingerprint against their *contents*, and compute micro-chunk
//! partials through the `knnshap_core::estimator` seam — all seven
//! shardable estimator families behind one value.

use crate::spec::{JobMethod, JobPlan, JobSpec, TaskKind};
use crate::JobError;
use knnshap_core::estimator::{Data, Estimator, Family};
use knnshap_core::sharding::{ShardPartial, ShardSpec};
use knnshap_knn::graph::KnnGraph;
use std::borrow::Cow;

/// Load the CSVs a spec names on `threads` parse workers.
pub fn load_data(spec: &JobSpec, threads: usize) -> Result<Data<'static>, JobError> {
    use knnshap_datasets::io::{load_class_csv_with_threads, load_reg_csv_with_threads};
    let at = |path: &std::path::Path, e| JobError::Dataset(format!("{}: {e}", path.display()));
    let (train, test) = (&spec.train, &spec.test);
    Ok(match spec.task {
        TaskKind::Class => Data::Class {
            train: Cow::Owned(
                load_class_csv_with_threads(train, threads).map_err(|e| at(train, e))?,
            ),
            test: Cow::Owned(load_class_csv_with_threads(test, threads).map_err(|e| at(test, e))?),
        },
        TaskKind::Reg => Data::Reg {
            train: Cow::Owned(load_reg_csv_with_threads(train, threads).map_err(|e| at(train, e))?),
            test: Cow::Owned(load_reg_csv_with_threads(test, threads).map_err(|e| at(test, e))?),
        },
    })
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
        let estimator = bind(spec, load_data(spec, threads)?)?;
        let (kind, fingerprint) = estimator.identity();
        let plan = JobPlan {
            spec: spec.clone(),
            kind,
            fingerprint,
            n_train: estimator.n_train() as u64,
            total_items: estimator.items() as u64,
        };
        Ok(Self { plan, estimator })
    }

    /// Bind `plan` to its datasets (parsed on `threads` workers), verifying
    /// the fingerprint.
    pub fn from_plan(plan: JobPlan, threads: usize) -> Result<Self, JobError> {
        // Re-derive the identity from the files actually read; comparing the
        // whole identity also catches a hand-edited plan file.
        let Self {
            plan: derived,
            estimator,
        } = Self::from_spec(&plan.spec, threads)?;
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
        Ok(Self { plan, estimator })
    }

    /// Load the plan from a job directory and bind it.
    pub fn load(dirs: &crate::layout::JobDirs, threads: usize) -> Result<Self, JobError> {
        Self::from_plan(JobPlan::load(dirs)?, threads)
    }

    /// Attach a precomputed KNN graph. The graph's dataset-content
    /// fingerprints must match the datasets this job actually loaded — a
    /// graph built from drifted CSVs is refused here, before any chunk is
    /// computed, for the same reason `from_plan` verifies the job
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
