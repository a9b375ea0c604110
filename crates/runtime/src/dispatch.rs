//! From plan to partial sums: load the datasets a plan names, verify the
//! job fingerprint against their *contents*, and compute micro-chunk
//! partials through the `knnshap_core` shard entry points — all seven
//! shardable estimator families behind one call.

use crate::spec::{JobMethod, JobPlan, JobSpec, TaskKind};
use crate::JobError;
use knnshap_core::mc::IncKnnUtility;
use knnshap_core::sharding::{ShardKind, ShardPartial, ShardSpec};
use knnshap_core::utility::KnnClassUtility;
use knnshap_datasets::{ClassDataset, RegDataset};
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::weights::WeightFn;
use std::cell::OnceCell;

/// The datasets of one job, typed by task.
pub enum JobData {
    Class {
        train: ClassDataset,
        test: ClassDataset,
    },
    Reg {
        train: RegDataset,
        test: RegDataset,
    },
}

impl JobData {
    /// `(n_train, n_test)`.
    pub fn sizes(&self) -> (usize, usize) {
        match self {
            JobData::Class { train, test } => (train.len(), test.len()),
            JobData::Reg { train, test } => (train.len(), test.len()),
        }
    }
}

/// Load the CSVs a spec names on `threads` parse workers, with the
/// structural checks every consumer needs (matching dimensions, non-empty
/// test set).
pub fn load_data(spec: &JobSpec, threads: usize) -> Result<JobData, JobError> {
    use knnshap_datasets::io::{load_class_csv_with_threads, load_reg_csv_with_threads};
    let ds = |m: String| JobError::Dataset(m);
    let at = |path: &std::path::Path, e| ds(format!("{}: {e}", path.display()));
    let (train, test) = (&spec.train, &spec.test);
    let data = match spec.task {
        TaskKind::Class => JobData::Class {
            train: load_class_csv_with_threads(train, threads).map_err(|e| at(train, e))?,
            test: load_class_csv_with_threads(test, threads).map_err(|e| at(test, e))?,
        },
        TaskKind::Reg => JobData::Reg {
            train: load_reg_csv_with_threads(train, threads).map_err(|e| at(train, e))?,
            test: load_reg_csv_with_threads(test, threads).map_err(|e| at(test, e))?,
        },
    };
    let (train_dim, test_dim, n_test) = match &data {
        JobData::Class { train, test } => (train.dim(), test.dim(), test.len()),
        JobData::Reg { train, test } => (train.dim(), test.dim(), test.len()),
    };
    if train_dim != test_dim {
        return Err(ds(format!(
            "train has {train_dim} features but test has {test_dim}"
        )));
    }
    if n_test == 0 {
        return Err(ds("need at least one test point".into()));
    }
    Ok(data)
}

/// The `(kind, fingerprint)` identity of a job over its loaded data — the
/// same dataset-content fingerprints the shard entry points stamp into
/// every `KNNSHARD` header, so plan, workers and merge all agree.
pub fn job_identity(spec: &JobSpec, data: &JobData) -> (ShardKind, u64) {
    let uniform = matches!(spec.weight, WeightFn::Uniform);
    match (data, spec.method) {
        (JobData::Class { train, test }, JobMethod::Exact) if uniform => (
            ShardKind::ExactClass,
            knnshap_core::exact_unweighted::class_fingerprint(train, test, spec.k),
        ),
        (JobData::Class { train, test }, JobMethod::Exact) => (
            ShardKind::ExactClass,
            knnshap_core::exact_weighted::weighted_class_fingerprint(
                train,
                test,
                spec.k,
                spec.weight,
            ),
        ),
        (JobData::Reg { train, test }, JobMethod::Exact) => (
            ShardKind::ExactReg,
            knnshap_core::exact_regression::reg_fingerprint(train, test, spec.k),
        ),
        (JobData::Class { train, test }, JobMethod::Truncated { eps }) => (
            ShardKind::Truncated,
            knnshap_core::truncated::truncated_fingerprint(train, test, spec.k, eps),
        ),
        (JobData::Class { train, test }, JobMethod::McBaseline { .. }) => (
            ShardKind::McBaseline,
            knnshap_core::mc::mc_baseline_class_fingerprint(
                train,
                test,
                spec.k,
                spec.weight,
                spec.seed,
            ),
        ),
        (JobData::Class { train, test }, JobMethod::McImproved { .. }) => (
            ShardKind::McImproved,
            knnshap_core::mc::mc_improved_class_fingerprint(
                train,
                test,
                spec.k,
                spec.weight,
                spec.seed,
            ),
        ),
        (JobData::Class { train, test }, JobMethod::GroupTesting { .. }) => (
            ShardKind::GroupTesting,
            knnshap_core::group_testing::group_testing_class_fingerprint(
                train,
                test,
                spec.k,
                spec.weight,
                spec.seed,
            ),
        ),
        // validate() forbids every other combination.
        (JobData::Reg { .. }, m) => unreachable!("validated: reg × {}", m.name()),
    }
}

/// A plan bound to its verified datasets, ready to compute chunks.
///
/// Construction re-derives the job identity from the files actually read
/// and compares it to the plan's — a worker pointed at a drifted CSV (one
/// edited row is enough) refuses to compute instead of publishing partials
/// that would poison the merge. The stochastic utilities (distance
/// matrices) are built lazily, once per `PreparedJob`, and reused across
/// every chunk and shard the owning worker computes.
pub struct PreparedJob {
    plan: JobPlan,
    data: JobData,
    /// Precomputed KNN graph, fingerprint-checked against the loaded
    /// datasets by [`PreparedJob::attach_graph`]. When present, every chunk
    /// skips the distance pass; the published bytes are identical either way
    /// (the graph stores the same bitwise distances the kernel produces).
    graph: Option<KnnGraph>,
    class_util: OnceCell<KnnClassUtility>,
    inc_util: OnceCell<IncKnnUtility>,
}

impl PreparedJob {
    /// Bind `plan` to its datasets (parsed on `threads` workers), verifying
    /// the fingerprint.
    pub fn from_plan(plan: JobPlan, threads: usize) -> Result<Self, JobError> {
        plan.spec.validate()?;
        let data = load_data(&plan.spec, threads)?;
        // Re-derive the identity from the files actually read; comparing the
        // whole identity also catches a hand-edited plan file.
        let (kind, fingerprint) = job_identity(&plan.spec, &data);
        if fingerprint != plan.fingerprint {
            return Err(JobError::FingerprintMismatch {
                expected: plan.fingerprint,
                found: fingerprint,
            });
        }
        let (n_train, n_test) = data.sizes();
        let total_items = match plan.spec.method {
            JobMethod::Exact | JobMethod::Truncated { .. } => n_test,
            JobMethod::McBaseline { perms } | JobMethod::McImproved { perms } => perms,
            JobMethod::GroupTesting { tests } => tests,
        };
        if kind != plan.kind
            || n_train as u64 != plan.n_train
            || total_items as u64 != plan.total_items
        {
            return Err(JobError::Plan(format!(
                "plan disagrees with its spec: derived {} / {} train / {} items, plan says \
                 {} / {} train / {} items",
                kind.name(),
                n_train,
                total_items,
                plan.kind.name(),
                plan.n_train,
                plan.total_items,
            )));
        }
        Ok(Self {
            plan,
            data,
            graph: None,
            class_util: OnceCell::new(),
            inc_util: OnceCell::new(),
        })
    }

    /// Load the plan from a job directory and bind it.
    pub fn load(dirs: &crate::layout::JobDirs, threads: usize) -> Result<Self, JobError> {
        Self::from_plan(JobPlan::load(dirs)?, threads)
    }

    /// Attach a precomputed KNN graph. The graph's dataset-content
    /// fingerprints must match the datasets this job actually loaded — a
    /// graph built from drifted CSVs is refused here, before any chunk is
    /// computed, for the same reason `from_plan` verifies the job
    /// fingerprint.
    pub fn attach_graph(&mut self, graph: KnnGraph) -> Result<(), JobError> {
        let (train_x, test_x) = match &self.data {
            JobData::Class { train, test } => (&train.x, &test.x),
            JobData::Reg { train, test } => (&train.x, &test.x),
        };
        graph
            .validate_against(train_x, test_x)
            .map_err(|e| JobError::Dataset(format!("precomputed graph rejected: {e}")))?;
        self.graph = Some(graph);
        Ok(())
    }

    pub fn plan(&self) -> &JobPlan {
        &self.plan
    }

    fn class_data(&self) -> (&ClassDataset, &ClassDataset) {
        match &self.data {
            JobData::Class { train, test } => (train, test),
            JobData::Reg { .. } => unreachable!("validated: class method on reg data"),
        }
    }

    fn class_util(&self) -> &KnnClassUtility {
        self.class_util.get_or_init(|| {
            let (train, test) = self.class_data();
            match &self.graph {
                Some(g) => KnnClassUtility::from_graph(
                    train,
                    test,
                    self.plan.spec.k,
                    self.plan.spec.weight,
                    g,
                ),
                None => KnnClassUtility::new(train, test, self.plan.spec.k, self.plan.spec.weight),
            }
        })
    }

    fn inc_util(&self) -> &IncKnnUtility {
        self.inc_util.get_or_init(|| {
            let (train, test) = self.class_data();
            match &self.graph {
                Some(g) => IncKnnUtility::classification_from_graph(
                    train,
                    test,
                    self.plan.spec.k,
                    self.plan.spec.weight,
                    g,
                ),
                None => IncKnnUtility::classification(
                    train,
                    test,
                    self.plan.spec.k,
                    self.plan.spec.weight,
                ),
            }
        })
    }

    /// Compute the partial of one canonical chunk (`spec` indexes the
    /// micro-partition — or the shard partition itself when
    /// `checkpoint_chunks == 1`). Pure: a function of the job and the chunk
    /// range only, per the `knnshap_core::sharding` determinism contract.
    pub fn compute_chunk(&self, chunk: ShardSpec, threads: usize) -> ShardPartial {
        let s = &self.plan.spec;
        let uniform = matches!(s.weight, WeightFn::Uniform);
        match (&self.data, s.method) {
            (JobData::Class { train, test }, JobMethod::Exact) if uniform => match &self.graph {
                Some(g) => knnshap_core::exact_unweighted::knn_class_shapley_graph_shard(
                    train, test, s.k, g, chunk, threads,
                ),
                None => knnshap_core::exact_unweighted::knn_class_shapley_shard(
                    train, test, s.k, chunk, threads,
                ),
            },
            (JobData::Class { train, test }, JobMethod::Exact) => match &self.graph {
                Some(g) => knnshap_core::exact_weighted::weighted_knn_class_shapley_graph_shard(
                    train, test, s.k, s.weight, g, chunk, threads,
                ),
                None => knnshap_core::exact_weighted::weighted_knn_class_shapley_shard(
                    train, test, s.k, s.weight, chunk, threads,
                ),
            },
            (JobData::Reg { train, test }, JobMethod::Exact) => match &self.graph {
                Some(g) => knnshap_core::exact_regression::knn_reg_shapley_graph_shard(
                    train, test, s.k, g, chunk, threads,
                ),
                None => knnshap_core::exact_regression::knn_reg_shapley_shard(
                    train, test, s.k, chunk, threads,
                ),
            },
            (JobData::Class { train, test }, JobMethod::Truncated { eps }) => match &self.graph {
                Some(g) => knnshap_core::truncated::truncated_class_shapley_graph_shard(
                    train, test, s.k, eps, g, chunk, threads,
                ),
                None => knnshap_core::truncated::truncated_class_shapley_shard(
                    train, test, s.k, eps, chunk, threads,
                ),
            },
            (JobData::Class { .. }, JobMethod::McBaseline { perms }) => {
                knnshap_core::mc::mc_shapley_baseline_shard(
                    self.class_util(),
                    perms,
                    s.seed,
                    chunk,
                    threads,
                )
            }
            (JobData::Class { .. }, JobMethod::McImproved { perms }) => {
                knnshap_core::mc::mc_shapley_improved_shard(
                    self.inc_util(),
                    perms,
                    s.seed,
                    chunk,
                    threads,
                )
            }
            (JobData::Class { .. }, JobMethod::GroupTesting { tests }) => {
                knnshap_core::group_testing::group_testing_shapley_shard(
                    self.class_util(),
                    tests,
                    s.seed,
                    chunk,
                    threads,
                )
            }
            (JobData::Reg { .. }, m) => unreachable!("validated: reg × {}", m.name()),
        }
    }
}
