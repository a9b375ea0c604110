//! # knnshap — efficient task-specific data valuation for nearest neighbors
//!
//! A Rust implementation of *Jia et al., "Efficient Task-Specific Data
//! Valuation for Nearest Neighbor Algorithms"* (VLDB 2019 / arXiv:1908.08619):
//! exact O(N log N) Shapley values for unweighted KNN classifiers and
//! regressors, an LSH-backed sublinear (ε, δ)-approximation, O(N^K)/O(M^K)
//! exact algorithms for weighted KNN and multi-data curators, composite games
//! that also value the analyst's computation, and Monte Carlo estimators with
//! Hoeffding/Bennett sample bounds.
//!
//! This crate is a facade: it re-exports the workspace member crates under
//! stable module names. Start with [`valuation::KnnShapley`], one builder
//! for both tasks (`KnnShapley::new(&train, &test)` for classification,
//! `KnnShapley::over(Data::reg(&train, &test))` for regression), or the
//! `examples/quickstart.rs` walkthrough. Streams of test points fold into a running valuation via
//! `valuation::streaming::OnlineValuator`; the §7 marketplace analyses
//! (payouts, audits, per-class summaries) live in `valuation::analysis`; a
//! scriptable front end ships as the `knnshap` binary in `crates/cli`. Jobs
//! too big for one process shard through `valuation::sharding` (per-shard
//! exact partial sums, merged bitwise-identically to the unsharded run —
//! see `docs/sharding.md`), and whole fleets of shard workers are planned,
//! supervised, checkpointed and auto-merged by the [`runtime`] module
//! (`knnshap shard-plan` / `run-job` / `worker`; operator's handbook in
//! `docs/operations.md`).
//!
//! ```
//! use knnshap::datasets::synth::blobs::{self, BlobConfig};
//! use knnshap::valuation::exact_unweighted::knn_class_shapley;
//!
//! let cfg = BlobConfig { n: 200, n_classes: 2, dim: 8, ..Default::default() };
//! let train = blobs::generate(&cfg);
//! let test = blobs::queries(&cfg, 10, 99);
//! let sv = knn_class_shapley(&train, &test, 3);
//! assert_eq!(sv.len(), 200);
//! ```
//!
//! Regression valuation (Theorem 6) goes through the same facade, and the
//! efficiency axiom pins the sum of values to `v(N) − v(∅)`:
//!
//! ```
//! use knnshap::datasets::synth::regression::{self, RegressionConfig};
//! use knnshap::valuation::exact_regression::knn_reg_shapley;
//!
//! let cfg = RegressionConfig { n: 50, dim: 2, ..Default::default() };
//! let train = regression::generate(&cfg);
//! let test = regression::queries(&cfg, 5);
//! let sv = knn_reg_shapley(&train, &test, 3);
//! assert_eq!(sv.len(), 50);
//! assert!(sv.as_slice().iter().all(|v| v.is_finite()));
//! ```

/// Parallel substrate: the claim-counter pool behind every batched path
/// (`par_map`, `par_chunks`, `par_claim`, `par_ordered`,
/// `KNNSHAP_THREADS`).
pub use knnshap_parallel as parallel;

/// Numerical substrate: special functions, quadrature, roots, statistics.
pub use knnshap_numerics as numerics;

/// Dataset substrate: feature matrices, synthetic generators, contrast.
pub use knnshap_datasets as datasets;

/// KNN substrate: metrics, top-K search, the KNN classifier, weights.
pub use knnshap_knn as knn;

/// LSH substrate: p-stable hashing, theory-driven parameters, recall.
pub use knnshap_lsh as lsh;

/// The paper's valuation algorithms (exact, LSH-approximate, Monte Carlo,
/// weighted, curator, composite).
pub use knnshap_core as valuation;

/// Valuation-as-a-service: the `knnshap serve` daemon — resident rank
/// state, incremental insert/delete revaluation, versioned snapshots, the
/// length-prefixed socket protocol and its typed client
/// (`docs/serving.md`).
pub use knnshap_serve as serve;

/// Job-orchestration runtime: versioned job plans, the lease-file work
/// queue, checkpointing workers, the supervising `run_job`, and the process
/// fleet pool — everything that turns the shardable estimators into a
/// restartable multi-process system.
pub use knnshap_runtime as runtime;

/// Comparator models (logistic regression) and retraining utilities.
pub use knnshap_ml as ml;

/// Structured telemetry: counters/gauges/histograms and the JSONL event
/// stream (`KNNSHAP_LOG`, `KNNSHAP_METRICS`). Write-only by construction —
/// `tests/obs_determinism.rs` byte-compares telemetry-on against
/// telemetry-off runs (`docs/observability.md`).
pub use knnshap_obs as obs;
