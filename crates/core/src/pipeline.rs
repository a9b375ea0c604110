//! High-level valuation pipeline — the crate's front door.
//!
//! [`KnnShapley`] is one builder for both tasks: it binds the datasets, `K`,
//! weights, method, threads and an optional precomputed graph, then runs
//! the right algorithm for the configuration, mirroring the decision guide
//! in the paper's §6.2 "Remarks": exact for default use, truncated/LSH when
//! a moderate ε is acceptable and K is small, Monte Carlo for weighted
//! models where the exact algorithm is O(N^K). Every method but kd-tree and
//! LSH retrieval runs through [`Estimator`].
//!
//! ```
//! use knnshap_core::pipeline::{KnnShapley, Method};
//! use knnshap_datasets::synth::blobs::{self, BlobConfig};
//!
//! let cfg = BlobConfig { n: 300, dim: 8, n_classes: 3, ..Default::default() };
//! let train = blobs::generate(&cfg);
//! let test = blobs::queries(&cfg, 10, 7);
//! let sv = KnnShapley::new(&train, &test)
//!     .k(3)
//!     .method(Method::Exact)
//!     .run()
//!     .unwrap();
//! assert_eq!(sv.len(), 300);
//! ```

use crate::composite::GameForm;
use crate::curator::{curator_class_shapley, Ownership};
use crate::estimator::{check_data, check_delta, check_eps, Data, Estimator, Family};
use crate::mc::StoppingRule;
use crate::types::ShapleyValues;
use knnshap_datasets::{contrast, ClassDataset};
use knnshap_knn::graph::KnnGraph;
use knnshap_knn::weights::WeightFn;
use knnshap_lsh::index::LshIndex;

/// Valuation algorithm selection.
#[derive(Debug, Clone, Copy)]
pub enum Method {
    /// Theorem 1 or 6 (unweighted, O(N log N)/test) or Theorem 7 (weighted,
    /// O(N^K)/test), chosen by the task and the configured weight function.
    Exact,
    /// Theorem 2: (ε, 0)-approximation with exact partial retrieval.
    /// Unweighted classification only.
    Truncated { eps: f64 },
    /// Theorem 2 with kd-tree retrieval — the paper's §3.2 tree-based
    /// alternative to LSH. Same (ε, 0) guarantee as [`Method::Truncated`]
    /// (the tree returns exact neighbors); sub-scan query cost in low to
    /// moderate dimensions, degrading toward the linear scan as the
    /// dimension grows. Unweighted classification only.
    TruncatedTree { eps: f64 },
    /// Theorem 4: (ε, δ)-approximation with LSH retrieval; index parameters
    /// planned from measured dataset statistics. Unweighted classification
    /// only (the paper's LSH analysis is confined to this case).
    Lsh {
        eps: f64,
        delta: f64,
        max_tables: usize,
    },
    /// Baseline permutation sampling (§2.2) over the configured utility.
    McBaseline { rule: StoppingRule, seed: u64 },
    /// Algorithm 2: heap-incremental permutation sampling.
    McImproved { rule: StoppingRule, seed: u64 },
}

impl Method {
    /// The [`Family`] this method binds over `n_train` training points, with
    /// its item budget (for Monte Carlo, the stopping rule's a-priori
    /// budget). `None` for kd-tree and LSH retrieval, which rank through
    /// their own index outside the seam.
    pub fn family(self, n_train: usize) -> Option<Family> {
        let n = n_train.max(1);
        Some(match self {
            Method::Exact => Family::Exact,
            Method::Truncated { eps } => Family::Truncated { eps },
            Method::McBaseline { rule, seed } => Family::McBaseline {
                perms: rule.budget(n),
                seed,
            },
            Method::McImproved { rule, seed } => Family::McImproved {
                perms: rule.budget(n),
                seed,
            },
            Method::TruncatedTree { .. } | Method::Lsh { .. } => return None,
        })
    }
}

/// Configuration errors surfaced by [`KnnShapley::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Train/test feature dimensionality differs.
    DimensionMismatch,
    /// The test set is empty.
    EmptyTestSet,
    /// The training set is empty.
    EmptyTrainSet,
    /// The selected method only supports uniform weights.
    WeightedUnsupported(&'static str),
    /// A feature value is NaN or infinite; distance comparisons would panic
    /// deep inside the valuation sorts. `(which, row)` identifies the first
    /// offending row in `"train"` or `"test"`.
    NonFiniteFeature { which: &'static str, row: usize },
    /// A precomputed KNN graph was attached but the selected method performs
    /// its own retrieval (LSH / kd-tree) and cannot consume it.
    GraphUnsupported(&'static str),
    /// The attached KNN graph was built from different datasets (shape or
    /// content fingerprint drift).
    GraphMismatch(String),
    /// The selected method does not apply to this task (truncation, kd-tree
    /// and LSH retrieval and curator valuation are classification-only).
    TaskUnsupported(&'static str),
    /// `K` is zero: a KNN utility needs at least one neighbor.
    ZeroK,
    /// The selected method needs more training points than the set has
    /// (group testing samples coalitions of at least two players; LSH
    /// sizes its index from distances between training points).
    TooFewTrainPoints { method: &'static str, min: usize },
    /// The approximation error ε is NaN, infinite or not positive.
    BadEps(f64),
    /// The LSH failure probability δ is NaN or outside (0, 1).
    BadDelta(f64),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::DimensionMismatch => write!(f, "train/test dimension mismatch"),
            PipelineError::EmptyTestSet => write!(f, "test set is empty"),
            PipelineError::EmptyTrainSet => write!(f, "training set is empty"),
            PipelineError::WeightedUnsupported(m) => {
                write!(f, "{m} supports only unweighted KNN (WeightFn::Uniform)")
            }
            PipelineError::NonFiniteFeature { which, row } => {
                write!(f, "{which} row {row} contains a NaN/infinite feature")
            }
            PipelineError::GraphUnsupported(m) => {
                write!(f, "{m} performs its own retrieval and cannot use --graph")
            }
            PipelineError::GraphMismatch(detail) => {
                write!(f, "graph does not match the datasets: {detail}")
            }
            PipelineError::TaskUnsupported(m) => write!(f, "{m} supports classification only"),
            PipelineError::ZeroK => write!(f, "K must be at least 1"),
            PipelineError::TooFewTrainPoints { method, min } => {
                write!(f, "{method} needs at least {min} training points")
            }
            PipelineError::BadEps(eps) => write!(f, "eps must be finite and > 0 (got {eps})"),
            PipelineError::BadDelta(delta) => write!(f, "delta must lie in (0, 1) (got {delta})"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A valuation plus run metadata, returned by [`KnnShapley::run_report`].
#[derive(Debug, Clone)]
pub struct Valuation {
    pub values: ShapleyValues,
    /// Permutations consumed, for the Monte Carlo methods (`None` for the
    /// deterministic algorithms).
    pub permutations: Option<usize>,
}

impl From<ShapleyValues> for Valuation {
    fn from(values: ShapleyValues) -> Self {
        Valuation {
            values,
            permutations: None,
        }
    }
}

/// Builder for data valuation, over classification or regression data
/// (negative-MSE utility, eq. 25/27, for regression).
pub struct KnnShapley<'a> {
    data: Data<'a>,
    k: usize,
    weight: WeightFn,
    method: Method,
    threads: usize,
    graph: Option<&'a KnnGraph>,
}

impl<'a> KnnShapley<'a> {
    /// Start a classification pipeline: shorthand for
    /// [`over`](Self::over)`(Data::class(train, test))`.
    pub fn new(train: &'a ClassDataset, test: &'a ClassDataset) -> Self {
        Self::over(Data::class(train, test))
    }

    /// Start a pipeline over either task's data with the paper's defaults:
    /// K = 1, unweighted, exact, the workspace default worker count
    /// (`KNNSHAP_THREADS`, else one per core).
    ///
    /// ```
    /// use knnshap_core::estimator::Data;
    /// use knnshap_core::pipeline::KnnShapley;
    /// use knnshap_datasets::synth::regression::{self, RegressionConfig};
    ///
    /// let cfg = RegressionConfig { n: 200, ..Default::default() };
    /// let train = regression::generate(&cfg);
    /// let test = regression::queries(&cfg, 10);
    /// let sv = KnnShapley::over(Data::reg(&train, &test)).k(3).run().unwrap();
    /// assert_eq!(sv.len(), 200);
    /// ```
    pub fn over(data: Data<'a>) -> Self {
        Self {
            data,
            k: 1,
            weight: WeightFn::Uniform,
            method: Method::Exact,
            threads: knnshap_parallel::current_threads(),
            graph: None,
        }
    }

    /// Set `K`; zero is refused by `run` with [`PipelineError::ZeroK`].
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    pub fn weight(mut self, weight: WeightFn) -> Self {
        self.weight = weight;
        self
    }

    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attach a precomputed [`KnnGraph`] so the run skips the distance pass.
    /// The graph is label-free, so one artifact serves both tasks over the
    /// same features. It is fingerprint-checked against the datasets at run
    /// time; the result stays bitwise-identical to the brute-force path for
    /// every method that does its retrieval through ranked neighbor lists
    /// (exact, truncated, Monte Carlo). LSH and kd-tree retrieval reject it.
    pub fn graph(mut self, graph: &'a KnnGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The shared checks, then the classification datasets — or
    /// [`PipelineError::TaskUnsupported`] naming `method` on regression
    /// data.
    fn class_data(
        &self,
        method: &'static str,
    ) -> Result<(&ClassDataset, &ClassDataset), PipelineError> {
        let (train_x, test_x) = self.data.features();
        check_data(train_x, test_x, self.k, self.graph)?;
        match &self.data {
            Data::Class { train, test } => Ok((train, test)),
            Data::Reg { .. } => Err(PipelineError::TaskUnsupported(method)),
        }
    }

    /// Execute the configured valuation.
    pub fn run(&self) -> Result<ShapleyValues, PipelineError> {
        self.run_report().map(|r| r.values)
    }

    /// Execute the configured valuation and return it with run metadata
    /// (for the Monte Carlo methods, the permutation count actually
    /// consumed — what the CLI turns into a throughput line).
    ///
    /// Every method but kd-tree and LSH retrieval binds an [`Estimator`];
    /// Monte Carlo under the heuristic stop then drives the estimator's game
    /// round by round instead of through its fold.
    pub fn run_report(&self) -> Result<Valuation, PipelineError> {
        let n_train = self.data.features().0.len();
        let Some(family) = self.method.family(n_train) else {
            return self.run_retrieval();
        };
        let data = self.data.reborrow();
        let est = Estimator::new(data, self.k, self.weight, family, self.graph)?;
        Ok(run_bound(&est, self.method, self.threads))
    }

    /// The methods outside the seam: kd-tree and LSH retrieval.
    fn run_retrieval(&self) -> Result<Valuation, PipelineError> {
        let uniform = matches!(self.weight, WeightFn::Uniform);
        match self.method {
            Method::TruncatedTree { eps } => {
                let (train, test) = self.class_data("TruncatedTree")?;
                check_eps(eps)?;
                if !uniform {
                    return Err(PipelineError::WeightedUnsupported("TruncatedTree"));
                }
                if self.graph.is_some() {
                    return Err(PipelineError::GraphUnsupported("TruncatedTree"));
                }
                let tree = knnshap_knn::kdtree::KdTree::build(&train.x);
                let sums = crate::sharding::exact_sums_over_dense(
                    train.len(),
                    0..test.len(),
                    self.threads,
                    || (),
                    |j, _, _, out| {
                        out.copy_from_slice(
                            crate::truncated::truncated_class_shapley_with_kdtree(
                                &tree,
                                train,
                                test.x.row(j),
                                test.y[j],
                                self.k,
                                eps,
                            )
                            .as_slice(),
                        );
                    },
                );
                Ok(crate::sharding::finalize_mean(&sums, test.len() as u64, self.threads).into())
            }
            Method::Lsh {
                eps,
                delta,
                max_tables,
            } => {
                let (train, test) = self.class_data("Lsh")?;
                check_eps(eps)?;
                check_delta(delta)?;
                if !uniform {
                    return Err(PipelineError::WeightedUnsupported("Lsh"));
                }
                if self.graph.is_some() {
                    return Err(PipelineError::GraphUnsupported("Lsh"));
                }
                // The index is sized from distances between training points.
                if train.len() < 2 {
                    return Err(PipelineError::TooFewTrainPoints {
                        method: "LSH",
                        min: 2,
                    });
                }
                let ks = crate::truncated::k_star(self.k, eps).min(train.len());
                let est =
                    contrast::estimate(&train.x, &test.x, ks, 16.min(test.len()), 64, 0xC0_FFEE);
                let params = crate::lsh_approx::plan_index_params(
                    train.len(),
                    &est,
                    self.k,
                    eps,
                    delta,
                    1.0,
                    max_tables,
                    0x5EED,
                );
                let index = LshIndex::build(&train.x, params);
                Ok(crate::lsh_approx::lsh_class_shapley(&index, train, test, self.k, eps).into())
            }
            Method::Exact
            | Method::Truncated { .. }
            | Method::McBaseline { .. }
            | Method::McImproved { .. } => unreachable!("runs through the estimator seam"),
        }
    }

    /// Value *sellers* instead of points given an ownership map
    /// (Theorem 8 / Theorem 12). Exact classification only.
    pub fn run_curator(
        &self,
        ownership: &Ownership,
        form: GameForm,
    ) -> Result<ShapleyValues, PipelineError> {
        let (train, test) = self.class_data("curator valuation")?;
        if ownership.owners.len() != train.len() {
            return Err(PipelineError::DimensionMismatch);
        }
        Ok(curator_class_shapley(
            train,
            ownership,
            test,
            self.k,
            self.weight,
            form,
        ))
    }
}

/// Run a bound estimator: through the seam's fold, or — for Monte Carlo
/// under the sequential heuristic stop — on the estimator's game with the
/// round-based drivers.
fn run_bound(est: &Estimator<'_>, method: Method, threads: usize) -> Valuation {
    let res = match method {
        Method::McBaseline {
            rule: rule @ StoppingRule::Heuristic { .. },
            seed,
        } => crate::mc::mc_shapley_baseline_with_threads(est.utility(), rule, seed, None, threads),
        Method::McImproved {
            rule: rule @ StoppingRule::Heuristic { .. },
            seed,
        } => crate::mc::mc_shapley_improved_with_threads(est.inc(), rule, seed, None, threads),
        _ => {
            let merged = est.run(threads);
            return Valuation {
                values: merged.values,
                permutations: est.is_monte_carlo().then_some(merged.items as usize),
            };
        }
    };
    Valuation {
        values: res.values,
        permutations: Some(res.permutations),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knnshap_datasets::synth::blobs::{self, BlobConfig};
    use knnshap_datasets::Features;

    fn data() -> (ClassDataset, ClassDataset) {
        let cfg = BlobConfig {
            n: 120,
            dim: 6,
            n_classes: 3,
            cluster_std: 0.6,
            center_scale: 3.0,
            seed: 2,
        };
        (blobs::generate(&cfg), blobs::queries(&cfg, 6, 3))
    }

    #[test]
    fn exact_default_runs() {
        let (train, test) = data();
        let sv = KnnShapley::new(&train, &test).k(3).run().unwrap();
        assert_eq!(sv.len(), 120);
    }

    #[test]
    fn truncated_close_to_exact() {
        let (train, test) = data();
        let exact = KnnShapley::new(&train, &test).k(2).run().unwrap();
        let approx = KnnShapley::new(&train, &test)
            .k(2)
            .method(Method::Truncated { eps: 0.1 })
            .run()
            .unwrap();
        assert!(exact.max_abs_diff(&approx) <= 0.1 + 1e-12);
    }

    #[test]
    fn truncated_tree_matches_truncated_scan() {
        // the kd-tree returns exact neighbors, so the two retrieval paths
        // must agree bit-for-bit
        let (train, test) = data();
        let scan = KnnShapley::new(&train, &test)
            .k(2)
            .method(Method::Truncated { eps: 0.15 })
            .run()
            .unwrap();
        let tree = KnnShapley::new(&train, &test)
            .k(2)
            .method(Method::TruncatedTree { eps: 0.15 })
            .run()
            .unwrap();
        assert!(scan.max_abs_diff(&tree) < 1e-12);
    }

    /// LSH on label-noisy blobs, where Theorem 2's values are not all
    /// zero. On clean blobs every K*-nearest list has one label, so the
    /// truncated values — and a correct LSH answer — are exactly zero, and
    /// the bound below would pass for a zero vector; here the exact vector
    /// has entries above ε, so it cannot.
    #[test]
    fn lsh_runs_and_is_bounded() {
        let cfg = BlobConfig {
            n: 3000,
            dim: 6,
            n_classes: 3,
            cluster_std: 3.0,
            center_scale: 3.0,
            seed: 7,
        };
        let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 20, 7 ^ 0x9E37));
        let (k, eps, delta) = (3, 0.01, 0.1);
        let exact = KnnShapley::new(&train, &test).k(k).run().unwrap();
        let approx = KnnShapley::new(&train, &test)
            .k(k)
            .method(Method::Lsh {
                eps,
                delta,
                max_tables: 64,
            })
            .run()
            .unwrap();
        assert!(
            exact.as_slice().iter().any(|v| v.abs() > eps),
            "the bound must not hold for a zero vector"
        );
        assert!(
            approx.as_slice().iter().any(|&v| v != 0.0),
            "all-zero LSH values"
        );
        // Theorem 2 bounds each per-test value by ε when the K* nearest are
        // retrieved; a retrieval that misses (probability δ per test point)
        // can move a per-test value by up to 2/K, so allow δ · 2/K on the mean.
        let bound = eps + delta * 2.0 / k as f64;
        let diff = exact.max_abs_diff(&approx);
        assert!(diff <= bound, "max |exact − lsh| = {diff} > {bound}");
    }

    #[test]
    fn mc_methods_run() {
        let (train, test) = data();
        let a = KnnShapley::new(&train, &test)
            .k(2)
            .method(Method::McBaseline {
                rule: StoppingRule::Fixed(30),
                seed: 1,
            })
            .run()
            .unwrap();
        let b = KnnShapley::new(&train, &test)
            .k(2)
            .method(Method::McImproved {
                rule: StoppingRule::Fixed(200),
                seed: 1,
            })
            .run()
            .unwrap();
        assert_eq!(a.len(), 120);
        assert_eq!(b.len(), 120);
    }

    #[test]
    fn run_report_exposes_mc_permutations_and_is_thread_count_free() {
        let (train, test) = data();
        let report = |threads: usize| {
            KnnShapley::new(&train, &test)
                .k(2)
                .threads(threads)
                .method(Method::McImproved {
                    rule: StoppingRule::Fixed(120),
                    seed: 3,
                })
                .run_report()
                .unwrap()
        };
        let serial = report(1);
        assert_eq!(serial.permutations, Some(120));
        for threads in [2usize, 8] {
            let par = report(threads);
            assert_eq!(par.permutations, Some(120));
            for i in 0..train.len() {
                assert_eq!(
                    serial.values.get(i).to_bits(),
                    par.values.get(i).to_bits(),
                    "i={i} threads={threads}"
                );
            }
        }
        let exact = KnnShapley::new(&train, &test).run_report().unwrap();
        assert_eq!(exact.permutations, None);
    }

    #[test]
    fn weighted_exact_dispatches() {
        let (train, test) = data();
        let small_train = train.gather(&(0..40).collect::<Vec<_>>());
        let sv = KnnShapley::new(&small_train, &test)
            .k(2)
            .weight(WeightFn::InverseDistance { eps: 1e-3 })
            .run()
            .unwrap();
        assert_eq!(sv.len(), 40);
    }

    #[test]
    fn weighted_rejected_for_retrieval_methods() {
        let (train, test) = data();
        let err = KnnShapley::new(&train, &test)
            .weight(WeightFn::InverseDistance { eps: 1e-3 })
            .method(Method::Truncated { eps: 0.1 })
            .run()
            .unwrap_err();
        assert_eq!(err, PipelineError::WeightedUnsupported("Truncated"));
    }

    #[test]
    fn validation_errors() {
        let (train, test) = data();
        let empty = ClassDataset::new(Features::new(vec![], 6), vec![], 3);
        assert_eq!(
            KnnShapley::new(&train, &empty).run().unwrap_err(),
            PipelineError::EmptyTestSet
        );
        assert_eq!(
            KnnShapley::new(&empty, &test).run().unwrap_err(),
            PipelineError::EmptyTrainSet
        );
        let wrong_dim = ClassDataset::new(Features::new(vec![0.0; 4], 2), vec![0, 1], 3);
        assert_eq!(
            KnnShapley::new(&train, &wrong_dim).run().unwrap_err(),
            PipelineError::DimensionMismatch
        );
        // ε must be finite and > 0 on every method that reads it.
        for method in [
            Method::Truncated { eps: 0.0 },
            Method::TruncatedTree { eps: -1.0 },
            Method::Lsh {
                eps: 0.0,
                delta: 0.1,
                max_tables: 8,
            },
        ] {
            let err = KnnShapley::new(&train, &test).method(method).run();
            assert!(matches!(err, Err(PipelineError::BadEps(_))), "{method:?}");
        }
        // δ must lie in (0, 1).
        for delta in [f64::NAN, 0.0, 1.0, 2.0, -0.5] {
            let method = Method::Lsh {
                eps: 0.1,
                delta,
                max_tables: 8,
            };
            let err = KnnShapley::new(&train, &test).method(method).run();
            assert!(
                matches!(err, Err(PipelineError::BadDelta(d)) if d.to_bits() == delta.to_bits()),
                "{delta}"
            );
        }
    }

    #[test]
    fn non_finite_features_are_rejected_not_panicked() {
        let (train, test) = data();
        let mut poisoned_test = test.clone();
        poisoned_test.x.row_mut(3)[2] = f32::NAN;
        assert_eq!(
            KnnShapley::new(&train, &poisoned_test).run().unwrap_err(),
            PipelineError::NonFiniteFeature {
                which: "test",
                row: 3
            }
        );
        let mut poisoned_train = train.clone();
        poisoned_train.x.row_mut(7)[0] = f32::INFINITY;
        assert_eq!(
            KnnShapley::new(&poisoned_train, &test).run().unwrap_err(),
            PipelineError::NonFiniteFeature {
                which: "train",
                row: 7
            }
        );
    }

    #[test]
    fn graph_backed_run_is_bitwise_identical_and_validated() {
        let (train, test) = data();
        let graph = KnnGraph::build(&train.x, &test.x, 2);
        for method in [
            Method::Exact,
            Method::Truncated { eps: 0.1 },
            Method::McImproved {
                rule: StoppingRule::Fixed(60),
                seed: 9,
            },
        ] {
            let brute = KnnShapley::new(&train, &test)
                .k(2)
                .method(method)
                .run()
                .unwrap();
            let via_graph = KnnShapley::new(&train, &test)
                .k(2)
                .method(method)
                .graph(&graph)
                .run()
                .unwrap();
            for i in 0..train.len() {
                assert_eq!(
                    brute.get(i).to_bits(),
                    via_graph.get(i).to_bits(),
                    "i={i} method={method:?}"
                );
            }
        }
        // retrieval methods refuse the graph rather than silently ignoring it
        let err = KnnShapley::new(&train, &test)
            .method(Method::Lsh {
                eps: 0.15,
                delta: 0.1,
                max_tables: 8,
            })
            .graph(&graph)
            .run()
            .unwrap_err();
        assert_eq!(err, PipelineError::GraphUnsupported("Lsh"));
        // a graph built from different data is refused before any valuation
        let mut other = train.clone();
        other.x.row_mut(0)[0] += 1.0;
        let stale = KnnGraph::build(&other.x, &test.x, 2);
        let err = KnnShapley::new(&train, &test)
            .graph(&stale)
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::GraphMismatch(_)));
    }

    #[test]
    fn curator_path() {
        let (train, test) = data();
        let own = Ownership::round_robin(train.len(), 10);
        let sv = KnnShapley::new(&train, &test)
            .k(2)
            .run_curator(&own, GameForm::DataOnly)
            .unwrap();
        assert_eq!(sv.len(), 10);
    }

    mod regression {
        use super::*;
        use knnshap_datasets::synth::regression::{self, RegressionConfig};
        use knnshap_datasets::RegDataset;

        fn reg_data() -> (RegDataset, RegDataset) {
            let cfg = RegressionConfig {
                n: 80,
                ..Default::default()
            };
            (regression::generate(&cfg), regression::queries(&cfg, 6))
        }

        #[test]
        fn exact_unweighted_runs_and_distributes_utility() {
            let (train, test) = reg_data();
            let sv = KnnShapley::over(Data::reg(&train, &test))
                .k(3)
                .run()
                .unwrap();
            assert_eq!(sv.len(), 80);
            let u = crate::utility::KnnRegUtility::unweighted(&train, &test, 3);
            use crate::utility::Utility;
            assert!((sv.total() - u.grand()).abs() < 1e-9);
        }

        #[test]
        fn weighted_exact_dispatches() {
            let (train, test) = reg_data();
            let small = train.gather(&(0..30).collect::<Vec<_>>());
            let sv = KnnShapley::over(Data::reg(&small, &test))
                .k(2)
                .weight(WeightFn::Exponential { beta: 0.5 })
                .run()
                .unwrap();
            assert_eq!(sv.len(), 30);
        }

        #[test]
        fn mc_improved_tracks_exact() {
            let (train, test) = reg_data();
            let exact = KnnShapley::over(Data::reg(&train, &test))
                .k(2)
                .run()
                .unwrap();
            let mc = KnnShapley::over(Data::reg(&train, &test))
                .k(2)
                .method(Method::McImproved {
                    rule: StoppingRule::Fixed(4000),
                    seed: 3,
                })
                .run()
                .unwrap();
            // statistical agreement: generous but non-vacuous envelope
            let spread = exact
                .as_slice()
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()))
                .max(1e-9);
            assert!(exact.max_abs_diff(&mc) < 0.5 * spread + 0.05);
        }

        #[test]
        fn mc_baseline_runs() {
            let (train, test) = reg_data();
            let sv = KnnShapley::over(Data::reg(&train, &test))
                .method(Method::McBaseline {
                    rule: StoppingRule::Fixed(20),
                    seed: 5,
                })
                .run()
                .unwrap();
            assert_eq!(sv.len(), 80);
        }

        #[test]
        fn validation_errors() {
            let (train, test) = reg_data();
            let empty = RegDataset::new(Features::new(vec![], train.dim()), vec![]);
            assert_eq!(
                KnnShapley::over(Data::reg(&train, &empty))
                    .run()
                    .unwrap_err(),
                PipelineError::EmptyTestSet
            );
            assert_eq!(
                KnnShapley::over(Data::reg(&empty, &test))
                    .run()
                    .unwrap_err(),
                PipelineError::EmptyTrainSet
            );
        }
    }
}
