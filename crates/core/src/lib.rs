//! # knnshap-core — the paper's valuation algorithms
//!
//! Implements every algorithm of *Jia et al., "Efficient Task-Specific Data
//! Valuation for Nearest Neighbor Algorithms"* (VLDB 2019):
//!
//! | Paper result | Module | Complexity |
//! |---|---|---|
//! | Theorem 1 / Algorithm 1 — exact SV, unweighted KNN classifier | [`exact_unweighted`] | O(N log N) per test point |
//! | Theorem 2 — truncated (ε, 0)-approximation | [`truncated`] | O(N + K* log K*) |
//! | Theorem 4 — LSH-backed (ε, δ)-approximation | [`lsh_approx`] | sublinear for C_K* > 1 |
//! | Theorem 6 — exact SV, unweighted KNN regression | [`exact_regression`] | O(N log N) |
//! | Theorem 7 — exact SV, weighted KNN | [`exact_weighted`] | O(N^K) |
//! | Theorem 8 — exact SV, multi-data-per-curator | [`curator`] | O(M^K) |
//! | Theorems 9–12 — composite game (sellers + analyst) | [`composite`], [`curator`] | as data-only game |
//! | Baseline MC + Hoeffding bound (§2.2) | [`mc`], [`bounds`] | O((N/ε²) log(N/δ)) evals |
//! | Group-testing baseline of [JDW+19] (Fig. 6's third competitor) | [`group_testing`] | O((log²N/ε²) log(N/δ)) evals |
//! | Theorem 5 / Algorithm 2 — improved MC + Bennett bound | [`mc`], [`bounds`] | O((N/ε²) log K log(K/δ)) |
//! | Appendix F — generic piecewise-difference solver | [`piecewise`] | O(N·T) counting queries |
//!
//! Ground truth for all of the above is the O(2^N) enumeration in
//! [`exact_enum`], used pervasively by the test suite.
//!
//! Around the algorithms sit the paper's §7 applications ([`analysis`]:
//! monetary payouts, noisy-data audits, per-class summaries), the §3.1
//! streaming scenario ([`streaming`]: on-the-fly accumulation as test points
//! arrive), and the [`sharding`] runtime (per-shard partial sums over exact
//! accumulators with a merge that is bitwise-identical to the unsharded run
//! at every shard and thread count — see `docs/sharding.md`). Every
//! shardable family is reached through one seam, [`estimator::Estimator`]:
//! bind the datasets, `K`, weights, family and an optional precomputed
//! graph once, then ask for the job identity, one shard's partial sums, or
//! the whole run.

pub mod analysis;
pub mod axioms;
pub mod bounds;
pub mod composite;
pub mod curator;
pub mod estimator;
pub mod exact_enum;
pub mod exact_regression;
pub mod exact_unweighted;
pub mod exact_weighted;
pub mod group_testing;
pub mod lsh_approx;
pub mod mc;
pub mod piecewise;
pub mod pipeline;
pub mod resident;
pub mod sharding;
pub mod streaming;
pub mod truncated;
pub mod types;
pub mod utility;

pub use pipeline::{KnnShapley, Method, Valuation};
pub use types::ShapleyValues;
pub use utility::Utility;
