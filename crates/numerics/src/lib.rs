//! Numerical substrate for the `knnshap` workspace.
//!
//! This crate implements, from scratch, every piece of numerical machinery the
//! paper's algorithms need:
//!
//! * log-space factorials and binomial coefficients ([`binom`]) — the weighted
//!   KNN (Theorem 7) and curator (Theorem 8) Shapley recursions weight utility
//!   differences by ratios of binomial coefficients that overflow `f64` for
//!   moderate `N`, so they are evaluated in log space;
//! * special functions ([`special`]) — the Gaussian/half-normal densities used
//!   by the p-stable LSH collision probability (eq. 20 of the paper) and the
//!   Bennett function `h(u) = (1+u)ln(1+u) − u` from Theorem 5;
//! * adaptive quadrature ([`integrate`]) — evaluates the collision-probability
//!   integral `f_h(c)`;
//! * root finding ([`roots`]) — solves eq. (32) for the Bennett permutation
//!   budget `T*`;
//! * descriptive statistics and correlation ([`stats`]) — used by the
//!   experiment harness (Figs. 14–16 report correlations between valuations);
//! * random sampling ([`sampling`]) — Box–Muller Gaussians for synthetic
//!   embeddings and LSH projections, Fisher–Yates permutations for the Monte
//!   Carlo estimators, and the counter-based RNG streams
//!   ([`sampling::RngStreams`]) the parallel MC runtime splits its
//!   permutation budget over;
//! * compensated summation ([`compensated`]) — Neumaier accumulators whose
//!   explicit merge keeps blocked parallel reductions both accurate and
//!   bitwise-deterministic;
//! * exact summation ([`exact`]) — fixed-point superaccumulators whose merge
//!   is *error-free* and therefore order- and grouping-invariant: the
//!   serialized/mergeable partial-sum state of the sharded valuation runtime
//!   (`knnshap_core::sharding`), where the reduction tree is chosen by the
//!   operator's shard layout rather than fixed by the code.
//!
//! ### Determinism contract
//!
//! Everything in this crate is a pure function of its inputs: no global RNG,
//! no platform-dependent intrinsics, no hidden state. In particular
//! [`sampling::RngStreams::stream`]`(i)` depends only on `(seed, i)` and
//! [`compensated::NeumaierSum::merge`] is a fixed sequence of f64 adds, which
//! together are what let `knnshap_core`'s Monte Carlo estimators promise
//! bitwise-identical Shapley vectors at every thread count.
//!
//! ```
//! use knnshap_numerics::compensated::NeumaierSum;
//! use knnshap_numerics::sampling::RngStreams;
//!
//! // Stream i is a pure function of (seed, i)…
//! let streams = RngStreams::new(7);
//! let p1 = knnshap_numerics::sample_permutation(&mut streams.stream(3), 10);
//! let p2 = knnshap_numerics::sample_permutation(&mut streams.stream(3), 10);
//! assert_eq!(p1, p2);
//!
//! // …and compensated merges recover what naive f64 chains lose.
//! let mut s = NeumaierSum::new();
//! for x in [1.0, 1e100, 1.0, -1e100] { s.add(x); }
//! assert_eq!(s.value(), 2.0);
//! ```

pub mod binom;
pub mod compensated;
pub mod exact;
pub mod fingerprint;
pub mod integrate;
pub mod roots;
pub mod sampling;
pub mod special;
pub mod stats;

pub use binom::LogFactorialTable;
pub use compensated::{CompensatedVec, NeumaierSum};
pub use exact::{ExactBlock, ExactSum, ExactVec};
pub use fingerprint::Fingerprint;
pub use integrate::{adaptive_simpson, simpson};
pub use roots::{bisect, brent};
pub use sampling::{gaussian_vec, sample_permutation, GaussianSampler, RngStreams};
pub use special::{bennett_h, half_normal_pdf, normal_cdf, normal_pdf};
pub use stats::Summary;
