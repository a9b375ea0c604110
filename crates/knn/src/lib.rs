//! K-nearest-neighbor substrate for the `knnshap` workspace.
//!
//! Provides everything the valuation algorithms need from a KNN system:
//!
//! * distance metrics ([`distance`]);
//! * brute-force neighbor retrieval in three flavors ([`neighbors`]):
//!   full argsort (the exact Shapley recursion of Theorem 1 consumes the
//!   complete distance ranking), partial selection of the `K*` nearest (the
//!   truncated approximation of Theorem 2), and heap-based top-K;
//! * a bounded max-heap with change detection ([`heap`]) — the data structure
//!   at the core of the improved Monte Carlo estimator (Algorithm 2), which
//!   only re-evaluates the utility when the K-nearest set actually changes;
//! * unweighted and weighted KNN classifiers with the exact utility
//!   semantics of the paper's eqs. (5) and (26) ([`classifier`]), and the
//!   distance weights of eqs. (26)/(27) ([`weights`]);
//! * an exact kd-tree index ([`kdtree`]) — the paper's named alternative to
//!   LSH for neighbor retrieval, effective in low/moderate dimensions;
//! * a query-lane distance kernel ([`block`]): one train row against a
//!   tile of queries held in SIMD lanes, bit-for-bit the per-pair
//!   [`squared_l2`]. The pass is compute-bound, not memory-bound (32
//!   queries × 3·10⁵ rows × d = 32 took 0.250 s streamed from DRAM and
//!   0.250 s against a cache-resident slice on a 2-core Xeon), so lanes
//!   pay where cache tiling did not;
//! * the versioned `KNNGRAPH` artifact that kernel feeds ([`graph`]) —
//!   precomputed per-test-point rank lists that let estimators skip the
//!   O(N·N_test·d) distance pass entirely, with `KNNSHARD`-style strict
//!   decode and dataset-content fingerprints.
//!
//! ### Determinism contract
//!
//! Every retrieval path breaks distance ties toward the smaller training
//! index, so rankings (and everything the valuation algorithms derive from
//! them) are pure functions of the data — no hashing, no RNG, no
//! thread-count sensitivity.
//!
//! ```
//! use knnshap_knn::heap::KnnHeap;
//!
//! // The bounded max-heap behind Algorithm 2's "did the K-NN set change?"
//! let mut h = KnnHeap::new(2);
//! assert!(h.insert(0.5, 0).changed());
//! assert!(h.insert(0.2, 1).changed());
//! assert!(!h.insert(0.9, 2).changed()); // farther than the current 2-NN set
//! assert_eq!(h.sorted(), vec![(0.2, 1), (0.5, 0)]);
//! ```

pub mod block;
pub mod classifier;
pub mod distance;
pub mod graph;
pub mod heap;
pub mod kdtree;
pub mod neighbors;
pub mod weights;

pub use block::{argsort_all, QueryTile, QUERY_TILE};
pub use classifier::KnnClassifier;
pub use distance::{squared_l2, Metric};
pub use graph::{GraphError, KnnGraph};
pub use heap::KnnHeap;
pub use kdtree::KdTree;
pub use neighbors::{argsort_by_distance, top_k, Neighbor};
pub use weights::WeightFn;
