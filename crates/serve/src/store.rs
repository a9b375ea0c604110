//! Versioned snapshot store: epoch-style publication of immutable Shapley
//! vectors.
//!
//! The serving consistency contract is *snapshot isolation per response*:
//! every read answers from one immutable [`Snapshot`] — version, labels,
//! values and checksum all travel in a single `Arc`, so a response can
//! never mix data from two dataset versions. The writer builds a complete
//! new snapshot off to the side and [`publish`](VersionedStore::publish)es
//! it with one pointer swap; readers [`load`](VersionedStore::load) the
//! current pointer and keep the `Arc` alive for as long as they need it —
//! no reader ever blocks a writer for longer than the swap, and no writer
//! ever mutates data a reader can see.
//!
//! The [`checksum`](Snapshot::checksum) commits to `(version, labels,
//! values)`, which lets clients — and the concurrency stress test — verify
//! end-to-end that what arrived over the socket is one coherent snapshot,
//! not a torn interleaving.

use knnshap_core::sharding::Fingerprint;
use knnshap_core::types::ShapleyValues;
use std::sync::{Arc, RwLock};

/// One immutable published valuation state.
#[derive(Debug)]
pub struct Snapshot {
    /// Dataset version the vector was computed under (0 = as loaded, +1
    /// per committed mutation).
    pub version: u64,
    /// Per-point training labels, aligned with `values`.
    pub labels: Vec<u32>,
    /// The exact Shapley vector of that dataset version.
    pub values: ShapleyValues,
    /// Commitment to `(version, labels, values)` — see [`Snapshot::checksum_of`].
    pub checksum: u64,
}

impl Snapshot {
    /// Build a snapshot, computing its checksum.
    pub fn new(version: u64, labels: Vec<u32>, values: ShapleyValues) -> Self {
        let checksum = Self::checksum_of(version, &labels, &values);
        Self {
            version,
            labels,
            values,
            checksum,
        }
    }

    /// The canonical checksum: any party holding `(version, labels,
    /// values)` can recompute and compare.
    pub fn checksum_of(version: u64, labels: &[u32], values: &ShapleyValues) -> u64 {
        Fingerprint::new("knnshap-serve/snapshot")
            .u64(version)
            .u32s(labels)
            .f64s(values.as_slice())
            .finish()
    }

    /// Recompute the checksum from the carried data and compare. `false`
    /// means the snapshot is internally inconsistent (torn or corrupted).
    pub fn verify(&self) -> bool {
        Self::checksum_of(self.version, &self.labels, &self.values) == self.checksum
    }
}

/// The publication point: a single swap-on-write pointer to the current
/// [`Snapshot`].
#[derive(Debug)]
pub struct VersionedStore {
    current: RwLock<Arc<Snapshot>>,
}

impl VersionedStore {
    pub fn new(initial: Snapshot) -> Self {
        Self {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. The returned `Arc` stays valid (and
    /// immutable) even if a newer snapshot is published immediately after.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Atomically replace the current snapshot. Monotonicity is asserted:
    /// versions never go backwards.
    pub fn publish(&self, next: Snapshot) {
        let mut slot = self.current.write().expect("snapshot lock poisoned");
        assert!(
            next.version > slot.version || (next.version == 0 && slot.version == 0),
            "snapshot versions must be monotone: {} -> {}",
            slot.version,
            next.version
        );
        *slot = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(version: u64, vals: Vec<f64>) -> Snapshot {
        let labels = vec![0; vals.len()];
        Snapshot::new(version, labels, ShapleyValues::new(vals))
    }

    #[test]
    fn checksum_commits_to_every_field() {
        let s = snap(1, vec![0.5, -0.25]);
        assert!(s.verify());

        let mut torn = snap(1, vec![0.5, -0.25]);
        torn.version = 2; // version drifted from the vector
        assert!(!torn.verify());

        let mut torn = snap(1, vec![0.5, -0.25]);
        torn.values.as_mut_slice()[1] = -0.2500000001;
        assert!(!torn.verify());

        let mut torn = snap(1, vec![0.5, -0.25]);
        torn.labels[0] = 1;
        assert!(!torn.verify());
    }

    #[test]
    fn load_survives_publication() {
        let store = VersionedStore::new(snap(0, vec![1.0]));
        let old = store.load();
        store.publish(snap(1, vec![2.0]));
        // The old Arc is still the coherent version-0 snapshot…
        assert_eq!(old.version, 0);
        assert_eq!(old.values.get(0), 1.0);
        assert!(old.verify());
        // …and new loads see version 1.
        assert_eq!(store.load().version, 1);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn publication_rejects_version_regression() {
        let store = VersionedStore::new(snap(3, vec![1.0]));
        store.publish(snap(2, vec![1.0]));
    }
}
