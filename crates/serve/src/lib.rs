//! # knnshap-serve — valuation as a service
//!
//! A long-lived daemon around the paper's exact KNN Shapley recurrence
//! (Jia et al., VLDB 2019, Thm 1): load the dataset once, keep the
//! distance/rank state resident, and answer valuation queries over a
//! Unix or TCP socket — per-point lookup, top-k most/least valuable,
//! whole-vector dump, "what-if" valuation of a candidate point, and
//! *committed* insert/delete mutations that revalue incrementally
//! (`knnshap_core::resident`) instead of recomputing from cold.
//!
//! Three layers:
//!
//! * [`protocol`] — length-prefixed binary frames; strict, allocation-
//!   capped decoding (`docs/serving.md` has the byte-level spec).
//! * [`store`] — epoch-published immutable [`store::Snapshot`]s: every
//!   read answers from one coherent `(version, labels, values, checksum)`
//!   tuple; the checksum lets clients verify non-tearing end-to-end.
//! * [`server`] / [`client`] — the daemon (accept loop, per-connection
//!   sessions, single-writer mutation path) and a typed blocking client.
//!
//! ### Determinism contract
//!
//! After **any** sequence of mutations, the served vector is
//! bitwise-identical to a cold one-shot `knnshap value` run on the final
//! dataset, at every thread count (`tests/serve_incremental.rs` and the
//! CI serve smoke enforce this end to end).
//!
//! ```
//! use knnshap_serve::client::Client;
//! use knnshap_serve::server::{bind, Endpoint, ValuationServer};
//! use knnshap_datasets::synth::blobs::{self, BlobConfig};
//!
//! let cfg = BlobConfig { n: 40, dim: 4, n_classes: 2, ..Default::default() };
//! let server = ValuationServer::new(
//!     blobs::generate(&cfg), blobs::queries(&cfg, 5, 7), 3, 1).unwrap();
//! let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
//! let endpoint = bound.local_endpoint().clone();
//! let daemon = std::thread::spawn(move || bound.run());
//!
//! let mut c = Client::connect(&endpoint).unwrap();
//! let (version, idx) = c.insert(&[0.5, 0.5, 0.5, 0.5], 1).unwrap();
//! assert_eq!((version, idx), (1, 40));
//! let dump = c.dump().unwrap(); // checksum-verified
//! assert_eq!(dump.version, 1);
//! assert_eq!(dump.values.len(), 41);
//! c.shutdown().unwrap();
//! daemon.join().unwrap().unwrap();
//! ```

pub mod client;
pub mod protocol;
pub mod server;
pub mod store;

pub use client::{Client, ClientError, Dump, StatInfo};
pub use protocol::{
    BatchMutation, BatchOutcome, ErrorCode, ProtocolError, Request, Response, MAX_FRAME, PART_MAX,
    PROTOCOL_VERSION,
};
pub use server::{bind, BoundServer, Endpoint, ValuationServer, DEFAULT_QUEUE_BOUND};
pub use store::{Snapshot, VersionedStore};
