//! The valuation daemon: resident engine + versioned store + session loop.
//!
//! One [`ValuationServer`] owns a [`ResidentValuator`] (the mutable truth)
//! and a [`VersionedStore`] (the published, immutable view). The division
//! of labor implements the consistency contract of `docs/serving.md`:
//!
//! * **Reads** (`Stat`, `Get`, `Dump`, `TopK`) answer from the current
//!   [`Snapshot`] — one `Arc` load, no engine lock, always a complete
//!   vector tagged with the version it was computed under.
//! * **Mutations** (`Insert`, `Delete`, `Batch`) go through a bounded
//!   **coalescing queue**: a session enqueues its mutation group, then
//!   races for the engine's write lock. Whoever wins — the *leader* —
//!   drains every queued group and applies them all as **one**
//!   `ResidentValuator::apply_batch` pass (one rank-list splice sweep, one
//!   recursion, one snapshot publish), then acks each group individually
//!   with its per-mutation receipts. The published snapshot carries the
//!   version after the whole drain; each ack still carries the gapless
//!   per-commit version its mutation produced, exactly as sequential
//!   application would number it.
//! * **Admission control**: the queue is bounded
//!   ([`ValuationServer::set_queue_bound`], default
//!   [`DEFAULT_QUEUE_BOUND`] pending mutations). A group that would push
//!   the queue past its bound is refused *before* anything is enqueued
//!   with an [`ErrorCode::Busy`] error — the daemon's state is untouched
//!   and a retry is always safe. Bound 0 makes the daemon read-only.
//! * **`WhatIf`** takes the engine's *read* lock (it needs the rank lists,
//!   not the snapshot) and answers with `ResidentValuator::what_if` and
//!   the version it read under that lock. Concurrent what-ifs share the
//!   read lock and run side by side.
//! * **Training-set export** (`TrainCsv`, `TrainCsvStream`) copies the
//!   training set's binary features and labels under the engine's *read*
//!   lock — a memory copy of N·(4d + 4) bytes — then releases it and
//!   formats CSV from the copy. The lock is never held while formatting
//!   or during a socket write. The streamed export sends the CSV in parts
//!   of at most [`PART_MAX`] bytes, so its only other buffer is one part.
//!
//! Deadlock freedom of the coalescing path: a group is acked *while the
//! leader holds the engine write lock*. A session that enqueued and then
//! acquired the lock either finds its group still queued (it drains and
//! acks it itself) or the queue already drained — in which case a previous
//! leader, who necessarily held the lock before us, already sent the ack.
//! Either way the post-unlock `recv()` cannot block forever.
//!
//! The session loop never panics on protocol garbage: undecodable requests
//! get an [`ErrorCode::BadRequest`] response (the frame boundary is
//! intact, so the session continues); frame-level corruption (oversized
//! prefix) gets a final error and a close, because the stream position is
//! no longer trustworthy; a peer that vanishes mid-frame is just a closed
//! session. `tests/protocol_robustness.rs` drives all three.

use crate::protocol::{
    read_frame, write_frame, write_response, write_train_csv_part, BatchMutation, BatchOutcome,
    ErrorCode, MetricsHistogram, ProtocolError, Request, Response, MAX_FRAME, PART_MAX,
    PROTOCOL_VERSION, TRAIN_CSV_MAX,
};
use crate::store::{Snapshot, VersionedStore};
use knnshap_core::resident::{Applied, Mutation, ResidentError, ResidentValuator};
use knnshap_datasets::io::WINDOW;
use knnshap_datasets::ClassDataset;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Instant;

/// Where a daemon listens (and where clients connect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// `host:port` TCP address. Port 0 binds an ephemeral port — read the
    /// actual one back from [`BoundServer::local_endpoint`].
    Tcp(String),
    /// Filesystem path of a Unix-domain socket.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A bidirectional byte stream — TCP or Unix, the protocol doesn't care.
pub trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// Default bound on queued-but-unapplied mutations (sum of group sizes).
pub const DEFAULT_QUEUE_BOUND: usize = 64;

/// What a leader sends back per drained group: the per-mutation receipts
/// plus the engine version after the whole drain (== the version of the
/// snapshot the drain published, when anything was accepted).
type GroupAck = (Vec<Result<Applied, ResidentError>>, u64);

/// A mutation group waiting to be coalesced into the next engine pass.
struct PendingGroup {
    muts: Vec<Mutation>,
    ack: mpsc::Sender<GroupAck>,
}

#[derive(Default)]
struct QueueState {
    groups: Vec<PendingGroup>,
    /// Sum of queued group sizes — what the bound is enforced against.
    depth: usize,
}

/// The bounded coalescing queue in front of the engine write lock.
struct MutationQueue {
    state: Mutex<QueueState>,
    bound: AtomicUsize,
}

impl MutationQueue {
    fn new(bound: usize) -> Self {
        Self {
            state: Mutex::new(QueueState::default()),
            bound: AtomicUsize::new(bound),
        }
    }

    /// Admit `muts` or refuse with `(depth, bound)` for the Busy message.
    /// Admission is all-or-nothing per group: a refused group left nothing
    /// behind, so the client can simply retry.
    fn enqueue(&self, muts: Vec<Mutation>) -> Result<mpsc::Receiver<GroupAck>, (usize, usize)> {
        let bound = self.bound.load(Ordering::SeqCst);
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.depth + muts.len() > bound {
            return Err((state.depth, bound));
        }
        let (tx, rx) = mpsc::channel();
        state.depth += muts.len();
        state.groups.push(PendingGroup { muts, ack: tx });
        Ok(rx)
    }

    /// Take every queued group (possibly none, if an earlier leader beat
    /// us to them). Called only while holding the engine write lock.
    fn drain(&self) -> Vec<PendingGroup> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        state.depth = 0;
        std::mem::take(&mut state.groups)
    }

    /// Mutations currently queued (telemetry only — the value may be stale
    /// the instant the lock drops).
    fn depth(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").depth
    }
}

/// A lock-free histogram in the power-of-two bucket scheme of
/// `knnshap_obs` (bucket 0 counts zeros, bucket `b` counts
/// `[2^(b−1), 2^b)`). Per-server — unlike the process-global registry of
/// `knnshap_obs`, two in-process daemons never share these — and always
/// on, because [`Request::Metrics`] is part of the wire contract, not an
/// opt-in diagnostic. The cost per sample is five relaxed atomic ops.
struct LocalHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; knnshap_obs::metrics::BUCKETS],
}

impl LocalHistogram {
    fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        Self {
            count: Z,
            sum: Z,
            min: AtomicU64::new(u64::MAX),
            max: Z,
            buckets: [Z; knnshap_obs::metrics::BUCKETS],
        }
    }

    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[knnshap_obs::metrics::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn to_wire(&self) -> MetricsHistogram {
        MetricsHistogram {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// The daemon's always-on operational counters, served by
/// [`Request::Metrics`] and snapshotted to JSONL by the CLI's metrics
/// loop. Write-only from the request paths' point of view — nothing here
/// feeds back into a served value.
struct ServerMetrics {
    started: Instant,
    requests: AtomicU64,
    /// What-ifs evaluated, rejected ones included.
    whatifs: AtomicU64,
    latency_micros: LocalHistogram,
    batch_sizes: LocalHistogram,
}

impl ServerMetrics {
    fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            whatifs: AtomicU64::new(0),
            latency_micros: LocalHistogram::new(),
            batch_sizes: LocalHistogram::new(),
        }
    }
}

/// The daemon state: resident engine, published snapshots, shutdown flag.
pub struct ValuationServer {
    engine: RwLock<ResidentValuator>,
    store: VersionedStore,
    queue: MutationQueue,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    // Immutable once loaded; served by `Stat` without touching any lock.
    n_test: u64,
    k: u64,
    dim: u64,
}

impl ValuationServer {
    /// Load the dataset into a resident engine, compute the initial
    /// valuation and publish it as snapshot version 0.
    pub fn new(
        train: ClassDataset,
        test: ClassDataset,
        k: usize,
        threads: usize,
    ) -> Result<Arc<Self>, ResidentError> {
        Self::from_engine(
            test.len(),
            train.dim(),
            ResidentValuator::new(train, test, k, threads)?,
            k,
        )
    }

    /// Like [`ValuationServer::new`] but seeded from a precomputed
    /// `KNNGRAPH` artifact: the engine adopts the graph's ranked neighbor
    /// lists (fingerprint-checked against the datasets) instead of running
    /// the startup distance pass, and the initial snapshot is
    /// bitwise-identical to the cold-start one.
    pub fn with_graph(
        train: ClassDataset,
        test: ClassDataset,
        k: usize,
        threads: usize,
        graph: &knnshap_knn::graph::KnnGraph,
    ) -> Result<Arc<Self>, ResidentError> {
        Self::from_engine(
            test.len(),
            train.dim(),
            ResidentValuator::with_graph(train, test, k, threads, graph)?,
            k,
        )
    }

    fn from_engine(
        n_test: usize,
        dim: usize,
        engine: ResidentValuator,
        k: usize,
    ) -> Result<Arc<Self>, ResidentError> {
        let initial = Snapshot::new(engine.version(), engine.train().y.clone(), engine.values());
        Ok(Arc::new(Self {
            engine: RwLock::new(engine),
            store: VersionedStore::new(initial),
            queue: MutationQueue::new(DEFAULT_QUEUE_BOUND),
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            n_test: n_test as u64,
            k: k as u64,
            dim: dim as u64,
        }))
    }

    /// Replace the admission bound on queued mutations. 0 refuses every
    /// mutation (a read-only daemon); already-queued groups still drain.
    pub fn set_queue_bound(&self, bound: usize) {
        self.queue.bound.store(bound, Ordering::SeqCst);
    }

    /// The current admission bound.
    pub fn queue_bound(&self) -> usize {
        self.queue.bound.load(Ordering::SeqCst)
    }

    /// Has a `Shutdown` request been accepted?
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The currently published snapshot (what reads answer from).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.load()
    }

    /// Dispatch one request to one response. Pure with respect to the
    /// transport — the session loop, the in-process tests and the CLI all
    /// route through here, so socket and non-socket behavior can't drift.
    /// Every call is counted and timed into the daemon's [`Request::Metrics`]
    /// surface; the accounting is write-only and never alters a response.
    pub fn handle(&self, req: &Request) -> Response {
        self.timed(|| self.dispatch(req))
    }

    /// Answer [`Request::TrainCsvStream`] on `w`: `TrainCsvPart` frames
    /// of at most [`PART_MAX`] CSV bytes, cut at row boundaries, then one
    /// `TrainCsvEnd`. The parts join to the `save_class_csv` bytes of the
    /// training set at the version the end frame names. Counted and timed
    /// like [`ValuationServer::handle`]; the time includes the writes.
    /// Any error leaves `w` mid-stream.
    pub fn stream_train_csv<W: Write>(&self, w: &mut W) -> Result<(), ProtocolError> {
        self.timed(|| self.copy_train().stream(w))
    }

    /// Count one request and time it into the [`Request::Metrics`]
    /// latency histogram.
    fn timed<T>(&self, op: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let out = op();
        self.metrics
            .latency_micros
            .record(start.elapsed().as_micros() as u64);
        out
    }

    /// The training set and its version, copied under the engine read
    /// lock; the lock is released on return.
    fn copy_train(&self) -> TrainCopy {
        let engine = self.engine.read().expect("engine lock poisoned");
        TrainCopy::new(engine.version(), engine.train())
    }

    fn dispatch(&self, req: &Request) -> Response {
        match req {
            Request::Stat => {
                let s = self.store.load();
                Response::Stat {
                    protocol: PROTOCOL_VERSION,
                    version: s.version,
                    n_train: s.values.len() as u64,
                    n_test: self.n_test,
                    k: self.k,
                    dim: self.dim,
                    checksum: s.checksum,
                }
            }
            Request::Get { index } => {
                let s = self.store.load();
                if *index >= s.values.len() as u64 {
                    return rejected(format!(
                        "train index {index} out of range 0..{}",
                        s.values.len()
                    ));
                }
                Response::Value {
                    version: s.version,
                    value: s.values.get(*index as usize),
                }
            }
            Request::Dump => {
                let s = self.store.load();
                Response::Vector {
                    version: s.version,
                    checksum: s.checksum,
                    labels: s.labels.clone(),
                    values: s.values.as_slice().to_vec(),
                }
            }
            Request::TopK { count, most } => {
                let s = self.store.load();
                let count = (*count as usize).min(s.values.len());
                let idx = if *most {
                    s.values.top_k(count)
                } else {
                    s.values.bottom_k(count)
                };
                Response::Ranked {
                    version: s.version,
                    entries: idx
                        .into_iter()
                        .map(|i| (i as u64, s.values.get(i)))
                        .collect(),
                }
            }
            Request::WhatIf { features, label } => {
                self.metrics.whatifs.fetch_add(1, Ordering::Relaxed);
                let engine = self.engine.read().expect("engine lock poisoned");
                match engine.what_if(features, *label) {
                    Ok(value) => Response::Value {
                        version: engine.version(),
                        value,
                    },
                    Err(e) => rejected_err(e),
                }
            }
            Request::Insert { features, label } => {
                match self.mutate(vec![Mutation::Insert {
                    features: features.clone(),
                    label: *label,
                }]) {
                    Err((depth, bound)) => busy(depth, bound),
                    Ok((mut acks, _)) => match acks.pop().expect("one ack per mutation") {
                        Ok(a) => Response::Mutated {
                            version: a.version,
                            index: a.index as u64,
                        },
                        Err(e) => rejected_err(e),
                    },
                }
            }
            Request::Delete { index } => {
                if *index > usize::MAX as u64 {
                    return rejected(format!("train index {index} out of range"));
                }
                match self.mutate(vec![Mutation::Delete {
                    index: *index as usize,
                }]) {
                    Err((depth, bound)) => busy(depth, bound),
                    Ok((mut acks, _)) => match acks.pop().expect("one ack per mutation") {
                        Ok(a) => Response::Mutated {
                            version: a.version,
                            index: *index,
                        },
                        Err(e) => rejected_err(e),
                    },
                }
            }
            Request::Batch { mutations } => {
                let muts: Vec<Mutation> = mutations
                    .iter()
                    .map(|m| match m {
                        BatchMutation::Insert { features, label } => Mutation::Insert {
                            features: features.clone(),
                            label: *label,
                        },
                        BatchMutation::Delete { index } => Mutation::Delete {
                            // An index beyond the platform's usize cannot
                            // name a real point (training sets are far
                            // below u32::MAX): clamp to a value the engine
                            // is guaranteed to reject as out of range.
                            index: usize::try_from(*index).unwrap_or(usize::MAX),
                        },
                    })
                    .collect();
                match self.mutate(muts) {
                    Err((depth, bound)) => busy(depth, bound),
                    Ok((acks, version)) => Response::BatchApplied {
                        version,
                        outcomes: acks
                            .into_iter()
                            .map(|r| match r {
                                Ok(a) => BatchOutcome::Applied {
                                    version: a.version,
                                    index: a.index as u64,
                                },
                                Err(e) => BatchOutcome::Rejected {
                                    code: ErrorCode::Rejected,
                                    message: e.to_string(),
                                },
                            })
                            .collect(),
                    },
                }
            }
            Request::TrainCsv => {
                let train = self.copy_train();
                match train.csv_within(TRAIN_CSV_MAX) {
                    Some(csv) => Response::TrainCsv {
                        version: train.version,
                        csv,
                    },
                    None => rejected(format!(
                        "the training set's CSV ({} rows) exceeds the {MAX_FRAME}-byte \
                         frame cap; ask for the streamed export (TrainCsvStream, protocol v4)",
                        train.rows()
                    )),
                }
            }
            // A stream of frames is not one response: the session loop
            // answers this request through `stream_train_csv`.
            Request::TrainCsvStream => Response::Error {
                code: ErrorCode::BadRequest,
                message: "TrainCsvStream is answered by a frame stream \
                          (ValuationServer::stream_train_csv), not by one response"
                    .into(),
            },
            Request::Metrics => self.metrics_response(),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
        }
    }

    /// The daemon's operational telemetry as a [`Response::Metrics`].
    /// Reads the snapshot pointer, the queue mutex and the counters —
    /// never the engine lock, so metrics stay answerable while a mutation
    /// drains. What-ifs are not cached: every one counts in
    /// `whatif_misses`, and the other what-if slots are always 0.
    pub fn metrics_response(&self) -> Response {
        let s = self.store.load();
        Response::Metrics {
            protocol: PROTOCOL_VERSION,
            version: s.version,
            uptime_secs: self.metrics.started.elapsed().as_secs_f64(),
            requests: self.metrics.requests.load(Ordering::Relaxed),
            queue_depth: self.queue.depth() as u64,
            queue_bound: self.queue_bound() as u64,
            whatif_hits: 0,
            whatif_misses: self.metrics.whatifs.load(Ordering::Relaxed),
            whatif_evictions: 0,
            whatif_len: 0,
            latency_micros: self.metrics.latency_micros.to_wire(),
            batch_sizes: self.metrics.batch_sizes.to_wire(),
        }
    }

    /// One JSONL line of the daemon's metrics, in the event schema of
    /// `knnshap_obs::json::validate_event_line` (the CLI's periodic
    /// snapshot loop appends these when `KNNSHAP_METRICS` names a file).
    pub fn metrics_jsonl_line(&self) -> String {
        let Response::Metrics {
            version,
            uptime_secs,
            requests,
            queue_depth,
            queue_bound,
            whatif_misses,
            latency_micros,
            batch_sizes,
            ..
        } = self.metrics_response()
        else {
            unreachable!("metrics_response always returns Response::Metrics")
        };
        knnshap_obs::event::render_line(
            knnshap_obs::Level::Info,
            "serve",
            "metrics",
            &[
                ("version", version.into()),
                ("uptime_secs", uptime_secs.into()),
                ("requests", requests.into()),
                ("queue_depth", queue_depth.into()),
                ("queue_bound", queue_bound.into()),
                ("whatifs", whatif_misses.into()),
                ("latency_count", latency_micros.count.into()),
                ("latency_mean_micros", latency_micros.mean().into()),
                ("latency_max_micros", latency_micros.max.into()),
                ("batch_count", batch_sizes.count.into()),
                ("batch_mean_size", batch_sizes.mean().into()),
                ("batch_max_size", batch_sizes.max.into()),
            ],
        )
    }

    /// The coalescing mutation path shared by `Insert`, `Delete` and
    /// `Batch`. Admission-checks and enqueues the group, then races for
    /// the engine write lock; the winner (leader) drains *every* queued
    /// group, applies them as one `apply_batch` pass, publishes a single
    /// fresh snapshot (when anything was accepted) and acks each group.
    /// Returns this group's per-mutation receipts plus the engine version
    /// after the drain that applied it, or `(depth, bound)` when refused.
    fn mutate(
        &self,
        muts: Vec<Mutation>,
    ) -> Result<(Vec<Result<Applied, ResidentError>>, u64), (usize, usize)> {
        let rx = self.queue.enqueue(muts)?;
        {
            let mut engine = self.engine.write().expect("engine lock poisoned");
            let mut groups = self.queue.drain();
            if !groups.is_empty() {
                let sizes: Vec<usize> = groups.iter().map(|g| g.muts.len()).collect();
                let mut combined = Vec::with_capacity(sizes.iter().sum());
                for g in &mut groups {
                    combined.append(&mut g.muts);
                }
                self.metrics.batch_sizes.record(combined.len() as u64);
                knnshap_obs::emit(
                    knnshap_obs::Level::Debug,
                    "serve",
                    "drain",
                    &[
                        ("groups", groups.len().into()),
                        ("mutations", combined.len().into()),
                    ],
                );
                let acks = engine.apply_batch(&combined);
                if acks.iter().any(Result::is_ok) {
                    // One publish for the whole drain, at the version of
                    // its last accepted mutation. Published versions stay
                    // monotone; the per-commit versions in the acks stay
                    // gapless, exactly as sequential application numbers
                    // them.
                    self.publish_from(&engine);
                }
                let version = engine.version();
                // Hand each group its slice of the receipts, in order.
                // Sent while we still hold the engine lock — this is what
                // makes the post-unlock recv() below deadlock-free for
                // every waiter (see the module docs).
                let mut rest = acks;
                for (g, size) in groups.into_iter().zip(sizes) {
                    let tail = rest.split_off(size);
                    let mine = std::mem::replace(&mut rest, tail);
                    let _ = g.ack.send((mine, version));
                }
            }
        }
        Ok(rx.recv().expect("every drained group is acked"))
    }

    /// Recompute + publish under the engine's write lock, so published
    /// versions are monotone and a reader can never observe version V
    /// while the engine is already past V+1.
    fn publish_from(&self, engine: &ResidentValuator) {
        self.store.publish(Snapshot::new(
            engine.version(),
            engine.train().y.clone(),
            engine.values(),
        ));
    }
}

fn rejected(message: String) -> Response {
    Response::Error {
        code: ErrorCode::Rejected,
        message,
    }
}

fn busy(depth: usize, bound: usize) -> Response {
    Response::Error {
        code: ErrorCode::Busy,
        message: format!(
            "mutation queue at its admission bound ({depth} of {bound} queued); retry later"
        ),
    }
}

fn rejected_err(e: ResidentError) -> Response {
    rejected(e.to_string())
}

/// A copy of the training set taken under the engine read lock: row-major
/// features and labels, N·(4d + 4) bytes, held in row blocks whose feature
/// part is at most [`WINDOW`] (64 KiB) bytes. The CSV export formats from
/// it after the lock is gone.
///
/// The blocks keep every allocation below glibc's 128 KiB mmap threshold.
/// A single N·4d-byte buffer would be mmapped, and freeing it raises that
/// threshold to its size, so the next export's copy would come from the
/// heap and stay resident after the export; blocks are freed to the heap
/// and reused by the next export.
struct TrainCopy {
    version: u64,
    dim: usize,
    rows: usize,
    /// `(features, labels)` of consecutive rows.
    blocks: Vec<(Vec<f32>, Vec<u32>)>,
}

impl TrainCopy {
    fn new(version: u64, train: &ClassDataset) -> Self {
        let dim = train.dim();
        let per_block = (WINDOW / (4 * dim)).max(1);
        let blocks = train
            .x
            .as_slice()
            .chunks(per_block * dim)
            .zip(train.y.chunks(per_block))
            .map(|(x, y)| (x.to_vec(), y.to_vec()))
            .collect();
        TrainCopy {
            version,
            dim,
            rows: train.len(),
            blocks,
        }
    }

    fn rows(&self) -> usize {
        self.rows
    }

    /// Every row in order: its features and its label.
    fn each_row(&self) -> impl Iterator<Item = (&[f32], u32)> {
        self.blocks
            .iter()
            .flat_map(|(x, y)| x.chunks_exact(self.dim).zip(y.iter().copied()))
    }

    /// Append a row in the `save_class_csv` text format: the `f32`
    /// features (`Display`, i.e. shortest round-trip) each followed by a
    /// comma, then the integer label. Byte-identical to what
    /// `knnshap_datasets::io::save_class_csv` writes for the same row.
    fn write_row((x, label): (&[f32], u32), out: &mut Vec<u8>) {
        for v in x {
            write!(out, "{v},").expect("write to a Vec");
        }
        writeln!(out, "{label}").expect("write to a Vec");
    }

    /// The whole CSV, or `None` as soon as it passes `limit` bytes.
    fn csv_within(&self, limit: usize) -> Option<Vec<u8>> {
        let mut csv = Vec::new();
        for row in self.each_row() {
            Self::write_row(row, &mut csv);
            if csv.len() > limit {
                return None;
            }
        }
        Some(csv)
    }

    /// The streamed export: parts of at most [`PART_MAX`] bytes cut at
    /// row boundaries (a longer row goes alone), then the end frame.
    fn stream<W: Write>(&self, w: &mut W) -> Result<(), ProtocolError> {
        let (mut part, mut row) = (Vec::with_capacity(PART_MAX), Vec::new());
        let mut bytes = 0u64;
        for r in self.each_row() {
            row.clear();
            Self::write_row(r, &mut row);
            if !part.is_empty() && part.len() + row.len() > PART_MAX {
                write_train_csv_part(w, &part)?;
                bytes += part.len() as u64;
                part.clear();
            }
            part.extend_from_slice(&row);
        }
        if !part.is_empty() {
            write_train_csv_part(w, &part)?;
            bytes += part.len() as u64;
        }
        write_frame(
            w,
            &Response::TrainCsvEnd {
                version: self.version,
                rows: self.rows() as u64,
                bytes,
            }
            .encode(),
        )
    }
}

// ---------------------------------------------------------------------------
// Listening and sessions.
// ---------------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Box<dyn Conn>> {
        match self {
            Listener::Tcp(l) => Ok(Box::new(l.accept()?.0)),
            #[cfg(unix)]
            Listener::Unix(l) => Ok(Box::new(l.accept()?.0)),
        }
    }
}

/// A server bound to its endpoint, ready to [`run`](BoundServer::run).
pub struct BoundServer {
    server: Arc<ValuationServer>,
    listener: Listener,
    /// The *resolved* endpoint (actual port for `Tcp("…:0")` binds) —
    /// what clients connect to, and what the shutdown wake-up uses.
    endpoint: Endpoint,
}

/// Bind `server` to `endpoint`. A stale Unix socket file (left by an
/// unclean shutdown, detectable because nothing accepts on it) is removed
/// and rebound; a *live* socket stays untouched and the bind fails with
/// `AddrInUse`.
pub fn bind(server: Arc<ValuationServer>, endpoint: &Endpoint) -> std::io::Result<BoundServer> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let actual = listener.local_addr()?.to_string();
            Ok(BoundServer {
                server,
                listener: Listener::Tcp(listener),
                endpoint: Endpoint::Tcp(actual),
            })
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            let listener = match UnixListener::bind(path) {
                Ok(l) => l,
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    if UnixStream::connect(path).is_ok() {
                        return Err(e); // a live daemon owns this path
                    }
                    std::fs::remove_file(path)?; // stale socket file
                    UnixListener::bind(path)?
                }
                Err(e) => return Err(e),
            };
            Ok(BoundServer {
                server,
                listener: Listener::Unix(listener),
                endpoint: Endpoint::Unix(path.clone()),
            })
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

impl BoundServer {
    /// The endpoint clients should connect to (with ephemeral TCP ports
    /// resolved to the actual one).
    pub fn local_endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Accept-and-serve until a `Shutdown` request lands. Each connection
    /// gets its own session thread; `run` returns once shutdown is
    /// requested and all sessions have drained. A Unix socket file is
    /// removed on the way out.
    pub fn run(self) -> std::io::Result<()> {
        let BoundServer {
            server,
            listener,
            endpoint,
        } = self;
        let result = std::thread::scope(|scope| loop {
            if server.shutting_down() {
                return Ok(());
            }
            let conn = match listener.accept() {
                Ok(c) => c,
                Err(e) => {
                    if server.shutting_down() {
                        return Ok(());
                    }
                    return Err(e);
                }
            };
            let (server, endpoint) = (&server, &endpoint);
            scope.spawn(move || session(server, conn, endpoint));
        });
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// Poke the acceptor loop awake (used after `Shutdown` flips the flag
/// while `accept` is blocking). A plain connect-and-drop suffices: the
/// accepted session sees an immediate clean EOF.
fn wake(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let _ = TcpStream::connect(addr.as_str());
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            let _ = UnixStream::connect(path);
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => {}
    }
}

/// One client session: read frames, dispatch, write responses, until the
/// peer disconnects or the stream becomes untrustworthy.
fn session(server: &ValuationServer, mut conn: Box<dyn Conn>, endpoint: &Endpoint) {
    loop {
        let payload = match read_frame(&mut conn) {
            Ok(Some(p)) => p,
            // Clean close between frames, or the peer vanished mid-frame /
            // transport error: nothing to answer, drop the session.
            Ok(None) | Err(ProtocolError::Io(_)) | Err(ProtocolError::Truncated { .. }) => return,
            // The stream still works but its framing can't be trusted
            // (hostile length prefix): answer once, then close.
            Err(e) => {
                let resp = Response::Error {
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                };
                let _ = write_frame(&mut conn, &resp.encode());
                return;
            }
        };
        // Frame boundaries are intact, so a request that fails to decode
        // only poisons itself — answer the error and keep the session.
        let resp = match Request::decode(&payload) {
            Ok(Request::TrainCsvStream) => {
                // A stream cut short (peer gone, or a row past the frame
                // cap) leaves the connection mid-stream: close it.
                if server.stream_train_csv(&mut conn).is_err() {
                    return;
                }
                continue;
            }
            Ok(req) => server.handle(&req),
            Err(e) => Response::Error {
                code: ErrorCode::BadRequest,
                message: e.to_string(),
            },
        };
        if write_response(&mut conn, &resp).is_err() {
            return; // peer stopped listening
        }
        if matches!(resp, Response::ShuttingDown) {
            wake(endpoint);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knnshap_core::exact_unweighted::knn_class_shapley_with_threads;
    use knnshap_datasets::synth::blobs::{self, BlobConfig};

    fn server() -> Arc<ValuationServer> {
        let cfg = BlobConfig {
            n: 30,
            dim: 4,
            n_classes: 2,
            ..Default::default()
        };
        ValuationServer::new(blobs::generate(&cfg), blobs::queries(&cfg, 6, 9), 3, 1).unwrap()
    }

    #[test]
    fn reads_answer_from_a_coherent_snapshot() {
        let s = server();
        match s.handle(&Request::Stat) {
            Response::Stat {
                protocol,
                version,
                n_train,
                n_test,
                k,
                dim,
                ..
            } => {
                assert_eq!(protocol, PROTOCOL_VERSION);
                assert_eq!((version, n_train, n_test, k, dim), (0, 30, 6, 3, 4));
            }
            other => panic!("wrong response: {other:?}"),
        }
        match s.handle(&Request::Dump) {
            Response::Vector {
                version,
                checksum,
                labels,
                values,
            } => {
                let snap = Snapshot::new(version, labels, values.into());
                assert_eq!(snap.checksum, checksum, "served checksum must verify");
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn mutations_bump_version_and_republish() {
        let s = server();
        let v1 = match s.handle(&Request::Insert {
            features: vec![0.5; 4],
            label: 1,
        }) {
            Response::Mutated { version, index } => {
                assert_eq!(index, 30);
                version
            }
            other => panic!("wrong response: {other:?}"),
        };
        assert_eq!(v1, 1);
        let snap = s.snapshot();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.values.len(), 31);
        assert!(snap.verify());

        match s.handle(&Request::Delete { index: 30 }) {
            Response::Mutated { version, .. } => assert_eq!(version, 2),
            other => panic!("wrong response: {other:?}"),
        }
        // Net effect of insert-then-delete: the original valuation.
        let snap = s.snapshot();
        let engine = s.engine.read().unwrap();
        let cold = knn_class_shapley_with_threads(engine.train(), engine.test(), 3, 1);
        for i in 0..cold.len() {
            assert_eq!(snap.values.get(i).to_bits(), cold.get(i).to_bits());
        }
    }

    #[test]
    fn bad_requests_are_rejected_not_panicked() {
        let s = server();
        assert!(matches!(
            s.handle(&Request::Get { index: 10_000 }),
            Response::Error {
                code: ErrorCode::Rejected,
                ..
            }
        ));
        assert!(matches!(
            s.handle(&Request::Delete { index: 10_000 }),
            Response::Error {
                code: ErrorCode::Rejected,
                ..
            }
        ));
        assert!(matches!(
            s.handle(&Request::Insert {
                features: vec![1.0],
                label: 0
            }),
            Response::Error {
                code: ErrorCode::Rejected,
                ..
            }
        ));
        // Failed mutations must not publish.
        assert_eq!(s.snapshot().version, 0);
    }

    #[test]
    fn top_k_and_bottom_k_agree_with_the_vector() {
        let s = server();
        let snap = s.snapshot();
        match s.handle(&Request::TopK {
            count: 5,
            most: true,
        }) {
            Response::Ranked { entries, .. } => {
                assert_eq!(entries.len(), 5);
                let expect = snap.values.top_k(5);
                for (got, want) in entries.iter().zip(expect) {
                    assert_eq!(got.0 as usize, want);
                    assert_eq!(got.1.to_bits(), snap.values.get(want).to_bits());
                }
            }
            other => panic!("wrong response: {other:?}"),
        }
        // count larger than N clamps instead of failing.
        match s.handle(&Request::TopK {
            count: 10_000,
            most: false,
        }) {
            Response::Ranked { entries, .. } => assert_eq!(entries.len(), 30),
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn train_csv_matches_save_class_csv_bytes() {
        let s = server();
        let engine = s.engine.read().unwrap();
        let expect = {
            let dir =
                std::env::temp_dir().join(format!("knnshap-serve-csv-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("train.csv");
            knnshap_datasets::io::save_class_csv(&path, engine.train()).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            bytes
        };
        drop(engine);
        match s.handle(&Request::TrainCsv) {
            Response::TrainCsv { csv, version } => {
                assert_eq!(version, 0);
                assert_eq!(csv, expect);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    /// A server whose training-set CSV spans several parts: 3000 rows of
    /// 8 features are about 256 KB.
    fn wide_server() -> Arc<ValuationServer> {
        let cfg = BlobConfig {
            n: 3000,
            dim: 8,
            n_classes: 3,
            ..Default::default()
        };
        ValuationServer::new(blobs::generate(&cfg), blobs::queries(&cfg, 2, 9), 3, 1).unwrap()
    }

    fn save_class_csv_bytes(train: &ClassDataset) -> Vec<u8> {
        let dir = std::env::temp_dir().join(format!(
            "knnshap-serve-stream-{}-{}",
            std::process::id(),
            train.len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.csv");
        knnshap_datasets::io::save_class_csv(&path, train).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    #[test]
    fn streamed_export_joins_to_save_class_csv_in_bounded_row_parts() {
        let s = wide_server();
        assert!(matches!(
            s.handle(&Request::Delete { index: 5 }),
            Response::Mutated { version: 1, .. }
        ));
        let expect = save_class_csv_bytes(s.engine.read().unwrap().train());
        let mut wire = Vec::new();
        s.stream_train_csv(&mut wire).unwrap();

        let (mut r, mut joined, mut parts) = (&wire[..], Vec::new(), 0);
        let end = loop {
            let payload = read_frame(&mut r)
                .unwrap()
                .expect("stream ends with its end frame");
            match Response::decode(&payload).unwrap() {
                Response::TrainCsvPart { csv } => {
                    assert!(csv.len() <= PART_MAX, "part of {} bytes", csv.len());
                    assert_eq!(csv.last(), Some(&b'\n'), "part ends mid-row");
                    joined.extend_from_slice(&csv);
                    parts += 1;
                }
                end => break end,
            }
        };
        assert!(r.is_empty(), "bytes after the end frame");
        assert!(parts >= 3, "{parts} parts");
        assert!(joined == expect, "joined parts differ from save_class_csv");
        assert_eq!(
            end,
            Response::TrainCsvEnd {
                version: 1,
                rows: 2999,
                bytes: expect.len() as u64,
            }
        );
        // The one-frame export of the same version has the same bytes.
        match s.handle(&Request::TrainCsv) {
            Response::TrainCsv { version: 1, csv } => assert!(csv == expect),
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn the_engine_lock_is_free_while_parts_are_written() {
        // A writer that checks, on every write, that a mutation could take
        // the engine's write lock — i.e. no read guard is alive.
        struct Probe<'a>(&'a ValuationServer, usize);
        impl Write for Probe<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                assert!(self.0.engine.try_write().is_ok(), "engine lock held");
                self.1 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let s = wide_server();
        let mut probe = Probe(&s, 0);
        s.stream_train_csv(&mut probe).unwrap();
        assert!(probe.1 > 3, "{} writes", probe.1);
    }

    #[test]
    fn a_training_copy_is_held_in_row_blocks_below_the_mmap_threshold() {
        let cfg = BlobConfig {
            n: 5000,
            dim: 7,
            n_classes: 3,
            ..Default::default()
        };
        let train = blobs::generate(&cfg);
        let copy = TrainCopy::new(4, &train);
        assert_eq!((copy.version, copy.rows()), (4, 5000));
        assert!(copy.blocks.len() > 1, "{} blocks", copy.blocks.len());
        for (x, y) in &copy.blocks {
            assert!(x.len() * 4 <= WINDOW && y.len() * 4 <= WINDOW);
            assert_eq!(x.len(), y.len() * 7);
        }
        let rows: Vec<(&[f32], u32)> = copy.each_row().collect();
        assert_eq!(rows.len(), 5000);
        for (i, (x, y)) in rows.into_iter().enumerate() {
            assert!(x == train.x.row(i) && y == train.y[i], "row {i}");
        }
    }

    #[test]
    fn one_frame_export_refuses_a_csv_past_its_limit() {
        let s = server();
        let train = s.copy_train();
        let csv = train.csv_within(usize::MAX).unwrap();
        assert!(train.csv_within(csv.len()) == Some(csv.clone()));
        assert!(train.csv_within(csv.len() - 1).is_none());
        // In-process, the stream request cannot be one response.
        assert!(matches!(
            s.handle(&Request::TrainCsvStream),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn batch_coalesces_with_one_publish_and_per_mutation_acks() {
        let s = server();
        let twin = server(); // sequential reference
        let resp = s.handle(&Request::Batch {
            mutations: vec![
                BatchMutation::Insert {
                    features: vec![0.5; 4],
                    label: 1,
                },
                BatchMutation::Delete { index: 99 }, // rejected mid-batch
                BatchMutation::Insert {
                    features: vec![-0.25; 4],
                    label: 0,
                },
                BatchMutation::Delete { index: 3 },
            ],
        });
        match resp {
            Response::BatchApplied { version, outcomes } => {
                assert_eq!(version, 3, "three accepted commits");
                assert_eq!(outcomes.len(), 4);
                assert_eq!(
                    outcomes[0],
                    BatchOutcome::Applied {
                        version: 1,
                        index: 30
                    }
                );
                assert!(matches!(
                    &outcomes[1],
                    BatchOutcome::Rejected {
                        code: ErrorCode::Rejected,
                        message
                    } if message.contains("out of range")
                ));
                assert_eq!(
                    outcomes[2],
                    BatchOutcome::Applied {
                        version: 2,
                        index: 31
                    }
                );
                assert_eq!(
                    outcomes[3],
                    BatchOutcome::Applied {
                        version: 3,
                        index: 3
                    }
                );
            }
            other => panic!("wrong response: {other:?}"),
        }
        // One snapshot, at the final version, bitwise-equal to sequential
        // application of the accepted mutations.
        let snap = s.snapshot();
        assert_eq!(snap.version, 3);
        assert!(snap.verify());
        for req in [
            Request::Insert {
                features: vec![0.5; 4],
                label: 1,
            },
            Request::Insert {
                features: vec![-0.25; 4],
                label: 0,
            },
            Request::Delete { index: 3 },
        ] {
            assert!(matches!(twin.handle(&req), Response::Mutated { .. }));
        }
        let seq = twin.snapshot();
        assert_eq!(snap.values.len(), seq.values.len());
        for i in 0..snap.values.len() {
            assert_eq!(
                snap.values.get(i).to_bits(),
                seq.values.get(i).to_bits(),
                "batched vs sequential value {i}"
            );
        }
        assert_eq!(snap.labels, seq.labels);
    }

    #[test]
    fn empty_batch_is_acked_without_publishing() {
        let s = server();
        match s.handle(&Request::Batch { mutations: vec![] }) {
            Response::BatchApplied { version, outcomes } => {
                assert_eq!(version, 0);
                assert!(outcomes.is_empty());
            }
            other => panic!("wrong response: {other:?}"),
        }
        assert_eq!(s.snapshot().version, 0);
    }

    #[test]
    fn queue_bound_zero_makes_the_daemon_read_only() {
        let s = server();
        s.set_queue_bound(0);
        for req in [
            Request::Insert {
                features: vec![0.5; 4],
                label: 1,
            },
            Request::Delete { index: 0 },
            Request::Batch {
                mutations: vec![BatchMutation::Delete { index: 0 }],
            },
        ] {
            match s.handle(&req) {
                Response::Error {
                    code: ErrorCode::Busy,
                    message,
                } => assert!(message.contains("retry"), "retryable: {message}"),
                other => panic!("expected Busy, got {other:?}"),
            }
        }
        // Nothing published, nothing mutated; reads still answer.
        assert_eq!(s.snapshot().version, 0);
        assert!(matches!(s.handle(&Request::Dump), Response::Vector { .. }));
        // Re-opening the queue restores writes.
        s.set_queue_bound(DEFAULT_QUEUE_BOUND);
        assert!(matches!(
            s.handle(&Request::Insert {
                features: vec![0.5; 4],
                label: 1,
            }),
            Response::Mutated { version: 1, .. }
        ));
    }

    #[test]
    fn whatifs_are_the_engines_answer_at_each_version() {
        let s = server();
        let check = |version: u64| {
            let (v, served) = match s.handle(&Request::WhatIf {
                features: vec![0.25; 4],
                label: 1,
            }) {
                Response::Value { version, value } => (version, value),
                other => panic!("wrong response: {other:?}"),
            };
            let engine = s.engine.read().unwrap();
            assert_eq!((v, engine.version()), (version, version));
            let expect = engine.what_if(&[0.25; 4], 1).unwrap();
            assert_eq!(served.to_bits(), expect.to_bits(), "version {version}");
        };
        check(0);
        assert!(matches!(
            s.handle(&Request::Delete { index: 7 }),
            Response::Mutated { version: 1, .. }
        ));
        check(1);
        // A rejected what-if is an error response, not a value.
        assert!(matches!(
            s.handle(&Request::WhatIf {
                features: vec![1.0],
                label: 0
            }),
            Response::Error {
                code: ErrorCode::Rejected,
                ..
            }
        ));
    }

    #[test]
    fn metrics_count_requests_and_batch_sizes_without_touching_values() {
        let s = server();
        let before = s.snapshot();
        // Generate traffic: reads, a what-if pair, one batch.
        assert!(matches!(s.handle(&Request::Stat), Response::Stat { .. }));
        assert!(matches!(s.handle(&Request::Dump), Response::Vector { .. }));
        for _ in 0..2 {
            s.handle(&Request::WhatIf {
                features: vec![0.25; 4],
                label: 1,
            });
        }
        s.handle(&Request::Batch {
            mutations: vec![
                BatchMutation::Insert {
                    features: vec![0.5; 4],
                    label: 1,
                },
                BatchMutation::Delete { index: 30 },
            ],
        });
        match s.handle(&Request::Metrics) {
            Response::Metrics {
                protocol,
                version,
                requests,
                queue_depth,
                queue_bound,
                whatif_hits,
                whatif_misses,
                latency_micros,
                batch_sizes,
                ..
            } => {
                assert_eq!(protocol, PROTOCOL_VERSION);
                assert_eq!(version, 2, "insert + delete committed");
                assert_eq!(requests, 6, "5 prior requests + this Metrics one");
                assert_eq!(queue_depth, 0, "nothing queued at rest");
                assert_eq!(queue_bound, DEFAULT_QUEUE_BOUND as u64);
                assert_eq!((whatif_hits, whatif_misses), (0, 2));
                assert_eq!(latency_micros.count, 5, "timed before this request");
                assert_eq!(
                    latency_micros.buckets.iter().sum::<u64>(),
                    latency_micros.count
                );
                assert_eq!((batch_sizes.count, batch_sizes.sum), (1, 2));
                assert_eq!((batch_sizes.min, batch_sizes.max), (2, 2));
            }
            other => panic!("wrong response: {other:?}"),
        }
        // Asking for metrics changed no served value.
        let after = s.snapshot();
        assert_eq!(after.version, 2);
        assert!(after.verify());
        drop((before, after));
    }

    #[test]
    fn metrics_jsonl_line_is_schema_valid() {
        let s = server();
        s.handle(&Request::Stat);
        let line = s.metrics_jsonl_line();
        knnshap_obs::json::validate_event_line(&line).unwrap();
        let v = knnshap_obs::json::parse(&line).unwrap();
        assert_eq!(v.get("ev").and_then(|x| x.as_str()), Some("metrics"));
        assert_eq!(v.get("requests").and_then(|x| x.as_f64()), Some(1.0));
        assert_eq!(v.get("whatifs").and_then(|x| x.as_f64()), Some(0.0));
    }

    #[test]
    fn shutdown_flips_the_flag() {
        let s = server();
        assert!(!s.shutting_down());
        assert!(matches!(
            s.handle(&Request::Shutdown),
            Response::ShuttingDown
        ));
        assert!(s.shutting_down());
    }
}
