//! The `knnshap serve` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! u32 LE payload length  ||  payload
//! payload = tag byte  ||  little-endian body
//! ```
//!
//! Request tags are `0x01..=0x0C`, response tags `0x81..=0x8C` (high bit
//! set), so a stream position can never be mistaken for the other
//! direction. The length prefix is capped at [`MAX_FRAME`]; a prefix above
//! the cap is rejected *before* any allocation, so a corrupt or hostile
//! peer cannot OOM the daemon (the same hardening the KNNSHARD partial
//! format applies to its header). Full field-by-field layout in
//! `docs/serving.md`.
//!
//! ## Version history
//!
//! * **v1** — `Stat..Shutdown` (`0x01..=0x09`) and `Stat..ShuttingDown`
//!   (`0x81..=0x88`), error codes 1–2.
//! * **v2** — strict superset of v1: adds [`Request::Batch`] (`0x0A`),
//!   [`Response::BatchApplied`] (`0x89`) and [`ErrorCode::Busy`] (3) for
//!   admission control. Every v1 frame is encoded and decoded unchanged,
//!   so a v1 client works against a v2 daemon as long as it avoids the new
//!   opcode; `Stat` echoes the daemon's protocol version so clients can
//!   detect skew before relying on v2 frames.
//! * **v3** — strict superset of v2: adds [`Request::Metrics`] (`0x0B`)
//!   and [`Response::Metrics`] (`0x8A`), the daemon's operational
//!   telemetry (uptime, request count, latency and batch-size histograms,
//!   mutation-queue depth, what-if counters). Read-only: asking for
//!   metrics never touches the engine lock or any served value.
//! * **v4** — strict superset of v3: adds the streamed training-set export.
//!   [`Request::TrainCsvStream`] (`0x0C`) is answered by
//!   [`Response::TrainCsvPart`] frames (`0x8B`), each at most [`PART_MAX`]
//!   CSV bytes cut at row boundaries, and one closing
//!   [`Response::TrainCsvEnd`] (`0x8C`) that counts the rows and bytes
//!   sent. The export has no size limit; the one-frame
//!   [`Request::TrainCsv`] answers a `Rejected` error once its CSV would
//!   pass [`MAX_FRAME`].
//!
//! Decoding is strict: every body must parse to exactly its declared
//! length — trailing bytes, short bodies and unknown tags are
//! [`ProtocolError`]s, never panics. `tests/protocol_robustness.rs` holds
//! the codec (and the live session loop) to that.

use std::io::{self, Read, Write};

/// Hard cap on a frame's payload length (64 MiB), checked on both ends:
/// [`read_frame`] rejects a larger prefix before allocating, and
/// [`write_frame`] refuses a larger payload with a typed error. A `Dump`
/// costs 12 bytes per point, so it fits up to about 5.6·10⁶ points. A
/// one-frame `TrainCsv` costs about 10.5–10.7 bytes per feature (337–342
/// per row at d = 32, so about 2·10⁵ rows); larger training sets go
/// through the streamed export ([`Request::TrainCsvStream`]), whose parts
/// hold at most [`PART_MAX`] bytes each.
pub const MAX_FRAME: u32 = 1 << 26;

/// Most CSV bytes a one-frame [`Response::TrainCsv`] carries: the frame
/// cap less its tag, version and byte count.
pub const TRAIN_CSV_MAX: usize = MAX_FRAME as usize - TRAIN_CSV_HEAD;

/// Tag, `version: u64` and `len: u32` ahead of a `TrainCsv` body.
const TRAIN_CSV_HEAD: usize = 1 + 8 + 4;

/// Most CSV bytes one [`Response::TrainCsvPart`] carries (64 KiB), like
/// the CSV loader's read window: a part buffer stays below glibc's
/// 128 KiB mmap threshold. Parts are cut at row boundaries; a single row
/// longer than this travels alone in its own part.
pub const PART_MAX: usize = 64 << 10;

/// Protocol version, echoed in `Stat` so clients can detect skew.
/// v4 = v3 plus the streamed training-set export; v3 = v2 plus the
/// `Metrics`/`Metrics` frame pair; v2 = v1 plus `Batch`/`BatchApplied` and
/// the `Busy` error code; see the version history in the module docs.
pub const PROTOCOL_VERSION: u32 = 4;

// Request tags.
const OP_STAT: u8 = 0x01;
const OP_GET: u8 = 0x02;
const OP_DUMP: u8 = 0x03;
const OP_TOP_K: u8 = 0x04;
const OP_WHAT_IF: u8 = 0x05;
const OP_INSERT: u8 = 0x06;
const OP_DELETE: u8 = 0x07;
const OP_TRAIN_CSV: u8 = 0x08;
const OP_SHUTDOWN: u8 = 0x09;
const OP_BATCH: u8 = 0x0A; // v2
const OP_METRICS: u8 = 0x0B; // v3
const OP_TRAIN_CSV_STREAM: u8 = 0x0C; // v4

// Response tags.
const RE_STAT: u8 = 0x81;
const RE_VALUE: u8 = 0x82;
const RE_VECTOR: u8 = 0x83;
const RE_RANKED: u8 = 0x84;
const RE_MUTATED: u8 = 0x85;
const RE_TRAIN_CSV: u8 = 0x86;
const RE_ERROR: u8 = 0x87;
const RE_SHUTTING_DOWN: u8 = 0x88;
const RE_BATCH_APPLIED: u8 = 0x89; // v2
const RE_METRICS: u8 = 0x8A; // v3
const RE_TRAIN_CSV_PART: u8 = 0x8B; // v4
const RE_TRAIN_CSV_END: u8 = 0x8C; // v4

// Per-mutation kind bytes inside a `Batch` body.
const MUT_INSERT: u8 = 0x00;
const MUT_DELETE: u8 = 0x01;

// Per-outcome status bytes inside a `BatchApplied` body.
const OUT_APPLIED: u8 = 0x00;
const OUT_REJECTED: u8 = 0x01;

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum ProtocolError {
    /// Transport-level failure (connection reset, etc.).
    Io(io::Error),
    /// The peer closed the connection mid-frame: `got` of `expected`
    /// payload bytes arrived. A close *between* frames is not an error —
    /// [`read_frame`] reports it as `Ok(None)`.
    Truncated { expected: usize, got: usize },
    /// A frame longer than [`MAX_FRAME`]: a length prefix read off the
    /// wire (rejected before allocating), or a payload [`write_frame`]
    /// refused to send (nothing was written).
    Oversized { len: u64 },
    /// Zero-length payload (every message has at least a tag byte).
    EmptyFrame,
    /// First payload byte is not a known request tag.
    UnknownOpcode(u8),
    /// First payload byte is not a known response tag.
    UnknownTag(u8),
    /// Tag was recognized but the body doesn't parse to its length.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::Truncated { expected, got } => {
                write!(f, "truncated frame: {got} of {expected} payload bytes")
            }
            ProtocolError::Oversized { len } => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_FRAME}-byte frame cap"
                )
            }
            ProtocolError::EmptyFrame => write!(f, "empty frame (no tag byte)"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown request opcode {op:#04x}"),
            ProtocolError::UnknownTag(tag) => write!(f, "unknown response tag {tag:#04x}"),
            ProtocolError::Malformed(what) => write!(f, "malformed body: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Machine-readable class of a served error, carried in
/// [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame didn't decode (unknown opcode, malformed body).
    BadRequest = 1,
    /// The request decoded but the engine rejected it (index out of
    /// range, dimension mismatch, non-finite features, last point…).
    Rejected = 2,
    /// Admission control: the mutation queue is at its bound. The daemon
    /// state is untouched — retrying later is always safe. (v2)
    Busy = 3,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Result<Self, ProtocolError> {
        match b {
            1 => Ok(ErrorCode::BadRequest),
            2 => Ok(ErrorCode::Rejected),
            3 => Ok(ErrorCode::Busy),
            _ => Err(ProtocolError::Malformed("unknown error code")),
        }
    }
}

/// One mutation inside a [`Request::Batch`] — the wire-level mirror of
/// `knnshap_core::resident::Mutation` (u64 indices, like every other frame).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchMutation {
    /// Append a training point.
    Insert { features: Vec<f32>, label: u32 },
    /// Remove training point `index` (indices above shift down by one).
    Delete { index: u64 },
}

/// Per-mutation receipt inside a [`Response::BatchApplied`], in submission
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutcome {
    /// The mutation committed: the train index it touched and the engine
    /// version its commit produced (consecutive within the batch, exactly
    /// as sequential application would number them).
    Applied { version: u64, index: u64 },
    /// The mutation was rejected by the engine; the rest of the batch
    /// still applied. Carries the same code/message pair a lone mutation
    /// would get in [`Response::Error`].
    Rejected { code: ErrorCode, message: String },
}

/// A histogram summary inside a [`Response::Metrics`] body. Buckets are
/// the power-of-two scheme of `knnshap_obs`: bucket 0 counts zero-valued
/// samples, bucket `b ≥ 1` counts samples in `[2^(b−1), 2^b)` (the last
/// bucket absorbs everything larger).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when `count == 0`).
    pub min: u64,
    /// Largest sample (0 when `count == 0`).
    pub max: u64,
    /// Power-of-two bucket counts (see above).
    pub buckets: Vec<u64>,
}

impl MetricsHistogram {
    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Daemon/dataset status (never touches the engine lock).
    Stat,
    /// Value of training point `index` in the current snapshot.
    Get { index: u64 },
    /// The whole Shapley vector plus per-point labels.
    Dump,
    /// The `count` most (`most = true`) or least valuable points.
    TopK { count: u64, most: bool },
    /// Hypothetical value of a candidate point, nothing committed.
    WhatIf { features: Vec<f32>, label: u32 },
    /// Commit a new training point; response names its index.
    Insert { features: Vec<f32>, label: u32 },
    /// Remove training point `index` (indices above shift down by one).
    Delete { index: u64 },
    /// Apply a group of mutations as one coalesced engine pass (one
    /// rank-list splice sweep, one snapshot publish) with per-mutation
    /// receipts. (v2)
    Batch { mutations: Vec<BatchMutation> },
    /// The current training set as CSV text (features…,label per row), in
    /// one frame. Rejected when the CSV would not fit [`MAX_FRAME`].
    TrainCsv,
    /// The current training set as CSV text, streamed: answered by
    /// [`Response::TrainCsvPart`] frames and one [`Response::TrainCsvEnd`].
    /// (v4)
    TrainCsvStream,
    /// The daemon's operational telemetry (uptime, request latency,
    /// batch sizes, queue depth, what-ifs evaluated). Read-only:
    /// never touches the engine lock. (v3)
    Metrics,
    /// Stop accepting connections and exit the accept loop.
    Shutdown,
}

/// A decoded daemon response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Stat {
        protocol: u32,
        version: u64,
        n_train: u64,
        n_test: u64,
        k: u64,
        dim: u64,
        checksum: u64,
    },
    /// One value, tagged with the dataset version it was computed under.
    Value {
        version: u64,
        value: f64,
    },
    /// The full vector + labels; `checksum` commits to `(version, values)`
    /// so readers can detect tearing end-to-end.
    Vector {
        version: u64,
        checksum: u64,
        labels: Vec<u32>,
        values: Vec<f64>,
    },
    /// Top/bottom-k entries as `(train index, value)` pairs.
    Ranked {
        version: u64,
        entries: Vec<(u64, f64)>,
    },
    /// A committed mutation: the post-mutation version and the affected
    /// train index (new index for inserts, removed index for deletes).
    Mutated {
        version: u64,
        index: u64,
    },
    /// The training set as CSV bytes (the `save_class_csv` format).
    TrainCsv {
        version: u64,
        csv: Vec<u8>,
    },
    /// One piece of a streamed export: at most [`PART_MAX`] CSV bytes,
    /// ending at a row boundary. (v4)
    TrainCsvPart {
        csv: Vec<u8>,
    },
    /// Closes a streamed export: the dataset version every part was
    /// formatted from, and the rows and bytes the parts carried. (v4)
    TrainCsvEnd {
        version: u64,
        rows: u64,
        bytes: u64,
    },
    /// Receipt for a [`Request::Batch`]: the dataset version after the
    /// whole group (== the single published snapshot version, or the
    /// pre-batch version if nothing was accepted) plus one outcome per
    /// submitted mutation, in order. (v2)
    BatchApplied {
        version: u64,
        outcomes: Vec<BatchOutcome>,
    },
    /// The daemon's operational telemetry. (v3)
    Metrics {
        /// Protocol version (same as `Stat` reports).
        protocol: u32,
        /// Current dataset version (of the published snapshot).
        version: u64,
        /// Seconds since the daemon loaded its dataset.
        uptime_secs: f64,
        /// Requests dispatched over the daemon's lifetime.
        requests: u64,
        /// Mutations currently queued behind the engine write lock.
        queue_depth: u64,
        /// The admission bound those mutations are checked against.
        queue_bound: u64,
        /// What-ifs are not cached: a v4 daemon always sends 0 here, in
        /// `whatif_evictions` and in `whatif_len`.
        whatif_hits: u64,
        /// What-ifs evaluated over the daemon's lifetime, rejected ones
        /// included.
        whatif_misses: u64,
        whatif_evictions: u64,
        whatif_len: u64,
        /// Per-request dispatch latency in microseconds.
        latency_micros: MetricsHistogram,
        /// Coalesced mutation-batch sizes (mutations per engine pass).
        batch_sizes: MetricsHistogram,
    },
    Error {
        code: ErrorCode,
        message: String,
    },
    ShuttingDown,
}

// ---------------------------------------------------------------------------
// Frame transport.
// ---------------------------------------------------------------------------

/// Write one frame (length prefix + payload). A payload above
/// [`MAX_FRAME`] is [`ProtocolError::Oversized`] and nothing is written.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtocolError> {
    write_frame_split(w, &[], payload)
}

/// Write one frame whose payload is `head || body` without joining the
/// two: the bulk of a CSV frame goes out from where it was formatted.
fn write_frame_split<W: Write>(w: &mut W, head: &[u8], body: &[u8]) -> Result<(), ProtocolError> {
    let len = (head.len() + body.len()) as u64;
    if len > MAX_FRAME as u64 {
        return Err(ProtocolError::Oversized { len });
    }
    let mut prefix = Vec::with_capacity(4 + head.len());
    prefix.extend_from_slice(&(len as u32).to_le_bytes());
    prefix.extend_from_slice(head);
    w.write_all(&prefix)?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Write `resp` as one frame. Same bytes as
/// `write_frame(w, &resp.encode())`, but a `TrainCsv` body is sent from
/// where it lies instead of being copied behind its header first.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> Result<(), ProtocolError> {
    match resp {
        Response::TrainCsv { version, csv } => {
            let mut head = [0u8; TRAIN_CSV_HEAD];
            head[0] = RE_TRAIN_CSV;
            head[1..9].copy_from_slice(&version.to_le_bytes());
            head[9..].copy_from_slice(&csv_len(csv)?.to_le_bytes());
            write_frame_split(w, &head, csv)
        }
        other => write_frame(w, &other.encode()),
    }
}

/// Write one [`Response::TrainCsvPart`] frame holding `csv`, without
/// copying it into an owned response first.
pub fn write_train_csv_part<W: Write>(w: &mut W, csv: &[u8]) -> Result<(), ProtocolError> {
    let mut head = [RE_TRAIN_CSV_PART, 0, 0, 0, 0];
    head[1..].copy_from_slice(&csv_len(csv)?.to_le_bytes());
    write_frame_split(w, &head, csv)
}

/// A CSV body's `u32` byte count; past `u32::MAX` it is past the frame
/// cap too.
fn csv_len(csv: &[u8]) -> Result<u32, ProtocolError> {
    u32::try_from(csv.len()).map_err(|_| ProtocolError::Oversized {
        len: csv.len() as u64,
    })
}

/// Read one frame's payload. `Ok(None)` means the peer closed the
/// connection cleanly *between* frames; a close mid-frame is
/// [`ProtocolError::Truncated`]. The length prefix is validated against
/// [`MAX_FRAME`] before any buffer is allocated.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut prefix = [0u8; 4];
    match read_all_or_eof(r, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(ProtocolError::Truncated { expected: 4, got }),
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized { len: len.into() });
    }
    if len == 0 {
        return Err(ProtocolError::EmptyFrame);
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_all_or_eof(r, &mut payload)?;
    if got != payload.len() {
        return Err(ProtocolError::Truncated {
            expected: payload.len(),
            got,
        });
    }
    Ok(Some(payload))
}

/// `read_exact`, except a clean EOF reports how many bytes did arrive
/// instead of clobbering the distinction between "closed before the frame"
/// and "closed inside it".
fn read_all_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, ProtocolError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(got)
}

// ---------------------------------------------------------------------------
// Body codec.
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() < n {
            return Err(ProtocolError::Malformed(what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A `u32` element count followed by that many fixed-size elements.
    /// The count is cross-checked against the bytes actually present, so a
    /// forged count cannot trigger a huge allocation.
    fn counted(&mut self, elem_size: usize, what: &'static str) -> Result<usize, ProtocolError> {
        let n = self.u32(what)? as usize;
        if self.buf.len() < n.saturating_mul(elem_size) {
            return Err(ProtocolError::Malformed(what));
        }
        Ok(n)
    }

    fn finish(self, what: &'static str) -> Result<(), ProtocolError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed(what))
        }
    }
}

fn put_features(out: &mut Vec<u8>, features: &[f32]) {
    out.extend_from_slice(&(features.len() as u32).to_le_bytes());
    for v in features {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_histogram(out: &mut Vec<u8>, h: &MetricsHistogram) {
    for v in [h.count, h.sum, h.min, h.max] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
    for b in &h.buckets {
        out.extend_from_slice(&b.to_le_bytes());
    }
}

fn take_histogram(r: &mut Reader<'_>) -> Result<MetricsHistogram, ProtocolError> {
    let count = r.u64("histogram count")?;
    let sum = r.u64("histogram sum")?;
    let min = r.u64("histogram min")?;
    let max = r.u64("histogram max")?;
    let n = r.counted(8, "histogram buckets")?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push(r.u64("histogram buckets")?);
    }
    Ok(MetricsHistogram {
        count,
        sum,
        min,
        max,
        buckets,
    })
}

fn take_features(r: &mut Reader<'_>) -> Result<Vec<f32>, ProtocolError> {
    let n = r.counted(4, "feature vector")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f32::from_le_bytes(
            r.take(4, "feature vector")?.try_into().unwrap(),
        ));
    }
    Ok(out)
}

impl Request {
    /// Serialize to a frame payload (tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Stat => out.push(OP_STAT),
            Request::Get { index } => {
                out.push(OP_GET);
                out.extend_from_slice(&index.to_le_bytes());
            }
            Request::Dump => out.push(OP_DUMP),
            Request::TopK { count, most } => {
                out.push(OP_TOP_K);
                out.extend_from_slice(&count.to_le_bytes());
                out.push(u8::from(*most));
            }
            Request::WhatIf { features, label } | Request::Insert { features, label } => {
                out.push(if matches!(self, Request::WhatIf { .. }) {
                    OP_WHAT_IF
                } else {
                    OP_INSERT
                });
                out.extend_from_slice(&label.to_le_bytes());
                put_features(&mut out, features);
            }
            Request::Delete { index } => {
                out.push(OP_DELETE);
                out.extend_from_slice(&index.to_le_bytes());
            }
            Request::Batch { mutations } => {
                out.push(OP_BATCH);
                out.extend_from_slice(&(mutations.len() as u32).to_le_bytes());
                for m in mutations {
                    match m {
                        BatchMutation::Insert { features, label } => {
                            out.push(MUT_INSERT);
                            out.extend_from_slice(&label.to_le_bytes());
                            put_features(&mut out, features);
                        }
                        BatchMutation::Delete { index } => {
                            out.push(MUT_DELETE);
                            out.extend_from_slice(&index.to_le_bytes());
                        }
                    }
                }
            }
            Request::TrainCsv => out.push(OP_TRAIN_CSV),
            Request::TrainCsvStream => out.push(OP_TRAIN_CSV_STREAM),
            Request::Metrics => out.push(OP_METRICS),
            Request::Shutdown => out.push(OP_SHUTDOWN),
        }
        out
    }

    /// Decode a frame payload. Strict: the body must consume exactly the
    /// payload's bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let op = r.u8("request tag")?;
        let req = match op {
            OP_STAT => Request::Stat,
            OP_GET => Request::Get {
                index: r.u64("get index")?,
            },
            OP_DUMP => Request::Dump,
            OP_TOP_K => Request::TopK {
                count: r.u64("top-k count")?,
                most: match r.u8("top-k order")? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtocolError::Malformed("top-k order flag")),
                },
            },
            OP_WHAT_IF | OP_INSERT => {
                let label = r.u32("point label")?;
                let features = take_features(&mut r)?;
                if op == OP_WHAT_IF {
                    Request::WhatIf { features, label }
                } else {
                    Request::Insert { features, label }
                }
            }
            OP_DELETE => Request::Delete {
                index: r.u64("delete index")?,
            },
            OP_BATCH => {
                // Variable-size elements: `counted` guards with the
                // smallest possible encoding (delete = 1 kind + 8 index
                // bytes), so a forged count can still only allocate in
                // proportion to the bytes actually on the wire.
                let n = r.counted(9, "batch mutations")?;
                let mut mutations = Vec::with_capacity(n);
                for _ in 0..n {
                    mutations.push(match r.u8("batch mutation kind")? {
                        MUT_INSERT => {
                            let label = r.u32("batch insert label")?;
                            BatchMutation::Insert {
                                features: take_features(&mut r)?,
                                label,
                            }
                        }
                        MUT_DELETE => BatchMutation::Delete {
                            index: r.u64("batch delete index")?,
                        },
                        _ => return Err(ProtocolError::Malformed("batch mutation kind")),
                    });
                }
                Request::Batch { mutations }
            }
            OP_TRAIN_CSV => Request::TrainCsv,
            OP_TRAIN_CSV_STREAM => Request::TrainCsvStream,
            OP_METRICS => Request::Metrics,
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        r.finish("trailing bytes after request")?;
        Ok(req)
    }
}

impl Response {
    /// Serialize to a frame payload (tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Stat {
                protocol,
                version,
                n_train,
                n_test,
                k,
                dim,
                checksum,
            } => {
                out.push(RE_STAT);
                out.extend_from_slice(&protocol.to_le_bytes());
                for v in [version, n_train, n_test, k, dim, checksum] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::Value { version, value } => {
                out.push(RE_VALUE);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&value.to_bits().to_le_bytes());
            }
            Response::Vector {
                version,
                checksum,
                labels,
                values,
            } => {
                out.push(RE_VECTOR);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&checksum.to_le_bytes());
                out.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for l in labels {
                    out.extend_from_slice(&l.to_le_bytes());
                }
                for v in values {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Response::Ranked { version, entries } => {
                out.push(RE_RANKED);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (i, v) in entries {
                    out.extend_from_slice(&i.to_le_bytes());
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            Response::Mutated { version, index } => {
                out.push(RE_MUTATED);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&index.to_le_bytes());
            }
            Response::TrainCsv { version, csv } => {
                out.push(RE_TRAIN_CSV);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&(csv.len() as u32).to_le_bytes());
                out.extend_from_slice(csv);
            }
            Response::TrainCsvPart { csv } => {
                out.push(RE_TRAIN_CSV_PART);
                out.extend_from_slice(&(csv.len() as u32).to_le_bytes());
                out.extend_from_slice(csv);
            }
            Response::TrainCsvEnd {
                version,
                rows,
                bytes,
            } => {
                out.push(RE_TRAIN_CSV_END);
                for v in [version, rows, bytes] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::Error { code, message } => {
                out.push(RE_ERROR);
                out.push(*code as u8);
                out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
            Response::BatchApplied { version, outcomes } => {
                out.push(RE_BATCH_APPLIED);
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&(outcomes.len() as u32).to_le_bytes());
                for o in outcomes {
                    match o {
                        BatchOutcome::Applied { version, index } => {
                            out.push(OUT_APPLIED);
                            out.extend_from_slice(&version.to_le_bytes());
                            out.extend_from_slice(&index.to_le_bytes());
                        }
                        BatchOutcome::Rejected { code, message } => {
                            out.push(OUT_REJECTED);
                            out.push(*code as u8);
                            out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                            out.extend_from_slice(message.as_bytes());
                        }
                    }
                }
            }
            Response::Metrics {
                protocol,
                version,
                uptime_secs,
                requests,
                queue_depth,
                queue_bound,
                whatif_hits,
                whatif_misses,
                whatif_evictions,
                whatif_len,
                latency_micros,
                batch_sizes,
            } => {
                out.push(RE_METRICS);
                out.extend_from_slice(&protocol.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&uptime_secs.to_bits().to_le_bytes());
                for v in [
                    requests,
                    queue_depth,
                    queue_bound,
                    whatif_hits,
                    whatif_misses,
                    whatif_evictions,
                    whatif_len,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                for h in [latency_micros, batch_sizes] {
                    put_histogram(&mut out, h);
                }
            }
            Response::ShuttingDown => out.push(RE_SHUTTING_DOWN),
        }
        out
    }

    /// Decode a frame payload. Strict, like [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader::new(payload);
        let tag = r.u8("response tag")?;
        let resp = match tag {
            RE_STAT => Response::Stat {
                protocol: r.u32("stat protocol")?,
                version: r.u64("stat version")?,
                n_train: r.u64("stat n_train")?,
                n_test: r.u64("stat n_test")?,
                k: r.u64("stat k")?,
                dim: r.u64("stat dim")?,
                checksum: r.u64("stat checksum")?,
            },
            RE_VALUE => Response::Value {
                version: r.u64("value version")?,
                value: r.f64("value")?,
            },
            RE_VECTOR => {
                let version = r.u64("vector version")?;
                let checksum = r.u64("vector checksum")?;
                let n = r.counted(12, "vector entries")?;
                let mut labels = Vec::with_capacity(n);
                for _ in 0..n {
                    labels.push(r.u32("vector labels")?);
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(r.f64("vector values")?);
                }
                Response::Vector {
                    version,
                    checksum,
                    labels,
                    values,
                }
            }
            RE_RANKED => {
                let version = r.u64("ranked version")?;
                let n = r.counted(16, "ranked entries")?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((r.u64("ranked index")?, r.f64("ranked value")?));
                }
                Response::Ranked { version, entries }
            }
            RE_MUTATED => Response::Mutated {
                version: r.u64("mutated version")?,
                index: r.u64("mutated index")?,
            },
            RE_TRAIN_CSV => {
                let version = r.u64("csv version")?;
                let n = r.counted(1, "csv bytes")?;
                Response::TrainCsv {
                    version,
                    csv: r.take(n, "csv bytes")?.to_vec(),
                }
            }
            RE_TRAIN_CSV_PART => {
                let n = r.counted(1, "csv part bytes")?;
                Response::TrainCsvPart {
                    csv: r.take(n, "csv part bytes")?.to_vec(),
                }
            }
            RE_TRAIN_CSV_END => Response::TrainCsvEnd {
                version: r.u64("csv end version")?,
                rows: r.u64("csv end rows")?,
                bytes: r.u64("csv end bytes")?,
            },
            RE_ERROR => {
                let code = ErrorCode::from_u8(r.u8("error code")?)?;
                let n = r.counted(1, "error message")?;
                let message = String::from_utf8(r.take(n, "error message")?.to_vec())
                    .map_err(|_| ProtocolError::Malformed("error message not UTF-8"))?;
                Response::Error { code, message }
            }
            RE_BATCH_APPLIED => {
                let version = r.u64("batch version")?;
                // Smallest outcome: rejected = 1 status + 1 code + 4 len.
                let n = r.counted(6, "batch outcomes")?;
                let mut outcomes = Vec::with_capacity(n);
                for _ in 0..n {
                    outcomes.push(match r.u8("batch outcome status")? {
                        OUT_APPLIED => BatchOutcome::Applied {
                            version: r.u64("batch outcome version")?,
                            index: r.u64("batch outcome index")?,
                        },
                        OUT_REJECTED => {
                            let code = ErrorCode::from_u8(r.u8("batch outcome code")?)?;
                            let n = r.counted(1, "batch outcome message")?;
                            let message =
                                String::from_utf8(r.take(n, "batch outcome message")?.to_vec())
                                    .map_err(|_| {
                                        ProtocolError::Malformed("batch outcome not UTF-8")
                                    })?;
                            BatchOutcome::Rejected { code, message }
                        }
                        _ => return Err(ProtocolError::Malformed("batch outcome status")),
                    });
                }
                Response::BatchApplied { version, outcomes }
            }
            RE_METRICS => Response::Metrics {
                protocol: r.u32("metrics protocol")?,
                version: r.u64("metrics version")?,
                uptime_secs: r.f64("metrics uptime")?,
                requests: r.u64("metrics requests")?,
                queue_depth: r.u64("metrics queue depth")?,
                queue_bound: r.u64("metrics queue bound")?,
                whatif_hits: r.u64("metrics what-if hits")?,
                whatif_misses: r.u64("metrics what-if misses")?,
                whatif_evictions: r.u64("metrics what-if evictions")?,
                whatif_len: r.u64("metrics what-if len")?,
                latency_micros: take_histogram(&mut r)?,
                batch_sizes: take_histogram(&mut r)?,
            },
            RE_SHUTTING_DOWN => Response::ShuttingDown,
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        r.finish("trailing bytes after response")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let back = Request::decode(&req.encode()).expect("decode");
        assert_eq!(req, back);
    }

    fn round_trip_response(resp: Response) {
        let back = Response::decode(&resp.encode()).expect("decode");
        assert_eq!(resp, back);
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Stat);
        round_trip_request(Request::Get { index: 42 });
        round_trip_request(Request::Dump);
        round_trip_request(Request::TopK {
            count: 7,
            most: true,
        });
        round_trip_request(Request::TopK {
            count: 3,
            most: false,
        });
        round_trip_request(Request::WhatIf {
            features: vec![1.5, -2.25, 0.0],
            label: 2,
        });
        round_trip_request(Request::Insert {
            features: vec![],
            label: 0,
        });
        round_trip_request(Request::Delete { index: u64::MAX });
        round_trip_request(Request::Batch { mutations: vec![] });
        round_trip_request(Request::Batch {
            mutations: vec![
                BatchMutation::Insert {
                    features: vec![1.0, -0.5],
                    label: 2,
                },
                BatchMutation::Delete { index: 7 },
                BatchMutation::Insert {
                    features: vec![],
                    label: 0,
                },
            ],
        });
        round_trip_request(Request::TrainCsv);
        round_trip_request(Request::TrainCsvStream);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn metrics_response_round_trips() {
        round_trip_response(Response::Metrics {
            protocol: PROTOCOL_VERSION,
            version: 7,
            uptime_secs: 12.5,
            requests: 400,
            queue_depth: 3,
            queue_bound: 64,
            whatif_hits: 10,
            whatif_misses: 4,
            whatif_evictions: 1,
            whatif_len: 3,
            latency_micros: MetricsHistogram {
                count: 400,
                sum: 123_456,
                min: 2,
                max: 9_000,
                buckets: vec![0, 1, 2, 3],
            },
            batch_sizes: MetricsHistogram {
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
                buckets: vec![],
            },
        });
    }

    #[test]
    fn forged_histogram_counts_cannot_allocate() {
        // A Metrics body claiming u32::MAX buckets in a short payload must
        // fail the count/length cross-check before any allocation.
        let mut payload = vec![RE_METRICS];
        payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        payload.extend_from_slice(&[0u8; 8 * 9]); // version..whatif_len + f64
        payload.extend_from_slice(&[0u8; 8 * 4]); // count/sum/min/max
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // forged buckets
        payload.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            Response::decode(&payload),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::Stat {
            protocol: PROTOCOL_VERSION,
            version: 9,
            n_train: 100,
            n_test: 10,
            k: 5,
            dim: 32,
            checksum: 0xDEAD_BEEF,
        });
        round_trip_response(Response::Value {
            version: 1,
            value: -0.125,
        });
        round_trip_response(Response::Vector {
            version: 3,
            checksum: 77,
            labels: vec![0, 1, 2],
            values: vec![0.5, f64::MIN_POSITIVE, -0.0],
        });
        round_trip_response(Response::Ranked {
            version: 2,
            entries: vec![(9, 1.0), (0, -1.0)],
        });
        round_trip_response(Response::Mutated {
            version: 4,
            index: 17,
        });
        round_trip_response(Response::TrainCsv {
            version: 5,
            csv: b"1,2,0\n".to_vec(),
        });
        round_trip_response(Response::TrainCsvPart {
            csv: b"1,2,0\n3,4,1\n".to_vec(),
        });
        round_trip_response(Response::TrainCsvEnd {
            version: 5,
            rows: 2,
            bytes: 12,
        });
        round_trip_response(Response::Error {
            code: ErrorCode::Rejected,
            message: "no such index".into(),
        });
        round_trip_response(Response::Error {
            code: ErrorCode::Busy,
            message: "mutation queue full".into(),
        });
        round_trip_response(Response::BatchApplied {
            version: 9,
            outcomes: vec![
                BatchOutcome::Applied {
                    version: 8,
                    index: 41,
                },
                BatchOutcome::Rejected {
                    code: ErrorCode::Rejected,
                    message: "delete index 99 out of range".into(),
                },
                BatchOutcome::Applied {
                    version: 9,
                    index: 12,
                },
            ],
        });
        round_trip_response(Response::BatchApplied {
            version: 0,
            outcomes: vec![],
        });
        round_trip_response(Response::ShuttingDown);
    }

    #[test]
    fn nan_values_round_trip_bitwise() {
        // The codec moves f64 bits, not floats: a NaN payload survives.
        let bits = 0x7FF8_0000_0000_1234u64;
        let resp = Response::Value {
            version: 0,
            value: f64::from_bits(bits),
        };
        match Response::decode(&resp.encode()).unwrap() {
            Response::Value { value, .. } => assert_eq!(value.to_bits(), bits),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            Request::decode(&[0x7F]),
            Err(ProtocolError::UnknownOpcode(0x7F))
        ));
        assert!(matches!(
            Response::decode(&[0x01]),
            Err(ProtocolError::UnknownTag(0x01))
        ));
        assert!(matches!(
            Request::decode(&[]),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_and_short_bodies_are_rejected() {
        let mut payload = Request::Get { index: 1 }.encode();
        payload.push(0); // one trailing byte
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtocolError::Malformed(_))
        ));
        let payload = Request::Get { index: 1 }.encode();
        assert!(matches!(
            Request::decode(&payload[..payload.len() - 1]),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn forged_element_counts_cannot_allocate() {
        // A WhatIf claiming u32::MAX features in a 16-byte payload must be
        // rejected by the count/length cross-check, not attempted.
        let mut payload = vec![OP_WHAT_IF];
        payload.extend_from_slice(&0u32.to_le_bytes()); // label
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // forged count
        payload.extend_from_slice(&[0u8; 8]); // far too few bytes
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn forged_batch_counts_cannot_allocate() {
        // A Batch claiming u32::MAX mutations in a tiny payload must fail
        // the count/length cross-check before any Vec::with_capacity.
        let mut payload = vec![OP_BATCH];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[MUT_DELETE]);
        payload.extend_from_slice(&7u64.to_le_bytes());
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_batch_bodies_are_rejected() {
        // Unknown mutation kind byte.
        let mut payload = vec![OP_BATCH];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&[0x7F; 9]);
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtocolError::Malformed("batch mutation kind"))
        ));
        // Unknown outcome status byte.
        let mut payload = vec![RE_BATCH_APPLIED];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&[0x7F; 6]);
        assert!(matches!(
            Response::decode(&payload),
            Err(ProtocolError::Malformed("batch outcome status"))
        ));
        // Truncated: count says two mutations, body holds one.
        let one = Request::Batch {
            mutations: vec![BatchMutation::Delete { index: 3 }],
        }
        .encode();
        let mut two = one.clone();
        two[1..5].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            Request::decode(&two),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn frame_transport_round_trips_and_rejects_abuse() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).unwrap();
        write_frame(&mut buf, &[9]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(read_frame(&mut r).unwrap(), Some(vec![9]));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF

        // Oversized prefix: rejected before allocation.
        let bad = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(ProtocolError::Oversized { .. })
        ));

        // Truncated payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&8u32.to_le_bytes());
        bad.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(ProtocolError::Truncated {
                expected: 8,
                got: 3
            })
        ));

        // Truncated prefix.
        let bad = [1u8, 0];
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(ProtocolError::Truncated {
                expected: 4,
                got: 2
            })
        ));

        // Zero-length frame.
        let bad = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(ProtocolError::EmptyFrame)
        ));
    }

    #[test]
    fn an_oversized_payload_is_a_typed_error_and_nothing_is_written() {
        let payload = vec![RE_TRAIN_CSV_PART; MAX_FRAME as usize + 1];
        let mut out = Vec::new();
        match write_frame(&mut out, &payload) {
            Err(ProtocolError::Oversized { len }) => assert_eq!(len, MAX_FRAME as u64 + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert!(out.is_empty(), "{} bytes written", out.len());
        // At the cap exactly, the frame goes out.
        write_frame(&mut out, &payload[..MAX_FRAME as usize]).unwrap();
        assert_eq!(out.len(), 4 + MAX_FRAME as usize);
    }

    #[test]
    fn write_response_sends_the_bytes_of_encode() {
        for resp in [
            Response::TrainCsv {
                version: 3,
                csv: b"0.5,1,2\n".to_vec(),
            },
            Response::ShuttingDown,
        ] {
            let (mut split, mut joined) = (Vec::new(), Vec::new());
            write_response(&mut split, &resp).unwrap();
            write_frame(&mut joined, &resp.encode()).unwrap();
            assert_eq!(split, joined, "{resp:?}");
        }
        let mut part = Vec::new();
        write_train_csv_part(&mut part, b"1,0\n2,1\n").unwrap();
        let payload = read_frame(&mut &part[..]).unwrap().unwrap();
        assert_eq!(
            Response::decode(&payload).unwrap(),
            Response::TrainCsvPart {
                csv: b"1,0\n2,1\n".to_vec()
            }
        );
    }
}
