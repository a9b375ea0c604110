//! A typed blocking client for the `knnshap serve` protocol.
//!
//! One request in flight per connection (the protocol is strictly
//! request/response). Every helper returns the dataset **version** its
//! answer was computed under alongside the payload, so callers can reason
//! about freshness; [`Client::dump`] additionally re-verifies the
//! snapshot checksum, turning any torn or corrupted vector into a loud
//! [`ClientError::ChecksumMismatch`] instead of silent bad data, and
//! [`Client::train_csv_to`] checks a streamed export's closing frame
//! against the parts that arrived ([`ClientError::ExportMismatch`]).

use crate::protocol::{
    read_frame, write_frame, BatchMutation, BatchOutcome, ErrorCode, MetricsHistogram,
    ProtocolError, Request, Response,
};
use crate::server::{Conn, Endpoint};
use crate::store::Snapshot;
use knnshap_core::types::ShapleyValues;
use std::io::Write;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Protocol(ProtocolError),
    /// Admission control refused the mutation: the queue is at its bound.
    /// Nothing was enqueued or applied — retrying later is always safe,
    /// which is why this is typed apart from [`ClientError::Server`].
    Busy { message: String },
    /// The daemon answered with an error response.
    Server { code: ErrorCode, message: String },
    /// The daemon answered with a response type the request can't produce.
    Unexpected { expected: &'static str, got: String },
    /// A dumped vector failed checksum verification (torn/corrupt data).
    ChecksumMismatch { version: u64 },
    /// A streamed training-set export closed with rows and bytes
    /// (`announced`) that disagree with the parts that arrived
    /// (`received`), both as `(rows, bytes)`.
    ExportMismatch {
        version: u64,
        announced: (u64, u64),
        received: (u64, u64),
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Busy { message } => write!(f, "server busy: {message}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected { expected, got } => {
                write!(f, "expected {expected} response, got {got}")
            }
            ClientError::ChecksumMismatch { version } => {
                write!(
                    f,
                    "vector for version {version} failed checksum verification"
                )
            }
            ClientError::ExportMismatch {
                version,
                announced,
                received,
            } => write!(
                f,
                "training-set export of version {version} announced {} rows / {} bytes \
                 but {} rows / {} bytes arrived",
                announced.0, announced.1, received.0, received.1
            ),
        }
    }
}

impl ClientError {
    /// `true` iff the failure is admission control — the daemon refused
    /// the mutation without touching any state, so a retry is safe.
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Busy { .. })
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

/// Daemon status, as reported by `Stat`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatInfo {
    pub protocol: u32,
    pub version: u64,
    pub n_train: u64,
    pub n_test: u64,
    pub k: u64,
    pub dim: u64,
    pub checksum: u64,
}

/// A full checksum-verified vector dump.
#[derive(Debug, Clone)]
pub struct Dump {
    pub version: u64,
    pub labels: Vec<u32>,
    pub values: Vec<f64>,
}

/// The daemon's operational telemetry, as reported by `Metrics` (v3).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsInfo {
    pub protocol: u32,
    pub version: u64,
    pub uptime_secs: f64,
    pub requests: u64,
    pub queue_depth: u64,
    pub queue_bound: u64,
    pub whatif_hits: u64,
    pub whatif_misses: u64,
    pub whatif_evictions: u64,
    pub whatif_len: u64,
    pub latency_micros: MetricsHistogram,
    pub batch_sizes: MetricsHistogram,
}

/// Retry policy for [`ClientError::Busy`] refusals: capped exponential
/// backoff with **deterministic** jitter.
///
/// A `Busy` answer is admission control refusing a mutation *before*
/// touching any state, so retrying is always safe; the only question is
/// when. The ideal delay doubles per attempt (`base`, `2·base`, `4·base`,
/// …) up to `cap`; the actual delay is drawn from `[ideal/2, ideal]` by a
/// jitter that is a pure function of `(seed, attempt)` — so a fleet of
/// clients seeded differently decorrelates (no thundering herd), while any
/// single schedule replays exactly, which keeps retry behavior testable
/// without clocks ([`Backoff::delay`] is pure; nothing here sleeps except
/// [`Client::retry_busy`]).
#[derive(Debug, Clone)]
pub struct Backoff {
    base: std::time::Duration,
    cap: std::time::Duration,
    max_attempts: usize,
    seed: u64,
}

impl Backoff {
    /// A policy that tries `max_attempts` times in total, waiting between
    /// attempts per the doubling-and-jitter rule. `max_attempts` is clamped
    /// to at least 1 (the initial try).
    pub fn new(
        base: std::time::Duration,
        cap: std::time::Duration,
        max_attempts: usize,
        seed: u64,
    ) -> Self {
        Self {
            base,
            cap,
            max_attempts: max_attempts.max(1),
            seed,
        }
    }

    /// How many times the operation is attempted in total.
    pub fn max_attempts(&self) -> usize {
        self.max_attempts
    }

    /// The delay before retry number `attempt` (0-based: `delay(0)` follows
    /// the first refusal). Pure — same `(policy, attempt)` in, same
    /// duration out — so tests can assert the whole schedule without
    /// sleeping or reading a clock.
    pub fn delay(&self, attempt: usize) -> std::time::Duration {
        let base = self.base.as_nanos().min(u64::MAX as u128) as u64;
        if base == 0 {
            return std::time::Duration::ZERO;
        }
        let cap = (self.cap.as_nanos().min(u64::MAX as u128) as u64).max(base);
        // Saturating doubling: once the shift would overflow u64 the ideal
        // delay is past any sane cap anyway.
        let shift = attempt.min(63) as u32;
        let ideal = if shift >= base.leading_zeros() {
            cap
        } else {
            (base << shift).min(cap)
        };
        // Deterministic jitter in [ideal/2, ideal]: splitmix64 of the
        // (seed, attempt) pair — no RNG state, no global entropy.
        let half = ideal / 2;
        let jitter = splitmix64(self.seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        std::time::Duration::from_nanos(half + jitter % (ideal - half + 1))
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed pure hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A blocking protocol client over any [`Conn`].
pub struct Client {
    conn: Box<dyn Conn>,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Self> {
        let conn: Box<dyn Conn> = match endpoint {
            Endpoint::Tcp(addr) => Box::new(TcpStream::connect(addr.as_str())?),
            #[cfg(unix)]
            Endpoint::Unix(path) => Box::new(UnixStream::connect(path)?),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ))
            }
        };
        Ok(Self { conn })
    }

    /// Send one request and read its response. Error responses are
    /// surfaced as [`ClientError::Server`].
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.conn, &req.encode())?;
        self.read_response()
    }

    /// Read one response frame; error responses become [`ClientError`]s
    /// as in [`Client::request`].
    fn read_response(&mut self) -> Result<Response, ClientError> {
        let payload =
            read_frame(&mut self.conn)?.ok_or(ClientError::Protocol(ProtocolError::Truncated {
                expected: 4,
                got: 0,
            }))?;
        match Response::decode(&payload)? {
            Response::Error {
                code: ErrorCode::Busy,
                message,
            } => Err(ClientError::Busy { message }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    pub fn stat(&mut self) -> Result<StatInfo, ClientError> {
        match self.request(&Request::Stat)? {
            Response::Stat {
                protocol,
                version,
                n_train,
                n_test,
                k,
                dim,
                checksum,
            } => Ok(StatInfo {
                protocol,
                version,
                n_train,
                n_test,
                k,
                dim,
                checksum,
            }),
            other => Err(unexpected("Stat", other)),
        }
    }

    /// `(version, value)` of one training point.
    pub fn get(&mut self, index: u64) -> Result<(u64, f64), ClientError> {
        match self.request(&Request::Get { index })? {
            Response::Value { version, value } => Ok((version, value)),
            other => Err(unexpected("Value", other)),
        }
    }

    /// The whole vector, checksum-verified against the served commitment.
    pub fn dump(&mut self) -> Result<Dump, ClientError> {
        match self.request(&Request::Dump)? {
            Response::Vector {
                version,
                checksum,
                labels,
                values,
            } => {
                let sv = ShapleyValues::new(values);
                if Snapshot::checksum_of(version, &labels, &sv) != checksum {
                    return Err(ClientError::ChecksumMismatch { version });
                }
                Ok(Dump {
                    version,
                    labels,
                    values: sv.into_vec(),
                })
            }
            other => Err(unexpected("Vector", other)),
        }
    }

    /// `(version, [(index, value)…])`, most (`most = true`) or least
    /// valuable first.
    pub fn ranked(
        &mut self,
        count: u64,
        most: bool,
    ) -> Result<(u64, Vec<(u64, f64)>), ClientError> {
        match self.request(&Request::TopK { count, most })? {
            Response::Ranked { version, entries } => Ok((version, entries)),
            other => Err(unexpected("Ranked", other)),
        }
    }

    /// Hypothetical value of a candidate point — nothing is committed.
    pub fn what_if(&mut self, features: &[f32], label: u32) -> Result<(u64, f64), ClientError> {
        match self.request(&Request::WhatIf {
            features: features.to_vec(),
            label,
        })? {
            Response::Value { version, value } => Ok((version, value)),
            other => Err(unexpected("Value", other)),
        }
    }

    /// Commit a new training point; returns `(new version, its index)`.
    pub fn insert(&mut self, features: &[f32], label: u32) -> Result<(u64, u64), ClientError> {
        match self.request(&Request::Insert {
            features: features.to_vec(),
            label,
        })? {
            Response::Mutated { version, index } => Ok((version, index)),
            other => Err(unexpected("Mutated", other)),
        }
    }

    /// Delete a training point; returns `(new version, deleted index)`.
    pub fn delete(&mut self, index: u64) -> Result<(u64, u64), ClientError> {
        match self.request(&Request::Delete { index })? {
            Response::Mutated { version, index } => Ok((version, index)),
            other => Err(unexpected("Mutated", other)),
        }
    }

    /// Commit a whole mutation group as one coalesced engine pass
    /// (protocol v2). Returns the dataset version after the group and one
    /// [`BatchOutcome`] per submitted mutation, in order — a rejected
    /// mutation does not abort the rest of the group. An admission-control
    /// refusal surfaces as [`ClientError::Busy`] before anything applied.
    pub fn apply_batch(
        &mut self,
        mutations: &[BatchMutation],
    ) -> Result<(u64, Vec<BatchOutcome>), ClientError> {
        match self.request(&Request::Batch {
            mutations: mutations.to_vec(),
        })? {
            Response::BatchApplied { version, outcomes } => Ok((version, outcomes)),
            other => Err(unexpected("BatchApplied", other)),
        }
    }

    /// The current training set as CSV bytes (`save_class_csv` format),
    /// with the version it was exported at. See [`Client::train_csv_to`].
    pub fn train_csv(&mut self) -> Result<(u64, Vec<u8>), ClientError> {
        let mut csv = Vec::new();
        let (version, _) = self.train_csv_to(&mut csv)?;
        Ok((version, csv))
    }

    /// Write the current training set to `out` as CSV (`save_class_csv`
    /// format) while it arrives; returns `(version, bytes written)`.
    ///
    /// Asks for the streamed export (protocol v4) and checks its end frame
    /// against the parts received. A daemon that answers the stream
    /// request with `BadRequest` (v3 and older) is asked for the one-frame
    /// `TrainCsv` instead. On an error `out` may hold part of the CSV, and
    /// the connection may be left mid-stream: drop it.
    pub fn train_csv_to(&mut self, out: &mut impl Write) -> Result<(u64, u64), ClientError> {
        write_frame(&mut self.conn, &Request::TrainCsvStream.encode())?;
        let (mut rows, mut bytes) = (0u64, 0u64);
        loop {
            let resp = match self.read_response() {
                Err(ClientError::Server {
                    code: ErrorCode::BadRequest,
                    ..
                }) if bytes == 0 => return self.train_csv_one_frame(out),
                resp => resp?,
            };
            match resp {
                Response::TrainCsvPart { csv } => {
                    out.write_all(&csv)?;
                    rows += csv.iter().filter(|&&b| b == b'\n').count() as u64;
                    bytes += csv.len() as u64;
                }
                Response::TrainCsvEnd {
                    version,
                    rows: announced_rows,
                    bytes: announced_bytes,
                } => {
                    if (announced_rows, announced_bytes) != (rows, bytes) {
                        return Err(ClientError::ExportMismatch {
                            version,
                            announced: (announced_rows, announced_bytes),
                            received: (rows, bytes),
                        });
                    }
                    return Ok((version, bytes));
                }
                other => return Err(unexpected("TrainCsvPart or TrainCsvEnd", other)),
            }
        }
    }

    /// The pre-v4 export: the whole CSV in one `TrainCsv` frame.
    fn train_csv_one_frame(&mut self, out: &mut impl Write) -> Result<(u64, u64), ClientError> {
        match self.request(&Request::TrainCsv)? {
            Response::TrainCsv { version, csv } => {
                out.write_all(&csv)?;
                Ok((version, csv.len() as u64))
            }
            other => Err(unexpected("TrainCsv", other)),
        }
    }

    /// The daemon's operational telemetry (protocol v3). Read-only on the
    /// daemon side — asking never perturbs a served value.
    pub fn metrics(&mut self) -> Result<MetricsInfo, ClientError> {
        match self.request(&Request::Metrics)? {
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
            } => Ok(MetricsInfo {
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
            }),
            other => Err(unexpected("Metrics", other)),
        }
    }

    /// Ask the daemon to stop accepting connections and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", other)),
        }
    }

    /// Run `op`, retrying [`ClientError::Busy`] refusals per `backoff`
    /// (sleeping the deterministic [`Backoff::delay`] between attempts; a
    /// zero delay yields the CPU instead). Any other error — and the
    /// `Busy` of the final attempt — is returned as-is. Safe for mutations
    /// because a `Busy` refusal is guaranteed to have applied nothing.
    pub fn retry_busy<T>(
        &mut self,
        backoff: &Backoff,
        mut op: impl FnMut(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0usize;
        loop {
            match op(self) {
                Err(e) if e.is_busy() && attempt + 1 < backoff.max_attempts() => {
                    let d = backoff.delay(attempt);
                    if d.is_zero() {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(d);
                    }
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// [`Client::insert`] with automatic `Busy` retry per `backoff`.
    pub fn insert_retrying(
        &mut self,
        features: &[f32],
        label: u32,
        backoff: &Backoff,
    ) -> Result<(u64, u64), ClientError> {
        self.retry_busy(backoff, |c| c.insert(features, label))
    }

    /// [`Client::delete`] with automatic `Busy` retry per `backoff`.
    pub fn delete_retrying(
        &mut self,
        index: u64,
        backoff: &Backoff,
    ) -> Result<(u64, u64), ClientError> {
        self.retry_busy(backoff, |c| c.delete(index))
    }

    /// [`Client::apply_batch`] with automatic `Busy` retry per `backoff`.
    /// The all-or-nothing admission contract makes this sound: a refused
    /// group applied none of its mutations, so resubmitting the same group
    /// can never double-apply.
    pub fn apply_batch_retrying(
        &mut self,
        mutations: &[BatchMutation],
        backoff: &Backoff,
    ) -> Result<(u64, Vec<BatchOutcome>), ClientError> {
        self.retry_busy(backoff, |c| c.apply_batch(mutations))
    }
}

/// A [`ClientError::Unexpected`] naming the response that arrived, cut
/// to its first 120 characters: a stray CSV part would otherwise spell
/// out 64 KiB of bytes.
fn unexpected(expected: &'static str, got: Response) -> ClientError {
    let mut got = format!("{got:?}");
    if got.len() > 120 {
        let cut = (0..=120)
            .rev()
            .find(|&i| got.is_char_boundary(i))
            .unwrap_or(0);
        got.truncate(cut);
        got.push('…');
    }
    ClientError::Unexpected { expected, got }
}

#[cfg(test)]
mod tests {
    use super::Backoff;
    use std::time::Duration;

    // All sleep-free: Backoff::delay is pure, so the whole schedule is
    // asserted without a clock (no wall-clock assertions — same discipline
    // as the `suggest_shards` test of `shard-plan --auto`).

    #[test]
    fn delay_is_deterministic_and_jittered_within_the_exponential_envelope() {
        let b = Backoff::new(Duration::from_millis(1), Duration::from_millis(100), 10, 42);
        for attempt in 0..20 {
            let d = b.delay(attempt);
            let ideal = Duration::from_millis(1)
                .saturating_mul(1u32 << attempt.min(20))
                .min(Duration::from_millis(100));
            assert!(d >= ideal / 2, "attempt {attempt}: {d:?} < {:?}", ideal / 2);
            assert!(d <= ideal, "attempt {attempt}: {d:?} > {ideal:?}");
            // Pure function: replaying the policy replays the schedule.
            assert_eq!(d, b.delay(attempt));
        }
    }

    #[test]
    fn delay_caps_and_never_overflows() {
        let b = Backoff::new(Duration::from_secs(1), Duration::from_secs(8), 100, 7);
        for attempt in [0usize, 5, 63, 64, 1000, usize::MAX] {
            let d = b.delay(attempt);
            assert!(d <= Duration::from_secs(8), "attempt {attempt}: {d:?}");
            assert!(d >= Duration::from_millis(500), "attempt {attempt}: {d:?}");
        }
    }

    #[test]
    fn zero_base_means_yield_only_retries() {
        let b = Backoff::new(Duration::ZERO, Duration::from_secs(1), 5, 3);
        for attempt in 0..10 {
            assert_eq!(b.delay(attempt), Duration::ZERO);
        }
    }

    #[test]
    fn different_seeds_decorrelate_the_schedules() {
        // The whole point of jitter: two clients with different seeds must
        // not collide on every retry tick. (Equality on *some* attempt is
        // fine; equality on all of them would mean the jitter is dead.)
        let a = Backoff::new(Duration::from_millis(3), Duration::from_secs(1), 10, 1);
        let b = Backoff::new(Duration::from_millis(3), Duration::from_secs(1), 10, 2);
        let differs = (0..10).any(|i| a.delay(i) != b.delay(i));
        assert!(differs, "seeds 1 and 2 produced identical schedules");
    }

    #[test]
    fn max_attempts_clamps_to_one() {
        assert_eq!(
            Backoff::new(Duration::ZERO, Duration::ZERO, 0, 0).max_attempts(),
            1
        );
    }
}
