//! The job directory's append-only event stream: `events.jsonl`.
//!
//! Every orchestration milestone — a lease claimed, a chunk checkpointed, a
//! shard published, a worker spawned, a stale lease reassigned, the job
//! merged — appends one JSON line (the schema of
//! [`knnshap_obs::json::validate_event_line`]) to `events.jsonl` in the job
//! root. Two consumers exist:
//!
//! * the **supervisor**, which blocks on the in-process [`wait_for_event`]
//!   notifier instead of busy-polling the filesystem — a worker thread's
//!   append wakes it immediately, every worker's exit (thread or child
//!   process) wakes it through [`notify`], and the bounded timeout covers
//!   the appends of workers in *other* processes (which cannot signal this
//!   process's condvar) and drives lease expiry;
//! * **`knnshap watch`** / `run-job --watch`, which tail the file with an
//!   [`EventCursor`] and render live shard × chunk progress.
//!
//! ### Why this is not gated behind `KNNSHAP_LOG`
//!
//! The stream is part of the job directory's operational surface (watchers
//! and the supervisor's wakeup depend on it), so it is always written —
//! unlike the process-wide telemetry of `knnshap_obs`, which stays off by
//! default. It remains strictly *observational*: no runtime decision reads
//! it back, write failures are swallowed (a full disk degrades the watch
//! experience, never the valuation), and the determinism battery holds the
//! merged bytes identical with and without a watcher attached.
//!
//! Appends use a single `O_APPEND` write per line. POSIX makes such writes
//! atomic with respect to one another for reasonable line lengths, so
//! concurrent workers interleave whole lines, never bytes.

use crate::layout::JobDirs;
use knnshap_obs::event::render_line;
use knnshap_obs::FieldValue;
use std::io::Write;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// In-process event notifier: a generation counter bumped on every local
/// [`append_event`], plus a condvar for blocked waiters.
static GEN: Mutex<u64> = Mutex::new(0);
static GEN_CV: Condvar = Condvar::new();

fn lock_gen() -> std::sync::MutexGuard<'static, u64> {
    GEN.lock().unwrap_or_else(|e| e.into_inner())
}

/// The current notifier generation. Pass it to [`wait_for_event`] to block
/// until the *next* local append.
pub fn generation() -> u64 {
    *lock_gen()
}

/// Block until a local append bumps the generation past `seen`, or until
/// `timeout` elapses (covering appends from other processes, which cannot
/// signal this condvar). Returns the generation to wait on next.
pub fn wait_for_event(seen: u64, timeout: Duration) -> u64 {
    let mut gen = lock_gen();
    let deadline = std::time::Instant::now() + timeout;
    while *gen == seen {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            break;
        }
        let (g, res) = GEN_CV
            .wait_timeout(gen, left)
            .unwrap_or_else(|e| e.into_inner());
        gen = g;
        if res.timed_out() {
            break;
        }
    }
    *gen
}

/// Append one event line to the job's `events.jsonl` and wake local
/// waiters. Failures are deliberately swallowed — the event stream is
/// observational, and the supervisor's bounded-timeout wait does not depend
/// on it for correctness.
pub fn append_event(dirs: &JobDirs, ev: &str, fields: &[(&str, FieldValue)]) {
    let mut line = render_line(knnshap_obs::Level::Info, "job", ev, fields);
    line.push('\n');
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dirs.events_path())
        .and_then(|mut f| f.write_all(line.as_bytes()));
    notify();
}

/// Bump the generation and wake local waiters without writing an event:
/// the supervisor's worker handles call this when a worker exits, which
/// a worker in another process cannot signal any other way.
pub fn notify() {
    let mut gen = lock_gen();
    *gen += 1;
    GEN_CV.notify_all();
}

/// A byte-offset tail over `events.jsonl`: each [`read_new`](Self::read_new)
/// returns the complete lines appended since the last call. Tolerates the
/// file not existing yet (a watcher may start before the first worker).
pub struct EventCursor {
    path: std::path::PathBuf,
    offset: u64,
}

impl EventCursor {
    pub fn new(dirs: &JobDirs) -> Self {
        Self {
            path: dirs.events_path(),
            offset: 0,
        }
    }

    /// Complete lines appended since the previous call. A trailing partial
    /// line (an append racing this read) stays buffered for the next call.
    pub fn read_new(&mut self) -> Vec<String> {
        use std::io::{Read, Seek, SeekFrom};
        let Ok(mut f) = std::fs::File::open(&self.path) else {
            return Vec::new();
        };
        if f.seek(SeekFrom::Start(self.offset)).is_err() {
            return Vec::new();
        }
        let mut buf = String::new();
        if f.read_to_string(&mut buf).is_err() {
            return Vec::new();
        }
        let complete = match buf.rfind('\n') {
            Some(i) => i + 1,
            None => return Vec::new(),
        };
        self.offset += complete as u64;
        buf[..complete].lines().map(|l| l.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_job(tag: &str) -> JobDirs {
        let root: PathBuf =
            std::env::temp_dir().join(format!("knnshap-progress-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let dirs = JobDirs::new(root);
        dirs.create().unwrap();
        dirs
    }

    #[test]
    fn append_and_cursor_round_trip_valid_jsonl() {
        let dirs = tmp_job("roundtrip");
        let mut cur = EventCursor::new(&dirs);
        assert!(cur.read_new().is_empty(), "no file yet");
        append_event(&dirs, "claim", &[("shard", 3usize.into())]);
        append_event(
            &dirs,
            "chunk",
            &[("shard", 3usize.into()), ("chunk", 0usize.into())],
        );
        let lines = cur.read_new();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            knnshap_obs::json::validate_event_line(l).unwrap();
        }
        let v = knnshap_obs::json::parse(&lines[0]).unwrap();
        assert_eq!(v.get("ev").and_then(|x| x.as_str()), Some("claim"));
        assert_eq!(v.get("shard").and_then(|x| x.as_f64()), Some(3.0));
        assert!(cur.read_new().is_empty(), "cursor advanced past both lines");
        std::fs::remove_dir_all(dirs.root()).ok();
    }

    #[test]
    fn wait_for_event_wakes_on_local_append() {
        let dirs = tmp_job("wake");
        let seen = generation();
        let t = std::thread::spawn(move || wait_for_event(seen, Duration::from_secs(10)));
        // Give the waiter a moment to block, then append.
        std::thread::sleep(Duration::from_millis(20));
        append_event(&dirs, "spawn", &[("seq", 0usize.into())]);
        let next = t.join().unwrap();
        assert!(next > seen, "append must bump the generation");
        std::fs::remove_dir_all(dirs.root()).ok();
    }

    #[test]
    fn wait_for_event_times_out_without_appends() {
        let seen = generation();
        let start = std::time::Instant::now();
        wait_for_event(seen, Duration::from_millis(30));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn cursor_holds_back_partial_lines() {
        let dirs = tmp_job("partial");
        let mut cur = EventCursor::new(&dirs);
        std::fs::write(
            dirs.events_path(),
            b"{\"ts\":1,\"lvl\":\"info\",\"target\":\"job\",\"ev\":\"x\"}\n{\"ts\":2",
        )
        .unwrap();
        assert_eq!(cur.read_new().len(), 1);
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dirs.events_path())
            .unwrap();
        f.write_all(b",\"lvl\":\"info\",\"target\":\"job\",\"ev\":\"y\"}\n")
            .unwrap();
        let lines = cur.read_new();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"ev\":\"y\""));
        std::fs::remove_dir_all(dirs.root()).ok();
    }
}
