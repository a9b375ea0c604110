//! `knnshap watch` — live shard × chunk progress for a planned job.
//!
//! Tails the job directory's `events.jsonl` (see `knnshap_runtime::progress`)
//! and renders one machine-greppable progress line per change:
//!
//! ```text
//! progress: chunks 5/12 (41.7%) | shards 1/3 done | spawned 2 | eta 1.4s
//! ```
//!
//! The watcher is a pure consumer: it opens the event stream read-only and
//! never touches plan, lease or shard files, so attaching or detaching one
//! cannot perturb a running job (the determinism battery holds the merged
//! bytes identical either way). It exits cleanly when the `job_done` event
//! lands; `--timeout SECS` bounds the wait for CI smokes watching a job
//! that might stall.
//!
//! The same state machine powers `run-job --watch`, which runs
//! [`stream_progress`] on a side thread while the supervisor works.

use crate::args::Args;
use crate::CliError;
use knnshap_obs::json::{self, Value};
use knnshap_runtime::layout::JobDirs;
use knnshap_runtime::progress::{self, EventCursor};
use knnshap_runtime::spec::JobPlan;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const WATCH_ALLOWED: &[&str] = &["job", "poll", "timeout"];

/// Progress of one shard, folded from its `claim`/`chunk`/`shard_done`
/// events.
#[derive(Debug, Clone)]
pub struct ShardView {
    /// Checkpoint chunks finished (monotone: a resumed shard re-announces
    /// earlier chunks, which must never move this backwards).
    pub chunks_done: u64,
    /// Total chunks this shard splits into (from the plan, corrected by the
    /// first `chunk` event, which carries the authoritative count).
    pub chunks_total: u64,
    /// Worker currently (or last) holding the lease.
    pub owner: Option<String>,
    /// Shard published — counts as all chunks done even if checkpoint
    /// events were skipped by a resume.
    pub done: bool,
}

/// The fold over a job's event stream: feed lines in, read progress out.
pub struct WatchState {
    pub shards: Vec<ShardView>,
    pub spawned: u64,
    pub reassigned: u64,
    pub job_done: bool,
}

impl WatchState {
    pub fn new(plan: &JobPlan) -> Self {
        let per_shard = plan.spec.checkpoint_chunks.max(1) as u64;
        WatchState {
            shards: vec![
                ShardView {
                    chunks_done: 0,
                    chunks_total: per_shard,
                    owner: None,
                    done: false,
                };
                plan.spec.shards
            ],
            spawned: 0,
            reassigned: 0,
            job_done: false,
        }
    }

    /// Fold one event line in; returns whether anything user-visible
    /// changed. Unknown events and malformed lines are skipped — the
    /// watcher must survive stream versions it does not know.
    pub fn apply(&mut self, line: &str) -> bool {
        let Ok(v) = json::parse(line) else {
            return false;
        };
        let field = |key: &str| v.get(key).and_then(Value::as_f64).map(|n| n as u64);
        let shard = || {
            field("shard")
                .map(|s| s as usize)
                .filter(|s| *s < self.shards.len())
        };
        match v.get("ev").and_then(Value::as_str) {
            Some("claim") => {
                let Some(s) = shard() else { return false };
                self.shards[s].owner = v.get("worker").and_then(Value::as_str).map(str::to_string);
                true
            }
            Some("chunk") => {
                let Some(s) = shard() else { return false };
                let sv = &mut self.shards[s];
                if let Some(total) = field("chunks") {
                    sv.chunks_total = total.max(1);
                }
                if let Some(c) = field("chunk") {
                    sv.chunks_done = sv.chunks_done.max((c + 1).min(sv.chunks_total));
                }
                true
            }
            Some("shard_done") => {
                let Some(s) = shard() else { return false };
                let sv = &mut self.shards[s];
                sv.done = true;
                sv.chunks_done = sv.chunks_total;
                true
            }
            Some("spawn") => {
                self.spawned += 1;
                true
            }
            Some("reassign") => {
                self.reassigned += 1;
                true
            }
            Some("job_done") => {
                self.job_done = true;
                true
            }
            _ => false,
        }
    }

    pub fn chunks_done(&self) -> u64 {
        self.shards.iter().map(|s| s.chunks_done).sum()
    }

    pub fn chunks_total(&self) -> u64 {
        self.shards.iter().map(|s| s.chunks_total).sum()
    }

    pub fn shards_done(&self) -> usize {
        self.shards.iter().filter(|s| s.done).count()
    }

    /// The one-line progress report. `elapsed` is time since the watcher
    /// attached; the ETA extrapolates the chunk completion rate observed
    /// *by this watcher* (a late attach sees a burst and a short ETA —
    /// fine, the line is advisory).
    pub fn render(&self, elapsed: Duration) -> String {
        let (done, total) = (self.chunks_done(), self.chunks_total());
        let pct = 100.0 * done as f64 / total.max(1) as f64;
        let mut line = format!(
            "progress: chunks {done}/{total} ({pct:.1}%) | shards {}/{} done | spawned {}",
            self.shards_done(),
            self.shards.len(),
            self.spawned,
        );
        if self.reassigned > 0 {
            line.push_str(&format!(" | reassigned {}", self.reassigned));
        }
        if self.job_done {
            line.push_str(" | merged");
        } else if done > 0 && done < total {
            let eta = elapsed.as_secs_f64() / done as f64 * (total - done) as f64;
            line.push_str(&format!(" | eta {eta:.1}s"));
        }
        line
    }
}

/// Tail a job's event stream, printing a progress line on every change,
/// until the job completes or `stop` is raised. In-process appends (the
/// supervisor of `run-job --watch`) wake the loop instantly via the
/// `progress` notifier; out-of-process workers are covered by the bounded
/// `poll` sleep. Returns the final state.
pub fn stream_progress(
    dirs: &JobDirs,
    plan: &JobPlan,
    poll: Duration,
    stop: &AtomicBool,
) -> WatchState {
    let mut state = WatchState::new(plan);
    let mut cursor = EventCursor::new(dirs);
    let started = Instant::now();
    let mut seen = progress::generation();
    loop {
        let mut changed = false;
        for line in cursor.read_new() {
            changed |= state.apply(&line);
        }
        if changed {
            println!("{}", state.render(started.elapsed()));
            std::io::stdout().flush().ok();
        }
        if state.job_done || stop.load(Ordering::SeqCst) {
            return state;
        }
        seen = progress::wait_for_event(seen, poll);
    }
}

/// `knnshap watch`: follow a job directory until its `job_done` event.
pub fn run_watch(args: &Args) -> Result<String, CliError> {
    args.expect_only(WATCH_ALLOWED)?;
    let dirs = JobDirs::new(args.require("job")?);
    let plan = JobPlan::load(&dirs).map_err(CliError::Runtime)?;
    let poll = Duration::from_millis(args.u64_or("poll", 200)?.max(10));
    let timeout = args.f64_or("timeout", 0.0)?;

    println!(
        "watching {} job {:016x}: {} shards x {} checkpoint chunks",
        plan.kind.name(),
        plan.fingerprint,
        plan.spec.shards,
        plan.spec.checkpoint_chunks,
    );
    let mut state = WatchState::new(&plan);
    let mut cursor = EventCursor::new(&dirs);
    let started = Instant::now();
    let mut seen = progress::generation();
    loop {
        let mut changed = false;
        for line in cursor.read_new() {
            changed |= state.apply(&line);
        }
        if changed {
            println!("{}", state.render(started.elapsed()));
            std::io::stdout().flush().ok();
        }
        if state.job_done {
            return Ok(format!(
                "watch: job complete ({} shards, {} chunks, {} worker spawn(s), \
                 {} reassignment(s))",
                state.shards.len(),
                state.chunks_total(),
                state.spawned,
                state.reassigned,
            ));
        }
        if timeout > 0.0 && started.elapsed().as_secs_f64() >= timeout {
            return Err(CliError::Invalid(format!(
                "watch: job not complete after {timeout} s \
                 ({}/{} chunks done) — is a supervisor or worker running?",
                state.chunks_done(),
                state.chunks_total(),
            )));
        }
        seen = progress::wait_for_event(seen, poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::csv_pair;
    use knnshap_runtime::progress::append_event;
    use std::path::PathBuf;

    fn planned_job(tag: &str) -> (JobDirs, JobPlan, PathBuf) {
        let (t, q) = csv_pair(tag, 24, 6);
        let job =
            std::env::temp_dir().join(format!("knnshap-cli-watch-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&job).ok();
        crate::run([
            "shard-plan",
            "--train",
            t.to_str().unwrap(),
            "--test",
            q.to_str().unwrap(),
            "--shards",
            "3",
            "--checkpoint-chunks",
            "2",
            "--job",
            job.to_str().unwrap(),
        ])
        .unwrap();
        let dirs = JobDirs::new(&job);
        let plan = JobPlan::load(&dirs).unwrap();
        (dirs, plan, job)
    }

    #[test]
    fn state_folds_events_monotonically() {
        let (dirs, plan, job) = planned_job("fold");
        let mut st = WatchState::new(&plan);
        assert_eq!(st.chunks_total(), 6);
        assert_eq!(st.chunks_done(), 0);

        append_event(
            &dirs,
            "claim",
            &[("shard", 1usize.into()), ("worker", "w1".into())],
        );
        append_event(
            &dirs,
            "chunk",
            &[
                ("shard", 1usize.into()),
                ("chunk", 0usize.into()),
                ("chunks", 2usize.into()),
                ("item_hi", 4usize.into()),
            ],
        );
        let mut cur = EventCursor::new(&dirs);
        for l in cur.read_new() {
            assert!(st.apply(&l), "{l}");
        }
        assert_eq!(st.chunks_done(), 1);
        assert_eq!(st.shards[1].owner.as_deref(), Some("w1"));

        // A resume re-announces chunk 0 — progress must not move backwards.
        append_event(
            &dirs,
            "chunk",
            &[
                ("shard", 1usize.into()),
                ("chunk", 1usize.into()),
                ("chunks", 2usize.into()),
                ("item_hi", 8usize.into()),
            ],
        );
        append_event(
            &dirs,
            "chunk",
            &[
                ("shard", 1usize.into()),
                ("chunk", 0usize.into()),
                ("chunks", 2usize.into()),
                ("item_hi", 4usize.into()),
            ],
        );
        for l in cur.read_new() {
            st.apply(&l);
        }
        assert_eq!(st.chunks_done(), 2, "replayed chunk must not regress");

        append_event(
            &dirs,
            "shard_done",
            &[("shard", 0usize.into()), ("worker", "w1".into())],
        );
        append_event(&dirs, "job_done", &[("shards", 3usize.into())]);
        for l in cur.read_new() {
            st.apply(&l);
        }
        assert_eq!(st.shards_done(), 1);
        assert_eq!(st.shards[0].chunks_done, 2, "published shard counts full");
        assert!(st.job_done);
        let line = st.render(Duration::from_secs(1));
        assert!(line.starts_with("progress: chunks 4/6"), "{line}");
        assert!(line.contains("merged"), "{line}");
        std::fs::remove_dir_all(&job).ok();
    }

    #[test]
    fn state_survives_garbage_and_unknown_events() {
        let (_, plan, job) = planned_job("garbage");
        let mut st = WatchState::new(&plan);
        for junk in [
            "not json at all",
            r#"{"ts":1,"lvl":"info","target":"job","ev":"novel_event"}"#,
            r#"{"ts":1,"lvl":"info","target":"job","ev":"chunk","shard":99,"chunk":0}"#,
        ] {
            assert!(!st.apply(junk), "{junk}");
        }
        assert_eq!(st.chunks_done(), 0);
        std::fs::remove_dir_all(&job).ok();
    }

    /// Every worker and the merge append a `load` event; the fold skips
    /// it, so the progress lines and the watch summary read as they do
    /// for the same stream without those events.
    #[test]
    fn load_events_leave_the_progress_output_unchanged() {
        let (dirs, plan, job) = planned_job("load");
        crate::run(["worker", "--job", job.to_str().unwrap()]).unwrap();
        crate::run(["run-job", "--job", job.to_str().unwrap()]).unwrap();
        let lines = EventCursor::new(&dirs).read_new();
        let is_load = |l: &String| l.contains("\"ev\":\"load\"");
        assert_eq!(
            lines.iter().filter(|l| is_load(l)).count(),
            2,
            "the worker's and the merge's: {lines:?}"
        );
        let output = |lines: &[String]| {
            let mut st = WatchState::new(&plan);
            let mut out = Vec::new();
            for l in lines {
                if st.apply(l) {
                    out.push(st.render(Duration::from_secs(1)));
                }
            }
            out.push(format!(
                "{} {} {} {}",
                st.shards_done(),
                st.chunks_total(),
                st.spawned,
                st.reassigned
            ));
            out
        };
        let without: Vec<String> = lines.iter().filter(|l| !is_load(l)).cloned().collect();
        assert_eq!(output(&lines), output(&without));
        std::fs::remove_dir_all(&job).ok();
    }

    #[test]
    fn watch_command_follows_a_job_to_completion() {
        let (_, _, job) = planned_job("follow");
        // Run the whole job first; the watcher then replays the recorded
        // stream and exits on the job_done line — the same code path a live
        // tail takes, without cross-thread timing in the test.
        crate::run(["worker", "--job", job.to_str().unwrap()]).unwrap();
        crate::run(["run-job", "--job", job.to_str().unwrap()]).unwrap();
        let out = crate::run(["watch", "--job", job.to_str().unwrap(), "--timeout", "30"]).unwrap();
        assert!(out.contains("watch: job complete"), "{out}");
        std::fs::remove_dir_all(&job).ok();
    }

    #[test]
    fn watch_times_out_on_a_stalled_job() {
        let (_, _, job) = planned_job("stall");
        let err = crate::run([
            "watch",
            "--job",
            job.to_str().unwrap(),
            "--poll",
            "20",
            "--timeout",
            "0.2",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("not complete"), "{err}");
        std::fs::remove_dir_all(&job).ok();
    }
}
