//! The coordination-free file-based work queue: lease claims, heartbeats,
//! stale-lease expiry, and checkpoint/shard publication.
//!
//! ## Protocol
//!
//! * **Claim** — to work on shard `i`, a worker exclusively creates
//!   `leases/s<i>.lease` (`O_CREAT|O_EXCL`, [`try_claim`]). Creation is the
//!   atomic test-and-set every POSIX (and NFSv4/SMB) filesystem provides:
//!   exactly one claimant succeeds, all others get `AlreadyExists` and move
//!   on. No locks, no server, no shared memory.
//! * **Heartbeat** — while computing, the worker rewrites its lease after
//!   every micro-chunk ([`Lease::heartbeat`]), refreshing the file's mtime.
//! * **Expiry** — a lease whose mtime is older than the supervisor's TTL is
//!   presumed dead (worker killed, machine lost) and removed
//!   ([`expire_stale`]); the shard becomes claimable again. If the original
//!   worker was merely slow and finishes anyway, both workers publish the
//!   **same canonical bytes** — double computation wastes cycles, never
//!   correctness.
//! * **Publish** — completed shards and checkpoints are written with
//!   [`crate::layout::write_atomic`], so readers only ever see whole files.
//! * **Release** — finishing a shard removes its checkpoint, then its lease
//!   (in that order: a lease-less leftover checkpoint is harmless — it is
//!   validated before reuse — whereas a checkpoint-less lease would merely
//!   delay reassignment by one TTL).
//!
//! A worker that dies leaves its lease and last checkpoint behind; the
//! checkpoint is precisely what lets its successor **resume mid-shard**
//! ([`read_checkpoint`] + `Estimator::shard_fold`).

use crate::layout::{write_atomic, JobDirs};
use knnshap_core::sharding::ShardPartial;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, SystemTime};

/// A successfully claimed shard. Dropping it does **not** release the claim
/// (a crashed worker must leave its lease behind for TTL-based recovery);
/// call [`release`](Self::release) on success.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    shard: usize,
    worker: String,
}

impl Lease {
    pub fn shard(&self) -> usize {
        self.shard
    }

    fn content(&self) -> String {
        format!("worker {}\npid {}\n", self.worker, std::process::id())
    }

    /// Refresh the lease's mtime so the supervisor keeps considering this
    /// worker alive. Rewrites the claim content; if the supervisor expired
    /// the lease in the meantime (slow worker), the write recreates it —
    /// harmless, because publication is idempotent.
    pub fn heartbeat(&self) -> std::io::Result<()> {
        std::fs::write(&self.path, self.content())
    }

    /// Release the claim (shard finished and published).
    pub fn release(self) -> std::io::Result<()> {
        std::fs::remove_file(&self.path)
    }
}

/// Try to claim shard `i`: atomically create its lease file. Returns
/// `Ok(None)` if another worker holds the claim.
pub fn try_claim(dirs: &JobDirs, shard: usize, worker: &str) -> std::io::Result<Option<Lease>> {
    let path = dirs.lease_path(shard);
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
    {
        Ok(mut f) => {
            let lease = Lease {
                path,
                shard,
                worker: worker.to_string(),
            };
            f.write_all(lease.content().as_bytes())?;
            f.flush()?;
            Ok(Some(lease))
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
        Err(e) => Err(e),
    }
}

/// Age of shard `i`'s lease (time since last heartbeat), or `None` if no
/// lease exists.
pub fn lease_age(dirs: &JobDirs, shard: usize) -> Option<Duration> {
    let meta = std::fs::metadata(dirs.lease_path(shard)).ok()?;
    let mtime = meta.modified().ok()?;
    SystemTime::now().duration_since(mtime).ok()
}

/// Remove every lease on an *unfinished* shard whose heartbeat is older
/// than `ttl`, returning the reclaimed shard indices. Leases on finished
/// shards (worker died between publish and release) are removed regardless
/// of age — the work is already done.
pub fn expire_stale(dirs: &JobDirs, shards: usize, ttl: Duration) -> std::io::Result<Vec<usize>> {
    let mut reclaimed = Vec::new();
    for i in 0..shards {
        let path = dirs.lease_path(i);
        if !path.exists() {
            continue;
        }
        if dirs.shard_done(i) {
            std::fs::remove_file(&path).ok();
            continue;
        }
        if lease_age(dirs, i).is_some_and(|age| age > ttl) {
            // Remove; a concurrent remove by another supervisor is fine.
            std::fs::remove_file(&path).ok();
            reclaimed.push(i);
        }
    }
    Ok(reclaimed)
}

/// Atomically publish the finished partial of shard `i`, encoded as
/// `bytes` (`ShardPartial::to_bytes`).
pub fn publish_shard(dirs: &JobDirs, i: usize, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic(&dirs.shard_path(i), bytes)
}

/// Atomically write shard `i`'s mid-shard checkpoint, encoded as `bytes`.
pub fn write_checkpoint(dirs: &JobDirs, i: usize, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic(&dirs.checkpoint_path(i), bytes)
}

/// Read shard `i`'s checkpoint, if one exists and parses. A missing,
/// truncated or otherwise corrupt checkpoint returns `None` — the worker
/// falls back to recomputing the shard from its start, which is always
/// sound (just slower).
pub fn read_checkpoint(dirs: &JobDirs, i: usize) -> Option<ShardPartial> {
    let bytes = std::fs::read(dirs.checkpoint_path(i)).ok()?;
    ShardPartial::from_bytes(&bytes).ok()
}

/// Remove shard `i`'s checkpoint (after successful publication).
pub fn clear_checkpoint(dirs: &JobDirs, i: usize) {
    std::fs::remove_file(dirs.checkpoint_path(i)).ok();
}

/// Read and parse every published shard of the job, in shard order, on
/// `threads` workers.
pub fn read_all_shards(
    dirs: &JobDirs,
    shards: usize,
    threads: usize,
) -> Result<Vec<ShardPartial>, crate::JobError> {
    knnshap_parallel::par_map(shards, threads, |i| {
        let path = dirs.shard_path(i);
        let bytes = std::fs::read(&path).map_err(|e| crate::io_err(&path, e))?;
        Ok(ShardPartial::from_bytes(&bytes)?)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirs(tag: &str) -> JobDirs {
        let d = JobDirs::new(
            std::env::temp_dir().join(format!("knnshap-queue-{}-{tag}", std::process::id())),
        );
        d.create().unwrap();
        d
    }

    #[test]
    fn claim_is_exclusive_and_release_reopens() {
        let d = dirs("claim");
        let lease = try_claim(&d, 0, "a").unwrap().expect("first claim wins");
        // Double-claim rejection: the queue's core invariant.
        assert!(try_claim(&d, 0, "b").unwrap().is_none());
        // Other shards are unaffected.
        assert!(try_claim(&d, 1, "b").unwrap().is_some());
        lease.release().unwrap();
        assert!(try_claim(&d, 0, "b").unwrap().is_some());
        std::fs::remove_dir_all(d.root()).ok();
    }

    #[test]
    fn stale_leases_expire_fresh_ones_survive() {
        let d = dirs("stale");
        let lease = try_claim(&d, 0, "w").unwrap().unwrap();
        // Fresh lease: not expired.
        assert!(expire_stale(&d, 1, Duration::from_secs(60))
            .unwrap()
            .is_empty());
        // Age it artificially past the TTL.
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(d.lease_path(0))
            .unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(120))
            .unwrap();
        assert_eq!(
            expire_stale(&d, 1, Duration::from_secs(60)).unwrap(),
            vec![0]
        );
        // The shard is claimable again. If the presumed-dead worker was
        // merely slow, its eventual release removes the successor's lease —
        // which at worst lets a third worker duplicate the shard; canonical
        // publication makes that wasteful, never wrong.
        assert!(try_claim(&d, 0, "w2").unwrap().is_some());
        assert!(lease.release().is_ok());
        assert!(try_claim(&d, 0, "w3").unwrap().is_some());
        std::fs::remove_dir_all(d.root()).ok();
    }

    #[test]
    fn heartbeat_refreshes_age() {
        let d = dirs("beat");
        let lease = try_claim(&d, 2, "w").unwrap().unwrap();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(d.lease_path(2))
            .unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(300))
            .unwrap();
        assert!(lease_age(&d, 2).unwrap() > Duration::from_secs(200));
        lease.heartbeat().unwrap();
        assert!(lease_age(&d, 2).unwrap() < Duration::from_secs(200));
        std::fs::remove_dir_all(d.root()).ok();
    }

    #[test]
    fn finished_shards_lose_their_leases_regardless_of_age() {
        let d = dirs("done");
        let _lease = try_claim(&d, 0, "w").unwrap().unwrap();
        std::fs::write(d.shard_path(0), b"published").unwrap();
        // Fresh lease + published shard: cleaned up, not reported reclaimed.
        assert!(expire_stale(&d, 1, Duration::from_secs(60))
            .unwrap()
            .is_empty());
        assert!(!d.lease_path(0).exists());
        std::fs::remove_dir_all(d.root()).ok();
    }

    #[test]
    fn corrupt_checkpoints_read_as_none() {
        let d = dirs("ckpt");
        assert!(read_checkpoint(&d, 0).is_none());
        std::fs::write(d.checkpoint_path(0), b"garbage").unwrap();
        assert!(read_checkpoint(&d, 0).is_none());
        std::fs::remove_dir_all(d.root()).ok();
    }
}
