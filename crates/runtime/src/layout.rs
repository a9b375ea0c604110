//! The on-disk job directory and crash-safe file publication.
//!
//! ```text
//! job/
//!   plan              KNNJOBPLAN file (spec + derived identity)
//!   train.knndata     KNNDATA snapshot of the parsed training set
//!                     (written by `shard-plan`; see crate::snapshot)
//!   events.jsonl      append-only orchestration events (crate::progress)
//!   shards/s<i>.shard completed KNNSHARD partials (canonical bytes)
//!   checkpoints/s<i>.ckpt  mid-shard resume state (also KNNSHARD bytes)
//!   leases/s<i>.lease work-queue claims (see crate::queue)
//! ```
//!
//! Everything that must never be seen half-written (plan, snapshot, shard
//! files, checkpoints) goes through [`write_atomic`] or [`stage`]: bytes land in a
//! uniquely-named temporary sibling and are moved into place with
//! `rename(2)`, which is atomic within a filesystem — a concurrent reader
//! sees either the old complete file or the new complete file, never a
//! prefix. Leases are the one exception: their *creation* must be exclusive
//! rather than atomic-replace, so they use `O_CREAT|O_EXCL` instead (see
//! [`crate::queue::try_claim`]).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Paths of one job directory. Purely computational — no filesystem access
/// except [`create`](Self::create) and the scan helpers.
#[derive(Debug, Clone)]
pub struct JobDirs {
    root: PathBuf,
}

impl JobDirs {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn plan_path(&self) -> PathBuf {
        self.root.join("plan")
    }

    pub fn shards_dir(&self) -> PathBuf {
        self.root.join("shards")
    }

    pub fn checkpoints_dir(&self) -> PathBuf {
        self.root.join("checkpoints")
    }

    pub fn leases_dir(&self) -> PathBuf {
        self.root.join("leases")
    }

    /// Final (published) partial of shard `i`.
    pub fn shard_path(&self, i: usize) -> PathBuf {
        self.shards_dir().join(format!("s{i}.shard"))
    }

    /// Mid-shard checkpoint of shard `i`.
    pub fn checkpoint_path(&self, i: usize) -> PathBuf {
        self.checkpoints_dir().join(format!("s{i}.ckpt"))
    }

    /// Work-queue claim on shard `i`.
    pub fn lease_path(&self, i: usize) -> PathBuf {
        self.leases_dir().join(format!("s{i}.lease"))
    }

    /// The training-set snapshot `shard-plan` leaves for workers and the
    /// merge (see [`crate::snapshot`]).
    pub fn snapshot_path(&self) -> PathBuf {
        self.root.join("train.knndata")
    }

    /// Append-only orchestration event stream (see [`crate::progress`]).
    pub fn events_path(&self) -> PathBuf {
        self.root.join("events.jsonl")
    }

    /// Create the directory tree (idempotent).
    pub fn create(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        std::fs::create_dir_all(self.shards_dir())?;
        std::fs::create_dir_all(self.checkpoints_dir())?;
        std::fs::create_dir_all(self.leases_dir())
    }

    /// Is shard `i` published?
    pub fn shard_done(&self, i: usize) -> bool {
        self.shard_path(i).exists()
    }

    /// Indices in `0..shards` whose shard file has not been published yet.
    pub fn missing_shards(&self, shards: usize) -> Vec<usize> {
        (0..shards).filter(|&i| !self.shard_done(i)).collect()
    }
}

/// Process-unique suffix counter for temporary names.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically: write a uniquely-named temporary
/// sibling, then `rename` it into place. On any filesystem where the job
/// directory lives together (the design requirement), the rename is atomic;
/// concurrent publishers of *canonical* content (shard files, checkpoints)
/// are therefore idempotent — last write wins with identical bytes.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    stage(path, |w| w.write_all(bytes))?.publish()
}

/// The first half of [`write_atomic`]: `write` fills a uniquely-named
/// temporary sibling of `path`, and [`Staged::publish`] renames it into
/// place. A staged file dropped unpublished is removed, so a caller can
/// write early and decide late.
pub fn stage(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<Staged> {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "file".into());
    name.push(format!(".tmp.{}.{}", std::process::id(), seq));
    let staged = Staged {
        tmp: path.with_file_name(name),
        path: path.to_path_buf(),
    };
    let mut w = BufWriter::new(File::create(&staged.tmp)?);
    write(&mut w)?;
    w.into_inner().map_err(|e| e.into_error())?;
    Ok(staged)
}

/// A file written under a temporary name by [`stage`], not yet in place.
#[derive(Debug)]
pub struct Staged {
    tmp: PathBuf,
    path: PathBuf,
}

impl Staged {
    /// Move the file into place (atomically, by `rename`).
    pub fn publish(self) -> std::io::Result<()> {
        std::fs::rename(&self.tmp, &self.path)
        // On failure, `drop` removes the temporary.
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        // After a successful `publish` the temporary name is gone and this
        // fails harmlessly.
        let _ = std::fs::remove_file(&self.tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("knnshap-layout-{}-{tag}", std::process::id()))
    }

    #[test]
    fn directory_tree_and_paths() {
        let dirs = JobDirs::new(tmp_root("tree"));
        dirs.create().unwrap();
        dirs.create().unwrap(); // idempotent
        assert!(dirs.shards_dir().is_dir());
        assert!(dirs.leases_dir().is_dir());
        assert!(dirs.checkpoints_dir().is_dir());
        assert_eq!(dirs.missing_shards(3), vec![0, 1, 2]);
        std::fs::write(dirs.shard_path(1), b"x").unwrap();
        assert!(dirs.shard_done(1));
        assert_eq!(dirs.missing_shards(3), vec![0, 2]);
        std::fs::remove_dir_all(dirs.root()).ok();
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temporaries() {
        let root = tmp_root("atomic");
        std::fs::create_dir_all(&root).unwrap();
        let target = root.join("out.bin");
        write_atomic(&target, b"first").unwrap();
        write_atomic(&target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_staged_file_appears_on_publish_and_is_removed_unpublished() {
        let root = tmp_root("stage");
        std::fs::create_dir_all(&root).unwrap();
        let target = root.join("data.bin");
        let dropped = stage(&target, |w| w.write_all(b"never")).unwrap();
        drop(dropped);
        let staged = stage(&target, |w| w.write_all(b"kept")).unwrap();
        assert!(!target.exists(), "nothing is in place before publish");
        staged.publish().unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"kept");
        let names: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .collect();
        assert_eq!(names, ["data.bin"], "no temporary is left behind");
        std::fs::remove_dir_all(&root).ok();
    }
}
