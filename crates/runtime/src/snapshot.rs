//! The job's training-set snapshot, `train.knndata`: the rows `shard-plan`
//! parsed and verified, in binary, with their content hash, so that every
//! worker and the merge tail read them instead of parsing the training CSV
//! again, and bind them without hashing every feature again.
//!
//! ## Format (version 2)
//!
//! A 64-byte header, then the payload; every number is little-endian.
//!
//! ```text
//! offset  bytes  field
//!      0      8  magic  b"KNNDATA\0"
//!      8      4  version (2)
//!     12      4  task: 0 = classification, 1 = regression
//!     16      8  n     rows
//!     24      8  dim   features per row
//!     32      8  byte length of the training CSV the rows were parsed from
//!     40      8  ByteDigest of that CSV's bytes
//!     48      8  content hash of the rows (hash_class_dataset or
//!                hash_reg_dataset), as the plan's fingerprint took it
//!     56      8  seal: ByteDigest of the payload, then of bytes 0..56
//!     64         n·dim f32 features (row-major), then n u32 labels or
//!                n f64 targets
//! ```
//!
//! The writer streams the payload first, folding the seal as it goes, and
//! seeks back to write the header last, once `shard-plan` has hashed the
//! rows for the plan: planning neither hashes twice nor waits on the hash
//! to start writing. A version-1 file (48-byte header, no hash) is a
//! decode miss.
//!
//! ## When it is used
//!
//! [`read`] returns the training set and its content hash when the file
//! exists, its header decodes for the plan's task, the file length is
//! exactly what `n` and `dim` make it, the training CSV still has the
//! recorded length and digest, and the seal matches the bytes read.
//! Anything else is a [`Miss`], never an error: the caller parses the CSV
//! instead, exactly as without a snapshot. The caller binds the rows with
//! the recorded hash and verifies the plan's fingerprint, which still
//! hashes `K`, the weight, the family and the freshly parsed test set; if
//! that fails it also falls back to the CSV, so a drifted CSV or a
//! hand-edited plan fails with the error it always did.
//!
//! Skipping the re-hash is safe because the hash is only trusted together
//! with the bytes it was taken from: the CSV digest ties the snapshot to
//! the CSV the plan parsed, and the seal covers every payload byte and the
//! hash itself, so a damaged row, a damaged hash or a snapshot spliced from
//! another file reads as a miss.
//!
//! The payload is read 64 KiB ([`WINDOW`]) at a time into buffers sized
//! from the header once the file length has confirmed that size: a decode
//! never allocates more than the file holds. On two or more threads the
//! CSV digest runs on a second thread while the payload is read.

use crate::layout::{JobDirs, Staged};
use crate::spec::JobSpec;
use crate::JobError;
use knnshap_core::estimator::{Data, Task};
use knnshap_datasets::io::WINDOW;
use knnshap_datasets::{ClassDataset, Features, RegDataset};
use knnshap_numerics::fingerprint::ByteDigest;
use std::borrow::Cow;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The first eight bytes of every snapshot.
const MAGIC: &[u8; 8] = b"KNNDATA\0";
/// The format version this build reads and writes.
const VERSION: u32 = 2;
/// Bytes before the payload.
pub const HEADER_LEN: usize = 64;
/// The header bytes the seal covers: all but the seal itself.
const SEALED: usize = 56;

/// The length and [`ByteDigest`] of a training CSV's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stamp {
    len: u64,
    digest: u64,
}

impl Stamp {
    /// The stamp of the bytes `digest` has seen.
    pub(crate) fn of(digest: &ByteDigest) -> Self {
        Stamp {
            len: digest.len(),
            digest: digest.finish(),
        }
    }

    /// The stamp of the file at `path` as it is now, read in 64 KiB pieces.
    fn of_file(path: &Path) -> io::Result<Self> {
        let mut f = File::open(path)?;
        let mut digest = ByteDigest::new();
        let mut buf = vec![0u8; WINDOW];
        loop {
            match f.read(&mut buf) {
                Ok(0) => return Ok(Self::of(&digest)),
                Ok(n) => digest.update(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Why the snapshot was not used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// The job directory holds no snapshot.
    Absent,
    /// The training CSV's bytes changed since the snapshot was written.
    Digest,
    /// The file is not a whole, sealed snapshot of this job's task.
    Decode,
    /// The snapshot's rows did not derive the plan's job identity.
    Identity,
}

impl Miss {
    /// The `reason` field of the `load` event.
    pub(crate) fn reason(self) -> &'static str {
        match self {
            Miss::Absent => "absent",
            Miss::Digest => "digest",
            Miss::Decode => "decode",
            Miss::Identity => "identity",
        }
    }
}

/// A training set of either task.
#[derive(Debug)]
pub enum TrainSet {
    Class(ClassDataset),
    Reg(RegDataset),
}

impl TrainSet {
    /// Pair the training set with the spec's test CSV, parsed on `threads`
    /// workers.
    pub(crate) fn with_test(
        self,
        spec: &JobSpec,
        threads: usize,
    ) -> Result<Data<'static>, JobError> {
        use knnshap_datasets::io::{load_class_csv_with_threads, load_reg_csv_with_threads};
        let test = &spec.test;
        let at = |e| JobError::Dataset(format!("{}: {e}", test.display()));
        Ok(match self {
            TrainSet::Class(train) => Data::Class {
                train: Cow::Owned(train),
                test: Cow::Owned(load_class_csv_with_threads(test, threads).map_err(at)?),
            },
            TrainSet::Reg(train) => Data::Reg {
                train: Cow::Owned(train),
                test: Cow::Owned(load_reg_csv_with_threads(test, threads).map_err(at)?),
            },
        })
    }
}

/// Write the snapshot of `data`'s training set, parsed from a CSV with
/// stamp `csv`, under a temporary name next to the job's snapshot path;
/// [`Staged::publish`] puts it in place. The payload is written first;
/// then `train_hash` is asked for the training set's content hash (`None`
/// fails the write) and the header goes in front.
pub(crate) fn stage(
    dirs: &JobDirs,
    data: &Data<'_>,
    csv: Stamp,
    train_hash: impl FnOnce() -> Option<u64>,
) -> io::Result<Staged> {
    crate::layout::stage(&dirs.snapshot_path(), |w| {
        w.write_all(&[0; HEADER_LEN])?;
        let mut seal = ByteDigest::new();
        let (task, x) = match data {
            Data::Class { train, .. } => {
                write_le(w, &mut seal, train.x.as_slice(), f32::to_le_bytes)?;
                write_le(w, &mut seal, &train.y, u32::to_le_bytes)?;
                (Task::Class, &train.x)
            }
            Data::Reg { train, .. } => {
                write_le(w, &mut seal, train.x.as_slice(), f32::to_le_bytes)?;
                write_le(w, &mut seal, &train.y, f64::to_le_bytes)?;
                (Task::Reg, &train.x)
            }
        };
        let hash = train_hash()
            .ok_or_else(|| io::Error::other("the training set's content hash never came"))?;
        w.seek(SeekFrom::Start(0))?;
        w.write_all(&header(task, x, csv, hash, seal))
    })
}

fn task_code(task: Task) -> u32 {
    match task {
        Task::Class => 0,
        Task::Reg => 1,
    }
}

/// The header of a snapshot whose payload `seal` has folded.
fn header(
    task: Task,
    x: &Features,
    csv: Stamp,
    train_hash: u64,
    mut seal: ByteDigest,
) -> [u8; HEADER_LEN] {
    let mut head = [0u8; HEADER_LEN];
    head[..8].copy_from_slice(MAGIC);
    head[8..12].copy_from_slice(&VERSION.to_le_bytes());
    head[12..16].copy_from_slice(&task_code(task).to_le_bytes());
    let fields = [
        x.len() as u64,
        x.dim() as u64,
        csv.len,
        csv.digest,
        train_hash,
    ];
    for (at, v) in (16..).step_by(8).zip(fields) {
        head[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
    seal.update(&head[..SEALED]);
    head[SEALED..].copy_from_slice(&seal.finish().to_le_bytes());
    head
}

/// Write `vals` little-endian, one 64 KiB piece at a time, folding each
/// piece into `seal`.
fn write_le<T: Copy, const W: usize>(
    w: &mut impl Write,
    seal: &mut ByteDigest,
    vals: &[T],
    to: fn(T) -> [u8; W],
) -> io::Result<()> {
    let mut piece = Vec::with_capacity(WINDOW);
    for chunk in vals.chunks(WINDOW / W) {
        piece.clear();
        for &v in chunk {
            piece.extend_from_slice(&to(v));
        }
        seal.update(&piece);
        w.write_all(&piece)?;
    }
    Ok(())
}

/// A decoded header.
struct Header {
    n: usize,
    dim: usize,
    csv: Stamp,
    train_hash: u64,
    seal: u64,
}

impl Header {
    /// Decode `head` for a `task` job: `None` unless magic, version and
    /// task match and `n`, `dim` are positive.
    fn decode(head: &[u8; HEADER_LEN], task: Task) -> Option<Self> {
        let u32_at = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
        if &head[..8] != MAGIC || u32_at(8) != VERSION || u32_at(12) != task_code(task) {
            return None;
        }
        let n = usize::try_from(u64_at(16)).ok().filter(|&n| n > 0)?;
        let dim = usize::try_from(u64_at(24)).ok().filter(|&d| d > 0)?;
        Some(Header {
            n,
            dim,
            csv: Stamp {
                len: u64_at(32),
                digest: u64_at(40),
            },
            train_hash: u64_at(48),
            seal: u64_at(SEALED),
        })
    }

    /// The file length `n` and `dim` make, if it fits a `u64`.
    fn file_len(&self, final_width: usize) -> Option<u64> {
        let n = self.n as u64;
        let feats = n.checked_mul(self.dim as u64)?.checked_mul(4)?;
        let finals = n.checked_mul(final_width as u64)?;
        feats.checked_add(finals)?.checked_add(HEADER_LEN as u64)
    }
}

/// Read the job's snapshot for `spec`'s task, if it is current (see the
/// [module docs](self)): the training set and its content hash. On two or
/// more `threads` the training CSV is digested on a second thread while the
/// payload is read. Never panics on a bad file, and allocates no more than
/// the file's length.
pub fn read(dirs: &JobDirs, spec: &JobSpec, threads: usize) -> Result<(TrainSet, u64), Miss> {
    let mut f = match File::open(dirs.snapshot_path()) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(Miss::Absent),
        Err(_) => return Err(Miss::Decode),
    };
    let file_len = f.metadata().map_err(|_| Miss::Decode)?.len();
    let mut head = [0u8; HEADER_LEN];
    f.read_exact(&mut head).map_err(|_| Miss::Decode)?;
    let h = Header::decode(&head, spec.task).ok_or(Miss::Decode)?;
    let final_width = match spec.task {
        Task::Class => 4,
        Task::Reg => 8,
    };
    if h.file_len(final_width) != Some(file_len) {
        return Err(Miss::Decode);
    }
    let current = || Stamp::of_file(&spec.train).ok() == Some(h.csv);
    let train = if threads >= 2 {
        let (current, train) = std::thread::scope(|s| {
            let current = s.spawn(current);
            let train = read_payload(&mut f, &head, &h, spec.task);
            (current.join().expect("the CSV digest panicked"), train)
        });
        if !current {
            return Err(Miss::Digest);
        }
        train
    } else {
        if !current() {
            return Err(Miss::Digest);
        }
        read_payload(&mut f, &head, &h, spec.task)
    }?;
    Ok((train, h.train_hash))
}

/// Read the payload after `head`, decoded as `h`, and check its seal.
fn read_payload(
    f: &mut File,
    head: &[u8; HEADER_LEN],
    h: &Header,
    task: Task,
) -> Result<TrainSet, Miss> {
    let cells = h.n.checked_mul(h.dim).ok_or(Miss::Decode)?;
    let mut piece = vec![0u8; WINDOW];
    let mut seal = ByteDigest::new();
    let x = Features::new(
        read_le(f, &mut piece, &mut seal, cells, f32::from_le_bytes)?,
        h.dim,
    );
    let train = match task {
        Task::Class => {
            let y = read_le(f, &mut piece, &mut seal, h.n, u32::from_le_bytes)?;
            let max = y.iter().copied().max().unwrap_or(0);
            if max > ClassDataset::MAX_LABEL {
                return Err(Miss::Decode);
            }
            TrainSet::Class(ClassDataset::new(x, y, max + 1))
        }
        Task::Reg => TrainSet::Reg(RegDataset::new(
            x,
            read_le(f, &mut piece, &mut seal, h.n, f64::from_le_bytes)?,
        )),
    };
    seal.update(&head[..SEALED]);
    if seal.finish() != h.seal {
        return Err(Miss::Decode);
    }
    Ok(train)
}

/// Read `count` little-endian values of `W` bytes each, one `piece` at a
/// time, folding each piece into `seal`.
fn read_le<T, const W: usize>(
    r: &mut impl Read,
    piece: &mut [u8],
    seal: &mut ByteDigest,
    count: usize,
    from: fn([u8; W]) -> T,
) -> Result<Vec<T>, Miss> {
    let mut out = Vec::with_capacity(count);
    let per_piece = piece.len() / W;
    while out.len() < count {
        let bytes = &mut piece[..(count - out.len()).min(per_piece) * W];
        r.read_exact(bytes).map_err(|_| Miss::Decode)?;
        seal.update(bytes);
        out.extend(
            bytes
                .chunks_exact(W)
                .map(|c| from(c.try_into().expect("W-byte chunk"))),
        );
    }
    Ok(out)
}
