//! The job's training-set snapshot, `train.knndata`: the rows `shard-plan`
//! parsed and verified, in binary, so that every worker and the merge tail
//! read them instead of parsing the training CSV again.
//!
//! ## Format
//!
//! A 48-byte header, then the payload; every number is little-endian.
//!
//! ```text
//! offset  bytes  field
//!      0      8  magic  b"KNNDATA\0"
//!      8      4  version (1)
//!     12      4  task: 0 = classification, 1 = regression
//!     16      8  n     rows
//!     24      8  dim   features per row
//!     32      8  byte length of the training CSV the rows were parsed from
//!     40      8  ByteDigest of that CSV's bytes
//!     48         n·dim f32 features (row-major), then n u32 labels or
//!                n f64 targets
//! ```
//!
//! The header holds no content hash: the plan's job fingerprint covers
//! every payload bit, and a loaded snapshot is held to it.
//!
//! ## When it is used
//!
//! [`read`] returns the training set when the file exists, its header
//! decodes for the plan's task, the file length is exactly what `n` and
//! `dim` make it, and the training CSV still has the recorded length and
//! digest. Anything else is a [`Miss`], never an error: the caller parses
//! the CSV instead, exactly as without a snapshot. The caller then verifies
//! the loaded data against the plan's fingerprint and, if that fails, also
//! falls back to the CSV — so a corrupt payload is only a miss, and a
//! drifted CSV fails with `FingerprintMismatch` as it always did.
//!
//! The payload is read 64 KiB ([`WINDOW`]) at a time into buffers sized
//! from the header once the file length has confirmed that size: a decode
//! never allocates more than the file holds.

use crate::layout::{JobDirs, Staged};
use crate::spec::JobSpec;
use crate::JobError;
use knnshap_core::estimator::{Data, Task};
use knnshap_datasets::io::WINDOW;
use knnshap_datasets::{ClassDataset, Features, RegDataset};
use knnshap_numerics::fingerprint::ByteDigest;
use std::borrow::Cow;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// The first eight bytes of every snapshot.
const MAGIC: &[u8; 8] = b"KNNDATA\0";
/// The format version this build reads and writes.
const VERSION: u32 = 1;
/// Bytes before the payload.
pub const HEADER_LEN: usize = 48;

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
    /// The file is not a whole snapshot of this job's task.
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
/// [`Staged::publish`] puts it in place.
pub(crate) fn stage(dirs: &JobDirs, data: &Data<'_>, csv: Stamp) -> io::Result<Staged> {
    crate::layout::stage(&dirs.snapshot_path(), |w| match data {
        Data::Class { train, .. } => {
            write_header(w, Task::Class, &train.x, csv)?;
            write_le(w, train.x.as_slice(), f32::to_le_bytes)?;
            write_le(w, &train.y, u32::to_le_bytes)
        }
        Data::Reg { train, .. } => {
            write_header(w, Task::Reg, &train.x, csv)?;
            write_le(w, train.x.as_slice(), f32::to_le_bytes)?;
            write_le(w, &train.y, f64::to_le_bytes)
        }
    })
}

fn task_code(task: Task) -> u32 {
    match task {
        Task::Class => 0,
        Task::Reg => 1,
    }
}

fn write_header(w: &mut impl Write, task: Task, x: &Features, csv: Stamp) -> io::Result<()> {
    let mut head = Vec::with_capacity(HEADER_LEN);
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&task_code(task).to_le_bytes());
    for v in [x.len() as u64, x.dim() as u64, csv.len, csv.digest] {
        head.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&head)
}

/// Write `vals` little-endian, one 64 KiB piece at a time.
fn write_le<T: Copy, const W: usize>(
    w: &mut impl Write,
    vals: &[T],
    to: fn(T) -> [u8; W],
) -> io::Result<()> {
    let mut piece = Vec::with_capacity(WINDOW);
    for chunk in vals.chunks(WINDOW / W) {
        piece.clear();
        for &v in chunk {
            piece.extend_from_slice(&to(v));
        }
        w.write_all(&piece)?;
    }
    Ok(())
}

/// A decoded header.
struct Header {
    n: usize,
    dim: usize,
    csv: Stamp,
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
/// [module docs](self)). Never panics on a bad file, and allocates no more
/// than the file's length.
pub fn read(dirs: &JobDirs, spec: &JobSpec) -> Result<TrainSet, Miss> {
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
    if Stamp::of_file(&spec.train).ok() != Some(h.csv) {
        return Err(Miss::Digest);
    }
    let cells = h.n.checked_mul(h.dim).ok_or(Miss::Decode)?;
    let mut piece = vec![0u8; WINDOW];
    let feats = read_le(&mut f, &mut piece, cells, f32::from_le_bytes)?;
    // The CSV loader refuses non-finite features; so does the snapshot.
    if !feats.iter().all(|v| v.is_finite()) {
        return Err(Miss::Decode);
    }
    let x = Features::new(feats, h.dim);
    Ok(match spec.task {
        Task::Class => {
            let y = read_le(&mut f, &mut piece, h.n, u32::from_le_bytes)?;
            let max = y.iter().copied().max().unwrap_or(0);
            if max > ClassDataset::MAX_LABEL {
                return Err(Miss::Decode);
            }
            TrainSet::Class(ClassDataset::new(x, y, max + 1))
        }
        Task::Reg => TrainSet::Reg(RegDataset::new(
            x,
            read_le(&mut f, &mut piece, h.n, f64::from_le_bytes)?,
        )),
    })
}

/// Read `count` little-endian values of `W` bytes each, one `piece` at a
/// time.
fn read_le<T, const W: usize>(
    r: &mut impl Read,
    piece: &mut [u8],
    count: usize,
    from: fn([u8; W]) -> T,
) -> Result<Vec<T>, Miss> {
    let mut out = Vec::with_capacity(count);
    let per_piece = piece.len() / W;
    while out.len() < count {
        let bytes = &mut piece[..(count - out.len()).min(per_piece) * W];
        r.read_exact(bytes).map_err(|_| Miss::Decode)?;
        out.extend(
            bytes
                .chunks_exact(W)
                .map(|c| from(c.try_into().expect("W-byte chunk"))),
        );
    }
    Ok(out)
}
