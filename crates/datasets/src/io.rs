//! Dataset persistence: CSV import and export.
//!
//! The synthetic generators make the workspace self-contained, but users
//! reproducing the paper with *real* embeddings (e.g. their own Inception/
//! ResNet features for MNIST or dog-fish) need a way in. CSV is that way:
//! it interoperates with pandas/numpy one-liners.
//!
//! ## Accepted dialect
//!
//! * One row per point: `dim ≥ 1` features, then one final column — the
//!   integer label ([`load_class_csv`]) or the float target
//!   ([`load_reg_csv`]). Every row has the same `dim`.
//! * Cells are separated by `,`; there is no quoting. Whitespace around a
//!   cell (whatever `str::trim` strips: spaces, tabs, `\r`, …) is ignored,
//!   so `\r\n` line endings and padded columns are fine. The last line may
//!   lack its newline.
//! * Blank lines, and lines whose first non-blank character is `#`, are
//!   skipped.
//! * A feature is whatever `str::parse::<f32>` accepts (`1e5`, `.5`, `-0`),
//!   and must be finite: `NaN`, `inf` and literals that overflow `f32` are
//!   rejected, since they would reach the distance ranking as a NaN.
//! * The file is UTF-8 and holds at least one row.
//!
//! A violation is an [`IoError::Format`] naming the first bad line (1-based)
//! in file order, or an [`IoError::Io`] for unreadable or non-UTF-8 bytes.
//!
//! ## How a CSV is parsed
//!
//! The loader reads the file in 64 KiB windows — never the whole file at
//! once, so a large CSV costs no resident memory beyond the matrix it
//! becomes — in one ordered region of `knnshap_parallel::par_ordered` on
//! the caller's thread budget:
//!
//! * **Claim.** Under the region's reader lock, a worker moves the carried
//!   tail of the last window into its own buffer, reads on until the
//!   window is full, and cuts it after its last newline (the new tail
//!   carries into the next window; a line longer than the window doubles
//!   it). The first row that holds data fixes the feature count.
//! * **Scan.** Outside the lock, the worker parses its window's lines into
//!   its own buffers. Cells are byte slices of the window (no per-line
//!   allocation), and features go through a fast decimal path that returns
//!   exactly what `str::parse::<f32>` returns.
//! * **Commit.** In file order, one window at a time, the worker reports
//!   the window's first bad line (numbered from the lines committed before
//!   it) or a failed read, which ends the parse, or else appends its rows.
//!
//! Every source — a file, a pipe, bytes in memory — takes this one path.
//! The result — every bit, and the error reported for a bad file — is the
//! same for every thread count and window size.

use crate::dataset::{ClassDataset, RegDataset};
use crate::features::Features;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

mod float;
#[cfg(test)]
mod tests;

use float::{fast_prefix, parse_f32};

/// Bytes of CSV read per window, shared by the parse workers. Every parse
/// buffer stays below glibc's default mmap threshold (128 KiB): freeing a
/// larger, mmapped buffer raises that threshold for the rest of the
/// process, and the long-lived `serve` daemon then kept more heap resident
/// (measured: +5% peak RSS with 1 MiB windows per worker).
pub const WINDOW: usize = 64 << 10;

/// Errors from dataset I/O.
#[derive(Debug)]
pub enum IoError {
    Io(io::Error),
    /// Structural problem with the file contents.
    Format(String),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Write a classification dataset as CSV (features…, label).
pub fn save_class_csv(path: &Path, d: &ClassDataset) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    for i in 0..d.len() {
        for v in d.x.row(i) {
            write!(w, "{v},")?;
        }
        writeln!(w, "{}", d.y[i])?;
    }
    w.flush()?;
    Ok(())
}

/// Read a classification dataset from CSV: every row is `dim` floats
/// followed by one integer label. The class count is inferred as
/// `max(label) + 1`. Parses on `knnshap_parallel::current_threads()`
/// workers; see the [module docs](self) for the dialect.
pub fn load_class_csv(path: &Path) -> Result<ClassDataset, IoError> {
    load_class_csv_with_threads(path, knnshap_parallel::current_threads())
}

/// [`load_class_csv`] on `threads` parse workers. The result does not
/// depend on `threads`.
pub fn load_class_csv_with_threads(path: &Path, threads: usize) -> Result<ClassDataset, IoError> {
    read_class(File::open(path)?, threads, WINDOW)
}

/// [`load_class_csv_with_threads`] over any byte source, e.g. a reader that
/// digests the bytes as the parse consumes them.
pub fn load_class_csv_from_reader(
    r: impl Read + Send,
    threads: usize,
) -> Result<ClassDataset, IoError> {
    read_class(r, threads, WINDOW)
}

/// Write a regression dataset as CSV (features…, target). Floats are
/// printed with Rust's shortest round-trip formatting, so a save/load
/// round trip reproduces feature and target **bits** exactly — which keeps
/// dataset-content job fingerprints stable across the trip.
pub fn save_reg_csv(path: &Path, d: &RegDataset) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    for i in 0..d.len() {
        for v in d.x.row(i) {
            write!(w, "{v},")?;
        }
        writeln!(w, "{}", d.y[i])?;
    }
    w.flush()?;
    Ok(())
}

/// Read a regression dataset from CSV: every row is `dim` floats followed
/// by one float target. The same file layout as the classification CSV,
/// with the last column parsed as `f64` instead of an integer label —
/// which task a file holds is the caller's declaration (e.g. the job
/// plan's `task` field), not something inferable from the bytes. Parses on
/// `knnshap_parallel::current_threads()` workers.
pub fn load_reg_csv(path: &Path) -> Result<RegDataset, IoError> {
    load_reg_csv_with_threads(path, knnshap_parallel::current_threads())
}

/// [`load_reg_csv`] on `threads` parse workers. The result does not depend
/// on `threads`.
pub fn load_reg_csv_with_threads(path: &Path, threads: usize) -> Result<RegDataset, IoError> {
    read_reg(File::open(path)?, threads, WINDOW)
}

/// [`load_reg_csv_with_threads`] over any byte source.
pub fn load_reg_csv_from_reader(
    r: impl Read + Send,
    threads: usize,
) -> Result<RegDataset, IoError> {
    read_reg(r, threads, WINDOW)
}

/// A class label: a `u32` up to [`ClassDataset::MAX_LABEL`], so the
/// class count `max(label) + 1` fits a `u32`.
fn label(c: &str) -> Result<u32, String> {
    match c.parse() {
        Ok(v) if v > ClassDataset::MAX_LABEL => Err(format!(
            "'{c}' is too large (labels must be below {})",
            u32::MAX
        )),
        Ok(v) => Ok(v),
        Err(e) => Err(e.to_string()),
    }
}

fn target(c: &str) -> Result<f64, String> {
    c.parse()
        .map_err(|e: std::num::ParseFloatError| e.to_string())
}

fn class_dataset(x: Features, labels: Vec<u32>) -> ClassDataset {
    let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
    ClassDataset::new(x, labels, n_classes)
}

/// The classification loader over any byte source, `window` bytes at a time.
fn read_class(r: impl Read + Send, threads: usize, window: usize) -> Result<ClassDataset, IoError> {
    let (x, labels) = scan_rows(r, threads, window, "label", label)?;
    Ok(class_dataset(x, labels))
}

/// The regression loader over any byte source, `window` bytes at a time.
fn read_reg(r: impl Read + Send, threads: usize, window: usize) -> Result<RegDataset, IoError> {
    let (x, targets) = scan_rows(r, threads, window, "target", target)?;
    Ok(RegDataset::new(x, targets))
}

/// The row scanner behind both loaders: every row is `dim` `f32` features
/// followed by one task-specific final column, parsed by `last` (the files
/// are otherwise indistinguishable; `what` names that column in errors).
/// Reads `r` about `window` bytes at a time and parses the windows on
/// `threads` workers in one ordered region; the window only bounds memory;
/// it never changes the result.
fn scan_rows<T: Send + Default>(
    r: impl Read + Send,
    threads: usize,
    window: usize,
    what: &str,
    last: fn(&str) -> Result<T, String>,
) -> Result<(Features, Vec<T>), IoError> {
    let mut source = Source {
        r,
        carry: Vec::new(),
        size: window.max(1),
        dim: None,
        done: false,
    };
    let (mut feats, mut finals) = (Vec::new(), Vec::new());
    let mut lines_before = 0;
    let mut failed = None;
    knnshap_parallel::par_ordered(
        threads,
        Window::default,
        |_, w| source.next(w),
        |w| {
            if w.failed.is_none() {
                w.part.scan(&w.buf[..w.text], w.dim, what, last);
            }
        },
        |w| {
            let bad = match (w.failed.take(), w.part.bad.take()) {
                (Some(e), _) => IoError::Io(e),
                // The error `BufRead::lines` gives for such a line.
                (None, Some((_, Bad::Utf8))) => IoError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )),
                (None, Some((line, Bad::Format(m)))) => {
                    IoError::Format(format!("line {}: {m}", lines_before + line + 1))
                }
                (None, None) => {
                    lines_before += w.part.lines;
                    feats.extend_from_slice(&w.part.feats);
                    finals.append(&mut w.part.finals);
                    return true;
                }
            };
            failed = Some(bad);
            false
        },
    );
    if let Some(e) = failed {
        return Err(e);
    }
    let dim = source
        .dim
        .ok_or_else(|| IoError::Format("empty file".into()))?;
    Ok((Features::new(feats, dim), finals))
}

/// The read side of [`scan_rows`], used under the region's claim lock: it
/// hands out the input one window at a time, in file order.
struct Source<R> {
    r: R,
    /// The bytes after the last window's final newline.
    carry: Vec<u8>,
    /// The window size: `WINDOW`, doubled for each line that did not fit.
    size: usize,
    /// The feature count, from the first row.
    dim: Option<usize>,
    /// The input is used up, or failed.
    done: bool,
}

impl<R: Read> Source<R> {
    /// Load the next window into `w`: the carried tail, then fresh bytes
    /// until the window is full, cut after its last newline (all of it at
    /// end of input). `false` once the input is used up; a failed read is
    /// the last window, carrying the error.
    fn next<T>(&mut self, w: &mut Window<T>) -> bool {
        if self.done {
            return false;
        }
        w.failed = None;
        let mut len = self.carry.len();
        if w.buf.len() < self.size {
            w.buf.resize(self.size, 0);
        }
        w.buf[..len].copy_from_slice(&self.carry);
        loop {
            let eof = match fill(&mut self.r, &mut w.buf[..self.size], &mut len) {
                Ok(eof) => eof,
                Err(e) => {
                    w.failed = Some(e);
                    self.done = true;
                    return true;
                }
            };
            let cut = match (eof, w.buf[..len].iter().rposition(|&b| b == b'\n')) {
                (true, _) => len,
                (false, Some(i)) => i + 1,
                // A line longer than the window: grow it and read on.
                (false, None) => {
                    self.size *= 2;
                    w.buf.resize(self.size, 0);
                    continue;
                }
            };
            self.carry.clear();
            self.carry.extend_from_slice(&w.buf[cut..len]);
            if self.dim.is_none() {
                self.dim = first_row_dim(&w.buf[..cut]);
            }
            w.text = cut;
            w.dim = self.dim.unwrap_or(0);
            self.done = eof;
            return true;
        }
    }
}

/// One parse worker's window and its parse; the buffers are reused from
/// window to window.
#[derive(Default)]
struct Window<T> {
    /// The window's bytes; `buf[..text]` holds its whole lines.
    buf: Vec<u8>,
    text: usize,
    /// The feature count as of this window.
    dim: usize,
    /// The read that should have filled the window failed.
    failed: Option<io::Error>,
    part: Part<T>,
}

/// Read from `r` until `buf[..len]` fills `buf`; `true` at end of input.
fn fill(r: &mut impl Read, buf: &mut [u8], len: &mut usize) -> io::Result<bool> {
    while *len < buf.len() {
        match r.read(&mut buf[*len..]) {
            Ok(0) => return Ok(true),
            Ok(n) => *len += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// The feature count of the first row in `text` (its comma count), if
/// `text` holds a row. The window that holds that row re-checks it, so a
/// line this misjudges (only possible for non-UTF-8 bytes) is reported
/// there before the count is ever compared.
fn first_row_dim(text: &[u8]) -> Option<usize> {
    text.split(|&b| b == b'\n').find_map(|line| {
        let line = String::from_utf8_lossy(line);
        let line = line.trim();
        (!line.is_empty() && !line.starts_with('#')).then(|| comma_count(line))
    })
}

fn comma_count(line: &str) -> usize {
    line.bytes().filter(|&b| b == b',').count()
}

/// The common case of a row: `dim` fast-path features, each directly
/// followed by `,`, then a final cell with no `,` in it. Pushes the features
/// and returns the final cell, or returns `None` (having pushed some
/// features perhaps) for anything else, which the checked parse handles.
fn fast_features<'a>(line: &'a str, dim: usize, feats: &mut Vec<f32>) -> Option<&'a str> {
    let bytes = line.as_bytes();
    let mut at = 0;
    for _ in 0..dim {
        let (v, used) = fast_prefix(&bytes[at..])?;
        at += used;
        if bytes.get(at) != Some(&b',') {
            return None;
        }
        at += 1;
        feats.push(v);
    }
    let rest = &line[at..];
    (dim > 0 && !rest.contains(',')).then_some(rest)
}

/// Why a window's parse stopped at a line.
enum Bad {
    /// The line is not UTF-8.
    Utf8,
    /// A format error, without its `line N: ` prefix.
    Format(String),
}

/// The rows parsed from one window (the buffers are reused across
/// windows).
#[derive(Default)]
struct Part<T> {
    feats: Vec<f32>,
    finals: Vec<T>,
    /// Lines in the window when it parsed cleanly.
    lines: usize,
    /// The window-local index of its first bad line, and what was wrong.
    bad: Option<(usize, Bad)>,
}

impl<T> Part<T> {
    /// Parse the whole lines in `text`, stopping at the first bad one.
    fn scan(&mut self, text: &[u8], dim: usize, what: &str, last: fn(&str) -> Result<T, String>) {
        self.feats.clear();
        self.finals.clear();
        // `\n` is never inside a multi-byte sequence, so the valid prefix
        // holds every line before the first non-UTF-8 one.
        let (valid, broken) = match std::str::from_utf8(text) {
            Ok(s) => (s, false),
            Err(e) => (
                std::str::from_utf8(&text[..e.valid_up_to()]).unwrap_or_default(),
                true,
            ),
        };
        let mut lines = 0;
        for line in valid.split_inclusive('\n') {
            if broken && !line.ends_with('\n') {
                break;
            }
            if let Err(m) = self.row(line, dim, what, last) {
                self.bad = Some((lines, Bad::Format(m)));
                return;
            }
            lines += 1;
        }
        if broken {
            self.bad = Some((lines, Bad::Utf8));
        }
        self.lines = lines;
    }

    /// Parse one line; blank and comment lines add nothing.
    fn row(
        &mut self,
        line: &str,
        dim: usize,
        what: &str,
        last: fn(&str) -> Result<T, String>,
    ) -> Result<(), String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let n = self.feats.len();
        if let Some(c) = fast_features(line, dim, &mut self.feats) {
            if let Ok(v) = last(c.trim()) {
                self.finals.push(v);
                return Ok(());
            }
        }
        self.feats.truncate(n);
        self.checked_row(line, dim, what, last)
    }

    /// [`Part::row`] for a line the fast pass declined: every check, in the
    /// order the error precedence needs — cell count, then each cell left
    /// to right.
    fn checked_row(
        &mut self,
        line: &str,
        dim: usize,
        what: &str,
        last: fn(&str) -> Result<T, String>,
    ) -> Result<(), String> {
        let row_dim = comma_count(line);
        if row_dim == 0 {
            return Err(format!("need at least one feature and a {what}"));
        }
        if row_dim != dim {
            return Err(format!("{row_dim} features but earlier rows had {dim}"));
        }
        let mut cells = line.split(',');
        for c in cells.by_ref().take(dim) {
            let c = c.trim();
            let v = parse_f32(c).map_err(|e| format!("bad float '{c}': {e}"))?;
            if !v.is_finite() {
                return Err(format!("non-finite feature '{c}'"));
            }
            self.feats.push(v);
        }
        let c = cells.next().unwrap_or_default().trim();
        self.finals
            .push(last(c).map_err(|e| format!("bad {what}: {e}"))?);
        Ok(())
    }
}
