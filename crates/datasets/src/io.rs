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
//! becomes. Each window is cut at its last newline (the tail carries into
//! the next window), split at line boundaries into one part per worker, and
//! the parts are scanned on the caller's thread budget through
//! `knnshap_parallel`, then appended in file order. Cells are byte
//! slices of the window (no per-line allocation), and features go through a
//! fast decimal path that returns exactly what `str::parse::<f32>` returns.
//! The result — every bit, and the error reported for a bad file — is
//! therefore the same for every thread count and window size.

use crate::dataset::{ClassDataset, RegDataset};
use crate::features::Features;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::ops::Range;
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
const WINDOW: usize = 64 << 10;

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

/// A class label: a `u32` below `u32::MAX`, so the class count
/// `max(label) + 1` fits a `u32`.
fn label(c: &str) -> Result<u32, String> {
    match c.parse() {
        Ok(u32::MAX) => Err(format!(
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
fn read_class(r: impl Read, threads: usize, window: usize) -> Result<ClassDataset, IoError> {
    let (x, labels) = scan_rows(r, threads, window, "label", label)?;
    Ok(class_dataset(x, labels))
}

/// The regression loader over any byte source, `window` bytes at a time.
fn read_reg(r: impl Read, threads: usize, window: usize) -> Result<RegDataset, IoError> {
    let (x, targets) = scan_rows(r, threads, window, "target", target)?;
    Ok(RegDataset::new(x, targets))
}

/// The row scanner behind both loaders: every row is `dim` `f32` features
/// followed by one task-specific final column, parsed by `last` (the files
/// are otherwise indistinguishable; `what` names that column in errors).
/// Reads `r` about `window` bytes at a time and parses each window on
/// `threads` workers; the window only bounds memory; it never changes the
/// result.
fn scan_rows<T: Send + Default>(
    mut r: impl Read,
    threads: usize,
    window: usize,
    what: &str,
    last: fn(&str) -> Result<T, String>,
) -> Result<(Features, Vec<T>), IoError> {
    let threads = threads.max(1);
    let window = window.max(1);
    let mut parts: Vec<Part<T>> = (0..threads).map(|_| Part::default()).collect();
    let (mut feats, mut finals) = (Vec::new(), Vec::new());
    let mut dim = None;
    let mut lines_before = 0;
    // `buf[..len]` holds the unparsed bytes: the tail of the last window,
    // then whatever the next read brings.
    let (mut buf, mut len) = (vec![0u8; window], 0);
    loop {
        let eof = fill(&mut r, &mut buf, &mut len)?;
        let cut = match (eof, buf[..len].iter().rposition(|&b| b == b'\n')) {
            (true, _) => len,
            (false, Some(i)) => i + 1,
            // A line longer than the buffer: grow it and read on.
            (false, None) => {
                buf.resize(2 * buf.len(), 0);
                continue;
            }
        };
        let text = &buf[..cut];
        if dim.is_none() {
            dim = first_row_dim(text);
        }
        split_at_lines(text, &mut parts);
        knnshap_parallel::par_chunks(&mut parts, 1, threads, |_, part| {
            part[0].scan(text, dim.unwrap_or(0), what, last)
        });
        for part in &mut parts {
            if let Some((line, bad)) = part.bad.take() {
                let line = lines_before + line + 1;
                return Err(match bad {
                    // The error `BufRead::lines` gives for such a line.
                    Bad::Utf8 => IoError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )),
                    Bad::Format(m) => IoError::Format(format!("line {line}: {m}")),
                });
            }
            lines_before += part.lines;
            feats.extend_from_slice(&part.feats);
            finals.append(&mut part.finals);
        }
        buf.copy_within(cut..len, 0);
        len -= cut;
        if eof {
            break;
        }
    }
    let dim = dim.ok_or_else(|| IoError::Format("empty file".into()))?;
    Ok((Features::new(feats, dim), finals))
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
/// `text` holds a row. The part that holds that row re-checks it, so a
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

/// Cut `text` into `parts.len()` byte ranges of about equal size, each
/// starting at a line start.
fn split_at_lines<T>(text: &[u8], parts: &mut [Part<T>]) {
    let n = parts.len();
    let mut start = 0;
    for (i, part) in parts.iter_mut().enumerate() {
        let aim = (text.len() * (i + 1) / n).max(start);
        let end = match text[aim..].iter().position(|&b| b == b'\n') {
            Some(j) if i + 1 < n => aim + j + 1,
            _ => text.len(),
        };
        part.range = start..end;
        start = end;
    }
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

/// Why a part stopped at a line.
enum Bad {
    /// The line is not UTF-8.
    Utf8,
    /// A format error, without its `line N: ` prefix.
    Format(String),
}

/// One worker's share of a window, and its output buffers (reused across
/// windows).
#[derive(Default)]
struct Part<T> {
    range: Range<usize>,
    feats: Vec<f32>,
    finals: Vec<T>,
    /// Lines in the part when it parsed cleanly.
    lines: usize,
    /// The part-local index of its first bad line, and what was wrong.
    bad: Option<(usize, Bad)>,
}

impl<T> Part<T> {
    /// Parse this part's range of `text`, stopping at its first bad line.
    fn scan(&mut self, text: &[u8], dim: usize, what: &str, last: fn(&str) -> Result<T, String>) {
        self.feats.clear();
        self.finals.clear();
        let text = &text[self.range.clone()];
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
