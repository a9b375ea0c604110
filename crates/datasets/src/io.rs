//! Dataset persistence: a compact binary format and CSV import/export.
//!
//! The synthetic generators make the workspace self-contained, but users
//! reproducing the paper with *real* embeddings (e.g. their own Inception/
//! ResNet features for MNIST or dog-fish) need a way in. Two formats:
//!
//! * **CSV** — one row per point, features then (for classification) the
//!   integer label as the last column. Interoperates with pandas/numpy
//!   one-liners.
//! * **KSD binary** — magic `KSD1`, little-endian header
//!   `(n: u64, dim: u32, has_labels: u8)`, raw `f32` features, raw `u32`
//!   labels. Loads 10⁷-point matrices at disk speed with no parsing.

use crate::dataset::{ClassDataset, RegDataset};
use crate::features::Features;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"KSD1";

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

/// Write a classification dataset in the KSD binary format.
pub fn save_class_binary(path: &Path, d: &ClassDataset) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(d.len() as u64).to_le_bytes())?;
    w.write_all(&(d.dim() as u32).to_le_bytes())?;
    w.write_all(&[1u8])?;
    w.write_all(&(d.n_classes).to_le_bytes())?;
    for v in d.x.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    for &l in &d.y {
        w.write_all(&l.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Read a classification dataset in the KSD binary format.
pub fn load_class_binary(path: &Path) -> Result<ClassDataset, IoError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(IoError::Format("bad magic (not a KSD1 file)".into()));
    }
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let n = u64::from_le_bytes(b8) as usize;
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let dim = u32::from_le_bytes(b4) as usize;
    if dim == 0 {
        return Err(IoError::Format("zero feature dimension".into()));
    }
    let mut b1 = [0u8; 1];
    r.read_exact(&mut b1)?;
    if b1[0] != 1 {
        return Err(IoError::Format("file has no labels".into()));
    }
    r.read_exact(&mut b4)?;
    let n_classes = u32::from_le_bytes(b4);
    let mut feats = vec![0f32; n * dim];
    for v in feats.iter_mut() {
        r.read_exact(&mut b4)?;
        *v = f32::from_le_bytes(b4);
    }
    let mut labels = vec![0u32; n];
    for l in labels.iter_mut() {
        r.read_exact(&mut b4)?;
        *l = u32::from_le_bytes(b4);
    }
    if labels.iter().any(|&l| l >= n_classes) {
        return Err(IoError::Format("label out of declared class range".into()));
    }
    Ok(ClassDataset::new(
        Features::new(feats, dim),
        labels,
        n_classes,
    ))
}

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

/// The shared row scanner behind both CSV loaders: every row is `dim`
/// `f32` features followed by one task-specific final column, parsed by
/// `last` (integer label vs float target — the files are otherwise
/// indistinguishable). Empty lines and lines starting with `#` are
/// skipped; ragged rows, unparsable cells and non-finite features (NaN,
/// ±inf, or a literal that overflows `f32`, all of which would reach the
/// distance ranking as a NaN) are format errors naming the 1-based line.
fn load_rows_csv<T>(
    path: &Path,
    what: &str,
    last: impl Fn(&str) -> Result<T, String>,
) -> Result<(Features, Vec<T>), IoError> {
    let r = BufReader::new(File::open(path)?);
    let mut feats: Vec<f32> = Vec::new();
    let mut finals: Vec<T> = Vec::new();
    let mut dim: Option<usize> = None;
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() < 2 {
            return Err(IoError::Format(format!(
                "line {}: need at least one feature and a {what}",
                lineno + 1
            )));
        }
        let row_dim = cells.len() - 1;
        match dim {
            None => dim = Some(row_dim),
            Some(d) if d != row_dim => {
                return Err(IoError::Format(format!(
                    "line {}: {row_dim} features but earlier rows had {d}",
                    lineno + 1
                )))
            }
            _ => {}
        }
        for c in &cells[..row_dim] {
            let v = c.parse::<f32>().map_err(|e| {
                IoError::Format(format!("line {}: bad float '{c}': {e}", lineno + 1))
            })?;
            if !v.is_finite() {
                return Err(IoError::Format(format!(
                    "line {}: non-finite feature '{c}'",
                    lineno + 1
                )));
            }
            feats.push(v);
        }
        finals.push(
            last(cells[row_dim])
                .map_err(|e| IoError::Format(format!("line {}: bad {what}: {e}", lineno + 1)))?,
        );
    }
    let dim = dim.ok_or_else(|| IoError::Format("empty file".into()))?;
    Ok((Features::new(feats, dim), finals))
}

/// Read a classification dataset from CSV: every row is `dim` floats
/// followed by one integer label. The class count is inferred as
/// `max(label) + 1`. Empty lines and lines starting with `#` are skipped.
pub fn load_class_csv(path: &Path) -> Result<ClassDataset, IoError> {
    let (x, labels) = load_rows_csv(path, "label", |c| {
        c.parse::<u32>().map_err(|e| e.to_string())
    })?;
    let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
    Ok(ClassDataset::new(x, labels, n_classes))
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
/// plan's `task` field), not something inferable from the bytes.
pub fn load_reg_csv(path: &Path) -> Result<RegDataset, IoError> {
    let (x, targets) = load_rows_csv(path, "target", |c| {
        c.parse::<f64>().map_err(|e| e.to_string())
    })?;
    Ok(RegDataset::new(x, targets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::blobs::{self, BlobConfig};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("knnshap-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let d = blobs::generate(&BlobConfig {
            n: 57,
            dim: 5,
            n_classes: 3,
            ..Default::default()
        });
        let path = tmp("roundtrip.ksd");
        save_class_binary(&path, &d).unwrap();
        let back = load_class_binary(&path).unwrap();
        assert_eq!(back.x.as_slice(), d.x.as_slice());
        assert_eq!(back.y, d.y);
        assert_eq!(back.n_classes, d.n_classes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_roundtrip_preserves_values() {
        let d = blobs::generate(&BlobConfig {
            n: 20,
            dim: 3,
            n_classes: 2,
            ..Default::default()
        });
        let path = tmp("roundtrip.csv");
        save_class_csv(&path, &d).unwrap();
        let back = load_class_csv(&path).unwrap();
        assert_eq!(back.len(), 20);
        assert_eq!(back.dim(), 3);
        assert_eq!(back.y, d.y);
        for i in 0..20 {
            for (a, b) in back.x.row(i).iter().zip(d.x.row(i)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reg_csv_roundtrip_is_bitwise() {
        let cfg = crate::synth::regression::RegressionConfig {
            n: 25,
            dim: 3,
            ..Default::default()
        };
        let d = crate::synth::regression::generate(&cfg);
        let path = tmp("reg-roundtrip.csv");
        save_reg_csv(&path, &d).unwrap();
        let back = load_reg_csv(&path).unwrap();
        assert_eq!(back.len(), d.len());
        assert_eq!(back.dim(), d.dim());
        // Shortest round-trip float formatting: the bits survive, so content
        // fingerprints computed before and after the trip agree.
        for (a, b) in back.x.as_slice().iter().zip(d.x.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.y.iter().zip(&d.y) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reg_csv_rejects_bad_targets_and_ragged_rows() {
        let path = tmp("reg-bad.csv");
        std::fs::write(&path, "1.0,2.0,zero\n").unwrap();
        assert!(matches!(load_reg_csv(&path), Err(IoError::Format(_))));
        std::fs::write(&path, "1.0,2.0,0.5\n1.0,0.5\n").unwrap();
        assert!(matches!(load_reg_csv(&path), Err(IoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_skips_comments_and_blank_lines() {
        let path = tmp("comments.csv");
        std::fs::write(&path, "# header\n1.0,2.0,0\n\n3.0,4.0,1\n").unwrap();
        let d = load_class_csv(&path).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.n_classes, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let path = tmp("ragged.csv");
        std::fs::write(&path, "1.0,2.0,0\n1.0,1\n").unwrap();
        let err = load_class_csv(&path).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_non_finite_features_naming_the_line() {
        let path = tmp("non-finite.csv");
        for cell in ["NaN", "inf", "-inf", "1e39"] {
            std::fs::write(&path, format!("1.0,2.0,0\n# note\n3.0,{cell},1\n")).unwrap();
            for err in [
                load_class_csv(&path).unwrap_err(),
                load_reg_csv(&path).unwrap_err(),
            ] {
                assert!(matches!(err, IoError::Format(_)), "{err}");
                let msg = err.to_string();
                assert!(msg.contains("line 3") && msg.contains(cell), "{msg}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let path = tmp("bad.ksd");
        std::fs::write(&path, b"NOPE....").unwrap();
        assert!(matches!(load_class_binary(&path), Err(IoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }
}
