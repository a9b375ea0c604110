//! Loader tests: round trips through files, and a differential battery
//! that holds the windowed parallel scanner to the line-at-a-time loader
//! it replaced.

use super::*;
use crate::synth::blobs::{self, BlobConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::BufRead;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("knnshap-io-test-{}-{name}", std::process::id()));
    p
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
fn csv_rejects_the_largest_label_naming_the_line() {
    let path = tmp("max-label.csv");
    std::fs::write(&path, "1.0,2.0,4294967295\n3.0,4.0,1\n").unwrap();
    let err = load_class_csv(&path).unwrap_err();
    assert!(matches!(err, IoError::Format(_)), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains("line 1") && msg.contains("4294967295"),
        "{msg}"
    );
    // One below is the largest label with a representable class count.
    std::fs::write(&path, "1.0,2.0,4294967294\n").unwrap();
    assert_eq!(load_class_csv(&path).unwrap().n_classes, u32::MAX);
    std::fs::remove_file(&path).ok();
}

#[test]
fn path_loaders_agree_across_thread_counts() {
    let d = blobs::generate(&BlobConfig {
        n: 3000,
        dim: 7,
        n_classes: 4,
        ..Default::default()
    });
    let path = tmp("threads.csv");
    save_class_csv(&path, &d).unwrap();
    for threads in [1, 2, 3, 8] {
        let back = load_class_csv_with_threads(&path, threads).unwrap();
        assert_eq!((&back.x, &back.y), (&d.x, &d.y), "threads = {threads}");
        let reg = load_reg_csv_with_threads(&path, threads).unwrap();
        assert_eq!(reg.x, d.x, "threads = {threads}");
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Differential battery: windowed parallel scanner vs. the line-at-a-time
// loader.
// ---------------------------------------------------------------------------

/// The line-at-a-time loader the windowed scanner replaced: one `String`
/// per line, `str::trim` and `str::parse` per cell. Kept as the oracle.
fn oracle_rows<T>(
    r: impl BufRead,
    what: &str,
    last: fn(&str) -> Result<T, String>,
) -> Result<(Features, Vec<T>), IoError> {
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

/// What a loader call must reproduce: dim, feature bits and final-column
/// bits (plus `n_classes` for classification) — or the error's variant and
/// `Display` text.
type Key = Result<(usize, Vec<u32>, Vec<u64>, u32), String>;

fn err_key(e: IoError) -> String {
    let variant = match e {
        IoError::Io(_) => "Io",
        IoError::Format(_) => "Format",
    };
    format!("{variant}: {e}")
}

fn feature_bits(x: &Features) -> Vec<u32> {
    x.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn class_key(r: Result<ClassDataset, IoError>) -> Key {
    r.map(|d| {
        let y = d.y.iter().map(|&l| u64::from(l)).collect();
        (d.dim(), feature_bits(&d.x), y, d.n_classes)
    })
    .map_err(err_key)
}

fn reg_key(r: Result<RegDataset, IoError>) -> Key {
    r.map(|d| {
        let y = d.y.iter().map(|v| v.to_bits()).collect();
        (d.dim(), feature_bits(&d.x), y, 0)
    })
    .map_err(err_key)
}

/// Windows that put most lines across a window edge, plus the real one.
const WINDOWS: [usize; 4] = [1, 13, 256, WINDOW];

/// Both loaders over `text` at every thread count and window size must
/// return exactly what the oracle returns.
fn check(text: &[u8]) -> Result<(), TestCaseError> {
    let want_class = class_key(oracle_rows(text, "label", label).map(|(x, y)| class_dataset(x, y)));
    let want_reg = reg_key(oracle_rows(text, "target", target).map(|(x, y)| RegDataset::new(x, y)));
    for threads in [1, 2, 3, 8] {
        for window in WINDOWS {
            let got = class_key(read_class(text, threads, window));
            prop_assert_eq!(
                &got,
                &want_class,
                "class, threads {}, window {}, text {:?}",
                threads,
                window,
                String::from_utf8_lossy(text)
            );
            let got = reg_key(read_reg(text, threads, window));
            prop_assert_eq!(
                &got,
                &want_reg,
                "reg, threads {}, window {}, text {:?}",
                threads,
                window,
                String::from_utf8_lossy(text)
            );
        }
    }
    Ok(())
}

fn assert_matches_oracle(text: &[u8]) {
    check(text).unwrap();
}

#[test]
fn empty_and_comment_only_files() {
    for text in [
        "",
        "\n",
        "\r\n\r\n",
        "# only a comment",
        "# a\n\n  # b\n\t\n",
        "   ",
    ] {
        assert_matches_oracle(text.as_bytes());
    }
}

#[test]
fn comments_blank_lines_crlf_and_padding() {
    assert_matches_oracle(b"# h,1,2\n1.0,2.0,0\r\n\r\n \t3.5 ,\t-4e2,1\n   # x\n5,6,2");
    assert_matches_oracle(b"1,2,0\r\n3,4,1\r\n");
    assert_matches_oracle(b"1,2,0\n3,4,1\r");
    // Unicode whitespace is trimmed exactly as `str::trim` trims it.
    assert_matches_oracle("\u{a0}1,\u{3000}2\u{2009},0\u{85}\n3,4,1".as_bytes());
    assert_matches_oracle("1,2\u{a0}x,0\n".as_bytes());
}

#[test]
fn lines_longer_than_the_window_and_no_trailing_newline() {
    let long = format!("# {}\n1,2,0\n{}3,4,1", "c,".repeat(3000), " ".repeat(5000));
    assert_matches_oracle(long.as_bytes());
    assert_matches_oracle(b"1.5,2.5,3");
    assert_matches_oracle(b"1.5,2.5");
}

#[test]
fn bad_cells_of_every_kind() {
    for row in [
        "abc,1,0",
        "1.2.3,1,0",
        ",1,0",
        "1e,1,0",
        "0x1,1,0",
        "NaN,1,0",
        "inf,1,0",
        "-inf,1,0",
        "1e39,1,0",
        "-1e39,1,0",
        "infinity,1,0",
        "1,2,x",
        "1,2,-1",
        "1,2,1.5",
        "1,2,",
        "1,2,99999999999",
        "5",
        "1,2,3,0",
        "1,0",
    ] {
        assert_matches_oracle(format!("1,2,0\n# c\n{row}\n3,4,1\n").as_bytes());
    }
}

#[test]
fn invalid_utf8_before_and_after_a_format_error() {
    // A format error first: it wins over the later undecodable line.
    assert_matches_oracle(b"1,2,0\n1,x,0\n1,\xff,0\n");
    assert_matches_oracle(b"1,2,0\n1,0\n# \xe2\x82\n");
    // The undecodable line first, even inside a comment.
    assert_matches_oracle(b"1,2,0\n# \xff\n1,x,0\n");
    assert_matches_oracle(b"\xff\n1,2,0\n");
    assert_matches_oracle(b"1,2,0\n3,4,1\xe2\x82");
}

#[test]
fn ragged_row_on_a_part_boundary() {
    // Place a ragged row exactly at the start of the second part for each
    // thread count, with an error later in the file that must not win.
    for threads in [2, 3, 8] {
        let rows: Vec<String> = (0..64).map(|i| format!("{i}.25,{i},{}", i % 3)).collect();
        let text = rows.join("\n") + "\n";
        let mut parts: Vec<Part<u32>> = (0..threads).map(|_| Part::default()).collect();
        split_at_lines(text.as_bytes(), &mut parts);
        let boundary = parts[1].range.start;
        assert!(boundary > 0 && text.as_bytes()[boundary - 1] == b'\n');
        let at = text[..boundary].matches('\n').count();
        let mut rows = rows;
        rows[at] = "9,9,9,9".into();
        rows[at + 5] = "oops,1,0".into();
        let text = rows.join("\n") + "\n";
        let err = read_class(text.as_bytes(), threads, WINDOW).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "format error: line {}: 3 features but earlier rows had 2",
                at + 1
            )
        );
        assert_matches_oracle(text.as_bytes());
    }
}

#[test]
fn first_bad_line_in_file_order_wins_across_parts() {
    let mut rows: Vec<String> = (0..200).map(|i| format!("{i},{i},0")).collect();
    rows[150] = "1,1".into();
    rows[40] = "bad,1,0".into();
    rows[120] = "1,\u{ff}\u{fe},0".into();
    assert_matches_oracle((rows.join("\n") + "\n").as_bytes());
    rows[10] = String::from("1,1,q");
    let mut text = (rows.join("\n") + "\n").into_bytes();
    text.extend_from_slice(b"\xff\n");
    assert_matches_oracle(&text);
}

/// One generated cell: a feature in one of the notations users write.
fn feature(rng: &mut StdRng) -> String {
    let v = f32::from_bits(rng.gen::<u32>());
    let v = if v.is_finite() {
        v
    } else {
        rng.gen_range(-10.0f32..10.0)
    };
    let small = rng.gen_range(-1000.0f32..1000.0);
    match rng.gen_range(0u8..7) {
        0 => format!("{v}"),
        1 => format!("{v:e}"),
        2 => format!("{small:.3}"),
        3 => format!("{}", rng.gen_range(-50i32..50)),
        4 => format!("+{:.1}", small.abs()),
        5 => ["0", "-0", "0.0", "-0.0", ".5", "5.", "1E3"][rng.gen_range(0usize..7)].into(),
        _ => format!("{small}"),
    }
}

/// A random CSV: rows of `dim` features and a small label, then a few
/// mutations from the dialect's edge cases and its error cases.
fn generated_csv(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = rng.gen_range(1usize..5);
    let n = rng.gen_range(0usize..30);
    let mut lines: Vec<Vec<u8>> = (0..n)
        .map(|_| {
            let mut cells: Vec<String> = (0..dim).map(|_| feature(&mut rng)).collect();
            cells.push(rng.gen_range(0u32..4).to_string());
            cells.join(",").into_bytes()
        })
        .collect();
    let pick = |rng: &mut StdRng, len: usize| rng.gen_range(0..len.max(1));
    for _ in 0..rng.gen_range(0usize..5) {
        let at = pick(&mut rng, lines.len());
        let line = lines.get(at).cloned().unwrap_or_default();
        let cells: Vec<&[u8]> = line.split(|&b| b == b',').collect();
        let replace_cell = |rng: &mut StdRng, with: &[u8]| -> Vec<u8> {
            let c = rng.gen_range(0..cells.len());
            let mut out = cells.clone();
            out[c] = with;
            out.join(&b","[..])
        };
        let new: Vec<u8> = match rng.gen_range(0u8..13) {
            0 => {
                let c: &[u8] =
                    [&b"# comment"[..], b"#1,2,3", b"  # padded", b"#"][rng.gen_range(0usize..4)];
                lines.insert(at.min(lines.len()), c.to_vec());
                continue;
            }
            1 => {
                let c: &[u8] = [&b""[..], b"   ", b"\t", b"\r"][rng.gen_range(0usize..4)];
                lines.insert(at.min(lines.len()), c.to_vec());
                continue;
            }
            2 => [line.as_slice(), b"\r"].concat(),
            3 => {
                let pad: &[u8] =
                    [&b" "[..], b"\t", b"  \t ", "\u{a0}".as_bytes()][rng.gen_range(0usize..4)];
                cells
                    .iter()
                    .map(|c| [pad, c, pad].concat())
                    .collect::<Vec<_>>()
                    .join(&b","[..])
            }
            4 => {
                let bad: &[u8] =
                    [&b"abc"[..], b"1.2.3", b"", b"1e", b"0x1", b"1_0"][rng.gen_range(0usize..6)];
                replace_cell(&mut rng, bad)
            }
            5 => {
                let bad: &[u8] =
                    [&b"NaN"[..], b"inf", b"-inf", b"1e39", b"infinity"][rng.gen_range(0usize..5)];
                replace_cell(&mut rng, bad)
            }
            6 => {
                let bad: &[u8] =
                    [&b"x"[..], b"-1", b"1.5", b"", b"99999999999"][rng.gen_range(0usize..5)];
                let mut out = cells.clone();
                *out.last_mut().unwrap() = bad;
                out.join(&b","[..])
            }
            7 => cells[..cells.len() - 1].join(&b","[..]),
            8 => [line.as_slice(), b",1"].concat(),
            9 => {
                let bad: &[u8] = [&b"\xff"[..], b"\xe2\x82", b"\xc3"][rng.gen_range(0usize..3)];
                let mut out = line.clone();
                let i = rng.gen_range(0..=out.len());
                out.splice(i..i, bad.iter().copied());
                out
            }
            10 => [&b"# "[..], &vec![b'x'; rng.gen_range(100usize..3000)]].concat(),
            11 => [vec![b' '; rng.gen_range(100usize..3000)], line.clone()].concat(),
            _ => b"7".to_vec(),
        };
        if at < lines.len() {
            lines[at] = new;
        } else {
            lines.push(new);
        }
    }
    let mut text = lines.join(&b"\n"[..]);
    if !text.is_empty() && rng.gen_bool(0.7) {
        text.push(b'\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated and mutated CSV text parses exactly as the oracle parses
    /// it, at every thread count and window size.
    #[test]
    fn windowed_scanner_matches_the_line_loader(seed in any::<u64>()) {
        check(&generated_csv(seed))?;
    }
}
