//! Shared measurement and reporting helpers.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Time a closure, returning its output and the wall-clock duration.
pub fn time_it<T, F: FnOnce() -> T>(f: F) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Seconds as a compact human string.
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// The `host` block of a committed `BENCH_*.json`: worker count, CPU model
/// (from `/proc/cpuinfo`, "unknown" elsewhere) and the commit measured
/// (see `git_rev`).
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rev = git_rev();
    format!(
        "{{ \"nproc\": {nproc}, \"cpu\": \"{}\", \"git_rev\": \"{}\" }}",
        knnshap_obs::json::escape(&cpu),
        knnshap_obs::json::escape(&rev)
    )
}

/// The commit a measurement ran on: `HEAD`'s hash, with a `-dirty`
/// suffix when tracked files differ from it (an artifact regenerated before
/// its change is committed was not measured on `HEAD`), or "none" outside a
/// git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(head) = git(&["rev-parse", "HEAD"]) else {
        return "none".into();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if changes.is_empty() => head,
        _ => format!("{head}-dirty"),
    }
}

/// A minimal markdown table builder for experiment reports.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(out, " {c:<w$} |");
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{:-<1$}|", "", w + 2);
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        let _ = ncols;
        out
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the measured scaling
/// exponent used by the complexity table.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points");
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let mx = lx.iter().sum::<f64>() / lx.len() as f64;
    let my = ly.iter().sum::<f64>() / ly.len() as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in lx.iter().zip(&ly) {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| name   | value |"));
        assert!(s.contains("| longer | 2     |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn host_json_stamps_a_full_rev_marked_dirty_or_none() {
        let json = host_json();
        let rev = json
            .split_once("\"git_rev\": \"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(rev, _)| rev)
            .unwrap_or_else(|| panic!("no git_rev in {json}"));
        // ^([0-9a-f]{40}(-dirty)?|none)$
        let hash = rev.strip_suffix("-dirty").unwrap_or(rev);
        let full_hash =
            hash.len() == 40 && hash.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        assert!(rev == "none" || full_hash, "git_rev {rev:?}");
    }

    #[test]
    fn loglog_slope_recovers_power() {
        let xs: Vec<f64> = (1..=6).map(|i| (i * 1000) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(1.5)).collect();
        assert!((loglog_slope(&xs, &ys) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(Duration::from_micros(5)).ends_with("µs"));
        assert!(fmt_secs(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_secs(Duration::from_secs(5)).ends_with('s'));
    }
}
