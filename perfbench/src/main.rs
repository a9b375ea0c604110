//! Operator-level benchmark of the `knnshap` CLI.
//!
//! ```text
//! perfbench --bin PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--scale full|tiny] [--corrupt]
//! perfbench --bin PATH --selftest
//! ```
//!
//! Untraced runs (`--trace 0`) drive the release binary the way an operator
//! does, CSV bytes in to CSV bytes out, for `--seconds`, and report the
//! end-to-end metrics. Traced runs (`--trace 1`) rebuild each workload's
//! output in-process from the public layer functions, timing every call, and
//! report the per-layer metrics. Every output is checked; any failure makes
//! the run exit non-zero. See `perfbench/README.md` for the metric table.

mod exact_csv;
mod inputs;
mod job_shards;
mod mc;
mod proc;
mod report;
mod selftest;
mod serve_churn;
mod stats;

use inputs::Inputs;
use report::Report;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const WORKLOADS: &[&str] = &["exact_csv", "serve_churn", "job_shards"];

/// Neighbors per prediction in every workload.
pub const K: usize = 5;

/// Timed iterations a run always completes, however short `--seconds` is.
const MIN_ITERS: usize = 3;

/// Set-up measurements on one-shot workloads: at least this many, and
/// more while `SETUP_SECONDS` have not passed.
pub const SETUP_REPS: usize = 5;
pub const SETUP_SECONDS: f64 = 3.0;

/// State of one benchmark run: where it works, what it counted, what it
/// measured.
pub struct Ctx {
    pub bin: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    pub nproc: usize,
    corrupt: bool,
    corrupted: bool,
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
    pub threads: Vec<(&'static str, usize)>,
    pub inputs: Vec<(&'static str, Inputs)>,
}

impl Ctx {
    /// Run one CLI command; a non-zero exit counts as a failed operation.
    pub fn cmd<S: AsRef<str>>(&mut self, args: &[S]) -> proc::Run {
        self.attempted += 1;
        let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
        let r = proc::run(&self.bin, &args, &self.work.join("stderr.log"));
        if !r.ok {
            self.failed += 1;
        }
        r
    }

    /// Record one correctness check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Count externally observed operations (serve requests).
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether the timed loop runs another iteration.
    pub fn again(&self, start: Instant, iters: usize) -> bool {
        iters < MIN_ITERS || start.elapsed().as_secs_f64() < self.seconds
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// The generated input set `name` of `n` points and `queries` queries.
    pub fn inputs(&mut self, name: &'static str, n: usize, queries: usize) -> Inputs {
        let inp = inputs::prepare(&self.work.join(name), self.seed, n, queries)
            .unwrap_or_else(|e| fail(&format!("cannot write inputs: {e}")));
        self.inputs.push((name, inp.clone()));
        inp
    }

    /// With `--corrupt`, damage the first output handed to this before it
    /// is checked: the self-test's proof that checks can fail.
    pub fn maybe_corrupt(&mut self, path: &Path) {
        if !self.corrupt || self.corrupted {
            return;
        }
        self.corrupted = true;
        if let Ok(mut bytes) = std::fs::read(path) {
            if let Some(b) = bytes.iter_mut().rev().find(|b| b.is_ascii_digit()) {
                *b = if *b == b'9' { b'8' } else { *b + 1 };
            }
            std::fs::write(path, bytes).ok();
        }
    }
}

pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

/// `knnshap value` on `inp` at `threads` threads, writing `out`, plus
/// `extra` flags.
pub fn value_cmd(inp: &Inputs, threads: usize, out: &Path, extra: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = vec![
        "value".into(),
        "--train".into(),
        inp.train.display().to_string(),
        "--test".into(),
        inp.test.display().to_string(),
        "--k".into(),
        K.to_string(),
        "--threads".into(),
        threads.to_string(),
        "--out".into(),
        out.display().to_string(),
    ];
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

/// Whether two files hold the same bytes (false if either is unreadable).
pub fn same_bytes(a: &Path, b: &Path) -> bool {
    match (std::fs::read(a), std::fs::read(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

/// The `shapley_value` column of a `value --out` CSV, parsed back to the
/// exact `f64`s the program printed (shortest round-trip formatting).
pub fn read_values(path: &Path) -> Vec<f64> {
    std::fs::read_to_string(path)
        .map(|s| {
            s.lines()
                .skip(1)
                .filter_map(|l| l.split(',').nth(2)?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Whether two vectors agree bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Time `f`, adding the elapsed seconds to `acc`.
pub fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

struct Opts {
    bin: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt: bool,
    selftest: bool,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        bin: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
        selftest: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--bin" => o.bin = PathBuf::from(val()),
            "--workload" => o.workload = val(),
            "--seed" => o.seed = val().parse().unwrap_or_else(|_| fail("bad --seed")),
            "--seconds" => o.seconds = val().parse().unwrap_or_else(|_| fail("bad --seconds")),
            "--trace" => o.trace = val() == "1",
            "--scale" => o.tiny = val() == "tiny",
            "--corrupt" => o.corrupt = true,
            "--selftest" => o.selftest = true,
            other => fail(&format!("unknown argument {other}")),
        }
    }
    if !o.bin.is_file() {
        fail("--bin must name the built knnshap binary");
    }
    o
}

fn main() {
    let o = parse_opts();
    if o.selftest {
        std::process::exit(selftest::run(&o.bin));
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        fail(&format!(
            "unknown --workload '{}' (one of {})",
            o.workload,
            WORKLOADS.join(", ")
        ));
    }
    let work = Path::new(".bench_work").join(&o.workload);
    std::fs::create_dir_all(&work)
        .unwrap_or_else(|e| fail(&format!("cannot create work dir: {e}")));
    std::fs::remove_file(work.join("stderr.log")).ok();
    let mut ctx = Ctx {
        bin: o.bin,
        work,
        seed: o.seed,
        seconds: o.seconds,
        tiny: o.tiny,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        corrupt: o.corrupt,
        corrupted: false,
        attempted: 0,
        failed: 0,
        report: Report::default(),
        threads: Vec::new(),
        inputs: Vec::new(),
    };
    match (o.workload.as_str(), o.trace) {
        ("exact_csv", false) => exact_csv::run(&mut ctx),
        ("exact_csv", true) => exact_csv::trace(&mut ctx),
        ("serve_churn", false) => serve_churn::run(&mut ctx),
        ("serve_churn", true) => serve_churn::trace(&mut ctx),
        ("job_shards", false) => job_shards::run(&mut ctx),
        _ => job_shards::trace(&mut ctx),
    }
    let frac = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    ctx.report.detail("failed_frac", frac, "ratio");
    let host = report::Host {
        seed: ctx.seed,
        nproc: ctx.nproc,
        threads: &ctx.threads,
        inputs: &ctx.inputs,
    };
    println!(
        "{}",
        report::detail_line(&o.workload, o.trace, &host, &ctx.report)
    );
    println!(
        "{}",
        report::result_line(&ctx.report, o.trace, ctx.attempted, ctx.failed)
    );
    if ctx.failed > 0 {
        std::process::exit(1);
    }
}
