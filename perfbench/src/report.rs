//! Metric names, units, and the result lines the benchmark prints.

use crate::inputs::Inputs;
use knnshap_obs::json::{escape, fmt_f64};
use std::collections::BTreeMap;

/// End-to-end metrics (printed with `--trace 0`), measured from outside
/// the program with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("wall_1t_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`). A layer a workload does
/// not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.io.parse_s", "s"),
    ("datasets.io.parse_mb_per_s", "MB/s"),
    ("knn.distance_s", "s"),
    ("knn.distance_pairs", "count"),
    ("knn.distance_gb_computed", "GB"),
    ("knn.rank_s", "s"),
    ("knn.rank_mitems_per_s", "Mitems/s"),
    ("core.exact.recurse_s", "s"),
    ("numerics.exact.fold_s", "s"),
    ("numerics.exact.merge_s", "s"),
    ("core.finalize_s", "s"),
    ("parallel.pool.utilization", "ratio"),
    ("parallel.pool.steals", "count"),
    ("parallel.pool.blocks", "count"),
    ("core.mc.dist_matrix_s", "s"),
    ("core.mc.perms_s", "s"),
    ("core.mc.perms_per_s", "1/s"),
    ("core.mc.perms", "count"),
    ("core.mc.rounds", "count"),
    ("core.resident.seed_s", "s"),
    ("core.resident.apply_ms", "ms"),
    ("core.resident.values_ms", "ms"),
    ("core.resident.whatif_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.batch_mean", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.whatif_cache_hit_ratio", "ratio"),
    ("serve.whatif_cache_hits", "count"),
    ("serve.whatif_cache_lookups", "count"),
    ("serve.server_latency_mean_us", "us"),
    ("serve.wire_overhead_ms", "ms"),
    ("runtime.plan_s", "s"),
    ("runtime.worker_spawns", "count"),
    ("runtime.chunks", "count"),
    ("runtime.worker_busy_s", "s"),
    ("runtime.overhead_s", "s"),
    ("core.sharding.shard_bytes", "bytes"),
    ("core.sharding.compute_s", "s"),
    ("core.sharding.merge_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// What one run measured: the contract metrics plus workload-specific
/// detail (latency percentiles, failure fraction, sample counts).
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    pub detail: Vec<(String, f64, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &str) {
        self.detail
            .push((name.to_string(), value, unit.to_string()));
    }
}

fn metric_obj(entries: impl Iterator<Item = (String, f64, String)>) -> String {
    let body: Vec<String> = entries
        .map(|(n, v, u)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&n),
                fmt_f64(v),
                escape(&u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last stdout line: exactly `correct`, `attempted`, `failed` and the
/// metric set of the mode (every end-to-end metric untraced, every
/// per-layer metric traced).
pub fn result_line(report: &Report, trace: bool, attempted: u64, failed: u64) -> String {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let entries = names.iter().map(|(n, u)| {
        let v = match report.metrics.get(n) {
            Some(v) => *v,
            None if trace => 0.0,
            None => panic!("end-to-end metric {n} was not measured"),
        };
        (n.to_string(), v, u.to_string())
    });
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metric_obj(entries)
    )
}

/// The `host` block: which machine, code and inputs produced a result.
pub struct Host<'a> {
    pub seed: u64,
    pub nproc: usize,
    pub threads: &'a [(&'static str, usize)],
    pub inputs: &'a [(&'static str, Inputs)],
}

/// The line printed before the result: workload, host block and detail
/// metrics.
pub fn detail_line(workload: &str, trace: bool, host: &Host, report: &Report) -> String {
    let threads: Vec<String> = host
        .threads
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let inputs: Vec<String> = host
        .inputs
        .iter()
        .map(|(k, i)| {
            format!(
                "{{\"name\": \"{k}\", \"n\": {}, \"d\": {}, \"queries\": {}, \
                 \"train_csv_bytes\": {}, \"test_csv_bytes\": {}}}",
                i.n, i.dim, i.queries, i.train_bytes, i.test_bytes
            )
        })
        .collect();
    let host_json = format!(
        "{{\"nproc\": {}, \"threads\": {{{}}}, \"git_rev\": \"{}\", \
         \"cpu_model\": \"{}\", \"inputs\": [{}], \"seed\": {}}}",
        host.nproc,
        threads.join(", "),
        escape(&git_rev()),
        escape(&cpu_model()),
        inputs.join(", "),
        host.seed
    );
    format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"host\": {}, \"detail\": {}}}",
        escape(workload),
        u8::from(trace),
        host_json,
        metric_obj(report.detail.iter().cloned())
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory (`git rev-parse HEAD`,
/// confined to `./.git`); "none" outside a git checkout or without git.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}
