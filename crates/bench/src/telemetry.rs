//! Counter-snapshot plumbing for the benches (ISSUE 10): every `BENCH_*.json`
//! row carries the telemetry delta of the run it timed — permutations drawn
//! and pool utilization — next to the wall-clock numbers, and
//! `run_all` prints the battery-wide counter totals at the end.
//!
//! The benches enable metrics *programmatically* ([`enable`]) instead of via
//! `KNNSHAP_METRICS`, so the numbers are there whether or not the operator
//! exported anything. Counters are process-global and monotone; a
//! [`Probe`] brackets one timed region and reports the delta.

use knnshap_obs::metrics::MetricsSnapshot;

/// Turn the metrics fabric on for this process (idempotent). Call once at
/// the top of a bench `main`.
pub fn enable() {
    knnshap_obs::set_metrics(true);
}

/// Counter snapshot taken at the start of a timed region.
pub struct Probe {
    before: MetricsSnapshot,
}

/// The counter movement across one timed region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// Monte-Carlo permutations drawn (`mc.perms`).
    pub mc_perms: u64,
    /// Busy worker-microseconds inside parallel regions.
    pub busy_micros: u64,
    /// Capacity worker-microseconds (workers × wall) of those regions.
    pub capacity_micros: u64,
}

impl Probe {
    pub fn start() -> Self {
        Probe {
            before: knnshap_obs::metrics::snapshot(),
        }
    }

    pub fn finish(self) -> Delta {
        let after = knnshap_obs::metrics::snapshot();
        let d = |name: &str| {
            after
                .counter(name)
                .unwrap_or(0)
                .saturating_sub(self.before.counter(name).unwrap_or(0))
        };
        Delta {
            mc_perms: d("mc.perms"),
            busy_micros: d("pool.busy_micros"),
            capacity_micros: d("pool.capacity_micros"),
        }
    }
}

impl Delta {
    /// Fraction of the parallel regions' worker-time spent computing
    /// (1.0 = perfectly utilized; 0 when no region ran).
    pub fn pool_utilization(&self) -> f64 {
        if self.capacity_micros == 0 {
            0.0
        } else {
            self.busy_micros as f64 / self.capacity_micros as f64
        }
    }

    /// Telemetry JSON fields for one `BENCH_*.json` result row; starts with
    /// `, ` so it appends to an existing field list.
    pub fn json_fields(&self, secs: f64) -> String {
        format!(
            ", \"mc_perms\": {}, \"mc_perms_per_sec\": {:.3}, \"pool_utilization\": {:.4}",
            self.mc_perms,
            self.mc_perms as f64 / secs.max(1e-9),
            self.pool_utilization(),
        )
    }
}

/// The battery-wide counter section `run_all` appends to its summary: every
/// registered counter total, plus derived throughput/utilization lines.
pub fn summary_section(wall_secs: f64) -> String {
    let snap = knnshap_obs::metrics::snapshot();
    let mut out = String::from("## Telemetry counters\n");
    if snap.counters.is_empty() {
        out.push_str("- (no counters registered — metrics were off)\n");
        return out;
    }
    for (name, v) in &snap.counters {
        out.push_str(&format!("- {name}: {v}\n"));
    }
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let perms = c("mc.perms");
    if perms > 0 {
        out.push_str(&format!(
            "- derived mc.perms/s (battery wall clock): {:.1}\n",
            perms as f64 / wall_secs.max(1e-9)
        ));
    }
    let cap = c("pool.capacity_micros");
    if cap > 0 {
        out.push_str(&format!(
            "- derived pool utilization: {:.1}%\n",
            100.0 * c("pool.busy_micros") as f64 / cap as f64
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_counter_movement_and_utilization() {
        enable();
        let probe = Probe::start();
        // Drive a real parallel region so pool counters move.
        let sums = knnshap_parallel::par_map(64, 2, |i| i as u64);
        assert_eq!(sums.len(), 64);
        let delta = probe.finish();
        assert!(delta.capacity_micros >= delta.busy_micros);
        let u = delta.pool_utilization();
        assert!((0.0..=1.0).contains(&u), "{u}");
        let fields = delta.json_fields(0.5);
        assert!(fields.contains("\"pool_utilization\":"), "{fields}");
        // The fields must splice into a valid JSON object.
        let row = format!("{{ \"seconds\": 0.5{fields} }}");
        knnshap_obs::json::parse(&row).unwrap();
    }

    #[test]
    fn summary_section_lists_counters() {
        enable();
        knnshap_parallel::par_map(8, 2, |i| i);
        let s = summary_section(1.0);
        assert!(s.starts_with("## Telemetry counters"), "{s}");
        assert!(s.contains("pool."), "{s}");
    }
}
