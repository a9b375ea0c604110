//! Experiment harness for the `knnshap` workspace.
//!
//! One module per table/figure of the paper's evaluation (§6 + Appendix A);
//! every module exposes `run(scale) -> String` producing the same rows/series
//! the paper reports, plus a paper-vs-measured comparison line. The thin
//! binaries in `src/bin/` wrap these, and `run_all` executes the whole
//! battery. `EXPERIMENTS.md` at the workspace root records the outcomes.
//!
//! Scales:
//! * `smoke` — seconds; CI-sized sanity check of every experiment.
//! * `small` — minutes on a laptop; all trends visible (default).
//! * `paper` — the paper's dataset sizes (up to 10⁷ points); hours.
//!
//! Beyond the figure regenerators, scaling benches emit machine-readable
//! artifacts at the workspace root for CI to archive — among them
//! `bench_mc_scaling` (`BENCH_mc.json`, one MC run whose permutation budget
//! is fanned across the pool; each timing asserts the bitwise
//! thread-count-invariance contract first).

pub mod experiments;
pub mod telemetry;
pub mod util;

/// A named experiment regenerator: `(name, run)` as dispatched by `run_all`
/// and the smoke-battery test.
pub type Experiment = (&'static str, fn(Scale) -> String);

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Smoke,
    Small,
    Paper,
}

impl Scale {
    /// Parse from the first CLI argument or the `KNNSHAP_SCALE` env var;
    /// defaults to `Small`.
    pub fn from_env_or_args() -> Self {
        Self::from_token(
            std::env::args()
                .nth(1)
                .or_else(|| std::env::var("KNNSHAP_SCALE").ok())
                .as_deref(),
        )
    }

    /// Parse a scale token (`None` ⇒ default `Small`); unknown tokens warn
    /// and fall back. Shared by the single-scale bins and `run_all`'s own
    /// argument parser (which has flags beyond the scale).
    pub fn from_token(token: Option<&str>) -> Self {
        match token {
            Some("smoke") => Scale::Smoke,
            Some("paper") => Scale::Paper,
            Some("small") | None => Scale::Small,
            Some(other) => {
                eprintln!("unknown scale '{other}', using 'small' (options: smoke|small|paper)");
                Scale::Small
            }
        }
    }

    /// The canonical token for this scale (what `run_all` passes to its
    /// fanned-out children).
    pub fn token(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Pick one of three values by scale.
    pub fn pick<T: Copy>(self, smoke: T, small: T, paper: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Small => small,
            Scale::Paper => paper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    /// Every experiment must complete at smoke scale and emit its markdown
    /// header plus a paper-vs-measured comparison — the CI-sized sanity pass
    /// over the whole battery.
    #[test]
    fn smoke_battery_produces_reports() {
        // Keep this list in sync with run_all.
        let experiments: Vec<Experiment> = vec![
            ("tab_complexity", experiments::tab_complexity::run),
            ("fig09_lsh_contrast", experiments::fig09_lsh_contrast::run),
            ("fig10_lsh_theory", experiments::fig10_lsh_theory::run),
            ("fig11_permutations", experiments::fig11_permutations::run),
            ("fig13_curator", experiments::fig13_curator::run),
            ("fig15_composite", experiments::fig15_composite::run),
        ];
        for (name, f) in experiments {
            let report = f(Scale::Smoke);
            assert!(report.starts_with("##"), "{name}: missing header");
            assert!(report.contains("Measured:"), "{name}: missing comparison");
        }
    }
}
