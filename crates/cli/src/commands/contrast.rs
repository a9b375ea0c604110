//! `knnshap contrast` — the LSH feasibility report.
//!
//! Estimates the K\*-th relative contrast C_K\* (Theorem 3), the complexity
//! exponent g(C_K\*) at the optimal projection width, and the index
//! parameters the paper's §6.1 recipe would pick — then renders the verdict
//! the paper's "Remarks" paragraph gives in prose: LSH pays off when the
//! error budget is moderate and the contrast is healthy (g < 1); otherwise
//! use the exact algorithm.

use crate::args::Args;
use crate::commands::{load_pair, parse_delta, parse_eps};
use crate::report::fmt_f64;
use crate::CliError;
use knnshap_core::lsh_approx::plan_index_params;
use knnshap_core::pipeline::PipelineError;
use knnshap_core::truncated::k_star;
use knnshap_datasets::{contrast, normalize};
use knnshap_lsh::theory;

const ALLOWED: &[&str] = &["train", "test", "k", "eps", "delta", "max-tables", "seed"];

pub fn run(args: &Args) -> Result<String, CliError> {
    args.expect_only(ALLOWED)?;
    let (mut train, mut test) = load_pair(args)?;
    let k = args.usize_or("k", 1)?;
    if k == 0 {
        return Err(CliError::Pipeline(PipelineError::ZeroK));
    }
    let eps = parse_eps(args)?;
    let delta = parse_delta(args)?;
    let seed = args.u64_or("seed", 17)?;
    let max_tables = args.usize_or("max-tables", 64)?;
    let ks = k_star(k, eps).min(train.len());

    // The theory assumes D_mean = 1; normalize a working copy.
    let factor = normalize::scale_to_unit_dmean(&mut train.x, 2000, seed);
    normalize::apply_scale(&mut test.x, factor);

    let est = contrast::estimate(
        &train.x,
        &test.x,
        ks,
        32.min(test.len()),
        128,
        seed.wrapping_add(1),
    );
    let (width, g) = theory::optimal_width(est.c_k, 0.5, 8.0, 40);
    let params = plan_index_params(train.len(), &est, k, eps, delta, 1.0, max_tables, seed);
    let cost = theory::query_cost_estimate(train.len(), g);

    let verdict = if g < 1.0 {
        format!(
            "SUBLINEAR: g(C_K*) = {} < 1 — LSH retrieval should beat the exact \
             O(N log N) scan as N grows (estimated candidate work ∝ N^g ≈ {}).",
            fmt_f64(g),
            fmt_f64(cost),
        )
    } else {
        format!(
            "NOT WORTH IT: g(C_K*) = {} ≥ 1 — the ε/K budget makes K* too deep \
             for this dataset's contrast; use the exact algorithm (paper §6.2 \
             Remarks).",
            fmt_f64(g),
        )
    };

    Ok(format!(
        "LSH feasibility report (N = {}, K = {k}, ε = {eps}, δ = {delta})\n\
         \n\
         K* = max(K, ⌈1/ε⌉)           : {ks}\n\
         D_mean (normalized)          : {}\n\
         D_K*                         : {}\n\
         relative contrast C_K*       : {}\n\
         optimal projection width r   : {}\n\
         complexity exponent g(C_K*)  : {}\n\
         planned projections m        : {}\n\
         planned tables l             : {}\n\
         \n\
         {verdict}\n",
        train.len(),
        fmt_f64(est.d_mean),
        fmt_f64(est.d_k),
        fmt_f64(est.c_k),
        fmt_f64(width),
        fmt_f64(g),
        params.projections,
        params.tables,
    ))
}

#[cfg(test)]
mod tests {
    use crate::commands::testutil::csv_pair;

    fn argv(t: &std::path::Path, q: &std::path::Path, extra: &[&str]) -> Vec<String> {
        let mut v = vec![
            "contrast".to_string(),
            "--train".into(),
            t.to_str().unwrap().into(),
            "--test".into(),
            q.to_str().unwrap().into(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    }

    #[test]
    fn report_contains_all_quantities() {
        let (t, q) = csv_pair("contrast-basic", 200, 20);
        let out = crate::run(argv(&t, &q, &["--k", "1", "--eps", "0.5"])).unwrap();
        assert!(out.contains("relative contrast C_K*"));
        assert!(out.contains("complexity exponent g(C_K*)"));
        assert!(out.contains("planned tables"));
        assert!(out.contains("SUBLINEAR") || out.contains("NOT WORTH IT"));
    }

    #[test]
    fn tight_eps_deepens_k_star() {
        let (t, q) = csv_pair("contrast-eps", 150, 15);
        let loose = crate::run(argv(&t, &q, &["--eps", "0.5"])).unwrap();
        let tight = crate::run(argv(&t, &q, &["--eps", "0.02"])).unwrap();
        assert!(loose.contains(": 2\n"), "K* = 2 for eps = 0.5:\n{loose}");
        assert!(tight.contains(": 50\n"), "K* = 50 for eps = 0.02:\n{tight}");
    }

    #[test]
    fn unknown_option_rejected() {
        let (t, q) = csv_pair("contrast-typo", 30, 5);
        let err = crate::run(argv(&t, &q, &["--epz", "0.5"])).unwrap_err();
        assert!(err.to_string().contains("unknown option"));
    }
}
