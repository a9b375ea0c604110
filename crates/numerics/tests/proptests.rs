//! Property-based tests for the numerical substrate.

use knnshap_numerics::binom::{binomial_u128, Combinations, LogFactorialTable};
use knnshap_numerics::integrate::{adaptive_simpson, simpson};
use knnshap_numerics::roots::{bisect, brent};
use knnshap_numerics::special::{bennett_h, normal_cdf};
use knnshap_numerics::stats::{mean, percentile, ranks, spearman, variance, Summary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn log_binomial_symmetry(n in 1usize..300, kfrac in 0.0f64..1.0) {
        let k = ((n as f64) * kfrac) as usize;
        let t = LogFactorialTable::new(n);
        let a = t.ln_binomial(n, k);
        let b = t.ln_binomial(n, n - k);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn binomial_row_sums_to_2n(n in 0u64..30) {
        let total: u128 = (0..=n).map(|k| binomial_u128(n, k)).sum();
        prop_assert_eq!(total, 1u128 << n);
    }

    #[test]
    fn combinations_are_sorted_unique_and_complete(n in 0usize..9, k in 0usize..9) {
        let all = Combinations::new(n, k).collect_all();
        prop_assert_eq!(all.len() as u128, binomial_u128(n as u64, k as u64));
        for c in &all {
            prop_assert!(c.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(c.iter().all(|&x| x < n));
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn simpson_agrees_with_adaptive_on_smooth(a in -2.0f64..0.0, w in 0.1f64..3.0) {
        let b = a + w;
        let f = |x: f64| (x * 1.3).sin() + 0.5 * x * x;
        let fixed = simpson(f, a, b, 4000);
        let adaptive = adaptive_simpson(f, a, b, 1e-12);
        prop_assert!((fixed - adaptive).abs() < 1e-8);
    }

    #[test]
    fn bisect_and_brent_agree(c in -5.0f64..5.0) {
        // root of x^3 + x - c (strictly increasing => unique root)
        let f = |x: f64| x * x * x + x - c;
        let r1 = bisect(f, -10.0, 10.0, 1e-12, 300);
        let r2 = brent(f, -10.0, 10.0, 1e-12, 300);
        prop_assert!((r1 - r2).abs() < 1e-8);
        prop_assert!(f(r1).abs() < 1e-8);
    }

    #[test]
    fn normal_cdf_is_monotone_and_symmetric(x in -4.0f64..4.0, dx in 0.001f64..1.0) {
        prop_assert!(normal_cdf(x + dx) >= normal_cdf(x));
        prop_assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bennett_h_bounds(u in 0.0f64..50.0) {
        // u²/(2+u) ≤ h(u) ≤ u²/2 for u ≥ 0
        prop_assert!(bennett_h(u) + 1e-12 >= u * u / (2.0 + u));
        prop_assert!(bennett_h(u) <= u * u / 2.0 + 1e-12);
    }

    #[test]
    fn variance_is_translation_invariant(
        xs in prop::collection::vec(-100.0f64..100.0, 2..50),
        shift in -1000.0f64..1000.0,
    ) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((variance(&xs) - variance(&shifted)).abs() < 1e-6 * (1.0 + variance(&xs)));
        prop_assert!((mean(&shifted) - mean(&xs) - shift).abs() < 1e-8);
    }

    #[test]
    fn ranks_are_a_permutation_sum(xs in prop::collection::vec(-10.0f64..10.0, 1..40)) {
        let r = ranks(&xs);
        let n = xs.len() as f64;
        // tie-averaged ranks always sum to n(n+1)/2
        prop_assert!((r.iter().sum::<f64>() - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_invariant_under_monotone_transform(
        xs in prop::collection::vec(0.01f64..10.0, 3..30),
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x.ln()).collect(); // strictly monotone
        prop_assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_within_range(
        xs in prop::collection::vec(-50.0f64..50.0, 1..40),
        p in 0.0f64..100.0,
    ) {
        let v = percentile(&xs, p);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    /// `Summary::of` takes its median by selection; it must be the bits of
    /// the sort-based `percentile(xs, 50)`, also among ties and both zeros.
    #[test]
    fn summary_median_is_the_sorted_percentile(
        codes in prop::collection::vec(0u8..9, 1..60),
        noise in prop::collection::vec(-50.0f64..50.0, 60),
    ) {
        let palette = [-0.0, 0.0, 1.0, -1.0, 0.5, 3.0, -1e-300, 7.25];
        let xs: Vec<f64> = codes
            .iter()
            .zip(&noise)
            .map(|(&c, &v)| palette.get(c as usize).copied().unwrap_or(v))
            .collect();
        let median = Summary::of(&xs).median;
        prop_assert_eq!(median.to_bits(), percentile(&xs, 50.0).to_bits(), "{:?}", xs);
    }
}
