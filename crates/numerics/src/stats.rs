//! Descriptive statistics and correlation measures.
//!
//! The experiment harness reports the quantities the paper plots: means and
//! extrema of Shapley values per contributor pool (Fig. 15d), Pearson
//! correlation between valuations under different models (Figs. 14b, 15b, 16),
//! and rank (Spearman) correlation for the value-rank-preservation claim of
//! Theorem 2.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n−1 denominator); 0.0 for fewer than 2 samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Largest absolute componentwise difference `max_i |a_i − b_i|` — the error
/// metric in the paper's (ε, δ)-approximation definition (`‖ŝ − s‖_∞`).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff requires equal lengths");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Pearson product-moment correlation; 0.0 when either side is constant.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson requires equal lengths");
    if a.len() < 2 {
        return 0.0;
    }
    let (ma, mb) = (mean(a), mean(b));
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (x, y) in a.iter().zip(b) {
        let (u, v) = (x - ma, y - mb);
        num += u * v;
        da += u * u;
        db += v * v;
    }
    if da == 0.0 || db == 0.0 {
        return 0.0;
    }
    num / (da * db).sqrt()
}

/// Ranks with average tie-handling (1-based), as used by Spearman correlation.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| xs[i].partial_cmp(&xs[j]).expect("NaN in ranks"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // average rank for the tie group [i, j]
        let r = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = r;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    pearson(&ranks(a), &ranks(b))
}

/// `p`-th percentile (0–100) by linear interpolation on the sorted copy.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "p must be in [0, 100]");
    let mut s = xs.to_vec();
    s.sort_by(|x, y| x.partial_cmp(y).expect("NaN in percentile"));
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        s[lo]
    } else {
        let w = rank - lo as f64;
        s[lo] * (1.0 - w) + s[hi] * w
    }
}

/// `percentile(xs, 50.0)`, bit for bit, by selection instead of a full
/// sort: the sorted copy's two middle elements are the elements at those
/// ranks under (value, then index) — the order a stable sort leaves —
/// which also decides which of `-0.0` and `0.0` is picked.
fn median(xs: &[f64]) -> f64 {
    let order = |&i: &usize, &j: &usize| {
        xs[i]
            .partial_cmp(&xs[j])
            .expect("NaN in percentile")
            .then(i.cmp(&j))
    };
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    let rank = 0.5 * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let (_, &mut at_lo, above) = idx.select_nth_unstable_by(lo, order);
    if rank == lo as f64 {
        return xs[at_lo];
    }
    let at_hi = *above
        .iter()
        .min_by(|i, j| order(i, j))
        .expect("an element above");
    let w = rank - lo as f64;
    xs[at_lo] * (1.0 - w) + xs[at_hi] * w
}

/// Five-number-plus-moments summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "summary of empty slice");
        Self {
            n: xs.len(),
            mean: mean(xs),
            std_dev: std_dev(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(xs),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // population variance is 4; sample variance = 4 * 8/7
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_are_graceful() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    fn max_abs_diff_basic() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[5.0; 4]), 0.0); // constant side
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_on_monotone_nonlinear() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 8.0, 27.0, 64.0, 125.0]; // monotone => rank corr 1
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.median, 2.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }
}
