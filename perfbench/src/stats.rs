//! Order statistics over timing samples.

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail of a latency sample: the highest of the candidate percentiles
/// with at least ten samples beyond it. Returns `(percentile, value)`;
/// with fewer than 20 samples no tail exists and the maximum is reported
/// as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    const CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = xs.len() as f64;
    for p in CANDIDATES {
        if n * (1.0 - p / 100.0) >= 10.0 {
            return (p, percentile(xs, p));
        }
    }
    (100.0, xs.iter().copied().fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), (95.0, 190.0));
        assert_eq!(tail(&xs[..15]).0, 100.0);
    }
}
