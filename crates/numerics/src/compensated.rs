//! Compensated (Neumaier/Kahan) floating-point summation.
//!
//! The parallel Monte Carlo runtime accumulates millions of marginal
//! contributions whose magnitudes differ wildly (most are exactly zero, the
//! rest are `O(1/K)`), and its determinism contract requires the accumulated
//! Shapley vector to be a pure function of the summand sequence — never of
//! the thread count. [`NeumaierSum`] provides the per-term accumulator and
//! [`CompensatedVec`] the per-point vector of them; both carry an explicit
//! [`merge`](NeumaierSum::merge) so blocked folds with a fixed block
//! partition and a fixed reduction order stay bitwise reproducible while
//! losing far less precision than a naive `f64` chain.
//!
//! ```
//! use knnshap_numerics::compensated::NeumaierSum;
//!
//! // The classic cancellation case a naive sum gets wrong: 1.0 + 1e100 − 1e100.
//! let mut s = NeumaierSum::new();
//! for x in [1.0, 1e100, 1.0, -1e100] {
//!     s.add(x);
//! }
//! assert_eq!(s.value(), 2.0);
//! ```

/// Neumaier's improved Kahan–Babuška summation: a running `sum` plus a
/// `compensation` term capturing the low-order bits the running sum dropped.
///
/// Unlike classic Kahan, the compensation update also handles the case where
/// the incoming term is larger than the running sum, so the accumulator is
/// robust to the first term being tiny (exactly what happens when the first
/// permutations of an MC run contribute zero marginals).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeumaierSum {
    sum: f64,
    comp: f64,
}

impl NeumaierSum {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one term into the sum.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }

    /// Fold another accumulator into this one (deterministic: folds `other`'s
    /// running sum, then its compensation). Used as the block-order reduction
    /// step of the parallel MC runtime.
    #[inline]
    pub fn merge(&mut self, other: &NeumaierSum) {
        self.add(other.sum);
        self.add(other.comp);
    }
}

/// A vector of [`NeumaierSum`] accumulators — one per training point.
#[derive(Debug, Clone)]
pub struct CompensatedVec {
    terms: Vec<NeumaierSum>,
}

impl CompensatedVec {
    /// `n` zeroed accumulators.
    pub fn zeros(n: usize) -> Self {
        Self {
            terms: vec![NeumaierSum::default(); n],
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Fold `x` into accumulator `i`.
    #[inline]
    pub fn add(&mut self, i: usize, x: f64) {
        self.terms[i].add(x);
    }

    /// Compensated total of accumulator `i`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        self.terms[i].value()
    }

    /// Element-wise [`NeumaierSum::merge`]. Panics on length mismatch.
    pub fn merge(&mut self, other: &CompensatedVec) {
        assert_eq!(self.len(), other.len(), "length mismatch");
        for (a, b) in self.terms.iter_mut().zip(&other.terms) {
            a.merge(b);
        }
    }

    /// Materialize the compensated totals.
    pub fn values(&self) -> Vec<f64> {
        self.terms.iter().map(NeumaierSum::value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_cancellation_naive_sum_loses() {
        let xs = [1.0, 1e100, 1.0, -1e100];
        let naive: f64 = xs.iter().sum();
        assert_ne!(naive, 2.0, "naive sum should lose the small terms");
        let mut s = NeumaierSum::new();
        for &x in &xs {
            s.add(x);
        }
        assert_eq!(s.value(), 2.0);
    }

    #[test]
    fn many_small_terms_stay_tight() {
        // 10^7 × 0.1 accumulates visible drift naively; compensated stays at
        // machine precision of the true value.
        let mut s = NeumaierSum::new();
        let mut naive = 0.0f64;
        for _ in 0..10_000_000 {
            s.add(0.1);
            naive += 0.1;
        }
        let truth = 1_000_000.0;
        assert!((s.value() - truth).abs() < 1e-7, "comp {}", s.value());
        assert!((s.value() - truth).abs() <= (naive - truth).abs());
    }

    #[test]
    fn merge_is_deterministic_and_accurate() {
        // Blocked merge must give the same bits every time, and stay close to
        // the sequential compensated sum.
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 1e-3).collect();
        let mut seq = NeumaierSum::new();
        for &x in &xs {
            seq.add(x);
        }
        let blocked = |chunk: usize| -> f64 {
            let mut total = NeumaierSum::new();
            for block in xs.chunks(chunk) {
                let mut acc = NeumaierSum::new();
                for &x in block {
                    acc.add(x);
                }
                total.merge(&acc);
            }
            total.value()
        };
        assert_eq!(blocked(128).to_bits(), blocked(128).to_bits());
        assert!((blocked(128) - seq.value()).abs() < 1e-9);
    }

    #[test]
    fn vec_merge_matches_per_index_merge() {
        let mut a = CompensatedVec::zeros(3);
        let mut b = CompensatedVec::zeros(3);
        a.add(0, 1.0);
        a.add(2, 1e16);
        b.add(0, 2.0);
        b.add(2, 1.0);
        b.add(2, -1e16);
        a.merge(&b);
        assert_eq!(a.value(0), 3.0);
        assert_eq!(a.value(1), 0.0);
        assert_eq!(a.value(2), 1.0);
        assert_eq!(a.values(), vec![3.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn vec_merge_rejects_length_mismatch() {
        let mut a = CompensatedVec::zeros(2);
        a.merge(&CompensatedVec::zeros(3));
    }
}
