//! Shapley value containers.

use std::cmp::Ordering;

/// Shapley values of the `N` training points (or `M` sellers), in
/// training-set order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShapleyValues {
    values: Vec<f64>,
}

impl ShapleyValues {
    pub fn new(values: Vec<f64>) -> Self {
        Self { values }
    }

    pub fn zeros(n: usize) -> Self {
        Self {
            values: vec![0.0; n],
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    pub fn into_vec(self) -> Vec<f64> {
        self.values
    }

    /// Total value — equals `ν(I) − ν(∅)` for any true Shapley vector
    /// (the group-rationality/efficiency axiom).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// In-place `self += other` (used to accumulate per-test-point values;
    /// the additivity axiom justifies summing per-test games).
    pub fn add_assign(&mut self, other: &ShapleyValues) {
        assert_eq!(self.len(), other.len(), "length mismatch");
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
    }

    /// In-place scaling (averaging over `N_test` per-test games).
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Indices sorted by descending value (rank 0 = most valuable point).
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by(|&i, &j| self.rank_order(i, j));
        idx
    }

    /// The `k` most valuable indices: the first `k` of [`Self::ranking`].
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        self.first_k(k, |i, j| self.rank_order(i, j))
    }

    /// The `k` least valuable indices (most suspicious under the paper's
    /// noisy-data / poisoning interpretation, §7): the last `k` of
    /// [`Self::ranking`], least valuable first.
    pub fn bottom_k(&self, k: usize) -> Vec<usize> {
        self.first_k(k, |i, j| self.rank_order(j, i))
    }

    /// The ranking's total order: descending value, then ascending index.
    fn rank_order(&self, i: usize, j: usize) -> Ordering {
        self.values[j]
            .partial_cmp(&self.values[i])
            .expect("NaN Shapley value")
            .then(i.cmp(&j))
    }

    /// The `k` first indices under the total order `cmp`, in that order:
    /// one pass that keeps the first `k` seen so far in a heap whose root
    /// is the last of them under `cmp`, then a sort of only those — no
    /// index of every point.
    fn first_k(&self, k: usize, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<usize> {
        let k = k.min(self.len());
        let mut heap: Vec<usize> = Vec::with_capacity(k);
        for i in 0..self.len() {
            if heap.len() < k {
                heap.push(i);
                let mut c = heap.len() - 1;
                while c > 0 && cmp(heap[(c - 1) / 2], heap[c]) == Ordering::Less {
                    heap.swap(c, (c - 1) / 2);
                    c = (c - 1) / 2;
                }
            } else if k > 0 && cmp(i, heap[0]) == Ordering::Less {
                heap[0] = i;
                let mut p = 0;
                loop {
                    let last =
                        [2 * p + 1, 2 * p + 2]
                            .into_iter()
                            .filter(|&c| c < k)
                            .fold(p, |a, c| {
                                if cmp(heap[a], heap[c]) == Ordering::Less {
                                    c
                                } else {
                                    a
                                }
                            });
                    if last == p {
                        break;
                    }
                    heap.swap(p, last);
                    p = last;
                }
            }
        }
        heap.sort_unstable_by(|&i, &j| cmp(i, j));
        heap
    }

    /// `‖self − other‖_∞`, the error metric of (ε, δ)-approximation.
    pub fn max_abs_diff(&self, other: &ShapleyValues) -> f64 {
        knnshap_numerics::stats::max_abs_diff(&self.values, &other.values)
    }
}

impl From<Vec<f64>> for ShapleyValues {
    fn from(values: Vec<f64>) -> Self {
        Self::new(values)
    }
}

impl std::ops::Index<usize> for ShapleyValues {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_and_indexing() {
        let sv = ShapleyValues::new(vec![0.1, -0.2, 0.4]);
        assert!((sv.total() - 0.3).abs() < 1e-12);
        assert_eq!(sv[2], 0.4);
        assert_eq!(sv.len(), 3);
    }

    #[test]
    fn ranking_descending_with_tiebreak() {
        let sv = ShapleyValues::new(vec![0.5, 0.9, 0.5, -1.0]);
        assert_eq!(sv.ranking(), vec![1, 0, 2, 3]);
        assert_eq!(sv.top_k(2), vec![1, 0]);
        assert_eq!(sv.bottom_k(2), vec![3, 2]);
    }

    /// The bounded selection against the full ranking on ties: all-equal
    /// values, `±0.0` (equal under the order, so index decides) and
    /// `k ≥ N`.
    #[test]
    fn top_and_bottom_k_keep_ties_in_index_order() {
        let all_equal = ShapleyValues::new(vec![0.25; 7]);
        let zeros = ShapleyValues::new(vec![0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0]);
        let mixed = ShapleyValues::new(vec![3.0, -2.0, 3.0, 0.5, -2.0, 0.5]);
        for sv in [all_equal, zeros, mixed] {
            let ranking = sv.ranking();
            for k in 0..=sv.len() + 2 {
                let top: Vec<usize> = ranking.iter().copied().take(k).collect();
                let bottom: Vec<usize> = ranking.iter().rev().copied().take(k).collect();
                assert_eq!(sv.top_k(k), top, "{sv:?} top {k}");
                assert_eq!(sv.bottom_k(k), bottom, "{sv:?} bottom {k}");
            }
        }
        let zeros = ShapleyValues::new(vec![0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0]);
        assert_eq!(zeros.top_k(3), vec![2, 0, 1]);
        assert_eq!(zeros.bottom_k(3), vec![5, 6, 4]);
        assert_eq!(ShapleyValues::new(vec![]).top_k(4), Vec::<usize>::new());
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = ShapleyValues::zeros(2);
        a.add_assign(&ShapleyValues::new(vec![1.0, 2.0]));
        a.add_assign(&ShapleyValues::new(vec![3.0, 4.0]));
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn max_abs_diff_matches_linf() {
        let a = ShapleyValues::new(vec![0.0, 1.0]);
        let b = ShapleyValues::new(vec![0.5, 0.9]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_assign_length_guard() {
        let mut a = ShapleyValues::zeros(2);
        a.add_assign(&ShapleyValues::zeros(3));
    }
}
