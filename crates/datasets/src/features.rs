//! Dense row-major feature matrix.

/// A dense `n × dim` matrix of `f32` features, stored row-major in one
/// contiguous allocation.
///
/// All distance computations in the workspace operate on `&[f32]` rows of a
/// `Features`; keeping the storage contiguous keeps the brute-force KNN scan
/// (the dominant cost of exact valuation at `N = 10⁷`) cache-friendly.
#[derive(Debug, Clone, PartialEq)]
pub struct Features {
    data: Vec<f32>,
    dim: usize,
}

impl Features {
    /// Wrap an existing row-major buffer. Panics unless
    /// `data.len() == n * dim` for some integer `n` (with `dim > 0`).
    pub fn new(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        Self { data, dim }
    }

    /// An empty matrix with capacity for `n` rows.
    pub fn with_capacity(n: usize, dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        Self {
            data: Vec::with_capacity(n * dim),
            dim,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Feature dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let start = i * self.dim;
        &mut self.data[start..start + self.dim]
    }

    /// Append a row. Panics if the slice length differs from `dim`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row length must equal dim");
        self.data.extend_from_slice(row);
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major buffer, by value.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Mutable raw buffer access (used by in-place normalization).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Build a new matrix from the rows selected by `indices` (rows may
    /// repeat — this is how bootstrap resampling materializes its sample).
    pub fn gather(&self, indices: &[usize]) -> Self {
        let mut out = Self::with_capacity(indices.len(), self.dim);
        for &i in indices {
            out.push_row(self.row(i));
        }
        out
    }

    /// Iterate over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// Index of the first row containing a non-finite value (NaN/±inf), if
    /// any. Distance comparisons on NaN features panic deep inside the
    /// valuation sorts, so front doors validate with this first and return a
    /// proper error instead.
    pub fn first_non_finite_row(&self) -> Option<usize> {
        self.data
            .iter()
            .position(|v| !v.is_finite())
            .map(|flat| flat / self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let f = Features::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(f.len(), 2);
        assert_eq!(f.dim(), 3);
        assert_eq!(f.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(f.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn rejects_ragged_buffer() {
        Features::new(vec![1.0; 5], 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dim() {
        Features::new(vec![], 0);
    }

    #[test]
    fn push_and_gather() {
        let mut f = Features::with_capacity(2, 2);
        assert!(f.is_empty());
        f.push_row(&[1.0, 2.0]);
        f.push_row(&[3.0, 4.0]);
        f.push_row(&[5.0, 6.0]);
        let g = f.gather(&[2, 0, 2]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
        assert_eq!(f.into_vec(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn rows_iterator_matches_row() {
        let f = Features::new((0..12).map(|x| x as f32).collect(), 4);
        let collected: Vec<&[f32]> = f.rows().collect();
        assert_eq!(collected.len(), 3);
        for (i, r) in collected.iter().enumerate() {
            assert_eq!(*r, f.row(i));
        }
    }

    #[test]
    fn row_mut_updates() {
        let mut f = Features::new(vec![0.0; 4], 2);
        f.row_mut(1)[0] = 9.0;
        assert_eq!(f.row(1), &[9.0, 0.0]);
    }

    #[test]
    fn non_finite_detection_reports_first_row() {
        let mut f = Features::new(vec![1.0; 6], 2);
        assert_eq!(f.first_non_finite_row(), None);
        f.row_mut(2)[1] = f32::NEG_INFINITY;
        f.row_mut(1)[0] = f32::NAN;
        assert_eq!(f.first_non_finite_row(), Some(1));
    }
}
