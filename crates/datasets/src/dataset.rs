//! Labeled datasets for classification and regression tasks.

use crate::features::Features;

/// A classification dataset: features plus integer class labels in
/// `0..n_classes`.
#[derive(Debug, Clone)]
pub struct ClassDataset {
    pub x: Features,
    pub y: Vec<u32>,
    pub n_classes: u32,
}

impl ClassDataset {
    /// The largest label, so the class count `max(label) + 1` fits a
    /// `u32`. The CSV loader and the serving engine reject larger labels
    /// with a typed error.
    pub const MAX_LABEL: u32 = u32::MAX - 1;

    /// Construct, validating that labels are consistent with `n_classes` and
    /// that the label count matches the row count.
    pub fn new(x: Features, y: Vec<u32>, n_classes: u32) -> Self {
        assert_eq!(x.len(), y.len(), "feature/label count mismatch");
        assert!(n_classes > 0, "need at least one class");
        if let Some(&bad) = y.iter().find(|&&l| l >= n_classes) {
            panic!("label {bad} out of range for {n_classes} classes");
        }
        Self { x, y, n_classes }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.y.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.x.dim()
    }

    /// Subset by (possibly repeating) indices.
    pub fn gather(&self, indices: &[usize]) -> Self {
        Self {
            x: self.x.gather(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// Per-class counts (length `n_classes`).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes as usize];
        for &l in &self.y {
            counts[l as usize] += 1;
        }
        counts
    }
}

/// A regression dataset: features plus real-valued targets.
#[derive(Debug, Clone)]
pub struct RegDataset {
    pub x: Features,
    pub y: Vec<f64>,
}

impl RegDataset {
    pub fn new(x: Features, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "feature/target count mismatch");
        Self { x, y }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.y.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.x.dim()
    }

    pub fn gather(&self, indices: &[usize]) -> Self {
        Self {
            x: self.x.gather(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ClassDataset {
        ClassDataset::new(
            Features::new(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0], 2),
            vec![0, 1, 0],
            2,
        )
    }

    #[test]
    fn class_dataset_basics() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.class_counts(), vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_labels() {
        ClassDataset::new(Features::new(vec![0.0], 1), vec![3], 2);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rejects_length_mismatch() {
        ClassDataset::new(Features::new(vec![0.0, 1.0], 1), vec![0], 1);
    }

    #[test]
    fn gather_repeats_rows() {
        let d = tiny();
        let g = d.gather(&[1, 1, 0]);
        assert_eq!(g.y, vec![1, 1, 0]);
        assert_eq!(g.x.row(0), &[1.0, 1.0]);
        assert_eq!(g.x.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn reg_dataset_basics() {
        let d = RegDataset::new(Features::new(vec![0.0, 1.0, 2.0], 1), vec![0.5, 1.5, 2.5]);
        assert_eq!(d.len(), 3);
        let g = d.gather(&[2, 0]);
        assert_eq!(g.y, vec![2.5, 0.5]);
    }
}
