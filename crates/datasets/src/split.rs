//! Shuffled train/test splitting.

use crate::dataset::ClassDataset;
use knnshap_numerics::sampling::shuffle_in_place;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn split_indices(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..=1.0).contains(&test_fraction),
        "test_fraction must be in [0, 1]"
    );
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    shuffle_in_place(&mut rng, &mut idx);
    let n_test = ((n as f64) * test_fraction).round() as usize;
    let test = idx.split_off(n - n_test);
    (idx, test)
}

/// Split a classification dataset into `(train, test)`.
pub fn train_test_split(
    d: &ClassDataset,
    test_fraction: f64,
    seed: u64,
) -> (ClassDataset, ClassDataset) {
    let (tr, te) = split_indices(d.len(), test_fraction, seed);
    (d.gather(&tr), d.gather(&te))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Features;

    fn ds(n: usize) -> ClassDataset {
        ClassDataset::new(
            Features::new((0..n).map(|i| i as f32).collect(), 1),
            (0..n).map(|i| (i % 2) as u32).collect(),
            2,
        )
    }

    #[test]
    fn sizes_add_up() {
        let d = ds(100);
        let (tr, te) = train_test_split(&d, 0.25, 0);
        assert_eq!(tr.len(), 75);
        assert_eq!(te.len(), 25);
    }

    #[test]
    fn partition_is_disjoint_and_complete() {
        let d = ds(50);
        let (tr, te) = train_test_split(&d, 0.3, 1);
        let mut seen: Vec<f32> = tr.x.rows().chain(te.x.rows()).map(|r| r[0]).collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let want: Vec<f32> = (0..50).map(|i| i as f32).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn extreme_fractions() {
        let d = ds(10);
        let (tr, te) = train_test_split(&d, 0.0, 2);
        assert_eq!((tr.len(), te.len()), (10, 0));
        let (tr, te) = train_test_split(&d, 1.0, 2);
        assert_eq!((tr.len(), te.len()), (0, 10));
    }

    #[test]
    fn labels_follow_rows() {
        let d = ds(40);
        let (tr, _) = train_test_split(&d, 0.5, 3);
        for i in 0..tr.len() {
            let v = tr.x.row(i)[0] as usize;
            assert_eq!(tr.y[i], (v % 2) as u32);
        }
    }
}
