//! Bootstrap resampling.
//!
//! The paper synthesizes training sets of various sizes by bootstrapping
//! MNIST ("We bootstrapped the MNIST dataset to synthesize training datasets
//! of various sizes", §6.2.1, Fig. 6). Resampling with replacement preserves
//! the marginal feature distribution while letting `N` grow beyond the source
//! size.

use crate::dataset::ClassDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_indices(rng: &mut StdRng, source_len: usize, n: usize) -> Vec<usize> {
    assert!(source_len > 0, "cannot bootstrap an empty dataset");
    (0..n).map(|_| rng.gen_range(0..source_len)).collect()
}

/// Resample a classification dataset to `n` points with replacement.
pub fn bootstrap_class(source: &ClassDataset, n: usize, seed: u64) -> ClassDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    source.gather(&sample_indices(&mut rng, source.len(), n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Features;

    fn source() -> ClassDataset {
        ClassDataset::new(
            Features::new((0..20).map(|i| i as f32).collect(), 2),
            vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
            2,
        )
    }

    #[test]
    fn upsamples_and_downsamples() {
        let s = source();
        assert_eq!(bootstrap_class(&s, 100, 1).len(), 100);
        assert_eq!(bootstrap_class(&s, 3, 1).len(), 3);
    }

    #[test]
    fn rows_come_from_source() {
        let s = source();
        let b = bootstrap_class(&s, 50, 2);
        for i in 0..b.len() {
            let row = b.x.row(i);
            let found = (0..s.len()).any(|j| s.x.row(j) == row && s.y[j] == b.y[i]);
            assert!(found, "row {i} not present in source");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = source();
        assert_eq!(
            bootstrap_class(&s, 40, 9).x.as_slice(),
            bootstrap_class(&s, 40, 9).x.as_slice()
        );
        assert_ne!(
            bootstrap_class(&s, 40, 9).x.as_slice(),
            bootstrap_class(&s, 40, 10).x.as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_source() {
        let empty = ClassDataset::new(Features::new(vec![], 2), vec![], 1);
        bootstrap_class(&empty, 5, 0);
    }
}
