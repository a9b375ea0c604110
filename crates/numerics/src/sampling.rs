//! Random sampling utilities: Gaussian variates (Box–Muller), uniform random
//! permutations (Fisher–Yates), and counter-based RNG streams.
//!
//! The workspace deliberately keeps `rand` as its only RNG dependency and
//! derives Gaussians itself: synthetic "deep feature" embeddings, the p-stable
//! LSH projection vectors, and noise injection all draw from
//! [`GaussianSampler`], while the Monte Carlo Shapley estimators draw
//! permutations from [`sample_permutation`].
//!
//! ### Stream splitting
//!
//! The parallel Monte Carlo runtime cannot share one sequential generator
//! across workers without making results depend on scheduling. [`RngStreams`]
//! solves this with counter-based derivation: stream `i` of seed `s` is an
//! independent generator seeded from a SplitMix64-style mix of `(s, i)`, so
//! permutation `i` draws the same bits no matter which worker — or how many
//! workers — execute the run. See [`RngStreams::stream`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Standard-normal sampler using the Box–Muller transform with caching of the
/// second variate, so amortized cost is one `ln`/`sqrt`/`sincos` pair per two
/// samples.
#[derive(Debug, Clone, Default)]
pub struct GaussianSampler {
    spare: Option<f64>,
}

impl GaussianSampler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw one `N(0, 1)` sample.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draw one `N(mean, std²)` sample.
    pub fn sample_with<R: Rng + ?Sized>(&mut self, rng: &mut R, mean: f64, std: f64) -> f64 {
        mean + std * self.sample(rng)
    }
}

/// Fill a fresh vector with `n` iid standard Gaussians.
pub fn gaussian_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    let mut g = GaussianSampler::new();
    (0..n).map(|_| g.sample(rng)).collect()
}

/// Uniformly random permutation of `0..n` via Fisher–Yates.
///
/// This is the sampling primitive of both Monte Carlo Shapley estimators
/// (paper eq. 4 and Algorithm 2): each permutation must be drawn uniformly
/// from the `n!` possibilities for the estimator to be unbiased.
pub fn sample_permutation<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    shuffle_in_place(rng, &mut p);
    p
}

/// In-place Fisher–Yates shuffle (reuses the caller's buffer; the improved MC
/// estimator re-shuffles one workhorse vector per permutation to avoid
/// allocating in its hot loop).
pub fn shuffle_in_place<R: Rng + ?Sized, T>(rng: &mut R, xs: &mut [T]) {
    let n = xs.len();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

/// Reset `xs` to the identity permutation `0..n` and shuffle it with `rng` —
/// the canonical "draw permutation `i` of stream `i`" step of the parallel MC
/// estimators. Starting from the identity (rather than whatever the buffer
/// held) makes the result a pure function of the generator state, so a
/// permutation drawn from [`RngStreams::stream`]`(i)` is identical no matter
/// which worker draws it or what that worker drew before.
pub fn identity_shuffle<R: Rng + ?Sized>(rng: &mut R, xs: &mut [usize]) {
    for (i, x) in xs.iter_mut().enumerate() {
        *x = i;
    }
    shuffle_in_place(rng, xs);
}

/// The SplitMix64 finalizer: a bijective avalanche mix of 64 bits.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A family of independent, counter-indexed RNG streams derived from one
/// seed.
///
/// Stream `i` is an [`StdRng`] seeded from `mix(seed, i)` — two rounds of the
/// SplitMix64 finalizer over the golden-ratio-weighted combination of the two
/// words — so nearby `(seed, stream)` pairs land on statistically unrelated
/// generator states. The derivation is pure: it involves no shared mutable
/// state, which is what lets the Monte Carlo estimators hand stream `i` to
/// whichever pool worker processes permutation `i` and still produce
/// bitwise-identical output at every thread count.
///
/// ```
/// use knnshap_numerics::sampling::{sample_permutation, RngStreams};
///
/// let streams = RngStreams::new(42);
/// // Stream derivation is pure: the same (seed, index) always yields the
/// // same permutation, independent of any other stream having been drawn.
/// let a = sample_permutation(&mut streams.stream(7), 20);
/// let _ = sample_permutation(&mut streams.stream(3), 20);
/// let b = sample_permutation(&mut streams.stream(7), 20);
/// assert_eq!(a, b);
/// assert_ne!(a, sample_permutation(&mut streams.stream(8), 20));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RngStreams {
    seed: u64,
}

impl RngStreams {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The base seed the streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generator for stream `i`.
    pub fn stream(&self, i: u64) -> StdRng {
        StdRng::seed_from_u64(mix64(
            mix64(self.seed).wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1))),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs = gaussian_vec(&mut rng, 200_000);
        let m = crate::stats::mean(&xs);
        let v = crate::stats::variance(&xs);
        assert!(m.abs() < 0.01, "mean {m}");
        assert!((v - 1.0).abs() < 0.02, "variance {v}");
    }

    #[test]
    fn gaussian_sampler_uses_spare() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = GaussianSampler::new();
        let _ = g.sample(&mut rng);
        assert!(g.spare.is_some());
        let _ = g.sample(&mut rng);
        assert!(g.spare.is_none());
    }

    #[test]
    fn sample_with_scales() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = GaussianSampler::new();
        let xs: Vec<f64> = (0..100_000)
            .map(|_| g.sample_with(&mut rng, 5.0, 0.5))
            .collect();
        assert!((crate::stats::mean(&xs) - 5.0).abs() < 0.02);
        assert!((crate::stats::std_dev(&xs) - 0.5).abs() < 0.02);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [0usize, 1, 2, 17, 100] {
            let p = sample_permutation(&mut rng, n);
            let mut seen = vec![false; n];
            for &x in &p {
                assert!(!seen[x]);
                seen[x] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn stream_rng_is_pure_and_seed_sensitive() {
        use rand::RngCore;
        let s = RngStreams::new(1234);
        assert_eq!(s.seed(), 1234);
        // Pure in the stream index…
        for i in [0u64, 1, 17, u64::MAX] {
            assert_eq!(s.stream(i).next_u64(), s.stream(i).next_u64());
        }
        // …distinct across adjacent indices and across seeds.
        assert_ne!(s.stream(0).next_u64(), s.stream(1).next_u64());
        assert_ne!(
            s.stream(0).next_u64(),
            RngStreams::new(1235).stream(0).next_u64()
        );
    }

    #[test]
    fn identity_shuffle_ignores_buffer_history() {
        let s = RngStreams::new(9);
        let mut dirty: Vec<usize> = (0..50).rev().collect();
        identity_shuffle(&mut s.stream(4), &mut dirty);
        let mut fresh: Vec<usize> = vec![0; 50];
        identity_shuffle(&mut s.stream(4), &mut fresh);
        assert_eq!(dirty, fresh);
        let mut seen = vec![false; 50];
        for &x in &dirty {
            assert!(!seen[x]);
            seen[x] = true;
        }
    }

    #[test]
    fn stream_positions_are_uniformish() {
        // Element 0's slot across streams of one seed must be ~uniform — the
        // unbiasedness precondition of the parallel MC estimators.
        let streams = RngStreams::new(77);
        let n = 5;
        let trials = 50_000u64;
        let mut counts = vec![0usize; n];
        let mut perm = vec![0usize; n];
        for t in 0..trials {
            identity_shuffle(&mut streams.stream(t), &mut perm);
            let pos = perm.iter().position(|&x| x == 0).unwrap();
            counts[pos] += 1;
        }
        for &c in &counts {
            let freq = c as f64 / trials as f64;
            assert!((freq - 0.2).abs() < 0.02, "freq {freq}");
        }
    }

    #[test]
    fn permutation_positions_are_uniformish() {
        // Element 0 should land in every slot with probability ~1/n.
        let mut rng = StdRng::seed_from_u64(13);
        let n = 5;
        let trials = 50_000;
        let mut counts = vec![0usize; n];
        for _ in 0..trials {
            let p = sample_permutation(&mut rng, n);
            let pos = p.iter().position(|&x| x == 0).unwrap();
            counts[pos] += 1;
        }
        for &c in &counts {
            let freq = c as f64 / trials as f64;
            assert!((freq - 0.2).abs() < 0.02, "freq {freq}");
        }
    }
}
