//! Weight functions for weighted KNN (paper §4, Appendix E.2).
//!
//! "The weight assigned to a neighbor in the weighted KNN estimate often
//! varies with the neighbor-to-test distance so that the evidence from more
//! nearby neighbors is weighted more heavily \[Dud76\]." The paper's Fig. 14
//! experiment uses inverse-distance weighting; we also provide the uniform
//! weighting (which must recover unweighted KNN exactly — a property test
//! relies on this) and an exponential kernel.

/// A weighting scheme mapping neighbor distances to (normalized) weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightFn {
    /// `w_k = 1/K` — recovers the unweighted estimators of eqs. (5)/(25).
    Uniform,
    /// `w_k ∝ 1/(d_k + eps)` (Dudani-style inverse distance), normalized to
    /// sum to one over the retrieved neighbors.
    InverseDistance {
        /// Additive smoothing to keep weights finite at distance 0.
        eps: f32,
    },
    /// `w_k ∝ exp(−beta · d_k)`, normalized to sum to one.
    Exponential { beta: f32 },
}

/// A weight name that is not in the table, or a parameter the weight
/// cannot use.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightError {
    /// Not one of [`WeightFn::parse`]'s names.
    UnknownName(String),
    /// A parameter that is non-finite as an `f32`, an inverse-distance
    /// `eps ≤ 0`, or an exponential `beta < 0`; `need` says which.
    BadParam {
        name: &'static str,
        need: &'static str,
        param: f64,
    },
}

impl std::fmt::Display for WeightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightError::UnknownName(name) => {
                let known: Vec<_> = WeightFn::table(None).iter().map(|w| w.name()).collect();
                write!(f, "unknown weight '{name}' ({})", known.join(", "))
            }
            WeightError::BadParam { name, need, param } => {
                write!(f, "weight {name} needs {need} (got {param:?})")
            }
        }
    }
}

impl std::error::Error for WeightError {}

impl WeightFn {
    /// Every weight with `param` (as `f32`) or, when `None`, its default
    /// parameter: inverse `eps = 1e-3`, exponential `beta = 1`. With
    /// [`name`](Self::name) and [`param`](Self::param) this is the one
    /// name ↔ variant ↔ parameter table.
    fn table(param: Option<f64>) -> [WeightFn; 3] {
        let p = |default: f64| param.unwrap_or(default) as f32;
        [
            WeightFn::Uniform,
            WeightFn::InverseDistance { eps: p(1e-3) },
            WeightFn::Exponential { beta: p(1.0) },
        ]
    }

    /// The weight named `name` with parameter `param` (its default when
    /// `None`; uniform takes none). The parameter must be finite after the
    /// `f32` cast; inverse distance needs `eps > 0` (the smoothing that
    /// keeps weights finite) and the exponential kernel `beta ≥ 0` (weights
    /// fall with distance, §4).
    pub fn parse(name: &str, param: Option<f64>) -> Result<WeightFn, WeightError> {
        let w = WeightFn::table(param)
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| WeightError::UnknownName(name.to_string()))?;
        let p = w.param();
        let (ok, need) = match w {
            WeightFn::Uniform => (true, ""),
            WeightFn::InverseDistance { .. } => (p > 0.0, "a finite eps > 0"),
            WeightFn::Exponential { .. } => (p >= 0.0, "a finite beta >= 0"),
        };
        if ok && p.is_finite() {
            return Ok(w);
        }
        let (name, param) = (w.name(), param.unwrap_or(p));
        Err(WeightError::BadParam { name, need, param })
    }

    /// The weight's name in the CLI and in job plans.
    pub fn name(self) -> &'static str {
        match self {
            WeightFn::Uniform => "uniform",
            WeightFn::InverseDistance { .. } => "inverse",
            WeightFn::Exponential { .. } => "exponential",
        }
    }

    /// The weight's parameter (`0` for uniform).
    pub fn param(self) -> f64 {
        match self {
            WeightFn::Uniform => 0.0,
            WeightFn::InverseDistance { eps } => eps as f64,
            WeightFn::Exponential { beta } => beta as f64,
        }
    }

    /// The unnormalized weight for one neighbor distance.
    #[inline]
    pub fn raw(&self, dist: f32) -> f64 {
        match *self {
            WeightFn::Uniform => 1.0,
            WeightFn::InverseDistance { eps } => 1.0 / (dist as f64 + eps as f64),
            WeightFn::Exponential { beta } => (-(beta as f64) * dist as f64).exp(),
        }
    }

    /// Normalized weights for a list of neighbor distances.
    ///
    /// For [`WeightFn::Uniform`] the normalizer is the *capacity* `k`, not the
    /// list length: the paper's unweighted utility (eq. 5) divides by `K` even
    /// when `|S| < K`, and weighted KNN must degenerate to it exactly.
    pub fn weights(&self, dists: &[f32], k: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.weights_into(dists, k, &mut out);
        out
    }

    /// [`weights`](Self::weights) into a caller-owned buffer (cleared first)
    /// — the allocation-free variant the MC hot loop reuses across K-set
    /// changes. The arithmetic (raw weights in list order, sequential sum,
    /// per-element divide, the uniform and underflow fallbacks) is identical
    /// to `weights`, so the results are bitwise-equal.
    pub fn weights_into(&self, dists: &[f32], k: usize, out: &mut Vec<f64>) {
        assert!(k >= dists.len(), "more neighbors than capacity");
        out.clear();
        match *self {
            WeightFn::Uniform => out.resize(dists.len(), 1.0 / k as f64),
            _ => {
                out.extend(dists.iter().map(|&d| self.raw(d)));
                let total: f64 = out.iter().sum();
                if total <= 0.0 {
                    // All weights underflowed (e.g. huge beta): fall back to uniform
                    // over the retrieved set to preserve a valid distribution.
                    let uniform = 1.0 / dists.len().max(1) as f64;
                    out.clear();
                    out.resize(dists.len(), uniform);
                    return;
                }
                for w in out.iter_mut() {
                    *w /= total;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_divides_by_capacity() {
        let w = WeightFn::Uniform.weights(&[0.1, 0.2], 5);
        assert_eq!(w, vec![0.2, 0.2]); // 1/K with K=5, not 1/2
    }

    #[test]
    fn inverse_distance_prefers_near() {
        let w = WeightFn::InverseDistance { eps: 1e-6 }.weights(&[0.1, 1.0, 10.0], 3);
        assert!(w[0] > w[1] && w[1] > w[2]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_prefers_near_and_normalizes() {
        let w = WeightFn::Exponential { beta: 2.0 }.weights(&[0.0, 0.5, 2.0], 3);
        assert!(w[0] > w[1] && w[1] > w[2]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn underflow_falls_back_to_uniform() {
        let w = WeightFn::Exponential { beta: 1e30 }.weights(&[1.0, 2.0], 2);
        assert_eq!(w, vec![0.5, 0.5]);
    }

    #[test]
    fn zero_distance_is_finite() {
        let w = WeightFn::InverseDistance { eps: 1e-3 }.weights(&[0.0, 1.0], 2);
        assert!(w.iter().all(|x| x.is_finite()));
        assert!(w[0] > w[1]);
    }

    #[test]
    fn the_name_table_round_trips_every_weight() {
        for w in [
            WeightFn::Uniform,
            WeightFn::InverseDistance { eps: 0.01 },
            WeightFn::Exponential { beta: 0.0 },
            WeightFn::Exponential { beta: 2.5 },
        ] {
            assert_eq!(WeightFn::parse(w.name(), Some(w.param())), Ok(w));
        }
        // Defaults, cast from f64 as the CLI always cast them.
        assert_eq!(
            WeightFn::parse("inverse", None),
            Ok(WeightFn::InverseDistance { eps: 1e-3 })
        );
        assert_eq!(
            WeightFn::parse("exponential", None),
            Ok(WeightFn::Exponential { beta: 1.0 })
        );
        assert_eq!(
            WeightFn::parse("uniform", Some(f64::NAN)),
            Ok(WeightFn::Uniform)
        );
        let err = WeightFn::parse("nope", None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown weight 'nope' (uniform, inverse, exponential)"
        );
    }

    #[test]
    fn parameters_that_break_the_weights_are_typed_errors() {
        for (name, param) in [
            ("inverse", f64::NAN),
            ("inverse", 0.0),
            ("inverse", -1e-3),
            ("inverse", f64::INFINITY),
            ("inverse", 1e39), // finite as f64, infinite as f32
            ("exponential", f64::NAN),
            ("exponential", f64::NEG_INFINITY),
            ("exponential", -1e30),
            ("exponential", -1e-9),
            ("exponential", 1e39),
        ] {
            assert!(
                matches!(
                    WeightFn::parse(name, Some(param)),
                    Err(WeightError::BadParam { .. })
                ),
                "{name} {param}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_overfull_neighbor_list() {
        WeightFn::Uniform.weights(&[0.0; 4], 3);
    }
}
