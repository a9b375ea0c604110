//! Golden `KNNSHARD` bytes: the wire format of the exact partial sums must
//! not move. The fixtures under `tests/fixtures/` were written by earlier
//! builds; recomputing the same shards today must reproduce them byte for
//! byte, at every thread count. This pins `ExactVec::encode_into`
//! independently of any in-crate oracle, and — because every header carries
//! the estimator kind and job fingerprint — pins each family's identity, so
//! shard files and job plans written by those builds still merge and
//! resume.
//!
//! * `golden_exact.knnshard` — exact (Theorem 1) classification, N = 40,
//!   shard 1 of 2 over 9 test points (written by the build whose `ExactVec`
//!   stored one `ExactSum` per training point);
//! * `golden_group_testing.knnshard` — group testing, N = 40, shard 0 of 2
//!   over 300 tests, whose `aux` vector carries the shared term (same
//!   build);
//! * `golden_truncated.knnshard` — truncated (Theorem 2), N = 40, K = 3,
//!   ε = 0.2, shard 1 of 2 over 9 test points;
//! * `golden_exact_reg.knnshard` — exact (Theorem 6) regression, N = 40,
//!   K = 3, shard 0 of 2 over 9 test points;
//! * `golden_weighted_exact.knnshard` — weighted (Theorem 7)
//!   classification, N = 12, K = 2, inverse-distance weights, shard 1 of 2
//!   over 5 test points;
//! * `golden_mc_baseline.knnshard` — baseline Monte Carlo, N = 20, K = 2,
//!   shard 0 of 2 over 60 permutations;
//! * `golden_mc_improved.knnshard` — improved Monte Carlo, N = 40, K = 3,
//!   exponential weights, shard 1 of 3 over 120 permutations;
//! * `golden_weighted_exact_reg.knnshard` — weighted (Theorem 7)
//!   regression, N = 12, K = 2, inverse-distance weights, shard 1 of 2 over
//!   5 test points (written by the first build in which weighted regression
//!   sharded).
//!
//! The five fixtures from `golden_truncated` to `golden_mc_improved` were
//! written by the per-family shard entry points that
//! `knnshap_core::estimator` replaced. Every fixture but the exact one is
//! recomputed here through the estimator seam.
//!
//! The fixtures pin class Monte Carlo and group testing only;
//! `job_identities_match_recorded_literals` pins the `(kind, fingerprint)`
//! of every family, task and weight `Family::check` admits, recorded from
//! the build before `Estimator` became the one place a fingerprint is
//! derived.

use knnshap::knn::WeightFn;
use knnshap::valuation::estimator::{Data, Family};
use knnshap::valuation::exact_unweighted::knn_class_shapley_shard;
use knnshap::valuation::sharding::{ShardPartial, ShardSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{estimator, random_class, random_reg};

const GOLDEN_EXACT: &[u8] = include_bytes!("fixtures/golden_exact.knnshard");
const GOLDEN_GROUP_TESTING: &[u8] = include_bytes!("fixtures/golden_group_testing.knnshard");
const GOLDEN_TRUNCATED: &[u8] = include_bytes!("fixtures/golden_truncated.knnshard");
const GOLDEN_EXACT_REG: &[u8] = include_bytes!("fixtures/golden_exact_reg.knnshard");
const GOLDEN_WEIGHTED_EXACT: &[u8] = include_bytes!("fixtures/golden_weighted_exact.knnshard");
const GOLDEN_MC_BASELINE: &[u8] = include_bytes!("fixtures/golden_mc_baseline.knnshard");
const GOLDEN_MC_IMPROVED: &[u8] = include_bytes!("fixtures/golden_mc_improved.knnshard");
const GOLDEN_WEIGHTED_EXACT_REG: &[u8] =
    include_bytes!("fixtures/golden_weighted_exact_reg.knnshard");

fn exact_shard(threads: usize) -> ShardPartial {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x601D), 40, 9, 3);
    knn_class_shapley_shard(&train, &test, 3, ShardSpec::new(1, 2), threads)
}

fn group_testing_shard(threads: usize) -> ShardPartial {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x601E), 40, 4, 2);
    let family = Family::GroupTesting {
        tests: 300,
        seed: 5,
    };
    let est = estimator(
        Data::class(&train, &test),
        2,
        WeightFn::Uniform,
        family,
        None,
    );
    est.compute(ShardSpec::new(0, 2), threads)
}

fn truncated_shard(threads: usize) -> ShardPartial {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x601F), 40, 9, 3);
    let family = Family::Truncated { eps: 0.2 };
    let est = estimator(
        Data::class(&train, &test),
        3,
        WeightFn::Uniform,
        family,
        None,
    );
    est.compute(ShardSpec::new(1, 2), threads)
}

fn exact_reg_shard(threads: usize) -> ShardPartial {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0x6020), 40, 9);
    let est = estimator(
        Data::reg(&train, &test),
        3,
        WeightFn::Uniform,
        Family::Exact,
        None,
    );
    est.compute(ShardSpec::new(0, 2), threads)
}

fn weighted_exact_shard(threads: usize) -> ShardPartial {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x6021), 12, 5, 2);
    let weight = WeightFn::InverseDistance { eps: 1e-3 };
    let est = estimator(Data::class(&train, &test), 2, weight, Family::Exact, None);
    est.compute(ShardSpec::new(1, 2), threads)
}

fn weighted_exact_reg_shard(threads: usize) -> ShardPartial {
    let (train, test) = random_reg(&mut StdRng::seed_from_u64(0x6025), 12, 5);
    let weight = WeightFn::InverseDistance { eps: 1e-3 };
    let est = estimator(Data::reg(&train, &test), 2, weight, Family::Exact, None);
    est.compute(ShardSpec::new(1, 2), threads)
}

fn mc_baseline_shard(threads: usize) -> ShardPartial {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x6022), 20, 4, 2);
    let family = Family::McBaseline { perms: 60, seed: 7 };
    let est = estimator(
        Data::class(&train, &test),
        2,
        WeightFn::Uniform,
        family,
        None,
    );
    est.compute(ShardSpec::new(0, 2), threads)
}

fn mc_improved_shard(threads: usize) -> ShardPartial {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x6023), 40, 4, 2);
    let weight = WeightFn::Exponential { beta: 0.5 };
    let family = Family::McImproved {
        perms: 120,
        seed: 11,
    };
    let est = estimator(Data::class(&train, &test), 3, weight, family, None);
    est.compute(ShardSpec::new(1, 3), threads)
}

/// Recompute, compare with the fixture, and check that decoding the
/// fixture and re-encoding it is the identity.
fn check(golden: &[u8], make: fn(usize) -> ShardPartial, what: &str) {
    for threads in [1, 8] {
        let bytes = make(threads).to_bytes();
        assert!(
            bytes == golden,
            "{what} at {threads} threads: {} bytes differ from the {}-byte fixture",
            bytes.len(),
            golden.len()
        );
    }
    let back = ShardPartial::from_bytes(golden).expect("fixture decodes");
    assert!(
        back.to_bytes() == golden,
        "{what}: decode/encode round trip"
    );
}

#[test]
fn exact_shard_bytes_match_golden_fixture() {
    check(GOLDEN_EXACT, exact_shard, "exact");
    assert!(ShardPartial::from_bytes(GOLDEN_EXACT)
        .unwrap()
        .aux
        .is_empty());
}

#[test]
fn group_testing_shard_bytes_match_golden_fixture() {
    check(GOLDEN_GROUP_TESTING, group_testing_shard, "group testing");
    let aux = ShardPartial::from_bytes(GOLDEN_GROUP_TESTING).unwrap().aux;
    assert_eq!(aux.len(), 1);
    assert_ne!(aux.value(0), 0.0, "the shared term is non-empty");
}

/// A fixture whose sums are not all zero — so byte equality pins real
/// arithmetic, not just the header.
fn check_nonzero(golden: &[u8], make: fn(usize) -> ShardPartial, what: &str) {
    check(golden, make, what);
    let sums = ShardPartial::from_bytes(golden).unwrap().sums;
    assert!(
        (0..sums.len()).any(|i| sums.value(i) != 0.0),
        "{what}: the fixture carries values"
    );
}

#[test]
fn truncated_shard_bytes_match_golden_fixture() {
    check_nonzero(GOLDEN_TRUNCATED, truncated_shard, "truncated");
}

#[test]
fn exact_reg_shard_bytes_match_golden_fixture() {
    check_nonzero(GOLDEN_EXACT_REG, exact_reg_shard, "exact regression");
}

#[test]
fn weighted_exact_shard_bytes_match_golden_fixture() {
    check_nonzero(
        GOLDEN_WEIGHTED_EXACT,
        weighted_exact_shard,
        "weighted exact classification",
    );
}

#[test]
fn weighted_exact_reg_shard_bytes_match_golden_fixture() {
    check_nonzero(
        GOLDEN_WEIGHTED_EXACT_REG,
        weighted_exact_reg_shard,
        "weighted exact regression",
    );
}

#[test]
fn mc_baseline_shard_bytes_match_golden_fixture() {
    check_nonzero(GOLDEN_MC_BASELINE, mc_baseline_shard, "mc baseline");
}

#[test]
fn mc_improved_shard_bytes_match_golden_fixture() {
    check_nonzero(GOLDEN_MC_IMPROVED, mc_improved_shard, "mc improved");
}

/// Every family × task × weight [`Family::check`] admits, on one small
/// classification pair and one regression pair, labelled
/// `task family weight`.
fn identities() -> Vec<(String, &'static str, u64)> {
    let (ctrain, ctest) = random_class(&mut StdRng::seed_from_u64(0x1D01), 12, 4, 3);
    let (rtrain, rtest) = random_reg(&mut StdRng::seed_from_u64(0x1D02), 12, 4);
    let weights = [
        ("uniform", WeightFn::Uniform),
        ("inverse", WeightFn::InverseDistance { eps: 1e-3 }),
        ("exponential", WeightFn::Exponential { beta: 0.5 }),
    ];
    let streams = [
        Family::McBaseline { perms: 10, seed: 7 },
        Family::McImproved { perms: 10, seed: 7 },
        Family::GroupTesting { tests: 10, seed: 7 },
    ];
    let mut jobs = Vec::new();
    for (task, data) in [
        ("class", Data::class(&ctrain, &ctest)),
        ("reg", Data::reg(&rtrain, &rtest)),
    ] {
        for &(wname, weight) in &weights {
            jobs.push((task, data.clone(), Family::Exact, wname, weight));
        }
        if task == "class" {
            for eps in [0.1, 0.2] {
                let family = Family::Truncated { eps };
                jobs.push((task, data.clone(), family, "uniform", WeightFn::Uniform));
            }
        }
        for family in streams {
            for &(wname, weight) in &weights {
                jobs.push((task, data.clone(), family, wname, weight));
            }
        }
    }
    jobs.into_iter()
        .map(|(task, data, family, wname, weight)| {
            let (kind, fingerprint) = estimator(data, 3, weight, family, None).identity();
            let label = match family {
                Family::Truncated { eps } => format!("{task} truncated-{eps} {wname}"),
                _ => format!("{task} {} {wname}", family.name()),
            };
            (label, kind.name(), fingerprint)
        })
        .collect()
}

/// The `(kind, fingerprint)` of every admitted job, recorded as literals
/// from the build before the games stopped deriving their own fingerprints:
/// shard files and plans of every family, both tasks and every weight keep
/// their identity.
#[test]
fn job_identities_match_recorded_literals() {
    #[rustfmt::skip]
    const RECORDED: &[(&str, &str, u64)] = &[
        ("class exact uniform", "exact-class", 0x3e59d294c9fec14b),
        ("class exact inverse", "exact-class", 0xe44fc85b89f8717a),
        ("class exact exponential", "exact-class", 0x8700e08dab60a666),
        ("class truncated-0.1 uniform", "truncated", 0x17b5577e225fb40f),
        ("class truncated-0.2 uniform", "truncated", 0x4cc41768ce1eda17),
        ("class mc-baseline uniform", "mc-baseline", 0x02dcad1f74d246d1),
        ("class mc-baseline inverse", "mc-baseline", 0x54972f548759ec83),
        ("class mc-baseline exponential", "mc-baseline", 0xafe51c09a9ac4148),
        ("class mc-improved uniform", "mc-improved", 0x058b5f640dd79471),
        ("class mc-improved inverse", "mc-improved", 0xd29f2d12bfba0944),
        ("class mc-improved exponential", "mc-improved", 0xcc791373627d4b5b),
        ("class group-testing uniform", "group-testing", 0x5eb014f6675b5aff),
        ("class group-testing inverse", "group-testing", 0x6456e95eebef1337),
        ("class group-testing exponential", "group-testing", 0x73499d65b7af0c1f),
        ("reg exact uniform", "exact-reg", 0xb4e737230a7d85d0),
        ("reg exact inverse", "exact-reg", 0x83fd188a69b0c1b3),
        ("reg exact exponential", "exact-reg", 0xc6390d94172348ed),
        ("reg mc-baseline uniform", "mc-baseline", 0x1ecf5e11ca69861a),
        ("reg mc-baseline inverse", "mc-baseline", 0xa6fb8bfcbc9bbc48),
        ("reg mc-baseline exponential", "mc-baseline", 0x237b32fcf95fdbcf),
        ("reg mc-improved uniform", "mc-improved", 0xf87b000f02df82f6),
        ("reg mc-improved inverse", "mc-improved", 0xea4f16253da4c246),
        ("reg mc-improved exponential", "mc-improved", 0x4e95f66dd52f42dc),
        ("reg group-testing uniform", "group-testing", 0xb6c34a43b7f2e53a),
        ("reg group-testing inverse", "group-testing", 0xcef67a48f5391508),
        ("reg group-testing exponential", "group-testing", 0xd60b2d5f0d9c8fbf),
    ];
    let got = identities();
    assert_eq!(got.len(), RECORDED.len(), "job count");
    for ((label, kind, fp), &(rlabel, rkind, rfp)) in got.iter().zip(RECORDED) {
        assert_eq!((label.as_str(), *kind), (rlabel, rkind));
        assert_eq!(
            *fp, rfp,
            "{label}: fingerprint {fp:016x} vs recorded {rfp:016x}"
        );
    }
}
