//! Golden `KNNSHARD` bytes: the wire format of the exact partial sums must
//! not move. The two fixtures under `tests/fixtures/` were written by an
//! earlier build whose `ExactVec` stored one `ExactSum` per training point;
//! recomputing the same shards today must reproduce them byte for byte, at
//! every thread count. This pins `ExactVec::encode_into` independently of
//! any in-crate oracle.
//!
//! * `golden_exact.knnshard` — exact (Theorem 1) classification, N = 40,
//!   shard 1 of 2 over 9 test points;
//! * `golden_group_testing.knnshard` — group testing, N = 40, shard 0 of 2
//!   over 300 tests, whose `aux` vector carries the shared term.

use knnshap::valuation::exact_unweighted::knn_class_shapley_shard;
use knnshap::valuation::group_testing::group_testing_shapley_shard;
use knnshap::valuation::sharding::{ShardPartial, ShardSpec};
use knnshap::valuation::utility::KnnClassUtility;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::random_class;

const GOLDEN_EXACT: &[u8] = include_bytes!("fixtures/golden_exact.knnshard");
const GOLDEN_GROUP_TESTING: &[u8] = include_bytes!("fixtures/golden_group_testing.knnshard");

fn exact_shard(threads: usize) -> ShardPartial {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x601D), 40, 9, 3);
    knn_class_shapley_shard(&train, &test, 3, ShardSpec::new(1, 2), threads)
}

fn group_testing_shard(threads: usize) -> ShardPartial {
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x601E), 40, 4, 2);
    let u = KnnClassUtility::unweighted(&train, &test, 2);
    group_testing_shapley_shard(&u, 300, 5, ShardSpec::new(0, 2), threads)
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
