//! Served what-ifs against a cold engine: interleaved what-ifs across
//! version bumps, with every answer checked **byte-equal** against a cold
//! `ResidentValuator` evaluation of the same candidate at the same dataset
//! version. The daemon answers each what-if from its engine under the read
//! lock; this test pins that every answer carries the current version and
//! the cold bits, that asking twice or asking a `±0.0` twin changes
//! nothing, that a refused candidate leaves the session serving, and that
//! the `Metrics` frame counts every what-if sent.

use knnshap_core::resident::ResidentValuator;
use knnshap_datasets::synth::blobs::{self, BlobConfig};
use knnshap_serve::client::{Client, ClientError};
use knnshap_serve::server::{bind, Endpoint, ValuationServer};
use knnshap_serve::ErrorCode;

#[test]
fn whatifs_are_byte_equal_to_cold_evaluation() {
    let cfg = BlobConfig {
        n: 40,
        dim: 3,
        n_classes: 3,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 5, 3));
    let k = 3;
    let server = ValuationServer::new(train.clone(), test.clone(), k, 2).unwrap();
    let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = bound.local_endpoint().clone();
    let handle = {
        let bound_server = bound; // moved into the daemon thread
        std::thread::spawn(move || bound_server.run())
    };

    // The cold twin replays every committed mutation so that at any point
    // it holds exactly the dataset version the daemon serves.
    let mut cold = ResidentValuator::new(train, test, k, 1).unwrap();

    let candidates: Vec<(Vec<f32>, u32)> = (0..6)
        .map(|i| {
            let f = i as f32 / 4.0;
            (vec![f, -f, 0.5 + f], (i % 3) as u32)
        })
        .collect();

    let mut c = Client::connect(&endpoint).unwrap();
    let mut sent = 0u64;
    for round in 0..4u64 {
        // Two passes over all candidates at one version: both must carry
        // the current version and the cold bits, and the second pass must
        // repeat the first bit for bit.
        let mut first = Vec::new();
        for pass in 0..2 {
            for (i, (features, label)) in candidates.iter().enumerate() {
                let (version, value) = c.what_if(features, *label).unwrap();
                sent += 1;
                assert_eq!(version, round, "what-if answered at a stale version");
                let expect = cold.what_if(features, *label).unwrap();
                assert_eq!(
                    value.to_bits(),
                    expect.to_bits(),
                    "round {round} pass {pass} candidate {i}: served what-if \
                     differs from cold evaluation at the same version"
                );
                if pass == 0 {
                    first.push(value);
                } else {
                    assert_eq!(
                        value.to_bits(),
                        first[i].to_bits(),
                        "round {round} candidate {i}: a repeated what-if changed"
                    );
                }
            }
        }

        // Bump the version: the same candidates must now match cold at
        // the new version, wherever the dataset change moved them.
        let (features, label) = (vec![round as f32, 1.0, -1.0], (round % 3) as u32);
        let (version, _) = c.insert(&features, label).unwrap();
        assert_eq!(version, round + 1);
        let idx = cold.insert(&features, label).unwrap();
        assert_eq!(idx as u64, 40 + round);
    }

    // Interleave: alternate an earlier candidate with never-before-seen
    // ones, after a delete. Answers stay byte-equal to cold at every step.
    let (version, _) = c.delete(2).unwrap();
    assert_eq!(version, 5);
    cold.delete(2).unwrap();
    for i in 0..8 {
        let (features, label) = if i % 2 == 0 {
            candidates[i % candidates.len()].clone()
        } else {
            (vec![i as f32 * 0.3, i as f32, -2.0], (i % 3) as u32)
        };
        let (version, value) = c.what_if(&features, label).unwrap();
        sent += 1;
        assert_eq!(version, 5);
        let expect = cold.what_if(&features, label).unwrap();
        assert_eq!(
            value.to_bits(),
            expect.to_bits(),
            "interleaved what-if {i} differs from cold evaluation"
        );
    }

    // `0.0` and `-0.0` twins: both are the cold answer, and the twins
    // agree (a squared difference does not see the sign of a zero).
    let mut twins = Vec::new();
    for zero in [0.0f32, -0.0] {
        let features = [zero, 0.5, zero];
        let (version, value) = c.what_if(&features, 1).unwrap();
        sent += 1;
        assert_eq!(version, 5);
        let expect = cold.what_if(&features, 1).unwrap();
        assert_eq!(value.to_bits(), expect.to_bits(), "twin {zero:?}");
        twins.push(value);
    }
    assert_eq!(twins[0].to_bits(), twins[1].to_bits(), "±0.0 twins differ");

    // A wrong dimension and a label too large for any class count are
    // refused, and the session keeps serving the cold bits after each.
    for (what, features, label) in [
        ("wrong dimension", vec![0.5, 0.5], 0),
        ("label u32::MAX", vec![0.5, 0.5, 0.5], u32::MAX),
    ] {
        match c.what_if(&features, label) {
            Err(ClientError::Server {
                code: ErrorCode::Rejected,
                ..
            }) => {}
            other => panic!("{what}: expected a Rejected answer, got {other:?}"),
        }
        let (features, label) = &candidates[1];
        let (version, value) = c.what_if(features, *label).unwrap();
        sent += 2;
        assert_eq!(version, 5, "{what}");
        let expect = cold.what_if(features, *label).unwrap();
        assert_eq!(value.to_bits(), expect.to_bits(), "after {what}");
    }

    // Every what-if sent, refused ones included, is counted as evaluated;
    // the cache slots of the frame stay 0.
    let m = c.metrics().unwrap();
    assert_eq!(m.whatif_misses, sent);
    assert_eq!((m.whatif_hits, m.whatif_evictions, m.whatif_len), (0, 0, 0));

    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
