//! What-if cache consistency (ISSUE 8, satellite 3): interleaved cached
//! and uncached what-if queries across version bumps, with every answer
//! checked **byte-equal** against a cold `ResidentValuator` evaluation of
//! the same candidate at the same dataset version.
//!
//! The cache contract under test: a hit returns exactly the bits the cold
//! path would produce (values are cached verbatim, never recomputed or
//! rounded); a version bump invalidates wholesale, so no answer computed
//! under version `v` is ever served at `v' != v`; and stats expose the
//! hit/miss ledger so the test can prove each answer's provenance — the
//! bitwise checks hold on *both* sides of the cache.

use knnshap_core::resident::ResidentValuator;
use knnshap_datasets::synth::blobs::{self, BlobConfig};
use knnshap_serve::client::Client;
use knnshap_serve::server::{bind, Endpoint, ValuationServer};
use knnshap_serve::Request;

#[test]
fn cached_and_uncached_whatifs_are_byte_equal_to_cold_evaluation() {
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
    for round in 0..4u64 {
        // Pass 1 over all candidates: every query at this version is a
        // miss (fresh version ⇒ empty cache). Pass 2: every query is a
        // hit. Both must carry the current version and the cold bits.
        for pass in 0..2 {
            for (i, (features, label)) in candidates.iter().enumerate() {
                let (version, value) = c.what_if(features, *label).unwrap();
                assert_eq!(version, round, "what-if answered at a stale version");
                let expect = cold.what_if(features, *label).unwrap();
                assert_eq!(
                    value.to_bits(),
                    expect.to_bits(),
                    "round {round} pass {pass} candidate {i}: served what-if \
                     differs from cold evaluation at the same version"
                );
            }
        }

        // Bump the version and prove the cache died with the old one: the
        // same candidates must now produce *different* answers wherever
        // the dataset change moved them, and must again match cold.
        let (features, label) = (vec![round as f32, 1.0, -1.0], (round % 3) as u32);
        let (version, _) = c.insert(&features, label).unwrap();
        assert_eq!(version, round + 1);
        let idx = cold.insert(&features, label).unwrap();
        assert_eq!(idx as u64, 40 + round);
    }

    // Interleave: alternate a cached candidate with never-before-seen
    // ones, deleting mid-stream. Answers stay byte-equal to cold at every
    // step regardless of which side of the cache they come from.
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
        assert_eq!(version, 5);
        let expect = cold.what_if(&features, label).unwrap();
        assert_eq!(
            value.to_bits(),
            expect.to_bits(),
            "interleaved what-if {i} differs from cold evaluation"
        );
    }

    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// The stats ledger proves the caching actually happened (the bitwise
/// test above would also pass with a cache that never stores anything),
/// and that rejected what-ifs are never cached. In-process — stats aren't
/// on the wire.
#[test]
fn whatif_stats_prove_hits_and_invalidation() {
    let cfg = BlobConfig {
        n: 30,
        dim: 2,
        n_classes: 2,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 4, 9));
    let srv = ValuationServer::new(train, test, 2, 1).unwrap();

    let ask = |features: Vec<f32>, label: u32| {
        srv.handle(&Request::WhatIf { features, label });
    };

    ask(vec![0.5, 0.5], 0); // miss, fills
    ask(vec![0.5, 0.5], 0); // hit
    ask(vec![0.5, 0.5], 1); // different label: its own entry, miss
    ask(vec![-0.5, 0.25], 1); // miss
    ask(vec![0.5, 0.5], 1); // hit
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.misses, s.len, s.version), (2, 3, 3, 0));

    // Rejected candidates (wrong dimension) never enter the cache. The
    // lookup still runs (and counts a miss) — the refusal comes from the
    // engine, after the cache comes up empty.
    ask(vec![0.5], 0);
    let s = srv.whatif_stats();
    assert_eq!((s.misses, s.len), (4, 3), "rejections are not cached");

    // A committed mutation bumps the version; the first access at the new
    // version clears the map wholesale — the old entries are gone even
    // for bit-identical keys.
    srv.handle(&Request::Delete { index: 0 });
    ask(vec![0.5, 0.5], 0); // would have been a hit at version 0
    let s = srv.whatif_stats();
    assert_eq!(
        (s.hits, s.misses, s.len, s.version),
        (2, 5, 1, 1),
        "version bump must invalidate wholesale"
    );

    // Capacity 0 disables storage entirely: every ask is a miss forever.
    srv.set_whatif_capacity(0);
    ask(vec![0.5, 0.5], 0);
    ask(vec![0.5, 0.5], 0);
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.len), (2, 0), "capacity 0 stores nothing");
}

/// Asks the in-process server a what-if and returns the served value.
fn ask_value(srv: &knnshap_serve::ValuationServer, features: &[f32], label: u32) -> f64 {
    match srv.handle(&Request::WhatIf {
        features: features.to_vec(),
        label,
    }) {
        knnshap_serve::Response::Value { value, .. } => value,
        other => panic!("what-if answered {other:?}"),
    }
}

/// Capacity **one** — the smallest cache that still caches. The single
/// slot must behave as a textbook LRU of size 1: it always holds the most
/// recently stored candidate, every distinct-candidate access evicts the
/// previous resident, a repeat of the resident hits, and every answer —
/// hit or miss — is bit-equal to a cold evaluation. The stats ledger pins
/// each transition, so the eviction order is proven, not inferred.
#[test]
fn capacity_one_is_a_single_slot_lru() {
    let cfg = BlobConfig {
        n: 30,
        dim: 2,
        n_classes: 2,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 4, 21));
    let srv = ValuationServer::new(train.clone(), test.clone(), 2, 1).unwrap();
    srv.set_whatif_capacity(1);
    let cold = ResidentValuator::new(train, test, 2, 1).unwrap();

    let a: (&[f32], u32) = (&[0.4, -0.4], 0);
    let b: (&[f32], u32) = (&[-0.7, 0.2], 1);
    let cold_a = cold.what_if(a.0, a.1).unwrap();
    let cold_b = cold.what_if(b.0, b.1).unwrap();

    // Miss fills the slot; the repeat hits and returns the same bits.
    let v1 = ask_value(&srv, a.0, a.1);
    let v2 = ask_value(&srv, a.0, a.1);
    assert_eq!(v1.to_bits(), cold_a.to_bits(), "miss path bits");
    assert_eq!(v2.to_bits(), cold_a.to_bits(), "hit path bits");
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));

    // B evicts A (the only possible victim)…
    let v3 = ask_value(&srv, b.0, b.1);
    assert_eq!(v3.to_bits(), cold_b.to_bits());
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.misses, s.len), (1, 2, 1), "B filled the slot");

    // …so A misses now (proving A was evicted), which in turn evicts B…
    let v4 = ask_value(&srv, a.0, a.1);
    assert_eq!(v4.to_bits(), cold_a.to_bits());
    let s = srv.whatif_stats();
    assert_eq!(
        (s.hits, s.misses, s.len),
        (1, 3, 1),
        "A evicted, recomputed"
    );

    // …so B misses (proving the slot tracks the most recent put)…
    let v5 = ask_value(&srv, b.0, b.1);
    assert_eq!(v5.to_bits(), cold_b.to_bits());
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.misses, s.len), (1, 4, 1));

    // …and the resident B hits, bit-equal to its first computation.
    let v6 = ask_value(&srv, b.0, b.1);
    assert_eq!(v6.to_bits(), v3.to_bits(), "hit replays the cached bits");
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.misses, s.len), (2, 4, 1));
}

/// Shrinking a populated cache to capacity 1 must evict in LRU order: the
/// sole survivor is the most recently *used* entry, not the most recently
/// inserted one.
#[test]
fn shrinking_to_capacity_one_keeps_the_most_recently_used_entry() {
    let cfg = BlobConfig {
        n: 24,
        dim: 2,
        n_classes: 2,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 3, 5));
    let srv = ValuationServer::new(train, test, 2, 1).unwrap();

    let a: (&[f32], u32) = (&[0.1, 0.1], 0);
    let b: (&[f32], u32) = (&[0.2, 0.2], 1);
    let c: (&[f32], u32) = (&[0.3, 0.3], 0);
    ask_value(&srv, a.0, a.1); // tick 1: A
    ask_value(&srv, b.0, b.1); // tick 2: B
    ask_value(&srv, c.0, c.1); // tick 3: C
    ask_value(&srv, a.0, a.1); // tick 4: A touched — now the MRU
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.misses, s.len), (1, 3, 3));

    srv.set_whatif_capacity(1);
    assert_eq!(srv.whatif_stats().len, 1, "shrink evicted down to capacity");

    // A survives (MRU); B and C are gone.
    ask_value(&srv, a.0, a.1);
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.misses), (2, 3), "survivor must be the MRU entry");
    ask_value(&srv, b.0, b.1);
    ask_value(&srv, c.0, c.1);
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.misses), (2, 5), "LRU entries were evicted");
}

/// Capacity **zero** over real queries and a version bump: never stores,
/// never hits, yet every answer stays bit-equal to the cold evaluation at
/// the current version — the cache being off must not cost correctness,
/// only recomputation.
#[test]
fn capacity_zero_recomputes_every_time_and_stays_bit_exact() {
    let cfg = BlobConfig {
        n: 28,
        dim: 3,
        n_classes: 2,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 4, 17));
    let srv = ValuationServer::new(train.clone(), test.clone(), 2, 1).unwrap();
    srv.set_whatif_capacity(0);
    let mut cold = ResidentValuator::new(train, test, 2, 1).unwrap();

    let cand: (&[f32], u32) = (&[0.6, -0.1, 0.3], 1);
    let first = ask_value(&srv, cand.0, cand.1);
    let second = ask_value(&srv, cand.0, cand.1);
    let expect = cold.what_if(cand.0, cand.1).unwrap();
    assert_eq!(first.to_bits(), expect.to_bits());
    assert_eq!(
        second.to_bits(),
        first.to_bits(),
        "recomputation is deterministic"
    );
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.misses, s.len), (0, 2, 0), "nothing ever stored");

    // Version bump: still correct, still uncached.
    srv.handle(&Request::Insert {
        features: vec![1.0, 1.0, -1.0],
        label: 0,
    });
    cold.insert(&[1.0, 1.0, -1.0], 0).unwrap();
    let after = ask_value(&srv, cand.0, cand.1);
    let expect = cold.what_if(cand.0, cand.1).unwrap();
    assert_eq!(
        after.to_bits(),
        expect.to_bits(),
        "bit-exact at the new version"
    );
    let s = srv.whatif_stats();
    assert_eq!((s.hits, s.misses, s.len), (0, 3, 0));
}
