//! Concurrency stress (ISSUE 6, satellite 2): N reader connections hammer
//! the daemon over real sockets while one writer applies a mutation
//! script. Assertions:
//!
//! * **No torn reads** — every dumped vector re-verifies its checksum
//!   (`Client::dump` recomputes the `(version, labels, values)` commitment
//!   client-side), and every `Stat`/`Get`/`Dump` version is one the writer
//!   actually published.
//! * **Monotone visibility** — on one connection, observed versions never
//!   go backwards (requests are handled in order and publication is a
//!   single pointer swap under a lock).
//! * **Convergence** — after the writer finishes, the served vector equals
//!   the cold batch recompute of the final dataset bit for bit.
//!
//! ISSUE 8 adds the **overload** scenario: with a small admission bound,
//! writers pushed past the queue receive the typed `Busy` refusal — they
//! never hang and never observe a torn snapshot — every refused mutation
//! retries to an eventual commit, committed versions stay gapless, and
//! readers keep answering throughout. A bound of zero is the deterministic
//! limit: a read-only daemon that refuses every mutation.

use knnshap_core::exact_unweighted::knn_class_shapley_with_threads;
use knnshap_datasets::synth::blobs::{self, BlobConfig};
use knnshap_serve::client::Client;
use knnshap_serve::protocol::BatchMutation;
use knnshap_serve::server::{bind, Endpoint, ValuationServer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const READERS: usize = 4;
const MUTATIONS: usize = 40;
const K: usize = 3;

#[test]
fn readers_see_only_coherent_snapshots_under_write_load() {
    let cfg = BlobConfig {
        n: 60,
        dim: 4,
        n_classes: 3,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 8, 5));
    let server = ValuationServer::new(train, test.clone(), K, 2).unwrap();
    let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = bound.local_endpoint().clone();
    let daemon = std::thread::spawn(move || bound.run());

    let writer_done = Arc::new(AtomicBool::new(false));
    // Number of mutations the writer has SENT so far — bumped before each
    // request goes out. The server cannot publish version N before mutation
    // N was sent, so this is a sound ceiling on observable versions. (The
    // acknowledged count is NOT: the server publishes before answering, so
    // a reader can legitimately observe version N in the window between
    // publication and the writer receiving its ack.)
    let sent = Arc::new(AtomicU64::new(0));

    let writer = {
        let endpoint = endpoint.clone();
        let writer_done = Arc::clone(&writer_done);
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            let mut c = Client::connect(&endpoint).unwrap();
            for step in 0..MUTATIONS {
                sent.store(step as u64 + 1, Ordering::SeqCst);
                let version = if step % 3 == 2 {
                    // Delete a low index — always valid, dataset stays ≥ 2.
                    let (version, _) = c.delete(step as u64 % 5).unwrap();
                    version
                } else {
                    let f = step as f32 / 10.0;
                    let (version, _) = c.insert(&[f, -f, f + 1.0, 0.5], (step % 3) as u32).unwrap();
                    version
                };
                assert_eq!(version, step as u64 + 1, "writer versions are gapless");
            }
            writer_done.store(true, Ordering::SeqCst);
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let endpoint = endpoint.clone();
            let writer_done = Arc::clone(&writer_done);
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || {
                let mut c = Client::connect(&endpoint).unwrap();
                let mut last_version = 0u64;
                let mut observed = 0usize;
                let check = |version: u64, last: &mut u64| {
                    // `sent` only grows and is read AFTER the response
                    // arrived, so it can only over-approximate the sent
                    // count at answer time — never under-approximate the
                    // published version.
                    let ceiling = sent.load(Ordering::SeqCst);
                    assert!(
                        version <= ceiling,
                        "reader {r} saw unpublished version {version} (ceiling {ceiling})"
                    );
                    assert!(
                        version >= *last,
                        "reader {r} went backwards: {version} after {last}"
                    );
                    *last = version;
                };
                while !writer_done.load(Ordering::SeqCst) || observed < 6 {
                    match observed % 3 {
                        0 => {
                            let s = c.stat().unwrap();
                            check(s.version, &mut last_version);
                            assert_eq!(s.n_test, 8);
                            assert_eq!(s.k, K as u64);
                        }
                        1 => {
                            // dump() re-verifies the checksum client-side:
                            // any torn (version, labels, values) triple
                            // turns into a ChecksumMismatch error here.
                            let d = c.dump().unwrap();
                            check(d.version, &mut last_version);
                            assert_eq!(d.labels.len(), d.values.len());
                            assert!(
                                d.values.iter().all(|v| v.is_finite()),
                                "reader {r}: non-finite served value"
                            );
                        }
                        _ => {
                            let (version, value) = c.get(0).unwrap();
                            check(version, &mut last_version);
                            assert!(value.is_finite());
                        }
                    }
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    writer.join().expect("writer");
    for r in readers {
        let observed = r.join().expect("reader");
        assert!(observed >= 6);
    }

    // Convergence: the final served state equals a cold recompute of the
    // final dataset, bit for bit — fetched over the socket like any client.
    let mut c = Client::connect(&endpoint).unwrap();
    let dump = c.dump().unwrap();
    assert_eq!(dump.version, MUTATIONS as u64);

    let (_, csv) = c.train_csv().unwrap();
    let path = std::env::temp_dir().join(format!("knnshap-stress-{}.csv", std::process::id()));
    std::fs::write(&path, &csv).unwrap();
    let final_train = knnshap_datasets::io::load_class_csv(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let cold = knn_class_shapley_with_threads(&final_train, &test, K, 1);
    assert_eq!(dump.values.len(), cold.len());
    for i in 0..cold.len() {
        assert_eq!(
            dump.values[i].to_bits(),
            cold.get(i).to_bits(),
            "final served value {i} differs from the cold recompute"
        );
    }
    assert_eq!(
        dump.labels, final_train.y,
        "served labels track the dataset"
    );

    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// Many clients mutating concurrently (no coordination): every mutation is
/// serialized by the engine's write lock, so versions come out gapless,
/// and the end state matches replaying the *observed* interleaving.
#[test]
fn concurrent_writers_serialize_cleanly() {
    let cfg = BlobConfig {
        n: 30,
        dim: 3,
        n_classes: 2,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 4, 2));
    let server = ValuationServer::new(train, test, 2, 1).unwrap();
    let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = bound.local_endpoint().clone();
    let daemon = std::thread::spawn(move || bound.run());

    const WRITERS: usize = 4;
    const EACH: usize = 5;
    let versions: Vec<u64> = (0..WRITERS)
        .map(|w| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&endpoint).unwrap();
                let mut seen = Vec::new();
                for i in 0..EACH {
                    let f = (w * EACH + i) as f32;
                    let (version, _) = c.insert(&[f, f, f], (w % 2) as u32).unwrap();
                    seen.push(version);
                }
                seen
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flat_map(|h| h.join().expect("writer"))
        .collect();

    // Each writer's versions are strictly increasing per connection, and
    // collectively the WRITERS×EACH mutations got exactly the versions
    // 1..=total, each once — no gaps, no duplicates, no lost updates.
    let mut sorted = versions.clone();
    sorted.sort_unstable();
    let expect: Vec<u64> = (1..=(WRITERS * EACH) as u64).collect();
    assert_eq!(
        sorted, expect,
        "every mutation got a unique, gapless version"
    );

    let mut c = Client::connect(&endpoint).unwrap();
    let stat = c.stat().unwrap();
    assert_eq!(stat.version, (WRITERS * EACH) as u64);
    assert_eq!(stat.n_train, 30 + (WRITERS * EACH) as u64);
    let dump = c.dump().unwrap(); // checksum-verified
    assert_eq!(dump.values.len(), stat.n_train as usize);

    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// Overload: a tiny admission bound under heavy concurrent write pressure.
/// A refused writer gets the typed `Busy` response — never a hang, never a
/// torn snapshot — and retrying eventually commits every mutation. All
/// committed versions are gapless and unique; a reader hammering `Stat`
/// and checksum-verified `Dump` throughout never sees a version move
/// backwards.
#[test]
fn overloaded_writers_get_busy_and_retry_to_completion() {
    let cfg = BlobConfig {
        n: 24,
        dim: 3,
        n_classes: 2,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 3, 11));
    let server = ValuationServer::new(train, test, 2, 1).unwrap();
    // Two queued mutations, tops. Concurrent groups past that are refused
    // at the door (all-or-nothing), so the writers below MUST be prepared
    // to see Busy — that's the point.
    server.set_queue_bound(2);
    let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = bound.local_endpoint().clone();
    let daemon = std::thread::spawn(move || bound.run());

    const WRITERS: usize = 4;
    const SINGLES: usize = 4; // per writer: single-mutation requests…
    const BATCHES: usize = 3; // …plus two-mutation Batch frames
    const TOTAL: usize = WRITERS * (SINGLES + 2 * BATCHES);

    let writers_done = Arc::new(AtomicBool::new(false));
    let busy_seen = Arc::new(AtomicU64::new(0));

    let reader = {
        let endpoint = endpoint.clone();
        let writers_done = Arc::clone(&writers_done);
        std::thread::spawn(move || {
            let mut c = Client::connect(&endpoint).unwrap();
            let mut last = 0u64;
            let mut observed = 0usize;
            while !writers_done.load(Ordering::SeqCst) || observed < 4 {
                let s = c.stat().unwrap();
                assert!(s.version >= last, "reader went backwards under overload");
                last = s.version;
                let d = c.dump().unwrap(); // torn data => ChecksumMismatch
                assert!(d.version >= last, "dump went backwards under overload");
                last = d.version;
                assert_eq!(d.labels.len(), d.values.len());
                observed += 1;
            }
            observed
        })
    };

    let versions: Vec<u64> = (0..WRITERS)
        .map(|w| {
            let endpoint = endpoint.clone();
            let busy_seen = Arc::clone(&busy_seen);
            std::thread::spawn(move || {
                let mut c = Client::connect(&endpoint).unwrap();
                let mut committed = Vec::new();
                for i in 0..SINGLES {
                    let f = (w * 100 + i) as f32;
                    loop {
                        match c.insert(&[f, -f, f], (w % 2) as u32) {
                            Ok((version, _)) => {
                                committed.push(version);
                                break;
                            }
                            Err(e) if e.is_busy() => {
                                busy_seen.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("writer {w}: non-Busy failure: {e}"),
                        }
                    }
                }
                for b in 0..BATCHES {
                    let f = (w * 100 + 50 + b) as f32;
                    // Insert + delete-index-0: both always valid (the set
                    // only grows net, so index 0 exists), group size 2 fits
                    // the bound — admission is the only way this can fail.
                    let group = [
                        BatchMutation::Insert {
                            features: vec![f, f, -f],
                            label: (b % 2) as u32,
                        },
                        BatchMutation::Delete { index: 0 },
                    ];
                    loop {
                        match c.apply_batch(&group) {
                            Ok((_, outcomes)) => {
                                assert_eq!(outcomes.len(), 2);
                                for o in outcomes {
                                    match o {
                                        knnshap_serve::protocol::BatchOutcome::Applied {
                                            version,
                                            ..
                                        } => committed.push(version),
                                        other => panic!("writer {w}: rejected: {other:?}"),
                                    }
                                }
                                break;
                            }
                            Err(e) if e.is_busy() => {
                                busy_seen.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("writer {w}: non-Busy failure: {e}"),
                        }
                    }
                }
                committed
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flat_map(|h| h.join().expect("writer"))
        .collect();
    writers_done.store(true, Ordering::SeqCst);
    assert!(reader.join().expect("reader") >= 4);

    // Every refused request was retried to a commit: the TOTAL mutations
    // hold exactly the versions 1..=TOTAL, each once — Busy refusals are
    // true no-ops, they never consume a version.
    let mut sorted = versions;
    sorted.sort_unstable();
    let expect: Vec<u64> = (1..=TOTAL as u64).collect();
    assert_eq!(sorted, expect, "committed versions gapless despite Busy");

    let mut c = Client::connect(&endpoint).unwrap();
    let stat = c.stat().unwrap();
    assert_eq!(stat.version, TOTAL as u64);
    assert_eq!(
        stat.n_train,
        24 + (WRITERS * SINGLES) as u64 // batch insert+delete pairs net zero
    );
    let dump = c.dump().unwrap(); // checksum-verified final state
    assert_eq!(dump.values.len(), stat.n_train as usize);

    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// Admission bound **one** — the tightest bound that still admits work —
/// with every writer on the client's built-in `Busy` auto-retry
/// (`Backoff`: capped exponential, deterministic jitter) instead of a
/// hand-rolled loop. At bound 1 at most one mutation group is in the queue
/// at a time, so four concurrent writers hammer the refusal path
/// constantly; the auto-retry must carry every refused group to an
/// eventual commit. Proof obligations: the committed versions are exactly
/// `1..=TOTAL` (gapless and unique — a refused group never consumes a
/// version, a retried group commits exactly once), the final dataset size
/// matches, and a concurrent reader never observes a torn or regressing
/// snapshot.
#[test]
fn bound_one_overload_auto_retry_commits_every_group() {
    let cfg = BlobConfig {
        n: 24,
        dim: 3,
        n_classes: 2,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 3, 13));
    let server = ValuationServer::new(train, test, 2, 1).unwrap();
    server.set_queue_bound(1);
    let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = bound.local_endpoint().clone();
    let daemon = std::thread::spawn(move || bound.run());

    const WRITERS: usize = 4;
    const SINGLES: usize = 4; // per writer: auto-retried single mutations…
    const BATCHES: usize = 3; // …plus one-mutation Batch groups (bound 1!)
    const TOTAL: usize = WRITERS * (SINGLES + BATCHES);

    let writers_done = Arc::new(AtomicBool::new(false));

    let reader = {
        let endpoint = endpoint.clone();
        let writers_done = Arc::clone(&writers_done);
        std::thread::spawn(move || {
            let mut c = Client::connect(&endpoint).unwrap();
            let mut last = 0u64;
            let mut observed = 0usize;
            while !writers_done.load(Ordering::SeqCst) || observed < 4 {
                let s = c.stat().unwrap();
                assert!(s.version >= last, "reader went backwards at bound 1");
                last = s.version;
                let d = c.dump().unwrap(); // torn data => ChecksumMismatch
                assert!(d.version >= last, "dump went backwards at bound 1");
                last = d.version;
                observed += 1;
            }
            observed
        })
    };

    let versions: Vec<u64> = (0..WRITERS)
        .map(|w| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&endpoint).unwrap();
                // Tiny real delays so the test exercises the sleeping path,
                // distinct seeds so the writers' schedules decorrelate.
                // Unbounded attempts: at bound 1 liveness comes from the
                // engine draining the queue, and every refusal is a no-op.
                let backoff = knnshap_serve::client::Backoff::new(
                    std::time::Duration::from_micros(50),
                    std::time::Duration::from_millis(2),
                    usize::MAX,
                    w as u64,
                );
                let mut committed = Vec::new();
                for i in 0..SINGLES {
                    let f = (w * 100 + i) as f32;
                    let (version, _) = c
                        .insert_retrying(&[f, -f, f], (w % 2) as u32, &backoff)
                        .expect("auto-retry must end in a commit");
                    committed.push(version);
                }
                for b in 0..BATCHES {
                    let f = (w * 100 + 50 + b) as f32;
                    let group = [BatchMutation::Insert {
                        features: vec![f, f, -f],
                        label: (b % 2) as u32,
                    }];
                    let (_, outcomes) = c
                        .apply_batch_retrying(&group, &backoff)
                        .expect("auto-retry must end in a commit");
                    assert_eq!(outcomes.len(), 1);
                    match &outcomes[0] {
                        knnshap_serve::protocol::BatchOutcome::Applied { version, .. } => {
                            committed.push(*version)
                        }
                        other => panic!("writer {w}: rejected: {other:?}"),
                    }
                }
                committed
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flat_map(|h| h.join().expect("writer"))
        .collect();
    writers_done.store(true, Ordering::SeqCst);
    assert!(reader.join().expect("reader") >= 4);

    let mut sorted = versions;
    sorted.sort_unstable();
    let expect: Vec<u64> = (1..=TOTAL as u64).collect();
    assert_eq!(
        sorted, expect,
        "every refused group was retried to exactly one commit"
    );

    let mut c = Client::connect(&endpoint).unwrap();
    let stat = c.stat().unwrap();
    assert_eq!(stat.version, TOTAL as u64);
    assert_eq!(stat.n_train, 24 + TOTAL as u64); // all inserts, no deletes
    let dump = c.dump().unwrap(); // checksum-verified final state
    assert_eq!(dump.values.len(), stat.n_train as usize);

    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// The auto-retry's give-up path, pinned deterministically: against a
/// bound-zero (read-only) daemon every attempt is refused, so a
/// `max_attempts = 3` policy makes exactly 3 attempts and surfaces the
/// final `Busy` — it neither hangs nor masks the refusal as success.
#[test]
fn auto_retry_gives_up_with_busy_after_max_attempts() {
    let cfg = BlobConfig {
        n: 16,
        dim: 2,
        n_classes: 2,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 2, 3));
    let server = ValuationServer::new(train, test, 2, 1).unwrap();
    server.set_queue_bound(0);
    let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = bound.local_endpoint().clone();
    let daemon = std::thread::spawn(move || bound.run());

    let mut c = Client::connect(&endpoint).unwrap();
    let backoff = knnshap_serve::client::Backoff::new(
        std::time::Duration::ZERO, // yield-only: no real sleeping in tests
        std::time::Duration::ZERO,
        3,
        0,
    );
    let mut attempts = 0usize;
    let err = c
        .retry_busy(&backoff, |c| {
            attempts += 1;
            c.insert(&[0.1, 0.2], 0)
        })
        .unwrap_err();
    assert!(err.is_busy(), "final error must be the Busy refusal: {err}");
    assert_eq!(attempts, 3, "exactly max_attempts tries");

    // Nothing committed anywhere along the way.
    let stat = c.stat().unwrap();
    assert_eq!((stat.version, stat.n_train), (0, 16));

    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// The deterministic limit of admission control: bound zero turns the
/// daemon read-only. Every mutation — single or batched — is refused with
/// the typed `Busy` error, nothing is ever published, and reads keep
/// answering version 0 throughout.
#[test]
fn queue_bound_zero_is_a_read_only_daemon_over_sockets() {
    let cfg = BlobConfig {
        n: 20,
        dim: 2,
        n_classes: 2,
        ..Default::default()
    };
    let (train, test) = (blobs::generate(&cfg), blobs::queries(&cfg, 3, 7));
    let server = ValuationServer::new(train, test, 2, 1).unwrap();
    server.set_queue_bound(0);
    let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = bound.local_endpoint().clone();
    let daemon = std::thread::spawn(move || bound.run());

    let mut c = Client::connect(&endpoint).unwrap();
    let insert = c.insert(&[0.1, 0.2], 0).unwrap_err();
    assert!(insert.is_busy(), "insert must be refused: {insert}");
    let delete = c.delete(0).unwrap_err();
    assert!(delete.is_busy(), "delete must be refused: {delete}");
    let batch = c
        .apply_batch(&[BatchMutation::Delete { index: 0 }])
        .unwrap_err();
    assert!(batch.is_busy(), "batch must be refused: {batch}");

    // Refusals happen before anything is enqueued or applied.
    let stat = c.stat().unwrap();
    assert_eq!((stat.version, stat.n_train), (0, 20));
    let dump = c.dump().unwrap();
    assert_eq!(dump.version, 0);
    let (_, value) = c.what_if(&[0.3, -0.3], 1).unwrap();
    assert!(
        value.is_finite(),
        "reads still answer on a read-only daemon"
    );

    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}
