//! Protocol robustness (ISSUE 6, satellite 3): a live daemon fed
//! truncated frames, oversized length prefixes, unknown opcodes, malformed
//! bodies and mid-request disconnects must answer with clean protocol
//! errors or drop the one bad session — never panic, never wedge the
//! accept loop, never poison state for well-behaved clients. Mirrors the
//! corrupt-header hardening the KNNSHARD partial format got in PR 4, at
//! the socket layer.

use knnshap_datasets::synth::blobs::{self, BlobConfig};
use knnshap_serve::client::Client;
use knnshap_serve::protocol::{read_frame, write_frame, ErrorCode, Request, Response, MAX_FRAME};
use knnshap_serve::server::{bind, Endpoint, ValuationServer};
use std::io::Write;
use std::net::TcpStream;

fn spawn_daemon() -> (Endpoint, std::thread::JoinHandle<std::io::Result<()>>) {
    let cfg = BlobConfig {
        n: 20,
        dim: 3,
        n_classes: 2,
        ..Default::default()
    };
    let server =
        ValuationServer::new(blobs::generate(&cfg), blobs::queries(&cfg, 3, 1), 2, 1).unwrap();
    let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = bound.local_endpoint().clone();
    (endpoint, std::thread::spawn(move || bound.run()))
}

fn raw_connect(endpoint: &Endpoint) -> TcpStream {
    let Endpoint::Tcp(addr) = endpoint else {
        panic!("tcp endpoint expected")
    };
    TcpStream::connect(addr.as_str()).expect("connect")
}

/// The daemon still answers a well-formed request — the liveness probe run
/// after every abuse below.
fn assert_alive(endpoint: &Endpoint) {
    let mut c = Client::connect(endpoint).expect("connect for liveness probe");
    let stat = c.stat().expect("daemon must still answer Stat");
    assert_eq!(stat.n_train, 20);
}

#[test]
fn hostile_bytes_never_wedge_the_daemon() {
    let (endpoint, daemon) = spawn_daemon();

    // --- Oversized length prefix: one error response, then close. -------
    {
        let mut s = raw_connect(&endpoint);
        s.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        s.flush().unwrap();
        let payload = read_frame(&mut s).expect("error frame").expect("not eof");
        match Response::decode(&payload).expect("decodable error") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("frame cap"), "{message}");
            }
            other => panic!("expected an error response, got {other:?}"),
        }
        // The server closed its end: the next read is clean EOF.
        assert!(read_frame(&mut s).expect("clean close").is_none());
    }
    assert_alive(&endpoint);

    // --- Zero-length frame: same treatment. -----------------------------
    {
        let mut s = raw_connect(&endpoint);
        s.write_all(&0u32.to_le_bytes()).unwrap();
        s.flush().unwrap();
        let payload = read_frame(&mut s).unwrap().expect("error frame");
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }
    assert_alive(&endpoint);

    // --- Unknown opcode: error response, session SURVIVES. --------------
    {
        let mut s = raw_connect(&endpoint);
        write_frame(&mut s, &[0x6F]).unwrap(); // no such opcode
        let payload = read_frame(&mut s).unwrap().expect("error frame");
        match Response::decode(&payload).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("opcode"), "{message}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        // Frame boundaries were intact, so the same connection still works.
        write_frame(&mut s, &Request::Stat.encode()).unwrap();
        let payload = read_frame(&mut s).unwrap().expect("stat response");
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Stat { n_train: 20, .. }
        ));
    }

    // --- Malformed body (Get with a short index): session survives. -----
    {
        let mut s = raw_connect(&endpoint);
        write_frame(&mut s, &[0x02, 1, 2, 3]).unwrap(); // Get wants 8 bytes
        let payload = read_frame(&mut s).unwrap().expect("error frame");
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        write_frame(&mut s, &Request::Stat.encode()).unwrap();
        assert!(
            read_frame(&mut s).unwrap().is_some(),
            "session must survive"
        );
    }

    // --- Truncated frame then disconnect (mid-request hangup). ----------
    {
        let mut s = raw_connect(&endpoint);
        s.write_all(&100u32.to_le_bytes()).unwrap(); // promise 100 bytes…
        s.write_all(&[1, 2, 3]).unwrap(); // …deliver 3, vanish.
        s.flush().unwrap();
        drop(s);
    }
    assert_alive(&endpoint);

    // --- Torn length prefix then disconnect. ----------------------------
    {
        let mut s = raw_connect(&endpoint);
        s.write_all(&[9]).unwrap(); // 1 of 4 prefix bytes
        s.flush().unwrap();
        drop(s);
    }
    assert_alive(&endpoint);

    // --- Connect and say nothing. ---------------------------------------
    drop(raw_connect(&endpoint));
    assert_alive(&endpoint);

    // --- A flood of garbage across several connections. ------------------
    for junk in [
        &[0xFFu8, 0xFF, 0xFF, 0x7F][..],                   // prefix ~2 GiB
        &[0x01, 0x00, 0x00, 0x00, 0xEE],                   // unknown opcode 0xEE
        &[0x04, 0x00, 0x00, 0x00, 0x05, 0x01, 0x02, 0x03], // short WhatIf
    ] {
        let mut s = raw_connect(&endpoint);
        s.write_all(junk).unwrap();
        s.flush().unwrap();
        let _ = read_frame(&mut s); // whatever comes back, if anything
    }
    assert_alive(&endpoint);

    // The daemon state never moved: all that abuse committed nothing.
    let mut c = Client::connect(&endpoint).unwrap();
    assert_eq!(c.stat().unwrap().version, 0);

    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// Domain-level rejections travel as `Rejected` error responses and leave
/// the session and the daemon state intact.
#[test]
fn engine_rejections_are_clean_protocol_errors() {
    let (endpoint, daemon) = spawn_daemon();
    let mut c = Client::connect(&endpoint).unwrap();

    for (what, result) in [
        (
            "get out of range",
            c.get(10_000).err().map(|e| e.to_string()),
        ),
        (
            "delete out of range",
            c.delete(99).err().map(|e| e.to_string()),
        ),
        (
            "insert wrong dim",
            c.insert(&[1.0], 0).err().map(|e| e.to_string()),
        ),
        (
            "insert non-finite",
            c.insert(&[f32::NAN, 0.0, 0.0], 0)
                .err()
                .map(|e| e.to_string()),
        ),
        (
            "what-if wrong dim",
            c.what_if(&[1.0, 2.0], 0).err().map(|e| e.to_string()),
        ),
    ] {
        let msg = result.unwrap_or_else(|| panic!("{what}: should have been rejected"));
        assert!(msg.contains("server error"), "{what}: {msg}");
    }

    // Same connection keeps working, nothing was committed.
    let stat = c.stat().unwrap();
    assert_eq!((stat.version, stat.n_train), (0, 20));

    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// A label at `u32::MAX` has no class count that fits a `u32`: insert,
/// what-if and a batch insert each get a `Rejected` answer, the session
/// keeps serving, and the exported training set still loads.
#[test]
fn a_label_at_u32_max_is_rejected_and_the_session_keeps_serving() {
    use knnshap_serve::client::ClientError;
    use knnshap_serve::protocol::{BatchMutation, BatchOutcome};
    let (endpoint, daemon) = spawn_daemon();
    let mut c = Client::connect(&endpoint).unwrap();
    let row = [0.5f32, -0.25, 1.0];

    for (what, err) in [
        ("insert", c.insert(&row, u32::MAX).err()),
        ("what-if", c.what_if(&row, u32::MAX).err()),
    ] {
        match err {
            Some(ClientError::Server {
                code: ErrorCode::Rejected,
                message,
            }) => assert!(message.contains("too large"), "{what}: {message}"),
            other => panic!("{what}: expected a Rejected answer, got {other:?}"),
        }
    }
    let (version, outcomes) = c
        .apply_batch(&[
            BatchMutation::Insert {
                features: row.to_vec(),
                label: u32::MAX,
            },
            BatchMutation::Insert {
                features: row.to_vec(),
                label: u32::MAX - 1,
            },
        ])
        .unwrap();
    assert_eq!(version, 1);
    assert!(matches!(
        outcomes[0],
        BatchOutcome::Rejected {
            code: ErrorCode::Rejected,
            ..
        }
    ));
    assert!(matches!(
        outcomes[1],
        BatchOutcome::Applied {
            version: 1,
            index: 20
        }
    ));

    // The same session keeps answering, and the largest accepted label
    // still round-trips through the CSV loader.
    let stat = c.stat().unwrap();
    assert_eq!((stat.version, stat.n_train), (1, 21));
    let (_, csv) = c.train_csv().unwrap();
    let path = std::env::temp_dir().join(format!("knnshap-label-bound-{}.csv", std::process::id()));
    std::fs::write(&path, &csv).unwrap();
    let loaded = knnshap_datasets::io::load_class_csv(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.unwrap().y[20], u32::MAX - 1);

    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// Shutdown drains cleanly even with another session open: the open
/// session's connection keeps being served until IT disconnects; `run`
/// returns once sessions finish.
#[test]
fn shutdown_with_concurrent_sessions_drains() {
    let (endpoint, daemon) = spawn_daemon();
    let mut idle = Client::connect(&endpoint).unwrap();
    idle.stat().unwrap();

    let mut killer = Client::connect(&endpoint).unwrap();
    killer.shutdown().unwrap();

    // The already-open session still answers (its thread drains naturally).
    idle.stat().unwrap();
    drop(idle);

    daemon.join().unwrap().unwrap();
}

/// One encoded example of every request and response tag, the v4 export
/// frames included.
fn every_frame() -> (Vec<Request>, Vec<Response>) {
    use knnshap_serve::protocol::{BatchMutation, BatchOutcome, MetricsHistogram};
    let histogram = MetricsHistogram {
        count: 2,
        sum: 5,
        min: 1,
        max: 4,
        buckets: vec![0, 1, 0, 1],
    };
    let requests = vec![
        Request::Stat,
        Request::Get { index: 3 },
        Request::Dump,
        Request::TopK {
            count: 2,
            most: true,
        },
        Request::WhatIf {
            features: vec![0.5, 1.0],
            label: 1,
        },
        Request::Insert {
            features: vec![0.5, 1.0],
            label: 0,
        },
        Request::Delete { index: 4 },
        Request::Batch {
            mutations: vec![
                BatchMutation::Insert {
                    features: vec![1.0],
                    label: 2,
                },
                BatchMutation::Delete { index: 1 },
            ],
        },
        Request::TrainCsv,
        Request::Metrics,
        Request::Shutdown,
        Request::TrainCsvStream,
    ];
    let responses = vec![
        Response::Stat {
            protocol: 4,
            version: 1,
            n_train: 20,
            n_test: 3,
            k: 2,
            dim: 3,
            checksum: 9,
        },
        Response::Value {
            version: 1,
            value: 0.25,
        },
        Response::Vector {
            version: 1,
            checksum: 2,
            labels: vec![0, 1],
            values: vec![0.5, -0.5],
        },
        Response::Ranked {
            version: 1,
            entries: vec![(0, 0.5)],
        },
        Response::Mutated {
            version: 2,
            index: 20,
        },
        Response::TrainCsv {
            version: 2,
            csv: b"1,2,3,0\n".to_vec(),
        },
        Response::Error {
            code: ErrorCode::Rejected,
            message: "no".into(),
        },
        Response::ShuttingDown,
        Response::BatchApplied {
            version: 3,
            outcomes: vec![
                BatchOutcome::Applied {
                    version: 3,
                    index: 1,
                },
                BatchOutcome::Rejected {
                    code: ErrorCode::Rejected,
                    message: "out of range".into(),
                },
            ],
        },
        Response::Metrics {
            protocol: 4,
            version: 3,
            uptime_secs: 1.5,
            requests: 7,
            queue_depth: 0,
            queue_bound: 64,
            whatif_hits: 1,
            whatif_misses: 2,
            whatif_evictions: 0,
            whatif_len: 2,
            latency_micros: histogram.clone(),
            batch_sizes: histogram,
        },
        Response::TrainCsvPart {
            csv: b"1,2,3,0\n4,5,6,1\n".to_vec(),
        },
        Response::TrainCsvEnd {
            version: 3,
            rows: 2,
            bytes: 16,
        },
    ];
    (requests, responses)
}

/// Strict decoding, tag by tag: every frame round-trips, and every proper
/// prefix of it and the frame plus one trailing byte are malformed.
#[test]
fn every_tag_decodes_strictly() {
    let (requests, responses) = every_frame();
    for req in requests {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
        for cut in 0..bytes.len() {
            assert!(
                Request::decode(&bytes[..cut]).is_err(),
                "{req:?} cut to {cut} bytes decoded"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(Request::decode(&long).is_err(), "{req:?} + 1 byte decoded");
    }
    for resp in responses {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
        for cut in 0..bytes.len() {
            assert!(
                Response::decode(&bytes[..cut]).is_err(),
                "{resp:?} cut to {cut} bytes decoded"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(
            Response::decode(&long).is_err(),
            "{resp:?} + 1 byte decoded"
        );
    }
    // A part whose byte count is forged past the payload cannot allocate.
    let mut forged = vec![0x8B];
    forged.extend_from_slice(&u32::MAX.to_le_bytes());
    forged.extend_from_slice(b"1,0\n");
    assert!(Response::decode(&forged).is_err());
}

/// A malformed stream request is a bad request like any other: the session
/// answers the error, then streams on the next well-formed request.
#[test]
fn a_malformed_stream_request_leaves_the_session_serving() {
    let (endpoint, daemon) = spawn_daemon();
    let mut s = raw_connect(&endpoint);
    write_frame(&mut s, &[0x0C, 0]).unwrap(); // one trailing byte
    let payload = read_frame(&mut s).unwrap().expect("error frame");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Error {
            code: ErrorCode::BadRequest,
            ..
        }
    ));
    write_frame(&mut s, &Request::TrainCsvStream.encode()).unwrap();
    loop {
        let payload = read_frame(&mut s).unwrap().expect("stream frame");
        match Response::decode(&payload).unwrap() {
            Response::TrainCsvPart { .. } => {}
            Response::TrainCsvEnd { rows, .. } => {
                assert_eq!(rows, 20);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    drop(s);
    assert_alive(&endpoint);
    Client::connect(&endpoint).unwrap().shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}
