//! The streamed training-set export (protocol v4) from the client's side:
//! a live daemon's stream equals `save_class_csv` byte for byte, and a
//! scripted peer that breaks the stream — cuts it off, sends a part after
//! the end frame, or closes with a wrong byte count — gets a typed
//! `ClientError`, never a panic or silently short data. A peer that
//! predates v4 is asked for the one-frame export instead.

use knnshap_datasets::synth::blobs::{self, BlobConfig};
use knnshap_datasets::ClassDataset;
use knnshap_serve::client::{Client, ClientError};
use knnshap_serve::protocol::{
    read_frame, write_frame, ErrorCode, ProtocolError, Request, Response, PART_MAX,
};
use knnshap_serve::server::{bind, Endpoint, ValuationServer};
use std::net::{TcpListener, TcpStream};

fn dataset() -> (ClassDataset, ClassDataset) {
    let cfg = BlobConfig {
        n: 3000,
        dim: 8,
        n_classes: 3,
        ..Default::default()
    };
    (blobs::generate(&cfg), blobs::queries(&cfg, 2, 4))
}

fn save_class_csv_bytes(train: &ClassDataset, tag: &str) -> Vec<u8> {
    let path =
        std::env::temp_dir().join(format!("knnshap-stream-{}-{tag}.csv", std::process::id()));
    knnshap_datasets::io::save_class_csv(&path, train).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn a_live_stream_equals_save_class_csv_and_the_session_goes_on() {
    let (train, test) = dataset();
    let expect = save_class_csv_bytes(&train, "live");
    let server = ValuationServer::new(train, test, 3, 1).unwrap();
    let bound = bind(server, &Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = bound.local_endpoint().clone();
    let daemon = std::thread::spawn(move || bound.run());

    // Raw frames: several bounded parts cut at rows, then the end frame.
    let Endpoint::Tcp(addr) = &endpoint else {
        unreachable!()
    };
    let mut s = TcpStream::connect(addr.as_str()).unwrap();
    write_frame(&mut s, &Request::TrainCsvStream.encode()).unwrap();
    let (mut joined, mut parts) = (Vec::new(), 0);
    loop {
        let payload = read_frame(&mut s).unwrap().expect("frame");
        match Response::decode(&payload).unwrap() {
            Response::TrainCsvPart { csv } => {
                assert!(csv.len() <= PART_MAX && csv.ends_with(b"\n"));
                joined.extend_from_slice(&csv);
                parts += 1;
            }
            Response::TrainCsvEnd {
                version,
                rows,
                bytes,
            } => {
                assert_eq!((version, rows, bytes), (0, 3000, expect.len() as u64));
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(parts >= 3, "{parts} parts");
    assert!(joined == expect, "streamed CSV differs from save_class_csv");
    // The session answers its next request after the stream.
    write_frame(&mut s, &Request::Stat.encode()).unwrap();
    let payload = read_frame(&mut s).unwrap().expect("stat");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Stat { n_train: 3000, .. }
    ));
    drop(s); // the daemon drains open sessions before it exits

    // The typed client reads the same bytes, and so does the one-frame
    // export a v4 daemon still answers.
    let mut c = Client::connect(&endpoint).unwrap();
    let (version, csv) = c.train_csv().unwrap();
    assert_eq!(version, 0);
    assert!(csv == expect);
    match c.request(&Request::TrainCsv).unwrap() {
        Response::TrainCsv { version: 0, csv } => assert!(csv == expect),
        other => panic!("unexpected {other:?}"),
    }
    c.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}

/// A scripted peer: for the i-th request it reads, it answers the i-th
/// list of responses, then hangs up once the script runs out. Returns the
/// client connected to it and a handle yielding the requests it read.
fn scripted_peer(script: Vec<Vec<Response>>) -> (Client, std::thread::JoinHandle<Vec<Request>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut seen = Vec::new();
        for answers in script {
            let Some(payload) = read_frame(&mut s).unwrap() else {
                break;
            };
            seen.push(Request::decode(&payload).unwrap());
            for resp in answers {
                write_frame(&mut s, &resp.encode()).unwrap();
            }
        }
        seen
    });
    (Client::connect(&Endpoint::Tcp(addr)).unwrap(), peer)
}

fn part(csv: &[u8]) -> Response {
    Response::TrainCsvPart { csv: csv.to_vec() }
}

#[test]
fn a_stream_cut_off_partway_is_a_truncation_error() {
    let (mut c, peer) = scripted_peer(vec![vec![part(b"1,0\n"), part(b"2,1\n")]]);
    match c.train_csv() {
        Err(ClientError::Protocol(ProtocolError::Truncated { .. })) => {}
        other => panic!("expected a truncation error, got {other:?}"),
    }
    assert_eq!(peer.join().unwrap(), vec![Request::TrainCsvStream]);
}

#[test]
fn a_part_after_the_end_frame_is_an_unexpected_response() {
    let (mut c, peer) = scripted_peer(vec![
        vec![
            part(b"1,0\n"),
            Response::TrainCsvEnd {
                version: 7,
                rows: 1,
                bytes: 4,
            },
            part(b"2,1\n"),
        ],
        vec![],
    ]);
    assert_eq!(c.train_csv().unwrap(), (7, b"1,0\n".to_vec()));
    // The stray part is what the next request reads.
    match c.stat() {
        Err(ClientError::Unexpected { expected, got }) => {
            assert_eq!(expected, "Stat");
            assert!(got.starts_with("TrainCsvPart"), "{got}");
        }
        other => panic!("expected an unexpected-response error, got {other:?}"),
    }
    assert_eq!(
        peer.join().unwrap(),
        vec![Request::TrainCsvStream, Request::Stat]
    );
}

#[test]
fn an_end_frame_that_miscounts_the_bytes_is_an_export_mismatch() {
    let (mut c, peer) = scripted_peer(vec![vec![
        part(b"1,0\n2,1\n"),
        Response::TrainCsvEnd {
            version: 3,
            rows: 2,
            bytes: 9,
        },
    ]]);
    let mut out = Vec::new();
    match c.train_csv_to(&mut out) {
        Err(ClientError::ExportMismatch {
            version: 3,
            announced: (2, 9),
            received: (2, 8),
        }) => {}
        other => panic!("expected an export mismatch, got {other:?}"),
    }
    peer.join().unwrap();
}

#[test]
fn a_daemon_without_the_stream_gets_the_one_frame_request() {
    let csv = b"0.5,1.5,0\n-1,2,1\n".to_vec();
    let (mut c, peer) = scripted_peer(vec![
        vec![Response::Error {
            code: ErrorCode::BadRequest,
            message: "unknown request opcode 0x0c".into(),
        }],
        vec![Response::TrainCsv {
            version: 2,
            csv: csv.clone(),
        }],
    ]);
    let mut out = Vec::new();
    assert_eq!(c.train_csv_to(&mut out).unwrap(), (2, csv.len() as u64));
    assert_eq!(out, csv);
    assert_eq!(
        peer.join().unwrap(),
        vec![Request::TrainCsvStream, Request::TrainCsv]
    );
}
