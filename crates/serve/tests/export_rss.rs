//! Repeated training-set exports do not pile up resident memory: the
//! daemon's copy of the training set is held in row blocks below glibc's
//! mmap threshold, so each export reuses the heap the previous one freed.
//! (A single N·4d-byte copy would be mmapped, raise the threshold when it
//! is freed, and leave every later copy resident.)
//!
//! This test is alone in its binary: it reads the process's own `VmRSS`,
//! which concurrent tests would disturb.

#[cfg(target_os = "linux")]
#[test]
fn the_third_export_leaves_rss_where_the_first_left_it() {
    use knnshap_datasets::synth::blobs::{self, BlobConfig};
    use knnshap_serve::server::ValuationServer;

    fn vm_rss_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmRSS in /proc/self/status")
    }

    // N·(4d + 4) = 7.9 MB per copy: well above the 4 MiB bound.
    let cfg = BlobConfig {
        n: 60_000,
        dim: 32,
        n_classes: 3,
        ..Default::default()
    };
    let server =
        ValuationServer::new(blobs::generate(&cfg), blobs::queries(&cfg, 1, 9), 3, 1).unwrap();
    let export = || {
        let mut sink = std::io::sink();
        server.stream_train_csv(&mut sink).unwrap();
        vm_rss_kib()
    };
    let first = export();
    export();
    let third = export();
    assert!(
        third <= first + 4 * 1024,
        "VmRSS grew from {first} KiB after the first export to {third} KiB after the third"
    );
}
