//! Determinism battery for the telemetry layer (ISSUE 10): observing a run
//! must never change it. `knnshap_obs` promises that counters, histograms
//! and the JSONL event stream are strictly write-only — nothing feeds back
//! into a computation — so every estimator family re-run with telemetry
//! fully enabled (metrics registry on, debug-level event log draining into
//! the in-memory capture sink) must produce output **bitwise-identical** to
//! the telemetry-off run, at 1 thread and at 8.
//!
//! Three layers:
//! * estimator families (exact class/regression, truncated, baseline MC,
//!   improved MC, group testing) × {1, 8} threads × telemetry on/off
//!   byte-compare, permutation counts included;
//! * every captured event line is validated against the JSONL schema
//!   (`knnshap_obs::json::validate_event_line`) — reserved keys present,
//!   scalar-only fields, no duplicates;
//! * a proptest hammering the per-thread event buffers with concurrent
//!   writers: every emitted event must reach the sink exactly once (the
//!   64-line self-drain plus the drain-on-thread-exit leave nothing
//!   behind), in per-writer order.
//!
//! The telemetry switches are process-global, so every test in this file
//! serializes on one file-local lock (the obs crate's own test lock is
//! crate-internal and unavailable here).

use knnshap::knn::WeightFn;
use knnshap::obs;
use knnshap::obs::{FieldValue, Level};
use knnshap::valuation::exact_unweighted::knn_class_shapley_with_threads;
use knnshap::valuation::group_testing::group_testing_shapley_with_threads;
use knnshap::valuation::mc::{
    mc_shapley_baseline_with_threads, mc_shapley_improved_with_threads, IncKnnUtility, StoppingRule,
};
use knnshap::valuation::types::ShapleyValues;
use knnshap::valuation::utility::KnnClassUtility;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

mod common;
use common::{assert_bitwise, exact_reg, random_class, random_reg, truncated};

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with telemetry fully on — metrics registry live, debug-level
/// event log draining into the capture sink — then restores the off state
/// and returns the result together with every captured event line.
fn with_telemetry_on<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    obs::set_metrics(true);
    obs::set_log(Some(Level::Debug));
    obs::set_capture_sink();
    // A pool worker may still hold lines buffered during an earlier
    // telemetry-on test; discard anything already in the sink.
    let _ = obs::take_captured();
    let out = f();
    obs::flush();
    obs::set_log(None);
    obs::set_metrics(false);
    (out, obs::take_captured())
}

/// Byte-compares a telemetry-off run of `run` against a telemetry-on run,
/// and schema-validates every event line the instrumented run produced.
fn assert_family_unmoved(what: &str, run: &dyn Fn() -> ShapleyValues) {
    obs::set_metrics(false);
    obs::set_log(None);
    let off = run();
    let (on, lines) = with_telemetry_on(run);
    assert_bitwise(&off, &on, what);
    for (i, line) in lines.iter().enumerate() {
        if let Err(e) = obs::json::validate_event_line(line) {
            panic!("{what}: captured event {i} violates the schema ({e}): {line}");
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 1: estimator families × {1, 8} threads × telemetry on/off.
// ---------------------------------------------------------------------------

#[test]
fn exact_estimators_bitwise_with_telemetry_on_and_off() {
    let _g = telemetry_lock();
    let mut rng = StdRng::seed_from_u64(0x0B5_1);
    let (train, test) = random_class(&mut rng, 120, 6, 3);
    let (rtrain, rtest) = random_reg(&mut rng, 100, 5);
    for threads in [1usize, 8] {
        assert_family_unmoved(&format!("exact class t={threads}"), &|| {
            knn_class_shapley_with_threads(&train, &test, 3, threads)
        });
        assert_family_unmoved(&format!("exact reg t={threads}"), &|| {
            exact_reg(&rtrain, &rtest, 3, threads)
        });
        assert_family_unmoved(&format!("truncated t={threads}"), &|| {
            truncated(&train, &test, 3, 0.1, threads)
        });
    }
}

#[test]
fn mc_estimators_bitwise_with_telemetry_on_and_off() {
    let _g = telemetry_lock();
    let mut rng = StdRng::seed_from_u64(0x0B5_2);
    let (train, test) = random_class(&mut rng, 90, 4, 3);
    let u = KnnClassUtility::unweighted(&train, &test, 3);
    let inc = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
    for threads in [1usize, 8] {
        assert_family_unmoved(&format!("mc baseline t={threads}"), &|| {
            mc_shapley_baseline_with_threads(&u, StoppingRule::Fixed(60), 7, None, threads).values
        });
        assert_family_unmoved(&format!("mc improved t={threads}"), &|| {
            mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(200), 7, None, threads)
                .values
        });
        assert_family_unmoved(&format!("group testing t={threads}"), &|| {
            group_testing_shapley_with_threads(&u, 2_000, 7, threads).values
        });
    }
}

/// Telemetry must not change *how much work* a heuristic-stop run does either:
/// the consumed-permutation count under the heuristic stopping rule is part
/// of the contract, not just the value vector.
#[test]
fn telemetry_does_not_move_permutation_counts() {
    let _g = telemetry_lock();
    let (train, test) = random_class(&mut StdRng::seed_from_u64(0x0B5_3), 150, 4, 3);
    let inc = IncKnnUtility::classification(&train, &test, 5, WeightFn::Uniform);
    let rule = StoppingRule::Heuristic {
        threshold: 1e-4,
        max: 600,
    };
    for threads in [1usize, 8] {
        obs::set_metrics(false);
        obs::set_log(None);
        let off = mc_shapley_improved_with_threads(&inc, rule, 11, None, threads);
        let (on, _) =
            with_telemetry_on(|| mc_shapley_improved_with_threads(&inc, rule, 11, None, threads));
        assert_eq!(
            off.permutations, on.permutations,
            "telemetry changed the heuristic stop at t={threads}"
        );
        assert_bitwise(&off.values, &on.values, &format!("heuristic t={threads}"));
    }
}

// ---------------------------------------------------------------------------
// Layer 2: the captured stream is schema-valid JSONL.
// ---------------------------------------------------------------------------

#[test]
fn captured_event_stream_is_schema_valid_jsonl() {
    let _g = telemetry_lock();
    let ((), lines) = with_telemetry_on(|| {
        obs::emit(
            Level::Info,
            "obs_test",
            "battery_start",
            &[
                ("n", FieldValue::from(80u64)),
                ("suite", FieldValue::from("obs_determinism")),
            ],
        );
        let (train, test) = random_class(&mut StdRng::seed_from_u64(3), 80, 4, 3);
        let inc = IncKnnUtility::classification(&train, &test, 3, WeightFn::Uniform);
        let _ = mc_shapley_improved_with_threads(&inc, StoppingRule::Fixed(32), 3, None, 8);
        obs::emit(
            Level::Info,
            "obs_test",
            "battery_end",
            &[("ok", FieldValue::from(true))],
        );
    });
    assert!(
        lines.len() >= 2,
        "expected at least the two bracketing events, got {}",
        lines.len()
    );
    let mut names = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if let Err(e) = obs::json::validate_event_line(line) {
            panic!("event {i} violates the schema ({e}): {line}");
        }
        let v = obs::json::parse(line).expect("validated line parses");
        assert!(v.get("ts").and_then(|t| t.as_f64()).is_some());
        if v.get("target").and_then(|t| t.as_str()) == Some("obs_test") {
            names.push(v.get("ev").and_then(|e| e.as_str()).unwrap().to_string());
        }
    }
    // The calling thread's buffer drains in order, so the brackets survive.
    assert_eq!(names.first().map(String::as_str), Some("battery_start"));
    assert_eq!(names.last().map(String::as_str), Some("battery_end"));
}

#[test]
fn disabled_telemetry_emits_nothing_and_counts_nothing() {
    let _g = telemetry_lock();
    obs::set_metrics(false);
    obs::set_log(None);
    obs::set_capture_sink();
    let _ = obs::take_captured();

    static INERT: obs::Counter = obs::Counter::new("obs_test.inert");
    INERT.add(5);
    obs::emit(
        Level::Info,
        "obs_test",
        "should_not_appear",
        &[("x", FieldValue::from(1u64))],
    );
    let (train, test) = random_class(&mut StdRng::seed_from_u64(9), 60, 3, 3);
    let _ = knn_class_shapley_with_threads(&train, &test, 3, 8);
    obs::flush();

    assert!(
        obs::take_captured().is_empty(),
        "disabled log still reached the sink"
    );
    assert_eq!(
        obs::snapshot().counter("obs_test.inert").unwrap_or(0),
        0,
        "disabled metrics registry still moved"
    );
}

#[test]
fn metrics_registry_moves_only_while_enabled() {
    let _g = telemetry_lock();
    static MOVES: obs::Counter = obs::Counter::new("obs_test.moves");
    obs::set_metrics(false);
    MOVES.add(3); // inert
    let before = obs::snapshot().counter("obs_test.moves").unwrap_or(0);
    obs::set_metrics(true);
    MOVES.add(3);
    let after = obs::snapshot().counter("obs_test.moves").unwrap_or(0);
    obs::set_metrics(false);
    assert_eq!(after, before + 3);
}

// ---------------------------------------------------------------------------
// Layer 3: buffer drain under concurrent writers.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N writer threads each emit a numbered sequence; between the 64-line
    /// self-drain and the drain-on-thread-exit, every event must reach the
    /// sink exactly once, schema-valid, and in per-writer order. Sequence
    /// lengths straddle the buffer size so both drain paths are exercised.
    #[test]
    fn concurrent_writers_drain_every_event(
        writers in 2usize..=8,
        per_writer in 1usize..=150,
    ) {
        let _g = telemetry_lock();
        obs::set_log(Some(Level::Debug));
        obs::set_capture_sink();
        let _ = obs::take_captured();

        let handles: Vec<_> = (0..writers)
            .map(|w| {
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        obs::emit(
                            Level::Debug,
                            "obs_proptest",
                            "tick",
                            &[
                                ("writer", FieldValue::from(w as u64)),
                                ("seq", FieldValue::from(i as u64)),
                            ],
                        );
                    }
                    // Anything short of a full buffer drains on exit.
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }
        obs::set_log(None);

        // Keep only this test's events: a pool worker could in principle
        // drain lines buffered by an earlier telemetry-on test.
        let lines: Vec<String> = obs::take_captured()
            .into_iter()
            .filter(|l| {
                obs::json::parse(l)
                    .ok()
                    .and_then(|v| v.get("target").and_then(|t| t.as_str()).map(String::from))
                    .as_deref()
                    == Some("obs_proptest")
            })
            .collect();
        prop_assert_eq!(lines.len(), writers * per_writer, "lost or duplicated events");

        let mut next_seq = vec![0usize; writers];
        for line in &lines {
            prop_assert!(obs::json::validate_event_line(line).is_ok(), "invalid: {}", line);
            let v = obs::json::parse(line).unwrap();
            prop_assert_eq!(v.get("ev").and_then(|e| e.as_str()), Some("tick"));
            let w = v.get("writer").and_then(|x| x.as_f64()).unwrap() as usize;
            let s = v.get("seq").and_then(|x| x.as_f64()).unwrap() as usize;
            prop_assert!(w < writers, "writer id out of range");
            prop_assert_eq!(s, next_seq[w], "writer {} drained out of order", w);
            next_seq[w] += 1;
        }
        for (w, &n) in next_seq.iter().enumerate() {
            prop_assert_eq!(n, per_writer, "writer {} incomplete", w);
        }
    }
}
