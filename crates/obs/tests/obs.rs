//! Integration tests for `autosens-obs`: concurrent metric updates agree
//! with a serial reference, span guards survive panics, and the Prometheus
//! text export is lossless.

use autosens_obs::{MetricsRegistry, MetricsSnapshot, Recorder};
use autosens_stats::binning::{Binner, OutOfRange};

#[test]
fn concurrent_counter_updates_match_serial_reference() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let reg = MetricsRegistry::new();
    let counter = reg.counter("autosens_test_concurrent_total");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let counter = counter.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    if (t + i) % 2 == 0 {
                        counter.inc();
                    } else {
                        counter.add(2);
                    }
                }
            });
        }
    });
    // Serial reference: each thread contributes PER_THREAD/2 times 1 and
    // PER_THREAD/2 times 2.
    let expected = THREADS * (PER_THREAD / 2) * 3;
    assert_eq!(counter.get(), expected);
}

#[test]
fn concurrent_histogram_updates_match_serial_reference() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 5_000;
    let binner = Binner::new(0.0, 100.0, 10.0, OutOfRange::Discard).unwrap();

    let concurrent = MetricsRegistry::new();
    let hist = concurrent.histogram("autosens_test_latency_ms", &binner);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let hist = hist.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    hist.observe(((t * PER_THREAD + i) % 120) as f64);
                }
            });
        }
    });

    let serial = MetricsRegistry::new();
    let reference = serial.histogram("autosens_test_latency_ms", &binner);
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            reference.observe(((t * PER_THREAD + i) % 120) as f64);
        }
    }

    let got = concurrent.snapshot();
    let want = serial.snapshot();
    assert_eq!(got.histograms[0].buckets, want.histograms[0].buckets);
    assert_eq!(got.histograms[0].count, want.histograms[0].count);
    assert!((got.histograms[0].sum - want.histograms[0].sum).abs() < 1e-6);
}

#[test]
fn span_nesting_survives_panics() {
    let recorder = Recorder::new();
    let root = recorder.root("analyze");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _stage = root.child("exploding_stage");
        panic!("stage blew up");
    }));
    assert!(result.is_err());
    drop(root);
    let tree = recorder.finish();
    // The guard's Drop ran during unwinding, so the stage span closed and
    // was recorded under its parent.
    assert_eq!(tree.count_named("exploding_stage"), 1);
    assert_eq!(tree.count_named("analyze"), 1);
    let stage = tree
        .spans()
        .iter()
        .find(|s| s.name == "exploding_stage")
        .unwrap();
    let root_span = tree.spans().iter().find(|s| s.name == "analyze").unwrap();
    assert_eq!(stage.parent, Some(root_span.id));
}

#[test]
fn prometheus_text_round_trips_a_snapshot() {
    let reg = MetricsRegistry::new();
    reg.counter("autosens_core_records_read_total").add(12345);
    reg.counter("autosens_core_records_dropped_total").add(7);
    reg.gauge("autosens_core_records_per_sec").set(98765.4321);
    let binner = Binner::new(0.0, 50.0, 10.0, OutOfRange::Discard).unwrap();
    let hist = reg.histogram("autosens_core_stage_ms", &binner);
    for v in [3.0, 14.0, 14.5, 47.0, 1e6] {
        hist.observe(v);
    }
    let snap = reg.snapshot();
    let text = snap.to_prometheus();
    assert!(text.contains("# TYPE autosens_core_records_read_total counter"));
    assert!(text.contains("le=\"+Inf\"} 5"));
    let parsed = MetricsSnapshot::from_prometheus(&text).unwrap();
    assert_eq!(parsed, snap);
}

#[test]
fn prometheus_parser_rejects_malformed_input() {
    assert!(MetricsSnapshot::from_prometheus("no_type_line 5").is_err());
    assert!(MetricsSnapshot::from_prometheus("# TYPE x counter\nx notanumber").is_err());
}

#[test]
fn spans_record_from_multiple_threads() {
    let recorder = Recorder::new();
    let root = recorder.root("parallel_analyses");
    std::thread::scope(|scope| {
        for i in 0..4 {
            let parent = &root;
            scope.spawn(move || {
                let mut child = parent.child("worker");
                child.field("index", i as u64);
            });
        }
    });
    drop(root);
    let tree = recorder.finish();
    assert_eq!(tree.count_named("worker"), 4);
    assert_eq!(tree.count_named("parallel_analyses"), 1);
}
