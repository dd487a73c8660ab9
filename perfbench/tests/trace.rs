//! The traced run records spans per layer and exports them. Kept in its
//! own test binary because recording is process-wide.

use perfbench::trace::{self, Span};
use perfbench::{setup, Config, Tally};
use std::time::{Duration, Instant};

#[test]
fn traced_frames_record_layer_spans_and_export() {
    let cfg = Config::small();
    for (name, expected) in [
        ("foveated_gaze", &["fov.render"][..]),
        ("served_stream", &["serve.step", "io.decode"][..]),
    ] {
        let mut w = setup(name, &cfg, 3).unwrap();
        trace::drain();
        let mut tally = Tally::default();
        trace::set_enabled(true);
        while tally.completed() < 12 {
            w.run_until(Instant::now() + Duration::from_millis(1), &mut tally);
        }
        trace::set_enabled(false);
        let spans = trace::drain();
        for want in expected {
            assert!(
                spans.iter().any(|s| s.name == *want),
                "{name}: no {want} span"
            );
        }
        let metrics = w.layer_metrics(&tally, &spans);
        assert!(metrics.iter().all(|(_, v)| v.is_finite()), "{name}");
        assert!(
            metrics.iter().any(|(n, v)| n.ends_with("_ms") && *v > 0.0),
            "{name}: a layer time was measured"
        );
        let json = trace::chrome_json(&spans, name);
        assert!(json.starts_with('{') && json.contains("\"traceEvents\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
    }
    // Nothing is recorded while tracing is off.
    let mut w = setup("foveated_gaze", &cfg, 3).unwrap();
    w.run_until(
        Instant::now() + Duration::from_millis(50),
        &mut Tally::default(),
    );
    assert!(trace::drain().is_empty());
}

fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "x",
        id,
        parent,
        frame: 0,
        thread: 0,
        start_ns,
        end_ns,
        arg: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // Parent 0..100 with overlapping children 10..40 and 30..50 (union 40)
    // and one child hanging past the parent's end (counts 90..100).
    let spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 1, 30, 50),
        span(4, 1, 90, 120),
    ];
    let selfs = trace::self_times_ns(&spans);
    assert_eq!(selfs[0], 100 - 40 - 10);
    assert_eq!(&selfs[1..], &[30, 20, 30]);
}
