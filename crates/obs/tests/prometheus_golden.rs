//! Golden-file test of the Prometheus text exposition, plus a JSON
//! snapshot round-trip through the `serde_json` parser — the exposition
//! format is consumed by external scrapers, so its exact shape (family
//! grouping, escaping, cumulative buckets) is pinned here.

use obs::MetricRegistry;

/// A registry with one of everything, including names/labels/help that
/// need sanitizing or escaping.
fn build_registry() -> MetricRegistry {
    let reg = MetricRegistry::new();
    reg.counter(
        "sbst_batches_total",
        "63-fault simulation batches completed",
        &[],
    )
    .inc(7);
    reg.counter(
        "sbst_worker_batches_total",
        "batches per worker",
        &[("worker", "0")],
    )
    .inc(3);
    reg.counter(
        "sbst_worker_batches_total",
        "batches per worker",
        &[("worker", "1")],
    )
    .inc(4);
    reg.gauge("sbst_mlane_cycles_per_sec", "campaign throughput", &[])
        .set(2.5);
    reg.counter(
        "weird-name",
        "help with \\ and\nnewline",
        &[("p", "a\"b\\c\nd")],
    )
    .inc(1);
    let h = reg.histogram(
        "sbst_detection_latency_cycles",
        "cycle of first divergence",
        &[],
    );
    for v in [0, 1, 5, 5, 300] {
        h.observe(v);
    }
    reg
}

#[test]
fn prometheus_exposition_matches_golden_file() {
    let text = build_registry().to_prometheus();
    let golden = include_str!("golden/registry.prom");
    assert_eq!(
        text, golden,
        "exposition drifted from tests/golden/registry.prom;\nactual:\n{text}"
    );
}

#[test]
fn json_snapshot_round_trips_through_the_parser() {
    let reg = build_registry();
    let snap = reg.snapshot();
    let pretty = serde_json::to_string_pretty(&snap).expect("serialize");
    let reparsed = serde_json::from_str(&pretty).expect("snapshot JSON parses");
    assert_eq!(reparsed, snap, "snapshot changed across a JSON round-trip");

    // Spot-check the shape a dashboard would read.
    let metrics = reparsed["metrics"].as_array().unwrap();
    assert_eq!(metrics.len(), 6);
    let gauge = metrics
        .iter()
        .find(|m| m["name"] == serde_json::Value::String("sbst_mlane_cycles_per_sec".into()))
        .unwrap();
    assert_eq!(gauge["value"], serde_json::Value::F64(2.5));
    let hist = metrics
        .iter()
        .find(|m| m["name"] == serde_json::Value::String("sbst_detection_latency_cycles".into()))
        .unwrap();
    assert_eq!(hist["count"], serde_json::Value::U64(5));
    assert_eq!(hist["sum"], serde_json::Value::U64(311));
}
