//! Shape validation of the machine-readable campaign-benchmark payload:
//! the JSON the `tables --stats` driver writes to
//! `results/BENCH_campaign.json` must keep the schema downstream
//! consumers (CI artifact scrapers, plotting scripts) parse.
//!
//! Validated twice: against a freshly generated small-sample benchmark
//! (serializer → parser round trip), and against the checked-in results
//! file if present.

use serde_json::Value;

/// Assert `v` is an object containing `key` and return the value.
fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    let obj = v
        .as_object()
        .unwrap_or_else(|| panic!("not an object: {v:?}"));
    obj.get(key)
        .unwrap_or_else(|| panic!("missing key `{key}` in {v:?}"))
}

fn assert_uint(v: &Value, what: &str) -> u64 {
    v.as_u64()
        .unwrap_or_else(|| panic!("{what} not a u64: {v:?}"))
}

fn assert_num(v: &Value, what: &str) -> f64 {
    v.as_f64()
        .unwrap_or_else(|| panic!("{what} not a number: {v:?}"))
}

/// The schema of one entry in `runs`, graded under a per-fault cycle
/// budget of `budget_per_batch`.
fn check_run(run: &Value, budget_per_batch: u64) {
    let threads = assert_uint(field(run, "threads"), "threads");
    assert!(threads >= 1);
    let engine = field(run, "engine").as_str().expect("engine is a string");
    assert_eq!(engine, "compiled", "unknown engine `{engine}`");
    let lanes = assert_uint(field(run, "lanes"), "lanes");
    assert!(
        matches!(lanes, 64 | 128 | 256 | 512),
        "unsupported lane width {lanes}"
    );
    // Batch runs: the first epoch covers the faults in full batches,
    // and every later epoch adds the runs of its regrouped survivors.
    let batches = assert_uint(field(run, "batches"), "batches");
    let faults = assert_uint(field(run, "faults"), "faults");
    let first = faults.div_ceil(lanes - 1);
    assert!(
        batches >= first,
        "{batches} batch runs cannot cover {faults} faults at {lanes} lanes"
    );
    let dropped = assert_uint(field(run, "faults_dropped"), "faults_dropped");
    assert!(dropped <= faults);
    let cycles = assert_uint(field(run, "cycles_simulated"), "cycles_simulated");
    let budget = assert_uint(field(run, "budget_cycles"), "budget_cycles");
    assert_eq!(budget, first * budget_per_batch, "drop-free budget");
    assert!(cycles <= budget, "fault dropping can only shorten runs");
    // Batches narrower than the configured width spend fewer lanes.
    let spent = assert_uint(field(run, "lane_cycles_spent"), "lane_cycles_spent");
    assert!(
        spent > 0 && spent <= cycles * lanes,
        "{spent} lane-cycles spent outside (0, {cycles} cycles × {lanes} lanes]"
    );
    assert!(assert_num(field(run, "wall_seconds"), "wall_seconds") > 0.0);
    assert!(assert_num(field(run, "mlane_cycles_per_sec"), "mlane_cycles_per_sec") > 0.0);
    assert!(assert_num(field(run, "faults_per_sec"), "faults_per_sec") > 0.0);
    let utilization = assert_num(field(run, "lane_utilization"), "lane_utilization");
    assert!(
        utilization > 0.0 && utilization < 1.0,
        "lane utilization {utilization} outside (0, 1)"
    );

    // Latency histogram: array of {lo, hi, count} buckets whose counts
    // sum to the dropped (= detected) faults.
    let latency = field(run, "latency")
        .as_array()
        .expect("latency is an array");
    let mut total = 0u64;
    for b in latency {
        let lo = assert_uint(field(b, "lo"), "bucket lo");
        let hi = assert_uint(field(b, "hi"), "bucket hi");
        assert!(lo <= hi, "bucket range inverted");
        total += assert_uint(field(b, "count"), "bucket count");
    }
    assert_eq!(
        total, dropped,
        "latency histogram must count every detection"
    );

    // Worker stats: per-thread batches/cycles summing to the run totals.
    let workers = field(run, "workers")
        .as_array()
        .expect("workers is an array");
    assert_eq!(workers.len() as u64, threads);
    let mut wb = 0u64;
    let mut wc = 0u64;
    let mut wl = 0u64;
    for w in workers {
        assert_uint(field(w, "worker"), "worker id");
        wb += assert_uint(field(w, "batches"), "worker batches");
        wc += assert_uint(field(w, "cycles"), "worker cycles");
        wl += assert_uint(field(w, "lane_cycles"), "worker lane_cycles");
        assert_eq!(assert_uint(field(w, "lanes"), "worker lanes"), lanes);
        assert_num(field(w, "wall_seconds"), "worker wall_seconds");
        assert_num(field(w, "mlane_cycles_per_sec"), "worker rate");
    }
    assert_eq!(wb, batches, "worker batches must sum to the total");
    assert_eq!(wc, cycles, "worker cycles must sum to the total");
    assert_eq!(wl, spent, "worker lane-cycles must sum to the total");
}

fn check_benchmark(doc: &Value) {
    assert_uint(field(doc, "faults"), "faults");
    let budget = assert_uint(
        field(doc, "budget_cycles_per_batch"),
        "budget_cycles_per_batch",
    );
    assert!(assert_num(field(doc, "speedup"), "speedup") > 0.0);
    let runs = field(doc, "runs").as_array().expect("runs is an array");
    assert!(!runs.is_empty());
    for run in runs {
        check_run(run, budget);
    }
    // A sweep of two or more widths cross-checks their detections.
    let mut widths: Vec<u64> = runs
        .iter()
        .map(|r| assert_uint(field(r, "lanes"), "lanes"))
        .collect();
    widths.sort_unstable();
    widths.dedup();
    let checked = field(doc, "cross_width_match")
        .as_bool()
        .expect("cross_width_match is a bool");
    assert_eq!(
        checked,
        widths.len() >= 2,
        "cross_width_match vs widths {widths:?}"
    );
    // The schedule depends only on the detections: runs of one width
    // count the same batches and cycles at every thread count.
    let same = |a: &Value, b: &Value, key: &str| field(a, key) == field(b, key);
    for a in runs {
        for b in runs.iter().filter(|b| same(a, b, "lanes")) {
            for key in ["batches", "cycles_simulated"] {
                assert!(same(a, b, key), "{key} differs across thread counts");
            }
        }
    }
}

/// Freshly generated benchmark data must round-trip through the
/// serializer and parser and satisfy the schema.
#[test]
fn generated_benchmark_payload_matches_schema() {
    let opts = bench::RunOptions {
        sample: Some(500),
        threads: 2,
        ..Default::default()
    };
    let e = bench::campaign_benchmark(&opts);
    let text = serde_json::to_string_pretty(&e.data).expect("serialize");
    let doc = serde_json::from_str(&text).expect("round trip");
    // Integral floats re-parse as integers, so compare the parsed form
    // against its own serialize→parse round trip (must be a fixpoint).
    let again = serde_json::from_str(&serde_json::to_string_pretty(&doc).unwrap()).unwrap();
    assert_eq!(doc, again, "parsed form is not a serialization fixpoint");
    check_benchmark(&doc);
}

/// The checked-in results file (regenerated by `tables --stats`) must
/// satisfy the same schema.
#[test]
fn checked_in_benchmark_file_matches_schema() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_campaign.json"
    );
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("results/BENCH_campaign.json absent; skipping");
        return;
    };
    let doc = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("results/BENCH_campaign.json unparseable: {e:?}"));
    check_benchmark(&doc);
}
