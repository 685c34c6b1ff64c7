//! End-to-end tests of the `ledger` binary: trend rendering, the
//! regression gate's exit code, and the `--append-degraded` negative
//! test used by CI. Synthetic records keep this fast — no campaigns run.

use std::path::PathBuf;
use std::process::Command;

use obs::ledger::{self, LedgerRecord};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ledger")
}

/// A scratch directory unique to this test (std-only; no tempfile dep).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbst-ledger-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A 400-fault campaign record graded at `faults_per_s`; its
/// Mlane-cyc/s stays fixed, so only faults/s can move the gate.
fn record(ts: u64, faults_per_s: f64, coverage: f64) -> LedgerRecord {
    let mut r = LedgerRecord::now("tables-stats", "test");
    r.ts = ts;
    r.netlist = "n10/g20/d3".into();
    r.threads = 2;
    r.faults = 400;
    r.cycles = 50_000;
    r.wall_seconds = 400.0 / faults_per_s;
    r.mlane_cps = 2.5;
    r.coverage_pct = Some(coverage);
    r
}

#[test]
fn gate_passes_on_steady_ledger_and_writes_trend_json() {
    let dir = scratch("pass");
    let ledger_path = dir.join("LEDGER.jsonl");
    let trend_path = dir.join("BENCH_trend.json");
    ledger::append(&ledger_path, &record(1000, 250.0, 93.3)).unwrap();
    ledger::append(&ledger_path, &record(2000, 245.0, 93.3)).unwrap();

    let out = Command::new(bin())
        .args(["--ledger"])
        .arg(&ledger_path)
        .args(["--json"])
        .arg(&trend_path)
        .arg("--check")
        .output()
        .expect("run ledger bin");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "expected pass:\n{stdout}");
    assert!(stdout.contains("PASS"), "{stdout}");
    assert!(stdout.contains("tables-stats"), "{stdout}");

    let trend = std::fs::read_to_string(&trend_path).expect("trend json written");
    let v = serde_json::from_str(&trend).expect("trend json parses");
    assert_eq!(v["gate"]["pass"], serde_json::Value::Bool(true), "{trend}");
    assert_eq!(v["runs"].as_array().unwrap().len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gate_fails_on_throughput_regression() {
    let dir = scratch("fail");
    let ledger_path = dir.join("LEDGER.jsonl");
    ledger::append(&ledger_path, &record(1000, 250.0, 93.3)).unwrap();
    ledger::append(&ledger_path, &record(2000, 200.0, 93.3)).unwrap(); // -20%

    let out = Command::new(bin())
        .args(["--ledger"])
        .arg(&ledger_path)
        .args(["--json"])
        .arg(dir.join("t.json"))
        .arg("--check")
        .output()
        .expect("run ledger bin");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected gate failure:\n{stdout}"
    );
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // The same ledger passes when the tolerance is widened.
    let out = Command::new(bin())
        .args(["--ledger"])
        .arg(&ledger_path)
        .args(["--json"])
        .arg(dir.join("t.json"))
        .args(["--check", "--max-drop", "30"])
        .output()
        .expect("run ledger bin");
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gate_fails_on_any_coverage_drop() {
    let dir = scratch("cov");
    let ledger_path = dir.join("LEDGER.jsonl");
    ledger::append(&ledger_path, &record(1000, 250.0, 93.3)).unwrap();
    ledger::append(&ledger_path, &record(2000, 250.0, 92.8)).unwrap();

    let out = Command::new(bin())
        .args(["--ledger"])
        .arg(&ledger_path)
        .args(["--json"])
        .arg(dir.join("t.json"))
        .arg("--check")
        .output()
        .expect("run ledger bin");
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn append_degraded_forces_a_gate_failure() {
    let dir = scratch("degraded");
    let ledger_path = dir.join("LEDGER.jsonl");
    ledger::append(&ledger_path, &record(1000, 250.0, 93.3)).unwrap();

    // One record alone passes (a first run cannot regress)...
    let out = Command::new(bin())
        .args(["--ledger"])
        .arg(&ledger_path)
        .args(["--json"])
        .arg(dir.join("t.json"))
        .arg("--check")
        .output()
        .expect("run ledger bin");
    assert!(out.status.success());

    // ...but a degraded clone must trip the gate: the CI negative test.
    let out = Command::new(bin())
        .args(["--ledger"])
        .arg(&ledger_path)
        .args(["--json"])
        .arg(dir.join("t.json"))
        .args(["--append-degraded", "0.5", "--check"])
        .output()
        .expect("run ledger bin");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "degraded clone must fail:\n{stdout}"
    );

    let (records, skipped) = ledger::load(&ledger_path).unwrap();
    assert_eq!(records.len(), 2, "degraded clone was appended");
    assert_eq!(skipped, 0);
    assert!((records[1].gated_rate() - 125.0).abs() < 1e-9);
    assert_eq!(records[1].gated_unit(), "faults/s");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression test for the shard-count comparability fix: a sharded
/// daemon run whose wall-clock throughput differs wildly from the
/// single-shot lineage must NOT gate against it — the shard count is
/// part of both comparability keys, so each shard count forms its own
/// baseline. Before the fix, a 4-shard server job comparing against a
/// 1-shard `tables` baseline tripped (or masked) the throughput gate.
#[test]
fn gate_never_compares_across_shard_counts() {
    let dir = scratch("shards");
    let ledger_path = dir.join("LEDGER.jsonl");
    // Single-shot lineage: steady.
    ledger::append(&ledger_path, &record(1000, 250.0, 93.3)).unwrap();
    ledger::append(&ledger_path, &record(2000, 250.0, 93.3)).unwrap();
    // A 4-shard run of the same netlist/faults/threads at a fraction of
    // the single-shot throughput (per-shard wall clock differs): must
    // start its own lineage, not regress the 1-shard baseline.
    let mut sharded = record(3000, 80.0, 93.3);
    sharded.shards = 4;
    ledger::append(&ledger_path, &sharded).unwrap();

    let out = Command::new(bin())
        .args(["--ledger"])
        .arg(&ledger_path)
        .args(["--json"])
        .arg(dir.join("t.json"))
        .arg("--check")
        .output()
        .expect("run ledger bin");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sharded run must not gate against single-shot:\n{stdout}"
    );

    // Within the 4-shard lineage the gate still bites: a big drop
    // against the 4-shard baseline fails even though the 1-shard
    // lineage is steady.
    let mut slower = record(4000, 40.0, 93.3); // -50% vs the 4-shard run
    slower.shards = 4;
    ledger::append(&ledger_path, &slower).unwrap();
    let out = Command::new(bin())
        .args(["--ledger"])
        .arg(&ledger_path)
        .args(["--json"])
        .arg(dir.join("t.json"))
        .arg("--check")
        .output()
        .expect("run ledger bin");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "4-shard lineage must gate itself:\n{stdout}"
    );
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flag_exits_with_usage_error() {
    let out = Command::new(bin())
        .arg("--bogus")
        .output()
        .expect("run ledger bin");
    assert_eq!(out.status.code(), Some(2));
}
