//! End-to-end conformance harness for fault-sim-as-a-service: boot the
//! real `server` daemon via `CARGO_BIN_EXE`, submit campaign jobs over
//! real sockets, and hold the daemon to the merge guarantee — the
//! coverage/detection payload of every sharded run is **byte-identical**
//! to an in-process single-shot serial run of the same spec at 512
//! lanes, across shard counts × per-shard thread counts × lane widths.
//!
//! Also covered here: per-job progress streamed over the existing SSE
//! `/events` bus, compiled-kernel reuse across jobs (a second job on the
//! same fingerprint records cache hits and zero compile-phase time), and
//! the external worker-process mode (`server --worker`) grading shards
//! through the same HTTP job API.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use common::{metric_value, metrics, run_job, spawn_server, ServerProc};
use fault::campaign;
use fault::coverage::CoverageReport;
use fault::EngineConfig;
use obs::Telemetry;
use plasma::testbench::self_test_bench;
use plasma::{PlasmaConfig, PlasmaCore};
use serde_json::Value;

/// Faults per job: small enough for an 8-job matrix, large enough that
/// every component contributes detections.
const SAMPLE: u64 = 300;

/// The in-process single-shot reference: prepare the spec in this test
/// process, grade it serially at 512 lanes (wider than any job of the
/// matrix), and render the canonical conformance payload the daemon
/// must reproduce byte-for-byte.
fn reference_conformance(doc: &Value) -> String {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let (_, netlist, spec) = bench::server::parse_spec(doc).expect("reference spec parses");
    let job = sbst::jobs::prepare(&core, &spec);
    let segments = core.segments().map(<[u32]>::to_vec);
    let sim = EngineConfig::compiled(512).sim(core.netlist(), &segments);
    let program = &job.selftest.program;
    let result = campaign::run(
        &sim,
        &job.faults,
        || self_test_bench(&core, program, sbst::flow::MEM_BYTES, job.budget),
        1,
        &Telemetry::none(),
    );
    let coverage = CoverageReport::from_campaign(core.netlist(), &result);
    serde_json::to_string(&bench::server::conformance_json(
        &netlist, spec.phase, job.budget, &result, &coverage,
    ))
    .expect("serialize reference conformance")
}

fn matrix_spec(srv: &ServerProc, id: &str, lanes: u64, shards: u64, threads: u64) -> Value {
    serde_json::json!({
        "id": id.to_string(),
        "netlist": srv.fingerprint.clone(),
        "sample": SAMPLE,
        "lanes": lanes,
        "threads": threads,
        "shards": shards,
    })
}

/// The tentpole: every point of the shards × threads × lanes matrix,
/// graded by the daemon's work-stealing workers, serializes the same
/// conformance bytes as the single-shot in-process reference graded
/// serially at 512 lanes.
#[test]
fn daemon_sharded_matrix_is_byte_identical_to_single_shot() {
    let srv = spawn_server(&["--workers", "2"]);
    let reference = reference_conformance(&matrix_spec(&srv, "ref", 64, 1, 1));

    for lanes in [64u64, 128] {
        for shards in [2u64, 5] {
            for threads in [1u64, 2] {
                let id = format!("m-l{lanes}-s{shards}-t{threads}");
                let result = run_job(&srv, &matrix_spec(&srv, &id, lanes, shards, threads));
                let got = serde_json::to_string(&result["conformance"])
                    .expect("serialize daemon conformance");
                assert_eq!(
                    got, reference,
                    "daemon run `{id}` diverged from the single-shot reference"
                );
                assert_eq!(result["stats"]["shards"].as_u64(), Some(shards));
            }
        }
    }
}

/// Per-job progress streams over the existing `/events` SSE bus: a
/// client attached before submission sees the job's submit, per-shard
/// completions, and the final `job_done` with its coverage.
#[test]
fn job_progress_streams_over_sse() {
    let srv = spawn_server(&["--workers", "2"]);

    // Attach to /events first so every event of the job is observed.
    let addr = bench::client::authority(&srv.base);
    let mut sse = TcpStream::connect(&addr).expect("connect SSE");
    sse.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    write!(sse, "GET /events HTTP/1.0\r\nHost: {addr}\r\n\r\n").expect("send SSE request");
    let mut reader = BufReader::new(sse.try_clone().expect("clone SSE socket"));
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("read SSE head");
        if line == "\r\n" {
            break;
        }
    }

    let doc = common::spec(&srv, "sse-job");
    bench::client::submit_job(&srv.base, &doc).expect("submit");

    let mut kinds: Vec<String> = Vec::new();
    let mut shard_done = 0u64;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("read SSE event");
        let Some(data) = line.strip_prefix("data: ") else {
            continue;
        };
        let ev: Value = serde_json::from_str(data.trim_end()).expect("parse SSE event");
        if ev["job"].as_str() != Some("sse-job") {
            continue;
        }
        let kind = ev["ev"].as_str().unwrap_or("").to_string();
        if kind == "shard_done" {
            shard_done += 1;
        }
        let done = kind == "job_done";
        if done {
            assert!(ev["coverage_pct"].as_f64().expect("coverage in job_done") > 0.0);
        }
        kinds.push(kind);
        if done {
            break;
        }
    }
    assert!(
        kinds.contains(&"job_submitted".to_string()),
        "events: {kinds:?}"
    );
    assert!(
        kinds.contains(&"shard_claimed".to_string()),
        "events: {kinds:?}"
    );
    assert_eq!(shard_done, 2, "one shard_done per shard: {kinds:?}");
}

/// Compiled-kernel reuse across jobs (the PR-6 fingerprint cache):
/// the second compiled job on the same netlist fingerprint records
/// cache hits, zero compile misses, and zero compile-phase time — both
/// in the `/json` metric snapshot and in its own result document — and
/// still produces byte-identical conformance.
#[test]
fn second_job_on_same_fingerprint_reuses_the_compiled_kernel() {
    let srv = spawn_server(&["--workers", "1"]);
    let first = run_job(&srv, &matrix_spec(&srv, "warm", 128, 2, 1));
    let snap1 = metrics(&srv);
    let lowering1 = metric_value(&snap1, "sbst_kernel_lowering_ns_total").expect("lowering metric");
    let misses1 = metric_value(&snap1, "sbst_kernel_cache_misses_total").expect("miss metric");
    let hits1 = metric_value(&snap1, "sbst_kernel_cache_hits_total").unwrap_or(0);
    assert!(misses1 >= 1, "first compiled job must compile");
    assert!(lowering1 > 0, "compilation must record lowering time");
    assert_eq!(
        first["kernel_cache"]["misses_delta"].as_u64(),
        Some(misses1),
        "first job owns every compile miss"
    );

    let second = run_job(&srv, &matrix_spec(&srv, "reuse", 128, 2, 1));
    let snap2 = metrics(&srv);
    assert_eq!(
        metric_value(&snap2, "sbst_kernel_lowering_ns_total"),
        Some(lowering1),
        "second job must spend zero compile-phase time"
    );
    assert_eq!(
        metric_value(&snap2, "sbst_kernel_cache_misses_total"),
        Some(misses1),
        "second job must not compile"
    );
    assert!(
        metric_value(&snap2, "sbst_kernel_cache_hits_total").unwrap_or(0) > hits1,
        "second job must record cache hits"
    );

    // Per-job deltas in the result document say the same thing.
    assert_eq!(second["kernel_cache"]["misses_delta"].as_u64(), Some(0));
    assert_eq!(
        second["kernel_cache"]["lowering_ns_delta"].as_u64(),
        Some(0)
    );
    assert!(
        second["kernel_cache"]["hits_delta"]
            .as_u64()
            .expect("hits delta")
            >= 1
    );

    let a = serde_json::to_string(&first["conformance"]).unwrap();
    let b = serde_json::to_string(&second["conformance"]).unwrap();
    assert_eq!(a, b, "cache reuse must not change results");
}

/// Worker *processes* speaking the HTTP job API: a coordinator with no
/// in-process workers, two `server --worker --oneshot` processes claim
/// the four shards between them, and the merged result is byte-identical
/// to the in-process single-shot reference.
#[test]
fn external_worker_processes_grade_shards_over_http() {
    let srv = spawn_server(&["--workers", "0"]);
    let doc = matrix_spec(&srv, "ext", 64, 4, 1);
    let reference = reference_conformance(&matrix_spec(&srv, "ref", 64, 1, 1));
    bench::client::submit_job(&srv.base, &doc)
        .unwrap_or_else(|(s, e)| panic!("submit rejected ({s}): {e}"));

    let mut workers: Vec<std::process::Child> = (0..2)
        .map(|i| {
            std::process::Command::new(env!("CARGO_BIN_EXE_server"))
                .args([
                    "--worker",
                    "--connect",
                    &srv.base,
                    "--name",
                    &format!("proc-{i}"),
                    "--oneshot",
                    "--poll-ms",
                    "50",
                ])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn worker process")
        })
        .collect();

    let status = bench::client::wait_job(&srv.base, "ext", Duration::from_secs(120))
        .expect("externally graded job finishes");
    assert_eq!(status["state"].as_str(), Some("done"));
    for w in &mut workers {
        let code = w.wait().expect("worker exits");
        assert!(code.success(), "worker process failed: {code:?}");
    }

    let result = bench::client::fetch_result(&srv.base, "ext").expect("fetch result");
    let got = serde_json::to_string(&result["conformance"]).unwrap();
    assert_eq!(
        got, reference,
        "worker-process detections must merge bit-identically"
    );
    assert_eq!(result["stats"]["shards"].as_u64(), Some(4));

    // Distributed tracing: the coordinator's /trace merges its own
    // stream with both workers' shipped span batches into one Perfetto
    // trace — one process track per participant, every grade slice
    // stamped with the job's trace id.
    let trace = bench::client::fetch_trace(&srv.base).expect("fetch merged trace");
    let events = trace["traceEvents"].as_array().expect("traceEvents");
    let track_label = |pid: u64| -> Option<&str> {
        events
            .iter()
            .find(|e| e["name"].as_str() == Some("process_name") && e["pid"].as_u64() == Some(pid))
            .and_then(|e| e["args"]["name"].as_str())
    };
    assert_eq!(track_label(1), Some("coordinator"));
    assert_eq!(
        track_label(3),
        Some("worker proc-0"),
        "fleet pids are name-sorted"
    );
    assert_eq!(track_label(4), Some("worker proc-1"));
    let grades_of = |pid: u64| -> Vec<&Value> {
        events
            .iter()
            .filter(|e| {
                e["pid"].as_u64() == Some(pid)
                    && e["name"].as_str() == Some("shard_grade")
                    && e["args"]["trace_id"].as_str() == Some("ext")
            })
            .collect()
    };
    let (w0, w1) = (grades_of(3), grades_of(4));
    assert!(!w0.is_empty(), "worker proc-0 shipped no grade spans");
    assert!(!w1.is_empty(), "worker proc-1 shipped no grade spans");
    assert_eq!(w0.len() + w1.len(), 4, "one grade slice per shard");
    // Worker span ids follow the deterministic 2+shard scheme under root 1.
    for g in w0.iter().chain(&w1) {
        let span = g["args"]["span"].as_u64().expect("span id");
        assert!((2..6).contains(&span), "span {span} outside 2+shard range");
        assert_eq!(g["args"]["parent"].as_u64(), Some(1));
    }
    // The coordinator's own lifecycle made it into the same waterfall.
    for name in ["queue_wait", "merge", "finalize"] {
        assert!(
            events
                .iter()
                .any(|e| e["pid"].as_u64() == Some(1) && e["name"].as_str() == Some(name)),
            "coordinator `{name}` slice missing"
        );
    }

    // Fleet introspection: both worker processes are in the registry
    // with fresh heartbeats and their grade tallies.
    let fleet = bench::client::fetch_workers(&srv.base).expect("fetch workers");
    let list = fleet["workers"].as_array().expect("worker list");
    let by_id = |id: &str| -> &Value {
        list.iter()
            .find(|w| w["id"].as_str() == Some(id))
            .unwrap_or_else(|| panic!("worker `{id}` missing from registry"))
    };
    let mut completions = 0;
    for id in ["proc-0", "proc-1"] {
        let w = by_id(id);
        assert_eq!(w["kind"].as_str(), Some("http"));
        assert!(w["last_seen_ms_ago"].as_u64().expect("heartbeat") < 60_000);
        assert!(w["claims"].as_u64().unwrap_or(0) >= 1);
        assert!(w["span_events"].as_u64().unwrap_or(0) >= 2);
        assert_eq!(w["jobs"][0].as_str(), Some("ext"));
        completions += w["completions"].as_u64().unwrap_or(0);
    }
    assert_eq!(
        completions, 4,
        "every shard completion attributed to a worker"
    );

    // Latency decomposition: every phase histogram is populated.
    let (status, prom) = bench::client::get(&srv.base, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    for phase in ["queue", "claim", "grade", "merge", "finalize"] {
        assert!(
            prom.contains(&format!("phase=\"{phase}\"")),
            "phase `{phase}` missing from /metrics"
        );
    }
}
