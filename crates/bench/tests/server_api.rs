//! Request-hardening suite for the campaign job server's HTTP API, over
//! real sockets against the real `server` binary: every malformed or
//! conflicting submission is rejected with the right status code, and a
//! duplicate-id submit race between two live clients runs the job
//! exactly once — no lost shards, no double-graded shards.

mod common;

use std::time::Duration;

use common::{metric_value, metrics, run_job, spawn_server, spec};
use serde_json::Value;

/// One server shared by the rejection tests (each uses distinct job
/// ids); booting the binary costs ~a second, the requests milliseconds.
#[test]
fn rejections_carry_the_right_status_codes() {
    let srv = spawn_server(&["--workers", "1"]);

    // Malformed JSON → 400.
    let (status, body) =
        bench::client::post(&srv.base, "/jobs", "{not json").expect("post malformed");
    assert_eq!(status, 400, "malformed JSON: {body}");

    // Valid JSON, invalid spec → 400.
    let bad = serde_json::json!({"id": "bad-phase", "netlist": srv.fingerprint.clone(), "phase": "Z"});
    let (status, body) = bench::client::post(
        &srv.base,
        "/jobs",
        &serde_json::to_string(&bad).unwrap(),
    )
    .expect("post bad phase");
    assert_eq!(status, 400, "bad phase: {body}");

    // Unknown netlist fingerprint → 404.
    let mut doc = spec(&srv, "wrong-netlist");
    if let Value::Object(o) = &mut doc {
        o.insert("netlist".into(), Value::String("n1/g1/d1".into()));
    }
    let (status, body) = bench::client::post(
        &srv.base,
        "/jobs",
        &serde_json::to_string(&doc).unwrap(),
    )
    .expect("post unknown netlist");
    assert_eq!(status, 404, "unknown fingerprint: {body}");

    // Unknown job id → 404 on both status and result routes.
    let (status, _) = bench::client::get(&srv.base, "/jobs/never-submitted").expect("get status");
    assert_eq!(status, 404);
    let (status, _) =
        bench::client::get(&srv.base, "/jobs/never-submitted/result").expect("get result");
    assert_eq!(status, 404);

    // Oversized body → 413. The server rejects on the declared
    // Content-Length before reading the body, so only the head is sent
    // (sending megabytes into an already-closed socket would just race
    // a TCP reset against the response).
    {
        use std::io::{Read, Write};
        let addr = bench::client::authority(&srv.base);
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        write!(
            s,
            "POST /jobs HTTP/1.0\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            obs::serve::MAX_BODY_BYTES + 1024
        )
        .expect("send oversized head");
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("read 413");
        assert!(resp.starts_with("HTTP/1.0 413"), "oversized body: {resp}");
    }

    // HEAD /jobs → GET's 200 and Content-Length, no body.
    {
        use std::io::{Read, Write};
        let addr = bench::client::authority(&srv.base);
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        write!(s, "HEAD /jobs HTTP/1.0\r\nHost: {addr}\r\n\r\n").expect("send HEAD");
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("read HEAD reply");
        let (_, body) = bench::client::get(&srv.base, "/jobs").expect("get jobs");
        assert!(resp.starts_with("HTTP/1.0 200"), "HEAD /jobs: {resp}");
        assert!(
            resp.contains(&format!("Content-Length: {}\r\n", body.len())),
            "{resp}"
        );
        assert!(resp.ends_with("\r\n\r\n"), "HEAD /jobs sent a body: {resp}");
    }

    // Duplicate job id → 409 (the first submission wins and still runs).
    let doc = spec(&srv, "dup");
    let encoded = serde_json::to_string(&doc).unwrap();
    let (status, _) = bench::client::post(&srv.base, "/jobs", &encoded).expect("post first");
    assert_eq!(status, 202);
    let (status, body) = bench::client::post(&srv.base, "/jobs", &encoded).expect("post dup");
    assert_eq!(status, 409, "duplicate id: {body}");

    // Completion with wrong shard geometry → 400.
    let nonsense = serde_json::json!({
        "job": "dup", "shard": 0u64, "worker": "evil", "detections": [1u64, 2u64],
    });
    let (status, body) = bench::client::post(
        &srv.base,
        "/complete",
        &serde_json::to_string(&nonsense).unwrap(),
    )
    .expect("post bad completion");
    assert_eq!(status, 400, "wrong-geometry completion: {body}");

    // The first `dup` submission still runs to a clean finish.
    let status = bench::client::wait_job(&srv.base, "dup", Duration::from_secs(120))
        .expect("dup finishes");
    assert_eq!(status["state"].as_str(), Some("done"));
}

/// Two clients racing the same job id: exactly one 202 and one 409, the
/// job's shards are each graded exactly once, and no duplicate shard
/// completion is ever recorded.
#[test]
fn concurrent_duplicate_submit_runs_the_job_exactly_once() {
    let srv = spawn_server(&["--workers", "2"]);
    let doc = spec(&srv, "race");
    let encoded = serde_json::to_string(&doc).unwrap();

    let statuses: Vec<u16> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let base = srv.base.clone();
                let body = encoded.clone();
                s.spawn(move || bench::client::post(&base, "/jobs", &body).expect("race post").0)
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("race client")).collect()
    });
    let mut sorted = statuses.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![202, 409], "exactly one submission wins: {statuses:?}");

    // Exactly one job exists, it finishes, and every shard is done.
    let result = {
        let status = bench::client::wait_job(&srv.base, "race", Duration::from_secs(120))
            .expect("race job finishes");
        assert_eq!(status["state"].as_str(), Some("done"));
        assert_eq!(
            status["shards"]["done"].as_u64(),
            status["shards"]["total"].as_u64()
        );
        bench::client::fetch_result(&srv.base, "race").expect("race result")
    };
    assert_eq!(result["stats"]["shards"].as_u64(), Some(2));

    let (_, body) = bench::client::get(&srv.base, "/jobs").expect("list jobs");
    let list: Value = serde_json::from_str(&body).expect("parse job list");
    assert_eq!(list["jobs"].as_array().map(|a| a.len()), Some(1));

    // Shard accounting: 2 claimed, 2 completed, 0 duplicates.
    let snap = metrics(&srv);
    assert_eq!(metric_value(&snap, "sbst_server_shards_completed_total"), Some(2));
    assert_eq!(
        metric_value(&snap, "sbst_server_shards_duplicate_total").unwrap_or(0),
        0
    );
    assert_eq!(metric_value(&snap, "sbst_server_jobs_completed_total"), Some(1));
}

/// Read SSE frames from `/events` until `want` appears in a data frame
/// (or ~5 s pass), returning every `data:` payload seen in order.
fn sse_frames_until(base: &str, want: &str) -> Vec<String> {
    use std::io::{Read, Write};
    let addr = bench::client::authority(base);
    let mut s = std::net::TcpStream::connect(&addr).expect("connect SSE");
    s.set_read_timeout(Some(Duration::from_millis(250))).unwrap();
    write!(s, "GET /events HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .expect("send SSE request");
    let mut raw = String::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 4096];
    while std::time::Instant::now() < deadline {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.push_str(&String::from_utf8_lossy(&buf[..n]));
                if raw.contains(want) {
                    break;
                }
            }
            Err(_) => {} // timeout tick: check the deadline and retry
        }
    }
    raw.lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .map(str::to_string)
        .collect()
}

/// A worker that claims a shard and dies: with `--lease-ms 1` the lease
/// expires immediately, the next claimer steals the shard, and both
/// sides of the story are observable — `shard_lease_expired` and
/// `shard_stolen` on the SSE bus (with the replay header in front),
/// steal counters in `/metrics`, and both workers in `GET /workers`.
#[test]
fn expired_lease_emits_steal_events_on_the_bus() {
    let srv = spawn_server(&["--workers", "0", "--lease-ms", "1"]);
    let doc = serde_json::json!({
        "id": "steal",
        "netlist": srv.fingerprint.clone(),
        "sample": 60u64,
        "shards": 1u64,
    });
    let (status, _) = bench::client::post(
        &srv.base,
        "/jobs",
        &serde_json::to_string(&doc).unwrap(),
    )
    .expect("submit");
    assert_eq!(status, 202);

    let claim = |worker: &str| -> Value {
        let body = serde_json::json!({ "worker": worker.to_string() });
        let (status, resp) = bench::client::post(
            &srv.base,
            "/claim",
            &serde_json::to_string(&body).unwrap(),
        )
        .expect("claim");
        assert_eq!(status, 200);
        serde_json::from_str(&resp).expect("claim doc")
    };

    // `dying-worker` claims the only shard and never completes it.
    let first = claim("dying-worker");
    assert_eq!(first["assigned"].as_bool(), Some(true));
    assert_eq!(first["trace"]["trace_id"].as_str(), Some("steal"));
    assert!(first["now_us"].as_u64().is_some(), "claim carries the trace clock");
    std::thread::sleep(Duration::from_millis(10));

    // The lease has expired: `thief` steals the same shard.
    let second = claim("thief");
    assert_eq!(second["assigned"].as_bool(), Some(true));
    assert_eq!(second["shard"].as_u64(), first["shard"].as_u64());

    // Both steal events are on the bus, behind the replay header.
    let frames = sse_frames_until(&srv.base, "shard_stolen");
    let header: Value = serde_json::from_str(&frames[0]).expect("replay header");
    assert_eq!(header["ev"].as_str(), Some("replay"));
    assert_eq!(header["seq"].as_u64(), Some(0));
    assert_eq!(header["dropped"].as_u64(), Some(0));
    let events: Vec<Value> = frames[1..]
        .iter()
        .map(|f| serde_json::from_str(f).expect("event"))
        .collect();
    let expired = events
        .iter()
        .find(|e| e["ev"].as_str() == Some("shard_lease_expired"))
        .expect("shard_lease_expired on the bus");
    assert_eq!(expired["worker"].as_str(), Some("dying-worker"));
    assert_eq!(expired["job"].as_str(), Some("steal"));
    let stolen = events
        .iter()
        .find(|e| e["ev"].as_str() == Some("shard_stolen"))
        .expect("shard_stolen on the bus");
    assert_eq!(stolen["from"].as_str(), Some("dying-worker"));
    assert_eq!(stolen["to"].as_str(), Some("thief"));

    // Counters and the job's own steal tally agree.
    let snap = metrics(&srv);
    assert_eq!(metric_value(&snap, "sbst_server_leases_expired_total"), Some(1));
    assert_eq!(metric_value(&snap, "sbst_server_shards_stolen_total"), Some(1));
    let (status, body) = bench::client::get(&srv.base, "/jobs/steal").expect("status");
    assert_eq!(status, 200);
    let job: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(job["shards"]["steals"].as_u64(), Some(1));

    // The fleet registry saw both workers; the thief holds the lease.
    let fleet = bench::client::fetch_workers(&srv.base).expect("workers");
    let list = fleet["workers"].as_array().expect("worker list");
    let by_id = |id: &str| -> &Value {
        list.iter()
            .find(|w| w["id"].as_str() == Some(id))
            .unwrap_or_else(|| panic!("worker `{id}` missing from registry"))
    };
    assert_eq!(by_id("dying-worker")["claims"].as_u64(), Some(1));
    assert_eq!(by_id("thief")["claims"].as_u64(), Some(1));
    assert_eq!(by_id("thief")["kind"].as_str(), Some("http"));
    assert_eq!(by_id("thief")["in_flight"]["job"].as_str(), Some("steal"));
    assert_eq!(by_id("thief")["in_flight"]["shard"].as_u64(), Some(0));
}

/// A finished job's result is structurally sound; before any job exists
/// the result route 404s (checked above) and once done it serves the
/// merged conformance payload with as many detections as faults.
#[test]
fn result_document_is_complete() {
    let srv = spawn_server(&["--workers", "2"]);
    let result = run_job(&srv, &spec(&srv, "doc"));
    let conf = &result["conformance"];
    let faults = conf["faults"].as_u64().expect("faults");
    assert!(faults > 0);
    assert_eq!(
        conf["detections"].as_array().map(|a| a.len() as u64),
        Some(faults)
    );
    assert!(conf["coverage_pct"].as_f64().expect("coverage") > 0.0);
    assert!(conf["components"].as_array().map(|a| !a.is_empty()).unwrap_or(false));
    assert_eq!(result["id"].as_str(), Some("doc"));
    assert_eq!(result["spec"]["shards"].as_u64(), Some(2));
}

/// A worker's lane-cycles count only up to its cycles × the job's lanes:
/// a forged, oversized figure is capped there, while an honest one from
/// narrower batches stands.
#[test]
fn oversized_lane_cycles_are_capped_at_cycles_times_job_lanes() {
    let srv = spawn_server(&["--workers", "0"]);
    let doc = serde_json::json!({
        "id": "forged",
        "netlist": srv.fingerprint.clone(),
        "sample": 60u64,
        "shards": 2u64,
        "lanes": 128u64,
    });
    let (status, body) =
        bench::client::post(&srv.base, "/jobs", &serde_json::to_string(&doc).unwrap())
            .expect("submit");
    assert_eq!(status, 202, "{body}");
    // Every fault detected at cycle 0: one useful lane-cycle each. Both
    // shards claim 10 cycles; shard 0 forges its lane-cycles, shard 1
    // reports 10 cycles at 64 lanes.
    let mut useful = 0u64;
    for _ in 0..2 {
        let body = serde_json::json!({ "worker": "forger" });
        let (status, resp) =
            bench::client::post(&srv.base, "/claim", &serde_json::to_string(&body).unwrap())
                .expect("claim");
        assert_eq!(status, 200);
        let claim: Value = serde_json::from_str(&resp).expect("claim doc");
        let (lo, hi) = (claim["lo"].as_u64().unwrap(), claim["hi"].as_u64().unwrap());
        useful += hi - lo;
        let shard = claim["shard"].as_u64().unwrap();
        let spent = if shard == 0 { u64::MAX / 2 } else { 640 };
        let completion = serde_json::json!({
            "job": "forged",
            "shard": shard,
            "worker": "forger",
            "detections": Value::Array(vec![Value::U64(0); (hi - lo) as usize]),
            "stats": {
                "batches": 1u64,
                "cycles_simulated": 10u64,
                "lane_cycles_spent": spent,
                "threads": 1u64,
            },
        });
        let (status, body) = bench::client::post(
            &srv.base,
            "/complete",
            &serde_json::to_string(&completion).unwrap(),
        )
        .expect("complete");
        assert_eq!((status, body.as_str()), (200, "{\"accepted\": true}"));
    }
    let status = bench::client::wait_job(&srv.base, "forged", Duration::from_secs(60))
        .expect("forged job finishes");
    assert_eq!(status["state"].as_str(), Some("done"));
    let result = bench::client::fetch_result(&srv.base, "forged").expect("result");
    assert_eq!(result["stats"]["lanes"].as_u64(), Some(128));
    let utilization = result["stats"]["lane_utilization"].as_f64().unwrap();
    let want = useful as f64 / (10.0 * 128.0 + 640.0);
    assert!(
        (utilization - want).abs() < 1e-12,
        "{utilization} != {want}"
    );
}
