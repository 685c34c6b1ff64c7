//! The campaign job daemon: fault-sim-as-a-service over the observatory.
//!
//! **Coordinator** (default mode) — boot the Plasma core, mount the job
//! API on the observatory, and grade shards with in-process workers:
//!
//! ```text
//! server --port 0 --workers 2                 # port 0 picks a free one
//! server --port 8080 --ledger results/LEDGER.jsonl --lease-ms 60000
//! ```
//!
//! The bound address is announced on stderr
//! (`[campaign job server listening on http://127.0.0.1:PORT/ ...]`) so
//! scripts and CI can scrape the port. Submit with curl:
//!
//! ```text
//! curl -d '{"id":"demo","netlist":"<fp>","sample":2000,"shards":4}' \
//!      http://127.0.0.1:PORT/jobs
//! curl -N http://127.0.0.1:PORT/events        # live shard progress
//! curl http://127.0.0.1:PORT/jobs/demo/result # merged report when done
//! ```
//!
//! **Worker process** — claim shards from a coordinator over the same
//! HTTP API, grade them locally, and post detections back:
//!
//! ```text
//! server --worker --connect http://127.0.0.1:PORT --name w0
//! server --worker --connect http://127.0.0.1:PORT --oneshot   # drain & exit
//! ```
//!
//! Workers re-prepare jobs deterministically from the claimed spec —
//! only the spec and shard index travel over the wire, never fault
//! lists — so their detections merge bit-identically with shards graded
//! by any other worker. Each claim response carries the shard's trace
//! context and the coordinator's trace clock; the worker grades under
//! that context, rebases its span timestamps, and ships the batch back
//! via `POST /spans`, so `GET /trace` on the coordinator renders the
//! whole fleet as one Perfetto waterfall (`GET /workers` lists the
//! fleet itself).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bench::{client, server::JobServer, value};
use obs::Telemetry;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::jobs::{self, CampaignJobSpec, PreparedJob};
use serde_json::Value;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut port = 0u16;
    let mut workers = 2usize;
    let mut ledger: Option<String> = None;
    let mut lease_ms = 60_000u64;
    let mut worker_mode = false;
    let mut connect: Option<String> = None;
    let mut name = format!("worker-{}", std::process::id());
    let mut oneshot = false;
    let mut poll_ms = 100u64;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => port = value(&mut it, a, "a port number"),
            "--workers" => workers = value(&mut it, a, "a count"),
            "--ledger" => ledger = Some(value(&mut it, a, "a path")),
            "--lease-ms" => lease_ms = value(&mut it, a, "milliseconds"),
            "--worker" => worker_mode = true,
            "--connect" => connect = Some(value(&mut it, a, "a URL")),
            "--name" => name = value(&mut it, a, "a string"),
            "--oneshot" => oneshot = true,
            "--poll-ms" => poll_ms = value(&mut it, a, "milliseconds"),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: server [--port N] [--workers N] [--ledger file] [--lease-ms N]\n\
                     \x20      server --worker --connect URL [--name s] [--oneshot] [--poll-ms N]"
                );
                std::process::exit(2);
            }
        }
    }

    if worker_mode {
        let base = connect.unwrap_or_else(|| {
            eprintln!("--worker needs --connect URL");
            std::process::exit(2);
        });
        std::process::exit(run_worker(&base, &name, oneshot, poll_ms));
    }

    let core = Arc::new(PlasmaCore::build(PlasmaConfig::default()));
    let registry = obs::MetricRegistry::new();
    let bus = obs::EventBus::new(1024);
    bus.attach_dropped_counter(registry.counter(
        "obs_events_dropped_total",
        "events discarded by the drop-oldest policy",
        &[],
    ));
    // The coordinator's own trace stream; merged with worker-shipped
    // span batches into the fleet trace behind GET /trace.
    let (tracer, trace_buf) = obs::Tracer::to_shared_buffer();
    let mut server = JobServer::new(Arc::clone(&core), registry.clone(), bus.clone())
        .with_lease(Duration::from_millis(lease_ms))
        .with_tracer(tracer, trace_buf);
    if let Some(path) = &ledger {
        server = server.with_ledger(path);
    }
    let server = Arc::new(server);
    server.spawn_workers(workers);

    let timeline = obs::Timeline::start(registry.clone(), Duration::from_millis(250), 2400);
    let trace_srv = Arc::clone(&server);
    let observatory = obs::Observatory::new(registry)
        .with_timeline(timeline)
        .with_events(bus)
        .with_trace_provider(move || trace_srv.fleet_trace_json())
        .with_api(Arc::clone(&server) as Arc<dyn obs::serve::ApiHandler>);
    let srv = obs::serve::serve_observatory(observatory, port).expect("bind job server");
    eprintln!(
        "[campaign job server listening on http://{}/ — netlist {} — POST /jobs, GET /jobs, \
         /workers, /events, /metrics, /json, /trace; {} in-process worker(s)]",
        srv.addr(),
        server.fingerprint(),
        workers
    );
    loop {
        std::thread::park();
    }
}

/// Rebase a drained worker span batch onto the coordinator's trace
/// clock (`us += offset`) and POST it to `/spans`, chunked so no single
/// request approaches the server's body cap. Best-effort: tracing must
/// never fail a grade.
fn ship_spans(base: &str, name: &str, jsonl: &str, offset_us: i64) {
    let mut batch: Vec<Value> = Vec::new();
    let mut batch_bytes = 0usize;
    let flush = |batch: &mut Vec<Value>, bytes: &mut usize| {
        if batch.is_empty() {
            return;
        }
        let body = serde_json::to_string(&serde_json::json!({
            "worker": name.to_string(),
            "events": Value::Array(std::mem::take(batch)),
        }))
        .unwrap_or_default();
        *bytes = 0;
        match client::post(base, "/spans", &body) {
            Ok((200, _)) => {}
            Ok((status, err)) => eprintln!("[{name}] POST /spans → {status}: {err}"),
            Err(e) => eprintln!("[{name}] POST /spans failed: {e}"),
        }
    };
    for line in jsonl.lines() {
        let Ok(v) = serde_json::from_str(line) else {
            continue;
        };
        let Value::Object(mut o) = v else { continue };
        let us = o.get("us").and_then(|u| u.as_u64()).unwrap_or(0);
        o.insert(
            "us".into(),
            Value::U64((us as i64 + offset_us).max(0) as u64),
        );
        batch_bytes += line.len();
        batch.push(Value::Object(o));
        if batch.len() >= 512 || batch_bytes >= 128 * 1024 {
            flush(&mut batch, &mut batch_bytes);
        }
    }
    flush(&mut batch, &mut batch_bytes);
}

/// Worker-process loop: claim → (re)prepare → grade → ship spans →
/// complete. Returns the process exit code: 0 on a clean `--oneshot`
/// drain or coordinator shutdown, 1 on protocol errors.
fn run_worker(base: &str, name: &str, oneshot: bool, poll_ms: u64) -> i32 {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let fingerprint = bench::netlist_fingerprint(&core);
    // Every span the worker emits lands here and is shipped to the
    // coordinator after each graded shard.
    let (tracer, trace_buf) = obs::Tracer::to_shared_buffer();
    // Jobs re-prepare deterministically from the claimed spec; cache per
    // job id so a worker granted several shards prepares once.
    let mut prepared: HashMap<String, (CampaignJobSpec, PreparedJob)> = HashMap::new();
    let mut graded = 0u64;
    let mut connect_failures = 0u32;
    loop {
        let claim_body = serde_json::to_string(&serde_json::json!({ "worker": name.to_string() }))
            .expect("encode claim");
        let (status, body) = match client::post(base, "/claim", &claim_body) {
            Ok(r) => {
                connect_failures = 0;
                r
            }
            Err(e) => {
                connect_failures += 1;
                if connect_failures >= 20 {
                    eprintln!("[{name}] coordinator unreachable ({e}); giving up");
                    return if graded > 0 { 0 } else { 1 };
                }
                std::thread::sleep(Duration::from_millis(poll_ms.max(50)));
                continue;
            }
        };
        if status != 200 {
            eprintln!("[{name}] POST /claim → {status}: {body}");
            return 1;
        }
        let doc: Value = match serde_json::from_str(&body) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("[{name}] bad claim response: {e}");
                return 1;
            }
        };
        if doc["assigned"].as_bool() != Some(true) {
            if oneshot {
                eprintln!("[{name}] queue drained after {graded} shard(s); exiting");
                return 0;
            }
            std::thread::sleep(Duration::from_millis(poll_ms));
            continue;
        }
        let job_id = doc["job"].as_str().unwrap_or_default().to_string();
        let shard = doc["shard"].as_u64().unwrap_or(0) as usize;
        let (netlist, spec) = match bench::server::spec_from_claim(&doc["spec"]) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[{name}] bad claim spec for `{job_id}`: {e}");
                return 1;
            }
        };
        if netlist != fingerprint {
            eprintln!(
                "[{name}] claim for netlist {netlist} but this worker builds {fingerprint}; \
                 refusing"
            );
            return 1;
        }
        let stale = match prepared.get(&job_id) {
            Some((s, _)) => *s != spec,
            None => true,
        };
        if stale {
            let j = jobs::prepare(&core, &spec);
            prepared.insert(job_id.clone(), (spec, j));
        }
        let (spec, job) = &prepared[&job_id];
        eprintln!(
            "[{name}] grading shard {shard} of `{job_id}` ({} faults)",
            job.bounds[shard].1 - job.bounds[shard].0
        );
        // Distributed tracing: grade under the claim's propagated
        // context, then rebase this shard's spans onto the
        // coordinator's clock (its `now_us` minus ours at claim time).
        let clock_offset_us = doc["now_us"]
            .as_u64()
            .map(|now| now as i64 - tracer.elapsed_us().unwrap_or(0) as i64)
            .unwrap_or(0);
        let scoped = match obs::TraceContext::from_json(&doc["trace"]) {
            Some(ctx) => tracer.with_context(&ctx),
            None => tracer.clone(),
        }
        .scoped(&[("worker".to_string(), Value::String(name.to_string()))]);
        let span = scoped.span(
            "shard_grade",
            &[
                ("job", Value::String(job_id.clone())),
                ("shard", Value::U64(shard as u64)),
            ],
        );
        let telemetry = Telemetry {
            tracer: scoped.clone(),
            ..Telemetry::none()
        };
        let result = jobs::run_shard(&core, job, spec, shard, &telemetry);
        let (shard_graded, shard_detected) = jobs::shard_progress(&result);
        span.end_with(&[
            ("graded", Value::U64(shard_graded)),
            ("detected", Value::U64(shard_detected)),
        ]);
        ship_spans(base, name, &trace_buf.take(), clock_offset_us);
        let completion = bench::server::completion_json(&job_id, shard, name, &result);
        let body = serde_json::to_string(&completion).expect("encode completion");
        match client::post(base, "/complete", &body) {
            Ok((200, _)) => graded += 1,
            Ok((status, err)) => {
                eprintln!("[{name}] POST /complete → {status}: {err}");
                return 1;
            }
            Err(e) => {
                eprintln!("[{name}] POST /complete failed: {e}");
                return 1;
            }
        }
    }
}
