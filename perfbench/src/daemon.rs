//! `daemon_jobs`: the campaign job server booted in-process with the
//! `server` binary's wiring, driven over loopback HTTP by one
//! closed-loop client. One op runs from `POST /jobs`, through the
//! `job_done` event, to `GET /jobs/<id>/result`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bench::client;
use bench::server::JobServer;
use fault::campaign::{CampaignHooks, Detection};
use fault::coverage::CoverageReport;
use fault::engine::EngineConfig;
use obs::serve::ApiHandler;
use obs::{EventBus, MetricRegistry, Observatory, Timeline, TraceBuffer, Tracer};
use plasma::PlasmaCore;
use sbst::jobs::{self, CampaignJobSpec};
use sbst::phases::Phase;
use serde_json::Value;

use crate::grade::LANES;
use crate::outcome::{Effort, Outcome, Reference};
use crate::report::Report;
use crate::setup::{self, CYCLE_MARGIN};
use crate::stats::{histogram_quantile, median};
use crate::trace::{Scope, Trace};
use crate::{reference, Args, Workload};

/// In-process shard workers, as the `server` binary runs by default.
pub const WORKERS: usize = 2;
/// Shards per job: more than there are workers. With four, a job was two
/// rounds of one batch per worker, so one slowed worker set the whole
/// round trip; eight shards let the two workers balance as a campaign's
/// eight batches do.
pub const SHARDS: usize = 8;
/// Stratified sample target per job: about 1,004 faults, so each of the
/// 8 shards (about 126 faults) fits in one 255-fault batch.
pub const JOB_SAMPLE: usize = 1000;
/// An op that has not finished by then has failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The seed of job `i`: every job of a run grades a fresh sample.
pub fn job_seed(seed: u64, i: usize) -> u64 {
    // splitmix64 of the run seed and the job index.
    let mut z = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The spec a job of `seed` runs; the reference grades the same spec.
pub fn job_spec(seed: u64) -> CampaignJobSpec {
    CampaignJobSpec {
        phase: Phase::B,
        fault_sample: Some(JOB_SAMPLE),
        seed,
        cycle_margin: CYCLE_MARGIN,
        engine: EngineConfig::compiled(LANES),
        threads: 1,
        shards: SHARDS,
    }
}

/// The single-threaded, single-shot reference outcome of one job.
pub fn reference_outcome(core: &PlasmaCore, seed: u64) -> Outcome {
    let spec = job_spec(seed);
    let job = jobs::prepare(core, &spec);
    let result = sbst::flow::run_campaign_of_engine(
        core,
        &job.selftest.program,
        &job.faults,
        job.budget,
        1,
        &CampaignHooks::none(),
        spec.engine,
    );
    let coverage = CoverageReport::from_campaign(core.netlist(), &result);
    Outcome {
        detections: result.detections,
        total_weighted: coverage.total_faults,
        detected_weighted: coverage.total_detected,
        triage: None,
    }
}

/// The count metrics of one job graded shard by shard, as the server's
/// workers grade it: what a default-seed run's first job must repeat.
pub fn sharded_counts(core: &PlasmaCore, seed: u64) -> BTreeMap<&'static str, f64> {
    let spec = job_spec(seed);
    let job = jobs::prepare(core, &spec);
    let parts: Vec<_> = (0..job.bounds.len())
        .map(|s| {
            (
                s,
                jobs::run_shard(core, &job, &spec, s, &CampaignHooks::none()),
            )
        })
        .collect();
    let merged = jobs::merge(&job, &parts).expect("every shard graded once");
    let s = &merged.stats;
    Effort::of(
        &merged.detections,
        s.batches,
        s.cycles_simulated,
        s.lanes,
        job.budget,
    )
    .counts()
}

/// Boot the job server exactly as the `server` binary does (minus the
/// ledger): registry, event bus with its drop counter, coordinator
/// tracer, in-process workers, timeline and the observatory on a
/// loopback port. Returns the server, its event bus, its tracer's buffer
/// and its base URL.
fn boot(core: Arc<PlasmaCore>) -> (Arc<JobServer>, EventBus, TraceBuffer, String) {
    let registry = MetricRegistry::new();
    let bus = EventBus::new(1024);
    bus.attach_dropped_counter(registry.counter(
        "obs_events_dropped_total",
        "events discarded by the drop-oldest policy",
        &[],
    ));
    let (tracer, trace_buf) = Tracer::to_shared_buffer();
    let server = Arc::new(
        JobServer::new(core, registry.clone(), bus.clone()).with_tracer(tracer, trace_buf.clone()),
    );
    server.spawn_workers(WORKERS);
    let timeline = Timeline::start(registry.clone(), Duration::from_millis(250), 2400);
    let trace_srv = Arc::clone(&server);
    let observatory = Observatory::new(registry)
        .with_timeline(timeline)
        .with_events(bus.clone())
        .with_trace_provider(move || trace_srv.fleet_trace_json())
        .with_api(Arc::clone(&server) as Arc<dyn ApiHandler>);
    let srv =
        obs::serve::serve_observatory(observatory, 0).expect("bind the job server on loopback");
    (server, bus, trace_buf, format!("http://{}", srv.addr()))
}

/// One `/events` subscription, read on its own thread; job completions
/// arrive on a channel as soon as the server publishes them.
struct Events {
    stream: TcpStream,
    rx: Receiver<(String, String, String)>,
    reader: JoinHandle<()>,
}

impl Events {
    fn subscribe(base: &str) -> std::io::Result<Events> {
        let mut stream = TcpStream::connect(client::authority(base))?;
        stream.write_all(b"GET /events HTTP/1.0\r\n\r\n")?;
        let read_side = stream.try_clone()?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(read_side).lines() {
                let Ok(line) = line else { break };
                let Some(Ok(v)) = line.strip_prefix("data: ").map(serde_json::from_str) else {
                    continue;
                };
                let field = |k: &str| v[k].as_str().unwrap_or_default().to_string();
                if tx
                    .send((field("ev"), field("job"), field("error")))
                    .is_err()
                {
                    break;
                }
            }
        });
        let events = Events { stream, rx, reader };
        // The stream opens with the bus's replay header; once it is in,
        // no later event can be missed.
        match events.rx.recv_timeout(Duration::from_secs(10)) {
            Ok((ev, _, _)) if ev == "replay" => Ok(events),
            other => Err(std::io::Error::other(format!(
                "no SSE replay header: {other:?}"
            ))),
        }
    }

    /// Wait for `job_done` (or `job_failed`) of job `id`.
    fn wait(&self, id: &str, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok((ev, job, _)) if ev == "job_done" && job == id => return Ok(()),
                Ok((ev, job, err)) if ev == "job_failed" && job == id => {
                    return Err(format!("job failed: {err}"))
                }
                Ok(_) => {}
                Err(e) => return Err(format!("no job_done for `{id}`: {e}")),
            }
        }
    }

    fn close(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        let _ = self.reader.join();
    }
}

/// One finished job, as its result document reports it.
struct Job {
    id: String,
    seed: u64,
    secs: f64,
    outcome: Outcome,
    effort: Effort,
}

fn parse_result(doc: &Value) -> Result<(Outcome, Effort), String> {
    let conf = &doc["conformance"];
    let num = |v: &Value, what: &str| v.as_u64().ok_or(format!("result lacks `{what}`"));
    let detections = conf["detections"]
        .as_array()
        .ok_or("result lacks `detections`")?
        .iter()
        .map(|d| match d.as_i64() {
            Some(-1) => Ok(Detection::Undetected),
            Some(c) if c >= 0 => Ok(Detection::DetectedAt(c as u64)),
            _ => Err(format!("bad detection {d:?}")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let stats = &doc["stats"];
    let effort = Effort::of(
        &detections,
        num(&stats["batches"], "batches")?,
        num(&stats["cycles_simulated"], "cycles_simulated")?,
        num(&stats["lanes"], "lanes")?,
        num(&conf["budget"], "budget")?,
    );
    let outcome = Outcome {
        detections,
        total_weighted: num(&conf["total_faults_weighted"], "total_faults_weighted")?,
        detected_weighted: num(&conf["total_detected_weighted"], "total_detected_weighted")?,
        triage: None,
    };
    Ok((outcome, effort))
}

/// Run `daemon_jobs`.
pub fn run(args: &Args, trace: &Trace, report: &mut Report) {
    let boot_server = |b: &setup::Bench, scope: &Scope| {
        let _s = scope.layer("server.boot");
        drop(JobServer::new(
            Arc::clone(&b.core),
            MetricRegistry::new(),
            EventBus::new(1024),
        ));
    };
    let (mut setups, bench) =
        setup::Setups::start(Workload::DaemonJobs, args.seed, trace, &boot_server);
    let (server, bus, server_trace, base) = boot(Arc::clone(&bench.core));
    let events = Events::subscribe(&base).expect("subscribe to /events");
    report.lines.push(format!(
        "daemon_jobs: {WORKERS} workers, {SHARDS}-shard jobs of a {JOB_SAMPLE}-target sample, \
         {LANES} lanes, server at {base}"
    ));

    let run_job = |i: usize, traced: bool| -> Result<Job, String> {
        let seed = job_seed(args.seed, i);
        let id = format!("perfbench-{}-{i}", args.seed);
        let spec = bench::server::spec_json(server.fingerprint(), &job_spec(seed));
        let Value::Object(mut doc) = spec else {
            unreachable!("spec_json renders an object")
        };
        doc.insert("id".into(), Value::String(id.clone()));
        let doc = Value::Object(doc);
        let scope = trace.root(&format!("op-{i}"), "op", traced);
        let t0 = Instant::now();
        {
            let _s = scope.layer("client.submit");
            client::submit_job(&base, &doc)
                .map_err(|(s, e)| format!("submit refused ({s}): {e}"))?;
        }
        // The wait is not a layer call: the server's own spans account
        // for it when the closure is taken.
        events.wait(&id, JOB_TIMEOUT)?;
        let result = {
            let _s = scope.layer("client.result");
            client::fetch_result(&base, &id)?
        };
        let secs = t0.elapsed().as_secs_f64();
        drop(scope);
        let (outcome, effort) = parse_result(&result)?;
        Ok(Job {
            id,
            seed,
            secs,
            outcome,
            effort,
        })
    };

    // Job 0 is the warm-up; its counts are the run's count metrics, the
    // same for every run of a seed.
    let mut jobs: Vec<(bool, Result<Job, String>)> = vec![(false, run_job(0, false))];
    let window = Instant::now();
    let last = |jobs: &[(bool, Result<Job, String>)]| {
        jobs.last()
            .and_then(|j| j.1.as_ref().ok())
            .map_or(0.0, |j| j.secs)
    };
    // The warm-up, then at least one job of each kind a run times.
    let min_jobs = 2 + usize::from(args.trace);
    while jobs.len() < min_jobs || window.elapsed().as_secs_f64() + last(&jobs) / 2.0 < args.seconds
    {
        let i = jobs.len();
        let traced = args.trace && i.is_multiple_of(2);
        jobs.push((traced, run_job(i, traced)));
        setups.between_ops();
    }
    crate::set_peak_rss(report);
    setups.finish(report);
    events.close();

    // Check every job once the window is over: against the recorded
    // digest for the default seed, else a single-threaded run of the same
    // spec. Two reference runs go at once, one per CPU.
    let check = |i: usize, job: &Result<Job, String>| {
        let j = job.as_ref().map_err(|e| e.clone())?;
        let reference = match reference::digest(Workload::DaemonJobs, args.seed, i) {
            Some(d) => Reference::Digest(d),
            None => Reference::Run(reference_outcome(&bench.core, j.seed)),
        };
        reference.check(&j.outcome)
    };
    let (check, jobs_ref) = (&check, &jobs);
    let mut checks: Vec<(usize, Result<(), String>)> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    let mine = jobs_ref.iter().enumerate().skip(w).step_by(WORKERS);
                    mine.map(|(i, (_, j))| (i, check(i, j))).collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("a reference thread panicked"))
            .collect()
    });
    checks.sort_by_key(|c| c.0);
    for (i, c) in checks {
        report.op(&format!("job {i}"), c);
    }

    let done: Vec<(bool, &Job)> = jobs
        .iter()
        .filter_map(|(t, j)| Some((*t, j.as_ref().ok()?)))
        .collect();
    // The warm-up job is not timed.
    let plain: Vec<f64> = jobs
        .iter()
        .skip(1)
        .filter_map(|(t, j)| j.as_ref().ok().filter(|_| !t).map(|j| j.secs))
        .collect();
    let timed: Vec<f64> = done.iter().filter(|j| j.0).map(|j| j.1.secs).collect();
    let faults = median(
        &done
            .iter()
            .map(|j| j.1.effort.faults as f64)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    crate::set_latency(report, &plain, faults);

    if let Some(Ok(first)) = jobs.first().map(|j| j.1.as_ref()) {
        let counts = first.effort.counts();
        if let Some(line) = reference::compare_counts(Workload::DaemonJobs, args.seed, &counts) {
            report.lines.push(line);
        }
        for (name, v) in counts {
            report.set(name, v);
        }
        report.set("coverage.weighted_pct", first.outcome.coverage_pct());
    }
    let batches: u64 = done.iter().map(|j| j.1.effort.batches).sum();
    let min_batches: u64 = done
        .iter()
        .map(|j| j.1.effort.faults.div_ceil(LANES as u64 - 1))
        .sum();
    report.set(
        "jobs.fragmentation",
        batches as f64 / min_batches.max(1) as f64,
    );
    report.set("obs.events_dropped", bus.dropped() as f64);

    if args.trace {
        let scraped = client::get(&base, "/json")
            .map_err(|e| e.to_string())
            .and_then(|(status, body)| {
                (status == 200)
                    .then_some(body)
                    .ok_or(format!("GET /json answered {status}"))
            })
            .and_then(|body| serde_json::from_str(&body).map_err(|e| e.to_string()));
        match scraped {
            Ok(doc) => set_server_layers(report, &doc, &done),
            Err(e) => report.lines.push(format!("could not scrape /json: {e}")),
        }
        let spans = crate::trace::summarize(&trace.jsonl());
        let mut client_secs = 0.0;
        for (name, kind) in [
            ("client.submit_ms", "client.submit"),
            ("client.result_ms", "client.result"),
        ] {
            if let Some(v) = median(spans.secs(kind)) {
                report.set(name, v * 1e3);
            }
            client_secs += spans.secs(kind).iter().sum::<f64>();
        }
        // The closure of a job: its client calls plus the server's own
        // spans of it, over the op span.
        let server = server_secs(&server_trace.contents());
        let traced_jobs: Vec<&Job> = done.iter().filter(|j| j.0).map(|j| j.1).collect();
        let server_total: f64 = traced_jobs.iter().filter_map(|j| server.get(&j.id)).sum();
        let op_secs: f64 = spans.secs("op").iter().sum();
        let closure = (op_secs > 0.0).then(|| (client_secs + server_total) / op_secs);
        report.note(
            "trace.closure",
            format!(
                "client submit and result + server queue, grade and finalize spans \
                 of {} traced jobs",
                traced_jobs.len()
            ),
        );
        crate::set_trace_layers(report, closure, &plain, &timed);
    }
}

/// Server-side time of each job, read off the coordinator's own spans
/// and keyed by job id: its queue wait (submit to first claim), the wall
/// time from its first shard's grading start to its last shard's end
/// (the workers grade its shards side by side), and its finalize, which
/// holds the merge.
fn server_secs(jsonl: &str) -> BTreeMap<String, f64> {
    #[derive(Default)]
    struct Phases {
        queue_us: u64,
        grade_from: Option<u64>,
        grade_to: u64,
        finalize_us: u64,
    }
    let mut jobs: BTreeMap<String, Phases> = BTreeMap::new();
    for line in jsonl.lines() {
        let Ok(v) = serde_json::from_str(line) else {
            continue;
        };
        let (Some(ev), Some(id)) = (v["ev"].as_str(), v["trace_id"].as_str()) else {
            continue;
        };
        let (at, dur) = (
            v["us"].as_u64().unwrap_or(0),
            v["dur_us"].as_u64().unwrap_or(0),
        );
        let p = jobs.entry(id.to_string()).or_default();
        match ev {
            "queue_wait" => p.queue_us = dur,
            "shard_grade_end" => {
                let from = at.saturating_sub(dur);
                p.grade_from = Some(p.grade_from.map_or(from, |f| f.min(from)));
                p.grade_to = p.grade_to.max(at);
            }
            "finalize_end" => p.finalize_us = dur,
            _ => {}
        }
    }
    jobs.into_iter()
        .map(|(id, p)| {
            let grade_us = p.grade_from.map_or(0, |f| p.grade_to - f);
            (id, (p.queue_us + grade_us + p.finalize_us) as f64 / 1e6)
        })
        .collect()
}

/// Server-side layers from one `/json` scrape after the window: the p50
/// of each phase of `sbst_server_phase_latency_us` and the steal and
/// lease counters.
fn set_server_layers(report: &mut Report, doc: &Value, jobs: &[(bool, &Job)]) {
    let metrics = doc["metrics"].as_array().cloned().unwrap_or_default();
    let counter = |name: &str| {
        metrics
            .iter()
            .find(|m| m["name"].as_str() == Some(name))
            .and_then(|m| m["value"].as_u64())
            .unwrap_or(0) as f64
    };
    report.set(
        "server.shards_stolen",
        counter("sbst_server_shards_stolen_total"),
    );
    report.set(
        "server.leases_expired",
        counter("sbst_server_leases_expired_total"),
    );
    for (name, phase, scale) in [
        ("server.queue_us", "queue", 1.0),
        ("server.claim_us", "claim", 1.0),
        ("server.grade_ms", "grade", 1e-3),
        ("server.merge_us", "merge", 1.0),
        ("server.finalize_us", "finalize", 1.0),
    ] {
        let Some(h) = metrics.iter().find(|m| {
            m["name"].as_str() == Some("sbst_server_phase_latency_us")
                && m["labels"]["phase"].as_str() == Some(phase)
        }) else {
            continue;
        };
        let rows: Vec<(u64, u64, u64)> = h["buckets"]
            .as_array()
            .map(|b| {
                b.iter()
                    .filter_map(|r| {
                        Some((r["lo"].as_u64()?, r["hi"].as_u64()?, r["count"].as_u64()?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        if let Some(p50) = histogram_quantile(&rows, 0.5) {
            report.set(name, p50 * scale);
        }
        if phase == "grade" {
            // Shard grading time per simulated cycle, over every job.
            let cycles: u64 = jobs.iter().map(|j| j.1.effort.cycles_simulated).sum();
            let sum_us = h["sum"].as_u64().unwrap_or(0) as f64;
            report.set(
                "campaign.host_ns_per_cycle",
                sum_us * 1e3 / cycles.max(1) as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_time_is_queue_plus_grading_wall_plus_finalize() {
        let jsonl = [
            r#"{"us":100,"ev":"queue_wait","trace_id":"j","dur_us":100}"#,
            // Two shards graded side by side: 100..600 and 200..900 µs.
            r#"{"us":600,"ev":"shard_grade_end","trace_id":"j","dur_us":500}"#,
            r#"{"us":900,"ev":"shard_grade_end","trace_id":"j","dur_us":700}"#,
            r#"{"us":950,"ev":"finalize_end","trace_id":"j","dur_us":40}"#,
            r#"{"us":950,"ev":"batch","trace_id":"j","dur_us":999}"#,
            r#"{"us":5,"ev":"queue_wait","trace_id":"k","dur_us":5}"#,
        ]
        .join("\n");
        let s = server_secs(&jsonl);
        assert_eq!(s["j"], (100 + 800 + 40) as f64 / 1e6);
        assert_eq!(s["k"], 5.0 / 1e6);
    }
}
