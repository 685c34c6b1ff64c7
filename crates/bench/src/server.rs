//! Fault-sim-as-a-service: the campaign **job server** behind the
//! observatory's HTTP plane.
//!
//! The server owns one processor netlist (the Plasma core), an
//! [`obs::EventBus`] for live progress, and a queue of campaign jobs.
//! Submission is a `POST /jobs` with a JSON spec naming the netlist by
//! fingerprint; the server prepares the job deterministically
//! ([`sbst::jobs::prepare`]), tiles its fault list into contiguous
//! shards, and lets workers — in-process threads and/or external
//! `server --worker` processes speaking the same HTTP API — claim
//! shards under a lease. Each job keeps its shards, their results and
//! its state in one table under one lock ([`Job`]), so a claim, a
//! completion, finalization and a status read each see one consistent
//! state. Completed shards merge through [`sbst::jobs::merge`] into a
//! result bit-identical to a single-shot run of the same spec; every
//! finished job is appended to the run ledger with its shard count (its
//! own comparability lineage — never gated against single-shot history).
//!
//! Routes (all under the observatory, which keeps `/metrics`, `/json`,
//! `/timeline`, `/events`, `/trace`):
//!
//! * `POST /jobs`            — submit; 202 with the job's URLs
//! * `GET  /jobs`            — list job summaries
//! * `GET  /jobs/<id>`       — status (shard scoreboard, state)
//! * `GET  /jobs/<id>/result`— merged result once done (404 before)
//! * `POST /claim`           — worker processes: claim a shard
//! * `POST /complete`        — worker processes: deliver a shard result
//! * `POST /spans`           — worker processes: ship their span batch
//! * `GET  /workers`         — fleet registry with heartbeats
//!
//! **Distributed tracing.** Every job is one trace (trace id = job id).
//! The coordinator's own tracer ([`JobServer::with_tracer`]) records
//! submit, queue wait, merge and finalize; each `/claim` response
//! carries the shard's [`TraceContext`] plus the coordinator's
//! trace-clock (`now_us`), workers stamp the context on every span they
//! emit while grading, rebase their timestamps, and POST the batch back
//! to `/spans`. [`JobServer::fleet_trace_json`] merges the coordinator
//! stream with every worker's shipped stream into ONE Perfetto trace
//! (per-process tracks via `obs::traceviz::render_fleet`), so a sharded
//! job renders as a single waterfall.
//!
//! Request hardening: malformed JSON → 400, unknown fingerprint → 404,
//! duplicate job id → 409 (atomic under the job-table lock, so two
//! racing submitters get exactly one 202), oversized body → 413 (in the
//! HTTP plane), wrong shard geometry on `/complete` → 400, and each
//! worker's span stream is bounded (overflow is counted, never
//! buffered).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use fault::campaign::{CampaignResult, CampaignStats, Detection};
use fault::coverage::CoverageReport;
use fault::engine::EngineConfig;
use obs::serve::{ApiHandler, ApiRequest, ApiResponse};
use obs::traceviz::{self, ProcessStream};
use obs::{EventBus, MetricRegistry, Telemetry, TraceBuffer, TraceContext, Tracer};
use plasma::PlasmaCore;
use sbst::jobs::{self, CampaignJobSpec, PreparedJob};
use sbst::phases::Phase;
use serde_json::{Map, Value};

use crate::netlist_fingerprint;

/// Hard cap on shards per job: far beyond useful (a shard per fault),
/// small enough that a hostile spec cannot balloon the scoreboard.
pub const MAX_SHARDS: usize = 4096;
/// Hard cap on per-shard worker threads a spec may request.
pub const MAX_THREADS: usize = 64;
/// Hard cap on a spec's `cycle_margin` (1,024× the default), so a
/// hostile spec can neither wrap the budget nor hold a worker for ages.
pub const MAX_CYCLE_MARGIN: u64 = 65_536;
/// Default claim lease: a shard claimed this long ago without a result
/// is re-issued to the next claimer.
pub const DEFAULT_LEASE: Duration = Duration::from_secs(60);
/// Per-worker cap on buffered span-stream bytes; events past it are
/// counted (`sbst_server_span_events_dropped_total`) and discarded so a
/// chatty worker cannot balloon the coordinator.
pub const MAX_SPAN_BYTES_PER_WORKER: usize = 4 * 1024 * 1024;

/// Lifecycle of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Shards are being claimed and graded, or the last one is being
    /// merged.
    Running,
    /// All shards merged; the result document is available.
    Done,
    /// The merge failed; the message says why.
    Failed(String),
}

impl JobState {
    fn token(&self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// One shard's entry in its job's [`Table`].
enum Shard {
    /// Not yet claimed by any worker.
    Pending,
    /// Held by `worker` since `at`; claimable again from `deadline` on.
    Claimed {
        worker: String,
        deadline: Instant,
        at: Instant,
    },
    /// Graded; the result waits here until finalization takes it out.
    Done(Option<Box<CampaignResult>>),
}

impl Shard {
    fn token(&self) -> &'static str {
        match self {
            Shard::Pending => "pending",
            Shard::Claimed { .. } => "claimed",
            Shard::Done(_) => "done",
        }
    }
}

/// Everything about a job that changes while it runs, under its one lock.
struct Table {
    shards: Vec<Shard>,
    state: JobState,
    /// Claims that re-issued an expired lease (work steals).
    steals: u64,
    /// When the job's first shard was claimed: the end of its queue wait.
    first_claim: Option<Instant>,
    /// Faults graded across completed shards (convergence series).
    graded: u64,
    /// Faults detected across completed shards (convergence series).
    detected: u64,
}

impl Table {
    fn done(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s, Shard::Done(_)))
            .count()
    }
}

/// One submitted campaign job.
///
/// A completion stores its shard's result in the same critical section
/// that marks the shard done. Any later completion of that shard is a
/// duplicate, so exactly one completion marks the last shard done: that
/// one takes the results out and finalizes the job, and the job leaves
/// `Running` only once its result document exists.
pub struct Job {
    /// Client-chosen unique id.
    pub id: String,
    /// The parsed spec the job runs.
    pub spec: CampaignJobSpec,
    /// Deterministically prepared program/budget/faults/tiling.
    pub prepared: PreparedJob,
    submitted: Instant,
    submitted_ts: u64,
    cache_at_submit: (u64, u64, u64),
    table: Mutex<Table>,
    /// The merged result document, written once at finalization.
    result_json: OnceLock<String>,
}

impl Job {
    /// Current state.
    pub fn state(&self) -> JobState {
        self.table.lock().unwrap().state.clone()
    }

    /// The merged result document, once done.
    pub fn result_json(&self) -> Option<&str> {
        self.result_json.get().map(|s| s.as_str())
    }

    /// The job's root trace context (trace id = job id, span 1).
    pub fn trace_root(&self) -> TraceContext {
        TraceContext::root(&self.id)
    }

    /// The trace context a worker grading `shard` runs under: a child
    /// of the root with span id `2 + shard` (deterministic, so re-runs
    /// of a stolen shard share the span identity they re-execute).
    pub fn shard_ctx(&self, shard: usize) -> TraceContext {
        self.trace_root().child(2 + shard as u64)
    }
}

/// One known worker in the fleet registry: identity, transport, liveness
/// and work tallies for `GET /workers`, and the span stream it shipped.
struct WorkerEntry {
    name: String,
    /// `"local"` for in-process threads, `"http"` for worker processes.
    kind: &'static str,
    /// Last client socket address seen (`-` for in-process workers).
    addr: String,
    first_seen: Instant,
    last_seen: Instant,
    claims: u64,
    completions: u64,
    /// Distinct job ids this worker has claimed shards of.
    jobs: Vec<String>,
    /// Span events ingested from this worker via `POST /spans`.
    span_events: u64,
    /// The JSONL span stream shipped to `POST /spans`; `None` until the
    /// worker's first batch (only shippers get a track in the fleet
    /// trace).
    spans: Option<String>,
}

/// The job daemon: core registry, job table, shard scheduler, and the
/// HTTP API ([`ApiHandler`]) the observatory mounts.
pub struct JobServer {
    core: Arc<PlasmaCore>,
    fingerprint: String,
    registry: MetricRegistry,
    bus: EventBus,
    ledger: Option<PathBuf>,
    lease: Duration,
    jobs: Mutex<Vec<Arc<Job>>>,
    wake: Condvar,
    /// Coordinator-side tracer (disabled unless `with_tracer`).
    tracer: Tracer,
    /// The tracer's readable buffer, for the merged `/trace` render.
    trace_buffer: Option<TraceBuffer>,
    /// Fallback trace clock when no tracer is attached (claim responses
    /// always carry `now_us` so workers can rebase).
    t0: Instant,
    workers: Mutex<Vec<WorkerEntry>>,
}

impl JobServer {
    /// A server for `core`, publishing metrics into `registry` and
    /// progress events onto `bus`.
    pub fn new(core: Arc<PlasmaCore>, registry: MetricRegistry, bus: EventBus) -> JobServer {
        let fingerprint = netlist_fingerprint(&core);
        JobServer {
            core,
            fingerprint,
            registry,
            bus,
            ledger: None,
            lease: DEFAULT_LEASE,
            jobs: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            tracer: Tracer::disabled(),
            trace_buffer: None,
            t0: Instant::now(),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Append every completed job to this run ledger.
    pub fn with_ledger(mut self, path: impl Into<PathBuf>) -> JobServer {
        self.ledger = Some(path.into());
        self
    }

    /// Override the shard-claim lease (tests use milliseconds).
    pub fn with_lease(mut self, lease: Duration) -> JobServer {
        self.lease = lease;
        self
    }

    /// Attach the coordinator tracer (typically
    /// [`Tracer::to_shared_buffer`]): job lifecycle spans are recorded
    /// here, and [`JobServer::fleet_trace_json`] merges the buffer with
    /// every worker stream shipped to `POST /spans`. Give it no bus
    /// sink: in-process shards grade under it, and their batch events
    /// would flood the job lifecycle stream on `/events`.
    pub fn with_tracer(mut self, tracer: Tracer, buffer: TraceBuffer) -> JobServer {
        self.tracer = tracer;
        self.trace_buffer = Some(buffer);
        self
    }

    /// The fingerprint of the served netlist (what job specs must name).
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The metric registry the server publishes into.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Spawn `n` in-process shard workers. They live until process exit,
    /// sleeping on a condvar when no shard is claimable — the same
    /// daemon lifetime as the observatory's accept thread.
    pub fn spawn_workers(self: &Arc<Self>, n: usize) {
        for i in 0..n {
            let srv = Arc::clone(self);
            let name = format!("local-{i}");
            let _ = std::thread::Builder::new()
                .name(format!("shard-worker-{i}"))
                .spawn(move || loop {
                    match srv.claim_shard(&name, "local", "-") {
                        Some((job, shard)) => {
                            // In-process grading runs under the shard's
                            // trace context on the coordinator's own
                            // stream (external workers ship the same
                            // span shape through /spans).
                            let scoped = srv
                                .tracer
                                .with_context(&job.shard_ctx(shard))
                                .scoped(&[("worker".to_string(), Value::String(name.clone()))]);
                            let span = scoped.span(
                                "shard_grade",
                                &[
                                    ("job", Value::String(job.id.clone())),
                                    ("shard", Value::U64(shard as u64)),
                                ],
                            );
                            let telemetry = Telemetry {
                                metrics: Some(srv.registry.clone()),
                                tracer: scoped.clone(),
                                ..Telemetry::none()
                            };
                            let result = jobs::run_shard(
                                &srv.core,
                                &job.prepared,
                                &job.spec,
                                shard,
                                &telemetry,
                            );
                            let (graded, detected) = jobs::shard_progress(&result);
                            span.end_with(&[
                                ("graded", Value::U64(graded)),
                                ("detected", Value::U64(detected)),
                            ]);
                            srv.record_shard(&job, shard, result, &name);
                        }
                        None => {
                            let guard = srv.jobs.lock().unwrap();
                            let _ = srv
                                .wake
                                .wait_timeout(guard, Duration::from_millis(100))
                                .unwrap();
                        }
                    }
                });
        }
    }

    /// Look up a job by id.
    pub fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap()
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    /// Submit a parsed spec document. Returns the job or an HTTP-ish
    /// `(status, message)` rejection.
    pub fn submit(&self, doc: &Value) -> Result<Arc<Job>, (&'static str, String)> {
        let (id, netlist, spec) = parse_spec(doc).map_err(|e| ("400 Bad Request", e))?;
        if netlist != self.fingerprint {
            return Err((
                "404 Not Found",
                format!(
                    "unknown netlist fingerprint `{netlist}` (this server grades `{}`)",
                    self.fingerprint
                ),
            ));
        }
        if self.job(&id).is_some() {
            return Err(("409 Conflict", format!("job id `{id}` already exists")));
        }
        // Preparation is pure and can run outside the lock; the
        // duplicate check is repeated under it so two racing submitters
        // of the same id get exactly one 202.
        let prepared = jobs::prepare(&self.core, &spec);
        let shards = prepared.bounds.len();
        let job = Arc::new(Job {
            id: id.clone(),
            spec,
            submitted: Instant::now(),
            submitted_ts: obs::ledger::unix_now(),
            cache_at_submit: cache_totals(),
            table: Mutex::new(Table {
                shards: (0..shards).map(|_| Shard::Pending).collect(),
                state: JobState::Running,
                steals: 0,
                first_claim: None,
                graded: 0,
                detected: 0,
            }),
            result_json: OnceLock::new(),
            prepared,
        });
        {
            let mut jobs = self.jobs.lock().unwrap();
            if jobs.iter().any(|j| j.id == id) {
                return Err(("409 Conflict", format!("job id `{id}` already exists")));
            }
            jobs.push(Arc::clone(&job));
            self.wake.notify_all();
        }
        self.tracer.with_context(&job.trace_root()).event(
            "job_submitted",
            &[
                ("job", Value::String(id.clone())),
                ("shards", Value::U64(shards as u64)),
                ("faults", Value::U64(job.prepared.faults.len() as u64)),
            ],
        );
        self.counter("sbst_server_jobs_submitted_total").inc(1);
        self.bus.publish(
            "job_submitted",
            &[
                ("job", Value::String(id)),
                ("shards", Value::U64(shards as u64)),
                ("faults", Value::U64(job.prepared.faults.len() as u64)),
            ],
        );
        Ok(job)
    }

    /// Claim the next shard for `worker`: the lowest claimable shard of
    /// the oldest running job, where a shard is claimable while pending
    /// or once its lease has expired (re-issuing an expired lease counts
    /// as a steal). `kind` (`local`/`http`) and `addr` are the worker's
    /// transport and client address, for the fleet registry.
    pub fn claim_shard(
        &self,
        worker: &str,
        kind: &'static str,
        addr: &str,
    ) -> Option<(Arc<Job>, usize)> {
        let jobs: Vec<Arc<Job>> = self.jobs.lock().unwrap().clone();
        for job in jobs {
            let now = Instant::now();
            let mut table = job.table.lock().unwrap();
            if table.state != JobState::Running {
                continue;
            }
            let claimable = table.shards.iter().enumerate().find_map(|(i, s)| match s {
                Shard::Pending => Some((i, None)),
                Shard::Claimed {
                    worker, deadline, ..
                } if *deadline <= now => Some((i, Some(worker.clone()))),
                _ => None,
            });
            let Some((shard, stolen_from)) = claimable else {
                continue;
            };
            table.steals += u64::from(stolen_from.is_some());
            table.shards[shard] = Shard::Claimed {
                worker: worker.to_string(),
                deadline: now + self.lease,
                at: now,
            };
            let first_claim = table.first_claim.is_none();
            table.first_claim.get_or_insert(now);
            drop(table);

            self.counter("sbst_server_shards_claimed_total").inc(1);
            if let Some(lost) = stolen_from {
                // The previous holder's lease expired and the shard is
                // being re-issued: count it and put both sides of the
                // steal on the live bus.
                self.counter("sbst_server_leases_expired_total").inc(1);
                self.counter("sbst_server_shards_stolen_total").inc(1);
                self.bus.publish(
                    "shard_lease_expired",
                    &[
                        ("job", Value::String(job.id.clone())),
                        ("shard", Value::U64(shard as u64)),
                        ("worker", Value::String(lost.clone())),
                    ],
                );
                self.bus.publish(
                    "shard_stolen",
                    &[
                        ("job", Value::String(job.id.clone())),
                        ("shard", Value::U64(shard as u64)),
                        ("from", Value::String(lost)),
                        ("to", Value::String(worker.to_string())),
                    ],
                );
            }
            self.phase_latency("claim")
                .observe(job.submitted.elapsed().as_micros() as u64);
            if first_claim {
                // First shard leaving the queue: the job's queue-wait
                // phase ends here.
                let wait_us = job.submitted.elapsed().as_micros() as u64;
                self.phase_latency("queue").observe(wait_us);
                self.tracer.with_context(&job.trace_root()).event(
                    "queue_wait",
                    &[
                        ("job", Value::String(job.id.clone())),
                        ("dur_us", Value::U64(wait_us)),
                    ],
                );
            }
            self.touch_worker(worker, kind, addr, |w| {
                w.claims += 1;
                if !w.jobs.contains(&job.id) {
                    w.jobs.push(job.id.clone());
                }
            });
            self.bus.publish(
                "shard_claimed",
                &[
                    ("job", Value::String(job.id.clone())),
                    ("shard", Value::U64(shard as u64)),
                    ("worker", Value::String(worker.to_string())),
                ],
            );
            return Some((job, shard));
        }
        None
    }

    /// Record a completed shard graded by `worker`: its result lands in
    /// the same critical section that marks the shard done, and the
    /// completion that marks a running job's last shard done takes every
    /// result out and finalizes the job. Returns `false` for a late
    /// duplicate (the shard was already done, e.g. after a lease
    /// re-issue): the result is dropped, never merged twice.
    pub fn record_shard(
        &self,
        job: &Arc<Job>,
        shard: usize,
        result: CampaignResult,
        worker: &str,
    ) -> bool {
        let (g, d) = jobs::shard_progress(&result);
        let mut table = job.table.lock().unwrap();
        let claimed_at = match table.shards[shard] {
            Shard::Pending => None,
            Shard::Claimed { at, .. } => Some(at),
            Shard::Done(_) => {
                drop(table);
                self.counter("sbst_server_shards_duplicate_total").inc(1);
                return false;
            }
        };
        table.shards[shard] = Shard::Done(Some(Box::new(result)));
        // Cumulative convergence tallies (detected vs shards done) for
        // the SSE series and the dashboard panel.
        table.graded += g;
        table.detected += d;
        let (graded, detected) = (table.graded, table.detected);
        let (done, total) = (table.done(), table.shards.len());
        let parts: Option<Vec<(usize, CampaignResult)>> =
            (done == total && table.state == JobState::Running).then(|| {
                table
                    .shards
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(s, shard)| match shard {
                        Shard::Done(r) => r.take().map(|r| (s, *r)),
                        _ => None,
                    })
                    .collect()
            });
        drop(table);

        if let Some(at) = claimed_at {
            self.phase_latency("grade")
                .observe(at.elapsed().as_micros() as u64);
        }
        self.counter("sbst_server_shards_completed_total").inc(1);
        self.touch_worker_done(worker);
        self.bus.publish(
            "shard_done",
            &[
                ("job", Value::String(job.id.clone())),
                ("shard", Value::U64(shard as u64)),
                ("done", Value::U64(done as u64)),
                ("total", Value::U64(total as u64)),
                ("worker", Value::String(worker.to_string())),
                ("graded", Value::U64(graded)),
                ("detected", Value::U64(detected)),
            ],
        );
        if let Some(parts) = parts {
            self.finalize(job, &parts);
        }
        true
    }

    /// Merge a fully-graded job's shard results, render its result
    /// document, append the ledger record, and publish `job_done` (or
    /// `job_failed`). Runs without the job's lock, once per job: only
    /// the completion that marked the last shard done calls it. The job
    /// leaves `Running` after its result document is written.
    fn finalize(&self, job: &Arc<Job>, parts: &[(usize, CampaignResult)]) {
        let traced = self.tracer.with_context(&job.trace_root());
        let finalize_t0 = Instant::now();
        let finalize_span = traced.span("finalize", &[("job", Value::String(job.id.clone()))]);
        let merge_t0 = Instant::now();
        let merge_span = traced.span(
            "merge",
            &[
                ("job", Value::String(job.id.clone())),
                ("shards", Value::U64(parts.len() as u64)),
            ],
        );
        let merged = match jobs::merge(&job.prepared, parts) {
            Ok(m) => m,
            Err(e) => {
                drop(merge_span);
                drop(finalize_span);
                job.table.lock().unwrap().state = JobState::Failed(e.clone());
                self.counter("sbst_server_jobs_failed_total").inc(1);
                self.bus.publish(
                    "job_failed",
                    &[
                        ("job", Value::String(job.id.clone())),
                        ("error", Value::String(e)),
                    ],
                );
                return;
            }
        };
        drop(merge_span);
        self.phase_latency("merge")
            .observe(merge_t0.elapsed().as_micros() as u64);
        let coverage = CoverageReport::from_campaign(self.core.netlist(), &merged);
        let conformance = conformance_json(
            &self.fingerprint,
            job.spec.phase,
            job.prepared.budget,
            &merged,
            &coverage,
        );
        let (h0, m0, l0) = job.cache_at_submit;
        let (h1, m1, l1) = cache_totals();
        let mut doc = Map::new();
        doc.insert("id".into(), Value::String(job.id.clone()));
        doc.insert("spec".into(), spec_json(&self.fingerprint, &job.spec));
        doc.insert("conformance".into(), conformance);
        doc.insert(
            "stats".into(),
            serde_json::json!({
                "batches": merged.stats.batches,
                "cycles_simulated": merged.stats.cycles_simulated,
                "faults_dropped": merged.stats.faults_dropped,
                "lane_utilization": merged.stats.lane_utilization(),
                "wall_seconds": job.submitted.elapsed().as_secs_f64(),
                "threads": merged.stats.threads as u64,
                "engine": "compiled",
                "lanes": merged.stats.lanes,
                "shards": job.prepared.bounds.len() as u64,
            }),
        );
        doc.insert(
            "kernel_cache".into(),
            serde_json::json!({
                "hits_delta": h1 - h0,
                "misses_delta": m1 - m0,
                "lowering_ns_delta": l1 - l0,
            }),
        );
        let _ = job
            .result_json
            .set(serde_json::to_string_pretty(&Value::Object(doc)).unwrap_or_default());
        fault::kernel::export_cache_metrics(&self.registry);
        self.registry
            .gauge(
                "sbst_server_last_job_coverage_pct",
                "coverage of the last finished job",
                &[],
            )
            .set(coverage.overall_pct);
        self.counter("sbst_server_jobs_completed_total").inc(1);
        if let Some(path) = &self.ledger {
            let mut rec = crate::campaign_ledger_record(
                "server-job",
                &self.core,
                &merged,
                Some(coverage.overall_pct),
            );
            rec.cmd = format!("POST /jobs {}", job.id);
            rec.shards = job.prepared.bounds.len() as u64;
            rec.threads = job.spec.threads.max(1) as u64;
            rec.wall_seconds = job.submitted.elapsed().as_secs_f64();
            rec.extra
                .insert("job_id".into(), Value::String(job.id.clone()));
            rec.extra
                .insert("submitted_ts".into(), Value::U64(job.submitted_ts));
            if let Err(e) = obs::ledger::append(path, &rec) {
                eprintln!("warning: ledger append for job `{}` failed: {e}", job.id);
            }
        }
        job.table.lock().unwrap().state = JobState::Done;
        self.bus.publish(
            "job_done",
            &[
                ("job", Value::String(job.id.clone())),
                ("coverage_pct", Value::F64(coverage.overall_pct)),
                ("faults", Value::U64(merged.faults.len() as u64)),
            ],
        );
        finalize_span.end_with(&[("coverage_pct", Value::F64(coverage.overall_pct))]);
        self.phase_latency("finalize")
            .observe(finalize_t0.elapsed().as_micros() as u64);
    }

    fn counter(&self, name: &'static str) -> obs::Counter {
        self.registry
            .counter(name, "campaign job server counter", &[])
    }

    /// The per-job latency-decomposition histogram for one phase
    /// (`queue`/`claim`/`grade`/`merge`/`finalize`), in microseconds.
    fn phase_latency(&self, phase: &'static str) -> obs::Histogram {
        self.registry.histogram(
            "sbst_server_phase_latency_us",
            "per-job latency decomposition by phase (µs)",
            &[("phase", phase)],
        )
    }

    /// Microseconds on the coordinator's trace clock. Claim responses
    /// carry this so worker processes can rebase their span timestamps
    /// before shipping them to `POST /spans`.
    pub fn trace_now_us(&self) -> u64 {
        self.tracer
            .elapsed_us()
            .unwrap_or_else(|| self.t0.elapsed().as_micros() as u64)
    }

    /// Heartbeat `worker` in the fleet registry, creating its entry on
    /// first contact, and apply `update` to the entry under the
    /// registry lock.
    fn touch_worker<R>(
        &self,
        worker: &str,
        kind: &'static str,
        addr: &str,
        update: impl FnOnce(&mut WorkerEntry) -> R,
    ) -> R {
        let mut workers = self.workers.lock().unwrap();
        let i = match workers.iter().position(|w| w.name == worker) {
            Some(i) => i,
            None => {
                workers.push(WorkerEntry {
                    name: worker.to_string(),
                    kind,
                    addr: addr.to_string(),
                    first_seen: Instant::now(),
                    last_seen: Instant::now(),
                    claims: 0,
                    completions: 0,
                    jobs: Vec::new(),
                    span_events: 0,
                    spans: None,
                });
                workers.len() - 1
            }
        };
        let known = workers.len();
        let entry = &mut workers[i];
        entry.last_seen = Instant::now();
        if !addr.is_empty() {
            entry.addr = addr.to_string();
        }
        let out = update(entry);
        drop(workers);
        self.registry
            .gauge(
                "sbst_server_workers_known",
                "workers ever seen by the fleet registry",
                &[],
            )
            .set(known as f64);
        out
    }

    /// Heartbeat + completion tally for `worker`.
    fn touch_worker_done(&self, worker: &str) {
        let mut workers = self.workers.lock().unwrap();
        if let Some(e) = workers.iter_mut().find(|w| w.name == worker) {
            e.last_seen = Instant::now();
            e.completions += 1;
        }
    }

    /// Ingest a span batch shipped by `worker` from `addr`: JSONL-append
    /// `events` to the worker's stream in the fleet registry, bounded by
    /// [`MAX_SPAN_BYTES_PER_WORKER`]. A span shipper is a live fleet
    /// member even if it has not claimed here yet (e.g. it ships after
    /// its last completion). Returns `(ingested, dropped)`.
    pub fn ingest_spans(&self, worker: &str, addr: &str, events: &[Value]) -> (u64, u64) {
        let lines: Vec<String> = events
            .iter()
            .map(|ev| serde_json::to_string(ev).unwrap_or_default())
            .collect();
        let (ingested, dropped) = self.touch_worker(worker, "http", addr, |w| {
            let jsonl = w.spans.get_or_insert_with(String::new);
            let mut ingested = 0u64;
            for line in &lines {
                if jsonl.len() + line.len() + 1 > MAX_SPAN_BYTES_PER_WORKER {
                    continue;
                }
                jsonl.push_str(line);
                jsonl.push('\n');
                ingested += 1;
            }
            w.span_events += ingested;
            (ingested, lines.len() as u64 - ingested)
        });
        self.counter("sbst_server_span_events_total").inc(ingested);
        if dropped > 0 {
            self.counter("sbst_server_span_events_dropped_total")
                .inc(dropped);
        }
        (ingested, dropped)
    }

    /// The fleet registry document behind `GET /workers`: every known
    /// worker with liveness, work tallies, and its in-flight lease (the
    /// shard it currently holds a claim on, if any).
    pub fn workers_json(&self) -> Value {
        // In-flight leases come from the job tables, read one table at
        // a time before the registry is locked: each worker's first
        // claimed shard, oldest job first.
        let jobs: Vec<Arc<Job>> = self.jobs.lock().unwrap().clone();
        let mut in_flight: HashMap<String, Value> = HashMap::new();
        for job in &jobs {
            let table = job.table.lock().unwrap();
            for (shard, s) in table.shards.iter().enumerate() {
                if let Shard::Claimed { worker, .. } = s {
                    in_flight.entry(worker.clone()).or_insert_with(|| {
                        serde_json::json!({
                            "job": job.id.clone(),
                            "shard": shard as u64,
                        })
                    });
                }
            }
        }
        let workers = self.workers.lock().unwrap();
        let mut sorted: Vec<&WorkerEntry> = workers.iter().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        let list: Vec<Value> = sorted
            .iter()
            .map(|w| {
                serde_json::json!({
                    "id": w.name.clone(),
                    "kind": w.kind,
                    "addr": w.addr.clone(),
                    "first_seen_ms_ago": w.first_seen.elapsed().as_millis() as u64,
                    "last_seen_ms_ago": w.last_seen.elapsed().as_millis() as u64,
                    "claims": w.claims,
                    "completions": w.completions,
                    "jobs": Value::Array(
                        w.jobs.iter().map(|j| Value::String(j.clone())).collect()
                    ),
                    "span_events": w.span_events,
                    "in_flight": in_flight.get(&w.name).cloned().unwrap_or(Value::Null),
                })
            })
            .collect();
        serde_json::json!({
            "netlist": self.fingerprint.clone(),
            "workers": Value::Array(list),
        })
    }

    /// The merged fleet trace: the coordinator's own stream (pid 1) plus
    /// one process track per worker that shipped spans (pids
    /// [`traceviz::PID_FLEET_BASE`]`+ i` in worker-name order — stable,
    /// so goldens and e2e assertions can rely on it). Returns the
    /// Perfetto/Chrome trace JSON for `GET /trace`.
    pub fn fleet_trace_json(&self) -> String {
        let coordinator = self
            .trace_buffer
            .as_ref()
            .map(|b| b.contents())
            .unwrap_or_default();
        let mut streams = vec![ProcessStream {
            pid: traceviz::PID_TRACE,
            name: "coordinator".to_string(),
            jsonl: coordinator,
        }];
        let workers = self.workers.lock().unwrap();
        let mut shippers: Vec<(&str, &str)> = workers
            .iter()
            .filter_map(|w| Some((w.name.as_str(), w.spans.as_deref()?)))
            .collect();
        shippers.sort_by_key(|&(name, _)| name);
        for (i, (name, jsonl)) in shippers.into_iter().enumerate() {
            streams.push(ProcessStream {
                pid: traceviz::PID_FLEET_BASE + i as u64,
                name: format!("worker {name}"),
                jsonl: jsonl.to_string(),
            });
        }
        drop(workers);
        serde_json::to_string(&traceviz::render_fleet(&streams, None)).unwrap_or_default()
    }

    fn status_json(&self, job: &Job) -> Value {
        let table = job.table.lock().unwrap();
        let shards = serde_json::json!({
            "total": table.shards.len() as u64,
            "done": table.done() as u64,
            "steals": table.steals,
            "states": Value::Array(
                table.shards.iter().map(|s| Value::String(s.token().to_string())).collect()
            ),
        });
        let progress = serde_json::json!({
            "graded": table.graded,
            "detected": table.detected,
        });
        let state = table.state.clone();
        drop(table);
        let mut m = Map::new();
        m.insert("id".into(), Value::String(job.id.clone()));
        m.insert("state".into(), Value::String(state.token().to_string()));
        if let JobState::Failed(e) = &state {
            m.insert("error".into(), Value::String(e.clone()));
        }
        m.insert(
            "faults".into(),
            Value::U64(job.prepared.faults.len() as u64),
        );
        m.insert("budget".into(), Value::U64(job.prepared.budget));
        m.insert("shards".into(), shards);
        m.insert("progress".into(), progress);
        m.insert("spec".into(), spec_json(&self.fingerprint, &job.spec));
        m.insert("submitted_ts".into(), Value::U64(job.submitted_ts));
        Value::Object(m)
    }

    fn handle_submit(&self, req: &ApiRequest) -> ApiResponse {
        let body = match std::str::from_utf8(&req.body) {
            Ok(s) => s,
            Err(_) => {
                self.reject("400");
                return err_json("400 Bad Request", "job spec is not UTF-8");
            }
        };
        let doc = match serde_json::from_str(body) {
            Ok(v) => v,
            Err(e) => {
                self.reject("400");
                return err_json("400 Bad Request", &format!("malformed JSON job spec: {e}"));
            }
        };
        match self.submit(&doc) {
            Ok(job) => ApiResponse::json(
                "202 Accepted",
                serde_json::to_string(&serde_json::json!({
                    "id": job.id.clone(),
                    "faults": job.prepared.faults.len() as u64,
                    "shards": job.prepared.bounds.len() as u64,
                    "status": format!("/jobs/{}", job.id),
                    "result": format!("/jobs/{}/result", job.id),
                }))
                .unwrap_or_default(),
            ),
            Err((status, msg)) => {
                self.reject(status.split_whitespace().next().unwrap_or("400"));
                err_json(status, &msg)
            }
        }
    }

    fn reject(&self, code: &str) {
        self.registry
            .counter(
                "sbst_server_jobs_rejected_total",
                "rejected job-API requests by status code",
                &[("code", code)],
            )
            .inc(1);
    }

    fn handle_claim(&self, req: &ApiRequest) -> ApiResponse {
        let worker = std::str::from_utf8(&req.body)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok())
            .and_then(|v: Value| v["worker"].as_str().map(String::from))
            .unwrap_or_else(|| "anonymous".to_string());
        match self.claim_shard(&worker, "http", &req.peer) {
            Some((job, shard)) => {
                let (lo, hi) = job.prepared.bounds[shard];
                ApiResponse::ok_json(
                    serde_json::to_string(&serde_json::json!({
                        "assigned": true,
                        "job": job.id.clone(),
                        "shard": shard as u64,
                        "lo": lo as u64,
                        "hi": hi as u64,
                        "spec": spec_json(&self.fingerprint, &job.spec),
                        // Distributed-trace propagation: the context the
                        // worker grades under, plus the coordinator's
                        // trace clock for timestamp rebasing.
                        "trace": job.shard_ctx(shard).to_json(),
                        "now_us": self.trace_now_us(),
                    }))
                    .unwrap_or_default(),
                )
            }
            None => {
                // An empty-handed poll is still a heartbeat.
                self.touch_worker(&worker, "http", &req.peer, |_| ());
                ApiResponse::ok_json("{\"assigned\": false}")
            }
        }
    }

    fn handle_complete(&self, req: &ApiRequest) -> ApiResponse {
        let doc: Value = match std::str::from_utf8(&req.body)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok())
        {
            Some(v) => v,
            None => return err_json("400 Bad Request", "malformed JSON completion"),
        };
        let Some(id) = doc["job"].as_str() else {
            return err_json("400 Bad Request", "completion missing `job`");
        };
        let Some(job) = self.job(id) else {
            return err_json("404 Not Found", &format!("no job `{id}`"));
        };
        let Some(shard) = doc["shard"].as_u64().map(|s| s as usize) else {
            return err_json("400 Bad Request", "completion missing `shard`");
        };
        if shard >= job.prepared.bounds.len() {
            return err_json("400 Bad Request", &format!("shard {shard} out of range"));
        }
        let (lo, hi) = job.prepared.bounds[shard];
        let Some(dets) = doc["detections"].as_array() else {
            return err_json("400 Bad Request", "completion missing `detections`");
        };
        if dets.len() != hi - lo {
            return err_json(
                "400 Bad Request",
                &format!(
                    "shard [{lo}, {hi}) needs {} detections, got {}",
                    hi - lo,
                    dets.len()
                ),
            );
        }
        let mut detections = Vec::with_capacity(dets.len());
        for d in dets {
            match d.as_i64() {
                Some(-1) => detections.push(Detection::Undetected),
                Some(c) if c >= 0 => detections.push(Detection::DetectedAt(c as u64)),
                _ => return err_json("400 Bad Request", "detections must be -1 or a cycle number"),
            }
        }
        // Counts come from the worker; the engine and width are the
        // job's own, so a worker cannot skew the merged lane figures:
        // its lane-cycles are taken only up to its cycles × the job's
        // lanes, and never below the useful ones.
        let stats = &doc["stats"];
        let num = |k: &str| stats[k].as_u64().unwrap_or(0);
        let lanes = job.spec.engine.lanes() as u64;
        let useful = fault::campaign::useful_lane_cycles(&detections, job.prepared.budget);
        let spent = num("lane_cycles_spent")
            .min(num("cycles_simulated").saturating_mul(lanes))
            .max(useful);
        let result = CampaignResult {
            faults: job.prepared.faults.slice(lo, hi),
            stats: CampaignStats {
                batches: num("batches"),
                cycles_simulated: num("cycles_simulated"),
                budget_cycles: num("budget_cycles"),
                faults: detections.len() as u64,
                faults_dropped: detections.iter().filter(|d| d.is_detected()).count() as u64,
                lane_cycles_useful: useful,
                lane_cycles_spent: spent,
                wall_seconds: stats["wall_seconds"].as_f64().unwrap_or(0.0),
                threads: num("threads").max(1) as usize,
                lanes,
                ..CampaignStats::default()
            },
            detections,
        };
        let worker = doc["worker"].as_str().unwrap_or("anonymous");
        let accepted = self.record_shard(&job, shard, result, worker);
        ApiResponse::ok_json(format!("{{\"accepted\": {accepted}}}"))
    }

    /// `POST /spans`: a worker process ships a batch of tracer events
    /// (`{"worker": ..., "events": [...]}`), timestamps already rebased
    /// onto the coordinator's trace clock.
    fn handle_spans(&self, req: &ApiRequest) -> ApiResponse {
        let doc: Value = match std::str::from_utf8(&req.body)
            .ok()
            .and_then(|s| serde_json::from_str(s).ok())
        {
            Some(v) => v,
            None => return err_json("400 Bad Request", "malformed JSON span batch"),
        };
        let Some(worker) = doc["worker"].as_str().filter(|w| !w.is_empty()) else {
            return err_json("400 Bad Request", "span batch missing `worker`");
        };
        let Some(events) = doc["events"].as_array() else {
            return err_json("400 Bad Request", "span batch missing `events` array");
        };
        if events.iter().any(|e| e.as_object().is_none()) {
            return err_json("400 Bad Request", "span events must be JSON objects");
        }
        let (ingested, dropped) = self.ingest_spans(worker, &req.peer, events);
        ApiResponse::ok_json(
            serde_json::to_string(&serde_json::json!({
                "ingested": ingested,
                "dropped": dropped,
            }))
            .unwrap_or_default(),
        )
    }
}

impl ApiHandler for JobServer {
    fn handle(&self, req: &ApiRequest) -> Option<ApiResponse> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/jobs") => Some(self.handle_submit(req)),
            ("POST", "/claim") => Some(self.handle_claim(req)),
            ("POST", "/complete") => Some(self.handle_complete(req)),
            ("POST", "/spans") => Some(self.handle_spans(req)),
            ("GET", "/workers") => Some(ApiResponse::ok_json(
                serde_json::to_string_pretty(&self.workers_json()).unwrap_or_default(),
            )),
            ("GET", "/jobs") => {
                let list: Vec<Value> = self
                    .jobs
                    .lock()
                    .unwrap()
                    .clone()
                    .iter()
                    .map(|j| self.status_json(j))
                    .collect();
                Some(ApiResponse::ok_json(
                    serde_json::to_string_pretty(&serde_json::json!({
                        "netlist": self.fingerprint.clone(),
                        "jobs": Value::Array(list),
                    }))
                    .unwrap_or_default(),
                ))
            }
            ("GET", path) if path.starts_with("/jobs/") => {
                let rest = &path["/jobs/".len()..];
                let (id, want_result) = match rest.strip_suffix("/result") {
                    Some(id) => (id, true),
                    None => (rest, false),
                };
                let Some(job) = self.job(id) else {
                    return Some(err_json("404 Not Found", &format!("no job `{id}`")));
                };
                if !want_result {
                    return Some(ApiResponse::ok_json(
                        serde_json::to_string_pretty(&self.status_json(&job)).unwrap_or_default(),
                    ));
                }
                let (state, done, total) = {
                    let table = job.table.lock().unwrap();
                    (table.state.clone(), table.done(), table.shards.len())
                };
                match (state, job.result_json()) {
                    (JobState::Done, Some(doc)) => Some(ApiResponse::ok_json(doc.to_string())),
                    (JobState::Failed(e), _) => Some(err_json(
                        "500 Internal Server Error",
                        &format!("job failed: {e}"),
                    )),
                    _ => Some(err_json(
                        "404 Not Found",
                        &format!("job `{id}` not finished ({done}/{total} shards)"),
                    )),
                }
            }
            _ => None,
        }
    }
}

fn err_json(status: &str, msg: &str) -> ApiResponse {
    ApiResponse::json(
        status.to_string(),
        serde_json::to_string(&serde_json::json!({ "error": msg })).unwrap_or_default(),
    )
}

fn cache_totals() -> (u64, u64, u64) {
    let (h, m) = fault::kernel::cache_counters();
    (h, m, fault::kernel::cache_lowering_ns())
}

/// Parse a `POST /jobs` document into `(id, netlist fingerprint, spec)`.
/// Defaults mirror [`CampaignJobSpec::default`]; unknown keys are
/// ignored so clients can carry annotations.
pub fn parse_spec(doc: &Value) -> Result<(String, String, CampaignJobSpec), String> {
    let o = doc.as_object().ok_or("job spec must be a JSON object")?;
    let id = o
        .get("id")
        .and_then(|v| v.as_str())
        .filter(|s| !s.is_empty())
        .ok_or("job spec needs a nonempty string `id`")?
        .to_string();
    if id.len() > 128
        || !id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c))
    {
        return Err("job `id` must be ≤128 chars of [A-Za-z0-9._-]".into());
    }
    let netlist = o
        .get("netlist")
        .and_then(|v| v.as_str())
        .ok_or("job spec needs a string `netlist` fingerprint")?
        .to_string();
    let phase = match o.get("phase").and_then(|v| v.as_str()).unwrap_or("A") {
        "A" | "a" => Phase::A,
        "B" | "b" => Phase::B,
        "C" | "c" => Phase::C,
        other => return Err(format!("unknown phase `{other}` (want A, B, or C)")),
    };
    let fault_sample = match o.get("sample") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("`sample` must be a non-negative integer or null")? as usize,
        ),
    };
    let seed = match o.get("seed") {
        None => 0xC0FFEE,
        Some(v) => v.as_u64().ok_or("`seed` must be a non-negative integer")?,
    };
    let cycle_margin = match o.get("cycle_margin") {
        None => sbst::flow::CYCLE_MARGIN,
        Some(v) => v
            .as_u64()
            .ok_or("`cycle_margin` must be a non-negative integer")?,
    };
    if cycle_margin > MAX_CYCLE_MARGIN {
        return Err(format!(
            "cycle_margin {cycle_margin} exceeds the cap of {MAX_CYCLE_MARGIN}"
        ));
    }
    let lanes = match o.get("lanes") {
        None => 256,
        Some(v) => v.as_u64().ok_or("`lanes` must be an integer")? as usize,
    };
    let engine = match EngineConfig::words_for_lanes(lanes) {
        Some(_) => EngineConfig::compiled(lanes),
        None => {
            return Err(format!(
                "unsupported lane count {lanes} (want 64/128/256/512)"
            ))
        }
    };
    let threads = match o.get("threads") {
        None => 1,
        Some(v) => v
            .as_u64()
            .ok_or("`threads` must be a non-negative integer")? as usize,
    };
    if threads > MAX_THREADS {
        return Err(format!(
            "threads {threads} exceeds the cap of {MAX_THREADS}"
        ));
    }
    let shards = match o.get("shards") {
        None => 1,
        Some(v) => v.as_u64().ok_or("`shards` must be a positive integer")? as usize,
    };
    if shards == 0 || shards > MAX_SHARDS {
        return Err(format!("shards must be in [1, {MAX_SHARDS}], got {shards}"));
    }
    Ok((
        id,
        netlist,
        CampaignJobSpec {
            phase,
            fault_sample,
            seed,
            cycle_margin,
            engine,
            threads,
            shards,
        },
    ))
}

/// The canonical JSON echo of a spec (what `/claim` ships to worker
/// processes — everything needed to re-prepare the job byte-identically).
pub fn spec_json(fingerprint: &str, spec: &CampaignJobSpec) -> Value {
    serde_json::json!({
        "netlist": fingerprint.to_string(),
        "phase": phase_token(spec.phase),
        "sample": match spec.fault_sample {
            Some(n) => Value::U64(n as u64),
            None => Value::Null,
        },
        "seed": spec.seed,
        "cycle_margin": spec.cycle_margin,
        "lanes": spec.engine.lanes() as u64,
        "threads": spec.threads as u64,
        "shards": spec.shards as u64,
    })
}

/// Single-letter phase token used in specs and filenames.
pub fn phase_token(phase: Phase) -> &'static str {
    match phase {
        Phase::A => "A",
        Phase::B => "B",
        Phase::C => "C",
    }
}

/// Encode detections for the wire and the conformance payload: `-1` for
/// undetected, else the detection cycle.
pub fn detections_json(detections: &[Detection]) -> Value {
    Value::Array(
        detections
            .iter()
            .map(|d| match d {
                Detection::Undetected => Value::I64(-1),
                Detection::DetectedAt(c) => Value::U64(*c),
            })
            .collect(),
    )
}

/// The **conformance payload**: everything a campaign's outcome
/// determines and nothing an execution strategy does. Two runs of the
/// same spec — single-shot or any shards × threads × lane-width combination
/// — must serialize this to identical bytes; the e2e suite holds the
/// daemon to exactly that.
pub fn conformance_json(
    fingerprint: &str,
    phase: Phase,
    budget: u64,
    result: &CampaignResult,
    coverage: &CoverageReport,
) -> Value {
    let components: Vec<Value> = coverage
        .components
        .iter()
        .map(|c| {
            serde_json::json!({
                "name": c.name.clone(),
                "total": c.total,
                "detected": c.detected,
                "coverage_pct": c.coverage_pct,
            })
        })
        .collect();
    serde_json::json!({
        "netlist": fingerprint.to_string(),
        "phase": phase_token(phase),
        "budget": budget,
        "faults": result.faults.len() as u64,
        "total_uncollapsed": result.faults.total_uncollapsed as u64,
        "detections": detections_json(&result.detections),
        "total_faults_weighted": coverage.total_faults,
        "total_detected_weighted": coverage.total_detected,
        "coverage_pct": coverage.overall_pct,
        "components": Value::Array(components),
    })
}

/// Build the `POST /complete` body for a graded shard (the worker-
/// process side of [`JobServer::handle_complete`]).
pub fn completion_json(job_id: &str, shard: usize, worker: &str, result: &CampaignResult) -> Value {
    serde_json::json!({
        "job": job_id.to_string(),
        "shard": shard as u64,
        "worker": worker.to_string(),
        "detections": detections_json(&result.detections),
        "stats": {
            "batches": result.stats.batches,
            "cycles_simulated": result.stats.cycles_simulated,
            "lane_cycles_spent": result.stats.lane_cycles_spent,
            "budget_cycles": result.stats.budget_cycles,
            "wall_seconds": result.stats.wall_seconds,
            "threads": result.stats.threads as u64,
            "engine": "compiled",
            "lanes": result.stats.lanes,
        },
    })
}

/// Parse the spec object of a `/claim` response back into a
/// [`CampaignJobSpec`] (the worker-process side of `spec_json`).
pub fn spec_from_claim(spec: &Value) -> Result<(String, CampaignJobSpec), String> {
    let mut doc = spec.clone();
    if let Value::Object(o) = &mut doc {
        o.insert("id".into(), Value::String("claim".into()));
    }
    let (_, netlist, parsed) = parse_spec(&doc)?;
    Ok((netlist, parsed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma::PlasmaConfig;

    fn server() -> Arc<JobServer> {
        let core = Arc::new(PlasmaCore::build(PlasmaConfig::default()));
        Arc::new(JobServer::new(
            core,
            MetricRegistry::new(),
            EventBus::new(64),
        ))
    }

    fn spec_doc(srv: &JobServer, id: &str, shards: u64) -> Value {
        serde_json::json!({
            "id": id.to_string(),
            "netlist": srv.fingerprint().to_string(),
            "sample": 120u64,
            "shards": shards,
        })
    }

    /// A spec of about 60 faults: quick to grade shard by shard.
    fn small_spec(srv: &JobServer, id: &str, shards: u64) -> Value {
        let mut doc = spec_doc(srv, id, shards);
        if let Value::Object(o) = &mut doc {
            o.insert("sample".into(), Value::U64(60));
        }
        doc
    }

    /// Every shard of `job` graded once, outside the server: what a
    /// worker delivers for each.
    fn graded_shards(srv: &JobServer, job: &Job) -> Vec<CampaignResult> {
        (0..job.prepared.bounds.len())
            .map(|s| jobs::run_shard(&srv.core, &job.prepared, &job.spec, s, &Telemetry::none()))
            .collect()
    }

    fn duplicates(srv: &JobServer) -> u64 {
        srv.counter("sbst_server_shards_duplicate_total").get()
    }

    /// Each claim takes the lowest free shard once; while every lease is
    /// live nothing is left to claim, and once the last result lands the
    /// job is done and nothing is claimable.
    #[test]
    fn claims_take_each_shard_once_then_run_dry() {
        let srv = server();
        let job = srv.submit(&small_spec(&srv, "dry", 3)).unwrap();
        let results = graded_shards(&srv, &job);
        let claimed: Vec<usize> = ["w1", "w2", "w1"]
            .iter()
            .map(|w| srv.claim_shard(w, "local", "-").unwrap().1)
            .collect();
        assert_eq!(claimed, vec![0, 1, 2]);
        // All leased: nothing to steal yet.
        assert!(srv.claim_shard("w3", "local", "-").is_none());
        for (shard, result) in results.into_iter().enumerate() {
            assert!(srv.record_shard(&job, shard, result, "w1"));
        }
        assert_eq!(job.state(), JobState::Done);
        assert_eq!(srv.status_json(&job)["shards"]["done"].as_u64(), Some(3));
        assert!(srv.claim_shard("w3", "local", "-").is_none());
    }

    /// An expired lease is re-issued to the next claimer as a steal that
    /// names the worker that lost it; the first completion wins and the
    /// late one is refused and counted.
    #[test]
    fn expired_lease_is_reissued_and_a_late_duplicate_refused() {
        let core = Arc::new(PlasmaCore::build(PlasmaConfig::default()));
        let bus = EventBus::new(64);
        let srv = JobServer::new(core, MetricRegistry::new(), bus.clone())
            .with_lease(Duration::from_millis(1));
        let job = srv.submit(&small_spec(&srv, "lease", 1)).unwrap();
        let result = graded_shards(&srv, &job).remove(0);
        let steals = |srv: &JobServer| srv.status_json(&job)["shards"]["steals"].as_u64();
        assert_eq!(srv.claim_shard("dying-worker", "local", "-").unwrap().1, 0);
        assert_eq!(steals(&srv), Some(0), "a first claim steals nothing");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(srv.claim_shard("live-worker", "local", "-").unwrap().1, 0);
        assert_eq!(steals(&srv), Some(1));
        let stolen: Value = bus
            .poll_after(0, Duration::ZERO)
            .iter()
            .map(|(_, ev)| serde_json::from_str(ev).unwrap())
            .find(|ev| ev["ev"].as_str() == Some("shard_stolen"))
            .expect("shard_stolen on the bus");
        assert_eq!(stolen["from"].as_str(), Some("dying-worker"));
        assert_eq!(stolen["to"].as_str(), Some("live-worker"));
        assert!(srv.record_shard(&job, 0, result.clone(), "live-worker"));
        assert!(
            !srv.record_shard(&job, 0, result, "dying-worker"),
            "late duplicate refused"
        );
        assert_eq!(duplicates(&srv), 1);
        assert_eq!(job.state(), JobState::Done);
    }

    /// The two completions of a job's two shards race each other: the
    /// job finalizes once, after both results have landed, with the
    /// single-shot detections.
    #[test]
    fn racing_last_shard_completions_finalize_with_both_results() {
        let srv = server();
        let jobs: Vec<Arc<Job>> = (0..100)
            .map(|i| {
                srv.submit(&small_spec(&srv, &format!("race-{i}"), 2))
                    .unwrap()
            })
            .collect();
        let (spec, prepared) = (&jobs[0].spec, &jobs[0].prepared);
        let results = graded_shards(&srv, &jobs[0]);
        let single = sbst::flow::run_campaign_of_engine(
            &srv.core,
            &prepared.selftest.program,
            &prepared.faults,
            prepared.budget,
            1,
            &Telemetry::none(),
            spec.engine,
        );
        let want = detections_json(&single.detections);
        for job in &jobs {
            let start = std::sync::Barrier::new(results.len());
            std::thread::scope(|s| {
                for (shard, result) in results.iter().enumerate() {
                    let (srv, start, result) = (&srv, &start, result.clone());
                    s.spawn(move || {
                        start.wait();
                        assert!(srv.record_shard(job, shard, result, "w"));
                    });
                }
            });
            assert_eq!(job.state(), JobState::Done, "job {}", job.id);
            let doc: Value = serde_json::from_str(job.result_json().unwrap()).unwrap();
            assert_eq!(doc["conformance"]["detections"], want, "job {}", job.id);
        }
        assert_eq!(duplicates(&srv), 0);
    }

    #[test]
    fn submit_claim_complete_lifecycle_in_process() {
        let srv = server();
        let job = srv.submit(&spec_doc(&srv, "j1", 2)).unwrap();
        assert_eq!(job.state(), JobState::Running);
        // Grade both shards through the claim path, like a worker would.
        while let Some((job, shard)) = srv.claim_shard("t", "local", "-") {
            let res = jobs::run_shard(
                &srv.core,
                &job.prepared,
                &job.spec,
                shard,
                &Telemetry::none(),
            );
            assert!(srv.record_shard(&job, shard, res, "t"));
        }
        assert_eq!(job.state(), JobState::Done);
        let doc: Value = serde_json::from_str(job.result_json().unwrap()).unwrap();
        assert!(doc["conformance"]["coverage_pct"].as_f64().unwrap() > 0.0);
        assert_eq!(doc["stats"]["shards"].as_u64(), Some(2));
    }

    #[test]
    fn submit_rejections_cover_the_status_codes() {
        let srv = server();
        // Unknown fingerprint → 404.
        let mut bad = spec_doc(&srv, "j1", 1);
        if let Value::Object(o) = &mut bad {
            o.insert("netlist".into(), Value::String("n0/g0/d0".into()));
        }
        assert_eq!(srv.submit(&bad).map(|_| ()).unwrap_err().0, "404 Not Found");
        // Bad field → 400.
        let mut bad = spec_doc(&srv, "j1", 1);
        if let Value::Object(o) = &mut bad {
            o.insert("phase".into(), Value::String("Z".into()));
        }
        assert_eq!(
            srv.submit(&bad).map(|_| ()).unwrap_err().0,
            "400 Bad Request"
        );
        // A cycle margin past the cap → 400; the cap itself is accepted.
        let margin = |m: u64| {
            let mut doc = spec_doc(&srv, "jm", 1);
            if let Value::Object(o) = &mut doc {
                o.insert("cycle_margin".into(), Value::U64(m));
            }
            doc
        };
        for m in [u64::MAX, MAX_CYCLE_MARGIN + 1] {
            assert_eq!(
                srv.submit(&margin(m)).map(|_| ()).unwrap_err().0,
                "400 Bad Request"
            );
        }
        let job = srv.submit(&margin(MAX_CYCLE_MARGIN)).unwrap();
        assert_eq!(
            job.prepared.budget,
            job.prepared.golden_cycles + MAX_CYCLE_MARGIN
        );
        // Duplicate id → 409.
        srv.submit(&spec_doc(&srv, "j1", 1)).unwrap();
        assert_eq!(
            srv.submit(&spec_doc(&srv, "j1", 2))
                .map(|_| ())
                .unwrap_err()
                .0,
            "409 Conflict"
        );
    }

    #[test]
    fn fleet_trace_merges_coordinator_and_worker_streams() {
        let core = Arc::new(PlasmaCore::build(PlasmaConfig::default()));
        let (tracer, buffer) = Tracer::to_shared_buffer();
        let srv = Arc::new(
            JobServer::new(core, MetricRegistry::new(), EventBus::new(64))
                .with_tracer(tracer, buffer),
        );
        let job = srv.submit(&spec_doc(&srv, "jt", 2)).unwrap();
        while let Some((job, shard)) = srv.claim_shard("t0", "local", "-") {
            let res = jobs::run_shard(
                &srv.core,
                &job.prepared,
                &job.spec,
                shard,
                &Telemetry::none(),
            );
            assert!(srv.record_shard(&job, shard, res, "t0"));
        }
        assert_eq!(job.state(), JobState::Done);
        // A worker process ships a rebased shard_grade span pair.
        let ctx = job.shard_ctx(0);
        let span_ev = |us: u64, ev: &str, dur: Option<u64>| {
            let mut m = Map::new();
            m.insert("us".into(), Value::U64(us));
            m.insert("tid".into(), Value::U64(1));
            m.insert("ev".into(), Value::String(ev.to_string()));
            for (k, v) in ctx.fields() {
                m.insert(k, v);
            }
            if let Some(d) = dur {
                m.insert("dur_us".into(), Value::U64(d));
            }
            Value::Object(m)
        };
        let (ingested, dropped) = srv.ingest_spans(
            "proc-0",
            "",
            &[
                span_ev(10, "shard_grade_begin", None),
                span_ev(15, "shard_grade_end", Some(5)),
            ],
        );
        assert_eq!((ingested, dropped), (2, 0));

        let trace: Value = serde_json::from_str(&srv.fleet_trace_json()).unwrap();
        let events = trace["traceEvents"].as_array().unwrap();
        let pids: std::collections::BTreeSet<u64> =
            events.iter().filter_map(|e| e["pid"].as_u64()).collect();
        assert!(
            pids.contains(&traceviz::PID_TRACE),
            "coordinator track missing"
        );
        assert!(
            pids.contains(&traceviz::PID_FLEET_BASE),
            "worker track missing"
        );
        // Coordinator lifecycle spans made it into the merged trace.
        let names: Vec<&str> = events.iter().filter_map(|e| e["name"].as_str()).collect();
        for want in ["merge", "finalize", "shard_grade"] {
            assert!(names.contains(&want), "missing `{want}` in {names:?}");
        }
        assert!(
            events
                .iter()
                .any(|e| e["name"].as_str() == Some("process_name")
                    && e["args"]["name"].as_str() == Some("worker proc-0")),
            "worker process track label missing"
        );

        // The registry saw the shard worker and the span shipper.
        let workers = srv.workers_json();
        let list = workers["workers"].as_array().unwrap();
        let names: Vec<&str> = list.iter().filter_map(|w| w["id"].as_str()).collect();
        assert_eq!(names, vec!["proc-0", "t0"]);
        let t0 = &list[1];
        assert_eq!(t0["claims"].as_u64(), Some(2));
        assert_eq!(t0["completions"].as_u64(), Some(2));
        assert_eq!(t0["jobs"][0].as_str(), Some("jt"));

        // Latency decomposition histograms populated for every phase.
        let prom = srv.registry().to_prometheus();
        for phase in ["queue", "claim", "grade", "merge", "finalize"] {
            assert!(
                prom.contains(&format!("phase=\"{phase}\"")),
                "missing phase `{phase}` in:\n{prom}"
            );
        }
    }

    /// Shards completed over `/complete` (the worker-process path) merge
    /// to the same statistics as shards recorded in process: faults and
    /// useful lane-cycles are re-derived from the shipped detections.
    #[test]
    fn remote_completions_merge_to_in_process_stats() {
        let srv = server();
        let local = srv.submit(&spec_doc(&srv, "local", 2)).unwrap();
        let remote = srv.submit(&spec_doc(&srv, "remote", 2)).unwrap();
        while let Some((job, shard)) = srv.claim_shard("t", "local", "-") {
            let res = jobs::run_shard(
                &srv.core,
                &job.prepared,
                &job.spec,
                shard,
                &Telemetry::none(),
            );
            if job.id == "local" {
                assert!(srv.record_shard(&job, shard, res, "t"));
            } else {
                let mut body = completion_json(&job.id, shard, "t", &res);
                if let (0, Value::Object(o)) = (shard, &mut body) {
                    // A worker that misreports its engine and width
                    // must not skew the merged lane figures.
                    let mut stats = o.get("stats").and_then(Value::as_object).unwrap().clone();
                    stats.insert("lanes".into(), Value::U64(100_000));
                    stats.insert("engine".into(), Value::String("interp".into()));
                    o.insert("stats".into(), Value::Object(stats));
                }
                let body = serde_json::to_string(&body).unwrap();
                let req = ApiRequest {
                    method: "POST".into(),
                    path: "/complete".into(),
                    query: String::new(),
                    body: body.into_bytes(),
                    peer: String::new(),
                };
                assert_eq!(srv.handle(&req).unwrap().status, "200 OK");
            }
        }
        let stats = |job: &Job| {
            let doc: Value = serde_json::from_str(job.result_json().unwrap()).unwrap();
            doc["stats"].clone()
        };
        let (a, b) = (stats(&local), stats(&remote));
        assert!(a["lane_utilization"].as_f64().unwrap() > 0.0);
        for key in [
            "lane_utilization",
            "lanes",
            "engine",
            "batches",
            "cycles_simulated",
        ] {
            assert_eq!(a[key], b[key], "merged `{key}` differs");
        }
    }

    #[test]
    fn span_ingest_is_bounded_per_worker() {
        let srv = server();
        let big = "x".repeat(MAX_SPAN_BYTES_PER_WORKER);
        let mut ev = Map::new();
        ev.insert("pad".into(), Value::String(big));
        let (ingested, dropped) = srv.ingest_spans("chatty", "", &[Value::Object(ev.clone())]);
        assert_eq!((ingested, dropped), (0, 1));
        let (ingested, _) = srv.ingest_spans("chatty", "", &[Value::Object(Map::new())]);
        assert_eq!(ingested, 1);
    }

    #[test]
    fn spec_round_trips_through_claim_encoding() {
        let (_, _, spec) = parse_spec(&serde_json::json!({
            "id": "x", "netlist": "n1/g1/d1", "phase": "B", "sample": 500u64,
            "seed": 7u64, "lanes": 128u64, "threads": 2u64, "shards": 5u64,
        }))
        .unwrap();
        let (netlist, back) = spec_from_claim(&spec_json("n1/g1/d1", &spec)).unwrap();
        assert_eq!(netlist, "n1/g1/d1");
        assert_eq!(back, spec);
    }
}
