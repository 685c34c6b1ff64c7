//! Command-line driver regenerating the paper's tables and figures.
//!
//! ```text
//! tables --all                 # every experiment, sampled fault lists
//! tables --all --full          # every experiment, complete fault lists
//! tables --table 5             # just Table 5
//! tables --all --json out.json # machine-readable dump as well
//! tables --threads 4 --table 5 # campaigns on 4 worker threads
//! tables --stats               # campaign throughput benchmark
//!                              #   -> results/BENCH_campaign.json
//! tables --report              # observability report (provenance,
//!                              #   coverage timeline, latency histogram)
//!                              #   -> results/REPORT.md + REPORT.json
//!                              #      + results/TRACE_report.jsonl
//! tables --escapes             # undetected faults + SCOAP testability
//!                              #   -> results/ESCAPES.txt
//! tables --forensics           # escape triage: detectability buckets,
//!                              #   testable coverage, routine attribution
//!                              #   -> results/FORENSICS.md + FORENSICS.json
//! tables --forensics-fault "n42 sa1"  # one-fault structural drill-down
//!                              #   (SCOAP, cones, wave-probe suggestion)
//! tables --wave-fault "n42 sa1"  # differential VCD for one fault
//!                              #   -> results/WAVE_fault_*.vcd
//! tables --wave-escapes 2      # campaign, then VCDs of the first two
//!                              #   escapes -> results/WAVE_escape_*.vcd
//! ```
//!
//! Every campaign runs on the compiled engine. `--lanes N[,N..]` sets
//! its lane width(s): under `--stats` a comma list sweeps every width,
//! elsewhere a single width pins it. `--verify-interp` makes `--stats`
//! also grade serially on the interpreted reference (`ParallelSim`),
//! report that run as its own row, and cross-check every width's
//! detections against it.
//!
//! `--progress` adds a live batch ticker on stderr; `--trace FILE`
//! writes structured campaign events as JSONL; `--stride N` sets the
//! coverage-over-time sample stride of `--report` (default 500 cycles).
//!
//! Waveform dumps: `--wave-fault <id>` (a `Fault::describe` string such
//! as `"n42 sa1"` / `"g17/pin0 sa0"` from ESCAPES.txt, or a decimal
//! index) replays that fault with a wave probe attached; `--wave-escapes
//! <k>` captures the first k escapes of the campaign. `--wave-pre` /
//! `--wave-post` size the window around the detection trigger,
//! `--wave-depth` the horizon window for escapes, and `--wave-probe`
//! (comma-separated component names or port globs, repeatable) selects
//! what is sampled — default is every port plus all component state.
//!
//! Every invocation appends one schema-versioned run record to the run
//! ledger (`results/LEDGER.jsonl`; `--ledger FILE` overrides, and
//! `--no-ledger` disables). `bench --bin ledger` renders trends and
//! gates regressions from that file. `--profile` turns on the hot-loop
//! self-profiler; `--metrics-out FILE` dumps the metric registry
//! (Prometheus text, or a JSON snapshot when FILE ends in `.json`).
//!
//! `--serve PORT` starts the live observatory *before* the campaign
//! (port 0 picks a free one): a dashboard at `/`, `/metrics` + `/json`
//! scrapes, `/timeline` ring-buffered series, `/events` SSE, and
//! `/trace` (Chrome trace-event JSON for ui.perfetto.dev), then keeps
//! the process alive after the run. `--trace-viz` (implies `--profile`)
//! also writes `results/TRACE_<mode>.trace.json` at exit. Campaign
//! results are bit-identical with the observatory on or off.
//!
//! Campaign thread count defaults to the `SBST_THREADS` environment
//! variable, else the machine's available parallelism; coverage numbers
//! are bit-identical at every thread count — with or without
//! observability enabled.

use std::io::Write as _;

use bench::{value, RunOptions};
use obs::{LedgerRecord, MetricRegistry};

/// Where the run record and metric dumps of this invocation go.
struct ObsOut {
    /// `argv[1..]` joined — recorded as the ledger `cmd`.
    cmd: String,
    ledger_path: std::path::PathBuf,
    no_ledger: bool,
    metrics_out: Option<std::path::PathBuf>,
    serve_port: Option<u16>,
    /// Write a Perfetto-compatible trace-event JSON at exit
    /// (`--trace-viz`).
    trace_viz: bool,
    /// Mode tag naming the trace artifact (`TRACE_<tag>.trace.json`).
    tag: &'static str,
    /// Set once the observatory is live (serve starts *before* the run).
    serving: bool,
}

/// Render the tracer's JSONL (if any) plus the registry-exported phase
/// profile as Chrome trace-event JSON.
fn render_trace(opts: &RunOptions) -> serde_json::Value {
    let jsonl = opts
        .trace_path
        .as_ref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .unwrap_or_default();
    let profile = opts.metrics.as_ref().map(obs::PhaseProfile::from_registry);
    obs::traceviz::render(&jsonl, profile.as_ref())
}

/// Epilogue shared by every mode: append exactly one ledger record,
/// dump the metric registry and trace-event JSON when asked. Blocks
/// forever under `--serve` (the observatory is already live).
fn finish(opts: &RunOptions, out: &ObsOut, record: Option<LedgerRecord>) {
    if !out.no_ledger {
        let mut rec =
            record.unwrap_or_else(|| LedgerRecord::now("tables-static", ""));
        rec.cmd = out.cmd.clone();
        obs::ledger::append(&out.ledger_path, &rec).expect("append run ledger");
        eprintln!(
            "[run record ({}) appended to {}]",
            rec.kind,
            out.ledger_path.display()
        );
    }
    if let Some(reg) = &opts.metrics {
        if let Some(path) = &out.metrics_out {
            let body = if path.extension().is_some_and(|e| e == "json") {
                serde_json::to_string_pretty(&reg.snapshot()).expect("serialize")
            } else {
                reg.to_prometheus()
            };
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).expect("create metrics dir");
            }
            std::fs::write(path, body).expect("write metrics");
            eprintln!("[metrics written to {}]", path.display());
        }
    }
    if out.trace_viz {
        let path = obs::traceviz::trace_json_path(out.tag);
        obs::traceviz::write_trace(&path, &render_trace(opts)).expect("write trace json");
        eprintln!(
            "[perfetto trace written to {} — load in ui.perfetto.dev]",
            path.display()
        );
    }
    if out.serving {
        eprintln!("[observatory still serving — ctrl-C to exit]");
        loop {
            std::thread::park();
        }
    }
}

/// `--submit URL`: run this invocation's campaign on a live job server
/// instead of in-process. The spec mirrors the local options (`--sample`,
/// `--seed`, `--lanes`, `--threads`) plus `--shards`; the
/// server's netlist fingerprint is discovered from `GET /jobs`. Returns
/// the process exit code.
fn submit_campaign(
    base: &str,
    opts: &RunOptions,
    shards: u64,
    phase: &str,
    job_id: Option<String>,
) -> i32 {
    let (status, body) = match bench::client::get(base, "/jobs") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot reach job server at {base}: {e}");
            return 1;
        }
    };
    if status != 200 {
        eprintln!("GET /jobs → {status}: {body}");
        return 1;
    }
    let netlist = serde_json::from_str(&body)
        .ok()
        .and_then(|v: serde_json::Value| v["netlist"].as_str().map(String::from))
        .unwrap_or_default();
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let id = job_id.unwrap_or_else(|| format!("tables-{}-{epoch}", std::process::id()));
    let spec = serde_json::json!({
        "id": id.clone(),
        "netlist": netlist,
        "phase": phase.to_string(),
        "sample": match opts.sample {
            Some(n) => serde_json::Value::U64(n as u64),
            None => serde_json::Value::Null,
        },
        "seed": opts.seed,
        "lanes": opts.engine.lanes() as u64,
        "threads": opts.threads.max(1) as u64,
        "shards": shards,
    });
    let ack = match bench::client::submit_job(base, &spec) {
        Ok(ack) => ack,
        Err((status, err)) => {
            eprintln!("job submission rejected ({status}): {err}");
            return 1;
        }
    };
    eprintln!(
        "[job `{id}` accepted: {} faults over {} shard(s); watching {base}/jobs/{id}]",
        ack["faults"].as_u64().unwrap_or(0),
        ack["shards"].as_u64().unwrap_or(0),
    );
    let status = match bench::client::wait_job(base, &id, std::time::Duration::from_secs(600)) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("job did not finish: {e}");
            return 1;
        }
    };
    if status["state"].as_str() != Some("done") {
        eprintln!(
            "job `{id}` failed: {}",
            status["error"].as_str().unwrap_or("unknown error")
        );
        return 1;
    }
    let result = match bench::client::fetch_result(base, &id) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("result fetch failed: {e}");
            return 1;
        }
    };
    let conf = &result["conformance"];
    println!(
        "==== job {id} — {} shard(s) on {} ====",
        result["stats"]["shards"].as_u64().unwrap_or(0),
        base
    );
    println!(
        "phase {}  faults {}  coverage {:.2}%  (weighted {} / {})",
        conf["phase"].as_str().unwrap_or("?"),
        conf["faults"].as_u64().unwrap_or(0),
        conf["coverage_pct"].as_f64().unwrap_or(0.0),
        conf["total_detected_weighted"].as_u64().unwrap_or(0),
        conf["total_faults_weighted"].as_u64().unwrap_or(0),
    );
    for c in conf["components"].as_array().cloned().unwrap_or_default() {
        println!(
            "  {:<24} {:>6}/{:<6} {:>7.2}%",
            c["name"].as_str().unwrap_or("?"),
            c["detected"].as_u64().unwrap_or(0),
            c["total"].as_u64().unwrap_or(0),
            c["coverage_pct"].as_f64().unwrap_or(0.0),
        );
    }
    let kc = &result["kernel_cache"];
    eprintln!(
        "[kernel cache over this job: {} hit(s), {} miss(es), {} ms lowering]",
        kc["hits_delta"].as_u64().unwrap_or(0),
        kc["misses_delta"].as_u64().unwrap_or(0),
        kc["lowering_ns_delta"].as_u64().unwrap_or(0) / 1_000_000,
    );
    // Fleet summary: who graded this (and everything else) — from the
    // coordinator's worker registry.
    if let Ok(fleet) = bench::client::fetch_workers(base) {
        let workers = fleet["workers"].as_array().cloned().unwrap_or_default();
        println!("---- fleet ({} worker(s)) ----", workers.len());
        for w in &workers {
            println!(
                "  {:<16} {:<5} claims {:>4}  done {:>4}  spans {:>6}  seen {:>5} ms ago",
                w["id"].as_str().unwrap_or("?"),
                w["kind"].as_str().unwrap_or("?"),
                w["claims"].as_u64().unwrap_or(0),
                w["completions"].as_u64().unwrap_or(0),
                w["span_events"].as_u64().unwrap_or(0),
                w["last_seen_ms_ago"].as_u64().unwrap_or(0),
            );
        }
        eprintln!("[merged fleet trace: {base}/trace — open in ui.perfetto.dev]");
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = RunOptions::default();
    let mut which: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut stats = false;
    let mut report = false;
    let mut escapes = false;
    let mut forensics = false;
    let mut forensics_fault: Option<String> = None;
    let mut stride = 500u64;
    let mut submit: Option<String> = None;
    let mut submit_shards = 4u64;
    let mut submit_phase = "A".to_string();
    let mut submit_id: Option<String> = None;
    let mut wave = fault::wave::WaveOptions::default();
    let mut out = ObsOut {
        cmd: args.join(" "),
        ledger_path: "results/LEDGER.jsonl".into(),
        no_ledger: false,
        metrics_out: None,
        serve_port: None,
        trace_viz: false,
        tag: "run",
        serving: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => which = None,
            "--table" => which = Some(value(&mut it, a, "an id")),
            "--full" => opts.sample = None,
            "--sample" => opts.sample = Some(value(&mut it, a, "a number")),
            "--seed" => opts.seed = value(&mut it, a, "a number"),
            "--threads" => opts.threads = value(&mut it, a, "a number"),
            "--stats" => stats = true,
            "--lanes" => {
                let spec: String = value(&mut it, a, "a comma-separated list");
                opts.lanes_sweep.clear();
                for part in spec.split(',') {
                    match fault::EngineConfig::parse_lanes(part) {
                        Ok(lanes) => opts.lanes_sweep.push(lanes),
                        Err(msg) => {
                            eprintln!("{msg}");
                            std::process::exit(2);
                        }
                    }
                }
                // A single width also pins the configured one, so
                // non-`--stats` campaigns honor `--lanes N`.
                if let [lanes] = opts.lanes_sweep[..] {
                    opts.engine = fault::EngineConfig::compiled(lanes);
                }
            }
            "--verify-interp" => opts.verify_interp = true,
            "--report" => report = true,
            "--escapes" => escapes = true,
            "--forensics" => forensics = true,
            "--forensics-fault" => forensics_fault = Some(value(&mut it, a, "a fault id")),
            "--progress" => opts.progress = true,
            "--profile" => opts.profile = true,
            "--trace" => opts.trace_path = Some(value(&mut it, a, "a path")),
            "--stride" => stride = value(&mut it, a, "a cycle count"),
            "--wave-fault" => wave.fault = Some(value(&mut it, a, "a fault id")),
            "--wave-escapes" => wave.escapes = value(&mut it, a, "a count"),
            "--wave-pre" => wave.pre = value(&mut it, a, "a cycle count"),
            "--wave-post" => wave.post = value(&mut it, a, "a cycle count"),
            "--wave-depth" => wave.depth = value(&mut it, a, "a cycle count"),
            "--wave-probe" => {
                let spec: String = value(&mut it, a, "component/port specs");
                wave.probe.extend(spec.split(',').map(|s| s.trim().to_string()));
            }
            "--json" => json_out = Some(value(&mut it, a, "a path")),
            "--ledger" => out.ledger_path = value(&mut it, a, "a path"),
            "--no-ledger" => out.no_ledger = true,
            "--metrics-out" => out.metrics_out = Some(value(&mut it, a, "a path")),
            "--serve" => out.serve_port = Some(value(&mut it, a, "a port")),
            "--trace-viz" => out.trace_viz = true,
            "--submit" => submit = Some(value(&mut it, a, "a server URL")),
            "--shards" => submit_shards = value(&mut it, a, "a count"),
            "--phase" => submit_phase = value(&mut it, a, "A|B|C"),
            "--job-id" => submit_id = Some(value(&mut it, a, "an id")),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: tables [--all | --table <id>] [--full | --sample N] [--seed N] \
                     [--threads N] [--lanes N[,N..]] \
                     [--verify-interp] [--stats | --report | --escapes | --forensics | \
                     --forensics-fault id] [--progress] \
                     [--profile] [--trace file] [--stride N] [--json file] [--ledger file] \
                     [--no-ledger] [--metrics-out file] [--serve port] [--trace-viz] \
                     [--wave-fault id] [--wave-escapes k] [--wave-pre N] [--wave-post N] \
                     [--wave-depth N] [--wave-probe specs] \
                     [--submit URL [--shards N] [--phase A|B|C] [--job-id id]]"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(base) = submit {
        std::process::exit(submit_campaign(
            &base,
            &opts,
            submit_shards,
            &submit_phase,
            submit_id,
        ));
    }
    out.tag = if wave.fault.is_some() || wave.escapes > 0 {
        "wave"
    } else if stats {
        "stats"
    } else if report {
        "report"
    } else if escapes {
        "escapes"
    } else if forensics || forensics_fault.is_some() {
        "forensics"
    } else {
        "run"
    };
    if out.metrics_out.is_some() || out.serve_port.is_some() || out.trace_viz {
        opts.metrics = Some(MetricRegistry::new());
    }
    if out.trace_viz {
        // The trace-event export draws batch slices and the phase track,
        // so the tracer and profiler both need to be on.
        opts.profile = true;
        if opts.trace_path.is_none() {
            std::fs::create_dir_all("results").expect("create results dir");
            opts.trace_path = Some(format!("results/TRACE_{}.jsonl", out.tag).into());
        }
    }
    // Filled by a `--forensics` run; `/forensics` serves the placeholder
    // until the campaign finishes.
    let forensics_store: std::sync::Arc<std::sync::Mutex<Option<String>>> =
        std::sync::Arc::default();
    if let Some(port) = out.serve_port {
        // The observatory goes live *before* the run so the dashboard,
        // SSE stream, and timeline watch the campaign as it happens.
        let reg = opts.metrics.clone().expect("serve registry");
        let bus = obs::EventBus::new(1024);
        opts.events = Some(bus.clone());
        let timeline =
            obs::Timeline::start(reg.clone(), std::time::Duration::from_millis(250), 2400);
        let trace_opts = opts.clone();
        let store = forensics_store.clone();
        let observatory = obs::Observatory::new(reg)
            .with_timeline(timeline)
            .with_events(bus)
            .with_trace_provider(move || {
                serde_json::to_string(&render_trace(&trace_opts)).expect("serialize trace")
            })
            .with_forensics_provider(move || {
                store
                    .lock()
                    .unwrap()
                    .clone()
                    .unwrap_or_else(|| "{\"pending\": true}".to_string())
            });
        let srv = obs::serve::serve_observatory(observatory, port).expect("bind observatory");
        eprintln!(
            "[observatory live at http://{}/ — /metrics /json /timeline /events /trace]",
            srv.addr()
        );
        out.serving = true;
    }

    if wave.fault.is_some() || wave.escapes > 0 {
        std::fs::create_dir_all(&wave.out_dir).expect("create wave output dir");
        match bench::wave_report(&opts, &wave) {
            Ok(e) => {
                println!("==== {} — {} ====", e.id, e.title);
                println!("{}", e.text);
                finish(&opts, &out, e.ledger);
            }
            Err(msg) => {
                eprintln!("wave error: {msg}");
                std::process::exit(2);
            }
        }
        return;
    }

    if stats {
        let e = bench::campaign_benchmark(&opts);
        println!("==== {} — {} ====", e.id, e.title);
        println!("{}", e.text);
        let path = "results/BENCH_campaign.json";
        std::fs::create_dir_all("results").expect("create results dir");
        let s = serde_json::to_string_pretty(&e.data).expect("serialize");
        std::fs::write(path, s).expect("write campaign stats");
        eprintln!("[campaign stats written to {path}]");
        finish(&opts, &out, e.ledger);
        return;
    }

    if report {
        std::fs::create_dir_all("results").expect("create results dir");
        if opts.trace_path.is_none() {
            opts.trace_path = Some("results/TRACE_report.jsonl".into());
        }
        let e = bench::observability_report(&opts, stride);
        println!("{}", e.text);
        std::fs::write("results/REPORT.md", &e.text).expect("write REPORT.md");
        let s = serde_json::to_string_pretty(&e.data).expect("serialize");
        std::fs::write("results/REPORT.json", s).expect("write REPORT.json");
        eprintln!(
            "[report written to results/REPORT.md + REPORT.json; trace in {}]",
            opts.trace_path.as_ref().unwrap().display()
        );
        finish(&opts, &out, e.ledger);
        return;
    }

    if escapes {
        let e = bench::escapes_report(&opts);
        println!("==== {} — {} ====", e.id, e.title);
        println!("{}", e.text);
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/ESCAPES.txt", &e.text).expect("write ESCAPES.txt");
        eprintln!("[escape dump written to results/ESCAPES.txt]");
        finish(&opts, &out, e.ledger);
        return;
    }

    if let Some(id) = forensics_fault {
        // Structural drill-down only — no campaign, no ledger record of
        // interest beyond the static stub.
        match bench::forensics_fault_report(&id) {
            Ok(e) => {
                println!("==== {} — {} ====", e.id, e.title);
                println!("{}", e.text);
                finish(&opts, &out, e.ledger);
            }
            Err(msg) => {
                eprintln!("forensics error: {msg}");
                std::process::exit(2);
            }
        }
        return;
    }

    if forensics {
        let e = bench::forensics_report(&opts);
        println!("{}", e.text);
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/FORENSICS.md", &e.text).expect("write FORENSICS.md");
        let s = serde_json::to_string_pretty(&e.data).expect("serialize");
        std::fs::write("results/FORENSICS.json", &s).expect("write FORENSICS.json");
        *forensics_store.lock().unwrap() = Some(s);
        eprintln!("[forensics written to results/FORENSICS.md + FORENSICS.json]");
        finish(&opts, &out, e.ledger);
        return;
    }

    match opts.sample {
        Some(n) => eprintln!("[fault lists sampled to ~{n}; use --full for exact numbers]"),
        None => eprintln!("[complete fault lists — this takes a few minutes]"),
    }

    let t0 = std::time::Instant::now();
    let matches = |id: &str| -> bool {
        match &which {
            None => true,
            Some(w) => {
                let short = w.trim_start_matches("table").trim_start_matches("fig");
                id == *w || id == format!("table{short}") || id == format!("fig{short}")
            }
        }
    };
    let mut selected = bench::run_selected(&opts, matches);
    if selected.is_empty() {
        eprintln!(
            "no experiment matches; ids: {}",
            bench::EXPERIMENT_IDS.join(" ")
        );
        std::process::exit(2);
    }
    for e in &selected {
        println!("==== {} — {} ====", e.id, e.title);
        println!("{}", e.text);
    }
    eprintln!("[done in {:?}]", t0.elapsed());

    if let Some(path) = json_out {
        let mut f = std::fs::File::create(&path).expect("create json file");
        let v: Vec<_> = selected.iter().collect();
        let s = serde_json::to_string_pretty(&v).expect("serialize");
        f.write_all(s.as_bytes()).expect("write json");
        eprintln!("[json written to {path}]");
    }

    // One record per invocation: the first campaign-bearing experiment
    // (table 5's Phase A+B run when present), else a static stub.
    let record = selected.iter_mut().find_map(|e| e.ledger.take());
    finish(&opts, &out, record);
}
