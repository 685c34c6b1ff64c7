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
//! tables --forensics           # escape triage: detectability buckets,
//!                              #   testable coverage, routine attribution
//!                              #   -> results/FORENSICS.md + FORENSICS.json
//! tables --forensics-fault "n42 sa1"  # one-fault structural drill-down
//!                              #   (SCOAP, cones, class members,
//!                              #   wave-probe suggestion)
//! tables --wave-fault "n42 sa1"  # differential VCD for one fault
//!                              #   -> results/WAVE_fault_*.vcd
//! tables --wave-escapes 2      # campaign, then VCDs of the first two
//!                              #   escapes -> results/WAVE_escape_*.vcd
//! ```
//!
//! Every campaign runs on the one fault simulator. `--lanes N[,N..]`
//! sets its lane width(s): under `--stats` a comma list sweeps every
//! width and cross-checks each width's detections against the first's,
//! elsewhere a single width pins it. Only `--stats` reads a width list;
//! a list without it is a usage error (exit 2).
//!
//! `--progress` adds a live ticker on stderr over every campaign of the
//! invocation; `--trace FILE` writes the structured events of every
//! campaign as JSONL; `--stride N` sets the coverage-over-time sample
//! stride of `--report` (default 500 cycles).
//!
//! Waveform dumps: `--wave-fault <id>` (a `Fault::describe` string such
//! as `"n42 sa1"` / `"g17/pin0 sa0"`, as the escapes of `FORENSICS.md`
//! and `FORENSICS.json` name them, or a decimal index) replays that
//! fault with a wave probe attached; `--wave-escapes <k>` captures the
//! first k escapes of the campaign. `--wave-pre` / `--wave-post` size
//! the window around the detection trigger, `--wave-depth` the horizon
//! window for escapes, and `--wave-probe` (comma-separated component
//! names or port globs, repeatable) selects what is sampled — default
//! is every port plus all component state.
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
//! The modes — `--stats`, `--report`, `--forensics`,
//! `--forensics-fault` and the wave dumps — run instead of the
//! experiments, so at most one may be given, and never with `--table`
//! or `--all`; either is a usage error (exit 2).
//!
//! Campaign thread count defaults to the `SBST_THREADS` environment
//! variable, else the machine's available parallelism; coverage numbers
//! are bit-identical at every thread count — with or without
//! observability enabled.

use std::io::Write as _;

use bench::{value, ObsArgs, ObsRun, RunOptions};
use obs::LedgerRecord;

/// The shared epilogue, with the static stub record for experiments
/// that ran no campaign.
fn finish(run: ObsRun, record: Option<LedgerRecord>) {
    run.finish(record.unwrap_or_else(|| LedgerRecord::now("tables-static", "")));
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
    let mut selector: Option<&str> = None;
    let mut json_out: Option<String> = None;
    let mut stats = false;
    let mut report = false;
    let mut forensics = false;
    let mut forensics_fault: Option<String> = None;
    let mut stride = 500u64;
    let mut submit: Option<String> = None;
    let mut submit_shards = 4u64;
    let mut submit_phase = "A".to_string();
    let mut submit_id: Option<String> = None;
    let mut wave = fault::wave::WaveOptions::default();
    let mut obs = ObsArgs::new(&args);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => {
                which = None;
                selector = Some("--all");
            }
            "--table" => {
                which = Some(value(&mut it, a, "an id"));
                selector = Some("--table");
            }
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
            "--report" => report = true,
            "--forensics" => forensics = true,
            "--forensics-fault" => forensics_fault = Some(value(&mut it, a, "a fault id")),
            "--profile" => obs.profile = true,
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
            "--trace-viz" => obs.trace_viz = true,
            "--submit" => submit = Some(value(&mut it, a, "a server URL")),
            "--shards" => submit_shards = value(&mut it, a, "a count"),
            "--phase" => submit_phase = value(&mut it, a, "A|B|C"),
            "--job-id" => submit_id = Some(value(&mut it, a, "an id")),
            other if obs.parse(other, &mut it) => {}
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: tables [--all | --table <id>] [--full | --sample N] [--seed N] \
                     [--threads N] [--lanes N[,N..]] \
                     [--stats | --report | --forensics | \
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
    // A mode runs instead of the experiments: one at a time, and none
    // with an experiment selector.
    let modes: Vec<&str> = [
        (wave.fault.is_some() || wave.escapes > 0, "a wave dump"),
        (stats, "--stats"),
        (report, "--report"),
        (forensics_fault.is_some(), "--forensics-fault"),
        (forensics, "--forensics"),
    ]
    .into_iter()
    .filter_map(|(on, mode)| on.then_some(mode))
    .collect();
    match (modes.as_slice(), selector) {
        ([a, b, ..], _) => {
            eprintln!("{a} and {b} are exclusive modes; give one");
            std::process::exit(2);
        }
        ([mode], Some(flag)) => {
            eprintln!("{flag} selects experiments, which {mode} does not run");
            std::process::exit(2);
        }
        _ => {}
    }
    // Only `--stats` sweeps widths.
    if !stats && opts.lanes_sweep.len() > 1 {
        eprintln!(
            "a --lanes width list needs --stats (a single --lanes N pins the width anywhere)"
        );
        std::process::exit(2);
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
    obs.tag = if wave.fault.is_some() || wave.escapes > 0 {
        "wave"
    } else if stats {
        "stats"
    } else if report {
        "report"
    } else if forensics || forensics_fault.is_some() {
        "forensics"
    } else {
        "run"
    };
    let report_trace = (obs.tag == "report").then(|| {
        let path = obs
            .trace
            .get_or_insert_with(|| "results/TRACE_report.jsonl".into());
        path.display().to_string()
    });
    // Filled by a `--forensics` run; `/forensics` serves the placeholder
    // until the campaign finishes.
    let forensics_store: std::sync::Arc<std::sync::Mutex<Option<String>>> =
        std::sync::Arc::default();
    let store = forensics_store.clone();
    let mut run = obs.start(fault::campaign::progress, |observatory| {
        observatory.with_forensics_provider(move || {
            store
                .lock()
                .unwrap()
                .clone()
                .unwrap_or_else(|| "{\"pending\": true}".to_string())
        })
    });
    opts.telemetry = run.telemetry.clone();

    if wave.fault.is_some() || wave.escapes > 0 {
        std::fs::create_dir_all(&wave.out_dir).expect("create wave output dir");
        let captured = bench::wave_report(&opts, &wave);
        run.end_progress();
        match captured {
            Ok(e) => {
                println!("==== {} — {} ====", e.id, e.title);
                println!("{}", e.text);
                finish(run, e.ledger);
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
        run.end_progress();
        println!("==== {} — {} ====", e.id, e.title);
        println!("{}", e.text);
        let path = "results/BENCH_campaign.json";
        std::fs::create_dir_all("results").expect("create results dir");
        let s = serde_json::to_string_pretty(&e.data).expect("serialize");
        std::fs::write(path, s).expect("write campaign stats");
        eprintln!("[campaign stats written to {path}]");
        finish(run, e.ledger);
        return;
    }

    if let Some(trace) = report_trace {
        std::fs::create_dir_all("results").expect("create results dir");
        let e = bench::observability_report(&opts, stride);
        run.end_progress();
        println!("{}", e.text);
        std::fs::write("results/REPORT.md", &e.text).expect("write REPORT.md");
        let s = serde_json::to_string_pretty(&e.data).expect("serialize");
        std::fs::write("results/REPORT.json", s).expect("write REPORT.json");
        eprintln!("[report written to results/REPORT.md + REPORT.json; trace in {trace}]");
        finish(run, e.ledger);
        return;
    }

    if let Some(id) = forensics_fault {
        // Structural drill-down only — no campaign, no ledger record of
        // interest beyond the static stub.
        match bench::forensics_fault_report(&id) {
            Ok(e) => {
                println!("==== {} — {} ====", e.id, e.title);
                println!("{}", e.text);
                finish(run, e.ledger);
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
        run.end_progress();
        println!("{}", e.text);
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/FORENSICS.md", &e.text).expect("write FORENSICS.md");
        let s = serde_json::to_string_pretty(&e.data).expect("serialize");
        std::fs::write("results/FORENSICS.json", &s).expect("write FORENSICS.json");
        *forensics_store.lock().unwrap() = Some(s);
        eprintln!("[forensics written to results/FORENSICS.md + FORENSICS.json]");
        finish(run, e.ledger);
        return;
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
    if bench::SAMPLED_IDS.iter().any(|id| matches(id)) {
        match opts.sample {
            Some(n) => eprintln!("[fault lists sampled to ~{n}; use --full for exact numbers]"),
            None => eprintln!("[complete fault lists — this takes a few minutes]"),
        }
    }
    let mut selected = bench::run_selected(&opts, matches);
    run.end_progress();
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
    finish(run, record);
}
