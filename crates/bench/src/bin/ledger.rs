//! Run-ledger trend viewer and perf-regression gate.
//!
//! ```text
//! ledger                         # trend tables from results/LEDGER.jsonl
//! ledger --check                 # gate the latest record; exit 1 on regression
//! ledger --baseline last         # gate against the previous run, not the best
//! ledger --max-drop 15           # tolerate a 15% throughput drop
//! ledger --max-cov-drop 0.5      # tolerate a 0.5pp coverage drop
//! ledger --ledger FILE           # alternate ledger file
//! ledger --json FILE             # trend JSON output (default results/BENCH_trend.json)
//! ledger --serve PORT            # keep serving the latest ledger as gauges
//! ledger --append-degraded 0.5   # clone the last record at half throughput
//!                                #   (CI negative test for --check)
//! ```
//!
//! The gate compares the *latest* record against earlier comparable ones
//! (same kind + netlist fingerprint + fault count; throughput additionally
//! requires the same thread count). Defaults: fail on a >10% throughput
//! drop versus the best comparable run, or on any coverage drop. A ledger
//! with no comparable baseline passes — a first run cannot regress.

use std::process::ExitCode;

use bench::value;
use obs::ledger::{self, Baseline, GateConfig};
use obs::MetricRegistry;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ledger_path = std::path::PathBuf::from("results/LEDGER.jsonl");
    let mut json_out = std::path::PathBuf::from("results/BENCH_trend.json");
    let mut check = false;
    let mut cfg = GateConfig::default();
    let mut degrade: Option<f64> = None;
    let mut serve_port: Option<u16> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ledger" => ledger_path = value(&mut it, a, "a path"),
            "--json" => json_out = value(&mut it, a, "a path"),
            "--check" => check = true,
            "--baseline" => {
                cfg.baseline = match value::<String>(&mut it, a, "best|last").as_str() {
                    "best" => Baseline::Best,
                    "last" => Baseline::Last,
                    other => {
                        eprintln!("--baseline must be `best` or `last`, got `{other}`");
                        return ExitCode::from(2);
                    }
                };
            }
            "--max-drop" => cfg.max_throughput_drop_pct = value(&mut it, a, "a percentage"),
            "--max-cov-drop" => cfg.max_coverage_drop_pct = value(&mut it, a, "percentage points"),
            "--append-degraded" => degrade = Some(value(&mut it, a, "a factor")),
            "--serve" => serve_port = Some(value(&mut it, a, "a port")),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: ledger [--ledger file] [--check] [--baseline best|last] \
                     [--max-drop PCT] [--max-cov-drop PP] [--json file] \
                     [--append-degraded FACTOR] [--serve port]"
                );
                return ExitCode::from(2);
            }
        }
    }

    if let Some(factor) = degrade {
        let (records, _) = ledger::load(&ledger_path).expect("read ledger");
        let Some(last) = records.last() else {
            eprintln!("--append-degraded: ledger at {} is empty", ledger_path.display());
            return ExitCode::from(2);
        };
        let mut rec = last.clone();
        rec.cmd = format!("ledger --append-degraded {factor}");
        rec.mlane_cps *= factor;
        ledger::append(&ledger_path, &rec).expect("append degraded record");
        eprintln!(
            "[degraded clone of the last `{}` record appended: {:.2} -> {:.2} Mlane-cyc/s]",
            rec.kind,
            last.mlane_cps,
            rec.mlane_cps
        );
    }

    let (records, skipped) = ledger::load(&ledger_path).expect("read ledger");
    if skipped > 0 {
        eprintln!(
            "[{skipped} unparseable/newer-schema line(s) in {} skipped]",
            ledger_path.display()
        );
    }
    println!("run ledger: {} ({} records)\n", ledger_path.display(), records.len());
    print!("{}", ledger::trend_table(&records));

    let gate = ledger::check(&records, &cfg);
    println!(
        "\ngate ({} baseline, max throughput drop {}%, max coverage drop {}pp): {}",
        match cfg.baseline {
            Baseline::Best => "best",
            Baseline::Last => "last",
        },
        cfg.max_throughput_drop_pct,
        cfg.max_coverage_drop_pct,
        if gate.pass { "PASS" } else { "FAIL" }
    );
    for f in &gate.findings {
        println!(
            "  {:<10} current {:>10.2}  baseline {:>10.2}  drop {:>7.2}{}  {}",
            f.metric,
            f.current,
            f.baseline,
            f.drop,
            if f.metric == "coverage" { "pp" } else { "%" },
            if f.regressed { "REGRESSED" } else { "ok" }
        );
    }
    for n in &gate.notes {
        println!("  note: {n}");
    }

    if let Some(dir) = json_out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create trend dir");
    }
    let mut trend = ledger::trend_json(&records, Some(&gate));
    // The engines microbench (`cargo bench -p bench`) owns the
    // `microbench` key of the trend file; carry it across rewrites.
    if let Ok(prev) = std::fs::read_to_string(&json_out) {
        if let (Ok(serde_json::Value::Object(prev)), serde_json::Value::Object(root)) =
            (serde_json::from_str(&prev), &mut trend)
        {
            if let Some(micro) = prev.get("microbench") {
                root.insert("microbench".into(), micro.clone());
            }
        }
    }
    std::fs::write(
        &json_out,
        serde_json::to_string_pretty(&trend).expect("serialize"),
    )
    .expect("write trend json");
    eprintln!("[trend written to {}]", json_out.display());

    if let Some(port) = serve_port {
        // Re-publish the latest record per kind as gauges so a scraper
        // can watch the ledger without parsing JSONL.
        let reg = MetricRegistry::new();
        let mut seen: Vec<&str> = Vec::new();
        for r in records.iter().rev() {
            if seen.contains(&r.kind.as_str()) {
                continue;
            }
            seen.push(&r.kind);
            let labels = [("kind", r.kind.as_str())];
            reg.gauge(
                "sbst_ledger_mlane_cycles_per_sec",
                "latest ledger throughput",
                &labels,
            )
            .set(r.mlane_cps);
            if let Some(cov) = r.coverage_pct {
                reg.gauge("sbst_ledger_coverage_pct", "latest ledger coverage", &labels)
                    .set(cov);
            }
            reg.gauge("sbst_ledger_ts", "latest ledger record unix time", &labels)
                .set(r.ts as f64);
        }
        let timeline =
            obs::Timeline::start(reg.clone(), std::time::Duration::from_millis(1000), 2400);
        let observatory = obs::Observatory::new(reg).with_timeline(timeline);
        let srv = obs::serve::serve_observatory(observatory, port).expect("bind metric server");
        eprintln!(
            "[serving http://{}/ — /metrics /json /timeline — ctrl-C to exit]",
            srv.addr()
        );
        loop {
            std::thread::park();
        }
    }

    if check && !gate.pass {
        eprintln!("regression gate FAILED");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
