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
//! ledger --append-degraded 0.5   # clone the last record at half throughput
//!                                #   (CI negative test for --check)
//! ```
//!
//! The gate compares the *latest* record against earlier comparable ones
//! (same kind + netlist fingerprint + fault count; throughput additionally
//! requires the same thread count, engine, lanes and shards). Throughput
//! is graded faults per wall second, or Mlane-cyc/s for a record without
//! faults (difftest). Defaults: fail on a >10% throughput drop versus the
//! best comparable run, or on any coverage drop. A ledger with no
//! comparable baseline passes — a first run cannot regress.

use std::process::ExitCode;

use bench::value;
use obs::ledger::{self, Baseline, GateConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ledger_path = std::path::PathBuf::from("results/LEDGER.jsonl");
    let mut json_out = std::path::PathBuf::from("results/BENCH_trend.json");
    let mut check = false;
    let mut cfg = GateConfig::default();
    let mut degrade: Option<f64> = None;
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
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: ledger [--ledger file] [--check] [--baseline best|last] \
                     [--max-drop PCT] [--max-cov-drop PP] [--json file] \
                     [--append-degraded FACTOR]"
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
        // The same run `factor` times as fast, whichever rate it gates.
        let mut rec = last.clone();
        rec.cmd = format!("ledger --append-degraded {factor}");
        rec.wall_seconds /= factor;
        rec.mlane_cps *= factor;
        ledger::append(&ledger_path, &rec).expect("append degraded record");
        eprintln!(
            "[degraded clone of the last `{}` record appended: {:.2} -> {:.2} {}]",
            rec.kind,
            last.gated_rate(),
            rec.gated_rate(),
            rec.gated_unit()
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
    let trend = ledger::trend_json(&records, Some(&gate));
    std::fs::write(
        &json_out,
        serde_json::to_string_pretty(&trend).expect("serialize"),
    )
    .expect("write trend json");
    eprintln!("[trend written to {}]", json_out.display());

    if check && !gate.pass {
        eprintln!("regression gate FAILED");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
