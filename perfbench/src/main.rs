//! `perfbench`: the repository's benchmark.
//!
//! Runs one workload through the crates' public functions, checks every
//! op's output against a reference, and prints every metric by name with
//! its unit. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign_ab --seed 12648430 --seconds 25 --trace 0
//! ```
//!
//! `--workload all` runs every workload in a process of its own.
//! `--accuracy` grades the full collapsed fault list once and prints its
//! coverage against the paper's. `--write-reference` records the
//! default seed's outcome digests. See `perfbench/README.md`.

mod daemon;
mod grade;
mod outcome;
mod reference;
mod report;
mod setup;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use fault::campaign::CampaignHooks;
use fault::coverage::CoverageReport;
use fault::engine::EngineConfig;
use fault::model::FaultList;
use obs::PhaseProfile;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow;
use sbst::phases::{build_program, Phase};
use serde_json::Value;

use report::Report;
use stats::{median, tail};
use trace::Trace;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Phase A+B program over a 2,000-target stratified sample.
    CampaignAb,
    /// A sample of the control and hidden components' faults, graded
    /// and then triaged.
    CtrlTriage,
    /// Closed-loop jobs against the in-process job server.
    DaemonJobs,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::CampaignAb,
        Workload::CtrlTriage,
        Workload::DaemonJobs,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignAb => "campaign_ab",
            Workload::CtrlTriage => "ctrl_triage",
            Workload::DaemonJobs => "daemon_jobs",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What to run.
#[derive(Debug, Clone, PartialEq)]
enum Mode {
    One(Workload),
    All,
    Accuracy,
    WriteReference,
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    mode: Mode,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut seed = reference::DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                mode = Some(match w.as_str() {
                    "all" => Mode::All,
                    _ => Mode::One(Workload::parse(w).ok_or(format!("unknown workload `{w}`"))?),
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--accuracy" => mode = Some(Mode::Accuracy),
            "--write-reference" => mode = Some(Mode::WriteReference),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("one of --workload, --accuracy or --write-reference is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <campaign_ab|ctrl_triage|daemon_jobs|all> \
                 [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --accuracy\n       \
                 perfbench --write-reference"
            );
            return ExitCode::from(2);
        }
    };
    match args.mode.clone() {
        Mode::One(w) => run_one(w, &args),
        Mode::All => run_all(&argv),
        Mode::Accuracy => accuracy(),
        Mode::WriteReference => write_reference(),
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    println!(
        "perfbench {} seed {} window {} s trace {} on {} CPUs",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let trace = Trace::new(args.trace);
    let mut report = Report::default();
    let profile = match workload {
        Workload::DaemonJobs => {
            daemon::run(args, &trace, &mut report);
            PhaseProfile::default()
        }
        _ => grade::run(workload, args, &trace, &mut report),
    };
    let (hits, misses) = fault::kernel::cache_counters();
    report.set("fault.kernel.cache_hits", hits as f64);
    report.set("fault.kernel.cache_misses", misses as f64);
    if args.trace {
        let path = trace_path(workload, args.seed);
        match trace.write(&path, &profile) {
            Ok(()) => report
                .lines
                .push(format!("trace written to {}", path.display())),
            Err(e) => report
                .lines
                .push(format!("could not write {}: {e}", path.display())),
        }
    }
    report.print(workload.name(), args.trace);
    ExitCode::SUCCESS
}

/// Where a traced run leaves its rendered spans.
fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("TRACE_{}_{seed}.trace.json", workload.name()))
}

/// Record the end-to-end latency metrics of a run's untraced ops.
pub fn set_latency(report: &mut Report, secs: &[f64], faults_per_op: f64) {
    let (Some(p50), Some((tail, pct))) = (median(secs), tail(secs)) else {
        report.lines.push("no untraced op finished".into());
        return;
    };
    report.set("faults_per_s", faults_per_op / p50);
    report.note("faults_per_s", format!("{faults_per_op} faults per op"));
    report.set("job_p50_s", p50);
    report.note("job_p50_s", format!("median of {} ops", secs.len()));
    report.set("job_tail_s", tail);
    report.note("job_tail_s", format!("p{pct} of {} ops", secs.len()));
}

/// `trace.closure` and `trace.overhead_pct`.
pub fn set_trace_layers(report: &mut Report, closure: Option<f64>, plain: &[f64], traced: &[f64]) {
    if let Some(c) = closure {
        report.set("trace.closure", c);
    }
    if let (Some(p), Some(t)) = (median(plain), median(traced)) {
        report.set("trace.overhead_pct", 100.0 * (t - p) / p);
        report.note(
            "trace.overhead_pct",
            format!(
                "traced median of {} ops vs untraced of {}",
                traced.len(),
                plain.len()
            ),
        );
    }
}

/// Record `peak_rss_mb`: this process's peak resident set (`VmHWM`) at
/// the end of the timed window, before any after-window checking.
pub fn set_peak_rss(report: &mut Report) {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    match kib {
        Some(kib) => report.set("peak_rss_mb", kib / 1024.0),
        None => report
            .lines
            .push("peak RSS unavailable (no VmHWM in /proc/self/status)".into()),
    }
}

/// `--workload all`: each workload in its own process (so its peak RSS
/// is its own), output passed through, then one combined JSON line.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut combined = serde_json::Map::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for w in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), w.name().to_string()]);
        let out = match Command::new(&exe).args(&child_args).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let Ok(doc) = serde_json::from_str(last) else {
            eprintln!(
                "perfbench: {} printed no result (exit {:?})",
                w.name(),
                out.status.code()
            );
            return ExitCode::FAILURE;
        };
        attempted += doc["attempted"].as_u64().unwrap_or(0);
        failed += doc["failed"].as_u64().unwrap_or(0);
        correct &= doc["correct"].as_bool() == Some(true);
        if let Some(m) = doc["metrics"].as_object() {
            for (k, v) in m.iter() {
                combined.insert(format!("{}.{k}", w.name()), v.clone());
            }
        }
    }
    let mut root = serde_json::Map::new();
    root.insert("correct".into(), Value::Bool(correct));
    root.insert("attempted".into(), Value::U64(attempted));
    root.insert("failed".into(), Value::U64(failed));
    root.insert("metrics".into(), Value::Object(combined));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(root)).expect("JSON serializes")
    );
    ExitCode::SUCCESS
}

/// The paper's Phase A+B overall fault coverage, percent.
const PAPER_AB_PCT: f64 = 92.26;

/// `--accuracy`: grade the full collapsed list once at two threads and
/// state the coverage error against the paper.
fn accuracy() -> ExitCode {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let faults = FaultList::extract(core.netlist()).collapsed(core.netlist());
    let selftest = build_program(Phase::B).expect("the Phase A+B program assembles");
    let budget = flow::golden_cycles(&selftest) + setup::CYCLE_MARGIN;
    let t0 = Instant::now();
    let result = flow::run_campaign_of_engine(
        &core,
        &selftest.program,
        &faults,
        budget,
        grade::THREADS,
        &CampaignHooks::none(),
        EngineConfig::compiled(grade::LANES),
    );
    let secs = t0.elapsed().as_secs_f64();
    let coverage = CoverageReport::from_campaign(core.netlist(), &result);
    // The paper reports two decimals, so agreement is within half a unit
    // of the last one.
    let error_pp = coverage.overall_pct - PAPER_AB_PCT;
    let agrees = error_pp.abs() < 0.005;
    println!(
        "accuracy: Phase A+B over the full list of {} collapsed faults: {:.4}% weighted \
         coverage ({:.2}% at the paper's two decimals), paper {PAPER_AB_PCT}%, error \
         {error_pp:+.4} pp, graded in {secs:.2} s ({:.1} faults/s, {} threads)",
        faults.len(),
        coverage.overall_pct,
        coverage.overall_pct,
        faults.len() as f64 / secs,
        grade::THREADS
    );
    let mut metrics = serde_json::Map::new();
    for (name, value, unit) in [
        ("coverage_pct", coverage.overall_pct, "%"),
        ("error_pp", error_pp, "pp"),
        ("grade_s", secs, "s"),
        ("faults_per_s", faults.len() as f64 / secs, "faults/s"),
    ] {
        metrics.insert(
            name.into(),
            serde_json::json!({ "value": value, "unit": unit }),
        );
    }
    let mut root = serde_json::Map::new();
    root.insert("correct".into(), Value::Bool(agrees));
    root.insert("attempted".into(), Value::U64(1));
    root.insert("failed".into(), Value::U64(u64::from(!agrees)));
    root.insert("metrics".into(), Value::Object(metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(root)).expect("JSON serializes")
    );
    ExitCode::SUCCESS
}

/// Jobs whose digests `--write-reference` records for `daemon_jobs`;
/// later jobs of a default-seed run are checked against a
/// single-threaded run instead.
const RECORDED_JOBS: usize = 32;

/// `--write-reference`: grade every workload's default-seed input
/// single-threaded and record outcome digests and count metrics.
fn write_reference() -> ExitCode {
    let seed = reference::DEFAULT_SEED;
    let off = trace::Scope::off();
    let mut entries = Vec::new();
    let counts_json = |counts: BTreeMap<&str, f64>| {
        let mut m = serde_json::Map::new();
        for (k, v) in counts {
            m.insert(k.to_string(), Value::F64(v));
        }
        Value::Object(m)
    };
    for w in [Workload::CampaignAb, Workload::CtrlTriage] {
        let bench = setup::set_up(w, seed, &off);
        let op = grade::grade(&bench, 1, false, &off);
        let entry = serde_json::json!({
            "digest": op.outcome.digest(),
            "counts": counts_json(op.counts()),
        });
        println!(
            "{}: {}",
            w.name(),
            serde_json::to_string(&entry).expect("JSON serializes")
        );
        entries.push((w.name(), entry));
    }
    let core = PlasmaCore::build(PlasmaConfig::default());
    let jobs: Vec<Value> = (0..RECORDED_JOBS)
        .map(|i| {
            Value::String(daemon::reference_outcome(&core, daemon::job_seed(seed, i)).digest())
        })
        .collect();
    let entry = serde_json::json!({
        "jobs": Value::Array(jobs),
        "counts": counts_json(daemon::sharded_counts(&core, daemon::job_seed(seed, 0))),
    });
    entries.push((Workload::DaemonJobs.name(), entry));
    match reference::write(entries) {
        Ok(()) => {
            println!("wrote {}", reference::PATH);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", reference::PATH);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_parses_and_bad_arguments_are_refused() {
        let a = args("--workload ctrl_triage --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.mode, Mode::One(Workload::CtrlTriage));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload campaign_ab --trace 2").is_err());
        assert!(args("--workload campaign_ab --seconds -1").is_err());
        assert!(args("--seed 3").is_err());
    }

    /// Corrupting one Detection of a real op turns it into a failed op.
    #[test]
    fn a_corrupted_detection_fails_its_op() {
        let scope = trace::Scope::off();
        let mut bench = setup::set_up(Workload::CampaignAb, 1, &scope);
        bench.faults = bench.faults.slice(0, 40);
        let reference = outcome::Reference::Run(grade::grade(&bench, 1, false, &scope).outcome);
        let mut op = grade::grade(&bench, grade::THREADS, false, &scope);
        let mut report = Report::default();
        report.op("clean op", op.check(&reference));
        let i = op
            .outcome
            .detections
            .iter()
            .position(|d| d.is_detected())
            .expect("a detected fault");
        op.outcome.detections[i] = fault::campaign::Detection::Undetected;
        report.op("corrupted op", op.check(&reference));
        assert_eq!((report.attempted, report.failed), (2, 1));
    }
}
