//! Experiment harness: regenerates every table and figure of the paper
//! (and the extension experiments) from the implementation.
//!
//! Each `table_*` / `figure_*` function returns both a rendered text table
//! and machine-readable data ([`serde`]-serializable), so EXPERIMENTS.md
//! is generated from measurements rather than hand-copied. The
//! `tables` binary is the command-line driver:
//!
//! ```text
//! cargo run --release -p bench --bin tables -- --table 5
//! cargo run --release -p bench --bin tables -- --all --sample 8000
//! cargo run --release -p bench --bin tables -- --all --full   # exact runs
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod server;

use std::path::{Path, PathBuf};
use std::time::Duration;

use fault::campaign::{self, CampaignResult};
use fault::coverage::CoverageReport;
use fault::model::FaultList;
use fault::EngineConfig;
use netlist::synth::TechStyle;
use obs::{LedgerRecord, MetricRegistry, Observatory, Profiler, Progress, Telemetry, Tracer};
use plasma::{PlasmaConfig, PlasmaCore, COMPONENT_NAMES};
use sbst::classify::{self, ComponentClass};
use sbst::cost::CostModel;
use sbst::flow::{self, FlowOptions, CYCLE_MARGIN};
use sbst::phases::{build_program, Phase};

/// A rendered experiment: the text the paper-table corresponds to plus
/// serializable rows.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment identifier ("table3", "parwan", ...).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Rendered text table.
    pub text: String,
    /// Machine-readable payload.
    pub data: serde_json::Value,
    /// Run-ledger record, filled by campaign-bearing experiments so the
    /// driver can append it to `results/LEDGER.jsonl` (`kind`/`cmd` are
    /// finalized by the bin).
    pub ledger: Option<LedgerRecord>,
}

impl serde_json::ToJson for Experiment {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "id": self.id,
            "title": self.title,
            "text": self.text,
            "data": self.data,
        })
    }
}

fn experiment(id: &str, title: &str, text: String, data: serde_json::Value) -> Experiment {
    Experiment {
        id: id.to_string(),
        title: title.to_string(),
        text,
        data,
        ledger: None,
    }
}

/// The command-line value following `flag`, parsed as `T` — the one
/// value parser of every binary here. A missing or malformed value
/// prints `<flag> needs <what>` and exits 2.
pub fn value<T: std::str::FromStr>(it: &mut std::slice::Iter<String>, flag: &str, what: &str) -> T {
    match it.next().map(|s| s.parse()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{flag} needs {what}");
            std::process::exit(2);
        }
    }
}

/// The telemetry flags of the `tables` and `difftest` binaries, as
/// parsed. [`ObsArgs::start`] builds the run's one [`Telemetry`] from
/// them and [`ObsRun::finish`] is the run's epilogue, so which sinks a
/// run has, and how they are wired, is decided here alone.
#[derive(Debug)]
pub struct ObsArgs {
    /// `argv[1..]` joined — recorded as the ledger `cmd`.
    pub cmd: String,
    /// `--progress`: a stderr ticker over the registry.
    pub progress: bool,
    /// `--trace FILE`: the JSONL event stream.
    pub trace: Option<PathBuf>,
    /// `--profile` (`tables`): the hot-loop self-profiler.
    pub profile: bool,
    /// `--metrics-out FILE`: dump the registry at exit — Prometheus
    /// text, or a JSON snapshot when FILE ends in `.json`.
    pub metrics_out: Option<PathBuf>,
    /// `--serve PORT`: the live observatory, up before the run (port 0
    /// picks a free one); the process parks after the run.
    pub serve: Option<u16>,
    /// `--trace-viz` (`tables`): write `results/TRACE_<tag>.trace.json`
    /// at exit. Implies `--profile` and a trace, by default
    /// `results/TRACE_<tag>.jsonl`.
    pub trace_viz: bool,
    /// Mode tag naming the trace artifacts.
    pub tag: &'static str,
    /// `--ledger FILE`: the run ledger (default `results/LEDGER.jsonl`).
    pub ledger: PathBuf,
    /// `--no-ledger`.
    pub no_ledger: bool,
}

impl ObsArgs {
    /// The defaults of a binary invoked with `args`.
    pub fn new(args: &[String]) -> ObsArgs {
        ObsArgs {
            cmd: args.join(" "),
            progress: false,
            trace: None,
            profile: false,
            metrics_out: None,
            serve: None,
            trace_viz: false,
            tag: "run",
            ledger: "results/LEDGER.jsonl".into(),
            no_ledger: false,
        }
    }

    /// Take `flag` (and its value from `it`) if both binaries share it:
    /// `--progress`, `--trace`, `--metrics-out`, `--serve`, `--ledger`
    /// or `--no-ledger`. Returns whether it did.
    pub fn parse(&mut self, flag: &str, it: &mut std::slice::Iter<String>) -> bool {
        match flag {
            "--progress" => self.progress = true,
            "--trace" => self.trace = Some(value(it, flag, "a path")),
            "--metrics-out" => self.metrics_out = Some(value(it, flag, "a path")),
            "--serve" => self.serve = Some(value(it, flag, "a port")),
            "--ledger" => self.ledger = value(it, flag, "a path"),
            "--no-ledger" => self.no_ledger = true,
            _ => return false,
        }
        true
    }

    /// Build the run's telemetry: the trace file (truncated once, so
    /// every experiment of the run lands in it), a registry when
    /// anything reads one, the profiler, and under `--serve` the
    /// observatory — bus with its drop counter as a second tracer sink,
    /// timeline, `/trace`, plus the binary's own `routes` — live before
    /// the run. `progress` makes the `--progress` ticker.
    pub fn start(
        self,
        progress: impl FnOnce(&MetricRegistry) -> Progress,
        routes: impl FnOnce(Observatory) -> Observatory,
    ) -> ObsRun {
        let trace_path = self.trace.clone().or_else(|| {
            self.trace_viz
                .then(|| format!("results/TRACE_{}.jsonl", self.tag).into())
        });
        let mut tracer = match &trace_path {
            Some(p) => Tracer::to_path(p).unwrap_or_else(|e| {
                eprintln!("warning: cannot open trace file {}: {e}", p.display());
                Tracer::disabled()
            }),
            None => Tracer::disabled(),
        };
        let metrics =
            (self.progress || self.metrics_out.is_some() || self.serve.is_some() || self.trace_viz)
                .then(MetricRegistry::new);
        let profiler = if self.profile || self.trace_viz {
            Profiler::new()
        } else {
            Profiler::disabled()
        };
        if let (Some(port), Some(reg)) = (self.serve, &metrics) {
            let bus = obs::EventBus::new(1024);
            bus.attach_dropped_counter(reg.counter(
                "obs_events_dropped_total",
                "events discarded by the drop-oldest policy",
                &[],
            ));
            tracer = tracer.with_bus(bus.clone());
            let timeline = obs::Timeline::start(reg.clone(), Duration::from_millis(250), 2400);
            let (t, path, p) = (tracer.clone(), trace_path.clone(), profiler.clone());
            let observatory = Observatory::new(reg.clone())
                .with_timeline(timeline)
                .with_events(bus)
                .with_trace_provider(move || {
                    let trace = render_trace(&t, path.as_deref(), &p);
                    serde_json::to_string(&trace).expect("serialize trace")
                });
            let srv =
                obs::serve::serve_observatory(routes(observatory), port).expect("bind observatory");
            eprintln!(
                "[observatory live at http://{}/ — /metrics /json /timeline /events /trace]",
                srv.addr()
            );
        }
        let progress = metrics.as_ref().filter(|_| self.progress).map(progress);
        ObsRun {
            telemetry: Telemetry {
                tracer,
                profiler,
                metrics,
            },
            args: self,
            trace_path,
            progress,
        }
    }
}

/// A binary's running telemetry, from [`ObsArgs::start`].
pub struct ObsRun {
    /// The handle every experiment of the run reports through.
    pub telemetry: Telemetry,
    args: ObsArgs,
    trace_path: Option<PathBuf>,
    progress: Option<Progress>,
}

impl ObsRun {
    /// End the progress line now, before the binary prints what its run
    /// found; the epilogue ends it otherwise.
    pub fn end_progress(&mut self) {
        if let Some(p) = self.progress.take() {
            p.finish();
        }
    }

    /// The run's epilogue: end the progress line, append `record` (with
    /// this run's command line) to the ledger, dump the registry and the
    /// trace-event JSON when asked, and park forever while the
    /// observatory serves.
    pub fn finish(mut self, mut record: LedgerRecord) {
        self.end_progress();
        let args = &self.args;
        if !args.no_ledger {
            record.cmd = args.cmd.clone();
            obs::ledger::append(&args.ledger, &record).expect("append run ledger");
            eprintln!(
                "[run record ({}) appended to {}]",
                record.kind,
                args.ledger.display()
            );
        }
        let t = &self.telemetry;
        if let (Some(reg), Some(path)) = (&t.metrics, &args.metrics_out) {
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
        if args.trace_viz {
            let path = obs::traceviz::trace_json_path(args.tag);
            let trace = render_trace(&t.tracer, self.trace_path.as_deref(), &t.profiler);
            obs::traceviz::write_trace(&path, &trace).expect("write trace json");
            eprintln!(
                "[perfetto trace written to {} — load in ui.perfetto.dev]",
                path.display()
            );
        }
        if args.serve.is_some() {
            eprintln!("[observatory still serving — ctrl-C to exit]");
            loop {
                std::thread::park();
            }
        }
    }
}

/// The run's trace as Chrome trace-event JSON: the JSONL written so far
/// plus the phase profile so far.
fn render_trace(tracer: &Tracer, path: Option<&Path>, profiler: &Profiler) -> serde_json::Value {
    tracer.flush();
    let jsonl = path
        .and_then(|p| std::fs::read_to_string(p).ok())
        .unwrap_or_default();
    obs::traceviz::render(&jsonl, Some(&profiler.snapshot()))
}

/// Stable netlist fingerprint for ledger comparability keys.
pub fn netlist_fingerprint(core: &PlasmaCore) -> String {
    let nl = core.netlist();
    format!(
        "n{}/g{}/d{}",
        nl.num_nets(),
        nl.gates().len(),
        nl.dffs().len()
    )
}

/// Build the ledger record a finished campaign implies. The caller (the
/// bin) finalizes `kind`/`cmd` before appending.
pub fn campaign_ledger_record(
    kind: &str,
    core: &PlasmaCore,
    result: &CampaignResult,
    coverage_pct: Option<f64>,
) -> LedgerRecord {
    let s = &result.stats;
    let mut rec = LedgerRecord::now(kind, "");
    rec.netlist = netlist_fingerprint(core);
    rec.threads = s.threads as u64;
    rec.faults = result.faults.len() as u64;
    rec.cycles = s.cycles_simulated;
    rec.wall_seconds = s.wall_seconds;
    rec.mlane_cps = s.mlane_cycles_per_sec();
    rec.lane_utilization = Some(s.lane_utilization());
    rec.lanes = s.lanes;
    rec.coverage_pct = coverage_pct;
    rec.latency = s.latency.to_json();
    rec
}

/// Paper reference values for Table 3 (gate counts, NAND2 units).
pub const PAPER_TABLE3: [(&str, u32); 11] = [
    ("RegF", 9906),
    ("MulD", 3044),
    ("ALU", 491),
    ("BSH", 682),
    ("MCTRL", 1112),
    ("PCL", 444),
    ("CTRL", 223),
    ("BMUX", 453),
    ("PLN", 885),
    ("GL", 219),
    ("TOTAL", 17459),
];

/// Paper reference values for Table 4.
pub const PAPER_TABLE4: [(&str, u32, u32); 2] = [
    // (phase, words, cycles) — the paper's program-size figure is ~1K
    // words ("self-test code size of approximately 1K words").
    ("Phase A", 1000, 3393),
    ("Phase A+B", 1100, 3552),
];

/// Figure 2/3/4 are concept diagrams; render them as executable traces of
/// the methodology steps.
pub fn figure_2_methodology_outline() -> Experiment {
    let mut text = String::new();
    text.push_str("Step 1: classification of processor components\n");
    let infos = classify::classify_plasma();
    for i in &infos {
        text.push_str(&format!("    {:<6} -> {:?}\n", i.name, i.class));
    }
    text.push_str("Step 2: ordering by test priority criteria\n");
    let core = PlasmaCore::build(PlasmaConfig::default());
    let ordered = classify::priority_order(classify::with_sizes(infos, core.netlist()));
    for (k, i) in ordered.iter().enumerate() {
        text.push_str(&format!(
            "    {:>2}. {:<6} ({:?}, {:.0} NAND2)\n",
            k + 1,
            i.name,
            i.class,
            i.nand2_equiv.unwrap_or(0.0)
        ));
    }
    text.push_str("Step 3: test routine development for components (see Figure 4)\n");
    let order: Vec<&str> = ordered.iter().map(|i| i.name.as_str()).collect();
    experiment(
        "fig2",
        "Figure 2: methodology outline (executed)",
        text,
        serde_json::json!({ "priority_order": order }),
    )
}

/// Figure 3: the phase expansion.
pub fn figure_3_phases() -> Experiment {
    let mut text = String::new();
    let mut rows = Vec::new();
    for phase in [Phase::A, Phase::B, Phase::C] {
        let routines = phase.routines();
        let comps: Vec<&str> = routines.iter().map(|r| r.component).collect();
        text.push_str(&format!("{:<12} -> {}\n", phase.name(), comps.join(", ")));
        rows.push(serde_json::json!({ "phase": phase.name(), "components": comps }));
    }
    experiment(
        "fig3",
        "Figure 3: phases of test development",
        text,
        serde_json::Value::Array(rows),
    )
}

/// Figure 4: the component-level development flow, instantiated for each
/// Phase A component (operations → instructions → library test set →
/// routine size).
pub fn figure_4_component_flow() -> Experiment {
    let mut text = String::new();
    let mut rows = Vec::new();
    for r in Phase::B.routines() {
        let words = r.code.lines().filter(|l| is_instr_line(l)).count();
        text.push_str(&format!(
            "{:<6}: compact routine of ~{} instructions (+{} table lines)\n",
            r.component,
            words,
            r.tables.lines().count().saturating_sub(1)
        ));
        rows.push(serde_json::json!({
            "component": r.component,
            "code_lines": words,
        }));
    }
    experiment(
        "fig4",
        "Figure 4: component-level test development",
        text,
        serde_json::Value::Array(rows),
    )
}

fn is_instr_line(l: &str) -> bool {
    let t = l.trim();
    !t.is_empty() && !t.starts_with('#') && !t.ends_with(':') && !t.starts_with('.')
}

/// Table 1: class → accessibility → priority.
pub fn table_1() -> Experiment {
    experiment(
        "table1",
        "Table 1: component classes test priority",
        classify::priority_table(),
        serde_json::json!([
            {"class": "Functional", "accessibility": "High", "priority": "High"},
            {"class": "Control", "accessibility": "Medium", "priority": "Medium"},
            {"class": "Hidden", "accessibility": "Low", "priority": "Low"},
        ]),
    )
}

/// Table 2: Plasma component classification.
pub fn table_2() -> Experiment {
    let infos = classify::classify_plasma();
    let mut text = format!("{:<22} {:<12}\n", "Component", "Class");
    let mut rows = Vec::new();
    for i in &infos {
        let class = match i.class {
            ComponentClass::Functional => "Functional",
            ComponentClass::Control => "Control",
            ComponentClass::Hidden => "Hidden",
        };
        text.push_str(&format!("{:<22} {:<12}\n", full_name(&i.name), class));
        rows.push(serde_json::json!({"component": i.name, "class": class}));
    }
    experiment(
        "table2",
        "Table 2: Plasma/MIPS components classification",
        text,
        serde_json::Value::Array(rows),
    )
}

fn full_name(short: &str) -> &'static str {
    match short {
        "RegF" => "Register File",
        "MulD" => "Multiplier/Divider",
        "ALU" => "Arithmetic-Logic Unit",
        "BSH" => "Barrel Shifter",
        "MCTRL" => "Memory Control",
        "PCL" => "Program Counter Logic",
        "CTRL" => "Control Logic",
        "BMUX" => "Bus Multiplexer",
        "PLN" => "Pipeline",
        "GL" => "Glue Logic",
        _ => "(unknown)",
    }
}

/// Table 3: per-component gate counts (ours vs the paper's synthesis).
pub fn table_3(core: &PlasmaCore) -> Experiment {
    let stats = core.netlist().component_stats();
    let mut text = format!(
        "{:<22} {:>12} {:>12}\n",
        "Component", "ours(NAND2)", "paper(NAND2)"
    );
    let mut rows = Vec::new();
    let mut ours_total = 0.0;
    for name in COMPONENT_NAMES {
        let s = stats.iter().find(|s| s.name == name).expect("component");
        let paper = PAPER_TABLE3
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        text.push_str(&format!(
            "{:<22} {:>12.0} {:>12}\n",
            full_name(name),
            s.nand2_equiv,
            paper
        ));
        ours_total += s.nand2_equiv;
        rows.push(serde_json::json!({
            "component": name, "ours": s.nand2_equiv, "paper": paper,
            "gates": s.gates, "dffs": s.dffs,
        }));
    }
    text.push_str(&format!(
        "{:<22} {:>12.0} {:>12}\n",
        "Plasma/MIPS Processor", ours_total, 17459
    ));
    experiment(
        "table3",
        "Table 3: Plasma/MIPS components gate counts",
        text,
        serde_json::Value::Array(rows),
    )
}

/// Table 4: self-test program statistics.
pub fn table_4() -> Experiment {
    let mut text = format!(
        "{:<14} {:>14} {:>14} {:>13} {:>13}\n",
        "Phase", "words (ours)", "cycles (ours)", "words(paper)", "cycles(paper)"
    );
    let mut rows = Vec::new();
    for (phase, paper) in [
        (Phase::A, Some(PAPER_TABLE4[0])),
        (Phase::B, Some(PAPER_TABLE4[1])),
        (Phase::C, None),
    ] {
        let st = build_program(phase).expect("assembles");
        let cycles = flow::golden_cycles(&st);
        let words = st.size_words();
        let (pw, pc) = paper
            .map(|(_, w, c)| (w.to_string(), c.to_string()))
            .unwrap_or(("-".to_string(), "-".to_string()));
        text.push_str(&format!(
            "{:<14} {:>14} {:>14} {:>13} {:>13}\n",
            phase.name(),
            words,
            cycles,
            pw,
            pc
        ));
        rows.push(serde_json::json!({
            "phase": phase.name(), "words": words, "cycles": cycles,
        }));
    }
    experiment(
        "table4",
        "Table 4: self-test programs statistics",
        text,
        serde_json::Value::Array(rows),
    )
}

/// Options shared by the fault-simulation experiments.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Fault sample target; `None` = complete list.
    pub sample: Option<usize>,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Campaign worker threads; 0 = auto (`SBST_THREADS` env var, else
    /// available parallelism). Coverage numbers are identical at every
    /// thread count.
    pub threads: usize,
    /// What every campaign of the run reports through ([`ObsArgs::start`]
    /// builds it from the binary's flags). An enabled profiler also
    /// appends phase wall-times to the experiment text.
    pub telemetry: Telemetry,
    /// Lane width of the compiled engine for campaign-bearing
    /// experiments (`--lanes N`; 256 by default).
    pub engine: EngineConfig,
    /// Lane widths swept by `--stats` (`--lanes 64,256`); empty sweeps
    /// only the configured width.
    pub lanes_sweep: Vec<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            sample: Some(8000),
            seed: 0xC0FFEE,
            threads: 0,
            telemetry: Telemetry::none(),
            engine: EngineConfig::default(),
            lanes_sweep: Vec::new(),
        }
    }
}

impl RunOptions {
    fn flow_options(&self) -> FlowOptions {
        FlowOptions {
            fault_sample: self.sample,
            seed: self.seed,
            threads: self.threads,
            telemetry: self.telemetry.clone(),
            engine: self.engine,
            ..Default::default()
        }
    }

    /// The widths `--stats` sweeps: the configured one, or every
    /// `--lanes` width when given.
    pub fn engine_sweep(&self) -> Vec<EngineConfig> {
        if self.lanes_sweep.is_empty() {
            return vec![self.engine];
        }
        self.lanes_sweep
            .iter()
            .map(|&n| EngineConfig::compiled(n))
            .collect()
    }
}

/// Grade `program` over `faults` on the width, threads and telemetry
/// `fo` configures.
fn grade_program(
    core: &PlasmaCore,
    program: &mips::Program,
    faults: &FaultList,
    budget: u64,
    fo: &FlowOptions,
) -> CampaignResult {
    let (threads, telemetry, engine) = (fo.threads, &fo.telemetry, fo.engine);
    flow::run_campaign_of_engine(core, program, faults, budget, threads, telemetry, engine)
}

/// Append the self-profiler table to an experiment text when the run
/// actually profiled (no-op otherwise, so default output is unchanged).
fn profile_section(text: &mut String, stats: &campaign::CampaignStats) {
    if !stats.profile.is_empty() {
        text.push_str("\nhot-loop profile:\n");
        text.push_str(&stats.profile.to_table());
    }
}

fn coverage_json(report: &CoverageReport) -> serde_json::Value {
    serde_json::json!({
        "overall_pct": report.overall_pct,
        "components": report.components.iter().map(|c| serde_json::json!({
            "name": c.name, "fc_pct": c.coverage_pct, "mofc_pct": c.mofc_pct,
            "faults": c.total, "detected": c.detected,
        })).collect::<Vec<_>>(),
    })
}

/// Table 5: per-component fault coverage with successive phase test
/// development (the paper's headline table), plus the Phase C extension.
pub fn table_5(core: &PlasmaCore, opts: &RunOptions) -> Experiment {
    let fo = opts.flow_options();
    let mut text = String::new();
    let mut data = serde_json::Map::new();
    let mut header = format!("{:<22}", "Component");
    let mut reports = Vec::new();
    for phase in [Phase::A, Phase::B, Phase::C] {
        let r = flow::run_flow(core, phase, &fo);
        header.push_str(&format!(
            " {:>9} {:>7}",
            format!("{} FC", short_phase(phase)),
            "MOFC"
        ));
        data.insert(
            format!("phase_{}", short_phase(phase)),
            coverage_json(&r.coverage),
        );
        reports.push(r);
    }
    text.push_str(&header);
    text.push('\n');
    for name in COMPONENT_NAMES {
        let mut line = format!("{:<22}", full_name(name));
        for r in &reports {
            let c = r.coverage.component(name).expect("component");
            line.push_str(&format!(" {:>9.2} {:>7.2}", c.coverage_pct, c.mofc_pct));
        }
        text.push_str(&line);
        text.push('\n');
    }
    let mut line = format!("{:<22}", "Plasma (overall)");
    for r in &reports {
        line.push_str(&format!(
            " {:>9.2} {:>7.2}",
            r.coverage.overall_pct,
            100.0 - r.coverage.overall_pct
        ));
    }
    text.push_str(&line);
    text.push('\n');
    text.push_str("\npaper: overall fault coverage > 92% after Phase A+B\n");
    // The Phase A+B run is the paper's headline configuration — that is
    // the one the ledger tracks across sessions.
    let headline = &reports[1];
    profile_section(&mut text, &headline.campaign.stats);
    let mut exp = experiment(
        "table5",
        "Table 5: fault coverage with successive phase development",
        text,
        serde_json::Value::Object(data),
    );
    exp.ledger = Some(campaign_ledger_record(
        "tables-table5",
        core,
        &headline.campaign,
        Some(headline.coverage.overall_pct),
    ));
    exp
}

fn short_phase(p: Phase) -> &'static str {
    match p {
        Phase::A => "A",
        Phase::B => "A+B",
        Phase::C => "A+B+C",
    }
}

/// Re-synthesis experiment: the methodology's claim of technology
/// independence — similar coverage on a different library/style.
pub fn table_retech(opts: &RunOptions) -> Experiment {
    let fo = opts.flow_options();
    let mut text = format!(
        "{:<24} {:>10} {:>12} {:>12}\n",
        "Style", "NAND2", "Phase A FC%", "Phase A+B FC%"
    );
    let mut rows = Vec::new();
    for style in [TechStyle::RippleMux, TechStyle::ClaAoi] {
        let core = PlasmaCore::build(PlasmaConfig { style });
        let a = flow::run_flow(&core, Phase::A, &fo);
        let b = flow::run_flow(&core, Phase::B, &fo);
        text.push_str(&format!(
            "{:<24} {:>10.0} {:>12.2} {:>12.2}\n",
            style.name(),
            core.netlist().nand2_equiv(),
            a.coverage.overall_pct,
            b.coverage.overall_pct
        ));
        rows.push(serde_json::json!({
            "style": style.name(),
            "nand2": core.netlist().nand2_equiv(),
            "phase_a_pct": a.coverage.overall_pct,
            "phase_ab_pct": b.coverage.overall_pct,
        }));
    }
    experiment(
        "retech",
        "Re-synthesis: same methodology, different technology style",
        text,
        serde_json::Value::Array(rows),
    )
}

/// Comparison against the pseudorandom (Chen & Dey-style) and
/// random-instruction baselines on the Plasma-class core.
pub fn table_baselines(core: &PlasmaCore, opts: &RunOptions) -> Experiment {
    let fo = opts.flow_options();
    let faults = flow::fault_list(core, &fo);
    let cost_model = CostModel::default();
    let mut text = format!(
        "{:<34} {:>7} {:>8} {:>8} {:>10}\n",
        "Approach", "words", "cycles", "FC %", "time (us)"
    );
    let mut rows = Vec::new();
    let push = |text: &mut String,
                rows: &mut Vec<serde_json::Value>,
                name: &str,
                words: usize,
                cycles: u64,
                fc: f64| {
        let cost = cost_model.cost(words, cycles);
        text.push_str(&format!(
            "{:<34} {:>7} {:>8} {:>8.2} {:>10.1}\n",
            name, words, cycles, fc, cost.total_us
        ));
        rows.push(serde_json::json!({
            "approach": name, "words": words, "cycles": cycles,
            "fc_pct": fc, "total_us": cost.total_us,
        }));
    };

    // Deterministic Phase A+B.
    let det = flow::run_flow(core, Phase::B, &fo);
    push(
        &mut text,
        &mut rows,
        "deterministic SBST (Phase A+B)",
        det.selftest.size_words(),
        det.golden_cycles,
        det.coverage.overall_pct,
    );

    // Pseudorandom LFSR SBST.
    for patterns in [64u32, 128, 256] {
        let cfg = baselines::lfsr::LfsrConfig {
            alu_patterns: patterns,
            shift_patterns: patterns / 2,
            regfile_patterns: patterns / 2,
            muldiv_patterns: patterns / 4,
            ..Default::default()
        };
        let pr = baselines::lfsr::build_program(&cfg).expect("assembles");
        let cycles = flow::golden_cycles_of(&pr.program);
        let res = grade_program(core, &pr.program, &faults, cycles + CYCLE_MARGIN, &fo);
        let report = CoverageReport::from_campaign(core.netlist(), &res);
        push(
            &mut text,
            &mut rows,
            &format!("pseudorandom LFSR SBST ({patterns} pat)"),
            pr.program.size_download_words(),
            cycles,
            report.overall_pct,
        );
    }

    // Random-instruction functional SBST.
    for n in [200usize, 800] {
        let p = baselines::random_instr::build_program(3, n);
        // Generated programs use their own mailbox; measure via the model.
        let mut mem = mips::iss::Memory::new(flow::MEM_BYTES);
        mem.load_program(&p);
        let mut cpu = mips::iss::Iss::new();
        let trace = cpu.run_until_store(
            &mut mem,
            baselines::random_instr::MAILBOX,
            baselines::random_instr::END_MARKER,
            2_000_000,
        );
        let cycles = trace.len() as u64;
        let res = grade_program(core, &p, &faults, cycles + CYCLE_MARGIN, &fo);
        let report = CoverageReport::from_campaign(core.netlist(), &res);
        push(
            &mut text,
            &mut rows,
            &format!("random instructions ({n} instr)"),
            p.size_download_words(),
            cycles,
            report.overall_pct,
        );
    }

    experiment(
        "prcomp",
        "Deterministic vs pseudorandom / random-instruction SBST",
        text,
        serde_json::Value::Array(rows),
    )
}

/// The Section 1 prior-work comparison on the Parwan-class core:
/// deterministic SBST vs LFSR-expansion SBST.
pub fn table_parwan(opts: &RunOptions) -> Experiment {
    let core = parwan::ParwanCore::build();
    let faults = FaultList::extract(core.netlist()).collapsed(core.netlist());
    let grade = |test| {
        parwan::sbst::grade(
            &core,
            test,
            &faults,
            opts.threads,
            opts.engine,
            &opts.telemetry,
        )
    };
    let det = parwan::sbst::deterministic_selftest();
    let det_cycles = parwan::sbst::golden_cycles(&det);
    let det_res = grade(&det);
    let pr = parwan::sbst::lfsr_selftest(48);
    let pr_cycles = parwan::sbst::golden_cycles(&pr);
    let pr_res = grade(&pr);

    let mut text = format!(
        "Parwan-class core: {:.0} NAND2, {} collapsed faults\n\n",
        core.netlist().nand2_equiv(),
        faults.len()
    );
    text.push_str(&format!(
        "{:<26} {:>11} {:>10} {:>9} {:>8}\n",
        "Approach", "code bytes", "data bytes", "cycles", "FC %"
    ));
    text.push_str(&format!(
        "{:<26} {:>11} {:>10} {:>9} {:>8.2}\n",
        "deterministic (ours)",
        det.code_bytes,
        det.data_bytes,
        det_cycles,
        100.0 * det_res.coverage()
    ));
    text.push_str(&format!(
        "{:<26} {:>11} {:>10} {:>9} {:>8.2}\n",
        "LFSR pseudorandom [6]",
        pr.code_bytes,
        pr.data_bytes,
        pr_cycles,
        100.0 * pr_res.coverage()
    ));
    text.push_str(&format!(
        "\nratios (LFSR / deterministic): program {:.1}x, cycles {:.1}x\n",
        pr.code_bytes as f64 / det.code_bytes as f64,
        pr_cycles as f64 / det_cycles as f64,
    ));
    text.push_str(
        "paper quotes (for [7][8] vs [6]): ~20x program, ~75x data, ~90x cycles, both ~91% FC\n",
    );
    let data = serde_json::json!({
        "deterministic": {
            "code_bytes": det.code_bytes, "data_bytes": det.data_bytes,
            "cycles": det_cycles, "fc_pct": 100.0 * det_res.coverage(),
        },
        "lfsr": {
            "code_bytes": pr.code_bytes, "data_bytes": pr.data_bytes,
            "cycles": pr_cycles, "fc_pct": 100.0 * pr_res.coverage(),
        },
    });
    experiment(
        "parwan",
        "Prior-work comparison on a Parwan-class core",
        text,
        data,
    )
}

/// Measured Table 1: SCOAP testability averaged per component, grouped
/// by class — the structural confirmation of the paper's qualitative
/// controllability/observability ranking.
pub fn table_testability(core: &PlasmaCore) -> Experiment {
    let scoap = fault::scoap::analyze(core.netlist());
    let per = fault::scoap::per_component(core.netlist(), &scoap);
    let class_of = |name: &str| -> &'static str {
        match name {
            "RegF" | "MulD" | "ALU" | "BSH" => "Functional",
            "PLN" => "Hidden",
            _ => "Control",
        }
    };
    let mut text = format!(
        "{:<22} {:<12} {:>12} {:>12}
",
        "Component", "Class", "mean CC", "mean CO"
    );
    let mut rows = Vec::new();
    let mut by_class: std::collections::BTreeMap<&str, (f64, f64, usize)> = Default::default();
    for name in COMPONENT_NAMES {
        let Some(t) = per.iter().find(|t| t.name == name) else {
            continue;
        };
        text.push_str(&format!(
            "{:<22} {:<12} {:>12.2} {:>12.2}
",
            full_name(name),
            class_of(name),
            t.mean_controllability,
            t.mean_observability
        ));
        let e = by_class.entry(class_of(name)).or_insert((0.0, 0.0, 0));
        e.0 += t.mean_controllability * t.nets as f64;
        e.1 += t.mean_observability * t.nets as f64;
        e.2 += t.nets;
        rows.push(serde_json::json!({
            "component": name, "class": class_of(name),
            "mean_cc": t.mean_controllability, "mean_co": t.mean_observability,
        }));
    }
    text.push_str("\nper class (net-weighted means):\n");
    for (class, (cc, co, n)) in &by_class {
        text.push_str(&format!(
            "{:<12} CC {:>8.2}  CO {:>8.2}\n",
            class,
            cc / *n as f64,
            co / *n as f64
        ));
    }
    text.push_str(
        "\nnote: structural SCOAP does not separate the classes — the paper's\n\
         ranking is about *instruction-level* accessibility, which is exactly\n\
         the methodology's point (the ISA reaches functional components\n\
         cheaply regardless of structural depth).\n",
    );
    experiment(
        "table1q",
        "Table 1 (measured): SCOAP testability per component class",
        text,
        serde_json::Value::Array(rows),
    )
}

/// Optimized-netlist ablation: run Phase A+B coverage on the
/// constant-folded, swept netlist (what a synthesis tool would hand the
/// fault simulator).
pub fn table_optnet(opts: &RunOptions) -> Experiment {
    let fo = opts.flow_options();
    let base = PlasmaCore::build(PlasmaConfig::default());
    let (opt, stats) = PlasmaCore::optimized(PlasmaConfig::default());
    let rb = flow::run_flow(&base, Phase::B, &fo);
    let ro = flow::run_flow(&opt, Phase::B, &fo);
    let mut text = format!(
        "optimizer: {} -> {} gates ({} folded, {} swept)

",
        stats.gates_before, stats.gates_after, stats.folded, stats.swept
    );
    text.push_str(&format!(
        "{:<28} {:>10} {:>14}
",
        "Netlist", "NAND2", "Phase A+B FC%"
    ));
    text.push_str(&format!(
        "{:<28} {:>10.0} {:>14.2}
",
        "as generated",
        base.netlist().nand2_equiv(),
        rb.coverage.overall_pct
    ));
    text.push_str(&format!(
        "{:<28} {:>10.0} {:>14.2}
",
        "constant-folded + swept",
        opt.netlist().nand2_equiv(),
        ro.coverage.overall_pct
    ));
    experiment(
        "optnet",
        "Netlist-optimization ablation (untestable constant logic removed)",
        text,
        serde_json::json!({
            "gates_before": stats.gates_before,
            "gates_after": stats.gates_after,
            "fc_base": rb.coverage.overall_pct,
            "fc_opt": ro.coverage.overall_pct,
        }),
    )
}

/// Response-compaction ablation: the paper's store-everything observation
/// vs a software MISR, graded on the fault lists of the two routines the
/// comparison swaps (ALU and shifter).
pub fn table_misr(core: &PlasmaCore, opts: &RunOptions) -> Experiment {
    let fo = opts.flow_options();
    let nl = core.netlist();
    let all = flow::fault_list(core, &fo);
    let alu = nl.component_by_name("ALU").unwrap();
    let bsh = nl.component_by_name("BSH").unwrap();
    let faults = all.filter(|_, c| c == alu || c == bsh);

    let store_all = build_program(Phase::A).expect("assembles");
    let store_cycles = flow::golden_cycles(&store_all);
    let store_res = grade_program(
        core,
        &store_all.program,
        &faults,
        store_cycles + CYCLE_MARGIN,
        &fo,
    );
    let misr = sbst::signature::misr_program().expect("assembles");
    let misr_cycles = flow::golden_cycles(&misr);
    let misr_res = grade_program(
        core,
        &misr.program,
        &faults,
        misr_cycles + CYCLE_MARGIN,
        &fo,
    );

    let mut text = format!(
        "{:<30} {:>8} {:>9} {:>14}
",
        "Observation", "words", "cycles", "ALU+BSH FC %"
    );
    text.push_str(&format!(
        "{:<30} {:>8} {:>9} {:>14.2}
",
        "store every response",
        store_all.size_words(),
        store_cycles,
        100.0 * store_res.coverage()
    ));
    text.push_str(&format!(
        "{:<30} {:>8} {:>9} {:>14.2}
",
        "software MISR (1 store/rt)",
        misr.size_words(),
        misr_cycles,
        100.0 * misr_res.coverage()
    ));
    text.push_str(
        "
(the MISR program contains only the ALU and shifter routines, so its
         word/cycle figures are not comparable to the full Phase A program —
         the point is the coverage retained despite 3 stores total)
",
    );
    experiment(
        "misr",
        "Response-compaction ablation: store-everything vs software MISR",
        text,
        serde_json::json!({
            "store_fc": 100.0 * store_res.coverage(),
            "misr_fc": 100.0 * misr_res.coverage(),
        }),
    )
}

/// All experiment ids, in paper order.
pub const EXPERIMENT_IDS: [&str; 14] = [
    "fig2", "fig3", "fig4", "table1", "table1q", "table2", "table3", "table4", "table5", "retech",
    "prcomp", "parwan", "optnet", "misr",
];

/// The experiments that grade a sampled Plasma fault list (`--sample`,
/// `--full`); every other one grades a complete list or none.
pub const SAMPLED_IDS: [&str; 5] = ["table5", "retech", "prcomp", "optnet", "misr"];

/// Run the experiments whose id passes `filter`, lazily (cheap tables
/// don't trigger fault simulation and vice versa). `opts.sample = None`
/// gives the exact full-fault-list numbers.
pub fn run_selected(opts: &RunOptions, mut filter: impl FnMut(&str) -> bool) -> Vec<Experiment> {
    let mut out = Vec::new();
    let mut core: Option<PlasmaCore> = None;
    fn core_ref(core: &mut Option<PlasmaCore>) -> &PlasmaCore {
        core.get_or_insert_with(|| PlasmaCore::build(PlasmaConfig::default()))
    }
    for id in EXPERIMENT_IDS {
        if !filter(id) {
            continue;
        }
        out.push(match id {
            "fig2" => figure_2_methodology_outline(),
            "fig3" => figure_3_phases(),
            "fig4" => figure_4_component_flow(),
            "table1" => table_1(),
            "table1q" => table_testability(core_ref(&mut core)),
            "table2" => table_2(),
            "table3" => table_3(core_ref(&mut core)),
            "table4" => table_4(),
            "table5" => table_5(core_ref(&mut core), opts),
            "retech" => table_retech(opts),
            "prcomp" => table_baselines(core_ref(&mut core), opts),
            "parwan" => table_parwan(opts),
            "optnet" => table_optnet(opts),
            "misr" => table_misr(core_ref(&mut core), opts),
            _ => unreachable!(),
        });
    }
    out
}

/// Everything, in paper order. `opts.sample = None` gives the exact
/// (full-fault-list) numbers.
pub fn run_all(opts: &RunOptions) -> Vec<Experiment> {
    run_selected(opts, |_| true)
}

fn workers_json(s: &fault::campaign::CampaignStats) -> serde_json::Value {
    serde_json::Value::Array(
        s.workers
            .iter()
            .map(|w| {
                serde_json::json!({
                    "worker": w.worker,
                    "batches": w.batches,
                    "cycles": w.cycles,
                    "lanes": w.lanes,
                    "lane_cycles": w.lane_cycles,
                    "wall_seconds": w.wall_seconds,
                    "mlane_cycles_per_sec": w.mlane_cycles_per_sec(),
                })
            })
            .collect(),
    )
}

fn stats_json(r: &CampaignResult) -> serde_json::Value {
    let s = &r.stats;
    serde_json::json!({
        "threads": s.threads,
        "engine": "compiled",
        "lanes": s.lanes,
        "batches": s.batches,
        "faults": r.faults.len(),
        "faults_dropped": s.faults_dropped,
        "cycles_simulated": s.cycles_simulated,
        "lane_cycles_spent": s.lane_cycles_spent,
        "budget_cycles": s.budget_cycles,
        "wall_seconds": s.wall_seconds,
        "mlane_cycles_per_sec": s.mlane_cycles_per_sec(),
        "faults_per_sec": s.faults_per_sec(),
        "lane_utilization": s.lane_utilization(),
        "latency": s.latency.to_json(),
        "workers": workers_json(s),
    })
}

fn stats_line(label: &str, r: &CampaignResult) -> String {
    let s = &r.stats;
    format!(
        "{:<10} {:>6} {:>7} {:>8} {:>12} {:>10.3} {:>10.1} {:>6.3} {:>14.2}\n",
        label,
        s.lanes,
        s.threads,
        s.batches,
        s.cycles_simulated,
        s.wall_seconds,
        s.faults_per_sec(),
        s.lane_utilization(),
        s.mlane_cycles_per_sec()
    )
}

/// The campaign throughput benchmark behind `tables --stats`: grade the
/// Phase A+B self-test over the sampled fault list serially and at the
/// requested (or auto) thread count for every lane width in the sweep,
/// verify the detections are bit-identical across threads and lane
/// widths (every width's serial run against the first width's), and
/// report wall time / Mlane-cycles/s / speedup.
/// The `tables` binary writes the payload to `results/BENCH_campaign.json`.
pub fn campaign_benchmark(opts: &RunOptions) -> Experiment {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let fo = opts.flow_options();
    let selftest = build_program(Phase::B).expect("assembles");
    let golden = flow::golden_cycles(&selftest);
    let faults = flow::fault_list(&core, &fo);
    let budget = golden + CYCLE_MARGIN;
    let threads = if opts.threads == 0 {
        campaign::default_threads()
    } else {
        opts.threads
    };

    let telemetry = &opts.telemetry;
    let combos = opts.engine_sweep();

    let mut text = format!(
        "Phase A+B campaign: {} faults, budget {} cycles/batch\n\n",
        faults.len(),
        budget
    );
    text.push_str(&format!(
        "{:<10} {:>6} {:>7} {:>8} {:>12} {:>10} {:>10} {:>6} {:>14}\n",
        "run",
        "lanes",
        "threads",
        "batches",
        "cycles",
        "wall (s)",
        "faults/s",
        "util",
        "Mlane-cyc/s"
    ));
    let mut runs = Vec::new();
    let mut speedup = 1.0;
    let mut ledger = None;
    // The per-width asserts panic on divergence, so reaching the payload
    // with two or more widths means every width matched the first.
    let cross_width_match = combos.len() >= 2;
    let mut first_detections: Option<Vec<campaign::Detection>> = None;
    let mut last_profiled: Option<campaign::CampaignStats> = None;
    for engine in &combos {
        let serial = flow::run_campaign_of_engine(
            &core,
            &selftest.program,
            &faults,
            budget,
            1,
            telemetry,
            *engine,
        );
        let coverage_pct = 100.0 * serial.coverage();
        let first = first_detections.get_or_insert_with(|| serial.detections.clone());
        assert_eq!(
            &serial.detections,
            first,
            "{} lanes diverged from {} lanes",
            engine.lanes(),
            combos[0].lanes()
        );
        text.push_str(&stats_line("serial", &serial));
        runs.push(stats_json(&serial));
        // The ledger record tracks the sweep's last combo at the
        // *requested* thread count — that is the configuration whose
        // throughput trend matters.
        let mut rec = campaign_ledger_record("tables-stats", &core, &serial, Some(coverage_pct));
        if threads > 1 {
            let par = flow::run_campaign_of_engine(
                &core,
                &selftest.program,
                &faults,
                budget,
                threads,
                telemetry,
                *engine,
            );
            assert_eq!(
                par.detections, serial.detections,
                "parallel campaign diverged from serial"
            );
            speedup = serial.stats.wall_seconds / par.stats.wall_seconds.max(1e-9);
            text.push_str(&stats_line("parallel", &par));
            text.push_str(&format!("\nspeedup at {threads} threads: {speedup:.2}x\n"));
            rec = campaign_ledger_record("tables-stats", &core, &par, Some(coverage_pct));
            rec.extra
                .insert("speedup".to_string(), serde_json::Value::F64(speedup));
            runs.push(stats_json(&par));
            last_profiled = Some(par.stats);
        } else {
            text.push_str("\n(auto thread count resolved to 1 — no parallel run to compare)\n");
            last_profiled = Some(serial.stats);
        }
        ledger = Some(rec);
    }
    if cross_width_match {
        text.push_str(&format!(
            "\ncross-width check: detections match at every width ({} faults)\n",
            faults.len()
        ));
    }
    if let Some(stats) = &last_profiled {
        profile_section(&mut text, stats);
    }
    let mut exp = experiment(
        "campaign",
        "Campaign throughput benchmark (serial vs parallel)",
        text,
        serde_json::json!({
            "faults": faults.len(),
            "budget_cycles_per_batch": budget,
            "runs": runs,
            "speedup": speedup,
            "cross_width_match": cross_width_match,
        }),
    );
    exp.ledger = ledger;
    exp
}

fn worker_table(s: &fault::campaign::CampaignStats) -> String {
    let mut t = format!(
        "{:<8} {:>8} {:>12} {:>10} {:>14}\n",
        "worker", "batches", "cycles", "wall (s)", "Mlane-cyc/s"
    );
    for w in &s.workers {
        t.push_str(&format!(
            "{:<8} {:>8} {:>12} {:>10.3} {:>14.2}\n",
            w.worker,
            w.batches,
            w.cycles,
            w.wall_seconds,
            w.mlane_cycles_per_sec()
        ));
    }
    t
}

fn md_section(md: &mut String, title: &str, body: &str) {
    md.push_str(&format!("## {title}\n\n```text\n{body}```\n\n"));
}

/// The observability report behind `tables --report`: run the Phase A+B
/// flow with detection provenance, a coverage-over-time timeline and the
/// detection-latency histogram, rendered as a markdown document (written
/// to `results/REPORT.md` by the driver) plus a machine-readable payload
/// (`results/REPORT.json`).
pub fn observability_report(opts: &RunOptions, stride: u64) -> Experiment {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let mut fo = opts.flow_options();
    let stride = stride.max(1);
    fo.timeline_stride = stride;
    let r = flow::run_flow(&core, Phase::B, &fo);
    let tl = r.timeline.as_ref().expect("stride > 0 yields a timeline");
    let s = &r.campaign.stats;

    let mut md = String::from("# SBST campaign observability report\n\n");
    md.push_str(&format!(
        "- phase: {}\n- program: {} words, golden run {} cycles\n\
         - faults: {} collapsed{}\n- budget: {} cycles/batch, {} batches\n\
         - threads: {}, wall {:.3} s\n- overall fault coverage: {:.2}%\n\n",
        r.selftest.phase.name(),
        r.selftest.size_words(),
        r.golden_cycles,
        r.campaign.faults.len(),
        match opts.sample {
            Some(n) => format!(" (stratified sample, target {n})"),
            None => String::new(),
        },
        r.golden_cycles + CYCLE_MARGIN,
        s.batches,
        s.threads,
        s.wall_seconds,
        r.coverage.overall_pct,
    ));
    md_section(&mut md, "Per-component coverage", &r.coverage.to_table());
    let mut attr = r.provenance.to_table();
    attr.push_str(
        "\n(rows: SBST routine executing at the detection cycle; columns:\n\
         hardware component the detected fault lives in; weighted counts)\n",
    );
    md_section(&mut md, "Detection attribution by routine", &attr);
    md_section(
        &mut md,
        &format!("Coverage over time (stride {stride} cycles)"),
        &tl.to_table(),
    );
    md_section(
        &mut md,
        "Detection latency (cycles until first bus divergence)",
        &s.latency.to_table(),
    );
    md_section(&mut md, "Worker throughput", &worker_table(s));
    if !s.profile.is_empty() {
        md_section(&mut md, "Hot-loop self-profile", &s.profile.to_table());
    }

    let data = serde_json::json!({
        "phase": r.selftest.phase.name(),
        "faults": r.campaign.faults.len(),
        "golden_cycles": r.golden_cycles,
        "overall_pct": r.coverage.overall_pct,
        "coverage": coverage_json(&r.coverage),
        "provenance": r.provenance.to_json(),
        "timeline": {
            "stride": tl.stride,
            "cycles": tl.cycles.iter().map(|&c| serde_json::Value::U64(c)).collect::<Vec<_>>(),
            "components": tl.components.clone(),
            "rows": tl.rows.iter().map(|row| {
                serde_json::Value::Array(row.iter().map(|&p| serde_json::Value::F64(p)).collect())
            }).collect::<Vec<_>>(),
            "overall": tl.overall.iter().map(|&p| serde_json::Value::F64(p)).collect::<Vec<_>>(),
        },
        "latency": s.latency.to_json(),
        "workers": workers_json(s),
    });
    let mut exp = experiment(
        "report",
        "Campaign observability report (provenance, timeline, latency)",
        md,
        data,
    );
    exp.ledger = Some(campaign_ledger_record(
        "tables-report",
        &core,
        &r.campaign,
        Some(r.coverage.overall_pct),
    ));
    exp
}

/// The fault-forensics report behind `tables --forensics`: run the
/// Phase A+B campaign with escape triage enabled and render
/// `results/FORENSICS.{md,json}` — every escape in exactly one
/// detectability bucket, testable coverage next to the paper's raw
/// figure, and the escape-attribution matrix joining activation
/// evidence back to the SBST routine executing at the site.
pub fn forensics_report(opts: &RunOptions) -> Experiment {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let mut fo = opts.flow_options();
    fo.forensics = true;
    let r = flow::run_flow(&core, Phase::B, &fo);
    let f = r.forensics.as_ref().expect("forensics requested");
    let attr = r
        .escape_attribution
        .as_ref()
        .expect("attribution follows forensics");

    let mut text = f.to_markdown();
    let mut a = attr.to_table();
    a.push_str(
        "\n(rows: SBST routine executing when the fault-free machine first\n\
         drove each escape's site to its exciting value; columns: hardware\n\
         component of the escape; weighted counts)\n",
    );
    md_section(&mut text, "Escape attribution", &a);

    let mut data = f.to_json();
    if let serde_json::Value::Object(map) = &mut data {
        map.insert("escape_attribution".to_string(), attr.to_json());
    }
    let mut exp = experiment(
        "forensics",
        "Fault forensics: escape triage and testable coverage",
        text,
        data,
    );
    let mut rec = campaign_ledger_record(
        "tables-forensics",
        &core,
        &r.campaign,
        Some(r.coverage.overall_pct),
    );
    rec.untestable_faults = f.untestable_weighted;
    rec.testable_coverage = Some(f.testable_coverage() * 100.0);
    exp.ledger = Some(rec);
    exp
}

/// Single-fault structural drill-down behind `tables --forensics-fault`.
/// No campaign runs: the report is the fault's class members, its SCOAP
/// testability, its stimulus fan-in and effect fan-out cones, whether
/// the effect can structurally reach an observed output, and a
/// ready-made wave-capture command for interactive debugging of that
/// one class.
pub fn forensics_fault_report(id: &str) -> Result<Experiment, String> {
    use fault::model::Polarity;

    let core = PlasmaCore::build(PlasmaConfig::default());
    let nl = core.netlist();
    let uncollapsed = FaultList::extract(nl);
    let reps = fault::collapse::class_representatives(nl, &uncollapsed);
    let faults = uncollapsed.clone().collapsed(nl);
    let i = fault::wave::find_fault(&faults, id)
        .ok_or_else(|| format!("fault `{id}` not found in the collapsed fault list"))?;
    let f = faults.faults[i];
    // The faults collapsed into this class: what else a test for it
    // would catch.
    let rep = uncollapsed
        .faults
        .iter()
        .position(|&g| g == f)
        .expect("a representative belongs to the uncollapsed list");
    let members: Vec<String> = (0..reps.len())
        .filter(|&j| j != rep && reps[j] == rep)
        .map(|j| uncollapsed.faults[j].describe())
        .collect();
    let names = nl.component_names();
    let component = names[faults.component[i].index()].clone();
    let scoap = fault::scoap::analyze(nl);
    let site = fault::forensics::site_net(nl, f.site);
    let origin = fault::forensics::effect_origin(nl, f.site);
    let mut seeds = origin.clone();
    seeds.push(site);
    seeds.sort();
    seeds.dedup();
    let fanin = netlist::cone::fanin_cone(nl, &[site], true);
    let fanout = netlist::cone::fanout_cone(nl, &seeds, true);
    let observed = core.observed_outputs();
    let reached: Vec<netlist::Net> = observed
        .iter()
        .copied()
        .filter(|&o| fanout.contains_net(o))
        .collect();
    let cc_excite = match f.polarity {
        Polarity::StuckAt0 => scoap.cc1[site.index()],
        Polarity::StuckAt1 => scoap.cc0[site.index()],
    };
    let show_inf = |v: u32| {
        if v >= fault::scoap::INF {
            "inf".to_string()
        } else {
            v.to_string()
        }
    };
    let probe = fanout.components(nl).join(",");

    let mut text = format!(
        "fault {} — component {}, class size {}\n",
        f.describe(),
        component,
        faults.weight[i]
    );
    if members.is_empty() {
        text.push_str("class members: none\n\n");
    } else {
        text.push_str(&format!(
            "class members ({}): {}\n\n",
            members.len(),
            members.join(", ")
        ));
    }
    text.push_str(&format!(
        "SCOAP at site net n{}: CC0 {}  CC1 {}  CO {}  (excitation cost {})\n",
        site.index(),
        show_inf(scoap.cc0[site.index()]),
        show_inf(scoap.cc1[site.index()]),
        show_inf(scoap.co[site.index()]),
        show_inf(cc_excite),
    ));
    text.push_str(&format!(
        "stimulus fan-in cone (through DFFs): {} nets, {} gates, {} DFFs — {}\n",
        fanin.nets.len(),
        fanin.gates.len(),
        fanin.dffs.len(),
        fanin.components(nl).join(", "),
    ));
    text.push_str(&format!(
        "effect fan-out cone (through DFFs): {} nets, {} gates, {} DFFs — {}\n",
        fanout.nets.len(),
        fanout.gates.len(),
        fanout.dffs.len(),
        fanout.components(nl).join(", "),
    ));
    text.push_str(&format!(
        "observed outputs structurally reachable: {} of {}{}\n",
        reached.len(),
        observed.len(),
        if reached.is_empty() {
            " — STRUCTURALLY UNTESTABLE under this observation scheme"
        } else {
            ""
        },
    ));
    if probe.is_empty() {
        text.push_str(&format!(
            "\nto watch it live (default probe — the effect never leaves the site):\n  \
             tables --wave-fault \"{}\"\n",
            f.describe(),
        ));
    } else {
        text.push_str(&format!(
            "\nto watch it live:\n  tables --wave-fault \"{}\" --wave-probe {}\n",
            f.describe(),
            probe,
        ));
    }

    Ok(experiment(
        "forensics-fault",
        "Single-fault detectability drill-down",
        text,
        serde_json::Value::Null,
    ))
}

/// Differential waveform dumps (`--wave-fault` / `--wave-escapes`):
/// replay the selected fault(s) of the Phase B self-test with lane 0
/// fault-free and lane 1 faulty, and write `good`/`faulty`/`diff` VCDs
/// under the wave output directory.
///
/// A named `--wave-fault` alone replays directly (no campaign); asking
/// for escapes runs the sampled Phase B campaign first to learn which
/// faults escaped (and then also captures the named fault, if any,
/// through the same flow). Errors (unknown fault id, bad probe spec)
/// come back as `Err` for the CLI to report.
pub fn wave_report(
    opts: &RunOptions,
    wave: &fault::wave::WaveOptions,
) -> Result<Experiment, String> {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let mut ledger = None;

    let artifacts = if wave.escapes > 0 {
        let mut fo = opts.flow_options();
        fo.wave = Some(wave.clone());
        let r = flow::run_flow(&core, Phase::B, &fo);
        if r.waves.is_empty() {
            return Err(
                "campaign produced no wave dumps (no escapes and no matching fault?)".into(),
            );
        }
        ledger = Some(campaign_ledger_record(
            "tables-wave",
            &core,
            &r.campaign,
            Some(r.coverage.overall_pct),
        ));
        r.waves
    } else {
        let id = wave
            .fault
            .as_deref()
            .ok_or("wave mode needs --wave-fault <id> or --wave-escapes <k>")?;
        let selftest = build_program(Phase::B).expect("phase program must assemble");
        let golden = flow::golden_cycles(&selftest);
        // Resolve against the complete collapsed list, so any escape id
        // of `FORENSICS.md`'s escapes table or `FORENSICS.json`'s
        // `escapes[].fault` (sampled or not) can be replayed.
        let faults = FaultList::extract(core.netlist()).collapsed(core.netlist());
        let i = fault::wave::find_fault(&faults, id)
            .ok_or_else(|| format!("fault `{id}` not found in the collapsed fault list"))?;
        let a = flow::write_fault_wave(
            &core,
            &selftest.program,
            golden + CYCLE_MARGIN,
            faults.faults[i],
            wave,
            "fault",
        )?;
        vec![a]
    };

    let mut text = String::new();
    for a in &artifacts {
        let verdict = match a.detected_at {
            Some(t) => format!("detected at cycle {t}"),
            None => "escaped (horizon window)".to_string(),
        };
        text.push_str(&format!(
            "{:<16} {} -> {}\n",
            a.fault,
            verdict,
            a.path.display()
        ));
        eprintln!("[wave written to {}]", a.path.display());
    }
    text.push_str("\nopen in GTKWave; the `diff` scope XORs good vs faulty per net.\n");
    let mut exp = experiment(
        "wave",
        "Differential good/faulty waveform dumps",
        text,
        serde_json::Value::Null,
    );
    exp.ledger = ledger;
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = table_1();
        assert!(t1.text.contains("Functional"));
        let t2 = table_2();
        assert!(t2.text.contains("Register File"));
        let core = PlasmaCore::build(PlasmaConfig::default());
        let t3 = table_3(&core);
        assert!(t3.text.contains("Register File"));
        assert!(t3.text.contains("9906"));
        let f2 = figure_2_methodology_outline();
        assert!(f2.text.contains("RegF"));
        let f3 = figure_3_phases();
        assert!(f3.text.contains("Phase A+B"));
        let f4 = figure_4_component_flow();
        assert!(f4.text.contains("MCTRL"));
    }

    #[test]
    fn table4_reports_sane_sizes() {
        let t = table_4();
        // Program sizes must be in the paper's order of magnitude.
        let rows = t.data.as_array().unwrap();
        for r in rows {
            let words = r["words"].as_u64().unwrap();
            assert!(words > 300 && words < 3000, "words = {words}");
            let cycles = r["cycles"].as_u64().unwrap();
            assert!(cycles > 2000 && cycles < 40_000, "cycles = {cycles}");
        }
    }
}
