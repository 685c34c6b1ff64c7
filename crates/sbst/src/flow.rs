//! The end-to-end evaluation flow: build the phase program, measure the
//! golden run (Table 4), fault-simulate the processor executing its own
//! self test (Table 5).

use std::path::PathBuf;

use fault::campaign::CampaignResult;
use fault::coverage::{CoverageReport, CoverageTimeline};
use fault::engine::EngineConfig;
use fault::model::FaultList;
use mips::iss::{Iss, Memory};
use obs::{MetricRegistry, Telemetry};
use plasma::testbench::self_test_bench;
use plasma::PlasmaCore;

use crate::cost::{CostModel, TestCost};
use crate::phases::{build_program, Phase, SelfTestProgram};
use crate::provenance::{EscapeAttribution, GoldenTrace, ProvenanceReport, RoutineMap};
use crate::routines::{END_MARKER, MAILBOX};

/// Size of the self-test memory image.
pub const MEM_BYTES: usize = 64 * 1024;

/// Extra cycles granted to faulty machines beyond the golden run length
/// (divergence almost always appears long before the end): every
/// campaign's budget is the golden run plus this.
pub const CYCLE_MARGIN: u64 = 64;

/// Options controlling a flow run.
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// Fault-sample target; `None` simulates the complete collapsed
    /// fault list (slow but exact — used for the final tables).
    pub fault_sample: Option<usize>,
    /// Deterministic seed for sampling.
    pub seed: u64,
    /// Campaign worker threads; 0 resolves via
    /// [`fault::campaign::default_threads`] (the `SBST_THREADS` environment
    /// variable, else available parallelism). Results are bit-identical
    /// at every thread count.
    pub threads: usize,
    /// What the campaign reports through (disabled by default). Its
    /// registry also receives per-component gate-eval counts and
    /// coverage gauges; an enabled profiler lands phase wall-times in
    /// `CampaignStats::profile` (the timed step variant reads the clock
    /// six times per cycle).
    pub telemetry: Telemetry,
    /// Coverage-over-time sample stride in cycles; `0` disables the
    /// timeline (the default).
    pub timeline_stride: u64,
    /// Waveform capture (`--wave-fault`/`--wave-escapes`): after the
    /// campaign, replay the selected fault and/or the first `escapes`
    /// undetected faults with a wave probe attached and write
    /// differential VCDs (good/faulty/diff scopes) under
    /// [`fault::wave::WaveOptions::out_dir`]. `None` (the default) adds
    /// zero work — campaigns never record.
    pub wave: Option<fault::wave::WaveOptions>,
    /// Lane width of the compiled engine (256 by default). Detections
    /// are bit-identical at every width.
    pub engine: EngineConfig,
    /// Run fault forensics after the campaign (`--forensics`): triage
    /// every escape into a detectability bucket via structural cones +
    /// SCOAP + one fault-free evidence run of the self-test, and join
    /// the escapes against the routine map. The evidence run reads lane
    /// 0 only, so it runs on the compiled engine at 64 lanes, and it is
    /// pure post-processing: the JSON is byte-identical at every width
    /// and thread count. Off by
    /// default (it costs about one fault-free run of the budget, however
    /// many escapes there are).
    pub forensics: bool,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            fault_sample: Some(6000),
            seed: 0xC0FFEE,
            threads: 0,
            telemetry: Telemetry::none(),
            timeline_stride: 0,
            wave: None,
            engine: EngineConfig::default(),
            forensics: false,
        }
    }
}

/// Publish the flow-level metrics a finished campaign implies: static
/// per-component gate-eval attribution (every simulated cycle evaluates
/// every gate once, across all 64 lanes) and coverage gauges.
fn publish_flow_metrics(
    registry: &MetricRegistry,
    core: &PlasmaCore,
    campaign: &CampaignResult,
    coverage: &CoverageReport,
) {
    let cycles = campaign.stats.cycles_simulated;
    for s in core.netlist().component_stats() {
        registry
            .counter(
                "sbst_gate_evals_total",
                "gate evaluations attributed to a component (gates x simulated cycles, 64 lanes each)",
                &[("component", s.name.as_str())],
            )
            .inc(s.gates as u64 * cycles);
    }
    registry
        .gauge(
            "sbst_coverage_pct",
            "weighted fault coverage of the last flow run, percent",
            &[],
        )
        .set(coverage.overall_pct);
    for c in &coverage.components {
        registry
            .gauge(
                "sbst_component_coverage_pct",
                "weighted fault coverage per component, percent",
                &[("component", c.name.as_str())],
            )
            .set(c.coverage_pct);
    }
}

/// The result of one flow run: everything the paper's Tables 4 and 5
/// report for one phase.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// The generated self-test program.
    pub selftest: SelfTestProgram,
    /// Golden execution length in clock cycles (Table 4).
    pub golden_cycles: u64,
    /// Tester-time cost (download + execution) at the
    /// [`CostModel::default`] clocks.
    pub cost: TestCost,
    /// Raw campaign result.
    pub campaign: CampaignResult,
    /// Per-component coverage (Table 5).
    pub coverage: CoverageReport,
    /// Detection provenance: which routine/instruction was executing
    /// when each fault was first observed (computed offline from the
    /// golden ISS trace — see [`crate::provenance`]).
    pub provenance: ProvenanceReport,
    /// Coverage-over-time samples, present when
    /// [`FlowOptions::timeline_stride`] is nonzero.
    pub timeline: Option<CoverageTimeline>,
    /// Differential waveform dumps written by this run (empty unless
    /// [`FlowOptions::wave`] was set).
    pub waves: Vec<WaveArtifact>,
    /// Escape triage + detectability analysis, present when
    /// [`FlowOptions::forensics`] is on.
    pub forensics: Option<fault::forensics::ForensicsReport>,
    /// Per-routine × per-component escape attribution (the dual of
    /// `provenance`), present when [`FlowOptions::forensics`] is on.
    pub escape_attribution: Option<EscapeAttribution>,
}

/// One differential VCD written by a flow run.
#[derive(Debug, Clone)]
pub struct WaveArtifact {
    /// The replayed fault, as [`fault::Fault::describe`].
    pub fault: String,
    /// Where the VCD landed.
    pub path: PathBuf,
    /// Detection cycle (trigger), `None` for an escape captured to the
    /// budget horizon.
    pub detected_at: Option<u64>,
}

/// Measure the golden run length of a self-test program on the ISS.
///
/// Any program following the mailbox convention (storing [`END_MARKER`]
/// to [`MAILBOX`] when done) can be measured — the baselines reuse this.
///
/// # Panics
///
/// Panics if the program never stores its end marker within a generous
/// bound — that would be a broken self-test program, not a data error.
pub fn golden_cycles_of(program: &mips::Program) -> u64 {
    let mut mem = Memory::new(MEM_BYTES);
    mem.load_program(program);
    let mut cpu = Iss::new();
    let trace = cpu.run_until_store(&mut mem, MAILBOX, END_MARKER, 2_000_000);
    let last = trace.last().expect("nonempty trace");
    assert!(
        last.we && last.addr == MAILBOX && last.wdata == END_MARKER,
        "self-test program never reached its end marker"
    );
    trace.len() as u64
}

/// [`golden_cycles_of`] for a generated phase program.
pub fn golden_cycles(selftest: &SelfTestProgram) -> u64 {
    golden_cycles_of(&selftest.program)
}

/// Prepare the (possibly sampled) collapsed fault list of a core.
pub fn fault_list(core: &PlasmaCore, opts: &FlowOptions) -> FaultList {
    let full = FaultList::extract(core.netlist()).collapsed(core.netlist());
    match opts.fault_sample {
        Some(n) => full.sample_stratified(n, opts.seed),
        None => full,
    }
}

/// The evaluation segments of `core`, as the engine takes them.
fn segments(core: &PlasmaCore) -> [Vec<u32>; 2] {
    core.segments().map(<[u32]>::to_vec)
}

/// Grade `program` over `faults` on `core` — the Plasma campaign entry
/// ([`EngineConfig::grade`]) on `threads` workers (0 = auto), with
/// batches at most `engine`'s width. Detections are bit-identical
/// across widths, thread counts and telemetry.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_of_engine(
    core: &PlasmaCore,
    program: &mips::Program,
    faults: &FaultList,
    budget: u64,
    threads: usize,
    telemetry: &Telemetry,
    engine: EngineConfig,
) -> CampaignResult {
    // Each worker's bench shares the telemetry's profiler handle, so the
    // per-cycle phases land in the same profile as the runner's
    // patch/reset (a disabled handle keeps the plain step path).
    let factory = || {
        self_test_bench(core, program, MEM_BYTES, budget).with_profiler(telemetry.profiler.clone())
    };
    engine.grade(
        core.netlist(),
        &segments(core),
        faults,
        factory,
        threads,
        telemetry,
    )
}

/// Replay one fault of a program with waveform capture (lane 0 good,
/// lane 1 faulty — see [`plasma::testbench::capture_fault_wave`]) and
/// write the differential VCD as
/// `<out_dir>/WAVE_<tag>_<fault-desc>.vcd`. The VCD `$comment` records
/// the fault, verdict, and window geometry.
pub fn write_fault_wave(
    core: &PlasmaCore,
    program: &mips::Program,
    budget: u64,
    f: fault::Fault,
    wave: &fault::wave::WaveOptions,
    tag: &str,
) -> Result<WaveArtifact, String> {
    let captured =
        plasma::testbench::capture_fault_wave(core, program, MEM_BYTES, budget, f, wave)?;
    let desc = f.describe();
    let path = wave.out_dir.join(fault::wave::wave_file_name(tag, &desc));
    let comment = match captured.trigger {
        Some(t) => format!(
            "fault {desc} detected at cycle {t}; window pre={} post={}",
            wave.pre, wave.post
        ),
        None => format!("fault {desc} escaped; horizon window of {} cycles", wave.depth),
    };
    captured
        .write_file(&path, &comment)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(WaveArtifact {
        fault: desc,
        path,
        detected_at: captured.trigger,
    })
}

/// Capture the waves [`FlowOptions::wave`] asks for: the named fault
/// (tag `fault`) and/or the first `escapes` undetected faults of the
/// campaign (tag `escape`). Capture failures degrade to warnings — a
/// broken wave dump should never kill a finished campaign.
fn capture_flow_waves(
    core: &PlasmaCore,
    program: &mips::Program,
    budget: u64,
    faults: &FaultList,
    campaign: &CampaignResult,
    w: &fault::wave::WaveOptions,
) -> Vec<WaveArtifact> {
    let mut waves = Vec::new();
    if let Some(id) = &w.fault {
        match fault::wave::find_fault(faults, id) {
            Some(i) => match write_fault_wave(core, program, budget, faults.faults[i], w, "fault") {
                Ok(a) => waves.push(a),
                Err(e) => eprintln!("warning: wave capture for `{id}` failed: {e}"),
            },
            None => eprintln!("warning: wave fault `{id}` not in the (sampled) fault list"),
        }
    }
    let mut captured = 0usize;
    for (i, d) in campaign.detections.iter().enumerate() {
        if captured >= w.escapes {
            break;
        }
        if !d.is_detected() {
            match write_fault_wave(core, program, budget, faults.faults[i], w, "escape") {
                Ok(a) => waves.push(a),
                Err(e) => eprintln!("warning: escape wave capture failed: {e}"),
            }
            captured += 1;
        }
    }
    waves
}

/// The full flow for one phase: generate, assemble, measure, grade, and
/// attribute — every detection is joined against the golden ISS trace to
/// recover the executing routine (see [`crate::provenance`]).
pub fn run_flow(core: &PlasmaCore, phase: Phase, opts: &FlowOptions) -> FlowReport {
    let selftest = build_program(phase).expect("phase program must assemble");
    let golden = golden_cycles(&selftest);
    let budget = golden + CYCLE_MARGIN;
    let faults = fault_list(core, opts);
    let campaign = run_campaign_of_engine(
        core,
        &selftest.program,
        &faults,
        budget,
        opts.threads,
        &opts.telemetry,
        opts.engine,
    );
    let coverage = CoverageReport::from_campaign(core.netlist(), &campaign);
    if let Some(reg) = &opts.telemetry.metrics {
        publish_flow_metrics(reg, core, &campaign, &coverage);
    }
    let cost = CostModel::default().cost(selftest.size_words(), golden);
    let trace = GoldenTrace::record(&selftest.program, MEM_BYTES, golden);
    let map = RoutineMap::of_selftest(&selftest);
    let provenance = ProvenanceReport::from_campaign(core.netlist(), &campaign, &trace, &map);
    let timeline = (opts.timeline_stride > 0)
        .then(|| CoverageTimeline::from_campaign(core.netlist(), &campaign, opts.timeline_stride));
    let waves = match &opts.wave {
        Some(w) => capture_flow_waves(core, &selftest.program, budget, &faults, &campaign, w),
        None => Vec::new(),
    };
    // The evidence run reads the campaign result, never writes it, and
    // reads only lane 0, so the narrowest width serves.
    let forensics = opts.forensics.then(|| {
        let mut sim = EngineConfig::compiled(64).sim(core.netlist(), &segments(core));
        let mut tb = self_test_bench(core, &selftest.program, MEM_BYTES, budget);
        fault::forensics::analyze(
            core.netlist(),
            &campaign,
            core.observed_outputs(),
            &mut sim,
            &mut tb,
        )
    });
    let escape_attribution = forensics
        .as_ref()
        .map(|f| EscapeAttribution::from_forensics(f, &trace, &map));
    FlowReport {
        selftest,
        golden_cycles: golden,
        cost,
        campaign,
        coverage,
        provenance,
        timeline,
        waves,
        forensics,
        escape_attribution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma::PlasmaConfig;

    /// A small-sample smoke run of the whole flow. The full-list runs
    /// live in the bench harness; this keeps the test suite fast while
    /// still exercising generation → assembly → golden run → campaign →
    /// report end to end.
    #[test]
    fn phase_a_flow_smoke() {
        let core = PlasmaCore::build(PlasmaConfig::default());
        let opts = FlowOptions {
            fault_sample: Some(700),
            timeline_stride: 500,
            telemetry: Telemetry {
                profiler: obs::Profiler::new(),
                metrics: Some(MetricRegistry::new()),
                ..Telemetry::none()
            },
            ..Default::default()
        };
        let report = run_flow(&core, Phase::A, &opts);
        // The profiler attributed time to the per-cycle phases...
        let profile = &report.campaign.stats.profile;
        assert!(!profile.is_empty(), "profile empty despite profile: true");
        assert!(profile.count(obs::ProfilePhase::Overlay) > 0);
        assert!(profile.count(obs::ProfilePhase::EvalEarly) > 0);
        // ...including the one-time kernel lowering...
        assert!(profile.count(obs::ProfilePhase::Compile) > 0);
        assert_eq!(report.campaign.stats.lanes, 256);
        // ...and the registry carries campaign + flow metrics.
        let text = opts.telemetry.metrics.as_ref().unwrap().to_prometheus();
        assert!(text.contains("sbst_batches_total"), "{text}");
        assert!(text.contains("sbst_gate_evals_total{component="), "{text}");
        assert!(text.contains("sbst_coverage_pct"), "{text}");
        assert!(report.golden_cycles > 1000);
        assert!(
            report.coverage.overall_pct > 75.0,
            "implausibly low sampled coverage: {:.2}%\n{}",
            report.coverage.overall_pct,
            report.coverage.to_table()
        );
        // Functional components must be well covered by Phase A.
        let regf = report.coverage.component("RegF").unwrap();
        assert!(regf.coverage_pct > 85.0, "RegF {:.2}%", regf.coverage_pct);
        // Provenance accounts for every weighted detection, and the
        // inline register-file march detects a nontrivial share.
        assert_eq!(
            report.provenance.total_detected(),
            report.coverage.total_detected,
            "provenance lost detections\n{}",
            report.provenance.to_table()
        );
        let main = report
            .provenance
            .routines
            .iter()
            .find(|r| r.routine == "main")
            .unwrap();
        assert!(main.detected > 0, "inline march attributed nothing");
        // The timeline's last sample agrees with the final report.
        let tl = report.timeline.as_ref().unwrap();
        assert!((tl.overall.last().unwrap() - report.coverage.overall_pct).abs() < 1e-9);
    }

    /// The observatory must not perturb the campaign, and its sampled
    /// series must land on the same final values at every thread count
    /// — only the timestamps may differ. Runs the same flow at 1 and 4
    /// workers with a registry + timeline + event bus attached and
    /// compares the deterministic counters' last samples.
    #[test]
    fn timeline_samples_are_thread_count_invariant() {
        let core = PlasmaCore::build(PlasmaConfig::default());
        let run = |threads: usize| {
            let reg = MetricRegistry::new();
            let tl = obs::Timeline::new(reg.clone(), 64);
            let opts = FlowOptions {
                fault_sample: Some(400),
                threads,
                telemetry: Telemetry {
                    tracer: obs::Tracer::disabled().with_bus(obs::EventBus::new(64)),
                    metrics: Some(reg),
                    ..Telemetry::none()
                },
                engine: EngineConfig::compiled(256),
                ..Default::default()
            };
            let report = run_flow(&core, Phase::A, &opts);
            tl.sample();
            (report, tl)
        };
        let (r1, tl1) = run(1);
        let (r4, tl4) = run(4);
        assert_eq!(
            r1.coverage.overall_pct, r4.coverage.overall_pct,
            "coverage depends on thread count"
        );
        for name in [
            "sbst_batches_total",
            "sbst_cycles_total",
            "sbst_faults_detected_total",
            "sbst_kernel_compile_ns_total", // present, value timing-dependent
        ] {
            assert!(
                tl1.last_value(name, "{}").is_some(),
                "{name} missing from the threads=1 timeline"
            );
        }
        for name in [
            "sbst_batches_total",
            "sbst_cycles_total",
            "sbst_faults_detected_total",
        ] {
            assert_eq!(
                tl1.last_value(name, "{}"),
                tl4.last_value(name, "{}"),
                "{name} differs across thread counts"
            );
        }
    }
}
