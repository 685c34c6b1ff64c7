//! Cross-crate end-to-end tests: the full reproduction pipeline from
//! gate-level core construction through self-test generation to fault
//! coverage, exercised the way the bench harness uses it (with small
//! fault samples to stay fast).

use fault::coverage::CoverageReport;
use plasma::{PlasmaConfig, PlasmaCore, COMPONENT_NAMES};
use sbst::flow::{self, FlowOptions};
use sbst::phases::Phase;

fn small_opts(sample: usize) -> FlowOptions {
    FlowOptions {
        fault_sample: Some(sample),
        ..Default::default()
    }
}

#[test]
fn table3_shape_holds() {
    // The paper's size ordering: the register file dominates, the
    // multiplier/divider is a clear second, functional components
    // together dwarf the control logic.
    let core = PlasmaCore::build(PlasmaConfig::default());
    let stats = core.netlist().component_stats();
    assert_eq!(stats[0].name, "RegF");
    assert_eq!(stats[1].name, "MulD");
    let size = |n: &str| {
        stats
            .iter()
            .find(|s| s.name == n)
            .map(|s| s.nand2_equiv)
            .unwrap_or(0.0)
    };
    let functional = size("RegF") + size("MulD") + size("ALU") + size("BSH");
    let control = size("MCTRL") + size("PCL") + size("CTRL") + size("BMUX") + size("GL");
    assert!(
        functional > 3.0 * control,
        "functional {functional} vs control {control}"
    );
    // Every paper component exists.
    for name in COMPONENT_NAMES {
        assert!(size(name) > 0.0 || name == "GL", "missing {name}");
    }
}

#[test]
fn phase_coverage_is_monotonic() {
    // More phases never reduce coverage (same fault sample).
    let core = PlasmaCore::build(PlasmaConfig::default());
    let opts = small_opts(1200);
    let a = flow::run_flow(&core, Phase::A, &opts);
    let b = flow::run_flow(&core, Phase::B, &opts);
    let c = flow::run_flow(&core, Phase::C, &opts);
    assert!(b.coverage.overall_pct >= a.coverage.overall_pct - 1e-9);
    assert!(c.coverage.overall_pct >= b.coverage.overall_pct - 1e-9);
    // Phase B specifically lifts the memory controller (its purpose).
    let mctrl_a = a.coverage.component("MCTRL").unwrap().coverage_pct;
    let mctrl_b = b.coverage.component("MCTRL").unwrap().coverage_pct;
    assert!(
        mctrl_b > mctrl_a + 5.0,
        "Phase B must lift MCTRL: {mctrl_a} -> {mctrl_b}"
    );
}

#[test]
fn headline_coverage_reproduced_on_sample() {
    // The paper's headline: > 92% overall after Phase A+B. On a sampled
    // fault list we allow the sampling error margin.
    let core = PlasmaCore::build(PlasmaConfig::default());
    let opts = small_opts(4000);
    let b = flow::run_flow(&core, Phase::B, &opts);
    assert!(
        b.coverage.overall_pct > 90.0,
        "Phase A+B coverage {:.2}%\n{}",
        b.coverage.overall_pct,
        b.coverage.to_table()
    );
    // Functional components all in the 90s (Phase A targets).
    for name in ["RegF", "MulD", "ALU", "BSH"] {
        let c = b.coverage.component(name).unwrap();
        assert!(c.coverage_pct > 88.0, "{name} at {:.2}%", c.coverage_pct);
    }
    // Program size and cycles in the paper's order of magnitude.
    assert!(b.selftest.size_words() < 1500);
    assert!(b.golden_cycles < 15_000);
}

#[test]
fn self_test_detects_nothing_on_a_healthy_core() {
    // Lane 0 semantics: a campaign over an *empty* fault list must find
    // nothing and a healthy machine must match itself.
    let core = PlasmaCore::build(PlasmaConfig::default());
    let full = fault::model::FaultList::extract(core.netlist()).collapsed(core.netlist());
    let none = full.filter(|_, _| false);
    let st = sbst::phases::build_program(Phase::A).unwrap();
    let golden = flow::golden_cycles(&st);
    let (hooks, engine) = (
        fault::campaign::CampaignHooks::none(),
        FlowOptions::default().engine,
    );
    let budget = golden + 64;
    let res = flow::run_campaign_of_engine(&core, &st.program, &none, budget, 0, &hooks, engine);
    assert_eq!(res.detections.len(), 0);
}

#[test]
fn detection_times_are_plausible() {
    // Most detected faults should be caught well before the end of the
    // program — fault dropping relies on it.
    let core = PlasmaCore::build(PlasmaConfig::default());
    let opts = small_opts(1500);
    let report = flow::run_flow(&core, Phase::B, &opts);
    let golden = report.golden_cycles;
    let detected: Vec<u64> = report
        .campaign
        .detections
        .iter()
        .filter_map(|d| match d {
            fault::campaign::Detection::DetectedAt(c) => Some(*c),
            _ => None,
        })
        .collect();
    assert!(!detected.is_empty());
    let early = detected.iter().filter(|&&c| c < golden / 2).count();
    assert!(
        early * 2 > detected.len(),
        "most detections should land in the first half of the program"
    );
    let report2 = CoverageReport::from_campaign(core.netlist(), &report.campaign);
    assert_eq!(report2.overall_pct, report.coverage.overall_pct);
}

#[test]
fn technology_restyle_keeps_coverage() {
    // Section 4: "very similar fault coverage results when the processor
    // was synthesized in a different technology library".
    use netlist::synth::TechStyle;
    let opts = small_opts(2500);
    let a = flow::run_flow(
        &PlasmaCore::build(PlasmaConfig {
            style: TechStyle::RippleMux,
        }),
        Phase::B,
        &opts,
    );
    let b = flow::run_flow(
        &PlasmaCore::build(PlasmaConfig {
            style: TechStyle::ClaAoi,
        }),
        Phase::B,
        &opts,
    );
    let delta = (a.coverage.overall_pct - b.coverage.overall_pct).abs();
    assert!(
        delta < 4.0,
        "styles diverge: {:.2}% vs {:.2}%",
        a.coverage.overall_pct,
        b.coverage.overall_pct
    );
}
