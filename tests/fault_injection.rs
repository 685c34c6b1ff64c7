//! Fault-injection stories: break one specific, named piece of the
//! processor and verify the self-test catches it — and catches it in the
//! program region that targets that component. This is the methodology's
//! promise at the single-fault granularity.

use fault::campaign::{CampaignResult, Detection};
use fault::model::{Fault, FaultList, FaultSite, Polarity};
use netlist::GateKind;
use obs::Telemetry;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow;
use sbst::phases::{build_program, Phase, SelfTestProgram};

/// Grade `st` over `faults` on the default width and thread count.
fn grade(core: &PlasmaCore, st: &SelfTestProgram, faults: &FaultList) -> CampaignResult {
    let budget = flow::golden_cycles(st) + 64;
    let (hooks, engine) = (Telemetry::none(), flow::FlowOptions::default().engine);
    flow::run_campaign_of_engine(core, &st.program, faults, budget, 0, &hooks, engine)
}

/// Run the Phase B program against exactly one fault; return its
/// detection cycle (None = escaped).
fn detect_one(core: &PlasmaCore, fault: Fault, comp: &str) -> Option<u64> {
    let full = FaultList::extract(core.netlist());
    let cid = core.netlist().component_by_name(comp).unwrap();
    let single = full.filter(|f, c| f == fault && c == cid);
    assert_eq!(single.len(), 1, "fault must exist in {comp}");
    let st = build_program(Phase::B).unwrap();
    let res = grade(core, &st, &single);
    match res.detections[0] {
        Detection::DetectedAt(c) => Some(c),
        Detection::Undetected => None,
    }
}

/// Pick the `n`-th gate of `kind` inside component `comp` and return a
/// stem fault on its output.
fn stem_fault_in(
    core: &PlasmaCore,
    comp: &str,
    kind: GateKind,
    n: usize,
    polarity: Polarity,
) -> Fault {
    let nl = core.netlist();
    let cid = nl.component_by_name(comp).unwrap();
    let g = nl
        .gates()
        .iter()
        .enumerate()
        .filter(|(i, g)| nl.gate_component(*i) == cid && g.kind == kind)
        .nth(n)
        .unwrap_or_else(|| panic!("no {kind:?} #{n} in {comp}"))
        .1;
    Fault {
        site: FaultSite::Stem(g.output),
        polarity,
    }
}

#[test]
fn broken_alu_carry_is_caught() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    // An AND gate in the ALU's carry chain, stuck so carries are lost.
    let f = stem_fault_in(&core, "ALU", GateKind::And2, 10, Polarity::StuckAt0);
    let cycle = detect_one(&core, f, "ALU");
    assert!(cycle.is_some(), "ALU carry fault escaped");
}

#[test]
fn broken_regfile_cell_is_caught_early() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    // A register-file hold mux stuck: one cell can no longer hold.
    let f = stem_fault_in(&core, "RegF", GateKind::Mux2, 200, Polarity::StuckAt1);
    let cycle = detect_one(&core, f, "RegF").expect("regfile fault escaped");
    // The register-file march is the *first* routine; a cell fault must
    // fall inside it (the march ends within the first ~1500 cycles).
    assert!(
        cycle < 2000,
        "regfile fault detected only at cycle {cycle} — outside the march"
    );
}

#[test]
fn broken_shifter_stage_is_caught() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let f = stem_fault_in(&core, "BSH", GateKind::Mux2, 77, Polarity::StuckAt0);
    assert!(
        detect_one(&core, f, "BSH").is_some(),
        "shifter mux fault escaped"
    );
}

#[test]
fn broken_muldiv_adder_is_caught() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let f = stem_fault_in(&core, "MulD", GateKind::Xor2, 12, Polarity::StuckAt1);
    assert!(
        detect_one(&core, f, "MulD").is_some(),
        "multiplier adder fault escaped"
    );
}

#[test]
fn broken_load_aligner_is_caught_by_phase_b_only() {
    // A fault in the byte-select path of the load aligner: Phase A's
    // word-only loads may miss it; Phase B's per-alignment loads must
    // catch it. This is the Phase B selection argument in miniature.
    let core = PlasmaCore::build(PlasmaConfig::default());
    let nl = core.netlist();
    let cid = nl.component_by_name("MCTRL").unwrap();
    let full = FaultList::extract(nl);
    let st_a = build_program(Phase::A).unwrap();
    let st_b = build_program(Phase::B).unwrap();
    // Gather MCTRL mux stem faults; batch them through both phases in one
    // campaign each (63 at a time is plenty here).
    let driver = nl.driver_gate();
    let muxes = full.filter(|f, c| {
        c == cid
            && matches!(f.site, FaultSite::Stem(n)
                if driver[n.index()] != u32::MAX
                    && nl.gates()[driver[n.index()] as usize].kind == GateKind::Mux2)
    });
    assert!(muxes.len() > 10, "MCTRL must contain mux faults");
    let ra = grade(&core, &st_a, &muxes);
    let rb = grade(&core, &st_b, &muxes);
    let found =
        (0..muxes.len()).any(|i| !ra.detections[i].is_detected() && rb.detections[i].is_detected());
    assert!(
        found,
        "expected at least one aligner fault that only Phase B catches"
    );
}
