//! Forensics determinism across lane widths and thread counts.
//!
//! The forensics report is pure post-processing: the flow reads
//! activation evidence off one fault-free run at 64 lanes, and the
//! report's JSON carries no timing/width/thread fields. So
//! `FORENSICS.json` must be **byte-identical** to a replay of the same
//! campaign result on a 512-lane simulator, at 64 and 256 configured
//! campaign lanes × {1, 4} threads — and turning forensics on must
//! leave the campaign's detection vector untouched.

use fault::campaign::Detection;
use fault::EngineConfig;
use plasma::testbench::self_test_bench;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow::{run_flow, FlowOptions, FlowReport, CYCLE_MARGIN, MEM_BYTES};
use sbst::phases::Phase;

fn run(core: &PlasmaCore, engine: EngineConfig, threads: usize, forensics: bool) -> FlowReport {
    let opts = FlowOptions {
        fault_sample: Some(400),
        threads,
        engine,
        forensics,
        ..Default::default()
    };
    run_flow(core, Phase::A, &opts)
}

fn to_json(report: &fault::forensics::ForensicsReport) -> String {
    serde_json::to_string_pretty(&report.to_json()).unwrap()
}

/// The reference: `forensics::analyze` replaying `report`'s campaign
/// result on a 512-lane simulator.
fn wide_forensics_json(core: &PlasmaCore, report: &FlowReport) -> String {
    let segments = core.segments().map(<[u32]>::to_vec);
    let mut sim = EngineConfig::compiled(512).sim(core.netlist(), &segments);
    let budget = report.golden_cycles + CYCLE_MARGIN;
    let mut tb = self_test_bench(core, &report.selftest.program, MEM_BYTES, budget);
    to_json(&fault::forensics::analyze(
        core.netlist(),
        &report.campaign,
        core.observed_outputs(),
        &mut sim,
        &mut tb,
    ))
}

#[test]
fn forensics_json_matches_a_512_lane_replay_at_every_width_and_thread_count() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let mut reference: Option<(Vec<Detection>, String)> = None;
    for (lanes, threads) in [(64usize, 1usize), (64, 4), (256, 1), (256, 4)] {
        let report = run(&core, EngineConfig::compiled(lanes), threads, true);
        let f = report.forensics.as_ref().expect("forensics requested");
        // Sanity: the report triaged real escapes and split coverage.
        assert!(!f.escapes.is_empty(), "sampled campaign should have escapes");
        assert!(f.testable_coverage() >= f.raw_coverage());
        let (ref_det, ref_json) = reference.get_or_insert_with(|| {
            (report.campaign.detections.clone(), wide_forensics_json(&core, &report))
        });
        assert_eq!(
            ref_det, &report.campaign.detections,
            "detections differ at {lanes} lanes, {threads} threads"
        );
        assert_eq!(
            *ref_json,
            to_json(f),
            "FORENSICS.json differs from the 512-lane replay at {lanes} lanes, {threads} threads"
        );
    }
}

#[test]
fn forensics_never_perturbs_the_campaign() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let with = run(&core, EngineConfig::compiled(256), 2, true);
    let without = run(&core, EngineConfig::compiled(256), 2, false);
    assert!(without.forensics.is_none());
    assert_eq!(
        with.campaign.detections, without.campaign.detections,
        "forensics on/off changed detection results"
    );
    // Every escape is in exactly one bucket, and the bucket totals
    // partition the escape set.
    let f = with.forensics.as_ref().unwrap();
    let totals = f.bucket_totals();
    assert_eq!(
        totals.iter().map(|t| t.1).sum::<usize>(),
        f.escapes.len(),
        "buckets do not partition the escapes"
    );
    let undetected = with
        .campaign
        .detections
        .iter()
        .filter(|d| !d.is_detected())
        .count();
    assert_eq!(f.escapes.len(), undetected, "an escape is missing a record");
    // The attribution accounts for every weighted escape.
    let attr = with.escape_attribution.as_ref().unwrap();
    let escaped_weight: u64 = f.escapes.iter().map(|e| e.weight as u64).sum();
    assert_eq!(attr.total_weighted(), escaped_weight);
}
