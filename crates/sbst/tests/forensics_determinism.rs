//! Forensics determinism across engines and thread counts.
//!
//! The forensics report is pure post-processing: it replays activation
//! evidence on the interpreted engine regardless of what engine graded
//! the campaign, and its JSON carries no timing/engine/thread fields.
//! So `FORENSICS.json` must be **byte-identical** across thread counts
//! {1, 4} × engines {interp, compiled-256}, and at one lane word on both
//! engines (compiled-64 against interp) — and turning forensics on must
//! leave the campaign's detection vector untouched.

use fault::EngineConfig;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow::{run_flow, FlowOptions, FlowReport};
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

fn forensics_json(report: &FlowReport) -> String {
    let f = report.forensics.as_ref().expect("forensics requested");
    serde_json::to_string_pretty(&f.to_json()).unwrap()
}

#[test]
fn forensics_json_is_byte_identical_across_engines_and_threads() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let configs = [
        (EngineConfig::interp(), 1usize),
        (EngineConfig::interp(), 4),
        (EngineConfig::compiled(256), 1),
        (EngineConfig::compiled(256), 4),
        (EngineConfig::compiled(64), 2),
    ];
    let mut reference: Option<(String, Vec<fault::campaign::Detection>)> = None;
    for (engine, threads) in configs {
        let report = run(&core, engine, threads, true);
        let json = forensics_json(&report);
        // Sanity: the report triaged real escapes and split coverage.
        let f = report.forensics.as_ref().unwrap();
        assert!(!f.escapes.is_empty(), "sampled campaign should have escapes");
        assert!(f.testable_coverage() >= f.raw_coverage());
        match &reference {
            None => reference = Some((json, report.campaign.detections.clone())),
            Some((ref_json, ref_det)) => {
                assert_eq!(
                    ref_det, &report.campaign.detections,
                    "detections differ at engine={} threads={threads}",
                    report.campaign.stats.engine
                );
                assert_eq!(
                    ref_json, &json,
                    "FORENSICS.json differs at engine={} threads={threads}",
                    report.campaign.stats.engine
                );
            }
        }
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
