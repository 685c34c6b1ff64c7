//! End-to-end determinism of parallel fault-simulation campaigns: the
//! multi-threaded runner must produce detections bit-identical to the
//! serial runner at every thread count, on both processor cores.
//!
//! The guarantee rests on batch independence — `run_batch` rebuilds the
//! simulator state from scratch (plus the lanes parked at the last
//! epoch boundary), so an outcome depends only on the injected faults
//! and the testbench stimulus, never on which worker ran the batch or in
//! what order — and on a schedule that depends only on the detections.

use fault::campaign;
use fault::model::FaultList;
use fault::EngineConfig;
use obs::Telemetry;
use sbst::flow::{self, FlowOptions};
use sbst::phases::{build_program, Phase};

#[test]
fn parwan_campaign_identical_across_thread_counts() {
    let core = parwan::ParwanCore::build();
    let faults = FaultList::extract(core.netlist()).collapsed(core.netlist());
    let test = parwan::sbst::deterministic_selftest();
    let (engine, hooks) = (EngineConfig::from_env(), Telemetry::none());
    let grade = |threads| parwan::sbst::grade(&core, &test, &faults, threads, engine, &hooks);
    let serial = grade(1);
    assert_eq!(serial.stats.threads, 1);
    // The first epoch's batch count follows the engine's lane width (the
    // width is resolved from `SBST_LANES`, so derive, don't assume);
    // regrouped survivors add batch runs.
    let first = campaign::batch_count_lanes(&faults, serial.stats.lanes as usize);
    let budget = parwan::sbst::golden_cycles(&test) + 32;
    assert_eq!(serial.stats.budget_cycles, first * budget);
    assert!(serial.stats.batches >= first);
    for threads in [2, 5, campaign::default_threads()] {
        let par = grade(threads);
        assert_eq!(
            par.detections, serial.detections,
            "{threads} threads changed the detections"
        );
        assert_eq!(par.stats.batches, serial.stats.batches);
        assert_eq!(par.stats.cycles_simulated, serial.stats.cycles_simulated);
        assert_eq!(par.stats.faults_dropped, serial.stats.faults_dropped);
        assert_eq!(par.coverage(), serial.coverage());
    }
}

#[test]
fn plasma_campaign_identical_serial_vs_parallel() {
    // A small fault sample keeps this fast while still spanning several
    // batches of the real self-test program on the real core — sized for
    // the default compiled engine's 256-lane batches.
    let core = plasma::PlasmaCore::build(plasma::PlasmaConfig::default());
    let opts = FlowOptions {
        fault_sample: Some(900),
        ..Default::default()
    };
    let selftest = build_program(Phase::A).expect("assembles");
    let golden = flow::golden_cycles(&selftest);
    let faults = flow::fault_list(&core, &opts);
    assert!(
        faults.len() > 2 * (opts.engine.lanes() - 1),
        "need 3+ batches"
    );
    let budget = golden + opts.cycle_margin;
    let grade = |threads, hooks: &Telemetry| {
        let program = &selftest.program;
        flow::run_campaign_of_engine(&core, program, &faults, budget, threads, hooks, opts.engine)
    };
    let serial = grade(1, &Telemetry::none());
    let par = grade(3, &Telemetry::none());
    assert_eq!(par.detections, serial.detections);
    assert_eq!(par.stats.batches, serial.stats.batches);
    assert_eq!(par.stats.cycles_simulated, serial.stats.cycles_simulated);
    assert_eq!(par.stats.threads, 3);

    // With observability hooks attached (JSONL tracing, plus the live
    // bus as a second sink), the parallel runner must still be
    // bit-identical — the hooks never touch simulation state.
    let path = std::env::temp_dir().join("sbst_parallel_campaign_trace.jsonl");
    let bus = obs::EventBus::new(4096);
    let hooks = Telemetry {
        tracer: obs::Tracer::to_path(&path).unwrap().with_bus(bus.clone()),
        ..Telemetry::none()
    };
    let traced = grade(3, &hooks);
    assert_eq!(traced.detections, serial.detections);
    assert_eq!(traced.stats.latency, serial.stats.latency);
    // The trace is valid JSONL: campaign_begin, one event per batch,
    // campaign_end — every line parseable.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2 + serial.stats.batches as usize);
    for l in &lines {
        serde_json::from_str(l).unwrap_or_else(|e| panic!("bad trace line {l}: {e:?}"));
    }
    assert!(lines[0].contains("\"ev\":\"campaign_begin\""));
    assert!(lines.last().unwrap().contains("\"ev\":\"campaign_end\""));
    // The bus carried the same events: kinds and fields as multisets,
    // without either sink's envelope (`us`/`tid`, `seq`/`ms`) and the
    // wall-clock `dur_us`.
    let fields = |line: &str| {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        let kept: Vec<String> = v
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "us" | "tid" | "seq" | "ms" | "dur_us"))
            .map(|(k, v)| format!("{k}={}", serde_json::to_string(v).unwrap()))
            .collect();
        kept.join(",")
    };
    let mut jsonl: Vec<String> = lines.iter().map(|l| fields(l)).collect();
    let mut frames: Vec<String> = bus
        .poll_after(0, std::time::Duration::ZERO)
        .iter()
        .map(|(_, f)| fields(f))
        .collect();
    jsonl.sort();
    frames.sort();
    assert_eq!(frames, jsonl, "the bus and the JSONL saw different events");
    std::fs::remove_file(&path).ok();
}

/// The full flow — including offline detection provenance and the
/// coverage timeline — must be reproducible across thread counts.
#[test]
fn provenance_identical_serial_vs_parallel() {
    let core = plasma::PlasmaCore::build(plasma::PlasmaConfig::default());
    let mut opts = FlowOptions {
        fault_sample: Some(300),
        timeline_stride: 1000,
        threads: 1,
        ..Default::default()
    };
    let serial = flow::run_flow(&core, Phase::A, &opts);
    opts.threads = 3;
    let par = flow::run_flow(&core, Phase::A, &opts);
    assert_eq!(serial.campaign.detections, par.campaign.detections);
    assert_eq!(serial.provenance.to_table(), par.provenance.to_table());
    assert_eq!(
        serial.provenance.total_detected(),
        par.provenance.total_detected()
    );
    assert_eq!(
        serial.timeline.as_ref().unwrap().overall,
        par.timeline.as_ref().unwrap().overall
    );
}
