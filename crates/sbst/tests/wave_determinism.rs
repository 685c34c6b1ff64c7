//! Differential-dump determinism across campaign thread counts and
//! lane widths.
//!
//! Wave capture replays the chosen fault serially in a fresh 64-lane
//! simulator, so the VCD for a given fault must be byte-identical
//! whether the campaign that surfaced it ran on 1 thread or 4 — and to
//! a capture of the same fault on a 512-lane simulator.

use fault::campaign::Detection;
use fault::wave::{capture_fault, CapturedWave, WaveOptions};
use fault::EngineConfig;
use netlist::wave::Probe;
use obs::Telemetry;
use plasma::testbench::{capture_fault_wave, self_test_bench};
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow::{self, run_flow, FlowOptions, MEM_BYTES};
use sbst::phases::{build_program, Phase};

/// Run a small Phase A flow capturing the first escape, with `threads`
/// workers, writing VCDs under a caller-chosen directory. Returns the
/// raw bytes of the single wave artifact.
fn escape_wave_bytes(core: &PlasmaCore, threads: usize, dir: &std::path::Path) -> Vec<u8> {
    let opts = FlowOptions {
        fault_sample: Some(400),
        threads,
        wave: Some(fault::wave::WaveOptions {
            escapes: 1,
            out_dir: dir.to_path_buf(),
            ..Default::default()
        }),
        ..Default::default()
    };
    let report = run_flow(core, Phase::A, &opts);
    assert_eq!(
        report.waves.len(),
        1,
        "expected exactly one escape wave artifact"
    );
    let a = &report.waves[0];
    assert!(a.detected_at.is_none(), "an escape must be undetected");
    std::fs::read(&a.path).expect("read emitted VCD")
}

#[test]
fn escape_wave_is_byte_identical_across_thread_counts() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let base = std::env::temp_dir().join(format!("sbst-wave-det-{}", std::process::id()));
    let one = escape_wave_bytes(&core, 1, &base.join("t1"));
    let four = escape_wave_bytes(&core, 4, &base.join("t4"));
    assert_eq!(
        one, four,
        "escape VCD differs between --threads 1 and --threads 4"
    );

    // The artifact is a well-formed differential dump: header, all three
    // scopes, and at least one timestamped value change.
    let text = String::from_utf8(one).expect("VCD is ASCII");
    assert!(text.contains("$enddefinitions $end"));
    for scope in ["good", "faulty", "diff"] {
        assert!(
            text.contains(&format!("$scope module {scope} $end")),
            "missing scope `{scope}`"
        );
    }
    assert!(
        text.lines().any(|l| l.starts_with('#')),
        "no timestamps in VCD"
    );
    let _ = std::fs::remove_dir_all(&base);
}

fn vcd_bytes(wave: &CapturedWave, comment: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    wave.write_vcd(&mut buf, comment).expect("render VCD");
    buf
}

/// One detected fault and one escape, each captured by the production
/// helper (64 lanes) and on a 512-lane simulator through
/// `fault::wave::capture_fault`: the VCD bytes must match, and the
/// trigger must be the campaign's detection cycle.
#[test]
fn captures_match_across_widths() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let selftest = build_program(Phase::A).expect("phase program assembles");
    let budget = flow::golden_cycles(&selftest) + 64;
    let opts = FlowOptions {
        fault_sample: Some(400),
        ..Default::default()
    };
    let faults = flow::fault_list(&core, &opts);
    let result = flow::run_campaign_of_engine(
        &core,
        &selftest.program,
        &faults,
        budget,
        2,
        &Telemetry::none(),
        EngineConfig::default(),
    );
    let detected = result.detections.iter().position(|d| d.is_detected());
    let escape = result.detections.iter().position(|d| !d.is_detected());
    let wave = WaveOptions::default();
    for i in [detected, escape].map(|i| i.expect("the sample has detections and escapes")) {
        let f = faults.faults[i];
        let helper = capture_fault_wave(&core, &selftest.program, MEM_BYTES, budget, f, &wave)
            .expect("full probe");
        let segments = core.segments().map(<[u32]>::to_vec);
        let mut sim = EngineConfig::compiled(512).sim(core.netlist(), &segments);
        let mut tb = self_test_bench(&core, &selftest.program, MEM_BYTES, budget);
        let wide = capture_fault(&mut sim, &mut tb, Probe::full(core.netlist()), f, &wave);
        let expect = match result.detections[i] {
            Detection::DetectedAt(c) => Some(c),
            Detection::Undetected => None,
        };
        assert_eq!(
            helper.trigger,
            expect,
            "{}: trigger != campaign verdict",
            f.describe()
        );
        assert_eq!(
            vcd_bytes(&helper, &f.describe()),
            vcd_bytes(&wide, &f.describe()),
            "{}: the 64-lane VCD differs from the 512-lane capture",
            f.describe()
        );
    }
}
