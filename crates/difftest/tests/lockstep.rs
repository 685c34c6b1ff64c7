//! End-to-end tests of the lockstep differential-verification subsystem:
//! zero-divergence fuzzing on the healthy core, thread-count determinism,
//! and the full catch → localize → shrink → persist → replay pipeline on
//! an intentionally injected netlist fault.

use std::sync::OnceLock;

use difftest::corpus::{self, CorpusCase, CorpusFault, NetlistSig, ReplayOutcome};
use difftest::oracle::{OracleConfig, PlasmaOracle};
use difftest::parwan_oracle::{random_parwan_image, ParwanOracle};
use difftest::{fuzz_plasma, shrink, FuzzConfig};
use fault::model::{Fault, FaultList};
use mips::gen::{random_parts, GenConfig};
use obs::Telemetry;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow::MEM_BYTES;
use sbst::phases::{build_program, Phase};

fn core() -> &'static PlasmaCore {
    static CORE: OnceLock<PlasmaCore> = OnceLock::new();
    CORE.get_or_init(|| PlasmaCore::build(PlasmaConfig::default()))
}

fn small_gen() -> GenConfig {
    GenConfig {
        body_len: 40,
        ..GenConfig::default()
    }
}

/// Find a fault the given program detects, by probing the collapsed fault
/// list 63 lanes at a time (deterministic: list order decides).
fn find_detected_fault(oracle: &mut PlasmaOracle, parts: &mips::gen::ProgramParts) -> Fault {
    let list = FaultList::extract(core().netlist()).collapsed(core().netlist());
    let program = parts.to_program();
    for batch in list.faults.chunks(63) {
        let injections: Vec<(Fault, usize)> = batch
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, i + 1))
            .collect();
        let report = oracle.run(&program, &injections);
        assert!(report.divergence.is_none(), "healthy lane 0 must match ISS");
        if let Some((lane, _)) = report.first_faulty_divergence() {
            return batch[lane - 1];
        }
    }
    panic!("no detectable fault in the entire collapsed list");
}

#[test]
fn fuzz_runs_clean_with_coverage_feedback() {
    let cfg = FuzzConfig {
        seeds: 6,
        seed_start: 100,
        body_len: 60,
        threads: 2,
        wave: 3,
        feedback: true,
        oracle: OracleConfig::default(),
    };
    let report = fuzz_plasma(core(), &cfg, &Telemetry::none());
    assert_eq!(report.outcomes.len(), 6);
    for o in &report.outcomes {
        assert!(o.finished, "seed {} did not reach the end marker", o.seed);
        assert!(o.divergence.is_none(), "seed {} diverged", o.seed);
    }
    assert!(report.divergent_seeds().is_empty());
    // Attribution saw real work from several components.
    assert!(report.exercise.total() > 0);
    assert!(report.exercise.count("ALU") > 0);
    assert!(report.exercise.count("PCL") > 0);
    // Feedback re-weighted the second wave: outcomes of wave 2 carry
    // weights derived from wave 1, not the 10/20/10 defaults.
    let w0 = report.outcomes[0].weights;
    assert_eq!(w0, (10, 20, 10), "wave 1 runs with default weights");
}

#[test]
fn fuzz_is_bit_identical_across_thread_counts() {
    let mk = |threads: usize| FuzzConfig {
        seeds: 5,
        seed_start: 7,
        body_len: 40,
        threads,
        wave: 2,
        feedback: true,
        oracle: OracleConfig::default(),
    };
    let one = fuzz_plasma(core(), &mk(1), &Telemetry::none());
    let many = fuzz_plasma(core(), &mk(3), &Telemetry::none());
    assert_eq!(one, many, "fuzz results must not depend on thread count");
}

#[test]
fn injected_fault_is_caught_localized_shrunk_and_replayable() {
    let mut oracle = PlasmaOracle::new(core(), OracleConfig::default());
    let parts = random_parts(11, &small_gen());
    let fault = find_detected_fault(&mut oracle, &parts);

    // Caught and localized to its first divergent cycle.
    let report = oracle.run(&parts.to_program(), &[(fault, 1)]);
    let (lane, cycle) = report
        .first_faulty_divergence()
        .expect("the probed fault must still be detected alone");
    assert_eq!(lane, 1);
    assert_eq!(report.lane_first_div[1], Some(cycle));
    let golden = report.golden_cycles.expect("program terminates");
    assert!(
        cycle < golden + oracle.config().drain_cycles,
        "detection cycle {cycle} beyond budget (golden {golden})"
    );

    // Shrunk to a minimal reproducer.
    let outcome = shrink(&mut oracle, &parts, &[(fault, 1)]);
    assert!(
        outcome.body_instrs <= 10,
        "shrunk body still has {} instructions",
        outcome.body_instrs
    );
    assert!(outcome.report.diverged() && outcome.report.golden_cycles.is_some());
    let min_cycle = outcome
        .report
        .first_faulty_divergence()
        .map(|(_, c)| c)
        .expect("minimized program still detects the fault");

    // Persisted into a corpus directory and replayed bit-exactly.
    let case = CorpusCase {
        name: format!("fault-{}", fault.describe().replace(['/', ' '], "-")),
        seed: 11,
        data_base: small_gen().data_base,
        data_size: small_gen().data_size,
        body: outcome.parts.body.clone(),
        fault: Some(CorpusFault {
            fault,
            lane: 1,
            describe: fault.describe(),
            sig: NetlistSig::of(core()),
        }),
        expect_divergence: true,
        expect_cycle: Some(min_cycle),
    };
    let dir = std::env::temp_dir().join(format!("difftest-corpus-{}", std::process::id()));
    let path = corpus::save(&case, &dir).unwrap();
    let loaded = corpus::load_dir(&dir).unwrap();
    assert_eq!(loaded.len(), 1);
    assert_eq!(loaded[0].0, path);
    assert_eq!(loaded[0].1, case);
    assert_eq!(
        corpus::replay(&loaded[0].1, core(), &mut oracle),
        ReplayOutcome::Pass
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lane0_fault_yields_structured_divergence_report() {
    let mut oracle = PlasmaOracle::new(core(), OracleConfig::default());
    let parts = random_parts(23, &small_gen());
    let fault = find_detected_fault(&mut oracle, &parts);

    // The same fault injected into the *reference* lane makes the netlist
    // itself diverge from the ISS — the functional-bug reporting path.
    let report = oracle.run(&parts.to_program(), &[(fault, 0)]);
    let d = report.divergence.expect("lane-0 fault must diverge from ISS");
    assert_eq!(report.cycles, d.cycle + 1, "run stops at first divergence");
    assert!(!d.window.is_empty());
    assert!(d.window.iter().any(|l| l.current && l.addr == d.pc));
    let text = d.to_report();
    assert!(text.contains("divergence at cycle"), "{text}");
    assert!(text.contains("iss :") && text.contains("gate:"), "{text}");
}

#[test]
fn parwan_pair_runs_lockstep_and_detects_faults() {
    let core = parwan::ParwanCore::build();
    let mut oracle = ParwanOracle::new(&core);
    for seed in 1..=3u64 {
        let img = random_parwan_image(seed);
        let report = oracle.run(&img, &[], 600);
        assert!(report.clean(), "seed {seed}: {:?}", report.divergence);
        assert_eq!(report.cycles, 600);
    }

    // Probe for a detected fault, then confirm localization.
    let list = FaultList::extract(core.netlist()).collapsed(core.netlist());
    let img = random_parwan_image(1);
    let mut found = None;
    for batch in list.faults.chunks(63) {
        let injections: Vec<(Fault, usize)> = batch
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, i + 1))
            .collect();
        let report = oracle.run(&img, &injections, 600);
        assert!(report.divergence.is_none());
        if let Some(&cycle) = report.lane_first_div[1..]
            .iter()
            .flatten()
            .min()
        {
            let lane = report
                .lane_first_div
                .iter()
                .position(|d| *d == Some(cycle) )
                .unwrap();
            found = Some((batch[lane - 1], cycle));
            break;
        }
    }
    let (fault, _) = found.expect("some parwan fault is detectable");
    let report = oracle.run(&img, &[(fault, 5)], 600);
    assert!(report.lane_first_div[5].is_some(), "fault must be detected in lane 5");
}

/// The oracle's wave path: a fault-free `run_wave` must agree with
/// `run`, and an injected-fault capture must trigger exactly at the
/// lane's first divergence with visible corruption in the diff rows —
/// all byte-deterministically.
#[test]
fn oracle_wave_capture_matches_divergence_localization() {
    let mut oracle = PlasmaOracle::new(core(), OracleConfig::default());
    let parts = random_parts(4242, &small_gen());
    let program = parts.to_program();

    // Fault-free: attaching a recorder must not change the verdict.
    let plain = oracle.run(&program, &[]);
    assert!(plain.clean(), "{:?}", plain.divergence);
    let probe = netlist::wave::Probe::from_spec(core().netlist(), &["mem_*".to_string()]).unwrap();
    let wopts = fault::wave::WaveOptions::default();
    let mut cap = fault::wave::WaveCapture::new(probe.clone(), &wopts);
    let recorded = oracle.run_wave(&program, &[], &mut cap, 0);
    assert_eq!(recorded.golden_cycles, plain.golden_cycles);
    assert!(recorded.clean());
    let wave = cap.finish();
    assert_eq!(wave.trigger, None, "clean run must not trigger");
    assert!(wave.corrupt_cycles().is_empty(), "faulty_lane 0 diffs against itself");

    // Injected fault: trigger == first faulty divergence, corruption visible.
    let fault = find_detected_fault(&mut oracle, &parts);
    let faulty = oracle.run(&program, &[(fault, 1)]);
    let (lane, cycle) = faulty.first_faulty_divergence().expect("fault must be detected");
    assert_eq!(lane, 1);

    let render = |oracle: &mut PlasmaOracle| {
        let mut cap = fault::wave::WaveCapture::new(probe.clone(), &wopts);
        let rep = oracle.run_wave(&program, &[(fault, 1)], &mut cap, 1);
        assert_eq!(rep.lane_first_div[1], Some(cycle), "wave run relocated the detection");
        let wave = cap.finish();
        assert_eq!(wave.trigger, Some(cycle));
        assert!(!wave.corrupt_cycles().is_empty(), "no corruption in diff rows");
        let mut buf = Vec::new();
        wave.write_vcd(&mut buf, &fault.describe()).unwrap();
        buf
    };
    let a = render(&mut oracle);
    let b = render(&mut oracle);
    assert_eq!(a, b, "oracle wave capture is not byte-deterministic");
    let text = String::from_utf8(a).unwrap();
    for scope in ["good", "faulty", "diff"] {
        assert!(text.contains(&format!("$scope module {scope} $end")), "missing {scope} scope");
    }
}

/// The faults whose detection depends on the store-cycle read order
/// (`PLASMA_READ_ORDER` in `tests/scalar_oracle.rs`, where the campaign
/// bench returns the updated word), and where the oracle detects them
/// within 1,024 cycles of the Phase A+B self-test when its bus returns
/// the old word, as `Memory::access` does: four escape and the other
/// three move.
const OLD_WORD_READ_ORDER: [(&str, Option<u64>); 7] = [
    ("g168/pin0 sa1", Some(533)),
    ("g318/pin0 sa1", None),
    ("g1002/pin0 sa1", None),
    ("g1026/pin0 sa1", None),
    ("g1110/pin0 sa1", None),
    ("g6056/pin0 sa1", Some(313)),
    ("g6070/pin0 sa1", Some(188)),
];

/// The oracle's bus returns the old word on a store cycle: the
/// read-order faults in lanes 1–7 diverge where the old-word order
/// detects them, while lane 0 still matches the ISS.
#[test]
fn oracle_returns_the_old_word_on_a_store_cycle() {
    let nl = core().netlist();
    let list = FaultList::extract(nl).collapsed(nl);
    let injections: Vec<(Fault, usize)> = OLD_WORD_READ_ORDER
        .iter()
        .enumerate()
        .map(|(i, &(id, _))| {
            let f = list.faults.iter().find(|f| f.describe() == id);
            (*f.expect("read-order fault in the list"), i + 1)
        })
        .collect();
    let program = build_program(Phase::B)
        .expect("Phase A+B assembles")
        .program;
    let cfg = OracleConfig {
        mem_bytes: MEM_BYTES,
        max_cycles: 1024,
        ..OracleConfig::default()
    };
    let report = PlasmaOracle::new(core(), cfg).run(&program, &injections);
    assert!(report.divergence.is_none(), "lane 0 must match the ISS");
    assert_eq!(report.cycles, 1024);
    for (i, &(id, cycle)) in OLD_WORD_READ_ORDER.iter().enumerate() {
        assert_eq!(report.lane_first_div[i + 1], cycle, "{id}");
    }
    assert!(report.lane_first_div[8..].iter().all(Option::is_none));
}
