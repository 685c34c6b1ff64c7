//! Survivor compaction must not change a single detection.
//!
//! The campaign runner advances batches in epochs that end at doubling
//! cycle boundaries and regroups the undetected faults of every batch
//! into fewer, full batches, moving each survivor's flip-flops and
//! memory overlay to its new lane. The reference here shares none of
//! that: each 63-fault slice of the list is graded as a list of its own
//! at 64 lanes, which is one batch that runs straight to the budget and
//! never regroups. Detections must match the merged slices exactly, on
//! both engines, at every width and thread count, and the schedule
//! (batch runs, simulated cycles) must not depend on the thread count.
//!
//! The forensics evidence pass simulates no faulty machine: it reads
//! both evidence cycles off one fault-free run. Its reference here does
//! simulate them, through the public `LaneSim` and `Testbench` calls
//! alone: each slice of at most 63 testable escapes runs in lanes 1..63
//! of one batch to the budget, never regrouped, and every escape's
//! first-excited and first-propagated cycles must match.

use std::sync::Arc;

use proptest::prelude::*;

use fault::campaign::{self, CampaignResult, CampaignStats, Detection, Testbench, VectorBench};
use fault::forensics::{self, Bucket, ForensicsReport};
use fault::model::{Fault, FaultList, FaultSite, Polarity};
use fault::sim::{LaneSim, ParallelSim};
use fault::wide::WideSim;
use fault::EngineConfig;
use netlist::{Net, Netlist, NetlistBuilder};
use obs::Telemetry;
use plasma::testbench::SelfTestBench;
use plasma::PlasmaCore;
use sbst::flow::{self, FlowOptions, MEM_BYTES};

/// A random sequential netlist with registered feedback: a state
/// register rotates through XORs with random logic of itself and the
/// inputs, so a corrupted bit keeps circulating, and every output shows
/// a state bit or random logic only while a random conjunction of 4–8
/// input bits holds.
/// A fault can therefore corrupt the state early and surface hundreds
/// of cycles later — after several epoch boundaries.
fn feedback_netlist(seed: u64) -> Netlist {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
        s
    };
    let mut b = NetlistBuilder::new("feedback");
    let a = b.inputs("a", 9);
    let c = b.inputs("b", 9);
    let width = 5 + (next() % 6) as usize;
    let (q, slots) = b.dff_word_later(width, next() & ((1 << width) - 1));
    let mut pool: Vec<Net> = a.iter().chain(&c).chain(&q).copied().collect();
    for _ in 0..(10 + next() % 30) {
        let x = pool[(next() % pool.len() as u64) as usize];
        let y = pool[(next() % pool.len() as u64) as usize];
        let g = match next() % 6 {
            0 => b.and2(x, y),
            1 => b.or2(x, y),
            2 => b.xor2(x, y),
            3 => b.nand2(x, y),
            4 => b.not(x),
            _ => {
                let z = pool[(next() % pool.len() as u64) as usize];
                b.mux2(x, y, z)
            }
        };
        pool.push(g);
    }
    let d: Vec<Net> = (0..width)
        .map(|i| {
            let g = pool[(next() % pool.len() as u64) as usize];
            b.xor2(q[(i + 1) % width], g)
        })
        .collect();
    b.dff_word_set(slots, &d);
    let inputs: Vec<Net> = a.iter().chain(&c).copied().collect();
    let outs: Vec<Net> = (0..3 + next() % 4)
        .map(|_| {
            let mut en = inputs[(next() % inputs.len() as u64) as usize];
            for _ in 0..3 + next() % 5 {
                let x = inputs[(next() % inputs.len() as u64) as usize];
                en = b.and2(en, x);
            }
            let shown = if next() % 2 == 0 {
                q[(next() % width as u64) as usize]
            } else {
                pool[(next() % pool.len() as u64) as usize]
            };
            b.and2(en, shown)
        })
        .collect();
    b.outputs("out", &outs);
    b.finish().expect("feedback netlist is structurally valid")
}

/// `cycles` random vectors driving both 9-bit inputs every cycle.
fn random_vectors(seed: u64, cycles: usize) -> Vec<Vec<(&'static str, u64)>> {
    let mut s = seed | 1;
    (0..cycles)
        .map(|_| {
            s ^= s >> 13;
            s ^= s << 7;
            s ^= s >> 17;
            vec![("a", s & 0x1FF), ("b", (s >> 9) & 0x1FF)]
        })
        .collect()
}

/// `list` repeated `times` times. A repeated fault is graded on its own
/// in each of its lanes, so repeats multiply the batches that survive
/// each boundary without growing the circuit.
fn repeated(list: &FaultList, times: usize) -> FaultList {
    FaultList {
        faults: list.faults.repeat(times),
        component: list.component.repeat(times),
        weight: list.weight.repeat(times),
        total_uncollapsed: list.total_uncollapsed * times,
    }
}

/// The reference: every `chunk`-fault slice of `faults` graded as a
/// list of its own (one batch, no regrouping), detections concatenated.
fn per_slice(
    faults: &FaultList,
    chunk: usize,
    grade: impl Fn(&FaultList) -> CampaignResult,
) -> Vec<Detection> {
    let mut out = Vec::with_capacity(faults.len());
    for lo in (0..faults.len()).step_by(chunk) {
        let res = grade(&faults.slice(lo, (lo + chunk).min(faults.len())));
        assert_eq!(res.stats.batches, 1, "a slice must run as one batch");
        out.extend(res.detections);
    }
    out
}

/// Faults still undetected after `cycle` cycles.
fn alive_after(detections: &[Detection], cycle: u64) -> usize {
    detections
        .iter()
        .filter(|d| match d {
            Detection::DetectedAt(c) => *c >= cycle,
            Detection::Undetected => true,
        })
        .count()
}

/// The stats invariants that hold for any schedule: the drop-free
/// budget keeps the first epoch's geometry, every batch run is counted,
/// and the lane-cycles spent lie between the useful ones and what every
/// batch at the configured width would have spent.
fn assert_schedule_invariants(res: &CampaignResult, budget: u64) {
    let s = &res.stats;
    let first = campaign::batch_count_lanes(&res.faults, s.lanes as usize);
    assert_eq!(s.budget_cycles, first * budget);
    assert!(
        s.batches >= first,
        "{} batch runs < {first} batches",
        s.batches
    );
    assert_eq!(s.batches, s.workers.iter().map(|w| w.batches).sum::<u64>());
    assert!(s.cycles_simulated <= s.budget_cycles);
    assert_eq!(s.faults, res.faults.len() as u64);
    assert!(s.lane_cycles_useful <= s.lane_cycles_spent);
    assert!(s.lane_cycles_spent <= s.cycles_simulated * s.lanes);
    assert_eq!(
        s.lane_cycles_spent,
        s.workers.iter().map(|w| w.lane_cycles).sum::<u64>()
    );
}

/// Grade `faults` on `proto` at 1, 2 and 4 threads: every run must
/// reproduce `reference`, regroup survivors at least three times, and
/// follow one schedule.
fn assert_compacts_exactly<S: LaneSim>(
    proto: &S,
    nl: &Netlist,
    vectors: &[Vec<(&str, u64)>],
    faults: &FaultList,
    reference: &[Detection],
) {
    let bench = || VectorBench::new(nl, vectors);
    let lanes = proto.lanes();
    // The progress ticker's counters — faults resolved against faults
    // taken on — end at 100%.
    let registry = obs::MetricRegistry::new();
    let hooks = Telemetry {
        metrics: Some(registry.clone()),
        ..Telemetry::none()
    };
    let serial = campaign::run(proto, faults, bench, 1, &hooks);
    let count = |name| registry.counter(name, "", &[]).get();
    let total = faults.len() as u64;
    assert_eq!(count("sbst_faults_resolved_total"), total);
    assert_eq!(count("sbst_faults_total"), total);
    let hooks = Telemetry::none();
    assert_eq!(
        serial.detections,
        reference,
        "{} at {lanes} lanes",
        proto.engine()
    );
    assert_eq!(serial.stats.lanes, lanes as u64);
    assert!(
        serial.stats.batches >= campaign::batch_count_lanes(faults, lanes) + 3,
        "{lanes} lanes: survivors never regrouped"
    );
    assert_schedule_invariants(&serial, vectors.len() as u64);
    for threads in [2usize, 4] {
        let par = campaign::run(proto, faults, bench, threads, &hooks);
        assert_eq!(
            par.detections, reference,
            "{lanes} lanes, {threads} threads"
        );
        assert_eq!(par.stats.batches, serial.stats.batches);
        assert_eq!(par.stats.cycles_simulated, serial.stats.cycles_simulated);
        assert_eq!(par.stats.lane_cycles_spent, serial.stats.lane_cycles_spent);
        assert_schedule_invariants(&par, vectors.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On random feedback circuits under 640 random vectors, with faults
    /// detected after the first regroup and at least three batches of
    /// survivors past cycle 512 at every width, the compacting runner
    /// reproduces the merged per-slice detections on both engines at
    /// 64–512 lanes and 1, 2 and 4 threads, with one schedule per engine
    /// and width.
    #[test]
    fn compaction_matches_per_slice_runs(seed in any::<u64>()) {
        let nl = feedback_netlist(seed);
        let vectors = random_vectors(seed ^ 0x5EED, 640);
        let base = FaultList::extract(&nl).collapsed(&nl);
        let bench = || VectorBench::new(&nl, &vectors);
        let hooks = Telemetry::none();
        let interp = |list: &FaultList| {
            campaign::run(&ParallelSim::new(&nl), list, bench, 1, &hooks)
        };
        let probe = per_slice(&base, 63, interp);
        let late = alive_after(&probe, 512);
        let regrouped_detections = alive_after(&probe, 128) - alive_after(&probe, 640);
        if late == 0 || regrouped_detections == 0 {
            // Nothing to regroup past 512, or nothing detected after
            // the first regroup: a case that checks no moved state.
            return Ok(());
        }
        let faults = repeated(&base, (3 * 511usize).div_ceil(late));
        let reference = per_slice(&faults, 63, interp);
        prop_assert!(alive_after(&reference, 512) > 2 * 511);

        assert_compacts_exactly(&ParallelSim::new(&nl), &nl, &vectors, &faults, &reference);
        let kernel = fault::kernel::compile_cached(&nl, &[nl.topo_order().to_vec()]);
        for lane_words in [1usize, 2, 4, 8] {
            let proto = WideSim::new(Arc::clone(&kernel), lane_words);
            assert_compacts_exactly(&proto, &nl, &vectors, &faults, &reference);
        }
    }
}

/// `faults` as a finished campaign in which every fault escaped.
fn all_escaped(faults: &FaultList) -> CampaignResult {
    CampaignResult {
        faults: faults.clone(),
        detections: vec![Detection::Undetected; faults.len()],
        stats: CampaignStats::default(),
    }
}

/// One escape's evidence: its first-excited and first-propagated
/// cycles.
type Evidence = (Option<u64>, Option<u64>);

/// The faulty-lane reference: each slice of at most 63 `faults` runs in
/// lanes 1..63 of `sim` through `tb` to the budget, lane 0 fault free,
/// never regrouped. A fault's first-excited cycle is the first at which
/// lane 0 holds its site at the exciting value, its first-propagated
/// cycle the first at which its lane differs from lane 0 on an
/// effect-origin net, both sampled after the step.
fn faulty_lane_evidence<S: LaneSim, T: Testbench<S>>(
    nl: &Netlist,
    sim: &mut S,
    tb: &mut T,
    faults: &[Fault],
) -> Vec<Evidence> {
    let mut out = Vec::with_capacity(faults.len());
    let (mut step_diff, mut diff) = (vec![0; sim.lane_words()], vec![0; sim.lane_words()]);
    for slice in faults.chunks(63) {
        sim.clear_faults();
        for (k, &f) in slice.iter().enumerate() {
            sim.inject(f, k + 1);
        }
        sim.reset_state();
        tb.begin(sim);
        let sites: Vec<Net> = slice.iter().map(|f| forensics::site_net(nl, f.site)).collect();
        let origins: Vec<Vec<Net>> = slice
            .iter()
            .map(|f| forensics::effect_origin(nl, f.site))
            .collect();
        let mut evidence: Vec<Evidence> = vec![(None, None); slice.len()];
        for cycle in 0..tb.cycles() {
            step_diff.fill(0);
            tb.step(sim, cycle, &mut step_diff);
            for (k, f) in slice.iter().enumerate() {
                let (excited, propagated) = &mut evidence[k];
                let excite = f.polarity == Polarity::StuckAt0;
                if excited.is_none() && (sim.net_lanes_word(sites[k], 0) & 1 == 1) == excite {
                    *excited = Some(cycle);
                }
                if propagated.is_none() {
                    diff.fill(0);
                    sim.diff_vs_lane0(&origins[k], &mut diff);
                    if (diff[0] >> (k + 1)) & 1 == 1 {
                        *propagated = Some(cycle);
                    }
                }
            }
        }
        out.extend(evidence);
    }
    out
}

/// `report`'s testable escapes and their evidence, in report order.
fn testable_evidence(report: &ForensicsReport) -> (Vec<Fault>, Vec<Evidence>) {
    report
        .escapes
        .iter()
        .filter(|e| e.bucket != Bucket::Untestable)
        .map(|e| (e.fault, (e.first_excited, e.first_propagated)))
        .unzip()
}

/// Whether every untestable escape of `report` carries no evidence.
fn untestable_carry_none(report: &ForensicsReport) -> bool {
    report
        .in_bucket(Bucket::Untestable)
        .all(|e| e.first_excited.is_none() && e.first_propagated.is_none())
}

/// Every output net of `nl`: what a [`VectorBench`] observes.
fn output_nets(nl: &Netlist) -> Vec<Net> {
    nl.ports()
        .filter(|(_, d, _)| matches!(d, netlist::PortDir::Output))
        .flat_map(|(_, _, nets)| nets.iter().copied())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On random feedback circuits under 640 random vectors, with every
    /// collapsed fault graded as an escape, the evidence pass gives each
    /// testable escape the first-excited and first-propagated cycles of
    /// the faulty-lane reference, on both engines at 64 lanes; a state
    /// bit a fault corrupts can circulate for hundreds of cycles before
    /// its effect shows.
    #[test]
    fn evidence_matches_faulty_lanes_on_feedback_circuits(seed in any::<u64>()) {
        let nl = feedback_netlist(seed);
        let vectors = random_vectors(seed ^ 0x5EED, 640);
        let escaped = all_escaped(&FaultList::extract(&nl).collapsed(&nl));
        let observed = output_nets(&nl);
        let kernel = fault::kernel::compile_cached(&nl, &[nl.topo_order().to_vec()]);
        let mut tb = VectorBench::new(&nl, &vectors);
        let interp = forensics::analyze(&nl, &escaped, &observed, &mut ParallelSim::new(&nl), &mut tb);
        let (faults, evidence) = testable_evidence(&interp);
        let reference =
            faulty_lane_evidence(&nl, &mut WideSim::new(Arc::clone(&kernel), 1), &mut tb, &faults);
        prop_assert_eq!(&evidence, &reference, "interp, 64 lanes");
        prop_assert!(untestable_carry_none(&interp));
        let wide = forensics::analyze(&nl, &escaped, &observed, &mut WideSim::new(kernel, 1), &mut tb);
        prop_assert_eq!(testable_evidence(&wide), (faults, reference), "compiled, 64 lanes");
    }
}

/// Propagation can precede excitation, and the evidence keeps both. The
/// register resets to 1, the vectors clear it at once and set it again
/// only at cycle 300, and its readers are an AND masked by a 0 and an
/// OR into a dangling net: its Q stuck-at-0 diverges on the OR from
/// cycle 0 (the reset value) but reads as excited only at cycle 300.
#[test]
fn propagation_before_excitation_matches_faulty_lanes() {
    let mut b = NetlistBuilder::new("late_excite");
    let a = b.input("a");
    let hide = b.input("hide");
    let m = b.input("m");
    let q = b.dff(a, true);
    let y = b.and2(q, hide);
    let _dangling = b.or2(q, m);
    b.output("y", y);
    let nl = b.finish().unwrap();
    let vectors: Vec<Vec<(&str, u64)>> = (0..400u64)
        .map(|c| vec![("a", (c == 300) as u64), ("hide", 0), ("m", 0)])
        .collect();
    let stuck = Fault {
        site: FaultSite::Stem(q),
        polarity: Polarity::StuckAt0,
    };
    let escaped = all_escaped(&FaultList::extract(&nl).filter(|f, _| f == stuck));
    let mut tb = VectorBench::new(&nl, &vectors);
    let report = forensics::analyze(
        &nl,
        &escaped,
        &output_nets(&nl),
        &mut ParallelSim::new(&nl),
        &mut tb,
    );
    let (faults, evidence) = testable_evidence(&report);
    assert_eq!(faults, vec![stuck]);
    assert_eq!(evidence, vec![(Some(300), Some(0))]);
    let reference = faulty_lane_evidence(&nl, &mut ParallelSim::new(&nl), &mut tb, &faults);
    assert_eq!(evidence, reference);
}

/// A vector bench that leaves a port out of later vectors must resume
/// a regrouped batch with that port at its last driven value.
#[test]
fn resumed_vector_bench_keeps_undriven_ports() {
    let nl = feedback_netlist(7);
    let mut vectors = random_vectors(11, 700);
    for v in vectors.iter_mut().skip(100) {
        v.retain(|&(port, _)| port == "a");
    }
    let faults = repeated(&FaultList::extract(&nl).collapsed(&nl), 4);
    let bench = || VectorBench::new(&nl, &vectors);
    let hooks = Telemetry::none();
    let reference = per_slice(&faults, 63, |s| {
        campaign::run(&ParallelSim::new(&nl), s, bench, 1, &hooks)
    });
    let res = campaign::run(&ParallelSim::new(&nl), &faults, bench, 2, &hooks);
    assert!(res.stats.batches > campaign::batch_count_lanes(&faults, 64));
    assert_eq!(res.detections, reference);
}

/// A Plasma program that stores words early and reads them back — and
/// overwrites them — after each of five delay loops, so every restored
/// lane reads memory it wrote in an earlier epoch. A store cycle returns
/// the updated word on this bench.
const PLASMA_READBACK: &str = r#"
        li    $t0, 0x13579BDF
        sw    $t0, 0x200($zero)
        li    $t0, 0x2468ACE0
        sw    $t0, 0x204($zero)
        sb    $t0, 0x209($zero)
        li    $s1, 5
round:  li    $t1, 90
delay:  addiu $t1, $t1, -1
        bnez  $t1, delay
        nop
        lw    $t2, 0x200($zero)
        lw    $t3, 0x204($zero)
        lw    $t4, 0x208($zero)
        addu  $t5, $t2, $t3
        xor   $t5, $t5, $t4
        sw    $t5, 0x200($zero)
        sw    $t2, 0x208($zero)
        addiu $s1, $s1, -1
        bnez  $s1, round
        nop
stop:   b     stop
        nop
"#;

/// A sampled Plasma fault list at 64 lanes regroups across several
/// boundaries, and every survivor must carry its memory overlay along.
#[test]
fn plasma_sample_regroups_without_changing_detections() {
    let core = plasma::PlasmaCore::build(plasma::PlasmaConfig::default());
    let opts = FlowOptions {
        fault_sample: Some(400),
        ..Default::default()
    };
    let program = mips::asm::assemble(PLASMA_READBACK).expect("assembles");
    let budget = 2000;
    let faults = flow::fault_list(&core, &opts);
    let grade = |list: &FaultList, threads| {
        flow::run_campaign_of_engine(
            &core,
            &program,
            list,
            budget,
            threads,
            &Telemetry::none(),
            EngineConfig::compiled(64),
        )
    };
    let reference = per_slice(&faults, 63, |s| grade(s, 1));
    assert!(
        alive_after(&reference, 1024) > 63,
        "need 2+ batches past 1,024"
    );
    let res = grade(&faults, 2);
    assert_eq!(res.detections, reference);
    assert!(res.stats.batches > campaign::batch_count_lanes(&faults, 64));
    assert_schedule_invariants(&res, budget);
}

/// The evidence pass on a sampled Plasma campaign of
/// [`PLASMA_READBACK`], whose bench carries memory, gives every testable
/// escape the faulty-lane reference's cycles, and writes the same report
/// on the interpreted engine at 64 lanes and the compiled one at 512.
#[test]
fn plasma_evidence_matches_faulty_lanes() {
    let core = PlasmaCore::build(plasma::PlasmaConfig::default());
    let opts = FlowOptions {
        fault_sample: Some(400),
        ..Default::default()
    };
    let program = mips::asm::assemble(PLASMA_READBACK).expect("assembles");
    let budget = 2000;
    let faults = flow::fault_list(&core, &opts);
    let result = flow::run_campaign_of_engine(
        &core,
        &program,
        &faults,
        budget,
        2,
        &Telemetry::none(),
        EngineConfig::compiled(256),
    );
    let nl = core.netlist();
    let segments = core.segments().map(<[u32]>::to_vec);
    let mut tb = SelfTestBench::new(&core, &program, MEM_BYTES, budget);
    let narrow = forensics::analyze(
        nl,
        &result,
        core.observed_outputs(),
        &mut ParallelSim::with_segments(nl, &segments),
        &mut tb,
    );
    let wide = forensics::analyze(
        nl,
        &result,
        core.observed_outputs(),
        &mut EngineConfig::compiled(512).sim(nl, &segments),
        &mut tb,
    );
    let (escapes, evidence) = testable_evidence(&narrow);
    assert!(escapes.len() > 63, "{} testable escapes: need 2+ slices", escapes.len());
    assert!(
        evidence.iter().any(|&(e, p)| e.is_some() && p.is_some_and(|p| p >= 128)),
        "no escape propagates late"
    );
    let reference = faulty_lane_evidence(
        nl,
        &mut EngineConfig::compiled(64).sim(nl, &segments),
        &mut tb,
        &escapes,
    );
    assert_eq!(evidence, reference);
    assert!(untestable_carry_none(&narrow));
    let json = |r: &ForensicsReport| serde_json::to_string_pretty(&r.to_json()).unwrap();
    assert_eq!(json(&narrow), json(&wide));
}

/// The Parwan counterpart of [`PLASMA_READBACK`]: bytes stored at the
/// start are read back, combined and overwritten after each of three
/// delay loops. A store cycle returns the old byte on this bench.
fn parwan_readback() -> parwan::sbst::ParwanSelfTest {
    use parwan::sbst::{END_MARKER, MAILBOX};
    use parwan::{Cond, ProgramBuilder};
    let (data, cells, counter) = (0x300u16, 0x200u16, 0x210u16);
    let mut p = ProgramBuilder::new();
    p.lda(data).sta(cells);
    p.lda(data + 1).sta(cells + 1);
    for _ in 0..3 {
        p.lda(data + 2).sta(counter);
        let top = p.here();
        p.lda(counter).add(data + 3).sta(counter);
        let exit = p.here() + 4;
        p.bra(Cond::Z, exit).jmp(top);
        assert_eq!(p.here(), exit);
        p.lda(cells).add(cells + 1).sta(cells);
        p.lda(cells + 1).asl().sta(cells + 1);
    }
    p.lda(data + 4).sta(MAILBOX);
    let h = p.here();
    p.jmp(h);
    let code_bytes = p.here() as usize;
    p.pad_to(data);
    for v in [0x5A, 0xC3, 40, 0xFF, END_MARKER] {
        p.byte(v);
    }
    parwan::sbst::ParwanSelfTest {
        image: p.build(),
        code_bytes,
        data_bytes: 5,
    }
}

/// The full Parwan list at 64 lanes: survivors regroup across every
/// boundary and carry their overlays under the other store-cycle read
/// order. At 512 lanes the same bench runs batches of every width in
/// turn as the survivors narrow.
#[test]
fn parwan_regroups_without_changing_detections() {
    let core = parwan::ParwanCore::build();
    let faults = FaultList::extract(core.netlist()).collapsed(core.netlist());
    let test = parwan_readback();
    assert!(
        parwan::sbst::golden_cycles(&test) > 1024,
        "reads back past 1,024"
    );
    let grade_at = |lanes, list: &FaultList, threads| {
        let hooks = Telemetry::none();
        parwan::sbst::grade(
            &core,
            &test,
            list,
            threads,
            EngineConfig::compiled(lanes),
            &hooks,
        )
    };
    let grade = |list: &FaultList, threads| grade_at(64, list, threads);
    let reference = per_slice(&faults, 63, |s| grade(s, 1));
    assert!(
        alive_after(&reference, 512) > 63,
        "need 2+ batches past 512"
    );
    let serial = grade(&faults, 1);
    assert_eq!(serial.detections, reference);
    assert!(serial.stats.batches > campaign::batch_count_lanes(&faults, 64));
    let par = grade(&faults, 4);
    assert_eq!(par.detections, reference);
    assert_eq!(par.stats.batches, serial.stats.batches);
    assert_eq!(par.stats.cycles_simulated, serial.stats.cycles_simulated);
    let wide = grade_at(512, &faults, 2);
    assert_eq!(wide.detections, reference);
    assert!(wide.stats.lane_cycles_spent < wide.stats.cycles_simulated * 512);
}
