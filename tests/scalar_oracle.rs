//! An independent oracle for the fault simulator: a serial scalar
//! stuck-at simulator, written from gate semantics, that grades one
//! fault at a time with one `bool` per net.
//!
//! It shares no code with the simulator under test — it reads the
//! netlist only through its structure accessors and `topo_order`,
//! spells out every gate's truth function and every fault's effect by
//! hand, and uses nothing from `fault::{kernel, wide, campaign}` or the
//! cores' testbenches. Three properties hold the simulator to it:
//!
//! * on random sequential circuits with registered feedback under
//!   port-hold vectors, the first-detection cycle of every collapsed
//!   fault must equal `campaign::run`'s at 64 and 256 lanes;
//! * on the Plasma core running the Phase A+B self-test, every machine
//!   serves its own bus from an ISS `Memory` loaded with the program,
//!   and a fixed sample of faults must be detected at the cycles the
//!   Plasma campaign detects them at — the faults whose detection
//!   depends on the store-cycle read order among them;
//! * likewise on the Parwan core with its 4 KB byte memory, under the
//!   deterministic and an LFSR self-test.
//!
//! The same side-by-side machines are the reference for the forensics
//! evidence, which `forensics::analyze` reads off one fault-free run:
//! graded as an escape, every testable fault's first-excited and
//! first-propagated cycles must equal the oracle's.

use proptest::prelude::*;

use fault::campaign::{self, CampaignResult, CampaignStats, Detection, VectorBench};
use fault::forensics::{self, Bucket};
use fault::model::{Fault, FaultList, FaultSite, Polarity};
use fault::EngineConfig;
use mips::iss::{Bus as _, Memory};
use netlist::{GateKind, Net, Netlist, NetlistBuilder, PortDir};
use obs::Telemetry;
use parwan::ParwanCore;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow::{self, MEM_BYTES};
use sbst::phases::{build_program, Phase};

/// Each gate kind's truth function on its `(a, b, c)` input pins.
fn gate_fn(kind: GateKind, a: bool, b: bool, c: bool) -> bool {
    match kind {
        GateKind::Const0 => false,
        GateKind::Const1 => true,
        GateKind::Buf => a,
        GateKind::Not => !a,
        GateKind::And2 => a && b,
        GateKind::Or2 => a || b,
        GateKind::Nand2 => !(a && b),
        GateKind::Nor2 => !(a || b),
        GateKind::Xor2 => a != b,
        GateKind::Xnor2 => a == b,
        // Pins (sel, a, b): `sel ? b : a`.
        GateKind::Mux2 => {
            if a {
                c
            } else {
                b
            }
        }
        GateKind::Aoi21 => !((a && b) || c),
        GateKind::Oai21 => !((a || b) && c),
    }
}

/// One machine — fault-free, or carrying a single stuck-at fault —
/// holding one `bool` per net.
struct Machine<'a> {
    nl: &'a Netlist,
    /// The faulty site, if any, and the value it is stuck at.
    site: Option<FaultSite>,
    stuck: bool,
    vals: Vec<bool>,
}

impl<'a> Machine<'a> {
    /// Every net low (a stuck stem already at its value), then each
    /// flip-flop at its reset value.
    fn new(nl: &'a Netlist, fault: Option<Fault>) -> Machine<'a> {
        let mut m = Machine {
            nl,
            site: fault.map(|f| f.site),
            stuck: fault.is_some_and(|f| f.polarity == Polarity::StuckAt1),
            vals: vec![false; nl.num_nets()],
        };
        for n in 0..nl.num_nets() {
            m.store(Net::from_index(n), false);
        }
        for d in nl.dffs() {
            m.store(d.q, d.reset_value);
        }
        m
    }

    /// Write `v` onto a net's stem: a stuck stem keeps its value.
    fn store(&mut self, net: Net, v: bool) {
        let stuck = self.site == Some(FaultSite::Stem(net));
        self.vals[net.index()] = if stuck { self.stuck } else { v };
    }

    /// The value gate `g` reads on input pin `pin`: a stuck pin reads
    /// its value, every other used pin its net's, an unused pin 0.
    fn pin(&self, g: usize, pin: usize) -> bool {
        let gate = &self.nl.gates()[g];
        let site = FaultSite::Pin {
            gate: g as u32,
            pin: pin as u8,
        };
        if pin >= gate.kind.arity() {
            false
        } else if self.site == Some(site) {
            self.stuck
        } else {
            self.vals[gate.inputs[pin].index()]
        }
    }

    /// Drive an input port with an integer value, LSB first.
    fn drive(&mut self, port: &str, value: u64) {
        for (i, &net) in self.nl.port(port).iter().enumerate() {
            self.store(net, (value >> i) & 1 == 1);
        }
    }

    /// A port's value as an integer, LSB first.
    fn port(&self, port: &str) -> u64 {
        let nets = self.nl.port(port).iter();
        nets.enumerate()
            .fold(0, |v, (i, n)| v | u64::from(self.vals[n.index()]) << i)
    }

    /// Evaluate every gate in topological order.
    fn settle(&mut self) {
        for &g in self.nl.topo_order() {
            let g = g as usize;
            let (a, b, c) = (self.pin(g, 0), self.pin(g, 1), self.pin(g, 2));
            let gate = &self.nl.gates()[g];
            self.store(gate.output, gate_fn(gate.kind, a, b, c));
        }
    }

    /// Drive the cycle's ports (a port the vector omits keeps its
    /// value), then settle.
    fn eval(&mut self, vector: &[(&str, u64)]) {
        for &(port, value) in vector {
            self.drive(port, value);
        }
        self.settle();
    }

    /// Every flip-flop takes its D value at once (a stuck D pin
    /// captures its value).
    fn clock(&mut self) {
        let next: Vec<bool> = (0..self.nl.dffs().len())
            .map(|i| match self.site == Some(FaultSite::DffD(i as u32)) {
                true => self.stuck,
                false => self.vals[self.nl.dffs()[i].d.index()],
            })
            .collect();
        for (d, v) in self.nl.dffs().iter().zip(next) {
            self.store(d.q, v);
        }
    }

    fn read(&self, nets: &[Net]) -> Vec<bool> {
        nets.iter().map(|n| self.vals[n.index()]).collect()
    }

    /// One cycle on a memory bus: settle, serve the request on the
    /// observed ports, drive `mem_rdata` with the answer and settle
    /// again — the observed ports come before the read data, so they
    /// must not move — then clock. Returns the observed ports.
    fn bus_cycle<B: CoreBus>(&mut self, bus: &mut B) -> Vec<u64> {
        self.settle();
        let observed: Vec<u64> = B::OBSERVED.iter().map(|p| self.port(p)).collect();
        let rdata = bus.serve(self);
        self.drive("mem_rdata", rdata);
        self.settle();
        for (p, &v) in B::OBSERVED.iter().zip(&observed) {
            assert_eq!(self.port(p), v, "observed port {p} depends on mem_rdata");
        }
        self.clock();
        observed
    }
}

/// A core's memory, serving one machine's bus.
trait CoreBus {
    /// The output ports a tester on the bus observes.
    const OBSERVED: &'static [&'static str];

    /// Serve the request `m` drives this cycle; returns the read data.
    fn serve(&mut self, m: &Machine) -> u64;
}

/// The Plasma bus over the ISS memory contract: `access` applies a
/// store, then `read_word` returns the word as it stands after it — the
/// updated word on a store cycle, as the Plasma campaign bench reads
/// (`access` alone, what the ISS and `GateCpu` return, is the old word).
struct PlasmaBus(Memory);

impl CoreBus for PlasmaBus {
    const OBSERVED: &'static [&'static str] = &["mem_addr", "mem_we", "mem_be", "mem_wdata"];

    fn serve(&mut self, m: &Machine) -> u64 {
        let addr = m.port("mem_addr") as u32;
        let (we, be) = (m.port("mem_we") == 1, m.port("mem_be") as u8);
        self.0.access(addr, m.port("mem_wdata") as u32, we, be);
        u64::from(self.0.read_word(addr))
    }
}

/// The Parwan bus: 4,096 bytes behind a 12-bit address, read before the
/// write, so a store cycle returns the old byte.
struct ParwanBus(Vec<u8>);

impl CoreBus for ParwanBus {
    const OBSERVED: &'static [&'static str] = &["mem_addr", "mem_we", "mem_wdata"];

    fn serve(&mut self, m: &Machine) -> u64 {
        let addr = m.port("mem_addr") as usize & 0xFFF;
        let old = self.0[addr];
        if m.port("mem_we") == 1 {
            self.0[addr] = m.port("mem_wdata") as u8;
        }
        u64::from(old)
    }
}

/// Grade `faults` one at a time on bus machines for `cycles` cycles,
/// each machine with a fresh `bus()`, on two threads: a fault is
/// detected at the first cycle its observed ports differ from the
/// fault-free machine's.
fn bus_detections<B: CoreBus>(
    nl: &Netlist,
    faults: &[Fault],
    bus: impl Fn() -> B + Sync,
    cycles: u64,
) -> Vec<Detection> {
    let (mut good, mut good_bus) = (Machine::new(nl, None), bus());
    let trace: Vec<Vec<u64>> = (0..cycles).map(|_| good.bus_cycle(&mut good_bus)).collect();
    let detect = |fault: Fault| {
        let (mut bad, mut bus) = (Machine::new(nl, Some(fault)), bus());
        trace
            .iter()
            .position(|want| bad.bus_cycle(&mut bus) != *want)
            .map_or(Detection::Undetected, |c| Detection::DetectedAt(c as u64))
    };
    let mut out = vec![Detection::Undetected; faults.len()];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let detect = &detect;
                s.spawn(move || {
                    let mine = (w..faults.len()).step_by(2);
                    mine.map(|i| (i, detect(faults[i]))).collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, d) in worker.join().expect("oracle worker panicked") {
                out[i] = d;
            }
        }
    });
    out
}

/// Every `stride`-th fault of `full`, plus the faults `pinned` names.
fn spread_sample(full: &FaultList, stride: usize, pinned: &[(&str, u64)]) -> FaultList {
    let mut i = 0;
    let sample = full.filter(|f, _| {
        i += 1;
        (i - 1) % stride == 0 || pinned.iter().any(|&(id, _)| f.describe() == id)
    });
    for (id, _) in pinned {
        assert!(
            sample.faults.iter().any(|f| f.describe() == *id),
            "{id} not in the list"
        );
    }
    sample
}

/// Assert the campaign's detection of every fault equals the oracle's.
fn assert_graded_as_oracle(faults: &FaultList, graded: &[Detection], oracle: &[Detection]) {
    assert_eq!(graded.len(), oracle.len());
    for ((f, g), o) in faults.faults.iter().zip(graded).zip(oracle) {
        assert_eq!(g, o, "{}: campaign vs scalar oracle", f.describe());
    }
}

/// Assert the oracle detects each `pinned` fault of `faults` at its
/// cycle.
fn assert_pinned(faults: &FaultList, oracle: &[Detection], pinned: &[(&str, u64)]) {
    for &(id, cycle) in pinned {
        let i = faults
            .faults
            .iter()
            .position(|f| f.describe() == id)
            .expect("pinned fault");
        assert_eq!(oracle[i], Detection::DetectedAt(cycle), "{id}");
    }
}

/// The faults of the 2,004-fault `campaign_ab` sample (perfbench) whose
/// detection depends on the Plasma store-cycle read order, and the
/// cycles today's order (the updated word) detects them at. Under the
/// old word, four of them escape the whole 7,142-cycle budget and the
/// other three move.
const PLASMA_READ_ORDER: [(&str, u64); 7] = [
    ("g168/pin0 sa1", 316),
    ("g318/pin0 sa1", 328),
    ("g1002/pin0 sa1", 391),
    ("g1026/pin0 sa1", 394),
    ("g1110/pin0 sa1", 400),
    ("g6056/pin0 sa1", 188),
    ("g6070/pin0 sa1", 313),
];

/// About 40 faults spread over the collapsed Plasma list, plus the
/// read-order faults, graded for 1,024 cycles of the Phase A+B
/// self-test: the 64-lane campaign and the bus oracle agree fault for
/// fault, and the oracle detects the read-order faults where today's
/// order does.
#[test]
fn plasma_campaign_matches_the_scalar_oracle() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let nl = core.netlist();
    let program = build_program(Phase::B)
        .expect("Phase A+B assembles")
        .program;
    let full = FaultList::extract(nl).collapsed(nl);
    let faults = spread_sample(&full, full.len() / 40, &PLASMA_READ_ORDER);
    let cycles = 1024;
    let hooks = Telemetry::none();
    let engine = EngineConfig::compiled(64);
    let graded = flow::run_campaign_of_engine(&core, &program, &faults, cycles, 2, &hooks, engine);
    let mut memory = Memory::new(MEM_BYTES);
    memory.load_program(&program);
    let oracle = bus_detections(nl, &faults.faults, || PlasmaBus(memory.clone()), cycles);
    let escapes = oracle.iter().filter(|d| !d.is_detected()).count();
    assert!(escapes > 0 && escapes < faults.len(), "{escapes} escapes");
    assert_graded_as_oracle(&faults, &graded.detections, &oracle);
    assert_pinned(&faults, &oracle, &PLASMA_READ_ORDER);
}

/// The faults of the Parwan list whose detection under the
/// deterministic self-test depends on the read order, and the cycles
/// today's order (the old byte) detects them at. Reading after the
/// write, three of them escape and `n48 sa1` moves to cycle 654.
const PARWAN_READ_ORDER: [(&str, u64); 4] = [
    ("n48 sa1", 21),
    ("n54 sa1", 21),
    ("n100 sa1", 10),
    ("g12/pin0 sa1", 21),
];

/// Likewise under `lfsr_selftest(40)`: reading after the write moves
/// `n371 sa1` to cycle 19.
const PARWAN_LFSR_READ_ORDER: [(&str, u64); 1] = [("n371 sa1", 148)];

/// Spread samples of the collapsed Parwan list plus the read-order
/// faults, graded over each self-test's full budget — every 16th fault
/// under the deterministic test, every 64th under `lfsr_selftest(40)`:
/// `parwan::sbst::grade` and the bus oracle agree fault for fault.
#[test]
fn parwan_campaign_matches_the_scalar_oracle() {
    let core = ParwanCore::build();
    let nl = core.netlist();
    let full = FaultList::extract(nl).collapsed(nl);
    let tests = [
        (parwan::sbst::deterministic_selftest(), 16, &PARWAN_READ_ORDER[..]),
        (parwan::sbst::lfsr_selftest(40), 64, &PARWAN_LFSR_READ_ORDER[..]),
    ];
    for (test, stride, pinned) in tests {
        let faults = spread_sample(&full, stride, pinned);
        let engine = EngineConfig::compiled(64);
        let graded = parwan::sbst::grade(&core, &test, &faults, 2, engine, &Telemetry::none());
        // The budget `grade` runs.
        let cycles = parwan::sbst::golden_cycles(&test) + 32;
        let mut image = vec![0u8; 4096];
        image[..test.image.len()].copy_from_slice(&test.image);
        let oracle = bus_detections(nl, &faults.faults, || ParwanBus(image.clone()), cycles);
        let escapes = oracle.iter().filter(|d| !d.is_detected()).count();
        assert!(escapes > 0 && escapes < faults.len(), "{escapes} escapes");
        assert_graded_as_oracle(&faults, &graded.detections, &oracle);
        assert_pinned(&faults, &oracle, pinned);
    }
}

/// The first cycle at which `fault` makes any primary output differ
/// from the fault-free machine (sampled after evaluation, before the
/// clock edge), or `Undetected`.
fn first_detection(nl: &Netlist, fault: Fault, vectors: &[Vec<(&str, u64)>]) -> Detection {
    let outputs: Vec<Net> = nl
        .ports()
        .filter(|(_, dir, _)| *dir == PortDir::Output)
        .flat_map(|(_, _, nets)| nets.iter().copied())
        .collect();
    let mut good = Machine::new(nl, None);
    let mut bad = Machine::new(nl, Some(fault));
    for (cycle, vector) in vectors.iter().enumerate() {
        good.eval(vector);
        bad.eval(vector);
        if good.read(&outputs) != bad.read(&outputs) {
            return Detection::DetectedAt(cycle as u64);
        }
        good.clock();
        bad.clock();
    }
    Detection::Undetected
}

/// The net `site` sits on: the stem itself, the net its gate pin reads,
/// or its flip-flop's D net.
fn site_net(nl: &Netlist, site: FaultSite) -> Net {
    match site {
        FaultSite::Stem(n) => n,
        FaultSite::Pin { gate, pin } => nl.gates()[gate as usize].inputs[pin as usize],
        FaultSite::DffD(ff) => nl.dffs()[ff as usize].d,
    }
}

/// Where a fault's effect first lands past its site: for a stem fault,
/// the output of every gate reading the net and the Q of every
/// flip-flop latching it; for a pin fault, its gate's output; for a
/// D-pin fault, its flip-flop's Q.
fn origin_nets(nl: &Netlist, site: FaultSite) -> Vec<Net> {
    match site {
        FaultSite::Stem(n) => {
            let gates = nl.gates().iter().filter(|g| g.used_inputs().any(|i| i == n));
            let flops = nl.dffs().iter().filter(|d| d.d == n);
            gates.map(|g| g.output).chain(flops.map(|d| d.q)).collect()
        }
        FaultSite::Pin { gate, .. } => vec![nl.gates()[gate as usize].output],
        FaultSite::DffD(ff) => vec![nl.dffs()[ff as usize].q],
    }
}

/// `fault`'s activation evidence, with the fault-free and the faulty
/// machine run side by side and both sampled after the clock edge: the
/// first cycle the fault-free site holds the exciting value, and the
/// first cycle an origin net differs between the machines.
fn first_evidence(
    nl: &Netlist,
    fault: Fault,
    vectors: &[Vec<(&str, u64)>],
) -> (Option<u64>, Option<u64>) {
    let site = site_net(nl, fault.site);
    let excite = fault.polarity == Polarity::StuckAt0;
    let origin = origin_nets(nl, fault.site);
    let mut good = Machine::new(nl, None);
    let mut bad = Machine::new(nl, Some(fault));
    let (mut excited, mut propagated) = (None, None);
    for (cycle, vector) in vectors.iter().enumerate() {
        for m in [&mut good, &mut bad] {
            m.eval(vector);
            m.clock();
        }
        let cycle = Some(cycle as u64);
        if excited.is_none() && good.vals[site.index()] == excite {
            excited = cycle;
        }
        if propagated.is_none() && good.read(&origin) != bad.read(&origin) {
            propagated = cycle;
        }
    }
    (excited, propagated)
}

/// xorshift64* stream.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A random sequential circuit: two input ports, a few registers whose
/// D inputs close feedback loops through random logic of every gate
/// kind, and an output port over logic and register nets.
fn random_circuit(seed: u64) -> Netlist {
    let mut next = rng(seed);
    let mut b = NetlistBuilder::new("oracle");
    let a = b.inputs("a", 1 + (next() % 3) as usize);
    let c = b.inputs("b", 1 + (next() % 3) as usize);
    let regs: Vec<_> = (0..2 + next() % 3)
        .map(|_| b.dff_later(next() % 2 == 1))
        .collect();
    let mut pool: Vec<Net> = a
        .iter()
        .chain(&c)
        .copied()
        .chain(regs.iter().map(|r| r.0))
        .collect();
    for _ in 0..12 + next() % 28 {
        let mut pick = || pool[(next() % pool.len() as u64) as usize];
        let (x, y, z) = (pick(), pick(), pick());
        let g = match next() % 13 {
            0 => b.zero(),
            1 => b.one(),
            2 => b.buf(x),
            3 => b.not(x),
            4 => b.and2(x, y),
            5 => b.or2(x, y),
            6 => b.nand2(x, y),
            7 => b.nor2(x, y),
            8 => b.xor2(x, y),
            9 => b.xnor2(x, y),
            10 => b.mux2(x, y, z),
            11 => b.aoi21(x, y, z),
            _ => b.oai21(x, y, z),
        };
        pool.push(g);
    }
    // Registered feedback: each register latches a net of the later
    // logic, which reads the registers (and the inputs) it was built on.
    let logic = pool.len() / 2;
    for (_, slot) in regs {
        let d = pool[logic + (next() % (pool.len() - logic) as u64) as usize];
        b.dff_set(slot, d);
    }
    let mut outs: Vec<Net> = (0..1 + next() % 4)
        .map(|_| pool[(next() % pool.len() as u64) as usize])
        .collect();
    outs.sort_unstable_by_key(|n| n.index());
    outs.dedup();
    b.outputs("o", &outs);
    b.finish().expect("random circuit is structurally valid")
}

/// Per-cycle stimulus that drives `a` on most cycles and `b` on about
/// half, so ports often keep their previous value.
fn random_vectors(seed: u64, cycles: usize) -> Vec<Vec<(&'static str, u64)>> {
    let mut next = rng(seed);
    (0..cycles)
        .map(|_| {
            let r = next();
            let mut v = Vec::new();
            if !r.is_multiple_of(4) {
                v.push(("a", r >> 8));
            }
            if (r >> 2).is_multiple_of(2) {
                v.push(("b", r >> 16));
            }
            v
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engines_match_the_scalar_oracle(seed in any::<u64>()) {
        let nl = random_circuit(seed);
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors = random_vectors(seed ^ 0x5EED, 20);
        let oracle: Vec<Detection> =
            faults.faults.iter().map(|&f| first_detection(&nl, f, &vectors)).collect();
        let bench = || VectorBench::new(&nl, &vectors);
        let hooks = Telemetry::none();
        let segments = [nl.topo_order().to_vec()];
        for lanes in [64usize, 256] {
            let sim = EngineConfig::compiled(lanes).sim(&nl, &segments);
            let wide = campaign::run(&sim, &faults, bench, 1, &hooks);
            prop_assert_eq!(&wide.detections, &oracle, "WideSim at {} lanes vs the oracle", lanes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every collapsed fault of a random circuit, graded as an escape
    /// under a few hundred vectors: `forensics::analyze` at 64 and 512
    /// lanes gives each testable escape the oracle's first-excited and
    /// first-propagated cycles, and each untestable one neither.
    #[test]
    fn forensics_evidence_matches_the_scalar_oracle(seed in any::<u64>()) {
        let nl = random_circuit(seed);
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors = random_vectors(seed ^ 0xE71D, 300);
        let escaped = CampaignResult {
            faults: faults.clone(),
            detections: vec![Detection::Undetected; faults.len()],
            stats: CampaignStats::default(),
        };
        let observed: Vec<Net> = nl
            .ports()
            .filter(|(_, dir, _)| *dir == PortDir::Output)
            .flat_map(|(_, _, nets)| nets.iter().copied())
            .collect();
        for lanes in [64usize, 512] {
            let report = forensics::analyze(
                &nl, &escaped, &observed,
                &mut EngineConfig::compiled(lanes).sim(&nl, &[nl.topo_order().to_vec()]),
                &mut VectorBench::new(&nl, &vectors),
            );
            prop_assert_eq!(report.escapes.len(), faults.len());
            for e in &report.escapes {
                let oracle = match e.bucket {
                    Bucket::Untestable => (None, None),
                    _ => first_evidence(&nl, e.fault, &vectors),
                };
                prop_assert_eq!(
                    (e.first_excited, e.first_propagated),
                    oracle,
                    "{} at {} lanes",
                    e.fault.describe(),
                    lanes
                );
            }
        }
    }
}
