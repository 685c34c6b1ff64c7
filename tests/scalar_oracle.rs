//! An independent oracle for the fault simulators: a serial scalar
//! stuck-at simulator, written from gate semantics, that grades one
//! fault at a time with one `bool` per net.
//!
//! It shares no code with the engines under test — it reads the netlist
//! only through its structure accessors and `topo_order`, spells out
//! every gate's truth function and every fault's effect by hand, and
//! uses nothing from `fault::{sim, kernel, wide, campaign}`. The
//! property then holds every engine to it: on random sequential
//! circuits with registered feedback, the first-detection cycle of
//! every collapsed fault must equal `campaign::run`'s on the interpreted
//! `ParallelSim` and on the compiled `WideSim` at 64 and 256 lanes.

use proptest::prelude::*;

use fault::campaign::{self, CampaignHooks, Detection, VectorBench};
use fault::model::{Fault, FaultList, FaultSite, Polarity};
use fault::sim::ParallelSim;
use fault::EngineConfig;
use netlist::{GateKind, Net, Netlist, NetlistBuilder, PortDir};

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

    /// Drive the cycle's ports (a port the vector omits keeps its
    /// value), then evaluate every gate in topological order.
    fn eval(&mut self, vector: &[(&str, u64)]) {
        for &(port, value) in vector {
            for (i, &net) in self.nl.port(port).iter().enumerate() {
                self.store(net, (value >> i) & 1 == 1);
            }
        }
        for &g in self.nl.topo_order() {
            let g = g as usize;
            let (a, b, c) = (self.pin(g, 0), self.pin(g, 1), self.pin(g, 2));
            let gate = &self.nl.gates()[g];
            self.store(gate.output, gate_fn(gate.kind, a, b, c));
        }
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
        let hooks = CampaignHooks::none();
        let interp = campaign::run(&ParallelSim::new(&nl), &faults, bench, 1, &hooks);
        prop_assert_eq!(&interp.detections, &oracle, "ParallelSim vs the scalar oracle");
        let segments = [nl.topo_order().to_vec()];
        for lanes in [64usize, 256] {
            let sim = EngineConfig::compiled(lanes).sim(&nl, &segments);
            let wide = campaign::run(&sim, &faults, bench, 1, &hooks);
            prop_assert_eq!(&wide.detections, &oracle, "WideSim at {} lanes vs the oracle", lanes);
        }
    }
}
