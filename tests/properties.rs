//! Property-based tests over the substrate invariants: instruction
//! round-trips, simulator equivalences, fault-model bookkeeping, and
//! multiply/divide reference semantics.

use proptest::prelude::*;

use fault::model::FaultList;
use fault::{EngineConfig, WideSim};
use mips::isa::{Instr, Op, Reg};
use netlist::sim::Simulator;
use netlist::synth::{self, TechStyle};
use netlist::{Netlist, NetlistBuilder};

// ---- ISA ---------------------------------------------------------------

proptest! {
    /// encode(decode(w)) == w for every word that decodes to a supported
    /// instruction.
    #[test]
    fn decode_encode_fixpoint(word in any::<u32>()) {
        let i = Instr::decode(word);
        if i.op.is_some() {
            let w2 = i.encode();
            let i2 = Instr::decode(w2);
            prop_assert_eq!(i.op, i2.op);
            // Re-decoding the re-encoding is a fixpoint.
            prop_assert_eq!(w2, i2.encode());
        }
    }

    /// Constructed instructions always decode back to themselves.
    #[test]
    fn construct_decode_round_trip(
        rd in 0u8..32, rs in 0u8..32, rt in 0u8..32,
        shamt in 0u8..32, imm in any::<u16>(),
    ) {
        // `decode` also exposes the raw overlapping imm/target bit
        // fields, so compare the fields meaningful for each format.
        for op in [Op::Addu, Op::Sub, Op::Slt, Op::Nor] {
            let i = Instr::r3(op, Reg(rd), Reg(rs), Reg(rt));
            let d = Instr::decode(i.encode());
            prop_assert_eq!((d.op, d.rd, d.rs, d.rt), (i.op, i.rd, i.rs, i.rt));
        }
        for op in [Op::Sll, Op::Sra] {
            let i = Instr::shift(op, Reg(rd), Reg(rt), shamt);
            let d = Instr::decode(i.encode());
            prop_assert_eq!((d.op, d.rd, d.rt, d.shamt), (i.op, i.rd, i.rt, i.shamt));
        }
        for op in [Op::Addiu, Op::Andi, Op::Lui] {
            let i = Instr::imm(op, Reg(rt), Reg(rs), imm);
            let d = Instr::decode(i.encode());
            prop_assert_eq!(d.op, i.op);
            prop_assert_eq!(d.imm, imm);
        }
    }
}

// ---- multiply/divide reference semantics ---------------------------------

proptest! {
    /// The hardware-algorithm models agree with native 64-bit arithmetic.
    #[test]
    fn muldiv_models_match_native(a in any::<u32>(), b in any::<u32>()) {
        let (hi, lo) = mips::iss::muldiv_mult(a, b, false);
        let p = (a as u64) * (b as u64);
        prop_assert_eq!(((p >> 32) as u32, p as u32), (hi, lo));

        let (hi, lo) = mips::iss::muldiv_mult(a, b, true);
        let p = (a as i32 as i64) * (b as i32 as i64);
        prop_assert_eq!((((p as u64) >> 32) as u32, p as u32), (hi, lo));

        if b != 0 {
            let (r, q) = mips::iss::muldiv_div(a, b, false);
            prop_assert_eq!((a % b, a / b), (r, q));

            let (r, q) = mips::iss::muldiv_div(a, b, true);
            let (sa, sb) = (a as i32, b as i32);
            // Avoid the INT_MIN / -1 overflow in the native reference.
            if !(sa == i32::MIN && sb == -1) {
                prop_assert_eq!(
                    (sa.wrapping_rem(sb) as u32, sa.wrapping_div(sb) as u32),
                    (r, q)
                );
            }
        }
    }
}

// ---- random structural netlists --------------------------------------------

/// `nl` on the fault simulator at `lanes`, evaluated as one segment.
fn sim_at(nl: &Netlist, lanes: usize) -> WideSim {
    EngineConfig::compiled(lanes).sim(nl, &[nl.topo_order().to_vec()])
}

/// Build a small random sequential netlist from a seed: a couple of
/// registers, an adder, assorted gates — enough structure for fault-model
/// properties.
fn random_netlist(seed: u64) -> Netlist {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
        s
    };
    let mut b = NetlistBuilder::new("rand");
    let width = 4 + (next() % 5) as usize;
    let a = b.inputs("a", width);
    let c = b.inputs("b", width);
    let mut pool: Vec<netlist::Net> = a.iter().chain(c.iter()).copied().collect();
    for _ in 0..(8 + next() % 24) {
        let x = pool[(next() % pool.len() as u64) as usize];
        let y = pool[(next() % pool.len() as u64) as usize];
        let g = match next() % 7 {
            0 => b.and2(x, y),
            1 => b.or2(x, y),
            2 => b.xor2(x, y),
            3 => b.nand2(x, y),
            4 => b.nor2(x, y),
            5 => b.not(x),
            _ => {
                let z = pool[(next() % pool.len() as u64) as usize];
                b.mux2(x, y, z)
            }
        };
        pool.push(g);
    }
    let zero = b.zero();
    let add = synth::add(
        &mut b,
        if next() % 2 == 0 {
            TechStyle::RippleMux
        } else {
            TechStyle::ClaAoi
        },
        &a,
        &c,
        zero,
    );
    let reg = b.dff_word(&add.sum, 0);
    let mix: Vec<netlist::Net> = reg
        .iter()
        .zip(pool.iter().rev())
        .map(|(&q, &p)| b.xor2(q, p))
        .collect();
    b.outputs("out", &mix);
    b.finish().expect("random netlist is structurally valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Collapsing conserves the fault universe (weights sum to the raw
    /// count) and never grows the list.
    #[test]
    fn collapse_conserves_weights(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let raw = FaultList::extract(&nl);
        let total = raw.len();
        let col = raw.collapsed(&nl);
        prop_assert!(col.len() <= total);
        prop_assert_eq!(col.weight.iter().map(|&w| w as usize).sum::<usize>(), total);
        prop_assert_eq!(col.total_uncollapsed, total);
    }

    /// Lane 0 of the fault simulator matches the scalar simulator on
    /// random netlists and stimuli, with faults injected in other lanes:
    /// lanes 1..64 at 64 lanes, and the last word at 512 lanes.
    #[test]
    fn parallel_lane0_equals_scalar(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let faults = FaultList::extract(&nl).collapsed(&nl);
        for (lanes, first) in [(64usize, 1usize), (512, 449)] {
            let mut ps = sim_at(&nl, lanes);
            // Pollute 63 lanes with faults; lane 0 stays healthy.
            for (k, &f) in faults.faults.iter().take(63).enumerate() {
                ps.inject(f, first + k);
            }
            let mut ss = Simulator::new(&nl);
            ps.reset_state();
            ss.reset(&nl);
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..20 {
                s ^= s >> 13;
                s ^= s << 7;
                let av = s & 0xFF;
                let bv = (s >> 8) & 0xFF;
                ps.set_port(&nl, "a", av);
                ps.set_port(&nl, "b", bv);
                ss.set_input_word(&nl, "a", av);
                ss.set_input_word(&nl, "b", bv);
                ps.eval_all();
                ss.eval(&nl);
                prop_assert_eq!(
                    ps.port_lane_word(&nl, "out", 0),
                    ss.output_word(&nl, "out")
                );
                ps.clock();
                ss.clock(&nl);
            }
        }
    }

    /// An equivalence-class representative and any collapsed-away member
    /// produce identical detection behaviour under random stimuli — the
    /// soundness property collapsing relies on.
    #[test]
    fn equivalent_faults_behave_identically(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let raw = FaultList::extract(&nl);
        let col = raw.clone().collapsed(&nl);
        // Pick a class with weight > 1 by re-deriving membership: inject
        // the representative in lane 1 and each raw fault in lanes 2..;
        // equivalents must mirror lane 1 exactly on the outputs.
        let Some(rep_idx) = col.weight.iter().position(|&w| w > 1) else {
            return Ok(()); // no multi-member class in this netlist
        };
        let rep = col.faults[rep_idx];
        // At 64 lanes, and in the last word of 512 lanes.
        for (lanes, word) in [(64usize, 0usize), (512, 7)] {
            let mut ps = sim_at(&nl, lanes);
            ps.inject(rep, 64 * word + 1);
            // Candidate members: every raw fault (cheap: ≤ few hundred).
            let candidates: Vec<_> = raw.faults.iter().copied().take(62).collect();
            for (k, &f) in candidates.iter().enumerate() {
                ps.inject(f, 64 * word + k + 2);
            }
            ps.reset_state();
            let mut mirror_mask = !0u64; // lanes that matched lane 1 so far
            let mut s = seed | 3;
            for _ in 0..24 {
                s ^= s << 9;
                s ^= s >> 11;
                ps.set_port(&nl, "a", s & 0xFF);
                ps.set_port(&nl, "b", (s >> 16) & 0xFF);
                ps.eval_all();
                for &n in nl.port("out") {
                    let v = ps.net_lanes_word(n, word);
                    let lane1 = 0u64.wrapping_sub((v >> 1) & 1);
                    mirror_mask &= !(v ^ lane1);
                }
                ps.clock();
            }
            // The representative trivially mirrors itself.
            prop_assert!(mirror_mask & 2 != 0);
        }
    }
}

// ---- gate-level CPU vs ISS, randomized ------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random programs keep the gate-level core and the ISS in lock-step
    /// (shorter than the dedicated cosim test, but with fresh seeds every
    /// proptest run).
    #[test]
    fn cpu_cosim_random(seed in any::<u64>()) {
        use mips::gen::{random_program, GenConfig};
        use mips::iss::{Iss, Memory};
        use plasma::testbench::GateCpu;
        use plasma::{PlasmaConfig, PlasmaCore};

        // Build once per process (expensive); thread_local caching.
        thread_local! {
            static CORE: PlasmaCore = PlasmaCore::build(PlasmaConfig::default());
        }
        CORE.with(|core| {
            let p = random_program(seed, &GenConfig { body_len: 60, ..Default::default() });
            let mut iss = Iss::new();
            let mut iss_mem = Memory::new(16 * 1024);
            iss_mem.load_program(&p);
            let mut gate = GateCpu::new(core, 16 * 1024);
            gate.load_program(&p);
            for c in 0..420u32 {
                let want = iss.cycle(&mut iss_mem);
                let got = gate.cycle();
                prop_assert_eq!(
                    (got.addr, got.we, got.be, got.wdata),
                    (want.addr, want.we, want.be, want.wdata),
                    "divergence at cycle {}", c
                );
            }
            Ok(())
        })?;
    }
}
