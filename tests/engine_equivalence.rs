//! Cross-width equivalence properties: the fault simulator at 128, 256
//! and 512 lanes must be bit-identical to 64 lanes on random structural
//! netlists — the same per-fault `Detection` set from the one campaign
//! runner at every lane width and thread count (1/4), and the same
//! lane-level observation reads (`diff_vs_lane0`, `lane_word`,
//! `net_lanes_word`, `lane_block`) the testbenches are built on. The
//! detections themselves are held to an independent scalar simulator in
//! `tests/scalar_oracle.rs`.

use std::sync::Arc;

use proptest::prelude::*;

use fault::campaign::{self, VectorBench};
use fault::model::FaultList;
use fault::wide::WideSim;
use netlist::synth::{self, TechStyle};
use netlist::{Net, Netlist, NetlistBuilder};
use obs::Telemetry;

/// Small random sequential netlist (same shape as `tests/properties.rs`):
/// a couple of registers, an adder, assorted gates.
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

/// Deterministic per-cycle stimulus on the two input ports.
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

/// `lane_block` of every lane word must gather exactly what per-lane
/// `lane_word` probes read — the overlay testbenches' read path against
/// the bit-probe reference, at any width.
fn assert_blocks_match_probes(sim: &WideSim, nets: &[Net]) {
    let mut block = [0u64; 64];
    for t in 0..sim.lane_words() {
        sim.lane_block(nets, t, &mut block);
        for (b, &v) in block.iter().enumerate() {
            let lane = 64 * t + b;
            assert_eq!(
                v,
                sim.lane_word(nets, lane),
                "{} lanes, lane {lane}",
                sim.lanes()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The one runner produces the serial 64-lane run's exact
    /// per-fault `Detection` vector at every width, serial and on 4
    /// worker threads.
    #[test]
    fn detections_identical_across_widths_and_threads(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors = random_vectors(seed ^ 0xA5A5_5A5A, 24);
        let reference = campaign::run_vectors(&nl, &faults, &vectors);
        prop_assert_eq!(reference.stats.lanes, 64);

        let bench = || VectorBench::new(&nl, &vectors);
        let hooks = Telemetry::none();
        let segments = vec![nl.topo_order().to_vec()];
        let kernel = fault::kernel::compile_cached(&nl, &segments);
        for threads in [1usize, 4] {
            for lane_words in [1usize, 2, 4, 8] {
                let proto = WideSim::new(Arc::clone(&kernel), lane_words);
                let wide = campaign::run(&proto, &faults, bench, threads, &hooks);
                prop_assert_eq!(&wide.detections, &reference.detections,
                    "lane_words {} threads {}", lane_words, threads);
                prop_assert_eq!(wide.stats.lanes, 64 * lane_words as u64);
            }
        }
    }

    /// A wide simulator's observation surface reads exactly like the
    /// 64-lane one: word 0 mirrors the 64-lane sim bit for bit, a fault
    /// parked in the top lane of the last word never leaks into other
    /// words, and at both widths every lane word's `lane_block` matches
    /// the per-lane `lane_word` probes.
    #[test]
    fn wide_lane_reads_match_64_lanes(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let outs: Vec<Net> = nl.port("out").to_vec();
        let segments = vec![nl.topo_order().to_vec()];
        let kernel = fault::kernel::compile_cached(&nl, &segments);
        for lane_words in [2usize, 8] {
            let mut wide = WideSim::new(Arc::clone(&kernel), lane_words);
            let mut narrow = WideSim::new(Arc::clone(&kernel), 1);
            for (k, &f) in faults.faults.iter().take(63).enumerate() {
                narrow.inject(f, k + 1);
                wide.inject(f, k + 1);
            }
            // One extra fault in the very top lane — present only in the
            // wide sim, so it must stay confined to the last word.
            let top = 64 * lane_words - 1;
            wide.inject(faults.faults[0], top);
            narrow.reset_state();
            wide.reset_state();
            let mut narrow_diff = [0u64];
            let mut s = seed | 5;
            let mut diff = vec![0u64; lane_words];
            for _ in 0..20 {
                s ^= s << 9;
                s ^= s >> 11;
                for sim_port in [("a", s & 0x1FF), ("b", (s >> 16) & 0x1FF)] {
                    narrow.set_port(&nl, sim_port.0, sim_port.1);
                    wide.set_port(&nl, sim_port.0, sim_port.1);
                }
                narrow.eval_all();
                wide.eval_all();
                for &n in &outs {
                    prop_assert_eq!(wide.net_lanes_word(n, 0), narrow.net_lanes_word(n, 0));
                }
                for lane in [0usize, 1, 63] {
                    prop_assert_eq!(
                        wide.port_lane_word(&nl, "out", lane),
                        narrow.port_lane_word(&nl, "out", lane)
                    );
                }
                assert_blocks_match_probes(&narrow, &outs);
                assert_blocks_match_probes(&wide, &outs);
                diff.iter_mut().for_each(|w| *w = 0);
                wide.diff_vs_lane0(&outs, &mut diff);
                narrow_diff[0] = 0;
                narrow.diff_vs_lane0(&outs, &mut narrow_diff);
                prop_assert_eq!(diff[0], narrow_diff[0]);
                // Fault-free words diverge nowhere; the top word only in
                // its injected top lane.
                for (t, &w) in diff.iter().enumerate().skip(1) {
                    if t == lane_words - 1 {
                        prop_assert_eq!(w & !(1u64 << 63), 0);
                    } else {
                        prop_assert_eq!(w, 0);
                    }
                }
                narrow.clock();
                wide.clock();
            }
        }
    }
}
