//! Lockstep oracle for the Parwan-class core: behavioural
//! [`parwan::model::ParwanModel`] vs the gate-level netlist on the
//! compiled engine at 64 lanes.
//!
//! Smaller sibling of [`crate::oracle`]: the same per-cycle bus
//! comparison and per-lane fault grading on the same
//! [`fault::membench::MemBench`], minus shrinking and corpus persistence
//! (Parwan programs are a few dozen bytes — reproducers are already
//! minimal).

use fault::campaign::Testbench;
use fault::engine::EngineConfig;
use fault::membench::{MemBench, StoreRead};
use fault::model::Fault;
use fault::wide::WideSim;
use mips::gen::Rng;
use parwan::isa::{Cond, ProgramBuilder};
use parwan::model::{BusCycle, ParwanModel};
use parwan::ParwanCore;

/// An ISS-vs-netlist bus mismatch on the Parwan core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParwanDivergence {
    /// First cycle the buses differed.
    pub cycle: u64,
    /// What the behavioural model drove.
    pub model: BusCycle,
    /// What the netlist (lane 0) drove.
    pub gate: BusCycle,
}

/// Outcome of one Parwan lockstep run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParwanReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Model-vs-lane-0 divergence, if any (the run stops there).
    pub divergence: Option<ParwanDivergence>,
    /// Per-lane first divergent cycle vs lane 0.
    pub lane_first_div: [Option<u64>; 64],
}

impl ParwanReport {
    /// True when nothing diverged.
    pub fn clean(&self) -> bool {
        self.divergence.is_none() && self.lane_first_div.iter().all(Option::is_none)
    }
}

/// The reusable Parwan lockstep engine (4 KB address space): one
/// 64-lane simulator of the core and the memory bench that serves its
/// bus, returning the old byte on a store cycle as the model does.
pub struct ParwanOracle<'a> {
    sim: WideSim,
    tb: MemBench<'a>,
}

impl<'a> ParwanOracle<'a> {
    /// Compile the oracle for a core.
    pub fn new(core: &'a ParwanCore) -> ParwanOracle<'a> {
        let segments = core.segments().map(<[u32]>::to_vec);
        let nl = core.netlist();
        let sim = EngineConfig::compiled(64).sim(nl, &segments);
        // `run` counts its own cycles, so the bench's budget goes unused.
        let tb = MemBench::new(nl, core.observed_outputs(), 4096, 0, StoreRead::Old);
        ParwanOracle { sim, tb }
    }

    /// Run `image` for `max_cycles` in lockstep with `faults` injected.
    pub fn run(&mut self, image: &[u8], faults: &[(Fault, usize)], max_cycles: u64) -> ParwanReport {
        self.tb.load_image(0, image.iter().map(|&b| u32::from(b)));
        self.sim.clear_faults();
        for &(f, lane) in faults {
            self.sim.inject(f, lane);
        }
        self.sim.reset_state();
        self.tb.begin(&mut self.sim);

        let mut model = ParwanModel::new();
        let mut model_mem = vec![0u8; 4096];
        model_mem[..image.len()].copy_from_slice(image);

        let mut lane_first_div = [None; 64];
        let mut divergence = None;
        let mut cycle = 0u64;
        while cycle < max_cycles {
            let mut diff = [0u64];
            self.tb.step(&mut self.sim, cycle, &mut diff);
            let diff = diff[0];
            let tx = self.tb.lane0();
            let gate = BusCycle {
                addr: tx.addr as u16,
                wdata: tx.wdata as u8,
                we: tx.we,
                rdata: tx.rdata as u8,
            };

            let mut d = diff & !1;
            while d != 0 {
                let lane = d.trailing_zeros() as usize;
                if lane_first_div[lane].is_none() {
                    lane_first_div[lane] = Some(cycle);
                }
                d &= d - 1;
            }

            let want = model.cycle(&mut model_mem);
            cycle += 1;
            if gate != want {
                divergence = Some(ParwanDivergence {
                    cycle: cycle - 1,
                    model: want,
                    gate,
                });
                break;
            }
        }

        ParwanReport {
            cycles: cycle,
            divergence,
            lane_first_div,
        }
    }
}

/// Generate a random, terminating Parwan image: a straight-line mix of
/// the full accumulator ISA with short in-page forward branches, a final
/// spin jump, and a 128-byte random data window at `0x300` — the same
/// shape the core's randomized co-simulation test uses, parameterized by
/// seed.
pub fn random_parwan_image(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut p = ProgramBuilder::new();
    for _ in 0..60 {
        let addr = 0x300 + rng.below(0x80) as u16;
        match rng.below(12) {
            0 => {
                p.lda(addr);
            }
            1 => {
                p.and(addr);
            }
            2 => {
                p.add(addr);
            }
            3 => {
                p.sub(addr);
            }
            4 => {
                p.sta(addr);
            }
            5 => {
                p.cla();
            }
            6 => {
                p.cma();
            }
            7 => {
                p.cmc();
            }
            8 => {
                p.asl();
            }
            9 => {
                p.asr();
            }
            10 => {
                p.nop();
            }
            _ => {
                // Short forward branch within the current page.
                let here = p.here();
                let tgt = (here + 2 + 2 * (rng.below(3) as u16 + 1)).min(0x2F0);
                if tgt & 0xF00 == (here + 2) & 0xF00 {
                    p.bra(Cond(rng.next_u64() as u8 & 0xF), tgt);
                    while p.here() < tgt {
                        p.nop();
                    }
                } else {
                    p.nop();
                }
            }
        }
        if p.here() > 0x2E0 {
            break;
        }
    }
    let h = p.here();
    p.jmp(h);
    p.pad_to(0x300);
    for _ in 0..0x80 {
        p.byte(rng.next_u64() as u8);
    }
    p.build()
}
