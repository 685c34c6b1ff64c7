//! Lockstep oracle for the Parwan-class core: behavioural
//! [`parwan::model::ParwanModel`] vs the gate-level netlist on the
//! compiled engine at 64 lanes.
//!
//! Smaller sibling of [`crate::oracle`]: the same per-cycle bus
//! comparison and per-lane fault grading, minus shrinking and corpus
//! persistence (Parwan programs are a few dozen bytes — reproducers are
//! already minimal).

use fault::engine::EngineConfig;
use fault::model::Fault;
use fault::wide::{transpose_lanes_wide, WideSim};
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

/// The reusable Parwan lockstep engine (4 KB address space).
pub struct ParwanOracle<'a> {
    core: &'a ParwanCore,
    sim: WideSim,
    base: Vec<u8>,
    ovl_vals: Vec<u8>,
    ovl_gens: Vec<u32>,
    gen: u32,
    scratch: [u64; 64],
    bits: Vec<u64>,
}

impl<'a> ParwanOracle<'a> {
    /// Compile the oracle for a core.
    pub fn new(core: &'a ParwanCore) -> ParwanOracle<'a> {
        let segments = core.segments().map(<[u32]>::to_vec);
        let sim = EngineConfig::compiled(64).sim(core.netlist(), &segments);
        ParwanOracle {
            core,
            sim,
            base: vec![0; 4096],
            ovl_vals: vec![0; 64 * 4096],
            ovl_gens: vec![0; 64 * 4096],
            gen: 0,
            scratch: [0; 64],
            bits: Vec::new(),
        }
    }

    fn read(&self, lane: usize, addr: u16) -> u8 {
        let idx = lane * 4096 + (addr & 0xFFF) as usize;
        if self.ovl_gens[idx] == self.gen {
            self.ovl_vals[idx]
        } else {
            self.base[(addr & 0xFFF) as usize]
        }
    }

    fn write(&mut self, lane: usize, addr: u16, wdata: u8) {
        let idx = lane * 4096 + (addr & 0xFFF) as usize;
        self.ovl_vals[idx] = wdata;
        self.ovl_gens[idx] = self.gen;
    }

    /// Run `image` for `max_cycles` in lockstep with `faults` injected.
    pub fn run(&mut self, image: &[u8], faults: &[(Fault, usize)], max_cycles: u64) -> ParwanReport {
        self.base.fill(0);
        self.base[..image.len()].copy_from_slice(image);
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.ovl_gens.fill(0);
            self.gen = 1;
        }
        self.sim.clear_faults();
        for &(f, lane) in faults {
            self.sim.inject(f, lane);
        }
        self.sim.reset_state();

        let mut model = ParwanModel::new();
        let mut model_mem = vec![0u8; 4096];
        model_mem[..image.len()].copy_from_slice(image);

        let core = self.core;
        let nl = core.netlist();
        let addr_nets = nl.port("mem_addr");
        let wdata_nets = nl.port("mem_wdata");
        let we_net = nl.port("mem_we")[0];
        let observed = core.observed_outputs();

        let mut lane_first_div = [None; 64];
        let mut divergence = None;
        let mut cycle = 0u64;
        while cycle < max_cycles {
            self.sim.eval_segment(0);
            let we_lanes = self.sim.net_lanes_word(we_net, 0);
            let mut gate = BusCycle {
                addr: 0,
                wdata: 0,
                we: false,
                rdata: 0,
            };
            for lane in 0..64 {
                let addr = (self.sim.lane_word(addr_nets, lane) & 0xFFF) as u16;
                let wdata = self.sim.lane_word(wdata_nets, lane) as u8;
                let we = (we_lanes >> lane) & 1 == 1;
                let rdata = self.read(lane, addr);
                self.scratch[lane] = rdata as u64;
                if we {
                    self.write(lane, addr, wdata);
                }
                if lane == 0 {
                    gate = BusCycle {
                        addr,
                        wdata,
                        we,
                        rdata,
                    };
                }
            }
            transpose_lanes_wide(&self.scratch, 8, 1, &mut self.bits);
            self.sim.set_port_bits(nl, "mem_rdata", &self.bits);
            let mut diff = [0u64];
            self.sim.diff_vs_lane0(observed, &mut diff);
            let diff = diff[0];
            self.sim.eval_segment(1);
            self.sim.clock();

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
