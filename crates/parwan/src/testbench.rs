//! Testbenches for the Parwan-class core: a scalar one for
//! co-simulation, and the lane-parallel self-test bench — a
//! [`fault::membench::MemBench`] over the core's bus — that drives the
//! fault simulator.

use fault::membench::{MemBench, StoreRead};
use netlist::sim::Simulator;

use crate::core::ParwanCore;
use crate::model::BusCycle;

/// Scalar gate-level testbench with 4 KB of memory.
pub struct GateParwan<'a> {
    core: &'a ParwanCore,
    sim: Simulator,
    /// Memory image (public for checking results).
    pub mem: Vec<u8>,
}

impl<'a> GateParwan<'a> {
    /// Core in reset with zeroed memory. Each cycle walks the core's two
    /// evaluation segments, before and after `mem_rdata` is driven.
    pub fn new(core: &'a ParwanCore) -> GateParwan<'a> {
        let nl = core.netlist();
        let mut sim = Simulator::new(nl);
        sim.reset(nl);
        GateParwan {
            core,
            sim,
            mem: vec![0; 4096],
        }
    }

    /// Load a program image at address 0.
    pub fn load(&mut self, image: &[u8]) {
        self.mem[..image.len()].copy_from_slice(image);
    }

    /// One clock cycle.
    pub fn cycle(&mut self) -> BusCycle {
        let nl = self.core.netlist();
        let [early, late] = self.core.segments();
        self.sim.eval_segment(nl, early);
        let addr = (self.sim.output_word(nl, "mem_addr") & 0xFFF) as u16;
        let we = self.sim.output_word(nl, "mem_we") == 1;
        let wdata = self.sim.output_word(nl, "mem_wdata") as u8;
        let rdata = self.mem[addr as usize];
        if we {
            self.mem[addr as usize] = wdata;
        }
        self.sim.set_input_word(nl, "mem_rdata", rdata as u64);
        self.sim.eval_segment(nl, late);
        self.sim.clock(nl);
        BusCycle {
            addr,
            wdata,
            we,
            rdata,
        }
    }

    /// Run `n` cycles and return the bus trace.
    pub fn run(&mut self, n: usize) -> Vec<BusCycle> {
        (0..n).map(|_| self.cycle()).collect()
    }
}

/// The Parwan self-test bench the campaigns grade on: every lane is a
/// core with its own 4 KB, preloaded with `image` at address 0, and
/// divergence of the observed bus outputs from lane 0 is the detection.
/// A store cycle returns the old byte on `mem_rdata`
/// ([`StoreRead::Old`]), as the behavioural model does; detections
/// depend on this order (`PARWAN_READ_ORDER` in
/// `tests/scalar_oracle.rs` pins the faults whose detection it
/// changes).
pub fn self_test_bench<'a>(core: &'a ParwanCore, image: &[u8], budget: u64) -> MemBench<'a> {
    let nl = core.netlist();
    let mut tb = MemBench::new(nl, core.observed_outputs(), 4096, budget, StoreRead::Old);
    tb.load_image(0, image.iter().map(|&b| u32::from(b)));
    tb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, ProgramBuilder};
    use crate::model::ParwanModel;
    use crate::ParwanCore;

    /// Lock-step co-simulation: the gate-level core and the behavioural
    /// model must agree cycle by cycle on the bus.
    #[test]
    fn cosim_directed() {
        let core = ParwanCore::build();
        let mut p = ProgramBuilder::new();
        p.lda(0x100)
            .add(0x101)
            .sta(0x200)
            .sub(0x101)
            .sta(0x201)
            .and(0x102)
            .sta(0x202)
            .cla()
            .cma()
            .asl()
            .cmc()
            .asr()
            .sta(0x203);
        p.lda(0x100).sub(0x100).bra(Cond::Z, 0x030);
        p.sta(0x204);
        p.pad_to(0x030);
        let h = p.here();
        p.jmp(h);
        p.pad_to(0x100).byte(100).byte(58).byte(0xF0);
        let img = p.build();

        let mut gate = GateParwan::new(&core);
        gate.load(&img);
        let mut model = ParwanModel::new();
        let mut mem = vec![0u8; 4096];
        mem[..img.len()].copy_from_slice(&img);

        for c in 0..300 {
            let want = model.cycle(&mut mem);
            let got = gate.cycle();
            assert_eq!(got, want, "bus divergence at cycle {c}");
        }
        assert_eq!(gate.mem, mem, "memory images diverged");
    }

    /// Pseudo-random instruction streams (valid encodings only) must also
    /// agree — a broad equivalence sweep.
    #[test]
    fn cosim_randomized() {
        let core = ParwanCore::build();
        let mut state = 0x1357_9BDFu64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            state
        };
        for prog in 0..12 {
            let mut p = ProgramBuilder::new();
            for _ in 0..60 {
                let op = next() % 12;
                let addr = 0x300 + (next() % 0x80) as u16; // data window
                match op {
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
                        // Short forward branch within the page.
                        let here = p.here();
                        let tgt = (here + 2 + 2 * ((next() % 3) as u16 + 1)).min(0x2F0);
                        if tgt & 0xF00 == (here + 2) & 0xF00 {
                            p.bra(Cond(next() as u8 & 0xF), tgt);
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
                p.byte(next() as u8);
            }
            let img = p.build();

            let mut gate = GateParwan::new(&core);
            gate.load(&img);
            let mut model = ParwanModel::new();
            let mut mem = vec![0u8; 4096];
            mem[..img.len()].copy_from_slice(&img);
            for c in 0..500 {
                let want = model.cycle(&mut mem);
                let got = gate.cycle();
                assert_eq!(got, want, "prog {prog}: divergence at cycle {c}");
            }
        }
    }
}
