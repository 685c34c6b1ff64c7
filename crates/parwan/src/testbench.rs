//! Scalar and lane-parallel self-test testbenches for the Parwan-class
//! core.

use std::time::Instant;

use fault::campaign::Testbench;
use fault::sim::LaneSim;
use fault::wide::transpose_lanes_wide;
use netlist::sim::{CompiledOrder, Simulator};
use obs::{ProfilePhase, Profiler};

use crate::core::ParwanCore;
use crate::model::BusCycle;

/// Scalar gate-level testbench with 4 KB of memory.
pub struct GateParwan<'a> {
    core: &'a ParwanCore,
    sim: Simulator,
    /// Memory image (public for checking results).
    pub mem: Vec<u8>,
    early_prog: CompiledOrder,
    late_prog: CompiledOrder,
}

impl<'a> GateParwan<'a> {
    /// Core in reset with zeroed memory. Both evaluation segments are
    /// lowered to straight-line compiled programs once, here.
    pub fn new(core: &'a ParwanCore) -> GateParwan<'a> {
        let nl = core.netlist();
        let mut sim = Simulator::new(nl);
        sim.reset(nl);
        let [early, late] = core.segments();
        GateParwan {
            core,
            sim,
            mem: vec![0; 4096],
            early_prog: CompiledOrder::compile(nl, early),
            late_prog: CompiledOrder::compile(nl, late),
        }
    }

    /// Load a program image at address 0.
    pub fn load(&mut self, image: &[u8]) {
        self.mem[..image.len()].copy_from_slice(image);
    }

    /// One clock cycle.
    pub fn cycle(&mut self) -> BusCycle {
        let nl = self.core.netlist();
        self.sim.eval_compiled(&self.early_prog);
        let addr = (self.sim.output_word(nl, "mem_addr") & 0xFFF) as u16;
        let we = self.sim.output_word(nl, "mem_we") == 1;
        let wdata = self.sim.output_word(nl, "mem_wdata") as u8;
        let rdata = self.mem[addr as usize];
        if we {
            self.mem[addr as usize] = wdata;
        }
        self.sim.set_input_word(nl, "mem_rdata", rdata as u64);
        self.sim.eval_compiled(&self.late_prog);
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

/// Lane-parallel self-test bench: shared base image plus per-lane
/// overlays, divergence from lane 0 on the observed bus is the
/// detection. Drives any [`LaneSim`] engine; the overlays are strided by
/// the simulator's lane count at [`Testbench::begin`] and only grow, so
/// batches of alternating widths reuse one allocation.
pub struct ParwanSelfTestBench<'a> {
    core: &'a ParwanCore,
    base: Vec<u8>,
    lanes: usize,
    // Flat per-lane overlays with generation tags (see
    // `plasma::SelfTestBench`): entry `addr * lanes + lane` is live iff
    // its tag equals the current epoch, making `begin` O(1). Word-major,
    // so one cycle's clustered accesses share cache lines.
    ovl_vals: Vec<u8>,
    ovl_gens: Vec<u32>,
    gen: u32,
    // Addresses any lane wrote since `begin`, each listed once (see
    // `plasma::SelfTestBench`).
    rows: Vec<u16>,
    row_gens: Vec<u32>,
    budget: u64,
    scratch: Vec<u64>,
    bits: Vec<u64>,
    // Optional hot-loop self-profiler (see `with_profiler`).
    profiler: Profiler,
}

impl<'a> ParwanSelfTestBench<'a> {
    /// Create the bench with the program preloaded and a cycle budget.
    pub fn new(core: &'a ParwanCore, image: &[u8], budget: u64) -> ParwanSelfTestBench<'a> {
        let mut base = vec![0u8; 4096];
        base[..image.len()].copy_from_slice(image);
        ParwanSelfTestBench {
            core,
            base,
            lanes: 0,
            ovl_vals: Vec::new(),
            ovl_gens: Vec::new(),
            gen: 0,
            rows: Vec::new(),
            row_gens: vec![0; 4096],
            budget,
            scratch: Vec::new(),
            bits: Vec::new(),
            profiler: Profiler::disabled(),
        }
    }

    /// Attach a hot-loop self-profiler: each cycle's wall-time is split
    /// across the eval/overlay/detect/clock phases (see
    /// [`obs::ProfilePhase`]), matching the plasma bench's attribution.
    /// A disabled profiler (the default) keeps the untimed step path;
    /// detections are identical either way.
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    fn read(&self, lane: usize, addr: u16) -> u8 {
        let i = (addr & 0xFFF) as usize;
        let idx = i * self.lanes + lane;
        if self.ovl_gens[idx] == self.gen {
            self.ovl_vals[idx]
        } else {
            self.base[i]
        }
    }

    fn write(&mut self, lane: usize, addr: u16, wdata: u8) {
        let i = (addr & 0xFFF) as usize;
        let idx = i * self.lanes + lane;
        self.ovl_vals[idx] = wdata;
        self.ovl_gens[idx] = self.gen;
        if self.row_gens[i] != self.gen {
            self.row_gens[i] = self.gen;
            self.rows.push(i as u16);
        }
    }

    /// The per-lane memory transaction, one lane word at a time: read
    /// each lane's byte, then apply its store, and feed the transposed
    /// read data back in.
    fn mem_phase<S: LaneSim>(&mut self, sim: &mut S) {
        let nl = self.core.netlist();
        let addr_nets = nl.port("mem_addr");
        let wdata_nets = nl.port("mem_wdata");
        let we_net = nl.port("mem_we")[0];
        let w = sim.lane_words();
        let mut addr = [0u64; 64];
        let mut wdata = [0u64; 64];
        for t in 0..w {
            let we_lanes = sim.net_lanes_word(we_net, t);
            sim.lane_block(addr_nets, t, &mut addr);
            if we_lanes != 0 {
                sim.lane_block(wdata_nets, t, &mut wdata);
            }
            for b in 0..64 {
                let lane = (t << 6) + b;
                let a = (addr[b] & 0xFFF) as u16;
                // The read precedes the write, so a store cycle returns
                // the old byte on the bus (detections depend on this).
                self.scratch[lane] = self.read(lane, a) as u64;
                if (we_lanes >> b) & 1 == 1 {
                    self.write(lane, a, wdata[b] as u8);
                }
            }
        }
        transpose_lanes_wide(&self.scratch, 8, w, &mut self.bits);
        sim.set_port_bits(nl, "mem_rdata", &self.bits);
    }

    /// One cycle, untimed — the hot path when profiling is off.
    #[inline]
    fn step_plain<S: LaneSim>(&mut self, sim: &mut S, diff: &mut [u64]) {
        sim.eval_segment(0);
        self.mem_phase(sim);
        sim.diff_vs_lane0(self.core.observed_outputs(), diff);
        sim.eval_segment(1);
        sim.clock();
    }

    /// One cycle with manual `Instant` checkpoints between phases (one
    /// clock read per phase boundary, not a guard per phase).
    fn step_timed<S: LaneSim>(&mut self, sim: &mut S, diff: &mut [u64]) {
        let t0 = Instant::now();
        sim.eval_segment(0);
        let t1 = Instant::now();
        self.mem_phase(sim);
        let t2 = Instant::now();
        sim.diff_vs_lane0(self.core.observed_outputs(), diff);
        let t3 = Instant::now();
        sim.eval_segment(1);
        let t4 = Instant::now();
        sim.clock();
        let t5 = Instant::now();
        let p = &self.profiler;
        p.add_ns(ProfilePhase::EvalEarly, (t1 - t0).as_nanos() as u64);
        p.add_ns(ProfilePhase::Overlay, (t2 - t1).as_nanos() as u64);
        p.add_ns(ProfilePhase::Detect, (t3 - t2).as_nanos() as u64);
        p.add_ns(ProfilePhase::EvalLate, (t4 - t3).as_nanos() as u64);
        p.add_ns(ProfilePhase::Clock, (t5 - t4).as_nanos() as u64);
    }
}

impl<S: LaneSim> Testbench<S> for ParwanSelfTestBench<'_> {
    fn begin(&mut self, sim: &mut S) {
        // Entries of earlier batches carry older tags, so a new stride
        // needs no clearing.
        self.lanes = sim.lanes();
        if self.lanes * 4096 > self.ovl_vals.len() {
            self.ovl_vals.resize(self.lanes * 4096, 0);
            self.ovl_gens.resize(self.lanes * 4096, 0);
        }
        self.scratch.resize(self.lanes, 0);
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Tag wrap-around: stale tags could alias the new epoch, so
            // reset them all and restart at 1.
            self.ovl_gens.fill(0);
            self.row_gens.fill(0);
            self.gen = 1;
        }
        self.rows.clear();
    }

    fn step(&mut self, sim: &mut S, _cycle: u64, diff: &mut [u64]) {
        // One branch per cycle: the timed variant differs only in the
        // Instant checkpoints between phases, never in what it computes.
        if self.profiler.enabled() {
            self.step_timed(sim, diff);
        } else {
            self.step_plain(sim, diff);
        }
    }

    fn cycles(&self) -> u64 {
        self.budget
    }

    /// The lane's written bytes, each packed as `addr << 8 | value`, in
    /// the order addresses were first written since `begin` (see
    /// `plasma::SelfTestBench`).
    fn save_lane(&self, lane: usize, out: &mut Vec<u64>) {
        for &i in &self.rows {
            let idx = i as usize * self.lanes + lane;
            if self.ovl_gens[idx] == self.gen {
                out.push((i as u64) << 8 | self.ovl_vals[idx] as u64);
            }
        }
    }

    fn load_lane(&mut self, lane: usize, state: &[u64]) {
        for &p in state {
            self.write(lane, (p >> 8) as u16, p as u8);
        }
    }
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
