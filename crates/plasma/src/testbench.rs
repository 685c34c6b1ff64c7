//! Testbenches around the gate-level core: a scalar one for functional
//! runs and co-simulation, and one lane-parallel self-test bench that
//! drives either fault-simulation engine.

use std::time::Instant;

use fault::campaign::Testbench;
use fault::engine::EngineConfig;
use fault::sim::LaneSim;
use fault::wide::transpose_lanes_wide;
use mips::iss::{Bus, BusCycle, Memory};
use mips::Program;
use netlist::sim::{CompiledOrder, Simulator};
use obs::{ProfilePhase, Profiler};

use crate::PlasmaCore;

/// The gate-level CPU with an attached memory — the scalar, fault-free
/// testbench used for functional verification and ISS lock-step runs.
pub struct GateCpu<'a> {
    core: &'a PlasmaCore,
    sim: Simulator,
    mem: Memory,
    cycles: u64,
    early_prog: CompiledOrder,
    late_prog: CompiledOrder,
}

impl<'a> GateCpu<'a> {
    /// Create the testbench with `mem_bytes` of RAM, CPU in reset.
    /// Both evaluation segments are lowered to straight-line compiled
    /// programs once, here.
    pub fn new(core: &'a PlasmaCore, mem_bytes: usize) -> GateCpu<'a> {
        let nl = core.netlist();
        let mut sim = Simulator::new(nl);
        sim.reset(nl);
        let [early, late] = core.segments();
        GateCpu {
            core,
            sim,
            mem: Memory::new(mem_bytes),
            cycles: 0,
            early_prog: CompiledOrder::compile(nl, early),
            late_prog: CompiledOrder::compile(nl, late),
        }
    }

    /// Load a program image into memory.
    pub fn load_program(&mut self, program: &Program) {
        self.mem.load_program(program);
    }

    /// Read a memory word (for checking results).
    pub fn read_word(&self, addr: u32) -> u32 {
        self.mem.read_word(addr)
    }

    /// Write a memory word (for seeding test data).
    pub fn write_word(&mut self, addr: u32, value: u32) {
        self.mem.write_word(addr, value);
    }

    /// Total cycles executed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Execute one clock cycle and return the bus transaction.
    pub fn cycle(&mut self) -> BusCycle {
        let nl = self.core.netlist();
        self.sim.eval_compiled(&self.early_prog);
        let addr = self.sim.output_word(nl, "mem_addr") as u32;
        let we = self.sim.output_word(nl, "mem_we") == 1;
        let be = self.sim.output_word(nl, "mem_be") as u8;
        let wdata = self.sim.output_word(nl, "mem_wdata") as u32;
        let rdata = self.mem.access(addr, wdata, we, be);
        self.sim.set_input_word(nl, "mem_rdata", rdata as u64);
        self.sim.eval_compiled(&self.late_prog);
        self.sim.clock(nl);
        self.cycles += 1;
        BusCycle {
            addr,
            wdata,
            we,
            be,
            rdata,
        }
    }

    /// Run `n` cycles, returning the bus trace.
    pub fn run(&mut self, n: u64) -> Vec<BusCycle> {
        (0..n).map(|_| self.cycle()).collect()
    }

    /// Run until the end-of-test mailbox store (see
    /// [`mips::iss::Iss::run_until_store`]) or `max_cycles`.
    pub fn run_until_store(&mut self, addr: u32, marker: u32, max_cycles: u64) -> Vec<BusCycle> {
        let mut trace = Vec::new();
        for _ in 0..max_cycles {
            let c = self.cycle();
            let done = c.we && c.addr == addr && c.be == 0b1111 && c.wdata == marker;
            trace.push(c);
            if done {
                break;
            }
        }
        trace
    }
}

/// Row-block marker: no lane has written the row since `begin`.
const NO_BLOCK: u32 = u32::MAX;
/// Overlay entry flag: the lane wrote the row (the low 32 bits hold the
/// word).
const WRITTEN: u64 = 1 << 32;

/// The fault-simulation testbench: every lane is an independent faulty
/// processor with its own memory image (shared base + per-lane write
/// overlay). Divergence of the observed bus outputs from lane 0 is the
/// detection criterion — exactly what an external tester on the CPU bus
/// sees (paper, Figure 1). Drives any [`LaneSim`] engine; the overlay
/// blocks are sized from the simulator's lane count at
/// [`Testbench::begin`].
pub struct SelfTestBench<'a> {
    core: &'a PlasmaCore,
    base: Vec<u32>,
    mask: usize,
    lanes: usize,
    // Per-lane write overlays, one block of `lanes` entries per row that
    // some lane wrote since `begin`: `blocks[i]` is row i's block (or
    // NO_BLOCK), `rows[b]` is block b's row, in first-write order, and
    // entry `b * lanes + lane` is `WRITTEN | word` once that lane wrote
    // the row. Lanes mostly follow the golden instruction stream, so a
    // cycle's accesses cluster on a few rows whose entries share cache
    // lines. Memory grows with the rows written, not with lanes × the
    // address space, so the resident set stays small and steady however
    // the allocator serves it; `begin` and saving a lane cost O(rows
    // written).
    blocks: Vec<u32>,
    rows: Vec<u32>,
    ovl: Vec<u64>,
    budget: u64,
    rdata_scratch: Vec<u64>,
    bits_scratch: Vec<u64>,
    // Optional hot-loop self-profiler (see `with_profiler`).
    profiler: Profiler,
}

impl<'a> SelfTestBench<'a> {
    /// Create the bench: the program is preloaded into the shared base
    /// image; `budget` is the per-batch cycle count (golden run length
    /// plus margin).
    pub fn new(
        core: &'a PlasmaCore,
        program: &Program,
        mem_bytes: usize,
        budget: u64,
    ) -> SelfTestBench<'a> {
        let words = (mem_bytes.max(16) / 4).next_power_of_two();
        let mut base = vec![0u32; words];
        for (k, &w) in program.words.iter().enumerate() {
            base[((program.base as usize >> 2) + k) & (words - 1)] = w;
        }
        SelfTestBench {
            core,
            base,
            mask: words - 1,
            lanes: 0,
            blocks: vec![NO_BLOCK; words],
            rows: Vec::new(),
            ovl: Vec::new(),
            budget,
            rdata_scratch: Vec::new(),
            bits_scratch: Vec::new(),
            profiler: Profiler::disabled(),
        }
    }

    /// Attach a hot-loop self-profiler: each cycle's wall-time is split
    /// across the `eval_early`/`overlay`/`eval_late`/`detect`/`clock`
    /// phases (see [`obs::ProfilePhase`]). Share the same handle with
    /// `Telemetry.profiler` so the runner's `patch`/`reset` phases
    /// land in the same profile. A disabled profiler (the default)
    /// leaves the step loop at one extra branch per cycle — and the
    /// profiler never touches simulation state, so detections are
    /// identical either way.
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    fn read(&self, lane: usize, addr: u32) -> u32 {
        let i = (addr as usize >> 2) & self.mask;
        let b = self.blocks[i];
        if b != NO_BLOCK {
            let e = self.ovl[b as usize * self.lanes + lane];
            if e & WRITTEN != 0 {
                return e as u32;
            }
        }
        self.base[i]
    }

    fn write(&mut self, lane: usize, addr: u32, wdata: u32, be: u8) {
        let i = (addr as usize >> 2) & self.mask;
        let old = self.read(lane, addr);
        let mut m = 0u32;
        for b in 0..4 {
            if be & (1 << b) != 0 {
                m |= 0xFF << (8 * b);
            }
        }
        self.put(i, lane, (old & !m) | (wdata & m));
    }

    /// Store `value` into row `i` of lane `lane`'s overlay, giving the
    /// row its block on its first write since `begin`.
    fn put(&mut self, i: usize, lane: usize, value: u32) {
        let mut b = self.blocks[i];
        if b == NO_BLOCK {
            b = self.rows.len() as u32;
            self.blocks[i] = b;
            self.rows.push(i as u32);
            self.ovl.resize(self.ovl.len() + self.lanes, 0);
        }
        self.ovl[b as usize * self.lanes + lane] = WRITTEN | value as u64;
    }

    /// The memory phase of one cycle: per-lane overlay access for the
    /// address each lane drove, then transpose the read words back into
    /// bit-sliced form on the `mem_rdata` port. Bus values are gathered
    /// one lane word at a time through [`LaneSim::lane_block`] (a
    /// bit-matrix transpose), not one lane at a time; the write-data
    /// buses are only gathered for words with at least one store.
    #[inline]
    fn overlay_phase<S: LaneSim>(&mut self, sim: &mut S) {
        let nl = self.core.netlist();
        let addr_nets = nl.port("mem_addr");
        let wdata_nets = nl.port("mem_wdata");
        let we_net = nl.port("mem_we")[0];
        let be_nets = nl.port("mem_be");
        let w = sim.lane_words();
        let mut addr = [0u64; 64];
        let mut wdata = [0u64; 64];
        let mut be = [0u64; 64];
        for t in 0..w {
            let we_lanes = sim.net_lanes_word(we_net, t);
            sim.lane_block(addr_nets, t, &mut addr);
            if we_lanes != 0 {
                sim.lane_block(wdata_nets, t, &mut wdata);
                sim.lane_block(be_nets, t, &mut be);
            }
            for b in 0..64 {
                let lane = (t << 6) + b;
                let a = addr[b] as u32;
                if (we_lanes >> b) & 1 == 1 {
                    self.write(lane, a, wdata[b] as u32, be[b] as u8);
                }
                // The read follows the write, so a store cycle returns
                // the updated word on the bus. Detections depend on this
                // order (`GateCpu` and the difftest oracle return the
                // old word instead).
                self.rdata_scratch[lane] = self.read(lane, a) as u64;
            }
        }
        transpose_lanes_wide(&self.rdata_scratch, 32, w, &mut self.bits_scratch);
        sim.set_port_bits(nl, "mem_rdata", &self.bits_scratch);
    }

    /// One cycle, untimed — the hot path when profiling is off.
    #[inline]
    fn step_plain<S: LaneSim>(&mut self, sim: &mut S, diff: &mut [u64]) {
        sim.eval_segment(0);
        self.overlay_phase(sim);
        sim.eval_segment(1);
        sim.diff_vs_lane0(self.core.observed_outputs(), diff);
        sim.clock();
    }

    /// One cycle with manual `Instant` checkpoints between phases (one
    /// clock read per phase boundary, not a guard per phase).
    fn step_timed<S: LaneSim>(&mut self, sim: &mut S, diff: &mut [u64]) {
        let t0 = Instant::now();
        sim.eval_segment(0);
        let t1 = Instant::now();
        self.overlay_phase(sim);
        let t2 = Instant::now();
        sim.eval_segment(1);
        let t3 = Instant::now();
        sim.diff_vs_lane0(self.core.observed_outputs(), diff);
        let t4 = Instant::now();
        sim.clock();
        let t5 = Instant::now();
        let p = &self.profiler;
        p.add_ns(ProfilePhase::EvalEarly, (t1 - t0).as_nanos() as u64);
        p.add_ns(ProfilePhase::Overlay, (t2 - t1).as_nanos() as u64);
        p.add_ns(ProfilePhase::EvalLate, (t3 - t2).as_nanos() as u64);
        p.add_ns(ProfilePhase::Detect, (t4 - t3).as_nanos() as u64);
        p.add_ns(ProfilePhase::Clock, (t5 - t4).as_nanos() as u64);
    }
}

impl<S: LaneSim> Testbench<S> for SelfTestBench<'_> {
    fn begin(&mut self, sim: &mut S) {
        self.lanes = sim.lanes();
        self.rdata_scratch.resize(self.lanes, 0);
        for &i in &self.rows {
            self.blocks[i as usize] = NO_BLOCK;
        }
        self.rows.clear();
        self.ovl.clear();
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

    /// The lane's written words, each packed as `row << 32 | value`, in
    /// the order rows were first written since `begin` — the same for
    /// every lane, so lanes with equal overlays save equal states.
    fn save_lane(&self, lane: usize, out: &mut Vec<u64>) {
        for (b, &i) in self.rows.iter().enumerate() {
            let e = self.ovl[b * self.lanes + lane];
            if e & WRITTEN != 0 {
                out.push((i as u64) << 32 | (e as u32) as u64);
            }
        }
    }

    fn load_lane(&mut self, lane: usize, state: &[u64]) {
        for &p in state {
            self.put((p >> 32) as usize, lane, p as u32);
        }
    }
}

/// Replay one fault of `program` with waveform capture: lane 0 runs the
/// fault-free core, lane 1 the faulty one, on the compiled engine at 64
/// lanes through the same [`SelfTestBench`] the campaigns use — so the
/// detection verdict (and cycle) matches the campaign bit for bit while
/// every probed net is recorded. Probe specs follow [`netlist::wave::Probe::from_spec`]
/// (component names or port globs; empty = full probe).
pub fn capture_fault_wave(
    core: &PlasmaCore,
    program: &Program,
    mem_bytes: usize,
    budget: u64,
    f: fault::Fault,
    opts: &fault::wave::WaveOptions,
) -> Result<fault::wave::CapturedWave, String> {
    let probe = netlist::wave::Probe::from_spec(core.netlist(), &opts.probe)?;
    let segments = core.segments().map(<[u32]>::to_vec);
    let mut sim = EngineConfig::compiled(64).sim(core.netlist(), &segments);
    let mut tb = SelfTestBench::new(core, program, mem_bytes, budget);
    Ok(fault::wave::capture_fault(&mut sim, &mut tb, probe, f, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlasmaConfig, PlasmaCore};
    use mips::asm::assemble;

    fn core() -> PlasmaCore {
        PlasmaCore::build(PlasmaConfig::default())
    }

    #[test]
    fn gate_cpu_runs_arithmetic() {
        let core = core();
        let p = assemble(
            r#"
                li   $t0, 1000
                li   $t1, -58
                addu $t2, $t0, $t1
                sw   $t2, 0x200($zero)
                slt  $t3, $t1, $t0
                sw   $t3, 0x204($zero)
            stop: b stop
                nop
            "#,
        )
        .unwrap();
        let mut cpu = GateCpu::new(&core, 4096);
        cpu.load_program(&p);
        cpu.run(40);
        assert_eq!(cpu.read_word(0x200), 942);
        assert_eq!(cpu.read_word(0x204), 1);
    }

    #[test]
    fn gate_cpu_branches_and_loops() {
        // Sum 1..=10 with a loop.
        let core = core();
        let p = assemble(
            r#"
                li   $t0, 10
                li   $t1, 0
            loop:
                addu $t1, $t1, $t0
                addiu $t0, $t0, -1
                bnez $t0, loop
                nop
                sw   $t1, 0x100($zero)
            stop: b stop
                nop
            "#,
        )
        .unwrap();
        let mut cpu = GateCpu::new(&core, 4096);
        cpu.load_program(&p);
        cpu.run(100);
        assert_eq!(cpu.read_word(0x100), 55);
    }

    #[test]
    fn gate_cpu_memory_ops() {
        let core = core();
        let p = assemble(
            r#"
                li  $t0, 0x80FF7F01
                sw  $t0, 0x300($zero)
                lb  $s0, 0x303($zero)
                sb  $s0, 0x304($zero)
                lhu $s1, 0x302($zero)
                sw  $s1, 0x308($zero)
            stop: b stop
                nop
            "#,
        )
        .unwrap();
        let mut cpu = GateCpu::new(&core, 4096);
        cpu.load_program(&p);
        cpu.run(60);
        assert_eq!(cpu.read_word(0x304) & 0xFF, 0x80);
        assert_eq!(cpu.read_word(0x308), 0x80FF);
    }

    #[test]
    fn gate_cpu_mult_div() {
        let core = core();
        let p = assemble(
            r#"
                li   $t0, -6
                li   $t1, 7
                mult $t0, $t1
                mflo $t2
                sw   $t2, 0x100($zero)
                li   $t3, 100
                li   $t4, 7
                divu $t3, $t4
                mflo $t5
                mfhi $t6
                sw   $t5, 0x104($zero)
                sw   $t6, 0x108($zero)
            stop: b stop
                nop
            "#,
        )
        .unwrap();
        let mut cpu = GateCpu::new(&core, 4096);
        cpu.load_program(&p);
        cpu.run(200);
        assert_eq!(cpu.read_word(0x100) as i32, -42);
        assert_eq!(cpu.read_word(0x104), 14);
        assert_eq!(cpu.read_word(0x108), 2);
    }

    #[test]
    fn gate_cpu_jal_jr() {
        let core = core();
        let p = assemble(
            r#"
                jal  f
                nop
                sw   $v0, 0x100($zero)
            stop: b stop
                nop
            f:
                li   $v0, 321
                jr   $ra
                nop
            "#,
        )
        .unwrap();
        let mut cpu = GateCpu::new(&core, 4096);
        cpu.load_program(&p);
        cpu.run(60);
        assert_eq!(cpu.read_word(0x100), 321);
    }
}
