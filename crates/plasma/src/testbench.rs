//! Testbenches around the gate-level core: a scalar one for functional
//! runs and co-simulation, and the lane-parallel self-test bench — a
//! [`fault::membench::MemBench`] over the core's bus — that drives the
//! fault simulator.

use fault::engine::EngineConfig;
use fault::membench::{MemBench, StoreRead};
use mips::iss::{Bus, BusCycle, Memory};
use mips::Program;
use netlist::sim::Simulator;

use crate::PlasmaCore;

/// The gate-level CPU with an attached memory — the scalar, fault-free
/// testbench used for functional verification and ISS lock-step runs.
pub struct GateCpu<'a> {
    core: &'a PlasmaCore,
    sim: Simulator,
    mem: Memory,
    cycles: u64,
}

impl<'a> GateCpu<'a> {
    /// Create the testbench with `mem_bytes` of RAM, CPU in reset. Each
    /// cycle walks the core's two evaluation segments: the early one
    /// before the bus is served, the late one after `mem_rdata` is driven.
    pub fn new(core: &'a PlasmaCore, mem_bytes: usize) -> GateCpu<'a> {
        let nl = core.netlist();
        let mut sim = Simulator::new(nl);
        sim.reset(nl);
        GateCpu {
            core,
            sim,
            mem: Memory::new(mem_bytes),
            cycles: 0,
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
        let [early, late] = self.core.segments();
        self.sim.eval_segment(nl, early);
        let addr = self.sim.output_word(nl, "mem_addr") as u32;
        let we = self.sim.output_word(nl, "mem_we") == 1;
        let be = self.sim.output_word(nl, "mem_be") as u8;
        let wdata = self.sim.output_word(nl, "mem_wdata") as u32;
        let rdata = self.mem.access(addr, wdata, we, be);
        self.sim.set_input_word(nl, "mem_rdata", rdata as u64);
        self.sim.eval_segment(nl, late);
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

/// The Plasma self-test bench the campaigns grade on: every lane is a
/// core with its own `mem_bytes` of memory, preloaded with `program`,
/// and divergence of the observed bus outputs from lane 0 is the
/// detection — exactly what an external tester on the CPU bus sees
/// (paper, Figure 1). A store cycle returns the updated word on
/// `mem_rdata` ([`StoreRead::New`]), where `GateCpu`, the ISS and the
/// lockstep oracle return the old word. Detections depend on this order:
/// `plasma_campaign_matches_the_scalar_oracle` in `tests/scalar_oracle.rs`
/// pins it with the faults whose detection it changes.
pub fn self_test_bench<'a>(
    core: &'a PlasmaCore,
    program: &Program,
    mem_bytes: usize,
    budget: u64,
) -> MemBench<'a> {
    let nl = core.netlist();
    let mut tb = MemBench::new(nl, core.observed_outputs(), mem_bytes, budget, StoreRead::New);
    tb.load_image(program.base, program.words.iter().copied());
    tb
}

/// The self-test bench under the name the benchmark package builds its
/// forensics evidence bench by: [`SelfTestBench::new`] returns
/// [`self_test_bench`]'s [`MemBench`]. It only keeps that constructor
/// path working until the benchmark package calls [`self_test_bench`]
/// itself; nothing else calls it.
#[derive(Debug, Clone, Copy)]
pub struct SelfTestBench;

impl SelfTestBench {
    /// `self_test_bench(core, program, mem_bytes, budget)`.
    #[allow(clippy::new_ret_no_self)] // the name the benchmark package calls
    pub fn new<'a>(
        core: &'a PlasmaCore,
        program: &Program,
        mem_bytes: usize,
        budget: u64,
    ) -> MemBench<'a> {
        self_test_bench(core, program, mem_bytes, budget)
    }
}

/// Replay one fault of `program` with waveform capture: lane 0 runs the
/// fault-free core, lane 1 the faulty one, on the compiled engine at 64
/// lanes through the same [`self_test_bench`] the campaigns use — so the
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
    let mut tb = self_test_bench(core, program, mem_bytes, budget);
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

    /// The lane-parallel bench merges byte and halfword stores into a
    /// row under their byte enables, as the ISS memory behind `GateCpu`
    /// does, in every lane.
    #[test]
    fn self_test_bench_merges_partial_stores() {
        use fault::campaign::Testbench;

        let core = core();
        let p = assemble(
            r#"
                li  $t0, 0x11223344
                sw  $t0, 0x300($zero)
                li  $t1, 0xAB
                sb  $t1, 0x301($zero)
                li  $t2, 0xCDEF
                sh  $t2, 0x302($zero)
                sb  $t1, 0x304($zero)
                lw  $t3, 0x300($zero)
                sw  $t3, 0x308($zero)
            stop: b stop
                nop
            "#,
        )
        .unwrap();
        let cycles = 80;
        let mut cpu = GateCpu::new(&core, 4096);
        cpu.load_program(&p);
        cpu.run(cycles);
        let segments = core.segments().map(<[u32]>::to_vec);
        let mut sim = EngineConfig::compiled(64).sim(core.netlist(), &segments);
        let mut tb = self_test_bench(&core, &p, 4096, cycles);
        sim.reset_state();
        tb.begin(&mut sim);
        let mut diff = [0u64];
        for cycle in 0..cycles {
            tb.step(&mut sim, cycle, &mut diff);
        }
        assert_eq!(diff, [0], "no lane carries a fault");
        assert_eq!(cpu.read_word(0x300), 0xCDEF_AB44);
        for addr in [0x300, 0x304, 0x308] {
            for lane in [0, 63] {
                assert_eq!(tb.read(lane, addr), cpu.read_word(addr), "{addr:#x} lane {lane}");
            }
        }
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
