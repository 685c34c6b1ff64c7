//! The lockstep oracle: golden ISS vs 64-lane gate-level Plasma.
//!
//! [`PlasmaOracle::run`] executes one program on both models in lockstep.
//! Every clock cycle the ISS's bus transaction (address, write data,
//! write enable, byte enables) is compared against lane 0 of the
//! bit-parallel netlist simulator — the compiled engine the campaigns
//! grade on, at 64 lanes, its bus served by the same
//! [`fault::membench::MemBench`] the campaigns run, here returning the
//! old word on a store cycle as the ISS does. Lanes 1–63 may carry
//! injected stuck-at faults and are compared against lane 0 the same
//! way a fault-simulation campaign does, so one run yields both a
//! functional verdict (does the netlist implement the ISA?) and
//! per-fault detection localization (first divergent cycle per lane).

use fault::campaign::Testbench;
use fault::engine::EngineConfig;
use fault::membench::{MemBench, StoreRead};
use fault::model::Fault;
use fault::wave::WaveCapture;
use fault::wide::WideSim;
use mips::disasm::disassemble;
use mips::gen::{END_MAILBOX, END_MARKER};
use mips::isa::Reg;
use mips::iss::{BusCycle, Iss, Memory};
use mips::Program;
use plasma::PlasmaCore;
use sbst::provenance::GoldenTrace;

/// Knobs for one oracle run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleConfig {
    /// Bytes of memory behind both models (rounded up to a power of two).
    pub mem_bytes: usize,
    /// Hard cycle cap — a program that neither diverges nor reaches the
    /// end marker within this budget reports `golden_cycles: None`.
    pub max_cycles: u64,
    /// Extra cycles simulated after the golden end-marker store, so a
    /// faulty lane that falls behind (e.g. a corrupted branch) still gets
    /// a chance to diverge observably.
    pub drain_cycles: u64,
    /// Disassembly window radius (instructions either side of the
    /// divergent PC) in the report.
    pub window: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            mem_bytes: 64 * 1024,
            max_cycles: 40_000,
            drain_cycles: 64,
            window: 4,
        }
    }
}

/// Lane-0 bus values captured from the netlist on the divergent cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateBus {
    /// Byte address driven on the bus.
    pub addr: u32,
    /// Write data.
    pub wdata: u32,
    /// Write enable.
    pub we: bool,
    /// Byte enables.
    pub be: u8,
}

/// One line of the disassembled window around the divergent PC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowLine {
    /// Instruction address.
    pub addr: u32,
    /// Raw instruction word.
    pub word: u32,
    /// Disassembly text.
    pub text: String,
    /// Whether this is the instruction at the divergent PC.
    pub current: bool,
}

/// A word where the ISS memory and the gate-level lane-0 memory disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemDelta {
    /// Word-aligned byte address.
    pub addr: u32,
    /// ISS value.
    pub iss: u32,
    /// Gate-level value.
    pub gate: u32,
}

/// Structured report of an ISS-vs-netlist divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// First cycle on which the two models' bus transactions differ.
    pub cycle: u64,
    /// ISS program counter at that cycle.
    pub pc: u32,
    /// What the golden model drove.
    pub iss: BusCycle,
    /// What the netlist (lane 0) drove.
    pub gate: GateBus,
    /// Disassembled instructions around `pc`.
    pub window: Vec<WindowLine>,
    /// ISS architectural registers at the divergent cycle.
    pub regs: [u32; 32],
    /// ISS HI register.
    pub hi: u32,
    /// ISS LO register.
    pub lo: u32,
    /// Memory words on which the two models disagree (first divergences
    /// only, capped — see [`Divergence::MEM_DELTA_CAP`]).
    pub mem_delta: Vec<MemDelta>,
}

impl Divergence {
    /// Maximum number of differing memory words included in a report.
    pub const MEM_DELTA_CAP: usize = 32;

    /// Render the report as human-readable text.
    pub fn to_report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "ISS/netlist divergence at cycle {} (pc {:#010x})\n",
            self.cycle, self.pc
        ));
        s.push_str(&format!(
            "  iss : addr {:#010x} we {} be {:#06b} wdata {:#010x}\n",
            self.iss.addr, self.iss.we as u8, self.iss.be, self.iss.wdata
        ));
        s.push_str(&format!(
            "  gate: addr {:#010x} we {} be {:#06b} wdata {:#010x}\n",
            self.gate.addr, self.gate.we as u8, self.gate.be, self.gate.wdata
        ));
        s.push_str("  window:\n");
        for l in &self.window {
            let mark = if l.current { ">" } else { " " };
            s.push_str(&format!(
                "  {mark} {:#010x}: {:08x}  {}\n",
                l.addr, l.word, l.text
            ));
        }
        s.push_str("  registers:\n");
        for row in 0..8 {
            s.push_str("   ");
            for col in 0..4 {
                let r = Reg((row * 4 + col) as u8);
                s.push_str(&format!(" {:>5}={:08x}", r.abi_name(), self.regs[r.0 as usize]));
            }
            s.push('\n');
        }
        s.push_str(&format!("    hi={:08x} lo={:08x}\n", self.hi, self.lo));
        if !self.mem_delta.is_empty() {
            s.push_str(&format!(
                "  memory delta ({} word{}):\n",
                self.mem_delta.len(),
                if self.mem_delta.len() == 1 { "" } else { "s" }
            ));
            for d in &self.mem_delta {
                s.push_str(&format!(
                    "    {:#010x}: iss {:08x} gate {:08x}\n",
                    d.addr, d.iss, d.gate
                ));
            }
        }
        s
    }
}

/// Outcome of one lockstep run.
#[derive(Debug, Clone, PartialEq)]
pub struct LockstepReport {
    /// Cycles actually simulated.
    pub cycles: u64,
    /// Cycle count at which the ISS stored the end marker, or `None` if
    /// the budget ran out first.
    pub golden_cycles: Option<u64>,
    /// ISS-vs-lane-0 divergence, if any (the run stops there).
    pub divergence: Option<Divergence>,
    /// Per-lane first cycle on which the lane's observed bus outputs
    /// diverged from lane 0 (meaningful for lanes carrying faults).
    pub lane_first_div: [Option<u64>; 64],
    /// Per-cycle golden (pc, instruction) trace, for component
    /// attribution and detection localization.
    pub trace: GoldenTrace,
}

impl LockstepReport {
    /// True when neither the reference nor any faulty lane diverged.
    pub fn clean(&self) -> bool {
        self.divergence.is_none() && self.lane_first_div.iter().all(Option::is_none)
    }

    /// First divergence among the faulty lanes (1–63): `(lane, cycle)`.
    pub fn first_faulty_divergence(&self) -> Option<(usize, u64)> {
        self.lane_first_div
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(l, d)| d.map(|c| (l, c)))
            .min_by_key(|&(_, c)| c)
    }

    /// Whether the run counts as failing: the reference diverged from the
    /// ISS, or any injected fault was detected.
    pub fn diverged(&self) -> bool {
        self.divergence.is_some() || self.first_faulty_divergence().is_some()
    }
}

/// The reusable lockstep engine. Owns one 64-lane compiled simulator of
/// the core (the expensive part) and the memory bench that serves its
/// bus, so a fuzz or shrink loop pays the compile cost once.
pub struct PlasmaOracle<'a> {
    sim: WideSim,
    tb: MemBench<'a>,
    cfg: OracleConfig,
    /// Oracle invocations since construction (shrink-loop bookkeeping).
    pub runs: u64,
}

impl<'a> PlasmaOracle<'a> {
    /// Compile the oracle for a core. Like `Memory::access`, its bus
    /// returns the old word on a store cycle.
    pub fn new(core: &'a PlasmaCore, cfg: OracleConfig) -> PlasmaOracle<'a> {
        let segments = core.segments().map(<[u32]>::to_vec);
        let nl = core.netlist();
        let sim = EngineConfig::compiled(64).sim(nl, &segments);
        let observed = core.observed_outputs();
        let tb = MemBench::new(nl, observed, cfg.mem_bytes, cfg.max_cycles, StoreRead::Old);
        PlasmaOracle {
            sim,
            tb,
            cfg,
            runs: 0,
        }
    }

    /// The oracle's configuration.
    pub fn config(&self) -> &OracleConfig {
        &self.cfg
    }

    /// The gate-level simulator the oracle runs (its width is what run
    /// records name).
    pub fn sim(&self) -> &WideSim {
        &self.sim
    }

    /// Run `program` in lockstep, with `faults` injected into their lanes
    /// (lane 0 faults the reference itself — useful to demonstrate the
    /// divergence report; lanes 1–63 are graded against lane 0).
    pub fn run(&mut self, program: &Program, faults: &[(Fault, usize)]) -> LockstepReport {
        self.run_inner(program, faults, None)
    }

    /// [`PlasmaOracle::run`] with a waveform capture attached: every
    /// cycle (post-clock) lanes 0 and `faulty_lane` are sampled into
    /// `cap`, and the capture triggers on the first divergence — ISS vs
    /// lane 0, or any faulty lane vs lane 0. Unlike `run`, an ISS
    /// divergence does not stop the gate simulation immediately: it
    /// drains `cap`'s post-trigger window first (so `cycles` in the
    /// report includes those drain cycles). For a fault-free run pass
    /// `faulty_lane = 0`; the `faulty` and `diff` scopes are then flat
    /// and the `good` scope shows the gate machine around the
    /// divergence.
    pub fn run_wave(
        &mut self,
        program: &Program,
        faults: &[(Fault, usize)],
        cap: &mut WaveCapture,
        faulty_lane: usize,
    ) -> LockstepReport {
        self.run_inner(program, faults, Some((cap, faulty_lane)))
    }

    fn run_inner(
        &mut self,
        program: &Program,
        faults: &[(Fault, usize)],
        mut wave: Option<(&mut WaveCapture, usize)>,
    ) -> LockstepReport {
        self.runs += 1;
        self.tb.load_image(program.base, program.words.iter().copied());
        self.sim.clear_faults();
        for &(f, lane) in faults {
            self.sim.inject(f, lane);
        }
        self.sim.reset_state();
        self.tb.begin(&mut self.sim);

        let mut iss = Iss::new();
        let mut iss_mem = Memory::new(self.cfg.mem_bytes);
        iss_mem.load_program(program);

        let mut trace = GoldenTrace {
            pcs: Vec::new(),
            instrs: Vec::new(),
        };
        let mut lane_first_div = [None; 64];
        let mut golden_cycles = None;
        let mut divergence = None;
        let mut stop_at = self.cfg.max_cycles;
        let mut cycle = 0u64;

        while cycle < stop_at {
            let mut diff = [0u64];
            self.tb.step(&mut self.sim, cycle, &mut diff);
            let diff = diff[0];
            let tx = self.tb.lane0();
            let gate = GateBus {
                addr: tx.addr,
                wdata: tx.wdata,
                we: tx.we,
                be: tx.be,
            };

            let mut d = diff & !1;
            while d != 0 {
                let lane = d.trailing_zeros() as usize;
                if lane_first_div[lane].is_none() {
                    lane_first_div[lane] = Some(cycle);
                }
                d &= d - 1;
            }

            // The ISS only runs while the reference still tracks it; a
            // wave-attached run keeps simulating the gate machine after
            // an ISS divergence to fill the post-trigger window.
            let mut diverged_now = false;
            if divergence.is_none() {
                let pc = iss.pc();
                trace.pcs.push(pc);
                trace.instrs.push(iss_mem.read_word(pc));
                let want = iss.cycle(&mut iss_mem);

                if (gate.addr, gate.wdata, gate.we, gate.be)
                    != (want.addr, want.wdata, want.we, want.be)
                {
                    divergence = Some(self.capture(&iss, &iss_mem, cycle, pc, want, gate));
                    diverged_now = true;
                } else if golden_cycles.is_none()
                    && want.we
                    && want.be == 0b1111
                    && want.addr == END_MAILBOX
                    && want.wdata == END_MARKER
                {
                    golden_cycles = Some(cycle + 1);
                    stop_at = (cycle + 1 + self.cfg.drain_cycles).min(self.cfg.max_cycles);
                }
            }

            match &mut wave {
                Some((cap, faulty_lane)) => {
                    cap.record(&self.sim, cycle, *faulty_lane);
                    if diverged_now || diff & !1 != 0 {
                        cap.mark_trigger(cycle);
                    }
                    if cap.done(cycle) {
                        cycle += 1;
                        break;
                    }
                }
                None => {
                    if diverged_now {
                        cycle += 1;
                        break;
                    }
                }
            }
            cycle += 1;
        }

        LockstepReport {
            cycles: cycle,
            golden_cycles,
            divergence,
            lane_first_div,
            trace,
        }
    }

    fn capture(
        &self,
        iss: &Iss,
        iss_mem: &Memory,
        cycle: u64,
        pc: u32,
        want: BusCycle,
        gate: GateBus,
    ) -> Divergence {
        let w = self.cfg.window as i64;
        let mut window = Vec::new();
        for k in -w..=w {
            let addr = pc.wrapping_add((k * 4) as u32);
            if (addr as usize >> 2) >= self.tb.rows() {
                continue;
            }
            let word = iss_mem.read_word(addr);
            window.push(WindowLine {
                addr,
                word,
                text: disassemble(word, addr),
                current: k == 0,
            });
        }
        let mut regs = [0u32; 32];
        for (i, slot) in regs.iter_mut().enumerate() {
            *slot = iss.reg(Reg(i as u8));
        }
        let (hi, lo) = iss.hi_lo();
        let mut mem_delta = Vec::new();
        for i in 0..self.tb.rows() {
            let addr = (i * 4) as u32;
            let gv = self.tb.read(0, addr);
            let iv = iss_mem.read_word(addr);
            if gv != iv {
                mem_delta.push(MemDelta {
                    addr,
                    iss: iv,
                    gate: gv,
                });
                if mem_delta.len() >= Divergence::MEM_DELTA_CAP {
                    break;
                }
            }
        }
        Divergence {
            cycle,
            pc,
            iss: want,
            gate,
            window,
            regs,
            hi,
            lo,
            mem_delta,
        }
    }
}
