//! Cycle-accurate instruction-set simulator (the golden reference).
//!
//! [`Iss::cycle`] advances the pipeline model by exactly one clock and
//! returns the bus transaction performed, following the microarchitectural
//! contract in the [crate docs](crate). The gate-level core in the
//! `plasma` crate is co-simulated against this model in lock-step.

use crate::isa::{Instr, Op, Reg, NOP};
use crate::Program;

/// One clock cycle's bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusCycle {
    /// Byte address driven on the bus.
    pub addr: u32,
    /// Write data (meaningful only when `we`).
    pub wdata: u32,
    /// Write enable.
    pub we: bool,
    /// Byte enables, bit 0 = byte lanes 7:0 (little-endian).
    pub be: u8,
    /// Data returned by the memory this cycle.
    pub rdata: u32,
}

/// Memory attached to the CPU bus.
pub trait Bus {
    /// Perform one access: returns the word at `addr` and, when `we`,
    /// updates the bytes selected by `be` with `wdata`.
    fn access(&mut self, addr: u32, wdata: u32, we: bool, be: u8) -> u32;
}

/// A flat little-endian word memory with power-of-two size; addresses
/// wrap.
#[derive(Debug, Clone)]
pub struct Memory {
    words: Vec<u32>,
    mask: usize,
}

impl Memory {
    /// Create a memory of `bytes` bytes (rounded up to a power of two,
    /// minimum 16 bytes).
    pub fn new(bytes: usize) -> Memory {
        let words = (bytes.max(16) / 4).next_power_of_two();
        Memory {
            words: vec![0; words],
            mask: words - 1,
        }
    }

    /// Load a program image at its base address.
    pub fn load_program(&mut self, program: &Program) {
        for (k, &w) in program.words.iter().enumerate() {
            self.write_word(program.base + 4 * k as u32, w);
        }
    }

    /// Read an aligned word.
    pub fn read_word(&self, addr: u32) -> u32 {
        self.words[(addr as usize >> 2) & self.mask]
    }

    /// Write an aligned word.
    pub fn write_word(&mut self, addr: u32, value: u32) {
        self.words[(addr as usize >> 2) & self.mask] = value;
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }
}

impl Bus for Memory {
    fn access(&mut self, addr: u32, wdata: u32, we: bool, be: u8) -> u32 {
        let i = (addr as usize >> 2) & self.mask;
        let old = self.words[i];
        if we {
            let mut m = 0u32;
            for b in 0..4 {
                if be & (1 << b) != 0 {
                    m |= 0xFF << (8 * b);
                }
            }
            self.words[i] = (old & !m) | (wdata & m);
        }
        old
    }
}

/// Latency of the sequential multiply/divide unit in clocks.
pub const MULDIV_CYCLES: u32 = 32;

/// Bit-exact model of the hardware multiplier: 32-step shift-add on
/// magnitudes with a sign fix-up, as the gate-level unit computes it.
pub fn muldiv_mult(a: u32, b: u32, signed: bool) -> (u32, u32) {
    let (mag_a, mag_b, negate) = if signed {
        let na = (a as i32) < 0;
        let nb = (b as i32) < 0;
        (
            (a as i32).unsigned_abs(),
            (b as i32).unsigned_abs(),
            na ^ nb,
        )
    } else {
        (a, b, false)
    };
    let mut p = (mag_a as u64) * (mag_b as u64);
    if negate {
        p = p.wrapping_neg();
    }
    ((p >> 32) as u32, p as u32)
}

/// Bit-exact model of the hardware restoring divider. Returns
/// `(remainder, quotient)` — i.e. `(HI, LO)`.
///
/// Division by zero follows the restoring-array result: quotient all ones
/// on the magnitude path, remainder equal to the dividend magnitude, then
/// the usual sign fix-ups (quotient negated when operand signs differ,
/// remainder takes the dividend's sign).
pub fn muldiv_div(num: u32, den: u32, signed: bool) -> (u32, u32) {
    let (mag_n, mag_d, neg_q, neg_r) = if signed {
        let nn = (num as i32) < 0;
        let nd = (den as i32) < 0;
        (
            (num as i32).unsigned_abs(),
            (den as i32).unsigned_abs(),
            nn ^ nd,
            nn,
        )
    } else {
        (num, den, false, false)
    };
    // Restoring division, 32 steps.
    let mut rem: u64 = 0;
    let mut quot: u32 = 0;
    for step in (0..32).rev() {
        rem = (rem << 1) | ((mag_n >> step) & 1) as u64;
        quot <<= 1;
        if rem >= mag_d as u64 && mag_d != 0 {
            rem -= mag_d as u64;
            quot |= 1;
        } else if mag_d == 0 {
            // Subtracting zero always "succeeds" in the array.
            quot |= 1;
        }
    }
    let mut q = quot;
    let mut r = rem as u32;
    if neg_q {
        q = q.wrapping_neg();
    }
    if neg_r {
        r = r.wrapping_neg();
    }
    (r, q)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Fetch,
    Mem,
}

#[derive(Debug, Clone, Copy, Default)]
struct MemStage {
    addr: u32,
    wdata: u32,
    we: bool,
    be: u8,
    load_op: Option<Op>,
    dest: Reg,
}

/// The cycle-accurate CPU model. See the crate docs for the pipeline
/// contract.
#[derive(Debug, Clone)]
pub struct Iss {
    /// General-purpose registers (`regs[0]` stays zero).
    regs: [u32; 32],
    pc: u32,
    ir: u32,
    epc: u32,
    state: State,
    mem_stage: MemStage,
    hi: u32,
    lo: u32,
    busy: u32,
    cycles: u64,
}

impl Default for Iss {
    fn default() -> Self {
        Self::new()
    }
}

impl Iss {
    /// A CPU in the reset state.
    pub fn new() -> Iss {
        Iss {
            regs: [0; 32],
            pc: 0,
            ir: NOP,
            epc: 0,
            state: State::Fetch,
            mem_stage: MemStage::default(),
            hi: 0,
            lo: 0,
            busy: 0,
            cycles: 0,
        }
    }

    /// Read a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[(r.0 & 31) as usize]
    }

    /// Write a register (`$0` writes are ignored).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r.0 != 0 {
            self.regs[(r.0 & 31) as usize] = v;
        }
    }

    /// Current `HI`/`LO`.
    pub fn hi_lo(&self) -> (u32, u32) {
        (self.hi, self.lo)
    }

    /// Address of the next fetch.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Total clock cycles executed since reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Advance exactly one clock cycle.
    pub fn cycle(&mut self, bus: &mut impl Bus) -> BusCycle {
        let out = match self.state {
            State::Fetch => self.cycle_fetch(bus),
            State::Mem => self.cycle_mem(bus),
        };
        self.busy = self.busy.saturating_sub(1);
        self.cycles += 1;
        out
    }

    fn cycle_fetch(&mut self, bus: &mut impl Bus) -> BusCycle {
        let fetch_addr = self.pc;
        let rdata = bus.access(fetch_addr, 0, false, 0);
        let i = Instr::decode(self.ir);

        let stall = matches!(i.op, Some(Op::Mfhi | Op::Mflo)) && self.busy > 0;
        if stall {
            return BusCycle {
                addr: fetch_addr,
                wdata: 0,
                we: false,
                be: 0,
                rdata,
            };
        }

        let rs = self.reg(i.rs);
        let rt = self.reg(i.rt);
        let simm = i.imm as i16 as i32 as u32;
        let link = self.epc.wrapping_add(8);
        let seq = self.epc.wrapping_add(4);
        let mut next_pc = self.pc.wrapping_add(4);
        let mut goto_mem = false;

        if let Some(op) = i.op {
            match op {
                Op::Sll => self.set_reg(i.rd, rt << i.shamt),
                Op::Srl => self.set_reg(i.rd, rt >> i.shamt),
                Op::Sra => self.set_reg(i.rd, ((rt as i32) >> i.shamt) as u32),
                Op::Sllv => self.set_reg(i.rd, rt << (rs & 31)),
                Op::Srlv => self.set_reg(i.rd, rt >> (rs & 31)),
                Op::Srav => self.set_reg(i.rd, ((rt as i32) >> (rs & 31)) as u32),
                // The PC register only holds bits [31:2]; unaligned jump
                // targets are truncated (no address-error exceptions).
                Op::Jr => next_pc = rs & !3,
                Op::Jalr => {
                    self.set_reg(i.rd, link);
                    next_pc = rs & !3;
                }
                Op::Mfhi => self.set_reg(i.rd, self.hi),
                Op::Mflo => self.set_reg(i.rd, self.lo),
                Op::Mthi => self.hi = rs,
                Op::Mtlo => self.lo = rs,
                Op::Mult | Op::Multu => {
                    let (h, l) = muldiv_mult(rs, rt, op == Op::Mult);
                    self.hi = h;
                    self.lo = l;
                    self.busy = MULDIV_CYCLES + 1; // decremented at cycle end
                }
                Op::Div | Op::Divu => {
                    let (h, l) = muldiv_div(rs, rt, op == Op::Div);
                    self.hi = h;
                    self.lo = l;
                    self.busy = MULDIV_CYCLES + 1;
                }
                // add/sub trap variants behave as unsigned (no exceptions).
                Op::Add | Op::Addu => self.set_reg(i.rd, rs.wrapping_add(rt)),
                Op::Sub | Op::Subu => self.set_reg(i.rd, rs.wrapping_sub(rt)),
                Op::And => self.set_reg(i.rd, rs & rt),
                Op::Or => self.set_reg(i.rd, rs | rt),
                Op::Xor => self.set_reg(i.rd, rs ^ rt),
                Op::Nor => self.set_reg(i.rd, !(rs | rt)),
                Op::Slt => self.set_reg(i.rd, ((rs as i32) < (rt as i32)) as u32),
                Op::Sltu => self.set_reg(i.rd, (rs < rt) as u32),
                Op::Addi | Op::Addiu => self.set_reg(i.rt, rs.wrapping_add(simm)),
                Op::Slti => self.set_reg(i.rt, ((rs as i32) < (simm as i32)) as u32),
                Op::Sltiu => self.set_reg(i.rt, (rs < simm) as u32),
                Op::Andi => self.set_reg(i.rt, rs & i.imm as u32),
                Op::Ori => self.set_reg(i.rt, rs | i.imm as u32),
                Op::Xori => self.set_reg(i.rt, rs ^ i.imm as u32),
                Op::Lui => self.set_reg(i.rt, (i.imm as u32) << 16),
                Op::Beq
                | Op::Bne
                | Op::Blez
                | Op::Bgtz
                | Op::Bltz
                | Op::Bgez
                | Op::Bltzal
                | Op::Bgezal => {
                    let taken = match op {
                        Op::Beq => rs == rt,
                        Op::Bne => rs != rt,
                        Op::Blez => (rs as i32) <= 0,
                        Op::Bgtz => (rs as i32) > 0,
                        Op::Bltz | Op::Bltzal => (rs as i32) < 0,
                        Op::Bgez | Op::Bgezal => (rs as i32) >= 0,
                        _ => unreachable!(),
                    };
                    if matches!(op, Op::Bltzal | Op::Bgezal) {
                        // MIPS I links unconditionally.
                        self.set_reg(Reg::RA, link);
                    }
                    if taken {
                        next_pc = seq.wrapping_add(simm << 2);
                    }
                }
                Op::J => next_pc = (seq & 0xF000_0000) | (i.target << 2),
                Op::Jal => {
                    self.set_reg(Reg::RA, link);
                    next_pc = (seq & 0xF000_0000) | (i.target << 2);
                }
                Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw | Op::Sb | Op::Sh | Op::Sw => {
                    let addr = rs.wrapping_add(simm);
                    let lo2 = (addr & 3) as u8;
                    let (we, be, wdata) = match op {
                        Op::Sb => (true, 1u8 << lo2, (rt & 0xFF).wrapping_mul(0x0101_0101)),
                        Op::Sh => (
                            true,
                            0b11 << (lo2 & 2),
                            (rt & 0xFFFF).wrapping_mul(0x0001_0001),
                        ),
                        Op::Sw => (true, 0b1111, rt),
                        _ => (false, 0, 0),
                    };
                    self.mem_stage = MemStage {
                        addr,
                        wdata,
                        we,
                        be,
                        load_op: if op.is_load() { Some(op) } else { None },
                        dest: i.rt,
                    };
                    goto_mem = true;
                }
            }
        }

        self.ir = rdata;
        self.epc = fetch_addr;
        self.pc = next_pc;
        if goto_mem {
            self.state = State::Mem;
        }
        BusCycle {
            addr: fetch_addr,
            wdata: 0,
            we: false,
            be: 0,
            rdata,
        }
    }

    fn cycle_mem(&mut self, bus: &mut impl Bus) -> BusCycle {
        let m = self.mem_stage;
        let rdata = bus.access(m.addr, m.wdata, m.we, m.be);
        if let Some(op) = m.load_op {
            let lo2 = (m.addr & 3) as u8;
            let v = match op {
                Op::Lw => rdata,
                Op::Lh | Op::Lhu => {
                    let half = (rdata >> (8 * (lo2 & 2))) & 0xFFFF;
                    if op == Op::Lh {
                        half as u16 as i16 as i32 as u32
                    } else {
                        half
                    }
                }
                Op::Lb | Op::Lbu => {
                    let byte = (rdata >> (8 * lo2)) & 0xFF;
                    if op == Op::Lb {
                        byte as u8 as i8 as i32 as u32
                    } else {
                        byte
                    }
                }
                _ => unreachable!("store in load slot"),
            };
            self.set_reg(m.dest, v);
        }
        self.state = State::Fetch;
        BusCycle {
            addr: m.addr,
            wdata: m.wdata,
            we: m.we,
            be: m.be,
            rdata,
        }
    }

    /// Run `cycles` clocks, collecting the bus trace.
    pub fn run(&mut self, bus: &mut impl Bus, cycles: u64) -> Vec<BusCycle> {
        (0..cycles).map(|_| self.cycle(bus)).collect()
    }

    /// Run until the CPU stores `marker` to `addr` (the self-test
    /// programs' end-of-test mailbox write) or `max_cycles` elapse.
    /// Returns the trace; the last entry is the marker store if it was
    /// reached.
    pub fn run_until_store(
        &mut self,
        bus: &mut impl Bus,
        addr: u32,
        marker: u32,
        max_cycles: u64,
    ) -> Vec<BusCycle> {
        let mut trace = Vec::new();
        for _ in 0..max_cycles {
            let c = self.cycle(bus);
            let done = c.we && c.addr == addr && c.be == 0b1111 && c.wdata == marker;
            trace.push(c);
            if done {
                break;
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_asm(src: &str, cycles: u64) -> (Iss, Memory, Vec<BusCycle>) {
        let p = assemble(src).expect("assembles");
        let mut mem = Memory::new(64 * 1024);
        mem.load_program(&p);
        let mut cpu = Iss::new();
        let trace = cpu.run(&mut mem, cycles);
        (cpu, mem, trace)
    }

    #[test]
    fn arithmetic_and_store() {
        let (_, mem, _) = run_asm(
            r#"
                li $t0, 1000
                li $t1, -58
                addu $t2, $t0, $t1
                sw  $t2, 0x200($zero)
                subu $t3, $t0, $t1
                sw  $t3, 0x204($zero)
            stop: b stop
                nop
            "#,
            60,
        );
        assert_eq!(mem.read_word(0x200), 942);
        assert_eq!(mem.read_word(0x204), 1058);
    }

    #[test]
    fn branch_delay_slot_executes() {
        let (_, mem, _) = run_asm(
            r#"
                li  $t0, 1
                b   skip
                li  $t1, 2      # delay slot: must execute
                li  $t2, 3      # must be skipped
            skip:
                sw  $t1, 0x100($zero)
                sw  $t2, 0x104($zero)
            stop: b stop
                nop
            "#,
            40,
        );
        assert_eq!(mem.read_word(0x100), 2, "delay slot executed");
        assert_eq!(mem.read_word(0x104), 0, "skipped instruction not executed");
    }

    #[test]
    fn load_byte_halfword_sign_extension() {
        let (cpu, _, _) = run_asm(
            r#"
                li  $t0, 0x80FF7F01
                sw  $t0, 0x300($zero)
                lb  $s0, 0x300($zero)   # 0x01 -> 1
                lb  $s1, 0x303($zero)   # 0x80 -> -128
                lbu $s2, 0x302($zero)   # 0xFF -> 255
                lh  $s3, 0x300($zero)   # 0x7F01
                lh  $s4, 0x302($zero)   # 0x80FF -> sign-extended
                lhu $s5, 0x302($zero)   # 0x80FF
            stop: b stop
                nop
            "#,
            60,
        );
        assert_eq!(cpu.reg(Reg(16)), 1);
        assert_eq!(cpu.reg(Reg(17)), 0x80u8 as i8 as i32 as u32);
        assert_eq!(cpu.reg(Reg(18)), 0xFF);
        assert_eq!(cpu.reg(Reg(19)), 0x7F01);
        assert_eq!(cpu.reg(Reg(20)), 0x80FFu16 as i16 as i32 as u32);
        assert_eq!(cpu.reg(Reg(21)), 0x80FF);
    }

    #[test]
    fn store_byte_lanes() {
        let (_, mem, _) = run_asm(
            r#"
                li $t0, 0x11111111
                sw $t0, 0x400($zero)
                li $t1, 0xAB
                sb $t1, 0x401($zero)
                li $t2, 0xCDEF
                sh $t2, 0x402($zero)
            stop: b stop
                nop
            "#,
            60,
        );
        assert_eq!(mem.read_word(0x400), 0xCDEF_AB11);
    }

    #[test]
    fn mult_stall_and_result() {
        let p = assemble(
            r#"
                li   $t0, -6
                li   $t1, 7
                mult $t0, $t1
                mflo $t2
                mfhi $t3
                sw   $t2, 0x100($zero)
                sw   $t3, 0x104($zero)
            stop: b stop
                nop
            "#,
        )
        .unwrap();
        let mut mem = Memory::new(64 * 1024);
        mem.load_program(&p);
        let mut cpu = Iss::new();
        let trace = cpu.run_until_store(&mut mem, 0x104, 0xFFFF_FFFF, 300);
        assert_eq!(mem.read_word(0x100), (-42i32) as u32);
        assert_eq!(mem.read_word(0x104), 0xFFFF_FFFF); // sign bits of hi
                                                       // The mflo must have stalled: total cycles well beyond the
                                                       // instruction count.
        assert!(
            trace.len() as u64 > MULDIV_CYCLES as u64,
            "no stall observed ({} cycles)",
            trace.len()
        );
    }

    #[test]
    fn division_signs_and_zero() {
        for (n, d, q, r) in [
            (43i32, 5i32, 8i32, 3i32),
            (-43, 5, -8, -3),
            (43, -5, -8, 3),
            (-43, -5, 8, -3),
            (7, 0, -1, 7), // division by zero: all-ones quotient path
        ] {
            let (hi, lo) = muldiv_div(n as u32, d as u32, true);
            if d != 0 {
                assert_eq!(lo as i32, q, "{n}/{d} quotient");
                assert_eq!(hi as i32, r, "{n}/{d} remainder");
            } else {
                assert_eq!(lo, 0xFFFF_FFFF);
                assert_eq!(hi as i32, r);
            }
        }
        let (hi, lo) = muldiv_div(100, 7, false);
        assert_eq!((hi, lo), (2, 14));
        let (hi, lo) = muldiv_div(0xFFFF_FFFF, 1, false);
        assert_eq!((hi, lo), (0, 0xFFFF_FFFF));
    }

    #[test]
    fn mult_corner_cases() {
        assert_eq!(
            muldiv_mult(0xFFFF_FFFF, 0xFFFF_FFFF, false),
            (0xFFFF_FFFE, 1)
        );
        assert_eq!(muldiv_mult(0xFFFF_FFFF, 0xFFFF_FFFF, true), (0, 1)); // -1 * -1
        assert_eq!(muldiv_mult(0x8000_0000, 2, true), (0xFFFF_FFFF, 0)); // INT_MIN * 2
        assert_eq!(muldiv_mult(0, 12345, true), (0, 0));
    }

    #[test]
    fn jal_links_past_delay_slot() {
        let (cpu, mem, _) = run_asm(
            r#"
                jal  func
                li   $t0, 9       # delay slot
                sw   $t0, 0x100($zero)
                sw   $v0, 0x104($zero)
            stop: b stop
                nop
            func:
                li   $v0, 77
                jr   $ra
                nop
            "#,
            80,
        );
        assert_eq!(mem.read_word(0x100), 9, "delay slot ran before call");
        assert_eq!(mem.read_word(0x104), 77, "returned past the delay slot");
        let _ = cpu;
    }

    #[test]
    fn regimm_branches_and_link() {
        let (cpu, mem, _) = run_asm(
            r#"
                li     $t0, -5
                bltzal $t0, neg
                nop
                sw     $zero, 0x200($zero)
            stop: b stop
                nop
            neg:
                li     $t1, 1
                sw     $t1, 0x204($zero)
                jr     $ra
                nop
            "#,
            80,
        );
        assert_eq!(mem.read_word(0x204), 1, "bltzal taken");
        assert_eq!(mem.read_word(0x200), 0, "fallthrough happens after return");
        assert_ne!(cpu.reg(Reg::RA), 0, "link register written");
    }

    #[test]
    fn loads_take_an_extra_cycle() {
        // N back-to-back ALU ops: ~1 cycle each. Loads: 2 cycles each.
        let p1 =
            assemble("addu $1,$2,$3\naddu $4,$5,$6\naddu $7,$8,$9\nstop: b stop\nnop").unwrap();
        let p2 =
            assemble("lw $1,0($zero)\nlw $4,0($zero)\nlw $7,0($zero)\nstop: b stop\nnop").unwrap();
        let count = |p: &crate::Program| {
            let mut mem = Memory::new(4096);
            mem.load_program(p);
            let mut cpu = Iss::new();
            let mut fetches_of_stop = 0u64;
            let stop = p.symbol("stop").unwrap();
            for c in 0..100 {
                let bc = cpu.cycle(&mut mem);
                if !bc.we && bc.addr == stop {
                    fetches_of_stop = c;
                    break;
                }
            }
            fetches_of_stop
        };
        let alu = count(&p1);
        let ld = count(&p2);
        // Each load inserts one M cycle; the third load's M cycle happens
        // after `stop` has already been fetched, so the fetch of `stop` is
        // delayed by exactly two cycles.
        assert_eq!(ld, alu + 2, "each load adds exactly one M cycle");
    }

    #[test]
    fn sltiu_sign_extends_then_compares_unsigned() {
        let (cpu, _, _) = run_asm(
            r#"
                li    $t0, 5
                sltiu $t1, $t0, -1     # -1 -> 0xFFFFFFFF unsigned: 5 < max
                slti  $t2, $t0, -1     # signed: 5 < -1 is false
            stop: b stop
                nop
            "#,
            40,
        );
        assert_eq!(cpu.reg(Reg(9)), 1);
        assert_eq!(cpu.reg(Reg(10)), 0);
    }

    #[test]
    fn r0_stays_zero() {
        let (cpu, _, _) = run_asm(
            r#"
                li   $zero, 0x1234
                addu $zero, $t0, $t1
                lw   $zero, 0($zero)
            stop: b stop
                nop
            "#,
            40,
        );
        assert_eq!(cpu.reg(Reg::ZERO), 0);
    }
}
