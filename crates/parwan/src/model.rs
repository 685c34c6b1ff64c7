//! Cycle-accurate behavioural model of the Parwan-class core — the golden
//! reference its gate-level implementation is co-simulated against.

/// One bus cycle: address, write data, write enable, returned data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusCycle {
    /// 12-bit byte address.
    pub addr: u16,
    /// Write data (0 unless writing).
    pub wdata: u8,
    /// Write enable.
    pub we: bool,
    /// Byte returned by memory this cycle.
    pub rdata: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    F0,
    F1,
    Ex,
}

/// The cycle-accurate model. States: `F0` fetches the opcode byte, `F1`
/// fetches the address byte (or executes a single-byte instruction
/// without advancing the PC), `Ex` performs the memory access of
/// LDA/AND/ADD/SUB/STA.
#[derive(Debug, Clone)]
pub struct ParwanModel {
    /// Accumulator.
    pub ac: u8,
    /// Program counter (12-bit).
    pub pc: u16,
    /// Flags: carry.
    pub c: bool,
    /// Flags: overflow.
    pub v: bool,
    /// Flags: negative.
    pub n: bool,
    /// Flags: zero.
    pub z: bool,
    ir: u8,
    adr: u16,
    state: State,
}

impl Default for ParwanModel {
    fn default() -> Self {
        Self::new()
    }
}

impl ParwanModel {
    /// Reset state: everything zero, `F0`.
    pub fn new() -> ParwanModel {
        ParwanModel {
            ac: 0,
            pc: 0,
            c: false,
            v: false,
            n: false,
            z: false,
            ir: 0x80, // NOP
            adr: 0,
            state: State::F0,
        }
    }

    fn set_nz(&mut self, r: u8) {
        self.n = r & 0x80 != 0;
        self.z = r == 0;
    }

    /// Advance one clock cycle against `mem` (4 KB, addresses wrap).
    pub fn cycle(&mut self, mem: &mut [u8]) -> BusCycle {
        let idx = |a: u16| (a & 0xFFF) as usize % mem.len();
        match self.state {
            State::F0 => {
                let rdata = mem[idx(self.pc)];
                let out = BusCycle {
                    addr: self.pc & 0xFFF,
                    wdata: 0,
                    we: false,
                    rdata,
                };
                self.ir = rdata;
                self.pc = (self.pc + 1) & 0xFFF;
                self.state = State::F1;
                out
            }
            State::F1 => {
                let rdata = mem[idx(self.pc)];
                let out = BusCycle {
                    addr: self.pc & 0xFFF,
                    wdata: 0,
                    we: false,
                    rdata,
                };
                let opcode = self.ir >> 4;
                match opcode {
                    0x0..=0x3 | 0x5 => {
                        // Two-byte memory op: latch the address, go to Ex.
                        self.adr = (((self.ir & 0xF) as u16) << 8) | rdata as u16;
                        self.pc = (self.pc + 1) & 0xFFF;
                        self.state = State::Ex;
                    }
                    0x4 => {
                        self.pc = (((self.ir & 0xF) as u16) << 8) | rdata as u16;
                        self.state = State::F0;
                    }
                    0x7 => {
                        let taken = (self.ir & 0x1 != 0 && self.z)
                            || (self.ir & 0x2 != 0 && self.n)
                            || (self.ir & 0x4 != 0 && self.c)
                            || (self.ir & 0x8 != 0 && self.v);
                        self.pc = (self.pc + 1) & 0xFFF;
                        if taken {
                            self.pc = (self.pc & 0xF00) | rdata as u16;
                        }
                        self.state = State::F0;
                    }
                    0x8 => {
                        // Single-byte op: execute, do not consume the
                        // fetched byte.
                        match self.ir & 0xF {
                            0x1 => {
                                self.ac = 0;
                                self.set_nz(0);
                            }
                            0x2 => {
                                self.ac = !self.ac;
                                self.set_nz(self.ac);
                            }
                            0x3 => self.c = !self.c,
                            0x4 => {
                                let old = self.ac;
                                self.c = old & 0x80 != 0;
                                self.ac = old << 1;
                                self.v = (old ^ self.ac) & 0x80 != 0;
                                self.set_nz(self.ac);
                            }
                            0x5 => {
                                let old = self.ac;
                                self.c = old & 1 != 0;
                                self.ac = ((old as i8) >> 1) as u8;
                                self.set_nz(self.ac);
                            }
                            _ => {} // NOP and reserved
                        }
                        self.state = State::F0;
                    }
                    _ => {
                        // Reserved opcodes behave as NOP (single cycle
                        // class, PC not advanced past the peeked byte).
                        self.state = State::F0;
                    }
                }
                out
            }
            State::Ex => {
                let opcode = self.ir >> 4;
                let we = opcode == 0x5;
                let rdata = mem[idx(self.adr)];
                let out = BusCycle {
                    addr: self.adr & 0xFFF,
                    wdata: if we { self.ac } else { 0 },
                    we,
                    rdata,
                };
                if we {
                    mem[idx(self.adr)] = self.ac;
                } else {
                    match opcode {
                        0x0 => {
                            self.ac = rdata;
                            self.set_nz(self.ac);
                        }
                        0x1 => {
                            self.ac &= rdata;
                            self.set_nz(self.ac);
                        }
                        0x2 => {
                            let (r, c1) = self.ac.overflowing_add(rdata);
                            self.v = (!(self.ac ^ rdata) & (self.ac ^ r)) & 0x80 != 0;
                            self.c = c1;
                            self.ac = r;
                            self.set_nz(r);
                        }
                        0x3 => {
                            let (r, borrow) = self.ac.overflowing_sub(rdata);
                            self.v = ((self.ac ^ rdata) & (self.ac ^ r)) & 0x80 != 0;
                            self.c = !borrow;
                            self.ac = r;
                            self.set_nz(r);
                        }
                        _ => unreachable!("only memory ops reach Ex"),
                    }
                }
                self.state = State::F0;
                out
            }
        }
    }

    /// Run `n` cycles, returning the bus trace.
    pub fn run(&mut self, mem: &mut [u8], n: usize) -> Vec<BusCycle> {
        (0..n).map(|_| self.cycle(mem)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, ProgramBuilder};

    fn run_program(
        build: impl FnOnce(&mut ProgramBuilder),
        cycles: usize,
    ) -> (ParwanModel, Vec<u8>) {
        let mut p = ProgramBuilder::new();
        build(&mut p);
        let mut mem = vec![0u8; 4096];
        let img = p.build();
        mem[..img.len()].copy_from_slice(&img);
        let mut cpu = ParwanModel::new();
        cpu.run(&mut mem, cycles);
        (cpu, mem)
    }

    #[test]
    fn arithmetic_and_store() {
        let (_, mem) = run_program(
            |p| {
                p.lda(0x100).add(0x101).sta(0x200);
                p.lda(0x100).sub(0x101).sta(0x201);
                let h = p.here();
                p.jmp(h);
                p.pad_to(0x100).byte(100).byte(58);
            },
            60,
        );
        assert_eq!(mem[0x200], 158);
        assert_eq!(mem[0x201], 42);
    }

    #[test]
    fn flags_and_branches() {
        let (_, mem) = run_program(
            |p| {
                p.lda(0x100).sub(0x100); // AC = 0 -> Z
                p.bra(Cond::Z, 0x00A); // skip the STA at 6..8
                p.sta(0x200); // (skipped)
                p.pad_to(0x00A);
                p.cla().cma(); // AC = 0xFF -> N
                p.bra(Cond::N, 0x012);
                p.sta(0x201); // (skipped)
                p.pad_to(0x012);
                p.sta(0x202);
                let h = p.here();
                p.jmp(h);
                p.pad_to(0x100).byte(7);
            },
            80,
        );
        assert_eq!(mem[0x200], 0, "Z-branch must skip");
        assert_eq!(mem[0x201], 0, "N-branch must skip");
        assert_eq!(mem[0x202], 0xFF);
    }

    #[test]
    fn shifts_and_carry() {
        let (cpu, mem) = run_program(
            |p| {
                p.lda(0x100).asl().sta(0x200); // 0x81 << 1 = 0x02, C=1
                p.lda(0x100).asr().sta(0x201); // 0x81 >> 1 arith = 0xC0, C=1
                let h = p.here();
                p.jmp(h);
                p.pad_to(0x100).byte(0x81);
            },
            60,
        );
        assert_eq!(mem[0x200], 0x02);
        assert_eq!(mem[0x201], 0xC0);
        let _ = cpu;
    }

    #[test]
    fn add_overflow_flag() {
        let (cpu, _) = run_program(
            |p| {
                p.lda(0x100).add(0x100); // 0x7F + 0x7F = 0xFE: V=1, C=0
                let h = p.here();
                p.jmp(h);
                p.pad_to(0x100).byte(0x7F);
            },
            30,
        );
        assert!(cpu.v);
        assert!(!cpu.c);
        assert_eq!(cpu.ac, 0xFE);
    }

    #[test]
    fn single_byte_takes_two_cycles() {
        // NOP NOP JMP-self: the fetch addresses reveal the state timing.
        let mut p = ProgramBuilder::new();
        p.nop().nop();
        let h = p.here();
        p.jmp(h);
        let mut mem = vec![0u8; 4096];
        let img = p.build();
        mem[..img.len()].copy_from_slice(&img);
        let mut cpu = ParwanModel::new();
        let trace = cpu.run(&mut mem, 6);
        let addrs: Vec<u16> = trace.iter().map(|c| c.addr).collect();
        // NOP: F0@0, F1 peeks 1; NOP: F0@1, F1 peeks 2; JMP: F0@2, F1@3.
        assert_eq!(addrs, vec![0, 1, 1, 2, 2, 3]);
    }
}
