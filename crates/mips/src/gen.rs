//! Constrained random program generation.
//!
//! Produces *valid, self-contained* MIPS programs: all memory accesses hit
//! a reserved data region, all branches/jumps stay inside the code region,
//! no control transfer sits in a delay slot, and `mthi`/`mtlo` are only
//! emitted when the multiply/divide unit is guaranteed idle. Used for
//!
//! * lock-step co-simulation fuzzing of the gate-level core against the
//!   ISS, and
//! * the random-instruction functional self-test baseline of the `sbst`
//!   evaluation (the \[2\]–\[4\] style approaches the paper compares against).

use crate::isa::{Instr, Op, Reg};
use crate::Program;

/// Deterministic xorshift64* generator so programs are reproducible.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator (seed 0 is mapped to a fixed non-zero value).
    pub fn new(seed: u64) -> Rng {
        Rng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0 = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.0
    }

    /// Uniform value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniformly pick from a slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Configuration for random program generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of random instructions in the body.
    pub body_len: usize,
    /// Byte address of the start of the data region.
    pub data_base: u32,
    /// Size of the data region in bytes (power of two).
    pub data_size: u32,
    /// Include multiply/divide instructions.
    pub with_muldiv: bool,
    /// Include loads/stores.
    pub with_mem: bool,
    /// Include branches and jumps.
    pub with_branches: bool,
    /// Selection weight of the branch class, out of 100 body-slot draws.
    /// The weights below carve the draw space `[0, 100)` into
    /// branch / memory / muldiv bands (in that order); whatever remains
    /// falls to plain ALU instructions. The defaults reproduce the
    /// historical 10/20/10 mix; difftest's coverage-feedback scheduler
    /// re-weights them toward under-exercised components.
    pub branch_weight: u64,
    /// Selection weight of the load/store class (see `branch_weight`).
    pub mem_weight: u64,
    /// Selection weight of the multiply/divide class (see
    /// `branch_weight`).
    pub muldiv_weight: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            body_len: 120,
            data_base: 0x1000,
            data_size: 0x400,
            with_muldiv: true,
            with_mem: true,
            with_branches: true,
            branch_weight: 10,
            mem_weight: 20,
            muldiv_weight: 10,
        }
    }
}

/// Mailbox address the generated program stores the end marker to.
pub const END_MAILBOX: u32 = 0x0FFC;

/// End-of-test marker value.
pub const END_MARKER: u32 = 0x600D_C0DE;

const DATA_BASE_REG: Reg = Reg(26); // $k0, never clobbered by the body

fn writable_reg(rng: &mut Rng) -> Reg {
    // Exclude $0 (pointless), $k0 (data base) and $k1 (scratch for the
    // epilogue), keep everything else fair game.
    loop {
        let r = Reg(1 + rng.below(31) as u8);
        if r != Reg(26) && r != Reg(27) {
            return r;
        }
    }
}

fn any_reg(rng: &mut Rng) -> Reg {
    // Sources may read anything except the reserved pair (their values
    // are architectural but pointing them at the data base would skew
    // operand distributions).
    if rng.below(8) == 0 {
        Reg::ZERO
    } else {
        writable_reg(rng)
    }
}

/// A random program split into its three structural regions, so tools
/// like the `difftest` shrinker can rewrite the body while keeping the
/// register-seeding prologue and the state-dumping epilogue intact.
///
/// The concatenation `prologue ++ body ++ epilogue` loaded at base 0 is
/// exactly what [`random_program`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramParts {
    /// Register-seeding prologue (loads `$k0` with the data base and
    /// fills every other register with interesting constants).
    pub prologue: Vec<u32>,
    /// The random instruction body. Straight-line except for short
    /// forward branches, so any subsequence that keeps each branch
    /// adjacent to its delay slot is still a valid, terminating program.
    pub body: Vec<u32>,
    /// Register dump, end-marker store, and spin loop.
    pub epilogue: Vec<u32>,
}

impl ProgramParts {
    /// Assemble the parts into a loadable [`Program`] at base 0.
    pub fn to_program(&self) -> Program {
        let words: Vec<u32> = self
            .prologue
            .iter()
            .chain(self.body.iter())
            .chain(self.epilogue.iter())
            .copied()
            .collect();
        Program {
            base: 0,
            download_words: words.len(),
            words,
            symbols: Default::default(),
        }
    }
}

/// Generate a random, self-contained program. The program:
///
/// 1. seeds a spread of registers with interesting constants,
/// 2. executes `body_len` random instructions,
/// 3. stores every register to the data region (so register state becomes
///    bus-observable),
/// 4. stores [`END_MARKER`] to [`END_MAILBOX`] and spins.
pub fn random_program(seed: u64, cfg: &GenConfig) -> Program {
    random_parts(seed, cfg).to_program()
}

/// [`random_program`], returning the prologue/body/epilogue split (see
/// [`ProgramParts`]).
pub fn random_parts(seed: u64, cfg: &GenConfig) -> ProgramParts {
    let mut rng = Rng::new(seed);
    let mut words: Vec<u32> = Vec::new();

    // --- prologue: seed registers -----------------------------------------
    let emit = |w: u32, words: &mut Vec<u32>| words.push(w);
    let li32 = |r: Reg, v: u32, words: &mut Vec<u32>| {
        words.push(Instr::imm(Op::Lui, r, Reg::ZERO, (v >> 16) as u16).encode());
        words.push(Instr::imm(Op::Ori, r, r, (v & 0xFFFF) as u16).encode());
    };
    li32(DATA_BASE_REG, cfg.data_base, &mut words);
    let seeds = [
        0u32,
        1,
        0xFFFF_FFFF,
        0x8000_0000,
        0x7FFF_FFFF,
        0xAAAA_AAAA,
        0x5555_5555,
        0x0000_FFFF,
        0xFFFF_0000,
    ];
    for r in 1..26u8 {
        let v = if (r as usize) < seeds.len() + 1 {
            seeds[(r - 1) as usize]
        } else {
            rng.next_u64() as u32
        };
        li32(Reg(r), v, &mut words);
    }
    for r in 28..32u8 {
        li32(Reg(r), rng.next_u64() as u32, &mut words);
    }
    let prologue = std::mem::take(&mut words);

    // --- body ---------------------------------------------------------------
    // Cumulative class thresholds over a draw space of 100 (defaults
    // 10/30/40/43 — the historical mix).
    let t_branch = cfg.branch_weight;
    let t_mem = t_branch + cfg.mem_weight;
    let t_muldiv = t_mem + cfg.muldiv_weight;
    let t_mthi = t_muldiv + 3;
    let mut muldiv_cooldown = 0u32; // body slots since last mult/div issue
    let mut i = 0usize;
    while i < cfg.body_len {
        let class = rng.below(100);
        muldiv_cooldown = muldiv_cooldown.saturating_add(1);
        if cfg.with_branches && class < t_branch && i + 2 < cfg.body_len {
            // Forward branch over 0..3 instructions, delay slot filled
            // with a random ALU instruction.
            let skip = rng.below(3) as u16; // words skipped after delay slot
            let op = *rng.pick(&[Op::Beq, Op::Bne, Op::Blez, Op::Bgtz, Op::Bltz, Op::Bgez]);
            let (rs, rt) = (any_reg(&mut rng), any_reg(&mut rng));
            let instr = Instr {
                op: Some(op),
                rs,
                rt: if matches!(op, Op::Beq | Op::Bne) {
                    rt
                } else if matches!(op, Op::Bltz) {
                    Reg(0)
                } else if matches!(op, Op::Bgez) {
                    Reg(1)
                } else {
                    Reg(0)
                },
                imm: (1 + skip),
                ..Default::default()
            };
            // Fix REGIMM rt encoding: bltz rt=0, bgez rt=1.
            let instr = match op {
                Op::Bltz => Instr {
                    rt: Reg(0),
                    ..instr
                },
                Op::Bgez => Instr {
                    rt: Reg(1),
                    ..instr
                },
                _ => instr,
            };
            emit(instr.encode(), &mut words);
            emit(random_alu(&mut rng), &mut words); // delay slot
                                                    // The "skipped" instructions are still generated (they might
                                                    // be skipped or executed depending on the branch) — they must
                                                    // be safe either way; ALU ops are.
            for _ in 0..skip {
                emit(random_alu(&mut rng), &mut words);
                i += 1;
            }
            i += 2;
        } else if cfg.with_mem && class < t_mem {
            let op = *rng.pick(&[
                Op::Lw,
                Op::Lh,
                Op::Lhu,
                Op::Lb,
                Op::Lbu,
                Op::Sw,
                Op::Sh,
                Op::Sb,
            ]);
            let rt = if op.is_load() {
                writable_reg(&mut rng)
            } else {
                any_reg(&mut rng)
            };
            let offset = (rng.below(cfg.data_size as u64 / 4) * 4) as i16
                + match op {
                    Op::Lw | Op::Sw => 0,
                    Op::Lh | Op::Lhu | Op::Sh => (rng.below(2) * 2) as i16,
                    _ => rng.below(4) as i16,
                };
            emit(
                Instr::mem(op, rt, DATA_BASE_REG, offset).encode(),
                &mut words,
            );
            i += 1;
        } else if cfg.with_muldiv && class < t_muldiv {
            if muldiv_cooldown > 2 {
                let op = *rng.pick(&[Op::Mult, Op::Multu, Op::Div, Op::Divu]);
                emit(
                    Instr {
                        op: Some(op),
                        rs: any_reg(&mut rng),
                        rt: any_reg(&mut rng),
                        ..Default::default()
                    }
                    .encode(),
                    &mut words,
                );
                muldiv_cooldown = 0;
            } else {
                // Read back instead (stalls until done — always safe).
                let op = *rng.pick(&[Op::Mfhi, Op::Mflo]);
                emit(
                    Instr {
                        op: Some(op),
                        rd: writable_reg(&mut rng),
                        ..Default::default()
                    }
                    .encode(),
                    &mut words,
                );
                muldiv_cooldown = u32::MAX; // unit idle after the stall
            }
            i += 1;
        } else if cfg.with_muldiv && class < t_mthi && muldiv_cooldown > 40 {
            // mthi/mtlo only when the unit is provably idle.
            let op = *rng.pick(&[Op::Mthi, Op::Mtlo]);
            emit(
                Instr {
                    op: Some(op),
                    rs: any_reg(&mut rng),
                    ..Default::default()
                }
                .encode(),
                &mut words,
            );
            i += 1;
        } else {
            emit(random_alu(&mut rng), &mut words);
            i += 1;
        }
    }

    let body = std::mem::take(&mut words);

    // --- epilogue: dump registers, store the marker, spin -------------------
    for r in 1..32u8 {
        // sw $r, (data_base + 0x200 + 4r)($k0)... keep within region:
        let off = (0x200 + 4 * r as i16) % (cfg.data_size as i16);
        words.push(Instr::mem(Op::Sw, Reg(r), DATA_BASE_REG, off).encode());
    }
    // k1 = END_MAILBOX; k1val = marker
    words.push(Instr::imm(Op::Lui, Reg(27), Reg::ZERO, (END_MARKER >> 16) as u16).encode());
    words.push(Instr::imm(Op::Ori, Reg(27), Reg(27), (END_MARKER & 0xFFFF) as u16).encode());
    words.push(Instr::mem(Op::Sw, Reg(27), Reg::ZERO, END_MAILBOX as i16).encode());
    // spin: beq $0,$0,-1 ; nop
    words.push(
        Instr {
            op: Some(Op::Beq),
            imm: 0xFFFF,
            ..Default::default()
        }
        .encode(),
    );
    words.push(crate::isa::NOP);

    ProgramParts {
        prologue,
        body,
        epilogue: words,
    }
}

fn random_alu(rng: &mut Rng) -> u32 {
    let choice = rng.below(6);
    match choice {
        0 => {
            let op = *rng.pick(&[
                Op::Addu,
                Op::Subu,
                Op::And,
                Op::Or,
                Op::Xor,
                Op::Nor,
                Op::Slt,
                Op::Sltu,
                Op::Add,
                Op::Sub,
            ]);
            Instr::r3(op, writable_reg(rng), any_reg(rng), any_reg(rng)).encode()
        }
        1 => {
            let op = *rng.pick(&[Op::Sll, Op::Srl, Op::Sra]);
            Instr::shift(op, writable_reg(rng), any_reg(rng), rng.below(32) as u8).encode()
        }
        2 => {
            let op = *rng.pick(&[Op::Sllv, Op::Srlv, Op::Srav]);
            Instr {
                op: Some(op),
                rd: writable_reg(rng),
                rt: any_reg(rng),
                rs: any_reg(rng),
                ..Default::default()
            }
            .encode()
        }
        3 => {
            let op = *rng.pick(&[Op::Addi, Op::Addiu, Op::Slti, Op::Sltiu]);
            Instr::imm(op, writable_reg(rng), any_reg(rng), rng.next_u64() as u16).encode()
        }
        4 => {
            let op = *rng.pick(&[Op::Andi, Op::Ori, Op::Xori]);
            Instr::imm(op, writable_reg(rng), any_reg(rng), rng.next_u64() as u16).encode()
        }
        _ => Instr::imm(Op::Lui, writable_reg(rng), Reg::ZERO, rng.next_u64() as u16).encode(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iss::{Iss, Memory};

    #[test]
    fn generated_programs_are_reproducible() {
        let cfg = GenConfig::default();
        let p1 = random_program(7, &cfg);
        let p2 = random_program(7, &cfg);
        assert_eq!(p1.words, p2.words);
        let p3 = random_program(8, &cfg);
        assert_ne!(p1.words, p3.words);
    }

    #[test]
    fn generated_programs_terminate_on_iss() {
        let cfg = GenConfig::default();
        for seed in 0..20u64 {
            let p = random_program(seed, &cfg);
            let mut mem = Memory::new(16 * 1024);
            mem.load_program(&p);
            let mut cpu = Iss::new();
            let trace = cpu.run_until_store(&mut mem, END_MAILBOX, END_MARKER, 20_000);
            let last = trace.last().unwrap();
            assert!(
                last.we && last.addr == END_MAILBOX && last.wdata == END_MARKER,
                "seed {seed} did not reach the end marker in {} cycles",
                trace.len()
            );
        }
    }

    #[test]
    fn parts_concatenate_to_the_program() {
        let cfg = GenConfig::default();
        for seed in 0..8u64 {
            let parts = random_parts(seed, &cfg);
            let p = random_program(seed, &cfg);
            assert_eq!(parts.to_program().words, p.words);
            assert_eq!(parts.body.len() >= cfg.body_len, true, "seed {seed}");
            // The epilogue always ends with the spin loop.
            let n = parts.epilogue.len();
            assert_eq!(parts.epilogue[n - 1], crate::isa::NOP);
        }
    }

    #[test]
    fn class_weights_change_the_mix() {
        let alu_only = GenConfig {
            branch_weight: 0,
            mem_weight: 0,
            muldiv_weight: 0,
            ..Default::default()
        };
        let parts = random_parts(3, &alu_only);
        for &w in &parts.body {
            let i = Instr::decode(w);
            let op = i.op.expect("body word decodes");
            assert!(
                !op.is_mem() && !matches!(op, Op::Mult | Op::Multu | Op::Div | Op::Divu),
                "zero-weight class emitted {op:?}"
            );
        }
    }

    #[test]
    fn all_generated_words_decode() {
        let cfg = GenConfig::default();
        for seed in 0..10u64 {
            let p = random_program(seed, &cfg);
            for (k, &w) in p.words.iter().enumerate() {
                // Every emitted word must be a recognized instruction
                // (the generator never emits raw data into the code
                // stream).
                assert!(
                    crate::isa::Instr::decode(w).op.is_some() || w == 0,
                    "seed {seed} word {k} = {w:#010x} does not decode"
                );
            }
        }
    }
}
