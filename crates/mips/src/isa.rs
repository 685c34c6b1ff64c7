//! MIPS I instruction set: operations, formats, binary encode/decode.
//!
//! The supported subset is exactly what the Plasma core implements: all
//! MIPS I user-mode instructions except the unaligned load/store family
//! (`lwl`/`lwr`/`swl`/`swr`) and exception-related instructions
//! (`syscall`/`break` and CP0 traffic).

use std::fmt;

/// A general-purpose register, `$0`–`$31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired-zero register `$0`.
    pub const ZERO: Reg = Reg(0);
    /// The return-address register `$31`.
    pub const RA: Reg = Reg(31);

    /// ABI name (`$t0`, `$sp`, ...).
    pub fn abi_name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3", "$t0", "$t1", "$t2", "$t3",
            "$t4", "$t5", "$t6", "$t7", "$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
            "$t8", "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
        ];
        NAMES[(self.0 & 31) as usize]
    }

    /// Parse `$5`, `$t0`, `$zero`, ... Returns `None` on anything else.
    pub fn parse(s: &str) -> Option<Reg> {
        let body = s.strip_prefix('$')?;
        if let Ok(n) = body.parse::<u8>() {
            return if n < 32 { Some(Reg(n)) } else { None };
        }
        (0u8..32).map(Reg).find(|r| &r.abi_name()[1..] == body)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

/// Operation mnemonics of the supported subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Op {
    // shifts
    Sll,
    Srl,
    Sra,
    Sllv,
    Srlv,
    Srav,
    // jumps through registers
    Jr,
    Jalr,
    // HI/LO traffic
    Mfhi,
    Mthi,
    Mflo,
    Mtlo,
    // multiply / divide
    Mult,
    Multu,
    Div,
    Divu,
    // 3-register ALU
    Add,
    Addu,
    Sub,
    Subu,
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
    // immediate ALU
    Addi,
    Addiu,
    Slti,
    Sltiu,
    Andi,
    Ori,
    Xori,
    Lui,
    // branches
    Beq,
    Bne,
    Blez,
    Bgtz,
    Bltz,
    Bgez,
    Bltzal,
    Bgezal,
    // jumps
    J,
    Jal,
    // loads / stores
    Lb,
    Lh,
    Lw,
    Lbu,
    Lhu,
    Sb,
    Sh,
    Sw,
}

/// Encoding format classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `op rd, rs, rt` (SPECIAL funct).
    R3,
    /// `op rd, rt, shamt` (constant shifts).
    RShift,
    /// `op rd, rt, rs` (variable shifts — note the operand order).
    RShiftV,
    /// `jr rs`.
    RJr,
    /// `jalr rd, rs`.
    RJalr,
    /// `mfhi/mflo rd`.
    RMfHiLo,
    /// `mthi/mtlo rs`.
    RMtHiLo,
    /// `mult/div rs, rt`.
    RMulDiv,
    /// `op rt, rs, imm` with sign-extended immediate.
    ISigned,
    /// `op rt, rs, imm` with zero-extended immediate.
    IUnsigned,
    /// `lui rt, imm`.
    ILui,
    /// `beq/bne rs, rt, off`.
    IBranch2,
    /// `blez/bgtz rs, off`.
    IBranch1,
    /// REGIMM branches `bltz/bgez[al] rs, off`.
    IRegimm,
    /// `j/jal target`.
    JAbs,
    /// `op rt, off(base)`.
    IMem,
}

struct OpInfo {
    op: Op,
    mnemonic: &'static str,
    format: Format,
    /// Primary opcode (bits 31:26).
    opcode: u8,
    /// funct for SPECIAL, rt for REGIMM, unused otherwise.
    sub: u8,
}

const fn info(op: Op, mnemonic: &'static str, format: Format, opcode: u8, sub: u8) -> OpInfo {
    OpInfo {
        op,
        mnemonic,
        format,
        opcode,
        sub,
    }
}

#[rustfmt::skip]
static OPS: &[OpInfo] = &[
    info(Op::Sll,    "sll",    Format::RShift,    0x00, 0x00),
    info(Op::Srl,    "srl",    Format::RShift,    0x00, 0x02),
    info(Op::Sra,    "sra",    Format::RShift,    0x00, 0x03),
    info(Op::Sllv,   "sllv",   Format::RShiftV,   0x00, 0x04),
    info(Op::Srlv,   "srlv",   Format::RShiftV,   0x00, 0x06),
    info(Op::Srav,   "srav",   Format::RShiftV,   0x00, 0x07),
    info(Op::Jr,     "jr",     Format::RJr,       0x00, 0x08),
    info(Op::Jalr,   "jalr",   Format::RJalr,     0x00, 0x09),
    info(Op::Mfhi,   "mfhi",   Format::RMfHiLo,   0x00, 0x10),
    info(Op::Mthi,   "mthi",   Format::RMtHiLo,   0x00, 0x11),
    info(Op::Mflo,   "mflo",   Format::RMfHiLo,   0x00, 0x12),
    info(Op::Mtlo,   "mtlo",   Format::RMtHiLo,   0x00, 0x13),
    info(Op::Mult,   "mult",   Format::RMulDiv,   0x00, 0x18),
    info(Op::Multu,  "multu",  Format::RMulDiv,   0x00, 0x19),
    info(Op::Div,    "div",    Format::RMulDiv,   0x00, 0x1a),
    info(Op::Divu,   "divu",   Format::RMulDiv,   0x00, 0x1b),
    info(Op::Add,    "add",    Format::R3,        0x00, 0x20),
    info(Op::Addu,   "addu",   Format::R3,        0x00, 0x21),
    info(Op::Sub,    "sub",    Format::R3,        0x00, 0x22),
    info(Op::Subu,   "subu",   Format::R3,        0x00, 0x23),
    info(Op::And,    "and",    Format::R3,        0x00, 0x24),
    info(Op::Or,     "or",     Format::R3,        0x00, 0x25),
    info(Op::Xor,    "xor",    Format::R3,        0x00, 0x26),
    info(Op::Nor,    "nor",    Format::R3,        0x00, 0x27),
    info(Op::Slt,    "slt",    Format::R3,        0x00, 0x2a),
    info(Op::Sltu,   "sltu",   Format::R3,        0x00, 0x2b),
    info(Op::Bltz,   "bltz",   Format::IRegimm,   0x01, 0x00),
    info(Op::Bgez,   "bgez",   Format::IRegimm,   0x01, 0x01),
    info(Op::Bltzal, "bltzal", Format::IRegimm,   0x01, 0x10),
    info(Op::Bgezal, "bgezal", Format::IRegimm,   0x01, 0x11),
    info(Op::J,      "j",      Format::JAbs,      0x02, 0x00),
    info(Op::Jal,    "jal",    Format::JAbs,      0x03, 0x00),
    info(Op::Beq,    "beq",    Format::IBranch2,  0x04, 0x00),
    info(Op::Bne,    "bne",    Format::IBranch2,  0x05, 0x00),
    info(Op::Blez,   "blez",   Format::IBranch1,  0x06, 0x00),
    info(Op::Bgtz,   "bgtz",   Format::IBranch1,  0x07, 0x00),
    info(Op::Addi,   "addi",   Format::ISigned,   0x08, 0x00),
    info(Op::Addiu,  "addiu",  Format::ISigned,   0x09, 0x00),
    info(Op::Slti,   "slti",   Format::ISigned,   0x0a, 0x00),
    info(Op::Sltiu,  "sltiu",  Format::ISigned,   0x0b, 0x00),
    info(Op::Andi,   "andi",   Format::IUnsigned, 0x0c, 0x00),
    info(Op::Ori,    "ori",    Format::IUnsigned, 0x0d, 0x00),
    info(Op::Xori,   "xori",   Format::IUnsigned, 0x0e, 0x00),
    info(Op::Lui,    "lui",    Format::ILui,      0x0f, 0x00),
    info(Op::Lb,     "lb",     Format::IMem,      0x20, 0x00),
    info(Op::Lh,     "lh",     Format::IMem,      0x21, 0x00),
    info(Op::Lw,     "lw",     Format::IMem,      0x23, 0x00),
    info(Op::Lbu,    "lbu",    Format::IMem,      0x24, 0x00),
    info(Op::Lhu,    "lhu",    Format::IMem,      0x25, 0x00),
    info(Op::Sb,     "sb",     Format::IMem,      0x28, 0x00),
    info(Op::Sh,     "sh",     Format::IMem,      0x29, 0x00),
    info(Op::Sw,     "sw",     Format::IMem,      0x2b, 0x00),
];

impl Op {
    fn table(self) -> &'static OpInfo {
        OPS.iter().find(|i| i.op == self).expect("op in table")
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        self.table().mnemonic
    }

    /// Encoding format class.
    pub fn format(self) -> Format {
        self.table().format
    }

    /// Look up an op by mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Op> {
        OPS.iter().find(|i| i.mnemonic == s).map(|i| i.op)
    }

    /// All supported operations (for exhaustive tests and random program
    /// generation).
    pub fn all() -> impl Iterator<Item = Op> {
        OPS.iter().map(|i| i.op)
    }

    /// Whether the op is a load or store.
    pub fn is_mem(self) -> bool {
        matches!(self.format(), Format::IMem)
    }

    /// Whether the op is a load.
    pub fn is_load(self) -> bool {
        matches!(self, Op::Lb | Op::Lh | Op::Lw | Op::Lbu | Op::Lhu)
    }

    /// Whether the op is a store.
    pub fn is_store(self) -> bool {
        matches!(self, Op::Sb | Op::Sh | Op::Sw)
    }
}

/// A decoded instruction: operation plus all field values (unused fields
/// are zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Instr {
    /// Operation, or `None` for words that decode to no supported
    /// instruction (the hardware treats them as no-ops).
    pub op: Option<Op>,
    /// Destination register field.
    pub rd: Reg,
    /// First source register field.
    pub rs: Reg,
    /// Second source / target register field.
    pub rt: Reg,
    /// Shift amount field.
    pub shamt: u8,
    /// 16-bit immediate field (raw; sign-extension is per-format).
    pub imm: u16,
    /// 26-bit jump index field.
    pub target: u32,
}

/// The canonical no-operation: `sll $0, $0, 0`, encoding `0x0000_0000`.
pub const NOP: u32 = 0;

impl Instr {
    /// Construct an R3 ALU instruction.
    pub fn r3(op: Op, rd: Reg, rs: Reg, rt: Reg) -> Instr {
        debug_assert_eq!(op.format(), Format::R3);
        Instr {
            op: Some(op),
            rd,
            rs,
            rt,
            ..Default::default()
        }
    }

    /// Construct a constant shift.
    pub fn shift(op: Op, rd: Reg, rt: Reg, shamt: u8) -> Instr {
        debug_assert_eq!(op.format(), Format::RShift);
        Instr {
            op: Some(op),
            rd,
            rt,
            shamt: shamt & 31,
            ..Default::default()
        }
    }

    /// Construct an immediate-operand instruction (`addi`-class, `andi`-
    /// class or `lui`).
    pub fn imm(op: Op, rt: Reg, rs: Reg, imm: u16) -> Instr {
        debug_assert!(matches!(
            op.format(),
            Format::ISigned | Format::IUnsigned | Format::ILui
        ));
        Instr {
            op: Some(op),
            rt,
            rs,
            imm,
            ..Default::default()
        }
    }

    /// Construct a load/store: `op rt, offset(base)`.
    pub fn mem(op: Op, rt: Reg, base: Reg, offset: i16) -> Instr {
        debug_assert_eq!(op.format(), Format::IMem);
        Instr {
            op: Some(op),
            rt,
            rs: base,
            imm: offset as u16,
            ..Default::default()
        }
    }

    /// Encode into the 32-bit instruction word.
    pub fn encode(&self) -> u32 {
        let op = match self.op {
            Some(op) => op,
            None => return NOP,
        };
        let t = op.table();
        let opc = (t.opcode as u32) << 26;
        let rs = (self.rs.0 as u32) << 21;
        let rt = (self.rt.0 as u32) << 16;
        let rd = (self.rd.0 as u32) << 11;
        let sh = (self.shamt as u32) << 6;
        let funct = t.sub as u32;
        let imm = self.imm as u32;
        match t.format {
            Format::R3 => opc | rs | rt | rd | funct,
            Format::RShift => opc | rt | rd | sh | funct,
            Format::RShiftV => opc | rs | rt | rd | funct,
            Format::RJr => opc | rs | funct,
            Format::RJalr => opc | rs | rd | funct,
            Format::RMfHiLo => opc | rd | funct,
            Format::RMtHiLo => opc | rs | funct,
            Format::RMulDiv => opc | rs | rt | funct,
            Format::ISigned | Format::IUnsigned | Format::IBranch2 | Format::IMem => {
                opc | rs | rt | imm
            }
            Format::ILui => opc | rt | imm,
            Format::IBranch1 => opc | rs | imm,
            Format::IRegimm => opc | rs | ((t.sub as u32) << 16) | imm,
            Format::JAbs => opc | (self.target & 0x03FF_FFFF),
        }
    }

    /// Decode a 32-bit word. Unsupported encodings yield `op: None`
    /// (executed as a no-op, like the hardware's default decode path).
    pub fn decode(word: u32) -> Instr {
        let opcode = ((word >> 26) & 0x3F) as u8;
        let rs = Reg(((word >> 21) & 31) as u8);
        let rt = Reg(((word >> 16) & 31) as u8);
        let rd = Reg(((word >> 11) & 31) as u8);
        let shamt = ((word >> 6) & 31) as u8;
        let funct = (word & 0x3F) as u8;
        let imm = (word & 0xFFFF) as u16;
        let target = word & 0x03FF_FFFF;
        let found = OPS.iter().find(|i| match i.format {
            Format::R3
            | Format::RShift
            | Format::RShiftV
            | Format::RJr
            | Format::RJalr
            | Format::RMfHiLo
            | Format::RMtHiLo
            | Format::RMulDiv => i.opcode == opcode && opcode == 0 && i.sub == funct,
            Format::IRegimm => i.opcode == opcode && i.sub == rt.0,
            _ => i.opcode == opcode && opcode != 0 && opcode != 1,
        });
        Instr {
            op: found.map(|i| i.op),
            rd,
            rs,
            rt,
            shamt,
            imm,
            target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_names_round_trip() {
        for n in 0..32u8 {
            let r = Reg(n);
            assert_eq!(Reg::parse(r.abi_name()), Some(r));
            assert_eq!(Reg::parse(&format!("${n}")), Some(r));
        }
        assert_eq!(Reg::parse("$32"), None);
        assert_eq!(Reg::parse("t0"), None);
        assert_eq!(Reg::parse("$nope"), None);
    }

    #[test]
    fn known_encodings() {
        // Cross-checked against the MIPS I manual.
        // add $t0, $t1, $t2 -> 0x012A4020
        let i = Instr::r3(Op::Add, Reg(8), Reg(9), Reg(10));
        assert_eq!(i.encode(), 0x012A_4020);
        // lw $t0, 4($sp) -> 0x8FA80004
        let i = Instr::mem(Op::Lw, Reg(8), Reg(29), 4);
        assert_eq!(i.encode(), 0x8FA8_0004);
        // sll $0,$0,0 == nop == 0
        let i = Instr::shift(Op::Sll, Reg(0), Reg(0), 0);
        assert_eq!(i.encode(), 0);
        // lui $a0, 0x1234 -> 0x3C041234
        let i = Instr::imm(Op::Lui, Reg(4), Reg(0), 0x1234);
        assert_eq!(i.encode(), 0x3C04_1234);
        // jr $ra -> 0x03E00008
        let i = Instr {
            op: Some(Op::Jr),
            rs: Reg(31),
            ..Default::default()
        };
        assert_eq!(i.encode(), 0x03E0_0008);
        // bgezal $s0, +1 -> opcode 1, rt=0x11
        let i = Instr {
            op: Some(Op::Bgezal),
            rs: Reg(16),
            imm: 1,
            ..Default::default()
        };
        assert_eq!(i.encode(), 0x0611_0001);
    }

    #[test]
    fn encode_decode_round_trip_all_ops() {
        for op in Op::all() {
            let i = Instr {
                op: Some(op),
                rd: Reg(13),
                rs: Reg(21),
                rt: Reg(7),
                shamt: 9,
                imm: 0xBEEF,
                target: 0x12_3456,
            };
            let word = i.encode();
            let d = Instr::decode(word);
            assert_eq!(d.op, Some(op), "{op:?} decoded as {:?}", d.op);
            // Re-encoding the decode must reproduce the word exactly.
            assert_eq!(d.encode(), word, "{op:?} re-encode mismatch");
        }
    }

    #[test]
    fn undefined_words_decode_to_none() {
        // 0x0405_0000 is REGIMM with rt=5, an unassigned condition code.
        for word in [0xFFFF_FFFFu32, 0x0000_003F, 0x7000_0000, 0x0405_0000] {
            assert_eq!(Instr::decode(word).op, None, "{word:#010x}");
        }
        // and the canonical nop decodes to sll
        assert_eq!(Instr::decode(NOP).op, Some(Op::Sll));
    }

    #[test]
    fn mem_classification() {
        assert!(Op::Lw.is_load() && Op::Lw.is_mem() && !Op::Lw.is_store());
        assert!(Op::Sb.is_store() && Op::Sb.is_mem() && !Op::Sb.is_load());
        assert!(!Op::Add.is_mem());
    }
}
