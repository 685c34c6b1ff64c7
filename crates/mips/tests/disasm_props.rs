//! Property: the disassembly of every constructible instruction
//! re-assembles — at the same pc, via `.org` — to the identical word.
//! This pins the printer and the parser to one another across all
//! supported ops and the full field domains.

use mips::asm::assemble;
use mips::disasm::disassemble;
use mips::isa::{Format, Instr, Op, Reg};
use proptest::prelude::*;

/// Branch targets are printed as absolute addresses (`pc + 4 + off*4`);
/// assemble far enough into memory that the most negative 16-bit offset
/// still lands at a non-negative address instead of wrapping.
const PC: u32 = 0x0002_0000;

/// Build an `Instr` for `op` populating exactly the fields its format
/// encodes, from one shared pool of random field values.
fn construct(op: Op, rd: Reg, rs: Reg, rt: Reg, shamt: u8, imm: u16, target: u32) -> Instr {
    let base = Instr {
        op: Some(op),
        ..Default::default()
    };
    match op.format() {
        Format::R3 => Instr::r3(op, rd, rs, rt),
        Format::RShift => Instr::shift(op, rd, rt, shamt),
        Format::RShiftV => Instr { rd, rs, rt, ..base },
        Format::RJr => Instr { rs, ..base },
        Format::RJalr => Instr { rd, rs, ..base },
        Format::RMfHiLo => Instr { rd, ..base },
        Format::RMtHiLo => Instr { rs, ..base },
        Format::RMulDiv => Instr { rs, rt, ..base },
        Format::ISigned | Format::IUnsigned => Instr::imm(op, rt, rs, imm),
        Format::ILui => Instr::imm(op, rt, Reg(0), imm),
        Format::IBranch2 => Instr {
            rs,
            rt,
            imm,
            ..base
        },
        Format::IBranch1 | Format::IRegimm => Instr { rs, imm, ..base },
        Format::JAbs => Instr { target, ..base },
        Format::IMem => Instr::mem(op, rt, rs, imm as i16),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn disasm_reassembles_to_same_word(
        rd in 0u8..32, rs in 0u8..32, rt in 0u8..32,
        shamt in 0u8..32, imm in any::<u16>(),
        target in 0u32..(1 << 26),
    ) {
        for op in Op::all() {
            let i = construct(op, Reg(rd), Reg(rs), Reg(rt), shamt, imm, target);
            let word = i.encode();
            let text = disassemble(word, PC);
            let src = format!(".org {PC}\n{text}");
            let p = match assemble(&src) {
                Ok(p) => p,
                Err(e) => panic!("op {op:?}: `{text}` does not assemble: {e}"),
            };
            let got = p.words.last().copied().unwrap_or(0);
            prop_assert_eq!(
                got, word,
                "op {:?}: `{}` -> {:#010x} want {:#010x}", op, text, got, word
            );
        }
    }
}
