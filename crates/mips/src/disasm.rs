//! Textual disassembly of instruction words.

use crate::isa::{Format, Instr};

/// Disassemble one instruction word at `pc` (needed to print branch
/// targets as absolute addresses).
pub fn disassemble(word: u32, pc: u32) -> String {
    if word == crate::isa::NOP {
        return "nop".to_string();
    }
    let i = Instr::decode(word);
    let op = match i.op {
        Some(op) => op,
        None => return format!(".word 0x{word:08x}"),
    };
    let m = op.mnemonic();
    let branch_target = |off: u16| -> u32 {
        pc.wrapping_add(4)
            .wrapping_add(((off as i16 as i32) << 2) as u32)
    };
    match op.format() {
        Format::R3 => format!("{m} {}, {}, {}", i.rd, i.rs, i.rt),
        Format::RShift => format!("{m} {}, {}, {}", i.rd, i.rt, i.shamt),
        Format::RShiftV => format!("{m} {}, {}, {}", i.rd, i.rt, i.rs),
        Format::RJr => format!("{m} {}", i.rs),
        Format::RJalr => format!("{m} {}, {}", i.rd, i.rs),
        Format::RMfHiLo => format!("{m} {}", i.rd),
        Format::RMtHiLo => format!("{m} {}", i.rs),
        Format::RMulDiv => format!("{m} {}, {}", i.rs, i.rt),
        Format::ISigned => format!("{m} {}, {}, {}", i.rt, i.rs, i.imm as i16),
        Format::IUnsigned => format!("{m} {}, {}, 0x{:x}", i.rt, i.rs, i.imm),
        Format::ILui => format!("{m} {}, 0x{:x}", i.rt, i.imm),
        Format::IBranch2 => {
            format!("{m} {}, {}, 0x{:x}", i.rs, i.rt, branch_target(i.imm))
        }
        Format::IBranch1 | Format::IRegimm => {
            format!("{m} {}, 0x{:x}", i.rs, branch_target(i.imm))
        }
        Format::JAbs => format!("{m} 0x{:x}", i.target << 2),
        Format::IMem => format!("{m} {}, {}({})", i.rt, i.imm as i16, i.rs),
    }
}

/// Disassemble a whole image, one line per word, with addresses.
pub fn disassemble_program(words: &[u32], base: u32) -> String {
    let mut out = String::new();
    for (k, &w) in words.iter().enumerate() {
        let pc = base + 4 * k as u32;
        out.push_str(&format!("{pc:08x}:  {w:08x}  {}\n", disassemble(w, pc)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    /// Assembling the disassembly of an assembled program must reproduce
    /// the exact words (round-trip through text).
    #[test]
    fn asm_disasm_round_trip() {
        let src = r#"
            start:
                addu  $t0, $t1, $t2
                sll   $t3, $t4, 7
                srlv  $t5, $t6, $t7
                lui   $s0, 0xdead
                ori   $s0, $s0, 0xbeef
                slti  $s1, $s0, -5
                lw    $s2, -8($sp)
                sb    $s3, 127($gp)
                mult  $t0, $t1
                mflo  $t2
                mfhi  $t3
                beq   $t0, $t1, start
                bgezal $s0, start
                jal   start
                jr    $ra
                nop
        "#;
        let p = assemble(src).unwrap();
        let listing = disassemble_program(&p.words, 0);
        // Re-assemble each disassembled line and compare words.
        for (k, line) in listing.lines().enumerate() {
            let text = line
                .split_whitespace()
                .skip(2)
                .collect::<Vec<_>>()
                .join(" ");
            let reasm = assemble(&text).unwrap_or_else(|e| panic!("line {k} `{text}`: {e}"));
            // Branches/jumps to absolute addresses only match when
            // assembled at the same pc; emulate with .org.
            let with_org = format!(".org {}\n{}", 4 * k, text);
            let reasm2 = assemble(&with_org).unwrap();
            let got = reasm2.words.last().copied().unwrap_or(0);
            assert_eq!(
                got, p.words[k],
                "word {k}: `{text}` -> {got:#010x} want {:#010x}",
                p.words[k]
            );
            let _ = reasm;
        }
    }

    #[test]
    fn undefined_word_prints_as_data() {
        assert_eq!(disassemble(0xFFFF_FFFF, 0), ".word 0xffffffff");
        assert_eq!(disassemble(0, 0), "nop");
    }
}
