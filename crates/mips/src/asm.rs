//! A two-pass MIPS assembler.
//!
//! Supports the full Plasma subset of [`crate::isa`], labels, the
//! directives `.org`, `.word` and `.space`, and the usual convenience
//! pseudo-instructions (`nop`, `li`, `la`, `move`, `not`, `neg`, `b`,
//! `beqz`, `bnez`). Comments start with `#` or `;`.
//!
//! The self-test program generators in the `sbst` crate emit assembly text
//! and run it through this assembler, exactly as the paper's flow hands
//! hand-written routines to a MIPS toolchain.

use std::collections::HashMap;
use std::fmt;

use crate::isa::{Format, Instr, Op, Reg};

/// An assembled program image.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Byte address the image is loaded at (always 0 — the reset vector).
    pub base: u32,
    /// Instruction/data words, contiguous from `base` (gaps from `.org`
    /// are zero-filled).
    pub words: Vec<u32>,
    /// Number of words actually emitted (instructions and `.word` data,
    /// excluding `.org` gaps and `.space` reservations) — what a tester
    /// downloads.
    pub download_words: usize,
    /// Label values (byte addresses).
    pub symbols: HashMap<String, u32>,
}

impl Program {
    /// Size of the memory image in 32-bit words (including `.org` gaps).
    pub fn size_words(&self) -> usize {
        self.words.len()
    }

    /// Downloaded size in 32-bit words — the paper's "test program
    /// (words)" metric (Table 4). A tester transfers only emitted words,
    /// not address gaps.
    pub fn size_download_words(&self) -> usize {
        self.download_words
    }

    /// Look up a label's byte address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }
}

/// Assembly error with 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone, PartialEq)]
enum Arg {
    Reg(Reg),
    Imm(i64),
    Label(String),
    MemRef { offset: i64, base: Reg },
}

#[derive(Debug, Clone)]
enum Item {
    Instr {
        line: usize,
        mnemonic: String,
        args: Vec<Arg>,
    },
    Word(Vec<Arg>, usize),
    Space(usize),
    Org(u32),
    Label(String, usize),
}

/// Assemble MIPS source text into a [`Program`].
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered: unknown mnemonics or
/// registers, malformed operands, out-of-range immediates or branch
/// offsets, duplicate or undefined labels, and misuse of directives.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let items = parse(source)?;

    // Pass 1: assign addresses.
    let mut symbols: HashMap<String, u32> = HashMap::new();
    let mut pc: u32 = 0;
    for item in &items {
        match item {
            Item::Label(name, line) => {
                if symbols.insert(name.clone(), pc).is_some() {
                    return Err(AsmError {
                        line: *line,
                        message: format!("duplicate label `{name}`"),
                    });
                }
            }
            Item::Instr {
                line,
                mnemonic,
                args,
            } => {
                pc += 4 * instr_size_words(mnemonic, args).map_err(|m| AsmError {
                    line: *line,
                    message: m,
                })? as u32;
            }
            Item::Word(vals, _) => pc += 4 * vals.len() as u32,
            Item::Space(words) => pc += 4 * *words as u32,
            Item::Org(addr) => pc = *addr,
        }
    }

    // Pass 2: emit.
    let mut words: Vec<u32> = Vec::new();
    let mut download_words: usize = 0;
    let mut pc: u32 = 0;
    let emit = |words: &mut Vec<u32>, pc: &mut u32, w: u32| {
        let idx = (*pc / 4) as usize;
        if words.len() <= idx {
            words.resize(idx + 1, 0);
        }
        words[idx] = w;
        *pc += 4;
    };
    for item in &items {
        match item {
            Item::Label(..) => {}
            Item::Org(addr) => pc = *addr,
            Item::Space(n) => {
                for _ in 0..*n {
                    emit(&mut words, &mut pc, 0);
                }
            }
            Item::Word(vals, line) => {
                for v in vals {
                    let w = match v {
                        Arg::Imm(i) => *i as u32,
                        Arg::Label(l) => *symbols.get(l).ok_or_else(|| AsmError {
                            line: *line,
                            message: format!("undefined label `{l}`"),
                        })?,
                        _ => {
                            return Err(AsmError {
                                line: *line,
                                message: ".word takes immediates or labels".into(),
                            })
                        }
                    };
                    emit(&mut words, &mut pc, w);
                    download_words += 1;
                }
            }
            Item::Instr {
                line,
                mnemonic,
                args,
            } => {
                let encoded = encode_instr(mnemonic, args, pc, &symbols).map_err(|m| AsmError {
                    line: *line,
                    message: m,
                })?;
                for w in encoded {
                    emit(&mut words, &mut pc, w);
                    download_words += 1;
                }
            }
        }
    }

    Ok(Program {
        base: 0,
        words,
        download_words,
        symbols,
    })
}

fn parse(source: &str) -> Result<Vec<Item>, AsmError> {
    let mut items = Vec::new();
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let mut text = raw;
        if let Some(i) = text.find(['#', ';']) {
            text = &text[..i];
        }
        let mut text = text.trim();
        // Labels (possibly several).
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty()
                || !label
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                return Err(AsmError {
                    line,
                    message: format!("invalid label `{label}`"),
                });
            }
            items.push(Item::Label(label.to_string(), line));
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (head, rest) = match text.find(char::is_whitespace) {
            Some(i) => (&text[..i], text[i..].trim()),
            None => (text, ""),
        };
        let head_lc = head.to_ascii_lowercase();
        match head_lc.as_str() {
            ".org" => {
                let addr = parse_imm(rest).ok_or_else(|| AsmError {
                    line,
                    message: format!("bad .org operand `{rest}`"),
                })?;
                if addr % 4 != 0 {
                    return Err(AsmError {
                        line,
                        message: ".org address must be word aligned".into(),
                    });
                }
                items.push(Item::Org(addr as u32));
            }
            ".word" => {
                let vals = rest
                    .split(',')
                    .map(|s| parse_arg(s.trim()))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| AsmError {
                        line,
                        message: format!("bad .word operands `{rest}`"),
                    })?;
                items.push(Item::Word(vals, line));
            }
            ".space" => {
                let bytes = parse_imm(rest).ok_or_else(|| AsmError {
                    line,
                    message: format!("bad .space operand `{rest}`"),
                })?;
                items.push(Item::Space(((bytes + 3) / 4) as usize));
            }
            _ if head_lc.starts_with('.') => {
                return Err(AsmError {
                    line,
                    message: format!("unknown directive `{head}`"),
                });
            }
            _ => {
                let args = if rest.is_empty() {
                    Vec::new()
                } else {
                    rest.split(',')
                        .map(|s| parse_arg(s.trim()))
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| AsmError {
                            line,
                            message: format!("bad operands `{rest}`"),
                        })?
                };
                items.push(Item::Instr {
                    line,
                    mnemonic: head_lc,
                    args,
                });
            }
        }
    }
    Ok(items)
}

fn parse_arg(s: &str) -> Option<Arg> {
    if s.is_empty() {
        return None;
    }
    if let Some(r) = Reg::parse(s) {
        return Some(Arg::Reg(r));
    }
    // offset(base)
    if let Some(open) = s.find('(') {
        let close = s.rfind(')')?;
        if close != s.len() - 1 {
            return None;
        }
        let off_str = s[..open].trim();
        let base = Reg::parse(s[open + 1..close].trim())?;
        let offset = if off_str.is_empty() {
            0
        } else {
            parse_imm(off_str)?
        };
        return Some(Arg::MemRef { offset, base });
    }
    if let Some(v) = parse_imm(s) {
        return Some(Arg::Imm(v));
    }
    if s.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && !s.chars().next().unwrap().is_ascii_digit()
    {
        return Some(Arg::Label(s.to_string()));
    }
    None
}

fn parse_imm(s: &str) -> Option<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(&hex.replace('_', ""), 16).ok()?
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        i64::from_str_radix(&bin.replace('_', ""), 2).ok()?
    } else {
        body.replace('_', "").parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

/// How many instruction words the (possibly pseudo) instruction expands to.
fn instr_size_words(mnemonic: &str, args: &[Arg]) -> Result<usize, String> {
    match mnemonic {
        "li" => match args {
            [Arg::Reg(_), Arg::Imm(v)] => Ok(if fits_li_single(*v) { 1 } else { 2 }),
            _ => Err("li takes a register and an immediate".into()),
        },
        "la" => Ok(2),
        "nop" | "move" | "not" | "neg" | "b" | "beqz" | "bnez" => Ok(1),
        _ => Op::from_mnemonic(mnemonic)
            .map(|_| 1)
            .ok_or_else(|| format!("unknown instruction `{mnemonic}`")),
    }
}

fn fits_li_single(v: i64) -> bool {
    (-32768..=32767).contains(&v) || (0..=0xFFFF).contains(&v)
}

fn want_reg(a: &Arg) -> Result<Reg, String> {
    match a {
        Arg::Reg(r) => Ok(*r),
        other => Err(format!("expected register, got {other:?}")),
    }
}

fn want_imm_i16(a: &Arg) -> Result<u16, String> {
    match a {
        Arg::Imm(v) if (-32768..=65535).contains(v) => Ok(*v as u16),
        Arg::Imm(v) => Err(format!("immediate {v} out of 16-bit range")),
        other => Err(format!("expected immediate, got {other:?}")),
    }
}

fn branch_offset(target: u32, pc: u32) -> Result<u16, String> {
    let delta = (target as i64) - (pc as i64 + 4);
    if delta % 4 != 0 {
        return Err("branch target not word aligned".into());
    }
    let words = delta / 4;
    if !(-32768..=32767).contains(&words) {
        return Err(format!("branch target {words} words away, out of range"));
    }
    Ok(words as i16 as u16)
}

fn resolve_label(a: &Arg, symbols: &HashMap<String, u32>) -> Result<u32, String> {
    match a {
        Arg::Label(l) => symbols
            .get(l)
            .copied()
            .ok_or_else(|| format!("undefined label `{l}`")),
        Arg::Imm(v) => Ok(*v as u32),
        other => Err(format!("expected label or address, got {other:?}")),
    }
}

fn encode_instr(
    mnemonic: &str,
    args: &[Arg],
    pc: u32,
    symbols: &HashMap<String, u32>,
) -> Result<Vec<u32>, String> {
    // Pseudo-instructions first.
    match mnemonic {
        "nop" => return Ok(vec![crate::isa::NOP]),
        "li" => {
            let (rt, v) = match args {
                [Arg::Reg(r), Arg::Imm(v)] => (*r, *v),
                _ => return Err("li takes a register and an immediate".into()),
            };
            return Ok(encode_li(rt, v as u32, fits_li_single(v)));
        }
        "la" => {
            let (rt, addr) = match args {
                [Arg::Reg(r), rest] => (*r, resolve_label(rest, symbols)?),
                _ => return Err("la takes a register and a label".into()),
            };
            return Ok(encode_li(rt, addr, false));
        }
        "move" => {
            let (rd, rs) = match args {
                [Arg::Reg(d), Arg::Reg(s)] => (*d, *s),
                _ => return Err("move takes two registers".into()),
            };
            return Ok(vec![Instr::r3(Op::Addu, rd, rs, Reg::ZERO).encode()]);
        }
        "not" => {
            let (rd, rs) = match args {
                [Arg::Reg(d), Arg::Reg(s)] => (*d, *s),
                _ => return Err("not takes two registers".into()),
            };
            return Ok(vec![Instr::r3(Op::Nor, rd, rs, Reg::ZERO).encode()]);
        }
        "neg" => {
            let (rd, rs) = match args {
                [Arg::Reg(d), Arg::Reg(s)] => (*d, *s),
                _ => return Err("neg takes two registers".into()),
            };
            return Ok(vec![Instr::r3(Op::Subu, rd, Reg::ZERO, rs).encode()]);
        }
        "b" => {
            let target = match args {
                [a] => resolve_label(a, symbols)?,
                _ => return Err("b takes one target".into()),
            };
            let off = branch_offset(target, pc)?;
            return Ok(vec![Instr {
                op: Some(Op::Beq),
                imm: off,
                ..Default::default()
            }
            .encode()]);
        }
        "beqz" | "bnez" => {
            let (rs, target) = match args {
                [Arg::Reg(r), a] => (*r, resolve_label(a, symbols)?),
                _ => return Err(format!("{mnemonic} takes a register and a target")),
            };
            let off = branch_offset(target, pc)?;
            let op = if mnemonic == "beqz" { Op::Beq } else { Op::Bne };
            return Ok(vec![Instr {
                op: Some(op),
                rs,
                imm: off,
                ..Default::default()
            }
            .encode()]);
        }
        _ => {}
    }

    let op =
        Op::from_mnemonic(mnemonic).ok_or_else(|| format!("unknown instruction `{mnemonic}`"))?;
    let i = match (op.format(), args) {
        (Format::R3, [d, s, t]) => Instr::r3(op, want_reg(d)?, want_reg(s)?, want_reg(t)?),
        (Format::RShift, [d, t, Arg::Imm(sh)]) => {
            if !(0..=31).contains(sh) {
                return Err(format!("shift amount {sh} out of range"));
            }
            Instr::shift(op, want_reg(d)?, want_reg(t)?, *sh as u8)
        }
        // Variable shifts are written `op rd, rt, rs`.
        (Format::RShiftV, [d, t, s]) => Instr {
            op: Some(op),
            rd: want_reg(d)?,
            rt: want_reg(t)?,
            rs: want_reg(s)?,
            ..Default::default()
        },
        (Format::RJr, [s]) => Instr {
            op: Some(op),
            rs: want_reg(s)?,
            ..Default::default()
        },
        (Format::RJalr, [d, s]) => Instr {
            op: Some(op),
            rd: want_reg(d)?,
            rs: want_reg(s)?,
            ..Default::default()
        },
        (Format::RJalr, [s]) => Instr {
            op: Some(op),
            rd: Reg::RA,
            rs: want_reg(s)?,
            ..Default::default()
        },
        (Format::RMfHiLo, [d]) => Instr {
            op: Some(op),
            rd: want_reg(d)?,
            ..Default::default()
        },
        (Format::RMtHiLo, [s]) => Instr {
            op: Some(op),
            rs: want_reg(s)?,
            ..Default::default()
        },
        (Format::RMulDiv, [s, t]) => Instr {
            op: Some(op),
            rs: want_reg(s)?,
            rt: want_reg(t)?,
            ..Default::default()
        },
        (Format::ISigned | Format::IUnsigned, [t, s, imm]) => {
            Instr::imm(op, want_reg(t)?, want_reg(s)?, want_imm_i16(imm)?)
        }
        (Format::ILui, [t, imm]) => Instr::imm(op, want_reg(t)?, Reg::ZERO, want_imm_i16(imm)?),
        (Format::IBranch2, [s, t, target]) => {
            let off = branch_offset(resolve_label(target, symbols)?, pc)?;
            Instr {
                op: Some(op),
                rs: want_reg(s)?,
                rt: want_reg(t)?,
                imm: off,
                ..Default::default()
            }
        }
        (Format::IBranch1 | Format::IRegimm, [s, target]) => {
            let off = branch_offset(resolve_label(target, symbols)?, pc)?;
            Instr {
                op: Some(op),
                rs: want_reg(s)?,
                imm: off,
                ..Default::default()
            }
        }
        (Format::JAbs, [target]) => {
            let addr = resolve_label(target, symbols)?;
            Instr {
                op: Some(op),
                target: (addr >> 2) & 0x03FF_FFFF,
                ..Default::default()
            }
        }
        (Format::IMem, [t, Arg::MemRef { offset, base }]) => {
            if !(-32768..=32767).contains(offset) {
                return Err(format!("memory offset {offset} out of range"));
            }
            Instr::mem(op, want_reg(t)?, *base, *offset as i16)
        }
        (Format::IMem, [t, Arg::Imm(abs)]) => {
            // Absolute addressing off $zero.
            if !(0..=32767).contains(abs) {
                return Err(format!("absolute address {abs} out of range"));
            }
            Instr::mem(op, want_reg(t)?, Reg::ZERO, *abs as i16)
        }
        (f, a) => {
            return Err(format!(
                "wrong operands for `{mnemonic}` ({f:?} expects a different shape, got {} args)",
                a.len()
            ))
        }
    };
    Ok(vec![i.encode()])
}

fn encode_li(rt: Reg, value: u32, single: bool) -> Vec<u32> {
    if single {
        if value <= 0xFFFF {
            vec![Instr::imm(Op::Ori, rt, Reg::ZERO, value as u16).encode()]
        } else {
            // Negative 16-bit value: addiu sign-extends.
            vec![Instr::imm(Op::Addiu, rt, Reg::ZERO, value as u16).encode()]
        }
    } else {
        let hi = (value >> 16) as u16;
        let lo = (value & 0xFFFF) as u16;
        let mut out = vec![Instr::imm(Op::Lui, rt, Reg::ZERO, hi).encode()];
        if lo != 0 {
            out.push(Instr::imm(Op::Ori, rt, rt, lo).encode());
        } else {
            out.push(crate::isa::NOP);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_program_assembles() {
        let p = assemble(
            r#"
            # a tiny program
            start:
                addiu $t0, $zero, 5
                addiu $t1, $zero, 7
                addu  $t2, $t0, $t1
                sw    $t2, 0x40($zero)
            loop:
                beq   $zero, $zero, loop
                nop
            "#,
        )
        .unwrap();
        assert_eq!(p.size_words(), 6);
        assert_eq!(p.symbol("start"), Some(0));
        assert_eq!(p.symbol("loop"), Some(16));
        // beq $0,$0,loop at pc=16 -> offset -1
        assert_eq!(p.words[4], 0x1000_FFFF);
        assert_eq!(p.words[5], 0);
    }

    #[test]
    fn li_chooses_smallest_encoding() {
        let p = assemble("li $t0, 42").unwrap();
        assert_eq!(p.size_words(), 1);
        let p = assemble("li $t0, -3").unwrap();
        assert_eq!(p.size_words(), 1);
        assert_eq!(p.words[0] & 0xFFFF, 0xFFFD);
        let p = assemble("li $t0, 0x12345678").unwrap();
        assert_eq!(p.size_words(), 2);
        let p = assemble("li $t0, 0xFFFF").unwrap();
        assert_eq!(p.size_words(), 1); // ori
        let p = assemble("li $t0, 0x10000").unwrap();
        assert_eq!(p.size_words(), 2); // lui + nop (lo == 0)
    }

    #[test]
    fn la_resolves_forward_labels() {
        let p = assemble(
            r#"
                la $t0, data
                lw $t1, 0($t0)
            stop: b stop
                nop
            .org 0x100
            data: .word 0xCAFEBABE, 123, stop
            "#,
        )
        .unwrap();
        assert_eq!(p.symbol("data"), Some(0x100));
        assert_eq!(p.words[0x100 / 4], 0xCAFE_BABE);
        assert_eq!(p.words[0x100 / 4 + 1], 123);
        assert_eq!(p.words[0x100 / 4 + 2], p.symbol("stop").unwrap());
        // la = lui 0x0000 + ori 0x0100
        assert_eq!(p.words[0] & 0xFFFF, 0);
        assert_eq!(p.words[1] & 0xFFFF, 0x100);
    }

    #[test]
    fn memory_operand_forms() {
        let p = assemble(
            r#"
                lw $t0, 8($sp)
                lw $t1, ($sp)
                sb $t2, -4($gp)
                lw $t3, 0x20
            "#,
        )
        .unwrap();
        assert_eq!(p.words[0], 0x8FA8_0008);
        assert_eq!(p.words[1], 0x8FA9_0000);
        assert_eq!(p.words[3] & 0xFFFF, 0x20);
    }

    #[test]
    fn errors_reported_with_lines() {
        let e = assemble("addu $t0, $t1").unwrap_err();
        assert_eq!(e.line, 1);
        let e = assemble("\n\nbogus $t0").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
        let e = assemble("beq $t0, $t1, nowhere").unwrap_err();
        assert!(e.message.contains("undefined label"));
        let e = assemble("x: nop\nx: nop").unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = assemble("sll $t0, $t1, 32").unwrap_err();
        assert!(e.message.contains("out of range"));
        let e = assemble("addiu $t0, $zero, 0x12345").unwrap_err();
        assert!(e.message.contains("16-bit"));
    }

    #[test]
    fn pseudo_expansions() {
        let p = assemble(
            r#"
                move $t0, $t1
                not  $t2, $t3
                neg  $t4, $t5
                beqz $t6, out
                bnez $t7, out
            out: jr $ra
            "#,
        )
        .unwrap();
        use crate::isa::Instr;
        let i = Instr::decode(p.words[0]);
        assert_eq!(i.op, Some(Op::Addu));
        assert_eq!(i.rt, Reg::ZERO);
        let i = Instr::decode(p.words[1]);
        assert_eq!(i.op, Some(Op::Nor));
        let i = Instr::decode(p.words[2]);
        assert_eq!(i.op, Some(Op::Subu));
        assert_eq!(i.rs, Reg::ZERO);
        let i = Instr::decode(p.words[3]);
        assert_eq!(i.op, Some(Op::Beq));
        let i = Instr::decode(p.words[4]);
        assert_eq!(i.op, Some(Op::Bne));
    }

    #[test]
    fn variable_shift_operand_order() {
        // srlv rd, rt, rs : value in rt shifted by rs.
        let p = assemble("srlv $t0, $t1, $t2").unwrap();
        let i = Instr::decode(p.words[0]);
        assert_eq!(i.op, Some(Op::Srlv));
        assert_eq!(i.rd, Reg(8));
        assert_eq!(i.rt, Reg(9));
        assert_eq!(i.rs, Reg(10));
    }

    #[test]
    fn space_and_org_layout() {
        let p = assemble(
            r#"
                nop
            .space 12
            tail: .word 7
            "#,
        )
        .unwrap();
        assert_eq!(p.symbol("tail"), Some(16));
        assert_eq!(p.words[4], 7);
    }

    #[test]
    fn jal_and_jalr_forms() {
        let p = assemble(
            r#"
                jal  func
                nop
                jalr $t9
                nop
                jalr $t0, $t9
            func: jr $ra
            "#,
        )
        .unwrap();
        let i = Instr::decode(p.words[0]);
        assert_eq!(i.op, Some(Op::Jal));
        assert_eq!(i.target << 2, p.symbol("func").unwrap());
        let i = Instr::decode(p.words[2]);
        assert_eq!(i.op, Some(Op::Jalr));
        assert_eq!(i.rd, Reg::RA, "one-operand jalr links to $ra");
        let i = Instr::decode(p.words[4]);
        assert_eq!(i.rd, Reg(8));
    }
}
