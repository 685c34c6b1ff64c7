//! Structural generators for the datapath blocks processors are built from.
//!
//! These play the role of the synthesis tool in the paper's flow (Leonardo
//! mapping the Plasma VHDL to a 0.35 um library). Each generator emits
//! gate-level structure the way synthesis does for the corresponding RT
//! operator. Two [`TechStyle`]s are provided so the paper's re-synthesis
//! experiment ("we obtained very similar fault coverage results when the
//! processor was synthesized in a different technology library") can be
//! reproduced: the *shape* of the logic changes, the function does not.

use crate::builder::{NetlistBuilder, Word};
use crate::netlist::Net;

/// Synthesis/technology style, standing in for a target cell library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TechStyle {
    /// Style A (the default "0.35 um" stand-in): ripple-carry adders,
    /// mux-tree read networks.
    #[default]
    RippleMux,
    /// Style B (the re-target): carry-select adders built on 4-bit
    /// lookahead groups, AND-OR read networks with AOI cells.
    ClaAoi,
}

impl TechStyle {
    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            TechStyle::RippleMux => "styleA-ripple/mux",
            TechStyle::ClaAoi => "styleB-cla/aoi",
        }
    }
}

/// Result of an addition: sum bits plus carry-out.
#[derive(Debug, Clone)]
pub struct AddResult {
    /// Sum word, same width as the operands.
    pub sum: Word,
    /// Carry out of the most significant bit.
    pub carry_out: Net,
    /// Carry *into* the most significant bit (needed for signed-overflow
    /// detection: `overflow = carry_into_msb ^ carry_out`).
    pub carry_into_msb: Net,
}

/// Ripple-carry adder (full-adder chain).
pub fn add_ripple(b: &mut NetlistBuilder, a: &[Net], c: &[Net], cin: Net) -> AddResult {
    assert_eq!(a.len(), c.len(), "adder operand width mismatch");
    assert!(!a.is_empty());
    let mut carry = cin;
    let mut carry_into_msb = cin;
    let mut sum = Vec::with_capacity(a.len());
    for (i, (&x, &y)) in a.iter().zip(c).enumerate() {
        if i == a.len() - 1 {
            carry_into_msb = carry;
        }
        let p = b.xor2(x, y);
        sum.push(b.xor2(p, carry));
        // carry = (x & y) | (p & carry), mapped to AOI + inverter
        let g = b.and2(x, y);
        let pc = b.and2(p, carry);
        carry = b.or2(g, pc);
    }
    AddResult {
        sum,
        carry_out: carry,
        carry_into_msb,
    }
}

/// Carry-select adder over 4-bit ripple groups (style B).
///
/// Each group is computed for both carry-in values and selected by the
/// actual group carry, giving a different structural shape (and fault set)
/// from the plain ripple chain.
pub fn add_select4(b: &mut NetlistBuilder, a: &[Net], c: &[Net], cin: Net) -> AddResult {
    assert_eq!(a.len(), c.len(), "adder operand width mismatch");
    assert!(!a.is_empty());
    let zero = b.zero();
    let one = b.one();
    let mut carry = cin;
    let mut carry_into_msb = cin;
    let mut sum = Vec::with_capacity(a.len());
    let width = a.len();
    let mut base = 0usize;
    while base < width {
        let hi = (base + 4).min(width);
        let ga = &a[base..hi];
        let gc = &c[base..hi];
        if base == 0 {
            // First group uses the real carry-in directly.
            let r = add_ripple(b, ga, gc, carry);
            if hi == width {
                carry_into_msb = r.carry_into_msb;
            }
            sum.extend_from_slice(&r.sum);
            carry = r.carry_out;
        } else {
            let r0 = add_ripple(b, ga, gc, zero);
            let r1 = add_ripple(b, ga, gc, one);
            let selected = b.mux2_word(carry, &r0.sum, &r1.sum);
            sum.extend_from_slice(&selected);
            if hi == width {
                carry_into_msb = b.mux2(carry, r0.carry_into_msb, r1.carry_into_msb);
            }
            carry = b.mux2(carry, r0.carry_out, r1.carry_out);
        }
        base = hi;
    }
    AddResult {
        sum,
        carry_out: carry,
        carry_into_msb,
    }
}

/// Style-dispatched adder.
pub fn add(b: &mut NetlistBuilder, style: TechStyle, a: &[Net], c: &[Net], cin: Net) -> AddResult {
    match style {
        TechStyle::RippleMux => add_ripple(b, a, c, cin),
        TechStyle::ClaAoi => add_select4(b, a, c, cin),
    }
}

/// Adder/subtractor: computes `a + c` when `sub = 0`, `a - c` when
/// `sub = 1` (two's complement via XOR pre-inversion and carry-in).
pub fn addsub(
    b: &mut NetlistBuilder,
    style: TechStyle,
    a: &[Net],
    c: &[Net],
    sub: Net,
) -> AddResult {
    let c_inv: Word = c.iter().map(|&y| b.xor2(y, sub)).collect();
    add(b, style, a, &c_inv, sub)
}

/// Incrementer: `a + 1` as a half-adder chain (used for PC + 4 and
/// counters). Returns `(sum, carry_out)`.
pub fn inc(b: &mut NetlistBuilder, a: &[Net]) -> (Word, Net) {
    let mut carry = b.one();
    let mut sum = Vec::with_capacity(a.len());
    for &bit in a {
        sum.push(b.xor2(bit, carry));
        carry = b.and2(bit, carry);
    }
    (sum, carry)
}

/// Match lines for a *sparse* set of codes: one AND-tree per requested
/// value, with the input inverters shared. This is what synthesis emits
/// for an instruction decoder — lines for unused opcodes do not exist.
pub fn match_lines(b: &mut NetlistBuilder, bits: &[Net], values: &[u64]) -> Vec<Net> {
    let inv: Vec<Net> = bits.iter().map(|&s| b.not(s)).collect();
    values
        .iter()
        .map(|&v| {
            let terms: Vec<Net> = bits
                .iter()
                .enumerate()
                .map(|(j, &s)| if (v >> j) & 1 == 1 { s } else { inv[j] })
                .collect();
            b.and_tree(&terms)
        })
        .collect()
}

/// One-hot decoder: `sel` (LSB first) to `2^sel.len()` one-hot lines.
pub fn decoder(b: &mut NetlistBuilder, sel: &[Net]) -> Vec<Net> {
    let n = 1usize << sel.len();
    let inv: Vec<Net> = sel.iter().map(|&s| b.not(s)).collect();
    (0..n)
        .map(|i| {
            let terms: Vec<Net> = sel
                .iter()
                .enumerate()
                .map(|(j, &s)| if (i >> j) & 1 == 1 { s } else { inv[j] })
                .collect();
            b.and_tree(&terms)
        })
        .collect()
}

/// N-way word multiplexer as a binary mux tree; `items.len()` must equal
/// `2^sel.len()`.
pub fn mux_tree(b: &mut NetlistBuilder, sel: &[Net], items: &[Word]) -> Word {
    assert_eq!(items.len(), 1 << sel.len(), "mux tree arity mismatch");
    let mut layer: Vec<Word> = items.to_vec();
    for &s in sel {
        let mut next = Vec::with_capacity(layer.len() / 2);
        for pair in layer.chunks(2) {
            next.push(b.mux2_word(s, &pair[0], &pair[1]));
        }
        layer = next;
    }
    layer.into_iter().next().unwrap()
}

/// N-way word selection as an AND-OR network over a one-hot select
/// (style B read network): `out = OR_i (onehot[i] & item[i])`.
pub fn and_or_select(b: &mut NetlistBuilder, onehot: &[Net], items: &[Word]) -> Word {
    assert_eq!(onehot.len(), items.len(), "select arity mismatch");
    assert!(!items.is_empty());
    let width = items[0].len();
    (0..width)
        .map(|bit| {
            let terms: Vec<Net> = onehot
                .iter()
                .zip(items)
                .map(|(&oh, item)| b.and2(oh, item[bit]))
                .collect();
            b.or_tree(&terms)
        })
        .collect()
}

/// Style-dispatched N-way selection with a *binary* select word.
pub fn select(b: &mut NetlistBuilder, style: TechStyle, sel: &[Net], items: &[Word]) -> Word {
    match style {
        TechStyle::RippleMux => mux_tree(b, sel, items),
        TechStyle::ClaAoi => {
            let onehot = decoder(b, sel);
            and_or_select(b, &onehot, items)
        }
    }
}

/// 32-bit barrel shifter.
///
/// * `data`: 32-bit input word
/// * `shamt`: 5-bit shift amount
/// * `left`: 1 = shift left, 0 = shift right
/// * `arith`: 1 = arithmetic right shift (sign fill); ignored for left
///
/// Implemented as bidirectional-by-reversal: the input is bit-reversed for
/// left shifts, shifted right through five mux stages, and reversed back —
/// the classic single-array barrel structure.
pub fn barrel_shifter(
    b: &mut NetlistBuilder,
    data: &[Net],
    shamt: &[Net],
    left: Net,
    arith: Net,
) -> Word {
    assert_eq!(data.len(), 32, "barrel shifter is 32-bit");
    assert_eq!(shamt.len(), 5, "shift amount is 5-bit");
    let msb = data[31];
    // Fill bit: sign for arithmetic right shift; 0 otherwise. Left shifts
    // fill with 0 (the reversal makes their fill come from the same place).
    let not_left = b.not(left);
    let arith_right = b.and2(arith, not_left);
    let fill = b.and2(arith_right, msb);

    let reversed: Word = data.iter().rev().copied().collect();
    let mut cur = b.mux2_word(left, data, &reversed);
    for (stage, &s) in shamt.iter().enumerate() {
        let dist = 1usize << stage;
        let shifted: Word = (0..32)
            .map(|i| if i + dist < 32 { cur[i + dist] } else { fill })
            .collect();
        cur = b.mux2_word(s, &cur, &shifted);
    }
    let unreversed: Word = cur.iter().rev().copied().collect();
    b.mux2_word(left, &cur, &unreversed)
}

/// Register file with one write port and two asynchronous read ports.
///
/// Register 0 is hardwired to zero (MIPS convention) when `r0_zero` is set.
/// Reads use the style's selection network; writes use a one-hot decoder
/// plus per-register enable muxes.
#[allow(clippy::too_many_arguments)]
pub fn register_file(
    b: &mut NetlistBuilder,
    style: TechStyle,
    addr_bits: usize,
    width: usize,
    r0_zero: bool,
    waddr: &[Net],
    wdata: &[Net],
    wen: Net,
    raddr1: &[Net],
    raddr2: &[Net],
) -> (Word, Word) {
    assert_eq!(waddr.len(), addr_bits);
    assert_eq!(raddr1.len(), addr_bits);
    assert_eq!(raddr2.len(), addr_bits);
    assert_eq!(wdata.len(), width);
    let n = 1usize << addr_bits;
    let wsel = decoder(b, waddr);
    let zero_word = b.const_word(0, width);
    let mut regs: Vec<Word> = Vec::with_capacity(n);
    for (i, &sel_i) in wsel.iter().enumerate().take(n) {
        if i == 0 && r0_zero {
            regs.push(zero_word.clone());
            continue;
        }
        let we = b.and2(wen, sel_i);
        regs.push(b.dff_word_en(wdata, we, 0));
    }
    let rd1 = select(b, style, raddr1, &regs);
    let rd2 = select(b, style, raddr2, &regs);
    (rd1, rd2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::Netlist;

    fn adder_netlist(style: TechStyle, width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("add");
        let a = b.inputs("a", width);
        let c = b.inputs("b", width);
        let cin = b.input("cin");
        let r = add(&mut b, style, &a, &c, cin);
        b.outputs("sum", &r.sum);
        b.output("cout", r.carry_out);
        b.output("cmsb", r.carry_into_msb);
        b.finish().unwrap()
    }

    fn check_adder(style: TechStyle) {
        let nl = adder_netlist(style, 16);
        let mut sim = Simulator::new(&nl);
        let cases: Vec<(u64, u64, u64)> = (0..200)
            .map(|i| {
                let a = (i as u64).wrapping_mul(0x9E37_79B9) & 0xFFFF;
                let b = (i as u64).wrapping_mul(0x85EB_CA6B) >> 3 & 0xFFFF;
                (a, b, i as u64 & 1)
            })
            .chain([(0xFFFF, 1, 0), (0xFFFF, 0xFFFF, 1), (0, 0, 0)])
            .collect();
        for (a, c, cin) in cases {
            sim.set_input_word(&nl, "a", a);
            sim.set_input_word(&nl, "b", c);
            sim.set_input_word(&nl, "cin", cin);
            sim.eval(&nl);
            let full = a + c + cin;
            assert_eq!(sim.output_word(&nl, "sum"), full & 0xFFFF, "{style:?} sum");
            assert_eq!(sim.output_word(&nl, "cout"), full >> 16, "{style:?} cout");
            // carry into msb: compute by adding low 15 bits
            let low = (a & 0x7FFF) + (c & 0x7FFF) + cin;
            assert_eq!(
                sim.output_word(&nl, "cmsb"),
                low >> 15,
                "{style:?} carry into msb"
            );
        }
    }

    #[test]
    fn ripple_adder_correct() {
        check_adder(TechStyle::RippleMux);
    }

    #[test]
    fn select4_adder_correct() {
        check_adder(TechStyle::ClaAoi);
    }

    #[test]
    fn addsub_subtracts() {
        for style in [TechStyle::RippleMux, TechStyle::ClaAoi] {
            let mut b = NetlistBuilder::new("as");
            let a = b.inputs("a", 12);
            let c = b.inputs("b", 12);
            let sub = b.input("sub");
            let r = addsub(&mut b, style, &a, &c, sub);
            b.outputs("sum", &r.sum);
            b.output("cout", r.carry_out);
            let nl = b.finish().unwrap();
            let mut sim = Simulator::new(&nl);
            for (a_v, b_v) in [(100u64, 30u64), (5, 9), (0xFFF, 0xFFF), (0, 1)] {
                sim.set_input_word(&nl, "a", a_v);
                sim.set_input_word(&nl, "b", b_v);
                sim.set_input_word(&nl, "sub", 1);
                sim.eval(&nl);
                assert_eq!(
                    sim.output_word(&nl, "sum"),
                    a_v.wrapping_sub(b_v) & 0xFFF,
                    "{style:?} {a_v}-{b_v}"
                );
                // carry out of a subtract = NOT borrow
                assert_eq!(sim.output_word(&nl, "cout") == 1, a_v >= b_v);
                sim.set_input_word(&nl, "sub", 0);
                sim.eval(&nl);
                assert_eq!(sim.output_word(&nl, "sum"), (a_v + b_v) & 0xFFF);
            }
        }
    }

    #[test]
    fn incrementer_increments() {
        let mut b = NetlistBuilder::new("inc");
        let a = b.inputs("a", 8);
        let (s, cout) = inc(&mut b, &a);
        b.outputs("s", &s);
        b.output("cout", cout);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        for v in 0..=255u64 {
            sim.set_input_word(&nl, "a", v);
            sim.eval(&nl);
            assert_eq!(sim.output_word(&nl, "s"), (v + 1) & 0xFF);
            assert_eq!(sim.output_word(&nl, "cout"), (v + 1) >> 8);
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let mut b = NetlistBuilder::new("dec");
        let s = b.inputs("s", 3);
        let oh = decoder(&mut b, &s);
        b.outputs("oh", &oh);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        for v in 0..8u64 {
            sim.set_input_word(&nl, "s", v);
            sim.eval(&nl);
            assert_eq!(sim.output_word(&nl, "oh"), 1 << v);
        }
    }

    #[test]
    fn selection_networks_agree() {
        for style in [TechStyle::RippleMux, TechStyle::ClaAoi] {
            let mut b = NetlistBuilder::new("sel");
            let s = b.inputs("s", 2);
            let items: Vec<Word> = (0..4).map(|i| b.inputs(&format!("i{i}"), 8)).collect();
            let out = select(&mut b, style, &s, &items);
            b.outputs("out", &out);
            let nl = b.finish().unwrap();
            let mut sim = Simulator::new(&nl);
            let vals = [0x11u64, 0x22, 0x44, 0x88];
            for (i, v) in vals.iter().enumerate() {
                sim.set_input_word(&nl, &format!("i{i}"), *v);
            }
            for sv in 0..4u64 {
                sim.set_input_word(&nl, "s", sv);
                sim.eval(&nl);
                assert_eq!(sim.output_word(&nl, "out"), vals[sv as usize], "{style:?}");
            }
        }
    }

    #[test]
    fn barrel_shifter_matches_reference() {
        let mut b = NetlistBuilder::new("bsh");
        let d = b.inputs("d", 32);
        let sh = b.inputs("sh", 5);
        let left = b.input("left");
        let arith = b.input("arith");
        let out = barrel_shifter(&mut b, &d, &sh, left, arith);
        b.outputs("out", &out);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        let data = [0x8000_0001u32, 0xDEAD_BEEF, 0x7FFF_FFFF, 1, 0xFFFF_FFFF];
        for &dv in &data {
            for sa in 0..32u64 {
                for (left_v, arith_v) in [(0u64, 0u64), (0, 1), (1, 0)] {
                    sim.set_input_word(&nl, "d", dv as u64);
                    sim.set_input_word(&nl, "sh", sa);
                    sim.set_input_word(&nl, "left", left_v);
                    sim.set_input_word(&nl, "arith", arith_v);
                    sim.eval(&nl);
                    let expect = if left_v == 1 {
                        dv << sa
                    } else if arith_v == 1 {
                        ((dv as i32) >> sa) as u32
                    } else {
                        dv >> sa
                    };
                    assert_eq!(
                        sim.output_word(&nl, "out") as u32,
                        expect,
                        "d={dv:#x} sa={sa} left={left_v} arith={arith_v}"
                    );
                }
            }
        }
    }

    #[test]
    fn register_file_reads_writes() {
        for style in [TechStyle::RippleMux, TechStyle::ClaAoi] {
            let mut b = NetlistBuilder::new("rf");
            let waddr = b.inputs("waddr", 3);
            let wdata = b.inputs("wdata", 8);
            let wen = b.input("wen");
            let ra1 = b.inputs("ra1", 3);
            let ra2 = b.inputs("ra2", 3);
            let (rd1, rd2) =
                register_file(&mut b, style, 3, 8, true, &waddr, &wdata, wen, &ra1, &ra2);
            b.outputs("rd1", &rd1);
            b.outputs("rd2", &rd2);
            let nl = b.finish().unwrap();
            let mut sim = Simulator::new(&nl);
            sim.reset(&nl);
            // Write i*3+1 to each register.
            for i in 0..8u64 {
                sim.set_input_word(&nl, "waddr", i);
                sim.set_input_word(&nl, "wdata", i * 3 + 1);
                sim.set_input_word(&nl, "wen", 1);
                sim.eval(&nl);
                sim.clock(&nl);
            }
            sim.set_input_word(&nl, "wen", 0);
            for i in 0..8u64 {
                sim.set_input_word(&nl, "ra1", i);
                sim.set_input_word(&nl, "ra2", 7 - i);
                sim.eval(&nl);
                let expect1 = if i == 0 { 0 } else { i * 3 + 1 };
                let expect2 = if 7 - i == 0 { 0 } else { (7 - i) * 3 + 1 };
                assert_eq!(sim.output_word(&nl, "rd1"), expect1, "{style:?} rd1");
                assert_eq!(sim.output_word(&nl, "rd2"), expect2, "{style:?} rd2");
            }
            // Write with wen=0 must not change contents.
            sim.set_input_word(&nl, "waddr", 3);
            sim.set_input_word(&nl, "wdata", 0xFF);
            sim.eval(&nl);
            sim.clock(&nl);
            sim.set_input_word(&nl, "ra1", 3);
            sim.eval(&nl);
            assert_eq!(sim.output_word(&nl, "rd1"), 10, "{style:?} hold");
        }
    }
}
