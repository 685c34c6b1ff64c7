//! The sequential multiply/divide unit (`MulD` component, functional
//! class).
//!
//! A 32-cycle unit sharing one 33-bit adder/subtractor, exactly like the
//! Plasma `mult.vhd` block:
//!
//! * **multiply**: shift-add over magnitudes — `HI` accumulates, `LO`
//!   holds the multiplier and collects result bits from the top;
//! * **divide**: restoring division over magnitudes — `HI` is the partial
//!   remainder, `LO` streams dividend bits out and quotient bits in;
//! * **signs**: operands are made positive at issue; readout negates
//!   `HI`/`LO` combinationally according to the recorded sign flags
//!   (`mips::iss::muldiv_mult`/`muldiv_div` are the bit-exact software
//!   models).
//!
//! The `busy` output drives the `mfhi`/`mflo` pipeline stall; a counter
//! reaches zero exactly [`mips::iss::MULDIV_CYCLES`] clocks after issue.

use netlist::synth::{self, TechStyle};
use netlist::{Net, NetlistBuilder, Word};

/// Wires out of the multiply/divide unit.
pub struct MulDivOutputs {
    /// Architectural `HI` (sign-corrected).
    pub hi: Word,
    /// Architectural `LO` (sign-corrected).
    pub lo: Word,
    /// High while an operation is in flight.
    pub busy: Net,
}

/// Control inputs: all must be gated by the core (state F, no stall).
pub struct MulDivControl {
    /// Start a multiplication this cycle.
    pub start_mult: Net,
    /// Start a division this cycle.
    pub start_div: Net,
    /// Signed variant (`mult`/`div` vs `multu`/`divu`).
    pub signed: Net,
    /// Write `HI` from `rs` (`mthi`).
    pub mthi: Net,
    /// Write `LO` from `rs` (`mtlo`).
    pub mtlo: Net,
}

/// Two's-complement negate of a word (ripple `~x + 1`).
fn negate(b: &mut NetlistBuilder, x: &Word) -> Word {
    let inv = b.not_word(x);
    let (n, _) = synth::inc(b, &inv);
    n
}

/// Conditionally negate: `neg ? -x : x`.
fn cond_negate(b: &mut NetlistBuilder, x: &Word, neg: Net) -> Word {
    let n = negate(b, x);
    b.mux2_word(neg, x, &n)
}

/// Build the unit. `a` is `rs` (multiplicand / dividend), `c` is `rt`
/// (multiplier / divisor).
pub fn muldiv(
    b: &mut NetlistBuilder,
    style: TechStyle,
    ctrl: &MulDivControl,
    a: &Word,
    c: &Word,
) -> MulDivOutputs {
    assert_eq!(a.len(), 32);
    assert_eq!(c.len(), 32);
    b.begin_component("MulD");
    let zero = b.zero();
    let one = b.one();

    let issue = b.or2(ctrl.start_mult, ctrl.start_div);

    // State registers (deferred: their next-state logic needs their own
    // outputs).
    let (hi, hi_slots) = b.dff_word_later(32, 0);
    let (lo, lo_slots) = b.dff_word_later(32, 0);
    let (bop, bop_slots) = b.dff_word_later(32, 0); // multiplicand / divisor
    let (counter, counter_slots) = b.dff_word_later(6, 0);
    let (mode_mult, mode_slot) = b.dff_later(false);
    let (neg_lo, neg_lo_slot) = b.dff_later(false);
    let (neg_hi, neg_hi_slot) = b.dff_later(false);

    let busy = {
        let z = b.is_zero(&counter);
        b.not(z)
    };

    // ---- issue-time magnitude and sign computation ----------------------
    let a_neg = b.and2(ctrl.signed, a[31]);
    let c_neg = b.and2(ctrl.signed, c[31]);
    let a_mag = cond_negate(b, a, a_neg);
    let c_mag = cond_negate(b, c, c_neg);
    let signs_differ = b.xor2(a_neg, c_neg);
    // mult: whole product negated when signs differ (neg_hi == neg_lo).
    // div: quotient (LO) negated when signs differ, remainder (HI) takes
    // the dividend's sign.
    let neg_lo_next_issue = signs_differ;
    let neg_hi_next_issue = b.mux2(ctrl.start_mult, a_neg, signs_differ);

    // ---- the shared 33-bit adder/subtractor ------------------------------
    // A operand: mult -> {0, hi}; div -> {hi, lo[31]} (partial remainder
    // shifted left with the next dividend bit).
    let mut addsub_a: Word = Vec::with_capacity(33);
    addsub_a.push(b.mux2(mode_mult, lo[31], hi[0]));
    for i in 1..32 {
        addsub_a.push(b.mux2(mode_mult, hi[i - 1], hi[i]));
    }
    addsub_a.push(b.mux2(mode_mult, hi[31], zero));
    // B operand: mult -> bop gated by lo[0]; div -> bop unconditionally.
    let not_mult = b.not(mode_mult);
    let b_gate = b.or2(not_mult, lo[0]);
    let mut addsub_b: Word = (0..32).map(|i| b.and2(bop[i], b_gate)).collect();
    addsub_b.push(zero);
    let sub = b.not(mode_mult); // divide subtracts
    let sum = synth::addsub(b, style, &addsub_a, &addsub_b, sub);

    // ---- per-mode next state ---------------------------------------------
    // Multiply step: shift {sum, lo} right one — the freed sum bit enters
    // LO from the top: hi' = sum[32:1], lo' = {sum[0], lo[31:1]}.
    let mult_hi_next: Word = (0..32).map(|i| sum.sum[i + 1]).collect();
    let mut mult_lo_next: Word = (0..31).map(|i| lo[i + 1]).collect();
    mult_lo_next.push(sum.sum[0]);

    // Divide step: q_bit = no-borrow = carry_out of the subtraction.
    let q_bit = sum.carry_out;
    // rem' (pre-subtract) = {hi[30:0], lo[31]} kept when q_bit = 0.
    let div_hi_next: Word = (0..32)
        .map(|i| {
            let shifted = if i == 0 { lo[31] } else { hi[i - 1] };
            b.mux2(q_bit, shifted, sum.sum[i])
        })
        .collect();
    let mut div_lo_next: Word = Vec::with_capacity(32);
    div_lo_next.push(q_bit);
    for i in 0..31 {
        div_lo_next.push(lo[i]);
    }

    let step_hi = b.mux2_word(mode_mult, &div_hi_next, &mult_hi_next);
    let step_lo = b.mux2_word(mode_mult, &div_lo_next, &mult_lo_next);

    // ---- register update selection ----------------------------------------
    // Priority: issue > stepping (busy) > mthi/mtlo > hold.
    let zero32 = b.const_word(0, 32);
    let issue_hi = zero32;
    let issue_lo = a_mag; // multiplier (mult) or dividend (div): both rs
    let hold_or_step_hi = {
        let stepped = b.mux2_word(busy, &hi, &step_hi);
        let written = b.mux2_word(ctrl.mthi, &stepped, a);
        written
    };
    let hold_or_step_lo = {
        let stepped = b.mux2_word(busy, &lo, &step_lo);
        let written = b.mux2_word(ctrl.mtlo, &stepped, a);
        written
    };
    let hi_next = b.mux2_word(issue, &hold_or_step_hi, &issue_hi);
    let lo_next = b.mux2_word(issue, &hold_or_step_lo, &issue_lo);
    b.dff_word_set(hi_slots, &hi_next);
    b.dff_word_set(lo_slots, &lo_next);

    let bop_next = b.mux2_word(issue, &bop, &c_mag);
    b.dff_word_set(bop_slots, &bop_next);

    // Counter: 32 on issue, minus one while busy.
    let count32 = b.const_word(32, 6);
    let (dec, _) = {
        // counter - 1 = counter + 0b111111 (6-bit two's complement).
        let all_ones = b.const_word(0x3F, 6);
        let r = synth::add_ripple(b, &counter, &all_ones, zero);
        (r.sum, r.carry_out)
    };
    let held = b.mux2_word(busy, &counter, &dec);
    let counter_next = b.mux2_word(issue, &held, &count32);
    b.dff_word_set(counter_slots, &counter_next);

    // Mode and sign flags: loaded at issue, cleared by mthi/mtlo (so a
    // subsequently read value is not sign-mangled), held otherwise.
    let mode_next = b.mux2(issue, mode_mult, ctrl.start_mult);
    b.dff_set(mode_slot, mode_next);
    let mt_any = b.or2(ctrl.mthi, ctrl.mtlo);
    let keep_neg_lo = {
        let cleared = b.mux2(mt_any, neg_lo, zero);
        b.mux2(issue, cleared, neg_lo_next_issue)
    };
    let keep_neg_hi = {
        let cleared = b.mux2(mt_any, neg_hi, zero);
        b.mux2(issue, cleared, neg_hi_next_issue)
    };
    b.dff_set(neg_lo_slot, keep_neg_lo);
    b.dff_set(neg_hi_slot, keep_neg_hi);

    // ---- sign-corrected readout -------------------------------------------
    // LO: plain conditional negate.
    let lo_out = cond_negate(b, &lo, neg_lo);
    // HI: for a negated 64-bit product, hi' = ~hi + (lo == 0); for a
    // negated remainder, hi' = ~hi + 1.
    let lo_zero = b.is_zero(&lo);
    let hi_carry = b.mux2(mode_mult, one, lo_zero);
    let hi_inv = b.not_word(&hi);
    let hi_inc = {
        // hi_inv + hi_carry via ripple half-adders.
        let mut carry = hi_carry;
        let mut out = Vec::with_capacity(32);
        for &bit in &hi_inv {
            out.push(b.xor2(bit, carry));
            carry = b.and2(bit, carry);
        }
        out
    };
    let hi_out = b.mux2_word(neg_hi, &hi, &hi_inc);

    b.end_component();
    MulDivOutputs {
        hi: hi_out,
        lo: lo_out,
        busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips::iss::{muldiv_div, muldiv_mult, MULDIV_CYCLES};
    use netlist::sim::Simulator;
    use netlist::Netlist;

    fn build() -> Netlist {
        let mut b = NetlistBuilder::new("muld");
        let a = b.inputs("a", 32);
        let c = b.inputs("c", 32);
        let start_mult = b.input("start_mult");
        let start_div = b.input("start_div");
        let signed = b.input("signed");
        let mthi = b.input("mthi");
        let mtlo = b.input("mtlo");
        let ctrl = MulDivControl {
            start_mult,
            start_div,
            signed,
            mthi,
            mtlo,
        };
        let out = muldiv(&mut b, TechStyle::RippleMux, &ctrl, &a, &c);
        b.outputs("hi", &out.hi);
        b.outputs("lo", &out.lo);
        b.output("busy", out.busy);
        b.finish().unwrap()
    }

    fn run_op(
        nl: &Netlist,
        sim: &mut Simulator,
        a: u32,
        c: u32,
        div: bool,
        signed: bool,
    ) -> (u32, u32) {
        sim.set_input_word(nl, "a", a as u64);
        sim.set_input_word(nl, "c", c as u64);
        sim.set_input_word(nl, "start_mult", (!div) as u64);
        sim.set_input_word(nl, "start_div", div as u64);
        sim.set_input_word(nl, "signed", signed as u64);
        sim.set_input_word(nl, "mthi", 0);
        sim.set_input_word(nl, "mtlo", 0);
        sim.eval(nl);
        sim.clock(nl);
        sim.set_input_word(nl, "start_mult", 0);
        sim.set_input_word(nl, "start_div", 0);
        // Busy must last exactly MULDIV_CYCLES clocks after issue.
        for step in 0..MULDIV_CYCLES {
            sim.eval(nl);
            assert_eq!(sim.output_word(nl, "busy"), 1, "busy at step {step}");
            sim.clock(nl);
        }
        sim.eval(nl);
        assert_eq!(sim.output_word(nl, "busy"), 0, "must finish on time");
        (
            sim.output_word(nl, "hi") as u32,
            sim.output_word(nl, "lo") as u32,
        )
    }

    #[test]
    fn multiply_matches_reference() {
        let nl = build();
        let mut sim = Simulator::new(&nl);
        sim.reset(&nl);
        let cases = [
            (0u32, 0u32),
            (6, 7),
            (0xFFFF_FFFF, 0xFFFF_FFFF),
            (0x8000_0000, 2),
            (0x8000_0000, 0x8000_0000),
            (12345, 0xABCD_EF01),
            (1, 0xFFFF_FFFF),
        ];
        for &(a, c) in &cases {
            for signed in [false, true] {
                let (hi, lo) = run_op(&nl, &mut sim, a, c, false, signed);
                let want = muldiv_mult(a, c, signed);
                assert_eq!((hi, lo), want, "mult a={a:#x} c={c:#x} signed={signed}");
            }
        }
    }

    #[test]
    fn divide_matches_reference() {
        let nl = build();
        let mut sim = Simulator::new(&nl);
        sim.reset(&nl);
        let cases = [
            (43u32, 5u32),
            (0, 1),
            (0xFFFF_FFFF, 3),
            (100, 0xFFFF_FFFF),
            (0x8000_0000, 0xFFFF_FFFF),
            (7, 0), // divide by zero: defined by the restoring array
            (0xDEAD_BEEF, 0x1234),
        ];
        for &(n, d) in &cases {
            for signed in [false, true] {
                let (hi, lo) = run_op(&nl, &mut sim, n, d, true, signed);
                let want = muldiv_div(n, d, signed);
                assert_eq!((hi, lo), want, "div n={n:#x} d={d:#x} signed={signed}");
            }
        }
    }

    #[test]
    fn mthi_mtlo_write_and_clear_sign_flags() {
        let nl = build();
        let mut sim = Simulator::new(&nl);
        sim.reset(&nl);
        // Leave sign flags set by a signed negative multiply...
        let _ = run_op(&nl, &mut sim, 0xFFFF_FFFB, 3, false, true); // -5 * 3
                                                                    // ...then overwrite LO via mtlo; the read must be the raw value.
        sim.set_input_word(&nl, "a", 0x1234_5678);
        sim.set_input_word(&nl, "mtlo", 1);
        sim.eval(&nl);
        sim.clock(&nl);
        sim.set_input_word(&nl, "mtlo", 0);
        sim.eval(&nl);
        assert_eq!(sim.output_word(&nl, "lo") as u32, 0x1234_5678);
        sim.set_input_word(&nl, "a", 0x9ABC_DEF0);
        sim.set_input_word(&nl, "mthi", 1);
        sim.eval(&nl);
        sim.clock(&nl);
        sim.set_input_word(&nl, "mthi", 0);
        sim.eval(&nl);
        assert_eq!(sim.output_word(&nl, "hi") as u32, 0x9ABC_DEF0);
    }

    #[test]
    fn back_to_back_operations() {
        let nl = build();
        let mut sim = Simulator::new(&nl);
        sim.reset(&nl);
        let (hi, lo) = run_op(&nl, &mut sim, 1000, 999, false, false);
        assert_eq!((hi, lo), muldiv_mult(1000, 999, false));
        let (hi, lo) = run_op(&nl, &mut sim, 999_999, 321, true, false);
        assert_eq!((hi, lo), muldiv_div(999_999, 321, false));
    }
}
