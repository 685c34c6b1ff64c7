//! Gate-level implementation of the Parwan-class core.

use netlist::synth::{self, TechStyle};
use netlist::{Net, Netlist, NetlistBuilder, Word};

/// Component names of the Parwan-class core, largest first.
pub const PARWAN_COMPONENTS: [&str; 7] = ["ACC", "ALU", "SHU", "IR", "PCL", "MAR", "CTRL"];

/// A built Parwan-class gate-level core with its evaluation segments.
#[derive(Debug, Clone)]
pub struct ParwanCore {
    netlist: Netlist,
    early: Vec<u32>,
    late: Vec<u32>,
    observed: Vec<Net>,
}

impl ParwanCore {
    /// Build the core (ripple/mux style).
    pub fn build() -> ParwanCore {
        let style = TechStyle::RippleMux;
        let mut b = NetlistBuilder::new("parwan");
        b.set_glue_name("GL");
        let rdata = b.inputs("mem_rdata", 8);

        // ---- registers -----------------------------------------------------
        b.begin_component("IR");
        let (ir, ir_slots) = b.dff_word_later(8, 0x80); // resets to NOP
        b.end_component();
        b.begin_component("MAR");
        let (adr, adr_slots) = b.dff_word_later(12, 0);
        b.end_component();
        b.begin_component("ACC");
        let (ac, ac_slots) = b.dff_word_later(8, 0);
        let (fc, fc_slot) = b.dff_later(false);
        let (fv, fv_slot) = b.dff_later(false);
        let (fn_, fn_slot) = b.dff_later(false);
        let (fz, fz_slot) = b.dff_later(false);
        b.end_component();
        b.begin_component("CTRL");
        let (st, st_slots) = b.dff_word_later(2, 0); // 00 F0, 01 F1, 10 EX
        b.end_component();

        // ---- control decode --------------------------------------------------
        b.begin_component("CTRL");
        let not_st0 = b.not(st[0]);
        let not_st1 = b.not(st[1]);
        let s_f0 = b.and2(not_st0, not_st1);
        let s_f1 = b.and2(st[0], not_st1);
        let s_ex = st[1];

        let opc = synth::match_lines(b_ref(&mut b), &ir[4..8], &[0, 1, 2, 3, 4, 5, 7, 8]);
        let (op_lda, op_and, op_add, op_sub, op_jmp, op_sta, op_bra, op_sgl) = (
            opc[0], opc[1], opc[2], opc[3], opc[4], opc[5], opc[6], opc[7],
        );
        let sub_lines = synth::match_lines(b_ref(&mut b), &ir[0..4], &[1, 2, 3, 4, 5]);
        let (f_cla, f_cma, f_cmc, f_asl, f_asr) = (
            sub_lines[0],
            sub_lines[1],
            sub_lines[2],
            sub_lines[3],
            sub_lines[4],
        );
        let single_alu = {
            let a = b.or2(f_cla, f_cma);
            let c = b.or2(f_asl, f_asr);
            b.or2(a, c)
        };
        let mem2 = {
            let a = b.or2(op_lda, op_and);
            let c = b.or2(op_add, op_sub);
            let ac_ = b.or2(a, c);
            b.or2(ac_, op_sta)
        };
        let loadish = {
            let a = b.or2(op_lda, op_and);
            let x = b.or2(op_add, op_sub);
            b.or2(a, x)
        };
        // Branch condition: any selected flag.
        let taken = {
            let t0 = b.and2(ir[0], fz);
            let t1 = b.and2(ir[1], fn_);
            let t2 = b.and2(ir[2], fc);
            let t3 = b.and2(ir[3], fv);
            let a = b.or2(t0, t1);
            let c = b.or2(t2, t3);
            b.or2(a, c)
        };
        // Next state.
        let st1_next = b.and2(s_f1, mem2);
        let st0_next = s_f0;
        b.dff_word_set(st_slots, &[st0_next, st1_next]);
        b.end_component();

        // ---- PC logic ----------------------------------------------------------
        b.begin_component("PCL");
        let (pc, pc_slots) = b.dff_word_later(12, 0);
        let (pc_inc, _) = synth::inc(b_ref(&mut b), &pc);
        // Targets.
        let mut jmp_tgt: Word = rdata.to_vec();
        jmp_tgt.extend_from_slice(&ir[0..4]);
        let mut bra_tgt: Word = rdata.to_vec();
        bra_tgt.extend_from_slice(&pc_inc[8..12]);
        // F1 selection: jmp > bra-taken > mem2/inc > hold (single class).
        let adv = {
            // PC advances in F1 for two-byte memory ops and bra.
            let a = b.or2(mem2, op_bra);
            a
        };
        let bra_taken = b.and2(op_bra, taken);
        let hold_or_inc = b.mux2_word(adv, &pc, &pc_inc);
        let with_bra = b.mux2_word(bra_taken, &hold_or_inc, &bra_tgt);
        let f1_next = b.mux2_word(op_jmp, &with_bra, &jmp_tgt);
        // State dispatch: F0 -> inc, F1 -> f1_next, EX -> hold.
        let f0_or_f1 = b.mux2_word(s_f1, &pc_inc, &f1_next);
        let pc_next = b.mux2_word(s_ex, &f0_or_f1, &pc);
        b.dff_word_set(pc_slots, &pc_next);
        b.end_component();

        // ---- IR / ADR updates ---------------------------------------------------
        b.begin_component("IR");
        let ir_next = b.mux2_word(s_f0, &ir, &rdata);
        b.dff_word_set(ir_slots, &ir_next);
        b.end_component();
        b.begin_component("MAR");
        let adr_en = b.and2(s_f1, mem2);
        let mut adr_val: Word = rdata.to_vec();
        adr_val.extend_from_slice(&ir[0..4]);
        let adr_next = b.mux2_word(adr_en, &adr, &adr_val);
        b.dff_word_set(adr_slots, &adr_next);
        b.end_component();

        // ---- ALU (EX-state operations) --------------------------------------------
        b.begin_component("ALU");
        let r = synth::addsub(b_ref(&mut b), style, &ac, &rdata, op_sub);
        let and_w = b.and_word(&ac, &rdata);
        let overflow = b.xor2(r.carry_into_msb, r.carry_out);
        // Result select: lda -> rdata, and -> and_w, add/sub -> sum.
        let arith = b.or2(op_add, op_sub);
        let ld_or_and = b.mux2_word(op_and, &rdata, &and_w);
        let alu_out = b.mux2_word(arith, &ld_or_and, &r.sum);
        b.end_component();

        // ---- SHU (single-byte operations) -------------------------------------------
        b.begin_component("SHU");
        let zero = b.zero();
        let not_ac = b.not_word(&ac);
        let mut asl_w: Word = vec![zero];
        asl_w.extend_from_slice(&ac[0..7]);
        let mut asr_w: Word = ac[1..8].to_vec();
        asr_w.push(ac[7]);
        let zero8 = b.const_word(0, 8);
        let cla_or_cma = b.mux2_word(f_cma, &zero8, &not_ac);
        let asl_or_asr = b.mux2_word(f_asr, &asl_w, &asr_w);
        let shift_any = b.or2(f_asl, f_asr);
        let sgl_out = b.mux2_word(shift_any, &cla_or_cma, &asl_or_asr);
        b.end_component();

        // ---- accumulator / flag updates ----------------------------------------------
        b.begin_component("ACC");
        let ex_write = b.and2(s_ex, loadish);
        let sgl_exec = {
            let a = b.and2(s_f1, op_sgl);
            b.and2(a, single_alu)
        };
        let sgl_write = {
            let not_cmc = b.not(f_cmc);
            b.and2(sgl_exec, not_cmc)
        };
        let ac_we = b.or2(ex_write, sgl_write);
        let ac_val = b.mux2_word(ex_write, &sgl_out, &alu_out);
        let ac_next = b.mux2_word(ac_we, &ac, &ac_val);
        b.dff_word_set(ac_slots, &ac_next);

        // N/Z: updated whenever AC is written.
        let nz_we = ac_we;
        let n_val = ac_val[7];
        let z_val = b.is_zero(&ac_val);
        let fn_next = b.mux2(nz_we, fn_, n_val);
        let fz_next = b.mux2(nz_we, fz, z_val);
        b.dff_set(fn_slot, fn_next);
        b.dff_set(fz_slot, fz_next);

        // C: add/sub carry, cmc toggle, asl <- AC[7], asr <- AC[0].
        let add_or_sub = b.or2(op_add, op_sub);
        let arith_ex = b.and2(s_ex, add_or_sub);
        let cmc_exec = {
            let a = b.and2(s_f1, op_sgl);
            b.and2(a, f_cmc)
        };
        let shift_exec = b.and2(sgl_exec, shift_any);
        let not_fc = b.not(fc);
        let shift_c = b.mux2(f_asr, ac[7], ac[0]);
        let c1 = b.mux2(arith_ex, fc, r.carry_out);
        let c2 = b.mux2(cmc_exec, c1, not_fc);
        let fc_next = b.mux2(shift_exec, c2, shift_c);
        b.dff_set(fc_slot, fc_next);

        // V: add/sub overflow; asl: AC[7] ^ AC[6].
        let asl_exec = b.and2(sgl_exec, f_asl);
        let asl_v = b.xor2(ac[7], ac[6]);
        let v1 = b.mux2(arith_ex, fv, overflow);
        let fv_next = b.mux2(asl_exec, v1, asl_v);
        b.dff_set(fv_slot, fv_next);
        b.end_component();

        // ---- bus outputs ------------------------------------------------------------------
        let addr = b.mux2_word(s_ex, &pc, &adr);
        let we = b.and2(s_ex, op_sta);
        let wdata = b.gate_word(&ac, we);
        b.outputs("mem_addr", &addr);
        b.output("mem_we", we);
        b.outputs("mem_wdata", &wdata);

        let netlist = b.finish().expect("parwan core must be valid");
        let (early, late) = netlist.split_on_inputs(netlist.port("mem_rdata"));
        let observed: Vec<Net> = ["mem_addr", "mem_we", "mem_wdata"]
            .iter()
            .flat_map(|p| netlist.port(p).iter().copied())
            .collect();
        ParwanCore {
            netlist,
            early,
            late,
            observed,
        }
    }

    /// The gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Evaluation segments (pre/post `mem_rdata`).
    pub fn segments(&self) -> [&[u32]; 2] {
        [&self.early, &self.late]
    }

    /// Tester-observable output nets.
    pub fn observed_outputs(&self) -> &[Net] {
        &self.observed
    }
}

/// Work around nested `&mut` reborrow noise in the long build function.
fn b_ref(b: &mut NetlistBuilder) -> &mut NetlistBuilder {
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_builds_small() {
        let core = ParwanCore::build();
        let nl = core.netlist();
        for name in PARWAN_COMPONENTS {
            assert!(nl.component_by_name(name).is_some(), "missing {name}");
        }
        let total = nl.nand2_equiv();
        // Parwan-class: under a thousand-odd NAND2 (literature: ~888).
        assert!((300.0..2500.0).contains(&total), "unexpected size {total}");
        let [early, late] = core.segments();
        assert_eq!(early.len() + late.len(), nl.gates().len());
    }
}
