//! The instruction decoder and branch resolver (`CTRL` component,
//! control class).
//!
//! Decodes the instruction register into the datapath control signals and
//! resolves branch conditions from the register-file read values. Built
//! around two 6-to-64 one-hot decoders (opcode and funct), which is more
//! regular — and a little larger — than the hand-minimized Plasma decoder.

use netlist::synth;
use netlist::{Net, NetlistBuilder, Word};

/// All control signals produced by the decoder. Everything is *raw*
/// decode: the core gates side effects with the bus FSM state and the
/// stall condition.
pub struct CtrlOut {
    /// ALU operation select (see `components::alu`).
    pub alu_op: [Net; 3],
    /// Operand B is the extended immediate.
    pub use_imm: Net,
    /// Zero-extend the immediate (`andi`/`ori`/`xori`).
    pub imm_zext: Net,
    /// Shift direction left.
    pub shift_left: Net,
    /// Arithmetic right shift.
    pub shift_arith: Net,
    /// Shift amount from `rs` (`sllv`-class) instead of the shamt field.
    pub shift_var: Net,
    /// Write-back source select: 0 ALU, 1 shifter, 2 LO, 3 HI, 4 link,
    /// 5 LUI.
    pub result_sel: [Net; 3],
    /// EX-stage register write (loads write in the M state instead).
    pub reg_write: Net,
    /// Destination is the `rd` field (R-type).
    pub dst_is_rd: Net,
    /// Destination is `$31` (`jal`, `bltzal`, `bgezal`).
    pub dst_is_31: Net,
    /// Branch taken this cycle.
    pub taken: Net,
    /// `j`/`jal`.
    pub is_jump: Net,
    /// `jr`/`jalr`.
    pub is_jr: Net,
    /// Multiply issue.
    pub start_mult: Net,
    /// Divide issue.
    pub start_div: Net,
    /// Signed multiply/divide.
    pub md_signed: Net,
    /// `mthi`.
    pub mthi: Net,
    /// `mtlo`.
    pub mtlo: Net,
    /// `mfhi`/`mflo` while the divider is busy: hold the pipeline.
    pub stall: Net,
    /// Instruction is a load.
    pub is_load: Net,
    /// Instruction is a store.
    pub is_store: Net,
    /// Byte-sized access.
    pub size_byte: Net,
    /// Halfword-sized access.
    pub size_half: Net,
    /// Sign-extend the loaded value.
    pub load_signed: Net,
}

/// Build the decoder. `ir` is the instruction register, `rs_val`/`rt_val`
/// the register-file read data (for branch conditions), `busy` the
/// multiply/divide busy flag.
pub fn control(
    b: &mut NetlistBuilder,
    ir: &Word,
    rs_val: &Word,
    rt_val: &Word,
    busy: Net,
) -> CtrlOut {
    assert_eq!(ir.len(), 32);
    b.begin_component("CTRL");

    let opcode = &ir[26..32];
    let funct = &ir[0..6];
    let rt_field = &ir[16..21];

    // Match lines exist only for the implemented opcodes/functs, exactly
    // as a synthesized decoder would — no dead one-hot lines.
    const OPCODES: [u64; 24] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f, 0x20, 0x21, 0x23, 0x24, 0x25, 0x28, 0x29, 0x2b,
    ];
    const FUNCTS: [u64; 26] = [
        0x00, 0x02, 0x03, 0x04, 0x06, 0x07, 0x08, 0x09, 0x10, 0x11, 0x12, 0x13, 0x18, 0x19, 0x1a,
        0x1b, 0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x2a, 0x2b,
    ];
    let opc_lines = synth::match_lines(b, opcode, &OPCODES);
    let opc = |v: u64| opc_lines[OPCODES.iter().position(|&x| x == v).unwrap()];
    let is_special = opc(0x00);
    let fun_lines = synth::match_lines(b, funct, &FUNCTS);
    // Qualify funct lines by SPECIAL.
    let fun_lines: Vec<Net> = fun_lines.iter().map(|&f| b.and2(f, is_special)).collect();
    let fun = |v: u64| fun_lines[FUNCTS.iter().position(|&x| x == v).unwrap()];

    let is_regimm = opc(0x01);
    let regimm_link = b.and2(is_regimm, rt_field[4]);

    // Shorthand one-hots.
    let (sll, srl, sra) = (fun(0x00), fun(0x02), fun(0x03));
    let (sllv, srlv, srav) = (fun(0x04), fun(0x06), fun(0x07));
    let (jr, jalr) = (fun(0x08), fun(0x09));
    let (mfhi, mthi, mflo, mtlo) = (fun(0x10), fun(0x11), fun(0x12), fun(0x13));
    let (mult, multu, div, divu) = (fun(0x18), fun(0x19), fun(0x1a), fun(0x1b));
    let add_r = b.or2(fun(0x20), fun(0x21));
    let sub_r = b.or2(fun(0x22), fun(0x23));
    let (and_r, or_r, xor_r, nor_r) = (fun(0x24), fun(0x25), fun(0x26), fun(0x27));
    let (slt_r, sltu_r) = (fun(0x2a), fun(0x2b));

    let (beq, bne, blez, bgtz) = (opc(0x04), opc(0x05), opc(0x06), opc(0x07));
    let addi_any = b.or2(opc(0x08), opc(0x09));
    let (slti, sltiu) = (opc(0x0a), opc(0x0b));
    let (andi, ori, xori, lui) = (opc(0x0c), opc(0x0d), opc(0x0e), opc(0x0f));
    let (lb, lh, lw, lbu, lhu) = (opc(0x20), opc(0x21), opc(0x23), opc(0x24), opc(0x25));
    let (sb, sh, sw) = (opc(0x28), opc(0x29), opc(0x2b));
    let (j, jal) = (opc(0x02), opc(0x03));

    // ---- ALU op encoding -------------------------------------------------
    let or_any = b.or2(or_r, ori);
    let and_any = b.or2(and_r, andi);
    let xor_any = b.or2(xor_r, xori);
    let slt_any = b.or2(slt_r, slti);
    let sltu_any = b.or2(sltu_r, sltiu);
    // bit0: sub(001) | or(011) | nor(101) | sltu(111)
    let alu0 = {
        let x = b.or2(sub_r, or_any);
        let y = b.or2(nor_r, sltu_any);
        b.or2(x, y)
    };
    // bit1: and(010) | or(011) | slt(110) | sltu(111)
    let alu1 = {
        let x = b.or2(and_any, or_any);
        let y = b.or2(slt_any, sltu_any);
        b.or2(x, y)
    };
    // bit2: xor(100) | nor(101) | slt(110) | sltu(111)
    let alu2 = {
        let x = b.or2(xor_any, nor_r);
        let y = b.or2(slt_any, sltu_any);
        b.or2(x, y)
    };

    // ---- memory class -----------------------------------------------------
    let load_sz_b = b.or2(lb, lbu);
    let load_sz_h = b.or2(lh, lhu);
    let is_load = {
        let x = b.or2(load_sz_b, load_sz_h);
        b.or2(x, lw)
    };
    let is_store = {
        let x = b.or2(sb, sh);
        b.or2(x, sw)
    };
    let is_mem = b.or2(is_load, is_store);
    let size_byte = b.or2(load_sz_b, sb);
    let size_half = b.or2(load_sz_h, sh);
    let load_signed = b.or2(lb, lh);

    // ---- operand selection ------------------------------------------------
    let imm_alu = {
        let x = b.or2(addi_any, slti);
        let y = b.or2(sltiu, andi);
        let z = b.or2(ori, xori);
        let xy = b.or2(x, y);
        b.or2(xy, z)
    };
    let use_imm = b.or2(imm_alu, is_mem);
    let imm_zext = {
        let x = b.or2(andi, ori);
        b.or2(x, xori)
    };

    // ---- shifts -------------------------------------------------------------
    let shift_const = {
        let x = b.or2(sll, srl);
        b.or2(x, sra)
    };
    let shift_var = {
        let x = b.or2(sllv, srlv);
        b.or2(x, srav)
    };
    let is_shift = b.or2(shift_const, shift_var);
    let shift_left = b.or2(sll, sllv);
    let shift_arith = b.or2(sra, srav);

    // ---- write-back select / enable ----------------------------------------
    let link_result = {
        let x = b.or2(jal, jalr);
        b.or2(x, regimm_link)
    };
    // result_sel: 0 alu, 1 shift, 2 lo, 3 hi, 4 link, 5 lui
    let rs0 = {
        let x = b.or2(is_shift, mfhi);
        b.or2(x, lui)
    };
    let rs1 = b.or2(mflo, mfhi);
    let rs2 = b.or2(link_result, lui);

    let special_alu = {
        let x = b.or2(add_r, sub_r);
        let y = b.or2(and_r, or_r);
        let z = b.or2(xor_r, nor_r);
        let w = b.or2(slt_r, sltu_r);
        let xy = b.or2(x, y);
        let zw = b.or2(z, w);
        b.or2(xy, zw)
    };
    let hilo_read = b.or2(mfhi, mflo);
    let reg_write = {
        let a1 = b.or2(special_alu, is_shift);
        let a2 = b.or2(hilo_read, imm_alu);
        let a3 = b.or2(lui, link_result);
        let a12 = b.or2(a1, a2);
        b.or2(a12, a3)
    };
    let dst_is_rd = is_special;
    let dst_is_31 = b.or2(jal, regimm_link);

    // ---- branch resolution ----------------------------------------------------
    let eq = b.eq_word(rs_val, rt_val);
    let neq = b.not(eq);
    let neg = rs_val[31];
    let not_neg = b.not(neg);
    let zer = b.is_zero(rs_val);
    let lez = b.or2(neg, zer);
    let gtz = b.not(lez);
    let regimm_cond = b.mux2(rt_field[0], neg, not_neg); // rt[0]: bgez family
    let taken = {
        let t1 = b.and2(beq, eq);
        let t2 = b.and2(bne, neq);
        let t3 = b.and2(blez, lez);
        let t4 = b.and2(bgtz, gtz);
        let t5 = b.and2(is_regimm, regimm_cond);
        let t12 = b.or2(t1, t2);
        let t34 = b.or2(t3, t4);
        let t = b.or2(t12, t34);
        b.or2(t, t5)
    };
    let is_jump = b.or2(j, jal);
    let is_jr = b.or2(jr, jalr);

    // ---- multiply/divide ---------------------------------------------------------
    let start_mult = b.or2(mult, multu);
    let start_div = b.or2(div, divu);
    let md_signed = b.or2(mult, div);
    let stall = b.and2(hilo_read, busy);

    b.end_component();
    CtrlOut {
        alu_op: [alu0, alu1, alu2],
        use_imm,
        imm_zext,
        shift_left,
        shift_arith,
        shift_var,
        result_sel: [rs0, rs1, rs2],
        reg_write,
        dst_is_rd,
        dst_is_31,
        taken,
        is_jump,
        is_jr,
        start_mult,
        start_div,
        md_signed,
        mthi,
        mtlo,
        stall,
        is_load,
        is_store,
        size_byte,
        size_half,
        load_signed,
    }
}
