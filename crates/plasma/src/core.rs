//! Top-level assembly of the Plasma-class core.

use netlist::synth::TechStyle;
use netlist::{Net, Netlist, NetlistBuilder, Word};

use crate::components::busmux::{self, ResultSources};
use crate::components::control;
use crate::components::memctrl::{self, MemStageRegs};
use crate::components::muldiv::{self, MulDivControl};
use crate::components::pcl::{self, PclCtrl};
use crate::components::{alu, regfile, shifter};

/// The component names in the paper's Table 2/3 order.
pub const COMPONENT_NAMES: [&str; 10] = [
    "RegF", "MulD", "ALU", "BSH", "MCTRL", "PCL", "CTRL", "BMUX", "PLN", "GL",
];

/// Build-time configuration of the core.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlasmaConfig {
    /// Technology/synthesis style (the paper's re-synthesis experiment
    /// swaps this).
    pub style: TechStyle,
}

/// A built gate-level core: the netlist plus the evaluation-segment split
/// every testbench needs.
#[derive(Debug, Clone)]
pub struct PlasmaCore {
    netlist: Netlist,
    early: Vec<u32>,
    late: Vec<u32>,
    observed: Vec<Net>,
}

impl PlasmaCore {
    /// Build the core.
    pub fn build(cfg: PlasmaConfig) -> PlasmaCore {
        let style = cfg.style;
        let mut b = NetlistBuilder::new("plasma");
        b.set_glue_name("GL");

        let rdata = b.inputs("mem_rdata", 32);

        // ---- pipeline registers (PLN) ------------------------------------
        b.begin_component("PLN");
        let (ir, ir_slots) = b.dff_word_later(32, 0); // resets to nop
        let (maddr, maddr_slots) = b.dff_word_later(32, 0);
        let (mwdata, mwdata_slots) = b.dff_word_later(32, 0);
        let (mbe, mbe_slots) = b.dff_word_later(4, 0);
        let (mwe, mwe_slot) = b.dff_later(false);
        let (mload, mload_slot) = b.dff_later(false);
        let (msize_byte, msb_slot) = b.dff_later(false);
        let (msize_half, msh_slot) = b.dff_later(false);
        let (msigned, msg_slot) = b.dff_later(false);
        let (mdest, mdest_slots) = b.dff_word_later(5, 0);
        b.end_component();

        // ---- bus FSM state (MCTRL) ----------------------------------------
        b.begin_component("MCTRL");
        let (state, state_slot) = b.dff_later(false); // 0 = F, 1 = M
        b.end_component();

        // IR fields.
        let imm: Word = ir[0..16].to_vec();
        let target: Word = ir[0..26].to_vec();
        let shamt_field: Word = ir[6..11].to_vec();
        let rd_field: Word = ir[11..16].to_vec();
        let rt_field: Word = ir[16..21].to_vec();
        let rs_field: Word = ir[21..26].to_vec();

        // ---- register file with forward-declared write port ---------------
        let waddr_fwd = b.fresh_word(5);
        let wdata_fwd = b.fresh_word(32);
        let wen_fwd = b.fresh_net();
        let (rs_val, rt_val) = regfile::regfile(
            &mut b, style, &waddr_fwd, &wdata_fwd, wen_fwd, &rs_field, &rt_field,
        );

        // ---- multiply/divide with forward-declared (gated) controls -------
        let start_mult_g = b.fresh_net();
        let start_div_g = b.fresh_net();
        let md_signed_fwd = b.fresh_net();
        let mthi_g = b.fresh_net();
        let mtlo_g = b.fresh_net();
        let md = muldiv::muldiv(
            &mut b,
            style,
            &MulDivControl {
                start_mult: start_mult_g,
                start_div: start_div_g,
                signed: md_signed_fwd,
                mthi: mthi_g,
                mtlo: mtlo_g,
            },
            &rs_val,
            &rt_val,
        );

        // ---- decoder --------------------------------------------------------
        let ctrl = control::control(&mut b, &ir, &rs_val, &rt_val, md.busy);

        // ---- glue: execute-enable gating ------------------------------------
        let in_f = b.not(state);
        let not_stall = b.not(ctrl.stall);
        let can_ex = b.and2(in_f, not_stall);
        {
            let g = b.and2(ctrl.start_mult, can_ex);
            b.connect(start_mult_g, g);
            let g = b.and2(ctrl.start_div, can_ex);
            b.connect(start_div_g, g);
            b.connect(md_signed_fwd, ctrl.md_signed);
            let g = b.and2(ctrl.mthi, can_ex);
            b.connect(mthi_g, g);
            let g = b.and2(ctrl.mtlo, can_ex);
            b.connect(mtlo_g, g);
        }

        // ---- datapath ---------------------------------------------------------
        let op_b = busmux::operand_b(&mut b, &rt_val, &imm, ctrl.use_imm, ctrl.imm_zext);
        let alu_out = alu::alu(&mut b, style, &ctrl.alu_op, &rs_val, &op_b);
        let shamt = busmux::shamt_mux(&mut b, &shamt_field, &rs_val, ctrl.shift_var);
        let shift_out =
            shifter::shifter(&mut b, &rt_val, &shamt, ctrl.shift_left, ctrl.shift_arith);

        // ---- PC logic -----------------------------------------------------------
        let taken_g = b.and2(ctrl.taken, can_ex);
        let pcl_out = pcl::pcl(
            &mut b,
            style,
            &PclCtrl {
                pc_we: can_ex,
                taken: taken_g,
                is_jump: ctrl.is_jump,
                is_jr: ctrl.is_jr,
            },
            &imm,
            &target,
            &rs_val,
        );

        // ---- memory controller ---------------------------------------------------
        let addr_lo: Word = alu_out[0..2].to_vec();
        let mem_ex = memctrl::memctrl_ex(&mut b, &rt_val, &addr_lo, ctrl.size_byte, ctrl.size_half);

        // Memory-stage / fetch-stage register updates (PLN).
        b.begin_component("PLN");
        let ir_next = b.mux2_word(can_ex, &ir, &rdata);
        b.dff_word_set(ir_slots, &ir_next);

        let mem_any = b.or2(ctrl.is_load, ctrl.is_store);
        let m_en = b.and2(in_f, mem_any);
        let maddr_next = b.mux2_word(m_en, &maddr, &alu_out);
        b.dff_word_set(maddr_slots, &maddr_next);
        let mwdata_next = b.mux2_word(m_en, &mwdata, &mem_ex.wdata);
        b.dff_word_set(mwdata_slots, &mwdata_next);
        let mbe_next = b.mux2_word(m_en, &mbe, &mem_ex.be);
        b.dff_word_set(mbe_slots, &mbe_next);
        let mwe_next = b.mux2(m_en, mwe, ctrl.is_store);
        b.dff_set(mwe_slot, mwe_next);
        let mload_next = b.mux2(m_en, mload, ctrl.is_load);
        b.dff_set(mload_slot, mload_next);
        let msb_next = b.mux2(m_en, msize_byte, ctrl.size_byte);
        b.dff_set(msb_slot, msb_next);
        let msh_next = b.mux2(m_en, msize_half, ctrl.size_half);
        b.dff_set(msh_slot, msh_next);
        let msg_next = b.mux2(m_en, msigned, ctrl.load_signed);
        b.dff_set(msg_slot, msg_next);
        let mdest_next = b.mux2_word(m_en, &mdest, &rt_field);
        b.dff_word_set(mdest_slots, &mdest_next);
        b.end_component();

        // FSM: F -> M on a memory instruction, M -> F always.
        b.begin_component("MCTRL");
        let mem_any_fsm = b.or2(ctrl.is_load, ctrl.is_store);
        let state_next = b.and2(in_f, mem_any_fsm);
        b.dff_set(state_slot, state_next);
        b.end_component();

        let bus = memctrl::memctrl_bus(
            &mut b,
            state,
            &pcl_out.pc_addr,
            &MemStageRegs {
                maddr: maddr.clone(),
                mwdata,
                mwe,
                mbe,
                msize_byte,
                msize_half,
                msigned,
            },
            &rdata,
        );

        // ---- write-back -----------------------------------------------------------
        let zero = b.zero();
        let mut lui_val: Word = vec![zero; 16];
        lui_val.extend_from_slice(&imm);
        let ex_result = busmux::result_mux(
            &mut b,
            style,
            &ctrl.result_sel,
            &ResultSources {
                alu: alu_out,
                shift: shift_out,
                lo: md.lo,
                hi: md.hi,
                link: pcl_out.link,
                lui: lui_val,
            },
        );
        let ex_dst = busmux::dst_mux(&mut b, &rd_field, &rt_field, ctrl.dst_is_rd, ctrl.dst_is_31);
        let ex_wen = b.and2(ctrl.reg_write, can_ex);
        let wp = busmux::write_port(
            &mut b,
            state,
            &ex_result,
            &ex_dst,
            ex_wen,
            &bus.load_data,
            &mdest,
            mload,
        );
        b.connect(wen_fwd, wp.wen);
        for (t, s) in waddr_fwd.iter().zip(&wp.waddr) {
            b.connect(*t, *s);
        }
        for (t, s) in wdata_fwd.iter().zip(&wp.wdata) {
            b.connect(*t, *s);
        }

        // ---- bus ports ----------------------------------------------------------------
        b.outputs("mem_addr", &bus.addr);
        b.outputs("mem_wdata", &bus.wdata);
        b.output("mem_we", bus.we);
        b.outputs("mem_be", &bus.be);

        let netlist = b.finish().expect("plasma core must be a valid netlist");
        let (early, late) = netlist.split_on_inputs(netlist.port("mem_rdata"));
        let observed: Vec<Net> = ["mem_addr", "mem_wdata", "mem_we", "mem_be"]
            .iter()
            .flat_map(|p| netlist.port(p).iter().copied())
            .collect();
        PlasmaCore {
            netlist,
            early,
            late,
            observed,
        }
    }

    /// Build the core and run the netlist optimizer (constant folding +
    /// dead-logic sweep) over it — the "as synthesis would emit it"
    /// variant. Returns the optimized core and the optimizer statistics.
    pub fn optimized(cfg: PlasmaConfig) -> (PlasmaCore, netlist::opt::OptStats) {
        let base = PlasmaCore::build(cfg);
        let (nl, stats) = netlist::opt::optimize(base.netlist());
        let (early, late) = nl.split_on_inputs(nl.port("mem_rdata"));
        let observed: Vec<Net> = ["mem_addr", "mem_wdata", "mem_we", "mem_be"]
            .iter()
            .flat_map(|p| nl.port(p).iter().copied())
            .collect();
        (
            PlasmaCore {
                netlist: nl,
                early,
                late,
                observed,
            },
            stats,
        )
    }

    /// The gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The two evaluation segments: gates independent of `mem_rdata`
    /// first, the read-data cone second.
    pub fn segments(&self) -> [&[u32]; 2] {
        [&self.early, &self.late]
    }

    /// The primary-output nets a tester observes every cycle (address,
    /// write data, write enable, byte enables).
    pub fn observed_outputs(&self) -> &[Net] {
        &self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_builds_and_has_expected_components() {
        let core = PlasmaCore::build(PlasmaConfig::default());
        let nl = core.netlist();
        for name in COMPONENT_NAMES {
            assert!(
                nl.component_by_name(name).is_some(),
                "missing component {name}"
            );
        }
        let stats = nl.component_stats();
        // The register file must be the largest component (paper Table 3).
        assert_eq!(stats[0].name, "RegF");
        let total = nl.nand2_equiv();
        assert!(
            (10_000.0..60_000.0).contains(&total),
            "total size {total} out of the expected ballpark"
        );
        // The two segments cover every gate.
        let [early, late] = core.segments();
        assert_eq!(early.len() + late.len(), nl.gates().len());
        // 32 + 32 + 1 + 4 observed output bits.
        assert_eq!(core.observed_outputs().len(), 69);
    }

    #[test]
    fn both_styles_build() {
        for style in [TechStyle::RippleMux, TechStyle::ClaAoi] {
            let core = PlasmaCore::build(PlasmaConfig { style });
            assert!(core.netlist().gates().len() > 5000);
        }
    }
}
