//! Structural statistics: logic depth, fanout profile, and a unit-delay
//! timing estimate — the figures a synthesis report would print next to
//! the gate counts of the paper's Table 3.

use crate::netlist::Netlist;

/// Structural report of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Number of combinational gates.
    pub gates: usize,
    /// Number of flip-flops.
    pub dffs: usize,
    /// Number of nets.
    pub nets: usize,
    /// Maximum combinational depth in gate levels (register-to-register
    /// or port-to-port).
    pub depth: usize,
    /// Maximum fanout of any net.
    pub max_fanout: u32,
    /// Mean fanout over driven nets.
    pub mean_fanout: f64,
    /// NAND2-equivalent area.
    pub nand2_equiv: f64,
}

impl NetlistStats {
    /// Compute the report.
    pub fn of(netlist: &Netlist) -> NetlistStats {
        let mut level = vec![0usize; netlist.num_nets()];
        let mut depth = 0usize;
        for &gi in netlist.topo_order() {
            let g = &netlist.gates()[gi as usize];
            let in_level = g.used_inputs().map(|n| level[n.index()]).max().unwrap_or(0);
            let l = in_level + 1;
            level[g.output.index()] = l;
            depth = depth.max(l);
        }
        let fanout = netlist.fanout_counts();
        let driven: Vec<u32> = fanout.iter().copied().filter(|&f| f > 0).collect();
        let max_fanout = driven.iter().copied().max().unwrap_or(0);
        let mean_fanout = if driven.is_empty() {
            0.0
        } else {
            driven.iter().map(|&f| f as f64).sum::<f64>() / driven.len() as f64
        };
        NetlistStats {
            gates: netlist.gates().len(),
            dffs: netlist.dffs().len(),
            nets: netlist.num_nets(),
            depth,
            max_fanout,
            mean_fanout,
            nand2_equiv: netlist.nand2_equiv(),
        }
    }

    /// A crude maximum clock estimate from unit gate delays: with
    /// `gate_delay_ns` per level, `1000 / (depth * delay)` MHz.
    pub fn fmax_mhz(&self, gate_delay_ns: f64) -> f64 {
        if self.depth == 0 {
            return f64::INFINITY;
        }
        1000.0 / (self.depth as f64 * gate_delay_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use crate::NetlistBuilder;

    #[test]
    fn depth_of_ripple_adder_grows_linearly() {
        let depth_of = |w: usize| {
            let mut b = NetlistBuilder::new("a");
            let a = b.inputs("a", w);
            let c = b.inputs("b", w);
            let zero = b.zero();
            let r = synth::add_ripple(&mut b, &a, &c, zero);
            b.outputs("s", &r.sum);
            b.output("co", r.carry_out);
            NetlistStats::of(&b.finish().unwrap()).depth
        };
        let d8 = depth_of(8);
        let d32 = depth_of(32);
        assert!(d32 > d8 * 3, "ripple depth must scale: {d8} vs {d32}");
    }

    #[test]
    fn carry_select_is_shallower_than_ripple() {
        let depth_of = |style| {
            let mut b = NetlistBuilder::new("a");
            let a = b.inputs("a", 32);
            let c = b.inputs("b", 32);
            let zero = b.zero();
            let r = synth::add(&mut b, style, &a, &c, zero);
            b.outputs("s", &r.sum);
            NetlistStats::of(&b.finish().unwrap()).depth
        };
        use crate::synth::TechStyle;
        assert!(depth_of(TechStyle::ClaAoi) < depth_of(TechStyle::RippleMux));
    }

    #[test]
    fn fmax_sane() {
        let mut b = NetlistBuilder::new("f");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.not(x);
        b.output("y", y);
        let s = NetlistStats::of(&b.finish().unwrap());
        assert_eq!(s.depth, 2);
        assert!((s.fmax_mhz(1.0) - 500.0).abs() < 1e-9);
    }
}
