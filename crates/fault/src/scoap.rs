//! SCOAP-style testability analysis.
//!
//! The paper's Table 1 ranks component classes by instruction-level
//! controllability/observability qualitatively. This module computes the
//! classical SCOAP metrics structurally — combinational controllability
//! `CC0`/`CC1` (cost to force a net low/high) and observability `CO`
//! (cost to propagate a net to an output) — with flip-flops treated as
//! unit-cost pass-throughs, iterated to a fixpoint over the sequential
//! loops. Per-component averages then let the bench harness *measure*
//! the Table 1 ordering on the real netlist.

use netlist::{GateKind, Netlist, PortDir, NO_NET};

/// "Unreachable" sentinel (saturating arithmetic keeps it stable).
pub const INF: u32 = u32::MAX / 4;

/// SCOAP numbers for every net.
#[derive(Debug, Clone)]
pub struct Scoap {
    /// Cost to set each net to 0.
    pub cc0: Vec<u32>,
    /// Cost to set each net to 1.
    pub cc1: Vec<u32>,
    /// Cost to observe each net at a primary output.
    pub co: Vec<u32>,
}

fn sat(a: u32, b: u32) -> u32 {
    a.saturating_add(b).min(INF)
}

/// Compute SCOAP measures. Sequential loops are handled by bounded
/// fixpoint iteration (costs only decrease, so convergence is
/// guaranteed; the bound is a safety net).
pub fn analyze(netlist: &Netlist) -> Scoap {
    let n = netlist.num_nets();
    let mut cc0 = vec![INF; n + 1];
    let mut cc1 = vec![INF; n + 1];
    // The +1 dummy slot stands for unused gate inputs (constant 0).
    cc0[n] = 0;
    cc1[n] = INF;
    let idx = |net: netlist::Net| -> usize {
        if net == NO_NET {
            n
        } else {
            net.index()
        }
    };

    for (_, dir, nets) in netlist.ports() {
        if matches!(dir, PortDir::Input) {
            for &p in nets {
                cc0[p.index()] = 1;
                cc1[p.index()] = 1;
            }
        }
    }
    // The synchronous reset makes each flip-flop's reset value
    // controllable at unit cost.
    for ff in netlist.dffs() {
        if ff.reset_value {
            cc1[ff.q.index()] = 1;
        } else {
            cc0[ff.q.index()] = 1;
        }
    }

    // Forward controllability fixpoint.
    for _round in 0..64 {
        let mut changed = false;
        for &gi in netlist.topo_order() {
            let g = &netlist.gates()[gi as usize];
            let a = idx(g.inputs[0]);
            let b = idx(g.inputs[1]);
            let c = idx(g.inputs[2]);
            let (n0, n1): (u32, u32) = match g.kind {
                GateKind::Const0 => (0, INF),
                GateKind::Const1 => (INF, 0),
                GateKind::Buf => (sat(cc0[a], 1), sat(cc1[a], 1)),
                GateKind::Not => (sat(cc1[a], 1), sat(cc0[a], 1)),
                GateKind::And2 => (sat(cc0[a].min(cc0[b]), 1), sat(sat(cc1[a], cc1[b]), 1)),
                GateKind::Nand2 => (sat(sat(cc1[a], cc1[b]), 1), sat(cc0[a].min(cc0[b]), 1)),
                GateKind::Or2 => (sat(sat(cc0[a], cc0[b]), 1), sat(cc1[a].min(cc1[b]), 1)),
                GateKind::Nor2 => (sat(cc1[a].min(cc1[b]), 1), sat(sat(cc0[a], cc0[b]), 1)),
                GateKind::Xor2 => (
                    sat(sat(cc0[a], cc0[b]).min(sat(cc1[a], cc1[b])), 1),
                    sat(sat(cc0[a], cc1[b]).min(sat(cc1[a], cc0[b])), 1),
                ),
                GateKind::Xnor2 => (
                    sat(sat(cc0[a], cc1[b]).min(sat(cc1[a], cc0[b])), 1),
                    sat(sat(cc0[a], cc0[b]).min(sat(cc1[a], cc1[b])), 1),
                ),
                // y = s ? c : b
                GateKind::Mux2 => (
                    sat(sat(cc0[a], cc0[b]).min(sat(cc1[a], cc0[c])), 1),
                    sat(sat(cc0[a], cc1[b]).min(sat(cc1[a], cc1[c])), 1),
                ),
                // y = !((a&b)|c)
                GateKind::Aoi21 => (
                    sat(sat(cc1[a], cc1[b]).min(cc1[c]), 1),
                    sat(sat(cc0[a].min(cc0[b]), cc0[c]), 1),
                ),
                // y = !((a|b)&c)
                GateKind::Oai21 => (
                    sat(sat(cc1[a].min(cc1[b]), cc1[c]), 1),
                    sat(sat(cc0[a], cc0[b]).min(cc0[c]), 1),
                ),
            };
            let o = g.output.index();
            if n0 < cc0[o] || n1 < cc1[o] {
                cc0[o] = cc0[o].min(n0);
                cc1[o] = cc1[o].min(n1);
                changed = true;
            }
        }
        // Flip-flops: q follows d at +1 (sequential depth).
        for ff in netlist.dffs() {
            let d = ff.d.index();
            let q = ff.q.index();
            let n0 = sat(cc0[d], 1);
            let n1 = sat(cc1[d], 1);
            if n0 < cc0[q] || n1 < cc1[q] {
                cc0[q] = cc0[q].min(n0);
                cc1[q] = cc1[q].min(n1);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Backward observability fixpoint.
    let mut co = vec![INF; n + 1];
    for (_, dir, nets) in netlist.ports() {
        if matches!(dir, PortDir::Output) {
            for &p in nets {
                co[p.index()] = 0;
            }
        }
    }
    for _round in 0..64 {
        let mut changed = false;
        for &gi in netlist.topo_order().iter().rev() {
            let g = &netlist.gates()[gi as usize];
            let o = g.output.index();
            if co[o] >= INF {
                continue;
            }
            let a = idx(g.inputs[0]);
            let b = idx(g.inputs[1]);
            let c = idx(g.inputs[2]);
            let updates: Vec<(usize, u32)> = match g.kind {
                GateKind::Const0 | GateKind::Const1 => vec![],
                GateKind::Buf | GateKind::Not => vec![(a, sat(co[o], 1))],
                GateKind::And2 | GateKind::Nand2 => vec![
                    (a, sat(co[o], sat(cc1[b], 1))),
                    (b, sat(co[o], sat(cc1[a], 1))),
                ],
                GateKind::Or2 | GateKind::Nor2 => vec![
                    (a, sat(co[o], sat(cc0[b], 1))),
                    (b, sat(co[o], sat(cc0[a], 1))),
                ],
                GateKind::Xor2 | GateKind::Xnor2 => vec![
                    (a, sat(co[o], sat(cc0[b].min(cc1[b]), 1))),
                    (b, sat(co[o], sat(cc0[a].min(cc1[a]), 1))),
                ],
                GateKind::Mux2 => vec![
                    // Select observable when the data inputs differ; use
                    // the cheaper differentiating assignment.
                    (
                        a,
                        sat(co[o], sat(sat(cc0[b], cc1[c]).min(sat(cc1[b], cc0[c])), 1)),
                    ),
                    (b, sat(co[o], sat(cc0[a], 1))),
                    (c, sat(co[o], sat(cc1[a], 1))),
                ],
                GateKind::Aoi21 => vec![
                    (a, sat(co[o], sat(sat(cc1[b], cc0[c]), 1))),
                    (b, sat(co[o], sat(sat(cc1[a], cc0[c]), 1))),
                    (c, sat(co[o], sat(sat(cc0[a].min(cc0[b]), 0), 1))),
                ],
                GateKind::Oai21 => vec![
                    (a, sat(co[o], sat(sat(cc0[b], cc1[c]), 1))),
                    (b, sat(co[o], sat(sat(cc0[a], cc1[c]), 1))),
                    (c, sat(co[o], sat(sat(cc1[a].min(cc1[b]), 0), 1))),
                ],
            };
            for (net, v) in updates {
                if net < n && v < co[net] {
                    co[net] = v;
                    changed = true;
                }
            }
        }
        for ff in netlist.dffs() {
            let v = sat(co[ff.q.index()], 1);
            if v < co[ff.d.index()] {
                co[ff.d.index()] = v;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    cc0.truncate(n);
    cc1.truncate(n);
    co.truncate(n);
    Scoap { cc0, cc1, co }
}

/// Per-component testability averages (over the nets each component
/// drives).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentTestability {
    /// Component name.
    pub name: String,
    /// Mean of `min(CC0, CC1)` — how hard the component's nets are to
    /// control (lower = easier).
    pub mean_controllability: f64,
    /// Mean `CO` — how hard they are to observe (lower = easier).
    pub mean_observability: f64,
    /// Number of nets attributed to the component.
    pub nets: usize,
}

/// Aggregate SCOAP per component, the measured version of the paper's
/// Table 1.
pub fn per_component(netlist: &Netlist, scoap: &Scoap) -> Vec<ComponentTestability> {
    let ncomp = netlist.component_names().len();
    let mut sums = vec![(0f64, 0f64, 0usize); ncomp];
    for (gi, g) in netlist.gates().iter().enumerate() {
        let comp = netlist.gate_component(gi).index();
        let o = g.output.index();
        let cc = scoap.cc0[o].min(scoap.cc1[o]);
        if cc < INF && scoap.co[o] < INF {
            sums[comp].0 += cc as f64;
            sums[comp].1 += scoap.co[o] as f64;
            sums[comp].2 += 1;
        }
    }
    for (fi, ff) in netlist.dffs().iter().enumerate() {
        let comp = netlist.dff_component(fi).index();
        let q = ff.q.index();
        let cc = scoap.cc0[q].min(scoap.cc1[q]);
        if cc < INF && scoap.co[q] < INF {
            sums[comp].0 += cc as f64;
            sums[comp].1 += scoap.co[q] as f64;
            sums[comp].2 += 1;
        }
    }
    netlist
        .component_names()
        .iter()
        .zip(sums)
        .map(|(name, (c, o, k))| ComponentTestability {
            name: name.clone(),
            mean_controllability: if k == 0 { 0.0 } else { c / k as f64 },
            mean_observability: if k == 0 { 0.0 } else { o / k as f64 },
            nets: k,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    #[test]
    fn basic_gate_costs() {
        let mut b = NetlistBuilder::new("s");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let s = analyze(&nl);
        let yn = nl.port("y")[0].index();
        // AND: CC1 = 1+1+1 = 3, CC0 = min(1,1)+1 = 2.
        assert_eq!(s.cc1[yn], 3);
        assert_eq!(s.cc0[yn], 2);
        assert_eq!(s.co[yn], 0);
        // Observing input a requires b=1: CO = 0 + CC1(b) + 1 = 2.
        let an = nl.port("a")[0].index();
        assert_eq!(s.co[an], 2);
    }

    #[test]
    fn deep_logic_costs_more() {
        let chain_cost = |depth: usize| {
            let mut b = NetlistBuilder::new("c");
            let mut x = b.input("a");
            let en = b.input("en");
            for _ in 0..depth {
                x = b.and2(x, en);
            }
            b.output("y", x);
            let nl = b.finish().unwrap();
            let s = analyze(&nl);
            s.cc1[nl.port("y")[0].index()]
        };
        assert!(chain_cost(8) > chain_cost(2));
    }

    #[test]
    fn unobservable_net_stays_inf() {
        let mut b = NetlistBuilder::new("u");
        let a = b.input("a");
        let dead = b.not(a);
        let _sink = b.not(dead);
        let live = b.buf(a);
        b.output("y", live);
        let nl = b.finish().unwrap();
        let s = analyze(&nl);
        assert!(s.co[dead.index()] >= INF);
    }

    #[test]
    fn sequential_fixpoint_converges() {
        // A counter: feedback through DFFs must still yield finite
        // controllability.
        let mut b = NetlistBuilder::new("ctr");
        let (q, slots) = b.dff_word_later(4, 0);
        let (inc, _) = netlist::synth::inc(&mut b, &q);
        b.dff_word_set(slots, &inc);
        b.outputs("q", &q);
        let nl = b.finish().unwrap();
        let s = analyze(&nl);
        for &n in nl.port("q") {
            assert!(s.cc0[n.index()] < INF);
            assert!(s.cc1[n.index()] < INF);
            assert_eq!(s.co[n.index()], 0);
        }
    }
}
