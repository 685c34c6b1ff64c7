//! Netlist optimization: constant propagation and dead-logic sweep.
//!
//! The structural generators in [`crate::synth`] emit regular arrays the
//! way RT-level elaboration does — including logic fed by constants (a
//! tied-low carry-in, register 0's constant-zero read leaf) that a real
//! synthesis tool would fold away. This pass performs what synthesis
//! calls *constant propagation* and *sweeping*:
//!
//! * gates with constant-determined outputs are replaced by tie cells,
//! * gates insensitive to one input collapse to buffers/inverters,
//! * logic driving nothing observable (no primary output, no flip-flop)
//!   is removed.
//!
//! Besides shrinking the netlist, this removes structurally undetectable
//! stuck-at faults, so fault coverage after `optimize` is closer to what
//! the paper's synthesized netlist reports. The experiment harness runs
//! Table 5 both ways.

use std::collections::VecDeque;

use crate::gate::{Gate, GateKind, NO_NET};
use crate::netlist::{Net, Netlist, PortDir};

/// Statistics of one optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// Gates before optimization.
    pub gates_before: usize,
    /// Gates after optimization.
    pub gates_after: usize,
    /// Gates whose function was simplified (constant-folded or reduced
    /// to a buffer/inverter).
    pub folded: usize,
    /// Gates removed as unobservable.
    pub swept: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Unknown,
    Const(bool),
}

/// Optimize a netlist: returns the new netlist and statistics.
///
/// Ports, flip-flops and component attribution are preserved; only
/// combinational gates are folded or swept. Nets keep their identities
/// (the result has the same net count; orphaned nets simply lose their
/// drivers along with all readers).
pub fn optimize(netlist: &Netlist) -> (Netlist, OptStats) {
    let n_nets = netlist.num_nets();
    let mut value = vec![Value::Unknown; n_nets];
    // Replacement: a net that is now an alias of another net.
    let mut alias: Vec<Net> = (0..n_nets).map(Net::from_index).collect();

    fn resolve(alias: &mut [Net], mut n: Net) -> Net {
        while alias[n.index()] != n {
            let up = alias[alias[n.index()].index()];
            alias[n.index()] = up;
            n = up;
        }
        n
    }

    // Propagate constants in topological order.
    let mut folded = 0usize;
    let mut new_gates: Vec<Option<Gate>> = vec![None; netlist.gates().len()];
    for &gi in netlist.topo_order() {
        let g = netlist.gates()[gi as usize];
        let mut ins = g.inputs;
        for slot in ins.iter_mut().take(g.kind.arity()) {
            *slot = resolve(&mut alias, *slot);
        }
        let val = |v: &Vec<Value>, net: Net| -> Option<bool> {
            if net == NO_NET {
                return Some(false);
            }
            match v[net.index()] {
                Value::Const(b) => Some(b),
                Value::Unknown => None,
            }
        };
        let (a, b, c) = (
            val(&value, ins[0]),
            val(&value, ins[1]),
            val(&value, ins[2]),
        );
        let simplified = simplify(g.kind, ins, a, b, c);
        match simplified {
            Simplified::Const(cv) => {
                value[g.output.index()] = Value::Const(cv);
                new_gates[gi as usize] = Some(Gate {
                    kind: if cv {
                        GateKind::Const1
                    } else {
                        GateKind::Const0
                    },
                    inputs: [NO_NET, NO_NET, NO_NET],
                    output: g.output,
                });
                if g.kind != GateKind::Const0 && g.kind != GateKind::Const1 {
                    folded += 1;
                }
            }
            Simplified::Alias(src) => {
                // Replace with a buffer (keeps the net driven so ports
                // stay valid) and record the alias for downstream
                // readers.
                alias[g.output.index()] = src;
                new_gates[gi as usize] = Some(Gate {
                    kind: GateKind::Buf,
                    inputs: [src, NO_NET, NO_NET],
                    output: g.output,
                });
                folded += 1;
            }
            Simplified::Invert(src) => {
                new_gates[gi as usize] = Some(Gate {
                    kind: GateKind::Not,
                    inputs: [src, NO_NET, NO_NET],
                    output: g.output,
                });
                if g.kind != GateKind::Not {
                    folded += 1;
                }
            }
            Simplified::Keep(kind) => {
                if kind != g.kind {
                    folded += 1;
                }
                new_gates[gi as usize] = Some(Gate {
                    kind,
                    inputs: ins,
                    output: g.output,
                });
            }
        }
    }

    // Sweep: keep only gates reachable (backwards) from primary outputs
    // and flip-flop D inputs.
    let driver = {
        let mut d = vec![u32::MAX; n_nets];
        for (i, g) in new_gates.iter().enumerate() {
            if let Some(g) = g {
                d[g.output.index()] = i as u32;
            }
        }
        d
    };
    let mut live_net = vec![false; n_nets];
    let mut queue: VecDeque<Net> = VecDeque::new();
    for (_, dir, nets) in netlist.ports() {
        if matches!(dir, PortDir::Output) {
            for &n in nets {
                queue.push_back(n);
            }
        }
    }
    for ff in netlist.dffs() {
        queue.push_back(ff.d);
    }
    while let Some(n) = queue.pop_front() {
        if live_net[n.index()] {
            continue;
        }
        live_net[n.index()] = true;
        let d = driver[n.index()];
        if d != u32::MAX {
            if let Some(g) = &new_gates[d as usize] {
                for inp in g.used_inputs() {
                    if !live_net[inp.index()] {
                        queue.push_back(inp);
                    }
                }
            }
        }
    }

    let mut gates = Vec::new();
    let mut components = Vec::new();
    let mut swept = 0usize;
    for (i, g) in new_gates.iter().enumerate() {
        let g = g.expect("every gate visited in topo order");
        if live_net[g.output.index()] {
            gates.push(g);
            components.push(netlist.gate_component(i));
        } else {
            swept += 1;
        }
    }

    let stats = OptStats {
        gates_before: netlist.gates().len(),
        gates_after: gates.len(),
        folded,
        swept,
    };

    let ports: Vec<(String, PortDir, Vec<Net>)> = netlist
        .ports()
        .map(|(n, d, nets)| (n.to_string(), d, nets.to_vec()))
        .collect();
    let rebuilt = Netlist::from_parts(
        format!("{}_opt", netlist.name()),
        n_nets as u32,
        gates,
        components,
        netlist.dffs().to_vec(),
        (0..netlist.dffs().len())
            .map(|i| netlist.dff_component(i))
            .collect(),
        netlist.component_names().to_vec(),
        ports,
        6.0,
    )
    .expect("optimization preserves structural validity");
    (rebuilt, stats)
}

enum Simplified {
    Const(bool),
    Alias(Net),
    Invert(Net),
    Keep(GateKind),
}

/// Local simplification of one gate given constant knowledge of inputs.
fn simplify(
    kind: GateKind,
    ins: [Net; 3],
    a: Option<bool>,
    b: Option<bool>,
    c: Option<bool>,
) -> Simplified {
    use GateKind::*;
    use Simplified::*;
    // Fully constant? (Unused input slots read as known-false.)
    let known = [a, b, c];
    if known.iter().take(kind.arity()).all(|k| k.is_some()) {
        return Const(kind.eval(a.unwrap_or(false), b.unwrap_or(false), c.unwrap_or(false)));
    }
    match kind {
        Const0 => Const(false),
        Const1 => Const(true),
        Buf => match a {
            Some(v) => Const(v),
            None => Alias(ins[0]),
        },
        Not => match a {
            Some(v) => Const(!v),
            None => Invert(ins[0]),
        },
        And2 | Nand2 => {
            let inverted = kind == Nand2;
            match (a, b) {
                (Some(false), _) | (_, Some(false)) => Const(inverted),
                (Some(true), None) => pass(ins[1], inverted),
                (None, Some(true)) => pass(ins[0], inverted),
                _ => Keep(kind),
            }
        }
        Or2 | Nor2 => {
            let inverted = kind == Nor2;
            match (a, b) {
                (Some(true), _) | (_, Some(true)) => Const(!inverted),
                (Some(false), None) => pass(ins[1], inverted),
                (None, Some(false)) => pass(ins[0], inverted),
                _ => Keep(kind),
            }
        }
        Xor2 | Xnor2 => {
            let inverted = kind == Xnor2;
            match (a, b) {
                (Some(av), None) => pass(ins[1], av ^ inverted),
                (None, Some(bv)) => pass(ins[0], bv ^ inverted),
                _ => Keep(kind),
            }
        }
        Mux2 => match (a, b, c) {
            (Some(false), _, _) => match b {
                Some(v) => Const(v),
                None => Alias(ins[1]),
            },
            (Some(true), _, _) => match c {
                Some(v) => Const(v),
                None => Alias(ins[2]),
            },
            // Equal data inputs: select is irrelevant.
            _ if ins[1] == ins[2] => Alias(ins[1]),
            (None, Some(false), Some(true)) => Alias(ins[0]),
            (None, Some(true), Some(false)) => Invert(ins[0]),
            _ => Keep(kind),
        },
        Aoi21 | Oai21 => Keep(kind),
    }
}

fn pass(net: Net, invert: bool) -> Simplified {
    if invert {
        Simplified::Invert(net)
    } else {
        Simplified::Alias(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::sim::Simulator;

    #[test]
    fn folds_constant_carry_in() {
        // add_ripple with tied-low carry-in: the first stage's carry AND
        // gate must fold away.
        let mut b = NetlistBuilder::new("f");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        let zero = b.zero();
        let r = crate::synth::add_ripple(&mut b, &a, &c, zero);
        b.outputs("sum", &r.sum);
        b.output("cout", r.carry_out);
        let nl = b.finish().unwrap();
        let (opt, stats) = optimize(&nl);
        assert!(stats.gates_after < stats.gates_before, "{stats:?}");
        assert!(stats.folded > 0);
        // Function preserved on a sweep of inputs.
        let mut s1 = Simulator::new(&nl);
        let mut s2 = Simulator::new(&opt);
        for k in 0..200u64 {
            let av = k.wrapping_mul(37) & 0xFF;
            let bv = k.wrapping_mul(91) & 0xFF;
            s1.set_input_word(&nl, "a", av);
            s1.set_input_word(&nl, "b", bv);
            s1.eval(&nl);
            s2.set_input_word(&opt, "a", av);
            s2.set_input_word(&opt, "b", bv);
            s2.eval(&opt);
            assert_eq!(
                s1.output_word(&nl, "sum"),
                s2.output_word(&opt, "sum"),
                "k={k}"
            );
            assert_eq!(s1.output_word(&nl, "cout"), s2.output_word(&opt, "cout"));
        }
    }

    #[test]
    fn sweeps_dead_logic() {
        let mut b = NetlistBuilder::new("d");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let keep = b.xor_word(&a, &c);
        // Dead cone: feeds nothing.
        let dead = b.and_word(&a, &c);
        let _sink = b.or_tree(&dead);
        b.outputs("keep", &keep);
        let nl = b.finish().unwrap();
        let (opt, stats) = optimize(&nl);
        assert!(stats.swept >= 5, "{stats:?}");
        assert_eq!(opt.gates().len(), nl.gates().len() - stats.swept,);
    }

    #[test]
    fn sequential_behaviour_preserved() {
        // A small sequential design with constants inside.
        let mut b = NetlistBuilder::new("s");
        let d = b.inputs("d", 4);
        let one = b.one();
        let en = b.and2(one, d[0]); // folds to alias of d[0]
        let q = b.dff_word_en(&d, en, 0);
        b.outputs("q", &q);
        let nl = b.finish().unwrap();
        let (opt, stats) = optimize(&nl);
        assert!(stats.folded > 0);
        let mut s1 = Simulator::new(&nl);
        let mut s2 = Simulator::new(&opt);
        s1.reset(&nl);
        s2.reset(&opt);
        for k in 0..40u64 {
            let dv = k.wrapping_mul(13) & 0xF;
            s1.set_input_word(&nl, "d", dv);
            s2.set_input_word(&opt, "d", dv);
            s1.eval(&nl);
            s2.eval(&opt);
            assert_eq!(s1.output_word(&nl, "q"), s2.output_word(&opt, "q"));
            s1.clock(&nl);
            s2.clock(&opt);
        }
    }

    #[test]
    fn mux_with_equal_inputs_folds() {
        let mut b = NetlistBuilder::new("m");
        let s = b.input("s");
        let x = b.input("x");
        let m = b.mux2(s, x, x);
        let q = b.not(m);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let (opt, stats) = optimize(&nl);
        assert!(stats.folded >= 1, "{stats:?}");
        let mut sim = Simulator::new(&opt);
        for (sv, xv) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            sim.set_input_word(&opt, "s", sv);
            sim.set_input_word(&opt, "x", xv);
            sim.eval(&opt);
            assert_eq!(sim.output_word(&opt, "q"), 1 - xv);
        }
    }

    #[test]
    fn optimized_netlist_has_fewer_undetectable_faults() {
        // The motivating property: constant-fed structures lose their
        // untestable faults.
        let mut b = NetlistBuilder::new("u");
        b.begin_component("u");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        let zero = b.zero();
        let r = crate::synth::add_ripple(&mut b, &a, &c, zero);
        b.end_component();
        b.outputs("sum", &r.sum);
        b.output("cout", r.carry_out);
        let nl = b.finish().unwrap();
        let (opt, _) = optimize(&nl);
        assert!(opt.nand2_equiv() < nl.nand2_equiv());
    }
}
