//! Scalar (fault-free) logic simulation of a [`Netlist`].
//!
//! Used for functional verification of generated structures and for
//! lock-step co-simulation of the gate-level CPU against the behavioural
//! instruction-set simulator. It has one evaluation path:
//! [`Simulator::eval_segment`] walks a topologically ordered gate list
//! (`eval` walks the whole order). Fault simulation lives in the `fault`
//! crate and uses 64-lane bit-parallel evaluation instead.

use crate::netlist::{Net, Netlist};
use crate::NO_NET;

/// Cycle-based two-phase simulator: [`Simulator::eval`] settles
/// combinational logic, [`Simulator::clock`] advances every flip-flop.
///
/// # Example
///
/// ```
/// use netlist::NetlistBuilder;
/// use netlist::sim::Simulator;
///
/// let mut b = NetlistBuilder::new("toggler");
/// let (q, slot) = b.dff_later(false);
/// let nq = b.not(q);
/// b.dff_set(slot, nq);
/// b.output("q", q);
/// let nl = b.finish().unwrap();
///
/// let mut sim = Simulator::new(&nl);
/// sim.reset(&nl);
/// sim.eval(&nl);
/// assert_eq!(sim.output_word(&nl, "q"), 0);
/// sim.clock(&nl);
/// sim.eval(&nl);
/// assert_eq!(sim.output_word(&nl, "q"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    values: Vec<bool>,
    next_state: Vec<bool>,
}

impl Simulator {
    /// Create a simulator with all nets at 0 and flip-flops in reset state.
    pub fn new(netlist: &Netlist) -> Self {
        let mut sim = Simulator {
            values: vec![false; netlist.num_nets()],
            next_state: vec![false; netlist.dffs().len()],
        };
        sim.reset(netlist);
        sim
    }

    /// Force every flip-flop output to its reset value (synchronous reset
    /// applied externally, as the CPU testbench does at power-up).
    pub fn reset(&mut self, netlist: &Netlist) {
        for ff in netlist.dffs() {
            self.values[ff.q.index()] = ff.reset_value;
        }
    }

    /// Read a single net value.
    #[inline]
    pub fn net(&self, net: Net) -> bool {
        self.values[net.index()]
    }

    /// Drive a named input port with an integer value (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn set_input_word(&mut self, netlist: &Netlist, port: &str, value: u64) {
        for (i, &net) in netlist.port(port).iter().enumerate() {
            self.values[net.index()] = (value >> i) & 1 == 1;
        }
    }

    /// Read a named port as an integer (LSB first). Works for inputs too.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or is wider than 64 bits.
    pub fn output_word(&self, netlist: &Netlist, port: &str) -> u64 {
        let nets = netlist.port(port);
        assert!(nets.len() <= 64, "port `{port}` wider than 64 bits");
        let mut v = 0u64;
        for (i, &net) in nets.iter().enumerate() {
            v |= (self.values[net.index()] as u64) << i;
        }
        v
    }

    /// Settle all combinational logic (single levelized sweep).
    pub fn eval(&mut self, netlist: &Netlist) {
        self.eval_segment(netlist, netlist.topo_order());
    }

    /// Evaluate only the given gates (must be a topologically ordered
    /// subset, e.g. from [`Netlist::split_on_inputs`]).
    pub fn eval_segment(&mut self, netlist: &Netlist, order: &[u32]) {
        let gates = netlist.gates();
        for &gi in order {
            let g = &gates[gi as usize];
            let a = g.inputs[0];
            let b = g.inputs[1];
            let c = g.inputs[2];
            let av = if a == NO_NET {
                false
            } else {
                self.values[a.index()]
            };
            let bv = if b == NO_NET {
                false
            } else {
                self.values[b.index()]
            };
            let cv = if c == NO_NET {
                false
            } else {
                self.values[c.index()]
            };
            self.values[g.output.index()] = g.kind.eval(av, bv, cv);
        }
    }

    /// Advance all flip-flops: `q <= d` using the currently settled values.
    pub fn clock(&mut self, netlist: &Netlist) {
        for (i, ff) in netlist.dffs().iter().enumerate() {
            self.next_state[i] = self.values[ff.d.index()];
        }
        for (i, ff) in netlist.dffs().iter().enumerate() {
            self.values[ff.q.index()] = self.next_state[i];
        }
    }

    /// Convenience: `eval` then `clock` in one call (a full cycle once the
    /// inputs for the cycle have been applied).
    pub fn step(&mut self, netlist: &Netlist) {
        self.eval(netlist);
        self.clock(netlist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    /// A 4-bit counter: verifies sequential semantics (all DFFs clock
    /// simultaneously from settled values).
    #[test]
    fn counter_counts() {
        let mut b = NetlistBuilder::new("ctr");
        let (q, slots) = b.dff_word_later(4, 0);
        let one = b.one();
        let zero = b.zero();
        // increment: ripple through half-adders
        let mut carry = one;
        let mut next = Vec::new();
        for &bit in &q {
            next.push(b.xor2(bit, carry));
            carry = b.and2(bit, carry);
        }
        let _ = zero;
        b.dff_word_set(slots, &next);
        b.outputs("q", &q);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.reset(&nl);
        for expect in 0..40u64 {
            sim.eval(&nl);
            assert_eq!(sim.output_word(&nl, "q"), expect % 16);
            sim.clock(&nl);
        }
    }

    #[test]
    fn reset_values_respected() {
        let mut b = NetlistBuilder::new("rv");
        let d = b.input("d");
        let q0 = b.dff(d, false);
        let q1 = b.dff(d, true);
        b.output("q0", q0);
        b.output("q1", q1);
        let nl = b.finish().unwrap();
        let sim = Simulator::new(&nl);
        assert!(!sim.net(nl.port("q0")[0]));
        assert!(sim.net(nl.port("q1")[0]));
    }

    #[test]
    #[should_panic(expected = "wider than 64 bits")]
    fn output_word_rejects_ports_wider_than_64_bits() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.inputs("a", 70);
        b.outputs("y", &a);
        let nl = b.finish().unwrap();
        let sim = Simulator::new(&nl);
        let _ = sim.output_word(&nl, "y");
    }

    #[test]
    fn segment_eval_matches_full_eval() {
        let mut b = NetlistBuilder::new("seg");
        let a = b.inputs("a", 8);
        let late = b.inputs("late", 8);
        let na = b.not_word(&a);
        let q = b.dff_word(&late, 0);
        let mix = b.xor_word(&na, &q);
        b.outputs("na", &na);
        let qq = b.dff_word(&mix, 0);
        b.outputs("qq", &qq);
        let nl = b.finish().unwrap();
        let (early, late_seg) = nl.split_on_inputs(nl.port("late"));

        let mut s1 = Simulator::new(&nl);
        let mut s2 = Simulator::new(&nl);
        for step in 0..20u64 {
            let av = step.wrapping_mul(37) & 0xFF;
            let lv = step.wrapping_mul(91) & 0xFF;
            s1.set_input_word(&nl, "a", av);
            s1.set_input_word(&nl, "late", lv);
            s1.eval(&nl);
            s1.clock(&nl);

            s2.set_input_word(&nl, "a", av);
            s2.eval_segment(&nl, &early);
            s2.set_input_word(&nl, "late", lv);
            s2.eval_segment(&nl, &late_seg);
            s2.clock(&nl);

            assert_eq!(
                s1.output_word(&nl, "qq"),
                s2.output_word(&nl, "qq"),
                "divergence at step {step}"
            );
        }
    }
}
