//! Incremental construction of netlists, with word-level convenience
//! helpers that mirror how RT-level operators are mapped by synthesis.

use crate::gate::{Gate, GateKind, NO_NET};
use crate::netlist::{ComponentId, Dff, Net, Netlist, NetlistError, PortDir, TOP_COMPONENT};

/// A bus: nets ordered LSB-first.
pub type Word = Vec<Net>;

/// A deferred flip-flop whose `d` input is supplied after its `q` output has
/// been used (state feedback). Created by [`NetlistBuilder::dff_later`].
#[derive(Debug)]
pub struct DffSlot(usize);

/// Builder for [`Netlist`].
///
/// Gates added while a component scope is open (see
/// [`Self::begin_component`]) are attributed to that component; everything
/// else lands in the implicit top component, which the paper calls *glue
/// logic*.
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    num_nets: u32,
    gates: Vec<Gate>,
    gate_component: Vec<ComponentId>,
    dffs: Vec<Dff>,
    dff_component: Vec<ComponentId>,
    dff_pending: Vec<bool>,
    components: Vec<String>,
    current: ComponentId,
    ports: Vec<(String, PortDir, Vec<Net>)>,
    zero: Option<Net>,
    one: Option<Net>,
    dff_cost: f64,
}

impl NetlistBuilder {
    /// Create an empty builder for a design with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            num_nets: 0,
            gates: Vec::new(),
            gate_component: Vec::new(),
            dffs: Vec::new(),
            dff_component: Vec::new(),
            dff_pending: Vec::new(),
            components: vec!["glue".to_string()],
            current: TOP_COMPONENT,
            ports: Vec::new(),
            zero: None,
            one: None,
            dff_cost: 6.0,
        }
    }

    /// Override the flip-flop NAND2-equivalent cost (default 6.0).
    pub fn set_dff_cost(&mut self, cost: f64) {
        self.dff_cost = cost;
    }

    /// Rename the implicit top/glue component (default `"glue"`).
    pub fn set_glue_name(&mut self, name: impl Into<String>) {
        self.components[0] = name.into();
    }

    /// Allocate a new net with no driver yet.
    pub fn fresh_net(&mut self) -> Net {
        let n = Net(self.num_nets);
        self.num_nets += 1;
        n
    }

    /// Allocate a bus of fresh nets.
    pub fn fresh_word(&mut self, width: usize) -> Word {
        (0..width).map(|_| self.fresh_net()).collect()
    }

    // ---- components -----------------------------------------------------

    /// Open a component scope; subsequent gates/DFFs belong to it.
    /// If a component with this name already exists, it is re-opened.
    pub fn begin_component(&mut self, name: &str) -> ComponentId {
        let id = match self.components.iter().position(|c| c == name) {
            Some(i) => ComponentId(i as u32),
            None => {
                self.components.push(name.to_string());
                ComponentId((self.components.len() - 1) as u32)
            }
        };
        self.current = id;
        id
    }

    /// Close the current component scope, reverting to glue logic.
    pub fn end_component(&mut self) {
        self.current = TOP_COMPONENT;
    }

    // ---- ports ----------------------------------------------------------

    /// Declare a 1-bit primary input.
    pub fn input(&mut self, name: &str) -> Net {
        let n = self.fresh_net();
        self.ports.push((name.to_string(), PortDir::Input, vec![n]));
        n
    }

    /// Declare a multi-bit primary input (LSB first).
    pub fn inputs(&mut self, name: &str, width: usize) -> Word {
        let w = self.fresh_word(width);
        self.ports
            .push((name.to_string(), PortDir::Input, w.clone()));
        w
    }

    /// Declare a 1-bit primary output.
    pub fn output(&mut self, name: &str, net: Net) {
        self.ports
            .push((name.to_string(), PortDir::Output, vec![net]));
    }

    /// Declare a multi-bit primary output (LSB first).
    pub fn outputs(&mut self, name: &str, word: &[Net]) {
        self.ports
            .push((name.to_string(), PortDir::Output, word.to_vec()));
    }

    // ---- gates ----------------------------------------------------------

    fn gate(&mut self, kind: GateKind, a: Net, b: Net, c: Net) -> Net {
        let out = self.fresh_net();
        self.gates.push(Gate {
            kind,
            inputs: [a, b, c],
            output: out,
        });
        self.gate_component.push(self.current);
        out
    }

    /// Constant 0 net (tie-low cell, created once, owned by glue logic).
    pub fn zero(&mut self) -> Net {
        if let Some(z) = self.zero {
            return z;
        }
        let saved = self.current;
        self.current = TOP_COMPONENT;
        let z = self.gate(GateKind::Const0, NO_NET, NO_NET, NO_NET);
        self.current = saved;
        self.zero = Some(z);
        z
    }

    /// Constant 1 net (tie-high cell, created once, owned by glue logic).
    pub fn one(&mut self) -> Net {
        if let Some(o) = self.one {
            return o;
        }
        let saved = self.current;
        self.current = TOP_COMPONENT;
        let o = self.gate(GateKind::Const1, NO_NET, NO_NET, NO_NET);
        self.current = saved;
        self.one = Some(o);
        o
    }

    /// Constant 0 or 1 net.
    pub fn constant(&mut self, v: bool) -> Net {
        if v {
            self.one()
        } else {
            self.zero()
        }
    }

    /// Buffer.
    pub fn buf(&mut self, a: Net) -> Net {
        self.gate(GateKind::Buf, a, NO_NET, NO_NET)
    }

    /// Inverter.
    pub fn not(&mut self, a: Net) -> Net {
        self.gate(GateKind::Not, a, NO_NET, NO_NET)
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::And2, a, b, NO_NET)
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::Or2, a, b, NO_NET)
    }

    /// 2-input NAND.
    pub fn nand2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::Nand2, a, b, NO_NET)
    }

    /// 2-input NOR.
    pub fn nor2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::Nor2, a, b, NO_NET)
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::Xor2, a, b, NO_NET)
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, a: Net, b: Net) -> Net {
        self.gate(GateKind::Xnor2, a, b, NO_NET)
    }

    /// 2:1 mux: `sel ? b : a`.
    pub fn mux2(&mut self, sel: Net, a: Net, b: Net) -> Net {
        self.gate(GateKind::Mux2, sel, a, b)
    }

    /// AND-OR-invert: `!((a & b) | c)`.
    pub fn aoi21(&mut self, a: Net, b: Net, c: Net) -> Net {
        self.gate(GateKind::Aoi21, a, b, c)
    }

    /// OR-AND-invert: `!((a | b) & c)`.
    pub fn oai21(&mut self, a: Net, b: Net, c: Net) -> Net {
        self.gate(GateKind::Oai21, a, b, c)
    }

    /// Drive a previously allocated (undriven) net from `source` via a
    /// buffer, closing forward references.
    pub fn connect(&mut self, target: Net, source: Net) {
        self.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: [source, NO_NET, NO_NET],
            output: target,
        });
        self.gate_component.push(self.current);
    }

    // ---- wide logic helpers ----------------------------------------------

    /// Variadic AND as a balanced tree.
    pub fn and_tree(&mut self, nets: &[Net]) -> Net {
        self.tree(nets, |b, x, y| b.and2(x, y))
    }

    /// Variadic OR as a balanced tree.
    pub fn or_tree(&mut self, nets: &[Net]) -> Net {
        self.tree(nets, |b, x, y| b.or2(x, y))
    }

    /// Variadic XOR as a balanced tree (parity).
    pub fn xor_tree(&mut self, nets: &[Net]) -> Net {
        self.tree(nets, |b, x, y| b.xor2(x, y))
    }

    fn tree(&mut self, nets: &[Net], mut op: impl FnMut(&mut Self, Net, Net) -> Net) -> Net {
        assert!(!nets.is_empty(), "tree over empty net list");
        let mut layer: Vec<Net> = nets.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut it = layer.chunks(2);
            for pair in &mut it {
                match pair {
                    [x, y] => next.push(op(self, *x, *y)),
                    [x] => next.push(*x),
                    _ => unreachable!(),
                }
            }
            layer = next;
        }
        layer[0]
    }

    /// Bitwise NOT of a word.
    pub fn not_word(&mut self, a: &[Net]) -> Word {
        a.iter().map(|&x| self.not(x)).collect()
    }

    /// Bitwise AND of two equal-width words.
    pub fn and_word(&mut self, a: &[Net], b: &[Net]) -> Word {
        self.zip_word(a, b, |s, x, y| s.and2(x, y))
    }

    /// Bitwise OR of two equal-width words.
    pub fn or_word(&mut self, a: &[Net], b: &[Net]) -> Word {
        self.zip_word(a, b, |s, x, y| s.or2(x, y))
    }

    /// Bitwise XOR of two equal-width words.
    pub fn xor_word(&mut self, a: &[Net], b: &[Net]) -> Word {
        self.zip_word(a, b, |s, x, y| s.xor2(x, y))
    }

    /// Bitwise NOR of two equal-width words.
    pub fn nor_word(&mut self, a: &[Net], b: &[Net]) -> Word {
        self.zip_word(a, b, |s, x, y| s.nor2(x, y))
    }

    fn zip_word(
        &mut self,
        a: &[Net],
        b: &[Net],
        mut op: impl FnMut(&mut Self, Net, Net) -> Net,
    ) -> Word {
        assert_eq!(a.len(), b.len(), "word width mismatch");
        a.iter().zip(b).map(|(&x, &y)| op(self, x, y)).collect()
    }

    /// AND every bit of `a` with the single net `en` (gating).
    pub fn gate_word(&mut self, a: &[Net], en: Net) -> Word {
        a.iter().map(|&x| self.and2(x, en)).collect()
    }

    /// Word-level 2:1 mux: `sel ? b : a` per bit.
    pub fn mux2_word(&mut self, sel: Net, a: &[Net], b: &[Net]) -> Word {
        assert_eq!(a.len(), b.len(), "word width mismatch");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux2(sel, x, y))
            .collect()
    }

    /// A constant word of the given width (LSB first).
    pub fn const_word(&mut self, value: u64, width: usize) -> Word {
        (0..width)
            .map(|i| self.constant((value >> i) & 1 == 1))
            .collect()
    }

    /// Reduction: 1 iff the word is all zeros.
    pub fn is_zero(&mut self, a: &[Net]) -> Net {
        let any = self.or_tree(a);
        self.not(any)
    }

    /// Reduction: 1 iff two words are bit-for-bit equal.
    pub fn eq_word(&mut self, a: &[Net], b: &[Net]) -> Net {
        let x = self.xor_word(a, b);
        self.is_zero(&x)
    }

    // ---- flip-flops -------------------------------------------------------

    /// Flip-flop with a known `d`.
    pub fn dff(&mut self, d: Net, reset_value: bool) -> Net {
        let q = self.fresh_net();
        self.dffs.push(Dff { d, q, reset_value });
        self.dff_component.push(self.current);
        self.dff_pending.push(false);
        q
    }

    /// Flip-flop whose `d` will be supplied later via [`Self::dff_set`]
    /// (for state feedback loops). Returns the `q` net and a slot handle.
    pub fn dff_later(&mut self, reset_value: bool) -> (Net, DffSlot) {
        let q = self.fresh_net();
        self.dffs.push(Dff {
            d: NO_NET,
            q,
            reset_value,
        });
        self.dff_component.push(self.current);
        self.dff_pending.push(true);
        (q, DffSlot(self.dffs.len() - 1))
    }

    /// Supply the `d` input for a deferred flip-flop.
    pub fn dff_set(&mut self, slot: DffSlot, d: Net) {
        assert!(self.dff_pending[slot.0], "dff slot already set");
        self.dffs[slot.0].d = d;
        self.dff_pending[slot.0] = false;
    }

    /// A register (word of flip-flops) with a known `d` word.
    pub fn dff_word(&mut self, d: &[Net], reset_value: u64) -> Word {
        d.iter()
            .enumerate()
            .map(|(i, &bit)| self.dff(bit, (reset_value >> i) & 1 == 1))
            .collect()
    }

    /// A register whose `d` word will be supplied later via
    /// [`Self::dff_word_set`].
    pub fn dff_word_later(&mut self, width: usize, reset_value: u64) -> (Word, Vec<DffSlot>) {
        let mut q = Vec::with_capacity(width);
        let mut slots = Vec::with_capacity(width);
        for i in 0..width {
            let (qi, s) = self.dff_later((reset_value >> i) & 1 == 1);
            q.push(qi);
            slots.push(s);
        }
        (q, slots)
    }

    /// Supply the `d` word for a deferred register.
    pub fn dff_word_set(&mut self, slots: Vec<DffSlot>, d: &[Net]) {
        assert_eq!(slots.len(), d.len(), "register width mismatch");
        for (s, &bit) in slots.into_iter().zip(d) {
            self.dff_set(s, bit);
        }
    }

    /// Register with write-enable: `q <= en ? d : q`.
    pub fn dff_word_en(&mut self, d: &[Net], en: Net, reset_value: u64) -> Word {
        let (q, slots) = self.dff_word_later(d.len(), reset_value);
        let next = self.mux2_word(en, &q, d);
        self.dff_word_set(slots, &next);
        q
    }

    // ---- finalize ---------------------------------------------------------

    /// Current gate count (for size introspection during construction).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Current flip-flop count.
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Validate and produce the immutable [`Netlist`].
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] for multiple drivers, undriven nets,
    /// combinational loops, or duplicate port names.
    ///
    /// # Panics
    ///
    /// Panics if any [`Self::dff_later`] slot was never given a `d` input —
    /// that is a construction bug, not a data error.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if let Some(i) = self.dff_pending.iter().position(|&p| p) {
            panic!("flip-flop {i} never received its d input");
        }
        Netlist::from_parts(
            self.name,
            self.num_nets,
            self.gates,
            self.gate_component,
            self.dffs,
            self.dff_component,
            self.components,
            self.ports,
            self.dff_cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    #[test]
    fn word_helpers_build_expected_logic() {
        let mut b = NetlistBuilder::new("w");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        let sel = b.input("sel");
        let x = b.xor_word(&a, &c);
        let m = b.mux2_word(sel, &a, &x);
        b.outputs("m", &m);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.set_input_word(&nl, "a", 0b1010_1100);
        sim.set_input_word(&nl, "b", 0b0110_0101);
        sim.set_input_word(&nl, "sel", 0);
        sim.eval(&nl);
        assert_eq!(sim.output_word(&nl, "m"), 0b1010_1100);
        sim.set_input_word(&nl, "sel", 1);
        sim.eval(&nl);
        assert_eq!(sim.output_word(&nl, "m"), 0b1010_1100 ^ 0b0110_0101);
    }

    #[test]
    fn dff_en_register_holds_and_loads() {
        let mut b = NetlistBuilder::new("reg");
        let d = b.inputs("d", 4);
        let en = b.input("en");
        let q = b.dff_word_en(&d, en, 0);
        b.outputs("q", &q);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.reset(&nl);
        sim.set_input_word(&nl, "d", 0xA);
        sim.set_input_word(&nl, "en", 0);
        sim.eval(&nl);
        sim.clock(&nl);
        sim.eval(&nl);
        assert_eq!(sim.output_word(&nl, "q"), 0, "hold with en=0");
        sim.set_input_word(&nl, "en", 1);
        sim.eval(&nl);
        sim.clock(&nl);
        sim.eval(&nl);
        assert_eq!(sim.output_word(&nl, "q"), 0xA, "load with en=1");
        sim.set_input_word(&nl, "d", 0x5);
        sim.set_input_word(&nl, "en", 0);
        sim.eval(&nl);
        sim.clock(&nl);
        sim.eval(&nl);
        assert_eq!(sim.output_word(&nl, "q"), 0xA, "hold again");
    }

    #[test]
    fn eq_and_zero_reductions() {
        let mut b = NetlistBuilder::new("red");
        let a = b.inputs("a", 16);
        let c = b.inputs("b", 16);
        let z = b.is_zero(&a);
        let e = b.eq_word(&a, &c);
        b.output("z", z);
        b.output("e", e);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        for (av, bv) in [(0u64, 0u64), (0, 5), (1234, 1234), (0xFFFF, 0xFFFE)] {
            sim.set_input_word(&nl, "a", av);
            sim.set_input_word(&nl, "b", bv);
            sim.eval(&nl);
            assert_eq!(sim.output_word(&nl, "z") == 1, av == 0);
            assert_eq!(sim.output_word(&nl, "e") == 1, av == bv);
        }
    }

    #[test]
    #[should_panic(expected = "never received")]
    fn unset_dff_slot_panics() {
        let mut b = NetlistBuilder::new("bad");
        let (_q, _slot) = b.dff_later(false);
        let _ = b.finish();
    }

    #[test]
    fn tree_reductions_match_reference() {
        let mut b = NetlistBuilder::new("tree");
        let a = b.inputs("a", 7);
        let and = b.and_tree(&a);
        let or = b.or_tree(&a);
        let xor = b.xor_tree(&a);
        b.output("and", and);
        b.output("or", or);
        b.output("xor", xor);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        for v in [0u64, 0x7F, 0x55, 0x2A, 1, 0x40] {
            sim.set_input_word(&nl, "a", v);
            sim.eval(&nl);
            assert_eq!(sim.output_word(&nl, "and") == 1, v == 0x7F);
            assert_eq!(sim.output_word(&nl, "or") == 1, v != 0);
            assert_eq!(sim.output_word(&nl, "xor") == 1, (v.count_ones() & 1) == 1);
        }
    }
}
