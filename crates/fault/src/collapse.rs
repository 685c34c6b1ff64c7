//! Structural fault-equivalence collapsing.
//!
//! Two faults are *equivalent* when every test detecting one detects the
//! other; only one representative per equivalence class needs simulating.
//! The classic gate-local rules are applied, chained through a union-find:
//!
//! 1. **Buffer/inverter**: the input-pin fault is equivalent to the output
//!    stem fault of the same (buffer) or opposite (inverter) polarity.
//! 2. **Controlling value**: for an AND/NAND/OR/NOR gate with controlling
//!    input value *c*, every input-pin stuck-at-*c* fault is equivalent to
//!    the output stem stuck at the gate's response to *c*.
//! 3. **Fanout-free branch**: a gate-input-pin (or flip-flop D-pin) fault
//!    on a net with fanout one is equivalent to that net's stem fault.
//! 4. **Flip-flop transparency**: a D-pin fault is equivalent to the Q
//!    stem fault of the same polarity (the storage cell is a buffer with a
//!    one-cycle delay; the faults differ only before the first clock
//!    edge).
//!
//! Dominance collapsing (a strictly weaker relation) is deliberately *not*
//! applied, matching the conservative behaviour of commercial tools'
//! default equivalence-only mode.

use netlist::{GateKind, Netlist};

use crate::model::{FaultList, FaultSite, Polarity};

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Union keeping the *smaller* index as root (stems are enumerated
    /// before pins, so class representatives prefer stem faults).
    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
    }
}

/// Index of every fault in a list by site: a dense table with two
/// entries (one per polarity) per net stem, then six per gate (three
/// input pins), then two per flip-flop D pin.
struct SiteIndex {
    pin_base: usize,
    dff_base: usize,
    table: Vec<u32>,
}

/// Table entry of a site no fault in the list occupies.
const ABSENT: u32 = u32::MAX;

impl SiteIndex {
    fn new(netlist: &Netlist, list: &FaultList) -> SiteIndex {
        let pin_base = 2 * netlist.num_nets();
        let dff_base = pin_base + 6 * netlist.gates().len();
        let mut index = SiteIndex {
            pin_base,
            dff_base,
            table: vec![ABSENT; dff_base + 2 * netlist.dffs().len()],
        };
        for (i, &f) in list.faults.iter().enumerate() {
            let e = index.entry(f.site, f.polarity);
            index.table[e] = i as u32;
        }
        index
    }

    fn entry(&self, site: FaultSite, polarity: Polarity) -> usize {
        let p = polarity as usize;
        match site {
            FaultSite::Stem(n) => 2 * n.index() + p,
            FaultSite::Pin { gate, pin } => {
                debug_assert!(pin < 3, "gates have three input pins");
                self.pin_base + 6 * gate as usize + 2 * pin as usize + p
            }
            FaultSite::DffD(ff) => self.dff_base + 2 * ff as usize + p,
        }
    }

    /// List index of the fault at `site` with `polarity`, if listed.
    fn get(&self, site: FaultSite, polarity: Polarity) -> Option<u32> {
        Some(self.table[self.entry(site, polarity)]).filter(|&i| i != ABSENT)
    }
}

/// Build the structural-equivalence union-find over `list` (rules 1–4
/// from the module docs).
fn build_equivalence(netlist: &Netlist, list: &FaultList) -> UnionFind {
    let index = SiteIndex::new(netlist, list);
    let id = |site: FaultSite, polarity: Polarity| index.get(site, polarity);
    let mut uf = UnionFind::new(list.faults.len());
    let join = |uf: &mut UnionFind, a: Option<u32>, b: Option<u32>| {
        if let (Some(x), Some(y)) = (a, b) {
            uf.union(x, y);
        }
    };

    let fanout = netlist.fanout_counts();

    for (gi, g) in netlist.gates().iter().enumerate() {
        let gi = gi as u32;
        let out = FaultSite::Stem(g.output);
        match g.kind {
            GateKind::Buf => {
                for p in [Polarity::StuckAt0, Polarity::StuckAt1] {
                    join(
                        &mut uf,
                        id(FaultSite::Pin { gate: gi, pin: 0 }, p),
                        id(out, p),
                    );
                }
            }
            GateKind::Not => {
                for p in [Polarity::StuckAt0, Polarity::StuckAt1] {
                    join(
                        &mut uf,
                        id(FaultSite::Pin { gate: gi, pin: 0 }, p),
                        id(out, p.flip()),
                    );
                }
            }
            _ => {
                if let Some(c) = g.kind.controlling_value() {
                    let c_pol = if c {
                        Polarity::StuckAt1
                    } else {
                        Polarity::StuckAt0
                    };
                    // Output response when any input is at the controlling
                    // value.
                    let resp = g.kind.eval(c, c, c);
                    let resp_pol = if resp {
                        Polarity::StuckAt1
                    } else {
                        Polarity::StuckAt0
                    };
                    for pin in 0..g.kind.arity() as u8 {
                        join(
                            &mut uf,
                            id(FaultSite::Pin { gate: gi, pin }, c_pol),
                            id(out, resp_pol),
                        );
                    }
                }
            }
        }
        // Fanout-free branches fold into their stems.
        for (pin, net) in g.used_inputs().enumerate() {
            if fanout[net.index()] == 1 {
                for p in [Polarity::StuckAt0, Polarity::StuckAt1] {
                    join(
                        &mut uf,
                        id(
                            FaultSite::Pin {
                                gate: gi,
                                pin: pin as u8,
                            },
                            p,
                        ),
                        id(FaultSite::Stem(net), p),
                    );
                }
            }
        }
    }

    for (fi, ff) in netlist.dffs().iter().enumerate() {
        let fi = fi as u32;
        for p in [Polarity::StuckAt0, Polarity::StuckAt1] {
            // D pin ≡ Q stem (rule 4).
            join(
                &mut uf,
                id(FaultSite::DffD(fi), p),
                id(FaultSite::Stem(ff.q), p),
            );
            // Fanout-free D net folds into its stem (rule 3).
            if fanout[ff.d.index()] == 1 {
                join(
                    &mut uf,
                    id(FaultSite::DffD(fi), p),
                    id(FaultSite::Stem(ff.d), p),
                );
            }
        }
    }

    uf
}

/// For every fault in `list` (in list order), the index *within `list`*
/// of its equivalence-class representative. Representatives map to
/// themselves; `collapse` keeps exactly the faults `i` with `reps[i] ==
/// i`. This exposes class membership so campaigns can cross-check that
/// collapsed-away faults really share their representative's detection
/// behaviour.
pub fn class_representatives(netlist: &Netlist, list: &FaultList) -> Vec<usize> {
    let mut uf = build_equivalence(netlist, list);
    (0..list.faults.len() as u32)
        .map(|i| uf.find(i) as usize)
        .collect()
}

/// Collapse an uncollapsed fault list into equivalence-class
/// representatives with weights.
pub fn collapse(netlist: &Netlist, list: FaultList) -> FaultList {
    let mut uf = build_equivalence(netlist, &list);

    // Gather classes.
    let n = list.faults.len();
    let mut class_weight = vec![0u32; n];
    let mut classes = 0;
    for i in 0..n {
        let r = uf.find(i as u32) as usize;
        classes += usize::from(r == i);
        class_weight[r] += list.weight[i];
    }
    let mut out = FaultList {
        faults: Vec::with_capacity(classes),
        component: Vec::with_capacity(classes),
        weight: Vec::with_capacity(classes),
        total_uncollapsed: list.total_uncollapsed,
    };
    for (i, &weight) in class_weight.iter().enumerate() {
        if uf.find(i as u32) as usize == i {
            out.faults.push(list.faults[i]);
            out.component.push(list.component[i]);
            out.weight.push(weight);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultList;
    use netlist::NetlistBuilder;

    #[test]
    fn inverter_chain_collapses_hard() {
        // a -> NOT -> NOT -> y : every internal fault collapses onto the
        // stem chain. Universe: stems a,x,y (6), pins (4) = 10.
        // x is fanout-1, a is fanout-1: pin faults fold into stems, then
        // inverter rule merges across. Expect classes: the whole chain is
        // one equivalence family of 2 polarities = 2 classes... plus y.
        let mut b = NetlistBuilder::new("ii");
        let a = b.input("a");
        let x = b.not(a);
        let y = b.not(x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let fl = FaultList::extract(&nl);
        assert_eq!(fl.len(), 10);
        let c = fl.collapsed(&nl);
        // a sa0 ≡ pin0(g0) sa0 ≡ x sa1 ≡ pin0(g1) sa1 ≡ y sa0 — one class
        // per polarity.
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_uncollapsed, 10);
        assert_eq!(c.weight.iter().sum::<u32>(), 10);
    }

    #[test]
    fn nand_controlling_faults_collapse() {
        let mut b = NetlistBuilder::new("nand");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.nand2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let fl = FaultList::extract(&nl);
        // stems a,b,y (6) + pins (4) = 10.
        assert_eq!(fl.len(), 10);
        let col = fl.collapsed(&nl);
        // pin sa0 ≡ y sa1 (x2 pins, + fanout-free folds pins into stems):
        // a sa0 ≡ pin0 sa0 ≡ y sa1 ≡ pin1 sa0 ≡ b sa0  -> 1 class
        // a sa1 ≡ pin0 sa1 ; b sa1 ≡ pin1 sa1 ; y sa0  -> 3 classes
        assert_eq!(col.len(), 4);
    }

    #[test]
    fn fanout_branches_stay_distinct() {
        // a feeds two AND gates: branch faults must NOT collapse with each
        // other (only controlling-value folding onto the two distinct
        // outputs applies).
        let mut b = NetlistBuilder::new("fan");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let y1 = b.and2(a, c);
        let y2 = b.and2(a, d);
        b.output("y1", y1);
        b.output("y2", y2);
        let nl = b.finish().unwrap();
        let fl = FaultList::extract(&nl).collapsed(&nl);
        // The two sa1 branch faults of `a` must both survive (they are not
        // equivalent: one affects y1 only, the other y2 only).
        let sa1_branches = fl
            .faults
            .iter()
            .filter(|f| {
                matches!(f.site, FaultSite::Pin { pin: 0, .. }) && f.polarity == Polarity::StuckAt1
            })
            .count();
        assert_eq!(sa1_branches, 2);
    }

    #[test]
    fn weights_always_sum_to_universe() {
        let mut b = NetlistBuilder::new("mix");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let x = b.xor_word(&a, &c);
        let s = b.or_tree(&x);
        let q = b.dff(s, false);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let fl = FaultList::extract(&nl);
        let total = fl.len();
        let col = fl.collapsed(&nl);
        assert_eq!(col.weight.iter().sum::<u32>() as usize, total);
        assert!(col.len() < total, "collapsing should reduce the list");
    }

    #[test]
    fn dff_d_equivalent_to_q() {
        let mut b = NetlistBuilder::new("ff");
        let a = b.input("a");
        let q = b.dff(a, false);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let col = FaultList::extract(&nl).collapsed(&nl);
        // a, q stems + DffD: a ≡ DffD ≡ q per polarity -> 2 classes.
        assert_eq!(col.len(), 2);
    }
}
