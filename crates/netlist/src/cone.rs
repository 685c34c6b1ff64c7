//! Structural cone extraction: the transitive fanin / fanout closure of
//! a set of nets, with explicit sequential-boundary control.
//!
//! A *cone* is the set of nets, gates and flip-flops structurally
//! reachable from a seed net set — backwards (fanin: everything that can
//! influence the seeds) or forwards (fanout: everything the seeds can
//! influence). Flip-flops can either terminate the walk (`stop at DFF
//! boundaries`, the classic combinational cone) or be traversed
//! (`through_dffs`, the sequential closure a fault effect can reach over
//! multiple cycles).
//!
//! The fault-forensics layer uses both: the sequential fanout cone of a
//! fault's effect decides whether it can structurally reach an observed
//! output at all and names the components it touches (a probe spec for
//! wave capture); the fanin cone lists what controls the site. The
//! forensics evidence pass reads only the site's readers
//! ([`Fanout::readers`]), not the cone.
//!
//! A fanout walk needs each net's readers. [`Fanout`] indexes them once
//! per netlist, so a caller walking many cones — forensics walks one
//! per escape — pays for the index once; [`fanout_cone`] is the one-shot
//! form.
//!
//! Cones are deterministic (sorted index order) and closed:
//! `cone(cone(x).nets) == cone(x)` — see `tests/cone_props.rs`.

use crate::{Net, Netlist};

/// A structural cone: every net, gate and flip-flop reached from the
/// seeds. All vectors are sorted ascending and duplicate-free, so two
/// cones are equal iff they cover the same structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cone {
    /// Nets in the cone (the seeds are always included).
    pub nets: Vec<Net>,
    /// Gate indices (into [`Netlist::gates`]) in the cone.
    pub gates: Vec<u32>,
    /// Flip-flop indices (into [`Netlist::dffs`]) reached by the walk.
    /// With `through_dffs == false` these are the sequential *boundary*:
    /// the walk recorded them but did not cross to the far side.
    pub dffs: Vec<u32>,
}

impl Cone {
    /// Whether `net` is inside the cone (binary search — the net vector
    /// is sorted).
    pub fn contains_net(&self, net: Net) -> bool {
        self.nets.binary_search_by_key(&net.index(), |n| n.index()).is_ok()
    }

    /// Sorted, duplicate-free names of the components the cone's gates
    /// and flip-flops belong to — a ready-made probe spec for the wave
    /// capture layer (`--wave-probe`).
    pub fn components(&self, nl: &Netlist) -> Vec<String> {
        let names = nl.component_names();
        let mut seen = vec![false; names.len()];
        for &g in &self.gates {
            seen[nl.gate_component(g as usize).index()] = true;
        }
        for &f in &self.dffs {
            seen[nl.dff_component(f as usize).index()] = true;
        }
        names
            .iter()
            .zip(&seen)
            .filter(|(_, &s)| s)
            .map(|(n, _)| n.clone())
            .collect()
    }
}

/// Walk state shared by both directions: visited marks plus a net
/// worklist.
struct Walk {
    net_in: Vec<bool>,
    gate_in: Vec<bool>,
    dff_in: Vec<bool>,
    work: Vec<Net>,
}

impl Walk {
    fn new(nl: &Netlist, seeds: &[Net]) -> Walk {
        let mut w = Walk {
            net_in: vec![false; nl.num_nets()],
            gate_in: vec![false; nl.gates().len()],
            dff_in: vec![false; nl.dffs().len()],
            work: Vec::new(),
        };
        for &s in seeds {
            w.push(s);
        }
        w
    }

    fn push(&mut self, net: Net) {
        if !self.net_in[net.index()] {
            self.net_in[net.index()] = true;
            self.work.push(net);
        }
    }

    fn finish(self) -> Cone {
        Cone {
            nets: self
                .net_in
                .iter()
                .enumerate()
                .filter(|(_, &v)| v)
                .map(|(i, _)| Net::from_index(i))
                .collect(),
            gates: mark_indices(&self.gate_in),
            dffs: mark_indices(&self.dff_in),
        }
    }
}

fn mark_indices(marks: &[bool]) -> Vec<u32> {
    marks
        .iter()
        .enumerate()
        .filter(|(_, &v)| v)
        .map(|(i, _)| i as u32)
        .collect()
}

/// The transitive fanin cone of `seeds`: every net, gate and flip-flop
/// that can structurally influence a seed. `through_dffs` crosses the
/// sequential boundary (Q back to its D input); otherwise flip-flops are
/// recorded as the boundary and the walk stops at their Q.
pub fn fanin_cone(nl: &Netlist, seeds: &[Net], through_dffs: bool) -> Cone {
    let driver = nl.driver_gate();
    // Q net -> flip-flop index.
    let mut dff_of_q = vec![u32::MAX; nl.num_nets()];
    for (i, d) in nl.dffs().iter().enumerate() {
        dff_of_q[d.q.index()] = i as u32;
    }
    let mut w = Walk::new(nl, seeds);
    while let Some(n) = w.work.pop() {
        let g = driver[n.index()];
        if g != u32::MAX {
            w.gate_in[g as usize] = true;
            for input in nl.gates()[g as usize].used_inputs() {
                w.push(input);
            }
            continue;
        }
        let f = dff_of_q[n.index()];
        if f != u32::MAX {
            w.dff_in[f as usize] = true;
            if through_dffs {
                let d = nl.dffs()[f as usize].d;
                w.push(d);
            }
        }
        // Primary inputs / constants have no driver: natural boundary.
    }
    w.finish()
}

/// Per-net reader index of a netlist: the gates reading each net and the
/// flip-flops clocking it in. Build it once with [`Fanout::new`] and walk
/// any number of fanout cones of the same netlist with [`Fanout::cone`].
#[derive(Debug, Clone)]
pub struct Fanout {
    gate_readers: Vec<Vec<u32>>,
    dff_readers: Vec<Vec<u32>>,
}

impl Fanout {
    /// Index the readers of every net of `nl`.
    pub fn new(nl: &Netlist) -> Fanout {
        let mut gate_readers: Vec<Vec<u32>> = vec![Vec::new(); nl.num_nets()];
        for (i, g) in nl.gates().iter().enumerate() {
            for input in g.used_inputs() {
                gate_readers[input.index()].push(i as u32);
            }
        }
        let mut dff_readers: Vec<Vec<u32>> = vec![Vec::new(); nl.num_nets()];
        for (i, d) in nl.dffs().iter().enumerate() {
            dff_readers[d.d.index()].push(i as u32);
        }
        Fanout {
            gate_readers,
            dff_readers,
        }
    }

    /// The readers of `net`: the gates reading it (indices into
    /// [`Netlist::gates`], ascending, one entry per input pin that reads
    /// it) and the flip-flops clocking it in (indices into
    /// [`Netlist::dffs`], ascending).
    pub fn readers(&self, net: Net) -> (&[u32], &[u32]) {
        (&self.gate_readers[net.index()], &self.dff_readers[net.index()])
    }

    /// The transitive fanout cone of `seeds` in `nl`, the netlist this
    /// index was built from: every net, gate and flip-flop a seed can
    /// structurally influence. `through_dffs` crosses the sequential
    /// boundary (a D input on to its Q output); otherwise flip-flops are
    /// recorded as the boundary and the walk stops at their D.
    pub fn cone(&self, nl: &Netlist, seeds: &[Net], through_dffs: bool) -> Cone {
        let mut w = Walk::new(nl, seeds);
        while let Some(n) = w.work.pop() {
            for &g in &self.gate_readers[n.index()] {
                w.gate_in[g as usize] = true;
                let out = nl.gates()[g as usize].output;
                w.push(out);
            }
            for &f in &self.dff_readers[n.index()] {
                w.dff_in[f as usize] = true;
                if through_dffs {
                    let q = nl.dffs()[f as usize].q;
                    w.push(q);
                }
            }
        }
        w.finish()
    }
}

/// The transitive fanout cone of `seeds`: [`Fanout::cone`] on an index
/// built for this one query.
pub fn fanout_cone(nl: &Netlist, seeds: &[Net], through_dffs: bool) -> Cone {
    Fanout::new(nl).cone(nl, seeds, through_dffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    /// q1 <= a & b; y = q1 | c  — one gate on each side of a register.
    fn pipelined() -> Netlist {
        let mut b = NetlistBuilder::new("pipe");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let (q, slot) = b.dff_later(false);
        let d = b.and2(a, bb);
        b.dff_set(slot, d);
        let y = b.or2(q, c);
        b.output("y", y);
        b.finish().unwrap()
    }

    #[test]
    fn fanin_stops_at_and_crosses_the_register() {
        let nl = pipelined();
        let y = nl.port("y")[0];
        let stop = fanin_cone(&nl, &[y], false);
        let thru = fanin_cone(&nl, &[y], true);
        // The register is the boundary either way.
        assert_eq!(stop.dffs, vec![0]);
        assert_eq!(thru.dffs, vec![0]);
        // Stopping keeps the AND (behind the register) out of the cone;
        // crossing pulls it (and the a/b inputs) in.
        assert_eq!(stop.gates.len(), 1, "{stop:?}");
        assert_eq!(thru.gates.len(), 2, "{thru:?}");
        let a = nl.port("a")[0];
        assert!(!stop.contains_net(a));
        assert!(thru.contains_net(a));
    }

    #[test]
    fn fanout_reaches_the_output_only_through_the_register() {
        let nl = pipelined();
        let a = nl.port("a")[0];
        let y = nl.port("y")[0];
        let stop = fanout_cone(&nl, &[a], false);
        let thru = fanout_cone(&nl, &[a], true);
        assert!(!stop.contains_net(y), "{stop:?}");
        assert!(thru.contains_net(y), "{thru:?}");
        assert_eq!(thru.dffs, vec![0]);
    }

    #[test]
    fn cone_components_name_the_touched_blocks() {
        let nl = pipelined();
        let a = nl.port("a")[0];
        let comps = fanout_cone(&nl, &[a], true).components(&nl);
        assert_eq!(comps.len(), 1, "{comps:?}"); // everything is top-level
    }
}
