//! The single stuck-at fault model: sites, polarities, fault universes.

use netlist::{ComponentId, Net, Netlist, TOP_COMPONENT};

/// Stuck-at polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Polarity {
    /// Signal permanently at logic 0.
    StuckAt0,
    /// Signal permanently at logic 1.
    StuckAt1,
}

impl Polarity {
    /// The opposite polarity.
    pub fn flip(self) -> Polarity {
        match self {
            Polarity::StuckAt0 => Polarity::StuckAt1,
            Polarity::StuckAt1 => Polarity::StuckAt0,
        }
    }

    /// Conventional short name (`sa0` / `sa1`).
    pub fn short(self) -> &'static str {
        match self {
            Polarity::StuckAt0 => "sa0",
            Polarity::StuckAt1 => "sa1",
        }
    }
}

/// A physical location a stuck-at fault can occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// The stem (source) of a net: the driver output, a primary input, or a
    /// flip-flop Q output.
    Stem(Net),
    /// A gate input pin — a fanout *branch* of the net it reads. Distinct
    /// from the stem when the net has fanout greater than one.
    Pin {
        /// Index of the gate in [`Netlist::gates`].
        gate: u32,
        /// Input pin index (0..3).
        pin: u8,
    },
    /// A flip-flop's D input pin (a fanout branch into the state element).
    DffD(u32),
}

/// A single stuck-at fault: a site plus a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// Where the fault sits.
    pub site: FaultSite,
    /// Stuck-at 0 or 1.
    pub polarity: Polarity,
}

impl Fault {
    /// Human-readable description, e.g. `"n42 sa1"` or `"g17/pin0 sa0"`.
    pub fn describe(&self) -> String {
        match self.site {
            FaultSite::Stem(n) => format!("{n} {}", self.polarity.short()),
            FaultSite::Pin { gate, pin } => {
                format!("g{gate}/pin{pin} {}", self.polarity.short())
            }
            FaultSite::DffD(d) => format!("ff{d}/d {}", self.polarity.short()),
        }
    }
}

/// A set of faults with component attribution, as extracted from a netlist.
///
/// `faults[i]` belongs to component `component[i]`. After
/// [`FaultList::collapsed`], `weight[i]` counts how many uncollapsed
/// faults the representative stands for, so raw (uncollapsed) coverage can
/// still be reported the way commercial tools do.
#[derive(Debug, Clone)]
pub struct FaultList {
    /// The faults (representatives, after collapsing).
    pub faults: Vec<Fault>,
    /// Component each fault belongs to (parallel to `faults`).
    pub component: Vec<ComponentId>,
    /// Number of original faults each entry represents (all 1 before
    /// collapsing).
    pub weight: Vec<u32>,
    /// Total number of uncollapsed faults this list was derived from.
    pub total_uncollapsed: usize,
}

impl FaultList {
    /// Extract the full (uncollapsed) single stuck-at fault universe:
    /// both polarities on every net stem, every gate input pin, and every
    /// flip-flop D pin.
    ///
    /// Component attribution: a stem fault belongs to the component of the
    /// gate/flip-flop driving the net (primary-input stems belong to the
    /// top/glue component); pin faults belong to the reading gate's
    /// component.
    pub fn extract(netlist: &Netlist) -> FaultList {
        let mut stem_component = vec![TOP_COMPONENT; netlist.num_nets()];
        for (gi, g) in netlist.gates().iter().enumerate() {
            stem_component[g.output.index()] = netlist.gate_component(gi);
        }
        for (fi, ff) in netlist.dffs().iter().enumerate() {
            stem_component[ff.q.index()] = netlist.dff_component(fi);
        }

        let mut faults = Vec::new();
        let mut component = Vec::new();
        let mut push = |site: FaultSite, comp: ComponentId| {
            for polarity in [Polarity::StuckAt0, Polarity::StuckAt1] {
                faults.push(Fault { site, polarity });
                component.push(comp);
            }
        };

        // Stems: every driven net. (Iterate nets via drivers + ports to
        // keep deterministic order.)
        let mut has_stem = vec![false; netlist.num_nets()];
        for g in netlist.gates() {
            has_stem[g.output.index()] = true;
        }
        for ff in netlist.dffs() {
            has_stem[ff.q.index()] = true;
        }
        for (_, dir, nets) in netlist.ports() {
            if matches!(dir, netlist::PortDir::Input) {
                for &n in nets {
                    has_stem[n.index()] = true;
                }
            }
        }
        for i in 0..netlist.num_nets() {
            if has_stem[i] {
                let net = Net::from_index(i);
                push(FaultSite::Stem(net), stem_component[i]);
            }
        }
        for (gi, g) in netlist.gates().iter().enumerate() {
            for pin in 0..g.kind.arity() {
                push(
                    FaultSite::Pin {
                        gate: gi as u32,
                        pin: pin as u8,
                    },
                    netlist.gate_component(gi),
                );
            }
        }
        for fi in 0..netlist.dffs().len() {
            push(FaultSite::DffD(fi as u32), netlist.dff_component(fi));
        }

        let n = faults.len();
        FaultList {
            faults,
            component,
            weight: vec![1; n],
            total_uncollapsed: n,
        }
    }

    /// Apply structural equivalence collapsing; see [`crate::collapse`].
    pub fn collapsed(self, netlist: &Netlist) -> FaultList {
        crate::collapse::collapse(netlist, self)
    }

    /// Number of faults in the list.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Restrict to the faults of one component.
    pub fn for_component(&self, comp: ComponentId) -> FaultList {
        self.filter(|_, c| c == comp)
    }

    /// Keep only faults satisfying the predicate over `(fault, component)`.
    pub fn filter(&self, mut pred: impl FnMut(Fault, ComponentId) -> bool) -> FaultList {
        let mut out = FaultList {
            faults: Vec::new(),
            component: Vec::new(),
            weight: Vec::new(),
            total_uncollapsed: 0,
        };
        for i in 0..self.faults.len() {
            if pred(self.faults[i], self.component[i]) {
                out.faults.push(self.faults[i]);
                out.component.push(self.component[i]);
                out.weight.push(self.weight[i]);
                out.total_uncollapsed += self.weight[i] as usize;
            }
        }
        out
    }

    /// Contiguous sub-list `[lo, hi)` of this fault list, preserving
    /// order. This is the shard extraction used by the campaign job
    /// server: because a fault's detection depends only on the fault and
    /// the stimulus — never on which other faults share its batch — any
    /// tiling of `[0, len)` into slices grades exactly like the whole.
    pub fn slice(&self, lo: usize, hi: usize) -> FaultList {
        assert!(
            lo <= hi && hi <= self.faults.len(),
            "fault slice [{lo}, {hi}) out of bounds for {} faults",
            self.faults.len()
        );
        let weight = self.weight[lo..hi].to_vec();
        FaultList {
            faults: self.faults[lo..hi].to_vec(),
            component: self.component[lo..hi].to_vec(),
            total_uncollapsed: weight.iter().map(|&w| w as usize).sum(),
            weight,
        }
    }

    /// Deterministic stratified sample of roughly `target` faults,
    /// proportionally per component (at least one fault per non-empty
    /// component). Used to keep development-time fault simulations fast;
    /// full runs use the complete list.
    pub fn sample_stratified(&self, target: usize, seed: u64) -> FaultList {
        if target >= self.len() {
            return self.clone();
        }
        // Group fault indices by component.
        let max_comp = self.component.iter().map(|c| c.index()).max().unwrap_or(0);
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_comp + 1];
        for (i, c) in self.component.iter().enumerate() {
            buckets[c.index()].push(i);
        }
        let mut picked = Vec::new();
        let mut state = seed | 1;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            state
        };
        for bucket in &mut buckets {
            if bucket.is_empty() {
                continue;
            }
            let want = ((bucket.len() * target + self.len() - 1) / self.len()).max(1);
            // Partial Fisher-Yates.
            let len = bucket.len();
            for k in 0..want.min(len) {
                let j = k + (next() as usize) % (len - k);
                bucket.swap(k, j);
                picked.push(bucket[k]);
            }
        }
        picked.sort_unstable();
        let mut out = FaultList {
            faults: Vec::new(),
            component: Vec::new(),
            weight: Vec::new(),
            total_uncollapsed: 0,
        };
        for i in picked {
            out.faults.push(self.faults[i]);
            out.component.push(self.component[i]);
            out.weight.push(self.weight[i]);
            out.total_uncollapsed += self.weight[i] as usize;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        b.begin_component("u");
        let x = b.and2(a, c);
        let q = b.dff(x, false);
        b.end_component();
        b.output("q", q);
        b.finish().unwrap()
    }

    #[test]
    fn universe_counts() {
        let nl = tiny();
        let fl = FaultList::extract(&nl);
        // Stems: a, b, x, q = 4 nets -> 8 faults.
        // Pins: and2 has 2 pins -> 4 faults. DffD -> 2 faults.
        assert_eq!(fl.len(), 14);
        assert_eq!(fl.total_uncollapsed, 14);
        assert!(fl.weight.iter().all(|&w| w == 1));
    }

    #[test]
    fn component_attribution() {
        let nl = tiny();
        let fl = FaultList::extract(&nl);
        let u = nl.component_by_name("u").unwrap();
        let ours = fl.for_component(u);
        // AND output stem, DFF q stem, 2 pins, DffD pin = 2+2+4+2 = 10.
        assert_eq!(ours.len(), 10);
    }

    #[test]
    fn stratified_sample_is_deterministic_and_sized() {
        let nl = tiny();
        let fl = FaultList::extract(&nl);
        let s1 = fl.sample_stratified(6, 42);
        let s2 = fl.sample_stratified(6, 42);
        assert_eq!(s1.faults, s2.faults);
        assert!(s1.len() >= 6 && s1.len() <= fl.len());
        let s3 = fl.sample_stratified(100, 42);
        assert_eq!(s3.len(), fl.len(), "oversampling returns everything");
    }

    #[test]
    fn filter_keeps_weights() {
        let nl = tiny();
        let mut fl = FaultList::extract(&nl);
        fl.weight[0] = 5;
        let kept = fl.filter(|f, _| f == fl.faults[0]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept.total_uncollapsed, 5);
    }
}
