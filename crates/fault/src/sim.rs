//! 64-lane bit-parallel logic simulation with stuck-at fault injection.
//!
//! Every net holds a `u64`; bit *L* of that word is the value of the net in
//! machine (lane) *L*. All 64 machines share the same netlist but each can
//! carry its own injected faults, so one sweep over the gates simulates 64
//! processors at once — the classic parallel-fault technique. Lane 0 is by
//! convention the fault-free reference machine.
//!
//! Faults are injected *branchlessly* for net stems (per-net OR/AND masks
//! applied on every value store) and via a sorted side table of gate-pin
//! patches (fanout branches). The side table holds at most one entry per
//! faulted gate — no more than 63 per batch — sorted by compiled gate
//! position, so [`ParallelSim::eval_segment`] evaluates the long unpatched
//! runs between entries with a tight branch-free loop and applies each
//! patched gate individually; the fault-free hot path never consults a
//! hash map or a per-gate flag.
//!
//! Injection also records which nets carry stem masks, so
//! [`LaneSim::clear_faults`] resets only the handful of mask words the
//! previous batch touched instead of sweeping every net.
//!
//! [`LaneSim`] is the lane-block interface both engines implement — this
//! one-word interpreted simulator and the compiled multi-word
//! [`crate::wide::WideSim`] — and the only surface the campaign runner
//! and the testbenches drive.

use netlist::{GateKind, Net, Netlist, NO_NET};

use crate::model::{Fault, FaultSite, Polarity};
use crate::wide::transpose64;

/// Lanes-word with all 64 bits set.
pub const ALL_LANES: u64 = !0;

/// Geometry of a compiled simulator — the per-cycle work a campaign
/// sweeps: every gate is evaluated for every lane on each simulated
/// cycle. Reported by [`LaneSim::stats`] and recorded in campaign trace
/// headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Nets in the compiled model (excluding the dummy slot).
    pub nets: usize,
    /// Compiled gates.
    pub gates: usize,
    /// Flip-flops.
    pub dffs: usize,
    /// Evaluation segments.
    pub segments: usize,
}

/// A bit-parallel fault simulator over lane blocks: every net holds
/// [`LaneSim::lane_words`] u64 words, bit *L* of word *t* being the net's
/// value in lane `64 * t + L`. Lane 0 (bit 0 of word 0) is the
/// fault-free reference; the other lanes carry injected faults.
///
/// Implemented by the interpreted [`ParallelSim`] (one word) and the
/// compiled [`crate::wide::WideSim`] (1–8 words). The campaign runner
/// and every testbench are generic over this trait, so engine calls are
/// statically dispatched, and a fault's verdict depends only on its lane
/// versus lane 0 — never on the engine or the width.
pub trait LaneSim: Clone + Send + Sync {
    /// Engine name as recorded in campaign stats (`"interp"` or
    /// `"compiled"`).
    fn engine(&self) -> &'static str;

    /// u64 words per net.
    fn lane_words(&self) -> usize;

    /// Lanes per pass (64 × lane words).
    fn lanes(&self) -> usize {
        64 * self.lane_words()
    }

    /// Geometry of the simulated model.
    fn stats(&self) -> SimStats;

    /// Remove all injected faults, in O(faults).
    fn clear_faults(&mut self);

    /// Inject `fault` into lane `lane` (`0..lanes()`). Injecting into
    /// lane 0 is allowed but forfeits the fault-free reference.
    fn inject(&mut self, fault: Fault, lane: usize);

    /// Zero every net value (through the injected stem masks), then
    /// apply flip-flop resets. Afterwards the state depends only on the
    /// injected faults — never on what a previous batch left behind —
    /// which is what makes campaign batches order-independent.
    fn reset_state(&mut self);

    /// Words one lane's flip-flop state packs into (one bit per
    /// flip-flop) — the length [`LaneSim::save_lane`] fills.
    fn state_words(&self) -> usize {
        self.stats().dffs.div_ceil(64)
    }

    /// Pack lane `lane`'s flip-flop state into `out` (length
    /// [`LaneSim::state_words`]): bit `i % 64` of word `i / 64` is the
    /// value of flip-flop `i`, in the engine's own flip-flop order.
    /// Flip-flops are all the state a lane carries from one cycle into
    /// the next — every gate output is recomputed each cycle — so a lane
    /// saved here and restored with [`LaneSim::load_lane`] into a lane
    /// carrying the same fault continues exactly where it stopped.
    fn save_lane(&self, lane: usize, out: &mut [u64]);

    /// Overwrite lane `lane`'s flip-flop state with `state`, as packed
    /// by [`LaneSim::save_lane`] on the same engine.
    fn load_lane(&mut self, lane: usize, state: &[u64]);

    /// Evaluate one segment (in construction order).
    fn eval_segment(&mut self, segment: usize);

    /// Evaluate all segments in order.
    fn eval_all(&mut self) {
        for s in 0..self.stats().segments {
            self.eval_segment(s);
        }
    }

    /// Clock every flip-flop (`q <= d`), honouring D-pin patches and Q
    /// stem injection.
    fn clock(&mut self);

    /// Drive a named input port with the same integer value on all
    /// lanes.
    fn set_port(&mut self, netlist: &Netlist, port: &str, value: u64);

    /// Drive a named input port with per-bit lane blocks: entry
    /// `i * lane_words + t` holds word `t` of bit `i` (the layout
    /// [`crate::wide::transpose_lanes_wide`] produces).
    fn set_port_bits(&mut self, netlist: &Netlist, port: &str, bits: &[u64]);

    /// Raw lane word `word` of a single net.
    fn net_lanes_word(&self, net: Net, word: usize) -> u64;

    /// Gather a whole lane word of a bus at once: `out[b]` becomes the
    /// bus value (LSB-first) in lane `64 * word + b`. One load per net
    /// plus a 64×64 bit-matrix transpose instead of `nets.len() × 64`
    /// single-bit probes — the read path memory-overlay testbenches are
    /// built on.
    fn lane_block(&self, nets: &[Net], word: usize, out: &mut [u64; 64]);

    /// OR into `acc` (length `lane_words`) the lanes whose value on any
    /// of `nets` differs from lane 0.
    fn diff_vs_lane0(&self, nets: &[Net], acc: &mut [u64]);

    /// The value of a bus in one lane as an integer (LSB first).
    fn lane_word(&self, nets: &[Net], lane: usize) -> u64 {
        let (t, b) = (lane >> 6, lane & 63);
        nets.iter().enumerate().fold(0, |v, (i, &n)| {
            v | ((self.net_lanes_word(n, t) >> b) & 1) << i
        })
    }

    /// Value of a named port in one lane, as an integer.
    fn port_lane_word(&self, netlist: &Netlist, port: &str, lane: usize) -> u64 {
        self.lane_word(netlist.port(port), lane)
    }
}

#[derive(Debug, Clone, Copy)]
struct PinPatch {
    set1: [u64; 3],
    keep0: [u64; 3],
}

impl PinPatch {
    fn identity() -> Self {
        PinPatch {
            set1: [0; 3],
            keep0: [ALL_LANES; 3],
        }
    }
}

/// The bit-parallel simulator. See the module docs.
///
/// Evaluation is split into *segments* (topologically ordered gate groups)
/// so a CPU testbench can evaluate the logic that produces the memory
/// address first, fetch per-lane read data from its memory model, then
/// evaluate the read-data cone — all within one cycle.
#[derive(Debug, Clone)]
pub struct ParallelSim {
    /// Per-net lane values, plus one trailing dummy slot (always 0) that
    /// unused gate-input slots point at.
    vals: Vec<u64>,
    /// Per-net stuck-at-1 injection masks (OR-ed into every store).
    set1: Vec<u64>,
    /// Per-net keep masks = NOT stuck-at-0 (AND-ed into every store).
    keep0: Vec<u64>,
    // Compiled gates, concatenated segment by segment.
    kinds: Vec<GateKind>,
    in0: Vec<u32>,
    in1: Vec<u32>,
    in2: Vec<u32>,
    outs: Vec<u32>,
    /// (start, end) of each segment in the compiled arrays.
    segment_bounds: Vec<(usize, usize)>,
    /// Compiled position of each original gate index.
    pos_of_gate: Vec<u32>,
    /// Pin patches sorted by compiled gate position (rare path; at most
    /// one entry per faulted gate, ≤ 63 per batch).
    pin_patches: Vec<(u32, PinPatch)>,
    /// D-pin patches per flip-flop index (sorted, ≤ 63 per batch).
    dff_patches: Vec<(u32, (u64, u64))>,
    /// Nets whose `set1`/`keep0` masks were touched by injection since the
    /// last [`Self::clear_faults`] — lets clearing skip the untouched bulk.
    touched_nets: Vec<u32>,
    /// DFF d/q nets and reset masks, copied out for the clock sweep.
    dff_d: Vec<u32>,
    dff_q: Vec<u32>,
    dff_reset: Vec<u64>,
    next: Vec<u64>,
}

impl ParallelSim {
    /// Build a simulator evaluating the whole netlist as one segment.
    pub fn new(netlist: &Netlist) -> Self {
        Self::with_segments(netlist, &[netlist.topo_order().to_vec()])
    }

    /// Build a simulator with an explicit segment decomposition. The
    /// concatenation of `segments` must contain every gate exactly once,
    /// each segment in valid topological order (e.g. the two halves of
    /// [`Netlist::split_on_inputs`]).
    pub fn with_segments(netlist: &Netlist, segments: &[Vec<u32>]) -> Self {
        let n_gates = netlist.gates().len();
        let total: usize = segments.iter().map(|s| s.len()).sum();
        assert_eq!(total, n_gates, "segments must cover every gate");
        let dummy = netlist.num_nets() as u32;
        let mut kinds = Vec::with_capacity(n_gates);
        let mut in0 = Vec::with_capacity(n_gates);
        let mut in1 = Vec::with_capacity(n_gates);
        let mut in2 = Vec::with_capacity(n_gates);
        let mut outs = Vec::with_capacity(n_gates);
        let mut pos_of_gate = vec![u32::MAX; n_gates];
        let mut segment_bounds = Vec::with_capacity(segments.len());
        let remap = |n: Net| -> u32 {
            if n == NO_NET {
                dummy
            } else {
                n.index() as u32
            }
        };
        for seg in segments {
            let start = kinds.len();
            for &gi in seg {
                let g = &netlist.gates()[gi as usize];
                assert_eq!(
                    pos_of_gate[gi as usize],
                    u32::MAX,
                    "gate {gi} appears in two segments"
                );
                pos_of_gate[gi as usize] = kinds.len() as u32;
                kinds.push(g.kind);
                in0.push(remap(g.inputs[0]));
                in1.push(remap(g.inputs[1]));
                in2.push(remap(g.inputs[2]));
                outs.push(g.output.index() as u32);
            }
            segment_bounds.push((start, kinds.len()));
        }
        let n_slots = netlist.num_nets() + 1;
        let dffs = netlist.dffs();
        ParallelSim {
            vals: vec![0; n_slots],
            set1: vec![0; n_slots],
            keep0: vec![ALL_LANES; n_slots],
            kinds,
            in0,
            in1,
            in2,
            outs,
            segment_bounds,
            pos_of_gate,
            pin_patches: Vec::new(),
            dff_patches: Vec::new(),
            touched_nets: Vec::new(),
            dff_d: dffs.iter().map(|f| f.d.index() as u32).collect(),
            dff_q: dffs.iter().map(|f| f.q.index() as u32).collect(),
            dff_reset: dffs
                .iter()
                .map(|f| if f.reset_value { ALL_LANES } else { 0 })
                .collect(),
            next: vec![0; dffs.len()],
        }
    }

    #[inline(always)]
    fn store(&mut self, net: usize, v: u64) {
        self.vals[net] = (v | self.set1[net]) & self.keep0[net];
    }

    /// Apply reset values to every flip-flop output (external synchronous
    /// reset, all lanes).
    pub fn reset(&mut self) {
        for i in 0..self.dff_q.len() {
            let q = self.dff_q[i] as usize;
            let rv = self.dff_reset[i];
            self.store(q, rv);
        }
    }

    /// Evaluate a run of compiled gates with no pin patches — the hot
    /// loop of the whole fault simulator.
    #[inline]
    fn eval_range(&mut self, start: usize, end: usize) {
        for i in start..end {
            let a = self.vals[self.in0[i] as usize];
            let b = self.vals[self.in1[i] as usize];
            let c = self.vals[self.in2[i] as usize];
            let v = self.kinds[i].eval_u64(a, b, c);
            let o = self.outs[i] as usize;
            self.vals[o] = (v | self.set1[o]) & self.keep0[o];
        }
    }

    /// Evaluate a single gate with its input pins patched.
    fn eval_gate_patched(&mut self, i: usize, p: PinPatch) {
        let a = (self.vals[self.in0[i] as usize] | p.set1[0]) & p.keep0[0];
        let b = (self.vals[self.in1[i] as usize] | p.set1[1]) & p.keep0[1];
        let c = (self.vals[self.in2[i] as usize] | p.set1[2]) & p.keep0[2];
        let v = self.kinds[i].eval_u64(a, b, c);
        let o = self.outs[i] as usize;
        self.vals[o] = (v | self.set1[o]) & self.keep0[o];
    }

    /// Raw lane word of a single net.
    #[inline]
    pub fn net_lanes(&self, net: Net) -> u64 {
        self.vals[net.index()]
    }

    /// Mask of lanes whose value on any of `nets` differs from lane 0 —
    /// the one-word form of [`LaneSim::diff_vs_lane0`].
    pub fn diff_vs_lane0(&self, nets: &[Net]) -> u64 {
        let mut acc = 0u64;
        for &n in nets {
            let v = self.vals[n.index()];
            acc |= v ^ 0u64.wrapping_sub(v & 1);
        }
        acc
    }
}

impl LaneSim for ParallelSim {
    fn engine(&self) -> &'static str {
        "interp"
    }

    fn lane_words(&self) -> usize {
        1
    }

    fn stats(&self) -> SimStats {
        SimStats {
            nets: self.vals.len() - 1,
            gates: self.kinds.len(),
            dffs: self.dff_d.len(),
            segments: self.segment_bounds.len(),
        }
    }

    /// Only the nets the previous batch actually touched are reset.
    fn clear_faults(&mut self) {
        for &n in &self.touched_nets {
            self.set1[n as usize] = 0;
            self.keep0[n as usize] = ALL_LANES;
        }
        self.touched_nets.clear();
        self.pin_patches.clear();
        self.dff_patches.clear();
    }

    fn inject(&mut self, fault: Fault, lane: usize) {
        assert!(lane < 64, "lane out of range");
        let bit = 1u64 << lane;
        match fault.site {
            FaultSite::Stem(n) => {
                let i = n.index();
                if !self.touched_nets.contains(&(i as u32)) {
                    self.touched_nets.push(i as u32);
                }
                match fault.polarity {
                    Polarity::StuckAt1 => self.set1[i] |= bit,
                    Polarity::StuckAt0 => self.keep0[i] &= !bit,
                }
                // Stems are applied on store; make the current value
                // consistent immediately.
                self.vals[i] = (self.vals[i] | self.set1[i]) & self.keep0[i];
            }
            FaultSite::Pin { gate, pin } => {
                let pos = self.pos_of_gate[gate as usize];
                let k = match self.pin_patches.binary_search_by_key(&pos, |e| e.0) {
                    Ok(k) => k,
                    Err(k) => {
                        self.pin_patches.insert(k, (pos, PinPatch::identity()));
                        k
                    }
                };
                let patch = &mut self.pin_patches[k].1;
                match fault.polarity {
                    Polarity::StuckAt1 => patch.set1[pin as usize] |= bit,
                    Polarity::StuckAt0 => patch.keep0[pin as usize] &= !bit,
                }
            }
            FaultSite::DffD(ff) => {
                let k = match self.dff_patches.binary_search_by_key(&ff, |e| e.0) {
                    Ok(k) => k,
                    Err(k) => {
                        self.dff_patches.insert(k, (ff, (0, ALL_LANES)));
                        k
                    }
                };
                let p = &mut self.dff_patches[k].1;
                match fault.polarity {
                    Polarity::StuckAt1 => p.0 |= bit,
                    Polarity::StuckAt0 => p.1 &= !bit,
                }
            }
        }
    }

    fn reset_state(&mut self) {
        for v in &mut self.vals {
            *v = 0;
        }
        for &n in &self.touched_nets {
            let i = n as usize;
            self.vals[i] = self.set1[i] & self.keep0[i];
        }
        self.reset();
    }

    fn save_lane(&self, lane: usize, out: &mut [u64]) {
        debug_assert!(lane < 64, "lane out of range");
        out.fill(0);
        for (i, &q) in self.dff_q.iter().enumerate() {
            out[i >> 6] |= ((self.vals[q as usize] >> lane) & 1) << (i & 63);
        }
    }

    fn load_lane(&mut self, lane: usize, state: &[u64]) {
        debug_assert!(lane < 64, "lane out of range");
        for (i, &q) in self.dff_q.iter().enumerate() {
            let v = &mut self.vals[q as usize];
            *v = (*v & !(1u64 << lane)) | (((state[i >> 6] >> (i & 63)) & 1) << lane);
        }
    }

    /// The pin-patch side table is sorted by compiled position, so the
    /// segment is evaluated as unpatched runs between patched gates: the
    /// runs take the branch-free fast path, each patched gate is handled
    /// individually.
    fn eval_segment(&mut self, segment: usize) {
        let (start, end) = self.segment_bounds[segment];
        let lo = self.pin_patches.partition_point(|e| (e.0 as usize) < start);
        let hi = self.pin_patches.partition_point(|e| (e.0 as usize) < end);
        let mut cur = start;
        for k in lo..hi {
            let (pos, patch) = self.pin_patches[k];
            let pos = pos as usize;
            self.eval_range(cur, pos);
            self.eval_gate_patched(pos, patch);
            cur = pos + 1;
        }
        self.eval_range(cur, end);
    }

    fn clock(&mut self) {
        for i in 0..self.dff_d.len() {
            self.next[i] = self.vals[self.dff_d[i] as usize];
        }
        for &(ff, (s1, k0)) in &self.dff_patches {
            let v = &mut self.next[ff as usize];
            *v = (*v | s1) & k0;
        }
        for i in 0..self.dff_q.len() {
            let q = self.dff_q[i] as usize;
            let v = self.next[i];
            self.vals[q] = (v | self.set1[q]) & self.keep0[q];
        }
    }

    fn set_port(&mut self, netlist: &Netlist, port: &str, value: u64) {
        for (i, &net) in netlist.port(port).iter().enumerate() {
            let bit = (value >> i) & 1;
            self.store(net.index(), 0u64.wrapping_sub(bit));
        }
    }

    fn set_port_bits(&mut self, netlist: &Netlist, port: &str, bits: &[u64]) {
        let nets = netlist.port(port);
        assert_eq!(nets.len(), bits.len(), "port width mismatch");
        for (&net, &w) in nets.iter().zip(bits) {
            self.store(net.index(), w);
        }
    }

    #[inline]
    fn net_lanes_word(&self, net: Net, word: usize) -> u64 {
        debug_assert_eq!(word, 0, "the interpreted engine has one lane word");
        self.vals[net.index()]
    }

    fn lane_block(&self, nets: &[Net], word: usize, out: &mut [u64; 64]) {
        debug_assert_eq!(word, 0, "the interpreted engine has one lane word");
        assert!(nets.len() <= 64, "bus wider than 64 bits");
        out.fill(0);
        for (i, &n) in nets.iter().enumerate() {
            out[i] = self.vals[n.index()];
        }
        transpose64(out);
    }

    fn diff_vs_lane0(&self, nets: &[Net], acc: &mut [u64]) {
        acc[0] |= ParallelSim::diff_vs_lane0(self, nets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultList;
    use netlist::sim::Simulator;
    use netlist::NetlistBuilder;

    fn sample_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("s");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        let x = b.xor_word(&a, &c);
        let y = b.and_word(&x, &a);
        let q = b.dff_word(&y, 0);
        let z = b.or_word(&q, &c);
        b.outputs("z", &z);
        b.finish().unwrap()
    }

    #[test]
    fn lane0_matches_scalar_simulator() {
        let nl = sample_netlist();
        let mut ps = ParallelSim::new(&nl);
        let mut ss = Simulator::new(&nl);
        ps.reset();
        ss.reset(&nl);
        let mut st = 0x1234_5678_9ABC_DEFu64;
        for _ in 0..50 {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            let av = (st >> 16) & 0xFF;
            let bv = (st >> 32) & 0xFF;
            ps.set_port(&nl, "a", av);
            ps.set_port(&nl, "b", bv);
            ss.set_input_word(&nl, "a", av);
            ss.set_input_word(&nl, "b", bv);
            ps.eval_all();
            ss.eval(&nl);
            assert_eq!(
                ps.port_lane_word(&nl, "z", 0),
                ss.output_word(&nl, "z"),
                "combinational mismatch"
            );
            ps.clock();
            ss.clock(&nl);
        }
    }

    #[test]
    fn injected_fault_only_affects_its_lane() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl);
        let mut ps = ParallelSim::new(&nl);
        // Inject a handful of distinct faults into distinct lanes.
        for (lane, i) in (1..8).zip((0..faults.len()).step_by(7)) {
            ps.inject(faults.faults[i], lane);
        }
        ps.reset();
        let mut divergence_seen = 0u64;
        let mut st = 7u64;
        for _ in 0..100 {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(13);
            ps.set_port(&nl, "a", (st >> 8) & 0xFF);
            ps.set_port(&nl, "b", (st >> 24) & 0xFF);
            ps.eval_all();
            divergence_seen |= ps.diff_vs_lane0(nl.port("z"));
            ps.clock();
        }
        // Only the lanes with injected faults may diverge; lanes 8..64
        // must track lane 0 exactly.
        assert_eq!(divergence_seen & !0xFF, 0, "clean lanes diverged");
        assert_ne!(divergence_seen & 0xFE, 0, "no injected fault was seen");
    }

    #[test]
    fn stem_sa1_forces_value() {
        let mut b = NetlistBuilder::new("f");
        let a = b.input("a");
        let y = b.buf(a);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let mut ps = ParallelSim::new(&nl);
        let ynet = nl.port("y")[0];
        ps.inject(
            Fault {
                site: FaultSite::Stem(ynet),
                polarity: Polarity::StuckAt1,
            },
            3,
        );
        ps.set_port(&nl, "a", 0);
        ps.eval_all();
        assert_eq!(ps.net_lanes(ynet), 1 << 3);
        ps.set_port(&nl, "a", 1);
        ps.eval_all();
        assert_eq!(ps.net_lanes(ynet), ALL_LANES);
    }

    #[test]
    fn pin_fault_affects_only_that_branch() {
        // a fans out to two ANDs; a pin fault on one branch must leave the
        // other branch healthy.
        let mut b = NetlistBuilder::new("p");
        let a = b.input("a");
        let one = b.one();
        let y1 = b.and2(a, one);
        let y2 = b.and2(a, one);
        b.output("y1", y1);
        b.output("y2", y2);
        let nl = b.finish().unwrap();
        // Find the gate index of the first AND.
        let g1 = nl
            .gates()
            .iter()
            .position(|g| g.kind == GateKind::And2)
            .unwrap() as u32;
        let mut ps = ParallelSim::new(&nl);
        ps.inject(
            Fault {
                site: FaultSite::Pin { gate: g1, pin: 0 },
                polarity: Polarity::StuckAt0,
            },
            5,
        );
        ps.set_port(&nl, "a", 1);
        ps.eval_all();
        let y1v = ps.net_lanes(nl.port("y1")[0]);
        let y2v = ps.net_lanes(nl.port("y2")[0]);
        assert_eq!(y1v, ALL_LANES & !(1 << 5), "faulty branch");
        assert_eq!(y2v, ALL_LANES, "healthy branch");
    }

    #[test]
    fn dff_d_pin_fault_sticks_state() {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let q = b.dff(a, false);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let mut ps = ParallelSim::new(&nl);
        ps.inject(
            Fault {
                site: FaultSite::DffD(0),
                polarity: Polarity::StuckAt1,
            },
            2,
        );
        ps.reset();
        ps.set_port(&nl, "a", 0);
        ps.eval_all();
        ps.clock();
        // q: lane 2 stuck at 1 after the clock, others 0.
        assert_eq!(ps.net_lanes(nl.port("q")[0]), 1 << 2);
    }

    #[test]
    fn clear_faults_restores_health() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl);
        let mut ps = ParallelSim::new(&nl);
        for (lane, f) in faults.faults.iter().take(60).enumerate() {
            ps.inject(*f, lane % 64);
        }
        ps.clear_faults();
        ps.reset();
        for step in 0..20u64 {
            ps.set_port(&nl, "a", step * 11 % 256);
            ps.set_port(&nl, "b", step * 29 % 256);
            ps.eval_all();
            assert_eq!(ps.diff_vs_lane0(nl.port("z")), 0);
            ps.clock();
        }
    }
}
