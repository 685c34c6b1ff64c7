//! The multi-word bit-parallel simulation engine: evaluation of a
//! [`CompiledKernel`] over lane *blocks* of W×u64 (W = 1, 2, 4 or 8,
//! i.e. 64–512 independent faulty machines per pass), behind the same
//! [`LaneSim`] interface as the interpreted [`crate::sim::ParallelSim`].
//!
//! The semantics are exactly those of the interpreted engine — stem
//! masks applied on every store, a sorted pin-patch side table, D-pin
//! patches at the clock edge, order-independent
//! [`LaneSim::reset_state`] — widened from one lane word per net to W.
//! Unlike the interpreted engine, stem masks on gate-driven and
//! state nets live in the *patch side tables* (at the driving gate's
//! compiled position, or folded into the flip-flop's clock transfer),
//! not in full-size per-net arrays: the hot loop stores bare values
//! and pays for faults only at the patched positions, which is most
//! of the compiled engine's throughput win. The per-net `set1`/`keep0`
//! arrays remain the source of truth for cold-path stores (ports,
//! reset) and for [`LaneSim::reset_state`] seeding.
//! Lane 0 (bit 0 of word 0) is the fault-free reference machine; a
//! fault's detection depends only on its own lane versus lane 0 under
//! shared stimulus, so per-fault results are bit-identical to the
//! interpreted 64-lane engine at every width (enforced by tests).

use std::sync::Arc;

use netlist::{Net, Netlist};

use crate::kernel::CompiledKernel;
use crate::model::{Fault, FaultSite, Polarity};
use crate::sim::{LaneSim, SimStats};

/// Maximum supported lane words per net (512 lanes).
pub const MAX_LANE_WORDS: usize = 8;

/// Patch for one gate: per-pin stuck-at masks for the three input pins
/// plus (slot 3) the output stem masks, over `4 * W` words (stride =
/// the sim's lane words).
#[derive(Debug, Clone, Copy)]
struct WidePatch {
    set1: [u64; 4 * MAX_LANE_WORDS],
    keep0: [u64; 4 * MAX_LANE_WORDS],
}

impl WidePatch {
    fn identity() -> Self {
        WidePatch {
            set1: [0; 4 * MAX_LANE_WORDS],
            keep0: [!0; 4 * MAX_LANE_WORDS],
        }
    }
}

/// D-pin patch for one flip-flop: stuck-at masks over `W` words.
#[derive(Debug, Clone, Copy)]
struct DffPatch {
    set1: [u64; MAX_LANE_WORDS],
    keep0: [u64; MAX_LANE_WORDS],
}

impl DffPatch {
    fn identity() -> Self {
        DffPatch {
            set1: [0; MAX_LANE_WORDS],
            keep0: [!0; MAX_LANE_WORDS],
        }
    }
}

/// The multi-word simulator: mutable lane state over a shared,
/// immutable [`CompiledKernel`]. Cloning clones the state and shares
/// the kernel (`Arc`), which is how parallel campaign workers get
/// per-worker state with kernel affinity.
#[derive(Debug, Clone)]
pub struct WideSim {
    kernel: Arc<CompiledKernel>,
    /// Lane words per net (1, 2, 4 or 8).
    w: usize,
    /// Per-net lane values, `n_slots * w`, net-major (slot i occupies
    /// `[i*w, i*w + w)`); the trailing dummy slot stays all-zero.
    vals: Vec<u64>,
    /// Per-net stem masks — read only on cold-path stores (ports,
    /// reset) and by `reset_state`; the evaluation and clock hot loops
    /// get their stem masks from the patch tables below.
    set1: Vec<u64>,
    keep0: Vec<u64>,
    pin_patches: Vec<(u32, WidePatch)>,
    dff_patches: Vec<(u32, DffPatch)>,
    /// Stem masks on flip-flop Q nets, folded into the clock transfer
    /// (sorted by flip-flop index).
    q_stem_patches: Vec<(u32, DffPatch)>,
    touched_nets: Vec<u32>,
    next: Vec<u64>,
}

impl WideSim {
    /// Build a simulator over `kernel` with `lane_words` u64 words per
    /// net (64 × `lane_words` lanes).
    ///
    /// # Panics
    ///
    /// Panics unless `lane_words` is 1, 2, 4 or 8.
    pub fn new(kernel: Arc<CompiledKernel>, lane_words: usize) -> WideSim {
        assert!(
            matches!(lane_words, 1 | 2 | 4 | 8),
            "lane_words must be 1, 2, 4 or 8 (got {lane_words})"
        );
        let n = kernel.n_slots * lane_words;
        let ndff = kernel.dff_d.len();
        WideSim {
            w: lane_words,
            vals: vec![0; n],
            set1: vec![0; n],
            keep0: vec![!0; n],
            pin_patches: Vec::new(),
            dff_patches: Vec::new(),
            q_stem_patches: Vec::new(),
            touched_nets: Vec::new(),
            next: vec![0; ndff * lane_words],
            kernel,
        }
    }

    /// The shared compiled kernel.
    pub fn kernel(&self) -> &Arc<CompiledKernel> {
        &self.kernel
    }

    /// The value slot of `net` (the kernel's cache-conscious
    /// renumbering — see [`CompiledKernel::slot_of_net`]).
    #[inline]
    fn slot(&self, net: Net) -> usize {
        self.kernel.slot_of_net[net.index()] as usize
    }

    /// Store `v` (length `w`) into `slot` through the stem masks.
    #[inline]
    fn store_slot(&mut self, slot: usize, v: &[u64]) {
        let base = slot * self.w;
        for t in 0..self.w {
            self.vals[base + t] = (v[t] | self.set1[base + t]) & self.keep0[base + t];
        }
    }

    /// The (possibly fresh) patch entry at compiled position `pos`.
    fn pin_patch_at(&mut self, pos: u32) -> &mut WidePatch {
        let k = match self.pin_patches.binary_search_by_key(&pos, |e| e.0) {
            Ok(k) => k,
            Err(k) => {
                self.pin_patches.insert(k, (pos, WidePatch::identity()));
                k
            }
        };
        &mut self.pin_patches[k].1
    }

    /// The (possibly fresh) Q-stem patch entry for flip-flop `ff`.
    fn q_stem_patch_at(&mut self, ff: u32) -> &mut DffPatch {
        let k = match self.q_stem_patches.binary_search_by_key(&ff, |e| e.0) {
            Ok(k) => k,
            Err(k) => {
                self.q_stem_patches.insert(k, (ff, DffPatch::identity()));
                k
            }
        };
        &mut self.q_stem_patches[k].1
    }

    /// Apply reset values to every flip-flop output (all lanes).
    pub fn reset(&mut self) {
        let mut rv = [0u64; MAX_LANE_WORDS];
        for i in 0..self.kernel.dff_q.len() {
            let q = self.kernel.dff_q[i] as usize;
            rv[..self.w].fill(self.kernel.dff_reset[i]);
            self.store_slot(q, &rv[..self.w]);
        }
    }

    fn eval_seg<const W: usize>(&mut self, k: &CompiledKernel, seg: usize) {
        debug_assert_eq!(W, self.w);
        let (start, end) = k.segments[seg];
        let lo = self.pin_patches.partition_point(|e| (e.0 as usize) < start);
        let hi = self.pin_patches.partition_point(|e| (e.0 as usize) < end);
        let mut cur = start;
        for pi in lo..hi {
            let pos = self.pin_patches[pi].0 as usize;
            self.eval_run::<W>(k, cur, pos);
            self.eval_patched::<W>(k, pi);
            cur = pos + 1;
        }
        self.eval_run::<W>(k, cur, end);
    }

    /// The hot loop: a straight-line run of compiled instructions with
    /// no patches — bare loads, opcode, bare store. Monomorphized per
    /// lane width so the per-word loops unroll; operand blocks are
    /// copied through fixed-size arrays so each block costs one bounds
    /// check instead of one per word.
    #[inline]
    fn eval_run<const W: usize>(&mut self, k: &CompiledKernel, start: usize, end: usize) {
        let kinds = &k.kinds[start..end];
        let in0 = &k.in0[start..end];
        let in1 = &k.in1[start..end];
        let in2 = &k.in2[start..end];
        let outs = &k.outs[start..end];
        let it = kinds
            .iter()
            .zip(in0)
            .zip(in1)
            .zip(in2)
            .zip(outs);
        for ((((&kind, &i0), &i1), &i2), &o) in it {
            let ia = i0 as usize * W;
            let ib = i1 as usize * W;
            let ic = i2 as usize * W;
            let ob = o as usize * W;
            let va: [u64; W] = self.vals[ia..ia + W].try_into().expect("stride");
            let vb: [u64; W] = self.vals[ib..ib + W].try_into().expect("stride");
            let vc: [u64; W] = self.vals[ic..ic + W].try_into().expect("stride");
            let out: &mut [u64; W] =
                (&mut self.vals[ob..ob + W]).try_into().expect("stride");
            for t in 0..W {
                out[t] = kind.eval_u64(va[t], vb[t], vc[t]);
            }
        }
    }

    /// Evaluate one gate with its pins patched: stuck-at masks on the
    /// three inputs (slots 0–2) and on the output stem (slot 3).
    fn eval_patched<const W: usize>(&mut self, k: &CompiledKernel, pi: usize) {
        let (pos, p) = self.pin_patches[pi];
        let i = pos as usize;
        let ia = k.in0[i] as usize * W;
        let ib = k.in1[i] as usize * W;
        let ic = k.in2[i] as usize * W;
        let kind = k.kinds[i];
        let ob = k.outs[i] as usize * W;
        for t in 0..W {
            let a = (self.vals[ia + t] | p.set1[t]) & p.keep0[t];
            let b = (self.vals[ib + t] | p.set1[W + t]) & p.keep0[W + t];
            let c = (self.vals[ic + t] | p.set1[2 * W + t]) & p.keep0[2 * W + t];
            let v = kind.eval_u64(a, b, c);
            self.vals[ob + t] = (v | p.set1[3 * W + t]) & p.keep0[3 * W + t];
        }
    }
}

impl LaneSim for WideSim {
    fn engine(&self) -> &'static str {
        "compiled"
    }

    #[inline]
    fn lane_words(&self) -> usize {
        self.w
    }

    fn stats(&self) -> SimStats {
        self.kernel.stats()
    }

    fn clear_faults(&mut self) {
        let w = self.w;
        for &n in &self.touched_nets {
            let base = n as usize * w;
            for t in 0..w {
                self.set1[base + t] = 0;
                self.keep0[base + t] = !0;
            }
        }
        self.touched_nets.clear();
        self.pin_patches.clear();
        self.dff_patches.clear();
        self.q_stem_patches.clear();
    }

    fn inject(&mut self, fault: Fault, lane: usize) {
        assert!(lane < self.lanes(), "lane out of range");
        let t = lane >> 6;
        let bit = 1u64 << (lane & 63);
        let w = self.w;
        match fault.site {
            FaultSite::Stem(n) => {
                let i = self.slot(n);
                if !self.touched_nets.contains(&(i as u32)) {
                    self.touched_nets.push(i as u32);
                }
                let k = i * w + t;
                match fault.polarity {
                    Polarity::StuckAt1 => self.set1[k] |= bit,
                    Polarity::StuckAt0 => self.keep0[k] &= !bit,
                }
                // Route the mask to wherever this net is stored from:
                // the driving gate's patch entry (applied after its
                // evaluation), the flip-flop's clock transfer, or —
                // for ports and constants — the per-net arrays alone,
                // which `store_slot` and `reset_state` consult.
                let driver = self.kernel.driver_pos[i];
                let dff = self.kernel.dff_of_q[i];
                if driver != u32::MAX {
                    let p = self.pin_patch_at(driver);
                    let idx = 3 * w + t;
                    match fault.polarity {
                        Polarity::StuckAt1 => p.set1[idx] |= bit,
                        Polarity::StuckAt0 => p.keep0[idx] &= !bit,
                    }
                } else if dff != u32::MAX {
                    let p = self.q_stem_patch_at(dff);
                    match fault.polarity {
                        Polarity::StuckAt1 => p.set1[t] |= bit,
                        Polarity::StuckAt0 => p.keep0[t] &= !bit,
                    }
                }
                // Stems are applied on store; make the current value
                // consistent immediately.
                self.vals[k] = (self.vals[k] | self.set1[k]) & self.keep0[k];
            }
            FaultSite::Pin { gate, pin } => {
                let pos = self.kernel.pos_of_gate[gate as usize];
                let patch = self.pin_patch_at(pos);
                let idx = pin as usize * w + t;
                match fault.polarity {
                    Polarity::StuckAt1 => patch.set1[idx] |= bit,
                    Polarity::StuckAt0 => patch.keep0[idx] &= !bit,
                }
            }
            FaultSite::DffD(ff) => {
                // Fault sites carry netlist flip-flop indices; the
                // kernel reorders flip-flops for sequential D gathers.
                let ff = self.kernel.kdff_of_dff[ff as usize];
                let k = match self.dff_patches.binary_search_by_key(&ff, |e| e.0) {
                    Ok(k) => k,
                    Err(k) => {
                        self.dff_patches.insert(k, (ff, DffPatch::identity()));
                        k
                    }
                };
                let p = &mut self.dff_patches[k].1;
                match fault.polarity {
                    Polarity::StuckAt1 => p.set1[t] |= bit,
                    Polarity::StuckAt0 => p.keep0[t] &= !bit,
                }
            }
        }
    }

    fn reset_state(&mut self) {
        for v in &mut self.vals {
            *v = 0;
        }
        let w = self.w;
        for &n in &self.touched_nets {
            let base = n as usize * w;
            for t in 0..w {
                self.vals[base + t] = self.set1[base + t] & self.keep0[base + t];
            }
        }
        self.reset();
    }

    fn save_lane(&self, lane: usize, out: &mut [u64]) {
        let (t, b) = (lane >> 6, lane & 63);
        out.fill(0);
        for (i, &q) in self.kernel.dff_q.iter().enumerate() {
            out[i >> 6] |= ((self.vals[q as usize * self.w + t] >> b) & 1) << (i & 63);
        }
    }

    fn load_lane(&mut self, lane: usize, state: &[u64]) {
        let (t, b) = (lane >> 6, lane & 63);
        for (i, &q) in self.kernel.dff_q.iter().enumerate() {
            let v = &mut self.vals[q as usize * self.w + t];
            *v = (*v & !(1u64 << b)) | (((state[i >> 6] >> (i & 63)) & 1) << b);
        }
    }

    /// Dispatches once per segment to the width-monomorphized kernel.
    fn eval_segment(&mut self, segment: usize) {
        let kernel = Arc::clone(&self.kernel);
        match self.w {
            1 => self.eval_seg::<1>(&kernel, segment),
            2 => self.eval_seg::<2>(&kernel, segment),
            4 => self.eval_seg::<4>(&kernel, segment),
            8 => self.eval_seg::<8>(&kernel, segment),
            _ => unreachable!("lane_words validated at construction"),
        }
    }

    fn clock(&mut self) {
        let w = self.w;
        let kernel = Arc::clone(&self.kernel);
        for i in 0..kernel.dff_d.len() {
            let d = kernel.dff_d[i] as usize * w;
            for t in 0..w {
                self.next[i * w + t] = self.vals[d + t];
            }
        }
        for &(ff, p) in &self.dff_patches {
            let base = ff as usize * w;
            for t in 0..w {
                let v = &mut self.next[base + t];
                *v = (*v | p.set1[t]) & p.keep0[t];
            }
        }
        // Q stem masks fold into `next` the same way (after D patches,
        // matching store order), so the transfer loop below needs no
        // per-net mask reads.
        for &(ff, p) in &self.q_stem_patches {
            let base = ff as usize * w;
            for t in 0..w {
                let v = &mut self.next[base + t];
                *v = (*v | p.set1[t]) & p.keep0[t];
            }
        }
        for i in 0..kernel.dff_q.len() {
            let base = kernel.dff_q[i] as usize * w;
            self.vals[base..base + w].copy_from_slice(&self.next[i * w..i * w + w]);
        }
    }

    fn set_port(&mut self, netlist: &Netlist, port: &str, value: u64) {
        let mut word = [0u64; MAX_LANE_WORDS];
        for (i, &net) in netlist.port(port).iter().enumerate() {
            let m = 0u64.wrapping_sub((value >> i) & 1);
            word[..self.w].fill(m);
            let s = self.slot(net);
            self.store_slot(s, &word[..self.w]);
        }
    }

    fn set_port_bits(&mut self, netlist: &Netlist, port: &str, bits: &[u64]) {
        let nets = netlist.port(port);
        let w = self.w;
        assert_eq!(nets.len() * w, bits.len(), "port width mismatch");
        for (i, &net) in nets.iter().enumerate() {
            let s = self.slot(net);
            self.store_slot(s, &bits[i * w..(i + 1) * w]);
        }
    }

    #[inline]
    fn net_lanes_word(&self, net: Net, word: usize) -> u64 {
        self.vals[self.slot(net) * self.w + word]
    }

    fn lane_block(&self, nets: &[Net], word: usize, out: &mut [u64; 64]) {
        assert!(nets.len() <= 64, "bus wider than 64 bits");
        out.fill(0);
        for (i, &n) in nets.iter().enumerate() {
            out[i] = self.vals[self.slot(n) * self.w + word];
        }
        transpose64(out);
    }

    fn diff_vs_lane0(&self, nets: &[Net], acc: &mut [u64]) {
        let w = self.w;
        debug_assert_eq!(acc.len(), w);
        for &n in nets {
            let base = self.slot(n) * w;
            let r = 0u64.wrapping_sub(self.vals[base] & 1);
            for (t, a) in acc.iter_mut().enumerate() {
                *a |= self.vals[base + t] ^ r;
            }
        }
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight butterfly,
/// LSB-first orientation): afterwards bit `c` of row `r` is what bit
/// `r` of row `c` was.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Transpose per-lane integer values into per-bit lane blocks:
/// `out[i * lane_words + t]` bit *L* = bit *i* of
/// `values[t * 64 + L]`. `values.len()` must be `64 * lane_words`.
pub fn transpose_lanes_wide(values: &[u64], width: usize, lane_words: usize, out: &mut Vec<u64>) {
    assert_eq!(values.len(), 64 * lane_words);
    out.clear();
    out.resize(width * lane_words, 0);
    let mask = if width >= 64 { !0 } else { (1u64 << width) - 1 };
    let mut m = [0u64; 64];
    for t in 0..lane_words {
        for lane in 0..64 {
            m[lane] = values[t * 64 + lane] & mask;
        }
        transpose64(&mut m);
        for i in 0..width {
            out[i * lane_words + t] = m[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::compile_cached;
    use crate::model::FaultList;
    use crate::sim::ParallelSim;
    use netlist::{Netlist, NetlistBuilder};

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

    /// Drive both engines with the same stimulus + faults (lanes < 64)
    /// and compare every observable the testbenches use.
    fn assert_matches_interp(nl: &Netlist, lane_words: usize, faults: &[Fault]) {
        let segs = vec![nl.topo_order().to_vec()];
        let mut ps = ParallelSim::with_segments(nl, &segs);
        let mut ws = WideSim::new(compile_cached(nl, &segs), lane_words);
        for (k, &f) in faults.iter().enumerate() {
            ps.inject(f, k + 1);
            ws.inject(f, k + 1);
        }
        ps.reset_state();
        ws.reset_state();
        let z = nl.port("z");
        let mut st = 0x9E37_79B9_7F4A_7C15u64;
        let mut diff = vec![0u64; lane_words];
        for cycle in 0..40 {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            let av = (st >> 16) & 0xFF;
            let bv = (st >> 32) & 0xFF;
            ps.set_port(nl, "a", av);
            ps.set_port(nl, "b", bv);
            ws.set_port(nl, "a", av);
            ws.set_port(nl, "b", bv);
            ps.eval_all();
            ws.eval_all();
            diff.fill(0);
            ws.diff_vs_lane0(z, &mut diff);
            assert_eq!(diff[0], ps.diff_vs_lane0(z), "diff mismatch @{cycle}");
            for t in 1..lane_words {
                assert_eq!(diff[t], 0, "phantom divergence in empty word {t}");
            }
            for lane in 0..8 {
                assert_eq!(
                    ws.lane_word(z, lane),
                    ps.lane_word(z, lane),
                    "lane {lane} mismatch @{cycle}"
                );
            }
            ps.clock();
            ws.clock();
        }
    }

    #[test]
    fn matches_interpreted_engine_across_widths() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let head: Vec<Fault> = faults.faults.iter().copied().take(20).collect();
        for lane_words in [1usize, 2, 4, 8] {
            assert_matches_interp(&nl, lane_words, &head);
        }
    }

    #[test]
    fn high_lane_injection_lands_in_its_word() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let f = faults.faults[0];
        let segs = vec![nl.topo_order().to_vec()];
        let mut ws = WideSim::new(compile_cached(&nl, &segs), 4);
        // The same fault in lane 1 (word 0) and lane 130 (word 2) must
        // diverge identically, word-shifted.
        ws.inject(f, 1);
        ws.inject(f, 130);
        ws.reset_state();
        let z = nl.port("z");
        let mut diff = vec![0u64; 4];
        for _ in 0..30 {
            ws.set_port(&nl, "a", 0xA5);
            ws.set_port(&nl, "b", 0x3C);
            ws.eval_all();
            ws.diff_vs_lane0(z, &mut diff);
            ws.clock();
        }
        assert_eq!(
            (diff[0] >> 1) & 1,
            (diff[2] >> 2) & 1,
            "same fault, different verdicts across words"
        );
        assert_eq!(diff[1], 0);
        assert_eq!(diff[3], 0);
        for lane in 0..256 {
            if lane != 1 && lane != 130 {
                let t = lane >> 6;
                assert_eq!((diff[t] >> (lane & 63)) & 1, 0, "lane {lane} dirty");
            }
        }
    }

    /// Per-lane values round-trip through the per-bit lane-block layout
    /// at one and two lane words.
    #[test]
    fn transpose_round_trips_at_one_and_two_words() {
        for lane_words in [1usize, 2] {
            let vals: Vec<u64> = (0..64 * lane_words as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let mut out = Vec::new();
            transpose_lanes_wide(&vals, 32, lane_words, &mut out);
            assert_eq!(out.len(), 32 * lane_words);
            for (lane, &v) in vals.iter().enumerate() {
                let (t, b) = (lane >> 6, lane & 63);
                let mut got = 0u64;
                for i in 0..32 {
                    got |= ((out[i * lane_words + t] >> b) & 1) << i;
                }
                assert_eq!(got, v & 0xFFFF_FFFF, "lane {lane} at {lane_words} words");
            }
        }
    }
}
