//! The bit-parallel fault simulator: evaluation of a
//! [`CompiledKernel`] over lane *blocks* of W×u64 (W = 1, 2, 4 or 8,
//! i.e. 64–512 independent faulty machines per pass). Bit *L* of word
//! *t* of a net is its value in lane `64 * t + L`; lane 0 (bit 0 of
//! word 0) is the fault-free reference machine, and every other lane
//! can carry its own injected faults.
//!
//! Evaluation walks each segment's `(kind, start, end)` runs (see
//! [`crate::kernel`]) and dispatches once per run, to a loop
//! monomorphized on width and gate kind that loads only the operands
//! the kind reads and stores to sequential slots. The clock edge
//! gathers every D block into a buffer in kernel flip-flop order and
//! writes it back over the Q slots, which are `0..dffs` in that same
//! order, with one copy.
//!
//! Faults are injected through per-net stem masks (OR-ed/AND-ed into a
//! stored value), a sorted side table of gate-pin patches (fanout
//! branches) and D-pin patches applied at the clock edge. Stem masks on
//! gate-driven and state nets also live in the *patch side tables* (at
//! the driving gate's compiled position, or folded into the flip-flop's
//! clock transfer): the hot loop stores bare values and pays for faults
//! only at the patched positions, where it splits a run. The per-net
//! `set1`/`keep0` arrays remain the source of truth for cold-path stores
//! (ports, reset) and for [`WideSim::reset_state`] seeding, and
//! injection records which nets carry them, so
//! [`WideSim::clear_faults`] touches only those.
//!
//! A fault's detection depends only on its own lane versus lane 0 under
//! shared stimulus, so per-fault results are bit-identical at every
//! width (enforced by the cross-width tests) and equal those of a
//! serial scalar simulator (`tests/scalar_oracle.rs`).

use std::sync::Arc;

use netlist::{GateKind, Net, Netlist};

use crate::kernel::{CompiledKernel, SimStats};
use crate::model::{Fault, FaultSite, Polarity};

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
        let mut sim = WideSim {
            w: 0,
            vals: Vec::new(),
            set1: Vec::new(),
            keep0: Vec::new(),
            pin_patches: Vec::new(),
            dff_patches: Vec::new(),
            q_stem_patches: Vec::new(),
            touched_nets: Vec::new(),
            next: Vec::new(),
            kernel,
        };
        sim.set_lane_words(lane_words);
        sim
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

    /// u64 words per net.
    #[inline]
    pub fn lane_words(&self) -> usize {
        self.w
    }

    /// Lanes per pass (64 × lane words).
    pub fn lanes(&self) -> usize {
        64 * self.w
    }

    /// Re-stride to `words` u64 words per net, keeping every buffer's
    /// allocation. Valid only with no fault injected (right after
    /// [`WideSim::clear_faults`]); net values are undefined until the
    /// next [`WideSim::reset_state`].
    ///
    /// With no fault injected every `set1` word is 0 and every `keep0`
    /// word all ones, so re-striding is a resize of each buffer;
    /// shrinking keeps the capacity, so a worker that alternates widths
    /// allocates only for the widest.
    ///
    /// # Panics
    ///
    /// Panics unless `words` is 1, 2, 4 or 8, or if a fault is injected.
    pub fn set_lane_words(&mut self, words: usize) {
        assert!(
            matches!(words, 1 | 2 | 4 | 8),
            "lane_words must be 1, 2, 4 or 8 (got {words})"
        );
        assert!(
            self.touched_nets.is_empty()
                && self.pin_patches.is_empty()
                && self.dff_patches.is_empty()
                && self.q_stem_patches.is_empty(),
            "set_lane_words with faults injected"
        );
        let n = self.kernel.n_slots * words;
        self.w = words;
        self.vals.resize(n, 0);
        self.set1.resize(n, 0);
        self.keep0.resize(n, !0);
        self.next.resize(self.kernel.dff_d.len() * words, 0);
    }

    /// Geometry of the simulated model.
    pub fn stats(&self) -> SimStats {
        self.kernel.stats()
    }

    /// Remove all injected faults, in O(faults).
    pub fn clear_faults(&mut self) {
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

    /// Inject `fault` into lane `lane` (`0..lanes()`). Injecting into
    /// lane 0 is allowed but forfeits the fault-free reference.
    pub fn inject(&mut self, fault: Fault, lane: usize) {
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
                if let Some(driver) = self.kernel.driver_pos(i) {
                    let p = self.pin_patch_at(driver as u32);
                    let idx = 3 * w + t;
                    match fault.polarity {
                        Polarity::StuckAt1 => p.set1[idx] |= bit,
                        Polarity::StuckAt0 => p.keep0[idx] &= !bit,
                    }
                } else if let Some(dff) = self.kernel.dff_of_q(i) {
                    let p = self.q_stem_patch_at(dff as u32);
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

    /// Zero every net value (through the injected stem masks), then
    /// apply flip-flop resets. Afterwards the state depends only on the
    /// injected faults — never on what a previous batch left behind —
    /// which is what makes campaign batches order-independent.
    pub fn reset_state(&mut self) {
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
        // Flip-flop `i` (kernel order) drives Q slot `i`.
        let mut rv = [0u64; MAX_LANE_WORDS];
        for q in 0..self.kernel.dff_reset.len() {
            rv[..w].fill(self.kernel.dff_reset[q]);
            self.store_slot(q, &rv[..w]);
        }
    }

    /// Words one lane's flip-flop state packs into (one bit per
    /// flip-flop) — the length [`WideSim::save_lane`] fills.
    pub fn state_words(&self) -> usize {
        self.kernel.dff_d.len().div_ceil(64)
    }

    /// Pack lane `lane`'s flip-flop state into `out` (length
    /// [`WideSim::state_words`]): bit `i % 64` of word `i / 64` is the
    /// value of flip-flop `i`, in the kernel's flip-flop order.
    /// Flip-flops are all the state a lane carries from one cycle into
    /// the next — every gate output is recomputed each cycle — so a lane
    /// saved here and restored with [`WideSim::load_lane`] into a lane
    /// carrying the same fault continues exactly where it stopped.
    pub fn save_lane(&self, lane: usize, out: &mut [u64]) {
        let (t, b) = (lane >> 6, lane & 63);
        out.fill(0);
        for i in 0..self.kernel.dff_d.len() {
            out[i >> 6] |= ((self.vals[i * self.w + t] >> b) & 1) << (i & 63);
        }
    }

    /// Overwrite lane `lane`'s flip-flop state with `state`, as packed
    /// by [`WideSim::save_lane`].
    pub fn load_lane(&mut self, lane: usize, state: &[u64]) {
        let (t, b) = (lane >> 6, lane & 63);
        for i in 0..self.kernel.dff_d.len() {
            let v = &mut self.vals[i * self.w + t];
            *v = (*v & !(1u64 << b)) | (((state[i >> 6] >> (i & 63)) & 1) << b);
        }
    }

    /// Evaluate one segment (in construction order). Dispatches once
    /// per segment to the width-monomorphized evaluator.
    pub fn eval_segment(&mut self, segment: usize) {
        let (vals, patches, k) = (&mut self.vals, &self.pin_patches, &*self.kernel);
        match self.w {
            1 => eval_seg::<1>(vals, patches, k, segment),
            2 => eval_seg::<2>(vals, patches, k, segment),
            4 => eval_seg::<4>(vals, patches, k, segment),
            8 => eval_seg::<8>(vals, patches, k, segment),
            _ => unreachable!("lane_words validated at construction"),
        }
    }

    /// Evaluate all segments in order.
    pub fn eval_all(&mut self) {
        for s in 0..self.kernel.segments.len() {
            self.eval_segment(s);
        }
    }

    /// Clock every flip-flop (`q <= d`), honouring D-pin patches and Q
    /// stem injection.
    pub fn clock(&mut self) {
        match self.w {
            1 => self.clock_w::<1>(),
            2 => self.clock_w::<2>(),
            4 => self.clock_w::<4>(),
            8 => self.clock_w::<8>(),
            _ => unreachable!("lane_words validated at construction"),
        }
    }

    /// The clock edge at `W` lane words: gather each D block into
    /// `next` (kernel flip-flop order), fold in the D-pin and Q-stem
    /// patches, then write every Q slot with one copy — the Q slots are
    /// `0..dffs` in that same order.
    fn clock_w<const W: usize>(&mut self) {
        let dffs = self.kernel.dff_d.len();
        let next = &mut self.next[..dffs * W];
        for (dst, &d) in next.chunks_exact_mut(W).zip(&self.kernel.dff_d) {
            dst.copy_from_slice(&block::<W>(&self.vals, d));
        }
        // Q stem masks fold into `next` after the D patches, matching
        // store order, so the transfer needs no per-net mask reads.
        for &(ff, p) in self.dff_patches.iter().chain(&self.q_stem_patches) {
            let base = ff as usize * W;
            for t in 0..W {
                let v = &mut next[base + t];
                *v = (*v | p.set1[t]) & p.keep0[t];
            }
        }
        self.vals[..dffs * W].copy_from_slice(next);
    }

    /// Drive a named input port with the same integer value on all
    /// lanes.
    pub fn set_port(&mut self, netlist: &Netlist, port: &str, value: u64) {
        let mut word = [0u64; MAX_LANE_WORDS];
        for (i, &net) in netlist.port(port).iter().enumerate() {
            let m = 0u64.wrapping_sub((value >> i) & 1);
            word[..self.w].fill(m);
            let s = self.slot(net);
            self.store_slot(s, &word[..self.w]);
        }
    }

    /// Drive an input bus with per-bit lane blocks: entry
    /// `i * lane_words + t` holds word `t` of bit `i` (the layout
    /// [`transpose_lanes_wide`] produces).
    pub fn set_bus_bits(&mut self, nets: &[Net], bits: &[u64]) {
        let w = self.w;
        assert_eq!(nets.len() * w, bits.len(), "port width mismatch");
        for (i, &net) in nets.iter().enumerate() {
            let s = self.slot(net);
            self.store_slot(s, &bits[i * w..(i + 1) * w]);
        }
    }

    /// Raw lane word `word` of a single net.
    #[inline]
    pub fn net_lanes_word(&self, net: Net, word: usize) -> u64 {
        self.vals[self.slot(net) * self.w + word]
    }

    /// Gather a whole lane word of a bus at once: `out[b]` becomes the
    /// bus value (LSB-first) in lane `64 * word + b`. One load per net
    /// plus a 64×64 bit-matrix transpose instead of `nets.len() × 64`
    /// single-bit probes — the read path memory-overlay testbenches are
    /// built on.
    pub fn lane_block(&self, nets: &[Net], word: usize, out: &mut [u64; 64]) {
        assert!(nets.len() <= 64, "bus wider than 64 bits");
        out.fill(0);
        for (i, &n) in nets.iter().enumerate() {
            out[i] = self.vals[self.slot(n) * self.w + word];
        }
        transpose64(out);
    }

    /// OR into `acc` (length `lane_words`) the lanes whose value on any
    /// of `nets` differs from lane 0.
    pub fn diff_vs_lane0(&self, nets: &[Net], acc: &mut [u64]) {
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

    /// The value of a bus in one lane as an integer (LSB first).
    pub fn lane_word(&self, nets: &[Net], lane: usize) -> u64 {
        let (t, b) = (lane >> 6, lane & 63);
        nets.iter().enumerate().fold(0, |v, (i, &n)| {
            v | ((self.net_lanes_word(n, t) >> b) & 1) << i
        })
    }

    /// Value of a named port in one lane, as an integer.
    pub fn port_lane_word(&self, netlist: &Netlist, port: &str, lane: usize) -> u64 {
        self.lane_word(netlist.port(port), lane)
    }
}

/// Evaluate segment `seg` at `W` lane words: each kind run goes to its
/// own loop, split only at patched positions, which
/// [`eval_patched`] evaluates through their masks.
fn eval_seg<const W: usize>(
    vals: &mut [u64],
    patches: &[(u32, WidePatch)],
    k: &CompiledKernel,
    seg: usize,
) {
    let (start, _) = k.segments[seg];
    let mut pi = patches.partition_point(|e| (e.0 as usize) < start);
    for &(kind, lo, hi) in &k.runs[seg] {
        let mut cur = lo;
        while let Some(&(pos, ref p)) = patches.get(pi).filter(|e| (e.0 as usize) < hi) {
            let pos = pos as usize;
            eval_run::<W>(vals, k, kind, cur, pos);
            eval_patched::<W>(vals, k, pos, p);
            cur = pos + 1;
            pi += 1;
        }
        eval_run::<W>(vals, k, kind, cur, hi);
    }
}

/// The hot loop: compiled positions `[lo, hi)`, all of gate kind
/// `kind`, with no patches. One dispatch per run, to a [`run`] loop
/// inlined with its kind a constant.
#[inline]
fn eval_run<const W: usize>(
    vals: &mut [u64],
    k: &CompiledKernel,
    kind: GateKind,
    lo: usize,
    hi: usize,
) {
    use GateKind::*;
    match kind {
        Const0 => run::<W>(vals, k, lo, hi, Const0),
        Const1 => run::<W>(vals, k, lo, hi, Const1),
        Buf => run::<W>(vals, k, lo, hi, Buf),
        Not => run::<W>(vals, k, lo, hi, Not),
        And2 => run::<W>(vals, k, lo, hi, And2),
        Or2 => run::<W>(vals, k, lo, hi, Or2),
        Nand2 => run::<W>(vals, k, lo, hi, Nand2),
        Nor2 => run::<W>(vals, k, lo, hi, Nor2),
        Xor2 => run::<W>(vals, k, lo, hi, Xor2),
        Xnor2 => run::<W>(vals, k, lo, hi, Xnor2),
        Mux2 => run::<W>(vals, k, lo, hi, Mux2),
        Aoi21 => run::<W>(vals, k, lo, hi, Aoi21),
        Oai21 => run::<W>(vals, k, lo, hi, Oai21),
    }
}

/// Positions `[lo, hi)` of gate kind `kind`. Inlined with `kind` a
/// constant, `kind.arity()` and `kind.eval_u64` fold away: the loop
/// loads only the operands the kind reads (the rest read as 0, which
/// the kind never looks at), evaluates the gate's bit expression and
/// stores to sequential slots.
#[inline(always)]
fn run<const W: usize>(vals: &mut [u64], k: &CompiledKernel, lo: usize, hi: usize, kind: GateKind) {
    let arity = kind.arity();
    let ops = k.in0[lo..hi].iter().zip(&k.in1[lo..hi]).zip(&k.in2[lo..hi]);
    for (slot, ((&ia, &ib), &ic)) in (k.gate_out_base + lo..).zip(ops) {
        let operand = |pin: usize, slot: u32| {
            if pin < arity {
                block::<W>(vals, slot)
            } else {
                [0; W]
            }
        };
        let (va, vb, vc) = (operand(0, ia), operand(1, ib), operand(2, ic));
        store::<W>(
            vals,
            slot,
            std::array::from_fn(|t| kind.eval_u64(va[t], vb[t], vc[t])),
        );
    }
}

/// The `W` lane words of `slot`, copied out through a fixed-size array
/// (one bounds check per block, not one per word).
#[inline(always)]
fn block<const W: usize>(vals: &[u64], slot: u32) -> [u64; W] {
    let i = slot as usize * W;
    vals[i..i + W].try_into().expect("stride")
}

/// Store `v` into the `W` lane words of `slot`.
#[inline(always)]
fn store<const W: usize>(vals: &mut [u64], slot: usize, v: [u64; W]) {
    let dst: &mut [u64; W] = (&mut vals[slot * W..slot * W + W])
        .try_into()
        .expect("stride");
    *dst = v;
}

/// Evaluate the gate at compiled position `pos` with its pins patched:
/// stuck-at masks on the three inputs (slots 0–2) and on the output
/// stem (slot 3).
fn eval_patched<const W: usize>(vals: &mut [u64], k: &CompiledKernel, pos: usize, p: &WidePatch) {
    let va = block::<W>(vals, k.in0[pos]);
    let vb = block::<W>(vals, k.in1[pos]);
    let vc = block::<W>(vals, k.in2[pos]);
    let kind = k.kinds[pos];
    store::<W>(
        vals,
        k.gate_out_base + pos,
        std::array::from_fn(|t| {
            let a = (va[t] | p.set1[t]) & p.keep0[t];
            let b = (vb[t] | p.set1[W + t]) & p.keep0[W + t];
            let c = (vc[t] | p.set1[2 * W + t]) & p.keep0[2 * W + t];
            (kind.eval_u64(a, b, c) | p.set1[3 * W + t]) & p.keep0[3 * W + t]
        }),
    );
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
    use netlist::sim::Simulator;
    use netlist::{GateKind, Netlist, NetlistBuilder};

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

    fn sim_at(nl: &Netlist, lane_words: usize) -> WideSim {
        WideSim::new(compile_cached(nl, &[nl.topo_order().to_vec()]), lane_words)
    }

    /// The placements every injection test runs at, as (lane words,
    /// the word its faulty lanes sit in): 64 lanes, and the last word of
    /// 512 lanes.
    const PLACEMENTS: [(usize, usize); 2] = [(1, 0), (8, 7)];

    /// Every lane word of `net`.
    fn words_of(sim: &WideSim, net: Net) -> Vec<u64> {
        (0..sim.lane_words())
            .map(|t| sim.net_lanes_word(net, t))
            .collect()
    }

    /// `home_word` in word `home`, `rest` in every other word.
    fn expect(words: usize, home: usize, home_word: u64, rest: u64) -> Vec<u64> {
        (0..words)
            .map(|t| if t == home { home_word } else { rest })
            .collect()
    }

    #[test]
    fn lane0_matches_scalar_simulator() {
        let nl = sample_netlist();
        for (words, _) in PLACEMENTS {
            let mut ws = sim_at(&nl, words);
            let mut ss = Simulator::new(&nl);
            ws.reset_state();
            ss.reset(&nl);
            let last = ws.lanes() - 1;
            let mut st = 0x1234_5678_9ABC_DEFu64;
            for _ in 0..50 {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
                let av = (st >> 16) & 0xFF;
                let bv = (st >> 32) & 0xFF;
                ws.set_port(&nl, "a", av);
                ws.set_port(&nl, "b", bv);
                ss.set_input_word(&nl, "a", av);
                ss.set_input_word(&nl, "b", bv);
                ws.eval_all();
                ss.eval(&nl);
                for lane in [0, last] {
                    assert_eq!(
                        ws.port_lane_word(&nl, "z", lane),
                        ss.output_word(&nl, "z"),
                        "combinational mismatch in lane {lane} of {}",
                        ws.lanes()
                    );
                }
                ws.clock();
                ss.clock(&nl);
            }
        }
    }

    /// Four interleaved chains 100 levels deep (past the 63 levels a
    /// clamped level key would merge): at each level every chain takes
    /// one of `And2`, `Xor2`, `Not`, `Mux2` in rotation, so each level
    /// mixes all four kinds and the chains read each other. Chain heads
    /// are inputs XOR flip-flop state; the tails feed the flip-flops and
    /// the output `z`.
    fn deep_chain() -> Netlist {
        let mut b = NetlistBuilder::new("deep");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        let (q, slots) = b.dff_word_later(4, 0b0101);
        let mut x: Vec<Net> = (0..4).map(|i| b.xor2(a[i], q[i])).collect();
        for level in 0..100 {
            let prev = x.clone();
            for ch in 0..4 {
                let other = prev[(ch + 1) % 4];
                x[ch] = match (level + ch) % 4 {
                    0 => b.and2(prev[ch], other),
                    1 => b.xor2(prev[ch], c[level % 8]),
                    2 => b.not(prev[ch]),
                    _ => b.mux2(a[level % 8], prev[ch], other),
                };
            }
        }
        b.dff_word_set(slots, &x);
        b.outputs("z", &x);
        b.finish().unwrap()
    }

    /// The (level, kind) order on a chain deeper than 63 levels is still
    /// topological: lane 0 and the last lane track the scalar simulator
    /// at every width, with faults in the lanes between splitting the
    /// kind runs at their patched positions.
    #[test]
    fn deep_mixed_chain_matches_scalar_simulator() {
        let nl = deep_chain();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        for words in [1usize, 2, 4, 8] {
            let mut ws = sim_at(&nl, words);
            let last = ws.lanes() - 1;
            for (lane, &f) in (1..last).zip(faults.faults.iter().step_by(3)) {
                ws.inject(f, lane);
            }
            let mut ss = Simulator::new(&nl);
            ws.reset_state();
            ss.reset(&nl);
            let mut outputs = std::collections::HashSet::new();
            let mut st = 0x2545_F491_4F6C_DD1Du64;
            for cycle in 0..60 {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
                for (port, v) in [("a", (st >> 16) & 0xFF), ("b", (st >> 32) & 0xFF)] {
                    ws.set_port(&nl, port, v);
                    ss.set_input_word(&nl, port, v);
                }
                ws.eval_all();
                ss.eval(&nl);
                let want = ss.output_word(&nl, "z");
                outputs.insert(want);
                for lane in [0, last] {
                    assert_eq!(
                        ws.port_lane_word(&nl, "z", lane),
                        want,
                        "lane {lane} of {} @{cycle}",
                        ws.lanes()
                    );
                }
                ws.clock();
                ss.clock(&nl);
            }
            assert!(
                outputs.len() > 4,
                "the chain output barely moves: {outputs:?}"
            );
        }
    }

    #[test]
    fn injected_fault_only_affects_its_lane() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl);
        for (words, home) in PLACEMENTS {
            let mut ws = sim_at(&nl, words);
            // Inject a handful of distinct faults into distinct lanes.
            for (lane, i) in (1..8).zip((0..faults.len()).step_by(7)) {
                ws.inject(faults.faults[i], 64 * home + lane);
            }
            ws.reset_state();
            let mut seen = vec![0u64; words];
            let mut st = 7u64;
            for _ in 0..100 {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(13);
                ws.set_port(&nl, "a", (st >> 8) & 0xFF);
                ws.set_port(&nl, "b", (st >> 24) & 0xFF);
                ws.eval_all();
                ws.diff_vs_lane0(nl.port("z"), &mut seen);
                ws.clock();
            }
            // Only the lanes with injected faults may diverge; every
            // other lane must track lane 0 exactly.
            let clean = expect(words, home, seen[home] & 0xFE, 0);
            assert_eq!(seen, clean, "clean lanes diverged at {} lanes", ws.lanes());
            assert_ne!(seen[home], 0, "no injected fault was seen");
        }
    }

    #[test]
    fn stem_sa1_forces_value() {
        let mut b = NetlistBuilder::new("f");
        let a = b.input("a");
        let y = b.buf(a);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let ynet = nl.port("y")[0];
        for (words, home) in PLACEMENTS {
            let mut ws = sim_at(&nl, words);
            let sa1 = Fault {
                site: FaultSite::Stem(ynet),
                polarity: Polarity::StuckAt1,
            };
            ws.inject(sa1, 64 * home + 3);
            ws.set_port(&nl, "a", 0);
            ws.eval_all();
            assert_eq!(words_of(&ws, ynet), expect(words, home, 1 << 3, 0));
            ws.set_port(&nl, "a", 1);
            ws.eval_all();
            assert_eq!(words_of(&ws, ynet), vec![!0; words]);
        }
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
        for (words, home) in PLACEMENTS {
            let mut ws = sim_at(&nl, words);
            let sa0 = Fault {
                site: FaultSite::Pin { gate: g1, pin: 0 },
                polarity: Polarity::StuckAt0,
            };
            ws.inject(sa0, 64 * home + 5);
            ws.set_port(&nl, "a", 1);
            ws.eval_all();
            let faulty = expect(words, home, !(1 << 5), !0);
            assert_eq!(words_of(&ws, nl.port("y1")[0]), faulty, "faulty branch");
            assert_eq!(
                words_of(&ws, nl.port("y2")[0]),
                vec![!0; words],
                "healthy branch"
            );
        }
    }

    #[test]
    fn dff_d_pin_fault_sticks_state() {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let q = b.dff(a, false);
        b.output("q", q);
        let nl = b.finish().unwrap();
        for (words, home) in PLACEMENTS {
            let mut ws = sim_at(&nl, words);
            let sa1 = Fault {
                site: FaultSite::DffD(0),
                polarity: Polarity::StuckAt1,
            };
            ws.inject(sa1, 64 * home + 2);
            ws.reset_state();
            ws.set_port(&nl, "a", 0);
            ws.eval_all();
            ws.clock();
            // q: the faulty lane stuck at 1 after the clock, others 0.
            assert_eq!(
                words_of(&ws, nl.port("q")[0]),
                expect(words, home, 1 << 2, 0)
            );
        }
    }

    #[test]
    fn clear_faults_restores_health() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl);
        for (words, home) in PLACEMENTS {
            let mut ws = sim_at(&nl, words);
            for (lane, f) in faults.faults.iter().take(60).enumerate() {
                ws.inject(*f, 64 * home + lane % 64);
            }
            ws.clear_faults();
            ws.reset_state();
            for step in 0..20u64 {
                ws.set_port(&nl, "a", step * 11 % 256);
                ws.set_port(&nl, "b", step * 29 % 256);
                ws.eval_all();
                let mut diff = vec![0u64; words];
                ws.diff_vs_lane0(nl.port("z"), &mut diff);
                assert_eq!(diff, vec![0; words], "step {step} at {} lanes", ws.lanes());
                ws.clock();
            }
        }
    }

    /// Drive `ws` and a fresh 64-lane simulator with the same stimulus,
    /// each fault in lane `k + 1` of both — and, in a wider `ws`, also in
    /// the same lane of its last word — and compare every observable the
    /// testbenches use.
    fn assert_matches_64_lanes(nl: &Netlist, ws: &mut WideSim, faults: &[Fault]) {
        let mut narrow = sim_at(nl, 1);
        let words = ws.lane_words();
        let last = 64 * (words - 1);
        for (k, &f) in faults.iter().enumerate() {
            narrow.inject(f, k + 1);
            ws.inject(f, k + 1);
            if words > 1 {
                ws.inject(f, last + k + 1);
            }
        }
        narrow.reset_state();
        ws.reset_state();
        let z = nl.port("z");
        let mut st = 0x9E37_79B9_7F4A_7C15u64;
        let (mut want, mut diff) = ([0u64], vec![0u64; words]);
        for cycle in 0..40 {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            let av = (st >> 16) & 0xFF;
            let bv = (st >> 32) & 0xFF;
            for sim in [&mut narrow, &mut *ws] {
                sim.set_port(nl, "a", av);
                sim.set_port(nl, "b", bv);
                sim.eval_all();
            }
            want[0] = 0;
            narrow.diff_vs_lane0(z, &mut want);
            diff.fill(0);
            ws.diff_vs_lane0(z, &mut diff);
            let mut expected = vec![0u64; words];
            expected[0] = want[0];
            expected[words - 1] |= want[0] & !1;
            assert_eq!(diff, expected, "diff mismatch @{cycle}");
            for lane in 0..8 {
                let v = narrow.lane_word(z, lane);
                assert_eq!(ws.lane_word(z, lane), v, "lane {lane} mismatch @{cycle}");
                if lane > 0 {
                    assert_eq!(
                        ws.lane_word(z, last + lane),
                        v,
                        "lane {} @{cycle}",
                        last + lane
                    );
                }
            }
            narrow.clock();
            ws.clock();
        }
    }

    #[test]
    fn widths_match_64_lanes() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let head: Vec<Fault> = faults.faults.iter().copied().take(20).collect();
        for lane_words in [1usize, 2, 4, 8] {
            assert_matches_64_lanes(&nl, &mut sim_at(&nl, lane_words), &head);
        }
    }

    /// One simulator re-strided between batches, narrower and wider in
    /// turn, behaves as a fresh one at each width.
    #[test]
    fn set_lane_words_restrides_between_batches() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let head: Vec<Fault> = faults.faults.iter().copied().take(20).collect();
        let mut ws = sim_at(&nl, 8);
        for lane_words in [8usize, 1, 4, 2, 8, 1] {
            ws.clear_faults();
            ws.set_lane_words(lane_words);
            assert_eq!(ws.lanes(), 64 * lane_words);
            assert_matches_64_lanes(&nl, &mut ws, &head);
        }
    }

    #[test]
    #[should_panic(expected = "faults injected")]
    fn set_lane_words_refuses_injected_faults() {
        let nl = sample_netlist();
        let f = FaultList::extract(&nl).collapsed(&nl).faults[0];
        let mut ws = WideSim::new(compile_cached(&nl, &[nl.topo_order().to_vec()]), 4);
        ws.inject(f, 1);
        ws.set_lane_words(1);
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
