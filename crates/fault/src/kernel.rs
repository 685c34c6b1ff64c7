//! The compiled-kernel lowering pass: a one-time translation of a
//! [`Netlist`] (plus its segment decomposition) into a dense,
//! cache-friendly straight-line instruction stream that the multi-word
//! engine in [`crate::wide`] evaluates.
//!
//! Lowering does everything the interpreted walk re-derives on every
//! pass, once:
//!
//! * **Operand resolution** — every gate input becomes a flat slot
//!   offset; `NO_NET` is resolved to a trailing dummy slot that is
//!   always 0, so the hot loop has no sentinel branches.
//! * **Levelization** — gates are stably re-sorted by logic level
//!   within each segment (a level-sorted order is still topological;
//!   levels past 62 share one clamped tail). The order is part of the
//!   kernel's identity: slots follow it, so evaluation stores walk
//!   memory sequentially.
//! * **Fault-patch pre-indexing** — the compiled position of every
//!   gate, the driving position or flip-flop of every slot, so fault
//!   injection finds its patch site in O(1).
//!
//! Kernels are immutable and shared: [`compile_cached`] keys a global
//! cache by a structural fingerprint of (netlist, segments), so
//! repeated campaigns, the difftest fuzzer, and every worker thread of
//! a parallel campaign reuse one lowered program instead of re-walking
//! `Netlist` structures (per-worker kernel *affinity* is an `Arc`
//! clone, not a recompile).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use netlist::{GateKind, Net, Netlist, NO_NET};

use crate::sim::SimStats;

/// An immutable compiled evaluation kernel. Build with
/// [`CompiledKernel::compile`] or (preferably) [`compile_cached`].
///
/// Operands are expressed in *slot* space, a cache-conscious
/// renumbering of the netlist's nets: slots `[0, dffs)` are the
/// flip-flop Q nets in flip-flop order (the clock edge writes one
/// contiguous block), followed by the other externally-driven nets
/// (ports, constants), followed by every gate-driven net *in compiled
/// evaluation order* — so the hot loop's stores walk memory strictly
/// sequentially — with the always-zero dummy slot last.
/// [`CompiledKernel::slot_of_net`] maps net indices into this space.
#[derive(Debug)]
pub struct CompiledKernel {
    /// Value slots: `num_nets + 1`, the last being the always-zero
    /// dummy that unused operand slots point at.
    pub n_slots: usize,
    /// Net index → value slot (the dummy maps to itself at `num_nets`).
    pub slot_of_net: Vec<u32>,
    /// Fused opcode per compiled position.
    pub kinds: Vec<GateKind>,
    /// Operand slot offsets per compiled position (dummy-resolved).
    pub in0: Vec<u32>,
    /// Second operand slot.
    pub in1: Vec<u32>,
    /// Third operand slot.
    pub in2: Vec<u32>,
    /// Output slot per compiled position.
    pub outs: Vec<u32>,
    /// `[start, end)` of each segment in the compiled arrays, in
    /// evaluation order.
    pub segments: Vec<(usize, usize)>,
    /// Compiled position of each original gate index.
    pub pos_of_gate: Vec<u32>,
    /// Compiled position of the gate driving each slot (`u32::MAX` for
    /// ports, flip-flop outputs, constants and the dummy) — where a
    /// stem fault on a gate-driven net patches in.
    pub driver_pos: Vec<u32>,
    /// Flip-flop index whose Q drives each slot (`u32::MAX` otherwise)
    /// — where a stem fault on a state net patches in.
    pub dff_of_q: Vec<u32>,
    /// Kernel flip-flop index of each netlist flip-flop index. The
    /// kernel reorders flip-flops so the clock-edge D gather walks the
    /// gate-output slots sequentially; netlist-indexed fault sites
    /// (`FaultSite::DffD`) translate through this table.
    pub kdff_of_dff: Vec<u32>,
    /// D-input slot of each flip-flop (kernel order).
    pub dff_d: Vec<u32>,
    /// Q-output slot of each flip-flop.
    pub dff_q: Vec<u32>,
    /// All-lanes reset mask of each flip-flop (`!0` or `0`).
    pub dff_reset: Vec<u64>,
    /// Structural fingerprint this kernel was compiled from (cache key).
    pub fingerprint: u64,
    /// Human-readable geometry fingerprint (`nN/gG/dD`), the same form
    /// the ledger uses.
    pub geometry: String,
}

impl CompiledKernel {
    /// Lower `netlist` with an explicit segment decomposition — the
    /// same contract as `ParallelSim::with_segments`: the concatenation
    /// of `segments` must contain every gate exactly once, each segment
    /// in valid topological order.
    pub fn compile(netlist: &Netlist, segments: &[Vec<u32>]) -> CompiledKernel {
        let n_gates = netlist.gates().len();
        let total: usize = segments.iter().map(|s| s.len()).sum();
        assert_eq!(total, n_gates, "segments must cover every gate");
        let n_nets = netlist.num_nets();

        // Pass 1: levelize each segment and fix the compiled order.
        let mut compiled_gates: Vec<u32> = Vec::with_capacity(n_gates);
        let mut pos_of_gate = vec![u32::MAX; n_gates];
        let mut bounds = Vec::with_capacity(segments.len());
        for seg in segments {
            // Levelize within this segment: nets produced outside it
            // (ports, flip-flops, earlier segments) are level 0 inputs.
            let mut net_level = vec![0u32; n_nets + 1];
            let mut gate_level: Vec<u8> = Vec::with_capacity(seg.len());
            for &gi in seg {
                let g = &netlist.gates()[gi as usize];
                let mut lvl = 0u32;
                for &inp in &g.inputs {
                    if inp != NO_NET {
                        lvl = lvl.max(net_level[inp.index()]);
                    }
                }
                net_level[g.output.index()] = lvl + 1;
                gate_level.push(lvl.min(63) as u8);
            }
            // Stable sort by level: levels strictly increase along
            // in-segment edges, so the sorted order is still
            // topological; ties (including the clamped ≥63 tail) keep
            // the original — topological — relative order.
            let mut order: Vec<usize> = (0..seg.len()).collect();
            order.sort_by_key(|&k| gate_level[k]);

            let start = compiled_gates.len();
            for &k in &order {
                let gi = seg[k];
                assert_eq!(
                    pos_of_gate[gi as usize],
                    u32::MAX,
                    "gate {gi} appears in two segments"
                );
                pos_of_gate[gi as usize] = compiled_gates.len() as u32;
                compiled_gates.push(gi);
            }
            bounds.push((start, compiled_gates.len()));
        }

        // Kernel flip-flop order: sort by the compiled position of the
        // D driver (non-gate-driven Ds — ports, other Qs — first), so
        // the clock edge's D gather walks the gate-output region
        // mostly sequentially instead of in netlist order.
        let dffs = netlist.dffs();
        let mut out_pos = vec![u32::MAX; n_nets];
        for (gi, g) in netlist.gates().iter().enumerate() {
            out_pos[g.output.index()] = pos_of_gate[gi];
        }
        let mut dff_order: Vec<u32> = (0..dffs.len() as u32).collect();
        dff_order.sort_by_key(|&i| {
            let p = out_pos[dffs[i as usize].d.index()];
            if p == u32::MAX {
                0
            } else {
                1 + p
            }
        });
        let mut kdff_of_dff = vec![0u32; dffs.len()];
        for (ki, &ni) in dff_order.iter().enumerate() {
            kdff_of_dff[ni as usize] = ki as u32;
        }

        // Slot assignment (see the struct docs): flip-flop Q nets
        // first (in kernel flip-flop order), then the remaining
        // externally-driven nets, then gate outputs in compiled order
        // — so evaluation stores and the clock-edge Q writes are both
        // sequential walks.
        let dummy_slot = n_nets as u32;
        let mut slot_of_net = vec![u32::MAX; n_nets + 1];
        slot_of_net[n_nets] = dummy_slot;
        let mut next_slot = 0u32;
        for &ni in &dff_order {
            slot_of_net[dffs[ni as usize].q.index()] = next_slot;
            next_slot += 1;
        }
        let mut gate_driven = vec![false; n_nets];
        for g in netlist.gates() {
            gate_driven[g.output.index()] = true;
        }
        for n in 0..n_nets {
            if !gate_driven[n] && slot_of_net[n] == u32::MAX {
                slot_of_net[n] = next_slot;
                next_slot += 1;
            }
        }
        let gate_out_base = next_slot;
        for &gi in &compiled_gates {
            let out = netlist.gates()[gi as usize].output.index();
            slot_of_net[out] = next_slot;
            next_slot += 1;
        }
        assert_eq!(next_slot as usize, n_nets, "every net gets exactly one slot");
        let remap = |n: Net| -> u32 {
            if n == NO_NET {
                dummy_slot
            } else {
                slot_of_net[n.index()]
            }
        };

        // Pass 2: emit the instruction stream in slot space.
        let mut kinds = Vec::with_capacity(n_gates);
        let mut in0 = Vec::with_capacity(n_gates);
        let mut in1 = Vec::with_capacity(n_gates);
        let mut in2 = Vec::with_capacity(n_gates);
        let mut outs = Vec::with_capacity(n_gates);
        for (pos, &gi) in compiled_gates.iter().enumerate() {
            let g = &netlist.gates()[gi as usize];
            kinds.push(g.kind);
            in0.push(remap(g.inputs[0]));
            in1.push(remap(g.inputs[1]));
            in2.push(remap(g.inputs[2]));
            outs.push(gate_out_base + pos as u32);
        }

        let mut driver_pos = vec![u32::MAX; n_nets + 1];
        for (i, &o) in outs.iter().enumerate() {
            driver_pos[o as usize] = i as u32;
        }
        let mut dff_of_q = vec![u32::MAX; n_nets + 1];
        for i in 0..dffs.len() {
            dff_of_q[i] = i as u32;
        }
        let dff_d: Vec<u32> = dff_order
            .iter()
            .map(|&ni| remap(dffs[ni as usize].d))
            .collect();
        let dff_reset: Vec<u64> = dff_order
            .iter()
            .map(|&ni| if dffs[ni as usize].reset_value { !0u64 } else { 0 })
            .collect();
        CompiledKernel {
            n_slots: n_nets + 1,
            slot_of_net,
            kinds,
            in0,
            in1,
            in2,
            outs,
            segments: bounds,
            pos_of_gate,
            driver_pos,
            dff_of_q,
            kdff_of_dff,
            dff_d,
            // Q slots are `0..dffs` (kernel order) by construction.
            dff_q: (0..dffs.len() as u32).collect(),
            dff_reset,
            fingerprint: structural_fingerprint(netlist, segments),
            geometry: format!(
                "n{}/g{}/d{}",
                n_nets,
                netlist.gates().len(),
                dffs.len()
            ),
        }
    }

    /// Number of evaluation segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Geometry of the compiled model, in the same form the interpreted
    /// simulator reports.
    pub fn stats(&self) -> SimStats {
        SimStats {
            nets: self.n_slots - 1,
            gates: self.kinds.len(),
            dffs: self.dff_d.len(),
            segments: self.segments.len(),
        }
    }
}

/// Structural fingerprint of `(netlist, segments)` — FNV-1a over every
/// gate's kind/operands/output, the flip-flops, and the segment
/// decomposition. Two structures with the same fingerprint evaluate
/// identically, which is what the kernel cache keys on.
pub fn structural_fingerprint(netlist: &Netlist, segments: &[Vec<u32>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for i in 0..8 {
            h ^= (v >> (8 * i)) & 0xFF;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(netlist.num_nets() as u64);
    for g in netlist.gates() {
        eat(g.kind as u64);
        for &inp in &g.inputs {
            eat(if inp == NO_NET { u64::MAX } else { inp.index() as u64 });
        }
        eat(g.output.index() as u64);
    }
    for f in netlist.dffs() {
        eat(f.d.index() as u64);
        eat(f.q.index() as u64);
        eat(f.reset_value as u64);
    }
    eat(segments.len() as u64);
    for s in segments {
        eat(s.len() as u64);
        for &gi in s {
            eat(gi as u64);
        }
    }
    h
}

static CACHE: OnceLock<Mutex<HashMap<u64, Arc<CompiledKernel>>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static LOWERING_NS: AtomicU64 = AtomicU64::new(0);

/// Compile `netlist` with `segments`, reusing a cached kernel when the
/// same structure was lowered before (keyed by
/// [`structural_fingerprint`]). The returned `Arc` is what parallel
/// campaign workers clone — one lowering per structure per process.
pub fn compile_cached(netlist: &Netlist, segments: &[Vec<u32>]) -> Arc<CompiledKernel> {
    let key = structural_fingerprint(netlist, segments);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(k) = cache.lock().unwrap().get(&key) {
        // Guard against (astronomically unlikely) fingerprint
        // collisions with a cheap geometry cross-check.
        if k.kinds.len() == netlist.gates().len()
            && k.n_slots == netlist.num_nets() + 1
            && k.num_segments() == segments.len()
        {
            HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(k);
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let start = std::time::Instant::now();
    let kernel = Arc::new(CompiledKernel::compile(netlist, segments));
    // Lowering time accrues only on the miss path: a cache hit adds
    // exactly zero, which is what lets a metrics snapshot prove that a
    // job reused a kernel instead of re-lowering it.
    LOWERING_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    cache.lock().unwrap().insert(key, Arc::clone(&kernel));
    kernel
}

/// Process-lifetime kernel-cache counters: `(hits, misses)`.
pub fn cache_counters() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Total nanoseconds this process has spent lowering netlists on the
/// cache-miss path. Strictly flat across any stretch of cache hits.
pub fn cache_lowering_ns() -> u64 {
    LOWERING_NS.load(Ordering::Relaxed)
}

/// Mirror the process-lifetime cache counters into `registry` as
/// `sbst_kernel_cache_hits_total` / `sbst_kernel_cache_misses_total`.
/// Registry counters are monotonic, so this publishes the delta since
/// the last export — calling it repeatedly (e.g. once per campaign)
/// converges the registry on the process totals without double-counting.
pub fn export_cache_metrics(registry: &obs::MetricRegistry) {
    let (hits, misses) = cache_counters();
    let h = registry.counter(
        "sbst_kernel_cache_hits_total",
        "Compiled-kernel cache hits (structural fingerprint reuse)",
        &[],
    );
    let m = registry.counter(
        "sbst_kernel_cache_misses_total",
        "Compiled-kernel cache misses (fresh netlist lowerings)",
        &[],
    );
    h.inc(hits.saturating_sub(h.get()));
    m.inc(misses.saturating_sub(m.get()));
    let lowering = registry.counter(
        "sbst_kernel_lowering_ns_total",
        "Nanoseconds spent lowering netlists on kernel-cache misses",
        &[],
    );
    lowering.inc(cache_lowering_ns().saturating_sub(lowering.get()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("k");
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
    fn lowering_covers_every_gate_once_in_topological_level_order() {
        let nl = sample();
        let k = CompiledKernel::compile(&nl, &[nl.topo_order().to_vec()]);
        assert_eq!(k.kinds.len(), nl.gates().len());
        assert_eq!(k.segments.len(), 1);
        assert_eq!(k.segments, vec![(0, nl.gates().len())]);
        // Every gate has a compiled position, and positions are a
        // permutation.
        let mut seen = vec![false; nl.gates().len()];
        for &p in &k.pos_of_gate {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        // The compiled order is topological: every (non-dummy) operand
        // is either produced at an earlier position or external.
        let mut produced_at = vec![usize::MAX; k.n_slots];
        for i in 0..k.kinds.len() {
            produced_at[k.outs[i] as usize] = i;
        }
        for i in 0..k.kinds.len() {
            for &inp in [k.in0[i], k.in1[i], k.in2[i]].iter() {
                let p = produced_at[inp as usize];
                assert!(p == usize::MAX || p < i, "operand after use at {i}");
            }
        }
        // The dummy slot is never an output.
        assert!(k.outs.iter().all(|&o| (o as usize) < k.n_slots - 1));
    }

    #[test]
    fn cache_hits_on_identical_structure() {
        let nl = sample();
        let segs = vec![nl.topo_order().to_vec()];
        let (h0, m0) = cache_counters();
        let a = compile_cached(&nl, &segs);
        let b = compile_cached(&nl, &segs);
        assert!(Arc::ptr_eq(&a, &b), "same structure must share a kernel");
        let (h1, m1) = cache_counters();
        assert!(h1 > h0, "second compile must hit the cache");
        assert!(m1 >= m0);
        // A different structure misses.
        let mut bld = NetlistBuilder::new("other");
        let x = bld.input("x");
        let y = bld.not(x);
        bld.output("y", y);
        let other = bld.finish().unwrap();
        let c = compile_cached(&other, &[other.topo_order().to_vec()]);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn fingerprint_separates_segmentations() {
        let nl = sample();
        let whole = vec![nl.topo_order().to_vec()];
        let f1 = structural_fingerprint(&nl, &whole);
        // Split the order in two: same gates, different decomposition.
        let order = nl.topo_order();
        let (a, b) = order.split_at(order.len() / 2);
        let f2 = structural_fingerprint(&nl, &[a.to_vec(), b.to_vec()]);
        assert_ne!(f1, f2);
    }
}
