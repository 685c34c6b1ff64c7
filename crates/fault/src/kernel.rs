//! The compiled-kernel lowering pass: a one-time translation of a
//! [`Netlist`] (plus its segment decomposition) into a dense,
//! cache-friendly straight-line instruction stream that the multi-word
//! engine in [`crate::wide`] evaluates.
//!
//! Lowering does everything a gate-by-gate netlist walk re-derives on
//! every pass, once:
//!
//! * **Operand resolution** — every gate input becomes a flat slot
//!   offset; `NO_NET` is resolved to a trailing dummy slot that is
//!   always 0, so the hot loop has no sentinel branches.
//! * **Levelization into kind runs** — gates are stably re-sorted by
//!   `(logic level, gate kind)` within each segment. Levels strictly
//!   increase along in-segment edges, so the order is still
//!   topological, and each level's gates of one kind sit side by side:
//!   the segment is a short list of `(kind, start, end)` runs (Plasma:
//!   339 runs over 6,561 gates), and evaluation dispatches once per run,
//!   not once per gate. The order is part of the kernel's identity:
//!   gate-output slots follow it, so a gate's output slot is
//!   `gate_out_base + position` and evaluation stores walk memory
//!   sequentially.
//! * **Fault-patch pre-indexing** — the compiled position of every
//!   gate, and the driving position or flip-flop of every slot by
//!   arithmetic on the slot layout, so fault injection finds its patch
//!   site in O(1).
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

/// Geometry of a compiled simulator — the per-cycle work a campaign
/// sweeps: every gate is evaluated for every lane on each simulated
/// cycle. Reported by [`crate::wide::WideSim::stats`] and recorded in
/// campaign trace headers.
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

/// An immutable compiled evaluation kernel. Build with
/// [`CompiledKernel::compile`] or (preferably) [`compile_cached`].
///
/// Operands are expressed in *slot* space, a cache-conscious
/// renumbering of the netlist's nets: slots `[0, dffs)` are the
/// flip-flop Q nets in flip-flop order (the clock edge writes one
/// contiguous block), followed by the other externally-driven nets
/// (ports, constants), followed from `gate_out_base` on by every
/// gate-driven net *in compiled evaluation order* — so the hot loop's
/// stores walk memory strictly sequentially — with the always-zero
/// dummy slot last. [`CompiledKernel::slot_of_net`] maps net indices
/// into this space.
#[derive(Debug)]
pub struct CompiledKernel {
    /// Value slots: `num_nets + 1`, the last being the always-zero
    /// dummy that unused operand slots point at.
    pub n_slots: usize,
    /// Net index → value slot (the dummy maps to itself at `num_nets`).
    pub slot_of_net: Vec<u32>,
    /// Gate kind per compiled position.
    pub kinds: Vec<GateKind>,
    /// Operand slot offsets per compiled position (dummy-resolved).
    pub in0: Vec<u32>,
    /// Second operand slot.
    pub in1: Vec<u32>,
    /// Third operand slot.
    pub in2: Vec<u32>,
    /// Output slot of compiled position 0; position `p` stores to slot
    /// `gate_out_base + p`.
    pub gate_out_base: usize,
    /// `[start, end)` of each segment in the compiled arrays, in
    /// evaluation order.
    pub segments: Vec<(usize, usize)>,
    /// Per segment, its maximal runs of one gate kind as `(kind, start,
    /// end)`: they tile the segment in order.
    pub runs: Vec<Vec<(GateKind, usize, usize)>>,
    /// Compiled position of each original gate index.
    pub pos_of_gate: Vec<u32>,
    /// Kernel flip-flop index of each netlist flip-flop index. The
    /// kernel reorders flip-flops so the clock-edge D gather walks the
    /// gate-output slots sequentially; netlist-indexed fault sites
    /// (`FaultSite::DffD`) translate through this table. Flip-flop `i`
    /// (kernel order) drives Q slot `i`.
    pub kdff_of_dff: Vec<u32>,
    /// D-input slot of each flip-flop (kernel order).
    pub dff_d: Vec<u32>,
    /// All-lanes reset mask of each flip-flop (`!0` or `0`).
    pub dff_reset: Vec<u64>,
    /// Structural fingerprint this kernel was compiled from (cache key).
    pub fingerprint: u64,
    /// Human-readable geometry fingerprint (`nN/gG/dD`), the same form
    /// the ledger uses.
    pub geometry: String,
}

impl CompiledKernel {
    /// Lower `netlist` with an explicit segment decomposition: the
    /// concatenation of `segments` must contain every gate exactly once,
    /// each segment in valid topological order (e.g. the two halves of
    /// [`Netlist::split_on_inputs`]). Segments let a CPU testbench
    /// evaluate the logic that produces the memory address first, fetch
    /// per-lane read data from its memory model, then evaluate the
    /// read-data cone, all within one cycle.
    pub fn compile(netlist: &Netlist, segments: &[Vec<u32>]) -> CompiledKernel {
        let n_gates = netlist.gates().len();
        let total: usize = segments.iter().map(|s| s.len()).sum();
        assert_eq!(total, n_gates, "segments must cover every gate");
        let n_nets = netlist.num_nets();

        // Pass 1: levelize each segment and fix the compiled order.
        let mut compiled_gates: Vec<u32> = Vec::with_capacity(n_gates);
        let mut pos_of_gate = vec![u32::MAX; n_gates];
        let mut bounds = Vec::with_capacity(segments.len());
        let mut runs = Vec::with_capacity(segments.len());
        for seg in segments {
            // Levelize within this segment: nets produced outside it
            // (ports, flip-flops, earlier segments) are level 0 inputs.
            let mut net_level = vec![0u32; n_nets + 1];
            let mut keys: Vec<usize> = Vec::with_capacity(seg.len());
            for &gi in seg {
                let g = &netlist.gates()[gi as usize];
                let mut lvl = 0u32;
                for &inp in &g.inputs {
                    if inp != NO_NET {
                        lvl = lvl.max(net_level[inp.index()]);
                    }
                }
                net_level[g.output.index()] = lvl + 1;
                keys.push(lvl as usize * GateKind::ALL.len() + g.kind as usize);
            }
            // Stable counting sort by the (level, kind) key: levels
            // strictly increase along in-segment edges, so the sorted
            // order is still topological, and each level's gates of one
            // kind form a run.
            let mut next = vec![0usize; keys.iter().max().map_or(0, |&m| m + 2)];
            for &key in &keys {
                next[key + 1] += 1;
            }
            for b in 1..next.len() {
                next[b] += next[b - 1];
            }
            let mut order = vec![0usize; seg.len()];
            for (k, &key) in keys.iter().enumerate() {
                order[next[key]] = k;
                next[key] += 1;
            }

            let start = compiled_gates.len();
            let mut seg_runs: Vec<(GateKind, usize, usize)> = Vec::new();
            for &k in &order {
                let gi = seg[k];
                assert_eq!(
                    pos_of_gate[gi as usize],
                    u32::MAX,
                    "gate {gi} appears in two segments"
                );
                let pos = compiled_gates.len();
                pos_of_gate[gi as usize] = pos as u32;
                compiled_gates.push(gi);
                let kind = netlist.gates()[gi as usize].kind;
                match seg_runs.last_mut() {
                    Some((run_kind, _, end)) if *run_kind == kind => *end = pos + 1,
                    _ => seg_runs.push((kind, pos, pos + 1)),
                }
            }
            bounds.push((start, compiled_gates.len()));
            runs.push(seg_runs);
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
        let gate_out_base = next_slot as usize;
        for &gi in &compiled_gates {
            let out = netlist.gates()[gi as usize].output.index();
            slot_of_net[out] = next_slot;
            next_slot += 1;
        }
        assert_eq!(
            next_slot as usize, n_nets,
            "every net gets exactly one slot"
        );
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
        for &gi in &compiled_gates {
            let g = &netlist.gates()[gi as usize];
            kinds.push(g.kind);
            in0.push(remap(g.inputs[0]));
            in1.push(remap(g.inputs[1]));
            in2.push(remap(g.inputs[2]));
        }

        let dff_d: Vec<u32> = dff_order
            .iter()
            .map(|&ni| remap(dffs[ni as usize].d))
            .collect();
        let dff_reset: Vec<u64> = dff_order
            .iter()
            .map(|&ni| {
                if dffs[ni as usize].reset_value {
                    !0u64
                } else {
                    0
                }
            })
            .collect();
        let kernel = CompiledKernel {
            n_slots: n_nets + 1,
            slot_of_net,
            kinds,
            in0,
            in1,
            in2,
            gate_out_base,
            segments: bounds,
            runs,
            pos_of_gate,
            kdff_of_dff,
            dff_d,
            dff_reset,
            fingerprint: structural_fingerprint(netlist, segments),
            geometry: format!("n{}/g{}/d{}", n_nets, netlist.gates().len(), dffs.len()),
        };
        if cfg!(debug_assertions) {
            kernel.assert_order();
        }
        kernel
    }

    /// Panics unless the compiled order is one the evaluator can run:
    /// every operand is external (a port, a flip-flop output, the dummy)
    /// or produced at an earlier position, and each segment's runs tile
    /// it in order with one gate kind per run.
    fn assert_order(&self) {
        let n_gates = self.kinds.len();
        for pos in 0..n_gates {
            for slot in [self.in0[pos], self.in1[pos], self.in2[pos]] {
                let producer = self.driver_pos(slot as usize);
                assert!(
                    producer.is_none_or(|p| p < pos),
                    "operand slot {slot} of position {pos} is produced at {producer:?}"
                );
            }
        }
        assert_eq!(
            self.runs.len(),
            self.segments.len(),
            "one run list per segment"
        );
        for (&(start, end), runs) in self.segments.iter().zip(&self.runs) {
            let mut cur = start;
            for &(kind, lo, hi) in runs {
                assert!(
                    lo == cur && lo < hi,
                    "runs must tile segment [{start}, {end})"
                );
                assert!(
                    self.kinds[lo..hi].iter().all(|&k| k == kind),
                    "run [{lo}, {hi}) mixes gate kinds"
                );
                cur = hi;
            }
            assert_eq!(cur, end, "runs must cover segment [{start}, {end})");
        }
    }

    /// Compiled position of the gate driving `slot`, if a gate drives it
    /// — where a stem fault on a gate-driven net patches in.
    #[inline]
    pub(crate) fn driver_pos(&self, slot: usize) -> Option<usize> {
        slot.checked_sub(self.gate_out_base)
            .filter(|&p| p < self.kinds.len())
    }

    /// Kernel flip-flop whose Q drives `slot`, if one does — where a
    /// stem fault on a state net patches in.
    #[inline]
    pub(crate) fn dff_of_q(&self, slot: usize) -> Option<usize> {
        (slot < self.dff_d.len()).then_some(slot)
    }

    /// Number of evaluation segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Geometry of the compiled model.
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
            eat(if inp == NO_NET {
                u64::MAX
            } else {
                inp.index() as u64
            });
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
/// campaign workers clone — one lowering per structure per process:
/// the lookup and the lowering run under one lock, so threads that
/// miss together lower once and the rest hit.
pub fn compile_cached(netlist: &Netlist, segments: &[Vec<u32>]) -> Arc<CompiledKernel> {
    let key = structural_fingerprint(netlist, segments);
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap();
    if let Some(k) = cache.get(&key) {
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
    cache.insert(key, Arc::clone(&kernel));
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
        // The compiled order is topological and its runs tile the
        // segment; the dummy slot is never an output.
        k.assert_order();
        assert!(k.gate_out_base + k.kinds.len() < k.n_slots);
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

    /// Threads that miss together lower the structure once: every
    /// caller gets the same kernel.
    #[test]
    fn concurrent_misses_share_one_lowering() {
        // A structure no other test builds (the cache is process-wide),
        // deep enough that lowering outlasts the threads' start skew.
        let mut b = NetlistBuilder::new("race");
        let a = b.inputs("a", 13);
        let mut x = b.inputs("b", 13);
        for _ in 0..2000 {
            let y = b.xor_word(&x, &a);
            x = b.nor_word(&y, &x);
        }
        let q = b.dff_word(&x, 0);
        b.outputs("q", &q);
        let nl = b.finish().unwrap();
        let segs = vec![nl.topo_order().to_vec()];
        let start = std::sync::Barrier::new(8);
        let kernels: Vec<Arc<CompiledKernel>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        compile_cached(&nl, &segs)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for k in &kernels[1..] {
            assert!(Arc::ptr_eq(&kernels[0], k), "a second lowering");
        }
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
