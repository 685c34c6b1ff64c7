//! Fault forensics: structured explanations for every escape.
//!
//! A campaign ends with a coverage number and a list of undetected
//! faults. This module turns that list into a *diagnosis*: for each
//! undetected equivalence class it joins three evidence sources —
//!
//! 1. **structure**: the sequential fanout cone of the fault site
//!    ([`netlist::cone`]) — can the fault effect reach an observed
//!    output at all?
//! 2. **testability**: SCOAP controllability/observability
//!    ([`crate::scoap`]) — is the exciting value structurally
//!    producible, is the site structurally observable?
//! 3. **activation**: one fault-free run of the self-test — was the
//!    site ever driven to the fault-exciting value, and did forcing it
//!    to the stuck value ever change a reader of the site?
//!
//! — and classifies it into **exactly one** detectability bucket
//! ([`Bucket`]). The headline figure is *testable coverage*:
//! `detected / (total − untestable)`, reported next to the raw
//! coverage the paper quotes, so "undetected" is honestly split from
//! "undetectable".
//!
//! The structural pass indexes the netlist's net readers once
//! ([`Fanout`]) and walks every escape's cone on that index.
//!
//! The evidence pass simulates no faulty machine. Until a fault first
//! propagates, its machine *is* the fault-free machine on every net but
//! the site, so both evidence cycles can be read off lane 0 and the
//! site's readers (see [`analyze`] for why this is exact and the bench
//! contract it needs). It costs one fault-free run of the budget, at
//! most, however many escapes there are; it never alters campaign
//! detection results, and the report deliberately contains no
//! wall-clock, engine, or lane-count fields, so its JSON is
//! byte-identical on every engine, width and thread count (pinned by
//! the determinism tests in `sbst`).

use crate::campaign::{latency_of, CampaignResult, Testbench};
use crate::model::{Fault, FaultSite, Polarity};
use crate::scoap::{self, INF};
use crate::sim::LaneSim;
use netlist::cone::Fanout;
use netlist::{Gate, Net, Netlist};
use obs::LatencyHistogram;
use serde_json::{Map, Value};

/// Why an undetected fault escaped — exactly one per escape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bucket {
    /// Structurally unexcitable or unobservable: the exciting value is
    /// not producible (SCOAP controllability = ∞), the site is
    /// structurally unobservable (SCOAP observability = ∞), or the
    /// fanout cone never reaches an observed output. No test program
    /// can ever detect it; it is excluded from testable coverage.
    Untestable,
    /// The self-test never drove the site to the fault-exciting value:
    /// the fault was never activated. A longer/different test could.
    Unexercised,
    /// The site was driven to the exciting value, but the effect never
    /// made it past the gates reading the site — masked locally every
    /// time.
    ActivatedUnpropagated,
    /// The fault effect propagated onto other nets but never reached a
    /// monitored output — it died in unobserved logic.
    PropagatedUnobserved,
}

impl Bucket {
    /// All buckets, in report order.
    pub const ALL: [Bucket; 4] = [
        Bucket::Untestable,
        Bucket::Unexercised,
        Bucket::ActivatedUnpropagated,
        Bucket::PropagatedUnobserved,
    ];

    /// Stable kebab-case label used in JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            Bucket::Untestable => "untestable",
            Bucket::Unexercised => "unexercised",
            Bucket::ActivatedUnpropagated => "activated-unpropagated",
            Bucket::PropagatedUnobserved => "propagated-unobserved",
        }
    }
}

/// The net a fault site lives on: the stem net itself, the net read by
/// a faulty gate pin, or the net feeding a flip-flop's D input.
pub fn site_net(nl: &Netlist, site: FaultSite) -> Net {
    match site {
        FaultSite::Stem(n) => n,
        FaultSite::Pin { gate, pin } => nl.gates()[gate as usize].inputs[pin as usize],
        FaultSite::DffD(ff) => nl.dffs()[ff as usize].d,
    }
}

/// The nets where a fault's effect first lands *after* passing through
/// logic — the sites' readers, not the forced net itself. Divergence on
/// these nets is the evidence that the fault propagated at least one
/// level instead of being masked:
///
/// * stem fault → outputs of every gate reading the net, plus the Q of
///   every flip-flop clocking it in;
/// * pin fault → the faulted gate's output;
/// * D-pin fault → the flip-flop's Q.
pub fn effect_origin(nl: &Netlist, site: FaultSite) -> Vec<Net> {
    match site {
        FaultSite::Stem(n) => {
            let mut out = Vec::new();
            for g in nl.gates() {
                if g.used_inputs().any(|i| i == n) {
                    out.push(g.output);
                }
            }
            for d in nl.dffs() {
                if d.d == n {
                    out.push(d.q);
                }
            }
            out.sort_unstable_by_key(|n| n.index());
            out.dedup();
            out
        }
        FaultSite::Pin { gate, .. } => vec![nl.gates()[gate as usize].output],
        FaultSite::DffD(ff) => vec![nl.dffs()[ff as usize].q],
    }
}

/// Forensic record for one escaped (undetected) equivalence class.
#[derive(Debug, Clone)]
pub struct EscapeForensics {
    /// The class representative.
    pub fault: Fault,
    /// Component the fault belongs to.
    pub component: String,
    /// Collapsed-class size (uncollapsed faults this row stands for).
    pub weight: u32,
    /// The one detectability bucket this escape falls into.
    pub bucket: Bucket,
    /// SCOAP controllability cost of the fault-exciting value (CC1 for
    /// sa0, CC0 for sa1); [`INF`] = structurally unexcitable.
    pub cc_excite: u32,
    /// SCOAP observability cost of the site net; [`INF`] =
    /// structurally unobservable.
    pub co: u32,
    /// Size of the sequential fanout cone of the fault effect: nets.
    pub cone_nets: usize,
    /// Fanout-cone gate count.
    pub cone_gates: usize,
    /// Fanout-cone flip-flop count.
    pub cone_dffs: usize,
    /// Components the fanout cone touches — a ready-made probe spec
    /// for wave capture.
    pub cone_components: Vec<String>,
    /// Whether the fanout cone contains at least one observed output.
    pub reaches_observed: bool,
    /// First cycle the fault-free machine drove the site to the
    /// exciting value, sampled after the clock edge, if ever.
    pub first_excited: Option<u64>,
    /// First cycle the faulty machine diverged on an effect-origin net
    /// (past the site's readers), sampled after the clock edge, if ever.
    pub first_propagated: Option<u64>,
}

/// Per-component coverage split by testability.
#[derive(Debug, Clone)]
pub struct ComponentForensics {
    /// Component name.
    pub name: String,
    /// Weighted faults in the campaign belonging to this component.
    pub weighted: u64,
    /// Weighted detected faults.
    pub detected: u64,
    /// Weighted untestable faults.
    pub untestable: u64,
}

impl ComponentForensics {
    /// Raw weighted coverage (`detected / weighted`).
    pub fn raw_coverage(&self) -> f64 {
        ratio(self.detected, self.weighted)
    }

    /// Testable weighted coverage (`detected / (weighted − untestable)`).
    pub fn testable_coverage(&self) -> f64 {
        ratio(self.detected, self.weighted - self.untestable)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// The full forensics report: triaged escapes, detection-latency
/// histogram, and the testable-coverage figure per component and
/// overall. Contains no timing/engine/thread fields by design — the
/// JSON rendering is byte-identical however the campaign was run.
#[derive(Debug, Clone)]
pub struct ForensicsReport {
    /// Netlist name.
    pub netlist: String,
    /// Equivalence classes the campaign graded.
    pub total_classes: usize,
    /// Weighted (uncollapsed) fault total.
    pub total_weighted: u64,
    /// Detected classes.
    pub detected_classes: usize,
    /// Weighted detected faults.
    pub detected_weighted: u64,
    /// Untestable classes among the escapes.
    pub untestable_classes: usize,
    /// Weighted untestable faults.
    pub untestable_weighted: u64,
    /// Detection-latency histogram (cycle of first divergence).
    pub latency: LatencyHistogram,
    /// Per-component coverage split (every component with faults).
    pub components: Vec<ComponentForensics>,
    /// One record per escape, sorted by bucket, descending weight,
    /// then fault.
    pub escapes: Vec<EscapeForensics>,
}

/// Build the forensics report for a finished campaign.
///
/// `observed` is the set of output nets the campaign's detection
/// criterion monitored. `sim`/`tb` run the same self-test once, fault
/// free, to gather activation evidence for every testable escape; only
/// lane 0 is read, so the width does not matter. After each
/// [`Testbench::step`]:
///
/// * `first_excited` is the first cycle lane 0 holds the site at the
///   exciting value;
/// * `first_propagated` is the first cycle at which one of the site's
///   readers changes its output when the site is forced to the stuck
///   value, evaluated on the values that reader saw in that cycle — gate
///   outputs and ports as they stand after the step, flip-flop outputs
///   as they stood before it (their reset values in cycle 0) — or at
///   which a flip-flop latches the site while it differs from the stuck
///   value.
///
/// The pass stops once every testable escape has both cycles, and does
/// not run when no escape is testable.
///
/// **Why this is exact.** Until its first propagation, a faulty machine
/// equals the fault-free machine on every net but the site. Any other
/// net can first differ only through a gate that reads a differing net,
/// a flip-flop that latches one, or a port the bench drives
/// differently; so the first gate or flip-flop to differ reads the site
/// itself, and in that cycle every input it reads but the site holds
/// lane 0's value. A flip-flop's effect shows after the clock edge, and
/// the pass samples after the step, so a latching flip-flop counts in
/// the cycle of that edge. Debug builds check the model of what a
/// reader sees: each reader's fault-free output, recomputed from the
/// values it saw, must equal the simulator's.
///
/// **Bench contract.** A bench may feed a lane only from outputs it
/// observes. An escape's observed outputs never differed (the campaign
/// would have detected it), so neither did any port the bench drove.
/// The Plasma bench's `mem_rdata`, for instance, comes from
/// `mem_addr`, `mem_wdata`, `mem_we` and `mem_be`, all four observed;
/// the Parwan bench likewise. A bench that feeds nothing back, such as
/// [`crate::campaign::VectorBench`], meets it for any fault list.
///
/// The report is pure post-processing — campaign results are never
/// modified, and it does not depend on the engine or its width.
pub fn analyze<S: LaneSim, T: Testbench<S> + ?Sized>(
    nl: &Netlist,
    result: &CampaignResult,
    observed: &[Net],
    sim: &mut S,
    tb: &mut T,
) -> ForensicsReport {
    let sc = scoap::analyze(nl);
    let names = nl.component_names();
    let faults = &result.faults;

    // Structural pass: SCOAP + cone for every escape; untestable ones
    // are classified here and gather no evidence.
    let fanout = Fanout::new(nl);
    let mut escapes: Vec<EscapeForensics> = Vec::new();
    let mut open: Vec<Open> = Vec::new();
    for (i, det) in result.detections.iter().enumerate() {
        if det.is_detected() {
            continue;
        }
        let fault = faults.faults[i];
        let site = site_net(nl, fault.site);
        // The effect cone grows from the origin nets; a stem fault also
        // forces the net itself (it may be a monitored output).
        let mut seeds = effect_origin(nl, fault.site);
        if matches!(fault.site, FaultSite::Stem(_)) {
            seeds.push(site);
        }
        let cone = fanout.cone(nl, &seeds, true);
        let reaches = observed.iter().any(|&o| cone.contains_net(o));
        let cc_excite = match fault.polarity {
            Polarity::StuckAt0 => sc.cc1[site.index()],
            Polarity::StuckAt1 => sc.cc0[site.index()],
        };
        let co = sc.co[site.index()];
        let idx = escapes.len();
        escapes.push(EscapeForensics {
            fault,
            component: names[faults.component[i].index()].clone(),
            weight: faults.weight[i],
            bucket: Bucket::Untestable, // refined below
            cc_excite,
            co,
            cone_nets: cone.nets.len(),
            cone_gates: cone.gates.len(),
            cone_dffs: cone.dffs.len(),
            cone_components: cone.components(nl),
            reaches_observed: reaches,
            first_excited: None,
            first_propagated: None,
        });
        if cc_excite < INF && co < INF && reaches {
            open.push(Open::new(nl, &fanout, idx, fault, site));
        }
    }

    gather_evidence(nl, sim, tb, open, &mut escapes);

    // Classification: an if/else chain, so every escape lands in
    // exactly one bucket. Propagation evidence outranks excitation
    // evidence (it implies the fault was live in the faulty lane).
    for e in &mut escapes {
        e.bucket = if e.cc_excite >= INF || e.co >= INF || !e.reaches_observed {
            Bucket::Untestable
        } else if e.first_propagated.is_some() {
            Bucket::PropagatedUnobserved
        } else if e.first_excited.is_some() {
            Bucket::ActivatedUnpropagated
        } else {
            Bucket::Unexercised
        };
    }
    escapes.sort_by(|a, b| {
        (a.bucket, std::cmp::Reverse(a.weight), a.fault)
            .cmp(&(b.bucket, std::cmp::Reverse(b.weight), b.fault))
    });

    // Totals + per-component split.
    let mut comp_rows: Vec<ComponentForensics> = names
        .iter()
        .map(|n| ComponentForensics {
            name: n.clone(),
            weighted: 0,
            detected: 0,
            untestable: 0,
        })
        .collect();
    let mut total_weighted = 0u64;
    let mut detected_classes = 0usize;
    let mut detected_weighted = 0u64;
    for (i, det) in result.detections.iter().enumerate() {
        let w = faults.weight[i] as u64;
        let row = &mut comp_rows[faults.component[i].index()];
        total_weighted += w;
        row.weighted += w;
        if det.is_detected() {
            detected_classes += 1;
            detected_weighted += w;
            row.detected += w;
        }
    }
    let mut untestable_classes = 0usize;
    let mut untestable_weighted = 0u64;
    for e in &escapes {
        if e.bucket == Bucket::Untestable {
            untestable_classes += 1;
            untestable_weighted += e.weight as u64;
            let ci = names.iter().position(|n| *n == e.component).unwrap();
            comp_rows[ci].untestable += e.weight as u64;
        }
    }
    comp_rows.retain(|r| r.weighted > 0);

    ForensicsReport {
        netlist: nl.name().to_string(),
        total_classes: result.detections.len(),
        total_weighted,
        detected_classes,
        detected_weighted,
        untestable_classes,
        untestable_weighted,
        latency: latency_of(&result.detections),
        components: comp_rows,
        escapes,
    }
}

/// A testable escape the evidence pass still lacks a cycle for, with
/// the readers its stuck value reaches.
struct Open {
    /// Index into the report's escapes.
    idx: usize,
    /// The net the fault sits on ([`site_net`]).
    site: Net,
    /// The fault-exciting value: the opposite of the stuck value.
    excite: bool,
    /// Gates the stuck value reaches, each with the mask of input pins
    /// it reaches: every pin reading the site for a stem fault, the
    /// faulted pin alone for a pin fault.
    gates: Vec<(u32, u8)>,
    /// Flip-flops that latch the stuck value: every one clocking the
    /// site in for a stem fault, the faulted one for a D-pin fault.
    flops: Vec<u32>,
}

impl Open {
    fn new(nl: &Netlist, fanout: &Fanout, idx: usize, fault: Fault, site: Net) -> Open {
        let (gates, flops) = match fault.site {
            FaultSite::Stem(n) => {
                let (gate_readers, dff_readers) = fanout.readers(n);
                let mut gates: Vec<(u32, u8)> = Vec::new();
                for &g in gate_readers {
                    // A gate reading the net on several pins is listed
                    // once per pin, adjacently.
                    if gates.last().is_some_and(|&(last, _)| last == g) {
                        continue;
                    }
                    let pins = nl.gates()[g as usize]
                        .used_inputs()
                        .enumerate()
                        .filter(|&(_, input)| input == n)
                        .fold(0, |mask, (pin, _)| mask | 1 << pin);
                    gates.push((g, pins));
                }
                (gates, dff_readers.to_vec())
            }
            FaultSite::Pin { gate, pin } => (vec![(gate, 1 << pin)], Vec::new()),
            FaultSite::DffD(ff) => (Vec::new(), vec![ff]),
        };
        Open {
            idx,
            site,
            excite: fault.polarity == Polarity::StuckAt0,
            gates,
            flops,
        }
    }

    /// Whether forcing the site to the stuck value changes what one of
    /// its readers produces in a cycle whose reader inputs are `seen`.
    fn propagates(&self, nl: &Netlist, seen: &[bool]) -> bool {
        // Forcing the site to the value it holds changes nothing.
        if seen[self.site.index()] != self.excite {
            return false;
        }
        !self.flops.is_empty()
            || self.gates.iter().any(|&(g, pins)| {
                let gate = &nl.gates()[g as usize];
                output(gate, seen, pins, !self.excite) != output(gate, seen, 0, false)
            })
    }

    /// The self-check of what a reader sees: each reader's fault-free
    /// output, recomputed from `seen`, must be the simulator's lane 0
    /// after the step.
    fn check_readers<S: LaneSim>(&self, nl: &Netlist, seen: &[bool], sim: &S, cycle: u64) {
        for &(g, _) in &self.gates {
            let gate = &nl.gates()[g as usize];
            assert_eq!(
                output(gate, seen, 0, false),
                lane0(sim, gate.output),
                "gate {g} at cycle {cycle}: recomputed output differs from the simulator's"
            );
        }
        for &f in &self.flops {
            assert_eq!(
                seen[self.site.index()],
                lane0(sim, nl.dffs()[f as usize].q),
                "flip-flop {f} at cycle {cycle}: latched value differs from the simulator's"
            );
        }
    }
}

/// `gate`'s output on the input values in `seen`, with the pins in the
/// `forced` mask reading `stuck` instead.
fn output(gate: &Gate, seen: &[bool], forced: u8, stuck: bool) -> bool {
    let pin = |p: usize| {
        if p >= gate.kind.arity() {
            false
        } else if forced >> p & 1 == 1 {
            stuck
        } else {
            seen[gate.inputs[p].index()]
        }
    };
    gate.kind.eval(pin(0), pin(1), pin(2))
}

/// Lane 0's value of `net`.
fn lane0<S: LaneSim>(sim: &S, net: Net) -> bool {
    sim.net_lanes_word(net, 0) & 1 == 1
}

/// The nets `open` reads — every site and every input of the gates its
/// stuck values reach — split into flip-flop outputs and the rest.
fn watched(nl: &Netlist, open: &[Open], is_flop: &[bool]) -> (Vec<Net>, Vec<Net>) {
    let mut marked = vec![false; nl.num_nets()];
    let (mut flops, mut rest) = (Vec::new(), Vec::new());
    for o in open {
        let inputs = o.gates.iter().flat_map(|&(g, _)| nl.gates()[g as usize].used_inputs());
        for n in std::iter::once(o.site).chain(inputs) {
            if !std::mem::replace(&mut marked[n.index()], true) {
                if is_flop[n.index()] {
                    flops.push(n);
                } else {
                    rest.push(n);
                }
            }
        }
    }
    (flops, rest)
}

/// The evidence pass (see [`analyze`]): run `tb` once on a fault-free
/// `sim` and record each open escape's first-excited and
/// first-propagated cycles in `escapes`, reading only the nets the
/// escapes still open need.
fn gather_evidence<S: LaneSim, T: Testbench<S> + ?Sized>(
    nl: &Netlist,
    sim: &mut S,
    tb: &mut T,
    mut open: Vec<Open>,
    escapes: &mut [EscapeForensics],
) {
    if open.is_empty() {
        return;
    }
    let mut is_flop = vec![false; nl.num_nets()];
    for d in nl.dffs() {
        is_flop[d.q.index()] = true;
    }
    let (mut flops, mut rest) = watched(nl, &open, &is_flop);
    // What the readers see this cycle: flip-flop outputs as they stood
    // before the clock edge, every other net as it stands after it.
    let mut seen = vec![false; nl.num_nets()];
    let mut diff = vec![0; sim.lane_words()];
    sim.clear_faults();
    sim.reset_state();
    tb.begin(sim);
    for cycle in 0..tb.cycles() {
        for &n in &flops {
            seen[n.index()] = lane0(sim, n);
        }
        diff.fill(0);
        tb.step(sim, cycle, &mut diff);
        for &n in &rest {
            seen[n.index()] = lane0(sim, n);
        }
        let before = open.len();
        open.retain(|o| {
            if cfg!(debug_assertions) {
                o.check_readers(nl, &seen, sim, cycle);
            }
            let e = &mut escapes[o.idx];
            if e.first_excited.is_none() && lane0(sim, o.site) == o.excite {
                e.first_excited = Some(cycle);
            }
            if e.first_propagated.is_none() && o.propagates(nl, &seen) {
                e.first_propagated = Some(cycle);
            }
            e.first_excited.is_none() || e.first_propagated.is_none()
        });
        if open.is_empty() {
            break;
        }
        if open.len() < before {
            (flops, rest) = watched(nl, &open, &is_flop);
        }
    }
}

impl ForensicsReport {
    /// Raw weighted coverage: `detected / total` — the paper's figure.
    pub fn raw_coverage(&self) -> f64 {
        ratio(self.detected_weighted, self.total_weighted)
    }

    /// Testable weighted coverage: `detected / (total − untestable)`.
    pub fn testable_coverage(&self) -> f64 {
        ratio(
            self.detected_weighted,
            self.total_weighted - self.untestable_weighted,
        )
    }

    /// `(classes, weighted)` per bucket, in [`Bucket::ALL`] order.
    pub fn bucket_totals(&self) -> [(Bucket, usize, u64); 4] {
        let mut out = Bucket::ALL.map(|b| (b, 0usize, 0u64));
        for e in &self.escapes {
            let slot = &mut out[Bucket::ALL.iter().position(|b| *b == e.bucket).unwrap()];
            slot.1 += 1;
            slot.2 += e.weight as u64;
        }
        out
    }

    /// Records for one bucket, in report order.
    pub fn in_bucket(&self, bucket: Bucket) -> impl Iterator<Item = &EscapeForensics> {
        self.escapes.iter().filter(move |e| e.bucket == bucket)
    }

    /// Deterministic JSON rendering: no wall-clock, engine, lane or
    /// thread fields, so bytes are identical however the campaign ran.
    pub fn to_json(&self) -> Value {
        let inf_or = |v: u32| {
            if v >= INF {
                Value::Null
            } else {
                Value::U64(v as u64)
            }
        };
        let opt_cycle = |c: Option<u64>| match c {
            Some(c) => Value::U64(c),
            None => Value::Null,
        };
        let mut m = Map::new();
        m.insert("schema".into(), Value::U64(1));
        m.insert("netlist".into(), Value::String(self.netlist.clone()));
        m.insert("fault_classes".into(), Value::U64(self.total_classes as u64));
        m.insert("weighted_faults".into(), Value::U64(self.total_weighted));
        m.insert(
            "detected_classes".into(),
            Value::U64(self.detected_classes as u64),
        );
        m.insert("detected_weighted".into(), Value::U64(self.detected_weighted));
        m.insert(
            "untestable_classes".into(),
            Value::U64(self.untestable_classes as u64),
        );
        m.insert(
            "untestable_weighted".into(),
            Value::U64(self.untestable_weighted),
        );
        m.insert("raw_coverage".into(), Value::F64(self.raw_coverage()));
        m.insert(
            "testable_coverage".into(),
            Value::F64(self.testable_coverage()),
        );

        let mut buckets = Map::new();
        for (b, classes, weighted) in self.bucket_totals() {
            let mut bm = Map::new();
            bm.insert("classes".into(), Value::U64(classes as u64));
            bm.insert("weighted".into(), Value::U64(weighted));
            buckets.insert(b.label().into(), Value::Object(bm));
        }
        m.insert("buckets".into(), Value::Object(buckets));

        m.insert(
            "latency_buckets".into(),
            Value::Array(
                self.latency
                    .buckets()
                    .iter()
                    .map(|&c| Value::U64(c))
                    .collect(),
            ),
        );

        m.insert(
            "components".into(),
            Value::Array(
                self.components
                    .iter()
                    .map(|c| {
                        let mut cm = Map::new();
                        cm.insert("name".into(), Value::String(c.name.clone()));
                        cm.insert("weighted".into(), Value::U64(c.weighted));
                        cm.insert("detected".into(), Value::U64(c.detected));
                        cm.insert("untestable".into(), Value::U64(c.untestable));
                        cm.insert("raw_coverage".into(), Value::F64(c.raw_coverage()));
                        cm.insert(
                            "testable_coverage".into(),
                            Value::F64(c.testable_coverage()),
                        );
                        Value::Object(cm)
                    })
                    .collect(),
            ),
        );

        m.insert(
            "escapes".into(),
            Value::Array(
                self.escapes
                    .iter()
                    .map(|e| {
                        let mut em = Map::new();
                        em.insert("fault".into(), Value::String(e.fault.describe()));
                        em.insert("component".into(), Value::String(e.component.clone()));
                        em.insert("weight".into(), Value::U64(e.weight as u64));
                        em.insert("bucket".into(), Value::String(e.bucket.label().into()));
                        em.insert("cc_excite".into(), inf_or(e.cc_excite));
                        em.insert("co".into(), inf_or(e.co));
                        let mut cm = Map::new();
                        cm.insert("nets".into(), Value::U64(e.cone_nets as u64));
                        cm.insert("gates".into(), Value::U64(e.cone_gates as u64));
                        cm.insert("dffs".into(), Value::U64(e.cone_dffs as u64));
                        cm.insert(
                            "components".into(),
                            Value::Array(
                                e.cone_components
                                    .iter()
                                    .map(|c| Value::String(c.clone()))
                                    .collect(),
                            ),
                        );
                        cm.insert(
                            "reaches_observed".into(),
                            Value::Bool(e.reaches_observed),
                        );
                        em.insert("cone".into(), Value::Object(cm));
                        em.insert("first_excited".into(), opt_cycle(e.first_excited));
                        em.insert("first_propagated".into(), opt_cycle(e.first_propagated));
                        Value::Object(em)
                    })
                    .collect(),
            ),
        );
        Value::Object(m)
    }

    /// Markdown rendering of the report (summary, buckets, per-
    /// component heat table, escape triage table, latency histogram).
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("# Fault forensics — {}\n\n", self.netlist));
        s.push_str(&format!(
            "{} equivalence classes, {} weighted faults. Detected {} classes \
             ({} weighted).\n\n",
            self.total_classes, self.total_weighted, self.detected_classes, self.detected_weighted
        ));
        s.push_str(&format!(
            "| figure | value |\n|---|---|\n\
             | raw coverage (paper's figure) | {:.2}% |\n\
             | untestable | {} classes, {} weighted |\n\
             | **testable coverage** | **{:.2}%** |\n\n",
            self.raw_coverage() * 100.0,
            self.untestable_classes,
            self.untestable_weighted,
            self.testable_coverage() * 100.0
        ));

        s.push_str("## Escape buckets\n\n| bucket | classes | weighted |\n|---|---:|---:|\n");
        for (b, classes, weighted) in self.bucket_totals() {
            s.push_str(&format!("| {} | {} | {} |\n", b.label(), classes, weighted));
        }
        s.push('\n');

        s.push_str(
            "## Per-component coverage\n\n\
             | component | weighted | detected | untestable | raw | testable |\n\
             |---|---:|---:|---:|---:|---:|\n",
        );
        for c in &self.components {
            s.push_str(&format!(
                "| {} | {} | {} | {} | {:.2}% | {:.2}% |\n",
                c.name,
                c.weighted,
                c.detected,
                c.untestable,
                c.raw_coverage() * 100.0,
                c.testable_coverage() * 100.0
            ));
        }
        s.push('\n');

        s.push_str(
            "## Escapes\n\n\
             | fault | component | w | bucket | CCex | CO | cone (nets/gates/ffs) | \
             excited@ | propagated@ |\n\
             |---|---|---:|---|---:|---:|---|---:|---:|\n",
        );
        let show_inf = |v: u32| {
            if v >= INF {
                "inf".to_string()
            } else {
                v.to_string()
            }
        };
        let show_opt = |c: Option<u64>| match c {
            Some(c) => c.to_string(),
            None => "—".to_string(),
        };
        for e in &self.escapes {
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {}/{}/{} | {} | {} |\n",
                e.fault.describe(),
                e.component,
                e.weight,
                e.bucket.label(),
                show_inf(e.cc_excite),
                show_inf(e.co),
                e.cone_nets,
                e.cone_gates,
                e.cone_dffs,
                show_opt(e.first_excited),
                show_opt(e.first_propagated),
            ));
        }
        s.push('\n');

        s.push_str("## Detection latency (cycles to first detect)\n\n```\n");
        s.push_str(&self.latency.to_table());
        s.push_str("```\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{self, VectorBench};
    use crate::engine::EngineConfig;
    use crate::model::FaultList;
    use crate::sim::ParallelSim;
    use netlist::{NetlistBuilder, PortDir};

    /// A circuit engineered so one fault lands in each bucket:
    ///
    /// * `go = g`            — g sa0 detected directly (the control).
    /// * `xo = a & b`        — vectors never set a=b=1 → xo-stem sa0
    ///                         never excited (unexercised).
    /// * `wo = c & k2`       — k2 held 0 → c sa0 excited but masked at
    ///                         the AND (activated-unpropagated).
    /// * `o1 = h & k`,
    ///   `t  = h | m` (dangling) — k held 0 masks the observed path,
    ///                         m held 0 lets the OR propagate → h sa0
    ///                         diverges on t only (propagated-
    ///                         unobserved).
    /// * `dang = d1 ^ d2` (dangling) — unobservable (untestable).
    fn rig() -> (netlist::Netlist, FaultList) {
        let mut b = NetlistBuilder::new("rig");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let g = b.input("g");
        let h = b.input("h");
        let k = b.input("k");
        let k2 = b.input("k2");
        let m = b.input("m");
        let d1 = b.input("d1");
        let d2 = b.input("d2");
        let x = b.and2(a, bb);
        let w = b.and2(c, k2);
        let o1 = b.and2(h, k);
        let _t = b.or2(h, m);
        let _dang = b.xor2(d1, d2);
        b.output("go", g);
        b.output("xo", x);
        b.output("wo", w);
        b.output("o1", o1);
        let nl = b.finish().unwrap();

        let sites = [
            Fault { site: FaultSite::Stem(g), polarity: Polarity::StuckAt0 },
            Fault { site: FaultSite::Stem(x), polarity: Polarity::StuckAt0 },
            Fault { site: FaultSite::Stem(c), polarity: Polarity::StuckAt0 },
            Fault { site: FaultSite::Stem(h), polarity: Polarity::StuckAt0 },
            Fault { site: FaultSite::Stem(_dang), polarity: Polarity::StuckAt0 },
        ];
        let all = FaultList::extract(&nl);
        let faults = all.filter(|f, _| sites.contains(&f));
        assert_eq!(faults.len(), sites.len());
        (nl, faults)
    }

    fn vectors() -> Vec<Vec<(&'static str, u64)>> {
        // g/c/h exercised high; a&b never both 1; k/k2/m always 0.
        vec![
            vec![("a", 1), ("b", 0), ("c", 1), ("g", 1), ("h", 1)],
            vec![("a", 0), ("b", 1), ("c", 1), ("g", 0), ("h", 1)],
        ]
    }

    fn observed(nl: &netlist::Netlist) -> Vec<Net> {
        let mut outs = Vec::new();
        for (_, dir, nets) in nl.ports() {
            if matches!(dir, PortDir::Output) {
                outs.extend_from_slice(nets);
            }
        }
        outs
    }

    #[test]
    fn every_bucket_is_reachable_and_exclusive() {
        let (nl, faults) = rig();
        let vecs = vectors();
        let result = campaign::run_vectors(&nl, &faults, &vecs);
        assert_eq!(
            result.detections.iter().filter(|d| d.is_detected()).count(),
            1,
            "only the control fault should be caught: {:?}",
            result.detections
        );

        let mut sim = ParallelSim::new(&nl);
        let mut tb = VectorBench::new(&nl, &vecs);
        let obs_nets = observed(&nl);
        let report = analyze(&nl, &result, &obs_nets, &mut sim, &mut tb);

        assert_eq!(report.escapes.len(), 4);
        let bucket_of = |desc: &str| {
            report
                .escapes
                .iter()
                .find(|e| e.fault.describe() == desc)
                .unwrap_or_else(|| panic!("{desc} missing"))
                .bucket
        };
        let x_desc = report
            .escapes
            .iter()
            .map(|e| (e.fault.describe(), e.bucket))
            .collect::<Vec<_>>();
        // Bucket per engineered fault (see `rig`).
        assert_eq!(bucket_of("n10 sa0"), Bucket::Unexercised, "{x_desc:?}");
        assert_eq!(bucket_of("n2 sa0"), Bucket::ActivatedUnpropagated, "{x_desc:?}");
        assert_eq!(bucket_of("n4 sa0"), Bucket::PropagatedUnobserved, "{x_desc:?}");
        assert_eq!(bucket_of("n14 sa0"), Bucket::Untestable, "{x_desc:?}");

        // Partition: every escape in exactly one bucket.
        let totals = report.bucket_totals();
        assert_eq!(totals.iter().map(|t| t.1).sum::<usize>(), report.escapes.len());

        // Coverage split: 1 of 5 detected raw, 1 of 4 testable.
        assert!((report.raw_coverage() - 0.2).abs() < 1e-9);
        assert!((report.testable_coverage() - 0.25).abs() < 1e-9);
        assert_eq!(report.untestable_weighted, 1);
        assert_eq!(report.latency.count(), 1);
    }

    #[test]
    fn json_is_deterministic_and_carries_the_partition() {
        let (nl, faults) = rig();
        let vecs = vectors();
        let result = campaign::run_vectors(&nl, &faults, &vecs);
        let obs_nets = observed(&nl);
        let render = |sim: &mut ParallelSim| {
            let mut tb = VectorBench::new(&nl, &vecs);
            let report = analyze(&nl, &result, &obs_nets, sim, &mut tb);
            serde_json::to_string_pretty(&report.to_json()).unwrap()
        };
        let j1 = render(&mut ParallelSim::new(&nl));
        let j2 = render(&mut ParallelSim::new(&nl));
        assert_eq!(j1, j2, "forensics JSON must be reproducible");
        // The compiled engine replays to the same bytes at any width.
        let mut wide = EngineConfig::compiled(128).sim(&nl, &[nl.topo_order().to_vec()]);
        let mut tb = VectorBench::new(&nl, &vecs);
        let report = analyze(&nl, &result, &obs_nets, &mut wide, &mut tb);
        assert_eq!(serde_json::to_string_pretty(&report.to_json()).unwrap(), j1);
        let v = serde_json::from_str(&j1).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o.get("schema").unwrap().as_u64(), Some(1));
        let escapes = o.get("escapes").unwrap().as_array().unwrap();
        assert_eq!(escapes.len(), 4);
        for e in escapes {
            let b = e.as_object().unwrap().get("bucket").unwrap().as_str().unwrap();
            assert!(Bucket::ALL.iter().any(|k| k.label() == b));
        }
    }

    #[test]
    fn effect_origin_excludes_the_forced_net() {
        let (nl, _) = rig();
        let h = nl.port("o1")[0];
        // A gate output stem's origin is its readers' outputs, never
        // itself.
        for g in nl.gates() {
            let origin = effect_origin(&nl, FaultSite::Stem(g.output));
            assert!(!origin.contains(&g.output));
        }
        let _ = h;
    }
}
