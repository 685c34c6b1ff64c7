//! Detection provenance: which instruction — and hence which SBST
//! routine — the processor was executing when each fault was first
//! observed on the bus.
//!
//! The gate-level core and the ISS are cycle-locked (enforced by the
//! `plasma` co-simulation suite: identical bus transactions every
//! cycle), so the campaign's detection cycles index directly into a
//! golden ISS trace recorded once per program. Provenance is therefore
//! pure **post-processing**: the fault-simulation hot loop is untouched,
//! parallel campaigns stay bit-identical, and the cost is one ISS run
//! (microseconds) plus a table join.
//!
//! Pipeline:
//!
//! 1. [`GoldenTrace::record`] replays the self-test program on the ISS,
//!    capturing `(pc, instruction word)` for every cycle.
//! 2. [`RoutineMap::of_selftest`] recovers the routine spans from the
//!    assembler's symbol table (`rt_{k}_{component}` labels emitted by
//!    [`crate::phases::build_program`], plus the inline register-file
//!    march at the program base and the high-memory PC ladder).
//! 3. [`ProvenanceReport::from_campaign`] joins detection cycles against
//!    both, disassembling the executing instruction via
//!    [`mips::disasm::disassemble`], and aggregates a routine →
//!    hardware-component attribution matrix.

use std::collections::BTreeMap;

use fault::campaign::{CampaignResult, Detection};
use mips::iss::{Iss, Memory};
use mips::Program;
use netlist::Netlist;
use serde_json::Value;

use crate::phases::SelfTestProgram;
use crate::routines::{END_MARKER, MAILBOX};

/// One contiguous code region belonging to a named SBST routine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutineSpan {
    /// Assembler label of the region (`main`, `rt_1_MulD`, `lad_entry`).
    pub label: String,
    /// The component the routine targets (`RegF`, `MulD`, ...).
    pub component: String,
    /// First byte address of the span (inclusive).
    pub start: u32,
    /// One past the last byte address (exclusive).
    pub end: u32,
}

/// Sorted routine spans recovered from a program's symbol table, with
/// PC → routine lookup.
#[derive(Debug, Clone, Default)]
pub struct RoutineMap {
    spans: Vec<RoutineSpan>,
}

impl RoutineMap {
    /// Build the map for a generated phase program.
    ///
    /// The first routine runs inline at the program base (it clobbers
    /// every register, so it cannot be a subroutine); the glue between
    /// calls is attributed to it as well — the dispatch `jal`s are part
    /// of what the inline march sensitises.
    pub fn of_selftest(st: &SelfTestProgram) -> RoutineMap {
        let inline = st
            .phase
            .routines()
            .first()
            .map(|r| r.component)
            .unwrap_or("top");
        Self::from_symbols(&st.program, inline)
    }

    /// Build the map from an assembled program's symbols: every
    /// `rt_{k}_{component}` label opens a span that runs to the next
    /// labelled routine; `[base, first rt)` is the inline `main` region;
    /// a `lad_entry` label (the Phase C PC ladder) claims everything
    /// above it.
    pub fn from_symbols(program: &Program, inline_component: &str) -> RoutineMap {
        let mut spans: Vec<RoutineSpan> = Vec::new();
        for (name, &addr) in &program.symbols {
            if let Some(rest) = name.strip_prefix("rt_") {
                // rt_{k}_{component}
                if let Some((_, comp)) = rest.split_once('_') {
                    spans.push(RoutineSpan {
                        label: name.clone(),
                        component: comp.to_string(),
                        start: addr,
                        end: u32::MAX,
                    });
                }
            } else if name == "lad_entry" {
                spans.push(RoutineSpan {
                    label: name.clone(),
                    component: "PCLladder".to_string(),
                    start: addr,
                    end: u32::MAX,
                });
            }
        }
        let first = spans.iter().map(|s| s.start).min().unwrap_or(u32::MAX);
        spans.push(RoutineSpan {
            label: "main".to_string(),
            component: inline_component.to_string(),
            start: program.base,
            end: first,
        });
        spans.sort_by_key(|s| s.start);
        for i in 0..spans.len().saturating_sub(1) {
            let next = spans[i + 1].start;
            if spans[i].end > next {
                spans[i].end = next;
            }
        }
        RoutineMap { spans }
    }

    /// The spans, in ascending address order.
    pub fn spans(&self) -> &[RoutineSpan] {
        &self.spans
    }

    /// The routine executing at `pc`, if any.
    pub fn locate(&self, pc: u32) -> Option<&RoutineSpan> {
        let i = self.spans.partition_point(|s| s.start <= pc);
        let s = &self.spans[..i];
        s.last().filter(|s| pc < s.end)
    }
}

/// The golden per-cycle `(pc, instruction)` trace of a self-test run on
/// the ISS — the cycle-indexed reference the detection cycles join
/// against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GoldenTrace {
    /// Program counter at each cycle.
    pub pcs: Vec<u32>,
    /// Instruction word fetched at each cycle.
    pub instrs: Vec<u32>,
}

impl GoldenTrace {
    /// Replay `program` on the ISS until its mailbox end-marker store
    /// (or `max_cycles`), recording `(pc, instruction)` every cycle.
    pub fn record(program: &Program, mem_bytes: usize, max_cycles: u64) -> GoldenTrace {
        Self::record_until(program, mem_bytes, max_cycles, MAILBOX, END_MARKER)
    }

    /// [`GoldenTrace::record`] with an explicit end-of-test mailbox —
    /// program families other than the SBST phases (e.g. the `difftest`
    /// fuzzer's random programs, which end at [`mips::gen::END_MAILBOX`])
    /// use their own marker address.
    pub fn record_until(
        program: &Program,
        mem_bytes: usize,
        max_cycles: u64,
        mailbox: u32,
        marker: u32,
    ) -> GoldenTrace {
        let mut mem = Memory::new(mem_bytes);
        mem.load_program(program);
        let mut cpu = Iss::new();
        let mut t = GoldenTrace::default();
        for _ in 0..max_cycles {
            let pc = cpu.pc();
            t.pcs.push(pc);
            t.instrs.push(mem.read_word(pc));
            let bus = cpu.cycle(&mut mem);
            if bus.we && bus.addr == mailbox && bus.wdata == marker {
                break;
            }
        }
        t
    }

    /// Trace length in cycles.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }
}

/// Provenance of one detected fault.
#[derive(Debug, Clone)]
pub struct DetectionProvenance {
    /// Index into the campaign's fault list.
    pub fault_index: usize,
    /// Human-readable fault site (`Fault::describe`).
    pub fault: String,
    /// Hardware component the fault lives in.
    pub fault_component: String,
    /// Collapsing weight of the fault class.
    pub weight: u32,
    /// Detection cycle (first bus divergence).
    pub cycle: u64,
    /// Program counter at the detection cycle.
    pub pc: u32,
    /// Instruction word executing at the detection cycle.
    pub instr: u32,
    /// Disassembly of that instruction.
    pub disasm: String,
    /// Label of the SBST routine executing (`main`, `rt_2_BSH`, ...).
    pub routine: String,
    /// Component that routine targets.
    pub routine_component: String,
}

/// Aggregated attribution for one routine: how many weighted faults it
/// detected, split by the hardware component the faults live in.
#[derive(Debug, Clone)]
pub struct RoutineAttribution {
    /// Routine label.
    pub routine: String,
    /// Component the routine targets.
    pub target: String,
    /// Total weighted detections attributed to the routine.
    pub detected: u64,
    /// Weighted detections per hardware component.
    pub by_component: BTreeMap<String, u64>,
}

/// The full provenance report: per-detection records plus the routine →
/// component attribution matrix.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceReport {
    /// One record per detected fault, in fault-list order.
    pub detections: Vec<DetectionProvenance>,
    /// Attribution rows, in program (address) order.
    pub routines: Vec<RoutineAttribution>,
    /// Weighted detections whose cycle falls beyond the golden trace
    /// (inside the cycle margin — the faulty machine kept running after
    /// the golden one finished). These have no executing instruction.
    pub beyond_golden: u64,
}

impl ProvenanceReport {
    /// Join a campaign result against the golden trace and routine map.
    pub fn from_campaign(
        netlist: &Netlist,
        result: &CampaignResult,
        trace: &GoldenTrace,
        map: &RoutineMap,
    ) -> ProvenanceReport {
        let names = netlist.component_names();
        let mut detections = Vec::new();
        let mut beyond = 0u64;
        // Keyed by routine start so rows come out in program order.
        let mut rows: BTreeMap<u32, RoutineAttribution> = BTreeMap::new();
        for s in map.spans() {
            rows.insert(
                s.start,
                RoutineAttribution {
                    routine: s.label.clone(),
                    target: s.component.clone(),
                    detected: 0,
                    by_component: BTreeMap::new(),
                },
            );
        }
        for (i, det) in result.detections.iter().enumerate() {
            let Detection::DetectedAt(cycle) = det else {
                continue;
            };
            let weight = result.faults.weight[i] as u64;
            let Some(&pc) = trace.pcs.get(*cycle as usize) else {
                beyond += weight;
                continue;
            };
            let instr = trace.instrs[*cycle as usize];
            let span = map.locate(pc);
            let (routine, routine_component) = match span {
                Some(s) => (s.label.clone(), s.component.clone()),
                None => ("<unknown>".to_string(), "-".to_string()),
            };
            let comp = names[result.faults.component[i].index()].clone();
            if let Some(s) = span {
                let row = rows.get_mut(&s.start).expect("span row exists");
                row.detected += weight;
                *row.by_component.entry(comp.clone()).or_insert(0) += weight;
            }
            detections.push(DetectionProvenance {
                fault_index: i,
                fault: result.faults.faults[i].describe(),
                fault_component: comp,
                weight: result.faults.weight[i],
                cycle: *cycle,
                pc,
                instr,
                disasm: mips::disasm::disassemble(instr, pc),
                routine,
                routine_component,
            });
        }
        ProvenanceReport {
            detections,
            routines: rows.into_values().collect(),
            beyond_golden: beyond,
        }
    }

    /// Total weighted detections across all routines.
    pub fn total_detected(&self) -> u64 {
        self.routines.iter().map(|r| r.detected).sum::<u64>() + self.beyond_golden
    }

    /// Render the routine → component attribution matrix as an aligned
    /// text table. Columns are hardware components (union over rows);
    /// cells are weighted detection counts.
    pub fn to_table(&self) -> String {
        let mut comps: Vec<&str> = Vec::new();
        for r in &self.routines {
            for c in r.by_component.keys() {
                if !comps.contains(&c.as_str()) {
                    comps.push(c);
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("{:<14}", "routine"));
        for c in &comps {
            out.push_str(&format!(" {:>8}", &c[..c.len().min(8)]));
        }
        out.push_str(&format!(" {:>8}\n", "TOTAL"));
        for r in &self.routines {
            if r.detected == 0 {
                continue;
            }
            out.push_str(&format!("{:<14}", r.routine));
            for c in &comps {
                let n = r.by_component.get(*c).copied().unwrap_or(0);
                if n == 0 {
                    out.push_str(&format!(" {:>8}", "."));
                } else {
                    out.push_str(&format!(" {n:>8}"));
                }
            }
            out.push_str(&format!(" {:>8}\n", r.detected));
        }
        if self.beyond_golden > 0 {
            out.push_str(&format!(
                "{:<14}{} {:>8}\n",
                "(post-golden)",
                " ".repeat(9 * comps.len()),
                self.beyond_golden
            ));
        }
        out
    }

    /// Machine-readable form: per-routine attribution rows.
    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .routines
            .iter()
            .map(|r| {
                let by: Vec<Value> = r
                    .by_component
                    .iter()
                    .map(|(c, n)| {
                        serde_json::json!({
                            "component": c.as_str(),
                            "detected": *n,
                        })
                    })
                    .collect();
                serde_json::json!({
                    "routine": r.routine.as_str(),
                    "target": r.target.as_str(),
                    "detected": r.detected,
                    "by_component": by,
                })
            })
            .collect();
        serde_json::json!({
            "routines": rows,
            "beyond_golden": self.beyond_golden,
        })
    }
}

/// One row of the escape-attribution matrix: a routine (or a pseudo-row
/// for escapes no routine ever touched) with the weighted escapes whose
/// *last chance* it was, split by the hardware component they live in.
#[derive(Debug, Clone)]
pub struct EscapeAttributionRow {
    /// Routine label, or a pseudo-label: `(untestable)`, `(never
    /// excited)`, `(post-golden)`.
    pub routine: String,
    /// Component the routine targets (`-` for pseudo-rows).
    pub target: String,
    /// Total weighted escapes attributed to this row.
    pub weighted: u64,
    /// Weighted escapes per hardware component.
    pub by_component: BTreeMap<String, u64>,
}

/// The dual of [`ProvenanceReport`] for *escapes*: joins each escape's
/// first-excitation cycle (forensics evidence pass) against the
/// golden trace and routine map, answering "which routine activated
/// this fault and still failed to detect it?" per routine × component.
/// Untestable and never-excited escapes land in pseudo-rows so every
/// weighted escape is accounted for.
#[derive(Debug, Clone, Default)]
pub struct EscapeAttribution {
    /// Rows in program (address) order, pseudo-rows last.
    pub rows: Vec<EscapeAttributionRow>,
}

impl EscapeAttribution {
    /// Join a forensics report against the golden trace and routine map.
    pub fn from_forensics(
        forensics: &fault::forensics::ForensicsReport,
        trace: &GoldenTrace,
        map: &RoutineMap,
    ) -> EscapeAttribution {
        let mut rows: BTreeMap<u32, EscapeAttributionRow> = BTreeMap::new();
        for s in map.spans() {
            rows.insert(
                s.start,
                EscapeAttributionRow {
                    routine: s.label.clone(),
                    target: s.component.clone(),
                    weighted: 0,
                    by_component: BTreeMap::new(),
                },
            );
        }
        fn pseudo_row<'a>(
            pseudo: &'a mut BTreeMap<&'static str, EscapeAttributionRow>,
            label: &'static str,
        ) -> &'a mut EscapeAttributionRow {
            pseudo.entry(label).or_insert_with(|| EscapeAttributionRow {
                routine: label.to_string(),
                target: "-".to_string(),
                weighted: 0,
                by_component: BTreeMap::new(),
            })
        }
        let mut pseudo: BTreeMap<&'static str, EscapeAttributionRow> = BTreeMap::new();
        for e in &forensics.escapes {
            let w = e.weight as u64;
            let row = if e.bucket == fault::forensics::Bucket::Untestable {
                pseudo_row(&mut pseudo, "(untestable)")
            } else {
                match e.first_excited {
                    None => pseudo_row(&mut pseudo, "(never excited)"),
                    Some(cycle) => match trace.pcs.get(cycle as usize) {
                        None => pseudo_row(&mut pseudo, "(post-golden)"),
                        Some(&pc) => match map.locate(pc) {
                            Some(s) => rows.get_mut(&s.start).expect("span row exists"),
                            None => pseudo_row(&mut pseudo, "(unmapped)"),
                        },
                    },
                }
            };
            row.weighted += w;
            *row.by_component.entry(e.component.clone()).or_insert(0) += w;
        }
        let mut out: Vec<EscapeAttributionRow> = rows.into_values().collect();
        out.extend(pseudo.into_values());
        EscapeAttribution { rows: out }
    }

    /// Total weighted escapes across all rows.
    pub fn total_weighted(&self) -> u64 {
        self.rows.iter().map(|r| r.weighted).sum()
    }

    /// Aligned text matrix, mirroring [`ProvenanceReport::to_table`]:
    /// routines down, hardware components across, weighted escapes in
    /// the cells.
    pub fn to_table(&self) -> String {
        let mut comps: Vec<&str> = Vec::new();
        for r in &self.rows {
            for c in r.by_component.keys() {
                if !comps.contains(&c.as_str()) {
                    comps.push(c);
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("{:<16}", "routine"));
        for c in &comps {
            out.push_str(&format!(" {:>8}", &c[..c.len().min(8)]));
        }
        out.push_str(&format!(" {:>8}\n", "ESCAPED"));
        for r in &self.rows {
            if r.weighted == 0 {
                continue;
            }
            out.push_str(&format!("{:<16}", r.routine));
            for c in &comps {
                let n = r.by_component.get(*c).copied().unwrap_or(0);
                if n == 0 {
                    out.push_str(&format!(" {:>8}", "."));
                } else {
                    out.push_str(&format!(" {n:>8}"));
                }
            }
            out.push_str(&format!(" {:>8}\n", r.weighted));
        }
        out
    }

    /// Machine-readable form: per-row attribution.
    pub fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .filter(|r| r.weighted > 0)
            .map(|r| {
                let by: Vec<Value> = r
                    .by_component
                    .iter()
                    .map(|(c, n)| {
                        serde_json::json!({
                            "component": c.as_str(),
                            "weighted": *n,
                        })
                    })
                    .collect();
                serde_json::json!({
                    "routine": r.routine.as_str(),
                    "target": r.target.as_str(),
                    "weighted": r.weighted,
                    "by_component": by,
                })
            })
            .collect();
        serde_json::json!({ "rows": rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::MEM_BYTES;
    use crate::phases::{build_program, Phase};

    #[test]
    fn routine_map_covers_the_program() {
        for phase in [Phase::A, Phase::B, Phase::C] {
            let st = build_program(phase).unwrap();
            let map = RoutineMap::of_selftest(&st);
            // main span starts at the base and is the inline routine.
            let first = map.locate(st.program.base).expect("base is mapped");
            assert_eq!(first.label, "main");
            assert_eq!(first.component, "RegF");
            // Every rt_ label resolves to its own span.
            for (name, &addr) in &st.program.symbols {
                if name.starts_with("rt_") {
                    let s = map.locate(addr).expect("rt label mapped");
                    assert_eq!(&s.label, name, "{}", phase.name());
                }
            }
            if phase == Phase::C {
                let lad = st.program.symbol("lad_entry").unwrap();
                assert_eq!(map.locate(lad).unwrap().component, "PCLladder");
                assert_eq!(map.locate(0xFFF0).unwrap().component, "PCLladder");
            }
        }
    }

    #[test]
    fn golden_trace_matches_golden_cycles() {
        let st = build_program(Phase::A).unwrap();
        let trace = GoldenTrace::record(&st.program, MEM_BYTES, 2_000_000);
        assert_eq!(trace.len() as u64, crate::flow::golden_cycles(&st));
        // Every traced PC must belong to some routine span.
        let map = RoutineMap::of_selftest(&st);
        for (&pc, &w) in trace.pcs.iter().zip(&trace.instrs) {
            let s = map
                .locate(pc)
                .unwrap_or_else(|| panic!("unmapped pc {pc:#x}"));
            assert!(!s.label.is_empty());
            // Executing words must disassemble to something.
            assert!(!mips::disasm::disassemble(w, pc).is_empty());
        }
    }
}
