//! Per-component coverage reporting — the machinery behind the paper's
//! Table 5 ("fault coverage on Plasma/MIPS with successive phase test
//! development") — plus coverage-over-time curves sampled from the
//! detection records.

use netlist::Netlist;

use crate::campaign::{CampaignResult, Detection};

/// One Table 5 row: a component's coverage and its *missed overall fault
/// coverage* (MOFC) — the share of the whole processor's faults that
/// remain undetected inside this component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentCoverage {
    /// Component name.
    pub name: String,
    /// Weighted faults attributed to the component.
    pub total: u64,
    /// Weighted faults detected.
    pub detected: u64,
    /// Fault coverage within the component, percent.
    pub coverage_pct: f64,
    /// Percentage of the processor-wide fault universe missed in this
    /// component (the paper's MOFC column).
    pub mofc_pct: f64,
}

/// Full coverage report: per-component rows plus the overall line.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Rows in netlist component order.
    pub components: Vec<ComponentCoverage>,
    /// Overall weighted coverage, percent.
    pub overall_pct: f64,
    /// Total weighted faults.
    pub total_faults: u64,
    /// Total weighted detected faults.
    pub total_detected: u64,
}

impl CoverageReport {
    /// Build the report from a campaign result.
    pub fn from_campaign(netlist: &Netlist, result: &CampaignResult) -> CoverageReport {
        let n = netlist.component_names().len();
        let mut total = vec![0u64; n];
        let mut detected = vec![0u64; n];
        for i in 0..result.faults.len() {
            let c = result.faults.component[i].index();
            let w = result.faults.weight[i] as u64;
            total[c] += w;
            if result.detections[i].is_detected() {
                detected[c] += w;
            }
        }
        let grand_total: u64 = total.iter().sum();
        let grand_detected: u64 = detected.iter().sum();
        let components = (0..n)
            .map(|c| {
                let cov = if total[c] == 0 {
                    100.0
                } else {
                    100.0 * detected[c] as f64 / total[c] as f64
                };
                let mofc = if grand_total == 0 {
                    0.0
                } else {
                    100.0 * (total[c] - detected[c]) as f64 / grand_total as f64
                };
                ComponentCoverage {
                    name: netlist.component_names()[c].clone(),
                    total: total[c],
                    detected: detected[c],
                    coverage_pct: cov,
                    mofc_pct: mofc,
                }
            })
            .collect();
        CoverageReport {
            components,
            overall_pct: if grand_total == 0 {
                100.0
            } else {
                100.0 * grand_detected as f64 / grand_total as f64
            },
            total_faults: grand_total,
            total_detected: grand_detected,
        }
    }

    /// Row for a named component, if present.
    pub fn component(&self, name: &str) -> Option<&ComponentCoverage> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Render as an aligned text table (component, FC%, MOFC%).
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<18} {:>8} {:>9} {:>8} {:>8}\n",
            "Component", "Faults", "Detected", "FC %", "MOFC %"
        ));
        for c in &self.components {
            s.push_str(&format!(
                "{:<18} {:>8} {:>9} {:>8.2} {:>8.2}\n",
                c.name, c.total, c.detected, c.coverage_pct, c.mofc_pct
            ));
        }
        s.push_str(&format!(
            "{:<18} {:>8} {:>9} {:>8.2} {:>8.2}\n",
            "TOTAL",
            self.total_faults,
            self.total_detected,
            self.overall_pct,
            100.0 - self.overall_pct
        ));
        s
    }
}

/// Per-component coverage sampled at a fixed cycle stride — the
/// "coverage evolving over the test program" curve the paper's per-phase
/// tables summarize at a single endpoint.
///
/// Built purely from the recorded first-detection cycles, so it costs
/// nothing during simulation: a fault counts as detected at sample cycle
/// `t` iff its `DetectedAt` cycle is ≤ `t`.
#[derive(Debug, Clone)]
pub struct CoverageTimeline {
    /// Sample stride in cycles.
    pub stride: u64,
    /// Sample points (ascending; always ends at the last cycle any
    /// detection occurred, rounded up to a stride multiple).
    pub cycles: Vec<u64>,
    /// Component names, in netlist order.
    pub components: Vec<String>,
    /// `rows[s][c]` = weighted coverage percent of component `c` at
    /// sample `s`.
    pub rows: Vec<Vec<f64>>,
    /// Overall weighted coverage percent at each sample.
    pub overall: Vec<f64>,
}

impl CoverageTimeline {
    /// Sample the campaign's detection records every `stride` cycles
    /// (`stride` ≥ 1; the final sample covers the last detection).
    pub fn from_campaign(
        netlist: &Netlist,
        result: &CampaignResult,
        stride: u64,
    ) -> CoverageTimeline {
        let stride = stride.max(1);
        let n = netlist.component_names().len();
        let mut total = vec![0u64; n];
        let mut grand_total = 0u64;
        // (cycle, component, weight) per detected fault, sorted by cycle.
        let mut events: Vec<(u64, usize, u64)> = Vec::new();
        for i in 0..result.faults.len() {
            let c = result.faults.component[i].index();
            let w = result.faults.weight[i] as u64;
            total[c] += w;
            grand_total += w;
            if let Detection::DetectedAt(cycle) = result.detections[i] {
                events.push((cycle, c, w));
            }
        }
        events.sort_unstable();
        let last_cycle = events.last().map(|e| e.0).unwrap_or(0);
        let samples = last_cycle / stride + 1;
        let mut cycles = Vec::with_capacity(samples as usize + 1);
        let mut rows = Vec::with_capacity(samples as usize + 1);
        let mut overall = Vec::with_capacity(samples as usize + 1);
        let mut detected = vec![0u64; n];
        let mut grand_detected = 0u64;
        let mut next_event = 0usize;
        for s in 0..=samples {
            let t = s * stride;
            while next_event < events.len() && events[next_event].0 <= t {
                let (_, c, w) = events[next_event];
                detected[c] += w;
                grand_detected += w;
                next_event += 1;
            }
            cycles.push(t);
            rows.push(
                (0..n)
                    .map(|c| {
                        if total[c] == 0 {
                            100.0
                        } else {
                            100.0 * detected[c] as f64 / total[c] as f64
                        }
                    })
                    .collect(),
            );
            overall.push(if grand_total == 0 {
                100.0
            } else {
                100.0 * grand_detected as f64 / grand_total as f64
            });
        }
        CoverageTimeline {
            stride,
            cycles,
            components: netlist.component_names().to_vec(),
            rows,
            overall,
        }
    }

    /// Render as an aligned text table: one row per sample cycle, one
    /// column per component plus the overall line.
    pub fn to_table(&self) -> String {
        let mut s = format!("{:>9}", "cycle");
        for name in &self.components {
            s.push_str(&format!(" {:>8}", truncate(name, 8)));
        }
        s.push_str(&format!(" {:>8}\n", "OVERALL"));
        for (k, &t) in self.cycles.iter().enumerate() {
            s.push_str(&format!("{t:>9}"));
            for c in 0..self.components.len() {
                s.push_str(&format!(" {:>8.2}", self.rows[k][c]));
            }
            s.push_str(&format!(" {:>8.2}\n", self.overall[k]));
        }
        s
    }
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_vectors;
    use crate::model::FaultList;
    use netlist::NetlistBuilder;

    #[test]
    fn report_attributes_by_component() {
        let mut b = NetlistBuilder::new("two");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        b.begin_component("xorpart");
        let x = b.xor_word(&a, &c);
        b.end_component();
        b.begin_component("deadpart");
        // An AND chain whose output is unobservable (not a port):
        let dead = b.and_word(&a, &c);
        let _sink = b.and_tree(&dead);
        b.end_component();
        b.outputs("x", &x);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors: Vec<Vec<(&str, u64)>> = (0..256u64)
            .map(|v| vec![("a", v & 0xF), ("b", (v >> 4) & 0xF)])
            .collect();
        let res = run_vectors(&nl, &faults, &vectors);
        let report = CoverageReport::from_campaign(&nl, &res);
        let xor = report.component("xorpart").unwrap();
        let dead = report.component("deadpart").unwrap();
        assert!(xor.coverage_pct > 99.0, "xor {}", xor.coverage_pct);
        assert_eq!(dead.detected, 0, "dead logic must stay undetected");
        assert!(dead.mofc_pct > 0.0);
        // MOFC percentages plus overall coverage must account for all
        // faults.
        let mofc_sum: f64 = report.components.iter().map(|c| c.mofc_pct).sum();
        assert!((mofc_sum - (100.0 - report.overall_pct)).abs() < 1e-9);
        let table = report.to_table();
        assert!(table.contains("xorpart") && table.contains("TOTAL"));
    }

    /// A two-component sequential design whose second component only
    /// becomes observable after a few cycles, so the timeline actually
    /// has structure.
    fn staged_netlist() -> netlist::Netlist {
        let mut b = NetlistBuilder::new("staged");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        b.begin_component("fast");
        let x = b.xor_word(&a, &c);
        b.end_component();
        b.begin_component("slow");
        let q1 = b.dff_word(&x, 0);
        let q2 = b.dff_word(&q1, 0);
        let y = b.and_word(&q2, &a);
        b.end_component();
        b.outputs("x", &x);
        b.outputs("y", &y);
        b.finish().unwrap()
    }

    fn staged_vectors() -> Vec<Vec<(&'static str, u64)>> {
        (0..24u64)
            .map(|v| vec![("a", (v * 37) & 0xFF), ("b", (v * 101 + 13) & 0xFF)])
            .collect()
    }

    #[test]
    fn timeline_is_monotone_and_converges_to_report() {
        let nl = staged_netlist();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let res = run_vectors(&nl, &faults, &staged_vectors());
        let report = CoverageReport::from_campaign(&nl, &res);
        let tl = CoverageTimeline::from_campaign(&nl, &res, 2);
        assert_eq!(tl.cycles.len(), tl.rows.len());
        assert_eq!(tl.cycles.len(), tl.overall.len());
        // Monotone non-decreasing everywhere.
        for s in 1..tl.cycles.len() {
            assert!(tl.overall[s] >= tl.overall[s - 1]);
            for c in 0..tl.components.len() {
                assert!(tl.rows[s][c] >= tl.rows[s - 1][c]);
            }
        }
        // The last sample equals the end-of-run report.
        let last = tl.rows.last().unwrap();
        assert!((tl.overall.last().unwrap() - report.overall_pct).abs() < 1e-9);
        for (c, comp) in report.components.iter().enumerate() {
            assert!(
                (last[c] - comp.coverage_pct).abs() < 1e-9,
                "{}: timeline {} vs report {}",
                comp.name,
                last[c],
                comp.coverage_pct
            );
        }
        // Sequential detections exist, so coverage must actually grow.
        assert!(tl.overall[0] < *tl.overall.last().unwrap());
        let t = tl.to_table();
        assert!(t.contains("OVERALL") && t.contains("cycle"), "{t}");
    }

    /// Shard the fault list three ways, grade each shard independently,
    /// and check the per-component counts of the shard reports sum to
    /// the full-list report — the invariant campaign sharding (and any
    /// future distributed runner) rests on.
    #[test]
    fn sharded_campaigns_sum_to_full_report() {
        let nl = staged_netlist();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors = staged_vectors();
        let full = CoverageReport::from_campaign(&nl, &run_vectors(&nl, &faults, &vectors));
        let mut sum_total = vec![0u64; full.components.len()];
        let mut sum_detected = vec![0u64; full.components.len()];
        for s in 0..3usize {
            let mut i = 0usize;
            let shard = faults.filter(|_, _| {
                let k = i;
                i += 1;
                k % 3 == s
            });
            let rep = CoverageReport::from_campaign(&nl, &run_vectors(&nl, &shard, &vectors));
            for (c, comp) in rep.components.iter().enumerate() {
                sum_total[c] += comp.total;
                sum_detected[c] += comp.detected;
            }
        }
        for (c, comp) in full.components.iter().enumerate() {
            assert_eq!(sum_total[c], comp.total, "{}: totals drifted", comp.name);
            assert_eq!(
                sum_detected[c], comp.detected,
                "{}: detections drifted across shards",
                comp.name
            );
        }
    }

    /// `CampaignResult::merge` must commute with per-component coverage
    /// reporting, whether the merged results came from serial 64-lane
    /// or multi-threaded 128-lane runs.
    #[test]
    fn merge_report_round_trip_serial_vs_parallel() {
        use crate::campaign::{run, VectorBench};
        use crate::engine::flat_sim;
        use obs::Telemetry;
        let nl = staged_netlist();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let v1 = staged_vectors();
        let v2: Vec<Vec<(&str, u64)>> = vec![
            vec![("a", 0xFF), ("b", 0x00)],
            vec![("a", 0x0F), ("b", 0xF0)],
            vec![("a", 0x55), ("b", 0xAA)],
            vec![("a", 0x00), ("b", 0x00)],
        ];
        let serial_1 = run_vectors(&nl, &faults, &v1);
        let serial_2 = run_vectors(&nl, &faults, &v2);
        let serial_merged = serial_1.merge(&serial_2);
        let proto = flat_sim(&nl, 128);
        let hooks = Telemetry::none();
        let par_1 = run(&proto, &faults, || VectorBench::new(&nl, &v1), 3, &hooks);
        let par_2 = run(&proto, &faults, || VectorBench::new(&nl, &v2), 2, &hooks);
        let par_merged = par_1.merge(&par_2);
        assert_eq!(par_merged.detections, serial_merged.detections);
        assert_eq!(par_merged.stats.latency, serial_merged.stats.latency);
        let rs = CoverageReport::from_campaign(&nl, &serial_merged);
        let rp = CoverageReport::from_campaign(&nl, &par_merged);
        assert_eq!(rs.total_faults, rp.total_faults);
        assert_eq!(rs.total_detected, rp.total_detected);
        for (a, b) in rs.components.iter().zip(&rp.components) {
            assert_eq!(a, b, "merged component rows differ");
        }
        // Merge must never lose detections relative to either input.
        assert!(rs.total_detected >= CoverageReport::from_campaign(&nl, &serial_1).total_detected);
        assert!(rs.total_detected >= CoverageReport::from_campaign(&nl, &serial_2).total_detected);
    }
}
