//! Metric names, units and the printed result.

use std::collections::BTreeMap;

use serde_json::{Map, Value};

/// End-to-end metrics, reported by every workload's untraced ops.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("faults_per_s", "faults/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by a traced run. A layer the workload
/// never calls reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("plasma.build_ms", "ms"),
    ("fault.model.list_ms", "ms"),
    ("sbst.phases.program_ms", "ms"),
    ("mips.iss.golden_ms", "ms"),
    ("fault.kernel.compile_ms", "ms"),
    ("fault.kernel.cache_hits", "count"),
    ("fault.kernel.cache_misses", "count"),
    ("campaign.op_s", "s"),
    ("campaign.batches", "count"),
    ("campaign.cycles_simulated", "cycles"),
    ("campaign.lane_cycles_spent", "lane-cycles"),
    ("campaign.lane_utilization", "ratio"),
    ("campaign.host_ns_per_cycle", "ns"),
    ("campaign.worker_imbalance", "ratio"),
    ("campaign.faults_dropped", "count"),
    ("profile.eval_early_ns_per_cycle", "ns"),
    ("profile.eval_late_ns_per_cycle", "ns"),
    ("profile.overlay_ns_per_cycle", "ns"),
    ("profile.detect_ns_per_cycle", "ns"),
    ("profile.clock_ns_per_cycle", "ns"),
    ("profile.patch_ms", "ms"),
    ("profile.reset_ms", "ms"),
    ("forensics.analyze_s", "s"),
    ("forensics.escapes", "count"),
    ("forensics.replay_batches", "count"),
    ("forensics.bucket.untestable", "count"),
    ("forensics.bucket.unexercised", "count"),
    ("forensics.bucket.activated_unpropagated", "count"),
    ("forensics.bucket.propagated_unobserved", "count"),
    ("provenance.attribution_ms", "ms"),
    ("coverage.report_ms", "ms"),
    ("coverage.weighted_pct", "%"),
    ("client.submit_ms", "ms"),
    ("client.result_ms", "ms"),
    ("server.queue_us", "us"),
    ("server.claim_us", "us"),
    ("server.grade_ms", "ms"),
    ("server.merge_us", "us"),
    ("server.finalize_us", "us"),
    ("server.shards_stolen", "count"),
    ("server.leases_expired", "count"),
    ("jobs.fragmentation", "ratio"),
    ("obs.events_dropped", "count"),
    ("trace.closure", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted (every op whose output was checked).
    pub attempted: u64,
    /// Ops that errored, were refused, timed out or failed their check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    /// Free-form lines printed above the metrics.
    pub lines: Vec<String>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Attach a note printed beside a metric.
    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.insert(name, note);
    }

    /// Count one checked op; a failure message is printed and counted.
    pub fn op(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.lines.push(format!("FAILED {what}: {e}"));
        }
    }

    /// Failed ÷ attempted ops.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metric and workloads each per-layer metric should
    /// move, from `meta.json`.
    fn layer_map() -> BTreeMap<String, String> {
        let meta =
            serde_json::from_str(include_str!("../meta.json")).expect("meta.json is valid JSON");
        let mut map = BTreeMap::new();
        if let Some(layers) = meta["layers"].as_object() {
            for (name, l) in layers.iter() {
                let on: Vec<&str> = l["on"]
                    .as_array()
                    .map(|a| a.iter().filter_map(|w| w.as_str()).collect())
                    .unwrap_or_default();
                let moves = l["moves"].as_str().unwrap_or("none");
                map.insert(name.clone(), format!("moves {moves} on {}", on.join(", ")));
            }
        }
        map
    }

    fn listed(traced: bool) -> Vec<(&'static str, &'static str)> {
        let mut list = END_TO_END.to_vec();
        if traced {
            list.extend(PER_LAYER);
        }
        list
    }

    /// Print every metric by name with its unit, then, as the last line,
    /// the JSON result: end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    pub fn print(&self, workload: &str, traced: bool) {
        for l in &self.lines {
            println!("{l}");
        }
        let map = Self::layer_map();
        for (name, unit) in Self::listed(traced) {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let note = self
                .notes
                .get(name)
                .map(|n| format!("  ({n})"))
                .unwrap_or_default();
            let moves = map
                .get(name)
                .map(|m| format!("  [{m}]"))
                .unwrap_or_default();
            println!("{workload:<12} {name:<42} {value:>16.6} {unit}{note}{moves}");
        }
        println!(
            "{workload:<12} {:<42} {:>16.6} ratio  ({} failed of {} ops)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        println!("{}", self.json(traced));
    }

    /// The one-line JSON result.
    pub fn json(&self, traced: bool) -> String {
        let selected: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Map::new();
        for &(name, unit) in selected {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            metrics.insert(
                name.to_string(),
                serde_json::json!({ "value": value, "unit": unit.to_string() }),
            );
        }
        let mut root = Map::new();
        root.insert("correct".into(), Value::Bool(self.failed == 0));
        root.insert("attempted".into(), Value::U64(self.attempted));
        root.insert("failed".into(), Value::U64(self.failed));
        root.insert("metrics".into(), Value::Object(metrics));
        serde_json::to_string(&Value::Object(root)).expect("a JSON value serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The metric lists here and in `BENCHMARK.json` must agree, name
    /// for name and unit for unit.
    #[test]
    fn metric_lists_match_the_benchmark_description() {
        let doc = serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().expect("string field").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn every_per_layer_metric_has_a_mapping() {
        let map = Report::layer_map();
        let names = PER_LAYER.iter().map(|m| m.0);
        assert_eq!(
            map.keys().map(|k| k.as_str()).collect::<BTreeSet<_>>(),
            names.into_iter().collect()
        );
    }

    #[test]
    fn a_failed_check_counts_against_the_error_rate() {
        let mut r = Report::default();
        r.op("op 0", Ok(()));
        r.op("op 1", Err("fault 3 differs".into()));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r
            .json(false)
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
    }
}
