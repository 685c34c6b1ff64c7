//! The recorded reference for the default seed: one outcome digest per
//! workload (per job for `daemon_jobs`) plus the count metrics recorded
//! with them. Other seeds are checked against a single-threaded run of
//! the same input instead. Regenerate with `--write-reference`.

use std::collections::BTreeMap;

use serde_json::{Map, Value};

use crate::Workload;

/// The seed whose reference is recorded: the ROADMAP's canonical sample
/// (2,004 faults for `campaign_ab`).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

const RECORDED: &str = include_str!("../reference.json");

/// Path of the reference file, for `--write-reference`.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");

fn recorded() -> Value {
    serde_json::from_str(RECORDED).expect("reference.json is valid JSON")
}

/// The recorded digest of `workload`'s outcome at `seed` (job `job` for
/// `daemon_jobs`), if `seed` is the recorded one.
pub fn digest(workload: Workload, seed: u64, job: usize) -> Option<String> {
    let doc = recorded();
    if doc["seed"].as_u64() != Some(seed) {
        return None;
    }
    let entry = &doc[workload.name()];
    let d = match workload {
        Workload::DaemonJobs => entry["jobs"].as_array()?.get(job)?.as_str(),
        _ => entry["digest"].as_str(),
    };
    d.map(String::from)
}

/// Compare `counts` with the counts recorded for `workload` at `seed`;
/// `None` when nothing is recorded for it.
pub fn compare_counts(
    workload: Workload,
    seed: u64,
    counts: &BTreeMap<&str, f64>,
) -> Option<String> {
    let doc = recorded();
    if doc["seed"].as_u64() != Some(seed) {
        return None;
    }
    let want = doc[workload.name()]["counts"].as_object()?;
    let diffs: Vec<String> = want
        .iter()
        .filter_map(|(k, v)| {
            let have = counts.get(k.as_str()).copied();
            (have != v.as_f64()).then(|| format!("{k} {have:?} (recorded {v:?})"))
        })
        .collect();
    Some(if diffs.is_empty() {
        format!("counts repeat the {} recorded counts exactly", want.len())
    } else {
        format!(
            "counts differ from the recorded counts: {}",
            diffs.join(", ")
        )
    })
}

/// Write the reference file: `entries` maps workload name to its
/// `{digest | jobs, counts}` object.
pub fn write(entries: Vec<(&str, Value)>) -> std::io::Result<()> {
    let mut root = Map::new();
    root.insert("seed".into(), Value::U64(DEFAULT_SEED));
    for (name, v) in entries {
        root.insert(name.to_string(), v);
    }
    let mut body = serde_json::to_string_pretty(&Value::Object(root)).expect("JSON serializes");
    body.push('\n');
    std::fs::write(PATH, body)
}
