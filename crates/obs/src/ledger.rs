//! The run ledger: a schema-versioned, append-only JSONL record of every
//! campaign/difftest invocation, plus the trend and regression-gate
//! logic the `ledger` binary exposes.
//!
//! One line per run:
//!
//! ```json
//! {"v":1,"ts":1754550000,"git":"b9934b6","kind":"tables-stats","cmd":"tables --stats",
//!  "netlist":"n8123/g7456/d901","threads":8,"faults":8000,"cycles":423000,
//!  "wall_seconds":1.92,"mlane_cps":141.2,"coverage_pct":92.44,"latency":[...],"extra":{}}
//! ```
//!
//! `kind` is the comparability key: the regression gate only compares a
//! record against earlier records with the same kind, netlist
//! fingerprint, and fault count (throughput additionally requires the
//! same thread count, engine, and lane width — a 1-thread run is not
//! slower than an 8-thread one, and an interpreted 64-lane run is not
//! slower than a compiled 256-lane one; they are different experiments).
//! The throughput the gate compares is [`LedgerRecord::gated_rate`]:
//! graded faults per wall second for a record that graded faults — the
//! goal of a campaign — rather than `mlane_cps`, which counts every
//! simulated lane-cycle as work and so moves opposite to faults/s when
//! survivor compaction stops simulating dead lanes. A record without
//! faults (`difftest`) keeps gating on `mlane_cps`. The trend table
//! shows both rates.
//! Coverage, by contrast, is engine- and lane-invariant (the engines are
//! bit-identical by construction), so the coverage gate deliberately
//! compares across engines. Records whose schema version is
//! newer than this reader are skipped, not errors: old binaries keep
//! working against a ledger written by newer ones.

use std::io::Write;
use std::path::Path;

use serde_json::{Map, Value};

/// Current ledger schema version. Version history:
///
/// * 1 — initial schema.
/// * 2 — adds `untestable_faults` (weighted structurally-undetectable
///   faults found by forensics) and `testable_coverage` (percent,
///   `detected / (total − untestable)`); both optional, so version-1
///   rows keep loading with `0` / absent.
///
/// Optional fields added since (`lane_utilization`) need no bump: rows
/// without them load as absent.
pub const SCHEMA_VERSION: u64 = 2;

/// One run's ledger entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Schema version (see [`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Unix timestamp (seconds) the record was written.
    pub ts: u64,
    /// `git describe --always --dirty` of the working tree, or
    /// `"unknown"`.
    pub git: String,
    /// Comparability key: records are only trended/gated against
    /// records of the same kind (e.g. `tables-stats`, `difftest`).
    pub kind: String,
    /// The invoked command line (informational).
    pub cmd: String,
    /// Netlist fingerprint (`""` when no netlist was involved).
    pub netlist: String,
    /// Worker threads the run used.
    pub threads: u64,
    /// Simulation engine: `"compiled"` for every record written now,
    /// `"interp"` in older history. Part of the throughput
    /// comparability key; records written before the field existed
    /// parse as `"interp"`, which is what they ran.
    pub engine: String,
    /// Bit-parallel lanes per pass (64 for the interpreted engine,
    /// 64×W for the compiled one). Part of the throughput
    /// comparability key; old records parse as 64.
    pub lanes: u64,
    /// Fault shards the campaign was split into (1 = single-shot).
    /// Part of both comparability keys: a sharded daemon run is a
    /// different experiment — per-shard budgets and merge overhead skew
    /// throughput, and its records must never gate against (or pollute
    /// the baseline of) single-shot history. Old records parse as 1.
    pub shards: u64,
    /// Faults simulated (0 when not a fault campaign).
    pub faults: u64,
    /// Clock cycles simulated.
    pub cycles: u64,
    /// Wall-clock seconds of the measured section.
    pub wall_seconds: f64,
    /// Throughput in millions of lane-cycles per second: simulation
    /// effort, gated only for records without faults (see
    /// [`LedgerRecord::gated_rate`]).
    pub mlane_cps: f64,
    /// Useful ÷ spent lane-cycles of a fault campaign (the share of
    /// simulated lanes that carried a live fault); `None` for other runs
    /// and for records written before the field existed.
    pub lane_utilization: Option<f64>,
    /// Weighted fault coverage percent, when the run graded coverage.
    pub coverage_pct: Option<f64>,
    /// Weighted faults forensics classified as structurally untestable
    /// (0 when forensics did not run — schema 2).
    pub untestable_faults: u64,
    /// Testable coverage percent — `detected / (total − untestable)` —
    /// when forensics ran (schema 2).
    pub testable_coverage: Option<f64>,
    /// Detection-latency histogram (`LatencyHistogram::to_json` form),
    /// `Value::Null` when absent.
    pub latency: Value,
    /// Free-form extras (seeds/sec, divergences, speedup, ...).
    pub extra: Map,
}

impl LedgerRecord {
    /// A record with the current schema, the current time, and the
    /// working tree's git description; everything else zeroed for the
    /// caller to fill in.
    pub fn now(kind: &str, cmd: &str) -> LedgerRecord {
        LedgerRecord {
            schema: SCHEMA_VERSION,
            ts: unix_now(),
            git: git_describe(),
            kind: kind.to_string(),
            cmd: cmd.to_string(),
            netlist: String::new(),
            threads: 0,
            engine: "compiled".to_string(),
            lanes: 64,
            shards: 1,
            faults: 0,
            cycles: 0,
            wall_seconds: 0.0,
            mlane_cps: 0.0,
            lane_utilization: None,
            coverage_pct: None,
            untestable_faults: 0,
            testable_coverage: None,
            latency: Value::Null,
            extra: Map::new(),
        }
    }

    /// Graded faults per wall second, for a record that graded faults.
    pub fn faults_per_sec(&self) -> Option<f64> {
        (self.faults > 0 && self.wall_seconds > 0.0).then(|| self.faults as f64 / self.wall_seconds)
    }

    /// The throughput the regression gate compares:
    /// [`LedgerRecord::faults_per_sec`] where the record has it, else
    /// `mlane_cps`.
    pub fn gated_rate(&self) -> f64 {
        self.faults_per_sec().unwrap_or(self.mlane_cps)
    }

    /// Unit of [`LedgerRecord::gated_rate`].
    pub fn gated_unit(&self) -> &'static str {
        match self.faults_per_sec() {
            Some(_) => "faults/s",
            None => "Mlane-cyc/s",
        }
    }

    /// Serialize to the JSONL object form.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("v".into(), Value::U64(self.schema));
        m.insert("ts".into(), Value::U64(self.ts));
        m.insert("git".into(), Value::String(self.git.clone()));
        m.insert("kind".into(), Value::String(self.kind.clone()));
        m.insert("cmd".into(), Value::String(self.cmd.clone()));
        m.insert("netlist".into(), Value::String(self.netlist.clone()));
        m.insert("threads".into(), Value::U64(self.threads));
        m.insert("engine".into(), Value::String(self.engine.clone()));
        m.insert("lanes".into(), Value::U64(self.lanes));
        m.insert("shards".into(), Value::U64(self.shards));
        m.insert("faults".into(), Value::U64(self.faults));
        m.insert("cycles".into(), Value::U64(self.cycles));
        m.insert("wall_seconds".into(), Value::F64(self.wall_seconds));
        m.insert("mlane_cps".into(), Value::F64(self.mlane_cps));
        if let Some(u) = self.lane_utilization {
            m.insert("lane_utilization".into(), Value::F64(u));
        }
        m.insert(
            "coverage_pct".into(),
            match self.coverage_pct {
                Some(p) => Value::F64(p),
                None => Value::Null,
            },
        );
        m.insert(
            "untestable_faults".into(),
            Value::U64(self.untestable_faults),
        );
        m.insert(
            "testable_coverage".into(),
            match self.testable_coverage {
                Some(p) => Value::F64(p),
                None => Value::Null,
            },
        );
        m.insert("latency".into(), self.latency.clone());
        m.insert("extra".into(), Value::Object(self.extra.clone()));
        Value::Object(m)
    }

    /// Parse a record; `None` when the line is not a ledger object or
    /// its schema is newer than this reader understands.
    pub fn from_json(v: &Value) -> Option<LedgerRecord> {
        let o = v.as_object()?;
        let schema = o.get("v")?.as_u64()?;
        if schema > SCHEMA_VERSION {
            return None;
        }
        Some(LedgerRecord {
            schema,
            ts: o.get("ts")?.as_u64()?,
            git: o.get("git")?.as_str()?.to_string(),
            kind: o.get("kind")?.as_str()?.to_string(),
            cmd: o
                .get("cmd")
                .and_then(|c| c.as_str())
                .unwrap_or("")
                .to_string(),
            netlist: o
                .get("netlist")
                .and_then(|c| c.as_str())
                .unwrap_or("")
                .to_string(),
            threads: o.get("threads").and_then(|t| t.as_u64()).unwrap_or(0),
            engine: o
                .get("engine")
                .and_then(|e| e.as_str())
                .unwrap_or("interp")
                .to_string(),
            lanes: o.get("lanes").and_then(|t| t.as_u64()).unwrap_or(64),
            shards: o.get("shards").and_then(|t| t.as_u64()).unwrap_or(1),
            faults: o.get("faults").and_then(|t| t.as_u64()).unwrap_or(0),
            cycles: o.get("cycles").and_then(|t| t.as_u64()).unwrap_or(0),
            wall_seconds: o
                .get("wall_seconds")
                .and_then(|t| t.as_f64())
                .unwrap_or(0.0),
            mlane_cps: o.get("mlane_cps").and_then(|t| t.as_f64()).unwrap_or(0.0),
            lane_utilization: o.get("lane_utilization").and_then(|t| t.as_f64()),
            coverage_pct: o.get("coverage_pct").and_then(|t| t.as_f64()),
            untestable_faults: o
                .get("untestable_faults")
                .and_then(|t| t.as_u64())
                .unwrap_or(0),
            testable_coverage: o.get("testable_coverage").and_then(|t| t.as_f64()),
            latency: o.get("latency").cloned().unwrap_or(Value::Null),
            extra: o
                .get("extra")
                .and_then(|e| e.as_object())
                .cloned()
                .unwrap_or_default(),
        })
    }
}

/// Seconds since the Unix epoch.
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// `git describe --always --dirty` of the current working directory, or
/// `"unknown"` when git is unavailable (e.g. running from a tarball).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Format a Unix timestamp as `YYYY-MM-DD HH:MM:SS` UTC (civil-from-days
/// algorithm; no external time crate available offline).
pub fn format_utc(ts: u64) -> String {
    let secs_of_day = ts % 86_400;
    let days = (ts / 86_400) as i64;
    // Howard Hinnant's civil_from_days, shifted to the 0000-03-01 epoch.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02} {:02}:{:02}:{:02}",
        y,
        m,
        d,
        secs_of_day / 3600,
        (secs_of_day / 60) % 60,
        secs_of_day % 60
    )
}

/// Append one record to the ledger file, creating parent directories as
/// needed. Each record is one line; concurrent appenders interleave at
/// line granularity on any POSIX filesystem (O_APPEND single write).
pub fn append(path: impl AsRef<Path>, record: &LedgerRecord) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let line = serde_json::to_string(&record.to_json())
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    f.write_all(line.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(())
}

/// Load every parseable record of a ledger file, in file order, plus
/// the count of skipped (unparseable or newer-schema) lines. A missing
/// file is an empty ledger, not an error.
pub fn load(path: impl AsRef<Path>) -> std::io::Result<(Vec<LedgerRecord>, usize)> {
    let text = match std::fs::read_to_string(path.as_ref()) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str(line)
            .ok()
            .and_then(|v| LedgerRecord::from_json(&v))
        {
            Some(r) => records.push(r),
            None => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// Which earlier record the gate compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// The best (highest-throughput / highest-coverage) comparable
    /// earlier record — catches slow drift across many runs.
    Best,
    /// The most recent comparable earlier record — catches a single
    /// regressing change.
    Last,
}

/// Regression-gate thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// Baseline selection policy.
    pub baseline: Baseline,
    /// Maximum tolerated throughput drop, percent of baseline (default
    /// 10.0). Throughput ([`LedgerRecord::gated_rate`]) is compared only
    /// between records with equal kind, netlist, faults, threads,
    /// engine, lanes and shards.
    pub max_throughput_drop_pct: f64,
    /// Maximum tolerated coverage drop, in percentage points (default
    /// 0.0 — any drop fails). Compared between records with equal kind,
    /// netlist, and faults (coverage is thread-count invariant).
    pub max_coverage_drop_pct: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            baseline: Baseline::Best,
            max_throughput_drop_pct: 10.0,
            max_coverage_drop_pct: 0.0,
        }
    }
}

/// One gate finding (pass or fail, with the numbers behind it).
#[derive(Debug, Clone, PartialEq)]
pub struct GateFinding {
    /// What was compared (`"throughput"` or `"coverage"`).
    pub metric: String,
    /// Latest value.
    pub current: f64,
    /// Baseline value.
    pub baseline: f64,
    /// Drop relative to baseline (percent for throughput, percentage
    /// points for coverage); negative means an improvement.
    pub drop: f64,
    /// Whether the drop exceeds the configured threshold.
    pub regressed: bool,
}

/// Result of gating the latest ledger record.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Overall verdict: true iff no finding regressed.
    pub pass: bool,
    /// Comparisons performed (empty when no comparable baseline
    /// exists — which passes, a first run cannot regress).
    pub findings: Vec<GateFinding>,
    /// Human-readable notes (baseline provenance, skipped checks).
    pub notes: Vec<String>,
}

fn comparable_throughput(a: &LedgerRecord, b: &LedgerRecord) -> bool {
    a.kind == b.kind
        && a.netlist == b.netlist
        && a.faults == b.faults
        && a.threads == b.threads
        && a.engine == b.engine
        && a.lanes == b.lanes
        && a.shards == b.shards
}

fn comparable_coverage(a: &LedgerRecord, b: &LedgerRecord) -> bool {
    // Coverage is shard-invariant by construction (the merge is
    // bit-identical), but daemon-sharded records still form their own
    // baseline lineage: they must never gate, or serve as baseline for,
    // single-shot history.
    a.kind == b.kind && a.netlist == b.netlist && a.faults == b.faults && a.shards == b.shards
}

/// The baseline for one gated metric: among `prior` records that are
/// `comparable` to `latest` and carry the metric (`value` is `Some`),
/// the best or the last one as `baseline` says, with its value.
fn baseline_of<'a>(
    prior: &'a [LedgerRecord],
    latest: &LedgerRecord,
    comparable: fn(&LedgerRecord, &LedgerRecord) -> bool,
    value: impl Fn(&LedgerRecord) -> Option<f64>,
    baseline: Baseline,
) -> Option<(&'a LedgerRecord, f64)> {
    let candidates = prior
        .iter()
        .filter(|r| comparable(r, latest))
        .filter_map(|r| Some((r, value(r)?)));
    match baseline {
        Baseline::Best => candidates.max_by(|a, b| a.1.total_cmp(&b.1)),
        Baseline::Last => candidates.last(),
    }
}

/// Gate the last record of `records` against earlier comparable ones.
///
/// Returns a passing report with a note when the ledger holds fewer
/// than two records or no comparable baseline exists.
pub fn check(records: &[LedgerRecord], cfg: &GateConfig) -> GateReport {
    let mut notes = Vec::new();
    let Some((latest, prior)) = records.split_last() else {
        return GateReport {
            pass: true,
            findings: Vec::new(),
            notes: vec!["ledger is empty; nothing to gate".into()],
        };
    };
    let mut findings = Vec::new();

    // Throughput.
    let tp_base = baseline_of(
        prior,
        latest,
        comparable_throughput,
        |r| Some(r.gated_rate()).filter(|&v| v > 0.0),
        cfg.baseline,
    );
    match tp_base {
        Some((base, then)) if latest.gated_rate() > 0.0 => {
            let now = latest.gated_rate();
            let drop = 100.0 * (then - now) / then;
            findings.push(GateFinding {
                metric: "throughput".into(),
                current: now,
                baseline: then,
                drop,
                regressed: drop > cfg.max_throughput_drop_pct,
            });
            notes.push(format!(
                "throughput baseline: {} {} from {} ({})",
                fmt2(then),
                base.gated_unit(),
                base.git,
                format_utc(base.ts)
            ));
        }
        _ => notes.push(format!(
            "no comparable throughput baseline for kind `{}` (netlist {}, {} faults, {} threads, {} engine, {} lanes, {} shard(s))",
            latest.kind, latest.netlist, latest.faults, latest.threads, latest.engine,
            latest.lanes, latest.shards
        )),
    }

    // Coverage.
    if let Some(cov) = latest.coverage_pct {
        let cov_base = baseline_of(
            prior,
            latest,
            comparable_coverage,
            |r| r.coverage_pct,
            cfg.baseline,
        );
        match cov_base {
            Some((_, base_cov)) => {
                let drop = base_cov - cov;
                findings.push(GateFinding {
                    metric: "coverage".into(),
                    current: cov,
                    baseline: base_cov,
                    drop,
                    regressed: drop > cfg.max_coverage_drop_pct + 1e-9,
                });
            }
            None => notes.push(format!(
                "no comparable coverage baseline for kind `{}`",
                latest.kind
            )),
        }
    } else {
        notes.push("latest record carries no coverage; coverage gate skipped".into());
    }

    // Testable coverage (schema 2): same comparability key and drop
    // threshold as raw coverage, gated only when both sides ran
    // forensics — version-1 baselines never block a schema-2 run.
    if let Some(tcov) = latest.testable_coverage {
        let base = baseline_of(
            prior,
            latest,
            comparable_coverage,
            |r| r.testable_coverage,
            cfg.baseline,
        );
        match base {
            Some((_, base_cov)) => {
                let drop = base_cov - tcov;
                findings.push(GateFinding {
                    metric: "testable_coverage".into(),
                    current: tcov,
                    baseline: base_cov,
                    drop,
                    regressed: drop > cfg.max_coverage_drop_pct + 1e-9,
                });
            }
            None => notes.push(format!(
                "no comparable testable-coverage baseline for kind `{}`",
                latest.kind
            )),
        }
    }

    GateReport {
        pass: findings.iter().all(|f| !f.regressed),
        findings,
        notes,
    }
}

fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

/// Render the ledger as per-kind trend tables: faults/s and Mlane-cyc/s
/// per run, the gated rate's delta against the best comparable earlier
/// run, and coverage with its delta against the previous one.
pub fn trend_table(records: &[LedgerRecord]) -> String {
    if records.is_empty() {
        return "(ledger is empty)\n".to_string();
    }
    let mut kinds: Vec<&str> = Vec::new();
    for r in records {
        if !kinds.contains(&r.kind.as_str()) {
            kinds.push(&r.kind);
        }
    }
    let mut out = String::new();
    for kind in kinds {
        let rows: Vec<&LedgerRecord> = records.iter().filter(|r| r.kind == kind).collect();
        out.push_str(&format!("== {kind} ({} run(s)) ==\n", rows.len()));
        out.push_str(&format!(
            "{:<20} {:<18} {:>3} {:>8} {:>5} {:>3} {:>8} {:>10} {:>12} {:>9} {:>8} {:>8}\n",
            "when (UTC)",
            "git",
            "thr",
            "engine",
            "lanes",
            "sh",
            "faults",
            "faults/s",
            "Mlane-cyc/s",
            "Δbest%",
            "cov%",
            "Δcov"
        ));
        for (i, r) in rows.iter().enumerate() {
            // Gated rate against the best comparable earlier row.
            let best = rows[..i]
                .iter()
                .filter(|p| comparable_throughput(p, r) && p.gated_rate() > 0.0)
                .map(|p| p.gated_rate())
                .fold(f64::NAN, f64::max);
            let dbest = if best.is_nan() || r.gated_rate() <= 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}", 100.0 * (r.gated_rate() - best) / best)
            };
            let faults_per_s = r
                .faults_per_sec()
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
            let prev_cov = rows[..i]
                .iter()
                .rev()
                .filter(|p| comparable_coverage(p, r))
                .find_map(|p| p.coverage_pct);
            let dcov = match (r.coverage_pct, prev_cov) {
                (Some(c), Some(p)) => format!("{:+.2}", c - p),
                _ => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<20} {:<18} {:>3} {:>8} {:>5} {:>3} {:>8} {:>10} {:>12.2} {:>9} {:>8} {:>8}\n",
                format_utc(r.ts),
                truncate(&r.git, 18),
                r.threads,
                truncate(&r.engine, 8),
                r.lanes,
                r.shards,
                r.faults,
                faults_per_s,
                r.mlane_cps,
                dbest,
                r.coverage_pct
                    .map(|c| format!("{c:.2}"))
                    .unwrap_or_else(|| "-".to_string()),
                dcov,
            ));
        }
        out.push('\n');
    }
    out
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Machine-readable trend payload (`results/BENCH_trend.json`).
pub fn trend_json(records: &[LedgerRecord], gate: Option<&GateReport>) -> Value {
    let runs: Vec<Value> = records.iter().map(|r| r.to_json()).collect();
    let mut root = Map::new();
    root.insert("schema".into(), Value::U64(SCHEMA_VERSION));
    root.insert("runs".into(), Value::Array(runs));
    if let Some(g) = gate {
        let findings: Vec<Value> = g
            .findings
            .iter()
            .map(|f| {
                serde_json::json!({
                    "metric": f.metric.as_str(),
                    "current": f.current,
                    "baseline": f.baseline,
                    "drop": f.drop,
                    "regressed": f.regressed,
                })
            })
            .collect();
        root.insert(
            "gate".into(),
            serde_json::json!({
                "pass": g.pass,
                "findings": Value::Array(findings),
                "notes": Value::Array(
                    g.notes.iter().map(|n| Value::String(n.clone())).collect()
                ),
            }),
        );
    }
    Value::Object(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record graded at `rate` faults/s, which is also its Mlane-cyc/s.
    fn rec(kind: &str, threads: u64, rate: f64, cov: Option<f64>) -> LedgerRecord {
        LedgerRecord {
            schema: SCHEMA_VERSION,
            ts: 1_754_550_000,
            git: "abc1234".into(),
            kind: kind.into(),
            cmd: format!("{kind} --test"),
            netlist: "n1/g2/d3".into(),
            threads,
            engine: "interp".into(),
            lanes: 64,
            shards: 1,
            faults: 8000,
            cycles: 1_000_000,
            wall_seconds: 8000.0 / rate,
            mlane_cps: rate,
            lane_utilization: None,
            coverage_pct: cov,
            untestable_faults: 0,
            testable_coverage: None,
            latency: Value::Null,
            extra: Map::new(),
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut r = rec("tables-stats", 8, 123.456, Some(92.44));
        r.engine = "compiled".into();
        r.lanes = 256;
        r.shards = 4;
        r.lane_utilization = Some(0.649);
        r.extra.insert("speedup".into(), Value::F64(3.5));
        r.latency = serde_json::json!([{ "lo": 0u64, "hi": 1u64, "count": 5u64 }]);
        let line = serde_json::to_string(&r.to_json()).unwrap();
        let parsed = LedgerRecord::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn records_without_engine_fields_parse_as_interp_64() {
        // A pre-engine ledger line (no `engine`/`lanes` keys) must keep
        // gating interpreted 64-lane runs, not compiled ones.
        let v = serde_json::json!({
            "v": SCHEMA_VERSION, "ts": 1u64, "git": "x", "kind": "tables-stats",
            "netlist": "n1/g2/d3", "threads": 8u64, "faults": 8000u64,
            "mlane_cps": 100.0,
        });
        let r = LedgerRecord::from_json(&v).unwrap();
        assert_eq!(r.engine, "interp");
        assert_eq!(r.lanes, 64);
        assert_eq!(r.shards, 1, "pre-daemon records are single-shot");
        assert_eq!(r.lane_utilization, None, "older rows carry no utilization");
    }

    #[test]
    fn schema_1_rows_load_without_forensics_fields() {
        // A version-1 line (no untestable/testable keys) must keep
        // loading under the schema-2 reader with neutral defaults.
        let v = serde_json::json!({
            "v": 1u64, "ts": 1u64, "git": "x", "kind": "tables-forensics",
            "netlist": "n1/g2/d3", "threads": 2u64, "faults": 100u64,
            "mlane_cps": 10.0, "coverage_pct": 90.0,
        });
        let r = LedgerRecord::from_json(&v).unwrap();
        assert_eq!(r.untestable_faults, 0);
        assert_eq!(r.testable_coverage, None);
    }

    #[test]
    fn testable_coverage_gates_only_between_forensics_runs() {
        let cfg = GateConfig::default();
        let mut base = rec("tables-forensics", 2, 10.0, Some(92.0));
        base.testable_coverage = Some(97.0);
        base.untestable_faults = 30;
        let mut dropped = base.clone();
        dropped.testable_coverage = Some(95.0);
        let rep = check(&[base.clone(), dropped].to_vec(), &cfg);
        assert!(
            rep.findings
                .iter()
                .any(|f| f.metric == "testable_coverage" && f.regressed),
            "{rep:?}"
        );
        // A version-1 baseline without the field never gates a
        // forensics run (and round-tripping keeps the new fields).
        let mut old = rec("tables-forensics", 2, 10.0, Some(92.0));
        old.schema = 1;
        let rep = check(&[old, base.clone()].to_vec(), &cfg);
        assert!(rep.pass, "{rep:?}");
        let line = serde_json::to_string(&base.to_json()).unwrap();
        let parsed = LedgerRecord::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(parsed, base);
    }

    #[test]
    fn gate_never_compares_across_shard_counts() {
        let cfg = GateConfig::default();
        // A fast single-shot baseline followed by a slower (and
        // lower-coverage, e.g. differently sampled) 4-shard daemon run:
        // neither throughput nor coverage may gate across the shard
        // boundary, in either direction.
        let mut sharded = rec("tables-stats", 8, 40.0, Some(80.0));
        sharded.shards = 4;
        let records = vec![rec("tables-stats", 8, 100.0, Some(92.0)), sharded.clone()];
        let rep = check(&records, &cfg);
        assert!(rep.pass, "{rep:?}");
        assert!(rep.findings.is_empty(), "{rep:?}");
        // And the sharded run must not become the baseline for a later
        // single-shot run either.
        let records = vec![
            sharded.clone(),
            rec("tables-stats", 8, 100.0, Some(92.0)),
            rec("tables-stats", 8, 30.0, Some(92.0)),
        ];
        let rep = check(&records, &cfg);
        assert!(
            rep.findings
                .iter()
                .any(|f| f.metric == "throughput" && f.regressed),
            "single-shot lineage still gates itself: {rep:?}"
        );
        // Sharded runs gate against their own lineage.
        let mut slower = rec("tables-stats", 8, 20.0, Some(80.0));
        slower.shards = 4;
        slower.coverage_pct = Some(79.0);
        let rep = check(&[sharded, slower].to_vec(), &cfg);
        assert!(!rep.pass, "{rep:?}");
    }

    #[test]
    fn throughput_gate_ignores_different_engines_and_lane_widths() {
        let cfg = GateConfig::default();
        let mut compiled = rec("tables-stats", 8, 30.0, Some(92.0));
        compiled.engine = "compiled".into();
        compiled.lanes = 256;
        // A fast compiled baseline followed by a slower interpreted run:
        // different engines are different experiments, so no throughput
        // finding (and vice versa — an old interp baseline must not gate
        // a new compiled run).
        let records = vec![rec("tables-stats", 8, 100.0, Some(92.0)), compiled.clone()];
        let rep = check(&records, &cfg);
        assert!(rep.pass, "{rep:?}");
        assert!(rep.findings.iter().all(|f| f.metric != "throughput"));
        // Coverage IS still compared across engines (bit-identical
        // detections make it comparable).
        assert!(rep.findings.iter().any(|f| f.metric == "coverage"));
        // Same engine, different lane width: also incomparable.
        let mut wide = rec("tables-stats", 8, 10.0, Some(92.0));
        wide.engine = "compiled".into();
        wide.lanes = 512;
        let rep = check(&[compiled, wide].to_vec(), &cfg);
        assert!(rep.findings.iter().all(|f| f.metric != "throughput"));
    }

    #[test]
    fn newer_schema_records_are_skipped_not_errors() {
        let v = serde_json::json!({ "v": SCHEMA_VERSION + 1, "ts": 1u64, "git": "x", "kind": "k" });
        assert!(LedgerRecord::from_json(&v).is_none());
    }

    #[test]
    fn append_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("sbst-ledger-{}", std::process::id()));
        let path = dir.join("LEDGER.jsonl");
        let _ = std::fs::remove_file(&path);
        let a = rec("difftest", 4, 50.0, None);
        let b = rec("difftest", 4, 60.0, None);
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        let (records, skipped) = load(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records, vec![a, b]);
        // Unknown lines are skipped, valid ones still load.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"not json\n{\"v\":999,\"ts\":1,\"git\":\"x\",\"kind\":\"k\"}\n")
            .unwrap();
        let (records, skipped) = load(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(skipped, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_ledger_is_empty() {
        let (records, skipped) = load("/nonexistent/LEDGER.jsonl").unwrap();
        assert!(records.is_empty());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn gate_passes_with_no_baseline_and_fails_on_throughput_drop() {
        let cfg = GateConfig::default();
        // Single record: pass.
        let one = vec![rec("tables-stats", 8, 100.0, Some(92.0))];
        assert!(check(&one, &cfg).pass);
        // 5% drop: within the 10% threshold.
        let ok = vec![
            rec("tables-stats", 8, 100.0, Some(92.0)),
            rec("tables-stats", 8, 95.0, Some(92.0)),
        ];
        let rep = check(&ok, &cfg);
        assert!(rep.pass, "{rep:?}");
        // 11% drop: fail.
        let bad = vec![
            rec("tables-stats", 8, 100.0, Some(92.0)),
            rec("tables-stats", 8, 89.0, Some(92.0)),
        ];
        let rep = check(&bad, &cfg);
        assert!(!rep.pass, "{rep:?}");
        assert!(rep
            .findings
            .iter()
            .any(|f| f.metric == "throughput" && f.regressed));
    }

    #[test]
    fn gate_follows_faults_per_second_not_lane_cycles() {
        let cfg = GateConfig::default();
        // Compaction: half the wall time for the same faults, on fewer
        // simulated lane-cycles per second. Faults/s doubled — a pass,
        // though Mlane-cyc/s fell 40%.
        let base = rec("tables-stats", 2, 100.0, None);
        let mut compacted = base.clone();
        compacted.wall_seconds = base.wall_seconds / 2.0;
        compacted.mlane_cps = 60.0;
        let rep = check(&[base.clone(), compacted.clone()], &cfg);
        assert!(rep.pass, "{rep:?}");
        let tp = rep
            .findings
            .iter()
            .find(|f| f.metric == "throughput")
            .unwrap();
        assert_eq!((tp.current, tp.baseline), (200.0, 100.0));
        // The reverse — more lane-cycles per second, fewer faults per
        // second — is a regression.
        let mut busier = base.clone();
        busier.wall_seconds = base.wall_seconds * 2.0;
        busier.mlane_cps = 150.0;
        let rep = check(&[base, busier], &cfg);
        assert!(!rep.pass, "{rep:?}");
        assert!(rep.notes.iter().any(|n| n.contains("faults/s")), "{rep:?}");
    }

    #[test]
    fn records_without_faults_gate_on_lane_cycles() {
        let cfg = GateConfig::default();
        let mut base = rec("difftest", 2, 100.0, None);
        base.faults = 0;
        let mut slower = base.clone();
        slower.mlane_cps = 80.0;
        let rep = check(&[base.clone(), slower], &cfg);
        assert!(!rep.pass, "{rep:?}");
        assert!(
            rep.notes.iter().any(|n| n.contains("Mlane-cyc/s")),
            "{rep:?}"
        );
        // Wall time alone does not move it.
        let mut longer = base.clone();
        longer.wall_seconds *= 2.0;
        assert!(check(&[base, longer], &cfg).pass);
    }

    #[test]
    fn gate_fails_on_any_coverage_drop_by_default() {
        let cfg = GateConfig::default();
        let bad = vec![
            rec("tables-stats", 8, 100.0, Some(92.0)),
            rec("tables-stats", 8, 100.0, Some(91.9)),
        ];
        let rep = check(&bad, &cfg);
        assert!(!rep.pass, "{rep:?}");
        assert!(rep
            .findings
            .iter()
            .any(|f| f.metric == "coverage" && f.regressed));
        // Coverage improvements pass.
        let good = vec![
            rec("tables-stats", 8, 100.0, Some(92.0)),
            rec("tables-stats", 8, 100.0, Some(92.5)),
        ];
        assert!(check(&good, &cfg).pass);
    }

    #[test]
    fn throughput_gate_ignores_different_thread_counts() {
        let cfg = GateConfig::default();
        // An 8-thread run followed by a 1-thread run: not comparable,
        // so the (huge) apparent drop must not fail the gate.
        let records = vec![
            rec("tables-stats", 8, 400.0, Some(92.0)),
            rec("tables-stats", 1, 60.0, Some(92.0)),
        ];
        let rep = check(&records, &cfg);
        assert!(rep.pass, "{rep:?}");
        assert!(rep.findings.iter().all(|f| f.metric != "throughput"));
        // Coverage is still compared across thread counts.
        assert!(rep.findings.iter().any(|f| f.metric == "coverage"));
    }

    #[test]
    fn baseline_last_compares_to_previous_not_best() {
        let cfg = GateConfig {
            baseline: Baseline::Last,
            ..GateConfig::default()
        };
        // Best was 200, but last comparable was 100 → 95 is only a 5%
        // drop vs last, pass. Against Best it would fail.
        let records = vec![
            rec("tables-stats", 8, 200.0, None),
            rec("tables-stats", 8, 100.0, None),
            rec("tables-stats", 8, 95.0, None),
        ];
        assert!(check(&records, &cfg).pass);
        assert!(!check(&records, &GateConfig::default()).pass);
    }

    #[test]
    fn trend_table_renders_deltas() {
        let records = vec![
            rec("tables-stats", 8, 100.0, Some(92.0)),
            rec("tables-stats", 8, 110.0, Some(92.5)),
            rec("difftest", 4, 50.0, None),
        ];
        let t = trend_table(&records);
        assert!(t.contains("== tables-stats (2 run(s)) =="), "{t}");
        assert!(t.contains("== difftest (1 run(s)) =="), "{t}");
        assert!(t.contains("+10.0"), "{t}");
        assert!(t.contains("+0.50"), "{t}");
        let j = trend_json(&records, Some(&check(&records, &GateConfig::default())));
        assert_eq!(j["runs"].as_array().unwrap().len(), 3);
        assert!(j["gate"]["pass"].as_bool().is_some());
    }

    #[test]
    fn format_utc_is_civil() {
        assert_eq!(format_utc(0), "1970-01-01 00:00:00");
        assert_eq!(format_utc(951_782_400), "2000-02-29 00:00:00");
        assert_eq!(format_utc(1_754_550_000), "2025-08-07 07:00:00");
    }
}
