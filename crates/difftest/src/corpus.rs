//! The regression corpus: minimal reproducers persisted as JSON and
//! replayed by `cargo test`.
//!
//! A corpus case stores the generator seed and data-region geometry (from
//! which the prologue and epilogue are regenerated bit-exactly), the —
//! possibly shrunk — body words, and optionally the injected fault that
//! the case reproduces. Fault sites are raw structural indices, so each
//! fault-bearing case also records a netlist fingerprint; when the
//! netlist evolves the stale case is *skipped* (reported, not failed)
//! rather than pinning the netlist forever. Fault-free cases replay
//! unconditionally — they assert the ISS and the netlist still agree on
//! that exact program.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fault::model::{Fault, FaultSite, Polarity};
use mips::gen::{random_parts, GenConfig, ProgramParts};
use netlist::Net;
use plasma::PlasmaCore;
use serde_json::{Map, Value};

use crate::oracle::PlasmaOracle;

/// Netlist fingerprint recorded with fault-bearing cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetlistSig {
    /// Net count.
    pub nets: usize,
    /// Gate count.
    pub gates: usize,
    /// Flip-flop count.
    pub dffs: usize,
}

impl NetlistSig {
    /// Fingerprint of a core's netlist.
    pub fn of(core: &PlasmaCore) -> NetlistSig {
        let nl = core.netlist();
        NetlistSig {
            nets: nl.num_nets(),
            gates: nl.gates().len(),
            dffs: nl.dffs().len(),
        }
    }
}

/// A fault recorded in a corpus case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusFault {
    /// The structural fault.
    pub fault: Fault,
    /// Lane it is injected into (0 = fault the reference itself).
    pub lane: usize,
    /// Human-readable description (informational).
    pub describe: String,
    /// Fingerprint of the netlist the indices refer to.
    pub sig: NetlistSig,
}

/// One replayable corpus entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// Case name (also the suggested file stem).
    pub name: String,
    /// Generator seed (regenerates prologue/epilogue).
    pub seed: u64,
    /// Data-region base the program was generated with.
    pub data_base: u32,
    /// Data-region size the program was generated with.
    pub data_size: u32,
    /// Body words (possibly shrunk).
    pub body: Vec<u32>,
    /// Injected fault, if the case reproduces a fault detection.
    pub fault: Option<CorpusFault>,
    /// Whether the oracle is expected to report a divergence/detection.
    pub expect_divergence: bool,
    /// Expected first divergent cycle, when known (exact-match checked —
    /// the whole stack is deterministic).
    pub expect_cycle: Option<u64>,
}

impl CorpusCase {
    /// Rebuild the program: prologue/epilogue from the seed, recorded
    /// body words in between.
    pub fn parts(&self) -> ProgramParts {
        let cfg = GenConfig {
            data_base: self.data_base,
            data_size: self.data_size,
            ..GenConfig::default()
        };
        let mut parts = random_parts(self.seed, &cfg);
        parts.body = self.body.clone();
        parts
    }

    /// Serialize to a JSON document.
    pub fn to_json(&self) -> Value {
        let mut o = Map::new();
        o.insert("name".into(), Value::String(self.name.clone()));
        o.insert("seed".into(), Value::U64(self.seed));
        o.insert("data_base".into(), Value::U64(self.data_base as u64));
        o.insert("data_size".into(), Value::U64(self.data_size as u64));
        o.insert(
            "body".into(),
            Value::Array(
                self.body
                    .iter()
                    .map(|&w| Value::String(format!("{w:08x}")))
                    .collect(),
            ),
        );
        o.insert(
            "fault".into(),
            match &self.fault {
                None => Value::Null,
                Some(f) => {
                    let (kind, a, b) = match f.fault.site {
                        FaultSite::Stem(n) => ("stem", n.index() as u64, 0),
                        FaultSite::Pin { gate, pin } => ("pin", gate as u64, pin as u64),
                        FaultSite::DffD(d) => ("dffd", d as u64, 0),
                    };
                    let mut fo = Map::new();
                    fo.insert("kind".into(), Value::String(kind.into()));
                    fo.insert("a".into(), Value::U64(a));
                    fo.insert("b".into(), Value::U64(b));
                    fo.insert(
                        "polarity".into(),
                        Value::String(f.fault.polarity.short().into()),
                    );
                    fo.insert("lane".into(), Value::U64(f.lane as u64));
                    fo.insert("describe".into(), Value::String(f.describe.clone()));
                    fo.insert("nets".into(), Value::U64(f.sig.nets as u64));
                    fo.insert("gates".into(), Value::U64(f.sig.gates as u64));
                    fo.insert("dffs".into(), Value::U64(f.sig.dffs as u64));
                    Value::Object(fo)
                }
            },
        );
        o.insert(
            "expect_divergence".into(),
            Value::Bool(self.expect_divergence),
        );
        o.insert(
            "expect_cycle".into(),
            match self.expect_cycle {
                Some(c) => Value::U64(c),
                None => Value::Null,
            },
        );
        Value::Object(o)
    }

    /// Parse a JSON document.
    pub fn from_json(v: &Value) -> Result<CorpusCase, String> {
        let o = v.as_object().ok_or("corpus case must be an object")?;
        let str_field = |k: &str| -> Result<String, String> {
            o.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{k}`"))
        };
        let u64_field = |o: &Map, k: &str| -> Result<u64, String> {
            o.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer field `{k}`"))
        };
        let body = o
            .get("body")
            .and_then(Value::as_array)
            .ok_or("missing array field `body`")?
            .iter()
            .map(|w| {
                w.as_str()
                    .and_then(|s| u32::from_str_radix(s, 16).ok())
                    .ok_or_else(|| "body words must be 8-digit hex strings".to_string())
            })
            .collect::<Result<Vec<u32>, String>>()?;
        let fault = match o.get("fault") {
            None | Some(Value::Null) => None,
            Some(fv) => {
                let fo = fv.as_object().ok_or("fault must be an object")?;
                let kind = fo
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or("missing fault kind")?;
                let a = u64_field(fo, "a")?;
                let b = u64_field(fo, "b")?;
                let site = match kind {
                    "stem" => FaultSite::Stem(Net::from_index(a as usize)),
                    "pin" => FaultSite::Pin {
                        gate: a as u32,
                        pin: b as u8,
                    },
                    "dffd" => FaultSite::DffD(a as u32),
                    k => return Err(format!("unknown fault kind `{k}`")),
                };
                let polarity = match fo.get("polarity").and_then(Value::as_str) {
                    Some("sa0") => Polarity::StuckAt0,
                    Some("sa1") => Polarity::StuckAt1,
                    p => return Err(format!("bad polarity {p:?}")),
                };
                Some(CorpusFault {
                    fault: Fault { site, polarity },
                    lane: u64_field(fo, "lane")? as usize,
                    describe: fo
                        .get("describe")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    sig: NetlistSig {
                        nets: u64_field(fo, "nets")? as usize,
                        gates: u64_field(fo, "gates")? as usize,
                        dffs: u64_field(fo, "dffs")? as usize,
                    },
                })
            }
        };
        Ok(CorpusCase {
            name: str_field("name")?,
            seed: u64_field(o, "seed")?,
            data_base: u64_field(o, "data_base")? as u32,
            data_size: u64_field(o, "data_size")? as u32,
            body,
            fault,
            expect_divergence: o
                .get("expect_divergence")
                .and_then(Value::as_bool)
                .ok_or("missing bool field `expect_divergence`")?,
            expect_cycle: o.get("expect_cycle").and_then(Value::as_u64),
        })
    }
}

/// Result of replaying one corpus case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Behaved exactly as recorded.
    Pass,
    /// Not replayable against this netlist (stale fault indices).
    Skipped(String),
    /// Behavior changed — a regression.
    Fail(String),
}

/// Replay a case through an oracle compiled for `core`.
pub fn replay(case: &CorpusCase, core: &PlasmaCore, oracle: &mut PlasmaOracle) -> ReplayOutcome {
    let mut faults: Vec<(Fault, usize)> = Vec::new();
    if let Some(f) = &case.fault {
        let sig = NetlistSig::of(core);
        if sig != f.sig {
            return ReplayOutcome::Skipped(format!(
                "netlist fingerprint changed ({:?} -> {:?}); fault `{}` is stale",
                f.sig, sig, f.describe
            ));
        }
        faults.push((f.fault, f.lane));
    }
    let report = oracle.run(&case.parts().to_program(), &faults);
    let diverged = report.diverged();
    if diverged != case.expect_divergence {
        return ReplayOutcome::Fail(format!(
            "case `{}`: expected divergence={}, got {} (golden_cycles {:?})",
            case.name, case.expect_divergence, diverged, report.golden_cycles
        ));
    }
    if let Some(expect) = case.expect_cycle {
        let got = report
            .divergence
            .as_ref()
            .map(|d| d.cycle)
            .or_else(|| report.first_faulty_divergence().map(|(_, c)| c));
        if got != Some(expect) {
            return ReplayOutcome::Fail(format!(
                "case `{}`: expected first divergent cycle {expect}, got {got:?}",
                case.name
            ));
        }
    }
    ReplayOutcome::Pass
}

/// Load every `*.json` case in a directory, sorted by file name.
pub fn load_dir(dir: &Path) -> io::Result<Vec<(PathBuf, CorpusCase)>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let text = fs::read_to_string(&p)?;
        let v = serde_json::from_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e:?}", p.display()),
            )
        })?;
        let case = CorpusCase::from_json(&v).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", p.display()))
        })?;
        out.push((p, case));
    }
    Ok(out)
}

/// Persist a case as `<dir>/<name>.json` (creating the directory).
pub fn save(case: &CorpusCase, dir: &Path) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", case.name));
    let text = serde_json::to_string_pretty(&case.to_json())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    fs::write(&path, text + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let case = CorpusCase {
            name: "fault-g12-pin1-sa0".into(),
            seed: 42,
            data_base: 0x1000,
            data_size: 0x400,
            body: vec![0x0128_2021, 0, 0x1443_0002],
            fault: Some(CorpusFault {
                fault: Fault {
                    site: FaultSite::Pin { gate: 12, pin: 1 },
                    polarity: Polarity::StuckAt0,
                },
                lane: 1,
                describe: "g12/pin1 sa0".into(),
                sig: NetlistSig {
                    nets: 100,
                    gates: 90,
                    dffs: 10,
                },
            }),
            expect_divergence: true,
            expect_cycle: Some(17),
        };
        let text = serde_json::to_string_pretty(&case.to_json()).unwrap();
        let back = CorpusCase::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, case);

        let clean = CorpusCase {
            fault: None,
            expect_divergence: false,
            expect_cycle: None,
            ..case
        };
        let text = serde_json::to_string_pretty(&clean.to_json()).unwrap();
        let back = CorpusCase::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, clean);
    }
}
