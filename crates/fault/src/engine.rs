//! Engine selection: which simulation back-end a campaign runs on and
//! at what lane width.
//!
//! Two engines produce bit-identical per-fault `Detection` results:
//!
//! * **Interp** — the original interpreted levelized walk
//!   ([`crate::sim::ParallelSim`]), fixed at 64 lanes. Retained as the
//!   differential reference.
//! * **Compiled** — the lowered straight-line kernel
//!   ([`crate::kernel::CompiledKernel`] + [`crate::wide::WideSim`]),
//!   64–512 lanes. The default.
//!
//! Both implement [`crate::sim::LaneSim`], so one campaign runner and
//! one testbench per core drive either. Configuration resolves from the
//! environment (`SBST_ENGINE`, `SBST_LANES`) so every binary and test
//! can flip engines without plumbing flags, and from CLI parse helpers
//! used by `bench --bin tables`.

/// Which simulation back-end to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Interpreted 64-lane reference engine.
    Interp,
    /// Compiled multi-word bit-parallel engine.
    Compiled,
}

impl EngineKind {
    /// Stable lowercase name, as recorded in stats and ledger entries.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Interp => "interp",
            EngineKind::Compiled => "compiled",
        }
    }

    /// Parse a CLI/env spelling (`interp` | `compiled`).
    pub fn parse(s: &str) -> Result<EngineKind, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "interp" | "interpreted" => Ok(EngineKind::Interp),
            "compiled" | "compile" | "kernel" => Ok(EngineKind::Compiled),
            other => Err(format!("unknown engine '{other}' (expected interp|compiled)")),
        }
    }
}

/// Resolved engine configuration for a campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Back-end to use.
    pub kind: EngineKind,
    /// u64 words per net for the compiled engine (1, 2, 4 or 8 —
    /// 64–512 lanes). Ignored by the interpreted engine (always 1).
    pub lane_words: usize,
}

impl Default for EngineConfig {
    /// Compiled, 256 lanes.
    fn default() -> Self {
        EngineConfig::compiled(256)
    }
}

impl EngineConfig {
    /// The interpreted reference engine (64 lanes).
    pub fn interp() -> EngineConfig {
        EngineConfig {
            kind: EngineKind::Interp,
            lane_words: 1,
        }
    }

    /// Compiled engine at a given lane count (64/128/256/512).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not a supported width.
    pub fn compiled(lanes: usize) -> EngineConfig {
        EngineConfig {
            kind: EngineKind::Compiled,
            lane_words: Self::words_for_lanes(lanes).expect("unsupported lane count"),
        }
    }

    /// Effective lanes per batch.
    pub fn lanes(&self) -> usize {
        match self.kind {
            EngineKind::Interp => 64,
            EngineKind::Compiled => 64 * self.lane_words,
        }
    }

    /// Engine name as recorded in stats/ledger.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Map a lane count to words, if supported.
    pub fn words_for_lanes(lanes: usize) -> Option<usize> {
        match lanes {
            64 => Some(1),
            128 => Some(2),
            256 => Some(4),
            512 => Some(8),
            _ => None,
        }
    }

    /// Parse a lane count from a CLI/env spelling.
    pub fn parse_lanes(s: &str) -> Result<usize, String> {
        let n: usize = s
            .trim()
            .parse()
            .map_err(|_| format!("bad lane count '{s}'"))?;
        Self::words_for_lanes(n)
            .map(|_| n)
            .ok_or_else(|| format!("unsupported lane count {n} (expected 64|128|256|512)"))
    }

    /// Resolve from the environment: `SBST_ENGINE=interp|compiled`,
    /// `SBST_LANES=64|128|256|512`. Unset or malformed variables fall
    /// back to the defaults.
    pub fn from_env() -> EngineConfig {
        let mut cfg = EngineConfig::default();
        if let Ok(v) = std::env::var("SBST_ENGINE") {
            if let Ok(kind) = EngineKind::parse(&v) {
                cfg.kind = kind;
                if kind == EngineKind::Interp {
                    cfg.lane_words = 1;
                }
            }
        }
        if cfg.kind == EngineKind::Compiled {
            if let Ok(v) = std::env::var("SBST_LANES") {
                if let Ok(lanes) = Self::parse_lanes(&v) {
                    cfg.lane_words = lanes / 64;
                }
            }
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_compiled_256() {
        let c = EngineConfig::default();
        assert_eq!(c.kind, EngineKind::Compiled);
        assert_eq!(c.lanes(), 256);
        assert_eq!(c.name(), "compiled");
    }

    #[test]
    fn interp_is_pinned_to_64_lanes() {
        let c = EngineConfig::interp();
        assert_eq!(c.lanes(), 64);
        assert_eq!(c.name(), "interp");
    }

    #[test]
    fn lane_parsing_rejects_odd_widths() {
        assert_eq!(EngineConfig::parse_lanes("128"), Ok(128));
        assert!(EngineConfig::parse_lanes("100").is_err());
        assert!(EngineConfig::parse_lanes("zero").is_err());
        assert_eq!(EngineConfig::words_for_lanes(512), Some(8));
        assert_eq!(EngineConfig::words_for_lanes(96), None);
    }

    #[test]
    fn engine_names_round_trip() {
        for k in [EngineKind::Interp, EngineKind::Compiled] {
            assert_eq!(EngineKind::parse(k.name()), Ok(k));
        }
        assert!(EngineKind::parse("verilator").is_err());
    }
}
