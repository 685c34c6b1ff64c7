//! The production engine: how wide it runs, and the one place that
//! builds it.
//!
//! Every production simulator is the compiled engine — the netlist
//! lowered once into a straight-line kernel ([`crate::kernel`]) and
//! evaluated over 1–8 u64 words per net ([`crate::wide::WideSim`],
//! 64–512 lanes). [`EngineConfig`] carries the lane width;
//! [`EngineConfig::sim`] turns it into a simulator (cached kernel
//! lowering), and [`EngineConfig::grade`] is the campaign entry both
//! cores grade through: it times the lowering under the
//! [`ProfilePhase::Compile`] phase, exports the kernel metrics, and runs
//! [`campaign::run`].
//!
//! There is no other engine to select: widths are checked against each
//! other and against the serial scalar oracle in `tests/`. The width is
//! [`EngineConfig::default`] unless a caller sets it (`tables --lanes`
//! through [`EngineConfig::parse_lanes`], a job spec's `lanes`).

use std::time::Instant;

use netlist::Netlist;
use obs::{ProfilePhase, Telemetry};

use crate::campaign::{self, CampaignResult, Testbench};
use crate::model::FaultList;
use crate::wide::WideSim;

/// Lane width of the production engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// u64 words per net (1, 2, 4 or 8 — 64–512 lanes).
    pub lane_words: usize,
}

impl Default for EngineConfig {
    /// 256 lanes.
    fn default() -> Self {
        EngineConfig::compiled(256)
    }
}

impl EngineConfig {
    /// The compiled engine at a given lane count (64/128/256/512).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not a supported width.
    pub fn compiled(lanes: usize) -> EngineConfig {
        EngineConfig {
            lane_words: Self::words_for_lanes(lanes).expect("unsupported lane count"),
        }
    }

    /// The widest batch this configuration runs: each batch narrows to
    /// the smallest width that holds its faults (see [`campaign::run`]).
    pub fn lanes(&self) -> usize {
        64 * self.lane_words
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

    /// Parse a lane count from a CLI spelling.
    pub fn parse_lanes(s: &str) -> Result<usize, String> {
        let n: usize = s
            .trim()
            .parse()
            .map_err(|_| format!("bad lane count '{s}'"))?;
        Self::words_for_lanes(n)
            .map(|_| n)
            .ok_or_else(|| format!("unsupported lane count {n} (expected 64|128|256|512)"))
    }

    /// The production simulator of `netlist`, evaluated in `segments`
    /// (see [`crate::kernel::CompiledKernel::compile`]), at this width.
    /// The kernel comes from the fingerprint-keyed cache, so only the
    /// first simulator of a netlist pays the lowering.
    pub fn sim(self, netlist: &Netlist, segments: &[Vec<u32>]) -> WideSim {
        WideSim::new(crate::kernel::compile_cached(netlist, segments), self.lane_words)
    }

    /// Grade `faults` on the production engine at this width: build the
    /// simulator ([`EngineConfig::sim`]) and run [`campaign::run`] over
    /// the benches `factory` makes, on `threads` workers. The lowering
    /// (or cache probe) is timed under [`ProfilePhase::Compile`] and
    /// folded into the result's profile, and a `telemetry` registry
    /// receives `sbst_kernel_compile_ns_total` plus the kernel-cache
    /// metrics.
    /// Detections are bit-identical at every width and thread count.
    pub fn grade<T, F>(
        self,
        netlist: &Netlist,
        segments: &[Vec<u32>],
        faults: &FaultList,
        factory: F,
        threads: usize,
        telemetry: &Telemetry,
    ) -> CampaignResult
    where
        T: Testbench,
        F: Fn() -> T + Sync,
    {
        let before_compile = telemetry.profiler.snapshot();
        let compile_t0 = Instant::now();
        let proto = {
            let _compile = telemetry.profiler.scope(ProfilePhase::Compile);
            self.sim(netlist, segments)
        };
        if let Some(reg) = &telemetry.metrics {
            reg.counter(
                "sbst_kernel_compile_ns_total",
                "Wall time spent in compile_cached (lowering or cache probe)",
                &[],
            )
            .inc(compile_t0.elapsed().as_nanos() as u64);
            crate::kernel::export_cache_metrics(reg);
        }
        // The runner's profile window starts after this point, so fold
        // the lowering cost back into the reported profile.
        let compile_delta = telemetry.profiler.snapshot().since(&before_compile);
        let mut result = campaign::run(&proto, faults, factory, threads, telemetry);
        result.stats.profile.absorb(&compile_delta);
        result
    }
}

/// `netlist` evaluated as one segment at `lanes` lanes — the simulator
/// of vector benches, which drive no port mid-cycle.
pub(crate) fn flat_sim(netlist: &Netlist, lanes: usize) -> WideSim {
    EngineConfig::compiled(lanes).sim(netlist, &[netlist.topo_order().to_vec()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::VectorBench;

    #[test]
    fn default_is_256_lanes() {
        assert_eq!(EngineConfig::default().lanes(), 256);
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
    fn grade_runs_at_the_configured_width_and_profiles_the_lowering() {
        let mut b = netlist::NetlistBuilder::new("and");
        let a = b.input("a");
        let c = b.input("c");
        let y = b.and2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors: Vec<Vec<(&str, u64)>> =
            (0..4).map(|v| vec![("a", v & 1), ("c", v >> 1)]).collect();
        let segments = [nl.topo_order().to_vec()];
        let sim = EngineConfig::compiled(128).sim(&nl, &segments);
        assert_eq!(sim.lanes(), 128);

        let registry = obs::MetricRegistry::new();
        let hooks = Telemetry {
            profiler: obs::Profiler::new(),
            metrics: Some(registry.clone()),
            ..Telemetry::none()
        };
        let res = EngineConfig::compiled(128).grade(
            &nl,
            &segments,
            &faults,
            || VectorBench::new(&nl, &vectors),
            2,
            &hooks,
        );
        assert_eq!(res.detections, campaign::run_vectors(&nl, &faults, &vectors).detections);
        assert_eq!(res.stats.lanes, 128);
        assert!(res.stats.profile.count(ProfilePhase::Compile) > 0);
        assert!(registry.to_prometheus().contains("sbst_kernel_compile_ns_total"));
    }
}
