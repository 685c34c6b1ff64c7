//! Structured tracing, metrics, and self-profiling for the
//! fault-simulation stack — std-only and offline, like the workspace's
//! `proptest`/`criterion`/`serde_json` shims: no subscriber registries,
//! no async, no global state.
//!
//! A run reports through one clonable handle, [`Telemetry`], with three
//! parts:
//!
//! * [`trace::Tracer`] — the event stream. Each event is emitted once
//!   and goes to the tracer's sinks: a JSONL writer (`us`/`tid`/`ev`
//!   lines) and/or an [`events::EventBus`], the bounded drop-oldest
//!   queue behind the live SSE route (`seq`/`ms`/`ev` frames). Disabled
//!   (the default), it costs one pointer test per event.
//! * [`registry::MetricRegistry`] — the numbers, behind lock-free atomic
//!   handles, exported as Prometheus text or a JSON snapshot. Two views
//!   read it: [`progress::Progress`], a stderr ticker over one counter,
//!   and [`timeline::Timeline`], bounded series for `/timeline`.
//! * [`profile::Profiler`] — scoped-timer self-profiler attributing
//!   wall-time to the fault-sim hot-loop phases ([`ProfilePhase`]).
//!
//! Around them: [`metrics::LatencyHistogram`] (power-of-two detection
//! latency buckets), [`ledger`] (the schema-versioned run ledger, trend
//! tables and the perf-regression gate), [`traceviz`] (Chrome
//! trace-event export of tracer streams and phase profiles), [`serve`]
//! (the observatory's `TcpListener` HTTP plane: dashboard, `/metrics`,
//! `/json`, `/timeline`, `/events`, `/trace`) and [`wave`] (a
//! byte-deterministic VCD writer under the netlist probe stack).
//!
//! Campaign runners, `sbst::flow`, the fuzzer and the job server's shard
//! workers take a `&Telemetry`; the `tables` and `difftest` binaries
//! build theirs once from their flags (`bench::ObsArgs`).

#![warn(missing_docs)]

pub mod events;
pub mod ledger;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod registry;
pub mod serve;
pub mod timeline;
pub mod trace;
pub mod traceviz;
pub mod wave;

pub use events::EventBus;
pub use ledger::LedgerRecord;
pub use metrics::LatencyHistogram;
pub use profile::{PhaseProfile, ProfilePhase, Profiler};
pub use progress::Progress;
pub use registry::{Counter, Gauge, Histogram, MetricRegistry};
pub use serve::Observatory;
pub use timeline::Timeline;
pub use trace::{Span, TraceBuffer, TraceContext, Tracer};
pub use wave::{VcdSpec, VcdVar, VcdWriter};

/// Everything a run reports through. Each field is a clonable handle
/// whose clones share their sinks, so a binary builds one `Telemetry`
/// and hands it to every experiment it runs. The default is disabled
/// and costs one branch per batch; results are bit-identical with any
/// part of it on or off.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Event stream to a JSONL file and/or the live bus.
    pub tracer: Tracer,
    /// Hot-loop phase profiler; testbenches share it to time per-cycle
    /// phases.
    pub profiler: Profiler,
    /// Counters, gauges and histograms, updated at batch or wave
    /// granularity; the `--progress` ticker renders from it.
    pub metrics: Option<MetricRegistry>,
}

impl Telemetry {
    /// Telemetry with everything disabled.
    pub fn none() -> Telemetry {
        Telemetry::default()
    }
}
