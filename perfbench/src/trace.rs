//! Benchmark-side tracing: one span around each call into a layer's
//! public function, recorded from outside the program. Spans are kept in
//! memory (`obs::Tracer::to_shared_buffer`) and rendered with
//! `obs::traceviz::render` when the run ends.
//!
//! Every op or set-up is one trace: its root span has span id 1 and each
//! layer call under it is a child (parent 1), so a layer's share of an
//! op is read straight off the recorded events.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use obs::{PhaseProfile, Span, TraceBuffer, TraceContext, Tracer};

/// The benchmark's tracer: disabled in end-to-end runs.
pub struct Trace {
    tracer: Tracer,
    buffer: Option<TraceBuffer>,
}

impl Trace {
    /// A recording tracer when `enabled`, else a no-op one.
    pub fn new(enabled: bool) -> Trace {
        if enabled {
            let (tracer, buffer) = Tracer::to_shared_buffer();
            Trace {
                tracer,
                buffer: Some(buffer),
            }
        } else {
            Trace {
                tracer: Tracer::disabled(),
                buffer: None,
            }
        }
    }

    /// Open the root span `kind` of trace `id`. A disabled tracer, or
    /// `on == false`, yields a scope whose spans record nothing.
    pub fn root(&self, id: &str, kind: &str, on: bool) -> Scope {
        let tracer = if on {
            self.tracer.clone()
        } else {
            Tracer::disabled()
        };
        let ctx = TraceContext::root(id);
        let root = tracer.with_context(&ctx).span(kind, &[]);
        Scope {
            tracer,
            ctx,
            next: Cell::new(2),
            _root: root,
        }
    }

    /// Everything recorded so far, as tracer JSONL.
    pub fn jsonl(&self) -> String {
        self.buffer
            .as_ref()
            .map(|b| b.contents())
            .unwrap_or_default()
    }

    /// Render the recorded spans (plus the program's hot-loop profile)
    /// as trace-event JSON and write it to `path`.
    pub fn write(&self, path: &Path, profile: &PhaseProfile) -> std::io::Result<()> {
        let doc = obs::traceviz::render(&self.jsonl(), Some(profile));
        obs::traceviz::write_trace(path, &doc)
    }
}

/// One traced unit of work; layer spans opened from it are its children.
pub struct Scope {
    tracer: Tracer,
    ctx: TraceContext,
    next: Cell<u64>,
    /// Ends (emits its `_end` event) when the scope is dropped, after
    /// every layer span opened under it.
    _root: Span,
}

impl Scope {
    /// A scope that records nothing (reference runs, tests).
    pub fn off() -> Scope {
        Trace::new(false).root("", "", false)
    }

    /// Open a child span around one layer call.
    pub fn layer(&self, kind: &str) -> Span {
        let id = self.next.get();
        self.next.set(id + 1);
        self.tracer
            .with_context(&self.ctx.child(id))
            .span(kind, &[])
    }
}

/// Span durations read back from a trace.
#[derive(Debug, Default)]
pub struct SpanSummary {
    /// Seconds per span, by span kind.
    pub by_kind: BTreeMap<String, Vec<f64>>,
    /// Total layer-span time under `op` roots ÷ total `op` span time.
    pub closure: Option<f64>,
}

impl SpanSummary {
    /// Durations of spans of `kind`, in seconds.
    pub fn secs(&self, kind: &str) -> &[f64] {
        self.by_kind.get(kind).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

/// Read back the `<kind>_end` events of a tracer JSONL stream.
pub fn summarize(jsonl: &str) -> SpanSummary {
    let mut ends = Vec::new();
    for line in jsonl.lines() {
        let Ok(v) = serde_json::from_str(line) else {
            continue;
        };
        let Some(kind) = v["ev"].as_str().and_then(|e| e.strip_suffix("_end")) else {
            continue;
        };
        let dur = v["dur_us"].as_u64().unwrap_or(0) as f64 / 1e6;
        let trace = v["trace_id"].as_str().unwrap_or_default().to_string();
        ends.push((
            kind.to_string(),
            trace,
            v["parent"].as_u64().unwrap_or(0),
            dur,
        ));
    }
    let mut summary = SpanSummary::default();
    let ops: BTreeSet<&str> = ends
        .iter()
        .filter(|e| e.0 == "op" && e.2 == 0)
        .map(|e| e.1.as_str())
        .collect();
    let (mut op_time, mut layer_time) = (0.0, 0.0);
    for (kind, trace, parent, dur) in &ends {
        if ops.contains(trace.as_str()) {
            match parent {
                0 => op_time += dur,
                1 => layer_time += dur,
                _ => {}
            }
        }
        summary.by_kind.entry(kind.clone()).or_default().push(*dur);
    }
    summary.closure = (op_time > 0.0).then(|| layer_time / op_time);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_spans_are_children_of_their_op() {
        let trace = Trace::new(true);
        {
            let op = trace.root("op-0", "op", true);
            let _a = op.layer("campaign");
        }
        {
            // An untraced op records nothing.
            let op = trace.root("op-1", "op", false);
            let _a = op.layer("campaign");
        }
        let s = summarize(&trace.jsonl());
        assert_eq!(s.secs("op").len(), 1);
        assert_eq!(s.secs("campaign").len(), 1);
        let closure = s.closure.expect("one op span");
        assert!(closure <= 1.0 + 1e-9, "layer outlived its op: {closure}");
        let doc = obs::traceviz::render(&trace.jsonl(), None);
        assert!(doc["traceEvents"].as_array().map_or(0, |a| a.len()) >= 2);
    }
}
