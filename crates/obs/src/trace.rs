//! The event/span tracer and its JSONL sink.
//!
//! One event is one JSON object on one line:
//!
//! ```json
//! {"us":1234,"tid":3,"ev":"batch","batch":17,"faults":63,"lanes":64,"cycles":812,"detected":63}
//! ```
//!
//! `us` is microseconds since the tracer was created, `tid` a small
//! integer identifying the emitting thread, `ev` the event kind; the
//! remaining fields are event-specific. Span guards emit `<kind>_begin` /
//! `<kind>_end` pairs, the end event carrying `dur_us`.
//!
//! Each event is emitted once; the tracer writes it to its JSONL sink
//! and, when built [`Tracer::with_bus`], frames it for the live bus too.
//!
//! For distributed runs a [`TraceContext`] names the trace a process is
//! contributing to (trace id = job id, plus a span id / parent pair);
//! [`Tracer::scoped`] returns a handle that stamps those fields on every
//! event it emits, so streams collected from many processes can be
//! correlated and merged by `obs::traceviz::render_fleet`.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::{Map, Value};

use crate::events::EventBus;

type Sink = Arc<Mutex<Box<dyn Write + Send>>>;

struct Inner {
    t0: Instant,
    /// The JSONL writer, if any.
    sink: Option<Sink>,
    /// The live bus, if any.
    bus: Option<EventBus>,
}

/// A clonable handle to a trace's sinks. Cloning shares them; all
/// clones append to the same stream (writes are line-atomic behind a
/// mutex). A disabled tracer carries no sink and makes every operation
/// a cheap no-op, so instrumented code can hold one unconditionally.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
    /// Fields stamped on every event after the `us`/`tid`/`ev` triple
    /// (see [`Tracer::scoped`]). Shared, append-only.
    extra: Arc<Vec<(String, Value)>>,
}

/// Propagated identity of one distributed trace: which trace (= job) an
/// event belongs to and where its emitter sits in the span tree. The
/// coordinator owns the root span; each shard claim hands the worker a
/// child context over the HTTP protocol (`TraceContext::to_json` in the
/// claim response, `from_json` on the worker side).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace identifier — the job id for campaign jobs.
    pub trace_id: String,
    /// This participant's span id (root = 1).
    pub span_id: u64,
    /// Span id of the parent (0 for the root).
    pub parent: u64,
}

impl TraceContext {
    /// The root context of a new trace (span 1, no parent).
    pub fn root(trace_id: impl Into<String>) -> TraceContext {
        TraceContext {
            trace_id: trace_id.into(),
            span_id: 1,
            parent: 0,
        }
    }

    /// A child context under this one with the given span id.
    pub fn child(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id.clone(),
            span_id,
            parent: self.span_id,
        }
    }

    /// The context as tracer fields (`trace_id`/`span`/`parent`), in
    /// the form [`Tracer::scoped`] expects.
    pub fn fields(&self) -> Vec<(String, Value)> {
        vec![
            ("trace_id".to_string(), Value::String(self.trace_id.clone())),
            ("span".to_string(), Value::U64(self.span_id)),
            ("parent".to_string(), Value::U64(self.parent)),
        ]
    }

    /// Wire form carried in claim responses.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("trace_id".into(), Value::String(self.trace_id.clone()));
        m.insert("span".into(), Value::U64(self.span_id));
        m.insert("parent".into(), Value::U64(self.parent));
        Value::Object(m)
    }

    /// Parse the wire form; `None` when `trace_id` is missing.
    pub fn from_json(v: &Value) -> Option<TraceContext> {
        Some(TraceContext {
            trace_id: v["trace_id"].as_str()?.to_string(),
            span_id: v["span"].as_u64().unwrap_or(1),
            parent: v["parent"].as_u64().unwrap_or(0),
        })
    }
}

/// Shared in-memory JSONL buffer produced by
/// [`Tracer::to_shared_buffer`]: the readable side of a tracer whose
/// events must later be shipped (worker → coordinator span batches) or
/// served (`/trace` on the coordinator).
#[derive(Clone, Default)]
pub struct TraceBuffer(Arc<Mutex<Vec<u8>>>);

impl TraceBuffer {
    /// Everything written so far, as one JSONL string.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("trace buffer poisoned")).into_owned()
    }

    /// Drain the buffer, returning everything written since the last
    /// take as one JSONL string.
    pub fn take(&self) -> String {
        let mut buf = self.0.lock().expect("trace buffer poisoned");
        String::from_utf8_lossy(&std::mem::take(&mut *buf)).into_owned()
    }
}

struct BufferWriter(TraceBuffer);

impl Write for BufferWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
             .0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// A small integer id for the calling thread, stable for the thread's
/// lifetime (extracted from [`std::thread::ThreadId`]'s debug form).
pub fn thread_ordinal() -> u64 {
    let s = format!("{:?}", std::thread::current().id());
    s.chars()
        .filter(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

impl Tracer {
    /// A tracer that drops everything. All operations are no-ops.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer appending JSON lines to an arbitrary writer (used by
    /// tests with an in-memory buffer).
    pub fn to_writer(w: Box<dyn Write + Send>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                sink: Some(Arc::new(Mutex::new(w))),
                bus: None,
            })),
            extra: Arc::new(Vec::new()),
        }
    }

    /// A handle to this tracer's JSONL sink (none for a disabled
    /// tracer) that also publishes every event onto `bus`. Handles
    /// cloned from `self` keep writing the JSONL alone.
    pub fn with_bus(&self, bus: EventBus) -> Tracer {
        let (t0, sink) = match &self.inner {
            Some(i) => (i.t0, i.sink.clone()),
            None => (Instant::now(), None),
        };
        Tracer {
            inner: Some(Arc::new(Inner {
                t0,
                sink,
                bus: Some(bus),
            })),
            extra: Arc::clone(&self.extra),
        }
    }

    /// A tracer writing into a shared in-memory buffer, plus the handle
    /// to read or drain it. This is the sink for processes whose spans
    /// are shipped elsewhere: the coordinator serves its buffer via
    /// `/trace`, workers `take()` theirs and POST it to `/spans`.
    pub fn to_shared_buffer() -> (Tracer, TraceBuffer) {
        let buf = TraceBuffer::default();
        (Tracer::to_writer(Box::new(BufferWriter(buf.clone()))), buf)
    }

    /// A tracer writing to a file (truncating), creating parent
    /// directories as needed.
    pub fn to_path(path: impl AsRef<Path>) -> io::Result<Tracer> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let f = std::fs::File::create(path)?;
        Ok(Tracer::to_writer(Box::new(BufWriter::new(f))))
    }

    /// Whether events are being recorded. Instrumentation should gate
    /// any non-trivial field construction on this.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds elapsed on this tracer's clock, or `None` when
    /// disabled. Claim responses carry this so worker processes can
    /// rebase their own timestamps onto the coordinator's clock.
    pub fn elapsed_us(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|i| i.t0.elapsed().as_micros() as u64)
    }

    /// A handle to the same sink that stamps `fields` on every event it
    /// emits (after the `us`/`tid`/`ev` triple, before per-event
    /// fields). Scopes nest: scoping an already-scoped tracer appends.
    pub fn scoped(&self, fields: &[(String, Value)]) -> Tracer {
        if self.inner.is_none() || fields.is_empty() {
            return self.clone();
        }
        let mut extra = (*self.extra).clone();
        extra.extend(fields.iter().cloned());
        Tracer {
            inner: self.inner.clone(),
            extra: Arc::new(extra),
        }
    }

    /// [`Tracer::scoped`] with a [`TraceContext`]'s fields.
    pub fn with_context(&self, ctx: &TraceContext) -> Tracer {
        self.scoped(&ctx.fields())
    }

    /// Emit one event to every sink. In the JSONL, `fields` follow the
    /// standard `us`/`tid`/`ev` triple (and any scoped fields), in
    /// order; the bus frames the scoped fields and `fields` with its own
    /// `seq`/`ms`/`ev`.
    pub fn event(&self, kind: &str, fields: &[(&str, Value)]) {
        let Some(inner) = &self.inner else { return };
        if let Some(bus) = &inner.bus {
            let mut all: Vec<(&str, Value)> = self
                .extra
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            all.extend(fields.iter().cloned());
            bus.publish(kind, &all);
        }
        let Some(sink) = &inner.sink else { return };
        let mut obj = Map::new();
        obj.insert(
            "us".into(),
            Value::U64(inner.t0.elapsed().as_micros() as u64),
        );
        obj.insert("tid".into(), Value::U64(thread_ordinal()));
        obj.insert("ev".into(), Value::String(kind.to_string()));
        for (k, v) in self.extra.iter() {
            obj.insert(k.clone(), v.clone());
        }
        for (k, v) in fields {
            obj.insert((*k).to_string(), v.clone());
        }
        let line = serde_json::to_string(&Value::Object(obj)).unwrap_or_default();
        let _ = writeln!(sink.lock().expect("trace sink poisoned"), "{line}");
    }

    /// Open a span: emits `<kind>_begin` now and `<kind>_end` (with
    /// `dur_us`) when the returned guard drops.
    pub fn span(&self, kind: &str, fields: &[(&str, Value)]) -> Span {
        self.event(&format!("{kind}_begin"), fields);
        Span {
            tracer: self.clone(),
            kind: kind.to_string(),
            started: Instant::now(),
        }
    }

    /// Flush the JSONL writer (files are buffered).
    pub fn flush(&self) {
        if let Some(sink) = self.inner.as_ref().and_then(|i| i.sink.as_ref()) {
            let _ = sink.lock().expect("trace sink poisoned").flush();
        }
    }
}

/// Guard returned by [`Tracer::span`]; emits the `_end` event on drop.
#[must_use = "dropping the span immediately ends it"]
pub struct Span {
    tracer: Tracer,
    kind: String,
    started: Instant,
}

impl Span {
    /// End the span now, attaching extra fields to the `_end` event.
    pub fn end_with(self, fields: &[(&str, Value)]) {
        let mut all = vec![(
            "dur_us",
            Value::U64(self.started.elapsed().as_micros() as u64),
        )];
        all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
        self.tracer.event(&format!("{}_end", self.kind), &all);
        // The Drop impl must not emit a second end event.
        std::mem::forget(self);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.tracer.event(
            &format!("{}_end", self.kind),
            &[(
                "dur_us",
                Value::U64(self.started.elapsed().as_micros() as u64),
            )],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc as SArc, Mutex as SMutex};

    /// A Write impl capturing into a shared buffer.
    struct Capture(SArc<SMutex<Vec<u8>>>);
    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture_tracer() -> (Tracer, SArc<SMutex<Vec<u8>>>) {
        let buf = SArc::new(SMutex::new(Vec::new()));
        let t = Tracer::to_writer(Box::new(Capture(buf.clone())));
        (t, buf)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.event("x", &[("k", Value::U64(1))]);
        let s = t.span("y", &[]);
        drop(s);
        t.flush();
    }

    #[test]
    fn events_are_one_json_object_per_line() {
        let (t, buf) = capture_tracer();
        t.event("alpha", &[("n", Value::U64(7))]);
        t.event("beta", &[("s", Value::String("hi".into()))]);
        t.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = serde_json::from_str(line).expect("valid JSON line");
            let o = v.as_object().unwrap();
            assert!(o.get("us").and_then(|v| v.as_u64()).is_some());
            assert!(o.get("tid").and_then(|v| v.as_u64()).is_some());
            assert!(o.get("ev").and_then(|v| v.as_str()).is_some());
        }
        let first = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["ev"].as_str(), Some("alpha"));
        assert_eq!(first["n"].as_u64(), Some(7));
    }

    #[test]
    fn span_emits_begin_and_end_with_duration() {
        let (t, buf) = capture_tracer();
        let s = t.span("work", &[("batch", Value::U64(3))]);
        s.end_with(&[("cycles", Value::U64(99))]);
        t.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let begin = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(begin["ev"].as_str(), Some("work_begin"));
        assert_eq!(begin["batch"].as_u64(), Some(3));
        let end = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(end["ev"].as_str(), Some("work_end"));
        assert!(end["dur_us"].as_u64().is_some());
        assert_eq!(end["cycles"].as_u64(), Some(99));
    }

    #[test]
    fn scoped_tracer_stamps_context_on_every_event() {
        let (t, buf) = Tracer::to_shared_buffer();
        let ctx = TraceContext::root("job-9").child(3);
        let scoped = t.with_context(&ctx);
        scoped.event("claimed", &[("shard", Value::U64(1))]);
        scoped.span("grade", &[]).end_with(&[]);
        // The unscoped handle stays clean.
        t.event("plain", &[]);
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines[..3] {
            let v: Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["trace_id"].as_str(), Some("job-9"), "{line}");
            assert_eq!(v["span"].as_u64(), Some(3));
            assert_eq!(v["parent"].as_u64(), Some(1));
        }
        let plain: Value = serde_json::from_str(lines[3]).unwrap();
        assert!(plain.as_object().unwrap().get("trace_id").is_none());
    }

    #[test]
    fn attached_bus_frames_the_same_events() {
        let (t, buf) = Tracer::to_shared_buffer();
        let bus = EventBus::new(8);
        let both = t.with_bus(bus.clone());
        both.event("batch", &[("faults", Value::U64(63))]);
        t.event("jsonl_only", &[]);
        let frames = bus.poll_after(0, std::time::Duration::ZERO);
        assert_eq!(frames.len(), 1);
        let frame: Value = serde_json::from_str(&frames[0].1).unwrap();
        assert_eq!(frame["ev"].as_str(), Some("batch"));
        assert_eq!(frame["faults"].as_u64(), Some(63));
        assert_eq!(buf.contents().lines().count(), 2);
        // A bus alone still enables the tracer.
        assert!(Tracer::disabled().with_bus(bus).enabled());
    }

    #[test]
    fn trace_context_round_trips_over_json() {
        let ctx = TraceContext::root("ext").child(5);
        let wire = ctx.to_json();
        assert_eq!(TraceContext::from_json(&wire), Some(ctx));
        assert_eq!(TraceContext::from_json(&Value::Null), None);
    }

    #[test]
    fn shared_buffer_take_drains() {
        let (t, buf) = Tracer::to_shared_buffer();
        t.event("a", &[]);
        let first = buf.take();
        assert_eq!(first.lines().count(), 1);
        t.event("b", &[]);
        assert!(buf.take().contains("\"ev\":\"b\""));
        assert!(buf.contents().is_empty());
        assert!(t.elapsed_us().is_some());
        assert!(Tracer::disabled().elapsed_us().is_none());
    }

    #[test]
    fn clones_share_one_sink() {
        let (t, buf) = capture_tracer();
        let t2 = t.clone();
        t.event("a", &[]);
        t2.event("b", &[]);
        t.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn concurrent_writers_keep_lines_atomic() {
        let (t, buf) = capture_tracer();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..50u64 {
                        t.event("tick", &[("i", Value::U64(i))]);
                    }
                });
            }
        });
        t.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 200);
        for line in lines {
            serde_json::from_str(line).expect("interleaved write corrupted a line");
        }
    }
}
