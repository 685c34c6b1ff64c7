//! Bounded broadcast event bus for live campaign observability.
//!
//! Publishers (a tracer the bus is attached to as a sink — see
//! `Tracer::with_bus` — and the job server) push small JSON events at
//! *batch/wave granularity* — never per cycle — and the bus
//! guarantees they can never block: the queue is bounded and drops its
//! oldest entries when full. Consumers (the `/events` Server-Sent-Events
//! route) poll with a sequence cursor and a condvar timeout, so a slow or
//! dead subscriber costs the producers nothing.
//!
//! Events are serialized once at publish time into an `Arc<String>` and
//! shared by every subscriber, keeping the per-subscriber cost to a queue
//! scan.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde_json::{Map, Value};

use crate::registry::Counter;

struct BusState {
    /// (sequence number, serialized event) in ascending `seq` order.
    queue: VecDeque<(u64, Arc<String>)>,
    /// Sequence number the *next* published event will get (first is 1,
    /// so `poll_after(0)` means "everything still buffered").
    next_seq: u64,
    /// Events discarded by the drop-oldest policy since creation.
    dropped: u64,
    /// Optional registry counter mirroring `dropped`, so the silent
    /// drop-oldest policy shows up in `/metrics`.
    dropped_counter: Option<Counter>,
}

struct BusInner {
    cap: usize,
    t0: Instant,
    state: Mutex<BusState>,
    cond: Condvar,
}

/// Clonable handle to a bounded drop-oldest broadcast queue. Cloning
/// shares the underlying queue.
#[derive(Clone)]
pub struct EventBus {
    inner: Arc<BusInner>,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("cap", &self.inner.cap)
            .finish()
    }
}

impl EventBus {
    /// A bus retaining at most `cap` undelivered events (minimum 1).
    pub fn new(cap: usize) -> EventBus {
        EventBus {
            inner: Arc::new(BusInner {
                cap: cap.max(1),
                t0: Instant::now(),
                state: Mutex::new(BusState {
                    queue: VecDeque::new(),
                    next_seq: 1,
                    dropped: 0,
                    dropped_counter: None,
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// Publish one event. `fields` are appended after the standard
    /// `seq`/`ms`/`ev` keys in the given order. Never blocks on
    /// subscribers: when the queue is full the oldest event is discarded.
    pub fn publish(&self, kind: &str, fields: &[(&str, Value)]) {
        let ms = self.inner.t0.elapsed().as_millis() as u64;
        let mut state = self.inner.state.lock().unwrap();
        let seq = state.next_seq;
        state.next_seq += 1;
        let mut map = Map::new();
        map.insert("seq".to_string(), Value::U64(seq));
        map.insert("ms".to_string(), Value::U64(ms));
        map.insert("ev".to_string(), Value::String(kind.to_string()));
        for (k, v) in fields {
            map.insert(k.to_string(), v.clone());
        }
        let line = serde_json::to_string(&Value::Object(map)).expect("json");
        state.queue.push_back((seq, Arc::new(line)));
        while state.queue.len() > self.inner.cap {
            state.queue.pop_front();
            state.dropped += 1;
            if let Some(c) = &state.dropped_counter {
                c.inc(1);
            }
        }
        drop(state);
        self.inner.cond.notify_all();
    }

    /// Mirror future drop-oldest discards into a registry counter
    /// (typically `obs_events_dropped_total`), making the bus's only
    /// silent failure mode visible in `/metrics`.
    pub fn attach_dropped_counter(&self, counter: Counter) {
        let mut state = self.inner.state.lock().unwrap();
        // Catch the counter up on anything dropped before attachment.
        if state.dropped > 0 {
            counter.inc(state.dropped);
        }
        state.dropped_counter = Some(counter);
    }

    /// The replay header an SSE subscriber receives before any events:
    /// how many events were ever discarded (`dropped`) and how many are
    /// buffered for replay (`buffered`), so a client knows whether the
    /// stream it is about to replay has a hole at the front. Framed
    /// with `seq` 0, which no real event uses.
    pub fn replay_header(&self) -> String {
        let ms = self.inner.t0.elapsed().as_millis() as u64;
        let state = self.inner.state.lock().unwrap();
        let mut map = Map::new();
        map.insert("seq".to_string(), Value::U64(0));
        map.insert("ms".to_string(), Value::U64(ms));
        map.insert("ev".to_string(), Value::String("replay".to_string()));
        map.insert("dropped".to_string(), Value::U64(state.dropped));
        map.insert(
            "buffered".to_string(),
            Value::U64(state.queue.len() as u64),
        );
        serde_json::to_string(&Value::Object(map)).expect("json")
    }

    /// Events with sequence number greater than `after`, waiting up to
    /// `timeout` for at least one to arrive. Returns an empty vector on
    /// timeout. A subscriber that fell behind the drop-oldest window
    /// simply resumes at the oldest retained event.
    pub fn poll_after(&self, after: u64, timeout: Duration) -> Vec<(u64, Arc<String>)> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock().unwrap();
        loop {
            let fresh: Vec<(u64, Arc<String>)> = state
                .queue
                .iter()
                .filter(|(seq, _)| *seq > after)
                .cloned()
                .collect();
            let now = Instant::now();
            if !fresh.is_empty() || now >= deadline {
                return fresh;
            }
            state = self
                .inner
                .cond
                .wait_timeout(state, deadline - now)
                .unwrap()
                .0;
        }
    }

    /// Count of events discarded so far by the drop-oldest policy.
    pub fn dropped(&self) -> u64 {
        self.inner.state.lock().unwrap().dropped
    }
}

/// Frame one serialized event as a Server-Sent-Events message
/// (`data: <json>\n\n`). Event payloads are single-line JSON, so the
/// one-`data:`-line form is always correct.
pub fn sse_frame(json: &str) -> String {
    format!("data: {json}\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_in_order_with_sequences() {
        let bus = EventBus::new(16);
        bus.publish("a", &[("x", Value::U64(1))]);
        bus.publish("b", &[]);
        let got = bus.poll_after(0, Duration::from_millis(10));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 2);
        assert!(got[0].1.contains("\"ev\":\"a\""), "{}", got[0].1);
        assert!(got[0].1.contains("\"x\":1"), "{}", got[0].1);
        // Cursor advances past delivered events.
        assert!(bus.poll_after(2, Duration::from_millis(1)).is_empty());
    }

    #[test]
    fn drops_oldest_when_full_and_never_blocks() {
        let bus = EventBus::new(3);
        for i in 0..10u64 {
            bus.publish("tick", &[("i", Value::U64(i))]);
        }
        assert_eq!(bus.dropped(), 7);
        let got = bus.poll_after(0, Duration::from_millis(1));
        let seqs: Vec<u64> = got.iter().map(|(s, _)| *s).collect();
        // Only the newest three survive; a lagging subscriber resumes there.
        assert_eq!(seqs, vec![8, 9, 10]);
    }

    #[test]
    fn overflow_is_counted_in_metrics_and_replay_header() {
        let registry = crate::registry::MetricRegistry::new();
        let bus = EventBus::new(4);
        // Two drops happen before the counter is attached; attachment
        // catches it up so /metrics never under-reports.
        for i in 0..6u64 {
            bus.publish("tick", &[("i", Value::U64(i))]);
        }
        bus.attach_dropped_counter(registry.counter(
            "obs_events_dropped_total",
            "events discarded by the drop-oldest policy",
            &[],
        ));
        for i in 6..16u64 {
            bus.publish("tick", &[("i", Value::U64(i))]);
        }
        assert_eq!(bus.dropped(), 12);
        let prom = registry.to_prometheus();
        assert!(
            prom.contains("obs_events_dropped_total 12"),
            "dropped counter missing from exposition:\n{prom}"
        );
        let header = bus.replay_header();
        let v: Value = serde_json::from_str(&header).unwrap();
        assert_eq!(v["seq"].as_u64(), Some(0));
        assert_eq!(v["ev"].as_str(), Some("replay"));
        assert_eq!(v["dropped"].as_u64(), Some(12));
        assert_eq!(v["buffered"].as_u64(), Some(4));
    }

    #[test]
    fn poll_wakes_on_publish_from_other_thread() {
        let bus = EventBus::new(8);
        let pub_bus = bus.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            pub_bus.publish("late", &[]);
        });
        let got = bus.poll_after(0, Duration::from_secs(5));
        t.join().unwrap();
        assert_eq!(got.len(), 1);
        assert!(got[0].1.contains("late"));
    }

    #[test]
    fn sse_frame_protocol() {
        assert_eq!(sse_frame("{\"a\":1}"), "data: {\"a\":1}\n\n");
    }
}
