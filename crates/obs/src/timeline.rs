//! Periodic time-series sampler over a [`MetricRegistry`].
//!
//! The observatory's `/timeline` route needs history, not just the
//! current value: coverage climbing, throughput settling, the kernel
//! cache warming up. [`Timeline`] snapshots the registry on a fixed
//! cadence from its own thread — the hot loop is never involved — and
//! keeps each series in a bounded ring, so a campaign left running for
//! hours holds a fixed amount of memory.
//!
//! Counters and gauges sample their value; histograms sample their
//! observation count (the full bucket layout stays available on
//! `/json`). Series are keyed by metric name + rendered labels, so
//! labeled families (`sbst_profile_ns_total{phase="eval_early"}`)
//! produce one series per label set.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde_json::{Map, Value};

use crate::registry::MetricRegistry;

struct Series {
    name: String,
    /// Compact JSON of the label object (stable: shim maps preserve
    /// insertion order), `{}` for unlabeled metrics.
    labels: String,
    kind: String,
    /// (ms since timeline start, sampled value).
    points: VecDeque<(u64, f64)>,
}

struct TlInner {
    registry: MetricRegistry,
    cap: usize,
    t0: Instant,
    series: Mutex<Vec<Series>>,
}

/// Clonable handle to a bounded registry time series. Cloning shares the
/// underlying store; [`Timeline::start`] adds a background sampler
/// thread.
#[derive(Clone)]
pub struct Timeline {
    inner: Arc<TlInner>,
}

impl std::fmt::Debug for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timeline")
            .field("cap", &self.inner.cap)
            .finish()
    }
}

impl Timeline {
    /// A timeline over `registry` retaining at most `cap` points per
    /// series (minimum 2, so rates are always computable).
    pub fn new(registry: MetricRegistry, cap: usize) -> Timeline {
        Timeline {
            inner: Arc::new(TlInner {
                registry,
                cap: cap.max(2),
                t0: Instant::now(),
                series: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A timeline sampling every `period` from a detached background
    /// thread. The thread holds only a clone of the handle and dies with
    /// the process; campaigns never wait on it.
    pub fn start(registry: MetricRegistry, period: Duration, cap: usize) -> Timeline {
        let tl = Timeline::new(registry, cap);
        let sampler = tl.clone();
        std::thread::Builder::new()
            .name("obs-timeline".into())
            .spawn(move || loop {
                sampler.sample();
                std::thread::sleep(period);
            })
            .expect("spawn timeline sampler");
        tl
    }

    /// Take one sample of every registry metric now. Exposed for tests
    /// and for end-of-run final samples; the background thread calls this
    /// on its cadence.
    pub fn sample(&self) {
        let ms = self.inner.t0.elapsed().as_millis() as u64;
        let snap = self.inner.registry.snapshot();
        let mut series = self.inner.series.lock().unwrap();
        let Some(metrics) = snap["metrics"].as_array() else {
            return;
        };
        for m in metrics {
            let Some(name) = m["name"].as_str() else {
                continue;
            };
            let kind = m["type"].as_str().unwrap_or("counter");
            let labels = match &m["labels"] {
                Value::Object(_) => serde_json::to_string(&m["labels"]).expect("json"),
                _ => "{}".to_string(),
            };
            let value = match kind {
                "histogram" => value_as_f64(&m["count"]),
                _ => value_as_f64(&m["value"]),
            };
            let Some(value) = value else { continue };
            let slot = match series
                .iter_mut()
                .find(|s| s.name == name && s.labels == labels)
            {
                Some(s) => s,
                None => {
                    series.push(Series {
                        name: name.to_string(),
                        labels,
                        kind: kind.to_string(),
                        points: VecDeque::new(),
                    });
                    series.last_mut().unwrap()
                }
            };
            slot.points.push_back((ms, value));
            while slot.points.len() > self.inner.cap {
                slot.points.pop_front();
            }
        }
    }

    /// The timeline as JSON:
    /// `{"series":[{"name","labels","type","points":[[ms,v],...]},...]}`.
    /// Series appear in first-seen order, points oldest-first.
    pub fn to_json(&self) -> Value {
        let series = self.inner.series.lock().unwrap();
        let mut out = Vec::with_capacity(series.len());
        for s in series.iter() {
            let labels: Value =
                serde_json::from_str(&s.labels).unwrap_or(Value::Object(Map::new()));
            let points: Vec<Value> = s
                .points
                .iter()
                .map(|&(ms, v)| Value::Array(vec![Value::U64(ms), Value::F64(v)]))
                .collect();
            let mut m = Map::new();
            m.insert("name".to_string(), Value::String(s.name.clone()));
            m.insert("labels".to_string(), labels);
            m.insert("type".to_string(), Value::String(s.kind.clone()));
            m.insert("points".to_string(), Value::Array(points));
            out.push(Value::Object(m));
        }
        let mut root = Map::new();
        root.insert("series".to_string(), Value::Array(out));
        Value::Object(root)
    }

    /// The most recent sampled value of `name` with exactly the rendered
    /// `labels` JSON (pass `"{}"` for unlabeled metrics). For tests.
    pub fn last_value(&self, name: &str, labels: &str) -> Option<f64> {
        let series = self.inner.series.lock().unwrap();
        series
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .and_then(|s| s.points.back().map(|&(_, v)| v))
    }
}

fn value_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_counters_gauges_and_histogram_counts() {
        let reg = MetricRegistry::new();
        let c = reg.counter("tl_test_total", "t", &[]);
        let g = reg.gauge("tl_test_gauge", "t", &[]);
        let h = reg.histogram("tl_test_hist", "t", &[]);
        let tl = Timeline::new(reg, 8);
        c.inc(3);
        g.set(2.5);
        h.observe(10);
        h.observe(20);
        tl.sample();
        assert_eq!(tl.last_value("tl_test_total", "{}"), Some(3.0));
        assert_eq!(tl.last_value("tl_test_gauge", "{}"), Some(2.5));
        assert_eq!(tl.last_value("tl_test_hist", "{}"), Some(2.0));
        let json = serde_json::to_string(&tl.to_json()).expect("json");
        assert!(json.contains("\"series\""), "{json}");
        assert!(json.contains("tl_test_total"), "{json}");
    }

    #[test]
    fn ring_is_bounded_and_labelled_series_split() {
        let reg = MetricRegistry::new();
        let a = reg.counter("tl_fam_total", "t", &[("phase", "x")]);
        let b = reg.counter("tl_fam_total", "t", &[("phase", "y")]);
        let tl = Timeline::new(reg, 3);
        for i in 0..10 {
            a.inc(1);
            b.inc(2);
            tl.sample();
            let _ = i;
        }
        let json = tl.to_json();
        let series = json["series"].as_array().unwrap();
        assert_eq!(series.len(), 2);
        for s in series {
            let points = s["points"].as_array().unwrap();
            assert_eq!(points.len(), 3, "ring stays bounded");
        }
        assert_eq!(
            tl.last_value("tl_fam_total", "{\"phase\":\"x\"}"),
            Some(10.0)
        );
        assert_eq!(
            tl.last_value("tl_fam_total", "{\"phase\":\"y\"}"),
            Some(20.0)
        );
    }
}
