//! Live progress reporting: a rate-limited stderr ticker over a
//! registry counter.
//!
//! A [`Progress`] keeps no count of its own. It reads a [`Counter`] the
//! run already updates — faults resolved for campaigns, seeds run for
//! the fuzzer — against a total, from its own thread every 200 ms, and
//! rewrites one `\r` status line whenever the count moved, ending it
//! with a newline whenever the count reaches the total. The hot loop
//! never sees it.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::registry::Counter;

/// Interval between ticker polls.
const TICK: Duration = Duration::from_millis(200);

struct Inner {
    label: String,
    done: Counter,
    total: Box<dyn Fn() -> u64 + Send + Sync>,
    started: Instant,
    /// The (done, total) last printed, and whether the ticker finished.
    state: Mutex<(Option<(u64, u64)>, bool)>,
    /// Wakes the ticker early when it finishes.
    wake: Condvar,
}

impl Inner {
    /// The status line: `[label] done/total (pct) rate/s`.
    fn line(&self) -> String {
        let done = self.done.get();
        let total = (self.total)();
        let pct = if total == 0 {
            100.0
        } else {
            100.0 * done as f64 / total as f64
        };
        let secs = self.started.elapsed().as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        format!("[{}] {done}/{total} ({pct:.0}%) {rate:.1}/s", self.label)
    }

    /// Print the line if the count moved since `shown` (at the `end`,
    /// also if the last print left the line open). Nothing is printed
    /// before the first unit is done.
    fn show(&self, shown: &mut Option<(u64, u64)>, end: bool) {
        let now = (self.done.get(), (self.total)());
        let complete = now.0 >= now.1;
        if now.0 == 0 || (*shown == Some(now) && (complete || !end)) {
            return;
        }
        if complete || end {
            eprintln!("\r{}   ", self.line());
        } else {
            eprint!("\r{}   ", self.line());
        }
        *shown = Some(now);
    }
}

/// A running stderr ticker; [`Progress::finish`] stops it.
pub struct Progress {
    inner: Arc<Inner>,
    ticker: JoinHandle<()>,
}

impl Progress {
    /// Start a ticker showing `done` against `total()`, read at every
    /// tick, so a total that grows as campaigns begin is fine.
    pub fn start(
        label: &str,
        done: Counter,
        total: impl Fn() -> u64 + Send + Sync + 'static,
    ) -> Progress {
        let inner = Arc::new(Inner {
            label: label.to_string(),
            done,
            total: Box::new(total),
            started: Instant::now(),
            state: Mutex::new((None, false)),
            wake: Condvar::new(),
        });
        let shared = Arc::clone(&inner);
        let ticker = std::thread::Builder::new()
            .name("obs-progress".into())
            .spawn(move || {
                let mut state = shared.state.lock().expect("progress state poisoned");
                while !state.1 {
                    state = shared
                        .wake
                        .wait_timeout(state, TICK)
                        .expect("progress state poisoned")
                        .0;
                    if !state.1 {
                        shared.show(&mut state.0, false);
                    }
                }
            })
            .expect("spawn progress ticker");
        Progress { inner, ticker }
    }

    /// Stop the ticker and end its line.
    pub fn finish(self) {
        {
            let mut state = self.inner.state.lock().expect("progress state poisoned");
            state.1 = true;
            self.inner.show(&mut state.0, true);
        }
        self.inner.wake.notify_one();
        self.ticker.join().expect("progress ticker panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricRegistry;

    #[test]
    fn renders_the_counter_it_views() {
        let registry = MetricRegistry::new();
        let done = registry.counter("units_total", "units done", &[]);
        let p = Progress::start("test", done.clone(), || 400);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let done = done.clone();
                s.spawn(move || (0..100).for_each(|_| done.inc(1)));
            }
        });
        let line = p.inner.line();
        assert!(line.starts_with("[test] 400/400 (100%) "), "{line}");
        p.finish();
    }
}
