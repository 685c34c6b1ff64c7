//! Live progress reporting: shared atomic counters with a rate-limited
//! stderr ticker.
//!
//! Worker threads call [`Progress::inc`] as units complete (a campaign
//! counts the faults each batch run resolves); the call is two relaxed
//! atomic ops unless the ticker's minimum interval has elapsed, in
//! which case the winning thread prints a single `\r`-rewritten status
//! line. Nothing here touches the simulation hot loop — increments
//! happen at batch granularity, thousands of cycles apart.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Minimum interval between ticker lines, in microseconds.
const TICK_US: u64 = 200_000;

struct Inner {
    label: String,
    total: u64,
    done: AtomicU64,
    started: Instant,
    /// Elapsed-us timestamp of the last printed line (0 = never).
    last_print_us: AtomicU64,
    /// Whether a `\r` status line is pending a terminating newline.
    quiet: bool,
}

/// A clonable handle to shared progress state. All clones update the
/// same counters; `quiet` handles count without printing (used by
/// tests and library callers that only want the counters).
#[derive(Clone)]
pub struct Progress {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Progress")
            .field("label", &self.inner.label)
            .field("done", &self.done())
            .field("total", &self.inner.total)
            .finish()
    }
}

impl Progress {
    /// Progress over `total` units, printing status lines to stderr.
    pub fn new(label: &str, total: u64) -> Progress {
        Progress::build(label, total, false)
    }

    /// Progress that counts but never prints.
    pub fn quiet(label: &str, total: u64) -> Progress {
        Progress::build(label, total, true)
    }

    fn build(label: &str, total: u64, quiet: bool) -> Progress {
        Progress {
            inner: Arc::new(Inner {
                label: label.to_string(),
                total,
                done: AtomicU64::new(0),
                started: Instant::now(),
                last_print_us: AtomicU64::new(0),
                quiet,
            }),
        }
    }

    /// Units completed so far.
    pub fn done(&self) -> u64 {
        self.inner.done.load(Ordering::Relaxed)
    }

    /// Total units expected.
    pub fn total(&self) -> u64 {
        self.inner.total
    }

    /// Completion rate in units/second since creation.
    pub fn rate(&self) -> f64 {
        let secs = self.inner.started.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.done() as f64 / secs
        }
    }

    /// Record `n` completed units, printing a status line if the tick
    /// interval elapsed. Safe and cheap to call from many threads.
    pub fn inc(&self, n: u64) {
        let done = self.inner.done.fetch_add(n, Ordering::Relaxed) + n;
        if self.inner.quiet {
            return;
        }
        let now_us = self.inner.started.elapsed().as_micros() as u64;
        let last = self.inner.last_print_us.load(Ordering::Relaxed);
        if now_us.saturating_sub(last) < TICK_US && done < self.inner.total {
            return;
        }
        // One thread wins the right to print this tick.
        if self
            .inner
            .last_print_us
            .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.print_line(done);
    }

    fn print_line(&self, done: u64) {
        let total = self.inner.total;
        let pct = if total == 0 {
            100.0
        } else {
            100.0 * done as f64 / total as f64
        };
        eprint!(
            "\r[{}] {}/{} ({:.0}%) {:.1}/s   ",
            self.inner.label,
            done,
            total,
            pct,
            self.rate()
        );
    }

    /// Print the final status line and a terminating newline. Idempotent
    /// enough for normal use (an extra call prints an extra line).
    pub fn finish(&self) {
        if self.inner.quiet {
            return;
        }
        self.print_line(self.done());
        eprintln!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones_and_threads() {
        let p = Progress::quiet("test", 400);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        p.inc(1);
                    }
                });
            }
        });
        assert_eq!(p.done(), 400);
        assert_eq!(p.total(), 400);
        assert!(p.rate() > 0.0);
        p.finish(); // quiet: no output, no panic
    }
}
