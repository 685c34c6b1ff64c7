//! Self-profiling for the fault-simulation hot loop: scoped timers that
//! attribute wall-time (and invocation counts) to a fixed taxonomy of
//! phases.
//!
//! The taxonomy mirrors what one batch of a campaign actually does:
//!
//! | phase       | code                                               |
//! |-------------|----------------------------------------------------|
//! | `compile`   | lowering the netlist into a compiled kernel        |
//! | `patch`     | clearing the previous batch's faults + injecting   |
//! | `reset`     | flip-flop reset + testbench begin (drops overlays) |
//! | `eval_early`| netlist evaluation up to the memory-address cut    |
//! | `overlay`   | per-lane memory overlay reads/writes + transpose   |
//! | `eval_late` | netlist evaluation after memory data returns       |
//! | `detect`    | divergence check against the lane-0 reference      |
//! | `clock`     | flip-flop clocking                                 |
//!
//! A [`Profiler`] is a clonable handle around shared atomic
//! accumulators, so campaign worker threads all add into the same
//! profile with one `fetch_add` per phase exit. A disabled profiler (the
//! default) is a `None` behind the handle: every operation is a pointer
//! test, no `Instant::now()` is ever taken, and — critically — nothing
//! here touches simulation state, so profiled and unprofiled campaigns
//! produce bit-identical results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde_json::Value;

/// One phase of the fault-simulation hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilePhase {
    /// One-time lowering of the netlist into a compiled kernel (runs
    /// once per campaign, near-zero on a kernel-cache hit).
    Compile,
    /// Fault clear + injection at batch start.
    Patch,
    /// Simulator state reset + testbench begin (drops the overlay rows).
    Reset,
    /// Netlist evaluation of the early segment (through address out).
    EvalEarly,
    /// Per-lane memory-overlay access and read-data transpose.
    Overlay,
    /// Netlist evaluation of the late segment (after read data).
    EvalLate,
    /// Divergence check of observed outputs against lane 0.
    Detect,
    /// Flip-flop clocking.
    Clock,
}

/// Number of phases in the taxonomy.
pub const PROFILE_PHASES: usize = 8;

impl ProfilePhase {
    /// Every phase, in hot-loop order.
    pub const ALL: [ProfilePhase; PROFILE_PHASES] = [
        ProfilePhase::Compile,
        ProfilePhase::Patch,
        ProfilePhase::Reset,
        ProfilePhase::EvalEarly,
        ProfilePhase::Overlay,
        ProfilePhase::EvalLate,
        ProfilePhase::Detect,
        ProfilePhase::Clock,
    ];

    /// Stable snake_case name (used in tables, JSON, and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            ProfilePhase::Compile => "compile",
            ProfilePhase::Patch => "patch",
            ProfilePhase::Reset => "reset",
            ProfilePhase::EvalEarly => "eval_early",
            ProfilePhase::Overlay => "overlay",
            ProfilePhase::EvalLate => "eval_late",
            ProfilePhase::Detect => "detect",
            ProfilePhase::Clock => "clock",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug)]
struct Inner {
    ns: [AtomicU64; PROFILE_PHASES],
    count: [AtomicU64; PROFILE_PHASES],
}

/// Clonable handle to shared phase accumulators. The default handle is
/// disabled (all operations no-ops); [`Profiler::new`] creates an
/// enabled one.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    inner: Option<Arc<Inner>>,
}

impl Profiler {
    /// An enabled profiler with zeroed accumulators.
    pub fn new() -> Profiler {
        Profiler {
            inner: Some(Arc::new(Inner {
                ns: std::array::from_fn(|_| AtomicU64::new(0)),
                count: std::array::from_fn(|_| AtomicU64::new(0)),
            })),
        }
    }

    /// A profiler that records nothing.
    pub fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// Whether time is being recorded. Hot code should take this branch
    /// once and use explicit [`add_ns`](Self::add_ns) checkpoints on the
    /// enabled path rather than creating per-phase guards per cycle.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `ns` nanoseconds and one invocation to `phase`.
    #[inline]
    pub fn add_ns(&self, phase: ProfilePhase, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.ns[phase.index()].fetch_add(ns, Ordering::Relaxed);
            inner.count[phase.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Scoped timer: returns a guard that attributes the elapsed time to
    /// `phase` when dropped. On a disabled profiler the guard is inert
    /// and no clock is read.
    #[inline]
    pub fn scope(&self, phase: ProfilePhase) -> ProfileScope<'_> {
        ProfileScope {
            state: self
                .inner
                .as_deref()
                .map(|inner| (inner, phase, Instant::now())),
        }
    }

    /// Snapshot the accumulated profile.
    pub fn snapshot(&self) -> PhaseProfile {
        let mut p = PhaseProfile::default();
        if let Some(inner) = &self.inner {
            for i in 0..PROFILE_PHASES {
                p.ns[i] = inner.ns[i].load(Ordering::Relaxed);
                p.count[i] = inner.count[i].load(Ordering::Relaxed);
            }
        }
        p
    }
}

/// Guard returned by [`Profiler::scope`].
#[must_use = "dropping the scope immediately ends the measurement"]
pub struct ProfileScope<'a> {
    state: Option<(&'a Inner, ProfilePhase, Instant)>,
}

impl Drop for ProfileScope<'_> {
    fn drop(&mut self) {
        if let Some((inner, phase, started)) = self.state.take() {
            let i = phase.index();
            inner.ns[i].fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            inner.count[i].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// An immutable snapshot of per-phase wall-time and invocation counts —
/// the form that travels inside `CampaignStats`, merges across runs, and
/// renders into reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseProfile {
    ns: [u64; PROFILE_PHASES],
    count: [u64; PROFILE_PHASES],
}

impl PhaseProfile {
    /// Whether nothing was recorded (profiling was off).
    pub fn is_empty(&self) -> bool {
        self.count.iter().all(|&c| c == 0)
    }

    /// Nanoseconds attributed to `phase`.
    pub fn ns(&self, phase: ProfilePhase) -> u64 {
        self.ns[phase.index()]
    }

    /// Invocations of `phase`.
    pub fn count(&self, phase: ProfilePhase) -> u64 {
        self.count[phase.index()]
    }

    /// Total attributed nanoseconds over all phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Add another profile's samples into this one (campaign merge).
    pub fn absorb(&mut self, other: &PhaseProfile) {
        for i in 0..PROFILE_PHASES {
            self.ns[i] += other.ns[i];
            self.count[i] += other.count[i];
        }
    }

    /// The samples accumulated since `earlier` (a snapshot of the same
    /// profiler taken before the run), saturating at zero.
    pub fn since(&self, earlier: &PhaseProfile) -> PhaseProfile {
        let mut p = PhaseProfile::default();
        for i in 0..PROFILE_PHASES {
            p.ns[i] = self.ns[i].saturating_sub(earlier.ns[i]);
            p.count[i] = self.count[i].saturating_sub(earlier.count[i]);
        }
        p
    }

    /// Render as an aligned text table with share-of-total percentages.
    pub fn to_table(&self) -> String {
        if self.is_empty() {
            return "(profiling disabled)\n".to_string();
        }
        let total = self.total_ns().max(1);
        let mut s = format!(
            "{:<12} {:>12} {:>7} {:>12} {:>10}\n",
            "phase", "wall (ms)", "%", "calls", "ns/call"
        );
        for phase in ProfilePhase::ALL {
            let ns = self.ns(phase);
            let n = self.count(phase);
            s.push_str(&format!(
                "{:<12} {:>12.3} {:>7.2} {:>12} {:>10}\n",
                phase.name(),
                ns as f64 / 1e6,
                100.0 * ns as f64 / total as f64,
                n,
                if n == 0 { 0 } else { ns / n },
            ));
        }
        s.push_str(&format!(
            "{:<12} {:>12.3} {:>7.2}\n",
            "total",
            total as f64 / 1e6,
            100.0
        ));
        s
    }

    /// Machine-readable form: `[{phase, ns, calls}, ...]` for phases
    /// with at least one sample.
    pub fn to_json(&self) -> Value {
        Value::Array(
            ProfilePhase::ALL
                .iter()
                .filter(|&&p| self.count(p) != 0)
                .map(|&p| {
                    serde_json::json!({
                        "phase": p.name(),
                        "ns": self.ns(p),
                        "calls": self.count(p),
                    })
                })
                .collect(),
        )
    }

    /// Publish the profile into `registry` as
    /// `sbst_profile_ns_total{phase=...}` / `sbst_profile_calls_total`
    /// counter pairs (idempotent handles; counters accumulate, so call
    /// once per run).
    pub fn export(&self, registry: &crate::registry::MetricRegistry) {
        for phase in ProfilePhase::ALL {
            if self.count(phase) == 0 {
                continue;
            }
            registry
                .counter(
                    "sbst_profile_ns_total",
                    "wall time attributed to a hot-loop phase, in nanoseconds",
                    &[("phase", phase.name())],
                )
                .inc(self.ns(phase));
            registry
                .counter(
                    "sbst_profile_calls_total",
                    "invocations of a hot-loop phase",
                    &[("phase", phase.name())],
                )
                .inc(self.count(phase));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        assert!(!p.enabled());
        p.add_ns(ProfilePhase::Patch, 100);
        drop(p.scope(ProfilePhase::Detect));
        assert!(p.snapshot().is_empty());
        assert_eq!(p.snapshot().to_table(), "(profiling disabled)\n");
    }

    #[test]
    fn scopes_and_add_ns_accumulate_across_threads() {
        let p = Profiler::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        p.add_ns(ProfilePhase::Overlay, 10);
                        drop(p.scope(ProfilePhase::Detect));
                    }
                });
            }
        });
        let snap = p.snapshot();
        assert_eq!(snap.count(ProfilePhase::Overlay), 100);
        assert_eq!(snap.ns(ProfilePhase::Overlay), 1000);
        assert_eq!(snap.count(ProfilePhase::Detect), 100);
        assert!(snap.total_ns() >= 1000);
        let t = snap.to_table();
        assert!(t.contains("overlay"), "{t}");
        assert!(t.contains("detect"), "{t}");
    }

    #[test]
    fn since_and_absorb_are_inverse_ish() {
        let p = Profiler::new();
        p.add_ns(ProfilePhase::Patch, 50);
        let before = p.snapshot();
        p.add_ns(ProfilePhase::Patch, 70);
        p.add_ns(ProfilePhase::Clock, 30);
        let delta = p.snapshot().since(&before);
        assert_eq!(delta.ns(ProfilePhase::Patch), 70);
        assert_eq!(delta.count(ProfilePhase::Patch), 1);
        assert_eq!(delta.ns(ProfilePhase::Clock), 30);
        let mut merged = before;
        merged.absorb(&delta);
        assert_eq!(merged, p.snapshot());
    }

    #[test]
    fn export_publishes_counters() {
        let reg = crate::registry::MetricRegistry::new();
        let p = Profiler::new();
        p.add_ns(ProfilePhase::EvalEarly, 12345);
        p.snapshot().export(&reg);
        let text = reg.to_prometheus();
        assert!(
            text.contains("sbst_profile_ns_total{phase=\"eval_early\"} 12345"),
            "{text}"
        );
    }
}
