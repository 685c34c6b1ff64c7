//! The grading workloads. `campaign_ab`: one op is one
//! `run_campaign_of_engine` call plus its coverage report. `ctrl_triage`:
//! the same, then `fault::forensics::analyze` and
//! `EscapeAttribution::from_forensics` on the result.

use std::collections::BTreeMap;
use std::time::Instant;

use fault::campaign::{CampaignHooks, CampaignStats};
use fault::coverage::CoverageReport;
use fault::engine::EngineConfig;
use fault::forensics::{self, Bucket};
use fault::sim::ParallelSim;
use obs::{PhaseProfile, ProfilePhase, Profiler};
use plasma::testbench::SelfTestBench;
use sbst::flow::{self, MEM_BYTES};
use sbst::provenance::EscapeAttribution;

use crate::outcome::{Effort, Outcome, Reference};
use crate::report::Report;
use crate::setup::{self, Bench};
use crate::stats::median;
use crate::trace::{Scope, SpanSummary, Trace};
use crate::{reference, Args, Workload};

/// Campaign worker threads per op (the host has two CPUs).
pub const THREADS: usize = 2;
/// Lanes per batch of the compiled engine.
pub const LANES: usize = 256;
/// Escapes one forensics replay batch holds (lanes 1..64 of the
/// interpreted engine).
const REPLAY_BATCH: u64 = 63;

/// One graded (and, for `ctrl_triage`, triaged) op.
pub struct Op {
    /// Wall time of the op.
    pub secs: f64,
    /// The checked result.
    pub outcome: Outcome,
    /// Effort counters of the campaign.
    pub effort: Effort,
    /// The campaign's own statistics (workers, profile).
    pub stats: CampaignStats,
    /// Escape classes per forensics bucket, in `Bucket::ALL` order.
    pub buckets: Option<[u64; 4]>,
}

impl Op {
    /// The op's count metrics, which must repeat exactly for a seed.
    pub fn counts(&self) -> BTreeMap<&'static str, f64> {
        let mut c = self.effort.counts();
        if let Some(b) = self.buckets {
            let testable = self.effort.escapes().saturating_sub(b[0]);
            c.insert(
                "forensics.replay_batches",
                testable.div_ceil(REPLAY_BATCH) as f64,
            );
            for (name, n) in BUCKET_METRICS.iter().zip(b) {
                c.insert(name, n as f64);
            }
        }
        c
    }

    /// The op's check: the bucket partition covers every escape, and the
    /// outcome matches the reference.
    pub fn check(&self, reference: &Reference) -> Result<(), String> {
        if let Some(b) = self.buckets {
            let (sum, escapes) = (b.iter().sum::<u64>(), self.effort.escapes());
            if sum != escapes {
                return Err(format!("buckets hold {sum} escapes of {escapes}"));
            }
        }
        reference.check(&self.outcome)
    }
}

const BUCKET_METRICS: [&str; 4] = [
    "forensics.bucket.untestable",
    "forensics.bucket.unexercised",
    "forensics.bucket.activated_unpropagated",
    "forensics.bucket.propagated_unobserved",
];

/// Run one op over `bench` with `threads` campaign workers. A profiled
/// op enables the program's hot-loop profiler.
pub fn grade(bench: &Bench, threads: usize, profiled: bool, scope: &Scope) -> Op {
    let hooks = CampaignHooks {
        profiler: if profiled {
            Profiler::new()
        } else {
            Profiler::disabled()
        },
        ..CampaignHooks::none()
    };
    let netlist = bench.core.netlist();
    let t0 = Instant::now();
    let result = {
        let _s = scope.layer("campaign");
        flow::run_campaign_of_engine(
            &bench.core,
            &bench.selftest.program,
            &bench.faults,
            bench.budget,
            threads,
            &hooks,
            EngineConfig::compiled(LANES),
        )
    };
    let coverage = {
        let _s = scope.layer("coverage");
        CoverageReport::from_campaign(netlist, &result)
    };
    let triage = bench.provenance.as_ref().map(|(golden, map)| {
        let report = {
            let _s = scope.layer("forensics");
            let [early, late] = bench.core.segments();
            let mut sim = ParallelSim::with_segments(netlist, &[early.to_vec(), late.to_vec()]);
            let mut tb = SelfTestBench::new(
                &bench.core,
                &bench.selftest.program,
                MEM_BYTES,
                bench.budget,
            );
            forensics::analyze(
                netlist,
                &result,
                bench.core.observed_outputs(),
                &mut sim,
                &mut tb,
            )
        };
        let attribution = {
            let _s = scope.layer("provenance");
            EscapeAttribution::from_forensics(&report, golden, map)
        };
        (report, attribution)
    });
    let secs = t0.elapsed().as_secs_f64();

    let stats = result.stats;
    let effort = Effort::of(
        &result.detections,
        stats.batches,
        stats.cycles_simulated,
        stats.lanes,
        bench.budget,
    );
    let buckets = triage.as_ref().map(|(report, _)| {
        let totals = report.bucket_totals();
        Bucket::ALL.map(|b| totals.iter().find(|t| t.0 == b).map_or(0, |t| t.1 as u64))
    });
    let triage = triage.map(|(report, attribution)| {
        let json = |v| serde_json::to_string(&v).expect("JSON serializes");
        format!(
            "{}\n{}",
            json(report.to_json()),
            json(attribution.to_json())
        )
    });
    Op {
        secs,
        outcome: Outcome {
            detections: result.detections,
            total_weighted: coverage.total_faults,
            detected_weighted: coverage.total_detected,
            triage,
        },
        effort,
        stats,
        buckets,
    }
}

/// Run `campaign_ab` or `ctrl_triage`: set up, take the reference, then
/// run ops in a closed loop for `args.seconds`.
pub fn run(workload: Workload, args: &Args, trace: &Trace, report: &mut Report) -> PhaseProfile {
    let (mut setups, bench) = setup::Setups::start(workload, args.seed, trace, &|_, _| {});
    report.lines.push(format!(
        "{}: {} faults, budget {} cycles, {THREADS} threads x {LANES} lanes",
        workload.name(),
        bench.faults.len(),
        bench.budget
    ));

    // The warm-up, which also fills the kernel cache, is a single-threaded
    // run of the same input: for the default seed it is checked against
    // the recorded digest, for any other seed it is the reference.
    let warm = grade(&bench, 1, false, &Scope::off());
    let reference = match reference::digest(workload, args.seed, 0) {
        Some(d) => {
            let r = Reference::Digest(d);
            report.op("warm-up op", warm.check(&r));
            r
        }
        None => Reference::Run(warm.outcome),
    };

    let window = Instant::now();
    let mut ops: Vec<(bool, Op)> = Vec::new();
    // Start another op while it is expected to end in the window: a run
    // ends within about half an op of `--seconds`.
    let last = |ops: &[(bool, Op)]| ops.last().map_or(0.0, |o| o.1.secs);
    // A traced run needs one op of each kind.
    let min_ops = 1 + usize::from(args.trace);
    while ops.len() < min_ops || window.elapsed().as_secs_f64() + last(&ops) / 2.0 < args.seconds {
        let i = ops.len();
        // A traced run alternates untraced and traced ops, so both
        // medians come from the same window.
        let traced = args.trace && i % 2 == 1;
        let scope = trace.root(&format!("op-{i}"), "op", traced);
        let op = grade(&bench, THREADS, traced, &scope);
        drop(scope);
        report.op(&format!("op {i}"), op.check(&reference));
        ops.push((traced, op));
        setups.between_ops();
    }
    crate::set_peak_rss(report);
    setups.finish(report);

    let plain: Vec<f64> = ops.iter().filter(|o| !o.0).map(|o| o.1.secs).collect();
    let timed: Vec<f64> = ops.iter().filter(|o| o.0).map(|o| o.1.secs).collect();
    crate::set_latency(report, &plain, bench.faults.len() as f64);

    let counts = ops[0].1.counts();
    for (i, (_, op)) in ops.iter().enumerate().skip(1) {
        if op.counts() != counts {
            report.lines.push(format!(
                "NONDETERMINISM: op {i} counts {:?} != op 0 {counts:?}",
                op.counts()
            ));
        }
    }
    if let Some(line) = reference::compare_counts(workload, args.seed, &counts) {
        report.lines.push(line);
    }
    for (name, v) in &counts {
        report.set(name, *v);
    }
    report.set("coverage.weighted_pct", ops[0].1.outcome.coverage_pct());

    let mut profile = PhaseProfile::default();
    if args.trace {
        let traced: Vec<&Op> = ops.iter().filter(|o| o.0).map(|o| &o.1).collect();
        for op in &traced {
            profile.absorb(&op.stats.profile);
        }
        set_grading_layers(report, &traced);
        let spans = crate::trace::summarize(&trace.jsonl());
        set_op_layers(report, &spans);
        crate::set_trace_layers(report, spans.closure, &plain, &timed);
    }
    profile
}

/// Hot-loop and worker metrics of the traced ops, as medians.
fn set_grading_layers(report: &mut Report, ops: &[&Op]) {
    let med = |f: &dyn Fn(&Op) -> f64| median(&ops.iter().map(|o| f(o)).collect::<Vec<_>>());
    let cycles = |o: &Op| o.effort.cycles_simulated.max(1) as f64;
    let walls = |o: &Op| {
        o.stats
            .workers
            .iter()
            .map(|w| w.wall_seconds)
            .collect::<Vec<f64>>()
    };
    if let Some(v) = med(&|o| walls(o).iter().sum::<f64>() * 1e9 / cycles(o)) {
        report.set("campaign.host_ns_per_cycle", v);
    }
    let imbalance = |o: &Op| {
        let w = walls(o);
        let min = w.iter().copied().fold(f64::INFINITY, f64::min);
        let max = w.iter().copied().fold(0.0, f64::max);
        if min > 0.0 && min.is_finite() {
            max / min
        } else {
            0.0
        }
    };
    if let Some(v) = med(&imbalance) {
        report.set("campaign.worker_imbalance", v);
    }
    for (name, phase) in [
        ("profile.eval_early_ns_per_cycle", ProfilePhase::EvalEarly),
        ("profile.eval_late_ns_per_cycle", ProfilePhase::EvalLate),
        ("profile.overlay_ns_per_cycle", ProfilePhase::Overlay),
        ("profile.detect_ns_per_cycle", ProfilePhase::Detect),
        ("profile.clock_ns_per_cycle", ProfilePhase::Clock),
    ] {
        if let Some(v) = med(&|o| o.stats.profile.ns(phase) as f64 / cycles(o)) {
            report.set(name, v);
        }
    }
    for (name, phase) in [
        ("profile.patch_ms", ProfilePhase::Patch),
        ("profile.reset_ms", ProfilePhase::Reset),
    ] {
        if let Some(v) = med(&|o| o.stats.profile.ns(phase) as f64 / 1e6) {
            report.set(name, v);
        }
    }
}

/// Layer times read off the op spans, as medians.
fn set_op_layers(report: &mut Report, spans: &SpanSummary) {
    for (name, kind, scale) in [
        ("campaign.op_s", "campaign", 1.0),
        ("coverage.report_ms", "coverage", 1e3),
        ("forensics.analyze_s", "forensics", 1.0),
        ("provenance.attribution_ms", "provenance", 1e3),
    ] {
        if let Some(v) = median(spans.secs(kind)) {
            report.set(name, v * scale);
        }
    }
}
