//! Fault-simulation campaigns: batching, fault dropping, detection
//! records, and execution observability.
//!
//! A campaign simulates every fault in a [`FaultList`] against a stimulus
//! source, `lanes - 1` faults at a time (lane 0 carries the fault-free
//! reference), and records when each fault is first *detected* — i.e.
//! when the faulty machine's primary-output behaviour diverges from the
//! reference. Batches end early once all their faults are detected
//! (fault dropping), and at every doubling cycle boundary (128, 256,
//! 512, …) the undetected faults of all batches are regrouped into
//! fewer, full batches, each carrying its lane state along (survivor
//! compaction). Each batch runs at the smallest of 64/128/256/512 lanes
//! that holds its faults plus lane 0, capped at the simulator's width,
//! and only a 64-lane lone batch runs straight to the budget — so few
//! lanes keep simulating a dropped fault or no fault at all.
//!
//! One runner, [`run`], drives the one fault simulator — the compiled
//! 64–512-lane [`WideSim`], built by [`crate::engine::EngineConfig`] —
//! against one [`Testbench`] per stimulus.
//!
//! The runner shards each epoch's batches over worker threads pulling
//! batches off a cache-line-padded atomic cursor; a serial run is the
//! one-worker case on the calling thread. Each worker owns its own
//! simulator clone (compiled workers share one immutable kernel by
//! `Arc`) and testbench. Batches are independent — the simulator state
//! is rebuilt from reset per batch run, plus the lanes it resumes — so
//! the merged result is bit-identical at every thread count, and a
//! fault's detection is independent of lane width.
//!
//! A run reports through one [`obs::Telemetry`] handle: its tracer
//! receives `campaign_begin`, one `batch` event per batch run (with the
//! worker's thread id, the batch's lanes and its wall time) and
//! `campaign_end`, and passes each to its JSONL file and/or live bus;
//! its registry counts batches, cycles and faults taken on and resolved
//! (the `--progress` ticker renders the last two); its profiler times
//! patch and reset. Every run also folds execution metrics into
//! [`CampaignStats`]: cycles and lane-cycles vs budget, a
//! detection-latency histogram, and per-worker batch/cycle/wall
//! throughput. With telemetry disabled (the default)
//! the instrumentation reduces to one branch per *batch*, so the
//! simulation hot loop is untouched.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

use netlist::Netlist;
use obs::{
    LatencyHistogram, MetricRegistry, PhaseProfile, ProfilePhase, Profiler, Progress, Telemetry,
    Tracer,
};
use serde_json::Value;

use crate::engine::flat_sim;
use crate::kernel::SimStats;
use crate::model::{Fault, FaultList};
use crate::wide::{WideSim, MAX_LANE_WORDS};

/// Wraps the shared batch cursor so it owns a full cache line: workers
/// on different cores hammer `fetch_add` on it, and without padding the
/// line would also carry neighbouring stack data (false sharing — one
/// cause of the recorded 4-thread regression).
#[repr(align(128))]
struct CachePadded<T>(T);

/// Stimulus source driven by the campaign runner, one clock cycle at a
/// time.
///
/// Implementations drive primary inputs, call
/// [`WideSim::eval_segment`]/[`WideSim::eval_all`] and
/// [`WideSim::clock`], and report which lanes diverged from lane 0 at
/// the observation points this cycle. A core on a memory bus runs on
/// [`crate::membench::MemBench`] (per-lane memory overlays); simple
/// vector application is provided here by [`VectorBench`]. Campaigns,
/// the forensics evidence pass, wave capture and the lockstep oracles
/// run these two benches.
pub trait Testbench {
    /// Prepare for a fresh batch. Called after faults are injected and the
    /// simulator's flip-flops are reset.
    fn begin(&mut self, sim: &mut WideSim);

    /// Execute one clock cycle, OR-ing the lanes whose observed outputs
    /// diverged from lane 0 during this cycle into `diff` (length
    /// `sim.lane_words()`, zeroed by the caller).
    fn step(&mut self, sim: &mut WideSim, cycle: u64, diff: &mut [u64]);

    /// Total number of cycles to run per batch.
    fn cycles(&self) -> u64;

    /// Append lane `lane`'s bench-side state to `out` — for a bench
    /// with memory overlays, the words that lane has written since
    /// [`Testbench::begin`]. The runner parks it with the lane's
    /// flip-flops at an epoch boundary, and stores one copy for lanes
    /// whose state comes out equal to lane 0's, so lanes with equal
    /// state should save equal words. Stateless benches keep the default
    /// (nothing).
    fn save_lane(&self, _lane: usize, _out: &mut Vec<u64>) {}

    /// Restore into lane `lane` the state [`Testbench::save_lane`]
    /// appended (called after [`Testbench::begin`], before the batch
    /// resumes mid-run).
    fn load_lane(&mut self, _lane: usize, _state: &[u64]) {}
}

/// Per-fault outcome of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// Never diverged within the cycle budget.
    Undetected,
    /// First divergence observed at this cycle.
    DetectedAt(u64),
}

impl Detection {
    /// Whether the fault was detected.
    pub fn is_detected(self) -> bool {
        matches!(self, Detection::DetectedAt(_))
    }
}

/// Per-worker execution metrics of one campaign run (one entry for a
/// serial run). Batch runtimes are uneven because of fault dropping, so
/// these expose how well the dynamic batch cursor balanced the load.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Worker index (spawn order; 0 for the serial runner).
    pub worker: usize,
    /// Batch runs this worker pulled off the cursor.
    pub batches: u64,
    /// Cycles this worker simulated.
    pub cycles: u64,
    /// Wall-clock seconds this worker spent running batches (waits at
    /// epoch boundaries excluded).
    pub wall_seconds: f64,
    /// The configured lane width: the widest batch this worker may run.
    pub lanes: u64,
    /// Lane-cycles this worker simulated: per batch run, its cycles
    /// times its lanes.
    pub lane_cycles: u64,
}

impl WorkerStats {
    /// This worker's throughput in millions of lane-cycles per second.
    pub fn mlane_cycles_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.lane_cycles as f64 / self.wall_seconds / 1e6
    }
}

/// Measured execution statistics of a campaign run — the observability
/// layer that turns "it feels faster" into numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// Batch runs simulated: one per batch per epoch (see [`run`]).
    pub batches: u64,
    /// Clock cycles actually simulated, summed over batch runs (fault
    /// dropping and regrouping make this ≤ `budget_cycles`).
    pub cycles_simulated: u64,
    /// Cycles a drop-free run would have cost: ⌈faults / (lanes − 1)⌉
    /// batches × budget.
    pub budget_cycles: u64,
    /// Faults graded.
    pub faults: u64,
    /// Faults detected before the cycle budget ran out (each detection
    /// drops that fault from further observation).
    pub faults_dropped: u64,
    /// Lane-cycles no scheduler could avoid: per fault its detection
    /// cycle + 1, or the whole budget for an escape.
    pub lane_cycles_useful: u64,
    /// Lane-cycles simulated: per batch run, its cycles times its lanes
    /// (batches narrower than `lanes` count their own width).
    pub lane_cycles_spent: u64,
    /// Wall-clock time of the campaign.
    pub wall_seconds: f64,
    /// Worker threads used (1 = serial).
    pub threads: usize,
    /// Detection-latency histogram: cycle of first divergence, in
    /// power-of-two buckets.
    pub latency: LatencyHistogram,
    /// Per-worker batch/cycle/wall metrics (one entry when serial).
    pub workers: Vec<WorkerStats>,
    /// Hot-loop phase profile accumulated by this run (empty unless the
    /// telemetry carried an enabled [`Profiler`]).
    pub profile: PhaseProfile,
    /// The configured lane width, the widest any batch runs at (64 to
    /// 512).
    pub lanes: u64,
}

impl Default for CampaignStats {
    fn default() -> Self {
        CampaignStats {
            batches: 0,
            cycles_simulated: 0,
            budget_cycles: 0,
            faults: 0,
            faults_dropped: 0,
            lane_cycles_useful: 0,
            lane_cycles_spent: 0,
            wall_seconds: 0.0,
            threads: 1,
            latency: LatencyHistogram::new(),
            workers: Vec::new(),
            profile: PhaseProfile::default(),
            lanes: 64,
        }
    }
}

impl CampaignStats {
    /// Simulation throughput in millions of lane-cycles per second.
    pub fn mlane_cycles_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.lane_cycles_spent as f64 / self.wall_seconds / 1e6
    }

    /// Useful ÷ spent lane-cycles: the share of simulated lane-cycles
    /// that carried a live fault.
    pub fn lane_utilization(&self) -> f64 {
        if self.lane_cycles_spent == 0 {
            return 0.0;
        }
        self.lane_cycles_useful as f64 / self.lane_cycles_spent as f64
    }

    /// Faults graded per wall-clock second — the end-to-end throughput.
    pub fn faults_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.faults as f64 / self.wall_seconds
    }
}

/// [`CampaignStats::lane_cycles_useful`] of a detection vector under a
/// per-fault cycle budget.
pub fn useful_lane_cycles(detections: &[Detection], budget: u64) -> u64 {
    detections
        .iter()
        .map(|d| match d {
            Detection::DetectedAt(c) => c + 1,
            Detection::Undetected => budget,
        })
        .sum()
}

/// Latency histogram over a detection vector (cycle of first
/// divergence for every detected fault).
pub(crate) fn latency_of(detections: &[Detection]) -> LatencyHistogram {
    LatencyHistogram::from_cycles(detections.iter().filter_map(|d| match d {
        Detection::DetectedAt(c) => Some(*c),
        Detection::Undetected => None,
    }))
}

/// [`obs::Telemetry`] under the name the benchmark package imports it by.
pub use obs::Telemetry as CampaignHooks;

/// Pre-registered campaign counter handles (so the batch loop pays one
/// atomic add per counter, never a registry lock).
struct BatchCounters {
    batches: obs::Counter,
    cycles: obs::Counter,
    /// Faults the campaigns took on.
    faults: obs::Counter,
    /// Faults resolved: detected, or escaped at the budget.
    resolved: obs::Counter,
}

impl BatchCounters {
    fn of(registry: &MetricRegistry) -> BatchCounters {
        BatchCounters {
            batches: registry.counter(
                "sbst_batches_total",
                "simulation batch runs completed (one per batch per epoch)",
                &[],
            ),
            cycles: registry.counter(
                "sbst_cycles_total",
                "clock cycles simulated across all batches",
                &[],
            ),
            faults: registry.counter("sbst_faults_total", "faults campaigns took on", &[]),
            resolved: registry.counter(
                "sbst_faults_resolved_total",
                "faults resolved: detected, or escaped at the budget",
                &[],
            ),
        }
    }
}

/// The `--progress` ticker over every campaign reporting into
/// `registry`: faults resolved against faults taken on.
pub fn progress(registry: &MetricRegistry) -> Progress {
    let c = BatchCounters::of(registry);
    Progress::start("campaigns", c.resolved, move || c.faults.get())
}

/// Fold a finished run's summary metrics into the registry: detections,
/// throughput gauge, and the detection-latency histogram.
fn publish_run_metrics(registry: &MetricRegistry, stats: &CampaignStats) {
    registry
        .counter(
            "sbst_faults_detected_total",
            "faults detected (dropped) across campaigns",
            &[],
        )
        .inc(stats.faults_dropped);
    registry
        .gauge(
            "sbst_mlane_cycles_per_sec",
            "throughput of the last campaign, millions of lane-cycles per second",
            &[],
        )
        .set(stats.mlane_cycles_per_sec());
    registry
        .histogram(
            "sbst_detection_latency_cycles",
            "cycle of first divergence per detected fault",
            &[],
        )
        .absorb(&stats.latency);
    stats.profile.export(registry);
}

/// Number of `lanes - 1`-fault batches a campaign over `faults` starts
/// with at a given lane width (its first epoch).
pub fn batch_count_lanes(faults: &FaultList, lanes: usize) -> u64 {
    faults.len().div_ceil(lanes - 1) as u64
}

/// Result of running a campaign over a fault list.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The fault list the campaign ran over (clone).
    pub faults: FaultList,
    /// Outcome per fault, parallel to `faults`.
    pub detections: Vec<Detection>,
    /// Execution statistics of the run that produced this result.
    pub stats: CampaignStats,
}

impl CampaignResult {
    /// Weighted fault coverage in `[0, 1]`: detected equivalence classes
    /// weighted by how many raw faults they represent, the figure
    /// commercial fault simulators report.
    pub fn coverage(&self) -> f64 {
        let total: u64 = self.faults.weight.iter().map(|&w| w as u64).sum();
        if total == 0 {
            return 1.0;
        }
        let detected: u64 = self
            .detections
            .iter()
            .zip(&self.faults.weight)
            .filter(|(d, _)| d.is_detected())
            .map(|(_, &w)| w as u64)
            .sum();
        detected as f64 / total as f64
    }

    /// Unweighted coverage over equivalence classes.
    pub fn coverage_classes(&self) -> f64 {
        if self.detections.is_empty() {
            return 1.0;
        }
        self.detections.iter().filter(|d| d.is_detected()).count() as f64
            / self.detections.len() as f64
    }

    /// Latest detection cycle over all detected faults (test length
    /// actually needed), if any fault was detected.
    pub fn last_detection_cycle(&self) -> Option<u64> {
        self.detections
            .iter()
            .filter_map(|d| match d {
                Detection::DetectedAt(c) => Some(*c),
                Detection::Undetected => None,
            })
            .max()
    }

    /// Merge another campaign over the *same fault list* (e.g. a second
    /// test program): a fault is detected if either campaign detects it.
    ///
    /// # Panics
    ///
    /// Panics if the fault lists differ.
    pub fn merge(&self, other: &CampaignResult) -> CampaignResult {
        assert_eq!(
            self.faults.faults, other.faults.faults,
            "merging campaigns over different fault lists"
        );
        let detections = self
            .detections
            .iter()
            .zip(&other.detections)
            .map(|(a, b)| match (a, b) {
                (Detection::DetectedAt(x), Detection::DetectedAt(y)) => {
                    Detection::DetectedAt(*x.min(y))
                }
                (Detection::DetectedAt(x), _) => Detection::DetectedAt(*x),
                (_, Detection::DetectedAt(y)) => Detection::DetectedAt(*y),
                _ => Detection::Undetected,
            })
            .collect::<Vec<_>>();
        let mut workers = self.stats.workers.clone();
        workers.extend(other.stats.workers.iter().cloned());
        let latency = latency_of(&detections);
        let mut profile = self.stats.profile;
        profile.absorb(&other.stats.profile);
        CampaignResult {
            faults: self.faults.clone(),
            detections,
            stats: CampaignStats {
                batches: self.stats.batches + other.stats.batches,
                cycles_simulated: self.stats.cycles_simulated + other.stats.cycles_simulated,
                budget_cycles: self.stats.budget_cycles + other.stats.budget_cycles,
                faults: self.stats.faults + other.stats.faults,
                faults_dropped: self.stats.faults_dropped + other.stats.faults_dropped,
                lane_cycles_useful: self.stats.lane_cycles_useful + other.stats.lane_cycles_useful,
                lane_cycles_spent: self.stats.lane_cycles_spent + other.stats.lane_cycles_spent,
                wall_seconds: self.stats.wall_seconds + other.stats.wall_seconds,
                threads: self.stats.threads.max(other.stats.threads),
                latency,
                workers,
                profile,
                lanes: self.stats.lanes.max(other.stats.lanes),
            },
        }
    }
}

/// Cycle of the first epoch boundary; each later boundary doubles it.
/// Most detections land early (on the Plasma Phase A+B campaign, 83%
/// by cycle 1,024), so short early epochs shed dead lanes soon and long
/// late ones keep the number of regroupings logarithmic in the budget.
const FIRST_BOUNDARY: u64 = 128;

/// End of the epoch starting at `start`: the first boundary of 128,
/// 256, 512, … past `start`, capped at `budget`.
fn epoch_end(start: u64, budget: u64) -> u64 {
    let mut end = FIRST_BOUNDARY;
    while end <= start {
        end *= 2;
    }
    end.min(budget)
}

/// One lane parked at an epoch boundary: its packed flip-flops
/// ([`WideSim::save_lane`]) and its bench state
/// ([`Testbench::save_lane`]).
#[derive(Debug)]
struct LaneState {
    flops: Vec<u64>,
    /// Shared with lane 0's when equal: where a bench observes every
    /// memory write, an undetected lane wrote exactly what lane 0 wrote,
    /// so survivors park no overlay of their own.
    bench: Arc<Vec<u64>>,
}

impl LaneState {
    /// Park lane `lane`, sharing `lane0`'s bench state when equal.
    fn save<T: Testbench + ?Sized>(
        sim: &WideSim,
        tb: &T,
        lane: usize,
        lane0: Option<&LaneState>,
    ) -> LaneState {
        let mut flops = vec![0; sim.state_words()];
        sim.save_lane(lane, &mut flops);
        let mut bench = Vec::new();
        tb.save_lane(lane, &mut bench);
        let bench = match lane0 {
            Some(l0) if *l0.bench == bench => Arc::clone(&l0.bench),
            _ => Arc::new(bench),
        };
        LaneState { flops, bench }
    }

    /// Restore this parked state into lane `lane` (after
    /// [`Testbench::begin`]).
    fn load<T: Testbench + ?Sized>(&self, sim: &mut WideSim, tb: &mut T, lane: usize) {
        sim.load_lane(lane, &self.flops);
        tb.load_lane(lane, &self.bench);
    }

    /// Whether two parked lanes hold the same machine state, with bench
    /// words in any order.
    fn same_machine(&self, other: &LaneState) -> bool {
        let sorted = |v: &[u64]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        self.flops == other.flops && sorted(&self.bench) == sorted(&other.bench)
    }
}

/// Lane words for a batch of `faults` faults: the smallest of 1, 2, 4
/// and 8 whose lanes hold them plus lane 0, never more than `max_words`.
fn fitted_words(faults: usize, max_words: usize) -> usize {
    let mut words = 1;
    while words < max_words && 64 * words < faults + 1 {
        words *= 2;
    }
    words
}

/// One batch of an epoch: fault indices in lane order (lane `k + 1`
/// carries `faults[k]`), after the first epoch their parked lanes, and
/// the lane words it runs at.
struct Batch {
    faults: Vec<usize>,
    parked: Vec<LaneState>,
    words: usize,
}

/// What one batch run leaves behind.
#[derive(Default)]
struct BatchOut {
    /// Outcome per fault, parallel to [`Batch::faults`].
    detections: Vec<Detection>,
    /// The undetected faults' lanes, in lane order, when another epoch
    /// follows (empty otherwise).
    parked: Vec<LaneState>,
    /// Lane 0 at the boundary, when any lane was parked.
    lane0: Option<LaneState>,
}

/// The batches that advance together over cycles `start..end`. Every
/// batch of an epoch starts from the same cycle, where lane 0 — the
/// fault-free machine — is in the same state in every batch, so
/// survivors of different batches can share one.
struct Epoch {
    start: u64,
    end: u64,
    /// Lane 0's state at `start` (`None` at cycle 0: reset).
    lane0: Option<LaneState>,
    batches: Vec<Batch>,
    /// Trace id of the first batch (ids run on across epochs).
    first_id: usize,
    cursor: CachePadded<AtomicUsize>,
    outs: Vec<Mutex<BatchOut>>,
}

impl Epoch {
    /// Group `faults` (fault indices in increasing order, with their
    /// parked lanes after cycle 0) into batches of at most
    /// `64 * max_words - 1` faults starting at cycle `start`, each
    /// fitted to its faults ([`fitted_words`]). A lone 64-lane batch
    /// runs straight to the budget; otherwise the epoch ends at the next
    /// boundary, where the survivors regroup — narrower when they fit.
    fn new(
        start: u64,
        lane0: Option<LaneState>,
        faults: Vec<usize>,
        parked: Vec<LaneState>,
        max_words: usize,
        budget: u64,
        first_id: usize,
    ) -> Epoch {
        let mut parked = parked.into_iter();
        let batches: Vec<Batch> = faults
            .chunks(64 * max_words - 1)
            .map(|f| Batch {
                faults: f.to_vec(),
                parked: parked.by_ref().take(f.len()).collect(),
                words: fitted_words(f.len(), max_words),
            })
            .collect();
        let end = match batches.as_slice() {
            [lone] if lone.words == 1 => budget,
            _ => epoch_end(start, budget),
        };
        Epoch {
            start,
            end,
            lane0,
            outs: batches.iter().map(|_| Mutex::default()).collect(),
            batches,
            first_id,
            cursor: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Record this epoch's outcomes into `detections` and regroup its
    /// survivors, in fault-index order, into the next epoch — `None`
    /// once nothing survives or the budget is spent.
    fn next(&self, detections: &mut [Detection], max_words: usize, budget: u64) -> Option<Epoch> {
        let mut lane0: Option<LaneState> = None;
        let (mut survivors, mut parked) = (Vec::new(), Vec::new());
        for (batch, out) in self.batches.iter().zip(&self.outs) {
            let out = std::mem::take(&mut *out.lock().expect("batch output poisoned"));
            for (&f, &d) in batch.faults.iter().zip(&out.detections) {
                detections[f] = d;
                if !d.is_detected() && self.end < budget {
                    survivors.push(f);
                }
            }
            parked.extend(out.parked);
            if let Some(l0) = out.lane0 {
                // Lanes are independent and lane 0 carries no fault, so
                // every batch must have parked the same machine (bench
                // state in any order: each batch lists its rows its way).
                debug_assert!(
                    lane0.as_ref().is_none_or(|prev| prev.same_machine(&l0)),
                    "lane 0 differs across batches at cycle {}",
                    self.end
                );
                lane0.get_or_insert(l0);
            }
        }
        if survivors.is_empty() {
            return None;
        }
        debug_assert_eq!(survivors.len(), parked.len(), "every survivor parked");
        let first_id = self.first_id + self.batches.len();
        Some(Epoch::new(
            self.end, lane0, survivors, parked, max_words, budget, first_id,
        ))
    }
}

/// Run batch `b` of `epoch`: set its width, inject its faults, reset,
/// restore its parked lanes (lane 0 included), and simulate until the
/// epoch ends or every fault is dropped. When another epoch follows,
/// park lane 0 and every undetected lane. Returns the outcome and the
/// cycles simulated.
///
/// The simulator is fully rebuilt ([`WideSim::reset_state`]) before
/// the parked flip-flops are loaded, so the outcome depends only on the
/// batch's faults, their parked lanes and the stimulus — never on what
/// the worker ran before. This is what lets the runner schedule batches
/// on any worker in any order and still produce one result.
fn run_batch<T: Testbench>(
    sim: &mut WideSim,
    tb: &mut T,
    faults: &[Fault],
    epoch: &Epoch,
    b: usize,
    budget: u64,
    profiler: &Profiler,
) -> (BatchOut, u64) {
    let batch = &epoch.batches[b];
    {
        let _patch = profiler.scope(ProfilePhase::Patch);
        sim.clear_faults();
        sim.set_lane_words(batch.words);
        for (k, &f) in batch.faults.iter().enumerate() {
            sim.inject(faults[f], k + 1);
        }
    }
    {
        let _reset = profiler.scope(ProfilePhase::Reset);
        sim.reset_state();
        tb.begin(sim);
        if let Some(lane0) = &epoch.lane0 {
            lane0.load(sim, tb, 0);
            for (k, lane) in batch.parked.iter().enumerate() {
                lane.load(sim, tb, k + 1);
            }
        }
    }
    let w = sim.lane_words();
    let mut active = [0u64; MAX_LANE_WORDS];
    for lane in 1..=batch.faults.len() {
        active[lane >> 6] |= 1u64 << (lane & 63);
    }
    let mut detected = [0u64; MAX_LANE_WORDS];
    let mut diff = [0u64; MAX_LANE_WORDS];
    let mut out = BatchOut {
        detections: vec![Detection::Undetected; batch.faults.len()],
        ..BatchOut::default()
    };
    for cycle in epoch.start..epoch.end {
        diff[..w].fill(0);
        tb.step(sim, cycle, &mut diff[..w]);
        let mut all_done = true;
        for t in 0..w {
            let newly = diff[t] & active[t] & !detected[t];
            if newly != 0 {
                let mut rem = newly;
                while rem != 0 {
                    let lane = (t << 6) + rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    out.detections[lane - 1] = Detection::DetectedAt(cycle);
                }
                detected[t] |= newly;
            }
            all_done &= detected[t] == active[t];
        }
        if all_done {
            // Every fault in the batch dropped.
            return (out, cycle + 1 - epoch.start);
        }
    }
    if epoch.end < budget {
        let _reset = profiler.scope(ProfilePhase::Reset);
        let lane0 = LaneState::save(sim, tb, 0, None);
        for (k, d) in out.detections.iter().enumerate() {
            if !d.is_detected() {
                out.parked
                    .push(LaneState::save(sim, tb, k + 1, Some(&lane0)));
            }
        }
        out.lane0 = Some(lane0);
    }
    (out, epoch.end - epoch.start)
}

/// Emit the `campaign_begin` event.
#[allow(clippy::too_many_arguments)]
fn trace_campaign_begin(
    tracer: &Tracer,
    mode: &str,
    g: SimStats,
    faults: &FaultList,
    budget: u64,
    threads: usize,
    lanes: usize,
) {
    tracer.event(
        "campaign_begin",
        &[
            ("mode", Value::String(mode.to_string())),
            ("faults", Value::U64(faults.len() as u64)),
            ("batches", Value::U64(batch_count_lanes(faults, lanes))),
            ("lanes", Value::U64(lanes as u64)),
            ("budget", Value::U64(budget)),
            ("threads", Value::U64(threads as u64)),
            ("nets", Value::U64(g.nets as u64)),
            ("gates", Value::U64(g.gates as u64)),
            ("dffs", Value::U64(g.dffs as u64)),
            ("segments", Value::U64(g.segments as u64)),
        ],
    );
}

/// Emit the per-batch event (the JSONL sink also stamps the emitting
/// thread's id). `dur_us` is the batch's wall time, measured only when
/// the tracer has a sink — it lets the trace exporter draw batches as
/// slices instead of instants.
fn trace_batch(
    tracer: &Tracer,
    batch: usize,
    worker: usize,
    out: &[Detection],
    lanes: usize,
    cycles: u64,
    dur_us: Option<u64>,
) {
    if !tracer.enabled() {
        return;
    }
    let detected = out.iter().filter(|d| d.is_detected()).count();
    let mut fields = vec![
        ("batch", Value::U64(batch as u64)),
        ("worker", Value::U64(worker as u64)),
        ("faults", Value::U64(out.len() as u64)),
        ("lanes", Value::U64(lanes as u64)),
        ("cycles", Value::U64(cycles)),
        ("detected", Value::U64(detected as u64)),
    ];
    if let Some(d) = dur_us {
        fields.push(("dur_us", Value::U64(d)));
    }
    tracer.event("batch", &fields);
}

/// Emit the `campaign_end` event and flush the JSONL sink.
fn trace_campaign_end(tracer: &Tracer, stats: &CampaignStats) {
    tracer.event(
        "campaign_end",
        &[
            ("cycles", Value::U64(stats.cycles_simulated)),
            ("budget_cycles", Value::U64(stats.budget_cycles)),
            ("dropped", Value::U64(stats.faults_dropped)),
            ("wall_us", Value::U64((stats.wall_seconds * 1e6) as u64)),
            ("lane_utilization", Value::F64(stats.lane_utilization())),
            ("faults_per_sec", Value::F64(stats.faults_per_sec())),
        ],
    );
    tracer.flush();
}

/// Number of worker threads a campaign should use: the `SBST_THREADS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    match std::env::var("SBST_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Run a campaign: simulate every fault in `faults` against the stimulus
/// of the testbenches `factory` makes, at most `proto.lanes() - 1`
/// faults per batch plus the lane-0 reference.
///
/// Batches advance in lockstep *epochs* that end at fixed cycle
/// boundaries — 128, 256, 512, … doubling, capped at the budget. At each
/// boundary the faults still undetected in every batch are regrouped,
/// in fault-index order, into ⌈survivors / (lanes − 1)⌉ fresh batches,
/// and each survivor's lane state — its flip-flops from the simulator
/// and its memory overlay from the bench — moves to its new lane, so
/// no batch keeps simulating lanes whose faults were dropped and no
/// cycle is simulated twice. Each batch runs at the smallest of
/// 64/128/256/512 lanes that holds its faults plus lane 0, never wider
/// than `proto` ([`WideSim::set_lane_words`]), so the configured width
/// is a cap, not a fixed cost. A lone batch wider than 64 lanes still
/// stops at the next boundary, so its survivors go on narrower; only a
/// lone 64-lane batch runs straight to the budget, and a list of at
/// most 63 faults runs as one batch with no save or restore at all.
///
/// Runs on `threads` worker threads (0 = use [`default_threads`]); one
/// worker runs on the calling thread (mode `serial` in the trace). Each
/// worker clones `proto` — built over the netlist the faults refer to —
/// and makes one testbench, then pulls the epoch's batches off a shared
/// atomic cursor; workers meet at a barrier at each boundary. The
/// schedule depends only on the detections, so batches, cycles and the
/// [`CampaignResult`] are identical at every thread count. Every
/// testbench must produce the same stimulus (same program, same cycle
/// budget).
///
/// `telemetry` traces `campaign_begin`, one `batch` event per batch run
/// (with the worker's thread id) and `campaign_end`, counts faults taken
/// on and resolved in the registry, and feeds the profiler (parking and
/// restoring lanes counts as the `reset` phase). It never touches
/// simulation state, so detections are identical with it on or off.
pub fn run<T, F>(
    proto: &WideSim,
    faults: &FaultList,
    factory: F,
    threads: usize,
    telemetry: &Telemetry,
) -> CampaignResult
where
    T: Testbench,
    F: Fn() -> T + Sync,
{
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let lanes = proto.lanes();
    let max_words = proto.lane_words();
    let first_batches = batch_count_lanes(faults, lanes);
    let workers = threads.min(first_batches as usize).max(1);

    let t0 = Instant::now();
    let tracer = &telemetry.tracer;
    let profile_start = telemetry.profiler.snapshot();
    let budget = factory().cycles();
    let mode = if workers == 1 { "serial" } else { "parallel" };
    trace_campaign_begin(tracer, mode, proto.stats(), faults, budget, workers, lanes);
    let counters = telemetry.metrics.as_ref().map(BatchCounters::of);
    if let Some(c) = &counters {
        c.faults.inc(faults.len() as u64);
    }
    let first = Epoch::new(
        0,
        None,
        (0..faults.len()).collect(),
        Vec::new(),
        max_words,
        budget,
        0,
    );
    let plan = Mutex::new(Some(Arc::new(first)));
    let detections = Mutex::new(vec![Detection::Undetected; faults.len()]);
    let barrier = Barrier::new(workers);
    // The first panic of any worker. Workers keep meeting at the barrier
    // after one, so none waits forever; the leader then ends the run and
    // the panic resumes on the calling thread.
    let failed = Mutex::new(None);
    let guarded = |f: &mut dyn FnMut()| {
        if let Err(p) = std::panic::catch_unwind(AssertUnwindSafe(f)) {
            let mut first = failed.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(p);
        }
    };
    let work = |w: usize| {
        let mut sim = proto.clone();
        let mut tb = factory();
        let mut cycles = 0u64;
        let mut lane_cycles = 0u64;
        let mut done = 0u64;
        let mut busy = Duration::ZERO;
        loop {
            let Some(epoch) = plan.lock().expect("plan poisoned").clone() else {
                break;
            };
            guarded(&mut || loop {
                let b = epoch.cursor.0.fetch_add(1, Ordering::Relaxed);
                if b >= epoch.batches.len() {
                    break;
                }
                let tb0 = Instant::now();
                let (out, c) = run_batch(
                    &mut sim,
                    &mut tb,
                    &faults.faults,
                    &epoch,
                    b,
                    budget,
                    &telemetry.profiler,
                );
                let dur = tb0.elapsed();
                let batch_lanes = 64 * epoch.batches[b].words;
                busy += dur;
                cycles += c;
                lane_cycles += c * batch_lanes as u64;
                done += 1;
                let dur_us = tracer.enabled().then_some(dur.as_micros() as u64);
                let id = epoch.first_id + b;
                trace_batch(tracer, id, w, &out.detections, batch_lanes, c, dur_us);
                if let Some(ctr) = &counters {
                    ctr.batches.inc(1);
                    ctr.cycles.inc(c);
                    // Resolved: detected now, or escaped at the budget.
                    let resolved = if epoch.end == budget {
                        out.detections.len()
                    } else {
                        out.detections.iter().filter(|d| d.is_detected()).count()
                    };
                    ctr.resolved.inc(resolved as u64);
                }
                *epoch.outs[b].lock().expect("batch output poisoned") = out;
            });
            if barrier.wait().is_leader() {
                let mut next = None;
                if failed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_none()
                {
                    guarded(&mut || {
                        let mut det = detections.lock().expect("detections poisoned");
                        next = epoch.next(&mut det, max_words, budget).map(Arc::new);
                    });
                }
                *plan.lock().expect("plan poisoned") = next;
            }
            barrier.wait();
        }
        WorkerStats {
            worker: w,
            batches: done,
            cycles,
            wall_seconds: busy.as_secs_f64(),
            lanes: lanes as u64,
            lane_cycles,
        }
    };
    let worker_stats = if workers == 1 {
        vec![work(0)]
    } else {
        let work = &work;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || work(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect::<Vec<_>>()
        })
    };
    if let Some(p) = failed.into_inner().unwrap_or_else(PoisonError::into_inner) {
        std::panic::resume_unwind(p);
    }
    let detections = detections.into_inner().expect("detections poisoned");
    let dropped = detections.iter().filter(|d| d.is_detected()).count() as u64;
    let stats = CampaignStats {
        batches: worker_stats.iter().map(|w| w.batches).sum(),
        cycles_simulated: worker_stats.iter().map(|w| w.cycles).sum(),
        budget_cycles: first_batches * budget,
        faults: faults.len() as u64,
        faults_dropped: dropped,
        lane_cycles_useful: useful_lane_cycles(&detections, budget),
        lane_cycles_spent: worker_stats.iter().map(|w| w.lane_cycles).sum(),
        wall_seconds: t0.elapsed().as_secs_f64(),
        threads: workers,
        latency: latency_of(&detections),
        workers: worker_stats,
        profile: telemetry.profiler.snapshot().since(&profile_start),
        lanes: lanes as u64,
    };
    trace_campaign_end(tracer, &stats);
    if let Some(reg) = &telemetry.metrics {
        publish_run_metrics(reg, &stats);
    }
    CampaignResult {
        faults: faults.clone(),
        detections,
        stats,
    }
}

/// A [`Testbench`] that applies a fixed sequence of input vectors
/// (broadcast to all lanes) and observes every primary output each cycle.
/// Suitable for grading component-level test sets, combinational or
/// sequential.
pub struct VectorBench<'a> {
    netlist: &'a Netlist,
    /// Each vector is a list of `(port, value)` pairs applied before the
    /// cycle's evaluation; a port a vector leaves out keeps its value.
    vectors: &'a [Vec<(&'a str, u64)>],
    output_nets: Vec<netlist::Net>,
    /// The cycle a straight continuation steps next (0 after `begin`).
    next: u64,
}

impl<'a> VectorBench<'a> {
    /// Create a bench over all output ports of `netlist`.
    pub fn new(netlist: &'a Netlist, vectors: &'a [Vec<(&'a str, u64)>]) -> Self {
        let output_nets = netlist
            .ports()
            .filter(|(_, d, _)| matches!(d, netlist::PortDir::Output))
            .flat_map(|(_, _, nets)| nets.iter().copied())
            .collect();
        VectorBench {
            netlist,
            vectors,
            output_nets,
            next: 0,
        }
    }
}

impl Testbench for VectorBench<'_> {
    fn begin(&mut self, _sim: &mut WideSim) {
        self.next = 0;
    }

    fn step(&mut self, sim: &mut WideSim, cycle: u64, diff: &mut [u64]) {
        if cycle != self.next {
            // Resumed mid-run from parked flip-flops: the ports hold
            // what the earlier vectors last drove, so drive that again.
            for v in &self.vectors[..cycle as usize] {
                for &(port, value) in v {
                    sim.set_port(self.netlist, port, value);
                }
            }
        }
        self.next = cycle + 1;
        for &(port, value) in &self.vectors[cycle as usize] {
            sim.set_port(self.netlist, port, value);
        }
        sim.eval_all();
        sim.diff_vs_lane0(&self.output_nets, diff);
        sim.clock();
    }

    fn cycles(&self) -> u64 {
        self.vectors.len() as u64
    }
}

/// Convenience wrapper: grade `vectors` serially at 64 lanes, the
/// netlist evaluated as one segment.
pub fn run_vectors(
    netlist: &Netlist,
    faults: &FaultList,
    vectors: &[Vec<(&str, u64)>],
) -> CampaignResult {
    run(
        &flat_sim(netlist, 64),
        faults,
        || VectorBench::new(netlist, vectors),
        1,
        &Telemetry::none(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultList;
    use netlist::{synth, NetlistBuilder};
    use obs::Tracer;

    /// `z = dff(a ^ b) & a` over 24-bit words: more faults than two
    /// 64-lane batches hold, and `a = 0` hides the whole register.
    fn registered_xor() -> Netlist {
        let mut b = NetlistBuilder::new("wide");
        let a = b.inputs("a", 24);
        let c = b.inputs("b", 24);
        let y = b.xor_word(&a, &c);
        let q = b.dff_word(&y, 0);
        let z = b.and_word(&q, &a);
        b.outputs("z", &z);
        b.finish().unwrap()
    }

    /// Exhaustive patterns on a 4-bit adder must detect all detectable
    /// faults (the structure is fully testable).
    #[test]
    fn exhaustive_adder_reaches_full_coverage() {
        let mut b = NetlistBuilder::new("add4");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let cin = b.input("cin");
        let r = synth::add_ripple(&mut b, &a, &c, cin);
        b.outputs("sum", &r.sum);
        b.output("cout", r.carry_out);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors: Vec<Vec<(&str, u64)>> = (0..512u64)
            .map(|v| {
                vec![
                    ("a", v & 0xF),
                    ("b", (v >> 4) & 0xF),
                    ("cin", (v >> 8) & 1),
                ]
            })
            .collect();
        let res = run_vectors(&nl, &faults, &vectors);
        // carry_into_msb is an internal-only output here (unconnected), so
        // everything observable must be caught.
        assert!(
            res.coverage() > 0.999,
            "coverage {} too low",
            res.coverage()
        );
    }

    /// A single all-zero vector detects only a few faults; coverage must be
    /// strictly between 0 and 1 and detection cycles recorded as cycle 0.
    #[test]
    fn single_vector_partial_coverage() {
        let mut b = NetlistBuilder::new("and8");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        let y = b.and_word(&a, &c);
        b.outputs("y", &y);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors = vec![vec![("a", 0u64), ("b", 0u64)]];
        let res = run_vectors(&nl, &faults, &vectors);
        let cov = res.coverage();
        assert!(cov > 0.0 && cov < 1.0, "cov = {cov}");
        for d in &res.detections {
            if let Detection::DetectedAt(c) = d {
                assert_eq!(*c, 0);
            }
        }
    }

    /// Sequential detection: a fault on a counter's feedback shows up only
    /// after enough cycles.
    #[test]
    fn sequential_fault_detection_cycles() {
        let mut b = NetlistBuilder::new("ctr");
        let (q, slots) = b.dff_word_later(3, 0);
        let (next, _) = synth::inc(&mut b, &q);
        b.dff_word_set(slots, &next);
        b.outputs("q", &q);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        // No inputs; just let it count for 16 cycles.
        let vectors: Vec<Vec<(&str, u64)>> = (0..16).map(|_| vec![]).collect();
        let res = run_vectors(&nl, &faults, &vectors);
        // The dropped final-carry cone and the tie-high cell are
        // unobservable, so full coverage is impossible; ~0.8 is the real
        // detectable share here.
        assert!(res.coverage() > 0.75, "coverage {}", res.coverage());
        // The MSB-affecting faults can only be seen after several cycles.
        assert!(res.last_detection_cycle().unwrap() >= 3);
    }

    #[test]
    fn merge_unions_detections() {
        let mut b = NetlistBuilder::new("xor1");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let v1 = vec![vec![("a", 0u64), ("b", 0u64)]];
        let v2 = vec![vec![("a", 1u64), ("b", 0u64)], vec![("a", 0), ("b", 1)]];
        let r1 = run_vectors(&nl, &faults, &v1);
        let r2 = run_vectors(&nl, &faults, &v2);
        let merged = r1.merge(&r2);
        assert!(merged.coverage() >= r1.coverage().max(r2.coverage()));
        // XOR with 3 of 4 input combinations detects everything
        // observable.
        assert!(merged.coverage() > 0.99, "cov {}", merged.coverage());
    }

    /// The parallel runner must match the serial runner bit for bit at
    /// every thread count, including partial detection (too few vectors
    /// to catch everything).
    #[test]
    fn parallel_matches_serial_exactly() {
        let nl = registered_xor();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        assert!(faults.len() > 126, "need 3+ batches");
        let vectors: Vec<Vec<(&str, u64)>> = vec![
            vec![("a", 0xAAAAAA), ("b", 0x555555)],
            vec![("a", 0xFFFFFF), ("b", 0)],
            vec![("a", 0x123456), ("b", 0x654321)],
        ];
        let serial = run_vectors(&nl, &faults, &vectors);
        assert_eq!(serial.stats.batches, faults.len().div_ceil(63) as u64);
        assert!(serial.stats.cycles_simulated > 0);
        for threads in [1usize, 2, 4] {
            let factory = || VectorBench::new(&nl, &vectors);
            let par = run(&flat_sim(&nl, 64), &faults, factory, threads, &Telemetry::none());
            assert_eq!(
                par.detections, serial.detections,
                "thread count {threads} changed the result"
            );
            assert_eq!(par.stats.batches, serial.stats.batches);
            assert_eq!(par.stats.cycles_simulated, serial.stats.cycles_simulated);
        }
    }

    /// Zero (or negative) wall time must yield 0.0 throughput, never
    /// inf/NaN — sub-millisecond unit-test campaigns hit this.
    #[test]
    fn zero_duration_throughput_is_zero_not_inf() {
        let stats = CampaignStats {
            cycles_simulated: 1_000_000,
            lane_cycles_spent: 64_000_000,
            wall_seconds: 0.0,
            ..CampaignStats::default()
        };
        assert_eq!(stats.mlane_cycles_per_sec(), 0.0);
        let stats = CampaignStats {
            cycles_simulated: 1_000_000,
            lane_cycles_spent: 64_000_000,
            wall_seconds: -1.0,
            ..CampaignStats::default()
        };
        assert_eq!(stats.mlane_cycles_per_sec(), 0.0);
        let w = WorkerStats {
            worker: 0,
            batches: 1,
            cycles: 1_000_000,
            wall_seconds: 0.0,
            lanes: 64,
            lane_cycles: 64_000_000,
        };
        assert_eq!(w.mlane_cycles_per_sec(), 0.0);
        assert!(w.mlane_cycles_per_sec().is_finite());
        assert_eq!(stats.faults_per_sec(), 0.0);
        assert_eq!(CampaignStats::default().lane_utilization(), 0.0);
    }

    /// Each batch runs at the smallest width that holds its faults plus
    /// lane 0, capped at the configured one, and only a lone 64-lane
    /// batch runs straight to the budget — read off the `batch` events'
    /// `lanes`. Detections match the serial 64-lane run, and the
    /// lane-cycles spent are the events' lanes × cycles.
    #[test]
    fn batches_run_at_the_smallest_width_that_holds_them() {
        let nl = registered_xor();
        let base = FaultList::extract(&nl).collapsed(&nl);
        let all = FaultList {
            faults: base.faults.repeat(4),
            component: base.component.repeat(4),
            weight: base.weight.repeat(4),
            total_uncollapsed: base.total_uncollapsed * 4,
        };
        // `a` stays 0, so most faults escape and batches run on.
        let vectors: Vec<Vec<(&str, u64)>> = (0..300u64)
            .map(|v| vec![("a", 0), ("b", v * 0x9E37)])
            .collect();
        let kernel = crate::kernel::compile_cached(&nl, &[nl.topo_order().to_vec()]);
        // (lanes, cycles) of every batch run over the first `n` faults,
        // in batch order.
        let batches = |lane_words: usize, n: usize| -> Vec<(u64, u64)> {
            let (tracer, buf) = Tracer::to_shared_buffer();
            let telemetry = Telemetry {
                tracer,
                ..Telemetry::none()
            };
            let list = all.slice(0, n);
            let proto = WideSim::new(kernel.clone(), lane_words);
            let res = run(
                &proto,
                &list,
                || VectorBench::new(&nl, &vectors),
                2,
                &telemetry,
            );
            assert_eq!(res.detections, run_vectors(&nl, &list, &vectors).detections);
            let mut runs: Vec<(u64, u64, u64)> = buf
                .contents()
                .lines()
                .map(|l| serde_json::from_str(l).unwrap())
                .filter(|e| e["ev"].as_str() == Some("batch"))
                .map(|e| {
                    let field = |k: &str| e[k].as_u64().unwrap();
                    (field("batch"), field("lanes"), field("cycles"))
                })
                .collect();
            runs.sort_unstable();
            let runs: Vec<(u64, u64)> = runs.into_iter().map(|(_, l, c)| (l, c)).collect();
            let s = &res.stats;
            assert_eq!(
                s.lane_cycles_spent,
                runs.iter().map(|(l, c)| l * c).sum::<u64>()
            );
            assert!(s.lane_cycles_useful <= s.lane_cycles_spent);
            assert!(s.lane_cycles_spent <= s.cycles_simulated * s.lanes);
            runs
        };
        assert!(
            run_vectors(&nl, &all.slice(0, 63), &vectors)
                .detections
                .contains(&Detection::Undetected),
            "the 63-fault batch must run to the budget"
        );
        assert_eq!(batches(4, 63), [(64, 300)], "one batch, never parked");
        for (n, lanes) in [(64, 128), (127, 128), (128, 256)] {
            let runs = batches(4, n);
            assert_eq!(
                runs[0],
                (lanes, 128),
                "{n} faults stop at the first boundary"
            );
            assert!(
                runs.windows(2).all(|w| w[1].0 <= w[0].0),
                "{n} faults: {runs:?}"
            );
        }
        // 600 faults: two full batches, and 90 faults in 128 lanes.
        let capped = batches(4, 600);
        let first: Vec<u64> = capped[..3].iter().map(|r| r.0).collect();
        assert_eq!(first, [256, 256, 128]);
        assert!(
            capped.iter().all(|r| r.0 <= 256),
            "capped at the configured width"
        );
        assert_eq!(batches(8, 300)[0].0, 512);
        assert!(batches(1, 300).iter().all(|r| r.0 == 64));
    }

    /// Epochs end at 128, 256, 512, … and never past the budget.
    #[test]
    fn epoch_boundaries_double_up_to_the_budget() {
        let ends: Vec<u64> =
            std::iter::successors(Some(0), |&s| (s < 7142).then(|| epoch_end(s, 7142)))
                .skip(1)
                .collect();
        assert_eq!(ends, [128, 256, 512, 1024, 2048, 4096, 7142]);
        assert_eq!(epoch_end(0, 100), 100);
        assert_eq!(epoch_end(300, 10_000), 512);
    }

    /// Every lane width, serial or parallel, must agree fault for fault
    /// with the serial 64-lane run — the bit-identical acceptance
    /// criterion at the vector-bench level.
    #[test]
    fn detections_match_across_widths_and_threads() {
        let nl = registered_xor();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        assert!(faults.len() > 126, "need multiple batches at 64 lanes");
        let vectors: Vec<Vec<(&str, u64)>> = vec![
            vec![("a", 0xAAAAAA), ("b", 0x555555)],
            vec![("a", 0xFFFFFF), ("b", 0)],
            vec![("a", 0x123456), ("b", 0x654321)],
        ];
        let reference = run_vectors(&nl, &faults, &vectors);
        assert_eq!(reference.stats.lanes, 64);
        let kernel = crate::kernel::compile_cached(&nl, &[nl.topo_order().to_vec()]);
        for lane_words in [1usize, 2, 4, 8] {
            let proto = WideSim::new(kernel.clone(), lane_words);
            for threads in [1usize, 3] {
                let factory = || VectorBench::new(&nl, &vectors);
                let wide = run(&proto, &faults, factory, threads, &Telemetry::none());
                assert_eq!(
                    wide.detections,
                    reference.detections,
                    "{} lanes at {threads} threads diverged from 64 lanes serial",
                    64 * lane_words
                );
                assert_eq!(wide.stats.lanes, 64 * lane_words as u64);
                assert_eq!(
                    wide.stats.batches,
                    batch_count_lanes(&faults, 64 * lane_words)
                );
            }
        }
    }

    /// Enabling every hook (profiler + metrics + tracing disabled) must
    /// not change detections, at any thread count: the acceptance
    /// criterion that instrumentation is observation-only.
    #[test]
    fn hooks_do_not_change_results() {
        let nl = registered_xor();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors: Vec<Vec<(&str, u64)>> = vec![
            vec![("a", 0xAAAAAA), ("b", 0x555555)],
            vec![("a", 0x123456), ("b", 0x654321)],
        ];
        let plain = run_vectors(&nl, &faults, &vectors);
        let hooks = Telemetry {
            profiler: Profiler::new(),
            metrics: Some(MetricRegistry::new()),
            ..Telemetry::default()
        };
        for threads in [1usize, 2, 4] {
            let factory = || VectorBench::new(&nl, &vectors);
            let par = run(&flat_sim(&nl, 64), &faults, factory, threads, &hooks);
            assert_eq!(
                par.detections, plain.detections,
                "hooks changed detections at {threads} threads"
            );
        }
        // The profiler actually saw the batch phases...
        let snap = hooks.profiler.snapshot();
        assert!(snap.count(ProfilePhase::Patch) > 0);
        assert!(snap.count(ProfilePhase::Reset) > 0);
        // ...and the registry accumulated batch counters.
        let reg = hooks.metrics.as_ref().unwrap();
        let text = reg.to_prometheus();
        assert!(text.contains("sbst_batches_total"), "{text}");
        assert!(text.contains("sbst_cycles_total"), "{text}");
        assert!(text.contains("sbst_faults_detected_total"), "{text}");
    }

    /// A bench that panics once, at cycle 5 of whichever batch reaches
    /// it first.
    struct PanicOnce<'a> {
        inner: VectorBench<'a>,
        armed: &'a std::sync::atomic::AtomicBool,
    }

    impl Testbench for PanicOnce<'_> {
        fn begin(&mut self, sim: &mut WideSim) {
            self.inner.begin(sim);
        }

        fn step(&mut self, sim: &mut WideSim, cycle: u64, diff: &mut [u64]) {
            if cycle == 5 && self.armed.swap(false, Ordering::Relaxed) {
                panic!("bench failure");
            }
            self.inner.step(sim, cycle, diff);
        }

        fn cycles(&self) -> u64 {
            self.inner.cycles()
        }
    }

    /// A worker's panic must surface as a panic of [`run`], not leave
    /// the other workers waiting at an epoch boundary.
    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let nl = registered_xor();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        assert!(faults.len() > 126, "need 3+ batches");
        let vectors: Vec<Vec<(&str, u64)>> = (0..300u64)
            .map(|v| {
                vec![
                    ("a", (v * 0x9E37) & 0xFF_FFFF),
                    ("b", (v * 0x7F4A) & 0xFF_FFFF),
                ]
            })
            .collect();
        for threads in [1usize, 2, 4] {
            let armed = std::sync::atomic::AtomicBool::new(true);
            let factory = || PanicOnce {
                inner: VectorBench::new(&nl, &vectors),
                armed: &armed,
            };
            let proto = flat_sim(&nl, 64);
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run(&proto, &faults, factory, threads, &Telemetry::none())
            }));
            let payload = res.expect_err("the bench panic was swallowed");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"bench failure"));
        }
    }

    /// More than 63 faults exercises multi-batch bookkeeping.
    #[test]
    fn multi_batch_indexing_correct() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.inputs("a", 24);
        let c = b.inputs("b", 24);
        let y = b.xor_word(&a, &c);
        b.outputs("y", &y);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        assert!(faults.len() > 63, "need multiple batches");
        let vectors: Vec<Vec<(&str, u64)>> = vec![
            vec![("a", 0), ("b", 0)],
            vec![("a", 0xFFFFFF), ("b", 0)],
            vec![("a", 0), ("b", 0xFFFFFF)],
        ];
        let res = run_vectors(&nl, &faults, &vectors);
        // XOR with those three vectors tests every bit slice completely.
        assert!(res.coverage() > 0.99, "cov {}", res.coverage());
    }
}
