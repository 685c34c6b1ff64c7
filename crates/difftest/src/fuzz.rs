//! Constrained-random lockstep fuzzing with wave-based coverage feedback.
//!
//! Seeds are processed in *waves*. Within a wave, workers pull seeds off
//! an atomic cursor (the PR-1 campaign plumbing) and write results into
//! per-seed slots, so the merged outcome vector is in seed order and
//! bit-identical regardless of thread count. Between waves the merged
//! component-exercise counts (see [`crate::sched`]) re-weight the
//! generator for the next wave — feedback only ever crosses a wave
//! boundary, which is what keeps the schedule deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mips::gen::{random_parts, GenConfig};
use obs::{MetricRegistry, Progress, Telemetry};
use plasma::PlasmaCore;
use serde_json::Value;

use crate::oracle::{Divergence, PlasmaOracle, MAX_CYCLES};
use crate::sched::ComponentExercise;

/// Fuzzing-run parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of seeds (programs) to run.
    pub seeds: u64,
    /// First seed value; seeds are consecutive from here.
    pub seed_start: u64,
    /// Random body length per program.
    pub body_len: usize,
    /// Worker threads; `0` uses [`fault::campaign::default_threads`].
    pub threads: usize,
    /// Seeds per scheduling wave; the generator is re-weighted between
    /// waves.
    pub wave: usize,
    /// Cycle cap of each lockstep run.
    pub max_cycles: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seeds: 16,
            seed_start: 1,
            body_len: 120,
            threads: 0,
            wave: 8,
            max_cycles: MAX_CYCLES,
        }
    }
}

/// The `--progress` ticker of a `seeds`-seed run reporting into
/// `registry`: seeds merged against seeds asked for.
pub fn progress(registry: &MetricRegistry, seeds: u64) -> Progress {
    Progress::start("difftest", seeds_counter(registry), move || seeds)
}

fn seeds_counter(registry: &MetricRegistry) -> obs::Counter {
    registry.counter("difftest_seeds_total", "lockstep seeds executed", &[])
}

/// Per-seed outcome, in seed order.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// Generation weights this seed ran with (branch, mem, muldiv).
    pub weights: (u64, u64, u64),
    /// Cycles simulated.
    pub cycles: u64,
    /// Whether the ISS reached the end marker within budget.
    pub finished: bool,
    /// ISS-vs-netlist divergence, if any.
    pub divergence: Option<Divergence>,
}

/// Result of a fuzzing run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// Per-seed outcomes, ordered by seed.
    pub outcomes: Vec<SeedOutcome>,
    /// Accumulated component-exercise counts across all seeds.
    pub exercise: ComponentExercise,
    /// Lanes of the oracles' simulators.
    pub lanes: usize,
}

impl FuzzReport {
    /// Seeds whose programs diverged.
    pub fn divergent_seeds(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| o.divergence.is_some())
            .map(|o| o.seed)
            .collect()
    }
}

/// Run the lockstep fuzzer on the Plasma core. `telemetry` traces
/// `difftest_begin`, one `difftest_divergence` per divergent seed, one
/// `difftest_wave` per feedback wave and `difftest_end`; its registry
/// receives `difftest_seeds_total`, `difftest_divergences_total`,
/// `difftest_cycles_total` and a `difftest_seeds_per_sec` gauge, at
/// wave granularity — never inside the lockstep loop.
pub fn fuzz_plasma(core: &PlasmaCore, cfg: &FuzzConfig, telemetry: &Telemetry) -> FuzzReport {
    let t0 = std::time::Instant::now();
    let tracer = &telemetry.tracer;
    // Pre-registered counter handles: the wave merge loop pays one
    // atomic add per counter, never a registry lock.
    let counters = telemetry.metrics.as_ref().map(|reg| {
        (
            seeds_counter(reg),
            reg.counter(
                "difftest_divergences_total",
                "ISS-vs-netlist divergences found",
                &[],
            ),
            reg.counter(
                "difftest_cycles_total",
                "lockstep cycles simulated across seeds",
                &[],
            ),
        )
    });
    let threads = if cfg.threads == 0 {
        fault::campaign::default_threads()
    } else {
        cfg.threads
    };
    let wave_len = cfg.wave.max(1);
    let mut gen_cfg = GenConfig {
        body_len: cfg.body_len,
        ..GenConfig::default()
    };
    tracer.event(
        "difftest_begin",
        &[
            ("seeds", Value::U64(cfg.seeds)),
            ("seed_start", Value::U64(cfg.seed_start)),
            ("body_len", Value::U64(cfg.body_len as u64)),
            ("threads", Value::U64(threads as u64)),
            ("wave", Value::U64(wave_len as u64)),
        ],
    );

    // One compiled oracle per worker, reused across all waves.
    let mut oracles: Vec<PlasmaOracle> = (0..threads)
        .map(|_| PlasmaOracle::new(core, cfg.max_cycles))
        .collect();

    let mut outcomes = Vec::with_capacity(cfg.seeds as usize);
    let mut exercise = ComponentExercise::default();
    let mut next_seed = cfg.seed_start;
    let seed_end = cfg.seed_start.saturating_add(cfg.seeds);

    let mut wave_idx = 0u64;
    while next_seed < seed_end {
        let wave_seeds: Vec<u64> = (next_seed..seed_end.min(next_seed + wave_len as u64)).collect();
        next_seed += wave_seeds.len() as u64;

        type Slot = Mutex<Option<(SeedOutcome, ComponentExercise)>>;
        let slots: Vec<Slot> = wave_seeds.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let gcfg = &gen_cfg;
        let seeds_ref = &wave_seeds;
        let slots_ref = &slots;
        let cursor_ref = &cursor;

        std::thread::scope(|s| {
            for oracle in oracles.iter_mut() {
                s.spawn(move || loop {
                    let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= seeds_ref.len() {
                        break;
                    }
                    let seed = seeds_ref[i];
                    let parts = random_parts(seed, gcfg);
                    let report = oracle.run(&parts.to_program(), &[]);
                    let ex = ComponentExercise::attribute(&report.trace);
                    let outcome = SeedOutcome {
                        seed,
                        weights: (gcfg.branch_weight, gcfg.mem_weight, gcfg.muldiv_weight),
                        cycles: report.cycles,
                        finished: report.golden_cycles.is_some(),
                        divergence: report.divergence,
                    };
                    *slots_ref[i].lock().unwrap() = Some((outcome, ex));
                });
            }
        });

        // Merge in seed order — this ordering (not thread arrival order)
        // is what makes the run reproducible.
        for slot in slots {
            let (outcome, ex) = slot
                .into_inner()
                .unwrap()
                .expect("every wave slot is filled");
            if let Some(d) = &outcome.divergence {
                tracer.event(
                    "difftest_divergence",
                    &[
                        ("seed", Value::U64(outcome.seed)),
                        ("cycle", Value::U64(d.cycle)),
                        ("pc", Value::U64(d.pc as u64)),
                    ],
                );
            }
            if let Some((seeds, divs, cycles)) = &counters {
                seeds.inc(1);
                cycles.inc(outcome.cycles);
                if outcome.divergence.is_some() {
                    divs.inc(1);
                }
            }
            exercise.absorb(&ex);
            outcomes.push(outcome);
        }

        wave_idx += 1;
        gen_cfg = exercise.reweight(&gen_cfg);
        tracer.event(
            "difftest_wave",
            &[
                ("wave", Value::U64(wave_idx)),
                ("branch_weight", Value::U64(gen_cfg.branch_weight)),
                ("mem_weight", Value::U64(gen_cfg.mem_weight)),
                ("muldiv_weight", Value::U64(gen_cfg.muldiv_weight)),
            ],
        );
    }

    tracer.event(
        "difftest_end",
        &[
            ("seeds", Value::U64(outcomes.len() as u64)),
            (
                "divergences",
                Value::U64(outcomes.iter().filter(|o| o.divergence.is_some()).count() as u64),
            ),
            ("instrs_attributed", Value::U64(exercise.total())),
        ],
    );
    tracer.flush();

    if let Some(reg) = &telemetry.metrics {
        let wall = t0.elapsed().as_secs_f64();
        reg.gauge(
            "difftest_seeds_per_sec",
            "seed throughput of the last fuzzing run",
            &[],
        )
        .set(if wall > 0.0 {
            outcomes.len() as f64 / wall
        } else {
            0.0
        });
    }

    FuzzReport {
        outcomes,
        exercise,
        lanes: oracles[0].sim().lanes(),
    }
}
