//! Command-line lockstep differential fuzzer (see `crates/difftest`).
//!
//! ```text
//! difftest --seeds 64                  # fuzz 64 random programs, ISS vs netlist
//! difftest --seeds 8 --instrs 200     # longer random bodies
//! difftest --threads 4                # worker threads (default: SBST_THREADS/cores)
//! difftest --seed-start 1000          # shift the seed window
//! difftest --inject                   # demo: inject a netlist fault, localize,
//!                                     #   shrink, persist into the corpus
//! difftest --inject --wave            # also dump a differential VCD of the
//!                                     #   injected fault -> results/WAVE_difftest_*
//! difftest --replay                   # replay every corpus case, fail on change
//! difftest --parwan                   # also lockstep-fuzz the Parwan pair
//! difftest --corpus DIR               # corpus directory (default tests/corpus)
//! difftest --trace FILE --progress    # JSONL events / live seed ticker
//! difftest --sched-wave N             # feedback scheduling wave size
//! ```
//!
//! `--wave` attaches a wave probe to the lockstep oracle: the injected-fault
//! demo re-runs its chosen fault and writes a good/faulty/diff VCD, and the
//! first divergent fuzz seed (if any) gets a VCD of its divergence window.
//! `--wave-pre` / `--wave-post` size the capture window around the trigger;
//! `--wave-probe` (comma-separated component names or port globs,
//! repeatable) selects what is sampled — default every port + all state.
//!
//! Every invocation appends one run record to `results/LEDGER.jsonl`
//! (`--ledger FILE` overrides, `--no-ledger` disables); `bench --bin
//! ledger` renders trends and gates regressions. `--metrics-out FILE`
//! dumps the metric registry (Prometheus text, or a JSON snapshot when
//! FILE ends in `.json`); `--serve PORT` starts the live observatory
//! *before* the run (dashboard at `/`, `/metrics`, `/json`, `/timeline`,
//! `/events` SSE, `/trace`) and keeps the process alive afterwards.
//!
//! Exit status: 0 clean, 1 a divergence was found (reproducer persisted),
//! 2 corpus replay regressed.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{value, ObsArgs};
use difftest::corpus::{self, CorpusCase, CorpusFault, NetlistSig, ReplayOutcome};
use difftest::oracle::{PlasmaOracle, MAX_CYCLES};
use difftest::parwan_oracle::{random_parwan_image, ParwanOracle};
use difftest::{fuzz_plasma, shrink, FuzzConfig};
use fault::model::{Fault, FaultList};
use mips::gen::{random_parts, GenConfig};
use obs::{LedgerRecord, MetricRegistry};
use plasma::{PlasmaConfig, PlasmaCore};
use serde_json::Value;

/// Bump `difftest_shrink_steps_total` by the oracle runs a shrink took.
fn count_shrink_steps(metrics: Option<&MetricRegistry>, runs: u64) {
    if let Some(reg) = metrics {
        reg.counter(
            "difftest_shrink_steps_total",
            "oracle runs spent shrinking reproducers",
            &[],
        )
        .inc(runs);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = FuzzConfig {
        seeds: 32,
        ..FuzzConfig::default()
    };
    let mut corpus_dir = PathBuf::from("tests/corpus");
    let mut inject = false;
    let mut replay = false;
    let mut wave_dump = false;
    let mut wave = fault::wave::WaveOptions::default();
    let mut parwan_too = false;
    let mut obs = ObsArgs::new(&args);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => cfg.seeds = value(&mut it, a, "a number"),
            "--instrs" => cfg.body_len = value(&mut it, a, "a number"),
            "--threads" => cfg.threads = value(&mut it, a, "a number"),
            "--seed-start" => cfg.seed_start = value(&mut it, a, "a number"),
            "--sched-wave" => cfg.wave = value(&mut it, a, "a number"),
            "--wave" => wave_dump = true,
            "--wave-pre" => wave.pre = value(&mut it, a, "a cycle count"),
            "--wave-post" => wave.post = value(&mut it, a, "a cycle count"),
            "--wave-probe" => {
                let spec: String = value(&mut it, a, "component/port specs");
                wave.probe.extend(spec.split(',').map(|s| s.trim().to_string()));
            }
            "--max-cycles" => cfg.max_cycles = value(&mut it, a, "a number"),
            "--inject" => inject = true,
            "--replay" => replay = true,
            "--parwan" => parwan_too = true,
            "--corpus" => corpus_dir = value(&mut it, a, "a directory"),
            other if obs.parse(other, &mut it) => {}
            other => {
                eprintln!("unknown argument `{other}` (see source header for usage)");
                return ExitCode::from(2);
            }
        }
    }

    let mut run = obs.start(|reg| difftest::fuzz::progress(reg, cfg.seeds), |o| o);
    let metrics = run.telemetry.metrics.clone();
    eprintln!("building gate-level core...");
    let core = PlasmaCore::build(PlasmaConfig::default());
    let sig = NetlistSig::of(&core);
    let fingerprint = format!("n{}/g{}/d{}", sig.nets, sig.gates, sig.dffs);

    if replay {
        let mut oracle = PlasmaOracle::new(&core, MAX_CYCLES);
        let (code, cases, failed) = replay_corpus(&core, &mut oracle, &corpus_dir);
        let mut rec = LedgerRecord::now("difftest-replay", "");
        rec.netlist = fingerprint;
        rec.lanes = oracle.sim().lanes() as u64;
        rec.extra.insert("cases".to_string(), Value::U64(cases));
        rec.extra.insert("failed".to_string(), Value::U64(failed));
        run.finish(rec);
        return code;
    }

    let mut status = ExitCode::SUCCESS;
    println!("fuzzing {} seeds (body {} instrs)...", cfg.seeds, cfg.body_len);
    let t0 = std::time::Instant::now();
    let report = fuzz_plasma(&core, &cfg, &run.telemetry);
    let wall = t0.elapsed().as_secs_f64();
    run.end_progress();
    let finished = report.outcomes.iter().filter(|o| o.finished).count();
    println!(
        "  {} seeds run, {} terminated, {} divergence(s)",
        report.outcomes.len(),
        finished,
        report.divergent_seeds().len()
    );
    println!("  component exercise (executed instructions):");
    for (name, count) in &report.exercise.counts {
        println!("    {name:<6} {count}");
    }

    if let Some(&seed) = report.divergent_seeds().first() {
        // A real ISS/netlist disagreement: report, shrink, persist.
        status = ExitCode::from(1);
        let outcome = report
            .outcomes
            .iter()
            .find(|o| o.seed == seed)
            .expect("divergent seed is in outcomes");
        let d = outcome.divergence.as_ref().unwrap();
        println!("\n{}", d.to_report());
        let gcfg = GenConfig {
            branch_weight: outcome.weights.0,
            mem_weight: outcome.weights.1,
            muldiv_weight: outcome.weights.2,
            body_len: cfg.body_len,
            ..GenConfig::default()
        };
        let mut oracle = PlasmaOracle::new(&core, cfg.max_cycles);
        let parts = random_parts(seed, &gcfg);
        let shrunk = shrink(&mut oracle, &parts, &[]);
        count_shrink_steps(metrics.as_ref(), shrunk.runs);
        println!(
            "shrunk seed {seed} to {} body instruction(s) in {} oracle runs",
            shrunk.body_instrs, shrunk.runs
        );
        let case = CorpusCase {
            name: format!("divergence-seed{seed}"),
            seed,
            data_base: gcfg.data_base,
            data_size: gcfg.data_size,
            body: shrunk.parts.body.clone(),
            fault: None,
            expect_divergence: true,
            expect_cycle: shrunk.report.divergence.as_ref().map(|d| d.cycle),
        };
        match corpus::save(&case, &corpus_dir) {
            Ok(p) => println!("reproducer persisted to {}", p.display()),
            Err(e) => eprintln!("could not persist reproducer: {e}"),
        }
        if wave_dump {
            // ISS-vs-netlist divergence: lane 0 is the divergent machine, so
            // the faulty/diff scopes stay flat — the trigger still marks the
            // divergence cycle and the window shows the surrounding state.
            dump_oracle_wave(
                &core,
                &mut oracle,
                &parts.to_program(),
                &[],
                0,
                &wave,
                &format!("seed{seed}"),
                &format!("difftest ISS/netlist divergence, seed {seed}"),
            );
        }
    }

    if inject {
        println!("\ninjected-fault demo:");
        if !run_injection_demo(
            &core,
            &cfg,
            &corpus_dir,
            metrics.as_ref(),
            wave_dump.then_some(&wave),
        ) {
            status = ExitCode::from(1);
        }
    }

    if parwan_too {
        println!("\nparwan pair:");
        let pcore = parwan::ParwanCore::build();
        let mut oracle = ParwanOracle::new(&pcore);
        let mut bad = 0;
        for seed in cfg.seed_start..cfg.seed_start + cfg.seeds {
            let report = oracle.run(&random_parwan_image(seed), &[], 600);
            if let Some(d) = report.divergence {
                eprintln!("  seed {seed}: model/netlist divergence at cycle {}", d.cycle);
                bad += 1;
            }
        }
        println!("  {} seeds run, {bad} divergence(s)", cfg.seeds);
        if bad > 0 {
            status = ExitCode::from(1);
        }
    }

    let total_cycles: u64 = report.outcomes.iter().map(|o| o.cycles).sum();
    let divergences = report.divergent_seeds().len() as u64;
    let mut rec = LedgerRecord::now("difftest", "");
    rec.netlist = fingerprint;
    rec.lanes = report.lanes as u64;
    rec.threads = if cfg.threads == 0 {
        fault::campaign::default_threads() as u64
    } else {
        cfg.threads as u64
    };
    rec.cycles = total_cycles;
    rec.wall_seconds = wall;
    rec.mlane_cps = if wall > 0.0 {
        total_cycles as f64 / wall / 1.0e6
    } else {
        0.0
    };
    rec.extra
        .insert("seeds".to_string(), Value::U64(report.outcomes.len() as u64));
    rec.extra
        .insert("divergences".to_string(), Value::U64(divergences));
    rec.extra.insert(
        "seeds_per_sec".to_string(),
        Value::F64(if wall > 0.0 {
            report.outcomes.len() as f64 / wall
        } else {
            0.0
        }),
    );
    run.finish(rec);

    status
}

/// Re-run `program` under the lockstep oracle with a wave probe attached
/// and write the captured window as a differential good/faulty/diff VCD
/// under `results/`. Probe errors are reported, never fatal.
fn dump_oracle_wave(
    core: &PlasmaCore,
    oracle: &mut PlasmaOracle,
    program: &mips::Program,
    injections: &[(Fault, usize)],
    faulty_lane: usize,
    wave: &fault::wave::WaveOptions,
    desc: &str,
    comment: &str,
) {
    let probe = match netlist::wave::Probe::from_spec(core.netlist(), &wave.probe) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("  wave probe error: {e}");
            return;
        }
    };
    let mut cap = fault::wave::WaveCapture::new(probe, wave);
    oracle.run_wave(program, injections, &mut cap, faulty_lane);
    let captured = cap.finish();
    let path = std::path::Path::new("results")
        .join(fault::wave::wave_file_name("difftest", desc));
    match captured.write_file(&path, comment) {
        Ok(()) => println!("  wave written to {}", path.display()),
        Err(e) => eprintln!("  could not write wave: {e}"),
    }
}

/// Inject the first detectable collapsed fault into lane 1, localize it,
/// shrink the program, persist the reproducer, and verify the replay.
fn run_injection_demo(
    core: &PlasmaCore,
    cfg: &FuzzConfig,
    corpus_dir: &std::path::Path,
    metrics: Option<&MetricRegistry>,
    wave: Option<&fault::wave::WaveOptions>,
) -> bool {
    let mut oracle = PlasmaOracle::new(core, cfg.max_cycles);
    let gcfg = GenConfig {
        body_len: cfg.body_len.min(60),
        ..GenConfig::default()
    };
    let parts = random_parts(cfg.seed_start, &gcfg);
    let program = parts.to_program();
    let list = FaultList::extract(core.netlist()).collapsed(core.netlist());
    let mut chosen = None;
    for batch in list.faults.chunks(63) {
        let injections: Vec<(Fault, usize)> = batch
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, i + 1))
            .collect();
        let report = oracle.run(&program, &injections);
        if let Some((lane, cycle)) = report.first_faulty_divergence() {
            chosen = Some((batch[lane - 1], cycle));
            break;
        }
    }
    let Some((fault, cycle)) = chosen else {
        eprintln!("  no detectable fault found (unexpected)");
        return false;
    };
    println!(
        "  fault `{}` detected, first divergent cycle {cycle}",
        fault.describe()
    );
    if let Some(w) = wave {
        dump_oracle_wave(
            core,
            &mut oracle,
            &program,
            &[(fault, 1)],
            1,
            w,
            &fault.describe(),
            &format!(
                "difftest injected fault `{}`; first divergent cycle {cycle}",
                fault.describe()
            ),
        );
    }
    let shrunk = shrink(&mut oracle, &parts, &[(fault, 1)]);
    count_shrink_steps(metrics, shrunk.runs);
    let min_cycle = shrunk.report.first_faulty_divergence().map(|(_, c)| c);
    println!(
        "  shrunk to {} body instruction(s) in {} oracle runs (detects at cycle {:?})",
        shrunk.body_instrs, shrunk.runs, min_cycle
    );
    let case = CorpusCase {
        name: format!(
            "inject-seed{}-{}",
            cfg.seed_start,
            fault.describe().replace(['/', ' '], "-")
        ),
        seed: cfg.seed_start,
        data_base: gcfg.data_base,
        data_size: gcfg.data_size,
        body: shrunk.parts.body.clone(),
        fault: Some(CorpusFault {
            fault,
            lane: 1,
            describe: fault.describe(),
            sig: NetlistSig::of(core),
        }),
        expect_divergence: true,
        expect_cycle: min_cycle,
    };
    match corpus::save(&case, corpus_dir) {
        Ok(p) => println!("  reproducer persisted to {}", p.display()),
        Err(e) => {
            eprintln!("  could not persist reproducer: {e}");
            return false;
        }
    }
    match corpus::replay(&case, core, &mut oracle) {
        ReplayOutcome::Pass => {
            println!("  replay: pass");
            true
        }
        other => {
            eprintln!("  replay: {other:?}");
            false
        }
    }
}

fn replay_corpus(
    core: &PlasmaCore,
    oracle: &mut PlasmaOracle,
    dir: &std::path::Path,
) -> (ExitCode, u64, u64) {
    let cases = match corpus::load_dir(dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot load corpus at {}: {e}", dir.display());
            return (ExitCode::from(2), 0, 0);
        }
    };
    println!("replaying {} corpus case(s) from {}...", cases.len(), dir.display());
    let mut failed = 0u64;
    for (path, case) in &cases {
        match corpus::replay(case, core, oracle) {
            ReplayOutcome::Pass => println!("  pass  {}", path.display()),
            ReplayOutcome::Skipped(why) => println!("  skip  {} ({why})", path.display()),
            ReplayOutcome::Fail(why) => {
                eprintln!("  FAIL  {} ({why})", path.display());
                failed += 1;
            }
        }
    }
    let code = if failed > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    };
    (code, cases.len() as u64, failed)
}
