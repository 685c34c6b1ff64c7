//! Engine microbenchmarks: the building blocks every experiment leans on
//! (netlist construction, scalar simulation, 64-lane fault simulation,
//! assembly, ISS execution, fault extraction/collapsing), plus the
//! interpreted-vs-compiled full-netlist eval comparison on the Plasma
//! and Parwan netlists. The engine comparison also updates the
//! `microbench` key of `results/BENCH_trend.json` (read-modify-write, so
//! `ledger --json` output is preserved).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use fault::model::FaultList;
use fault::sim::{LaneSim, ParallelSim};
use fault::wide::WideSim;
use mips::asm::assemble;
use mips::iss::{Iss, Memory};
use plasma::testbench::GateCpu;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::phases::{build_program, Phase};

fn bench_build(c: &mut Criterion) {
    c.bench_function("plasma_core_build", |b| {
        b.iter(|| PlasmaCore::build(PlasmaConfig::default()))
    });
}

fn bench_fault_extract(c: &mut Criterion) {
    let core = PlasmaCore::build(PlasmaConfig::default());
    c.bench_function("fault_extract_and_collapse", |b| {
        b.iter(|| FaultList::extract(core.netlist()).collapsed(core.netlist()))
    });
}

fn bench_scalar_sim(c: &mut Criterion) {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let p = assemble("loop: addiu $t0, $t0, 1\n b loop\n nop").unwrap();
    let mut g = c.benchmark_group("scalar_gate_sim");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("1000_cycles", |b| {
        b.iter_batched(
            || {
                let mut cpu = GateCpu::new(&core, 4096);
                cpu.load_program(&p);
                cpu
            },
            |mut cpu| cpu.run(1000),
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_parallel_sim(c: &mut Criterion) {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let nl = core.netlist();
    let faults = FaultList::extract(nl).collapsed(nl);
    let p = build_program(Phase::A).unwrap();
    let mut g = c.benchmark_group("parallel_fault_sim");
    // 64 machines × 500 cycles per iteration.
    g.throughput(Throughput::Elements(64 * 500));
    g.bench_function("64lane_500_cycles", |b| {
        use fault::campaign::Testbench;
        use plasma::testbench::SelfTestBench;
        let [early, late] = core.segments();
        b.iter_batched(
            || {
                let mut sim = ParallelSim::with_segments(nl, &[early.to_vec(), late.to_vec()]);
                for (k, &f) in faults.faults.iter().take(63).enumerate() {
                    sim.inject(f, k + 1);
                }
                sim.reset();
                let mut tb = SelfTestBench::new(&core, &p.program, 64 * 1024, 500);
                tb.begin(&mut sim);
                (sim, tb)
            },
            |(mut sim, mut tb)| {
                for cyc in 0..500 {
                    tb.step(&mut sim, cyc, &mut [0]);
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Median nanoseconds per call of `f` over `n` timed samples.
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let mut s: Vec<u128> = (0..n)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    s.sort_unstable();
    s[s.len() / 2] as f64
}

/// Interpreted (64-lane) vs compiled (256-lane) full-netlist eval on
/// one core. Registers both as criterion benches and returns the
/// trend-file JSON row.
fn engine_eval_row(
    c: &mut Criterion,
    name: &str,
    nl: &netlist::Netlist,
    segments: &[Vec<u32>],
) -> serde_json::Value {
    let gates = nl.gates().len() as u64;
    let mut interp = ParallelSim::with_segments(nl, segments);
    interp.reset();
    let kernel = fault::kernel::compile_cached(nl, segments);
    let mut wide = WideSim::new(kernel, 4);
    wide.reset();

    let group = format!("engine_eval/{name}");
    let mut g = c.benchmark_group(&group);
    g.throughput(Throughput::Elements(gates * 64));
    g.bench_function("interp_64lane", |b| b.iter(|| interp.eval_all()));
    g.throughput(Throughput::Elements(gates * 256));
    g.bench_function("compiled_256lane", |b| b.iter(|| wide.eval_all()));
    g.finish();

    let interp_ns = median_ns(30, || interp.eval_all());
    let wide_ns = median_ns(30, || wide.eval_all());
    // gate-lane evals per ns × 1e3 = millions per second.
    let mps = |lanes: f64, ns: f64| gates as f64 * lanes / ns * 1e3;
    serde_json::json!({
        "netlist": name,
        "gates": gates,
        "interp": {
            "lanes": 64,
            "ns_per_eval": interp_ns,
            "mlane_gate_evals_per_sec": mps(64.0, interp_ns),
        },
        "compiled": {
            "lanes": 256,
            "ns_per_eval": wide_ns,
            "mlane_gate_evals_per_sec": mps(256.0, wide_ns),
        },
        "throughput_ratio": mps(256.0, wide_ns) / mps(64.0, interp_ns),
    })
}

/// Merge the engine-eval rows into `results/BENCH_trend.json` under the
/// `microbench` key, preserving whatever else the file holds (the ledger
/// trend written by `bench --bin ledger`).
fn write_trend_microbench(rows: Vec<serde_json::Value>) {
    // `cargo bench` runs with the crate directory as cwd; anchor the
    // shared results dir at the workspace root instead.
    let ws = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let path = ws.join("results/BENCH_trend.json");
    let path = path.as_path();
    let mut root = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .and_then(|v| match v {
            serde_json::Value::Object(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    root.insert(
        "microbench".into(),
        serde_json::json!({
            "bench": "engine_eval",
            "rows": serde_json::Value::Array(rows),
        }),
    );
    std::fs::create_dir_all(ws.join("results")).expect("create results dir");
    let body = serde_json::to_string_pretty(&serde_json::Value::Object(root)).expect("serialize");
    std::fs::write(path, body).expect("write trend json");
    eprintln!("[engine microbench merged into results/BENCH_trend.json]");
}

fn bench_engine_eval(c: &mut Criterion) {
    let plasma = PlasmaCore::build(PlasmaConfig::default());
    let [pe, pl] = plasma.segments();
    let p = engine_eval_row(c, "plasma", plasma.netlist(), &[pe.to_vec(), pl.to_vec()]);
    let parwan = parwan::ParwanCore::build();
    let [we, wl] = parwan.segments();
    let w = engine_eval_row(c, "parwan", parwan.netlist(), &[we.to_vec(), wl.to_vec()]);
    write_trend_microbench(vec![p, w]);
}

fn bench_assembler(c: &mut Criterion) {
    let src = build_program(Phase::B).unwrap().source;
    let mut g = c.benchmark_group("assembler");
    g.throughput(Throughput::Bytes(src.len() as u64));
    g.bench_function("phase_ab_source", |b| b.iter(|| assemble(&src).unwrap()));
    g.finish();
}

fn bench_iss(c: &mut Criterion) {
    let p = build_program(Phase::B).unwrap();
    let mut g = c.benchmark_group("iss");
    g.throughput(Throughput::Elements(7000));
    g.bench_function("phase_ab_run", |b| {
        b.iter_batched(
            || {
                let mut mem = Memory::new(64 * 1024);
                mem.load_program(&p.program);
                (Iss::new(), mem)
            },
            |(mut cpu, mut mem)| cpu.run(&mut mem, 7000),
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build, bench_fault_extract, bench_scalar_sim,
              bench_parallel_sim, bench_engine_eval, bench_assembler, bench_iss
}
criterion_main!(benches);
