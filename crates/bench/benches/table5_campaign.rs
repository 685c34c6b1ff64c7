//! Table 5 regeneration cost: the fault-simulation campaign of the
//! Phase A program over a stratified fault sample. Prints the sampled
//! coverage row alongside the timing.

use criterion::{criterion_group, criterion_main, Criterion};

use obs::Telemetry;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow::{self, FlowOptions};
use sbst::phases::{build_program, Phase};

fn bench_table5(c: &mut Criterion) {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let opts = FlowOptions {
        fault_sample: Some(800),
        ..Default::default()
    };
    let faults = flow::fault_list(&core, &opts);
    let st = build_program(Phase::A).unwrap();
    let (budget, hooks) = (flow::golden_cycles(&st) + 64, Telemetry::none());
    let grade = || {
        flow::run_campaign_of_engine(&core, &st.program, &faults, budget, 0, &hooks, opts.engine)
    };

    // Print the sampled headline once.
    let res = grade();
    println!(
        "[table5] Phase A, {} sampled faults: {:.2}% coverage",
        faults.len(),
        100.0 * res.coverage()
    );

    c.bench_function("table5_phase_a_800_faults", |b| b.iter(grade));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table5
}
criterion_main!(benches);
