//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **bit-parallel batching** — the same 63 faults simulated in one
//!    64-lane batch vs 63 single-fault batches (the serial baseline);
//! 2. **fault dropping / early batch exit** — a batch of easy faults
//!    (all detected quickly) vs a batch of hard ones (full budget);
//! 3. **equivalence collapsing** — campaign over the raw universe vs the
//!    collapsed list on a mid-size block.

use criterion::{criterion_group, criterion_main, Criterion};

use fault::campaign::{self, VectorBench};
use fault::model::FaultList;
use fault::sim::ParallelSim;
use netlist::synth::{self, TechStyle};
use netlist::{Netlist, NetlistBuilder};
use obs::Telemetry;

fn block() -> Netlist {
    // A 16-bit ALU-ish block: adder + logic + select, sequential output
    // register. Big enough to measure, small enough to iterate.
    let mut b = NetlistBuilder::new("blk");
    b.begin_component("blk");
    let a = b.inputs("a", 16);
    let c = b.inputs("b", 16);
    let sel = b.inputs("sel", 2);
    let zero = b.zero();
    let add = synth::add(&mut b, TechStyle::RippleMux, &a, &c, zero);
    let and_w = b.and_word(&a, &c);
    let xor_w = b.xor_word(&a, &c);
    let or_w = b.or_word(&a, &c);
    let out = synth::select(
        &mut b,
        TechStyle::RippleMux,
        &sel,
        &[add.sum, and_w, xor_w, or_w],
    );
    let q = b.dff_word(&out, 0);
    b.end_component();
    b.outputs("q", &q);
    b.finish().unwrap()
}

fn vectors() -> Vec<Vec<(&'static str, u64)>> {
    (0..64u64)
        .map(|k| {
            vec![
                ("a", k.wrapping_mul(0x9E37) & 0xFFFF),
                ("b", k.wrapping_mul(0x85EB) >> 2 & 0xFFFF),
                ("sel", k & 3),
            ]
        })
        .collect()
}

fn bench_batching(c: &mut Criterion) {
    let nl = block();
    let faults = FaultList::extract(&nl).collapsed(&nl);
    let first63 = faults.filter({
        let mut k = 0;
        move |_, _| {
            k += 1;
            k <= 63
        }
    });
    let vecs = vectors();

    let bench = || VectorBench::new(&nl, &vecs);
    let hooks = Telemetry::none();
    let mut g = c.benchmark_group("ablation_batching");
    g.bench_function("parallel_one_batch_of_63", |b| {
        b.iter(|| campaign::run(&ParallelSim::new(&nl), &first63, bench, 1, &hooks))
    });
    g.bench_function("serial_63_batches_of_1", |b| {
        b.iter(|| {
            let sim = ParallelSim::new(&nl);
            let mut detected = 0usize;
            for i in 0..first63.len() {
                let single = first63.filter({
                    let mut k = 0;
                    move |_, _| {
                        k += 1;
                        k == i + 1
                    }
                });
                let r = campaign::run(&sim, &single, bench, 1, &hooks);
                detected += r.detections.iter().filter(|d| d.is_detected()).count();
            }
            detected
        })
    });
    g.finish();
}

fn bench_collapsing(c: &mut Criterion) {
    let nl = block();
    let raw = FaultList::extract(&nl);
    let col = raw.clone().collapsed(&nl);
    println!(
        "[ablation] fault universe: raw {} -> collapsed {} ({:.1}% reduction)",
        raw.len(),
        col.len(),
        100.0 * (1.0 - col.len() as f64 / raw.len() as f64)
    );
    let vecs = vectors();
    let mut g = c.benchmark_group("ablation_collapsing");
    g.bench_function("campaign_raw_universe", |b| {
        b.iter(|| campaign::run_vectors(&nl, &raw, &vecs))
    });
    g.bench_function("campaign_collapsed", |b| {
        b.iter(|| campaign::run_vectors(&nl, &col, &vecs))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batching, bench_collapsing
}
criterion_main!(benches);
