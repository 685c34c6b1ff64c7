//! The paper's phase-based test development loop (Figures 2/3, Table 5):
//! classify components, order them by test priority, develop routines
//! phase by phase, and watch the per-component fault coverage grow.
//!
//! Uses a sampled fault list so it completes in well under a minute; pass
//! `--full` for the complete list (a few minutes).
//!
//! Run with: `cargo run --release --example phase_development`

use plasma::{PlasmaConfig, PlasmaCore};
use sbst::classify;
use sbst::cost::CostModel;
use sbst::flow::{run_flow, FlowOptions};
use sbst::phases::Phase;

fn main() {
    let full = std::env::args().any(|a| a == "--full");

    let core = PlasmaCore::build(PlasmaConfig::default());

    // Step 1/2 of the methodology: classify and prioritize.
    println!("--- component classification and test priority ---");
    let infos = classify::with_sizes(classify::classify_plasma(), core.netlist());
    for (k, i) in classify::priority_order(infos).iter().enumerate() {
        println!(
            "{:>2}. {:<6} {:?} class, {:.0} NAND2",
            k + 1,
            i.name,
            i.class,
            i.nand2_equiv.unwrap_or(0.0)
        );
    }

    // Step 3: routine development, phase by phase, with fault grading.
    let opts = FlowOptions {
        fault_sample: if full { None } else { Some(5000) },
        ..Default::default()
    };
    for phase in [Phase::A, Phase::B, Phase::C] {
        println!("\n--- {} ---", phase.name());
        let report = run_flow(&core, phase, &opts);
        println!(
            "program: {} words, {} cycles (download {:.0} us + execution {:.0} us at {}/{} MHz)",
            report.selftest.size_words(),
            report.golden_cycles,
            report.cost.download_us,
            report.cost.execute_us,
            CostModel::default().tester_mhz,
            CostModel::default().cpu_mhz,
        );
        println!("{}", report.coverage.to_table());
    }
    if !full {
        println!("(sampled fault lists — run with --full for exact numbers)");
    }
}
