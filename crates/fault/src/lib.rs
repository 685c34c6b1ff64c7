//! Single stuck-at fault modelling and simulation.
//!
//! This crate plays the role of the commercial fault simulator (Mentor
//! FlexTest) in the paper's flow. It provides:
//!
//! * the single stuck-at **fault model** over gate-level netlists — fault
//!   sites on net stems, gate input pins (fanout branches) and flip-flop
//!   data pins ([`model`]),
//! * structural **equivalence collapsing** ([`collapse`]),
//! * the **compiled multi-word engine** ([`kernel`], [`wide::WideSim`]):
//!   the netlist lowered once into a dense straight-line instruction
//!   stream evaluated over 1–8 u64 words per net (64–512 lanes), with a
//!   fingerprint-keyed kernel cache — the one production engine, built
//!   only by [`engine`] (campaigns, the forensics evidence pass, wave
//!   capture and the lockstep oracles all get their simulator there),
//! * a **64-lane interpreted reference** ([`sim::ParallelSim`]): each
//!   bit of a machine word carries an independent faulty machine, lane
//!   0 is the fault-free reference — what tests and
//!   [`campaign::run_vectors`] check the compiled engine against,
//! * one lane-block interface over both engines ([`sim::LaneSim`]) and
//!   one **campaign runner** with fault dropping and survivor
//!   compaction ([`campaign::run`], serial or multi-threaded) driving
//!   any [`campaign::Testbench`] —
//!   plain vector tests ([`campaign::run_vectors`]) or full-processor
//!   self-test execution,
//! * per-component **coverage reporting** ([`coverage`]) used to regenerate
//!   the paper's Table 5.
//!
//! # Example: grading a test set on a small combinational block
//!
//! ```
//! use netlist::{NetlistBuilder, synth};
//! use fault::{model::FaultList, campaign};
//!
//! let mut b = NetlistBuilder::new("adder");
//! b.begin_component("adder");
//! let a = b.inputs("a", 4);
//! let c = b.inputs("b", 4);
//! let zero = b.zero();
//! let r = synth::add_ripple(&mut b, &a, &c, zero);
//! b.end_component();
//! b.outputs("sum", &r.sum);
//! b.output("cout", r.carry_out);
//! let nl = b.finish().unwrap();
//!
//! let faults = FaultList::extract(&nl).collapsed(&nl);
//! // Exhaustive patterns detect every detectable fault.
//! let vectors: Vec<Vec<(&str, u64)>> = (0..256)
//!     .map(|v| vec![("a", v & 0xF), ("b", (v >> 4) & 0xF)])
//!     .collect();
//! let result = campaign::run_vectors(&nl, &faults, &vectors);
//! // The tie-low carry-in leaves a few structurally undetectable faults
//! // (a synthesis tool would constant-fold them away); all testable
//! // faults are caught.
//! assert!(result.coverage() > 0.94);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod collapse;
pub mod coverage;
pub mod engine;
pub mod forensics;
pub mod kernel;
pub mod model;
pub mod scoap;
pub mod shard;
pub mod sim;
pub mod wave;
pub mod wide;

pub use engine::EngineConfig;
pub use model::{Fault, FaultList, FaultSite, Polarity};
pub use sim::LaneSim;
