//! Lockstep differential verification of the gate-level cores against
//! their golden models.
//!
//! The paper's methodology assumes the gate-level Plasma netlist and the
//! golden MIPS ISS agree on every instruction a self-test routine can
//! execute. This crate earns that confidence the standard way: a
//! constrained-random *lockstep fuzzer* drives both models cycle by cycle
//! over programs from [`mips::gen`] and compares the bus-visible
//! architectural state (fetch address, store data, byte enables) on every
//! cycle. The same oracle doubles as a fault-detection harness — faults
//! from [`fault::model`] can be injected into any of the 64 simulation
//! lanes, and the first cycle a faulty lane's bus diverges from the
//! reference localizes the detection.
//!
//! On divergence the oracle emits a structured [`oracle::Divergence`]
//! report (first divergent cycle, disassembled instruction window,
//! register file and memory delta) and [`shrink`] reduces the offending
//! program — chunk deletion, then per-instruction simplification —
//! re-running the oracle at each step until a minimal reproducer remains.
//! Reproducers persist as JSON into a `tests/corpus/` directory that
//! `cargo test` replays via [`corpus`].
//!
//! [`fuzz`] schedules seeds in waves with coverage feedback: executed
//! instructions are attributed to processor components (the paper's
//! component decomposition, via [`sched`]) and the next wave's generation
//! weights are biased toward under-exercised components.

#![warn(missing_docs)]

pub mod corpus;
pub mod fuzz;
pub mod oracle;
pub mod parwan_oracle;
pub mod sched;
pub mod shrink;

pub use corpus::{CorpusCase, ReplayOutcome};
pub use fuzz::{fuzz_plasma, FuzzConfig, FuzzReport, SeedOutcome};
pub use oracle::{Divergence, LockstepReport, OracleConfig, PlasmaOracle};
pub use shrink::{shrink, ShrinkOutcome};
