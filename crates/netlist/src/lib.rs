//! Gate-level netlist infrastructure for the SBST (software-based self-test)
//! reproduction.
//!
//! This crate is the bottom substrate of the workspace: it provides
//!
//! * a compact gate-level intermediate representation ([`Netlist`], [`Gate`],
//!   [`Net`]) with hierarchical *component* tagging (the paper's RT-level
//!   components: register file, ALU, shifter, ...),
//! * a [`NetlistBuilder`] with word-level helpers for describing structural
//!   logic the way a synthesis tool would emit it,
//! * a library of structural generators ([`synth`]) for the datapath blocks
//!   every processor in the paper is made of (adders, barrel shifters,
//!   multipliers, register files, decoders, muxes) in two *technology
//!   styles*, used to reproduce the paper's re-synthesis experiment,
//! * a scalar (fault-free) logic [`sim::Simulator`] used for functional
//!   verification of generated netlists against behavioural models,
//! * NAND2-equivalent gate costing ([`GateKind::nand2_cost`]) matching the
//!   paper's "a 2-input NAND gate is the gate count unit" convention
//!   (Table 3).
//!
//! # Example
//!
//! Build a 4-bit ripple-carry adder and simulate it:
//!
//! ```
//! use netlist::{NetlistBuilder, synth};
//! use netlist::sim::Simulator;
//!
//! let mut b = NetlistBuilder::new("adder4");
//! let a = b.inputs("a", 4);
//! let c = b.inputs("b", 4);
//! let zero = b.zero();
//! let sum = synth::add_ripple(&mut b, &a, &c, zero).sum;
//! b.outputs("sum", &sum);
//! let nl = b.finish().unwrap();
//!
//! let mut sim = Simulator::new(&nl);
//! sim.set_input_word(&nl, "a", 7);
//! sim.set_input_word(&nl, "b", 5);
//! sim.eval(&nl);
//! assert_eq!(sim.output_word(&nl, "sum"), 12);
//! ```

#![warn(missing_docs)]

mod builder;
mod gate;
mod netlist;

pub mod cone;
pub mod opt;
pub mod sim;
pub mod stats;
pub mod synth;
pub mod wave;

pub use builder::{NetlistBuilder, Word};
pub use gate::{Gate, GateKind, NO_NET};
pub use netlist::{
    ComponentId, ComponentStats, Dff, Net, Netlist, NetlistError, PortDir, TOP_COMPONENT,
};
