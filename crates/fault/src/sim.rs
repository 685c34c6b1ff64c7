//! The name the benchmark package builds its forensics evidence
//! simulator by.
//!
//! There is one fault simulator, the compiled [`crate::wide::WideSim`];
//! [`ParallelSim`] only keeps a constructor path working until the
//! benchmark package calls [`EngineConfig::sim`] itself.

use netlist::Netlist;

use crate::engine::EngineConfig;
use crate::wide::WideSim;

/// The 64-lane simulator under the name the benchmark package imports
/// it by: [`ParallelSim::with_segments`] builds the compiled engine at
/// 64 lanes, the engine the `sbst` flow runs the forensics evidence pass
/// on.
#[derive(Debug, Clone, Copy)]
pub struct ParallelSim;

impl ParallelSim {
    /// `EngineConfig::compiled(64).sim(netlist, segments)`.
    pub fn with_segments(netlist: &Netlist, segments: &[Vec<u32>]) -> WideSim {
        EngineConfig::compiled(64).sim(netlist, segments)
    }
}
