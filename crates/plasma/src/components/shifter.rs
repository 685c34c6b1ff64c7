//! The barrel shifter (`BSH` component, functional class).

use netlist::synth;
use netlist::{Net, NetlistBuilder, Word};

/// Build the 32-bit barrel shifter: `left`/`arith` select the operation,
/// `shamt` the distance.
pub fn shifter(b: &mut NetlistBuilder, data: &Word, shamt: &Word, left: Net, arith: Net) -> Word {
    b.begin_component("BSH");
    let out = synth::barrel_shifter(b, data, shamt, left, arith);
    b.end_component();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::sim::Simulator;

    #[test]
    fn component_tagged_and_functional() {
        let mut b = NetlistBuilder::new("bsh");
        let d = b.inputs("d", 32);
        let sh = b.inputs("sh", 5);
        let left = b.input("left");
        let arith = b.input("arith");
        let out = shifter(&mut b, &d, &sh, left, arith);
        b.outputs("out", &out);
        let nl = b.finish().unwrap();
        assert!(nl.component_by_name("BSH").is_some());
        let mut sim = Simulator::new(&nl);
        sim.set_input_word(&nl, "d", 0xF000_000F);
        sim.set_input_word(&nl, "sh", 4);
        sim.set_input_word(&nl, "left", 0);
        sim.set_input_word(&nl, "arith", 1);
        sim.eval(&nl);
        assert_eq!(sim.output_word(&nl, "out") as u32, 0xFF00_0000u32 | 0x0);
    }
}
