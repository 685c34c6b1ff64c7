//! Property-based verification of structural cone extraction
//! (`netlist::cone`) on randomly sized/styled synthesized circuits:
//! closure (every in-cone gate's nets are in-cone), sequential-boundary
//! handling, subset ordering between stop-at-DFF and through-DFF modes,
//! idempotence (`cone(cone(x).nets) == cone(x)`), and one reused reader
//! index answering every fanout query as a fresh one would.

use netlist::cone::{fanin_cone, fanout_cone, Cone, Fanout};
use netlist::synth::{self, TechStyle};
use netlist::{Net, Netlist, NetlistBuilder};
use proptest::prelude::*;

/// A sequential circuit with logic on both sides of a register bank and
/// a feedback path: `q <= sum(a, q, cin)`, outputs `q` and the carry.
fn registered_adder(style: TechStyle, width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("ra");
    let a = b.inputs("a", width);
    let cin = b.input("cin");
    let mut qs = Vec::new();
    let mut slots = Vec::new();
    for _ in 0..width {
        let (q, slot) = b.dff_later(false);
        qs.push(q);
        slots.push(slot);
    }
    let r = synth::add(&mut b, style, &a, &qs, cin);
    for (slot, &s) in slots.into_iter().zip(&r.sum) {
        b.dff_set(slot, s);
    }
    b.outputs("s", &qs);
    b.output("co", r.carry_out);
    b.finish().unwrap()
}

fn cone_of(nl: &Netlist, seeds: &[Net], fanin: bool, thru: bool) -> Cone {
    if fanin {
        fanin_cone(nl, seeds, thru)
    } else {
        fanout_cone(nl, seeds, thru)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Closure + boundary + idempotence, in both directions and both
    /// sequential modes, from a random seed net.
    #[test]
    fn cones_are_closed_and_idempotent(
        width in 1usize..16,
        style_b in any::<bool>(),
        seed_sel in any::<u64>(),
        thru in any::<bool>(),
        fanin in any::<bool>(),
    ) {
        let style = if style_b { TechStyle::ClaAoi } else { TechStyle::RippleMux };
        let nl = registered_adder(style, width);
        let seed = Net::from_index((seed_sel % nl.num_nets() as u64) as usize);
        let cone = cone_of(&nl, &[seed], fanin, thru);
        prop_assert!(cone.contains_net(seed), "seed net dropped from its own cone");

        // Closure: an in-cone gate connects to in-cone nets on the side
        // the walk came from, and carries all the nets it pulled in.
        for &g in &cone.gates {
            let gate = &nl.gates()[g as usize];
            prop_assert!(cone.contains_net(gate.output), "gate {g} output escaped the cone");
            if fanin {
                for i in gate.used_inputs() {
                    prop_assert!(cone.contains_net(i), "gate {g} input escaped the fanin cone");
                }
            } else {
                prop_assert!(
                    gate.used_inputs().any(|i| cone.contains_net(i)),
                    "gate {g} is in the fanout cone but reads none of its nets"
                );
            }
        }

        // Sequential boundary: a recorded DFF touches the cone on the
        // walked side; the far side is in the cone iff the walk crossed.
        for &f in &cone.dffs {
            let d = &nl.dffs()[f as usize];
            let (near, far) = if fanin { (d.q, d.d) } else { (d.d, d.q) };
            prop_assert!(cone.contains_net(near), "dff {f} reached without its near net");
            if thru {
                prop_assert!(cone.contains_net(far), "through-DFF walk skipped dff {f}'s far net");
            }
        }

        // Idempotence: re-walking from the full net set changes nothing.
        let again = cone_of(&nl, &cone.nets, fanin, thru);
        prop_assert_eq!(&again, &cone, "cone(cone(x)) != cone(x)");
    }

    /// Stopping at the sequential boundary never sees *more* than
    /// crossing it, and the feedback circuit guarantees the modes differ
    /// somewhere (the register bank separates the adder from itself).
    #[test]
    fn stop_mode_is_a_subset_of_through_mode(
        width in 1usize..16,
        style_b in any::<bool>(),
        seed_sel in any::<u64>(),
        fanin in any::<bool>(),
    ) {
        let style = if style_b { TechStyle::ClaAoi } else { TechStyle::RippleMux };
        let nl = registered_adder(style, width);
        let seed = Net::from_index((seed_sel % nl.num_nets() as u64) as usize);
        let stop = cone_of(&nl, &[seed], fanin, false);
        let thru = cone_of(&nl, &[seed], fanin, true);
        for n in &stop.nets {
            prop_assert!(thru.contains_net(*n), "stop-mode net outside the through-mode cone");
        }
        for g in &stop.gates {
            prop_assert!(thru.gates.contains(g));
        }
        for f in &stop.dffs {
            prop_assert!(thru.dffs.contains(f));
        }
    }

    /// Sanity anchor against the scalar structure: the through-DFF
    /// fanout cone of a primary input must reach a primary output in
    /// this circuit (every input column feeds the sum registers).
    #[test]
    fn input_fanout_reaches_an_output(
        width in 1usize..12,
        style_b in any::<bool>(),
        bit_sel in any::<u64>(),
    ) {
        let style = if style_b { TechStyle::ClaAoi } else { TechStyle::RippleMux };
        let nl = registered_adder(style, width);
        let a = nl.port("a");
        let seed = a[(bit_sel % a.len() as u64) as usize];
        let cone = fanout_cone(&nl, &[seed], true);
        let outs: Vec<Net> = nl
            .port("s")
            .iter()
            .copied()
            .chain(nl.port("co").iter().copied())
            .collect();
        prop_assert!(
            outs.iter().any(|&o| cone.contains_net(o)),
            "input bit influences no output"
        );
    }

    /// One reader index serves many queries: walked back to back from
    /// every single net in both sequential modes, it returns the one-shot
    /// cone each time, so no visited mark leaks from one query into the
    /// next.
    #[test]
    fn reused_index_matches_one_shot_cones(
        width in 1usize..16,
        style_b in any::<bool>(),
    ) {
        let style = if style_b { TechStyle::ClaAoi } else { TechStyle::RippleMux };
        let nl = registered_adder(style, width);
        let index = Fanout::new(&nl);
        let queries: Vec<(Net, bool)> = (0..nl.num_nets())
            .flat_map(|i| [(Net::from_index(i), false), (Net::from_index(i), true)])
            .collect();
        let reused: Vec<Cone> = queries
            .iter()
            .map(|&(seed, thru)| index.cone(&nl, &[seed], thru))
            .collect();
        for (&(seed, thru), cone) in queries.iter().zip(&reused) {
            prop_assert_eq!(
                cone,
                &fanout_cone(&nl, &[seed], thru),
                "net {} through_dffs={}", seed.index(), thru
            );
        }
    }
}
