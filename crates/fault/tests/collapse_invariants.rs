//! Detection-level invariants of structural equivalence collapsing,
//! checked by actually fault-simulating small random sequential netlists:
//!
//! * every member of an equivalence class has exactly the same detection
//!   status as its representative (collapsing never drops a
//!   detection-equivalence class), and
//! * a campaign over the collapsed list reports the same weighted
//!   coverage as a campaign over the full, uncollapsed list.

use fault::collapse::class_representatives;
use fault::model::{Fault, FaultList};
use fault::EngineConfig;
use netlist::{Netlist, NetlistBuilder};
use proptest::prelude::*;

/// A small random sequential netlist: random gate soup feeding a
/// register bank, with registered/combinational outputs mixed so both
/// DFF rules and gate-local rules get exercised.
fn random_netlist(seed: u64) -> Netlist {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
        s
    };
    let mut b = NetlistBuilder::new("rand");
    let width = 3 + (next() % 4) as usize;
    let a = b.inputs("a", width);
    let c = b.inputs("b", width);
    let mut pool: Vec<netlist::Net> = a.iter().chain(c.iter()).copied().collect();
    for _ in 0..(6 + next() % 16) {
        let x = pool[(next() % pool.len() as u64) as usize];
        let y = pool[(next() % pool.len() as u64) as usize];
        let g = match next() % 6 {
            0 => b.and2(x, y),
            1 => b.or2(x, y),
            2 => b.xor2(x, y),
            3 => b.nand2(x, y),
            4 => b.nor2(x, y),
            _ => b.not(x),
        };
        pool.push(g);
    }
    let tail: Vec<netlist::Net> = pool.iter().rev().take(width).copied().collect();
    let reg = b.dff_word(&tail, 0);
    let mix: Vec<netlist::Net> = reg
        .iter()
        .zip(pool.iter())
        .map(|(&q, &p)| b.xor2(q, p))
        .collect();
    b.outputs("out", &mix);
    b.finish().expect("random netlist is structurally valid")
}

/// Fault-simulate `faults` against the fault-free lane 0 under a
/// deterministic stimulus stream (identical for every 63-fault batch) and
/// report which faults were detected at the outputs.
///
/// Outputs are observed only from the first clock edge on: the D ≡ Q
/// flip-flop collapsing rule is exact except *before* the first edge
/// (a Q-stem fault corrupts the initial state immediately, the D fault
/// one cycle later), and sequential fault grading conventionally does
/// not credit detections in that window.
fn detected_set(nl: &Netlist, faults: &[Fault], seed: u64, cycles: usize) -> Vec<bool> {
    let mut det = vec![false; faults.len()];
    let mut ps = EngineConfig::compiled(64).sim(nl, &[nl.topo_order().to_vec()]);
    for (chunk_i, chunk) in faults.chunks(63).enumerate() {
        ps.clear_faults();
        for (k, &f) in chunk.iter().enumerate() {
            ps.inject(f, k + 1);
        }
        ps.reset_state();
        let mut s = seed | 1;
        let mut diff = [0u64];
        for cycle in 0..cycles {
            s ^= s << 9;
            s ^= s >> 11;
            s ^= s << 13;
            ps.set_port(nl, "a", s & 0xFFFF);
            ps.set_port(nl, "b", (s >> 16) & 0xFFFF);
            ps.eval_all();
            if cycle > 0 {
                ps.diff_vs_lane0(nl.port("out"), &mut diff);
            }
            ps.clock();
        }
        for k in 0..chunk.len() {
            if diff[0] >> (k + 1) & 1 == 1 {
                det[chunk_i * 63 + k] = true;
            }
        }
    }
    det
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The representative mapping is a projection onto the collapsed list:
    /// representatives are fixpoints, and the faults `collapse` keeps are
    /// exactly the fixpoints, in list order.
    #[test]
    fn representatives_are_the_collapsed_faults(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let raw = FaultList::extract(&nl);
        let reps = class_representatives(&nl, &raw);
        prop_assert_eq!(reps.len(), raw.len());
        for (i, &r) in reps.iter().enumerate() {
            prop_assert_eq!(reps[r], r, "rep of {} is not a fixpoint", i);
        }
        let fixpoints: Vec<Fault> = reps
            .iter()
            .enumerate()
            .filter(|&(i, &r)| i == r)
            .map(|(i, _)| raw.faults[i])
            .collect();
        let col = raw.clone().collapsed(&nl);
        prop_assert_eq!(fixpoints, col.faults.clone());
        // Class sizes account for the whole universe and match weights.
        for (ci, &cf) in col.faults.iter().enumerate() {
            let rep_idx = raw.faults.iter().position(|&f| f == cf).unwrap();
            let members = reps.iter().filter(|&&r| r == rep_idx).count();
            prop_assert_eq!(members as u32, col.weight[ci]);
        }
    }

    /// Every collapsed-away fault is detected by exactly the tests that
    /// detect its representative: simulating the full list and mapping
    /// members onto representatives never changes any detection verdict.
    #[test]
    fn class_members_share_detection_status(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let raw = FaultList::extract(&nl);
        let reps = class_representatives(&nl, &raw);
        let det = detected_set(&nl, &raw.faults, seed ^ 0xD1FF, 24);
        for (i, &r) in reps.iter().enumerate() {
            prop_assert_eq!(
                det[i], det[r],
                "fault {:?} (detected={}) disagrees with its representative {:?} (detected={})",
                raw.faults[i], det[i], raw.faults[r], det[r]
            );
        }
    }

    /// Weighted coverage of a collapsed campaign equals the coverage of
    /// the full campaign under the same stimuli: detected weight over the
    /// collapsed list counts exactly the raw faults the full run detects.
    #[test]
    fn collapsed_coverage_equals_full_coverage(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let raw = FaultList::extract(&nl);
        let col = raw.clone().collapsed(&nl);
        let det_raw = detected_set(&nl, &raw.faults, seed ^ 0xC0FF, 24);
        let det_col = detected_set(&nl, &col.faults, seed ^ 0xC0FF, 24);
        let full_detected = det_raw.iter().filter(|&&d| d).count() as u32;
        let collapsed_weight: u32 = col
            .weight
            .iter()
            .zip(&det_col)
            .filter(|(_, &d)| d)
            .map(|(&w, _)| w)
            .sum();
        prop_assert_eq!(
            collapsed_weight, full_detected,
            "collapsed campaign claims {} of {} faults, full campaign detected {}",
            collapsed_weight, col.total_uncollapsed, full_detected
        );
    }
}
