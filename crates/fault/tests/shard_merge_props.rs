//! Property tests of the shard-merge paths behind the campaign job
//! server: merging per-shard results back into a full-list campaign is
//! invariant under **arbitrary** shard partitions and merge orders —
//! uneven cuts, empty shards, shuffled completion order — and the
//! coverage shard-sum is invariant under arbitrary (even
//! non-contiguous) partitions of the fault set, not just the contiguous
//! tilings the scheduler happens to produce.
//!
//! The merge is pure bookkeeping over per-fault detections, so the
//! properties are driven with synthesized detection vectors on small
//! random netlists: far more partitions per second than simulating, and
//! the bit-identical-under-sharding property of the *simulator* is
//! covered end-to-end by `sbst::jobs` and the server e2e suite.

use fault::campaign::{CampaignResult, CampaignStats, Detection};
use fault::coverage::CoverageReport;
use fault::model::FaultList;
use fault::shard::{merge_results, shard_bounds};
use netlist::{Netlist, NetlistBuilder};
use proptest::prelude::*;

/// Small random gate soup with a register bank — enough structure for a
/// multi-component collapsed fault list.
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

/// Cheap deterministic RNG for deriving partitions and detections.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0 = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.0
    }
}

/// A synthesized detection vector: roughly `density`/8 of faults
/// detected, at pseudo-random cycles.
fn synth_detections(rng: &mut Rng, n: usize, density: u64) -> Vec<Detection> {
    (0..n)
        .map(|_| {
            if rng.next() % 8 < density {
                Detection::DetectedAt(rng.next() % 4096)
            } else {
                Detection::Undetected
            }
        })
        .collect()
}

/// An arbitrary contiguous partition of `[0, n)`: `k` random cut
/// points, duplicates allowed — so shards may be wildly uneven or
/// empty. Nothing like the scheduler's near-equal tiling.
fn random_cuts(rng: &mut Rng, n: usize, k: usize) -> Vec<(usize, usize)> {
    let mut cuts: Vec<usize> = (0..k)
        .map(|_| (rng.next() % (n as u64 + 1)) as usize)
        .collect();
    cuts.push(0);
    cuts.push(n);
    cuts.sort_unstable();
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

/// The single-shot reference result the parts must reassemble into.
fn single_shot(faults: &FaultList, detections: Vec<Detection>) -> CampaignResult {
    CampaignResult {
        faults: faults.clone(),
        stats: CampaignStats::default(),
        detections,
    }
}

/// Cut a single-shot result into per-range parts.
fn cut_parts(
    faults: &FaultList,
    detections: &[Detection],
    bounds: &[(usize, usize)],
) -> Vec<(usize, usize, CampaignResult)> {
    bounds
        .iter()
        .map(|&(lo, hi)| {
            (
                lo,
                hi,
                CampaignResult {
                    faults: faults.slice(lo, hi),
                    stats: CampaignStats::default(),
                    detections: detections[lo..hi].to_vec(),
                },
            )
        })
        .collect()
}

/// Borrow owned parts the way [`merge_results`] reads them.
fn by_ref(parts: &[(usize, usize, CampaignResult)]) -> Vec<(usize, usize, &CampaignResult)> {
    parts.iter().map(|(lo, hi, res)| (*lo, *hi, res)).collect()
}

/// Fisher–Yates shuffle driven by the test's RNG.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merging any contiguous partition — random uneven cuts, empty
    /// shards included — in any completion order reproduces the
    /// single-shot detections exactly, and the coverage report computed
    /// from the merge is identical row-for-row.
    #[test]
    fn merge_is_invariant_under_partition_and_order(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let n = faults.len();
        if n == 0 { return Ok(()); }
        let mut rng = Rng(seed ^ 0x5EED);
        let detections = synth_detections(&mut rng, n, 3);
        let reference = single_shot(&faults, detections.clone());
        let ref_report = CoverageReport::from_campaign(&nl, &reference);

        for k in [1usize, 2, 3, 7] {
            let bounds = random_cuts(&mut rng, n, k);
            let mut parts = cut_parts(&faults, &detections, &bounds);
            shuffle(&mut rng, &mut parts);
            let merged = merge_results(&faults, &by_ref(&parts)).expect("partition merges");
            prop_assert_eq!(&merged.detections, &reference.detections);
            let report = CoverageReport::from_campaign(&nl, &merged);
            prop_assert_eq!(report.total_faults, ref_report.total_faults);
            prop_assert_eq!(report.total_detected, ref_report.total_detected);
            prop_assert_eq!(report.overall_pct, ref_report.overall_pct);
            prop_assert_eq!(report.components.len(), ref_report.components.len());
            for (row, ref_row) in report.components.iter().zip(&ref_report.components) {
                prop_assert_eq!(&row.name, &ref_row.name);
                prop_assert_eq!(row.total, ref_row.total);
                prop_assert_eq!(row.detected, ref_row.detected);
            }
        }
    }

    /// The coverage shard-sum is invariant under **non-contiguous**
    /// partitions too: assign every fault to an arbitrary group, sum the
    /// weighted detected counts per group, and the total equals the
    /// single-shot report — coverage is a sum over faults, so any
    /// partition of the set sums to the same value.
    #[test]
    fn coverage_shard_sum_holds_for_arbitrary_set_partitions(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let n = faults.len();
        if n == 0 { return Ok(()); }
        let mut rng = Rng(seed ^ 0xA11_0C8);
        let detections = synth_detections(&mut rng, n, 4);
        let reference = single_shot(&faults, detections.clone());
        let ref_report = CoverageReport::from_campaign(&nl, &reference);

        for groups in [2usize, 3, 5] {
            // Interleaved, shuffled membership — no contiguity at all.
            let assign: Vec<usize> = (0..n).map(|_| (rng.next() % groups as u64) as usize).collect();
            let mut detected_sum = 0u64;
            let mut weight_sum = 0u64;
            for g in 0..groups {
                for i in (0..n).filter(|&i| assign[i] == g) {
                    weight_sum += faults.weight[i] as u64;
                    if detections[i].is_detected() {
                        detected_sum += faults.weight[i] as u64;
                    }
                }
            }
            prop_assert_eq!(weight_sum, ref_report.total_faults);
            prop_assert_eq!(detected_sum, ref_report.total_detected);
        }
    }

    /// The scheduler's own tiling composes with the merge: for every
    /// shard count the canonical bounds cover `[0, n)` exactly, and a
    /// merge of those shards (reversed completion order) is the
    /// single-shot result.
    #[test]
    fn canonical_tiling_round_trips(seed in any::<u64>(), k in 1usize..9) {
        let nl = random_netlist(seed);
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let n = faults.len();
        if n == 0 { return Ok(()); }
        let mut rng = Rng(seed ^ 0x7117);
        let detections = synth_detections(&mut rng, n, 2);

        let bounds = shard_bounds(n, k);
        prop_assert_eq!(bounds.len(), k);
        prop_assert_eq!(bounds[0].0, 0);
        prop_assert_eq!(bounds[k - 1].1, n);
        for w in bounds.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0);
        }

        let mut parts = cut_parts(&faults, &detections, &bounds);
        parts.reverse();
        let merged = merge_results(&faults, &by_ref(&parts)).expect("tiling merges");
        prop_assert_eq!(merged.detections, detections);
    }
}
