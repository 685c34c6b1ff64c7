//! Fault-shard tiling and merge for the campaign job server.
//!
//! A campaign over a collapsed fault list parallelises perfectly at the
//! fault granularity: a fault's [`Detection`] depends only on the fault
//! and the stimulus, never on which other faults share its simulation
//! batch. The bit-parallel engines already exploit this inside one
//! process (lanes, then threads); this module exploits it *across*
//! processes by tiling the fault list into contiguous **shards** that
//! independent workers grade and a coordinator merges back —
//! bit-identically to a single-shot run over the whole list.
//!
//! Two pieces:
//!
//! * [`shard_bounds`] — the canonical contiguous tiling of `n` faults
//!   into `k` shards (what the job server schedules; its claims, leases
//!   and completions live in `bench::server`),
//! * [`merge_results`] — reassemble per-shard outcomes into the
//!   full-list result, verifying that the shards tile the list exactly
//!   (any completion order, no overlap, no gap).

use crate::campaign::{latency_of, CampaignResult, CampaignStats, Detection};
use crate::model::FaultList;

/// Canonical contiguous tiling of `n_faults` into `shards` near-equal
/// `[lo, hi)` ranges. The first `n_faults % shards` shards are one fault
/// larger; every fault lands in exactly one shard, in list order. With
/// `shards >= n_faults` the tail shards are empty (and still merge
/// correctly). `shards == 0` is treated as 1.
pub fn shard_bounds(n_faults: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let base = n_faults / shards;
    let extra = n_faults % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut lo = 0usize;
    for s in 0..shards {
        let hi = lo + base + usize::from(s < extra);
        bounds.push((lo, hi));
        lo = hi;
    }
    debug_assert_eq!(lo, n_faults);
    bounds
}

/// Merge per-shard [`CampaignResult`]s over slices of `faults` into the
/// single-shot result for the whole list.
///
/// `parts` is `(lo, hi, result)` per shard, in **any** order. Detections
/// are scattered positionally, so they are bit-identical to one
/// campaign over `faults`; the stats are the honest aggregate (sums for
/// work counters, max for concurrency, the union of worker records).
/// Errors if a part is out of bounds, carries the wrong number of
/// detections or a fault slice that disagrees with `faults` (a worker
/// that graded the wrong faults must not corrupt the merge), or if the
/// parts overlap or leave a gap: the merge refuses to invent or drop
/// outcomes.
pub fn merge_results(
    faults: &FaultList,
    parts: &[(usize, usize, &CampaignResult)],
) -> Result<CampaignResult, String> {
    let total = faults.len();
    let mut scattered = vec![None; total];
    let mut stats = CampaignStats::default();
    for &(lo, hi, res) in parts {
        if lo > hi || hi > total {
            return Err(format!(
                "shard [{lo}, {hi}) out of bounds for {total} faults"
            ));
        }
        if res.detections.len() != hi - lo {
            return Err(format!(
                "shard [{lo}, {hi}) carries {} detections, expected {}",
                res.detections.len(),
                hi - lo
            ));
        }
        if res.faults.faults != faults.faults[lo..hi] {
            return Err(format!("shard [{lo}, {hi}) graded a different fault slice"));
        }
        for (k, d) in res.detections.iter().enumerate() {
            let slot = &mut scattered[lo + k];
            if slot.is_some() {
                return Err(format!("fault {} graded by two shards", lo + k));
            }
            *slot = Some(*d);
        }
        stats.batches += res.stats.batches;
        stats.cycles_simulated += res.stats.cycles_simulated;
        stats.budget_cycles += res.stats.budget_cycles;
        stats.faults += res.stats.faults;
        stats.faults_dropped += res.stats.faults_dropped;
        stats.lane_cycles_useful += res.stats.lane_cycles_useful;
        stats.lane_cycles_spent += res.stats.lane_cycles_spent;
        stats.wall_seconds = stats.wall_seconds.max(res.stats.wall_seconds);
        stats.threads = stats.threads.max(res.stats.threads);
        stats.lanes = stats.lanes.max(res.stats.lanes);
        stats.workers.extend(res.stats.workers.iter().cloned());
        stats.profile.absorb(&res.stats.profile);
    }
    let detections: Vec<Detection> = scattered
        .into_iter()
        .enumerate()
        .map(|(i, d)| d.ok_or_else(|| format!("fault {i} not covered by any shard")))
        .collect::<Result<_, _>>()?;
    stats.latency = latency_of(&detections);
    Ok(CampaignResult {
        faults: faults.clone(),
        detections,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Fault, FaultSite, Polarity};
    use netlist::TOP_COMPONENT;

    #[test]
    fn bounds_tile_exactly_for_all_small_cases() {
        for n in 0..40 {
            for k in 1..12 {
                let b = shard_bounds(n, k);
                assert_eq!(b.len(), k);
                assert_eq!(b[0].0, 0);
                assert_eq!(b[k - 1].1, n);
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "gap/overlap in {b:?}");
                }
                // Near-equal: sizes differ by at most one.
                let sizes: Vec<usize> = b.iter().map(|(lo, hi)| hi - lo).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{sizes:?}");
            }
        }
    }

    /// A list of `n` distinct faults.
    fn list(n: usize) -> FaultList {
        FaultList {
            faults: (0..n as u32)
                .map(|d| Fault {
                    site: FaultSite::DffD(d),
                    polarity: Polarity::StuckAt0,
                })
                .collect(),
            component: vec![TOP_COMPONENT; n],
            weight: vec![1; n],
            total_uncollapsed: n,
        }
    }

    /// The result of grading `[lo, hi)` of `faults` with `detections`.
    fn part(
        faults: &FaultList,
        lo: usize,
        hi: usize,
        detections: Vec<Detection>,
    ) -> CampaignResult {
        CampaignResult {
            faults: faults.slice(lo, hi),
            detections,
            stats: CampaignStats::default(),
        }
    }

    #[test]
    fn merge_rejects_gaps_overlaps_lengths_and_out_of_bounds_parts() {
        let d = |n: usize| vec![Detection::Undetected; n];
        let err = |faults: &FaultList, parts: &[(usize, usize, &CampaignResult)]| {
            merge_results(faults, parts).unwrap_err()
        };
        // Gap: fault 5 uncovered.
        let six = list(6);
        let (a, b) = (part(&six, 0, 3, d(3)), part(&six, 3, 5, d(2)));
        assert!(err(&six, &[(0, 3, &a), (3, 5, &b)]).contains("fault 5 not covered"));
        // Overlap: fault 2 graded twice.
        let five = list(5);
        let (a, b) = (part(&five, 0, 3, d(3)), part(&five, 2, 5, d(3)));
        assert!(err(&five, &[(0, 3, &a), (2, 5, &b)]).contains("fault 2 graded by two shards"));
        // Length mismatch.
        let four = list(4);
        let short = part(&four, 0, 4, d(3));
        assert!(err(&four, &[(0, 4, &short)]).contains("carries 3 detections"));
        // Out of bounds.
        let wide = part(&five, 0, 5, d(5));
        assert!(err(&four, &[(0, 5, &wide)]).contains("out of bounds"));
        // A slice of other faults.
        let shifted = part(&five, 1, 5, d(4));
        assert!(err(&four, &[(0, 4, &shifted)]).contains("different fault slice"));
        // Exact tiling in arbitrary order is accepted.
        let (a, b) = (part(&five, 3, 5, d(2)), part(&five, 0, 3, d(3)));
        let merged = merge_results(&five, &[(3, 5, &a), (0, 3, &b)]).unwrap();
        assert_eq!(merged.detections.len(), 5);
    }

    #[test]
    fn merge_scatters_detections_positionally() {
        let four = list(4);
        let hi = part(
            &four,
            2,
            4,
            vec![Detection::DetectedAt(7), Detection::Undetected],
        );
        let lo = part(
            &four,
            0,
            2,
            vec![Detection::Undetected, Detection::DetectedAt(3)],
        );
        let merged = merge_results(&four, &[(2, 4, &hi), (0, 2, &lo)]).unwrap();
        assert_eq!(
            merged.detections,
            vec![
                Detection::Undetected,
                Detection::DetectedAt(3),
                Detection::DetectedAt(7),
                Detection::Undetected,
            ]
        );
    }
}
