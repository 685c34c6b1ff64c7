//! Fault-shard scheduling and merge for the campaign job server.
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
//! Three pieces:
//!
//! * [`shard_bounds`] — the canonical contiguous tiling of `n` faults
//!   into `k` shards (what the job server schedules),
//! * [`ShardBoard`] — a claim/complete scoreboard with lease-based
//!   reclaim, so a shard claimed by a worker that dies is re-issued
//!   instead of stranding the job,
//! * [`merge_detections`] / [`merge_results`] — reassemble per-shard
//!   outcomes into the full-list result, verifying that the shards tile
//!   the list exactly (any completion order, no overlap, no gap).

use std::sync::Mutex;
use std::time::{Duration, Instant};

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

/// Lifecycle of one shard on a [`ShardBoard`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// Not yet claimed by any worker.
    Pending,
    /// Claimed by `worker`; reclaimable after the lease expires.
    Claimed {
        /// Worker identity that holds the claim.
        worker: String,
    },
    /// Result recorded; terminal.
    Done,
}

struct Slot {
    state: ShardState,
    deadline: Option<Instant>,
}

struct BoardState {
    slots: Vec<Slot>,
    /// Claims that re-issued an expired lease (work steals) since
    /// creation — the board's only non-happy-path transition, surfaced
    /// by the job server as counters and SSE events.
    steals: u64,
}

/// Outcome of a successful [`ShardBoard::claim_detailed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardClaim {
    /// The claimed shard index.
    pub shard: usize,
    /// When the claim re-issued an expired lease, the worker that lost
    /// it; `None` for a first claim of a pending shard.
    pub stolen_from: Option<String>,
}

/// Work-stealing scoreboard for the shards of one job.
///
/// Workers [`claim`](ShardBoard::claim) the lowest-numbered available
/// shard (pending, or claimed but past its lease deadline — the
/// *resumable claim* path that survives worker death) and
/// [`complete`](ShardBoard::complete) it with a result. Completion is
/// first-writer-wins: if a slow worker's lease expired and the shard was
/// re-run, whichever completion lands first is recorded and the other is
/// rejected, so a shard's result is written exactly once.
pub struct ShardBoard {
    state: Mutex<BoardState>,
    lease: Duration,
}

impl ShardBoard {
    /// A board of `shards` pending slots with the given claim lease.
    pub fn new(shards: usize, lease: Duration) -> ShardBoard {
        ShardBoard {
            state: Mutex::new(BoardState {
                slots: (0..shards)
                    .map(|_| Slot {
                        state: ShardState::Pending,
                        deadline: None,
                    })
                    .collect(),
                steals: 0,
            }),
            lease,
        }
    }

    /// Claim the lowest-numbered available shard for `worker`, renewing
    /// its lease. Returns `None` when every shard is done or held under
    /// a live lease.
    pub fn claim(&self, worker: &str) -> Option<usize> {
        self.claim_detailed(worker).map(|c| c.shard)
    }

    /// [`claim`](ShardBoard::claim), but reporting whether the claim
    /// stole an expired lease and from whom — the job server turns that
    /// into `shard_lease_expired`/`shard_stolen` events and counters.
    pub fn claim_detailed(&self, worker: &str) -> Option<ShardClaim> {
        let now = Instant::now();
        let mut state = self.state.lock().unwrap();
        for i in 0..state.slots.len() {
            let slot = &state.slots[i];
            let stolen_from = match &slot.state {
                ShardState::Pending => None,
                ShardState::Claimed { worker: holder } => {
                    if slot.deadline.is_some_and(|d| d <= now) {
                        Some(holder.clone())
                    } else {
                        continue;
                    }
                }
                ShardState::Done => continue,
            };
            if stolen_from.is_some() {
                state.steals += 1;
            }
            let slot = &mut state.slots[i];
            slot.state = ShardState::Claimed {
                worker: worker.to_string(),
            };
            slot.deadline = Some(now + self.lease);
            return Some(ShardClaim {
                shard: i,
                stolen_from,
            });
        }
        None
    }

    /// Record shard `shard` as done. Returns `false` (and changes
    /// nothing) if it was already completed — the duplicate-completion
    /// guard for re-issued leases.
    pub fn complete(&self, shard: usize) -> bool {
        let mut state = self.state.lock().unwrap();
        let slot = &mut state.slots[shard];
        if slot.state == ShardState::Done {
            return false;
        }
        slot.state = ShardState::Done;
        slot.deadline = None;
        true
    }

    /// Number of shards on the board.
    pub fn total(&self) -> usize {
        self.state.lock().unwrap().slots.len()
    }

    /// Number of completed shards.
    pub fn done(&self) -> usize {
        self.state
            .lock()
            .unwrap()
            .slots
            .iter()
            .filter(|s| s.state == ShardState::Done)
            .count()
    }

    /// Whether every shard has completed.
    pub fn all_done(&self) -> bool {
        self.done() == self.total()
    }

    /// Claims that re-issued an expired lease since creation.
    pub fn steals(&self) -> u64 {
        self.state.lock().unwrap().steals
    }

    /// Current state of every shard, for status endpoints.
    pub fn snapshot(&self) -> Vec<ShardState> {
        self.state
            .lock()
            .unwrap()
            .slots
            .iter()
            .map(|s| s.state.clone())
            .collect()
    }
}

/// Scatter per-shard detection vectors back into a full-list vector.
///
/// `parts` is `(lo, hi, detections)` per shard, in **any** order. Errors
/// if a part's length doesn't match its range or the ranges don't tile
/// `[0, total)` exactly (overlap or gap) — the merge refuses to invent
/// or drop outcomes.
pub fn merge_detections(
    total: usize,
    parts: &[(usize, usize, Vec<Detection>)],
) -> Result<Vec<Detection>, String> {
    let mut out = vec![None; total];
    for (lo, hi, dets) in parts {
        if lo > hi || *hi > total {
            return Err(format!("shard [{lo}, {hi}) out of bounds for {total} faults"));
        }
        if dets.len() != hi - lo {
            return Err(format!(
                "shard [{lo}, {hi}) carries {} detections, expected {}",
                dets.len(),
                hi - lo
            ));
        }
        for (k, d) in dets.iter().enumerate() {
            let slot = &mut out[lo + k];
            if slot.is_some() {
                return Err(format!("fault {} graded by two shards", lo + k));
            }
            *slot = Some(*d);
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(i, d)| d.ok_or_else(|| format!("fault {i} not covered by any shard")))
        .collect()
}

/// Merge per-shard [`CampaignResult`]s over slices of `faults` into the
/// single-shot result for the whole list.
///
/// Detections are scattered positionally ([`merge_detections`]), so they
/// are bit-identical to one campaign over `faults`; the stats are the
/// honest aggregate (sums for work counters, max for concurrency, the
/// union of worker records). Errors on any tiling violation or if a
/// shard's fault slice disagrees with `faults` — a worker that graded
/// the wrong faults must not corrupt the merge.
pub fn merge_results(
    faults: &FaultList,
    parts: &[(usize, usize, CampaignResult)],
) -> Result<CampaignResult, String> {
    for (lo, hi, res) in parts {
        if *hi > faults.len() || lo > hi {
            return Err(format!(
                "shard [{lo}, {hi}) out of bounds for {} faults",
                faults.len()
            ));
        }
        if res.faults.faults != faults.faults[*lo..*hi] {
            return Err(format!("shard [{lo}, {hi}) graded a different fault slice"));
        }
    }
    let det_parts: Vec<(usize, usize, Vec<Detection>)> = parts
        .iter()
        .map(|(lo, hi, res)| (*lo, *hi, res.detections.clone()))
        .collect();
    let detections = merge_detections(faults.len(), &det_parts)?;
    let mut stats = CampaignStats::default();
    for (_, _, res) in parts {
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

    #[test]
    fn board_claims_each_shard_once_then_runs_dry() {
        let board = ShardBoard::new(3, Duration::from_secs(60));
        let a = board.claim("w1").unwrap();
        let b = board.claim("w2").unwrap();
        let c = board.claim("w1").unwrap();
        let mut got = vec![a, b, c];
        got.sort();
        assert_eq!(got, vec![0, 1, 2]);
        // All leased: nothing to steal yet.
        assert_eq!(board.claim("w3"), None);
        assert!(board.complete(a));
        assert!(board.complete(b));
        assert!(board.complete(c));
        assert!(board.all_done());
        assert_eq!(board.claim("w3"), None);
    }

    #[test]
    fn expired_lease_is_reclaimed_and_double_completion_rejected() {
        let board = ShardBoard::new(1, Duration::from_millis(1));
        let first = board.claim_detailed("dying-worker").unwrap();
        assert_eq!(first.stolen_from, None, "first claim steals nothing");
        assert_eq!(board.steals(), 0);
        std::thread::sleep(Duration::from_millis(5));
        // Lease expired: the shard is re-issued to a live worker, and
        // the steal names the worker that lost the lease.
        let again = board.claim_detailed("live-worker").unwrap();
        assert_eq!(first.shard, again.shard);
        assert_eq!(again.stolen_from.as_deref(), Some("dying-worker"));
        assert_eq!(board.steals(), 1);
        assert!(board.complete(again.shard), "first completion recorded");
        assert!(!board.complete(first.shard), "late duplicate rejected");
        assert!(board.all_done());
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_length_mismatches() {
        let d = |n: usize| vec![Detection::Undetected; n];
        // Gap: fault 5 uncovered.
        assert!(merge_detections(6, &[(0, 3, d(3)), (3, 5, d(2))]).is_err());
        // Overlap: fault 2 graded twice.
        assert!(merge_detections(5, &[(0, 3, d(3)), (2, 5, d(3))]).is_err());
        // Length mismatch.
        assert!(merge_detections(4, &[(0, 4, d(3))]).is_err());
        // Out of bounds.
        assert!(merge_detections(4, &[(0, 5, d(5))]).is_err());
        // Exact tiling in arbitrary order is accepted.
        let merged = merge_detections(5, &[(3, 5, d(2)), (0, 3, d(3))]).unwrap();
        assert_eq!(merged.len(), 5);
    }

    #[test]
    fn merge_scatters_detections_positionally() {
        let parts = vec![
            (2usize, 4usize, vec![Detection::DetectedAt(7), Detection::Undetected]),
            (0usize, 2usize, vec![Detection::Undetected, Detection::DetectedAt(3)]),
        ];
        let merged = merge_detections(4, &parts).unwrap();
        assert_eq!(
            merged,
            vec![
                Detection::Undetected,
                Detection::DetectedAt(3),
                Detection::DetectedAt(7),
                Detection::Undetected,
            ]
        );
    }
}
