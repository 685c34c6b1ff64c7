//! What one op produced, what it cost, and how it is checked.
//!
//! The *outcome* is everything the benchmark checks: the Detection
//! vector with its detection cycles, the weighted coverage, and for the
//! triage workload the forensics and escape-attribution JSON. The
//! *effort* counters (batches, simulated cycles, lane-cycles) are
//! reported but never checked, so a scheduling change that simulates
//! fewer cycles for the same detections stays correct.

use std::collections::BTreeMap;

use fault::campaign::Detection;

/// The checked result of one op.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per-fault outcome, parallel to the op's fault list.
    pub detections: Vec<Detection>,
    /// Weighted (uncollapsed) faults in the list.
    pub total_weighted: u64,
    /// Weighted faults detected.
    pub detected_weighted: u64,
    /// Forensics report JSON followed by the escape-attribution JSON
    /// (triage workload only).
    pub triage: Option<String>,
}

impl Outcome {
    /// Weighted coverage in percent.
    pub fn coverage_pct(&self) -> f64 {
        100.0 * self.detected_weighted as f64 / self.total_weighted.max(1) as f64
    }

    /// A 64-bit FNV-1a digest of the whole outcome, as 16 hex digits:
    /// what the reference file stores for the default seed.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for d in &self.detections {
            match d {
                Detection::Undetected => eat(b"-,"),
                Detection::DetectedAt(c) => eat(format!("{c},").as_bytes()),
            }
        }
        eat(format!("|{}/{}|", self.detected_weighted, self.total_weighted).as_bytes());
        if let Some(t) = &self.triage {
            eat(t.as_bytes());
        }
        format!("{h:016x}")
    }
}

/// What an op's outcome is checked against.
#[derive(Debug, Clone)]
pub enum Reference {
    /// The digest recorded for the default seed.
    Digest(String),
    /// A single-threaded run of the same input.
    Run(Outcome),
}

impl Reference {
    /// `Ok` when `got` matches the reference; otherwise the first
    /// difference found.
    pub fn check(&self, got: &Outcome) -> Result<(), String> {
        match self {
            Reference::Digest(want) => {
                let have = got.digest();
                if &have == want {
                    Ok(())
                } else {
                    Err(format!("outcome digest {have} != recorded {want}"))
                }
            }
            Reference::Run(want) => {
                if got.detections.len() != want.detections.len() {
                    return Err(format!(
                        "{} detections, reference has {}",
                        got.detections.len(),
                        want.detections.len()
                    ));
                }
                if let Some(i) =
                    (0..want.detections.len()).find(|&i| got.detections[i] != want.detections[i])
                {
                    return Err(format!(
                        "fault {i}: {:?}, reference {:?}",
                        got.detections[i], want.detections[i]
                    ));
                }
                if (got.detected_weighted, got.total_weighted)
                    != (want.detected_weighted, want.total_weighted)
                {
                    return Err(format!(
                        "weighted coverage {}/{}, reference {}/{}",
                        got.detected_weighted,
                        got.total_weighted,
                        want.detected_weighted,
                        want.total_weighted
                    ));
                }
                if got.triage != want.triage {
                    return Err("forensics or escape attribution differs from the reference".into());
                }
                Ok(())
            }
        }
    }
}

/// Effort counters of one graded campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Faults graded.
    pub faults: u64,
    /// Batches simulated.
    pub batches: u64,
    /// Clock cycles simulated, summed over batches.
    pub cycles_simulated: u64,
    /// Simulated cycles times lanes per batch.
    pub lane_cycles_spent: u64,
    /// Lane-cycles a perfect scheduler could not avoid: per fault its
    /// detection cycle + 1, or the whole budget for an escape.
    pub lane_cycles_useful: u64,
    /// Faults detected (and so dropped from further simulation).
    pub faults_dropped: u64,
}

impl Effort {
    /// Effort of a campaign run over a per-fault cycle budget.
    pub fn of(
        detections: &[Detection],
        batches: u64,
        cycles: u64,
        lanes: u64,
        budget: u64,
    ) -> Effort {
        let lane_cycles_useful = detections
            .iter()
            .map(|d| match d {
                Detection::DetectedAt(c) => c + 1,
                Detection::Undetected => budget,
            })
            .sum();
        Effort {
            faults: detections.len() as u64,
            batches,
            cycles_simulated: cycles,
            lane_cycles_spent: cycles * lanes,
            lane_cycles_useful,
            faults_dropped: detections.iter().filter(|d| d.is_detected()).count() as u64,
        }
    }

    /// Useful ÷ spent lane-cycles.
    pub fn lane_utilization(&self) -> f64 {
        self.lane_cycles_useful as f64 / self.lane_cycles_spent.max(1) as f64
    }

    /// Faults left undetected.
    pub fn escapes(&self) -> u64 {
        self.faults - self.faults_dropped
    }

    /// The count metrics, which must repeat exactly for an input.
    pub fn counts(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("campaign.batches", self.batches as f64),
            ("campaign.cycles_simulated", self.cycles_simulated as f64),
            ("campaign.lane_cycles_spent", self.lane_cycles_spent as f64),
            ("campaign.lane_utilization", self.lane_utilization()),
            ("campaign.faults_dropped", self.faults_dropped as f64),
            ("forensics.escapes", self.escapes() as f64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            detections: vec![
                Detection::DetectedAt(3),
                Detection::Undetected,
                Detection::DetectedAt(40),
            ],
            total_weighted: 5,
            detected_weighted: 3,
            triage: None,
        }
    }

    #[test]
    fn every_reference_kind_rejects_a_moved_detection_cycle() {
        let want = outcome();
        let mut got = want.clone();
        got.detections[2] = Detection::DetectedAt(41);
        for r in [
            Reference::Run(want.clone()),
            Reference::Digest(want.digest()),
        ] {
            assert!(r.check(&want).is_ok());
            assert!(
                r.check(&got).is_err(),
                "{r:?} accepted a corrupted detection"
            );
        }
    }

    #[test]
    fn lane_utilization_counts_escapes_at_the_full_budget() {
        let e = Effort::of(&outcome().detections, 1, 100, 4, 100);
        // (3 + 1) + 100 + (40 + 1) useful of 400 spent.
        assert_eq!(e.lane_cycles_useful, 145);
        assert_eq!((e.faults_dropped, e.escapes()), (2, 1));
        assert!((e.lane_utilization() - 145.0 / 400.0).abs() < 1e-12);
    }
}
