//! The flow as a **job executor**: deterministic campaign preparation
//! plus per-shard execution and merge, the pieces the campaign job
//! server schedules over worker threads and processes.
//!
//! A job is described by a [`CampaignJobSpec`] — phase, fault sampling,
//! budget margin, lane width, and shard count. [`prepare`] turns the spec
//! into a [`PreparedJob`] **deterministically**: the phase program, its
//! golden run length, the (seeded) sampled fault list, and the canonical
//! shard tiling. Determinism is what makes the distributed story work:
//! a worker *process* given the same spec reconstructs byte-identical
//! shards from scratch, so the coordinator ships only the spec and a
//! shard index — never fault lists — over the wire.
//!
//! [`run_shard`] grades one shard with the ordinary campaign runner
//! (lanes × threads inside the shard), and [`merge`] reassembles the
//! full-list [`CampaignResult`] through [`fault::shard::merge_results`],
//! which reads each shard's result in place, bit-identical to a
//! single-shot run of the same spec. Claims, leases, completions and
//! finalization belong to the job server (`bench::server`).

use fault::campaign::CampaignResult;
use fault::engine::EngineConfig;
use fault::model::FaultList;
use fault::shard::{merge_results, shard_bounds};
use obs::Telemetry;
use plasma::PlasmaCore;

use crate::flow::{self, FlowOptions};
use crate::phases::{build_program, Phase, SelfTestProgram};

/// Everything that determines a campaign job's outcome. Two equal specs
/// prepare byte-identical jobs in any process on any machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignJobSpec {
    /// Self-test phase (cumulative: A ⊂ B ⊂ C).
    pub phase: Phase,
    /// Stratified fault-sample target; `None` grades the full collapsed
    /// list.
    pub fault_sample: Option<usize>,
    /// Sampling seed.
    pub seed: u64,
    /// Extra cycles granted to faulty machines beyond the golden run
    /// ([`flow::CYCLE_MARGIN`] by default).
    pub cycle_margin: u64,
    /// Lane width of the compiled engine.
    pub engine: EngineConfig,
    /// Worker threads *inside* one shard run (0 = auto).
    pub threads: usize,
    /// Number of contiguous fault shards to tile the list into.
    pub shards: usize,
}

impl Default for CampaignJobSpec {
    fn default() -> Self {
        let d = FlowOptions::default();
        CampaignJobSpec {
            phase: Phase::A,
            fault_sample: d.fault_sample,
            seed: d.seed,
            cycle_margin: flow::CYCLE_MARGIN,
            engine: d.engine,
            threads: 1,
            shards: 1,
        }
    }
}

/// A deterministically prepared job: program, budget, fault list, and
/// shard tiling.
#[derive(Debug, Clone)]
pub struct PreparedJob {
    /// The generated self-test program.
    pub selftest: SelfTestProgram,
    /// Golden execution length in clock cycles.
    pub golden_cycles: u64,
    /// Per-fault cycle budget (`golden + cycle_margin`).
    pub budget: u64,
    /// The (sampled) collapsed fault list the job grades.
    pub faults: FaultList,
    /// Canonical contiguous shard tiling of `faults`.
    pub bounds: Vec<(usize, usize)>,
}

/// Prepare `spec` on `core`: build + assemble the phase program, measure
/// its golden run on the ISS, extract/collapse/sample the fault list,
/// and tile it into shards. Pure function of `(core, spec)`.
pub fn prepare(core: &PlasmaCore, spec: &CampaignJobSpec) -> PreparedJob {
    let selftest = build_program(spec.phase).expect("phase program must assemble");
    let golden_cycles = flow::golden_cycles(&selftest);
    let opts = FlowOptions {
        fault_sample: spec.fault_sample,
        seed: spec.seed,
        ..FlowOptions::default()
    };
    let faults = flow::fault_list(core, &opts);
    let bounds = shard_bounds(faults.len(), spec.shards);
    PreparedJob {
        selftest,
        golden_cycles,
        budget: golden_cycles + spec.cycle_margin,
        faults,
        bounds,
    }
}

/// Grade shard `shard` of a prepared job. The result covers exactly the
/// faults of `job.bounds[shard]`, with detections bit-identical to the
/// same positions of a single-shot run — a fault's outcome depends only
/// on the fault and the stimulus, never on its batch neighbours.
pub fn run_shard(
    core: &PlasmaCore,
    job: &PreparedJob,
    spec: &CampaignJobSpec,
    shard: usize,
    telemetry: &Telemetry,
) -> CampaignResult {
    let (lo, hi) = job.bounds[shard];
    let slice = job.faults.slice(lo, hi);
    flow::run_campaign_of_engine(
        core,
        &job.selftest.program,
        &slice,
        job.budget,
        spec.threads,
        telemetry,
        spec.engine,
    )
}

/// Per-shard progress for convergence telemetry: how many faults the
/// result graded and how many of them were detected. The job server
/// accumulates these across completed shards into the per-job
/// coverage-convergence series (detected faults vs. shards done).
pub fn shard_progress(result: &CampaignResult) -> (u64, u64) {
    let graded = result.detections.len() as u64;
    let detected = result.detections.iter().filter(|d| d.is_detected()).count() as u64;
    (graded, detected)
}

/// Merge per-shard results (`(shard index, result)`, any order) back
/// into the full-list campaign result, borrowing each part. Errors on
/// missing, duplicate, or mismatched shards — see
/// [`fault::shard::merge_results`].
pub fn merge(
    job: &PreparedJob,
    parts: &[(usize, CampaignResult)],
) -> Result<CampaignResult, String> {
    let ranged: Vec<(usize, usize, &CampaignResult)> = parts
        .iter()
        .map(|(s, res)| {
            let (lo, hi) = *job
                .bounds
                .get(*s)
                .ok_or_else(|| format!("shard {s} out of range ({} shards)", job.bounds.len()))?;
            Ok((lo, hi, res))
        })
        .collect::<Result<_, String>>()?;
    merge_results(&job.faults, &ranged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault::campaign::Detection;
    use plasma::PlasmaConfig;

    /// Sharded execution + merge is bit-identical to a single-shot run
    /// of the same spec, including when shards complete out of order.
    #[test]
    fn sharded_job_merges_bit_identically_to_single_shot() {
        let core = PlasmaCore::build(PlasmaConfig::default());
        let spec = CampaignJobSpec {
            fault_sample: Some(300),
            engine: EngineConfig::compiled(256),
            shards: 3,
            ..CampaignJobSpec::default()
        };
        let job = prepare(&core, &spec);
        assert_eq!(job.bounds.len(), 3);

        let single = flow::run_campaign_of_engine(
            &core,
            &job.selftest.program,
            &job.faults,
            job.budget,
            spec.threads,
            &Telemetry::none(),
            spec.engine,
        );

        // Run the shards in reverse order and merge.
        let parts: Vec<(usize, CampaignResult)> = (0..3)
            .rev()
            .map(|s| (s, run_shard(&core, &job, &spec, s, &Telemetry::none())))
            .collect();
        let merged = merge(&job, &parts).unwrap();

        assert_eq!(merged.detections, single.detections);
        assert_eq!(merged.coverage(), single.coverage());
        assert!(merged
            .detections
            .iter()
            .any(|d| matches!(d, Detection::DetectedAt(_))));
        // Faults graded and useful lane-cycles depend only on the
        // detections, so the merge sums them to the single-shot values.
        assert_eq!(merged.stats.faults, single.stats.faults);
        assert_eq!(
            merged.stats.lane_cycles_useful,
            single.stats.lane_cycles_useful
        );

        // Shard progress tallies sum to the merged totals.
        let (graded, detected): (u64, u64) = parts
            .iter()
            .map(|(_, r)| shard_progress(r))
            .fold((0, 0), |(g, d), (pg, pd)| (g + pg, d + pd));
        assert_eq!(graded, merged.detections.len() as u64);
        assert_eq!(shard_progress(&merged), (graded, detected));

        // Missing and duplicate shards are merge errors, not silent
        // miscoverage.
        assert!(merge(&job, &parts[..2]).is_err());
        let mut dup = parts.clone();
        dup[0].0 = dup[1].0;
        assert!(merge(&job, &dup).is_err());
    }

    /// Preparation is deterministic: two prepares of the same spec agree
    /// on program, budget, fault list, and tiling.
    #[test]
    fn preparation_is_deterministic() {
        let core = PlasmaCore::build(PlasmaConfig::default());
        let spec = CampaignJobSpec {
            fault_sample: Some(250),
            shards: 4,
            ..CampaignJobSpec::default()
        };
        let a = prepare(&core, &spec);
        let b = prepare(&core, &spec);
        assert_eq!(a.selftest.program.words, b.selftest.program.words);
        assert_eq!(a.budget, b.budget);
        assert_eq!(a.faults.faults, b.faults.faults);
        assert_eq!(a.bounds, b.bounds);
    }
}
