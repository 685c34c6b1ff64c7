//! The set-up every workload pays before its first op: core build,
//! fault list, self-test program, golden run and kernel lowering.

use std::sync::Arc;
use std::time::Instant;

use fault::model::FaultList;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::classify::{classify_plasma, ComponentClass};
use sbst::flow::{self, MEM_BYTES};
use sbst::phases::{build_program, Phase, SelfTestProgram};
use sbst::provenance::{GoldenTrace, RoutineMap};

use crate::report::Report;
use crate::stats::median;
use crate::trace::{summarize, Scope, Trace};
use crate::Workload;

/// Stratified sample target of the grading workloads' fault lists.
pub const SAMPLE_TARGET: usize = 2000;
/// Extra cycles a faulty machine gets past the golden run (the flow's
/// default margin).
pub const CYCLE_MARGIN: u64 = 64;

/// Everything an op needs that set-up built.
pub struct Bench {
    /// The gate-level Plasma core.
    pub core: Arc<PlasmaCore>,
    /// The Phase A+B self-test program.
    pub selftest: SelfTestProgram,
    /// Per-fault cycle budget: golden run length + margin.
    pub budget: u64,
    /// The op's fault list (the full collapsed list for `daemon_jobs`,
    /// whose jobs sample their own).
    pub faults: FaultList,
    /// Golden trace and routine map for escape attribution
    /// (`ctrl_triage` only).
    pub provenance: Option<(GoldenTrace, RoutineMap)>,
}

/// Build the core, the workload's fault list, the Phase A+B program, its
/// golden run and the compiled kernel, one layer span each. The kernel
/// is lowered afresh (not through the process-wide cache) so every
/// repetition pays what a new process pays.
pub fn set_up(workload: Workload, seed: u64, scope: &Scope) -> Bench {
    let core = {
        let _s = scope.layer("plasma.build");
        Arc::new(PlasmaCore::build(PlasmaConfig::default()))
    };
    let faults = {
        let _s = scope.layer("fault.model.list");
        let full = FaultList::extract(core.netlist()).collapsed(core.netlist());
        match workload {
            Workload::CampaignAb => full.sample_stratified(SAMPLE_TARGET, seed),
            Workload::CtrlTriage => {
                control_faults(&core, &full).sample_stratified(SAMPLE_TARGET, seed)
            }
            Workload::DaemonJobs => full,
        }
    };
    let selftest = {
        let _s = scope.layer("sbst.phases.program");
        build_program(Phase::B).expect("the Phase A+B program assembles")
    };
    let (golden, provenance) = {
        let _s = scope.layer("mips.iss.golden");
        let golden = flow::golden_cycles(&selftest);
        let provenance = (workload == Workload::CtrlTriage).then(|| {
            (
                GoldenTrace::record(&selftest.program, MEM_BYTES, golden),
                RoutineMap::of_selftest(&selftest),
            )
        });
        (golden, provenance)
    };
    {
        let _s = scope.layer("fault.kernel.compile");
        let [early, late] = core.segments();
        let kernel = fault::kernel::CompiledKernel::compile(
            core.netlist(),
            &[early.to_vec(), late.to_vec()],
        );
        std::hint::black_box(kernel);
    }
    Bench {
        core,
        selftest,
        budget: golden + CYCLE_MARGIN,
        faults,
        provenance,
    }
}

/// The faults of the paper's control and hidden components: every class
/// `classify_plasma` does not call `Functional`.
pub fn control_faults(core: &PlasmaCore, full: &FaultList) -> FaultList {
    let classes = classify_plasma();
    let names = core.netlist().component_names();
    let control: Vec<bool> = names
        .iter()
        .map(|n| {
            classes
                .iter()
                .any(|c| &c.name == n && c.class != ComponentClass::Functional)
        })
        .collect();
    full.filter(|_, c| control[c.index()])
}

/// Set-ups before the window.
const REPS_BEFORE: usize = 10;
/// Set-ups after each timed op. A set-up takes about 10 ms and the
/// host's speed drifts over seconds, so set-ups spread over the whole
/// window give a steadier median than a burst before it.
const REPS_PER_OP: usize = 3;

/// Repeated set-ups of one workload, each followed by `extra` (e.g. a
/// server boot) inside the same timing; `setup_s` is their median.
pub struct Setups<'a> {
    workload: Workload,
    seed: u64,
    trace: &'a Trace,
    extra: &'a dyn Fn(&Bench, &Scope),
    secs: Vec<f64>,
}

impl<'a> Setups<'a> {
    /// Set up `REPS_BEFORE` times and keep the last set-up for the run.
    pub fn start(
        workload: Workload,
        seed: u64,
        trace: &'a Trace,
        extra: &'a dyn Fn(&Bench, &Scope),
    ) -> (Setups<'a>, Bench) {
        let mut setups = Setups {
            workload,
            seed,
            trace,
            extra,
            secs: Vec::new(),
        };
        let mut bench = setups.once();
        for _ in 1..REPS_BEFORE {
            bench = setups.once();
        }
        (setups, bench)
    }

    /// Set up `REPS_PER_OP` more times, between two timed ops.
    pub fn between_ops(&mut self) {
        for _ in 0..REPS_PER_OP {
            self.once();
        }
    }

    fn once(&mut self) -> Bench {
        let t0 = Instant::now();
        let scope = self
            .trace
            .root(&format!("setup-{}", self.secs.len()), "setup", true);
        let bench = set_up(self.workload, self.seed, &scope);
        (self.extra)(&bench, &scope);
        drop(scope);
        self.secs.push(t0.elapsed().as_secs_f64());
        bench
    }

    /// Record `setup_s` and the per-layer medians of every set-up.
    pub fn finish(self, report: &mut Report) {
        report.set("setup_s", median(&self.secs).expect("at least one set-up"));
        report.note(
            "setup_s",
            format!(
                "median of {} set-ups: {REPS_BEFORE} before the window, {REPS_PER_OP} after each op",
                self.secs.len()
            ),
        );
        let spans = summarize(&self.trace.jsonl());
        for (name, kind) in [
            ("plasma.build_ms", "plasma.build"),
            ("fault.model.list_ms", "fault.model.list"),
            ("sbst.phases.program_ms", "sbst.phases.program"),
            ("mips.iss.golden_ms", "mips.iss.golden"),
            ("fault.kernel.compile_ms", "fault.kernel.compile"),
        ] {
            if let Some(v) = median(spans.secs(kind)) {
                report.set(name, v * 1e3);
            }
        }
    }
}
