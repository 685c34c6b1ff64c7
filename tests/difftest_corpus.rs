//! Replay of the `tests/corpus/` differential-test regression directory.
//!
//! Every case is a minimal reproducer (or a pinned known-good program)
//! persisted by the `difftest` tooling. Fault-free cases must replay on
//! any netlist; fault-bearing cases replay only while the recorded
//! netlist fingerprint still matches (otherwise they are skipped — the
//! structural fault indices would be meaningless), so evolving the core
//! degrades them gracefully instead of failing the build.

use difftest::corpus::{self, ReplayOutcome};
use difftest::oracle::{PlasmaOracle, MAX_CYCLES};
use plasma::{PlasmaConfig, PlasmaCore};

#[test]
fn corpus_replays_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("corpus directory loads");
    assert!(!cases.is_empty(), "corpus must contain at least one case");

    let core = PlasmaCore::build(PlasmaConfig::default());
    let mut oracle = PlasmaOracle::new(&core, MAX_CYCLES);
    let mut replayed = 0;
    for (path, case) in &cases {
        match corpus::replay(case, &core, &mut oracle) {
            ReplayOutcome::Pass => replayed += 1,
            ReplayOutcome::Skipped(why) => {
                eprintln!("skipping {}: {why}", path.display());
            }
            ReplayOutcome::Fail(why) => panic!("{}: {why}", path.display()),
        }
    }
    // The fault-free cases carry no netlist fingerprint and are always
    // replayable, so at least those must have run.
    assert!(replayed > 0, "every corpus case was skipped");
}
