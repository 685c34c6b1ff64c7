//! Deterministic and pseudorandom self-test programs for the Parwan-class
//! core, plus the grading flow — the substrate for the paper's Section 1
//! cost-ratio comparison (deterministic \[7\]\[8\] vs LFSR-based \[6\]).

use fault::campaign::CampaignResult;
use fault::engine::EngineConfig;
use fault::model::FaultList;
use obs::Telemetry;

use crate::core::ParwanCore;
use crate::isa::{Cond, ProgramBuilder};
use crate::model::ParwanModel;
use crate::testbench::self_test_bench;

/// Response region base.
pub const RESP: u16 = 0x200;

/// Operand table base.
pub const TAB: u16 = 0x300;

/// End-of-test mailbox: a store of 0xA5 here ends the test.
pub const MAILBOX: u16 = 0x1FF;

/// End marker value.
pub const END_MARKER: u8 = 0xA5;

/// A built Parwan self-test: machine code plus the size split the cost
/// comparison needs.
#[derive(Debug, Clone)]
pub struct ParwanSelfTest {
    /// Full memory image (code + data tables).
    pub image: Vec<u8>,
    /// Code bytes (downloaded program).
    pub code_bytes: usize,
    /// Test-data bytes (downloaded operand tables / seeds).
    pub data_bytes: usize,
}

fn end_test(p: &mut ProgramBuilder, marker_src: u16) {
    // LDA the marker constant and store it to the mailbox, then spin.
    p.lda(marker_src).sta(MAILBOX);
    let h = p.here();
    p.jmp(h);
}

/// The deterministic self-test: compact routines per component in the
/// methodology's style — accumulator march, adder carry pairs, logic
/// pairs, shifter walks, flag/branch checks — with every response stored
/// to memory.
pub fn deterministic_selftest() -> ParwanSelfTest {
    let mut p = ProgramBuilder::new();
    let mut tab: Vec<u8> = Vec::new();
    let tab_at = |tab: &mut Vec<u8>, v: u8| -> u16 {
        if let Some(i) = tab.iter().position(|&x| x == v) {
            return TAB + i as u16;
        }
        tab.push(v);
        TAB + (tab.len() - 1) as u16
    };
    let mut resp = RESP;

    // Accumulator march: load/complement/store walking patterns.
    for v in [0x00u8, 0xFF, 0xAA, 0x55, 0x0F, 0xF0, 0x01, 0x80] {
        let a = tab_at(&mut tab, v);
        p.lda(a).sta(resp);
        resp += 1;
        p.cma().sta(resp);
        resp += 1;
    }

    // Adder: carry-chain pairs (a + b, a - b for each).
    for (a, b) in [
        (0x00u8, 0x00u8),
        (0xFF, 0x01),
        (0xAA, 0x55),
        (0x55, 0xAA),
        (0x7F, 0x01),
        (0x80, 0x80),
        (0xFF, 0xFF),
        (0x0F, 0xF0),
        (0x33, 0xCC),
    ] {
        let aa = tab_at(&mut tab, a);
        let bb = tab_at(&mut tab, b);
        p.lda(aa).add(bb).sta(resp);
        resp += 1;
        p.lda(aa).sub(bb).sta(resp);
        resp += 1;
    }

    // Logic: per-bit exhaustive AND pairs.
    for (a, b) in [
        (0x00u8, 0x00u8),
        (0x00, 0xFF),
        (0xFF, 0x00),
        (0xFF, 0xFF),
        (0xAA, 0x55),
        (0xCC, 0xAA),
    ] {
        let aa = tab_at(&mut tab, a);
        let bb = tab_at(&mut tab, b);
        p.lda(aa).and(bb).sta(resp);
        resp += 1;
    }

    // Shifter: walk a one and an alternating pattern through both
    // directions.
    for v in [0x01u8, 0x80, 0xAA, 0x55] {
        let a = tab_at(&mut tab, v);
        p.lda(a);
        for _ in 0..8 {
            p.asl().sta(resp);
            resp += 1;
        }
        p.lda(a);
        for _ in 0..8 {
            p.asr().sta(resp);
            resp += 1;
        }
    }

    // Flags through branches: each condition taken and not taken; the
    // observable is which store executes (and the fetch stream itself).
    // Z taken:
    let zero_a = tab_at(&mut tab, 0);
    let ff = tab_at(&mut tab, 0xFF);
    let one = tab_at(&mut tab, 1);
    for (setup, cond) in [(0u8, Cond::Z), (1, Cond::N), (2, Cond::C), (3, Cond::V)] {
        match setup {
            0 => {
                p.lda(zero_a);
            }
            1 => {
                p.lda(ff);
            }
            2 => {
                p.lda(ff).add(one);
            }
            _ => {
                p.lda(tab_at(&mut tab, 0x7F)).add(one);
            }
        }
        // Branch over a store: taken -> store skipped.
        let skip_to = p.here() + 2 + 4;
        p.bra(cond, skip_to & 0xFFF);
        p.sta(resp);
        p.nop().nop(); // pad so the target lands here
        resp += 1;
        // Inverted setup: condition clear -> store executes.
        p.cla();
        let skip_to = p.here() + 2 + 4;
        p.bra(cond, skip_to & 0xFFF);
        p.sta(resp);
        p.nop().nop();
        resp += 1;
        // CMC flips carry for extra C coverage.
        p.cmc();
    }

    let marker = tab_at(&mut tab, END_MARKER);
    end_test(&mut p, marker);
    let code_bytes = p.here() as usize;
    p.pad_to(TAB);
    for &v in &tab {
        p.byte(v);
    }
    ParwanSelfTest {
        image: p.build(),
        code_bytes,
        data_bytes: tab.len(),
    }
}

/// The pseudorandom (Chen & Dey-style) self-test: an 8-bit LFSR emulated
/// in software (XOR synthesized from ADD/AND/SUB — Parwan has no XOR)
/// expands a downloaded seed into `count` patterns, which are applied to
/// the accumulator/ALU/shifter with responses stored to memory.
pub fn lfsr_selftest(count: usize) -> ParwanSelfTest {
    assert!((2..=60).contains(&count), "pattern count out of range");
    let mut p = ProgramBuilder::new();
    // Memory layout: the unrolled code needs far more room than the
    // deterministic test, so its data lives high: responses at 0xA00,
    // expansion buffer at 0xC00, downloaded constants and state at 0xF00.
    let resp_base = 0xA00u16;
    let buf = 0xC00u16; // expansion buffer (on-chip memory cost)
    let tab = 0xF00u16;
    let seed_cell = tab; // downloaded seed (test data)
    let taps_cell = tab + 1; // downloaded taps constant
    let mask_cell = tab + 2;
    let marker_cell = tab + 3;
    let x_cell = 0xF10u16; // LFSR state
    let t_cell = 0xF11; // scratch: x & taps

    // x = seed
    p.lda(seed_cell).sta(x_cell);
    // Expansion loop, unrolled per pattern (Parwan has no indexed
    // addressing, so the buffer store is unrolled — faithful to how [6]'s
    // application routines look on an accumulator machine).
    for k in 0..count {
        // Keep each step's short branch away from a page boundary.
        if (p.here() & 0xFF) > 0xE0 {
            let next_page = (p.here() & 0xF00) + 0x100;
            p.pad_to(next_page);
        }
        // Galois step: lsb = x & 1 (captured in C by ASR), x >>= 1,
        // if lsb { x ^= taps }.
        p.lda(x_cell).asr();
        // Mask the replicated sign bit so the shift is logical.
        p.and(mask_cell); // 0x7F mask
        p.sta(x_cell);
        // BRA branches when the flag is SET: carry set falls through a
        // two-byte window into the xor block; carry clear jumps past it.
        let xor_block = p.here() + 4;
        let skip = xor_block + 16;
        p.bra(Cond::C, xor_block & 0xFFF);
        p.jmp(skip & 0xFFF);
        // xor block: x = x ^ taps = (x + taps) - 2*(x & taps)
        assert_eq!(p.here(), xor_block);
        p.lda(x_cell).and(taps_cell).sta(t_cell); // t = x & taps
        p.lda(x_cell)
            .add(taps_cell)
            .sub(t_cell)
            .sub(t_cell)
            .sta(x_cell);
        assert_eq!(p.here(), skip, "xor block size changed");
        // Store the pattern into the buffer (unrolled address).
        p.lda(x_cell).sta(buf + k as u16);
        let _ = k;
    }
    // Application: run every buffered pattern through ADD/AND/SUB/ASL
    // against its successor, storing responses (unrolled pairs).
    let mut resp = resp_base;
    for k in 0..count - 1 {
        let a = buf + k as u16;
        let b = buf + k as u16 + 1;
        p.lda(a).add(b).sta(resp);
        resp += 1;
        p.lda(a).and(b).sta(resp);
        resp += 1;
        p.lda(a).sub(b).asl().sta(resp);
        resp += 1;
    }

    end_test(&mut p, marker_cell);
    let code_bytes = p.here() as usize;
    assert!(
        code_bytes <= resp_base as usize,
        "code overruns the data map"
    );
    p.pad_to(tab);
    p.byte(0xB7) // seed
        .byte(0xB8) // taps (x^8 + x^6 + x^5 + x^4 + 1 -> 0xB8)
        .byte(0x7F) // shift mask
        .byte(END_MARKER);
    ParwanSelfTest {
        image: p.build(),
        code_bytes,
        data_bytes: 4,
    }
}

/// Golden run length: cycles until the mailbox store.
///
/// # Panics
///
/// Panics if the program never stores the marker (broken generator).
pub fn golden_cycles(test: &ParwanSelfTest) -> u64 {
    let mut mem = vec![0u8; 4096];
    mem[..test.image.len()].copy_from_slice(&test.image);
    let mut cpu = ParwanModel::new();
    for c in 0..2_000_000u64 {
        let bc = cpu.cycle(&mut mem);
        if bc.we && bc.addr == MAILBOX && bc.wdata == END_MARKER {
            return c + 1;
        }
    }
    panic!("parwan self-test never reached its end marker");
}

/// Fault-simulate a self-test over `faults` — the Parwan grading entry
/// ([`EngineConfig::grade`]) with batches at most `engine`'s width, on
/// `threads` workers (0 = auto). Each bench shares the telemetry's
/// profiler, so per-cycle phases land in the campaign profile.
/// Detections are bit-identical across widths, thread counts and
/// telemetry.
pub fn grade(
    core: &ParwanCore,
    test: &ParwanSelfTest,
    faults: &FaultList,
    threads: usize,
    engine: EngineConfig,
    telemetry: &Telemetry,
) -> CampaignResult {
    let budget = golden_cycles(test) + 32;
    let factory =
        || self_test_bench(core, &test.image, budget).with_profiler(telemetry.profiler.clone());
    engine.grade(
        core.netlist(),
        &core.segments().map(<[u32]>::to_vec),
        faults,
        factory,
        threads,
        telemetry,
    )
}

/// Replay one fault of a Parwan self-test with waveform capture: lane 0
/// is the fault-free core, lane 1 the faulty one, on the compiled engine
/// at 64 lanes through the same [`self_test_bench`] [`grade`] uses,
/// so the verdict (and detection cycle) matches the campaign bit for
/// bit. Probe specs follow
/// [`netlist::wave::Probe::from_spec`] (component names or port globs;
/// empty = full probe).
pub fn capture_fault_wave(
    core: &ParwanCore,
    test: &ParwanSelfTest,
    f: fault::Fault,
    opts: &fault::wave::WaveOptions,
) -> Result<fault::wave::CapturedWave, String> {
    let probe = netlist::wave::Probe::from_spec(core.netlist(), &opts.probe)?;
    let budget = golden_cycles(test) + 32;
    let segments = core.segments().map(<[u32]>::to_vec);
    let mut sim = EngineConfig::compiled(64).sim(core.netlist(), &segments);
    let mut tb = self_test_bench(core, &test.image, budget);
    Ok(fault::wave::capture_fault(
        &mut sim, &mut tb, probe, f, opts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_selftest_terminates() {
        let t = deterministic_selftest();
        let cycles = golden_cycles(&t);
        assert!(cycles > 100 && cycles < 5000, "cycles = {cycles}");
        assert!(t.code_bytes < 700, "code {} bytes", t.code_bytes);
        assert!(t.data_bytes < 40);
    }

    #[test]
    fn lfsr_selftest_terminates_and_is_heavy() {
        let t = lfsr_selftest(40);
        let cycles = golden_cycles(&t);
        let det = golden_cycles(&deterministic_selftest());
        assert!(
            cycles > 2 * det,
            "pseudorandom should cost much more: {cycles} vs {det}"
        );
    }

    /// End-to-end waveform path on a real (small) CPU: the captured
    /// trigger must equal the campaign's detection cycle, the diff scope
    /// must actually show corruption, and the VCD must be
    /// byte-deterministic across captures.
    #[test]
    fn fault_wave_capture_matches_campaign_detection() {
        let core = ParwanCore::build();
        let faults = FaultList::extract(core.netlist()).collapsed(core.netlist());
        let test = deterministic_selftest();
        // Grade just the first batch to find a detected fault cheaply.
        let head = FaultList {
            faults: faults.faults[..63].to_vec(),
            component: faults.component[..63].to_vec(),
            weight: faults.weight[..63].to_vec(),
            total_uncollapsed: 63,
        };
        let res = grade(
            &core,
            &test,
            &head,
            0,
            EngineConfig::default(),
            &Telemetry::none(),
        );
        let (idx, det_cycle) = res
            .detections
            .iter()
            .enumerate()
            .find_map(|(i, d)| match d {
                fault::campaign::Detection::DetectedAt(c) => Some((i, *c)),
                _ => None,
            })
            .expect("first batch should detect something");
        let f = head.faults[idx];

        let opts = fault::wave::WaveOptions::default();
        let wave = capture_fault_wave(&core, &test, f, &opts).unwrap();
        assert_eq!(
            wave.trigger,
            Some(det_cycle),
            "wave trigger != campaign detection"
        );
        let corrupt = wave.corrupt_cycles();
        assert!(!corrupt.is_empty(), "no corruption in diff scope");
        assert!(*corrupt.first().unwrap() <= det_cycle);

        let render = |w: &fault::wave::CapturedWave| {
            let mut buf = Vec::new();
            w.write_vcd(&mut buf, &f.describe()).unwrap();
            buf
        };
        let again = capture_fault_wave(&core, &test, f, &opts).unwrap();
        assert_eq!(
            render(&wave),
            render(&again),
            "capture is not deterministic"
        );

        // Probe selection by port glob narrows the var set.
        let narrow = fault::wave::WaveOptions {
            probe: vec!["mem_*".into()],
            ..fault::wave::WaveOptions::default()
        };
        let w2 = capture_fault_wave(&core, &test, f, &narrow).unwrap();
        assert!(w2.probe.len() < wave.probe.len());
        assert!(capture_fault_wave(
            &core,
            &test,
            f,
            &fault::wave::WaveOptions {
                probe: vec!["nope".into()],
                ..Default::default()
            }
        )
        .is_err());
    }

    /// The full self-test grading flow must produce the same detections
    /// at 64, 128 and 512 lanes, serial and at 4 threads — the
    /// processor-level bit-identical check (`tests/scalar_oracle.rs`
    /// holds the detections themselves to a scalar simulator).
    #[test]
    fn grade_is_identical_across_widths_and_threads() {
        let core = ParwanCore::build();
        let faults = FaultList::extract(core.netlist()).collapsed(core.netlist());
        let test = deterministic_selftest();
        let run = |threads: usize, lanes: usize| {
            let engine = EngineConfig::compiled(lanes);
            grade(&core, &test, &faults, threads, engine, &Telemetry::none())
        };
        let reference = run(1, 64);
        for threads in [1usize, 4] {
            for lanes in [64usize, 128, 512] {
                assert_eq!(
                    run(threads, lanes).detections,
                    reference.detections,
                    "{lanes} lanes @ {threads} threads diverged from 64 lanes serial"
                );
            }
        }
    }

    #[test]
    fn deterministic_coverage_beats_lfsr_per_cycle() {
        let core = ParwanCore::build();
        let faults = FaultList::extract(core.netlist()).collapsed(core.netlist());
        let det = deterministic_selftest();
        let hooks = Telemetry::none();
        let det_res = grade(&core, &det, &faults, 0, EngineConfig::default(), &hooks);
        let det_cov = det_res.coverage();
        assert!(det_cov > 0.80, "deterministic coverage {det_cov}");
        let pr = lfsr_selftest(40);
        let pr_res = grade(&core, &pr, &faults, 0, EngineConfig::default(), &hooks);
        // The pseudorandom test must not dominate: comparable-or-lower
        // coverage at far higher cycle cost (the paper's claim).
        assert!(
            pr_res.coverage() <= det_cov + 0.03,
            "pseudorandom {} vs deterministic {det_cov}",
            pr_res.coverage()
        );
    }
}
