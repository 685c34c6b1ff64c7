//! Phase-based self-test program construction (paper Figure 3).
//!
//! Phase A targets the four functional components in descending size
//! order; Phase B adds the memory controller (the largest control
//! component with the greatest missed-coverage contribution after
//! Phase A); Phase C — which the paper defines but does not need for its
//! coverage goal — adds a control-flow routine for the PC logic and
//! decoder.

use mips::asm::{assemble, AsmError, Program};

use crate::routines::{self, Routine, END_MARKER, MAILBOX, RESP_BASE};

/// Test-development phase (cumulative: B includes A, C includes B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Functional components: RegF, MulD, ALU, BSH.
    A,
    /// Phase A plus the memory controller.
    B,
    /// Phase B plus the control-flow (PCL/CTRL) routine.
    C,
}

impl Phase {
    /// The routines this phase comprises, in test-priority order.
    pub fn routines(self) -> Vec<Routine> {
        let mut r = vec![
            routines::regfile_routine(),
            routines::muldiv_routine(),
            routines::shifter_routine(),
            routines::alu_routine(),
        ];
        if self >= Phase::B {
            r.push(routines::mctrl_routine());
        }
        if self >= Phase::C {
            r.push(routines::control_routine());
            r.push(routines::pcl_ladder_routine());
        }
        r
    }

    /// Display name ("Phase A", ...).
    pub fn name(self) -> &'static str {
        match self {
            Phase::A => "Phase A",
            Phase::B => "Phase A+B",
            Phase::C => "Phase A+B+C",
        }
    }
}

/// A fully built self-test program.
#[derive(Debug, Clone)]
pub struct SelfTestProgram {
    /// The phase it was built for.
    pub phase: Phase,
    /// Complete assembly source.
    pub source: String,
    /// Assembled image.
    pub program: Program,
}

impl SelfTestProgram {
    /// Downloaded program size in 32-bit words (code + tables, excluding
    /// address gaps) — the Table 4 "Test Program (words)" figure.
    pub fn size_words(&self) -> usize {
        self.program.size_download_words()
    }
}

/// Build the self-test program for a phase.
///
/// The register-file routine runs inline first (it clobbers every
/// register). The remaining routines are *subroutines* invoked with
/// `jal` (and one with `jalr`, one return jump with `j`) — besides being
/// how real self-test programs are organized, the calling structure
/// exercises the jump/link paths of the PC logic and result bus as
/// collateral. Operand tables follow all code.
pub fn build_program(phase: Phase) -> Result<SelfTestProgram, AsmError> {
    let routines = phase.routines();
    let mut main = String::new();
    let mut subs = String::new();
    let mut tables = String::new();
    let mut high = String::new();
    for (k, r) in routines.iter().enumerate() {
        if k == 0 {
            // Inline register-file march, then set up the shared
            // response pointer.
            main.push_str(&format!("# ---- {} routine (inline) ----\n", r.component));
            main.push_str(&r.code);
            main.push_str(&format!("        li   $s2, 0x{:x}\n", RESP_BASE + 0x400));
        } else if k == 3 {
            // One call through jalr for the register-target decode path.
            main.push_str(&format!("        la   $t9, rt_{k}_{}\n", r.component));
            main.push_str("        jalr $t9\n");
            main.push_str("        nop\n");
            subs.push_str(&format!(
                "rt_{k}_{}:\n{}        jr   $ra\n        nop\n",
                r.component, r.code
            ));
        } else {
            main.push_str(&format!("        jal  rt_{k}_{}\n", r.component));
            main.push_str("        nop\n");
            subs.push_str(&format!(
                "rt_{k}_{}:\n{}        jr   $ra\n        nop\n",
                r.component, r.code
            ));
        }
        tables.push_str(&r.tables);
        high.push_str(&r.high_code);
    }
    main.push_str("# ---- end of test ----\n");
    main.push_str(&format!("        li   $k1, 0x{END_MARKER:x}\n"));
    main.push_str(&format!("        sw   $k1, 0x{MAILBOX:x}($zero)\n"));
    main.push_str("selftest_done:\n");
    main.push_str("        j    selftest_done\n");
    main.push_str("        nop\n");
    let src = format!("{main}{subs}{tables}{high}");
    let program = assemble(&src)?;
    Ok(SelfTestProgram {
        phase,
        source: src,
        program,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips::iss::{Iss, Memory};

    #[test]
    fn phase_programs_build_and_terminate() {
        for phase in [Phase::A, Phase::B, Phase::C] {
            let st = build_program(phase).expect("assembles");
            let mut mem = Memory::new(64 * 1024);
            mem.load_program(&st.program);
            let mut cpu = Iss::new();
            let trace = cpu.run_until_store(&mut mem, MAILBOX, END_MARKER, 100_000);
            let last = trace.last().unwrap();
            assert!(
                last.we && last.addr == MAILBOX,
                "{}: never reached the marker",
                phase.name()
            );
            println!(
                "{}: {} words, {} cycles",
                phase.name(),
                st.size_words(),
                trace.len()
            );
            // Table 4 ballpark: around 1K words, a few thousand cycles.
            assert!(
                st.size_words() < 2500,
                "{}: program too large",
                phase.name()
            );
            assert!(trace.len() < 40_000, "{}: too slow", phase.name());
        }
    }

    #[test]
    fn phases_are_cumulative_in_size() {
        let a = build_program(Phase::A).unwrap();
        let b = build_program(Phase::B).unwrap();
        let c = build_program(Phase::C).unwrap();
        assert!(a.size_words() < b.size_words());
        assert!(b.size_words() < c.size_words());
    }

    #[test]
    fn responses_do_not_overrun_the_region() {
        // The response pointer must stay inside [RESP_BASE, MCTRL_SCRATCH).
        let st = build_program(Phase::C).unwrap();
        let mut mem = Memory::new(64 * 1024);
        mem.load_program(&st.program);
        let mut cpu = Iss::new();
        let trace = cpu.run_until_store(&mut mem, MAILBOX, END_MARKER, 100_000);
        for c in &trace {
            if c.we && c.addr != MAILBOX {
                assert!(
                    (RESP_BASE..crate::routines::MCTRL_SCRATCH + 0x1000).contains(&c.addr),
                    "stray store to {:#x}",
                    c.addr
                );
            }
        }
    }
}
