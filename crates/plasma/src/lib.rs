//! Gate-level Plasma-class MIPS I processor core.
//!
//! This crate builds, out of the `netlist` crate's primitive gates, a full
//! 3-stage-pipeline MIPS I CPU with the same RT-level component
//! decomposition the paper reports for the Plasma/MIPS core (Table 2/3):
//!
//! | component | class      | contents |
//! |-----------|------------|----------|
//! | `RegF`    | functional | 32×32 register file, 2R/1W, `$0` hardwired |
//! | `MulD`    | functional | 32-cycle sequential multiplier/divider with HI/LO |
//! | `ALU`     | functional | add/sub/slt/sltu/and/or/xor/nor |
//! | `BSH`     | functional | 32-bit barrel shifter |
//! | `MCTRL`   | control    | bus FSM, byte enables, load/store aligners |
//! | `PCL`     | control    | PC register, +4, branch/jump target selection |
//! | `CTRL`    | control    | instruction decoder and branch resolution |
//! | `BMUX`    | control    | operand / result / write-back bus multiplexers |
//! | `PLN`     | hidden     | pipeline registers (IR, EPC, memory stage) |
//! | `glue`    | —          | tie cells and interconnect buffers |
//!
//! The core follows the microarchitectural contract documented in the
//! `mips` crate and is co-simulated in lock-step against the cycle-accurate
//! ISS there.
//!
//! The bus interface is four output ports (`mem_addr`, `mem_wdata`,
//! `mem_we`, `mem_be`) and one input port (`mem_rdata`). By construction
//! there is no combinational path from `mem_rdata` to any output, so a
//! testbench — the scalar [`testbench::GateCpu`], or the lane-parallel
//! `fault::membench::MemBench` that [`testbench::self_test_bench`]
//! builds — evaluates the netlist in two topological segments per cycle:
//! address-producing logic first, then — after the memory lookup — the
//! read-data cone ([`PlasmaCore::segments`]).
//!
//! # Example
//!
//! ```
//! use plasma::PlasmaCore;
//! use plasma::testbench::GateCpu;
//! use mips::asm::assemble;
//!
//! let core = PlasmaCore::build(Default::default());
//! let program = assemble(
//!     "li $t0, 3\nli $t1, 4\naddu $t2, $t0, $t1\nsw $t2, 0x80($zero)\nstop: b stop\nnop"
//! ).unwrap();
//! let mut cpu = GateCpu::new(&core, 4096);
//! cpu.load_program(&program);
//! cpu.run(40);
//! assert_eq!(cpu.read_word(0x80), 7);
//! ```

#![warn(missing_docs)]

mod components;
mod core;

pub mod testbench;

pub use crate::core::{PlasmaConfig, PlasmaCore, COMPONENT_NAMES};
