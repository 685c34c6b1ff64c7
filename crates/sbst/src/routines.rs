//! Self-test routine generation (paper Section 2.3): each component gets
//! a compact loop of instructions that applies its library test set and
//! makes the responses bus-observable by storing them to data memory.
//!
//! Conventions shared by all routines:
//!
//! * `$s0` — operand-table pointer, `$s1` — loop counter, `$s2` —
//!   response pointer, `$a0`/`$a1` — operands, `$v0`/`$v1` — results;
//! * the register-file routine runs *first* (it clobbers every register)
//!   and uses absolute addressing for its responses;
//! * every routine is position-independent assembly text; tables are
//!   emitted separately and placed after the code.

use std::fmt::Write as _;

use crate::library;

/// Start of the self-test response region (word-aligned, within reach of
/// 16-bit absolute addressing off `$zero`).
pub const RESP_BASE: u32 = 0x4000;

/// Mailbox address for the end-of-test marker store.
pub const MAILBOX: u32 = 0x3FFC;

/// End-of-test marker value.
pub const END_MARKER: u32 = 0x600D_C0DE;

/// Scratch memory region used by the memory-controller routine.
pub const MCTRL_SCRATCH: u32 = 0x6000;

/// A generated routine: code plus its operand tables.
#[derive(Debug, Clone, Default)]
pub struct Routine {
    /// Component this routine targets.
    pub component: &'static str,
    /// Assembly text of the code section.
    pub code: String,
    /// Assembly text of the operand tables (placed after all code).
    pub tables: String,
    /// Assembly placed at the very end of the image (may contain `.org`
    /// directives into high memory; see [`pcl_ladder_routine`]).
    pub high_code: String,
}

/// The register-file routine: a march-style sequence adapted to a 2R/1W
/// register file, with a *distinct* signature per register (address-
/// decoder separation) and its complement (cell coverage):
///
/// 1. ascending write of `sig(r)`,
/// 2. ascending read (stored to memory) then write of `!sig(r)`,
/// 3. descending read then write of `sig(r)`,
/// 4. ascending read.
///
/// The read-before-write in both directions catches write-port aliasing
/// regardless of whether the victim register is above or below the
/// aggressor — a plain write-all-then-read-all pass masks one direction.
/// Clobbers all registers; responses go to absolute addresses in
/// `RESP_BASE..RESP_BASE+0x180`.
pub fn regfile_routine() -> Routine {
    let mut code = String::new();
    let write = |code: &mut String, r: u8, pass: usize| {
        let v = library::regfile_signature(r, pass);
        let _ = writeln!(code, "        lui ${r}, 0x{:x}", v >> 16);
        let _ = writeln!(code, "        ori ${r}, ${r}, 0x{:x}", v & 0xFFFF);
    };
    let read = |code: &mut String, r: u8, block: u32| {
        let off = RESP_BASE + 0x80 * block + 4 * r as u32;
        let _ = writeln!(code, "        sw  ${r}, 0x{off:x}($zero)");
    };
    // 1: ascending w(sig0)
    for r in 1..32u8 {
        write(&mut code, r, 0);
    }
    // 2: ascending r(sig0), w(sig1)
    for r in 1..32u8 {
        read(&mut code, r, 0);
        write(&mut code, r, 1);
    }
    // 3: descending r(sig1), w(sig0)
    for r in (1..32u8).rev() {
        read(&mut code, r, 1);
        write(&mut code, r, 0);
    }
    // 4: ascending r(sig0) — through read port *1* this time: elements
    // 2/3 observed every register via the store path (port 2, the `rt`
    // operand); this element routes each register through the `rs`
    // operand port into the ALU and stores the transparent OR result, so
    // both read networks are fully observed with distinct values.
    for r in 1..32u8 {
        let off = RESP_BASE + 0x80 * 2 + 4 * r as u32;
        let _ = writeln!(code, "        or  $1, ${r}, $zero");
        let _ = writeln!(code, "        sw  $1, 0x{off:x}($zero)");
    }
    // 5: double read. A stuck-active write-enable turns every instruction
    // whose destination field aliases `r` into a spurious write — in
    // particular the `sw $r` read itself (its rt field addresses `r`, and
    // the spurious write data is the store address). The first `sw` reads
    // the healthy value, the second reads the corruption.
    for r in 1..32u8 {
        let _ = writeln!(
            code,
            "        sw  ${r}, 0x{:x}($zero)",
            RESP_BASE + 0x180 + 4 * r as u32
        );
        let _ = writeln!(
            code,
            "        sw  ${r}, 0x{:x}($zero)",
            RESP_BASE + 0x200 + 4 * r as u32
        );
    }
    // 6: disturb passes. A stuck-at-1 hold-mux select makes a cell load
    // on *every* write; whether the march sees it depends on what the
    // last writer's bit happened to be. Writing all-ones (then all-zeros)
    // to one register and re-reading everything makes the corruption
    // deterministic in both polarities.
    for (pass, fill) in [(0u32, 0xFFFF_FFFFu32), (1, 0x0000_0000)] {
        let _ = writeln!(code, "        lui $2, 0x{:x}", fill >> 16);
        let _ = writeln!(code, "        ori $2, $2, 0x{:x}", fill & 0xFFFF);
        for r in 1..32u8 {
            let off = RESP_BASE + 0x280 + 0x80 * pass + 4 * r as u32;
            let _ = writeln!(code, "        sw  ${r}, 0x{off:x}($zero)");
        }
    }
    Routine {
        component: "RegF",
        code,
        tables: String::new(),
        high_code: String::new(),
    }
}

/// The ALU routine: a compact loop over an operand-pair table applying
/// all eight register ALU operations, plus a short unrolled immediate
/// section covering the `addi`/`slti`/`andi`/`ori`/`xori`/`lui` decode
/// paths.
pub fn alu_routine() -> Routine {
    let pairs: Vec<(u32, u32)> = library::adder_pairs()
        .into_iter()
        .chain(library::logic_pairs())
        .collect();
    let mut code = String::new();
    let _ = writeln!(code, "        la   $s0, alu_tab");
    let _ = writeln!(code, "        li   $s1, {}", pairs.len());
    let _ = writeln!(code, "alu_loop:");
    let _ = writeln!(code, "        lw   $a0, 0($s0)");
    let _ = writeln!(code, "        lw   $a1, 4($s0)");
    for (i, op) in ["addu", "subu", "and", "or", "xor", "nor", "slt", "sltu"]
        .iter()
        .enumerate()
    {
        let _ = writeln!(code, "        {op} $v0, $a0, $a1");
        let _ = writeln!(code, "        sw   $v0, {}($s2)", 4 * i);
    }
    let _ = writeln!(code, "        addiu $s2, $s2, 32");
    let _ = writeln!(code, "        addiu $s0, $s0, 8");
    let _ = writeln!(code, "        addiu $s1, $s1, -1");
    let _ = writeln!(code, "        bnez $s1, alu_loop");
    let _ = writeln!(code, "        nop");
    // Immediate-operand decode coverage (unrolled, responses stored).
    let _ = writeln!(code, "        li    $a0, 0x5555AAAA");
    for (i, line) in [
        "addiu $v0, $a0, 0x7FFF",
        "addiu $v0, $v0, -0x8000",
        "slti  $v0, $a0, -1",
        "sltiu $v0, $a0, -1",
        "andi  $v0, $a0, 0xF0F0",
        "ori   $v0, $a0, 0x0F0F",
        "xori  $v0, $a0, 0xFFFF",
        "lui   $v0, 0x8421",
    ]
    .iter()
    .enumerate()
    {
        let _ = writeln!(code, "        {line}");
        let _ = writeln!(code, "        sw    $v0, {}($s2)", 4 * i);
    }
    let _ = writeln!(code, "        addiu $s2, $s2, 32");

    let mut tables = String::from("alu_tab:\n");
    for (a, b) in &pairs {
        let _ = writeln!(tables, "        .word 0x{a:08x}, 0x{b:08x}");
    }
    Routine {
        component: "ALU",
        code,
        tables,
        high_code: String::new(),
    }
}

/// The barrel-shifter routine: an outer loop over data patterns and an
/// inner loop over all 32 shift amounts applying the three variable
/// shifts, plus unrolled constant shifts for the `sll`/`srl`/`sra`
/// decode paths.
pub fn shifter_routine() -> Routine {
    let data = library::shifter_data();
    let mut code = String::new();
    let _ = writeln!(code, "        la   $s0, bsh_tab");
    let _ = writeln!(code, "        li   $s1, {}", data.len());
    let _ = writeln!(code, "bsh_outer:");
    let _ = writeln!(code, "        lw   $a0, 0($s0)");
    let _ = writeln!(code, "        li   $t0, 0");
    let _ = writeln!(code, "bsh_inner:");
    let _ = writeln!(code, "        sllv $v0, $a0, $t0");
    let _ = writeln!(code, "        sw   $v0, 0($s2)");
    let _ = writeln!(code, "        srlv $v0, $a0, $t0");
    let _ = writeln!(code, "        sw   $v0, 4($s2)");
    let _ = writeln!(code, "        srav $v0, $a0, $t0");
    let _ = writeln!(code, "        sw   $v0, 8($s2)");
    let _ = writeln!(code, "        addiu $s2, $s2, 12");
    let _ = writeln!(code, "        addiu $t0, $t0, 1");
    let _ = writeln!(code, "        sltiu $v1, $t0, 32");
    let _ = writeln!(code, "        bnez $v1, bsh_inner");
    let _ = writeln!(code, "        nop");
    let _ = writeln!(code, "        addiu $s0, $s0, 4");
    let _ = writeln!(code, "        addiu $s1, $s1, -1");
    let _ = writeln!(code, "        bgtz $s1, bsh_outer");
    let _ = writeln!(code, "        nop");
    // Constant-shift decode paths.
    let _ = writeln!(code, "        li   $a0, 0x80000001");
    for (i, line) in [
        "sll $v0, $a0, 1",
        "srl $v0, $a0, 1",
        "sra $v0, $a0, 1",
        "sll $v0, $a0, 31",
        "srl $v0, $a0, 31",
        "sra $v0, $a0, 31",
        "sll $v0, $a0, 0",
        "sra $v0, $a0, 13",
    ]
    .iter()
    .enumerate()
    {
        let _ = writeln!(code, "        {line}");
        let _ = writeln!(code, "        sw  $v0, {}($s2)", 4 * i);
    }
    let _ = writeln!(code, "        addiu $s2, $s2, 32");

    let mut tables = String::from("bsh_tab:\n");
    for d in &data {
        let _ = writeln!(tables, "        .word 0x{d:08x}");
    }
    Routine {
        component: "BSH",
        code,
        tables,
        high_code: String::new(),
    }
}

/// The multiplier/divider routine: loops over operand tables issuing
/// `mult`/`multu` and `div`/`divu`, reading back `HI`/`LO` (the reads
/// stall until the unit finishes), storing all four results, plus an
/// unrolled `mthi`/`mtlo` transparency check.
pub fn muldiv_routine() -> Routine {
    let mut code = String::new();
    let mul = library::muldiv_pairs();
    let div = library::div_pairs();
    let _ = writeln!(code, "        la   $s0, md_mul_tab");
    let _ = writeln!(code, "        li   $s1, {}", mul.len());
    let _ = writeln!(code, "md_mul_loop:");
    let _ = writeln!(code, "        lw   $a0, 0($s0)");
    let _ = writeln!(code, "        lw   $a1, 4($s0)");
    for (i, op) in ["mult", "multu"].iter().enumerate() {
        let _ = writeln!(code, "        {op} $a0, $a1");
        let _ = writeln!(code, "        mflo $v0");
        let _ = writeln!(code, "        mfhi $v1");
        let _ = writeln!(code, "        sw   $v0, {}($s2)", 8 * i);
        let _ = writeln!(code, "        sw   $v1, {}($s2)", 8 * i + 4);
    }
    let _ = writeln!(code, "        addiu $s2, $s2, 16");
    let _ = writeln!(code, "        addiu $s0, $s0, 8");
    let _ = writeln!(code, "        addiu $s1, $s1, -1");
    let _ = writeln!(code, "        bgtz $s1, md_mul_loop");
    let _ = writeln!(code, "        nop");

    let _ = writeln!(code, "        la   $s0, md_div_tab");
    let _ = writeln!(code, "        li   $s1, {}", div.len());
    let _ = writeln!(code, "md_div_loop:");
    let _ = writeln!(code, "        lw   $a0, 0($s0)");
    let _ = writeln!(code, "        lw   $a1, 4($s0)");
    for (i, op) in ["div", "divu"].iter().enumerate() {
        let _ = writeln!(code, "        {op}  $a0, $a1");
        let _ = writeln!(code, "        mflo $v0");
        let _ = writeln!(code, "        mfhi $v1");
        let _ = writeln!(code, "        sw   $v0, {}($s2)", 8 * i);
        let _ = writeln!(code, "        sw   $v1, {}($s2)", 8 * i + 4);
    }
    let _ = writeln!(code, "        addiu $s2, $s2, 16");
    let _ = writeln!(code, "        addiu $s0, $s0, 8");
    let _ = writeln!(code, "        addiu $s1, $s1, -1");
    let _ = writeln!(code, "        bnez $s1, md_div_loop");
    let _ = writeln!(code, "        nop");

    // HI/LO transparency (mthi/mtlo with an idle unit).
    let _ = writeln!(code, "        li   $a0, 0x13579BDF");
    let _ = writeln!(code, "        mtlo $a0");
    let _ = writeln!(code, "        mflo $v0");
    let _ = writeln!(code, "        sw   $v0, 0($s2)");
    let _ = writeln!(code, "        li   $a0, 0xECA86420");
    let _ = writeln!(code, "        mthi $a0");
    let _ = writeln!(code, "        mfhi $v0");
    let _ = writeln!(code, "        sw   $v0, 4($s2)");
    let _ = writeln!(code, "        addiu $s2, $s2, 8");

    let mut tables = String::from("md_mul_tab:\n");
    for (a, b) in &mul {
        let _ = writeln!(tables, "        .word 0x{a:08x}, 0x{b:08x}");
    }
    let _ = writeln!(tables, "md_div_tab:");
    for (a, b) in &div {
        let _ = writeln!(tables, "        .word 0x{a:08x}, 0x{b:08x}");
    }
    Routine {
        component: "MulD",
        code,
        tables,
        high_code: String::new(),
    }
}

/// The memory-controller routine (Phase B): every access size at every
/// alignment, sign/zero extension on loads, sub-word store merging, and
/// an address-walk over the scratch region.
pub fn mctrl_routine() -> Routine {
    let mut code = String::new();
    let data = library::mctrl_data();
    let base = MCTRL_SCRATCH;
    // Seed the scratch region.
    for (k, d) in data.iter().enumerate() {
        let _ = writeln!(code, "        li   $t0, 0x{d:08x}");
        let _ = writeln!(code, "        sw   $t0, 0x{:x}($zero)", base + 4 * k as u32);
    }
    // Loads of every size/alignment/extension, responses stored.
    let mut resp = 0u32;
    for k in 0..data.len() as u32 {
        let a = base + 4 * k;
        for (op, offs) in [
            ("lw", vec![0u32]),
            ("lh", vec![0, 2]),
            ("lhu", vec![0, 2]),
            ("lb", vec![0, 1, 2, 3]),
            ("lbu", vec![0, 1, 2, 3]),
        ] {
            for o in offs {
                let _ = writeln!(code, "        {op}  $v0, 0x{:x}($zero)", a + o);
                let _ = writeln!(code, "        sw   $v0, {resp}($s2)");
                resp += 4;
            }
        }
    }
    let _ = writeln!(code, "        addiu $s2, $s2, {resp}");
    // Sub-word stores merged into a word, read back.
    let t = base + 0x100;
    let _ = writeln!(code, "        li   $t0, 0x11111111");
    let _ = writeln!(code, "        sw   $t0, 0x{t:x}($zero)");
    let _ = writeln!(code, "        li   $t1, 0xA5");
    for o in 0..4 {
        let _ = writeln!(code, "        sb   $t1, 0x{:x}($zero)", t + o);
        let _ = writeln!(code, "        lw   $v0, 0x{t:x}($zero)");
        let _ = writeln!(code, "        sw   $v0, {}($s2)", 4 * o);
        let _ = writeln!(code, "        addiu $t1, $t1, 0x11");
    }
    let _ = writeln!(code, "        li   $t1, 0xBEEF");
    for o in [0u32, 2] {
        let _ = writeln!(code, "        sh   $t1, 0x{:x}($zero)", t + o);
        let _ = writeln!(code, "        lw   $v0, 0x{t:x}($zero)");
        let _ = writeln!(code, "        sw   $v0, {}($s2)", 16 + 4 * o);
        let _ = writeln!(code, "        addiu $t1, $t1, 0x1111");
    }
    let _ = writeln!(code, "        addiu $s2, $s2, 32");
    // Address walk: store/load at base + (4 << k), exercising address
    // bits through the memory path.
    let _ = writeln!(code, "        li   $t0, 4");
    let _ = writeln!(code, "        li   $s1, 9");
    let _ = writeln!(code, "        li   $t2, 0x600D0000");
    let _ = writeln!(code, "mc_walk:");
    let _ = writeln!(code, "        addiu $t3, $t0, 0x{base:x}");
    let _ = writeln!(code, "        or   $t4, $t2, $t0");
    let _ = writeln!(code, "        sw   $t4, 0($t3)");
    let _ = writeln!(code, "        lw   $v0, 0($t3)");
    let _ = writeln!(code, "        sw   $v0, 0($s2)");
    let _ = writeln!(code, "        addiu $s2, $s2, 4");
    let _ = writeln!(code, "        sll  $t0, $t0, 1");
    let _ = writeln!(code, "        addiu $s1, $s1, -1");
    let _ = writeln!(code, "        bgtz $s1, mc_walk");
    let _ = writeln!(code, "        nop");

    Routine {
        component: "MCTRL",
        code,
        tables: String::new(),
        high_code: String::new(),
    }
}

/// The control-flow routine (Phase C extension): every branch type taken
/// and not taken, `j`/`jal`/`jalr`/`jr` with link values stored, and
/// REGIMM links — targeting the PC logic and branch-resolution logic the
/// paper leaves to Phase C.
pub fn control_routine() -> Routine {
    let mut code = String::new();
    // This routine runs as a jal-called subroutine but uses jal/bltzal
    // itself; preserve the caller's return address.
    let _ = writeln!(code, "        move $s7, $ra");
    let _ = writeln!(code, "        li   $t0, -5");
    let _ = writeln!(code, "        li   $t1, 5");
    let _ = writeln!(code, "        li   $v0, 0");
    // Each case: set a distinct bit in $v0 when the expected path runs.
    let cases = [
        ("beq  $t0, $t0, 1f", true),
        ("beq  $t0, $t1, 1f", false),
        ("bne  $t0, $t1, 1f", true),
        ("bne  $t0, $t0, 1f", false),
        ("blez $t0, 1f", true),
        ("blez $t1, 1f", false),
        ("bgtz $t1, 1f", true),
        ("bgtz $t0, 1f", false),
        ("bltz $t0, 1f", true),
        ("bltz $t1, 1f", false),
        ("bgez $t1, 1f", true),
        ("bgez $t0, 1f", false),
        ("blez $zero, 1f", true),
        ("bgez $zero, 1f", true),
    ];
    for (k, (branch, taken)) in cases.iter().enumerate() {
        let lbl = format!("cf_{k}");
        let b = branch.replace("1f", &lbl);
        let _ = writeln!(code, "        {b}");
        let _ = writeln!(code, "        nop");
        let _ = writeln!(code, "        ori  $v0, $v0, {}", 1 << (k % 16));
        let _ = writeln!(code, "{lbl}:");
        let _ = writeln!(code, "        sw   $v0, {}($s2)", 4 * k);
        let _ = taken;
    }
    let n = cases.len();
    // Calls: jal / jalr store their link registers.
    let _ = writeln!(code, "        jal  cf_sub");
    let _ = writeln!(code, "        nop");
    let _ = writeln!(code, "        sw   $ra, {}($s2)", 4 * n);
    let _ = writeln!(code, "        la   $t5, cf_sub2");
    let _ = writeln!(code, "        jalr $t6, $t5");
    let _ = writeln!(code, "        nop");
    let _ = writeln!(code, "        sw   $t6, {}($s2)", 4 * n + 4);
    let _ = writeln!(code, "        li   $t0, -1");
    let _ = writeln!(code, "        bltzal $t0, cf_regimm");
    let _ = writeln!(code, "        nop");
    let _ = writeln!(code, "cf_after:");
    let _ = writeln!(code, "        sw   $ra, {}($s2)", 4 * n + 8);
    let _ = writeln!(code, "        addiu $s2, $s2, {}", 4 * n + 12);
    let _ = writeln!(code, "        b    cf_done");
    let _ = writeln!(code, "        nop");
    let _ = writeln!(code, "cf_sub:");
    let _ = writeln!(code, "        jr   $ra");
    let _ = writeln!(code, "        nop");
    let _ = writeln!(code, "cf_sub2:");
    let _ = writeln!(code, "        jr   $t6");
    let _ = writeln!(code, "        nop");
    let _ = writeln!(code, "cf_regimm:");
    let _ = writeln!(code, "        jr   $ra");
    let _ = writeln!(code, "        nop");
    let _ = writeln!(code, "cf_done:");

    // Near-miss decode test: every *unused* opcode/funct at Hamming
    // distance 1 from an implemented one is executed as an instruction
    // word. On a fault-free core these are architectural no-ops; a stuck
    // match-line input makes the neighbouring decoder line fire, turning
    // the word into a visible load/store/branch/ALU action. The source
    // fields point at the scratch region so false memory ops are bus-
    // observable immediately.
    let _ = writeln!(code, "        li   $k0, 0x{MCTRL_SCRATCH:x}");
    let _ = writeln!(code, "        li   $t0, 0x0F1E2D3C");
    let used_opc: [u32; 24] = [
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f, 0x20, 0x21, 0x23, 0x24, 0x25, 0x28, 0x29, 0x2b,
    ];
    let used_fun: [u32; 26] = [
        0x00, 0x02, 0x03, 0x04, 0x06, 0x07, 0x08, 0x09, 0x10, 0x11, 0x12, 0x13, 0x18, 0x19, 0x1a,
        0x1b, 0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x2a, 0x2b,
    ];
    let mut near_opc = std::collections::BTreeSet::new();
    for o in used_opc {
        for k in 0..6 {
            let n = o ^ (1 << k);
            // Skip used opcodes and REGIMM (whose sub-decode is on the rt
            // field, not a match line).
            if !used_opc.contains(&n) && n != 0x01 {
                near_opc.insert(n);
            }
        }
    }
    for n in near_opc {
        // rs = $k0 (scratch base), rt = $t0, imm = 0x40.
        let word = (n << 26) | (26 << 21) | (8 << 16) | 0x40;
        let _ = writeln!(code, "        .word 0x{word:08x}");
    }
    let mut near_fun = std::collections::BTreeSet::new();
    for f in used_fun {
        for k in 0..6 {
            let n = f ^ (1 << k);
            if !used_fun.contains(&n) {
                near_fun.insert(n);
            }
        }
    }
    for n in near_fun {
        // SPECIAL with rs = $k0, rt = $t0, rd = $t1, shamt = 9.
        let word = (26 << 21) | (8 << 16) | (9 << 11) | (9 << 6) | n;
        let _ = writeln!(code, "        .word 0x{word:08x}");
    }
    let _ = writeln!(code, "        move $ra, $s7");

    Routine {
        component: "PCL",
        code,
        tables: String::new(),
        high_code: String::new(),
    }
}

/// The PC-ladder routine (Phase C extension): a chain of taken control
/// transfers hopping across the whole 64 KB code space with offsets of
/// every magnitude, mixing `b`, `j` and `jr` hops.
///
/// The branch-target adder and the next-PC multiplexers otherwise only
/// ever see the handful of (pc, offset) pairs the loop closers use; the
/// ladder feeds them addresses and displacements that toggle every
/// reachable PC bit in both directions. Nodes live in `0x8000..0xFFFF`
/// (`high_code`, placed after everything else); downloads stay small
/// because only the node words are transferred.
pub fn pcl_ladder_routine() -> Routine {
    let mut code = String::new();
    // Entry from low memory; the ladder returns with jr $ra and performs
    // no memory traffic — the fetch-address stream IS the observation.
    // The jal below clobbers $ra, so preserve the caller's.
    let _ = writeln!(code, "        move $s6, $ra");
    let _ = writeln!(code, "        jal  lad_entry");
    let _ = writeln!(code, "        nop");
    let _ = writeln!(code, "        move $ra, $s6");

    // Node addresses (strictly ascending for the assembler). The hop
    // ORDER is a permutation chosen so displacements span +-2^k for all
    // reachable k and so jump/jr targets carry varied bit patterns.
    let nodes: [u32; 23] = [
        0x8000, 0x8008, 0x8018, 0x8038, 0x8078, 0x80F8, 0x81F8, 0x83F8, 0x87F8, 0x8FF8, 0x9FF8,
        0xBFF0, 0xC000, 0xE000, 0xF000, 0xF800, 0xFC00, 0xFE00, 0xFF00, 0xFF80, 0xFFC0, 0xFFE0,
        0xFFF0,
    ];
    // Flow: entry -> 22 -> 0 -> 1 -> 2 ... -> 10 -> 21 -> 3? No: each
    // node appears exactly once; the permutation below visits all nodes.
    let order: [usize; 23] = [
        22, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 21, 11, 20, 12, 19, 13, 18, 14, 17, 15, 16,
    ];
    // Each node hops to its successor in flow order; the hop kind cycles
    // through b / j / jr so every next-PC source sees target variety.
    let mut emitted: Vec<(u32, String)> = Vec::new();
    for (k, &ni) in order.iter().enumerate() {
        let mut body = String::new();
        let _ = writeln!(body, ".org 0x{:x}", nodes[ni]);
        let _ = writeln!(body, "lad_{ni}:");
        match order.get(k + 1) {
            Some(&tgt) => match k % 5 {
                4 => {
                    let _ = writeln!(body, "        la   $t8, lad_{tgt}");
                    let _ = writeln!(body, "        jr   $t8");
                    let _ = writeln!(body, "        nop");
                }
                2 => {
                    let _ = writeln!(body, "        j    lad_{tgt}");
                    let _ = writeln!(body, "        nop");
                }
                _ => {
                    let _ = writeln!(body, "        b    lad_{tgt}");
                    let _ = writeln!(body, "        nop");
                }
            },
            None => {
                let _ = writeln!(body, "        jr   $ra");
                let _ = writeln!(body, "        nop");
            }
        }
        emitted.push((nodes[ni], body));
    }
    // The assembler's location counter only moves forward: emit nodes in
    // ascending address order regardless of flow order.
    emitted.sort_by_key(|(a, _)| *a);
    let mut high_code = String::from("lad_entry:\n");
    let _ = writeln!(high_code, "        b    lad_{}", order[0]);
    let _ = writeln!(high_code, "        nop");
    for (_, body) in emitted {
        high_code.push_str(&body);
    }
    Routine {
        component: "PCLladder",
        code,
        tables: String::new(),
        high_code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips::asm::assemble;

    fn assemble_routine(r: &Routine, needs_pointer: bool) {
        let mut src = String::new();
        if needs_pointer {
            src.push_str("        li $s2, 0x4100\n");
        }
        src.push_str(&r.code);
        src.push_str("stop: b stop\n        nop\n");
        src.push_str(&r.tables);
        assemble(&src).unwrap_or_else(|e| panic!("{}: {e}", r.component));
    }

    #[test]
    fn all_routines_assemble() {
        assemble_routine(&regfile_routine(), false);
        assemble_routine(&alu_routine(), true);
        assemble_routine(&shifter_routine(), true);
        assemble_routine(&muldiv_routine(), true);
        assemble_routine(&mctrl_routine(), true);
        assemble_routine(&control_routine(), true);
    }

    #[test]
    fn routines_are_compact() {
        // The paper's key claim: component routines are small. Rough
        // word-count sanity bounds (code lines ≈ words).
        let alu = alu_routine();
        let lines = alu.code.lines().count();
        assert!(lines < 80, "ALU routine too large: {lines} lines");
        let bsh = shifter_routine();
        assert!(bsh.code.lines().count() < 80);
    }
}
