//! Coverage-feedback seed scheduling.
//!
//! Executed instructions from the oracle's golden trace are attributed to
//! processor components using the same component decomposition
//! `sbst::provenance` uses for detection attribution (the paper's Table
//! 1 component list, [`plasma::COMPONENT_NAMES`]). The scheduler then
//! re-weights the three steerable instruction classes of
//! [`mips::gen::GenConfig`] — branches (PCL), loads/stores (MCTRL) and
//! multiply/divide (MulD) — inversely to how much each component has been
//! exercised so far, biasing the next wave of random programs toward the
//! under-exercised parts of the core.
//!
//! All arithmetic is integer and the inputs are merged in seed order, so
//! scheduling is bit-identical regardless of worker-thread count.

use std::collections::BTreeMap;

use mips::gen::GenConfig;
use mips::isa::{Format, Instr};
use sbst::provenance::GoldenTrace;

/// Component a single instruction word predominantly exercises, named
/// after [`plasma::COMPONENT_NAMES`].
pub fn component_of(word: u32) -> &'static str {
    let i = Instr::decode(word);
    let op = match i.op {
        Some(op) => op,
        None => return "CTRL",
    };
    match op.format() {
        Format::RShift | Format::RShiftV => "BSH",
        Format::RMulDiv | Format::RMfHiLo | Format::RMtHiLo => "MulD",
        Format::IMem => "MCTRL",
        Format::IBranch2
        | Format::IBranch1
        | Format::IRegimm
        | Format::JAbs
        | Format::RJr
        | Format::RJalr => "PCL",
        Format::R3 | Format::ISigned | Format::IUnsigned | Format::ILui => "ALU",
    }
}

/// Accumulated per-component execution counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentExercise {
    /// Executed-instruction count per component name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl ComponentExercise {
    /// Attribute every executed instruction of a golden trace.
    pub fn attribute(trace: &GoldenTrace) -> ComponentExercise {
        let mut ex = ComponentExercise::default();
        for &w in &trace.instrs {
            *ex.counts.entry(component_of(w)).or_insert(0) += 1;
        }
        ex
    }

    /// Merge another exercise record into this one.
    pub fn absorb(&mut self, other: &ComponentExercise) {
        for (&k, &v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    /// Count for one component.
    pub fn count(&self, component: &str) -> u64 {
        self.counts.get(component).copied().unwrap_or(0)
    }

    /// Total attributed instructions.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Derive the next wave's generation weights: a fixed budget of 40
    /// selection points (out of the 100-point draw space) is split among
    /// the branch / memory / muldiv classes in inverse proportion to how
    /// often their components have executed, clamped to `[4, 32]` so no
    /// class ever starves or dominates completely.
    pub fn reweight(&self, base: &GenConfig) -> GenConfig {
        const BUDGET: u128 = 40;
        // +1 smoothing keeps the inverse finite on a cold start.
        let c = [
            self.count("PCL") as u128 + 1,
            self.count("MCTRL") as u128 + 1,
            self.count("MulD") as u128 + 1,
        ];
        // weight_i ∝ 1/c_i, computed exactly: scale by the product of all
        // counts so the shares stay in integer arithmetic.
        let prod: u128 = c.iter().product();
        let inv: Vec<u128> = c.iter().map(|&x| prod / x).collect();
        let inv_sum: u128 = inv.iter().sum();
        let w = |i: usize| -> u64 {
            let raw = (BUDGET * inv[i] + inv_sum / 2) / inv_sum;
            (raw as u64).clamp(4, 32)
        };
        GenConfig {
            branch_weight: w(0),
            mem_weight: w(1),
            muldiv_weight: w(2),
            ..base.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips::isa::{Op, Reg};

    #[test]
    fn attribution_covers_the_classes() {
        assert_eq!(
            component_of(Instr::r3(Op::Addu, Reg(1), Reg(2), Reg(3)).encode()),
            "ALU"
        );
        assert_eq!(
            component_of(Instr::shift(Op::Sll, Reg(1), Reg(2), 3).encode()),
            "BSH"
        );
        assert_eq!(
            component_of(Instr::mem(Op::Lw, Reg(1), Reg(2), 4).encode()),
            "MCTRL"
        );
        let b = Instr {
            op: Some(Op::Beq),
            rs: Reg(1),
            rt: Reg(2),
            imm: 1,
            ..Default::default()
        };
        assert_eq!(component_of(b.encode()), "PCL");
        let m = Instr {
            op: Some(Op::Mult),
            rs: Reg(1),
            rt: Reg(2),
            ..Default::default()
        };
        assert_eq!(component_of(m.encode()), "MulD");
        assert_eq!(component_of(0xFFFF_FFFF), "CTRL");
    }

    #[test]
    fn reweight_biases_toward_the_starved_component() {
        let mut ex = ComponentExercise::default();
        ex.counts.insert("PCL", 10_000);
        ex.counts.insert("MCTRL", 10_000);
        ex.counts.insert("MulD", 10);
        let cfg = ex.reweight(&GenConfig::default());
        assert!(
            cfg.muldiv_weight > cfg.branch_weight && cfg.muldiv_weight > cfg.mem_weight,
            "starved MulD must get the largest weight: {cfg:?}"
        );
        assert!(cfg.branch_weight >= 4 && cfg.mem_weight >= 4);
    }

    #[test]
    fn reweight_is_deterministic_and_balanced_when_even() {
        let mut ex = ComponentExercise::default();
        for k in ["PCL", "MCTRL", "MulD"] {
            ex.counts.insert(k, 5_000);
        }
        let a = ex.reweight(&GenConfig::default());
        let b = ex.reweight(&GenConfig::default());
        assert_eq!(a.branch_weight, b.branch_weight);
        assert_eq!(a.branch_weight, a.mem_weight);
        assert_eq!(a.branch_weight, a.muldiv_weight);
    }
}
