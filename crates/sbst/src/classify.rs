//! Component classification and test-priority ordering (paper Sections
//! 2.1–2.2, Tables 1 and 2).

use netlist::Netlist;

/// The three component classes of Section 2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentClass {
    /// Directly implied by instruction formats: ALU, shifter, multiplier,
    /// register file. Largest, most accessible — highest test priority.
    Functional,
    /// Controls instruction/data flow: PC logic, memory control,
    /// decoders, bus muxes.
    Control,
    /// Invisible to the assembly programmer: pipeline registers, ILP
    /// machinery.
    Hidden,
}

impl ComponentClass {
    /// Instruction-level controllability/observability of the class
    /// (Table 1): High / Medium / Low.
    pub fn accessibility(self) -> &'static str {
        match self {
            ComponentClass::Functional => "High",
            ComponentClass::Control => "Medium",
            ComponentClass::Hidden => "Low",
        }
    }

    /// Test development priority (Table 1). Lower number = targeted first.
    pub fn priority(self) -> u8 {
        match self {
            ComponentClass::Functional => 0,
            ComponentClass::Control => 1,
            ComponentClass::Hidden => 2,
        }
    }
}

/// One classified component with its size (if a netlist is available —
/// the methodology also works from assumptions when it is not; see
/// Section 2.2).
#[derive(Debug, Clone)]
pub struct ComponentInfo {
    /// Component name as tagged in the netlist.
    pub name: String,
    /// Its class.
    pub class: ComponentClass,
    /// NAND2-equivalent size, when known.
    pub nand2_equiv: Option<f64>,
}

/// The classification of the Plasma-class core's components — the
/// paper's Table 2 (glue logic is listed separately, as in the paper).
pub fn classify_plasma() -> Vec<ComponentInfo> {
    let table: [(&str, ComponentClass); 10] = [
        ("RegF", ComponentClass::Functional),
        ("MulD", ComponentClass::Functional),
        ("ALU", ComponentClass::Functional),
        ("BSH", ComponentClass::Functional),
        ("MCTRL", ComponentClass::Control),
        ("PCL", ComponentClass::Control),
        ("CTRL", ComponentClass::Control),
        ("BMUX", ComponentClass::Control),
        ("PLN", ComponentClass::Hidden),
        ("GL", ComponentClass::Control),
    ];
    table
        .into_iter()
        .map(|(name, class)| ComponentInfo {
            name: name.to_string(),
            class,
            nand2_equiv: None,
        })
        .collect()
}

/// Fill in component sizes from a synthesized netlist (the "if exact gate
/// counts are available" branch of Section 2.2).
pub fn with_sizes(mut infos: Vec<ComponentInfo>, netlist: &Netlist) -> Vec<ComponentInfo> {
    let stats = netlist.component_stats();
    for info in &mut infos {
        if let Some(s) = stats.iter().find(|s| s.name == info.name) {
            info.nand2_equiv = Some(s.nand2_equiv);
        }
    }
    infos
}

/// Order components for test development: by class priority (functional
/// → control → hidden), then by descending size within a class (unknown
/// sizes sort last within their class).
pub fn priority_order(mut infos: Vec<ComponentInfo>) -> Vec<ComponentInfo> {
    infos.sort_by(|a, b| {
        a.class.priority().cmp(&b.class.priority()).then_with(|| {
            b.nand2_equiv
                .unwrap_or(f64::NEG_INFINITY)
                .total_cmp(&a.nand2_equiv.unwrap_or(f64::NEG_INFINITY))
        })
    });
    infos
}

/// Render the class/accessibility/priority table (the paper's Table 1).
pub fn priority_table() -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<12} {:>26} {:>14}\n",
        "Class", "Controllability/Observ.", "Test Priority"
    ));
    for (class, prio) in [
        (ComponentClass::Functional, "High"),
        (ComponentClass::Control, "Medium"),
        (ComponentClass::Hidden, "Low"),
    ] {
        s.push_str(&format!(
            "{:<12} {:>26} {:>14}\n",
            format!("{class:?}"),
            class.accessibility(),
            prio
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plasma_classification_matches_table2() {
        let infos = classify_plasma();
        let class_of = |n: &str| infos.iter().find(|i| i.name == n).unwrap().class;
        assert_eq!(class_of("RegF"), ComponentClass::Functional);
        assert_eq!(class_of("MulD"), ComponentClass::Functional);
        assert_eq!(class_of("ALU"), ComponentClass::Functional);
        assert_eq!(class_of("BSH"), ComponentClass::Functional);
        assert_eq!(class_of("MCTRL"), ComponentClass::Control);
        assert_eq!(class_of("PCL"), ComponentClass::Control);
        assert_eq!(class_of("CTRL"), ComponentClass::Control);
        assert_eq!(class_of("BMUX"), ComponentClass::Control);
        assert_eq!(class_of("PLN"), ComponentClass::Hidden);
    }

    #[test]
    fn priority_puts_functional_first_by_size() {
        let mut infos = classify_plasma();
        // Fake sizes mirroring Table 3 proportions.
        for i in &mut infos {
            i.nand2_equiv = Some(match i.name.as_str() {
                "RegF" => 9906.0,
                "MulD" => 3044.0,
                "ALU" => 491.0,
                "BSH" => 682.0,
                "MCTRL" => 1112.0,
                "PCL" => 444.0,
                "CTRL" => 223.0,
                "BMUX" => 453.0,
                "PLN" => 885.0,
                _ => 219.0,
            });
        }
        let ordered = priority_order(infos);
        let names: Vec<&str> = ordered.iter().map(|i| i.name.as_str()).collect();
        // Functional by descending size, then control by descending size,
        // then hidden.
        assert_eq!(
            names,
            [
                "RegF", "MulD", "BSH", "ALU", // functional
                "MCTRL", "BMUX", "PCL", "CTRL", "GL",  // control
                "PLN"  // hidden
            ]
        );
    }

    #[test]
    fn table1_renders() {
        let t = priority_table();
        assert!(t.contains("Functional"));
        assert!(t.contains("High"));
    }
}
