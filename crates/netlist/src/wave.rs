//! Waveform probes over netlist simulations.
//!
//! This is the netlist-aware middle layer of the waveform stack: it maps
//! netlist structure (ports, per-component flip-flop state) onto the
//! dependency-free VCD writer in [`obs::wave`]. The layering mirrors the
//! rest of the workspace: `obs` knows bytes, this module knows [`Net`]s,
//! and the `fault` crate's `wave::WaveCapture` — the one ring buffer —
//! samples a [`Probe`] from two lanes of the fault simulator with
//! trigger semantics on top. There is no scalar recorder.
//!
//! A [`Probe`] is an ordered list of named net groups; [`write_diff_vcd`]
//! turns paired good/faulty samples of it into a differential VCD.
//!
//! Sampling convention: record **after** the full cycle (post-clock).
//! Combinational nets then hold the cycle's settled values (the bus
//! transaction that just happened) and flip-flop `q` nets hold the
//! *next* state the cycle computed. The skew is uniform across machines,
//! so differential (XOR) scopes built from two lanes stay cycle-accurate.

use std::io::{self, Write};

use crate::netlist::{Net, Netlist};
use obs::wave::VcdSpec;

/// One probed variable: a named, scoped group of nets (LSB first).
#[derive(Debug, Clone)]
pub struct ProbeVar {
    /// Scope path under the per-machine top scope (e.g. `["alu"]`).
    pub scope: Vec<String>,
    /// Display name in the wave viewer.
    pub name: String,
    /// The nets sampled into this variable, LSB first (max 64).
    pub nets: Vec<Net>,
}

/// An ordered selection of nets to observe, grouped into named vars.
///
/// Build one with [`Probe::full`] (every port plus every component's
/// flip-flop state), [`Probe::all_ports`], or [`Probe::from_spec`]
/// (CLI-style selection by component name or port glob), or push custom
/// vars with [`Probe::add_var`].
#[derive(Debug, Clone, Default)]
pub struct Probe {
    vars: Vec<ProbeVar>,
}

/// Match `name` against a glob `pattern` where `*` matches any (possibly
/// empty) substring. A pattern without `*` is an exact match.
pub fn glob_match(pattern: &str, name: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == name;
    }
    let mut rest = name;
    // First segment is anchored at the start, last at the end.
    let first = parts[0];
    if !rest.starts_with(first) {
        return false;
    }
    rest = &rest[first.len()..];
    let last = parts[parts.len() - 1];
    for mid in &parts[1..parts.len() - 1] {
        if mid.is_empty() {
            continue; // `**` collapses
        }
        match rest.find(mid) {
            Some(pos) => rest = &rest[pos + mid.len()..],
            None => return false,
        }
    }
    rest.ends_with(last)
}

impl Probe {
    /// An empty probe.
    pub fn new() -> Probe {
        Probe::default()
    }

    /// Append a custom variable.
    ///
    /// # Panics
    /// If `nets` is empty or wider than 64 (one `u64` per var per sample).
    pub fn add_var(&mut self, scope: Vec<String>, name: String, nets: Vec<Net>) {
        assert!(
            (1..=64).contains(&nets.len()),
            "probe var `{name}` has {} nets; must be 1..=64",
            nets.len()
        );
        self.vars.push(ProbeVar { scope, name, nets });
    }

    /// Add every port whose name matches `pattern` (see [`glob_match`]),
    /// as top-level vector vars in port declaration order. Returns how
    /// many ports matched.
    pub fn add_ports_matching(&mut self, netlist: &Netlist, pattern: &str) -> usize {
        let mut n = 0;
        for (name, _dir, nets) in netlist.ports() {
            if glob_match(pattern, name) {
                self.add_var(Vec::new(), name.to_string(), nets.to_vec());
                n += 1;
            }
        }
        n
    }

    /// Add the named component's state: each of its flip-flops' `q` nets
    /// as a 1-bit var `ff<i>` (global flip-flop index, matching the
    /// `ff<i>/d` fault-site notation) under a scope named after the
    /// component. Returns how many flip-flops were added.
    pub fn add_component_state(&mut self, netlist: &Netlist, component: &str) -> Option<usize> {
        let cid = netlist.component_by_name(component)?;
        let mut n = 0;
        for (fi, ff) in netlist.dffs().iter().enumerate() {
            if netlist.dff_component(fi) == cid {
                self.add_var(vec![component.to_string()], format!("ff{fi}"), vec![ff.q]);
                n += 1;
            }
        }
        Some(n)
    }

    /// Every port of the netlist, in declaration order.
    pub fn all_ports(netlist: &Netlist) -> Probe {
        let mut p = Probe::new();
        p.add_ports_matching(netlist, "*");
        p
    }

    /// The default full probe: every port, then every component's
    /// flip-flop state (components in netlist order).
    pub fn full(netlist: &Netlist) -> Probe {
        let mut p = Probe::all_ports(netlist);
        for name in netlist.component_names().to_vec() {
            p.add_component_state(netlist, &name);
        }
        p
    }

    /// Build a probe from CLI-style specs. Each spec is either a
    /// component name (adds that component's flip-flop state) or a port
    /// glob (adds matching ports). An empty spec list yields
    /// [`Probe::full`]. Errors name the spec that matched nothing.
    pub fn from_spec(netlist: &Netlist, specs: &[String]) -> Result<Probe, String> {
        if specs.is_empty() {
            return Ok(Probe::full(netlist));
        }
        let mut p = Probe::new();
        for spec in specs {
            if let Some(_n) = p.add_component_state(netlist, spec) {
                continue;
            }
            if p.add_ports_matching(netlist, spec) == 0 {
                return Err(format!(
                    "probe spec `{spec}` matches no component or port of `{}`",
                    netlist.name()
                ));
            }
        }
        Ok(p)
    }

    /// The probed variables, in declaration order.
    pub fn vars(&self) -> &[ProbeVar] {
        &self.vars
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the probe selects nothing.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

/// One cycle of a paired good/faulty capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// Simulation cycle (post-clock).
    pub cycle: u64,
    /// Fault-free machine's values, parallel to [`Probe::vars`].
    pub good: Vec<u64>,
    /// Faulty machine's values, parallel to [`Probe::vars`].
    pub faulty: Vec<u64>,
}

/// Write a differential VCD: three top scopes `good`, `faulty`, and
/// `diff`, each holding the full probe hierarchy. `diff` vars are the
/// XOR of the other two — a nonzero `diff` net is a corrupted signal, so
/// stacking the `diff` scope in GTKWave shows the cone of corruption
/// spreading cycle-by-cycle from injection to detection.
pub fn write_diff_vcd<W: Write>(
    out: W,
    probe: &Probe,
    comment: &str,
    rows: &[DiffRow],
) -> io::Result<()> {
    let mut spec = VcdSpec::new();
    for top in ["good", "faulty", "diff"] {
        for v in probe.vars() {
            let mut scope = Vec::with_capacity(v.scope.len() + 1);
            scope.push(top.to_string());
            scope.extend(v.scope.iter().cloned());
            spec.var_owned(scope, v.name.clone(), v.nets.len() as u32);
        }
    }
    let mut w = obs::wave::VcdWriter::new(out, &spec, comment)?;
    let nvars = probe.len();
    let mut values = vec![0u64; nvars * 3];
    for row in rows {
        assert_eq!(row.good.len(), nvars, "diff row width mismatch");
        assert_eq!(row.faulty.len(), nvars, "diff row width mismatch");
        for i in 0..nvars {
            values[i] = row.good[i];
            values[nvars + i] = row.faulty[i];
            values[2 * nvars + i] = row.good[i] ^ row.faulty[i];
        }
        w.sample(row.cycle, &values)?;
    }
    w.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn toggler() -> Netlist {
        let mut b = NetlistBuilder::new("tgl");
        let en = b.input("en");
        let (q, slot) = b.dff_later(false);
        let nq = b.not(q);
        let d = b.mux2(en, q, nq); // en ? !q : q
        b.dff_set(slot, d);
        b.output("q", q);
        b.finish().unwrap()
    }

    #[test]
    fn glob_matcher_semantics() {
        assert!(glob_match("mem_addr", "mem_addr"));
        assert!(!glob_match("mem_addr", "mem_addr2"));
        assert!(glob_match("mem_*", "mem_addr"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("*addr*", "mem_addr_hi"));
        assert!(glob_match("m*a*r", "mem_addr"));
        assert!(!glob_match("m*x*r", "mem_addr"));
        assert!(!glob_match("mem_*", "pc"));
        assert!(glob_match("**", "x"));
    }

    #[test]
    fn probe_from_spec_selects_ports_and_errors_on_miss() {
        let nl = toggler();
        let p = Probe::from_spec(&nl, &["q".into()]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.vars()[0].name, "q");
        let all = Probe::from_spec(&nl, &[]).unwrap();
        assert!(all.len() >= 2, "full probe should cover en and q");
        assert!(Probe::from_spec(&nl, &["nope*".into()]).is_err());
    }

    #[test]
    fn diff_vcd_has_three_scopes_and_xor_values() {
        let nl = toggler();
        let probe = Probe::all_ports(&nl);
        let n = probe.len();
        let rows = vec![
            DiffRow { cycle: 0, good: vec![1; n], faulty: vec![1; n] },
            DiffRow { cycle: 1, good: vec![1; n], faulty: vec![0; n] },
        ];
        let mut buf = Vec::new();
        write_diff_vcd(&mut buf, &probe, "test", &rows).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for scope in ["good", "faulty", "diff"] {
            assert!(text.contains(&format!("$scope module {scope} $end")), "missing {scope}");
        }
        // At cycle 1 the diff vars flip 0 -> 1.
        assert!(text.contains("#1"), "no #1 timestamp: {text}");
        let after = text.split("#1").nth(1).unwrap();
        assert!(after.contains('1'), "diff scope never went high: {text}");
    }
}
