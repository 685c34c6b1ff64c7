//! A dependency-free VCD (Value Change Dump, IEEE 1364 §18) writer.
//!
//! This is the serialization half of the waveform-observability stack: it
//! knows nothing about netlists or simulators. Callers declare a set of
//! variables up front — each a `(scope path, name, width ≤ 64)` triple —
//! and then feed one `&[u64]` sample per timestep. The writer handles:
//!
//! * hierarchical `$scope module … $upscope` blocks derived from the
//!   declaration order of the variables (vars sharing a scope-path prefix
//!   share the scope tree),
//! * identifier-code allocation over the printable-ASCII base-94 alphabet
//!   (`!` … `~`, multi-character past 94 vars),
//! * change-only emission: a variable is re-emitted under a `#t`
//!   timestamp only when its (width-masked) value differs from the
//!   previous sample; the first sample is a full `$dumpvars` block.
//!
//! The output is **byte-deterministic**: no `$date`, no wall-clock, no
//! hash-map iteration — the same declarations and samples always produce
//! the same bytes. This is what lets the differential-dump tests assert
//! byte-identical VCDs across `--threads 1/4`, and what the golden file
//! in `tests/golden/wave.vcd` pins.

use std::io::{self, Write};

/// A declared VCD variable: where it lives, what it is called, how wide.
#[derive(Debug, Clone)]
pub struct VcdVar {
    /// Scope path, outermost first (e.g. `["dut", "bus"]`). May be empty,
    /// in which case the var sits directly under the writer's top scope.
    pub scope: Vec<String>,
    /// Variable name as shown in the wave viewer.
    pub name: String,
    /// Width in bits, `1..=64`. Width 1 emits scalar changes (`0!`),
    /// wider vars emit binary vectors (`b1010 !`).
    pub width: u32,
}

/// An ordered set of variable declarations for one VCD file.
///
/// Declaration order is significant: it fixes identifier codes, the
/// scope-tree layout, and the order of values in every
/// [`VcdWriter::sample`] slice.
#[derive(Debug, Clone, Default)]
pub struct VcdSpec {
    vars: Vec<VcdVar>,
}

impl VcdSpec {
    /// An empty spec.
    pub fn new() -> VcdSpec {
        VcdSpec::default()
    }

    /// Declare a variable; returns its index (its slot in every sample
    /// slice).
    ///
    /// # Panics
    /// If `width` is 0 or greater than 64.
    pub fn var(&mut self, scope: &[&str], name: &str, width: u32) -> usize {
        assert!(
            (1..=64).contains(&width),
            "VCD var `{name}` width {width} out of range 1..=64"
        );
        self.vars.push(VcdVar {
            scope: scope.iter().map(|s| s.to_string()).collect(),
            name: name.to_string(),
            width,
        });
        self.vars.len() - 1
    }

    /// Declare a variable with an owned scope path.
    pub fn var_owned(&mut self, scope: Vec<String>, name: String, width: u32) -> usize {
        assert!(
            (1..=64).contains(&width),
            "VCD var `{name}` width {width} out of range 1..=64"
        );
        self.vars.push(VcdVar { scope, name, width });
        self.vars.len() - 1
    }

    /// Number of declared variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no variables are declared.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The declared variables, in declaration order.
    pub fn vars(&self) -> &[VcdVar] {
        &self.vars
    }
}

/// Encode a variable index as a VCD identifier code: base-94 over the
/// printable ASCII range `!` (33) to `~` (126), least-significant digit
/// first, matching the compact codes conventional simulators emit.
fn id_code(mut index: usize) -> String {
    let mut code = String::new();
    loop {
        code.push((33 + (index % 94) as u8) as char);
        index /= 94;
        if index == 0 {
            break;
        }
        index -= 1; // bijective numeration: "!!" follows "~", not "!"
    }
    code
}

/// Streaming VCD writer over any [`io::Write`] sink.
///
/// Construct with [`VcdWriter::new`] (which writes the full header
/// through `$enddefinitions`), then call [`VcdWriter::sample`] once per
/// timestep with one value per declared variable.
pub struct VcdWriter<W: Write> {
    out: W,
    widths: Vec<u32>,
    codes: Vec<String>,
    prev: Vec<u64>,
    started: bool,
    last_time: Option<u64>,
}

/// Mask `value` down to `width` bits (width 64 passes through).
fn mask(value: u64, width: u32) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

impl<W: Write> VcdWriter<W> {
    /// Write the VCD header (version, optional comment, timescale, scope
    /// tree, var declarations, `$enddefinitions`) and return a writer
    /// ready for samples.
    ///
    /// `comment` lines are embedded as a `$comment` block when non-empty;
    /// keep them deterministic (no timestamps) if byte-stable output
    /// matters. The timescale is fixed at `1 ns`: one "nanosecond" per
    /// simulated clock cycle.
    pub fn new(mut out: W, spec: &VcdSpec, comment: &str) -> io::Result<VcdWriter<W>> {
        writeln!(out, "$version sbst-repro wave writer $end")?;
        if !comment.is_empty() {
            writeln!(out, "$comment {comment} $end")?;
        }
        writeln!(out, "$timescale 1 ns $end")?;

        // Scope tree: walk vars in declaration order, opening/closing
        // `$scope module` blocks along the shared-prefix path.
        let mut open: Vec<&str> = Vec::new();
        let mut codes = Vec::with_capacity(spec.vars.len());
        for (i, v) in spec.vars.iter().enumerate() {
            let keep = open
                .iter()
                .zip(v.scope.iter())
                .take_while(|(a, b)| **a == b.as_str())
                .count();
            while open.len() > keep {
                open.pop();
                writeln!(out, "$upscope $end")?;
            }
            for s in &v.scope[keep..] {
                writeln!(out, "$scope module {s} $end")?;
                open.push(s);
            }
            let code = id_code(i);
            if v.width == 1 {
                writeln!(out, "$var wire 1 {code} {} $end", v.name)?;
            } else {
                writeln!(
                    out,
                    "$var wire {} {code} {} [{}:0] $end",
                    v.width,
                    v.name,
                    v.width - 1
                )?;
            }
            codes.push(code);
        }
        while open.pop().is_some() {
            writeln!(out, "$upscope $end")?;
        }
        writeln!(out, "$enddefinitions $end")?;

        Ok(VcdWriter {
            out,
            widths: spec.vars.iter().map(|v| v.width).collect(),
            codes,
            prev: vec![0; spec.vars.len()],
            started: false,
            last_time: None,
        })
    }

    fn write_change(&mut self, i: usize, value: u64) -> io::Result<()> {
        let width = self.widths[i];
        let code = &self.codes[i];
        if width == 1 {
            writeln!(self.out, "{}{code}", value & 1)
        } else {
            write!(self.out, "b")?;
            for bit in (0..width).rev() {
                let c = if (value >> bit) & 1 == 1 { b'1' } else { b'0' };
                self.out.write_all(&[c])?;
            }
            writeln!(self.out, " {code}")
        }
    }

    /// Emit one timestep. `values` must have one entry per declared
    /// variable, in declaration order; each is masked to its var's width.
    ///
    /// The first call emits a `$dumpvars` block with every value; later
    /// calls emit only variables whose masked value changed (a timestamp
    /// with no changes is suppressed entirely).
    ///
    /// # Panics
    /// If `values.len()` differs from the declared var count, or if
    /// `time` is not strictly greater than the previous sample's time.
    pub fn sample(&mut self, time: u64, values: &[u64]) -> io::Result<()> {
        assert_eq!(
            values.len(),
            self.widths.len(),
            "sample has {} values for {} declared vars",
            values.len(),
            self.widths.len()
        );
        if let Some(last) = self.last_time {
            assert!(time > last, "VCD time must increase: {time} after {last}");
        }

        if !self.started {
            self.started = true;
            self.last_time = Some(time);
            writeln!(self.out, "#{time}")?;
            writeln!(self.out, "$dumpvars")?;
            for (i, &raw) in values.iter().enumerate() {
                let v = mask(raw, self.widths[i]);
                self.prev[i] = v;
                self.write_change(i, v)?;
            }
            writeln!(self.out, "$end")?;
            return Ok(());
        }

        self.last_time = Some(time);
        let mut stamped = false;
        for (i, &raw) in values.iter().enumerate() {
            let v = mask(raw, self.widths[i]);
            if v != self.prev[i] {
                if !stamped {
                    stamped = true;
                    writeln!(self.out, "#{time}")?;
                }
                self.prev[i] = v;
                self.write_change(i, v)?;
            }
        }
        Ok(())
    }

    /// Flush and hand back the underlying sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Render a complete VCD to a byte vector from a spec and a slice of
/// `(time, values)` rows — the convenience path the recorder layers use.
pub fn render_vcd(spec: &VcdSpec, comment: &str, rows: &[(u64, Vec<u64>)]) -> Vec<u8> {
    let mut w = VcdWriter::new(Vec::new(), spec, comment).expect("write to Vec cannot fail");
    for (t, values) in rows {
        w.sample(*t, values).expect("write to Vec cannot fail");
    }
    w.finish().expect("flush of Vec cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_are_bijective_base94() {
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!!");
        assert_eq!(id_code(94 + 93), "~!");
        assert_eq!(id_code(94 + 94), "!\"");
        // No two indices may share a code.
        let codes: Vec<String> = (0..500).map(id_code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len(), "duplicate identifier codes");
    }

    #[test]
    fn change_only_emission_suppresses_idle_timestamps() {
        let mut spec = VcdSpec::new();
        spec.var(&[], "clk_q", 1);
        spec.var(&[], "bus", 4);
        let rows = vec![
            (0, vec![0, 0b1010]),
            (1, vec![0, 0b1010]), // nothing changed: no #1 at all
            (2, vec![1, 0b1010]),
            (3, vec![1, 0b0011]),
        ];
        let text = String::from_utf8(render_vcd(&spec, "", &rows)).unwrap();
        assert!(
            text.contains("#0\n$dumpvars\n0!\nb1010 \"\n$end\n"),
            "bad dumpvars: {text}"
        );
        assert!(!text.contains("#1"), "idle timestamp emitted: {text}");
        assert!(text.contains("#2\n1!\n"), "scalar change missing: {text}");
        assert!(
            text.contains("#3\nb0011 \"\n"),
            "vector change missing: {text}"
        );
    }

    #[test]
    fn values_are_masked_to_width() {
        let mut spec = VcdSpec::new();
        spec.var(&[], "nib", 4);
        let rows = vec![(0, vec![0xFF]), (1, vec![0x1F])];
        let text = String::from_utf8(render_vcd(&spec, "", &rows)).unwrap();
        assert!(text.contains("b1111 !"), "mask failed: {text}");
        // 0x1F masked to 4 bits is still 0xF: no change at #1.
        assert!(
            !text.contains("#1"),
            "masked-equal value re-emitted: {text}"
        );
    }

    #[test]
    fn scope_tree_follows_declaration_order() {
        let mut spec = VcdSpec::new();
        spec.var(&["top", "bus"], "addr", 8);
        spec.var(&["top", "bus"], "we", 1);
        spec.var(&["top", "regs"], "r1", 8);
        spec.var(&["other"], "x", 1);
        let text = String::from_utf8(render_vcd(&spec, "", &[(0, vec![0, 0, 0, 0])])).unwrap();
        let expected = "$scope module top $end\n\
                        $scope module bus $end\n\
                        $var wire 8 ! addr [7:0] $end\n\
                        $var wire 1 \" we $end\n\
                        $upscope $end\n\
                        $scope module regs $end\n\
                        $var wire 8 # r1 [7:0] $end\n\
                        $upscope $end\n\
                        $upscope $end\n\
                        $scope module other $end\n\
                        $var wire 1 $ x $end\n\
                        $upscope $end\n\
                        $enddefinitions $end\n";
        assert!(text.contains(expected), "scope tree drifted:\n{text}");
    }

    #[test]
    #[should_panic(expected = "width 65 out of range")]
    fn rejects_vars_wider_than_64() {
        VcdSpec::new().var(&[], "too_wide", 65);
    }

    #[test]
    #[should_panic(expected = "time must increase")]
    fn rejects_non_monotonic_time() {
        let mut spec = VcdSpec::new();
        spec.var(&[], "a", 1);
        let mut w = VcdWriter::new(Vec::new(), &spec, "").unwrap();
        w.sample(5, &[0]).unwrap();
        w.sample(5, &[1]).unwrap();
    }
}
