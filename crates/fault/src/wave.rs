//! Triggered waveform capture for single-fault replays.
//!
//! The campaign runners only record *that* a fault was detected (and
//! when); this module records *what the machine did*. It reuses the
//! deterministic replay machinery from [`crate::campaign`]: a replay
//! rebuilds the exact batch state ([`WideSim::reset_state`] plus
//! re-injection), so re-running one fault alone in lane 1 — with lane 0
//! as the fault-free reference — reproduces the campaign's detection
//! verdict bit for bit, at any thread count and lane width, while
//! a [`WaveCapture`] samples both lanes through a [`Probe`] every cycle.
//! The cores' capture helpers replay on the compiled engine at 64 lanes
//! (one fault needs no more).
//!
//! Trigger semantics (see DESIGN.md §4h):
//!
//! * **detection** — the cycle lane 1 first diverges from lane 0 on the
//!   observed outputs. The ring is trimmed to the `pre` cycles before
//!   the trigger, then `post` more cycles are recorded.
//! * **escape / horizon** — the budget runs out with no divergence; the
//!   last `depth` cycles are kept (the horizon window).
//!
//! The captured rows serialize as a differential VCD (three scopes:
//! `good`, `faulty`, `diff`) via [`netlist::wave::write_diff_vcd`].

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::campaign::Testbench;
use crate::model::{Fault, FaultList};
use crate::wide::WideSim;
use netlist::wave::{write_diff_vcd, DiffRow, Probe};

/// Knobs for triggered waveform capture, shared by the flow layer and
/// the CLI `--wave-*` flags.
#[derive(Debug, Clone)]
pub struct WaveOptions {
    /// Pre-trigger cycles retained before a detection.
    pub pre: u64,
    /// Post-trigger cycles recorded after a detection.
    pub post: u64,
    /// Horizon window kept for escapes (no trigger before the budget).
    pub depth: u64,
    /// Probe specs (component names or port globs); empty = full probe.
    pub probe: Vec<String>,
    /// Directory VCD files are written into.
    pub out_dir: PathBuf,
    /// A specific fault to capture, as a [`Fault::describe`] string
    /// (e.g. `"n42 sa1"`) or a decimal index into the collapsed list.
    pub fault: Option<String>,
    /// Capture the first `k` undetected (escaped) faults of a campaign.
    pub escapes: usize,
}

impl Default for WaveOptions {
    fn default() -> WaveOptions {
        WaveOptions {
            pre: 64,
            post: 16,
            depth: 256,
            probe: Vec::new(),
            out_dir: PathBuf::from("results"),
            fault: None,
            escapes: 0,
        }
    }
}

/// Ring-buffered good/faulty sampler with detection-trigger trimming.
///
/// Drive it from any lockstep loop: call [`WaveCapture::record`] once
/// per cycle (post-clock), [`WaveCapture::mark_trigger`] when the event
/// of interest fires, and stop once [`WaveCapture::done`] — then
/// [`WaveCapture::finish`] yields the trimmed rows.
#[derive(Debug, Clone)]
pub struct WaveCapture {
    probe: Probe,
    pre: u64,
    post: u64,
    depth: u64,
    rows: VecDeque<DiffRow>,
    trigger: Option<u64>,
}

impl WaveCapture {
    /// A capture over `probe` with the window geometry from `opts`.
    pub fn new(probe: Probe, opts: &WaveOptions) -> WaveCapture {
        WaveCapture {
            probe,
            pre: opts.pre,
            post: opts.post,
            depth: opts.depth.max(1),
            rows: VecDeque::new(),
            trigger: None,
        }
    }

    /// The probe being sampled.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Sample lanes `0` (good) and `faulty_lane` of `sim` at `cycle`.
    /// Before a trigger the ring retains `max(pre + 1, depth)` rows;
    /// after it, rows accumulate freely until [`WaveCapture::done`].
    pub fn record(&mut self, sim: &WideSim, cycle: u64, faulty_lane: usize) {
        if self.trigger.is_none() {
            let cap = (self.pre as usize + 1).max(self.depth as usize);
            if self.rows.len() >= cap {
                self.rows.pop_front();
            }
        }
        let good = self
            .probe
            .vars()
            .iter()
            .map(|v| sim.lane_word(&v.nets, 0))
            .collect();
        let faulty = self
            .probe
            .vars()
            .iter()
            .map(|v| sim.lane_word(&v.nets, faulty_lane))
            .collect();
        self.rows.push_back(DiffRow {
            cycle,
            good,
            faulty,
        });
    }

    /// Mark the trigger cycle: trims the ring to the `pre` window and
    /// freezes eviction. Only the first call takes effect.
    pub fn mark_trigger(&mut self, cycle: u64) {
        if self.trigger.is_some() {
            return;
        }
        self.trigger = Some(cycle);
        let keep_from = cycle.saturating_sub(self.pre);
        while self.rows.front().is_some_and(|r| r.cycle < keep_from) {
            self.rows.pop_front();
        }
    }

    /// The trigger cycle, if one was marked.
    pub fn trigger(&self) -> Option<u64> {
        self.trigger
    }

    /// Whether the post-trigger window is complete at `cycle`.
    pub fn done(&self, cycle: u64) -> bool {
        self.trigger
            .is_some_and(|t| cycle >= t.saturating_add(self.post))
    }

    /// Finalize: without a trigger, keep only the last `depth` rows (the
    /// escape horizon).
    pub fn finish(mut self) -> CapturedWave {
        if self.trigger.is_none() {
            while self.rows.len() > self.depth as usize {
                self.rows.pop_front();
            }
        }
        CapturedWave {
            probe: self.probe,
            rows: self.rows.into(),
            trigger: self.trigger,
        }
    }
}

/// The finished product of a [`WaveCapture`]: trimmed rows plus the
/// probe that names them, ready to serialize.
#[derive(Debug, Clone)]
pub struct CapturedWave {
    /// The probe the rows were sampled through.
    pub probe: Probe,
    /// Captured cycles, oldest first.
    pub rows: Vec<DiffRow>,
    /// Trigger cycle (detection / divergence), `None` for escapes.
    pub trigger: Option<u64>,
}

impl CapturedWave {
    /// Serialize as a `good`/`faulty`/`diff` VCD.
    pub fn write_vcd<W: Write>(&self, out: W, comment: &str) -> io::Result<()> {
        write_diff_vcd(out, &self.probe, comment, &self.rows)
    }

    /// Write the VCD to `path` (creating parent directories).
    pub fn write_file(&self, path: &Path, comment: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::File::create(path)?;
        self.write_vcd(io::BufWriter::new(file), comment)
    }

    /// Cycles whose `diff` scope is nonzero anywhere — the corruption
    /// window.
    pub fn corrupt_cycles(&self) -> Vec<u64> {
        self.rows
            .iter()
            .filter(|r| r.good.iter().zip(&r.faulty).any(|(g, f)| g != f))
            .map(|r| r.cycle)
            .collect()
    }
}

/// Replay a single fault with waveform capture: lane 0 is the good
/// machine, lane 1 the faulty one, sampled through `probe` each cycle.
/// Triggers on first detection — the campaign's detection cycle for
/// that fault, since the state rebuild is a campaign batch's; an escape
/// keeps the final horizon window. Fully deterministic — a serial
/// replay independent of any campaign threading, with the same bytes
/// at every lane width.
pub fn capture_fault<T: Testbench + ?Sized>(
    sim: &mut WideSim,
    tb: &mut T,
    probe: Probe,
    fault: Fault,
    opts: &WaveOptions,
) -> CapturedWave {
    let mut cap = WaveCapture::new(probe, opts);
    let mut diff = vec![0u64; sim.lane_words()];
    sim.clear_faults();
    sim.inject(fault, 1);
    sim.reset_state();
    tb.begin(sim);
    for cycle in 0..tb.cycles() {
        diff.fill(0);
        tb.step(sim, cycle, &mut diff);
        cap.record(sim, cycle, 1);
        if (diff[0] >> 1) & 1 == 1 {
            cap.mark_trigger(cycle);
        }
        if cap.done(cycle) {
            break;
        }
    }
    cap.finish()
}

/// Resolve a CLI fault id against a fault list: either a decimal index
/// or a [`Fault::describe`] string (as `FORENSICS.md`'s escapes table
/// and `FORENSICS.json`'s `escapes[].fault` print it).
pub fn find_fault(faults: &FaultList, id: &str) -> Option<usize> {
    if let Ok(i) = id.trim().parse::<usize>() {
        return (i < faults.len()).then_some(i);
    }
    let want = id.trim();
    faults.faults.iter().position(|f| f.describe() == want)
}

/// Deterministic VCD file name for a fault: `WAVE_<tag>_<desc>.vcd`
/// with non-alphanumeric characters of the describe string folded to
/// `-` (e.g. `WAVE_escape_g17-pin0-sa0.vcd`).
pub fn wave_file_name(tag: &str, desc: &str) -> String {
    let safe: String = desc
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    format!("WAVE_{tag}_{safe}.vcd")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{self, Detection, VectorBench};
    use crate::engine::flat_sim;
    use crate::model::{FaultSite, Polarity};
    use netlist::{Netlist, NetlistBuilder};
    use obs::Telemetry;

    /// A tiny sequential circuit: q <= a ^ q, y = q. A stuck-at on `a`'s
    /// cone corrupts state one cycle before it reaches the output.
    fn build() -> netlist::Netlist {
        let mut b = NetlistBuilder::new("txor");
        let a = b.input("a");
        let (q, slot) = b.dff_later(false);
        let d = b.xor2(a, q);
        b.dff_set(slot, d);
        b.output("y", q);
        b.finish().unwrap()
    }

    fn vectors() -> Vec<Vec<(&'static str, u64)>> {
        // Hold a=0 for 4 cycles (fault-free q stays 0), then a=1.
        (0..12).map(|i| vec![("a", u64::from(i >= 4))]).collect()
    }

    fn sa1_on_input(nl: &netlist::Netlist) -> Fault {
        Fault {
            site: FaultSite::Stem(nl.port("a")[0]),
            polarity: Polarity::StuckAt1,
        }
    }

    #[test]
    fn capture_matches_campaign_detection_and_flags_corruption() {
        let nl = build();
        let vecs = vectors();
        let fault = sa1_on_input(&nl);
        let mut sim = flat_sim(&nl, 64);

        let one = FaultList::extract(&nl).filter(|f, _| f == fault);
        let res = campaign::run(
            &sim,
            &one,
            || VectorBench::new(&nl, &vecs),
            1,
            &Telemetry::none(),
        );
        let [Detection::DetectedAt(t)] = res.detections[..] else {
            panic!("sa1 on `a` must be detected: {:?}", res.detections);
        };

        let probe = Probe::full(&nl);
        let mut tb = VectorBench::new(&nl, &vecs);
        let wave = capture_fault(&mut sim, &mut tb, probe, fault, &WaveOptions::default());
        assert_eq!(
            wave.trigger,
            Some(t),
            "capture trigger != campaign detection"
        );
        let corrupt = wave.corrupt_cycles();
        assert!(!corrupt.is_empty(), "no corruption recorded");
        // Corruption must start at or before the detection cycle (the
        // fault effect lives in state before it reaches an output).
        assert!(*corrupt.first().unwrap() <= t);
        assert!(
            wave.rows.iter().any(|r| r.cycle == t),
            "trigger cycle not captured"
        );
    }

    #[test]
    fn escape_keeps_horizon_window() {
        let nl = build();
        // A stuck-at-0 on `a` while the stimulus holds a=0 throughout:
        // never detected.
        let vecs: Vec<Vec<(&str, u64)>> = (0..40).map(|_| vec![("a", 0u64)]).collect();
        let fault = Fault {
            site: FaultSite::Stem(nl.port("a")[0]),
            polarity: Polarity::StuckAt0,
        };
        let mut sim = flat_sim(&nl, 64);
        let mut tb = VectorBench::new(&nl, &vecs);
        let opts = WaveOptions {
            depth: 8,
            ..WaveOptions::default()
        };
        let wave = capture_fault(&mut sim, &mut tb, Probe::full(&nl), fault, &opts);
        assert_eq!(wave.trigger, None);
        assert_eq!(wave.rows.len(), 8, "horizon window should be `depth` rows");
        assert_eq!(wave.rows.last().unwrap().cycle, 39);
        assert!(
            wave.corrupt_cycles().is_empty(),
            "sa0 at a=0 corrupts nothing"
        );
    }

    #[test]
    fn pre_post_window_trimming() {
        let nl = build();
        let vecs = vectors();
        let fault = sa1_on_input(&nl);
        let mut sim = flat_sim(&nl, 64);
        let mut tb = VectorBench::new(&nl, &vecs);
        let opts = WaveOptions {
            pre: 2,
            post: 3,
            ..WaveOptions::default()
        };
        let wave = capture_fault(&mut sim, &mut tb, Probe::full(&nl), fault, &opts);
        let t = wave.trigger.expect("detected");
        let first = wave.rows.first().unwrap().cycle;
        let last = wave.rows.last().unwrap().cycle;
        assert!(
            first >= t.saturating_sub(2),
            "kept too much pre-trigger: {first} vs {t}"
        );
        assert_eq!(
            last,
            (t + 3).min(11),
            "post window wrong: {last} vs trigger {t}"
        );
    }

    #[test]
    fn capture_is_byte_deterministic_across_widths() {
        let nl = build();
        let vecs = vectors();
        let fault = sa1_on_input(&nl);
        fn render(sim: &mut WideSim, nl: &Netlist, vecs: &[Vec<(&str, u64)>]) -> Vec<u8> {
            let fault = sa1_on_input(nl);
            let mut tb = VectorBench::new(nl, vecs);
            let wave = capture_fault(
                sim,
                &mut tb,
                Probe::full(nl),
                fault,
                &WaveOptions::default(),
            );
            let mut buf = Vec::new();
            wave.write_vcd(&mut buf, &fault.describe()).unwrap();
            buf
        }
        let reference = render(&mut flat_sim(&nl, 64), &nl, &vecs);
        assert_eq!(
            render(&mut flat_sim(&nl, 64), &nl, &vecs),
            reference,
            "two captures of the same fault differ"
        );
        assert_eq!(
            render(&mut flat_sim(&nl, 512), &nl, &vecs),
            reference,
            "the 512-lane capture of {} differs from the 64-lane one",
            fault.describe()
        );
    }

    #[test]
    fn fault_id_resolution() {
        let nl = build();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        assert_eq!(find_fault(&faults, "0"), Some(0));
        assert_eq!(find_fault(&faults, &format!("{}", faults.len())), None);
        let desc = faults.faults[2].describe();
        assert_eq!(find_fault(&faults, &desc), Some(2));
        assert_eq!(find_fault(&faults, "bogus zz9"), None);
    }

    #[test]
    fn wave_file_names_are_path_safe() {
        assert_eq!(
            wave_file_name("escape", "g17/pin0 sa0"),
            "WAVE_escape_g17-pin0-sa0.vcd"
        );
        assert_eq!(wave_file_name("fault", "n42 sa1"), "WAVE_fault_n42-sa1.vcd");
    }
}
