//! One lane-parallel memory bench for every core on a memory bus.
//!
//! The paper grades a self-test program by what an external tester sees
//! on the CPU bus (Figure 1). So every lane of the simulator is a core
//! with its own memory, lane 0 is the fault-free reference, and a lane
//! is detected once its observed outputs diverge from lane 0's.
//! [`MemBench`] serves that bus for every lane: the Plasma and Parwan
//! campaigns, the forensics evidence pass, wave capture and both
//! lockstep oracles run on it.
//!
//! The bus is the netlist's `mem_addr`, `mem_wdata`, `mem_we` and
//! `mem_rdata` ports, plus `mem_be` when the netlist has byte enables;
//! their nets are resolved once, at construction. One memory row holds
//! one word of `mem_rdata`'s width, at byte address `addr / (width / 8)`:
//! Plasma's 32-bit rows sit at `addr >> 2`, Parwan's byte rows at
//! `addr`. Without `mem_be` a store writes the whole row.
//!
//! Every lane reads a shared base image through a row-block overlay: a
//! row gets a block of `lanes` `u32` words, plus a mask of the lanes
//! that wrote it (one bit per lane), on the first write to it by any
//! lane since [`Testbench::begin`]. Lanes mostly follow the golden
//! instruction stream, so a cycle's accesses cluster on a few rows whose
//! entries share cache lines, and memory grows with the rows written,
//! not with lanes × the address space.

use std::time::Instant;

use netlist::{Net, Netlist};
use obs::{ProfilePhase, Profiler};

use crate::campaign::Testbench;
use crate::wide::{transpose_lanes_wide, WideSim};

/// What `mem_rdata` carries on a store cycle — the one way the cores'
/// buses differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreRead {
    /// The word as it stood before the store, as the MIPS ISS, the
    /// scalar `GateCpu` and the Parwan behavioural model return it.
    Old,
    /// The word the store leaves behind.
    New,
}

/// One cycle's bus transaction of one lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Transaction {
    /// Byte address driven on `mem_addr`.
    pub addr: u32,
    /// Value driven on `mem_wdata`, store or not.
    pub wdata: u32,
    /// Write enable.
    pub we: bool,
    /// Byte enables (all set without a `mem_be` port).
    pub be: u8,
    /// The word served on `mem_rdata`.
    pub rdata: u32,
}

/// Row-block marker: no lane has written the row since `begin`.
const NO_BLOCK: u32 = u32::MAX;

/// The memory-bus testbench: every lane is a core with its own memory
/// (shared base image plus per-lane row overlay), and divergence of the
/// observed outputs from lane 0 is the detection.
pub struct MemBench<'a> {
    observed: &'a [Net],
    addr: &'a [Net],
    wdata: &'a [Net],
    we: Net,
    be: Option<&'a [Net]>,
    rdata: &'a [Net],
    store_read: StoreRead,
    /// log2 of the bytes per row.
    shift: u32,
    mask: usize,
    base: Vec<u32>,
    lanes: usize,
    // `blocks[i]` is row i's block (or NO_BLOCK), `written[b]` is block
    // b's row, in first-write order. Entry `b * lanes + lane` of `ovl`
    // is that lane's word of the row, valid once bit `lane % 64` of
    // `wrote[b * lanes / 64 + lane / 64]` is set. `begin` and saving a
    // lane cost O(rows written).
    blocks: Vec<u32>,
    written: Vec<u32>,
    ovl: Vec<u32>,
    wrote: Vec<u64>,
    budget: u64,
    rdata_lanes: Vec<u64>,
    rdata_bits: Vec<u64>,
    lane0: Transaction,
    // Optional hot-loop self-profiler (see `with_profiler`).
    profiler: Profiler,
}

impl<'a> MemBench<'a> {
    /// A bench over `netlist`'s memory bus with `mem_bytes` of memory
    /// (rounded up to a power of two rows) and a zeroed image, detecting
    /// on `observed`; `budget` is the per-batch cycle count.
    ///
    /// # Panics
    ///
    /// Panics if a bus port is missing or `mem_rdata` is not 8, 16 or
    /// 32 bits wide.
    pub fn new(
        netlist: &'a Netlist,
        observed: &'a [Net],
        mem_bytes: usize,
        budget: u64,
        store_read: StoreRead,
    ) -> MemBench<'a> {
        let rdata = netlist.port("mem_rdata");
        assert!(
            matches!(rdata.len(), 8 | 16 | 32),
            "mem_rdata must be 8, 16 or 32 bits wide"
        );
        let row_bytes = rdata.len() / 8;
        let rows = (mem_bytes.max(16) / row_bytes).next_power_of_two();
        MemBench {
            observed,
            addr: netlist.port("mem_addr"),
            wdata: netlist.port("mem_wdata"),
            we: netlist.port("mem_we")[0],
            be: netlist.port_dir("mem_be").map(|_| netlist.port("mem_be")),
            rdata,
            store_read,
            shift: row_bytes.trailing_zeros(),
            mask: rows - 1,
            base: vec![0; rows],
            lanes: 0,
            blocks: vec![NO_BLOCK; rows],
            written: Vec::new(),
            ovl: Vec::new(),
            wrote: Vec::new(),
            budget,
            rdata_lanes: Vec::new(),
            rdata_bits: Vec::new(),
            lane0: Transaction::default(),
            profiler: Profiler::disabled(),
        }
    }

    /// Attach a hot-loop self-profiler: each cycle's wall-time is split
    /// across the `eval_early`/`overlay`/`eval_late`/`detect`/`clock`
    /// phases (see [`obs::ProfilePhase`]). Share the same handle with
    /// `Telemetry.profiler` so the runner's `patch`/`reset` phases land
    /// in the same profile. A disabled profiler (the default) leaves the
    /// step loop at one extra branch per cycle — and the profiler never
    /// touches simulation state, so detections are identical either way.
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// Zero the shared image, then write `words` into consecutive rows
    /// from byte address `addr` on (wrapping at the end of memory).
    /// Lane overlays are dropped at the next [`Testbench::begin`].
    pub fn load_image(&mut self, addr: u32, words: impl IntoIterator<Item = u32>) {
        self.base.fill(0);
        let first = addr as usize >> self.shift;
        for (k, w) in words.into_iter().enumerate() {
            self.base[(first + k) & self.mask] = w;
        }
    }

    /// Rows of memory behind every lane.
    pub fn rows(&self) -> usize {
        self.mask + 1
    }

    /// The word at byte address `addr` in lane `lane`'s memory.
    pub fn read(&self, lane: usize, addr: u32) -> u32 {
        self.word((addr as usize >> self.shift) & self.mask, lane)
    }

    /// Lane 0's transaction in the last [`Testbench::step`].
    pub fn lane0(&self) -> Transaction {
        self.lane0
    }

    fn word(&self, row: usize, lane: usize) -> u32 {
        let b = self.blocks[row];
        if b != NO_BLOCK && self.wrote_by(b as usize, lane) {
            return self.ovl[b as usize * self.lanes + lane];
        }
        self.base[row]
    }

    /// Whether lane `lane` wrote block `b`'s row since `begin`.
    #[inline]
    fn wrote_by(&self, b: usize, lane: usize) -> bool {
        (self.wrote[(b * self.lanes + lane) >> 6] >> (lane & 63)) & 1 == 1
    }

    /// Store `value` into row `row` of lane `lane`'s overlay, giving the
    /// row its block on its first write since `begin`.
    fn put(&mut self, row: usize, lane: usize, value: u32) {
        let mut b = self.blocks[row];
        if b == NO_BLOCK {
            b = self.written.len() as u32;
            self.blocks[row] = b;
            self.written.push(row as u32);
            self.ovl.resize(self.ovl.len() + self.lanes, 0);
            self.wrote.resize(self.wrote.len() + self.lanes / 64, 0);
        }
        let e = b as usize * self.lanes + lane;
        self.ovl[e] = value;
        self.wrote[e >> 6] |= 1 << (lane & 63);
    }

    /// The memory phase of one cycle: each lane reads the row its
    /// address selects, applies its store, and gets the old or the new
    /// word (per [`StoreRead`]) on `mem_rdata`. Bus values are gathered
    /// one lane word at a time through [`WideSim::lane_block`]; write
    /// data and byte enables only for words with a store, and for word 0,
    /// whose lane 0 transaction is recorded every cycle.
    #[inline]
    fn serve(&mut self, sim: &mut WideSim) {
        let w = sim.lane_words();
        let mut addr = [0u64; 64];
        let mut wdata = [0u64; 64];
        let mut be = [!0u64; 64];
        for t in 0..w {
            let we_lanes = sim.net_lanes_word(self.we, t);
            sim.lane_block(self.addr, t, &mut addr);
            if we_lanes != 0 || t == 0 {
                sim.lane_block(self.wdata, t, &mut wdata);
                if let Some(nets) = self.be {
                    sim.lane_block(nets, t, &mut be);
                }
            }
            for b in 0..64 {
                let lane = (t << 6) + b;
                let row = (addr[b] as usize >> self.shift) & self.mask;
                let old = self.word(row, lane);
                let mut rdata = old;
                if (we_lanes >> b) & 1 == 1 {
                    let m = byte_mask(be[b]);
                    let new = (old & !m) | (wdata[b] as u32 & m);
                    self.put(row, lane, new);
                    if self.store_read == StoreRead::New {
                        rdata = new;
                    }
                }
                self.rdata_lanes[lane] = rdata as u64;
            }
            if t == 0 {
                self.lane0 = Transaction {
                    addr: addr[0] as u32,
                    wdata: wdata[0] as u32,
                    we: we_lanes & 1 == 1,
                    be: be[0] as u8,
                    rdata: self.rdata_lanes[0] as u32,
                };
            }
        }
        transpose_lanes_wide(&self.rdata_lanes, self.rdata.len(), w, &mut self.rdata_bits);
        sim.set_bus_bits(self.rdata, &self.rdata_bits);
    }

    /// One cycle, untimed — the hot path when profiling is off.
    #[inline]
    fn step_plain(&mut self, sim: &mut WideSim, diff: &mut [u64]) {
        sim.eval_segment(0);
        self.serve(sim);
        sim.eval_segment(1);
        sim.diff_vs_lane0(self.observed, diff);
        sim.clock();
    }

    /// One cycle with manual `Instant` checkpoints between phases (one
    /// clock read per phase boundary, not a guard per phase).
    fn step_timed(&mut self, sim: &mut WideSim, diff: &mut [u64]) {
        let t0 = Instant::now();
        sim.eval_segment(0);
        let t1 = Instant::now();
        self.serve(sim);
        let t2 = Instant::now();
        sim.eval_segment(1);
        let t3 = Instant::now();
        sim.diff_vs_lane0(self.observed, diff);
        let t4 = Instant::now();
        sim.clock();
        let t5 = Instant::now();
        let p = &self.profiler;
        p.add_ns(ProfilePhase::EvalEarly, (t1 - t0).as_nanos() as u64);
        p.add_ns(ProfilePhase::Overlay, (t2 - t1).as_nanos() as u64);
        p.add_ns(ProfilePhase::EvalLate, (t3 - t2).as_nanos() as u64);
        p.add_ns(ProfilePhase::Detect, (t4 - t3).as_nanos() as u64);
        p.add_ns(ProfilePhase::Clock, (t5 - t4).as_nanos() as u64);
    }
}

/// The bits of a row that byte enables `be` select.
fn byte_mask(be: u64) -> u32 {
    (0..4)
        .filter(|b| (be >> b) & 1 == 1)
        .fold(0, |m, b| m | 0xFF << (8 * b))
}

impl Testbench for MemBench<'_> {
    fn begin(&mut self, sim: &mut WideSim) {
        self.lanes = sim.lanes();
        self.rdata_lanes.resize(self.lanes, 0);
        for &row in &self.written {
            self.blocks[row as usize] = NO_BLOCK;
        }
        self.written.clear();
        self.ovl.clear();
        self.wrote.clear();
    }

    fn step(&mut self, sim: &mut WideSim, _cycle: u64, diff: &mut [u64]) {
        // One branch per cycle: the timed variant differs only in the
        // Instant checkpoints between phases, never in what it computes.
        if self.profiler.enabled() {
            self.step_timed(sim, diff);
        } else {
            self.step_plain(sim, diff);
        }
    }

    fn cycles(&self) -> u64 {
        self.budget
    }

    /// The lane's written words, each packed as `row << 32 | value`, in
    /// the order rows were first written since `begin` — the same for
    /// every lane, so lanes with equal overlays save equal states.
    fn save_lane(&self, lane: usize, out: &mut Vec<u64>) {
        for (b, &row) in self.written.iter().enumerate() {
            if self.wrote_by(b, lane) {
                out.push((row as u64) << 32 | self.ovl[b * self.lanes + lane] as u64);
            }
        }
    }

    fn load_lane(&mut self, lane: usize, state: &[u64]) {
        for &p in state {
            self.put((p >> 32) as usize, lane, p as u32);
        }
    }
}
