//! Bit-parallel batched gate-level simulation: 64 replays per pass.
//!
//! [`BatchSim`] evaluates the compiled op tape ([`crate::Tape`]) over one
//! `u64` *word* per net: bit-lane `l` of every word holds the value of
//! that net in replay `l`. A single AND/OR/XOR/NOT pass over the tape
//! therefore advances up to 64 independent sample replays at once — the
//! classic bit-parallel ("PLP") gate simulation restructuring, applied to
//! Strober's replay stage where every snapshot runs the *same* netlist
//! for the *same* number of cycles and only the data differs. The tape
//! comes in (level, kind) runs, so each block of same-kind gates is one
//! tight loop with no per-gate dispatch.
//!
//! Activity counting is word-wide too, and counts energy, not nets: the
//! power model prices every net of an energy class alike, so the engine
//! keeps one set of counters per class, not per net. The tape lays each
//! class out as one contiguous, block-padded range of slots, and every
//! cycle adds the class's toggle words `(new ^ old) & lane_mask` with a
//! Harley–Seal carry-save tree, sixteen words per block, into 16 bit
//! planes held per class across cycles — bit `l` of plane `k` is bit `k`
//! of lane `l`'s count. No per-lane work and no per-net branch, whatever
//! the activity. Before a plane could overflow, the planes are flushed
//! into per-lane `u64` class counters through one 64×64 transpose per
//! class, and the activity readers add both. A one-lane batch skips the
//! planes: its toggle words are 0 or 1, so the tree is an integer sum.
//!
//! Where a lane needs its own scalar — an SRAM address, the word it
//! reads or writes, a port value poked or peeked — the bus moves between
//! bit-sliced nets and per-lane words through one in-register 64×64 bit
//! transpose ([`transpose64`]), not a gather loop per lane and bit. What
//! stays lane-wise is what must: each lane addresses its own copy of the
//! macro contents, so a read port loads one word per lane, a write port
//! stores one per enabled lane, and read accesses are charged per lane.
//!
//! Every lane is bit-identical to a separate replay on the reference
//! engine, [`crate::NaiveGateSim`] (enforced by the `batch_equiv`
//! differential test); a one-lane batch is a single replay.
//!
//! # Examples
//!
//! ```
//! use strober_dsl::Ctx;
//! use strober_rtl::Width;
//! use strober_synth::{synthesize, SynthOptions};
//! use strober_gatesim::BatchSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = Ctx::new("counter");
//! let en = ctx.input("en", Width::BIT);
//! let count = ctx.reg("count", Width::new(8)?, 0);
//! count.set_en(&count.out().add_lit(1), &en);
//! ctx.output("value", &count.out());
//! let synth = synthesize(&ctx.finish()?, &SynthOptions::default())?;
//!
//! // Four lanes: lanes 0 and 2 enabled, lanes 1 and 3 idle.
//! let mut sim = BatchSim::with_lanes(&synth.netlist, 4)?;
//! sim.poke_port_lanes("en", &[1, 0, 1, 0])?;
//! sim.step_n(10);
//! assert_eq!(sim.peek_port_lane("value", 0)?, 10);
//! assert_eq!(sim.peek_port_lane("value", 1)?, 0);
//! assert_eq!(sim.peek_port_lane("value", 2)?, 10);
//! # Ok(())
//! # }
//! ```

use crate::activity::ActivityReport;
use crate::compile::{eval_gates, RunKind, SramPorts, Tape, CLASS_BLOCK};
use crate::sim::{check_fits, found, GateSimError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use strober_gates::Netlist;

/// The maximum number of bit-lanes a [`BatchSim`] can carry: one sample
/// per bit of a `u64`.
pub const MAX_LANES: usize = 64;

/// One word per lane, or one word per bit of a bus: the two sides of a
/// [`transpose64`].
type Rows = [u64; MAX_LANES];

/// Bit planes per class in the live toggle counters: the ones, twos,
/// fours and eights of the carry-save tree, then the chain its sixteens
/// carry ripples through. Plane `k` weighs `2^k`.
const PLANES: usize = 16;

/// The most counted cycles between flushes of the class planes. Bigger
/// classes flush sooner: a lane's count must stay below `2^PLANES`.
const MAX_FLUSH_EVERY: u64 = 256;

/// One block of toggle words, the carry-save tree's input.
type Block = [u64; CLASS_BLOCK];

#[derive(Debug, Clone)]
struct BatchSramState {
    /// Per-lane macro contents, laid out `[lane * depth + addr]`.
    contents: Vec<u64>,
    /// Per read port, each lane's address as of the last settle (row `l`
    /// is lane `l`'s): computed once by the read step, reused at the edge.
    read_addr: Vec<Rows>,
    /// Per read port, each lane's address at the last charged edge or
    /// window start; meaningful once `BatchSim::reads_primed` is set.
    prev_read_addr: Vec<Rows>,
    /// Read accesses charged, per lane.
    reads: Vec<u64>,
    /// Write accesses committed, per lane.
    writes: Vec<u64>,
}

/// The bit-parallel batched gate-level simulator.
///
/// Carries `lanes` (1..=[`MAX_LANES`]) independent replays of one netlist;
/// every lane sees the zero-delay semantics of a standalone
/// [`crate::NaiveGateSim`]. All lanes share the clock: one
/// [`BatchSim::step`] advances every lane by one cycle.
#[derive(Debug, Clone)]
pub struct BatchSim {
    tape: Arc<Tape>,
    lanes: usize,
    /// Bits `0..lanes` set; everything lane-visible is masked with this.
    lane_mask: u64,
    /// One word per tape slot; bit `l` = the net's value in lane `l`.
    values: Vec<u64>,
    /// The counted slots' values at the last counted edge.
    prev_values: Vec<u64>,
    /// Per class, the toggles since the last flush as bit planes: bit `l`
    /// of plane `k` is bit `k` of lane `l`'s count.
    planes: Vec<[u64; PLANES]>,
    /// Cycles counted into `planes` since the last flush.
    live_cycles: u64,
    /// Counted cycles after which the planes are flushed.
    flush_every: u64,
    /// Flushed per-lane class toggles, laid out `[class * lanes + lane]`.
    counts: Vec<u64>,
    /// Clock-edge scratch for DFF next-state words; reused every cycle.
    dff_scratch: Vec<u64>,
    srams: Vec<BatchSramState>,
    /// Whether the read ports have a baseline address to charge against;
    /// until then every edge charges every lane.
    reads_primed: bool,
    cycle: u64,
    dirty: bool,
    settled_once: bool,
    times: PhaseTimes,
}

/// Host time a [`BatchSim`] spent in each phase of its cycles since it
/// was built. Accumulated only while the `strober-probe` recorder is
/// enabled; all zero otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Evaluating the tape's gate runs.
    pub settle: Duration,
    /// Evaluating the tape's SRAM read runs: address transposes, one
    /// word load per lane, data transposes.
    pub sram_read: Duration,
    /// Counting toggles, flushes of the class planes included.
    pub count: Duration,
    /// Charging SRAM read accesses and committing writes at the edge.
    pub sram: Duration,
    /// Latching flip-flops.
    pub latch: Duration,
}

/// A stopwatch that runs only while the probe recorder is enabled: one
/// relaxed load per phase when it is not.
struct Lap(Option<Instant>);

impl Lap {
    fn start() -> Self {
        Lap(strober_probe::enabled().then(Instant::now))
    }

    /// Adds the time since the last lap to `into` and starts the next.
    fn lap(&mut self, into: &mut Duration) {
        if let Some(last) = &mut self.0 {
            let now = Instant::now();
            *into += now - *last;
            *last = now;
        }
    }
}

impl BatchSim {
    /// Compiles a netlist for batched simulation with the full 64 lanes.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadNetlist`] if the netlist fails
    /// validation.
    pub fn new(netlist: &Netlist) -> Result<Self, GateSimError> {
        Self::with_lanes(netlist, MAX_LANES)
    }

    /// Compiles a netlist for batched simulation with `lanes` active
    /// bit-lanes.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadLaneCount`] unless `1 <= lanes <= 64`,
    /// or [`GateSimError::BadNetlist`] for an invalid netlist.
    pub fn with_lanes(netlist: &Netlist, lanes: usize) -> Result<Self, GateSimError> {
        let _span = strober_probe::span("strober.gatesim.batch_compile");
        let tape = Arc::new(Tape::compile(netlist)?);
        Self::with_tape_lanes(tape, netlist, lanes)
    }

    /// Builds a batched simulator from a tape compiled earlier with
    /// [`Tape::compile`], skipping compilation entirely. The tape **must**
    /// have been compiled from this exact `netlist` (a session caching the
    /// tape by design fingerprint is); only the SRAM macros' initial
    /// contents are read from it.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadLaneCount`] unless `1 <= lanes <= 64`.
    pub fn with_tape_lanes(
        tape: Arc<Tape>,
        netlist: &Netlist,
        lanes: usize,
    ) -> Result<Self, GateSimError> {
        if lanes == 0 || lanes > MAX_LANES {
            return Err(GateSimError::BadLaneCount { lanes });
        }
        let lane_mask = mask_for(lanes);

        let mut srams = Vec::new();
        for s in netlist.srams() {
            let mut one = s.init.clone();
            one.resize(s.depth, 0);
            let mut contents = Vec::with_capacity(s.depth * lanes);
            for _ in 0..lanes {
                contents.extend_from_slice(&one);
            }
            let ports = s.read_ports.len();
            srams.push(BatchSramState {
                contents,
                read_addr: vec![[0; MAX_LANES]; ports],
                prev_read_addr: vec![[0; MAX_LANES]; ports],
                reads: vec![0; lanes],
                writes: vec![0; lanes],
            });
        }

        let mut values = vec![0u64; tape.slot_count];
        // Reset values broadcast to every lane.
        for (&(_, q), &init) in tape.dffs.iter().zip(&tape.dff_inits) {
            values[q as usize] = if init { !0 } else { 0 };
        }
        let classes = tape.class_start.len() - 1;
        let counted = tape.class_start[classes] as usize;
        // A class's padded size bounds the toggles it adds per cycle.
        let largest = tape.class_start.windows(2).map(|p| p[1] - p[0]).max();
        let fits = ((1u64 << PLANES) - 1) / u64::from(largest.unwrap_or(0).max(1));

        Ok(BatchSim {
            prev_values: values[..counted].to_vec(),
            planes: vec![[0; PLANES]; classes],
            live_cycles: 0,
            flush_every: fits.clamp(1, MAX_FLUSH_EVERY),
            counts: vec![0; classes * lanes],
            dff_scratch: vec![0; tape.dffs.len()],
            values,
            tape,
            lanes,
            lane_mask,
            srams,
            reads_primed: false,
            cycle: 0,
            dirty: true,
            settled_once: false,
            times: PhaseTimes::default(),
        })
    }

    /// The number of active bit-lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The current cycle count (shared by every lane).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Host time spent per cycle phase so far (see [`PhaseTimes`]).
    pub fn phase_times(&self) -> PhaseTimes {
        self.times
    }

    fn check_lane(&self, lane: usize) -> Result<(), GateSimError> {
        if lane >= self.lanes {
            return Err(GateSimError::LaneOutOfRange {
                lane,
                lanes: self.lanes,
            });
        }
        Ok(())
    }

    fn check_lane_count(&self, len: usize) -> Result<(), GateSimError> {
        if len != self.lanes {
            return Err(GateSimError::BadLaneCount { lanes: len });
        }
        Ok(())
    }

    /// Drives input port `port` — an index from [`Tape::input_index`] on
    /// this simulator's tape — with one value per lane (`values[l]` goes
    /// to lane `l`; `values.len()` must equal [`BatchSim::lanes`]). The
    /// per-cycle stimulus primitive: resolve the names once, then poke
    /// every cycle by index.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadLaneCount`] for a wrong-length slice, or
    /// [`GateSimError::ValueTooWide`] if any lane's value exceeds the
    /// port width.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not an input port index of this tape.
    pub fn poke_port_lanes_at(&mut self, port: usize, values: &[u64]) -> Result<(), GateSimError> {
        self.check_lane_count(values.len())?;
        let bits = &self.tape.inputs.bits[port];
        let width = bits.len();
        if let Some(&v) = values.iter().find(|&&v| width < 64 && v >> width != 0) {
            return check_fits(&self.tape.inputs.names[port], v, width);
        }
        let mut rows = [0; MAX_LANES];
        rows[..self.lanes].copy_from_slice(values);
        transpose64(&mut rows);
        for (&slot, &word) in bits.iter().zip(&rows) {
            self.values[slot as usize] = word;
        }
        self.dirty = true;
        Ok(())
    }

    /// Drives a word-level input port with one value per lane; the
    /// name-keyed form of [`BatchSim::poke_port_lanes_at`].
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`], [`GateSimError::BadLaneCount`]
    /// for a wrong-length slice, or [`GateSimError::ValueTooWide`] if any
    /// lane's value exceeds the port width.
    pub fn poke_port_lanes(&mut self, name: &str, values: &[u64]) -> Result<(), GateSimError> {
        let port = found(self.tape.input_index(name), "input port", name)?;
        self.poke_port_lanes_at(port, values)
    }

    /// Drives a word-level input port with the same value on every lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::ValueTooWide`].
    pub fn poke_port_broadcast(&mut self, name: &str, value: u64) -> Result<(), GateSimError> {
        let port = found(self.tape.input_index(name), "input port", name)?;
        let bits = &self.tape.inputs.bits[port];
        check_fits(name, value, bits.len())?;
        for (i, &slot) in bits.iter().enumerate() {
            self.values[slot as usize] = if (value >> i) & 1 == 1 { !0 } else { 0 };
        }
        self.dirty = true;
        Ok(())
    }

    /// Every lane's value of output port `port`, settled: row `l` is lane
    /// `l`'s (rows past the active lanes are garbage).
    fn output_rows(&mut self, port: usize) -> Rows {
        self.settle();
        lane_words(&self.values, &self.tape.outputs.bits[port])
    }

    /// Reads a word-level output port on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::LaneOutOfRange`].
    pub fn peek_port_lane(&mut self, name: &str, lane: usize) -> Result<u64, GateSimError> {
        self.check_lane(lane)?;
        let port = found(self.tape.output_index(name), "output port", name)?;
        Ok(self.output_rows(port)[lane])
    }

    /// Reads output port `port` — an index from [`Tape::output_index`] on
    /// this simulator's tape — on every lane into `out` (`out.len()` must
    /// equal [`BatchSim::lanes`]). One settle and one transpose serve all
    /// lanes: the hot-path form the replay loop checks output traces with.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadLaneCount`] for a wrong-length slice.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not an output port index of this tape.
    pub fn peek_port_lanes_at(&mut self, port: usize, out: &mut [u64]) -> Result<(), GateSimError> {
        self.check_lane_count(out.len())?;
        let rows = self.output_rows(port);
        out.copy_from_slice(&rows[..self.lanes]);
        Ok(())
    }

    /// Reads a word-level output port on every lane into `out`; the
    /// name-keyed form of [`BatchSim::peek_port_lanes_at`].
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::BadLaneCount`] for a wrong-length slice.
    pub fn peek_port_lanes_into(
        &mut self,
        name: &str,
        out: &mut [u64],
    ) -> Result<(), GateSimError> {
        let port = found(self.tape.output_index(name), "output port", name)?;
        self.peek_port_lanes_at(port, out)
    }

    /// Reads a word-level output port on every lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`].
    pub fn peek_port_lanes(&mut self, name: &str) -> Result<Vec<u64>, GateSimError> {
        let mut out = vec![0u64; self.lanes];
        self.peek_port_lanes_into(name, &mut out)?;
        Ok(out)
    }

    /// Evaluates the tape run by run. While the recorder is on, gate runs
    /// are timed into `settle` and read runs into `sram_read`, one lap
    /// per read run.
    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        let mut lap = Lap::start();
        let tape = &*self.tape;
        for run in &tape.runs {
            match run.kind {
                RunKind::Gate(kind) => eval_gates(kind, tape.gate_ops(run), &mut self.values),
                RunKind::SramRead => {
                    lap.lap(&mut self.times.settle);
                    for op in tape.read_ops(run) {
                        let si = op.sram as usize;
                        let port = op.port as usize;
                        let st = &mut self.srams[si];
                        read_port(&tape.srams[si], port, st, &mut self.values, self.lanes);
                    }
                    lap.lap(&mut self.times.sram_read);
                }
            }
        }
        self.dirty = false;
        lap.lap(&mut self.times.settle);
    }

    /// Advances one clock cycle on every lane: settle, count per-lane
    /// toggles, commit lane-wise SRAM accesses, latch flip-flops.
    pub fn step(&mut self) {
        self.settle();
        let mut lap = Lap::start();

        if self.settled_once {
            self.count_toggles();
        } else {
            let counted = self.prev_values.len();
            self.prev_values.copy_from_slice(&self.values[..counted]);
            self.settled_once = true;
        }
        lap.lap(&mut self.times.count);

        self.sram_edge();
        lap.lap(&mut self.times.sram);

        // Latch flip-flops, capture-then-commit, one word per flop.
        for (slot, &(d, _)) in self.dff_scratch.iter_mut().zip(&self.tape.dffs) {
            *slot = self.values[d as usize];
        }
        for (&v, &(_, q)) in self.dff_scratch.iter().zip(&self.tape.dffs) {
            self.values[q as usize] = v;
        }
        lap.lap(&mut self.times.latch);

        self.cycle += 1;
        self.dirty = true;
    }

    /// The SRAM side of a clock edge, macro by macro: charge each read
    /// port's lanes whose address moved since the last edge (the lane
    /// addresses the settle computed), then commit each write port's
    /// enabled lanes in port order, so of two ports writing one address
    /// on one lane the later wins.
    fn sram_edge(&mut self) {
        let primed = self.reads_primed;
        for (s, st) in self.tape.srams.iter().zip(&mut self.srams) {
            for (addr, prev) in st.read_addr.iter().zip(&mut st.prev_read_addr) {
                // `reads` has one counter per active lane.
                for (reads, (a, p)) in st.reads.iter_mut().zip(addr.iter().zip(prev.iter())) {
                    *reads += u64::from(!primed || a != p);
                }
                *prev = *addr;
            }
            for wp in &s.write_ports {
                let mut enabled = self.values[wp.enable as usize] & self.lane_mask;
                if enabled == 0 {
                    continue;
                }
                let addr = lane_words(&self.values, &wp.addr);
                let data = lane_words(&self.values, &wp.data);
                while enabled != 0 {
                    let lane = enabled.trailing_zeros() as usize;
                    enabled &= enabled - 1;
                    if let Some(a) = in_range(addr[lane], s.depth) {
                        st.contents[lane * s.depth + a] = data[lane];
                        st.writes[lane] += 1;
                    }
                }
            }
        }
        self.reads_primed = true;
    }

    /// Adds this cycle's toggle words `(new ^ old) & lane_mask` into each
    /// class's counters, and makes the new values the old ones.
    ///
    /// A class is a contiguous, block-padded run of slots (padding never
    /// toggles). Each block of sixteen toggle words goes through a
    /// Harley–Seal carry-save tree into the class's ones, twos, fours and
    /// eights planes, and the block's sixteens carry ripples through the
    /// rest of the planes in a fixed-depth chain: no branch per net or per
    /// block, and the planes stay in registers across a class. Every
    /// `flush_every` cycles the planes move into the `u64` counters.
    fn count_toggles(&mut self) {
        let tape = &*self.tape;
        let counted = self.prev_values.len();
        let new = &self.values[..counted];
        let old = &mut self.prev_values[..];
        let ranges = tape
            .class_start
            .windows(2)
            .map(|p| p[0] as usize..p[1] as usize);
        if self.lanes == 1 {
            // One lane: a toggle word is 0 or 1, so the sum is the count.
            for (range, count) in ranges.zip(&mut self.counts) {
                let mut sum = 0;
                for (&n, o) in new[range.clone()].iter().zip(&mut old[range]) {
                    sum += (n ^ *o) & 1;
                    *o = n;
                }
                *count += sum;
            }
            return;
        }
        let mask = self.lane_mask;
        for (range, planes) in ranges.zip(&mut self.planes) {
            let mut p = *planes;
            let blocks = new[range.clone()].chunks_exact(CLASS_BLOCK);
            for (n, o) in blocks.zip(old[range].chunks_exact_mut(CLASS_BLOCK)) {
                let mut t: Block = [0; CLASS_BLOCK];
                for ((t, &n), o) in t.iter_mut().zip(n).zip(o) {
                    *t = (n ^ *o) & mask;
                    *o = n;
                }
                let mut carry = harley_seal(&mut p, &t);
                for plane in &mut p[4..] {
                    let b = *plane;
                    *plane = b ^ carry;
                    carry &= b;
                }
            }
            *planes = p;
        }
        self.live_cycles += 1;
        if self.live_cycles == self.flush_every {
            self.flush();
        }
    }

    /// Adds every class's plane counts into its per-lane counters and
    /// clears the planes.
    fn flush(&mut self) {
        let counts = self.counts.chunks_exact_mut(self.lanes);
        for (planes, counts) in self.planes.iter_mut().zip(counts) {
            if *planes == [0; PLANES] {
                continue;
            }
            for (count, live) in counts.iter_mut().zip(lane_counts(planes)) {
                *count += live;
            }
            *planes = [0; PLANES];
        }
        self.live_cycles = 0;
    }

    /// Advances `n` cycles on every lane.
    pub fn step_n(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Sets flip-flop `dff` — an index from [`Tape::dff_index`] on this
    /// simulator's tape — on every lane at once: bit `l` of `packed`
    /// becomes its value in lane `l`. The bulk snapshot-load primitive:
    /// resolve the names once, then load every batch by index.
    ///
    /// # Panics
    ///
    /// Panics if `dff` is not a flip-flop index of this tape.
    pub fn set_dff_lanes_at(&mut self, dff: usize, packed: u64) {
        let q = self.tape.dffs[dff].1 as usize;
        let keep = !self.lane_mask;
        let set = packed & self.lane_mask;
        self.values[q] = (self.values[q] & keep) | set;
        self.prev_values[q] = (self.prev_values[q] & keep) | set;
        self.dirty = true;
    }

    /// Sets a flip-flop's current value on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::LaneOutOfRange`].
    pub fn set_dff_lane(
        &mut self,
        name: &str,
        lane: usize,
        value: bool,
    ) -> Result<(), GateSimError> {
        self.check_lane(lane)?;
        let dff = found(self.tape.dff_index(name), "flip-flop", name)?;
        let q = self.tape.dffs[dff].1 as usize;
        let bit = 1u64 << lane;
        if value {
            self.values[q] |= bit;
            self.prev_values[q] |= bit;
        } else {
            self.values[q] &= !bit;
            self.prev_values[q] &= !bit;
        }
        self.dirty = true;
        Ok(())
    }

    /// Reads a flip-flop's current value on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::LaneOutOfRange`].
    pub fn dff_value_lane(&self, name: &str, lane: usize) -> Result<bool, GateSimError> {
        self.check_lane(lane)?;
        let dff = found(self.tape.dff_index(name), "flip-flop", name)?;
        let q = self.tape.dffs[dff].1 as usize;
        Ok((self.values[q] >> lane) & 1 == 1)
    }

    /// Checks `addr` against SRAM `idx`'s depth and returns the depth.
    fn sram_depth(&self, idx: usize, addr: usize) -> Result<usize, GateSimError> {
        let s = &self.tape.srams[idx];
        if addr >= s.depth {
            return Err(GateSimError::AddressOutOfRange {
                sram: s.name.clone(),
                addr,
            });
        }
        Ok(s.depth)
    }

    /// Loads one lane's copy of SRAM `sram` — an index from
    /// [`Tape::sram_index`] on this simulator's tape — with `words`,
    /// from address 0 up; later addresses keep their contents.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::LaneOutOfRange`], or
    /// [`GateSimError::AddressOutOfRange`] (naming the first address past
    /// the macro) if `words` is longer than the macro is deep.
    ///
    /// # Panics
    ///
    /// Panics if `sram` is not an SRAM index of this tape.
    pub fn set_sram_lane(
        &mut self,
        sram: usize,
        lane: usize,
        words: &[u64],
    ) -> Result<(), GateSimError> {
        self.check_lane(lane)?;
        if words.is_empty() {
            return Ok(());
        }
        let depth = self.sram_depth(sram, words.len() - 1)?;
        self.srams[sram].contents[lane * depth..][..words.len()].copy_from_slice(words);
        self.dirty = true;
        Ok(())
    }

    /// Writes one word of an SRAM macro on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`],
    /// [`GateSimError::LaneOutOfRange`] or
    /// [`GateSimError::AddressOutOfRange`].
    pub fn set_sram_word_lane(
        &mut self,
        name: &str,
        lane: usize,
        addr: usize,
        value: u64,
    ) -> Result<(), GateSimError> {
        self.check_lane(lane)?;
        let idx = found(self.tape.sram_index(name), "SRAM macro", name)?;
        let depth = self.sram_depth(idx, addr)?;
        self.srams[idx].contents[lane * depth + addr] = value;
        self.dirty = true;
        Ok(())
    }

    /// Reads one word of an SRAM macro on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`],
    /// [`GateSimError::LaneOutOfRange`] or
    /// [`GateSimError::AddressOutOfRange`].
    pub fn sram_word_lane(
        &self,
        name: &str,
        lane: usize,
        addr: usize,
    ) -> Result<u64, GateSimError> {
        self.check_lane(lane)?;
        let idx = found(self.tape.sram_index(name), "SRAM macro", name)?;
        let depth = self.sram_depth(idx, addr)?;
        Ok(self.srams[idx].contents[lane * depth + addr])
    }

    /// Clears every lane's activity counters and starts a fresh
    /// measurement window: each lane's current read address becomes that
    /// port's baseline, so a port holding its line is not charged again.
    pub fn reset_activity(&mut self) {
        self.settle();
        self.planes.fill([0; PLANES]);
        self.live_cycles = 0;
        self.counts.fill(0);
        for st in &mut self.srams {
            st.reads.fill(0);
            st.writes.fill(0);
            st.prev_read_addr.clone_from(&st.read_addr);
        }
        self.reads_primed = true;
        self.settled_once = false;
        self.cycle = 0;
    }

    /// `(reads, writes)` per SRAM macro on one lane.
    fn sram_accesses(&self, lane: usize) -> Vec<(u64, u64)> {
        self.srams
            .iter()
            .map(|s| (s.reads[lane], s.writes[lane]))
            .collect()
    }

    /// Produces one lane's activity report, shaped exactly like a
    /// standalone [`crate::NaiveGateSim::activity`] report for the same
    /// netlist: per class, the flushed count plus the live planes.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::LaneOutOfRange`].
    pub fn activity_lane(&self, lane: usize) -> Result<ActivityReport, GateSimError> {
        self.check_lane(lane)?;
        let counts = self.counts.chunks_exact(self.lanes);
        let toggles = (self.planes.iter().zip(counts))
            .map(|(planes, counts)| {
                let live = (planes.iter().enumerate())
                    .fold(0, |live, (k, plane)| live | ((plane >> lane) & 1) << k);
                counts[lane] + live
            })
            .collect();
        Ok(ActivityReport::new(
            self.cycle,
            toggles,
            self.sram_accesses(lane),
        ))
    }

    /// Produces every lane's activity report, in lane order — the same
    /// reports as [`BatchSim::activity_lane`], one transpose per class.
    pub fn activities(&self) -> Vec<ActivityReport> {
        let classes = self.planes.len();
        let mut toggles: Vec<Vec<u64>> = (0..self.lanes)
            .map(|_| Vec::with_capacity(classes))
            .collect();
        for (planes, counts) in self.planes.iter().zip(self.counts.chunks_exact(self.lanes)) {
            let live = lane_counts(planes);
            for ((lane_toggles, &count), &live) in toggles.iter_mut().zip(counts).zip(&live) {
                lane_toggles.push(count + live);
            }
        }
        toggles
            .into_iter()
            .enumerate()
            .map(|(lane, t)| ActivityReport::new(self.cycle, t, self.sram_accesses(lane)))
            .collect()
    }
}

/// Adds the sixteen toggle words of `t` into the ones, twos, fours and
/// eights planes `p[0..4]` through a tree of fifteen carry-save adders
/// (Harley–Seal), and returns the sixteens carry: per lane, the four
/// planes' value plus the block's toggles equals their new value plus
/// sixteen times the carry bit.
#[inline(always)]
fn harley_seal(p: &mut [u64; PLANES], t: &Block) -> u64 {
    let (twos_a, ones) = csa(p[0], t[0], t[1]);
    let (twos_b, ones) = csa(ones, t[2], t[3]);
    let (fours_a, twos) = csa(p[1], twos_a, twos_b);
    let (twos_a, ones) = csa(ones, t[4], t[5]);
    let (twos_b, ones) = csa(ones, t[6], t[7]);
    let (fours_b, twos) = csa(twos, twos_a, twos_b);
    let (eights_a, fours) = csa(p[2], fours_a, fours_b);
    let (twos_a, ones) = csa(ones, t[8], t[9]);
    let (twos_b, ones) = csa(ones, t[10], t[11]);
    let (fours_a, twos) = csa(twos, twos_a, twos_b);
    let (twos_a, ones) = csa(ones, t[12], t[13]);
    let (twos_b, ones) = csa(ones, t[14], t[15]);
    let (fours_b, twos) = csa(twos, twos_a, twos_b);
    let (eights_b, fours) = csa(fours, fours_a, fours_b);
    let (sixteens, eights) = csa(p[3], eights_a, eights_b);
    p[..4].copy_from_slice(&[ones, twos, fours, eights]);
    sixteens
}

/// A carry-save adder, per bit: `a + b + c` as `(carry, sum)`.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

/// Each lane's count out of a class's planes: row `l` is lane `l`'s.
/// Plane `k` weighs `2^k`, so transposing the planes puts each lane's
/// count in its row as a binary number.
fn lane_counts(planes: &[u64; PLANES]) -> Rows {
    let mut rows = [0; MAX_LANES];
    rows[..PLANES].copy_from_slice(planes);
    transpose64(&mut rows);
    rows
}

/// Evaluates read port `port` of macro `s` on every lane: transposes the
/// address nets into one address per lane (kept in `st.read_addr` for the
/// edge), loads each lane's word (0 past the macro's depth), and
/// transposes the words back into the data nets.
fn read_port(
    s: &SramPorts,
    port: usize,
    st: &mut BatchSramState,
    values: &mut [u64],
    lanes: usize,
) {
    let rp = &s.read_ports[port];
    let addr = &mut st.read_addr[port];
    *addr = lane_words(values, &rp.addr);
    let mut words = [0; MAX_LANES];
    for (lane, (word, &a)) in words.iter_mut().zip(&addr[..lanes]).enumerate() {
        if let Some(a) = in_range(a, s.depth) {
            *word = st.contents[lane * s.depth + a];
        }
    }
    transpose64(&mut words);
    for (&d, &word) in rp.data.iter().zip(&words) {
        values[d as usize] = word;
    }
}

/// `addr` as an index when it is below `depth`.
fn in_range(addr: u64, depth: usize) -> Option<usize> {
    usize::try_from(addr).ok().filter(|&a| a < depth)
}

/// Each lane's value of the bus `slots` (at most 64 bits, least
/// significant first): row `l` of the result is lane `l`'s word.
fn lane_words(values: &[u64], slots: &[u32]) -> Rows {
    let mut rows = [0; MAX_LANES];
    for (row, &slot) in rows.iter_mut().zip(slots) {
        *row = values[slot as usize];
    }
    transpose64(&mut rows);
    rows
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `l` of
/// `rows[i]` is what bit `i` of `rows[l]` was. Six swap-block stages —
/// 32×32 blocks, then 16×16, down to single bits — of 32 masked
/// exchanges each, all in registers: the bridge between bit-sliced nets
/// (one word per bus bit, one bit per lane) and per-lane words.
pub(crate) fn transpose64(rows: &mut Rows) {
    swap_blocks::<32>(rows, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(rows, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(rows, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(rows, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(rows, 0x3333_3333_3333_3333);
    swap_blocks::<1>(rows, 0x5555_5555_5555_5555);
}

/// One stage of [`transpose64`]: in every `2J`-row band, exchanges the
/// high `J` bits of each `J`-bit group of the upper rows with the low
/// bits of the matching lower rows (`low` selects the low groups).
#[inline(always)]
fn swap_blocks<const J: usize>(rows: &mut Rows, low: u64) {
    for band in rows.chunks_exact_mut(2 * J) {
        let (upper, lower) = band.split_at_mut(J);
        for (u, l) in upper.iter_mut().zip(lower) {
            let t = ((*u >> J) ^ *l) & low;
            *u ^= t << J;
            *l ^= t;
        }
    }
}

/// The word mask with bits `0..lanes` set.
fn mask_for(lanes: usize) -> u64 {
    if lanes >= 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassMap, NaiveGateSim};
    use strober_dsl::Ctx;
    use strober_gates::{CellKind, NetId};
    use strober_rtl::Width;
    use strober_synth::{synthesize, SynthOptions};

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    fn plain() -> SynthOptions {
        SynthOptions {
            optimize: false,
            mangle: false,
            retime_prefixes: Vec::new(),
        }
    }

    fn counter_netlist() -> Netlist {
        let ctx = Ctx::new("counter");
        let en = ctx.input("en", Width::BIT);
        let count = ctx.reg("count", w(8), 0);
        count.set_en(&count.out().add_lit(1), &en);
        ctx.output("value", &count.out());
        synthesize(&ctx.finish().unwrap(), &plain())
            .unwrap()
            .netlist
    }

    #[test]
    fn lanes_advance_independently() {
        let mut sim = BatchSim::with_lanes(&counter_netlist(), 3).unwrap();
        sim.poke_port_lanes("en", &[1, 0, 1]).unwrap();
        sim.step_n(7);
        assert_eq!(sim.peek_port_lanes("value").unwrap(), vec![7, 0, 7]);
        sim.poke_port_lanes("en", &[0, 1, 1]).unwrap();
        sim.step_n(3);
        assert_eq!(sim.peek_port_lanes("value").unwrap(), vec![7, 3, 10]);
    }

    #[test]
    fn per_lane_activity_is_isolated() {
        let mut sim = BatchSim::with_lanes(&counter_netlist(), 2).unwrap();
        sim.poke_port_lanes("en", &[1, 0]).unwrap();
        sim.step_n(16);
        let busy = sim.activity_lane(0).unwrap();
        let idle = sim.activity_lane(1).unwrap();
        assert_eq!(busy.cycles(), 16);
        assert!(busy.total_toggles() > 16);
        assert_eq!(idle.total_toggles(), 0);
    }

    #[test]
    fn transpose_matches_the_naive_bit_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let identity: Rows = std::array::from_fn(|i| 1 << i);
        let single: Rows = std::array::from_fn(|i| u64::from(i == 5) << 63);
        for input in [[0; MAX_LANES], [!0; MAX_LANES], identity, single]
            .into_iter()
            .chain((0..20).map(|_| std::array::from_fn(|_| next())))
        {
            let mut naive = [0u64; MAX_LANES];
            for (i, out) in naive.iter_mut().enumerate() {
                for (l, &row) in input.iter().enumerate() {
                    *out |= ((row >> i) & 1) << l;
                }
            }
            let mut fast = input;
            transpose64(&mut fast);
            assert_eq!(fast, naive);
            transpose64(&mut fast);
            assert_eq!(fast, input, "a transpose is its own inverse");
        }
    }

    #[test]
    fn index_forms_match_the_name_keyed_ones() {
        let nl = counter_netlist();
        let mut by_name = BatchSim::with_lanes(&nl, 3).unwrap();
        let mut by_index = by_name.clone();
        let en = by_index.tape.input_index("en").unwrap();
        let value = by_index.tape.output_index("value").unwrap();
        assert!(by_index.tape.input_index("value").is_none());
        assert!(by_index.tape.output_index("en").is_none());
        for (cycle, stim) in [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
            .iter()
            .cycle()
            .take(9)
            .enumerate()
        {
            by_name.poke_port_lanes("en", stim).unwrap();
            by_index.poke_port_lanes_at(en, stim).unwrap();
            by_name.step();
            by_index.step();
            let mut got = [0; 3];
            by_index.peek_port_lanes_at(value, &mut got).unwrap();
            assert_eq!(
                by_name.peek_port_lanes("value").unwrap(),
                got,
                "cycle {cycle}"
            );
        }
        assert!(matches!(
            by_index.poke_port_lanes_at(en, &[0, 3, 0]),
            Err(GateSimError::ValueTooWide { ref port, value: 3, width: 1 }) if port == "en"
        ));
        assert!(matches!(
            by_index.peek_port_lanes_at(value, &mut [0; 2]),
            Err(GateSimError::BadLaneCount { lanes: 2 })
        ));
    }

    #[test]
    fn the_plane_transpose_puts_plane_k_in_bit_k() {
        // Lane 0 counted 1 (plane 0), lane 5 counted 2 + 2^15 (planes 1
        // and 15), lane 63 counted 65,535 (every plane); the rest none.
        let mut planes = [1u64 << 63; PLANES];
        planes[0] |= 1;
        planes[1] |= 1 << 5;
        planes[15] |= 1 << 5;
        let counts = lane_counts(&planes);
        assert_eq!(
            (counts[0], counts[5], counts[63]),
            (1, 2 + (1 << 15), 0xFFFF)
        );
        assert!(counts
            .iter()
            .enumerate()
            .all(|(l, &c)| c == 0 || [0, 5, 63].contains(&l)));
        assert_eq!(lane_counts(&[0; PLANES]), [0; MAX_LANES]);
    }

    #[test]
    fn a_net_toggling_on_every_lane_counts_exactly_across_flushes() {
        // One inverter on a register: its output flips every cycle on
        // every lane, so each of the 64 counters of its class must read
        // exactly the number of counted cycles — through three full
        // flushes and a partial window, read mid-window, from both
        // readers.
        let ctx = Ctx::new("blink");
        let r = ctx.reg("r", Width::BIT, 0);
        r.set(&!&r.out());
        ctx.output("o", &r.out());
        let nl = synthesize(&ctx.finish().unwrap(), &plain())
            .unwrap()
            .netlist;
        let q = ClassMap::new(&nl).class_of(nl.outputs()[0].1).unwrap();
        let mut sim = BatchSim::new(&nl).unwrap();
        assert_eq!(sim.flush_every, MAX_FLUSH_EVERY, "single-net classes");
        for cycles in [1u64, 255, 256, 257, 600, 1_000] {
            sim.step_n(cycles - sim.cycle());
            // The first settled cycle is the baseline, not a toggle.
            let want = cycles - 1;
            let all = sim.activities();
            for lane in [0, 31, 63] {
                let report = sim.activity_lane(lane).unwrap();
                assert_eq!(report.class_toggles()[q], want, "lane {lane} at {cycles}");
                assert_eq!(report, all[lane], "readers disagree at {cycles}");
            }
        }
        assert!(all_lanes_equal(&sim.activities()));
    }

    /// A register toggling every cycle and `n` inverters reading it: the
    /// inverters share region, kind and fanout (none), so they are one
    /// class of `n` nets that all toggle on every cycle of every lane.
    fn blinkers(n: usize) -> Netlist {
        let mut nl = Netlist::new("blinkers");
        let q = nl.add_net("q");
        let d = nl.add_net("d");
        nl.add_gate(CellKind::Inv, vec![q], d, 0);
        nl.add_dff("r_reg", d, q, false, 0);
        for i in 0..n {
            let out = nl.add_net(format!("o{i}"));
            nl.add_gate(CellKind::Inv, vec![q], out, 0);
        }
        nl.add_output("q", q);
        nl
    }

    #[test]
    fn a_big_always_toggling_class_counts_exactly_past_two_flushes() {
        let nl = blinkers(3_000);
        let map = ClassMap::new(&nl);
        let big = map.class_of(NetId::from_index(2)).unwrap();
        for lanes in [1, 64] {
            let mut sim = BatchSim::with_lanes(&nl, lanes).unwrap();
            // 3,000 toggles a cycle fill 16 planes in 21 cycles.
            assert_eq!(sim.flush_every, 21);
            let mut reference = NaiveGateSim::new(&nl).unwrap();
            for cycles in [1u64, 20, 21, 22, 23, 42, 43, 44, 50] {
                let steps = cycles - sim.cycle();
                sim.step_n(steps);
                reference.step_n(steps);
                let want = reference.activity();
                assert_eq!(want.class_toggles()[big], 3_000 * (cycles - 1));
                assert_eq!(want.class_toggles(), map.totals(reference.net_toggles()));
                let all = sim.activities();
                for lane in [0, lanes / 2, lanes - 1] {
                    let at = format!("lane {lane} of {lanes} at {cycles}");
                    assert_eq!(sim.activity_lane(lane).unwrap(), want, "{at}");
                    assert_eq!(all[lane], want, "{at}");
                }
            }
        }
    }

    fn all_lanes_equal(reports: &[ActivityReport]) -> bool {
        reports.windows(2).all(|p| p[0] == p[1])
    }

    #[test]
    fn dff_load_per_lane() {
        let mut sim = BatchSim::with_lanes(&counter_netlist(), 2).unwrap();
        for i in 0..8 {
            // Lane 0 gets 0x2A, lane 1 gets 0x15.
            let packed = u64::from((0x2Au32 >> i) & 1) | (u64::from((0x15u32 >> i) & 1) << 1);
            let dff = sim.tape.dff_index(&format!("count_reg_{i}_")).unwrap();
            sim.set_dff_lanes_at(dff, packed);
        }
        assert_eq!(sim.peek_port_lane("value", 0).unwrap(), 0x2A);
        assert_eq!(sim.peek_port_lane("value", 1).unwrap(), 0x15);
        assert!(sim.dff_value_lane("count_reg_1_", 0).unwrap());
        assert!(!sim.dff_value_lane("count_reg_1_", 1).unwrap());
        assert!(sim.tape.dff_index("nope").is_none());
    }

    #[test]
    fn sram_contents_are_per_lane() {
        let ctx = Ctx::new("ram");
        let m = ctx.mem("buf", w(16), 32);
        let addr = ctx.input("addr", w(5));
        let data = ctx.input("data", w(16));
        let we = ctx.input("we", Width::BIT);
        ctx.output("q", &m.read(&addr));
        m.write(&addr, &data, &we);
        let nl = synthesize(&ctx.finish().unwrap(), &plain())
            .unwrap()
            .netlist;
        let mut sim = BatchSim::with_lanes(&nl, 2).unwrap();
        sim.set_sram_word_lane("buf_macro", 0, 7, 0xBEEF).unwrap();
        sim.set_sram_word_lane("buf_macro", 1, 7, 0xCAFE).unwrap();
        assert_eq!(sim.sram_word_lane("buf_macro", 0, 7).unwrap(), 0xBEEF);
        assert_eq!(sim.sram_word_lane("buf_macro", 1, 7).unwrap(), 0xCAFE);
        sim.poke_port_broadcast("addr", 7).unwrap();
        sim.poke_port_broadcast("we", 0).unwrap();
        sim.poke_port_broadcast("data", 0).unwrap();
        assert_eq!(sim.peek_port_lanes("q").unwrap(), vec![0xBEEF, 0xCAFE]);
        // Lane 1 writes a new value at address 3; lane 0 does not.
        sim.poke_port_lanes("addr", &[7, 3]).unwrap();
        sim.poke_port_lanes("we", &[0, 1]).unwrap();
        sim.poke_port_lanes("data", &[0, 0x1234]).unwrap();
        sim.step();
        assert_eq!(sim.sram_word_lane("buf_macro", 0, 3).unwrap(), 0);
        assert_eq!(sim.sram_word_lane("buf_macro", 1, 3).unwrap(), 0x1234);
        let (r0, w0) = sim.activity_lane(0).unwrap().sram_accesses()[0];
        let (r1, w1) = sim.activity_lane(1).unwrap().sram_accesses()[0];
        assert_eq!(w0, 0);
        assert_eq!(w1, 1);
        assert!(r0 >= 1 && r1 >= 1);

        // Whole-lane images by index: lane 0's first three words change,
        // the rest and lane 1 keep theirs; an image deeper than the
        // macro names the first address past it.
        let idx = sim.tape.sram_index("buf_macro").unwrap();
        sim.set_sram_lane(idx, 0, &[1, 2, 3]).unwrap();
        assert_eq!(sim.sram_word_lane("buf_macro", 0, 2).unwrap(), 3);
        assert_eq!(sim.sram_word_lane("buf_macro", 0, 7).unwrap(), 0xBEEF);
        assert_eq!(sim.sram_word_lane("buf_macro", 1, 0).unwrap(), 0);
        assert!(matches!(
            sim.set_sram_lane(idx, 1, &[0; 33]),
            Err(GateSimError::AddressOutOfRange { addr: 32, .. })
        ));
        assert!(matches!(
            sim.set_sram_lane(idx, 2, &[0]),
            Err(GateSimError::LaneOutOfRange { lane: 2, lanes: 2 })
        ));
    }

    #[test]
    fn lane_bounds_are_checked() {
        let nl = counter_netlist();
        assert!(matches!(
            BatchSim::with_lanes(&nl, 0),
            Err(GateSimError::BadLaneCount { lanes: 0 })
        ));
        assert!(matches!(
            BatchSim::with_lanes(&nl, 65),
            Err(GateSimError::BadLaneCount { lanes: 65 })
        ));
        let mut sim = BatchSim::with_lanes(&nl, 4).unwrap();
        assert!(matches!(
            sim.peek_port_lane("value", 4),
            Err(GateSimError::LaneOutOfRange { lane: 4, lanes: 4 })
        ));
        assert!(sim.poke_port_lanes("en", &[0, 1]).is_err());
        assert!(matches!(
            sim.poke_port_lanes("en", &[2, 0, 0, 0]),
            Err(GateSimError::ValueTooWide { .. })
        ));
    }

    #[test]
    fn full_64_lane_masking_is_sound() {
        let mut sim = BatchSim::new(&counter_netlist()).unwrap();
        assert_eq!(sim.lanes(), 64);
        let mut enables = [0u64; 64];
        enables[63] = 1;
        sim.poke_port_lanes("en", &enables).unwrap();
        sim.step_n(5);
        assert_eq!(sim.peek_port_lane("value", 63).unwrap(), 5);
        assert_eq!(sim.peek_port_lane("value", 0).unwrap(), 0);
        assert!(sim.activity_lane(63).unwrap().total_toggles() > 0);
        assert_eq!(sim.activity_lane(0).unwrap().total_toggles(), 0);
    }
}
