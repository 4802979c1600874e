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
//! Activity counting is word-wide too. Each net's 64 per-lane toggle
//! counters live as eight bit planes — bit `l` of plane `k` is bit `k`
//! of lane `l`'s count — and every cycle adds the toggle word
//! `(new ^ old) & lane_mask` into them through a chain of AND/XOR, one
//! pass over the nets that does no per-lane work and takes no per-net
//! branch, whatever the activity. Every 255 counted cycles the planes are
//! flushed into per-lane `u32` counters, and the activity readers add
//! both.
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
use crate::compile::{eval_gates, RunKind, SramPorts, Tape};
use crate::sim::{check_fits, found, GateSimError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use strober_gates::{NetId, Netlist};

/// The maximum number of bit-lanes a [`BatchSim`] can carry: one sample
/// per bit of a `u64`.
pub const MAX_LANES: usize = 64;

/// One word per lane, or one word per bit of a bus: the two sides of a
/// [`transpose64`].
type Rows = [u64; MAX_LANES];

/// Bit planes per net in the live toggle counters.
const PLANES: usize = 8;

/// Counted cycles between flushes of the bit planes: the largest count
/// [`PLANES`] bits hold, so a plane never overflows.
const FLUSH_EVERY: u32 = (1 << PLANES) - 1;

/// Nets per block of the counting pass: the block's carry words stay in
/// L1 while each plane's row streams past.
const COUNT_BLOCK: usize = 512;

/// Byte `i` of `SPREAD[b]` is bit `i` of `b`: spreads eight lanes' bits
/// of one plane into eight byte-wide counters.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            table[b] |= ((b as u64 >> i) & 1) << (8 * i);
            i += 1;
        }
        b += 1;
    }
    table
};

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
    /// One word per net; bit `l` = the net's value in lane `l`.
    values: Vec<u64>,
    prev_values: Vec<u64>,
    /// Toggle counts since the last flush as bit planes, laid out
    /// `[plane * nets + net]`: bit `l` of plane `k` is bit `k` of lane
    /// `l`'s count.
    planes: Vec<u64>,
    /// Cycles counted into `planes` since the last flush.
    live_cycles: u32,
    /// Flushed per-lane toggle counts, laid out `[net * lanes + lane]`.
    flushed: Vec<u32>,
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
    /// Counting toggles, flushes of the bit planes included.
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

        let mut values = vec![0u64; tape.net_count];
        // Reset values broadcast to every lane.
        for (&(_, q), &init) in tape.dffs.iter().zip(&tape.dff_inits) {
            values[q as usize] = if init { !0 } else { 0 };
        }

        Ok(BatchSim {
            prev_values: values.clone(),
            planes: vec![0; PLANES * tape.net_count],
            live_cycles: 0,
            flushed: vec![0; tape.net_count * lanes],
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
        for (net, &word) in bits.iter().zip(&rows) {
            self.values[net.index()] = word;
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
        for (i, net) in bits.iter().enumerate() {
            self.values[net.index()] = if (value >> i) & 1 == 1 { !0 } else { 0 };
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
            self.prev_values.copy_from_slice(&self.values);
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
                let mut enabled = self.values[wp.enable.index()] & self.lane_mask;
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

    /// Adds this cycle's toggle word `(new ^ old) & lane_mask` of every
    /// net into its bit planes, and makes the new values the old ones.
    ///
    /// Per net the add is branch-free — sum `p ^ c`, carry `p & c`, plane
    /// after plane — so the loop vectorises over nets. It runs over
    /// blocks of [`COUNT_BLOCK`] nets, whose carries stay in L1 while each
    /// plane's row streams past, and a block stops at the first plane no
    /// net of it carries into: one well-predicted branch per 512 nets,
    /// where a per-net early exit would mispredict (DESIGN.md §9).
    fn count_toggles(&mut self) {
        let nets = self.values.len();
        let mask = self.lane_mask;
        let mut carry = [0u64; COUNT_BLOCK];
        for start in (0..nets).step_by(COUNT_BLOCK) {
            let end = (start + COUNT_BLOCK).min(nets);
            let carry = &mut carry[..end - start];
            let new = &self.values[start..end];
            let old = &mut self.prev_values[start..end];
            for ((c, &n), o) in carry.iter_mut().zip(new).zip(old) {
                *c = (n ^ *o) & mask;
                *o = n;
            }
            for row in self.planes.chunks_exact_mut(nets) {
                let mut carried = 0;
                for (bit, c) in row[start..end].iter_mut().zip(carry.iter_mut()) {
                    let b = *bit;
                    *bit = b ^ *c;
                    *c &= b;
                    carried |= *c;
                }
                if carried == 0 {
                    break;
                }
            }
        }
        self.live_cycles += 1;
        if self.live_cycles == FLUSH_EVERY {
            self.flush();
        }
    }

    /// Adds the plane counts into the per-lane `u32` counters and clears
    /// the planes.
    ///
    /// # Panics
    ///
    /// Panics if the activity window has reached 2³² − 1 cycles: the
    /// flushed counters could no longer be trusted not to wrap.
    fn flush(&mut self) {
        assert!(
            self.cycle < u64::from(u32::MAX),
            "activity windows must stay under 2^32 cycles; call reset_activity sooner"
        );
        let nets = self.values.len();
        for (net, counts) in self.flushed.chunks_exact_mut(self.lanes).enumerate() {
            let live = live_bytes(&self.planes, nets, net);
            if live == [0; 8] {
                continue;
            }
            for (lane, count) in counts.iter_mut().enumerate() {
                *count += lane_byte(&live, lane);
            }
        }
        self.planes.fill(0);
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
        self.planes.fill(0);
        self.live_cycles = 0;
        self.flushed.fill(0);
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
    /// netlist (so [`strober_power`-style](ActivityReport) analyzers
    /// consume it unchanged): flushed counts plus the live planes.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::LaneOutOfRange`].
    pub fn activity_lane(&self, lane: usize) -> Result<ActivityReport, GateSimError> {
        self.check_lane(lane)?;
        let nets = self.tape.net_count;
        let toggles = (0..nets)
            .map(|net| {
                let live = (0..PLANES).fold(0, |count, k| {
                    count | ((self.planes[k * nets + net] >> lane) & 1) << k
                });
                u64::from(self.flushed[net * self.lanes + lane]) + live
            })
            .collect();
        Ok(ActivityReport::new(
            self.cycle,
            toggles,
            self.sram_accesses(lane),
        ))
    }

    /// Produces every lane's activity report, in lane order — the same
    /// reports as [`BatchSim::activity_lane`], in one pass over the nets.
    pub fn activities(&self) -> Vec<ActivityReport> {
        let nets = self.tape.net_count;
        let mut toggles: Vec<Vec<u64>> =
            (0..self.lanes).map(|_| Vec::with_capacity(nets)).collect();
        for (net, flushed) in self.flushed.chunks_exact(self.lanes).enumerate() {
            let live = live_bytes(&self.planes, nets, net);
            for (lane, (lane_toggles, &count)) in toggles.iter_mut().zip(flushed).enumerate() {
                lane_toggles.push(u64::from(count) + u64::from(lane_byte(&live, lane)));
            }
        }
        toggles
            .into_iter()
            .enumerate()
            .map(|(lane, t)| ActivityReport::new(self.cycle, t, self.sram_accesses(lane)))
            .collect()
    }
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
    for (d, &word) in rp.data.iter().zip(&words) {
        values[d.index()] = word;
    }
}

/// `addr` as an index when it is below `depth`.
fn in_range(addr: u64, depth: usize) -> Option<usize> {
    usize::try_from(addr).ok().filter(|&a| a < depth)
}

/// Each lane's value of the bus `nets` (at most 64 bits, least
/// significant first): row `l` of the result is lane `l`'s word.
fn lane_words(values: &[u64], nets: &[NetId]) -> Rows {
    let mut rows = [0; MAX_LANES];
    for (row, net) in rows.iter_mut().zip(nets) {
        *row = values[net.index()];
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

/// `net`'s live plane counts, one byte per lane: byte `j` of word `g` is
/// lane `8g + j`'s count. Exact because a count never exceeds
/// [`FLUSH_EVERY`], so no byte carries into the next.
fn live_bytes(planes: &[u64], nets: usize, net: usize) -> [u64; 8] {
    let mut bytes = [0u64; 8];
    for k in 0..PLANES {
        let word = planes[k * nets + net];
        for (g, b) in bytes.iter_mut().enumerate() {
            *b |= SPREAD[((word >> (8 * g)) & 0xFF) as usize] << k;
        }
    }
    bytes
}

/// Lane `lane`'s count out of [`live_bytes`].
fn lane_byte(bytes: &[u64; 8], lane: usize) -> u32 {
    ((bytes[lane / 8] >> (8 * (lane % 8))) & 0xFF) as u32
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
    use strober_dsl::Ctx;
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

    fn counter_netlist() -> strober_gates::Netlist {
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
    fn the_spread_table_puts_bit_i_in_byte_i() {
        assert_eq!(SPREAD[0], 0);
        assert_eq!(SPREAD[0b1000_0101], 0x0100_0000_0001_0001);
        assert_eq!(SPREAD[0xFF], 0x0101_0101_0101_0101);
    }

    #[test]
    fn a_net_toggling_on_every_lane_counts_exactly_across_flushes() {
        // One inverter on a register: its output flips every cycle on
        // every lane, so each of the 64 counters must read exactly the
        // number of counted cycles — through three full flushes and a
        // partial window, read mid-window, from both readers.
        let ctx = Ctx::new("blink");
        let r = ctx.reg("r", Width::BIT, 0);
        r.set(&!&r.out());
        ctx.output("o", &r.out());
        let nl = synthesize(&ctx.finish().unwrap(), &plain())
            .unwrap()
            .netlist;
        let q = nl.outputs()[0].1.index();
        let mut sim = BatchSim::new(&nl).unwrap();
        for cycles in [1u64, 254, 255, 256, 600, 1_000] {
            sim.step_n(cycles - sim.cycle());
            // The first settled cycle is the baseline, not a toggle.
            let want = cycles - 1;
            let all = sim.activities();
            for lane in [0, 31, 63] {
                let report = sim.activity_lane(lane).unwrap();
                assert_eq!(report.toggles()[q], want, "lane {lane} at {cycles}");
                assert_eq!(report, all[lane], "readers disagree at {cycles}");
            }
        }
        assert!(all_lanes_equal(&sim.activities()));
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
