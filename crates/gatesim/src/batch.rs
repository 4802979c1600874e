//! Bit-parallel batched gate-level simulation: 64 replays per pass.
//!
//! [`BatchSim`] evaluates the same compiled op tape as [`crate::GateSim`],
//! but over one `u64` *word* per net instead of one `bool`: bit-lane `l`
//! of every word holds the value of that net in replay `l`. A single
//! AND/OR/XOR/NOT pass over the tape therefore advances up to 64
//! independent sample replays at once — the classic bit-parallel
//! ("PLP") gate simulation restructuring, applied to Strober's replay
//! stage where every snapshot runs the *same* netlist for the *same*
//! number of cycles and only the data differs.
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
//! What stays lane-wise (scalar per lane) is the SRAM read/write ports:
//! each lane addresses its own copy of the macro contents, so addresses
//! and data are gathered/scattered per lane.
//!
//! The result is bit-identical to running 64 separate [`crate::GateSim`]
//! replays (a property enforced by the `batch_equiv` differential test),
//! at a fraction of the cost.
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
use crate::compile::{Step, Tape};
use crate::sim::GateSimError;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use strober_gates::{CellKind, Netlist};

/// The maximum number of bit-lanes a [`BatchSim`] can carry: one sample
/// per bit of a `u64`.
pub const MAX_LANES: usize = 64;

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
    /// Previous read address per `(port, lane)`, laid out
    /// `[port * lanes + lane]`.
    prev_read_addr: Vec<Option<usize>>,
    /// Read accesses charged, per lane.
    reads: Vec<u64>,
    /// Write accesses committed, per lane.
    writes: Vec<u64>,
}

/// The bit-parallel batched gate-level simulator.
///
/// Carries `lanes` (1..=[`MAX_LANES`]) independent replays of one netlist;
/// every lane sees identical zero-delay levelized semantics to a
/// standalone [`crate::GateSim`]. All lanes share the clock: one
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
    /// Per-lane address scratch for SRAM port evaluation; reused.
    lane_addr: Vec<usize>,
    srams: Vec<BatchSramState>,
    inputs: Vec<(u32, u64)>,
    input_index: HashMap<u32, usize>,
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
    /// Evaluating the gate tape, SRAM read ports included.
    pub settle: Duration,
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
    /// have been compiled from this exact `netlist` (see
    /// [`GateSim::with_tape`](crate::GateSim::with_tape)); only the SRAM
    /// macros' initial contents are read from it.
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
            srams.push(BatchSramState {
                contents,
                prev_read_addr: vec![None; s.read_ports.len() * lanes],
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
            lane_addr: vec![0; lanes],
            values,
            tape,
            lanes,
            lane_mask,
            srams,
            inputs: Vec::new(),
            input_index: HashMap::new(),
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

    /// Drives a word-level input port with one value per lane
    /// (`values[l]` goes to lane `l`; `values.len()` must equal
    /// [`BatchSim::lanes`]).
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`], [`GateSimError::BadLaneCount`]
    /// for a wrong-length slice, or [`GateSimError::ValueTooWide`] if any
    /// lane's value exceeds the port width.
    pub fn poke_port_lanes(&mut self, name: &str, values: &[u64]) -> Result<(), GateSimError> {
        if values.len() != self.lanes {
            return Err(GateSimError::BadLaneCount {
                lanes: values.len(),
            });
        }
        let bits = self
            .tape
            .port_bits
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "input port",
                name: name.to_owned(),
            })?;
        let width = bits.len() as u32;
        if let Some(&v) = values.iter().find(|&&v| width < 64 && v >> width != 0) {
            return Err(GateSimError::ValueTooWide {
                port: name.to_owned(),
                value: v,
                width,
            });
        }
        // Transpose: for each port bit, assemble the lane word.
        for (i, &net) in bits.iter().enumerate() {
            let mut word = 0u64;
            for (lane, &v) in values.iter().enumerate() {
                word |= ((v >> i) & 1) << lane;
            }
            match self.input_index.get(&net) {
                Some(&slot) => self.inputs[slot].1 = word,
                None => {
                    self.input_index.insert(net, self.inputs.len());
                    self.inputs.push((net, word));
                }
            }
        }
        self.dirty = true;
        Ok(())
    }

    /// Drives a word-level input port with the same value on every lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::ValueTooWide`].
    pub fn poke_port_broadcast(&mut self, name: &str, value: u64) -> Result<(), GateSimError> {
        let bits = self
            .tape
            .port_bits
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "input port",
                name: name.to_owned(),
            })?;
        let width = bits.len() as u32;
        if width < 64 && value >> width != 0 {
            return Err(GateSimError::ValueTooWide {
                port: name.to_owned(),
                value,
                width,
            });
        }
        for (i, &net) in bits.iter().enumerate() {
            let word = if (value >> i) & 1 == 1 { !0u64 } else { 0 };
            match self.input_index.get(&net) {
                Some(&slot) => self.inputs[slot].1 = word,
                None => {
                    self.input_index.insert(net, self.inputs.len());
                    self.inputs.push((net, word));
                }
            }
        }
        self.dirty = true;
        Ok(())
    }

    /// Reads a word-level output port on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::LaneOutOfRange`].
    pub fn peek_port_lane(&mut self, name: &str, lane: usize) -> Result<u64, GateSimError> {
        self.check_lane(lane)?;
        self.settle();
        let bits = self
            .tape
            .output_bits
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "output port",
                name: name.to_owned(),
            })?;
        let mut v = 0u64;
        for (i, &net) in bits.iter().enumerate() {
            v |= ((self.values[net as usize] >> lane) & 1) << i;
        }
        Ok(v)
    }

    /// Reads a word-level output port on every lane into `out`
    /// (`out.len()` must equal [`BatchSim::lanes`]). One name lookup and
    /// one settle serve all lanes — this is the hot-path form the replay
    /// loop uses for output-trace checking.
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
        if out.len() != self.lanes {
            return Err(GateSimError::BadLaneCount { lanes: out.len() });
        }
        self.settle();
        let bits = self
            .tape
            .output_bits
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "output port",
                name: name.to_owned(),
            })?;
        out.fill(0);
        for (i, &net) in bits.iter().enumerate() {
            let word = self.values[net as usize];
            for (lane, slot) in out.iter_mut().enumerate() {
                *slot |= ((word >> lane) & 1) << i;
            }
        }
        Ok(())
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

    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        let mut lap = Lap::start();
        for &(net, word) in &self.inputs {
            self.values[net as usize] = word;
        }
        for step in &self.tape.steps {
            match *step {
                Step::Gate(op) => {
                    let a = self.values[op.in0 as usize];
                    let b = self.values[op.in1 as usize];
                    let v = match op.kind {
                        CellKind::Inv => !a,
                        CellKind::Buf => a,
                        CellKind::Nand2 => !(a & b),
                        CellKind::Nor2 => !(a | b),
                        CellKind::And2 => a & b,
                        CellKind::Or2 => a | b,
                        CellKind::Xor2 => a ^ b,
                        CellKind::Xnor2 => !(a ^ b),
                        CellKind::Mux2 => {
                            let s = self.values[op.in2 as usize];
                            (b & s) | (a & !s)
                        }
                        CellKind::Tie0 => 0,
                        CellKind::Tie1 => !0,
                        CellKind::Dff => unreachable!("DFFs are not tape steps"),
                    };
                    self.values[op.out as usize] = v;
                }
                Step::SramRead { sram, port } => {
                    let si = sram as usize;
                    let s = &self.tape.srams[si];
                    let rp = &s.read_ports[port as usize];
                    let depth = s.depth;
                    for lane in 0..self.lanes {
                        let mut addr = 0usize;
                        for (i, a) in rp.addr.iter().enumerate() {
                            addr |= (((self.values[a.index()] >> lane) & 1) as usize) << i;
                        }
                        self.lane_addr[lane] = addr;
                    }
                    let st = &self.srams[si];
                    for (i, d) in rp.data.iter().enumerate() {
                        let mut w = 0u64;
                        for lane in 0..self.lanes {
                            let addr = self.lane_addr[lane];
                            let word = if addr < depth {
                                st.contents[lane * depth + addr]
                            } else {
                                0
                            };
                            w |= ((word >> i) & 1) << lane;
                        }
                        self.values[d.index()] = w;
                    }
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

        // SRAM access counting and writes, lane by lane.
        for (si, s) in self.tape.srams.iter().enumerate() {
            let depth = s.depth;
            for (pi, rp) in s.read_ports.iter().enumerate() {
                for lane in 0..self.lanes {
                    let mut addr = 0usize;
                    for (i, a) in rp.addr.iter().enumerate() {
                        addr |= (((self.values[a.index()] >> lane) & 1) as usize) << i;
                    }
                    let slot = pi * self.lanes + lane;
                    if self.srams[si].prev_read_addr[slot] != Some(addr) {
                        self.srams[si].reads[lane] += 1;
                        self.srams[si].prev_read_addr[slot] = Some(addr);
                    }
                }
            }
            for wp in &s.write_ports {
                let mut enabled = self.values[wp.enable.index()] & self.lane_mask;
                while enabled != 0 {
                    let lane = enabled.trailing_zeros() as usize;
                    enabled &= enabled - 1;
                    let mut addr = 0usize;
                    for (i, a) in wp.addr.iter().enumerate() {
                        addr |= (((self.values[a.index()] >> lane) & 1) as usize) << i;
                    }
                    if addr >= depth {
                        continue;
                    }
                    let mut word = 0u64;
                    for (i, d) in wp.data.iter().enumerate() {
                        word |= ((self.values[d.index()] >> lane) & 1) << i;
                    }
                    self.srams[si].contents[lane * depth + addr] = word;
                    self.srams[si].writes[lane] += 1;
                }
            }
        }
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

    fn dff_index(&self, name: &str) -> Result<usize, GateSimError> {
        self.tape
            .dff_index(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "flip-flop",
                name: name.to_owned(),
            })
    }

    fn sram_index(&self, name: &str) -> Result<usize, GateSimError> {
        self.tape
            .sram_index(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "SRAM macro",
                name: name.to_owned(),
            })
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
        let q = self.tape.dffs[self.dff_index(name)?].1 as usize;
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
        let q = self.tape.dffs[self.dff_index(name)?].1 as usize;
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
        let idx = self.sram_index(name)?;
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
        let idx = self.sram_index(name)?;
        let depth = self.sram_depth(idx, addr)?;
        Ok(self.srams[idx].contents[lane * depth + addr])
    }

    /// Clears every lane's activity counters and starts a fresh
    /// measurement window, with the same window-boundary semantics as
    /// [`crate::GateSim::reset_activity`]: each lane's current read
    /// address becomes that port's baseline.
    pub fn reset_activity(&mut self) {
        self.settle();
        self.planes.fill(0);
        self.live_cycles = 0;
        self.flushed.fill(0);
        for (si, s) in self.tape.srams.iter().enumerate() {
            self.srams[si].reads.fill(0);
            self.srams[si].writes.fill(0);
            for (pi, rp) in s.read_ports.iter().enumerate() {
                for lane in 0..self.lanes {
                    let mut addr = 0usize;
                    for (i, a) in rp.addr.iter().enumerate() {
                        addr |= (((self.values[a.index()] >> lane) & 1) as usize) << i;
                    }
                    self.srams[si].prev_read_addr[pi * self.lanes + lane] = Some(addr);
                }
            }
        }
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
    /// standalone [`crate::GateSim::activity`] report for the same
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
