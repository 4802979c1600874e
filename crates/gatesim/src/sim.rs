//! The levelized gate-level simulator.

use crate::activity::ActivityReport;
use crate::compile::{eval_gates, RunKind, Tape};
use std::error::Error;
use std::fmt;
use strober_gates::{Netlist, NetlistError};

/// Errors produced by the gate-level simulators.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GateSimError {
    /// The netlist failed validation.
    BadNetlist(NetlistError),
    /// A named port, flip-flop or macro does not exist.
    UnknownName {
        /// What kind of thing was looked up.
        kind: &'static str,
        /// The name that was not found.
        name: String,
    },
    /// A poked value does not fit the port's bit count.
    ValueTooWide {
        /// The port name.
        port: String,
        /// The value poked.
        value: u64,
        /// The port's width in bits.
        width: u32,
    },
    /// An address was out of range for a macro.
    AddressOutOfRange {
        /// The macro name.
        sram: String,
        /// The offending address.
        addr: usize,
    },
    /// A batch simulator was asked for an unsupported lane count.
    BadLaneCount {
        /// The requested lane count (must be 1..=64).
        lanes: usize,
    },
    /// A lane index addressed past the batch's active lanes.
    LaneOutOfRange {
        /// The offending lane index.
        lane: usize,
        /// The number of active lanes.
        lanes: usize,
    },
}

impl fmt::Display for GateSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateSimError::BadNetlist(e) => write!(f, "bad netlist: {e}"),
            GateSimError::UnknownName { kind, name } => write!(f, "unknown {kind} `{name}`"),
            GateSimError::ValueTooWide { port, value, width } => {
                write!(f, "value {value:#x} too wide for {width}-bit port `{port}`")
            }
            GateSimError::AddressOutOfRange { sram, addr } => {
                write!(f, "address {addr} out of range for macro `{sram}`")
            }
            GateSimError::BadLaneCount { lanes } => {
                write!(f, "batch lane count {lanes} not in 1..=64")
            }
            GateSimError::LaneOutOfRange { lane, lanes } => {
                write!(f, "lane {lane} out of range for a {lanes}-lane batch")
            }
        }
    }
}

impl Error for GateSimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GateSimError::BadNetlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for GateSimError {
    fn from(e: NetlistError) -> Self {
        GateSimError::BadNetlist(e)
    }
}

/// The index of input port `name` on `tape`.
pub(crate) fn input_port(tape: &Tape, name: &str) -> Result<usize, GateSimError> {
    tape.input_index(name)
        .ok_or_else(|| GateSimError::UnknownName {
            kind: "input port",
            name: name.to_owned(),
        })
}

/// The index of output port `name` on `tape`.
pub(crate) fn output_port(tape: &Tape, name: &str) -> Result<usize, GateSimError> {
    tape.output_index(name)
        .ok_or_else(|| GateSimError::UnknownName {
            kind: "output port",
            name: name.to_owned(),
        })
}

/// Checks that `value` fits port `port`'s `width` bits.
pub(crate) fn check_fits(port: &str, value: u64, width: usize) -> Result<(), GateSimError> {
    if width < 64 && value >> width != 0 {
        return Err(GateSimError::ValueTooWide {
            port: port.to_owned(),
            value,
            width: width as u32,
        });
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct SramState {
    contents: Vec<u64>,
    /// Previous cycle's read addresses, for access counting.
    prev_read_addr: Vec<Option<usize>>,
    reads: u64,
    writes: u64,
}

/// The levelized zero-delay gate-level simulator.
///
/// Construction compiles the netlist once into a flat op tape (the
/// `compile` module, `DESIGN.md` §9); every cycle then interprets it over one
/// `bool` per net. For replaying many independent samples at once, prefer
/// [`crate::BatchSim`], which interprets the same tape over one 64-lane
/// word per net.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct GateSim {
    netlist: Netlist,
    tape: std::sync::Arc<Tape>,
    values: Vec<bool>,
    prev_values: Vec<bool>,
    toggles: Vec<u64>,
    /// Clock-edge scratch for DFF next-state values; reused every cycle so
    /// [`GateSim::step`] allocates nothing.
    dff_scratch: Vec<bool>,
    srams: Vec<SramState>,
    cycle: u64,
    dirty: bool,
    settled_once: bool,
}

impl GateSim {
    /// Compiles a netlist for simulation.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadNetlist`] if the netlist fails
    /// validation.
    pub fn new(netlist: &Netlist) -> Result<Self, GateSimError> {
        let _span = strober_probe::span("strober.gatesim.compile");
        let tape = std::sync::Arc::new(Tape::compile(netlist)?);
        Ok(Self::with_tape(tape, netlist))
    }

    /// Builds a simulator from a tape compiled earlier with
    /// [`Tape::compile`], skipping compilation entirely. The tape **must**
    /// have been compiled from this exact `netlist`; a session that caches
    /// the tape keyed by the design fingerprint (as the estimation server
    /// does) satisfies this by construction.
    pub fn with_tape(tape: std::sync::Arc<Tape>, netlist: &Netlist) -> Self {
        let mut srams = Vec::new();
        for s in netlist.srams() {
            let mut contents = s.init.clone();
            contents.resize(s.depth, 0);
            srams.push(SramState {
                contents,
                prev_read_addr: vec![None; s.read_ports.len()],
                reads: 0,
                writes: 0,
            });
        }

        let mut values = vec![false; tape.net_count];
        // Initialise DFF outputs to their reset values.
        for (&(_, q), &init) in tape.dffs.iter().zip(&tape.dff_inits) {
            values[q as usize] = init;
        }

        GateSim {
            prev_values: values.clone(),
            toggles: vec![0; tape.net_count],
            values,
            dff_scratch: vec![false; tape.dffs.len()],
            tape,
            srams,
            cycle: 0,
            dirty: true,
            settled_once: false,
            netlist: netlist.clone(),
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drives a word-level input port (bits `name[i]`).
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::ValueTooWide`].
    pub fn poke_port(&mut self, name: &str, value: u64) -> Result<(), GateSimError> {
        let port = input_port(&self.tape, name)?;
        let bits = &self.tape.inputs.bits[port];
        check_fits(name, value, bits.len())?;
        for (i, net) in bits.iter().enumerate() {
            self.values[net.index()] = (value >> i) & 1 == 1;
        }
        self.dirty = true;
        Ok(())
    }

    /// Reads a word-level output port.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] for an unknown output.
    pub fn peek_port(&mut self, name: &str) -> Result<u64, GateSimError> {
        let port = output_port(&self.tape, name)?;
        self.settle();
        let mut v = 0u64;
        for (i, net) in self.tape.outputs.bits[port].iter().enumerate() {
            if self.values[net.index()] {
                v |= 1 << i;
            }
        }
        Ok(v)
    }

    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        for run in &self.tape.runs {
            match run.kind {
                RunKind::Gate(kind) => eval_gates(kind, self.tape.gate_ops(run), &mut self.values),
                RunKind::SramRead => {
                    for op in self.tape.read_ops(run) {
                        let si = op.sram as usize;
                        let rp = &self.tape.srams[si].read_ports[op.port as usize];
                        let mut addr = 0usize;
                        for (i, a) in rp.addr.iter().enumerate() {
                            if self.values[a.index()] {
                                addr |= 1 << i;
                            }
                        }
                        let word = self.srams[si].contents.get(addr).copied().unwrap_or(0);
                        for (i, d) in rp.data.iter().enumerate() {
                            self.values[d.index()] = (word >> i) & 1 == 1;
                        }
                    }
                }
            }
        }
        self.dirty = false;
    }

    /// Advances one clock cycle: settle, count toggles against the previous
    /// settled state, latch flip-flops, commit SRAM writes, count SRAM
    /// accesses.
    pub fn step(&mut self) {
        self.settle();

        // Toggle counting: transitions between consecutive settled cycles
        // (zero-delay semantics; glitches are not modelled, as with a
        // cycle-based SAIF flow).
        if self.settled_once {
            for i in 0..self.values.len() {
                if self.values[i] != self.prev_values[i] {
                    self.toggles[i] += 1;
                }
            }
        }
        self.prev_values.copy_from_slice(&self.values);
        self.settled_once = true;

        // SRAM access counting and writes.
        for (si, s) in self.netlist.srams().iter().enumerate() {
            for (pi, rp) in s.read_ports.iter().enumerate() {
                let mut addr = 0usize;
                for (i, a) in rp.addr.iter().enumerate() {
                    if self.values[a.index()] {
                        addr |= 1 << i;
                    }
                }
                // A read access is charged when the port visits a new
                // address; a quiescent port holding one line costs leakage
                // only.
                if self.srams[si].prev_read_addr[pi] != Some(addr) {
                    self.srams[si].reads += 1;
                    self.srams[si].prev_read_addr[pi] = Some(addr);
                }
            }
            for wp in &s.write_ports {
                if self.values[wp.enable.index()] {
                    let mut addr = 0usize;
                    for (i, a) in wp.addr.iter().enumerate() {
                        if self.values[a.index()] {
                            addr |= 1 << i;
                        }
                    }
                    let mut word = 0u64;
                    for (i, d) in wp.data.iter().enumerate() {
                        if self.values[d.index()] {
                            word |= 1 << i;
                        }
                    }
                    if let Some(slot) = self.srams[si].contents.get_mut(addr) {
                        *slot = word;
                        self.srams[si].writes += 1;
                    }
                }
            }
        }

        // Latch flip-flops: capture every D into the reusable scratch
        // buffer first, then commit, so a flop feeding another flop's D
        // input transfers its pre-edge value (two-phase clock-edge
        // semantics, no per-cycle allocation).
        for (slot, &(d, _)) in self.dff_scratch.iter_mut().zip(&self.tape.dffs) {
            *slot = self.values[d as usize];
        }
        for (&v, &(_, q)) in self.dff_scratch.iter().zip(&self.tape.dffs) {
            self.values[q as usize] = v;
        }

        self.cycle += 1;
        self.dirty = true;
    }

    /// Advances `n` cycles.
    pub fn step_n(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Sets a flip-flop's current value by instance name (the snapshot
    /// loading primitive; see [`crate::VpiLoader`]).
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] for an unknown instance.
    pub fn set_dff(&mut self, name: &str, value: bool) -> Result<(), GateSimError> {
        let &idx = self
            .tape
            .dff_by_name
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "flip-flop",
                name: name.to_owned(),
            })?;
        let (_, q) = self.tape.dffs[idx];
        self.values[q as usize] = value;
        self.prev_values[q as usize] = value;
        self.dirty = true;
        Ok(())
    }

    /// Reads a flip-flop's current value by instance name.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] for an unknown instance.
    pub fn dff_value(&self, name: &str) -> Result<bool, GateSimError> {
        let &idx = self
            .tape
            .dff_by_name
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "flip-flop",
                name: name.to_owned(),
            })?;
        let (_, q) = self.tape.dffs[idx];
        Ok(self.values[q as usize])
    }

    /// Writes one word of an SRAM macro by instance name.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::AddressOutOfRange`].
    pub fn set_sram_word(
        &mut self,
        name: &str,
        addr: usize,
        value: u64,
    ) -> Result<(), GateSimError> {
        let &idx = self
            .tape
            .sram_by_name
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "SRAM macro",
                name: name.to_owned(),
            })?;
        let s = &mut self.srams[idx];
        let slot = s
            .contents
            .get_mut(addr)
            .ok_or_else(|| GateSimError::AddressOutOfRange {
                sram: name.to_owned(),
                addr,
            })?;
        *slot = value;
        self.dirty = true;
        Ok(())
    }

    /// Reads one word of an SRAM macro by instance name.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::AddressOutOfRange`].
    pub fn sram_word(&self, name: &str, addr: usize) -> Result<u64, GateSimError> {
        let &idx = self
            .tape
            .sram_by_name
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "SRAM macro",
                name: name.to_owned(),
            })?;
        self.srams[idx]
            .contents
            .get(addr)
            .copied()
            .ok_or_else(|| GateSimError::AddressOutOfRange {
                sram: name.to_owned(),
                addr,
            })
    }

    /// Clears activity counters and starts a fresh measurement window.
    ///
    /// The current combinational state becomes the window's baseline: SRAM
    /// read ports holding their current address are not charged a new
    /// access, avoiding a per-window boundary bias during snapshot replay.
    pub fn reset_activity(&mut self) {
        self.settle();
        self.toggles.iter_mut().for_each(|t| *t = 0);
        for (si, s) in self.netlist.srams().iter().enumerate() {
            self.srams[si].reads = 0;
            self.srams[si].writes = 0;
            for (pi, rp) in s.read_ports.iter().enumerate() {
                let mut addr = 0usize;
                for (i, a) in rp.addr.iter().enumerate() {
                    if self.values[a.index()] {
                        addr |= 1 << i;
                    }
                }
                self.srams[si].prev_read_addr[pi] = Some(addr);
            }
        }
        self.settled_once = false;
        self.cycle = 0;
    }

    /// Produces the activity report (SAIF analog) for the cycles simulated
    /// since construction or the last [`GateSim::reset_activity`].
    pub fn activity(&self) -> ActivityReport {
        ActivityReport::new(
            self.cycle,
            self.toggles.clone(),
            self.srams.iter().map(|s| (s.reads, s.writes)).collect(),
        )
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
        let design = ctx.finish().unwrap();
        synthesize(&design, &plain()).unwrap().netlist
    }

    #[test]
    fn gate_level_counter_counts() {
        let mut sim = GateSim::new(&counter_netlist()).unwrap();
        sim.poke_port("en", 1).unwrap();
        sim.step_n(10);
        assert_eq!(sim.peek_port("value").unwrap(), 10);
        sim.poke_port("en", 0).unwrap();
        sim.step_n(5);
        assert_eq!(sim.peek_port("value").unwrap(), 10);
    }

    #[test]
    fn toggle_counting_reflects_activity() {
        let mut sim = GateSim::new(&counter_netlist()).unwrap();
        sim.poke_port("en", 1).unwrap();
        sim.step_n(16);
        let act = sim.activity();
        assert_eq!(act.cycles(), 16);
        // Bit 0 of the counter toggles every cycle; total toggles must be
        // substantial.
        assert!(act.total_toggles() > 16);
    }

    #[test]
    fn idle_circuit_has_no_toggles() {
        let mut sim = GateSim::new(&counter_netlist()).unwrap();
        sim.poke_port("en", 0).unwrap();
        sim.step_n(16);
        assert_eq!(sim.activity().total_toggles(), 0);
    }

    #[test]
    fn dff_poke_by_name() {
        let mut sim = GateSim::new(&counter_netlist()).unwrap();
        // Load 0x2A into the counter via its DFF instances.
        for i in 0..8 {
            sim.set_dff(&format!("count_reg_{i}_"), (0x2A >> i) & 1 == 1)
                .unwrap();
        }
        assert_eq!(sim.peek_port("value").unwrap(), 0x2A);
        assert!(sim.dff_value("count_reg_1_").unwrap());
        assert!(sim.set_dff("nope", true).is_err());
    }

    #[test]
    fn dff_chain_latches_pre_edge_values() {
        // A flop feeding another flop's D input: on a clock edge the
        // second stage must capture the first stage's *pre-edge* value,
        // whatever order the netlist lists the flops in. Regression test
        // for the two-phase (capture-then-commit) latch in `step`.
        let ctx = Ctx::new("shift");
        let x = ctx.input("x", Width::BIT);
        let s1 = ctx.reg("s1", Width::BIT, 0);
        let s2 = ctx.reg("s2", Width::BIT, 0);
        s1.set(&x);
        s2.set(&s1.out());
        ctx.output("y", &s2.out());
        let nl = synthesize(&ctx.finish().unwrap(), &plain())
            .unwrap()
            .netlist;
        let mut sim = GateSim::new(&nl).unwrap();
        let pattern = [1u64, 0, 0, 1, 1, 0, 1, 0];
        let mut seen = Vec::new();
        for &bit in &pattern {
            sim.poke_port("x", bit).unwrap();
            sim.step();
            seen.push(sim.peek_port("y").unwrap());
        }
        // Reading y after step k must show pattern[k-2]: the first edge
        // moves pattern[0] only into s1, so y still shows the reset value;
        // the second edge moves it to s2. A commit that lets s2 see s1's
        // *post-edge* value would collapse the chain to a one-cycle delay
        // ([1, 0, 0, 1, ...] here).
        assert_eq!(seen, vec![0, 1, 0, 0, 1, 1, 0, 1]);
    }

    #[test]
    fn sram_load_and_read() {
        let ctx = Ctx::new("ram");
        let m = ctx.mem("buf", w(16), 32);
        let addr = ctx.input("addr", w(5));
        ctx.output("q", &m.read(&addr));
        let design = ctx.finish().unwrap();
        let nl = synthesize(&design, &plain()).unwrap().netlist;
        let mut sim = GateSim::new(&nl).unwrap();
        sim.set_sram_word("buf_macro", 7, 0xBEEF).unwrap();
        assert_eq!(sim.sram_word("buf_macro", 7).unwrap(), 0xBEEF);
        sim.poke_port("addr", 7).unwrap();
        assert_eq!(sim.peek_port("q").unwrap(), 0xBEEF);
        assert!(sim.set_sram_word("buf_macro", 99, 0).is_err());
        assert!(sim.sram_word("nope", 0).is_err());
    }

    #[test]
    fn sram_access_counting() {
        let ctx = Ctx::new("ram");
        let m = ctx.mem("buf", w(16), 32);
        let addr = ctx.input("addr", w(5));
        ctx.output("q", &m.read(&addr));
        let design = ctx.finish().unwrap();
        let nl = synthesize(&design, &plain()).unwrap().netlist;
        let mut sim = GateSim::new(&nl).unwrap();
        // Sweeping addresses charges a read per new address.
        for a in 0..8 {
            sim.poke_port("addr", a).unwrap();
            sim.step();
        }
        let sweeping = sim.activity().sram_accesses()[0].0;
        sim.reset_activity();
        // Holding one address is a single access then quiescent.
        sim.poke_port("addr", 3).unwrap();
        sim.step_n(8);
        let holding = sim.activity().sram_accesses()[0].0;
        assert!(sweeping >= 8);
        assert!(holding <= 1);
    }

    #[test]
    fn value_too_wide_rejected() {
        let mut sim = GateSim::new(&counter_netlist()).unwrap();
        assert!(matches!(
            sim.poke_port("en", 2),
            Err(GateSimError::ValueTooWide { .. })
        ));
        assert!(sim.poke_port("nope", 0).is_err());
        assert!(sim.peek_port("nope").is_err());
    }
}
