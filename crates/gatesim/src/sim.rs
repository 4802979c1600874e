//! The gate-level engines' error type and port-name resolution.

use std::error::Error;
use std::fmt;
use strober_gates::NetlistError;

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

/// The result of looking up the `kind` named `name`: `index`, or
/// [`GateSimError::UnknownName`] if the lookup found nothing.
pub(crate) fn found(
    index: Option<usize>,
    kind: &'static str,
    name: &str,
) -> Result<usize, GateSimError> {
    index.ok_or_else(|| GateSimError::UnknownName {
        kind,
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

#[cfg(test)]
mod tests {
    //! The single-replay behaviours, each run on both engines: the naive
    //! reference and a one-lane `BatchSim`.

    use super::*;
    use crate::{ActivityReport, BatchSim, NaiveGateSim};
    use strober_dsl::Ctx;
    use strober_gates::Netlist;
    use strober_rtl::Width;
    use strober_synth::{synthesize, SynthOptions};

    /// One replay, whichever engine carries it.
    trait Engine {
        fn poke(&mut self, port: &str, value: u64) -> Result<(), GateSimError>;
        fn peek(&mut self, port: &str) -> Result<u64, GateSimError>;
        fn set_dff(&mut self, name: &str, value: bool) -> Result<(), GateSimError>;
        fn dff(&self, name: &str) -> Result<bool, GateSimError>;
        fn set_word(&mut self, sram: &str, addr: usize, value: u64) -> Result<(), GateSimError>;
        fn word(&self, sram: &str, addr: usize) -> Result<u64, GateSimError>;
        fn step(&mut self);
        fn reset_activity(&mut self);
        fn activity(&self) -> ActivityReport;

        fn step_n(&mut self, n: u64) {
            for _ in 0..n {
                self.step();
            }
        }
    }

    impl Engine for NaiveGateSim<'_> {
        fn poke(&mut self, port: &str, value: u64) -> Result<(), GateSimError> {
            self.poke_port(port, value)
        }
        fn peek(&mut self, port: &str) -> Result<u64, GateSimError> {
            self.peek_port(port)
        }
        fn set_dff(&mut self, name: &str, value: bool) -> Result<(), GateSimError> {
            NaiveGateSim::set_dff(self, name, value)
        }
        fn dff(&self, name: &str) -> Result<bool, GateSimError> {
            self.dff_value(name)
        }
        fn set_word(&mut self, sram: &str, addr: usize, value: u64) -> Result<(), GateSimError> {
            self.set_sram_word(sram, addr, value)
        }
        fn word(&self, sram: &str, addr: usize) -> Result<u64, GateSimError> {
            self.sram_word(sram, addr)
        }
        fn step(&mut self) {
            NaiveGateSim::step(self);
        }
        fn reset_activity(&mut self) {
            NaiveGateSim::reset_activity(self);
        }
        fn activity(&self) -> ActivityReport {
            NaiveGateSim::activity(self)
        }
    }

    impl Engine for BatchSim {
        fn poke(&mut self, port: &str, value: u64) -> Result<(), GateSimError> {
            self.poke_port_broadcast(port, value)
        }
        fn peek(&mut self, port: &str) -> Result<u64, GateSimError> {
            self.peek_port_lane(port, 0)
        }
        fn set_dff(&mut self, name: &str, value: bool) -> Result<(), GateSimError> {
            self.set_dff_lane(name, 0, value)
        }
        fn dff(&self, name: &str) -> Result<bool, GateSimError> {
            self.dff_value_lane(name, 0)
        }
        fn set_word(&mut self, sram: &str, addr: usize, value: u64) -> Result<(), GateSimError> {
            self.set_sram_word_lane(sram, 0, addr, value)
        }
        fn word(&self, sram: &str, addr: usize) -> Result<u64, GateSimError> {
            self.sram_word_lane(sram, 0, addr)
        }
        fn step(&mut self) {
            BatchSim::step(self);
        }
        fn reset_activity(&mut self) {
            BatchSim::reset_activity(self);
        }
        fn activity(&self) -> ActivityReport {
            self.activity_lane(0).unwrap()
        }
    }

    /// Both engines over `netlist`, fresh: the table every test runs.
    fn engines(netlist: &Netlist) -> [Box<dyn Engine + '_>; 2] {
        [
            Box::new(NaiveGateSim::new(netlist).unwrap()),
            Box::new(BatchSim::with_lanes(netlist, 1).unwrap()),
        ]
    }

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
        let design = ctx.finish().unwrap();
        synthesize(&design, &plain()).unwrap().netlist
    }

    fn ram_netlist() -> Netlist {
        let ctx = Ctx::new("ram");
        let m = ctx.mem("buf", w(16), 32);
        let addr = ctx.input("addr", w(5));
        ctx.output("q", &m.read(&addr));
        let design = ctx.finish().unwrap();
        synthesize(&design, &plain()).unwrap().netlist
    }

    #[test]
    fn gate_level_counter_counts() {
        for mut sim in engines(&counter_netlist()) {
            sim.poke("en", 1).unwrap();
            sim.step_n(10);
            assert_eq!(sim.peek("value").unwrap(), 10);
            sim.poke("en", 0).unwrap();
            sim.step_n(5);
            assert_eq!(sim.peek("value").unwrap(), 10);
        }
    }

    #[test]
    fn toggle_counting_reflects_activity() {
        let nl = counter_netlist();
        let reports = engines(&nl).map(|mut sim| {
            sim.poke("en", 1).unwrap();
            sim.step_n(16);
            sim.activity()
        });
        for act in &reports {
            assert_eq!(act.cycles(), 16);
            // Bit 0 of the counter toggles every cycle; total toggles
            // must be substantial.
            assert!(act.total_toggles() > 16);
        }
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn idle_circuit_has_no_toggles() {
        for mut sim in engines(&counter_netlist()) {
            sim.poke("en", 0).unwrap();
            sim.step_n(16);
            assert_eq!(sim.activity().total_toggles(), 0);
        }
    }

    #[test]
    fn dff_poke_by_name() {
        for mut sim in engines(&counter_netlist()) {
            // Load 0x2A into the counter via its DFF instances.
            for i in 0..8 {
                sim.set_dff(&format!("count_reg_{i}_"), (0x2A >> i) & 1 == 1)
                    .unwrap();
            }
            assert_eq!(sim.peek("value").unwrap(), 0x2A);
            assert!(sim.dff("count_reg_1_").unwrap());
            assert!(sim.set_dff("nope", true).is_err());
            // A load is state, not activity.
            sim.step();
            assert_eq!(sim.activity().total_toggles(), 0);
        }
    }

    #[test]
    fn dff_chain_latches_pre_edge_values() {
        // A flop feeding another flop's D input: on a clock edge the
        // second stage must capture the first stage's *pre-edge* value,
        // whatever order the netlist lists the flops in.
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
        for mut sim in engines(&nl) {
            let pattern = [1u64, 0, 0, 1, 1, 0, 1, 0];
            let mut seen = Vec::new();
            for &bit in &pattern {
                sim.poke("x", bit).unwrap();
                sim.step();
                seen.push(sim.peek("y").unwrap());
            }
            // Reading y after step k must show pattern[k-2]: the first
            // edge moves pattern[0] only into s1, so y still shows the
            // reset value; the second edge moves it to s2. A commit that
            // lets s2 see s1's *post-edge* value would collapse the chain
            // to a one-cycle delay ([1, 0, 0, 1, ...] here).
            assert_eq!(seen, vec![0, 1, 0, 0, 1, 1, 0, 1]);
        }
    }

    #[test]
    fn sram_load_and_read() {
        for mut sim in engines(&ram_netlist()) {
            sim.set_word("buf_macro", 7, 0xBEEF).unwrap();
            assert_eq!(sim.word("buf_macro", 7).unwrap(), 0xBEEF);
            sim.poke("addr", 7).unwrap();
            assert_eq!(sim.peek("q").unwrap(), 0xBEEF);
            assert!(matches!(
                sim.set_word("buf_macro", 99, 0),
                Err(GateSimError::AddressOutOfRange { addr: 99, .. })
            ));
            assert!(matches!(
                sim.word("nope", 0),
                Err(GateSimError::UnknownName { .. })
            ));
        }
    }

    #[test]
    fn sram_access_counting() {
        let nl = ram_netlist();
        let counts = engines(&nl).map(|mut sim| {
            // Sweeping addresses charges a read per new address.
            for a in 0..8 {
                sim.poke("addr", a).unwrap();
                sim.step();
            }
            let sweeping = sim.activity().sram_accesses()[0].0;
            sim.reset_activity();
            // Holding one address is a single access then quiescent.
            sim.poke("addr", 3).unwrap();
            sim.step_n(8);
            (sweeping, sim.activity().sram_accesses()[0].0)
        });
        for &(sweeping, holding) in &counts {
            assert!(sweeping >= 8);
            assert!(holding <= 1);
        }
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn value_too_wide_rejected() {
        for mut sim in engines(&counter_netlist()) {
            assert!(matches!(
                sim.poke("en", 2),
                Err(GateSimError::ValueTooWide {
                    value: 2,
                    width: 1,
                    ..
                })
            ));
            assert!(sim.poke("nope", 0).is_err());
            assert!(sim.peek("nope").is_err());
        }
    }
}
