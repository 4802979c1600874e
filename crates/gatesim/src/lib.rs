//! Gate-level simulation with signal-activity collection.
//!
//! This crate plays the role of the commercial Verilog simulator (VCS) in
//! the Strober replay flow (Fig. 5 of the paper): it simulates a
//! [`strober_gates::Netlist`] cycle by cycle with zero-delay levelized
//! evaluation, counting toggles per energy class — the nets a power model
//! prices alike, by region, cell kind and fanout ([`ClassMap`]). The
//! resulting [`ActivityReport`] is the SAIF file of our flow —
//! `strober-power` consumes it together with the cell library to produce
//! average power.
//!
//! Two state-loading interfaces reproduce the §IV-C2 finding that snapshot
//! loading dominates replay time unless done through a programmatic
//! interface:
//!
//! * [`ScriptLoader`] — models a simulator driven by one console command
//!   per register bit (~400 commands/second in the paper).
//! * [`VpiLoader`] — models the custom VPI bulk loader (~20 000
//!   commands/second), 50× faster.
//!
//! Both load identical state; they differ only in the modelled wall-clock
//! cost, which the replay performance model uses.
//!
//! [`BatchSim`] is the engine: the levelized op tape ([`Tape`], see
//! `DESIGN.md` §9) over one `u64` per net, up to 64 independent replays
//! in its bit-lanes; one lane is a single replay. [`NaiveGateSim`], the
//! netlist evaluated gate by gate with a counter per net, is the
//! reference it is tested against, sharing none of its code but the
//! class map both reports are summed by.
//!
//! # Examples
//!
//! ```
//! use strober_dsl::Ctx;
//! use strober_rtl::Width;
//! use strober_synth::{synthesize, SynthOptions};
//! use strober_gatesim::{BatchSim, NaiveGateSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = Ctx::new("counter");
//! let count = ctx.reg("count", Width::new(8)?, 0);
//! count.set(&count.out().add_lit(1));
//! ctx.output("value", &count.out());
//! let synth = synthesize(&ctx.finish()?, &SynthOptions::default())?;
//!
//! let mut gsim = BatchSim::with_lanes(&synth.netlist, 1)?;
//! gsim.step_n(5);
//! assert_eq!(gsim.peek_port_lane("value", 0)?, 5);
//!
//! let mut reference = NaiveGateSim::new(&synth.netlist)?;
//! reference.step_n(5);
//! assert_eq!(reference.activity(), gsim.activity_lane(0)?);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod activity;
mod batch;
mod classes;
mod compile;
mod loader;
mod naive;
mod sim;

pub use activity::ActivityReport;
pub use batch::{BatchSim, PhaseTimes, MAX_LANES};
pub use classes::{ClassMap, EnergyClass};
pub use compile::Tape;
pub use loader::{LoadStats, ScriptLoader, SramImage, VpiLoader};
pub use naive::NaiveGateSim;
pub use sim::GateSimError;
