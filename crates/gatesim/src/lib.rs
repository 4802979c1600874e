//! Gate-level simulation with signal-activity collection.
//!
//! This crate plays the role of the commercial Verilog simulator (VCS) in
//! the Strober replay flow (Fig. 5 of the paper): it simulates a
//! [`strober_gates::Netlist`] cycle by cycle with zero-delay levelized
//! evaluation, counting every net's toggles. The resulting
//! [`ActivityReport`] is the SAIF file of our flow — `strober-power`
//! consumes it together with the cell library to produce average power.
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
//! Two evaluation engines share one compiled program (the levelized op
//! tape, see `DESIGN.md` §9):
//!
//! * [`GateSim`] — scalar reference engine, one replay at a time.
//! * [`BatchSim`] — bit-parallel engine packing up to 64 independent
//!   replays into the bit-lanes of a `u64` per net, with lane-wise SRAM
//!   state and per-lane activity counting. Bit-identical to 64 scalar
//!   runs, at a fraction of the cost.
//!
//! # Examples
//!
//! ```
//! use strober_dsl::Ctx;
//! use strober_rtl::Width;
//! use strober_synth::{synthesize, SynthOptions};
//! use strober_gatesim::GateSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = Ctx::new("counter");
//! let count = ctx.reg("count", Width::new(8)?, 0);
//! count.set(&count.out().add_lit(1));
//! ctx.output("value", &count.out());
//! let design = ctx.finish()?;
//! let synth = synthesize(&design, &SynthOptions::default())?;
//!
//! let mut gsim = GateSim::new(&synth.netlist)?;
//! gsim.step_n(5);
//! assert_eq!(gsim.peek_port("value")?, 5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod activity;
mod batch;
mod compile;
mod loader;
mod sim;

pub use activity::ActivityReport;
pub use batch::{BatchSim, PhaseTimes, MAX_LANES};
pub use compile::Tape;
pub use loader::{LoadStats, ScriptLoader, SramImage, VpiLoader};
pub use sim::{GateSim, GateSimError};
