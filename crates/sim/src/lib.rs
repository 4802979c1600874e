//! Fast cycle-accurate RTL simulation.
//!
//! This crate provides the execution substrate that plays the FPGA's role in
//! the Strober flow (§IV-B of the paper): a fast, cycle-exact simulator for
//! any [`strober_rtl::Design`]. Where the paper maps the FAME1-transformed
//! design onto FPGA fabric, we compile the design's combinational graph once
//! into a flat *op tape* — a topologically ordered array of pre-resolved
//! operations — and evaluate it per cycle. One fixed optimizing pass
//! pipeline (constant folding, copy propagation, cat-through-slice
//! rewriting, dead-code elimination and dense slot renumbering — see
//! [`PassStats`] and DESIGN.md §11) shrinks the tape before the first
//! step. The tape simulator is
//! orders of magnitude faster than gate-level simulation of the same
//! design, which is precisely the speed differential the sample-based
//! methodology exploits.
//!
//! Three engines are provided:
//!
//! * [`Simulator`] — the compiled-tape engine used everywhere.
//! * [`Simulator::attach_jit`] replaces the settle loop with native code
//!   compiled from the tape by `strober-jit`: [`Simulator::jit_source`]
//!   lowers the tape to one straight-line Rust function (constants,
//!   masks and slot indices baked in, no per-op dispatch), and any
//!   [`NativeSettle`] whose signature matches can be plugged in. See
//!   DESIGN.md §16.
//! * [`NaiveInterpreter`] — a deliberately simple tree-walking reference
//!   engine, used for differential testing and as the slow baseline in the
//!   ablation benchmarks.
//!
//! All engines implement identical semantics — combinational settle, then
//! clock edge (registers capture, memory writes commit) — made explicit
//! by the [`Engine`] trait.
//!
//! The gate-level side of the flow mirrors this architecture one layer
//! down: `strober-gatesim` compiles the synthesized netlist into its own
//! flat op tape of two-input cells and interprets it scalar (`GateSim`)
//! or 64 samples at a time in the bit-lanes of a `u64` per net
//! (`BatchSim`). `DESIGN.md` §9 documents the whole simulator stack and
//! its per-cycle complexity.
//!
//! # Examples
//!
//! ```
//! use strober_dsl::Ctx;
//! use strober_rtl::Width;
//! use strober_sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = Ctx::new("counter");
//! let w8 = Width::new(8)?;
//! let en = ctx.input("en", Width::BIT);
//! let count = ctx.reg("count", w8, 0);
//! count.set_en(&count.out().add_lit(1), &en);
//! ctx.output("value", &count.out());
//! let design = ctx.finish()?;
//!
//! let mut sim = Simulator::new(&design)?;
//! sim.poke_by_name("en", 1)?;
//! sim.step_n(5);
//! assert_eq!(sim.peek_output("value")?, 5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod codegen;
mod engine;
mod error;
mod interp;
mod opt;
pub mod rand_design;
mod state;
mod tape;
mod vcd;

pub use codegen::JitSource;
pub use engine::{Engine, NativeSettle};
pub use error::SimError;
pub use interp::NaiveInterpreter;
pub use opt::{PassStats, TapeOptions};
pub use state::SimState;
// The id types the peek/poke/resolve APIs traffic in, re-exported so
// callers holding pre-resolved handles need not depend on `strober-rtl`.
pub use strober_rtl::{NodeId, PortId};
pub use tape::Simulator;
pub use vcd::VcdTrace;
