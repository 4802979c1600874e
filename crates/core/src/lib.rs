//! Strober: sample-based energy simulation for arbitrary RTL.
//!
//! This crate is the paper's primary contribution assembled from the
//! workspace substrates: given any `strober-rtl` design, it
//!
//! 1. **instruments** it with the FAME1 transform, scan chains and I/O
//!    trace buffers (`strober-fame`),
//! 2. **synthesizes** it to a gate-level netlist through the CAD flow
//!    (`strober-synth`) and verifies the RTL↔gate correspondence with the
//!    formal matcher (`strober-formal`),
//! 3. **simulates** the full workload fast on the host platform
//!    (`strober-platform` over `strober-sim`), capturing replayable RTL
//!    snapshots by reservoir sampling (`strober-sampling`),
//! 4. **replays** each snapshot on gate-level simulation
//!    (`strober-gatesim`), checking replayed outputs against the recorded
//!    traces, and feeds the signal activity to the power tool
//!    (`strober-power`),
//! 5. **estimates** workload average power with a confidence interval
//!    (eq. 7 of the paper) and reports the per-component breakdown.
//!
//! The analytic performance model of §IV-E is available as
//! [`PerfModel`]; it reproduces the paper's worked example (9.4 hours
//! overall vs. days for microarchitectural software simulation and
//! centuries for gate-level simulation).
//!
//! # Examples
//!
//! End-to-end on a small design:
//!
//! ```
//! use strober::{HubEngine, StroberConfig, StroberFlow};
//! use strober_dsl::Ctx;
//! use strober_platform::{HostModel, OutputView};
//! use strober_rtl::Width;
//!
//! struct NoIo;
//! impl HostModel for NoIo {
//!     fn tick(&mut self, _c: u64, _io: &mut OutputView<'_>) {}
//! }
//!
//! fn main() -> Result<(), strober::StroberError> {
//!     // A free-running 16-bit counter as the target.
//!     let ctx = Ctx::new("counter");
//!     let count = ctx.reg("count", Width::new(16).unwrap(), 0);
//!     count.set(&count.out().add_lit(1));
//!     ctx.output("value", &count.out());
//!     let design = ctx.finish().unwrap();
//!
//!     let mut config = StroberConfig {
//!         replay_length: 16,
//!         sample_size: 5,
//!         ..StroberConfig::default()
//!     };
//!     // The default engine (`auto`) compiles the hub to native code: one
//!     // `rustc` run (~0.2 s) the first time a design is seen, cached
//!     // from then on. A 2,000-cycle throwaway is quicker interpreted.
//!     config.platform.hub_engine = HubEngine::Interp;
//!     let flow = StroberFlow::new(&design, config)?;
//!     let run = flow.run_sampled(&mut NoIo, 2_000)?;
//!     let results = flow.replay_all(&run.snapshots, 2)?;
//!     let estimate = flow.estimate(&run, &results)?;
//!     assert!(estimate.mean_power_mw() > 0.0);
//!     Ok(())
//! }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod control;
mod error;
mod estimate;
mod flow;
mod load_plan;
mod perf_model;

pub use control::{CancelToken, Progress, RunControl};
pub use error::StroberError;
pub use estimate::{EnergyEstimate, ReplayResult, SampledRun, StopReason};
pub use flow::{PreparedArtifact, StroberConfig, StroberFlow};
pub use perf_model::PerfModel;
pub use strober_platform::HubEngine;
pub use strober_sampling::{StopDecision, StoppingRule};
