//! The FAME1 transform with snapshot capture — the heart of Strober.
//!
//! §IV-B of the paper: Strober automatically rewrites any RTL design into a
//! token-based FAME1 simulator that can stall at any target cycle, plus the
//! instrumentation needed to read out a *replayable RTL snapshot*:
//!
//! * **Host decoupling** ([`transform`]) — every register and memory write
//!   is gated by a global `fire` signal, so the simulated target advances
//!   exactly when the host supplies a token and consumes the outputs. The
//!   host-side token channels live in `strober-platform`; this crate
//!   produces the hub design and its metadata.
//! * **Register scan chains** — a 64-bit-wide shadow scan chain captures
//!   every register in one cycle (while the target is stalled) and shifts
//!   one element out per cycle, without disturbing target state.
//! * **RAM scan chains** — each memory gets an address-generator counter
//!   that *borrows* read port 0 while the target is stalled (the paper's
//!   trick for Block RAMs whose port count cannot change) and streams the
//!   contents out a word at a time.
//! * **I/O trace buffers** — ring buffers record the last `L + warmup`
//!   input and output tokens, giving the replay window its stimulus and
//!   its check values.
//! * **Simulation metadata** ([`FameMeta`]) — the scan-chain order, trace
//!   geometry and control-port names, serialisable to JSON exactly like
//!   the "simulation metadata dump" of Fig. 4, consumed by the host
//!   driver.
//!
//! [`SnapshotController`] produces [`FameSnapshot`]s from a `strober-sim`
//! simulator of the hub, two ways that must agree bit for bit: the
//! shifted scan/trace protocol shown below — the reference that proves
//! the instrumentation — and a direct read of simulator storage through
//! a [`HubLayout`], which is what a production session runs, charging the
//! scan's hub cycles by arithmetic instead of stepping them. Since a
//! production session never shifts, it simulates
//! [`FameResult::free_run`]: the hub with its scan, memory-scan and
//! trace-readout controls tied to constants and the readout ports
//! dropped, which the tape optimizer then folds away.
//!
//! # Examples
//!
//! Transform a counter and capture a snapshot mid-run:
//!
//! ```
//! use strober_dsl::Ctx;
//! use strober_rtl::Width;
//! use strober_sim::Simulator;
//! use strober_fame::{transform, FameConfig, SnapshotController};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = Ctx::new("counter");
//! let count = ctx.reg("count", Width::new(8)?, 0);
//! count.set(&count.out().add_lit(1));
//! ctx.output("value", &count.out());
//! let target = ctx.finish()?;
//!
//! let fame = transform(&target, &FameConfig::default())?;
//! let mut sim = Simulator::new(&fame.hub)?;
//! let mut ctl = SnapshotController::new(&fame.meta);
//!
//! // Run 10 target cycles.
//! ctl.set_fire(&mut sim, true)?;
//! sim.step_n(10);
//!
//! // Stall and capture.
//! ctl.set_fire(&mut sim, false)?;
//! let pending = ctl.begin_snapshot(&mut sim)?;
//! assert_eq!(pending.cycle, 10);
//! assert_eq!(pending.regs[0].1, 10); // the counter's value
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod controller;
mod meta;
mod transform;

pub use controller::{FameSnapshot, HubLayout, PendingSnapshot, SnapshotController};
pub use meta::{ControlPorts, FameMeta, MemScanMeta, ScanElem, TraceMeta};
pub use transform::{transform, FameConfig, FameResult};
