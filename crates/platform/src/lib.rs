//! The simulated FPGA host platform.
//!
//! The paper maps Strober hubs onto Xilinx Zynq boards: the transformed
//! design lives in the FPGA fabric, while main memory and I/O devices are
//! mapped to the host CPU's memory and software, exchanging timing tokens
//! through communication channels and control state through an MMIO
//! register map (§IV-B3). Host communication stalls the simulator every
//! 256 target cycles (§V-B), which is what separates the ~50 MHz fabric
//! clock from the ~3.6 MHz effective simulation rate of Table III.
//!
//! This crate reproduces that host:
//!
//! * [`TokenChannel`] — bounded FIFOs carrying timing tokens between host
//!   models and the target (the "communication channels" of Fig. 3).
//! * [`MmioMap`] — the address map a platform-mapping pass assigns to
//!   control signals, scan-chain outputs and trace buffers.
//! * [`ZynqHost`] — the driver loop: it services target I/O through a
//!   [`HostModel`] every cycle, fires the FAME1 hub, triggers snapshot
//!   captures, and maintains the *modelled* wall-clock cost (raw fabric
//!   cycles, host-sync stalls, per-record readout latency) alongside real
//!   host-machine time. A production host simulates the free-run hub
//!   ([`strober_fame::FameResult::free_run`]): it captures by reading
//!   simulator storage, so the scan and readout logic, idle on the FPGA
//!   during a free run, is tied off here too. Only a
//!   [`ZynqHost::full_hub`] host shifts the scan chains.
//!
//! The separation mirrors the paper exactly: `strober-fame` produces the
//! hardware; this crate is the software driver generated from the
//! simulation metadata.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod channel;
mod host;
mod mmio;

pub use channel::TokenChannel;
pub use host::{
    HostModel, HubEngine, OutputView, PlatformConfig, PlatformStats, TargetInput, TargetOutput,
    ZynqHost,
};
pub use mmio::{MmioMap, MmioReg};
