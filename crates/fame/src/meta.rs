//! Simulation metadata — the Fig. 4 "Simulation Metadata Dump".

use serde::{Deserialize, Serialize};

/// One element of the register scan chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, serde::Blob)]
pub struct ScanElem {
    /// The RTL register's hierarchical name.
    pub rtl_name: String,
    /// The register's width in bits (the 64-bit chain word is masked to
    /// this width on readout).
    pub width: u32,
}

/// Scan metadata for one memory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, serde::Blob)]
pub struct MemScanMeta {
    /// The RTL memory's hierarchical name.
    pub rtl_name: String,
    /// Word width in bits.
    pub width: u32,
    /// Number of words.
    pub depth: usize,
    /// The hub output port streaming the memory contents.
    pub out_port: String,
}

/// Trace-buffer metadata for one target I/O port.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, serde::Blob)]
pub struct TraceMeta {
    /// The target port's name.
    pub port: String,
    /// The port's width in bits.
    pub width: u32,
    /// The hub output port exposing the trace read data.
    pub out_port: String,
}

/// Names of the hub's control ports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, serde::Blob)]
pub struct ControlPorts {
    /// Global target-advance enable (the FAME1 token "fire" signal).
    pub fire: String,
    /// Scan-chain capture strobe.
    pub scan_capture: String,
    /// Scan-chain shift enable.
    pub scan_shift: String,
    /// Memory scan enable (borrows each memory's read port 0).
    pub mem_scan_en: String,
    /// Memory scan counter reset.
    pub mem_scan_rst: String,
    /// Trace-buffer read address input.
    pub trace_raddr: String,
    /// Scan-chain serial output (64 bits wide).
    pub scan_out: String,
    /// Target cycle counter output.
    pub cycle: String,
}

/// The complete metadata for one transformed design.
///
/// Everything the host driver needs: chain order, trace geometry and
/// control-port names. Serialisable to JSON, as the paper's flow dumps
/// metadata for the simulation software driver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, serde::Blob)]
pub struct FameMeta {
    /// Name of the target design.
    pub target: String,
    /// Register scan chain, in shift-out order.
    pub scan_chain: Vec<ScanElem>,
    /// Memory scan ports.
    pub mem_scans: Vec<MemScanMeta>,
    /// Input trace buffers, in target port order.
    pub traces_in: Vec<TraceMeta>,
    /// Output trace buffers, in target output order.
    pub traces_out: Vec<TraceMeta>,
    /// Ring-buffer depth (power of two, ≥ `replay_length + warmup`).
    pub trace_depth: usize,
    /// The measurement window length `L`.
    pub replay_length: u32,
    /// Extra leading cycles captured for retimed-datapath state recovery
    /// (§IV-C3).
    pub warmup: u32,
    /// Control port names.
    pub control: ControlPorts,
    /// Total architectural state bits of the target (determines snapshot
    /// size and scan time).
    pub state_bits: u64,
}

impl FameMeta {
    /// Serialises the metadata to pretty JSON (the metadata dump consumed
    /// by the host driver).
    ///
    /// # Panics
    ///
    /// Never panics; the structure is always serialisable.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FameMeta is always serialisable")
    }

    /// Parses a metadata dump.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The hub outputs only the shifted readout protocol reads: the scan
    /// chain's serial output and the read port of every memory scanner
    /// and trace ring. The free-run hub
    /// ([`FameResult::free_run`](crate::FameResult::free_run)) drops them.
    pub fn readout_outputs(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.control.scan_out.as_str())
            .chain(self.mem_scans.iter().map(|m| m.out_port.as_str()))
            .chain(self.traces_in.iter().map(|t| t.out_port.as_str()))
            .chain(self.traces_out.iter().map(|t| t.out_port.as_str()))
    }

    /// Number of hub cycles one state capture costs on the hub the
    /// transform builds — the scan part of the §IV-E `T_rec` term: one
    /// capture strobe, one shift per chain element and, when the target
    /// has memories, one counter reset plus one cycle per word of the
    /// *deepest* memory (every memory streams in parallel through its own
    /// `fame/mem_scan_out_<i>`). This is what the shifted reference
    /// protocol spends and what the direct capture path books by
    /// arithmetic; trace readout adds one cycle per traced target cycle
    /// on top.
    pub fn snapshot_capture_cycles(&self) -> u64 {
        let regs = self.scan_chain.len() as u64;
        let mem_stream = match self.mem_scans.iter().map(|m| m.depth as u64).max() {
            Some(deepest) => 1 + deepest,
            None => 0,
        };
        1 + regs + mem_stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FameMeta {
        FameMeta {
            target: "t".to_owned(),
            scan_chain: vec![ScanElem {
                rtl_name: "pc".to_owned(),
                width: 32,
            }],
            mem_scans: vec![MemScanMeta {
                rtl_name: "ram".to_owned(),
                width: 8,
                depth: 16,
                out_port: "fame/mem_scan_out_0".to_owned(),
            }],
            traces_in: vec![],
            traces_out: vec![],
            trace_depth: 128,
            replay_length: 128,
            warmup: 0,
            control: ControlPorts {
                fire: "fame/fire".to_owned(),
                scan_capture: "fame/scan_capture".to_owned(),
                scan_shift: "fame/scan_shift".to_owned(),
                mem_scan_en: "fame/mem_scan_en".to_owned(),
                mem_scan_rst: "fame/mem_scan_rst".to_owned(),
                trace_raddr: "fame/trace_raddr".to_owned(),
                scan_out: "fame/scan_out".to_owned(),
                cycle: "fame/cycle".to_owned(),
            },
            state_bits: 160,
        }
    }

    #[test]
    fn json_round_trip() {
        let meta = sample();
        let json = meta.to_json();
        let back = FameMeta::from_json(&json).unwrap();
        assert_eq!(meta, back);
        assert!(json.contains("scan_chain"));
    }

    #[test]
    fn capture_cycles_counts_chain_and_deepest_mem() {
        let mut meta = sample();
        // 1 capture + 1 reg shift + 1 reset + 16 words = 19.
        assert_eq!(meta.snapshot_capture_cycles(), 19);
        // A second, shallower memory streams alongside the first.
        meta.mem_scans.push(MemScanMeta {
            rtl_name: "rom".to_owned(),
            width: 8,
            depth: 4,
            out_port: "fame/mem_scan_out_1".to_owned(),
        });
        assert_eq!(meta.snapshot_capture_cycles(), 19);
        // No memories: no counter reset either.
        meta.mem_scans.clear();
        assert_eq!(meta.snapshot_capture_cycles(), 2);
    }
}
