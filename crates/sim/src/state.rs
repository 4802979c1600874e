//! Captured simulator state.

/// A complete snapshot of a design's architectural state: every register
/// value and every memory's full contents, plus the cycle count at which it
/// was taken.
///
/// This is the in-memory form of the paper's "RTL state at cycle *c*"
/// (§III-B); the FAME transform's scan chains serialise exactly this data,
/// and gate-level replay begins by loading it into the netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimState {
    /// Register values, indexed by register declaration order.
    pub regs: Vec<u64>,
    /// Memory contents, indexed by memory declaration order.
    pub mems: Vec<Vec<u64>>,
    /// The simulation cycle at which the state was captured.
    pub cycle: u64,
}
