//! The engine interface shared by every simulator variant.
//!
//! All engines in this crate — the tree-walking [`NaiveInterpreter`],
//! the compiled tape and the JIT-compiled native settle — implement
//! identical semantics:
//! combinational *settle*, then *clock edge* (registers capture, memory
//! writes commit). The [`Engine`] trait makes that implicit contract
//! explicit so callers can select an engine dynamically and benchmark
//! rows can be labeled by variant, and [`NativeSettle`] is the narrow
//! plug-in point through which `strober-jit` swaps the interpreted
//! settle loop for a `dlopen`ed native function without the `Simulator`
//! facade changing shape.
//!
//! [`NaiveInterpreter`]: crate::NaiveInterpreter

use crate::state::SimState;
use strober_rtl::{NodeId, PortId};

/// The cycle-accurate simulation contract every engine implements.
///
/// The split into [`settle`](Engine::settle) and
/// [`clock_edge`](Engine::clock_edge) mirrors the two phases of a
/// synchronous design's cycle: combinational evaluation with the current
/// inputs and state, then the synchronous state update. `settle` must be
/// idempotent between state changes; `clock_edge` must settle first if
/// needed, so calling it alone is equivalent to a full
/// [`step`](Engine::step).
pub trait Engine {
    /// Sets a top-level input by pre-resolved port id, masking the value
    /// to the port's width.
    fn poke(&mut self, port: PortId, value: u64);

    /// Reads any node's settled value.
    fn peek(&mut self, node: NodeId) -> u64;

    /// Evaluates combinational logic with the current inputs and state.
    /// Idempotent until the next poke or clock edge.
    fn settle(&mut self);

    /// Advances one clock cycle: registers capture their next values,
    /// memory writes commit, the cycle counter increments. Settles first
    /// when needed.
    fn clock_edge(&mut self);

    /// Captures the complete architectural state.
    fn state(&self) -> SimState;

    /// Advances one full cycle (settle + clock edge).
    fn step(&mut self) {
        self.settle();
        self.clock_edge();
    }

    /// A short static label for this engine variant, as used by run
    /// manifests and metric labels (`"naive"`, `"tape"`, `"tape-jit"`).
    fn engine_name(&self) -> &'static str;
}

/// A native (JIT-compiled) replacement for the tape settle loop.
///
/// Implementations evaluate exactly the same op tape the sequential
/// interpreter would walk, writing every externally observed slot of
/// `values`: `values` is the dense slot slab, `inputs` the per-port input latches, `regs` the
/// current register file and `mems` the memory arrays. The callee must
/// not retain pointers past the call.
///
/// Bit-identity with the interpreted tape is non-negotiable and is
/// enforced at attach time by [`NativeSettle::signature`]: the simulator
/// refuses an engine whose signature does not match the FNV-1a hash of
/// the settle source it would generate for its own tape (see
/// `Simulator::attach_jit`), which rejects stale dylibs compiled for a
/// different design or optimizer configuration.
pub trait NativeSettle: Send + Sync + std::fmt::Debug {
    /// Evaluates the combinational tape into `values`.
    fn settle(&self, values: &mut [u64], inputs: &[u64], regs: &[u64], mems: &[Vec<u64>]);

    /// The FNV-1a hash of the generated settle source this engine was
    /// compiled from, used to verify design/tape identity at attach time.
    fn signature(&self) -> u64;
}
