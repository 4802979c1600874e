//! The engine interface shared by every simulator variant.
//!
//! All engines in this crate — the tree-walking [`NaiveInterpreter`],
//! the compiled tape and the JIT-compiled native code — implement
//! identical semantics:
//! combinational *settle*, then *clock edge* (registers capture, memory
//! writes commit). The [`Engine`] trait makes that implicit contract
//! explicit so callers can select an engine dynamically and benchmark
//! rows can be labeled by variant, and [`NativeSettle`] is the narrow
//! plug-in point through which `strober-jit` swaps the interpreted
//! settle loop *and* the clock edge's register capture and memory commit
//! for `dlopen`ed native functions without the `Simulator` facade
//! changing shape.
//!
//! [`NaiveInterpreter`]: crate::NaiveInterpreter

use crate::state::SimState;
use crate::tape::OutputSlot;
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

/// One memory array as the native entry points receive it: the address
/// and length of the simulator's buffer for that memory, laid out as the
/// generated crate's `#[repr(C)] MemSpan`.
///
/// Only the simulator builds spans, from its own memories through
/// `Vec::as_mut_ptr`, and marks them stale on every `&mut` access to a
/// memory (a write, a restore, a reset, an interpreted commit), so a span
/// in use always carries the latest write permission to its buffer. A
/// span is never dereferenced outside a native settle or commit call made
/// while the simulator holds the memories it describes.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct MemSpan {
    ptr: *mut u64,
    len: usize,
}

// SAFETY: `len` is a plain integer and `ptr` is only an address here:
// nothing in safe code reads or writes through it, and native code does
// so only under `NativeSettle::settle`'s and `NativeSettle::commit`'s
// contracts, called by the simulator that owns (and mutably borrows, for
// the whole call) the memory it points at.
unsafe impl Send for MemSpan {}
unsafe impl Sync for MemSpan {}

impl MemSpan {
    pub(crate) fn of(mem: &mut Vec<u64>) -> Self {
        MemSpan {
            ptr: mem.as_mut_ptr(),
            len: mem.len(),
        }
    }
}

/// One condition a [`Simulator::run_guarded`] watches: the run stops
/// before clocking a cycle whose settled output has any bit of `mask`
/// set. Laid out as the generated crate's `#[repr(C)] Guard`, so native
/// code reads a guard table in place.
///
/// [`Simulator::run_guarded`]: crate::Simulator::run_guarded
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guard {
    slot: u64,
    mask: u64,
}

impl Guard {
    /// Watches `mask`'s bits of the output at `output`.
    pub fn new(output: OutputSlot, mask: u64) -> Self {
        Guard {
            slot: u64::from(output.index()),
            mask,
        }
    }

    /// The slab slot the guard reads.
    pub(crate) fn slot(&self) -> u64 {
        self.slot
    }

    /// Whether the guard fires on a settled slab.
    pub(crate) fn fires(&self, values: &[u64]) -> bool {
        values[self.slot as usize] & self.mask != 0
    }
}

/// A native (JIT-compiled) replacement for the tape settle loop and the
/// clock edge's register capture and memory commit.
///
/// [`settle`](NativeSettle::settle) evaluates exactly the same op tape
/// the sequential interpreter would walk, writing every externally
/// observed slot of `values`, and then every register's next value into
/// `reg_next` (the register's next-state slot masked to its width, or its
/// current value where an enable is low). [`commit`](NativeSettle::commit)
/// then commits the memory writes of the cycle, port by port in the
/// interpreter's order, from the write-port slots the settle stored.
/// `values` is the dense slot slab, `inputs` the per-port input latches,
/// `regs` the current register file and `mems` one span per design
/// memory. The callee must not retain pointers past a call. The register
/// swap and the cycle count stay on the simulator's shared path, except
/// inside [`run`](NativeSettle::run), which loops over whole cycles and
/// swaps the register files itself.
///
/// Bit-identity with the interpreted tape is non-negotiable and is
/// enforced at attach time by [`NativeSettle::signature`]: the simulator
/// refuses an engine whose signature does not match the FNV-1a hash of
/// the source it would generate for its own tape and write ports (see
/// `Simulator::attach_jit`), which rejects stale dylibs compiled for a
/// different design or optimizer configuration.
pub trait NativeSettle: Send + Sync + std::fmt::Debug {
    /// Evaluates the combinational tape into `values` and the registers'
    /// next state into `reg_next`.
    ///
    /// # Safety
    ///
    /// Native code indexes these arrays with baked-in constants and no
    /// bounds checks, so they must be the ones it was generated for:
    /// `values` the slab of the tape whose source hash
    /// [`signature`](NativeSettle::signature) returns, `inputs` one latch
    /// per port of that design, `regs` and `reg_next` one word per
    /// register each, and `mems` one span per memory, each describing a
    /// live buffer that nothing else accesses during the call. The code
    /// writes `values` and `reg_next` and only reads `mems`. `Simulator`
    /// meets this by passing its own arrays to an engine whose signature
    /// it checked at attach.
    unsafe fn settle(
        &self,
        values: &mut [u64],
        inputs: &[u64],
        regs: &[u64],
        mems: &[MemSpan],
        reg_next: &mut [u64],
    );

    /// Commits the cycle's memory writes: for each write port in plan
    /// order, when its enable is nonzero, stores its data word at its
    /// address, unless the address is at or past the span's `len`.
    ///
    /// # Safety
    ///
    /// `values` must be the slab of the tape this engine was generated
    /// from, holding the write-port slots a [`settle`](NativeSettle::settle)
    /// of the current state stored (the code reads only those, and
    /// nothing else of `values`), and `mems` one span per memory of that
    /// design, each valid for writes of `len` words that nothing else
    /// accesses during the call. The code writes only below each span's
    /// `len`. `Simulator::clock_edge` meets this right after its settle.
    unsafe fn commit(&self, values: &[u64], mems: &[MemSpan]);

    /// Runs whole cycles with the inputs held: settle, then the guard
    /// check, then the memory commit and the register swap, until a
    /// guard fires or `budget` cycles have been clocked. Returns how many
    /// were clocked. Cycle `k` settles from the register file the swap
    /// left current, `regs` on even `k` and `reg_next` on odd `k`, and
    /// captures into the other, so after an odd count the current
    /// registers are in `reg_next`. A guard stop leaves `values` and the
    /// other file settled for the unclocked cycle; a budget stop leaves
    /// them from the last clocked one.
    ///
    /// # Safety
    ///
    /// [`settle`](NativeSettle::settle)'s and
    /// [`commit`](NativeSettle::commit)'s contracts together, for the
    /// whole call: `values` the slab of the tape this engine was
    /// generated from, `inputs` one latch per port, `regs` and `reg_next`
    /// one word per register each, and `mems` one span per memory, each
    /// valid for reads and writes of `len` words that nothing else
    /// accesses during the call. Every guard's slot must lie below
    /// `values.len()`: the code reads it unchecked. `Simulator::run_guarded`
    /// checks that, and passes its own arrays to an engine whose
    /// signature it checked at attach.
    #[allow(clippy::too_many_arguments)]
    unsafe fn run(
        &self,
        values: &mut [u64],
        inputs: &[u64],
        regs: &mut [u64],
        reg_next: &mut [u64],
        mems: &[MemSpan],
        guards: &[Guard],
        budget: u64,
    ) -> u64;

    /// The FNV-1a hash of the generated source this engine was compiled
    /// from, used to verify design/tape identity at attach time.
    fn signature(&self) -> u64;
}
