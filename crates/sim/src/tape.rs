//! The compiled-tape simulator.
//!
//! # Tape IR
//!
//! Construction lowers the design's combinational graph into a flat,
//! topologically ordered array of [`TapeOp`]s over dense *value slots*.
//! The optimizer ([`crate::opt`]) emits every design constant into a
//! leading block of slots and then exactly one fresh slot per surviving
//! op, so each op writes a unique `dst` and reads only slots produced
//! earlier in the tape (or constants). That single-assignment shape is
//! what the code generator ([`crate::codegen`]) relies on: every op
//! becomes one SSA local.
//!
//! # Execution
//!
//! Each [`Simulator::step`] settles the combinational tape, captures
//! register next-values, commits memory writes and advances the clock.
//! `settle` walks the tape by default, and `clock_edge` then walks the
//! register plans. After [`Simulator::attach_jit`] `settle` calls the
//! native code compiled from the same tape and plans instead, which
//! writes the register next-values itself, so `clock_edge` skips its
//! walk. Both are bit-identical by construction; memory commit, the
//! register swap and the cycle count stay shared by both paths.

use crate::codegen::JitSource;
use crate::engine::{Engine, MemSpan, NativeSettle};
use crate::error::SimError;
use crate::opt::{PassStats, TapeOptions};
use crate::state::SimState;
use std::collections::HashMap;
use std::sync::Arc;
use strober_rtl::{BinOp, Design, MemId, Node, NodeId, PortId, RegId, UnOp, Width};

/// Sentinel slot for nodes the optimizer removed from the tape; reads of
/// such nodes fall back to the tree-walking slow path.
pub(crate) const DEAD: u32 = u32::MAX;

/// One pre-resolved operation on the evaluation tape.
///
/// `dst`/operand fields are *value slots*, not node ids: the optimizer
/// renumbers surviving ops into a dense evaluation-ordered layout.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TapeOp {
    Input {
        dst: u32,
        port: u32,
    },
    Unary {
        dst: u32,
        op: UnOp,
        a: u32,
        w: Width,
    },
    Binary {
        dst: u32,
        op: BinOp,
        a: u32,
        b: u32,
        w: Width,
    },
    Mux {
        dst: u32,
        sel: u32,
        t: u32,
        f: u32,
    },
    Slice {
        dst: u32,
        a: u32,
        shift: u8,
        mask: u64,
    },
    Cat {
        dst: u32,
        hi: u32,
        lo: u32,
        shift: u8,
    },
    RegOut {
        dst: u32,
        reg: u32,
    },
    MemRead {
        dst: u32,
        mem: u32,
        addr: u32,
    },
    /// Specialized `Binary { op: And, .. }`: operands are pre-masked, so
    /// no width bookkeeping or operator dispatch is needed.
    BitAnd {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Specialized `Binary { op: Or, .. }`.
    BitOr {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Specialized `Binary { op: Xor, .. }`.
    BitXor {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Specialized `Binary { op: Eq, .. }`.
    CmpEq {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Specialized `Unary { op: Not, .. }` with the width pre-baked as a
    /// mask.
    NotMask {
        dst: u32,
        a: u32,
        mask: u64,
    },
}

impl TapeOp {
    /// The `values` slots this op reads, appended to `out`.
    pub(crate) fn operands(&self, out: &mut Vec<u32>) {
        match *self {
            TapeOp::Input { .. } | TapeOp::RegOut { .. } => {}
            TapeOp::Unary { a, .. }
            | TapeOp::Slice { a, .. }
            | TapeOp::NotMask { a, .. }
            | TapeOp::MemRead { addr: a, .. } => out.push(a),
            TapeOp::Binary { a, b, .. }
            | TapeOp::BitAnd { a, b, .. }
            | TapeOp::BitOr { a, b, .. }
            | TapeOp::BitXor { a, b, .. }
            | TapeOp::CmpEq { a, b, .. } => {
                out.push(a);
                out.push(b);
            }
            TapeOp::Mux { sel, t, f, .. } => {
                out.push(sel);
                out.push(t);
                out.push(f);
            }
            TapeOp::Cat { hi, lo, .. } => {
                out.push(hi);
                out.push(lo);
            }
        }
    }

    /// The `values` slot this op writes.
    pub(crate) fn dst(&self) -> u32 {
        match *self {
            TapeOp::Input { dst, .. }
            | TapeOp::Unary { dst, .. }
            | TapeOp::Binary { dst, .. }
            | TapeOp::Mux { dst, .. }
            | TapeOp::Slice { dst, .. }
            | TapeOp::Cat { dst, .. }
            | TapeOp::RegOut { dst, .. }
            | TapeOp::MemRead { dst, .. }
            | TapeOp::BitAnd { dst, .. }
            | TapeOp::BitOr { dst, .. }
            | TapeOp::BitXor { dst, .. }
            | TapeOp::CmpEq { dst, .. }
            | TapeOp::NotMask { dst, .. } => dst,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct RegPlan {
    pub(crate) next: u32,
    pub(crate) enable: Option<u32>,
    pub(crate) mask: u64,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct WritePlan {
    pub(crate) mem: u32,
    pub(crate) addr: u32,
    pub(crate) data: u32,
    pub(crate) enable: u32,
}

/// The compiled-tape cycle-accurate simulator.
///
/// Construction compiles the design once (`O(nodes)`); each [`step`] then
/// evaluates the flat tape, captures register next-values, commits memory
/// writes and advances the clock. See the
/// [crate documentation](crate) for an example.
///
/// [`step`]: Simulator::step
#[derive(Debug, Clone)]
pub struct Simulator {
    design: Arc<Design>,
    tape: Vec<TapeOp>,
    reg_plans: Vec<RegPlan>,
    write_plans: Vec<WritePlan>,
    values: Vec<u64>,
    node_slot: Vec<u32>,
    regs: Vec<u64>,
    reg_next: Vec<u64>,
    mems: Vec<Vec<u64>>,
    inputs: Vec<u64>,
    cycle: u64,
    dirty: bool,
    stats: PassStats,
    output_index: HashMap<String, NodeId>,
    port_index: HashMap<String, (u32, Width)>,
    /// Native settle engine attached by `strober-jit`, taking priority
    /// over the tape walk. Shared across clones: the compiled code is
    /// immutable and thread-safe.
    jit: Option<Arc<dyn NativeSettle>>,
    /// Per-slot "the native engine materializes this slot" mask, present
    /// while a JIT engine is attached. The generated code keeps internal
    /// temporaries in locals and stores only externally observed slots
    /// (outputs, memory ports); peeks of any other live slot — register
    /// next and enable slots included — reroute to the tree-walking
    /// recompute, like `DEAD` ones.
    jit_stored: Option<Arc<[bool]>>,
    /// `mems` as the spans the native engine reads them through.
    mem_spans: MemSpans,
}

/// The memory span table handed to the native engine, built once and
/// reused by every settle so that none allocates.
///
/// An empty table stands for "stale": anything that may move a memory's
/// buffer clears it, and the next native settle rebuilds it. A clone
/// starts stale, because its memories are new buffers.
#[derive(Debug, Default)]
struct MemSpans(Vec<MemSpan>);

impl Clone for MemSpans {
    fn clone(&self) -> Self {
        MemSpans::default()
    }
}

impl MemSpans {
    /// The spans of `mems`, rebuilt first when the table is stale.
    fn of(&mut self, mems: &[Vec<u64>]) -> &[MemSpan] {
        if self.0.len() != mems.len() {
            self.0.clear();
            self.0.extend(mems.iter().map(|m| MemSpan::of(m)));
        }
        &self.0
    }
}

impl Simulator {
    /// Compiles a design into a tape simulator through the optimizing
    /// pass pipeline (see [`crate::PassStats`] and DESIGN.md §11).
    ///
    /// # Errors
    ///
    /// Returns the design's validation error if it is malformed (e.g.
    /// combinational loops or unconnected registers).
    pub fn new(design: &Design) -> Result<Self, strober_rtl::RtlError> {
        design.validate()?;
        let topo = design.topo_order()?;
        let plan = crate::opt::compile(design, &topo);
        record_pass_stats(&plan.stats);

        let regs: Vec<u64> = design.registers().map(|(_, r)| r.init()).collect();
        let mems: Vec<Vec<u64>> = design
            .memories()
            .map(|(_, m)| {
                let mut v = m.init().to_vec();
                v.resize(m.depth(), 0);
                v
            })
            .collect();

        let output_index = design
            .outputs()
            .iter()
            .map(|(n, id)| (n.clone(), *id))
            .collect();
        let port_index = design
            .ports()
            .iter()
            .map(|p| (p.name().to_owned(), (p.id().index() as u32, p.width())))
            .collect();

        let reg_next = regs.clone();
        let n_inputs = design.ports().len();
        Ok(Simulator {
            design: Arc::new(design.clone()),
            tape: plan.tape,
            reg_plans: plan.reg_plans,
            write_plans: plan.write_plans,
            values: plan.values,
            node_slot: plan.node_slot,
            regs,
            reg_next,
            mems,
            inputs: vec![0; n_inputs],
            cycle: 0,
            dirty: true,
            stats: plan.stats,
            output_index,
            port_index,
            jit: None,
            jit_stored: None,
            mem_spans: MemSpans::default(),
        })
    }

    /// Exists only for the frozen benchmark harness's call; forwards to
    /// [`new`](Simulator::new).
    #[doc(hidden)]
    pub fn with_options(
        design: &Design,
        _options: &TapeOptions,
    ) -> Result<Self, strober_rtl::RtlError> {
        Self::new(design)
    }

    /// What the optimizer did to this simulator's tape.
    pub fn pass_stats(&self) -> PassStats {
        self.stats
    }

    /// The design this simulator was compiled from.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Sets a top-level input by port id index.
    pub(crate) fn poke_raw(&mut self, port: u32, value: u64) {
        self.inputs[port as usize] = value;
        self.dirty = true;
    }

    /// Sets a top-level input by [`strober_rtl::PortId`], masking the value
    /// to the port's width. This is the fast path for host drivers that
    /// resolve port names once up front.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a port of this design.
    pub fn poke(&mut self, port: strober_rtl::PortId, value: u64) {
        let width = self.design.ports()[port.index()].width();
        self.poke_raw(port.index() as u32, value & width.mask());
    }

    /// Sets a top-level input by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] for an unknown port and
    /// [`SimError::ValueTooWide`] when the value does not fit.
    pub fn poke_by_name(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        let &(port, width) = self
            .port_index
            .get(name)
            .ok_or_else(|| SimError::UnknownName {
                kind: "input port",
                name: name.to_owned(),
            })?;
        if value > width.mask() {
            return Err(SimError::ValueTooWide {
                port: name.to_owned(),
                value,
                width: width.bits(),
            });
        }
        self.poke_raw(port, value);
        Ok(())
    }

    /// Attaches a native settle engine (see [`NativeSettle`]), after
    /// verifying that its signature matches the source this simulator's
    /// own tape generates. From then on `settle` calls into the native
    /// code instead of walking the tape, and that code also writes every
    /// register's next value, so [`clock_edge`](Simulator::clock_edge)
    /// skips its interpreted register walk. Memory commit, the register
    /// swap and the cycle count stay on the shared path. Results are
    /// bit-identical to the tape walk.
    ///
    /// The engine is shared by reference across [`Clone`]s.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EngineSignatureMismatch`] when the engine was
    /// compiled from a different tape (stale dylib, different design or
    /// optimizer revision).
    pub fn attach_jit(&mut self, engine: Arc<dyn NativeSettle>) -> Result<(), SimError> {
        let expected = self.jit_source().sig;
        let actual = engine.signature();
        if actual != expected {
            return Err(SimError::EngineSignatureMismatch { expected, actual });
        }
        self.jit = Some(engine);
        self.jit_stored = Some(self.stored_slots().into());
        self.dirty = true;
        Ok(())
    }

    /// Drops any attached native settle engine, reverting to the
    /// interpreted tape walk. Marks the simulator dirty so the next
    /// settle rebuilds the full value slab — the native engine only
    /// materializes observed slots.
    pub fn detach_jit(&mut self) {
        self.jit = None;
        self.jit_stored = None;
        self.dirty = true;
    }

    /// The per-slot set the native engine must store back to the slab:
    /// everything read outside `settle` — output nodes and memory write
    /// ports. Register next/enable slots are not in it: the generated
    /// code captures registers from its locals. Internal temporaries
    /// stay in locals too; reads of those slots reroute to the
    /// tree-walking recompute (see [`peek`](Simulator::peek)).
    fn stored_slots(&self) -> Vec<bool> {
        let mut stored = vec![false; self.values.len()];
        let mut mark = |slot: u32| {
            if slot != DEAD {
                stored[slot as usize] = true;
            }
        };
        for id in self.output_index.values() {
            mark(self.node_slot[id.index()]);
        }
        for plan in &self.write_plans {
            mark(plan.enable);
            mark(plan.addr);
            mark(plan.data);
        }
        stored
    }

    /// Whether reads of `slot` must bypass the slab because the attached
    /// native engine keeps it in a local instead of storing it.
    fn jit_skips(&self, slot: u32) -> bool {
        self.jit.is_some() && self.jit_stored.as_ref().is_some_and(|s| !s[slot as usize])
    }

    /// Whether a native settle engine is currently attached.
    pub fn has_jit(&self) -> bool {
        self.jit.is_some()
    }

    /// Generates the Rust source of this tape's native settle function,
    /// register capture included (see [`crate::JitSource`]).
    /// `strober-jit` compiles this to a `cdylib` and attaches the result
    /// via [`attach_jit`](Simulator::attach_jit).
    pub fn jit_source(&self) -> JitSource {
        // The optimizer lays the constants out first, one slot per
        // distinct value, and no op ever writes them.
        let n_consts = self.values.len() - self.tape.len();
        crate::codegen::emit(
            &self.tape,
            &self.values[..n_consts],
            self.values.len(),
            &self.stored_slots(),
            &self.reg_plans,
        )
    }

    /// The label of the settle engine currently in effect, as used for
    /// benchmark rows and manifests: `"tape-jit"` or `"tape"`.
    pub fn active_engine_name(&self) -> &'static str {
        if self.jit.is_some() {
            "tape-jit"
        } else {
            "tape"
        }
    }

    /// Evaluates the combinational tape with the current inputs and state.
    /// Idempotent until the next poke, state change or clock edge.
    ///
    /// Dispatches to the native JIT engine when one is attached, else
    /// walks the tape — bit-identical either way. The native engine also
    /// leaves every register's next value in `reg_next`; that is safe to
    /// do on every settle, however many run per cycle, because the next
    /// state depends only on inputs, registers and memories, and every
    /// setter of those marks the simulator dirty.
    pub fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        if let Some(jit) = &self.jit {
            // SAFETY: `attach_jit` accepted this engine because its
            // signature is the hash of this tape's generated source, and
            // these are this simulator's own slab, port latches and
            // register files, with spans of its memories that are rebuilt
            // whenever a memory buffer may have moved.
            unsafe {
                jit.settle(
                    &mut self.values,
                    &self.inputs,
                    &self.regs,
                    self.mem_spans.of(&self.mems),
                    &mut self.reg_next,
                );
            }
            self.dirty = false;
            return;
        }
        for op in &self.tape {
            match *op {
                TapeOp::Input { dst, port } => {
                    self.values[dst as usize] = self.inputs[port as usize]
                }
                TapeOp::Unary { dst, op, a, w } => {
                    self.values[dst as usize] = op.eval(self.values[a as usize], w)
                }
                TapeOp::Binary { dst, op, a, b, w } => {
                    self.values[dst as usize] =
                        op.eval(self.values[a as usize], self.values[b as usize], w)
                }
                TapeOp::Mux { dst, sel, t, f } => {
                    self.values[dst as usize] = if self.values[sel as usize] != 0 {
                        self.values[t as usize]
                    } else {
                        self.values[f as usize]
                    }
                }
                TapeOp::Slice {
                    dst,
                    a,
                    shift,
                    mask,
                } => self.values[dst as usize] = (self.values[a as usize] >> shift) & mask,
                TapeOp::Cat { dst, hi, lo, shift } => {
                    self.values[dst as usize] =
                        (self.values[hi as usize] << shift) | self.values[lo as usize]
                }
                TapeOp::RegOut { dst, reg } => self.values[dst as usize] = self.regs[reg as usize],
                TapeOp::MemRead { dst, mem, addr } => {
                    let m = &self.mems[mem as usize];
                    let a = self.values[addr as usize] as usize;
                    // Addresses beyond the depth read as zero (the synthesis
                    // flow pads memories to powers of two the same way).
                    self.values[dst as usize] = m.get(a).copied().unwrap_or(0);
                }
                TapeOp::BitAnd { dst, a, b } => {
                    self.values[dst as usize] = self.values[a as usize] & self.values[b as usize]
                }
                TapeOp::BitOr { dst, a, b } => {
                    self.values[dst as usize] = self.values[a as usize] | self.values[b as usize]
                }
                TapeOp::BitXor { dst, a, b } => {
                    self.values[dst as usize] = self.values[a as usize] ^ self.values[b as usize]
                }
                TapeOp::CmpEq { dst, a, b } => {
                    self.values[dst as usize] =
                        u64::from(self.values[a as usize] == self.values[b as usize])
                }
                TapeOp::NotMask { dst, a, mask } => {
                    self.values[dst as usize] = !self.values[a as usize] & mask
                }
            }
        }
        self.dirty = false;
    }

    /// Advances one clock cycle: settle, capture register next-values,
    /// commit memory writes, bump the cycle counter.
    pub fn step(&mut self) {
        self.settle();
        self.clock_edge();
    }

    /// The synchronous half of a cycle: registers capture their next
    /// values, memory writes commit, the cycle counter increments.
    /// Settles first if needed, so calling this alone is a full
    /// [`step`](Simulator::step).
    ///
    /// Register capture is the one part that depends on the engine: the
    /// interpreted tape walks the register plans here, while a native
    /// engine already wrote `reg_next` in the settle above (an attach,
    /// a detach and every state setter mark the simulator dirty, so that
    /// settle always belongs to the current state and engine). Memory
    /// commit and the swap are shared by both.
    pub fn clock_edge(&mut self) {
        self.settle();
        if self.jit.is_none() {
            for (i, plan) in self.reg_plans.iter().enumerate() {
                let en = plan.enable.is_none_or(|e| self.values[e as usize] != 0);
                self.reg_next[i] = if en {
                    self.values[plan.next as usize] & plan.mask
                } else {
                    self.regs[i]
                };
            }
        }
        for plan in &self.write_plans {
            if self.values[plan.enable as usize] != 0 {
                let addr = self.values[plan.addr as usize] as usize;
                let data = self.values[plan.data as usize];
                let mem = &mut self.mems[plan.mem as usize];
                if let Some(slot) = mem.get_mut(addr) {
                    *slot = data;
                }
            }
        }
        std::mem::swap(&mut self.regs, &mut self.reg_next);
        self.cycle += 1;
        self.dirty = true;
    }

    /// Advances `n` cycles.
    pub fn step_n(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Reads a named output, settling combinational logic first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] for an unknown output.
    pub fn peek_output(&mut self, name: &str) -> Result<u64, SimError> {
        let id = *self
            .output_index
            .get(name)
            .ok_or_else(|| SimError::UnknownName {
                kind: "output",
                name: name.to_owned(),
            })?;
        Ok(self.peek(id))
    }

    /// Reads any node's settled value.
    ///
    /// Nodes whose slot the optimizer removed (folded, merged or dead)
    /// are recomputed on demand by a tree-walking fallback; outputs,
    /// register inputs and memory ports always stay on the fast path.
    pub fn peek(&mut self, node: NodeId) -> u64 {
        self.settle();
        match self.node_slot[node.index()] {
            DEAD => self.peek_slow(node, &mut HashMap::new()),
            slot if self.jit_skips(slot) => self.peek_slow(node, &mut HashMap::new()),
            slot => self.values[slot as usize],
        }
    }

    /// Recomputes a node the optimizer removed from the tape, reading live
    /// slots where available. Mirrors [`crate::NaiveInterpreter`] semantics.
    fn peek_slow(&self, id: NodeId, memo: &mut HashMap<NodeId, u64>) -> u64 {
        let slot = self.node_slot[id.index()];
        if slot != DEAD && !self.jit_skips(slot) {
            return self.values[slot as usize];
        }
        if let Some(&v) = memo.get(&id) {
            return v;
        }
        let v = match *self.design.node(id) {
            Node::Input(p) => self.inputs[p.index()],
            Node::Const(c) => c,
            Node::Unary { op, a } => op.eval(self.peek_slow(a, memo), self.design.width(a)),
            Node::Binary { op, a, b } => op.eval(
                self.peek_slow(a, memo),
                self.peek_slow(b, memo),
                self.design.width(a),
            ),
            Node::Mux { sel, t, f } => {
                if self.peek_slow(sel, memo) != 0 {
                    self.peek_slow(t, memo)
                } else {
                    self.peek_slow(f, memo)
                }
            }
            Node::Slice { a, hi, lo } => {
                let mask = Width::new(hi - lo + 1).expect("validated").mask();
                (self.peek_slow(a, memo) >> lo) & mask
            }
            Node::Cat { hi, lo } => {
                let shift = self.design.width(lo).bits();
                (self.peek_slow(hi, memo) << shift) | self.peek_slow(lo, memo)
            }
            Node::RegOut(r) => self.regs[r.index()],
            Node::MemRead { mem, port } => {
                let addr_node = self.design.memory(mem).read_ports()[port].addr();
                let addr = self.peek_slow(addr_node, memo) as usize;
                self.mems[mem.index()].get(addr).copied().unwrap_or(0)
            }
            Node::Wire(wid) => {
                let src = self.design.wire_driver(wid).expect("validated");
                self.peek_slow(src, memo)
            }
        };
        let v = v & self.design.width(id).mask();
        memo.insert(id, v);
        v
    }

    /// Resolves an output name to its node id once, for hot loops that
    /// would otherwise hash the name on every [`peek`](Simulator::peek).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] for an unknown output.
    pub fn resolve_output(&self, name: &str) -> Result<NodeId, SimError> {
        self.output_index
            .get(name)
            .copied()
            .ok_or_else(|| SimError::UnknownName {
                kind: "output",
                name: name.to_owned(),
            })
    }

    /// Resolves an input port name to its port id once, for hot loops that
    /// would otherwise hash the name on every [`poke`](Simulator::poke).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] for an unknown port.
    pub fn resolve_port(&self, name: &str) -> Result<PortId, SimError> {
        self.port_index
            .get(name)
            .map(|&(idx, _)| PortId::from_index(idx as usize))
            .ok_or_else(|| SimError::UnknownName {
                kind: "input port",
                name: name.to_owned(),
            })
    }

    /// The current value of a register.
    pub fn reg_value(&self, reg: RegId) -> u64 {
        self.regs[reg.index()]
    }

    /// Overwrites a register's current value (used when loading snapshots).
    pub fn set_reg_value(&mut self, reg: RegId, value: u64) {
        let mask = self.design.register(reg).width().mask();
        self.regs[reg.index()] = value & mask;
        self.dirty = true;
    }

    /// Reads one memory word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range for the memory.
    pub fn mem_value(&self, mem: MemId, addr: usize) -> u64 {
        self.mems[mem.index()][addr]
    }

    /// Overwrites one memory word (used when loading snapshots and
    /// program images).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range for the memory.
    pub fn set_mem_value(&mut self, mem: MemId, addr: usize, value: u64) {
        let mask = self.design.memory(mem).width().mask();
        self.mems[mem.index()][addr] = value & mask;
        self.dirty = true;
    }

    /// Captures the complete architectural state.
    pub fn state(&self) -> SimState {
        SimState {
            regs: self.regs.clone(),
            mems: self.mems.clone(),
            cycle: self.cycle,
        }
    }

    /// Restores a previously captured state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateShapeMismatch`] when the state does not
    /// match this design's register/memory shapes.
    pub fn restore(&mut self, state: &SimState) -> Result<(), SimError> {
        if state.regs.len() != self.regs.len() {
            return Err(SimError::StateShapeMismatch {
                what: "register count",
            });
        }
        if state.mems.len() != self.mems.len()
            || state
                .mems
                .iter()
                .zip(&self.mems)
                .any(|(a, b)| a.len() != b.len())
        {
            return Err(SimError::StateShapeMismatch {
                what: "memory shapes",
            });
        }
        self.regs.clone_from(&state.regs);
        self.mems.clone_from(&state.mems);
        self.mem_spans = MemSpans::default();
        self.cycle = state.cycle;
        self.dirty = true;
        Ok(())
    }

    /// Resets registers and memories to their declared initial values and
    /// the cycle counter to zero. Inputs are preserved.
    pub fn reset_state(&mut self) {
        for (i, (_, r)) in self.design.registers().enumerate() {
            self.regs[i] = r.init();
        }
        let inits: Vec<(usize, Vec<u64>, usize)> = self
            .design
            .memories()
            .enumerate()
            .map(|(i, (_, m))| (i, m.init().to_vec(), m.depth()))
            .collect();
        for (i, init, depth) in inits {
            let mut v = init;
            v.resize(depth, 0);
            self.mems[i] = v;
        }
        self.mem_spans = MemSpans::default();
        self.cycle = 0;
        self.dirty = true;
    }
}

impl Engine for Simulator {
    fn poke(&mut self, port: PortId, value: u64) {
        Simulator::poke(self, port, value);
    }

    fn peek(&mut self, node: NodeId) -> u64 {
        Simulator::peek(self, node)
    }

    fn settle(&mut self) {
        Simulator::settle(self);
    }

    fn clock_edge(&mut self) {
        Simulator::clock_edge(self);
    }

    fn state(&self) -> SimState {
        Simulator::state(self)
    }

    fn engine_name(&self) -> &'static str {
        self.active_engine_name()
    }
}

/// Mirrors one tape's [`PassStats`] into the probe registry so
/// `strober probe report` aggregates optimizer effectiveness across a flow.
fn record_pass_stats(stats: &PassStats) {
    if !strober_probe::enabled() {
        return;
    }
    strober_probe::counter_add("strober.sim.tape.ops_before", stats.ops_initial as u64);
    strober_probe::counter_add("strober.sim.tape.ops_after", stats.ops_final as u64);
    strober_probe::counter_add("strober.sim.tape.const_folded", stats.const_folded as u64);
    strober_probe::counter_add(
        "strober.sim.tape.copies_propagated",
        stats.copies_propagated as u64,
    );
    strober_probe::counter_add(
        "strober.sim.tape.dead_eliminated",
        stats.dead_eliminated as u64,
    );
    strober_probe::counter_add("strober.sim.tape.slots_before", stats.slots_initial as u64);
    strober_probe::counter_add("strober.sim.tape.slots_after", stats.slots_final as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_dsl::Ctx;

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    fn counter() -> Design {
        let ctx = Ctx::new("counter");
        let en = ctx.input("en", Width::BIT);
        let count = ctx.reg("count", w(8), 0);
        count.set_en(&count.out().add_lit(1), &en);
        ctx.output("value", &count.out());
        ctx.finish().unwrap()
    }

    #[test]
    fn counter_counts_when_enabled() {
        let mut sim = Simulator::new(&counter()).unwrap();
        sim.poke_by_name("en", 1).unwrap();
        sim.step_n(10);
        assert_eq!(sim.peek_output("value").unwrap(), 10);
        sim.poke_by_name("en", 0).unwrap();
        sim.step_n(3);
        assert_eq!(sim.peek_output("value").unwrap(), 10);
        assert_eq!(sim.cycle(), 13);
    }

    #[test]
    fn counter_wraps_at_width() {
        let mut sim = Simulator::new(&counter()).unwrap();
        sim.poke_by_name("en", 1).unwrap();
        sim.step_n(256);
        assert_eq!(sim.peek_output("value").unwrap(), 0);
    }

    #[test]
    fn unknown_names_error() {
        let mut sim = Simulator::new(&counter()).unwrap();
        assert!(matches!(
            sim.poke_by_name("nope", 0),
            Err(SimError::UnknownName { .. })
        ));
        assert!(matches!(
            sim.peek_output("nope"),
            Err(SimError::UnknownName { .. })
        ));
    }

    #[test]
    fn poke_checks_width() {
        let mut sim = Simulator::new(&counter()).unwrap();
        assert!(matches!(
            sim.poke_by_name("en", 2),
            Err(SimError::ValueTooWide { .. })
        ));
    }

    #[test]
    fn memory_write_then_read() {
        let ctx = Ctx::new("ram");
        let m = ctx.mem("ram", w(16), 16);
        let addr = ctx.input("addr", w(4));
        let data = ctx.input("data", w(16));
        let we = ctx.input("we", Width::BIT);
        ctx.output("q", &m.read(&addr));
        m.write(&addr, &data, &we);
        let design = ctx.finish().unwrap();

        let mut sim = Simulator::new(&design).unwrap();
        sim.poke_by_name("addr", 5).unwrap();
        sim.poke_by_name("data", 0xABCD).unwrap();
        sim.poke_by_name("we", 1).unwrap();
        // Combinational read before the write edge sees the old value.
        assert_eq!(sim.peek_output("q").unwrap(), 0);
        sim.step();
        sim.poke_by_name("we", 0).unwrap();
        assert_eq!(sim.peek_output("q").unwrap(), 0xABCD);
    }

    #[test]
    fn state_snapshot_and_restore_round_trips() {
        let mut sim = Simulator::new(&counter()).unwrap();
        sim.poke_by_name("en", 1).unwrap();
        sim.step_n(42);
        let snap = sim.state();
        sim.step_n(10);
        assert_eq!(sim.peek_output("value").unwrap(), 52);
        sim.restore(&snap).unwrap();
        assert_eq!(sim.cycle(), 42);
        assert_eq!(sim.peek_output("value").unwrap(), 42);
        // Determinism: re-running from the snapshot matches.
        sim.step_n(10);
        assert_eq!(sim.peek_output("value").unwrap(), 52);
    }

    #[test]
    fn restore_rejects_wrong_shape() {
        let mut sim = Simulator::new(&counter()).unwrap();
        let bad = SimState {
            regs: vec![0, 0],
            mems: vec![],
            cycle: 0,
        };
        assert!(sim.restore(&bad).is_err());
    }

    #[test]
    fn reset_state_restores_initial_values() {
        let mut sim = Simulator::new(&counter()).unwrap();
        sim.poke_by_name("en", 1).unwrap();
        sim.step_n(9);
        sim.reset_state();
        assert_eq!(sim.cycle(), 0);
        assert_eq!(sim.peek_output("value").unwrap(), 0);
    }

    #[test]
    fn register_without_enable_updates_every_cycle() {
        let ctx = Ctx::new("t");
        let r = ctx.reg("r", w(4), 3);
        r.set(&r.out().add_lit(2));
        ctx.output("o", &r.out());
        let design = ctx.finish().unwrap();
        let mut sim = Simulator::new(&design).unwrap();
        sim.step_n(2);
        assert_eq!(sim.peek_output("o").unwrap(), 7);
    }

    #[test]
    fn generated_source_captures_registers_without_storing_their_slots() {
        // `a` has no enable and its next value is also an output; `b` is
        // enabled by an input and its next value is internal.
        let ctx = Ctx::new("t");
        let en = ctx.input("en", Width::BIT);
        let x = ctx.input("x", w(8));
        let a = ctx.reg("a", w(8), 0);
        let b = ctx.reg("b", w(8), 0);
        let a_next = &a.out() + &x;
        a.set(&a_next);
        b.set_en(&(&b.out() ^ &x), &en);
        ctx.output("a_next", &a_next);
        ctx.output("b_out", &b.out());
        let sim = Simulator::new(&ctx.finish().unwrap()).unwrap();
        let src = sim.jit_source().source;
        let outputs: Vec<u32> = sim
            .output_index
            .values()
            .map(|id| sim.node_slot[id.index()])
            .collect();
        assert_eq!(sim.reg_plans.len(), 2);
        for (i, plan) in sim.reg_plans.iter().enumerate() {
            assert!(src.contains(&format!("*rn.add({i}) = ")), "register {i}");
            for slot in [Some(plan.next), plan.enable].into_iter().flatten() {
                assert_eq!(
                    src.contains(&format!("*v.add({slot}) = ")),
                    outputs.contains(&slot),
                    "slot {slot} of register {i} is stored iff it is an output"
                );
            }
        }
        assert!(sim.reg_plans.iter().any(|p| outputs.contains(&p.next)));
        assert!(sim.reg_plans.iter().any(|p| p.enable.is_some()));
    }

    #[test]
    fn gcd_computes() {
        let ctx = Ctx::new("gcd");
        let w16 = w(16);
        let a_in = ctx.input("a", w16);
        let b_in = ctx.input("b", w16);
        let start = ctx.input("start", Width::BIT);
        let x = ctx.reg("x", w16, 0);
        let y = ctx.reg("y", w16, 0);
        let x_gt_y = y.out().ltu(&x.out());
        let x_next = x_gt_y.mux(&(&x.out() - &y.out()), &x.out());
        let y_next = x_gt_y.mux(&y.out(), &(&y.out() - &x.out()));
        x.set(&start.mux(&a_in, &x_next));
        y.set(&start.mux(&b_in, &y_next));
        ctx.output("result", &x.out());
        ctx.output("done", &y.out().eq_lit(0));
        let design = ctx.finish().unwrap();

        let mut sim = Simulator::new(&design).unwrap();
        sim.poke_by_name("a", 48).unwrap();
        sim.poke_by_name("b", 36).unwrap();
        sim.poke_by_name("start", 1).unwrap();
        sim.step();
        sim.poke_by_name("start", 0).unwrap();
        let mut iters = 0;
        while sim.peek_output("done").unwrap() == 0 {
            sim.step();
            iters += 1;
            assert!(iters < 1000, "gcd did not converge");
        }
        assert_eq!(sim.peek_output("result").unwrap(), 12);
    }
}
