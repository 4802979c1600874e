//! The optimizing tape compiler.
//!
//! [`crate::Simulator::new`] lowers the topo-sorted design into a flat tape
//! through one fixed pass pipeline, run before the first `step`:
//!
//! 1. **Constant folding** — operators whose operands all resolve to
//!    constants are evaluated at compile time and become constants
//!    themselves; folding propagates through unary/binary/mux/slice/cat
//!    chains in one topological walk.
//! 2. **Copy propagation** — `Wire`s, mux-with-constant-select ops,
//!    operand identities and structurally identical ops (CSE) are erased
//!    by rewriting every reader to the underlying source.
//! 3. **Cat-through-slice rewrite** — a slice lying entirely in one side
//!    of a `cat` re-targets that side, so the cat can die.
//! 4. **Dead-code elimination** — slots never (transitively) read by an
//!    output, a register next-value/enable, a memory port or a scan-chain
//!    probe (which are plain hub outputs) emit no tape op at all; this
//!    also sweeps the cats pass 3 orphaned. A register whose enable
//!    folded to constant 0 holds its value forever, so its next value is
//!    not a root and its capture is a copy.
//!
//! Slot renumbering then packs the surviving ops into a dense,
//! evaluation-ordered `values` layout (deduplicated constants first) and
//! specializes the mask-free opcodes (`BitAnd`, `BitOr`, `BitXor`,
//! `CmpEq`, `NotMask`) the interpreted tape walk dispatches fastest.
//!
//! Every pass preserves the cycle-accurate semantics of the design
//! bit-for-bit — [`crate::NaiveInterpreter`] is the reference;
//! `Simulator::peek` falls back to a tree-walking evaluator for nodes
//! whose slot was optimized away. See DESIGN.md §11 for the per-pass
//! invariants.
//!
//! Beyond the dense `values` layout, slot renumbering leaves the emitted
//! tape in *single-assignment* form: constants are materialized before
//! the first op runs and every surviving op writes exactly one slot no
//! other op writes. The code generator ([`crate::Simulator::jit_source`])
//! depends on that shape — each op becomes one SSA local, and only the
//! externally observed slots are stored back to the slab.

use crate::tape::{RegPlan, TapeOp, WritePlan, DEAD};
use std::collections::HashMap;
use strober_rtl::{BinOp, Design, Node, NodeId, TopoOrder, UnOp, Width};

/// Exists only for the frozen benchmark harness's `with_options` call.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct TapeOptions;

impl TapeOptions {
    /// Exists only for the frozen benchmark harness's `with_options` call.
    #[doc(hidden)]
    pub fn all() -> Self {
        TapeOptions
    }
}

/// Counters describing what the optimizer did to one compiled tape.
///
/// Exposed via [`crate::Simulator::pass_stats`] and mirrored into
/// `strober.sim.tape.*` probe counters so `strober probe report` shows
/// aggregate numbers across a whole flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Tape ops a one-op-per-node lowering would emit (one per non-const
    /// node).
    pub ops_initial: usize,
    /// Non-constant nodes folded to compile-time constants.
    pub const_folded: usize,
    /// Live `Wire`/alias ops erased by operand rewriting.
    pub copies_propagated: usize,
    /// Ops dropped because nothing observable reads them, including cats
    /// the cat-through-slice rewrite orphaned.
    pub dead_eliminated: usize,
    /// Tape ops actually emitted.
    pub ops_final: usize,
    /// `values` slots before renumbering (== node count).
    pub slots_initial: usize,
    /// `values` slots after dense renumbering.
    pub slots_final: usize,
}

/// Everything `Simulator` needs to run a compiled tape.
pub(crate) struct TapePlan {
    pub(crate) tape: Vec<TapeOp>,
    pub(crate) reg_plans: Vec<RegPlan>,
    pub(crate) write_plans: Vec<WritePlan>,
    /// Initial `values` array with constant slots prefilled.
    pub(crate) values: Vec<u64>,
    /// Node index → value slot, [`DEAD`] when the node has no slot.
    pub(crate) node_slot: Vec<u32>,
    pub(crate) stats: PassStats,
}

/// Working representation of one node during optimization. Indexed by node,
/// mutated in place by the passes; `Copy` stands for both design `Wire`s
/// and aliases introduced by copy propagation.
#[derive(Debug, Clone, Copy)]
enum WOp {
    Const(u64),
    Input(u32),
    Unary { op: UnOp, a: u32, w: Width },
    Binary { op: BinOp, a: u32, b: u32, w: Width },
    Mux { sel: u32, t: u32, f: u32 },
    Slice { a: u32, shift: u8, mask: u64 },
    Cat { hi: u32, lo: u32, shift: u8 },
    RegOut(u32),
    MemRead { mem: u32, addr: u32 },
    Copy(u32),
}

/// Follows `Copy` chains to the representative node.
fn resolve(wops: &[WOp], mut i: u32) -> u32 {
    while let WOp::Copy(src) = wops[i as usize] {
        i = src;
    }
    i
}

/// Reads the value of a node that resolved to a constant, if any.
fn const_of(wops: &[WOp], i: u32) -> Option<u64> {
    match wops[resolve(wops, i) as usize] {
        WOp::Const(v) => Some(v),
        _ => None,
    }
}

/// Compiles a design through the optimizing pass pipeline.
pub(crate) fn compile(design: &Design, topo: &TopoOrder) -> TapePlan {
    let n = design.node_count();
    let order: Vec<u32> = topo.iter().map(|id| id.index() as u32).collect();
    let mut wops = lower_wops(design, &order);
    let mut stats = PassStats {
        ops_initial: wops.iter().filter(|w| !matches!(w, WOp::Const(_))).count(),
        slots_initial: n,
        ..PassStats::default()
    };

    stats.const_folded = fold_constants(&mut wops, &order);
    let widths: Vec<Width> = (0..n)
        .map(|i| design.width(NodeId::from_index(i)))
        .collect();
    propagate_copies(&mut wops, &order, &widths);
    rewrite_cat_slices(&mut wops, &order);
    let live = mark_live(&wops, &collect_roots(design, &wops));

    stats.copies_propagated = (0..n)
        .filter(|&i| live[i] && matches!(wops[i], WOp::Copy(_)))
        .count();
    stats.dead_eliminated = (0..n)
        .filter(|&i| !live[i] && !matches!(wops[i], WOp::Const(_) | WOp::Copy(_)))
        .count();

    // Slot assignment: deduplicated constants first, then computed slots in
    // evaluation order.
    let mut node_slot = vec![DEAD; n];
    let mut values = Vec::new();
    let mut const_slots: HashMap<u64, u32> = HashMap::new();
    for &i in &order {
        if !live[i as usize] {
            continue;
        }
        if let WOp::Const(v) = wops[i as usize] {
            let slot = *const_slots.entry(v).or_insert_with(|| {
                values.push(v);
                (values.len() - 1) as u32
            });
            node_slot[i as usize] = slot;
        }
    }
    let n_const_slots = values.len();
    let mut tape = Vec::new();
    for &i in &order {
        if !live[i as usize] {
            continue;
        }
        let dst = values.len() as u32;
        let slot = |x: u32| -> u32 { node_slot[resolve(&wops, x) as usize] };
        let op = match wops[i as usize] {
            WOp::Const(_) => continue,
            // Live copies alias their representative's slot.
            WOp::Copy(_) => {
                node_slot[i as usize] = slot(i);
                continue;
            }
            WOp::Input(p) => TapeOp::Input { dst, port: p },
            WOp::Unary {
                op: UnOp::Not,
                a,
                w,
            } => TapeOp::NotMask {
                dst,
                a: slot(a),
                mask: w.mask(),
            },
            WOp::Unary { op, a, w } => TapeOp::Unary {
                dst,
                op,
                a: slot(a),
                w,
            },
            WOp::Binary {
                op: BinOp::And,
                a,
                b,
                ..
            } => TapeOp::BitAnd {
                dst,
                a: slot(a),
                b: slot(b),
            },
            WOp::Binary {
                op: BinOp::Or,
                a,
                b,
                ..
            } => TapeOp::BitOr {
                dst,
                a: slot(a),
                b: slot(b),
            },
            WOp::Binary {
                op: BinOp::Xor,
                a,
                b,
                ..
            } => TapeOp::BitXor {
                dst,
                a: slot(a),
                b: slot(b),
            },
            WOp::Binary {
                op: BinOp::Eq,
                a,
                b,
                ..
            } => TapeOp::CmpEq {
                dst,
                a: slot(a),
                b: slot(b),
            },
            WOp::Binary { op, a, b, w } => TapeOp::Binary {
                dst,
                op,
                a: slot(a),
                b: slot(b),
                w,
            },
            WOp::Mux { sel, t, f } => TapeOp::Mux {
                dst,
                sel: slot(sel),
                t: slot(t),
                f: slot(f),
            },
            WOp::Slice { a, shift, mask } => TapeOp::Slice {
                dst,
                a: slot(a),
                shift,
                mask,
            },
            WOp::Cat { hi, lo, shift } => TapeOp::Cat {
                dst,
                hi: slot(hi),
                lo: slot(lo),
                shift,
            },
            WOp::RegOut(r) => TapeOp::RegOut { dst, reg: r },
            WOp::MemRead { mem, addr } => TapeOp::MemRead {
                dst,
                mem,
                addr: slot(addr),
            },
        };
        values.push(0);
        node_slot[i as usize] = dst;
        tape.push(op);
    }
    debug_assert_eq!(values.len(), n_const_slots + tape.len());

    stats.ops_final = tape.len();
    stats.slots_final = values.len();
    TapePlan {
        reg_plans: reg_plans(design, &wops, &node_slot),
        write_plans: write_plans(design, &wops, &node_slot),
        tape,
        values,
        node_slot,
        stats,
    }
}

/// One capture plan per register. An enable that folded to a nonzero
/// constant is dropped. One that folded to 0 means the register holds:
/// its next-state cone was never lowered (see [`collect_roots`]), so the
/// plan names the enable's constant slot for both fields, and every
/// engine's capture keeps the old value.
fn reg_plans(design: &Design, wops: &[WOp], node_slot: &[u32]) -> Vec<RegPlan> {
    let slot = |x: NodeId| node_slot[resolve(wops, x.index() as u32) as usize];
    design
        .registers()
        .map(|(_, r)| {
            let next = r.next().expect("validated");
            let (next, enable) = match r.enable() {
                Some(en) => match const_of(wops, en.index() as u32) {
                    Some(0) => (slot(en), Some(slot(en))),
                    Some(_) => (slot(next), None),
                    None => (slot(next), Some(slot(en))),
                },
                None => (slot(next), None),
            };
            RegPlan {
                next,
                enable,
                mask: r.width().mask(),
            }
        })
        .collect()
}

fn write_plans(design: &Design, wops: &[WOp], node_slot: &[u32]) -> Vec<WritePlan> {
    let slot = |x: NodeId| node_slot[resolve(wops, x.index() as u32) as usize];
    let mut plans = Vec::new();
    for (mid, m) in design.memories() {
        for wp in m.write_ports() {
            plans.push(WritePlan {
                mem: mid.index() as u32,
                addr: slot(wp.addr()),
                data: slot(wp.data()),
                enable: slot(wp.enable()),
            });
        }
    }
    plans
}

/// Lowers the design into the mutable working representation.
fn lower_wops(design: &Design, order: &[u32]) -> Vec<WOp> {
    let mut wops = vec![WOp::Const(0); design.node_count()];
    for &i in order {
        let id = NodeId::from_index(i as usize);
        wops[i as usize] = match *design.node(id) {
            Node::Const(v) => WOp::Const(v),
            Node::Input(p) => WOp::Input(p.index() as u32),
            Node::Unary { op, a } => WOp::Unary {
                op,
                a: a.index() as u32,
                w: design.width(a),
            },
            Node::Binary { op, a, b } => WOp::Binary {
                op,
                a: a.index() as u32,
                b: b.index() as u32,
                w: design.width(a),
            },
            Node::Mux { sel, t, f } => WOp::Mux {
                sel: sel.index() as u32,
                t: t.index() as u32,
                f: f.index() as u32,
            },
            Node::Slice { a, hi, lo } => WOp::Slice {
                a: a.index() as u32,
                shift: lo as u8,
                mask: Width::new(hi - lo + 1).expect("validated").mask(),
            },
            Node::Cat { hi, lo } => WOp::Cat {
                hi: hi.index() as u32,
                lo: lo.index() as u32,
                shift: design.width(lo).bits() as u8,
            },
            Node::RegOut(r) => WOp::RegOut(r.index() as u32),
            Node::MemRead { mem, port } => WOp::MemRead {
                mem: mem.index() as u32,
                addr: design.memory(mem).read_ports()[port].addr().index() as u32,
            },
            Node::Wire(wid) => {
                WOp::Copy(design.wire_driver(wid).expect("validated").index() as u32)
            }
        };
    }
    wops
}

/// Pass 1: constant folding with propagation. One topological walk; copies
/// of constants become constants, so folding sees through wires.
/// Annihilating operand patterns (`and` with 0, `mul` by 0) fold even when
/// the other operand is unknown.
fn fold_constants(wops: &mut [WOp], order: &[u32]) -> usize {
    let mut folded = 0;
    for &i in order {
        let new = match wops[i as usize] {
            WOp::Unary { op, a, w } => const_of(wops, a).map(|av| op.eval(av, w)),
            WOp::Binary { op, a, b, w } => match (const_of(wops, a), const_of(wops, b)) {
                (Some(av), Some(bv)) => Some(op.eval(av, bv, w)),
                (av, bv) => annihilate(op, av, bv, w),
            },
            WOp::Mux { sel, t, f } => {
                const_of(wops, sel).and_then(|s| const_of(wops, if s != 0 { t } else { f }))
            }
            WOp::Slice { a, shift, mask } => const_of(wops, a).map(|av| (av >> shift) & mask),
            WOp::Cat { hi, lo, shift } => match (const_of(wops, hi), const_of(wops, lo)) {
                (Some(hv), Some(lv)) => Some((hv << shift) | lv),
                _ => None,
            },
            WOp::Copy(src) => const_of(wops, src),
            _ => None,
        };
        if let Some(v) = new {
            wops[i as usize] = WOp::Const(v);
            folded += 1;
        }
    }
    folded
}
/// Folds a binary whose result is fixed by one constant operand alone.
fn annihilate(op: BinOp, a: Option<u64>, b: Option<u64>, w: Width) -> Option<u64> {
    match op {
        BinOp::And if a == Some(0) || b == Some(0) => Some(0),
        BinOp::Mul if a == Some(0) || b == Some(0) => Some(0),
        BinOp::Or if a == Some(w.mask()) || b == Some(w.mask()) => Some(w.mask()),
        _ => None,
    }
}

/// Pass 2: copy propagation. One topological walk creating `Copy` aliases
/// that emission later erases by operand rewriting:
///
/// * muxes whose select resolves to a constant take the chosen branch;
/// * muxes whose branches resolve to the same node are that node;
/// * `cat` with an all-zero high side is its low side;
/// * full-width slices are their operand;
/// * binaries with an identity operand (`x|0`, `x^0`, `x+0`, `x-0`,
///   `x<<0`, `x>>0`, `x&ones`, `x*1`, `x/1`) are the other operand;
/// * structurally identical ops are merged into the first occurrence
///   (local value numbering — the classic "node merging" win on
///   generated hubs, where every scan element stamps out the same
///   gating expressions).
///
/// (Design `Wire`s are already `Copy` ops and need no rewrite here.)
fn propagate_copies(wops: &mut [WOp], order: &[u32], widths: &[Width]) {
    let mut seen: HashMap<CseKey, u32> = HashMap::new();
    for &i in order {
        let alias = match wops[i as usize] {
            WOp::Mux { sel, t, f } => match const_of(wops, sel) {
                Some(s) => Some(if s != 0 { t } else { f }),
                None if resolve(wops, t) == resolve(wops, f) => Some(t),
                None => None,
            },
            // (0 << shift) | lo == lo: the FAME scan chain pads every
            // sub-64-bit register this way.
            WOp::Cat { hi, lo, .. } if const_of(wops, hi) == Some(0) => Some(lo),
            // A zero-based slice whose mask covers every bit the (resolved)
            // operand can carry passes the value through unchanged.
            WOp::Slice { a, shift, mask }
                if shift == 0
                    && mask & widths[resolve(wops, a) as usize].mask()
                        == widths[resolve(wops, a) as usize].mask() =>
            {
                Some(a)
            }
            WOp::Binary { op, a, b, w } => identity_operand(wops, op, a, b, w),
            _ => None,
        };
        if let Some(src) = alias {
            wops[i as usize] = WOp::Copy(src);
            continue;
        }
        // Value numbering over resolved operands: all ops are pure
        // functions of operands and (settle-constant) register/memory
        // state, so equal keys always hold equal values.
        if let Some(key) = cse_key(wops, i) {
            match seen.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    wops[i as usize] = WOp::Copy(*e.get());
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i);
                }
            }
        }
    }
}

/// The other operand when one side is this op's identity element, if any.
fn identity_operand(wops: &[WOp], op: BinOp, a: u32, b: u32, w: Width) -> Option<u32> {
    let (ca, cb) = (const_of(wops, a), const_of(wops, b));
    let pick = |cx: Option<u64>, ident: u64, other: u32| -> Option<u32> {
        (cx == Some(ident)).then_some(other)
    };
    match op {
        BinOp::Or | BinOp::Xor | BinOp::Add => pick(ca, 0, b).or_else(|| pick(cb, 0, a)),
        BinOp::And => pick(ca, w.mask(), b).or_else(|| pick(cb, w.mask(), a)),
        BinOp::Mul => pick(ca, 1, b).or_else(|| pick(cb, 1, a)),
        BinOp::Sub | BinOp::Shl | BinOp::Shr | BinOp::Sra => pick(cb, 0, a),
        BinOp::DivU => pick(cb, 1, a),
        _ => None,
    }
}

/// Structural key for value numbering; `None` for constants (deduplicated
/// at slot assignment instead).
type CseKey = (u8, u32, u64, u64, u32, u32, u32);

fn cse_key(wops: &[WOp], i: u32) -> Option<CseKey> {
    let r = |x: u32| resolve(wops, x);
    Some(match wops[i as usize] {
        WOp::Const(_) | WOp::Copy(_) => return None,
        WOp::Input(p) => (1, p, 0, 0, 0, 0, 0),
        WOp::RegOut(reg) => (2, reg, 0, 0, 0, 0, 0),
        WOp::Unary { op, a, .. } => (3, op as u32, 0, 0, r(a), 0, 0),
        WOp::Binary { op, a, b, .. } => {
            let (mut ra, mut rb) = (r(a), r(b));
            if commutes(op) && ra > rb {
                std::mem::swap(&mut ra, &mut rb);
            }
            (4, op as u32, 0, 0, ra, rb, 0)
        }
        WOp::Mux { sel, t, f } => (5, 0, 0, 0, r(sel), r(t), r(f)),
        WOp::Slice { a, shift, mask } => (6, u32::from(shift), mask, 0, r(a), 0, 0),
        WOp::Cat { hi, lo, shift } => (7, u32::from(shift), 0, 0, r(hi), r(lo), 0),
        WOp::MemRead { mem, addr } => (8, mem, 0, 0, r(addr), 0, 0),
    })
}

fn commutes(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Neq
    )
}

/// Observable roots: outputs, register next/enable, memory write ports.
/// Memory read addresses are reached through live `MemRead` ops; scan-chain
/// and trace probes are ordinary hub outputs. A register whose enable
/// folded to constant 0 never loads, so its next value is no root: only
/// the constant enable is kept, for the capture plan to name.
fn collect_roots(design: &Design, wops: &[WOp]) -> Vec<u32> {
    let mut roots = Vec::new();
    for (_, id) in design.outputs() {
        roots.push(id.index() as u32);
    }
    for (_, r) in design.registers() {
        let enable = r.enable().map(|e| e.index() as u32);
        if enable.and_then(|e| const_of(wops, e)) != Some(0) {
            roots.push(r.next().expect("validated").index() as u32);
        }
        roots.extend(enable);
    }
    for (_, m) in design.memories() {
        for wp in m.write_ports() {
            roots.push(wp.addr().index() as u32);
            roots.push(wp.data().index() as u32);
            roots.push(wp.enable().index() as u32);
        }
    }
    roots
}

fn operands(w: &WOp) -> Vec<u32> {
    match *w {
        WOp::Const(_) | WOp::Input(_) | WOp::RegOut(_) => Vec::new(),
        WOp::Unary { a, .. } => vec![a],
        WOp::Binary { a, b, .. } => vec![a, b],
        WOp::Mux { sel, t, f } => vec![sel, t, f],
        WOp::Slice { a, .. } => vec![a],
        WOp::Cat { hi, lo, .. } => vec![hi, lo],
        WOp::MemRead { addr, .. } => vec![addr],
        WOp::Copy(src) => vec![src],
    }
}

/// Pass 4: liveness from the observable roots; nodes it never reaches emit
/// no tape op.
fn mark_live(wops: &[WOp], roots: &[u32]) -> Vec<bool> {
    let mut live = vec![false; wops.len()];
    let mut stack: Vec<u32> = roots.to_vec();
    while let Some(i) = stack.pop() {
        if live[i as usize] {
            continue;
        }
        live[i as usize] = true;
        stack.extend(operands(&wops[i as usize]));
    }
    live
}

/// Pass 3: slices that read a cat and lie entirely within one side are
/// rewritten to slice that side directly, letting the cat go dead. Repeats
/// per node so nested cats (scan-chain padding) collapse fully; a slice
/// that lands on a constant folds.
fn rewrite_cat_slices(wops: &mut [WOp], order: &[u32]) {
    for &i in order {
        while let WOp::Slice { a, shift, mask } = wops[i as usize] {
            let src = resolve(wops, a);
            let WOp::Cat {
                hi,
                lo,
                shift: cshift,
            } = wops[src as usize]
            else {
                if let Some(av) = const_of(wops, a) {
                    wops[i as usize] = WOp::Const((av >> shift) & mask);
                }
                break;
            };
            let bits = mask.count_ones() as u8;
            if shift + bits <= cshift {
                wops[i as usize] = WOp::Slice { a: lo, shift, mask };
            } else if shift >= cshift {
                wops[i as usize] = WOp::Slice {
                    a: hi,
                    shift: shift - cshift,
                    mask,
                };
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    #[test]
    fn slices_through_a_cat_retarget_its_sides_and_the_cat_dies() {
        // lo = slice(cat(x, y), 7, 0) lies in y; hi = slice(cat, 15, 12)
        // lies in x. Both re-target their side, nothing else reads the
        // cat, so it leaves the tape.
        let mut d = Design::new("cat_slice");
        let x = d.input("x", w(8)).unwrap();
        let y = d.input("y", w(8)).unwrap();
        let cat = d.cat(x, y).unwrap();
        let lo = d.slice(cat, 7, 0).unwrap();
        let hi = d.slice(cat, 15, 12).unwrap();
        d.output("lo", lo).unwrap();
        d.output("hi", hi).unwrap();

        let plan = compile(&d, &d.topo_order().unwrap());
        let slot = |id: NodeId| plan.node_slot[id.index()];
        assert_eq!(slot(cat), DEAD, "the orphaned cat has no slot");
        assert!(!plan.tape.iter().any(|op| matches!(op, TapeOp::Cat { .. })));
        assert!(plan.tape.iter().any(|op| matches!(
            *op,
            TapeOp::Slice { a, shift: 0, mask: 0xff, .. } if a == slot(y)
        )));
        assert!(plan.tape.iter().any(|op| matches!(
            *op,
            TapeOp::Slice { a, shift: 4, mask: 0xf, .. } if a == slot(x)
        )));
        assert_eq!(plan.stats.dead_eliminated, 1, "{:?}", plan.stats);
        assert_eq!(plan.stats.ops_final, 4, "two inputs, two slices");

        // Both the slices and the dead cat read back the right values.
        let mut sim = Simulator::new(&d).unwrap();
        sim.poke_by_name("x", 0xA5).unwrap();
        sim.poke_by_name("y", 0x3C).unwrap();
        assert_eq!(sim.peek(lo), 0x3C);
        assert_eq!(sim.peek(hi), 0xA);
        assert_eq!(sim.peek(cat), 0xA53C);
    }

    #[test]
    fn a_register_whose_enable_folds_to_zero_holds_and_costs_no_op() {
        // `held` would add x every cycle, but its enable is `go & 0`;
        // `live` has the same next-state cone and a real enable.
        let mut d = Design::new("held");
        let x = d.input("x", w(8)).unwrap();
        let go = d.input("go", w(1)).unwrap();
        let zero = d.constant(0, w(1));
        let never = d.and(go, zero).unwrap();
        let held = d.reg("held", w(8), 5).unwrap();
        let live = d.reg("live", w(8), 5).unwrap();
        let (hq, lq) = (d.reg_out(held), d.reg_out(live));
        let hsum = d.add(hq, x).unwrap();
        let lsum = d.add(lq, x).unwrap();
        d.connect_reg(held, hsum, Some(never)).unwrap();
        d.connect_reg(live, lsum, Some(go)).unwrap();
        d.output("held_q", hq).unwrap();
        d.output("live_q", lq).unwrap();

        let plan = compile(&d, &d.topo_order().unwrap());
        assert_eq!(plan.node_slot[hsum.index()], DEAD, "no next-state op");
        let adds = plan
            .tape
            .iter()
            .filter(|op| matches!(op, TapeOp::Binary { op: BinOp::Add, .. }));
        assert_eq!(adds.count(), 1, "only `live` adds");
        let hold = plan.reg_plans[held.index()];
        assert_eq!(hold.enable, Some(hold.next));
        assert_eq!(plan.values[hold.next as usize], 0, "a constant-0 slot");

        let mut sim = Simulator::new(&d).unwrap();
        let mut reference = crate::NaiveInterpreter::new(&d).unwrap();
        for (x, go) in [(3, 1), (4, 1), (5, 0), (6, 1)] {
            sim.poke_by_name("x", x).unwrap();
            sim.poke_by_name("go", go).unwrap();
            reference.poke_by_name("x", x).unwrap();
            reference.poke_by_name("go", go).unwrap();
            sim.step();
            reference.step();
            assert_eq!(sim.peek_output("held_q").unwrap(), 5);
            assert_eq!(
                sim.peek_output("live_q").unwrap(),
                reference.peek_output("live_q").unwrap()
            );
        }
        assert_eq!(sim.peek_output("live_q").unwrap(), (5 + 3 + 4 + 6) & 0xff);
        // A loaded snapshot value is held too.
        sim.set_reg_value(held, 9);
        sim.step_n(3);
        assert_eq!(sim.peek_output("held_q").unwrap(), 9);
        assert_eq!(sim.peek(hsum), 9 + 6, "the dead cone still peeks");
    }
}
