//! The optimizing tape compiler.
//!
//! [`crate::Simulator::new`] lowers the topo-sorted design into a flat tape
//! and then runs the pass pipeline in this module before the first `step`:
//!
//! 1. **Constant folding** — operators whose operands all resolve to
//!    constants are evaluated at compile time and become constants
//!    themselves; folding propagates through unary/binary/mux/slice/cat
//!    chains in one topological walk.
//! 2. **Copy propagation** — `Wire` ops and mux-with-constant-select ops
//!    are erased by rewriting every reader to the underlying source.
//! 3. **Dead-code elimination** — slots never (transitively) read by an
//!    output, a register next-value/enable, a memory port or a scan-chain
//!    probe (which are plain hub outputs) emit no tape op at all.
//! 4. **Peephole fusion** — the hot two-op patterns slice-then-binary and
//!    binary-then-mux become single fused superops; slice-of-cat is
//!    rewritten to a slice of the covering side so the cat can die.
//! 5. **Slot renumbering** — surviving ops are packed into a dense,
//!    evaluation-ordered `values` layout (deduplicated constants first)
//!    for cache locality.
//!
//! Every pass preserves the cycle-accurate semantics of the unoptimized
//! tape bit-for-bit; `Simulator::peek` falls back to a tree-walking
//! evaluator for nodes whose slot was optimized away. See DESIGN.md §11
//! for the per-pass invariants.
//!
//! Beyond the dense `values` layout, slot renumbering leaves the emitted
//! tape in *single-assignment* form: constants are materialized before
//! the first op runs and every surviving op writes exactly one slot no
//! other op writes. The code generator ([`crate::Simulator::jit_source`])
//! depends on that shape — each op becomes one SSA local, and only the
//! externally observed slots are stored back to the slab.

use crate::tape::{RegPlan, TapeOp, WritePlan, DEAD};
use std::collections::HashMap;
use strober_rtl::{BinOp, Design, Node, TopoOrder, UnOp, Width};

/// Which optimizer passes to run when compiling a [`crate::Simulator`] tape.
///
/// The default ([`TapeOptions::all`]) enables the full pipeline;
/// [`TapeOptions::none`] bypasses the optimizer entirely and reproduces the
/// legacy one-op-per-node lowering (this is what the CLI `--no-tape-opt`
/// escape hatch selects). Individual passes can be toggled for debugging
/// and for the per-pass golden equivalence tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeOptions {
    /// Fold and propagate constants through combinational ops.
    pub const_fold: bool,
    /// Erase `Wire` ops and constant-select muxes by operand rewriting.
    pub copy_prop: bool,
    /// Drop ops whose results no output, register, memory port or probe
    /// ever reads.
    pub dce: bool,
    /// Fuse slice→binary, binary→mux and cat→slice patterns.
    pub fuse: bool,
}

impl TapeOptions {
    /// Enables every pass (the default for [`crate::Simulator::new`]).
    pub fn all() -> Self {
        TapeOptions {
            const_fold: true,
            copy_prop: true,
            dce: true,
            fuse: true,
        }
    }

    /// Disables every pass: the tape is the legacy unoptimized lowering
    /// with one op per RTL node and slot == node index.
    pub fn none() -> Self {
        TapeOptions {
            const_fold: false,
            copy_prop: false,
            dce: false,
            fuse: false,
        }
    }

    /// Whether any pass is enabled.
    pub fn any(&self) -> bool {
        self.const_fold || self.copy_prop || self.dce || self.fuse
    }
}

impl Default for TapeOptions {
    fn default() -> Self {
        TapeOptions::all()
    }
}

/// Counters describing what the optimizer did to one compiled tape.
///
/// Exposed via [`crate::Simulator::pass_stats`] and mirrored into
/// `strober.sim.tape.*` probe counters so `strober probe report` shows
/// aggregate numbers across a whole flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Tape ops the unoptimized lowering would emit (one per non-const node).
    pub ops_initial: usize,
    /// Non-constant nodes folded to compile-time constants.
    pub const_folded: usize,
    /// Live `Wire`/alias ops erased by operand rewriting.
    pub copies_propagated: usize,
    /// Ops dropped because nothing observable reads them.
    pub dead_eliminated: usize,
    /// Fused superops emitted (each replaces a two-op pattern).
    pub ops_fused: usize,
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

/// A planned superop: the keyed node absorbs one single-use producer.
#[derive(Debug, Clone, Copy)]
enum FusePlan {
    /// A `Binary` node absorbing the `Slice` at `slice` as one operand.
    SliceBin { slice: u32, slice_lhs: bool },
    /// A `Mux` node absorbing the `Binary` at `bin` as its select.
    BinMux { bin: u32 },
    /// A `Mux` node absorbing the `Mux` at `inner` as one branch.
    MuxMux { inner: u32, inner_in_true: bool },
}

/// The legacy lowering: one tape op per non-constant node, slot == node
/// index, constants prefilled into `values`. `--no-tape-opt` and
/// [`TapeOptions::none`] take this path without running any pass.
pub(crate) fn lower_identity(design: &Design, topo: &TopoOrder) -> TapePlan {
    let n = design.node_count();
    let mut values = vec![0u64; n];
    let mut tape = Vec::with_capacity(n);
    for id in topo.iter() {
        let dst = id.index() as u32;
        match *design.node(id) {
            Node::Const(v) => values[id.index()] = v,
            Node::Input(p) => tape.push(TapeOp::Input {
                dst,
                port: p.index() as u32,
            }),
            Node::Unary { op, a } => tape.push(TapeOp::Unary {
                dst,
                op,
                a: a.index() as u32,
                w: design.width(a),
            }),
            Node::Binary { op, a, b } => tape.push(TapeOp::Binary {
                dst,
                op,
                a: a.index() as u32,
                b: b.index() as u32,
                w: design.width(a),
            }),
            Node::Mux { sel, t, f } => tape.push(TapeOp::Mux {
                dst,
                sel: sel.index() as u32,
                t: t.index() as u32,
                f: f.index() as u32,
            }),
            Node::Slice { a, hi, lo } => tape.push(TapeOp::Slice {
                dst,
                a: a.index() as u32,
                shift: lo as u8,
                mask: Width::new(hi - lo + 1).expect("validated").mask(),
            }),
            Node::Cat { hi, lo } => tape.push(TapeOp::Cat {
                dst,
                hi: hi.index() as u32,
                lo: lo.index() as u32,
                shift: design.width(lo).bits() as u8,
            }),
            Node::RegOut(r) => tape.push(TapeOp::RegOut {
                dst,
                reg: r.index() as u32,
            }),
            Node::MemRead { mem, port } => {
                let addr = design.memory(mem).read_ports()[port].addr();
                tape.push(TapeOp::MemRead {
                    dst,
                    mem: mem.index() as u32,
                    addr: addr.index() as u32,
                });
            }
            Node::Wire(wid) => {
                let src = design.wire_driver(wid).expect("validated");
                tape.push(TapeOp::Wire {
                    dst,
                    src: src.index() as u32,
                });
            }
        }
    }
    let ops = tape.len();
    TapePlan {
        tape,
        reg_plans: reg_plans(design, &identity_slots(n)),
        write_plans: write_plans(design, &identity_slots(n)),
        values,
        node_slot: identity_slots(n),
        stats: PassStats {
            ops_initial: ops,
            ops_final: ops,
            slots_initial: n,
            slots_final: n,
            ..PassStats::default()
        },
    }
}

fn identity_slots(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

fn reg_plans(design: &Design, node_slot: &[u32]) -> Vec<RegPlan> {
    design
        .registers()
        .map(|(_, r)| RegPlan {
            next: node_slot[r.next().expect("validated").index()],
            enable: r.enable().map(|e| node_slot[e.index()]),
            mask: r.width().mask(),
        })
        .collect()
}

fn write_plans(design: &Design, node_slot: &[u32]) -> Vec<WritePlan> {
    let mut plans = Vec::new();
    for (mid, m) in design.memories() {
        for wp in m.write_ports() {
            plans.push(WritePlan {
                mem: mid.index() as u32,
                addr: node_slot[wp.addr().index()],
                data: node_slot[wp.data().index()],
                enable: node_slot[wp.enable().index()],
            });
        }
    }
    plans
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
pub(crate) fn compile(design: &Design, topo: &TopoOrder, options: &TapeOptions) -> TapePlan {
    let n = design.node_count();
    let order: Vec<u32> = topo.iter().map(|id| id.index() as u32).collect();
    let mut wops = lower_wops(design, &order);
    let mut stats = PassStats {
        ops_initial: wops.iter().filter(|w| !matches!(w, WOp::Const(_))).count(),
        slots_initial: n,
        ..PassStats::default()
    };

    if options.const_fold {
        stats.const_folded = fold_constants(&mut wops, &order);
    }
    if options.copy_prop {
        let widths: Vec<Width> = (0..n)
            .map(|i| design.width(strober_rtl::NodeId::from_index(i)))
            .collect();
        propagate_copies(&mut wops, &order, &widths);
    }

    let roots = collect_roots(design);
    let mut live = mark_live(&wops, &roots, options.dce);
    if options.fuse {
        stats.ops_fused += rewrite_cat_slices(&mut wops, &order, options.const_fold);
        if options.dce {
            // Cat-of-slice rewrites can orphan the cat; sweep again.
            live = mark_live(&wops, &roots, true);
        }
    }
    let emits = |wops: &[WOp], live: &[bool], i: u32| -> bool {
        live[i as usize]
            && match wops[i as usize] {
                WOp::Const(_) => false,
                WOp::Copy(_) => !options.copy_prop,
                _ => true,
            }
    };
    let eres = |wops: &[WOp], i: u32| -> u32 {
        if options.copy_prop {
            resolve(wops, i)
        } else {
            i
        }
    };

    stats.copies_propagated = (0..n as u32)
        .filter(|&i| {
            live[i as usize] && options.copy_prop && matches!(wops[i as usize], WOp::Copy(_))
        })
        .count();
    stats.dead_eliminated = (0..n as u32)
        .filter(|&i| {
            !(live[i as usize]
                || matches!(wops[i as usize], WOp::Const(_))
                || (options.copy_prop && matches!(wops[i as usize], WOp::Copy(_))))
        })
        .count();

    // Peephole superop planning over the surviving graph.
    let mut plans: Vec<Option<FusePlan>> = vec![None; n];
    let mut consumed = vec![false; n];
    if options.fuse {
        let mut uses = vec![0u32; n];
        for &i in &order {
            if !emits(&wops, &live, i) {
                continue;
            }
            for o in operands(&wops[i as usize]) {
                uses[eres(&wops, o) as usize] += 1;
            }
        }
        for &r in &roots {
            uses[eres(&wops, r) as usize] += 1;
        }
        let fusable = |wops: &[WOp],
                       live: &[bool],
                       plans: &[Option<FusePlan>],
                       consumed: &[bool],
                       x: u32|
         -> bool {
            emits(wops, live, x)
                && uses[x as usize] == 1
                && !consumed[x as usize]
                && plans[x as usize].is_none()
        };
        for &i in &order {
            if !emits(&wops, &live, i) {
                continue;
            }
            match wops[i as usize] {
                WOp::Binary { a, b, .. } => {
                    let (ea, eb) = (eres(&wops, a), eres(&wops, b));
                    if fusable(&wops, &live, &plans, &consumed, ea)
                        && matches!(wops[ea as usize], WOp::Slice { .. })
                    {
                        plans[i as usize] = Some(FusePlan::SliceBin {
                            slice: ea,
                            slice_lhs: true,
                        });
                        consumed[ea as usize] = true;
                        stats.ops_fused += 1;
                    } else if eb != ea
                        && fusable(&wops, &live, &plans, &consumed, eb)
                        && matches!(wops[eb as usize], WOp::Slice { .. })
                    {
                        plans[i as usize] = Some(FusePlan::SliceBin {
                            slice: eb,
                            slice_lhs: false,
                        });
                        consumed[eb as usize] = true;
                        stats.ops_fused += 1;
                    }
                }
                WOp::Mux { sel, t, f } => {
                    let es = eres(&wops, sel);
                    let (et, ef) = (eres(&wops, t), eres(&wops, f));
                    if fusable(&wops, &live, &plans, &consumed, es)
                        && matches!(wops[es as usize], WOp::Binary { .. })
                    {
                        plans[i as usize] = Some(FusePlan::BinMux { bin: es });
                        consumed[es as usize] = true;
                        stats.ops_fused += 1;
                    } else if et != es
                        && et != ef
                        && fusable(&wops, &live, &plans, &consumed, et)
                        && matches!(wops[et as usize], WOp::Mux { .. })
                    {
                        plans[i as usize] = Some(FusePlan::MuxMux {
                            inner: et,
                            inner_in_true: true,
                        });
                        consumed[et as usize] = true;
                        stats.ops_fused += 1;
                    } else if ef != es
                        && ef != et
                        && fusable(&wops, &live, &plans, &consumed, ef)
                        && matches!(wops[ef as usize], WOp::Mux { .. })
                    {
                        plans[i as usize] = Some(FusePlan::MuxMux {
                            inner: ef,
                            inner_in_true: false,
                        });
                        consumed[ef as usize] = true;
                        stats.ops_fused += 1;
                    }
                }
                _ => {}
            }
        }
    }

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
        if consumed[i as usize] || !emits(&wops, &live, i) {
            // Live copies alias their representative's slot.
            if live[i as usize] && matches!(wops[i as usize], WOp::Copy(_)) && options.copy_prop {
                node_slot[i as usize] = node_slot[resolve(&wops, i) as usize];
            }
            continue;
        }
        let dst = values.len() as u32;
        values.push(0);
        node_slot[i as usize] = dst;
        let slot = |x: u32| -> u32 { node_slot[eres(&wops, x) as usize] };
        let op = match (wops[i as usize], plans[i as usize]) {
            (WOp::Binary { op, a, b, w }, Some(FusePlan::SliceBin { slice, slice_lhs })) => {
                let WOp::Slice {
                    a: src,
                    shift,
                    mask,
                } = wops[slice as usize]
                else {
                    unreachable!("fusion planned over a non-slice")
                };
                let other = if slice_lhs { b } else { a };
                TapeOp::SliceBin {
                    dst,
                    op,
                    src: slot(src),
                    shift,
                    mask,
                    other: slot(other),
                    w,
                    slice_lhs,
                }
            }
            (WOp::Mux { sel: _, t, f }, Some(FusePlan::BinMux { bin })) => {
                let WOp::Binary { op, a, b, w } = wops[bin as usize] else {
                    unreachable!("fusion planned over a non-binary")
                };
                TapeOp::BinMux {
                    dst,
                    op,
                    a: slot(a),
                    b: slot(b),
                    w,
                    t: slot(t),
                    f: slot(f),
                }
            }
            (
                WOp::Mux { sel, t, f },
                Some(FusePlan::MuxMux {
                    inner,
                    inner_in_true,
                }),
            ) => {
                let WOp::Mux {
                    sel: isel,
                    t: it,
                    f: inf,
                } = wops[inner as usize]
                else {
                    unreachable!("fusion planned over a non-mux")
                };
                TapeOp::MuxMux {
                    dst,
                    sel: slot(sel),
                    other: slot(if inner_in_true { f } else { t }),
                    inner_sel: slot(isel),
                    inner_t: slot(it),
                    inner_f: slot(inf),
                    inner_in_true,
                }
            }
            (WOp::Input(p), _) => TapeOp::Input { dst, port: p },
            (
                WOp::Unary {
                    op: UnOp::Not,
                    a,
                    w,
                },
                _,
            ) => TapeOp::NotMask {
                dst,
                a: slot(a),
                mask: w.mask(),
            },
            (WOp::Unary { op, a, w }, _) => TapeOp::Unary {
                dst,
                op,
                a: slot(a),
                w,
            },
            (
                WOp::Binary {
                    op: BinOp::And,
                    a,
                    b,
                    ..
                },
                _,
            ) => TapeOp::BitAnd {
                dst,
                a: slot(a),
                b: slot(b),
            },
            (
                WOp::Binary {
                    op: BinOp::Or,
                    a,
                    b,
                    ..
                },
                _,
            ) => TapeOp::BitOr {
                dst,
                a: slot(a),
                b: slot(b),
            },
            (
                WOp::Binary {
                    op: BinOp::Xor,
                    a,
                    b,
                    ..
                },
                _,
            ) => TapeOp::BitXor {
                dst,
                a: slot(a),
                b: slot(b),
            },
            (
                WOp::Binary {
                    op: BinOp::Eq,
                    a,
                    b,
                    ..
                },
                _,
            ) => TapeOp::CmpEq {
                dst,
                a: slot(a),
                b: slot(b),
            },
            (WOp::Binary { op, a, b, w }, _) => TapeOp::Binary {
                dst,
                op,
                a: slot(a),
                b: slot(b),
                w,
            },
            (WOp::Mux { sel, t, f }, _) => TapeOp::Mux {
                dst,
                sel: slot(sel),
                t: slot(t),
                f: slot(f),
            },
            (WOp::Slice { a, shift, mask }, _) => TapeOp::Slice {
                dst,
                a: slot(a),
                shift,
                mask,
            },
            (WOp::Cat { hi, lo, shift }, _) => TapeOp::Cat {
                dst,
                hi: slot(hi),
                lo: slot(lo),
                shift,
            },
            (WOp::RegOut(r), _) => TapeOp::RegOut { dst, reg: r },
            (WOp::MemRead { mem, addr }, _) => TapeOp::MemRead {
                dst,
                mem,
                addr: slot(addr),
            },
            (WOp::Copy(src), _) => TapeOp::Wire {
                dst,
                src: slot(src),
            },
            (WOp::Const(_), _) => unreachable!("consts never emit"),
        };
        tape.push(op);
    }
    debug_assert_eq!(values.len(), n_const_slots + tape.len());

    stats.ops_final = tape.len();
    stats.slots_final = values.len();
    TapePlan {
        reg_plans: reg_plans_mapped(design, &wops, &node_slot, options.copy_prop),
        write_plans: write_plans_mapped(design, &wops, &node_slot, options.copy_prop),
        tape,
        values,
        node_slot,
        stats,
    }
}

fn reg_plans_mapped(design: &Design, wops: &[WOp], node_slot: &[u32], cp: bool) -> Vec<RegPlan> {
    let slot = |x: u32| node_slot[if cp { resolve(wops, x) } else { x } as usize];
    design
        .registers()
        .map(|(_, r)| RegPlan {
            next: slot(r.next().expect("validated").index() as u32),
            enable: r.enable().map(|e| slot(e.index() as u32)),
            mask: r.width().mask(),
        })
        .collect()
}

fn write_plans_mapped(
    design: &Design,
    wops: &[WOp],
    node_slot: &[u32],
    cp: bool,
) -> Vec<WritePlan> {
    let slot = |x: u32| node_slot[if cp { resolve(wops, x) } else { x } as usize];
    let mut plans = Vec::new();
    for (mid, m) in design.memories() {
        for wp in m.write_ports() {
            plans.push(WritePlan {
                mem: mid.index() as u32,
                addr: slot(wp.addr().index() as u32),
                data: slot(wp.data().index() as u32),
                enable: slot(wp.enable().index() as u32),
            });
        }
    }
    plans
}

/// Lowers the design into the mutable working representation.
fn lower_wops(design: &Design, order: &[u32]) -> Vec<WOp> {
    let mut wops = vec![WOp::Const(0); design.node_count()];
    for &i in order {
        let id = strober_rtl::NodeId::from_index(i as usize);
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
/// and trace probes are ordinary hub outputs.
fn collect_roots(design: &Design) -> Vec<u32> {
    let mut roots = Vec::new();
    for (_, id) in design.outputs() {
        roots.push(id.index() as u32);
    }
    for (_, r) in design.registers() {
        roots.push(r.next().expect("validated").index() as u32);
        if let Some(e) = r.enable() {
            roots.push(e.index() as u32);
        }
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

/// Pass 3: liveness from the observable roots. With `dce` disabled every
/// node is considered live.
fn mark_live(wops: &[WOp], roots: &[u32], dce: bool) -> Vec<bool> {
    if !dce {
        return vec![true; wops.len()];
    }
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

/// Pass 4a: slices that read a cat and lie entirely within one side are
/// rewritten to slice that side directly, letting the cat go dead. Repeats
/// per node so nested cats (scan-chain padding) collapse fully.
fn rewrite_cat_slices(wops: &mut [WOp], order: &[u32], const_fold: bool) -> usize {
    let mut rewritten = 0;
    for &i in order {
        while let WOp::Slice { a, shift, mask } = wops[i as usize] {
            let src = resolve(wops, a);
            let WOp::Cat {
                hi,
                lo,
                shift: cshift,
            } = wops[src as usize]
            else {
                if const_fold {
                    if let Some(av) = const_of(wops, a) {
                        wops[i as usize] = WOp::Const((av >> shift) & mask);
                    }
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
            rewritten += 1;
        }
    }
    rewritten
}
