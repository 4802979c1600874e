//! Netlist compilation into a flat, levelized op tape.
//!
//! [`crate::BatchSim`] executes a compiled program, produced once per
//! netlist by [`Tape::compile`]: every combinational element (gate or
//! SRAM read port) with its inputs and output pre-resolved to raw net
//! indices, ordered by *(level, kind)* and cut into [`Run`]s, maximal
//! blocks of one kind at one level. A level reads only nets of earlier
//! levels, so the order is topological; the engine matches on a run's
//! kind once and then evaluates the whole block in one dispatch-free loop
//! ([`eval_gates`]). Flip-flops and write ports are not on the tape; they
//! act at the clock edge, outside combinational settling.
//!
//! Every index the tape holds is a *slot* of the engine's value vector,
//! not a netlist net id. Compilation renumbers the nets so that each
//! energy class ([`ClassMap`]) is one contiguous range of slots, padded
//! to whole [`CLASS_BLOCK`]s with slots nothing writes, which therefore
//! never toggle; the nets no gate drives (primary inputs, SRAM read data)
//! follow the last class. The counting kernel walks a class as one
//! stretch of memory, and nothing outside this crate sees a slot.
//!
//! Compiling once and interpreting the same instruction stream for every
//! replay is what makes bit-parallel batching work: the tape is identical
//! for all samples, only the word-sized value vector differs (see
//! `DESIGN.md` §9). The reference engine, [`crate::NaiveGateSim`], never
//! sees a tape.

use crate::classes::ClassMap;
use crate::sim::GateSimError;
use std::collections::HashMap;
use strober_gates::{CellKind, Gate, NetId, Netlist, NetlistError};

/// The widest word-level port or SRAM bus a tape accepts: one lane's
/// value must fit a `u64`, and the packed engine moves buses through a
/// 64×64 bit transpose.
const MAX_WORD_BITS: usize = 64;

/// Slots per block of the toggle-counting kernel: every class's slot
/// range is a whole number of blocks.
pub(crate) const CLASS_BLOCK: usize = 16;

/// One compiled combinational gate; its cell function is its run's.
/// Unused input pins alias slot 0 and are never read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateOp {
    /// First input slot (`a0` for Mux2).
    pub in0: u32,
    /// Second input slot (`a1` for Mux2).
    pub in1: u32,
    /// Third input slot (`s` for Mux2).
    pub in2: u32,
    /// Output slot.
    pub out: u32,
}

/// One SRAM read port on the tape (a combinational read).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadOp {
    /// Index into [`Netlist::srams`].
    pub sram: u32,
    /// Index into that macro's `read_ports`.
    pub port: u32,
}

/// What a [`Run`] evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum RunKind {
    /// Gates of one cell kind: a slice of [`Tape::ops`].
    Gate(CellKind),
    /// SRAM read ports: a slice of [`Tape::reads`].
    SramRead,
}

/// A maximal block of same-kind steps at one level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    /// The level: 1 + the highest level of any input, where primary
    /// inputs and flip-flop outputs are level 0.
    pub level: u32,
    /// What every step of the run is.
    pub kind: RunKind,
    /// First step, into `ops` or `reads` by kind.
    pub start: u32,
    /// One past the last step.
    pub end: u32,
}

/// One SRAM read port's buses, as slots.
#[derive(Debug, Clone)]
pub(crate) struct ReadPort {
    /// Address bits, least significant first.
    pub addr: Vec<u32>,
    /// Data bits, least significant first.
    pub data: Vec<u32>,
}

/// One SRAM write port's buses, as slots.
#[derive(Debug, Clone)]
pub(crate) struct WritePort {
    /// Address bits, least significant first.
    pub addr: Vec<u32>,
    /// Data bits, least significant first.
    pub data: Vec<u32>,
    /// Write enable.
    pub enable: u32,
}

/// One SRAM macro's geometry and ports: what an engine needs to service
/// it each cycle, without the netlist (or the macro's initial contents).
#[derive(Debug, Clone)]
pub(crate) struct SramPorts {
    /// Instance name, for error messages.
    pub name: String,
    /// Number of words.
    pub depth: usize,
    /// Read ports, in declaration order.
    pub read_ports: Vec<ReadPort>,
    /// Write ports, in declaration order.
    pub write_ports: Vec<WritePort>,
}

/// Word-level ports: `name[i]` bit nets grouped back into words, each at
/// most 64 bits wide.
#[derive(Debug, Clone)]
pub(crate) struct Ports {
    /// Port names, in order of first declaration.
    pub names: Vec<String>,
    /// Bit slots per port, least significant first; aligned with `names`.
    pub bits: Vec<Vec<u32>>,
    by_name: HashMap<String, usize>,
}

impl Ports {
    fn group(bits: &[(String, NetId)], slot: &[u32]) -> Result<Self, GateSimError> {
        let mut names = Vec::new();
        let mut groups: Vec<Vec<(u32, NetId)>> = Vec::new();
        let mut by_name = HashMap::new();
        for (name, net) in bits {
            let (word, bit) = split_bit_name(name);
            let slot = *by_name.entry(word.to_owned()).or_insert_with(|| {
                names.push(word.to_owned());
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[slot].push((bit, *net));
        }
        let bits = groups
            .into_iter()
            .map(|mut g| {
                g.sort_unstable_by_key(|&(i, _)| i);
                g.into_iter()
                    .map(|(_, n)| slot[n.index()])
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>();
        for (name, nets) in names.iter().zip(&bits) {
            check_word(|| format!("port `{name}`"), nets.len())?;
        }
        Ok(Ports {
            names,
            bits,
            by_name,
        })
    }

    /// The index of port `name`.
    pub fn index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }
}

/// `name[i]` → `(name, i)`; any other name is bit 0 of itself.
fn split_bit_name(name: &str) -> (&str, u32) {
    if let Some(open) = name.rfind('[') {
        if let Some(idx) = name[open + 1..].strip_suffix(']') {
            if let Ok(idx) = idx.parse() {
                return (&name[..open], idx);
            }
        }
    }
    (name, 0)
}

fn check_word(word: impl FnOnce() -> String, bits: usize) -> Result<(), GateSimError> {
    if bits > MAX_WORD_BITS {
        return Err(NetlistError::WordTooWide { word: word(), bits }.into());
    }
    Ok(())
}

/// The compiled program plus the name-resolution side tables the engine
/// needs: sequential elements, port bit groupings, lookup maps, and the
/// class layout of the value vector.
#[derive(Debug, Clone)]
pub struct Tape {
    /// The gate and read-port blocks, in (level, kind) order.
    pub(crate) runs: Vec<Run>,
    /// Gate ops, indexed by the gate runs.
    pub(crate) ops: Vec<GateOp>,
    /// SRAM read ports, indexed by the read runs.
    pub(crate) reads: Vec<ReadOp>,
    /// Ports and depth per SRAM macro, aligned with [`Netlist::srams`].
    pub(crate) srams: Vec<SramPorts>,
    /// `(d slot, q slot)` per flip-flop, in gate order.
    pub(crate) dffs: Vec<(u32, u32)>,
    /// Reset value per flip-flop, aligned with `dffs`.
    pub(crate) dff_inits: Vec<bool>,
    /// Flip-flop instance name → index into `dffs`.
    pub(crate) dff_by_name: HashMap<String, usize>,
    /// SRAM macro instance name → index into [`Netlist::srams`].
    pub(crate) sram_by_name: HashMap<String, usize>,
    /// Input ports.
    pub(crate) inputs: Ports,
    /// Output ports.
    pub(crate) outputs: Ports,
    /// The energy classes the engine counts toggles by.
    pub(crate) classes: ClassMap,
    /// Class `c` owns slots `class_start[c]..class_start[c + 1]`, a whole
    /// number of [`CLASS_BLOCK`]s; the last entry ends the counted slots.
    pub(crate) class_start: Vec<u32>,
    /// Net id → slot, for the tests' cross-checks.
    #[cfg(test)]
    slot_of: Vec<u32>,
    /// Number of slots (the value vector length).
    pub(crate) slot_count: usize,
}

impl Tape {
    /// Validates, levelizes and flattens `netlist` into a tape.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadNetlist`] if the netlist fails
    /// validation, contains a combinational loop, or has an input or
    /// output port, SRAM address bus or SRAM data word wider than 64 bits
    /// ([`NetlistError::WordTooWide`]).
    pub fn compile(netlist: &Netlist) -> Result<Self, GateSimError> {
        netlist.validate()?;
        for s in netlist.srams() {
            let buses = s.read_ports.iter().enumerate().flat_map(|(i, p)| {
                [
                    ("read", i, "address", &p.addr),
                    ("read", i, "data", &p.data),
                ]
            });
            let buses = buses.chain(s.write_ports.iter().enumerate().flat_map(|(i, p)| {
                [
                    ("write", i, "address", &p.addr),
                    ("write", i, "data", &p.data),
                ]
            }));
            for (dir, i, bus, nets) in buses {
                check_word(
                    || format!("macro `{}` {dir} port {i} {bus}", s.name),
                    nets.len(),
                )?;
            }
        }
        let order = netlist.levelize()?;
        let gates = netlist.gates();
        let n_gates = gates.len();

        // Element indices past the gates address SRAM read ports in
        // declaration order; precompute the (sram, port) pair per element.
        let mut sram_ports = Vec::new();
        for (si, s) in netlist.srams().iter().enumerate() {
            for pi in 0..s.read_ports.len() {
                sram_ports.push(ReadOp {
                    sram: si as u32,
                    port: pi as u32,
                });
            }
        }

        let mut dffs = Vec::new();
        let mut dff_inits = Vec::new();
        let mut dff_by_name = HashMap::new();
        for g in gates {
            if let Gate::Dff {
                name, d, q, init, ..
            } = g
            {
                dff_by_name.insert(name.clone(), dffs.len());
                dffs.push((d.index() as u32, q.index() as u32));
                dff_inits.push(*init);
            }
        }

        // Level every element in topological order: a net's level is its
        // driver's, 0 for primary inputs and flip-flop outputs.
        let mut net_level = vec![0u32; netlist.net_count()];
        let level_of = |nets: &[NetId], net_level: &[u32]| {
            1 + nets.iter().map(|n| net_level[n.index()]).max().unwrap_or(0)
        };
        let mut placed = Vec::with_capacity(order.len());
        for elem in order {
            if elem < n_gates {
                let Gate::Comb {
                    kind,
                    inputs,
                    output,
                    ..
                } = &gates[elem]
                else {
                    continue; // DFFs are clock-edge elements, not tape steps.
                };
                let level = level_of(inputs, &net_level);
                net_level[output.index()] = level;
                placed.push((level, RunKind::Gate(*kind), elem));
            } else {
                let op = sram_ports[elem - n_gates];
                let rp = &netlist.srams()[op.sram as usize].read_ports[op.port as usize];
                let level = level_of(&rp.addr, &net_level);
                for d in &rp.data {
                    net_level[d.index()] = level;
                }
                placed.push((level, RunKind::SramRead, elem));
            }
        }
        // Stable: inside a run, steps keep their topological order.
        placed.sort_by_key(|&(level, kind, _)| (level, kind));

        let mut runs: Vec<Run> = Vec::new();
        let mut ops = Vec::new();
        let mut reads = Vec::new();
        for (level, kind, elem) in placed {
            let at = match kind {
                RunKind::Gate(_) => {
                    let Gate::Comb { inputs, output, .. } = &gates[elem] else {
                        unreachable!("only combinational gates are placed");
                    };
                    let pin = |i: usize| inputs.get(i).map_or(0, |n| n.index() as u32);
                    ops.push(GateOp {
                        in0: pin(0),
                        in1: pin(1),
                        in2: pin(2),
                        out: output.index() as u32,
                    });
                    ops.len()
                }
                RunKind::SramRead => {
                    reads.push(sram_ports[elem - n_gates]);
                    reads.len()
                }
            } as u32;
            match runs.last_mut() {
                Some(run) if run.level == level && run.kind == kind => run.end = at,
                _ => runs.push(Run {
                    level,
                    kind,
                    start: at - 1,
                    end: at,
                }),
            }
        }

        // Lay the value vector out class by class. Within a class, flip-
        // flop outputs come first, then gate outputs in tape order, so a
        // run's writes move forward through each class it touches.
        let classes = ClassMap::new(netlist);
        let outs = dffs
            .iter()
            .map(|&(_, q)| q)
            .chain(ops.iter().map(|op| op.out));
        let class_of = |net: u32| {
            classes
                .class_of(NetId::from_index(net as usize))
                .expect("a gate drives every flip-flop and op output")
        };
        let mut class_start = vec![0u32; classes.classes().len() + 1];
        for net in outs.clone() {
            class_start[class_of(net) + 1] += 1;
        }
        let mut next = 0u32;
        for start in &mut class_start {
            next = (next + *start).next_multiple_of(CLASS_BLOCK as u32);
            *start = next;
        }
        let mut slot_of = vec![u32::MAX; netlist.net_count()];
        let mut cursor = class_start.clone();
        for net in outs {
            let at = &mut cursor[class_of(net)];
            slot_of[net as usize] = *at;
            *at += 1;
        }
        for slot in slot_of.iter_mut().filter(|s| **s == u32::MAX) {
            *slot = next;
            next += 1;
        }

        let slot = |net: u32| slot_of[net as usize];
        for op in &mut ops {
            *op = GateOp {
                in0: slot(op.in0),
                in1: slot(op.in1),
                in2: slot(op.in2),
                out: slot(op.out),
            };
        }
        for (d, q) in &mut dffs {
            (*d, *q) = (slot(*d), slot(*q));
        }
        let bus = |nets: &[NetId]| nets.iter().map(|n| slot_of[n.index()]).collect();
        let srams = netlist
            .srams()
            .iter()
            .map(|s| SramPorts {
                name: s.name.clone(),
                depth: s.depth,
                read_ports: s
                    .read_ports
                    .iter()
                    .map(|p| ReadPort {
                        addr: bus(&p.addr),
                        data: bus(&p.data),
                    })
                    .collect(),
                write_ports: s
                    .write_ports
                    .iter()
                    .map(|p| WritePort {
                        addr: bus(&p.addr),
                        data: bus(&p.data),
                        enable: slot_of[p.enable.index()],
                    })
                    .collect(),
            })
            .collect();
        let sram_by_name = netlist
            .srams()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();

        Ok(Tape {
            runs,
            ops,
            reads,
            srams,
            dffs,
            dff_inits,
            dff_by_name,
            sram_by_name,
            inputs: Ports::group(netlist.inputs(), &slot_of)?,
            outputs: Ports::group(netlist.outputs(), &slot_of)?,
            classes,
            class_start,
            #[cfg(test)]
            slot_of,
            slot_count: next as usize,
        })
    }

    /// The energy classes this tape counts toggles by: the same map
    /// [`ClassMap::new`] gives for the netlist it was compiled from.
    pub fn class_map(&self) -> &ClassMap {
        &self.classes
    }

    /// The slot of netlist net `net`.
    #[cfg(test)]
    pub(crate) fn slot(&self, net: NetId) -> usize {
        self.slot_of[net.index()] as usize
    }

    /// The gate ops of a [`RunKind::Gate`] run.
    pub(crate) fn gate_ops(&self, run: &Run) -> &[GateOp] {
        &self.ops[run.start as usize..run.end as usize]
    }

    /// The read ports of a [`RunKind::SramRead`] run.
    pub(crate) fn read_ops(&self, run: &Run) -> &[ReadOp] {
        &self.reads[run.start as usize..run.end as usize]
    }

    /// The index of flip-flop instance `name`, for the index-based
    /// [`BatchSim::set_dff_lanes_at`](crate::BatchSim::set_dff_lanes_at):
    /// resolve once, load many times.
    pub fn dff_index(&self, name: &str) -> Option<usize> {
        self.dff_by_name.get(name).copied()
    }

    /// The index of SRAM macro instance `name` (its position in
    /// [`Netlist::srams`]), for the index-based
    /// [`BatchSim::set_sram_lane`](crate::BatchSim::set_sram_lane).
    pub fn sram_index(&self, name: &str) -> Option<usize> {
        self.sram_by_name.get(name).copied()
    }

    /// The index of word-level input port `name`, for the index-based
    /// [`BatchSim::poke_port_lanes_at`](crate::BatchSim::poke_port_lanes_at).
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.inputs.index(name)
    }

    /// The index of word-level output port `name`, for the index-based
    /// [`BatchSim::peek_port_lanes_at`](crate::BatchSim::peek_port_lanes_at).
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.index(name)
    }
}

/// Evaluates one gate run over the value vector `v`, one 64-lane word
/// per net: `kind` is matched once, then every op of the block runs the
/// same loop body.
pub(crate) fn eval_gates(kind: CellKind, ops: &[GateOp], v: &mut [u64]) {
    #[inline(always)]
    fn each(ops: &[GateOp], v: &mut [u64], f: impl Fn(&[u64], &GateOp) -> u64) {
        for op in ops {
            let out = f(v, op);
            v[op.out as usize] = out;
        }
    }
    let at = |v: &[u64], net: u32| v[net as usize];
    match kind {
        CellKind::Inv => each(ops, v, |v, op| !at(v, op.in0)),
        CellKind::Buf => each(ops, v, |v, op| at(v, op.in0)),
        CellKind::Nand2 => each(ops, v, |v, op| !(at(v, op.in0) & at(v, op.in1))),
        CellKind::Nor2 => each(ops, v, |v, op| !(at(v, op.in0) | at(v, op.in1))),
        CellKind::And2 => each(ops, v, |v, op| at(v, op.in0) & at(v, op.in1)),
        CellKind::Or2 => each(ops, v, |v, op| at(v, op.in0) | at(v, op.in1)),
        CellKind::Xor2 => each(ops, v, |v, op| at(v, op.in0) ^ at(v, op.in1)),
        CellKind::Xnor2 => each(ops, v, |v, op| !(at(v, op.in0) ^ at(v, op.in1))),
        CellKind::Mux2 => each(ops, v, |v, op| {
            let s = at(v, op.in2);
            (at(v, op.in1) & s) | (at(v, op.in0) & !s)
        }),
        CellKind::Tie0 => each(ops, v, |_, _| 0),
        CellKind::Tie1 => each(ops, v, |_, _| !0),
        CellKind::Dff => unreachable!("DFFs are not tape steps"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_cores::{build_core, CoreConfig};
    use strober_gates::{CellKind, Netlist, SramMacro, SramReadPort, SramWritePort};
    use strober_synth::{synthesize, SynthOptions};

    #[test]
    fn tape_orders_sram_reads_before_their_users() {
        let mut nl = Netlist::new("s");
        let a0 = nl.add_net("a0");
        nl.add_input("a0", a0);
        let d0 = nl.add_net("d0");
        let inv = nl.add_net("inv");
        nl.add_sram(SramMacro {
            name: "ram".to_owned(),
            width: 1,
            depth: 2,
            init: vec![],
            read_ports: vec![SramReadPort {
                addr: vec![a0],
                data: vec![d0],
            }],
            write_ports: vec![],
            region: 0,
        });
        nl.add_gate(CellKind::Inv, vec![d0], inv, 0);
        nl.add_output("o", inv);
        let tape = Tape::compile(&nl).unwrap();
        assert_eq!(tape.runs.len(), 2);
        assert_eq!(tape.runs[0].kind, RunKind::SramRead);
        assert_eq!(tape.runs[1].kind, RunKind::Gate(CellKind::Inv));
        assert_eq!((tape.reads[0].sram, tape.reads[0].port), (0, 0));
        // One class (the inverter) padded to a block, then the input and
        // the read data, which no gate drives.
        assert_eq!(tape.class_start, vec![0, CLASS_BLOCK as u32]);
        assert_eq!(tape.slot_count, CLASS_BLOCK + 2);
        assert_eq!(tape.slot(inv), 0);
    }

    #[test]
    fn dffs_become_sequential_slots_not_steps() {
        let mut nl = Netlist::new("t");
        let q = nl.add_net("q");
        let d = nl.add_net("d");
        nl.add_gate(CellKind::Inv, vec![q], d, 0);
        nl.add_dff("toggle_reg", d, q, true, 0);
        nl.add_output("q", q);
        let tape = Tape::compile(&nl).unwrap();
        assert_eq!(tape.ops.len(), 1);
        assert_eq!(tape.dffs, vec![(tape.slot(d) as u32, tape.slot(q) as u32)]);
        assert_eq!(tape.class_start.len(), 3, "an Inv class and a Dff class");
        assert_eq!(tape.dff_inits, vec![true]);
        assert_eq!(tape.dff_by_name["toggle_reg"], 0);
    }

    /// Every run is non-empty and one (level, kind) block, blocks are in
    /// (level, kind) order, and every input an op or read port reads is
    /// a primary input, a flip-flop output or the output of a strictly
    /// earlier level (tie cells included: they sit at level 1).
    fn assert_levelized(tape: &Tape, netlist: &Netlist) {
        let mut produced_at: Vec<Option<u32>> = vec![None; tape.slot_count];
        for (_, net) in netlist.inputs() {
            produced_at[tape.slot(*net)] = Some(0);
        }
        for &(_, q) in &tape.dffs {
            produced_at[q as usize] = Some(0);
        }
        let reads_before = |nets: &mut dyn Iterator<Item = usize>,
                            level: u32,
                            at: &[Option<u32>]| {
            for net in nets {
                let src = at[net].unwrap_or_else(|| panic!("net {net} read before it is produced"));
                assert!(
                    src < level,
                    "net {net} of level {src} read at level {level}"
                );
            }
        };
        let mut covered = (0, 0);
        for pair in tape.runs.windows(2) {
            assert!(
                (pair[0].level, pair[0].kind) < (pair[1].level, pair[1].kind),
                "runs out of (level, kind) order or not maximal: {pair:?}"
            );
        }
        for run in &tape.runs {
            assert!(run.start < run.end, "empty run {run:?}");
            match run.kind {
                RunKind::Gate(kind) => {
                    assert_eq!(run.start as usize, covered.0);
                    covered.0 = run.end as usize;
                    for op in tape.gate_ops(run) {
                        let pins = [op.in0, op.in1, op.in2];
                        let mut pins = pins[..kind.input_count()].iter().map(|&n| n as usize);
                        reads_before(&mut pins, run.level, &produced_at);
                    }
                    for op in tape.gate_ops(run) {
                        produced_at[op.out as usize] = Some(run.level);
                    }
                }
                RunKind::SramRead => {
                    assert_eq!(run.start as usize, covered.1);
                    covered.1 = run.end as usize;
                    for op in tape.read_ops(run) {
                        let rp = &tape.srams[op.sram as usize].read_ports[op.port as usize];
                        reads_before(
                            &mut rp.addr.iter().map(|&n| n as usize),
                            run.level,
                            &produced_at,
                        );
                    }
                    for op in tape.read_ops(run) {
                        let rp = &tape.srams[op.sram as usize].read_ports[op.port as usize];
                        for &d in &rp.data {
                            produced_at[d as usize] = Some(run.level);
                        }
                    }
                }
            }
        }
        assert_eq!(
            covered,
            (tape.ops.len(), tape.reads.len()),
            "steps outside every run"
        );
        assert_eq!(tape.ops.len(), netlist.comb_gate_count());
    }

    #[test]
    fn runs_are_homogeneous_levels_in_topological_order() {
        for core in [CoreConfig::rok_tiny(), CoreConfig::boum_tiny(1)] {
            let netlist = synthesize(&build_core(&core), &SynthOptions::default())
                .unwrap()
                .netlist;
            let tape = Tape::compile(&netlist).unwrap();
            assert!(!tape.reads.is_empty(), "the core has SRAM read ports");
            assert!(
                tape.runs.len() < tape.ops.len() / 4,
                "runs should batch gates"
            );
            assert_levelized(&tape, &netlist);
            assert_classes_contiguous(&tape, &netlist);
        }
    }

    /// The slots are a permutation of the nets plus padding: each class
    /// is one block-aligned range holding exactly its nets, and the nets
    /// without a class come after the last one.
    fn assert_classes_contiguous(tape: &Tape, netlist: &Netlist) {
        assert_eq!(tape.class_map(), &ClassMap::new(netlist));
        let counted = *tape.class_start.last().unwrap() as usize;
        let mut seen = vec![false; tape.slot_count];
        let mut sizes = vec![0; tape.class_start.len() - 1];
        for net in (0..netlist.net_count()).map(NetId::from_index) {
            let slot = tape.slot(net);
            assert!(!seen[slot], "slot {slot} holds two nets");
            seen[slot] = true;
            match tape.classes.class_of(net) {
                Some(c) => {
                    let range = tape.class_start[c] as usize..tape.class_start[c + 1] as usize;
                    assert!(range.contains(&slot), "net {net} outside class {c}");
                    sizes[c] += 1;
                }
                None => assert!(slot >= counted, "unclassed net {net} among the classes"),
            }
        }
        for (c, pair) in tape.class_start.windows(2).enumerate() {
            let (start, end) = (pair[0] as usize, pair[1] as usize);
            assert_eq!(start % CLASS_BLOCK, 0);
            assert_eq!(
                end - start,
                (sizes[c] as usize).next_multiple_of(CLASS_BLOCK)
            );
            // A class's nets come first; its padding after them.
            assert!(seen[start..start + sizes[c]].iter().all(|&s| s));
            assert!(!seen[start + sizes[c]..end].iter().any(|&s| s));
        }
    }

    #[test]
    fn groups_wider_than_a_word_are_rejected() {
        let mut nl = Netlist::new("wide");
        for i in 0..65 {
            let net = nl.add_net(format!("x[{i}]"));
            nl.add_input(format!("x[{i}]"), net);
            nl.add_output(format!("y[{i}]"), net);
        }
        assert!(matches!(
            Tape::compile(&nl),
            Err(GateSimError::BadNetlist(NetlistError::WordTooWide { ref word, bits: 65 }))
                if word == "port `x`"
        ));

        // A 64-bit port and a 1-bit port both fit, and a 64-bit read
        // address built from the first compiles; a 65-bit write address
        // bus spanning both does not.
        let macro_with = |write_addr: Option<usize>| {
            let mut nl = Netlist::new("bus");
            let mut nets = Vec::new();
            for i in 0..64 {
                let net = nl.add_net(format!("a[{i}]"));
                nl.add_input(format!("a[{i}]"), net);
                nets.push(net);
            }
            let b = nl.add_net("b");
            nl.add_input("b", b);
            nets.push(b);
            let d = nl.add_net("d");
            nl.add_output("d", d);
            nl.add_sram(SramMacro {
                name: "ram".to_owned(),
                width: 1,
                depth: 2,
                init: vec![],
                read_ports: vec![SramReadPort {
                    addr: nets[..64].to_vec(),
                    data: vec![d],
                }],
                write_ports: write_addr
                    .map(|bits| SramWritePort {
                        addr: nets[..bits].to_vec(),
                        data: vec![b],
                        enable: b,
                    })
                    .into_iter()
                    .collect(),
                region: 0,
            });
            nl
        };
        assert!(Tape::compile(&macro_with(Some(64))).is_ok());
        let err = Tape::compile(&macro_with(Some(65))).unwrap_err();
        assert!(matches!(
            err,
            GateSimError::BadNetlist(NetlistError::WordTooWide { bits: 65, .. })
        ));
        assert_eq!(
            err.to_string(),
            "bad netlist: macro `ram` write port 0 address is 65 bits wide; a word holds at most 64"
        );
    }
}
