//! Netlist compilation into a flat, levelized op tape.
//!
//! Both gate-level engines — the scalar [`crate::GateSim`] and the packed
//! [`crate::BatchSim`] — execute the same compiled program: a single flat
//! array of [`Step`]s in topological order, produced once per netlist by
//! [`Tape::compile`]. Each step is either a combinational gate (inputs and
//! output pre-resolved to raw net indices, no name lookups on the hot
//! path) or an SRAM read port. Flip-flops and write ports are not on the
//! tape; they act at the clock edge, outside combinational settling.
//!
//! Compiling once and interpreting the same instruction stream for every
//! replay is what makes bit-parallel batching work: the tape is identical
//! for all samples, only the word-sized value vector differs (see
//! `DESIGN.md` §9).

use crate::sim::GateSimError;
use std::collections::HashMap;
use strober_gates::{CellKind, Gate, NetId, Netlist, SramReadPort, SramWritePort};

/// One compiled combinational gate. Unused input slots alias net 0; the
/// evaluation match never reads them for the affected kinds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateOp {
    /// The cell function.
    pub kind: CellKind,
    /// First input net index (`a0` for Mux2).
    pub in0: u32,
    /// Second input net index (`a1` for Mux2).
    pub in1: u32,
    /// Third input net index (`s` for Mux2).
    pub in2: u32,
    /// Output net index.
    pub out: u32,
}

/// One tape instruction, in levelized order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// Evaluate a combinational gate.
    Gate(GateOp),
    /// Evaluate SRAM `sram`'s read port `port` (combinational read).
    SramRead {
        /// Index into [`Netlist::srams`].
        sram: u32,
        /// Index into that macro's `read_ports`.
        port: u32,
    },
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
    pub read_ports: Vec<SramReadPort>,
    /// Write ports, in declaration order.
    pub write_ports: Vec<SramWritePort>,
}

/// The compiled program plus the name-resolution side tables every engine
/// needs: sequential elements, port bit groupings, and lookup maps.
#[derive(Debug, Clone)]
pub struct Tape {
    /// Combinational steps in topological (levelized) order.
    pub(crate) steps: Vec<Step>,
    /// Ports and depth per SRAM macro, aligned with [`Netlist::srams`].
    pub(crate) srams: Vec<SramPorts>,
    /// `(d net, q net)` per flip-flop, in gate order.
    pub(crate) dffs: Vec<(u32, u32)>,
    /// Reset value per flip-flop, aligned with `dffs`.
    pub(crate) dff_inits: Vec<bool>,
    /// Flip-flop instance name → index into `dffs`.
    pub(crate) dff_by_name: HashMap<String, usize>,
    /// SRAM macro instance name → index into [`Netlist::srams`].
    pub(crate) sram_by_name: HashMap<String, usize>,
    /// Input port name → bit nets, LSB first.
    pub(crate) port_bits: HashMap<String, Vec<u32>>,
    /// Output port name → bit nets, LSB first.
    pub(crate) output_bits: HashMap<String, Vec<u32>>,
    /// Number of nets in the netlist (the value vector length).
    pub(crate) net_count: usize,
}

impl Tape {
    /// Validates, levelizes and flattens `netlist` into a tape.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadNetlist`] if the netlist fails
    /// validation or contains a combinational loop.
    pub fn compile(netlist: &Netlist) -> Result<Self, GateSimError> {
        netlist.validate()?;
        let order = netlist.levelize()?;
        let gates = netlist.gates();
        let n_gates = gates.len();

        // Element indices past the gates address SRAM read ports in
        // declaration order; precompute the (sram, port) pair per element.
        let mut sram_ports = Vec::new();
        for (si, s) in netlist.srams().iter().enumerate() {
            for pi in 0..s.read_ports.len() {
                sram_ports.push((si as u32, pi as u32));
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

        let mut steps = Vec::with_capacity(order.len());
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
                let pin = |i: usize| inputs.get(i).map_or(0, |n| n.index() as u32);
                steps.push(Step::Gate(GateOp {
                    kind: *kind,
                    in0: pin(0),
                    in1: pin(1),
                    in2: pin(2),
                    out: output.index() as u32,
                }));
            } else {
                let (sram, port) = sram_ports[elem - n_gates];
                steps.push(Step::SramRead { sram, port });
            }
        }

        let sram_by_name = netlist
            .srams()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();

        let srams = netlist
            .srams()
            .iter()
            .map(|s| SramPorts {
                name: s.name.clone(),
                depth: s.depth,
                read_ports: s.read_ports.clone(),
                write_ports: s.write_ports.clone(),
            })
            .collect();

        Ok(Tape {
            steps,
            srams,
            dffs,
            dff_inits,
            dff_by_name,
            sram_by_name,
            port_bits: group_bits(netlist.inputs()),
            output_bits: group_bits(netlist.outputs()),
            net_count: netlist.net_count(),
        })
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
}

/// Groups `name[i]` bit names back into word ports.
pub(crate) fn group_bits(bits: &[(String, NetId)]) -> HashMap<String, Vec<u32>> {
    let mut map: HashMap<String, Vec<(u32, u32)>> = HashMap::new();
    for (name, net) in bits {
        if let Some(open) = name.rfind('[') {
            if let Some(stripped) = name[open + 1..].strip_suffix(']') {
                if let Ok(idx) = stripped.parse::<u32>() {
                    map.entry(name[..open].to_owned())
                        .or_default()
                        .push((idx, net.index() as u32));
                    continue;
                }
            }
        }
        map.entry(name.clone())
            .or_default()
            .push((0, net.index() as u32));
    }
    map.into_iter()
        .map(|(k, mut v)| {
            v.sort_unstable_by_key(|&(i, _)| i);
            (k, v.into_iter().map(|(_, n)| n).collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_gates::{CellKind, Netlist, SramMacro, SramReadPort};

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
        assert_eq!(tape.steps.len(), 2);
        assert!(matches!(tape.steps[0], Step::SramRead { sram: 0, port: 0 }));
        assert!(matches!(tape.steps[1], Step::Gate(_)));
        assert_eq!(tape.net_count, 3);
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
        assert_eq!(tape.steps.len(), 1);
        assert_eq!(tape.dffs, vec![(d.index() as u32, q.index() as u32)]);
        assert_eq!(tape.dff_inits, vec![true]);
        assert_eq!(tape.dff_by_name["toggle_reg"], 0);
    }
}
