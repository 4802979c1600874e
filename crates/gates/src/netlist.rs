//! Flat bit-level gate netlists.

use crate::cell::CellKind;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Identifier of a single-bit net.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    serde::Serialize,
    serde::Deserialize,
    serde::Blob,
)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a net id from a raw index.
    pub fn from_index(index: usize) -> Self {
        NetId(index as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// Identifier of a gate instance.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    serde::Serialize,
    serde::Deserialize,
    serde::Blob,
)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The raw index of this gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A gate instance.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize, serde::Blob)]
pub enum Gate {
    /// A combinational cell.
    Comb {
        /// The cell kind.
        kind: CellKind,
        /// Input nets (length matches [`CellKind::input_count`]; Mux2 order
        /// is `[a0, a1, s]`).
        inputs: Vec<NetId>,
        /// The single output net.
        output: NetId,
        /// Index into the netlist's region table for power attribution.
        region: u32,
    },
    /// A D flip-flop.
    Dff {
        /// Instance name (mangled by synthesis).
        name: String,
        /// The data input net.
        d: NetId,
        /// The output net.
        q: NetId,
        /// The power-on / reset value.
        init: bool,
        /// Index into the netlist's region table.
        region: u32,
    },
}

impl Gate {
    /// The gate's output net.
    pub fn output(&self) -> NetId {
        match self {
            Gate::Comb { output, .. } => *output,
            Gate::Dff { q, .. } => *q,
        }
    }

    /// The region index for power attribution.
    pub fn region(&self) -> u32 {
        match self {
            Gate::Comb { region, .. } | Gate::Dff { region, .. } => *region,
        }
    }

    /// The cell kind ([`CellKind::Dff`] for flip-flops).
    pub fn kind(&self) -> CellKind {
        match self {
            Gate::Comb { kind, .. } => *kind,
            Gate::Dff { .. } => CellKind::Dff,
        }
    }
}

/// A read port of an SRAM macro: address bits (LSB first) in, data bits
/// (LSB first) out. Reads are combinational, as in the RTL model.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize, serde::Blob)]
pub struct SramReadPort {
    /// Address nets, least significant bit first.
    pub addr: Vec<NetId>,
    /// Data output nets driven by the macro, least significant bit first.
    pub data: Vec<NetId>,
}

/// A write port of an SRAM macro; the write commits on the clock edge when
/// `enable` is high.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize, serde::Blob)]
pub struct SramWritePort {
    /// Address nets, least significant bit first.
    pub addr: Vec<NetId>,
    /// Data input nets, least significant bit first.
    pub data: Vec<NetId>,
    /// Write enable net.
    pub enable: NetId,
}

/// A behavioural SRAM/register-file macro.
///
/// Synthesis maps RTL memories to macros instead of bit-blasting them, as
/// real flows map them to compiled RAMs; the power model charges per-access
/// energy and per-bit leakage (see `strober-power`).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize, serde::Blob)]
pub struct SramMacro {
    /// Instance name (mangled by synthesis).
    pub name: String,
    /// Word width in bits.
    pub width: u32,
    /// Number of words.
    pub depth: usize,
    /// Initial contents (shorter than `depth` means zero-padded).
    pub init: Vec<u64>,
    /// Read ports.
    pub read_ports: Vec<SramReadPort>,
    /// Write ports.
    pub write_ports: Vec<SramWritePort>,
    /// Index into the netlist's region table.
    pub region: u32,
}

impl SramMacro {
    /// Total capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.depth as u64 * u64::from(self.width)
    }
}

/// Errors detected by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A net is driven by more than one gate/macro output.
    MultipleDrivers {
        /// The conflicting net.
        net: String,
    },
    /// A net has no driver and is not a primary input.
    Undriven {
        /// The undriven net.
        net: String,
    },
    /// The combinational gate graph has a cycle.
    CombinationalLoop,
    /// A gate has the wrong number of input pins.
    PinCountMismatch {
        /// The offending gate.
        gate: String,
    },
    /// A word-level port or an SRAM address/data bus has more bits than
    /// one 64-bit word holds.
    WordTooWide {
        /// The port, or the macro and bus.
        word: String,
        /// Its bit count.
        bits: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { net } => write!(f, "net `{net}` has multiple drivers"),
            NetlistError::Undriven { net } => write!(f, "net `{net}` has no driver"),
            NetlistError::CombinationalLoop => write!(f, "combinational loop in gate netlist"),
            NetlistError::PinCountMismatch { gate } => {
                write!(f, "gate `{gate}` has the wrong number of input pins")
            }
            NetlistError::WordTooWide { word, bits } => {
                write!(f, "{word} is {bits} bits wide; a word holds at most 64")
            }
        }
    }
}

impl Error for NetlistError {}

/// A flat gate-level netlist.
///
/// Nets are single bits. Primary inputs/outputs use `port[i]` bit naming so
/// word-level RTL ports map onto them deterministically.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize, serde::Blob)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    inputs: Vec<(String, NetId)>,
    outputs: Vec<(String, NetId)>,
    gates: Vec<Gate>,
    srams: Vec<SramMacro>,
    regions: Vec<String>,
    input_set: HashMap<u32, ()>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            net_names: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
            srams: Vec::new(),
            regions: vec!["<top>".to_owned()],
            input_set: HashMap::new(),
        }
    }

    /// The netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a named net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.into());
        id
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a net of this netlist.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// The number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Registers an existing net as a primary input bit.
    pub fn add_input(&mut self, name: impl Into<String>, net: NetId) {
        self.inputs.push((name.into(), net));
        self.input_set.insert(net.0, ());
    }

    /// Registers a primary output bit.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// The primary input bits, in declaration order.
    pub fn inputs(&self) -> &[(String, NetId)] {
        &self.inputs
    }

    /// The primary output bits, in declaration order.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Interns a region name for power attribution and returns its index.
    pub fn intern_region(&mut self, name: &str) -> u32 {
        if let Some(i) = self.regions.iter().position(|r| r == name) {
            return i as u32;
        }
        self.regions.push(name.to_owned());
        (self.regions.len() - 1) as u32
    }

    /// The region table.
    pub fn regions(&self) -> &[String] {
        &self.regions
    }

    /// Adds a combinational gate.
    ///
    /// # Panics
    ///
    /// Panics if the pin count does not match the cell kind (a synthesis
    /// bug, not a data error).
    pub fn add_gate(
        &mut self,
        kind: CellKind,
        inputs: Vec<NetId>,
        output: NetId,
        region: u32,
    ) -> GateId {
        assert_eq!(
            inputs.len(),
            kind.input_count(),
            "pin count mismatch for {kind}"
        );
        assert_ne!(kind, CellKind::Dff, "use add_dff for flip-flops");
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Gate::Comb {
            kind,
            inputs,
            output,
            region,
        });
        id
    }

    /// Adds a D flip-flop.
    pub fn add_dff(
        &mut self,
        name: impl Into<String>,
        d: NetId,
        q: NetId,
        init: bool,
        region: u32,
    ) -> GateId {
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Gate::Dff {
            name: name.into(),
            d,
            q,
            init,
            region,
        });
        id
    }

    /// Adds an SRAM macro.
    pub fn add_sram(&mut self, sram: SramMacro) {
        self.srams.push(sram);
    }

    /// The gates, in creation order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The SRAM macros.
    pub fn srams(&self) -> &[SramMacro] {
        &self.srams
    }

    /// Iterates over the flip-flops with their gate ids.
    pub fn dffs(&self) -> impl Iterator<Item = (GateId, &str, NetId, NetId, bool)> {
        self.gates.iter().enumerate().filter_map(|(i, g)| match g {
            Gate::Dff {
                name, d, q, init, ..
            } => Some((GateId(i as u32), name.as_str(), *d, *q, *init)),
            _ => None,
        })
    }

    /// Number of flip-flops.
    pub fn dff_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Dff { .. }))
            .count()
    }

    /// Number of combinational gates.
    pub fn comb_gate_count(&self) -> usize {
        self.gates.len() - self.dff_count()
    }

    /// Fanout count per net: how many gate input pins (and macro
    /// address/data/enable pins) each net drives.
    pub fn fanout(&self) -> Vec<u32> {
        let mut fanout = vec![0u32; self.net_names.len()];
        for g in &self.gates {
            match g {
                Gate::Comb { inputs, .. } => {
                    for n in inputs {
                        fanout[n.index()] += 1;
                    }
                }
                Gate::Dff { d, .. } => fanout[d.index()] += 1,
            }
        }
        for s in &self.srams {
            for rp in &s.read_ports {
                for n in &rp.addr {
                    fanout[n.index()] += 1;
                }
            }
            for wp in &s.write_ports {
                for n in wp.addr.iter().chain(&wp.data) {
                    fanout[n.index()] += 1;
                }
                fanout[wp.enable.index()] += 1;
            }
        }
        for (_, n) in &self.outputs {
            fanout[n.index()] += 1;
        }
        fanout
    }

    /// Computes a topological order over combinational elements (gates and
    /// SRAM read ports), for levelized simulation.
    ///
    /// Returns indices into a combined element space: `0..gates.len()` are
    /// gate indices (DFFs excluded from ordering constraints — they are
    /// sources), and `gates.len()..` index SRAM read ports in declaration
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] on a cycle.
    pub fn levelize(&self) -> Result<Vec<usize>, NetlistError> {
        // Map: net -> driving element (comb gates + sram read port data bits).
        let n_elems =
            self.gates.len() + self.srams.iter().map(|s| s.read_ports.len()).sum::<usize>();
        let mut driver_of: Vec<Option<usize>> = vec![None; self.net_names.len()];
        for (i, g) in self.gates.iter().enumerate() {
            if let Gate::Comb { output, .. } = g {
                driver_of[output.index()] = Some(i);
            }
        }
        let mut elem = self.gates.len();
        for s in &self.srams {
            for rp in &s.read_ports {
                for d in &rp.data {
                    driver_of[d.index()] = Some(elem);
                }
                elem += 1;
            }
        }

        let mut indegree = vec![0u32; n_elems];
        let mut users: Vec<Vec<u32>> = vec![Vec::new(); n_elems];
        let connect =
            |src_net: NetId, dst: usize, users: &mut Vec<Vec<u32>>, indeg: &mut Vec<u32>| {
                if let Some(drv) = driver_of[src_net.index()] {
                    users[drv].push(dst as u32);
                    indeg[dst] += 1;
                }
            };

        for (i, g) in self.gates.iter().enumerate() {
            if let Gate::Comb { inputs, .. } = g {
                for n in inputs {
                    connect(*n, i, &mut users, &mut indegree);
                }
            }
        }
        let mut elem = self.gates.len();
        for s in &self.srams {
            for rp in &s.read_ports {
                for a in &rp.addr {
                    connect(*a, elem, &mut users, &mut indegree);
                }
                elem += 1;
            }
        }

        // DFF elements always have indegree 0 and are skipped in evaluation;
        // keeping them in the order is harmless and simplifies indexing.
        let mut queue: Vec<u32> = (0..n_elems as u32)
            .filter(|&i| indegree[i as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n_elems);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            order.push(v as usize);
            for &u in &users[v as usize] {
                indegree[u as usize] -= 1;
                if indegree[u as usize] == 0 {
                    queue.push(u);
                }
            }
        }
        if order.len() != n_elems {
            return Err(NetlistError::CombinationalLoop);
        }
        Ok(order)
    }

    /// Validates structural sanity: single driver per net, every net driven
    /// by a gate, macro or primary input, pin counts correct, and no
    /// combinational loops.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut drivers = vec![0u32; self.net_names.len()];
        for g in &self.gates {
            match g {
                Gate::Comb {
                    kind,
                    inputs,
                    output,
                    ..
                } => {
                    if inputs.len() != kind.input_count() {
                        return Err(NetlistError::PinCountMismatch {
                            gate: format!("{kind}->{}", self.net_name(*output)),
                        });
                    }
                    drivers[output.index()] += 1;
                }
                Gate::Dff { q, .. } => drivers[q.index()] += 1,
            }
        }
        for s in &self.srams {
            for rp in &s.read_ports {
                for d in &rp.data {
                    drivers[d.index()] += 1;
                }
            }
        }
        for (_, n) in &self.inputs {
            drivers[n.index()] += 1;
        }
        for (i, &count) in drivers.iter().enumerate() {
            let id = NetId(i as u32);
            if count > 1 {
                return Err(NetlistError::MultipleDrivers {
                    net: self.net_name(id).to_owned(),
                });
            }
            if count == 0 {
                return Err(NetlistError::Undriven {
                    net: self.net_name(id).to_owned(),
                });
            }
        }
        self.levelize().map(|_| ())
    }

    /// Total cell area in µm² under a library.
    pub fn area_um2(&self, lib: &crate::CellLibrary) -> f64 {
        let cells: f64 = self.gates.iter().map(|g| lib.cell(g.kind()).area_um2).sum();
        let srams: f64 = self
            .srams
            .iter()
            .map(|s| s.capacity_bits() as f64 * lib.sram_area_per_bit_um2)
            .sum();
        cells + srams
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellLibrary;

    fn tiny() -> Netlist {
        // out = !(a & b) via NAND; plus a DFF toggling through an inverter.
        let mut nl = Netlist::new("tiny");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        let y = nl.add_net("y");
        nl.add_input("a", a);
        nl.add_input("b", b);
        nl.add_gate(CellKind::Nand2, vec![a, b], y, 0);
        nl.add_output("y", y);
        let q = nl.add_net("q");
        let d = nl.add_net("d");
        nl.add_gate(CellKind::Inv, vec![q], d, 0);
        nl.add_dff("toggle_reg", d, q, false, 0);
        nl.add_output("q", q);
        nl
    }

    #[test]
    fn tiny_netlist_validates() {
        let nl = tiny();
        nl.validate().unwrap();
        assert_eq!(nl.dff_count(), 1);
        assert_eq!(nl.comb_gate_count(), 2);
        assert_eq!(nl.net_count(), 5);
    }

    #[test]
    fn multiple_drivers_detected() {
        let mut nl = tiny();
        let y = NetId(2);
        let a = NetId(0);
        nl.add_gate(CellKind::Buf, vec![a], y, 0);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn undriven_net_detected() {
        let mut nl = tiny();
        let dangling = nl.add_net("dangling");
        nl.add_output("z", dangling);
        assert!(matches!(nl.validate(), Err(NetlistError::Undriven { .. })));
    }

    #[test]
    fn comb_loop_detected() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_gate(CellKind::Inv, vec![a], b, 0);
        nl.add_gate(CellKind::Inv, vec![b], a, 0);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::CombinationalLoop)
        ));
    }

    #[test]
    fn dff_feedback_is_not_a_comb_loop() {
        let nl = tiny();
        assert!(nl.levelize().is_ok());
    }

    #[test]
    fn fanout_counts_pins() {
        let nl = tiny();
        let fo = nl.fanout();
        // net a feeds one NAND pin.
        assert_eq!(fo[0], 1);
        // net q feeds the inverter and the primary output.
        assert_eq!(fo[3], 2);
    }

    #[test]
    fn sram_read_port_participates_in_levelization() {
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
        nl.validate().unwrap();
        let order = nl.levelize().unwrap();
        // The SRAM read element (index 1) must come before the inverter (0).
        let pos_inv = order.iter().position(|&e| e == 0).unwrap();
        let pos_ram = order.iter().position(|&e| e == 1).unwrap();
        assert!(pos_ram < pos_inv);
    }

    #[test]
    fn area_accounts_cells_and_srams() {
        let lib = CellLibrary::generic_45nm();
        let nl = tiny();
        let a = nl.area_um2(&lib);
        assert!(a > 0.0);
        let mut with_ram = tiny();
        with_ram.add_sram(SramMacro {
            name: "ram".to_owned(),
            width: 8,
            depth: 64,
            init: vec![],
            read_ports: vec![],
            write_ports: vec![],
            region: 0,
        });
        assert!(with_ram.area_um2(&lib) > a + 100.0);
    }

    #[test]
    fn region_interning_dedups() {
        let mut nl = Netlist::new("r");
        let a = nl.intern_region("core/fetch");
        let b = nl.intern_region("core/fetch");
        let c = nl.intern_region("core/decode");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(nl.regions().len(), 3); // <top>, fetch, decode
    }
}
