//! The reference gate-level engine: a naive netlist evaluator.

use crate::activity::ActivityReport;
use crate::classes::ClassMap;
use crate::sim::{check_fits, found, GateSimError};
use std::collections::HashMap;
use strober_gates::{Gate, NetId, Netlist};

/// What drives a net: a primary input or flip-flop (holding its value),
/// a combinational gate, or read port `.1` of SRAM macro `.0`.
#[derive(Debug, Clone, Copy)]
enum Driver {
    Source,
    Gate(usize),
    Read(usize, usize),
}

/// The naive zero-delay gate-level simulator, to [`crate::BatchSim`] what
/// `NaiveInterpreter` is to the RTL tape: one replay, one `bool` per net.
/// It shares none of the batch engine's machinery (tape, levels, lanes,
/// transposes, slots, class planes): a settle walks [`Netlist::gates`] in
/// netlist order through `CellKind::eval`, recursing into inputs not yet
/// evaluated (memoised per settle), and every net keeps its own toggle
/// count ([`NaiveGateSim::net_toggles`]); only the report sums them by
/// energy class. Slow on purpose; tests and the fuzzer use it, the
/// replay flow never does.
#[derive(Debug, Clone)]
pub struct NaiveGateSim<'a> {
    netlist: &'a Netlist,
    drivers: Vec<Driver>,
    values: Vec<bool>,
    /// Whether `values[net]` is current this settle; a source's always is.
    known: Vec<bool>,
    /// The values at the last counted clock edge.
    prev: Vec<bool>,
    toggles: Vec<u64>,
    classes: ClassMap,
    srams: Vec<Vec<u64>>,
    /// Per macro and read port, the address last charged an access.
    last_read: Vec<Vec<Option<u64>>>,
    /// `(reads, writes)` per macro.
    accesses: Vec<(u64, u64)>,
    /// Flip-flop instance name → its output net's index.
    dffs: HashMap<&'a str, usize>,
    /// Edges since the window started: the first counts no toggles.
    cycle: u64,
    settled: bool,
}

impl<'a> NaiveGateSim<'a> {
    /// A simulator over `netlist` with its flip-flops at their reset
    /// values; [`GateSimError::BadNetlist`] if it fails validation.
    pub fn new(netlist: &'a Netlist) -> Result<Self, GateSimError> {
        netlist.validate()?;
        let nets = netlist.net_count();
        let mut drivers = vec![Driver::Source; nets];
        let mut values = vec![false; nets];
        let mut dffs = HashMap::new();
        for (g, gate) in netlist.gates().iter().enumerate() {
            match gate {
                Gate::Comb { output, .. } => drivers[output.index()] = Driver::Gate(g),
                Gate::Dff { name, q, init, .. } => {
                    values[q.index()] = *init;
                    dffs.insert(name.as_str(), q.index());
                }
            }
        }
        let srams = netlist.srams();
        for (s, sram) in srams.iter().enumerate() {
            for (p, rp) in sram.read_ports.iter().enumerate() {
                for d in &rp.data {
                    drivers[d.index()] = Driver::Read(s, p);
                }
            }
        }
        let contents = srams.iter().map(|s| {
            let mut words = s.init.clone();
            words.resize(s.depth, 0);
            words
        });
        Ok(NaiveGateSim {
            netlist,
            known: vec![false; nets],
            drivers,
            prev: values.clone(),
            values,
            toggles: vec![0; nets],
            classes: ClassMap::new(netlist),
            srams: contents.collect(),
            last_read: srams
                .iter()
                .map(|s| vec![None; s.read_ports.len()])
                .collect(),
            accesses: vec![(0, 0); srams.len()],
            dffs,
            cycle: 0,
            settled: false,
        })
    }

    /// Drives input port `name` (bits `name[i]`); errors on an unknown
    /// port or a value wider than it.
    pub fn poke_port(&mut self, name: &str, value: u64) -> Result<(), GateSimError> {
        let bits = port(self.netlist.inputs(), "input port", name)?;
        check_fits(name, value, bits.len())?;
        for (i, net) in bits.iter().enumerate() {
            self.values[net.index()] = (value >> i) & 1 == 1;
        }
        self.settled = false;
        Ok(())
    }

    /// Reads output port `name`, settling first; errors on an unknown port.
    pub fn peek_port(&mut self, name: &str) -> Result<u64, GateSimError> {
        self.settle();
        let bits = port(self.netlist.outputs(), "output port", name)?;
        Ok(bits.iter().rev().fold(0, |word, net| {
            word << 1 | u64::from(self.values[net.index()])
        }))
    }

    /// Sets flip-flop `name`, as a state load: not a toggle.
    pub fn set_dff(&mut self, name: &str, value: bool) -> Result<(), GateSimError> {
        let q = found(self.dffs.get(name).copied(), "flip-flop", name)?;
        self.values[q] = value;
        self.prev[q] = value;
        self.settled = false;
        Ok(())
    }

    /// Reads flip-flop `name`.
    pub fn dff_value(&self, name: &str) -> Result<bool, GateSimError> {
        let q = found(self.dffs.get(name).copied(), "flip-flop", name)?;
        Ok(self.values[q])
    }

    /// Writes word `addr` of SRAM macro `name`.
    pub fn set_sram_word(
        &mut self,
        name: &str,
        addr: usize,
        value: u64,
    ) -> Result<(), GateSimError> {
        let s = self.sram(name, addr)?;
        self.srams[s][addr] = value;
        self.settled = false;
        Ok(())
    }

    /// Reads word `addr` of SRAM macro `name`.
    pub fn sram_word(&self, name: &str, addr: usize) -> Result<u64, GateSimError> {
        Ok(self.srams[self.sram(name, addr)?][addr])
    }

    /// Advances one clock cycle: settle, count each net that changed
    /// since the last edge, charge a read to every read port whose
    /// address moved, commit enabled writes in port order, then latch
    /// every flip-flop from its pre-edge D.
    pub fn step(&mut self) {
        self.settle();
        if self.cycle > 0 {
            for net in 0..self.values.len() {
                if self.values[net] != self.prev[net] {
                    self.toggles[net] += 1;
                }
            }
        }
        self.prev.copy_from_slice(&self.values);
        let netlist = self.netlist;
        for (s, sram) in netlist.srams().iter().enumerate() {
            for (p, rp) in sram.read_ports.iter().enumerate() {
                let addr = Some(self.word(&rp.addr));
                if self.last_read[s][p] != addr {
                    self.last_read[s][p] = addr;
                    self.accesses[s].0 += 1;
                }
            }
            for wp in &sram.write_ports {
                if self.values[wp.enable.index()] {
                    let data = self.word(&wp.data);
                    if let Some(slot) = index(self.word(&wp.addr), sram.depth) {
                        self.srams[s][slot] = data;
                        self.accesses[s].1 += 1;
                    }
                }
            }
        }
        let next: Vec<(NetId, bool)> = netlist
            .dffs()
            .map(|(_, _, d, q, _)| (q, self.values[d.index()]))
            .collect();
        for (q, v) in next {
            self.values[q.index()] = v;
        }
        self.cycle += 1;
        self.settled = false;
    }

    /// Advances `n` cycles.
    pub fn step_n(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Starts a fresh measurement window: clears the counters, and each
    /// read port's current address becomes its baseline.
    pub fn reset_activity(&mut self) {
        self.settle();
        self.toggles.fill(0);
        self.accesses.fill((0, 0));
        for (s, sram) in self.netlist.srams().iter().enumerate() {
            for (p, rp) in sram.read_ports.iter().enumerate() {
                self.last_read[s][p] = Some(self.word(&rp.addr));
            }
        }
        self.cycle = 0;
    }

    /// Toggles per net (indexed by net id) in the current measurement
    /// window: the per-net resolution the class report sums away.
    pub fn net_toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// The activity of the current measurement window, the per-net counts
    /// summed by [`ClassMap`].
    pub fn activity(&self) -> ActivityReport {
        let toggles = self.classes.totals(&self.toggles);
        ActivityReport::new(self.cycle, toggles, self.accesses.clone())
    }

    /// Evaluates every net not held by a source.
    fn settle(&mut self) {
        if !self.settled {
            self.known.fill(false);
            let netlist = self.netlist;
            let outputs = netlist.gates().iter().map(Gate::output);
            let reads = netlist.srams().iter().flat_map(|s| &s.read_ports);
            for net in outputs.chain(reads.filter_map(|rp| rp.data.first().copied())) {
                self.eval(net);
            }
            self.settled = true;
        }
    }

    /// `net`'s value this settle, evaluating its driver (and first its
    /// unevaluated inputs) if nothing has yet; a read port reads 0 past
    /// its macro's depth.
    fn eval(&mut self, net: NetId) -> bool {
        if !self.known[net.index()] {
            let netlist = self.netlist;
            match self.drivers[net.index()] {
                Driver::Source => {}
                Driver::Gate(g) => {
                    let Gate::Comb { kind, inputs, .. } = &netlist.gates()[g] else {
                        unreachable!("flip-flop outputs are sources");
                    };
                    let mut pins = [false; 3];
                    for (pin, &input) in inputs.iter().enumerate() {
                        pins[pin] = self.eval(input);
                    }
                    self.values[net.index()] = kind.eval(&pins[..inputs.len()]);
                    self.known[net.index()] = true;
                }
                Driver::Read(s, p) => {
                    let rp = &netlist.srams()[s].read_ports[p];
                    let addr = self.word(&rp.addr);
                    let word = index(addr, self.srams[s].len()).map_or(0, |a| self.srams[s][a]);
                    for (i, d) in rp.data.iter().enumerate() {
                        self.values[d.index()] = (word >> i) & 1 == 1;
                        self.known[d.index()] = true;
                    }
                }
            }
        }
        self.values[net.index()]
    }

    /// The bus `nets`, least significant bit first, as a word.
    fn word(&mut self, nets: &[NetId]) -> u64 {
        let mut word = 0;
        for (i, &net) in nets.iter().enumerate() {
            word |= u64::from(self.eval(net)) << i;
        }
        word
    }

    /// The index of SRAM macro `name`, whose depth `addr` must be under.
    fn sram(&self, name: &str, addr: usize) -> Result<usize, GateSimError> {
        let srams = self.netlist.srams();
        let s = found(
            srams.iter().position(|s| s.name == name),
            "SRAM macro",
            name,
        )?;
        if addr >= srams[s].depth {
            let sram = name.to_owned();
            return Err(GateSimError::AddressOutOfRange { sram, addr });
        }
        Ok(s)
    }
}

/// The nets of port `name` among `bits`, bit `i` named `name[i]` (or
/// just `name`).
fn port(
    bits: &[(String, NetId)],
    kind: &'static str,
    name: &str,
) -> Result<Vec<NetId>, GateSimError> {
    let bit = |n: &str| match n.strip_prefix(name)? {
        "" => Some(0),
        i => i.strip_prefix('[')?.strip_suffix(']')?.parse().ok(),
    };
    let mut nets: Vec<(usize, NetId)> = bits
        .iter()
        .filter_map(|(n, net)| Some((bit(n)?, *net)))
        .collect();
    if nets.is_empty() {
        let name = name.to_owned();
        return Err(GateSimError::UnknownName { kind, name });
    }
    nets.sort_unstable();
    Ok(nets.into_iter().map(|(_, net)| net).collect())
}

/// `addr` as an index when it is below `depth`.
fn index(addr: u64, depth: usize) -> Option<usize> {
    usize::try_from(addr).ok().filter(|&a| a < depth)
}
