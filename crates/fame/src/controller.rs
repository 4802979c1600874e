//! The host-side snapshot capture: the shifted scan/trace protocol (the
//! reference that proves the transform's instrumentation) and the direct
//! read of the same data out of simulator storage (what production runs).

use crate::meta::{FameMeta, TraceMeta};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use strober_rtl::{Design, MemId, Node, RegId, Width};
use strober_sim::{SimError, Simulator};

/// A fully assembled replayable RTL snapshot (§III-B of the paper): all
/// register and memory state at cycle `cycle`, plus the I/O traces of its
/// `warmup + replay_length` window. Serialisable, so snapshots can be
/// stored and replayed later or on another machine — snapshots are the
/// artifact the paper ships from the FPGA host to the gate-level replay
/// farm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FameSnapshot {
    /// The target cycle at which the state was captured.
    pub cycle: u64,
    /// `(rtl register name, value)` in scan-chain order.
    pub regs: Vec<(String, u64)>,
    /// `(rtl memory name, full contents)` per memory.
    pub mems: Vec<(String, Vec<u64>)>,
    /// Per target input port: `(port name, one value per traced cycle)`,
    /// index 0 = cycle `cycle`.
    pub inputs: Vec<(String, Vec<u64>)>,
    /// Per target output port: expected values, same indexing.
    pub outputs: Vec<(String, Vec<u64>)>,
}

impl FameSnapshot {
    /// The number of traced cycles (`replay_length + warmup`).
    pub fn trace_len(&self) -> usize {
        self.inputs
            .first()
            .map(|(_, v)| v.len())
            .or_else(|| self.outputs.first().map(|(_, v)| v.len()))
            .unwrap_or(0)
    }
}

/// A snapshot whose state has been captured but whose I/O trace window has
/// not yet elapsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingSnapshot {
    /// The target cycle at which the state was captured.
    pub cycle: u64,
    /// `(rtl register name, value)` in scan-chain order.
    pub regs: Vec<(String, u64)>,
    /// `(rtl memory name, full contents)` per memory.
    pub mems: Vec<(String, Vec<u64>)>,
}

/// Where a snapshot's contents sit in the hub simulator's own storage:
/// the id of every register, memory and trace ring a capture reads,
/// resolved from the metadata once per session so that
/// [`SnapshotController::read_state`] / [`read_traces`] do no name lookup
/// per record.
///
/// [`read_traces`]: SnapshotController::read_traces
#[derive(Debug, Clone)]
pub struct HubLayout {
    cycle: RegId,
    /// `(register, width mask)` in scan-chain order.
    regs: Vec<(RegId, u64)>,
    /// In `mem_scans` order.
    mems: Vec<MemId>,
    traces_in: Vec<MemId>,
    traces_out: Vec<MemId>,
}

impl HubLayout {
    /// Resolves `meta` against the hub design it describes
    /// (`sim.design()` of the session's simulator).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] when `hub` is not the design
    /// `meta` was dumped for.
    pub fn resolve(meta: &FameMeta, hub: &Design) -> Result<Self, SimError> {
        let unknown = |kind: &'static str, name: &str| SimError::UnknownName {
            kind,
            name: name.to_owned(),
        };
        // What a hub output reads, looked through to the storage behind it.
        let behind = |port: &str| {
            hub.output_by_name(port)
                .map(|id| hub.node(id))
                .ok_or_else(|| unknown("output", port))
        };
        // Depths are checked here so the per-record reads can index freely.
        let mem_behind = |port: &str, depth: usize| match behind(port)? {
            Node::MemRead { mem, .. } if hub.memory(*mem).depth() == depth => Ok(*mem),
            _ => Err(unknown("memory output", port)),
        };
        let cycle = match behind(&meta.control.cycle)? {
            Node::RegOut(reg) => *reg,
            _ => return Err(unknown("cycle counter output", &meta.control.cycle)),
        };
        let by_name: HashMap<&str, RegId> = hub.registers().map(|(id, r)| (r.name(), id)).collect();
        let regs = meta
            .scan_chain
            .iter()
            .map(|elem| {
                let id = *by_name
                    .get(elem.rtl_name.as_str())
                    .ok_or_else(|| unknown("register", &elem.rtl_name))?;
                let mask = Width::new(elem.width)
                    .expect("meta widths are valid")
                    .mask();
                Ok((id, mask))
            })
            .collect::<Result<_, SimError>>()?;
        let rings = |traces: &[TraceMeta]| {
            traces
                .iter()
                .map(|t| mem_behind(&t.out_port, meta.trace_depth))
                .collect::<Result<_, SimError>>()
        };
        Ok(HubLayout {
            cycle,
            regs,
            mems: meta
                .mem_scans
                .iter()
                .map(|m| mem_behind(&m.out_port, m.depth))
                .collect::<Result<_, SimError>>()?,
            traces_in: rings(&meta.traces_in)?,
            traces_out: rings(&meta.traces_out)?,
        })
    }
}

/// Captures snapshots from a hub simulator and keeps the ledger of hub
/// cycles a capture costs on the modelled platform (the sampling overhead
/// `T_rec` of §IV-E).
///
/// There are two ways to take the same snapshot, and they charge the same
/// cycles:
///
/// * [`read_state`] / [`read_traces`] — **production**. The values are
///   read straight out of the simulator's register and memory arrays and
///   the cost is booked by arithmetic
///   ([`FameMeta::snapshot_capture_cycles`] plus one cycle per traced
///   target cycle). This is the paper's own accounting: a record is
///   charged to the FPGA's clock, not to whoever simulates the FPGA.
/// * [`begin_snapshot`] / [`finish_snapshot`] — **reference**. The scan
///   chains, memory scanners and trace read port the transform built are
///   driven cycle by cycle, which is what proves that instrumentation
///   correct and what the arithmetic is checked against.
///
/// [`read_state`]: SnapshotController::read_state
/// [`read_traces`]: SnapshotController::read_traces
/// [`begin_snapshot`]: SnapshotController::begin_snapshot
/// [`finish_snapshot`]: SnapshotController::finish_snapshot
#[derive(Debug, Clone)]
pub struct SnapshotController {
    meta: FameMeta,
    overhead_cycles: u64,
}

impl SnapshotController {
    /// Creates a controller for a hub described by `meta`.
    pub fn new(meta: &FameMeta) -> Self {
        SnapshotController {
            meta: meta.clone(),
            overhead_cycles: 0,
        }
    }

    /// The metadata this controller drives.
    pub fn meta(&self) -> &FameMeta {
        &self.meta
    }

    /// Total hub cycles spent on snapshot capture so far (scan shifts,
    /// memory streaming, trace readout strobes).
    pub fn overhead_cycles(&self) -> u64 {
        self.overhead_cycles
    }

    /// Drives the global fire signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the hub does not expose the control port
    /// (wrong simulator for this metadata).
    pub fn set_fire(&self, sim: &mut Simulator, fire: bool) -> Result<(), SimError> {
        sim.poke_by_name(&self.meta.control.fire, u64::from(fire))
    }

    /// The target's current cycle count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for a mismatched simulator.
    pub fn target_cycle(&self, sim: &mut Simulator) -> Result<u64, SimError> {
        sim.peek_output(&self.meta.control.cycle)
    }

    /// Production capture, first half: reads register and memory state
    /// out of simulator storage and books
    /// [`FameMeta::snapshot_capture_cycles`]. Nothing is poked or stepped,
    /// so the target need not be stalled and cannot be perturbed. Returns
    /// exactly what [`begin_snapshot`](SnapshotController::begin_snapshot)
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `layout` was resolved against a different design.
    pub fn read_state(&mut self, sim: &Simulator, layout: &HubLayout) -> PendingSnapshot {
        let regs = self
            .meta
            .scan_chain
            .iter()
            .zip(&layout.regs)
            .map(|(elem, &(id, mask))| (elem.rtl_name.clone(), sim.reg_value(id) & mask))
            .collect();
        let mems = self
            .meta
            .mem_scans
            .iter()
            .zip(&layout.mems)
            .map(|(m, &id)| {
                let words = (0..m.depth).map(|addr| sim.mem_value(id, addr)).collect();
                (m.rtl_name.clone(), words)
            })
            .collect();
        self.overhead_cycles += self.meta.snapshot_capture_cycles();
        PendingSnapshot {
            cycle: sim.reg_value(layout.cycle),
            regs,
            mems,
        }
    }

    /// Production capture, second half: reads the traced window
    /// `[cycle − warmup, cycle + replay_length)` out of the trace ring
    /// memories and books one cycle per traced target cycle. Returns
    /// exactly what [`finish_snapshot`](SnapshotController::finish_snapshot)
    /// would, under the same precondition: `replay_length` target cycles
    /// have fired since [`read_state`](SnapshotController::read_state).
    ///
    /// # Panics
    ///
    /// Panics if `layout` was resolved against a different design.
    pub fn read_traces(
        &mut self,
        sim: &Simulator,
        layout: &HubLayout,
        pending: PendingSnapshot,
    ) -> FameSnapshot {
        let window = u64::from(self.meta.replay_length + self.meta.warmup);
        let depth = self.meta.trace_depth as u64;
        let trace_start = pending.cycle.saturating_sub(u64::from(self.meta.warmup));
        // Trace entry for target cycle t lives at index t mod depth.
        let read = |traces: &[TraceMeta], rings: &[MemId]| {
            traces
                .iter()
                .zip(rings)
                .map(|(t, &ring)| {
                    let values = (0..window)
                        .map(|k| sim.mem_value(ring, ((trace_start + k) % depth) as usize))
                        .collect();
                    (t.port.clone(), values)
                })
                .collect()
        };
        let inputs = read(&self.meta.traces_in, &layout.traces_in);
        let outputs = read(&self.meta.traces_out, &layout.traces_out);
        self.overhead_cycles += window;
        FameSnapshot {
            cycle: pending.cycle,
            regs: pending.regs,
            mems: pending.mems,
            inputs,
            outputs,
        }
    }

    /// Reference capture, first half: captures register and memory state
    /// through the scan chains, one hub cycle per chain element and per
    /// streamed memory word. The target must already be stalled
    /// (`fire = 0`); it is left stalled. Production sessions use
    /// [`read_state`](SnapshotController::read_state).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for a mismatched simulator.
    pub fn begin_snapshot(&mut self, sim: &mut Simulator) -> Result<PendingSnapshot, SimError> {
        // Resolve every control name once — the shift and stream loops
        // below run once per register and per memory word, so per-cycle
        // string hashing would dominate the scan cost on large targets.
        let ctl = &self.meta.control;
        let cycle = sim.peek_output(&ctl.cycle)?;
        let scan_capture = sim.resolve_port(&ctl.scan_capture)?;
        let scan_shift = sim.resolve_port(&ctl.scan_shift)?;
        let scan_out = sim.resolve_output(&ctl.scan_out)?;

        // Capture strobe: shadow chain loads every register in one cycle.
        sim.poke(scan_capture, 1);
        sim.step();
        sim.poke(scan_capture, 0);
        self.overhead_cycles += 1;

        // Shift the chain out one element per cycle.
        sim.poke(scan_shift, 1);
        let mut regs = Vec::with_capacity(self.meta.scan_chain.len());
        for elem in &self.meta.scan_chain {
            let raw = sim.peek(scan_out);
            let mask = Width::new(elem.width)
                .expect("meta widths are valid")
                .mask();
            regs.push((elem.rtl_name.clone(), raw & mask));
            sim.step();
            self.overhead_cycles += 1;
        }
        sim.poke(scan_shift, 0);

        // Stream each memory through its borrowed read port.
        let mut mems = Vec::with_capacity(self.meta.mem_scans.len());
        if !self.meta.mem_scans.is_empty() {
            let mem_scan_rst = sim.resolve_port(&ctl.mem_scan_rst)?;
            let mem_scan_en = sim.resolve_port(&ctl.mem_scan_en)?;
            let out_ports = self
                .meta
                .mem_scans
                .iter()
                .map(|m| sim.resolve_output(&m.out_port))
                .collect::<Result<Vec<_>, _>>()?;

            sim.poke(mem_scan_rst, 1);
            sim.step();
            sim.poke(mem_scan_rst, 0);
            self.overhead_cycles += 1;

            sim.poke(mem_scan_en, 1);
            let max_depth = self
                .meta
                .mem_scans
                .iter()
                .map(|m| m.depth)
                .max()
                .unwrap_or(0);
            let mut contents: Vec<Vec<u64>> = self
                .meta
                .mem_scans
                .iter()
                .map(|m| Vec::with_capacity(m.depth))
                .collect();
            for addr in 0..max_depth {
                for (mi, m) in self.meta.mem_scans.iter().enumerate() {
                    if addr < m.depth {
                        contents[mi].push(sim.peek(out_ports[mi]));
                    }
                }
                sim.step();
                self.overhead_cycles += 1;
            }
            sim.poke(mem_scan_en, 0);
            for (m, c) in self.meta.mem_scans.iter().zip(contents) {
                mems.push((m.rtl_name.clone(), c));
            }
        }

        Ok(PendingSnapshot { cycle, regs, mems })
    }

    /// Reference capture, second half: reads the I/O trace buffers
    /// through the hub's trace read port and assembles the snapshot.
    /// Production sessions use
    /// [`read_traces`](SnapshotController::read_traces).
    ///
    /// The traced window is `[cycle − warmup, cycle + replay_length)`: the
    /// `warmup` prefix was recorded *before* the state scan (§IV-C3 — the
    /// prefix lets replay warm retimed datapaths by forcing recorded I/O
    /// before the architectural state is loaded), and exactly
    /// `replay_length` further target cycles must have fired since
    /// [`SnapshotController::begin_snapshot`]. The target must be stalled
    /// again when this is called.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for a mismatched simulator.
    pub fn finish_snapshot(
        &mut self,
        sim: &mut Simulator,
        pending: PendingSnapshot,
    ) -> Result<FameSnapshot, SimError> {
        let window = (self.meta.replay_length + self.meta.warmup) as usize;
        let depth = self.meta.trace_depth;
        let trace_start = pending.cycle.saturating_sub(u64::from(self.meta.warmup));

        // One name resolution per port, not one per traced cycle.
        let trace_raddr = sim.resolve_port(&self.meta.control.trace_raddr)?;
        let in_nodes = self
            .meta
            .traces_in
            .iter()
            .map(|t| sim.resolve_output(&t.out_port))
            .collect::<Result<Vec<_>, _>>()?;
        let out_nodes = self
            .meta
            .traces_out
            .iter()
            .map(|t| sim.resolve_output(&t.out_port))
            .collect::<Result<Vec<_>, _>>()?;

        // Trace entry for target cycle t lives at index t mod depth.
        let mut inputs: Vec<(String, Vec<u64>)> = self
            .meta
            .traces_in
            .iter()
            .map(|t| (t.port.clone(), Vec::with_capacity(window)))
            .collect();
        let mut outputs: Vec<(String, Vec<u64>)> = self
            .meta
            .traces_out
            .iter()
            .map(|t| (t.port.clone(), Vec::with_capacity(window)))
            .collect();
        for k in 0..window as u64 {
            let idx = (trace_start + k) % depth as u64;
            sim.poke(trace_raddr, idx);
            for (ti, &node) in in_nodes.iter().enumerate() {
                inputs[ti].1.push(sim.peek(node));
            }
            for (ti, &node) in out_nodes.iter().enumerate() {
                outputs[ti].1.push(sim.peek(node));
            }
        }
        // Trace readout happens over the host interface; account one host
        // cycle per word read, as with the scan chains.
        self.overhead_cycles += window as u64;

        Ok(FameSnapshot {
            cycle: pending.cycle,
            regs: pending.regs,
            mems: pending.mems,
            inputs,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{transform, FameConfig};
    use strober_dsl::Ctx;
    use strober_rtl::Width;

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    /// A small accumulator with a memory, for end-to-end snapshot tests.
    fn build() -> strober_rtl::Design {
        let ctx = Ctx::new("acc");
        let x = ctx.input("x", w(8));
        let acc = ctx.reg("acc", w(16), 0);
        let hist = ctx.mem("hist", w(16), 16);
        let wa = ctx.reg("wa", w(4), 0);
        acc.set(&(&acc.out() + &x.zext(w(16))));
        hist.write(&wa.out(), &acc.out(), &ctx.lit1(true));
        wa.set(&wa.out().add_lit(1));
        ctx.output("sum", &acc.out());
        ctx.finish().unwrap()
    }

    #[test]
    fn full_snapshot_protocol() {
        let target = build();
        let fame = transform(
            &target,
            &FameConfig {
                replay_length: 8,
                warmup: 0,
            },
        )
        .unwrap();
        let mut sim = Simulator::new(&fame.hub).unwrap();
        let mut ctl = SnapshotController::new(&fame.meta);

        // Run 20 cycles with x = t.
        ctl.set_fire(&mut sim, true).unwrap();
        for t in 0..20u64 {
            sim.poke_by_name("x", t % 256).unwrap();
            sim.step();
        }
        ctl.set_fire(&mut sim, false).unwrap();
        assert_eq!(ctl.target_cycle(&mut sim).unwrap(), 20);

        let pending = ctl.begin_snapshot(&mut sim).unwrap();
        assert_eq!(pending.cycle, 20);
        // acc = sum of 0..19 = 190; wa = 20 mod 16 = 4.
        let regs: std::collections::HashMap<_, _> = pending.regs.iter().cloned().collect();
        assert_eq!(regs["acc"], 190);
        assert_eq!(regs["wa"], 4);
        assert_eq!(pending.mems[0].1.len(), 16);
        // hist[3] was written at cycles 3 and 19 (wa wraps mod 16); the
        // last write is acc before cycle 19 = Σ 0..18 = 171. hist[4] was
        // written only at cycle 4: Σ 0..3 = 6.
        assert_eq!(pending.mems[0].1[3], 171);
        assert_eq!(pending.mems[0].1[4], 6);

        // Run the trace window.
        ctl.set_fire(&mut sim, true).unwrap();
        for t in 20..28u64 {
            sim.poke_by_name("x", t % 256).unwrap();
            sim.step();
        }
        ctl.set_fire(&mut sim, false).unwrap();
        let snap = ctl.finish_snapshot(&mut sim, pending).unwrap();
        assert_eq!(snap.trace_len(), 8);
        // Input trace must be exactly x = 20..28.
        assert_eq!(snap.inputs[0].1, (20..28).collect::<Vec<u64>>());
        // Output trace: sum at cycle t = 190 + sum(20..t).
        let mut expect = Vec::new();
        let mut acc = 190u64;
        for t in 20..28u64 {
            expect.push(acc);
            acc += t;
        }
        assert_eq!(snap.outputs[0].1, expect);
        assert!(ctl.overhead_cycles() > 0);
    }

    #[test]
    fn snapshot_does_not_perturb_execution() {
        // Running with a snapshot in the middle must give the same target
        // trajectory as running straight through.
        let target = build();
        let fame = transform(
            &target,
            &FameConfig {
                replay_length: 4,
                warmup: 0,
            },
        )
        .unwrap();

        let run = |with_snapshot: bool| -> u64 {
            let mut sim = Simulator::new(&fame.hub).unwrap();
            let mut ctl = SnapshotController::new(&fame.meta);
            ctl.set_fire(&mut sim, true).unwrap();
            for t in 0..10u64 {
                sim.poke_by_name("x", t).unwrap();
                sim.step();
            }
            if with_snapshot {
                ctl.set_fire(&mut sim, false).unwrap();
                let _pending = ctl.begin_snapshot(&mut sim).unwrap();
                ctl.set_fire(&mut sim, true).unwrap();
            }
            for t in 10..30u64 {
                sim.poke_by_name("x", t).unwrap();
                sim.step();
            }
            sim.peek_output("sum").unwrap()
        };

        assert_eq!(run(false), run(true));
    }

    #[test]
    fn direct_read_matches_the_shifted_protocol_and_does_not_perturb_execution() {
        // Same capture points, including one that wraps the ring, through
        // both paths: equal snapshots, equal cost, and the same target
        // trajectory as a run with no capture at all.
        let config = FameConfig {
            replay_length: 8,
            warmup: 2,
        };
        let fame = transform(&build(), &config).unwrap();
        let layout = HubLayout::resolve(&fame.meta, &fame.hub).unwrap();
        let (window, warmup) = (u64::from(config.replay_length), u64::from(config.warmup));

        let run = |capture_at: &[u64], direct: bool| {
            let mut sim = Simulator::new(&fame.hub).unwrap();
            let mut ctl = SnapshotController::new(&fame.meta);
            ctl.set_fire(&mut sim, true).unwrap();
            let mut t = 0u64;
            let mut advance = |sim: &mut Simulator, n: u64| {
                for _ in 0..n {
                    sim.poke_by_name("x", t % 256).unwrap();
                    sim.step();
                    t += 1;
                }
            };
            let mut snaps = Vec::new();
            let mut at = 0;
            for &c in capture_at {
                advance(&mut sim, c - at);
                let snap = if direct {
                    let pending = ctl.read_state(&sim, &layout);
                    advance(&mut sim, window);
                    ctl.read_traces(&sim, &layout, pending)
                } else {
                    ctl.set_fire(&mut sim, false).unwrap();
                    let pending = ctl.begin_snapshot(&mut sim).unwrap();
                    ctl.set_fire(&mut sim, true).unwrap();
                    advance(&mut sim, window);
                    ctl.set_fire(&mut sim, false).unwrap();
                    let snap = ctl.finish_snapshot(&mut sim, pending).unwrap();
                    ctl.set_fire(&mut sim, true).unwrap();
                    snap
                };
                assert_eq!(snap.cycle, c);
                assert_eq!(snap.trace_len() as u64, window + warmup);
                snaps.push(snap);
                at = c + window;
            }
            advance(&mut sim, 60 - at);
            (
                snaps,
                ctl.overhead_cycles(),
                sim.peek_output("sum").unwrap(),
            )
        };

        let points = [2, 10, 29];
        let (direct, direct_cost, direct_sum) = run(&points, true);
        let (shifted, shifted_cost, shifted_sum) = run(&points, false);
        let (_, _, straight_sum) = run(&[], true);
        assert_eq!(direct, shifted);
        assert_eq!(direct_cost, shifted_cost);
        assert_eq!(direct_sum, straight_sum);
        assert_eq!(shifted_sum, straight_sum);
    }

    #[test]
    fn layout_rejects_a_hub_the_metadata_does_not_describe() {
        let fame = transform(&build(), &FameConfig::default()).unwrap();
        assert!(HubLayout::resolve(&fame.meta, &build()).is_err());
    }

    #[test]
    fn wrapping_trace_window_is_reassembled_correctly() {
        // Capture at a cycle that makes the ring buffer wrap.
        let target = build();
        let fame = transform(
            &target,
            &FameConfig {
                replay_length: 8,
                warmup: 0,
            },
        )
        .unwrap();
        let mut sim = Simulator::new(&fame.hub).unwrap();
        let mut ctl = SnapshotController::new(&fame.meta);
        ctl.set_fire(&mut sim, true).unwrap();
        for t in 0..13u64 {
            sim.poke_by_name("x", t).unwrap();
            sim.step();
        }
        ctl.set_fire(&mut sim, false).unwrap();
        let pending = ctl.begin_snapshot(&mut sim).unwrap();
        ctl.set_fire(&mut sim, true).unwrap();
        for t in 13..21u64 {
            sim.poke_by_name("x", t).unwrap();
            sim.step();
        }
        ctl.set_fire(&mut sim, false).unwrap();
        let snap = ctl.finish_snapshot(&mut sim, pending).unwrap();
        assert_eq!(snap.inputs[0].1, (13..21).collect::<Vec<u64>>());
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn snapshots_serialize_round_trip() {
        let snap = FameSnapshot {
            cycle: 42,
            regs: vec![("pc".to_owned(), 0x80), ("acc".to_owned(), 7)],
            mems: vec![("ram".to_owned(), vec![1, 2, 3])],
            inputs: vec![("x".to_owned(), vec![9, 8, 7])],
            outputs: vec![("y".to_owned(), vec![1, 1, 2])],
        };
        let json = serde_json::to_string(&snap).expect("serialisable");
        let back: FameSnapshot = serde_json::from_str(&json).expect("parseable");
        assert_eq!(back, snap);
        assert_eq!(back.trace_len(), 3);
    }
}
