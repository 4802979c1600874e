//! The FAME1 + scan-chain + trace-buffer transform.

use crate::meta::{ControlPorts, FameMeta, MemScanMeta, ScanElem, TraceMeta};
use strober_rtl::{Design, MemId, Node, NodeId, RegId, RtlError, Width};

/// Configuration for the transform.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FameConfig {
    /// Cycles of I/O recorded per snapshot for the measurement window
    /// (`L` in the paper; 128 in the validation experiments, 1000 in the
    /// performance model).
    pub replay_length: u32,
    /// Extra leading cycles recorded so replay can warm retimed datapaths
    /// by forcing I/O before the measurement window (§IV-C3). Zero when no
    /// datapath is retimed.
    pub warmup: u32,
}

impl Default for FameConfig {
    fn default() -> Self {
        FameConfig {
            replay_length: 128,
            warmup: 0,
        }
    }
}

/// The transform's output: the hub design and its metadata.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize, serde::Blob)]
pub struct FameResult {
    /// The instrumented FAME1 simulator design ("hub").
    pub hub: Design,
    /// Metadata for the host driver.
    pub meta: FameMeta,
}

impl FameResult {
    /// The hub as a production session simulates it: the six control
    /// inputs tied to their free-run values — `fire` high, every scan,
    /// memory-scan and trace-readout control low — and the readout
    /// outputs ([`FameMeta::readout_outputs`]) dropped.
    ///
    /// On Strober's FPGA the scan chains, memory scanners and trace read
    /// ports are idle hardware a free run never drives; in software every
    /// gate of them is evaluated each hub cycle. Tied to constants, the
    /// tape optimizer folds the scan muxes away, holds the shadow and
    /// scanner registers (their enables fold to 0) and drops the readout
    /// cones. What a direct capture reads stays: the target, the
    /// trace-ring writes and write pointer, and `fame/cycle`.
    ///
    /// Every node, register and memory keeps its id, so a [`HubLayout`]
    /// resolved against [`hub`](FameResult::hub) indexes the free-run
    /// design's storage too. The tied ports leave the design; the target's
    /// ports, declared first, keep their ids.
    ///
    /// [`HubLayout`]: crate::HubLayout
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::DanglingId`] when `hub` lacks a control port or
    /// readout output `meta` names (a result not built by [`transform`]).
    pub fn free_run(&self) -> Result<Design, RtlError> {
        let _span = strober_probe::span("strober.fame.free_run");
        let mut d = self.hub.clone();
        let c = &self.meta.control;
        for (port, value) in [
            (&c.fire, 1),
            (&c.scan_capture, 0),
            (&c.scan_shift, 0),
            (&c.mem_scan_en, 0),
            (&c.mem_scan_rst, 0),
            (&c.trace_raddr, 0),
        ] {
            d.tie_input(port, value)?;
        }
        for output in self.meta.readout_outputs() {
            d.remove_output(output)?;
        }
        assert_eq!(
            (d.node_count(), d.register_count(), d.memory_count()),
            (
                self.hub.node_count(),
                self.hub.register_count(),
                self.hub.memory_count()
            ),
            "tying off keeps every node, register and memory id"
        );
        Ok(d)
    }
}

/// Applies the FAME1 transform with snapshot instrumentation.
///
/// The returned hub contains the complete target plus:
/// control inputs `fame/fire`, `fame/scan_capture`, `fame/scan_shift`,
/// `fame/mem_scan_en`, `fame/mem_scan_rst`, `fame/trace_raddr`; and
/// outputs `fame/scan_out`, `fame/cycle`, one `fame/mem_scan_out_<i>` per
/// memory and one `fame/trace_(in|out)_<i>` per target port. Target ports
/// keep their names.
///
/// # Errors
///
/// Returns any [`RtlError`] from the target's validation or from hub
/// construction (e.g. name collisions with a target that already uses
/// `fame/…` names).
pub fn transform(target: &Design, config: &FameConfig) -> Result<FameResult, RtlError> {
    let _span = strober_probe::span("strober.fame.transform");
    target.validate()?;
    let mut d = target.clone();

    // Record the target's original shape before instrumenting.
    let orig_regs: Vec<(RegId, String, Width)> = target
        .registers()
        .map(|(id, r)| (id, r.name().to_owned(), r.width()))
        .collect();
    let orig_mems: Vec<(MemId, String, Width, usize, usize)> = target
        .memories()
        .map(|(id, m)| {
            (
                id,
                m.name().to_owned(),
                m.width(),
                m.depth(),
                m.read_ports().len(),
            )
        })
        .collect();
    let orig_inputs: Vec<(NodeId, String, Width)> = target
        .nodes()
        .filter_map(|(id, node, w)| match node {
            Node::Input(p) => Some((id, target.ports()[p.index()].name().to_owned(), w)),
            _ => None,
        })
        .collect();
    let orig_outputs: Vec<(String, NodeId, Width)> = target
        .outputs()
        .iter()
        .map(|(n, id)| (n.clone(), *id, target.width(*id)))
        .collect();

    let bit = Width::BIT;
    let w64 = Width::W64;

    // ---- control inputs -------------------------------------------------------
    let fire = d.input("fame/fire", bit)?;
    let scan_capture = d.input("fame/scan_capture", bit)?;
    let scan_shift = d.input("fame/scan_shift", bit)?;
    let mem_scan_en = d.input("fame/mem_scan_en", bit)?;
    let mem_scan_rst = d.input("fame/mem_scan_rst", bit)?;

    let trace_depth = ((config.replay_length + config.warmup).max(2) as usize).next_power_of_two();
    let traddr_w = Width::for_depth(trace_depth)?;
    let trace_raddr = d.input("fame/trace_raddr", traddr_w)?;

    // ---- FAME1 gating: registers ---------------------------------------------
    for (id, _, _) in &orig_regs {
        let reg = d.register(*id);
        let (next, enable) = (reg.next().expect("validated"), reg.enable());
        let gated = match enable {
            Some(en) => d.and(en, fire)?,
            None => fire,
        };
        d.reconnect_reg(*id, next, Some(gated))?;
    }

    // ---- FAME1 gating: memory writes ------------------------------------------
    for (id, _, _, _, _) in &orig_mems {
        let ports: Vec<NodeId> = d
            .memory(*id)
            .write_ports()
            .iter()
            .map(|wp| wp.enable())
            .collect();
        for (pi, en) in ports.into_iter().enumerate() {
            let gated = d.and(en, fire)?;
            d.set_write_port_enable(*id, pi, gated)?;
        }
    }

    // ---- register scan chain ----------------------------------------------------
    // Shadow registers shift toward element 0; scan_out = shadow[0].
    let scan_ctl = d.or(scan_capture, scan_shift)?;
    let mut shadow_regs = Vec::with_capacity(orig_regs.len());
    for (i, _) in orig_regs.iter().enumerate() {
        shadow_regs.push(d.reg(format!("fame/scan/{i}"), w64, 0)?);
    }
    let zero64 = d.constant(0, w64);
    for (i, (reg_id, _, width)) in orig_regs.iter().enumerate() {
        let captured = {
            let q = d.reg_out(*reg_id);
            if width.bits() == 64 {
                q
            } else {
                let pad = d.constant(0, Width::new(64 - width.bits())?);
                d.cat(pad, q)?
            }
        };
        let from_next = if i + 1 < shadow_regs.len() {
            d.reg_out(shadow_regs[i + 1])
        } else {
            zero64
        };
        let next = d.mux(scan_capture, captured, from_next)?;
        d.connect_reg(shadow_regs[i], next, Some(scan_ctl))?;
    }
    let scan_out = if shadow_regs.is_empty() {
        zero64
    } else {
        d.reg_out(shadow_regs[0])
    };
    d.output("fame/scan_out", scan_out)?;

    // ---- memory scan chains ------------------------------------------------------
    let mem_scan_ctl = d.or(mem_scan_en, mem_scan_rst)?;
    let mut mem_scan_meta = Vec::with_capacity(orig_mems.len());
    for (i, (mem_id, name, width, depth, n_read_ports)) in orig_mems.iter().enumerate() {
        let aw = d.memory(*mem_id).addr_width();
        let counter = d.reg(format!("fame/memscan/{i}"), aw, 0)?;
        let cq = d.reg_out(counter);
        let one = d.constant(1, aw);
        let inc = d.add(cq, one)?;
        let zero = d.constant(0, aw);
        let next = d.mux(mem_scan_rst, zero, inc)?;
        d.connect_reg(counter, next, Some(mem_scan_ctl))?;

        let read_node = if *n_read_ports == 0 {
            // Memory with no read port (write-only in the target): add one
            // for the scanner.
            d.mem_read(*mem_id, cq)?
        } else {
            // Borrow read port 0: mux the scanner's address in while the
            // target is stalled (the paper's Block-RAM-friendly approach).
            let old_addr = d.memory(*mem_id).read_ports()[0].addr();
            let muxed = d.mux(mem_scan_en, cq, old_addr)?;
            d.set_read_port_addr(*mem_id, 0, muxed)?;
            // Find the MemRead node of port 0.
            d.nodes()
                .find_map(|(nid, node, _)| match node {
                    Node::MemRead { mem, port } if *mem == *mem_id && *port == 0 => Some(nid),
                    _ => None,
                })
                .expect("port 0 read node exists")
        };
        let out_port = format!("fame/mem_scan_out_{i}");
        d.output(&out_port, read_node)?;
        mem_scan_meta.push(MemScanMeta {
            rtl_name: name.clone(),
            width: width.bits(),
            depth: *depth,
            out_port,
        });
    }

    // ---- I/O trace buffers ----------------------------------------------------------
    // Ring write pointer advances with the target.
    let wptr = d.reg("fame/trace_wptr", traddr_w, 0)?;
    let wq = d.reg_out(wptr);
    let one_a = d.constant(1, traddr_w);
    let winc = d.add(wq, one_a)?;
    d.connect_reg(wptr, winc, Some(fire))?;

    let mut traces_in = Vec::with_capacity(orig_inputs.len());
    for (i, (node, name, width)) in orig_inputs.iter().enumerate() {
        let mem = d.mem(format!("fame/trace/in_{i}"), *width, trace_depth, vec![])?;
        d.mem_write(mem, wq, *node, fire)?;
        let rd = d.mem_read(mem, trace_raddr)?;
        let out_port = format!("fame/trace_in_{i}");
        d.output(&out_port, rd)?;
        traces_in.push(TraceMeta {
            port: name.clone(),
            width: width.bits(),
            out_port,
        });
    }
    let mut traces_out = Vec::with_capacity(orig_outputs.len());
    for (i, (name, node, width)) in orig_outputs.iter().enumerate() {
        let mem = d.mem(format!("fame/trace/out_{i}"), *width, trace_depth, vec![])?;
        d.mem_write(mem, wq, *node, fire)?;
        let rd = d.mem_read(mem, trace_raddr)?;
        let out_port = format!("fame/trace_out_{i}");
        d.output(&out_port, rd)?;
        traces_out.push(TraceMeta {
            port: name.clone(),
            width: width.bits(),
            out_port,
        });
    }

    // ---- target cycle counter ------------------------------------------------------
    let cycle_r = d.reg("fame/cycle_r", w64, 0)?;
    let cq = d.reg_out(cycle_r);
    let one64 = d.constant(1, w64);
    let cinc = d.add(cq, one64)?;
    d.connect_reg(cycle_r, cinc, Some(fire))?;
    d.output("fame/cycle", cq)?;

    d.validate()?;

    let meta = FameMeta {
        target: target.name().to_owned(),
        scan_chain: orig_regs
            .iter()
            .map(|(_, name, width)| ScanElem {
                rtl_name: name.clone(),
                width: width.bits(),
            })
            .collect(),
        mem_scans: mem_scan_meta,
        traces_in,
        traces_out,
        trace_depth,
        replay_length: config.replay_length,
        warmup: config.warmup,
        control: ControlPorts {
            fire: "fame/fire".to_owned(),
            scan_capture: "fame/scan_capture".to_owned(),
            scan_shift: "fame/scan_shift".to_owned(),
            mem_scan_en: "fame/mem_scan_en".to_owned(),
            mem_scan_rst: "fame/mem_scan_rst".to_owned(),
            trace_raddr: "fame/trace_raddr".to_owned(),
            scan_out: "fame/scan_out".to_owned(),
            cycle: "fame/cycle".to_owned(),
        },
        state_bits: target.state_bits(),
    };

    Ok(FameResult { hub: d, meta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_dsl::Ctx;
    use strober_sim::Simulator;

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
    fn hub_validates_and_grows() {
        let target = counter();
        let fame = transform(&target, &FameConfig::default()).unwrap();
        fame.hub.validate().unwrap();
        assert!(fame.hub.register_count() > target.register_count());
        assert_eq!(fame.meta.scan_chain.len(), 1);
        assert_eq!(fame.meta.state_bits, 8);
        assert_eq!(fame.meta.trace_depth, 128);
    }

    #[test]
    fn fire_gates_the_target() {
        let fame = transform(&counter(), &FameConfig::default()).unwrap();
        let mut sim = Simulator::new(&fame.hub).unwrap();
        sim.poke_by_name("en", 1).unwrap();
        sim.poke_by_name("fame/fire", 0).unwrap();
        sim.step_n(10);
        assert_eq!(sim.peek_output("value").unwrap(), 0);
        assert_eq!(sim.peek_output("fame/cycle").unwrap(), 0);
        sim.poke_by_name("fame/fire", 1).unwrap();
        sim.step_n(7);
        assert_eq!(sim.peek_output("value").unwrap(), 7);
        assert_eq!(sim.peek_output("fame/cycle").unwrap(), 7);
        // Stall again: target frozen, host cycles keep passing.
        sim.poke_by_name("fame/fire", 0).unwrap();
        sim.step_n(100);
        assert_eq!(sim.peek_output("value").unwrap(), 7);
    }

    #[test]
    fn scan_chain_reads_registers_without_disturbing_them() {
        let fame = transform(&counter(), &FameConfig::default()).unwrap();
        let mut sim = Simulator::new(&fame.hub).unwrap();
        sim.poke_by_name("en", 1).unwrap();
        sim.poke_by_name("fame/fire", 1).unwrap();
        sim.step_n(42);
        sim.poke_by_name("fame/fire", 0).unwrap();
        // Capture.
        sim.poke_by_name("fame/scan_capture", 1).unwrap();
        sim.step();
        sim.poke_by_name("fame/scan_capture", 0).unwrap();
        assert_eq!(sim.peek_output("fame/scan_out").unwrap(), 42);
        // Shifting out does not disturb the target.
        sim.poke_by_name("fame/scan_shift", 1).unwrap();
        sim.step();
        sim.poke_by_name("fame/scan_shift", 0).unwrap();
        sim.poke_by_name("fame/fire", 1).unwrap();
        sim.step();
        assert_eq!(sim.peek_output("value").unwrap(), 43);
    }

    #[test]
    fn gating_preserves_target_behaviour() {
        // The hub with fire always high must match the bare target.
        let target = counter();
        let fame = transform(&target, &FameConfig::default()).unwrap();
        let mut bare = Simulator::new(&target).unwrap();
        let mut hub = Simulator::new(&fame.hub).unwrap();
        hub.poke_by_name("fame/fire", 1).unwrap();
        for c in 0..200u64 {
            let en = u64::from(c % 3 != 0);
            bare.poke_by_name("en", en).unwrap();
            hub.poke_by_name("en", en).unwrap();
            assert_eq!(
                bare.peek_output("value").unwrap(),
                hub.peek_output("value").unwrap(),
                "diverged at cycle {c}"
            );
            bare.step();
            hub.step();
        }
    }

    #[test]
    fn memory_scan_streams_contents() {
        let ctx = Ctx::new("ram");
        let m = ctx.mem("buf", w(16), 8);
        let addr = ctx.input("addr", w(3));
        let data = ctx.input("data", w(16));
        let we = ctx.input("we", Width::BIT);
        ctx.output("q", &m.read(&addr));
        m.write(&addr, &data, &we);
        let target = ctx.finish().unwrap();
        let fame = transform(&target, &FameConfig::default()).unwrap();
        let mut sim = Simulator::new(&fame.hub).unwrap();

        // Fill the memory with addr*3 while firing.
        sim.poke_by_name("fame/fire", 1).unwrap();
        sim.poke_by_name("we", 1).unwrap();
        for a in 0..8u64 {
            sim.poke_by_name("addr", a).unwrap();
            sim.poke_by_name("data", a * 3).unwrap();
            sim.step();
        }
        // Stall and stream out.
        sim.poke_by_name("fame/fire", 0).unwrap();
        sim.poke_by_name("we", 0).unwrap();
        sim.poke_by_name("fame/mem_scan_rst", 1).unwrap();
        sim.step();
        sim.poke_by_name("fame/mem_scan_rst", 0).unwrap();
        sim.poke_by_name("fame/mem_scan_en", 1).unwrap();
        for a in 0..8u64 {
            assert_eq!(
                sim.peek_output("fame/mem_scan_out_0").unwrap(),
                a * 3,
                "word {a}"
            );
            sim.step();
        }
        sim.poke_by_name("fame/mem_scan_en", 0).unwrap();
        // The borrowed read port returns to the target afterwards.
        sim.poke_by_name("addr", 5).unwrap();
        assert_eq!(sim.peek_output("q").unwrap(), 15);
    }

    #[test]
    fn trace_buffers_record_io() {
        let fame = transform(
            &counter(),
            &FameConfig {
                replay_length: 4,
                warmup: 0,
            },
        )
        .unwrap();
        assert_eq!(fame.meta.trace_depth, 4);
        let mut sim = Simulator::new(&fame.hub).unwrap();
        sim.poke_by_name("fame/fire", 1).unwrap();
        // Cycle t: en = t % 2; value output = count at t.
        for t in 0..4u64 {
            sim.poke_by_name("en", t % 2).unwrap();
            sim.step();
        }
        sim.poke_by_name("fame/fire", 0).unwrap();
        // Entry at index t holds cycle t (wptr started at 0).
        for t in 0..4u64 {
            sim.poke_by_name("fame/trace_raddr", t).unwrap();
            assert_eq!(sim.peek_output("fame/trace_in_0").unwrap(), t % 2);
        }
        // Output trace: count was 0,0,1,1 at cycles 0..4 (en=0 at t=0).
        let expect = [0u64, 0, 1, 1];
        for (t, &e) in expect.iter().enumerate() {
            sim.poke_by_name("fame/trace_raddr", t as u64).unwrap();
            assert_eq!(sim.peek_output("fame/trace_out_0").unwrap(), e, "cycle {t}");
        }
    }

    #[test]
    fn name_collision_with_target_is_an_error() {
        let ctx = Ctx::new("evil");
        let r = ctx.reg("fame/fire", Width::BIT, 0);
        r.set(&r.out());
        ctx.output("o", &r.out());
        let target = ctx.finish().unwrap();
        assert!(transform(&target, &FameConfig::default()).is_err());
    }
}
