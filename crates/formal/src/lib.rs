//! Formal matching between RTL designs and gate-level netlists.
//!
//! This crate stands in for the commercial formal verification tool
//! (Formality) in the Strober replay flow (§IV-C1 of the paper). Synthesis
//! mangles register and net names, so RTL snapshot values cannot be loaded
//! into the netlist by name alone. The paper's flow has the synthesis tool
//! emit matching hints, which the formal tool validates while proving the
//! two designs equivalent; the verified correspondence becomes the name
//! mapping table used by replay.
//!
//! [`match_designs`] does the same:
//!
//! 1. **Structural matching** — every non-retimed RTL register must map to
//!    exactly `width` existing DFF instances, every memory to a macro of
//!    identical geometry, and every RTL port to the same-width netlist
//!    port.
//! 2. **Equivalence checking** — bounded sequential equivalence by random
//!    stimulus from reset, plus (when no registers were retimed) random
//!    *state injection* through the mapping itself: mid-run RTL states are
//!    transferred into the netlist and the designs must remain
//!    cycle-equivalent afterwards. This second check is exactly the
//!    property snapshot replay relies on.
//!
//! The result is a [`NameMap`] that `strober` uses to load RTL snapshots
//! into gate-level simulation.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use strober_gates::Gate;
use strober_gatesim::BatchSim;
use strober_rtl::Design;
use strober_sim::Simulator;
use strober_synth::SynthResult;

/// The verified RTL → netlist name correspondence.
#[derive(
    Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize, serde::Blob,
)]
pub struct NameMap {
    /// RTL register name → DFF instance names, LSB first.
    pub regs: HashMap<String, Vec<String>>,
    /// RTL memory name → SRAM macro instance name.
    pub mems: HashMap<String, String>,
    /// RTL registers whose state cannot be mapped (retimed datapaths);
    /// replay must warm them by forcing recorded I/O (§IV-C3).
    pub retimed: Vec<String>,
}

impl NameMap {
    /// Total number of mapped register bits.
    pub fn mapped_bits(&self) -> usize {
        self.regs.values().map(Vec::len).sum()
    }
}

/// The outcome of a successful match.
#[derive(Debug, Clone)]
pub struct MatchReport {
    /// The verified name mapping.
    pub name_map: NameMap,
    /// Number of registers structurally matched.
    pub matched_regs: usize,
    /// Number of memories structurally matched.
    pub matched_mems: usize,
    /// Cycles of random-stimulus equivalence checking performed.
    pub checked_cycles: u64,
    /// Number of mid-run state injections validated (0 when retiming
    /// prevents exact state transfer).
    pub state_injections: usize,
}

/// Matching/equivalence failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FormalError {
    /// An RTL register has no usable mapping in the synthesis info.
    UnmatchedRegister {
        /// The RTL register's name.
        rtl_name: String,
        /// Why it could not be matched.
        reason: String,
    },
    /// An RTL memory has no usable macro mapping.
    UnmatchedMemory {
        /// The RTL memory's name.
        rtl_name: String,
        /// Why it could not be matched.
        reason: String,
    },
    /// A port exists in one design but not the other (or widths differ).
    PortMismatch {
        /// The port's name.
        name: String,
    },
    /// The designs produced different outputs under identical stimulus.
    NotEquivalent {
        /// The diverging output's name.
        output: String,
        /// The cycle at which divergence was observed.
        cycle: u64,
        /// The RTL value.
        rtl: u64,
        /// The gate-level value.
        gate: u64,
    },
    /// A simulator could not be constructed (invalid design or netlist).
    SimulatorConstruction {
        /// The underlying failure, as text.
        detail: String,
    },
}

impl fmt::Display for FormalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormalError::UnmatchedRegister { rtl_name, reason } => {
                write!(f, "register `{rtl_name}` could not be matched: {reason}")
            }
            FormalError::UnmatchedMemory { rtl_name, reason } => {
                write!(f, "memory `{rtl_name}` could not be matched: {reason}")
            }
            FormalError::PortMismatch { name } => write!(f, "port `{name}` mismatch"),
            FormalError::NotEquivalent {
                output,
                cycle,
                rtl,
                gate,
            } => write!(
                f,
                "designs are not equivalent: output `{output}` at cycle {cycle}: rtl={rtl:#x} gate={gate:#x}"
            ),
            FormalError::SimulatorConstruction { detail } => {
                write!(f, "could not construct simulator: {detail}")
            }
        }
    }
}

impl Error for FormalError {}

/// Options for the equivalence check.
#[derive(Debug, Clone)]
pub struct MatchOptions {
    /// Cycles of random stimulus from reset.
    pub stimulus_cycles: u64,
    /// Number of mid-run state injections to validate (skipped when any
    /// register was retimed).
    pub state_injections: usize,
    /// Cycles simulated after each state injection.
    pub post_injection_cycles: u64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for MatchOptions {
    fn default() -> Self {
        MatchOptions {
            stimulus_cycles: 200,
            state_injections: 3,
            post_injection_cycles: 50,
            seed: 0x5743_0BE7,
        }
    }
}

/// Matches an RTL design against its synthesized netlist and verifies
/// equivalence.
///
/// # Errors
///
/// Returns a [`FormalError`] describing the first structural mismatch or
/// behavioural divergence found.
pub fn match_designs(
    design: &Design,
    synth: &SynthResult,
    options: &MatchOptions,
) -> Result<MatchReport, FormalError> {
    let _span = strober_probe::span("strober.formal.match");
    let netlist = &synth.netlist;

    // ---- structural matching ------------------------------------------------
    let dff_names: HashSet<&str> = netlist
        .gates()
        .iter()
        .filter_map(|g| match g {
            Gate::Dff { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();

    let mut name_map = NameMap {
        retimed: synth.info.retimed_regs.clone(),
        ..NameMap::default()
    };
    let mut matched_regs = 0;
    for (_, reg) in design.registers() {
        if synth.info.is_retimed(reg.name()) {
            continue;
        }
        let mapped =
            synth
                .info
                .reg_map
                .get(reg.name())
                .ok_or_else(|| FormalError::UnmatchedRegister {
                    rtl_name: reg.name().to_owned(),
                    reason: "no entry in synthesis info".to_owned(),
                })?;
        if mapped.len() != reg.width().bits() as usize {
            return Err(FormalError::UnmatchedRegister {
                rtl_name: reg.name().to_owned(),
                reason: format!(
                    "expected {} bit instances, got {}",
                    reg.width().bits(),
                    mapped.len()
                ),
            });
        }
        for dff in mapped {
            if !dff_names.contains(dff.as_str()) {
                return Err(FormalError::UnmatchedRegister {
                    rtl_name: reg.name().to_owned(),
                    reason: format!("instance `{dff}` not present in netlist"),
                });
            }
        }
        name_map.regs.insert(reg.name().to_owned(), mapped.clone());
        matched_regs += 1;
    }

    let mut matched_mems = 0;
    for (_, mem) in design.memories() {
        let macro_name =
            synth
                .info
                .mem_map
                .get(mem.name())
                .ok_or_else(|| FormalError::UnmatchedMemory {
                    rtl_name: mem.name().to_owned(),
                    reason: "no entry in synthesis info".to_owned(),
                })?;
        let sram = netlist
            .srams()
            .iter()
            .find(|s| &s.name == macro_name)
            .ok_or_else(|| FormalError::UnmatchedMemory {
                rtl_name: mem.name().to_owned(),
                reason: format!("macro `{macro_name}` not present in netlist"),
            })?;
        if sram.width != mem.width().bits() || sram.depth != mem.depth() {
            return Err(FormalError::UnmatchedMemory {
                rtl_name: mem.name().to_owned(),
                reason: format!(
                    "geometry mismatch: {}x{} vs {}x{}",
                    mem.depth(),
                    mem.width().bits(),
                    sram.depth,
                    sram.width
                ),
            });
        }
        name_map
            .mems
            .insert(mem.name().to_owned(), macro_name.clone());
        matched_mems += 1;
    }

    // Port check: every RTL port must appear with the same bit count.
    let mut gate_port_bits: HashMap<&str, u32> = HashMap::new();
    for (name, _) in netlist.inputs() {
        let base = name.rfind('[').map(|i| &name[..i]).unwrap_or(name.as_str());
        *gate_port_bits.entry(base).or_insert(0) += 1;
    }
    for p in design.ports() {
        if gate_port_bits.get(p.name()).copied() != Some(p.width().bits()) {
            return Err(FormalError::PortMismatch {
                name: p.name().to_owned(),
            });
        }
    }

    // ---- behavioural equivalence ---------------------------------------------
    let mut rtl = Simulator::new(design).map_err(|e| FormalError::SimulatorConstruction {
        detail: e.to_string(),
    })?;
    let mut gate =
        BatchSim::with_lanes(netlist, 1).map_err(|e| FormalError::SimulatorConstruction {
            detail: e.to_string(),
        })?;

    let mut rng = StdRng::seed_from_u64(options.seed);
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let outputs: Vec<String> = design.outputs().iter().map(|(n, _)| n.clone()).collect();

    let compare =
        |rtl: &mut Simulator, gate: &mut BatchSim, cycle: u64| -> Result<(), FormalError> {
            for out in &outputs {
                let r = rtl.peek_output(out).expect("validated output");
                let g = gate.peek_port_lane(out, 0).expect("validated output");
                if r != g {
                    return Err(FormalError::NotEquivalent {
                        output: out.clone(),
                        cycle,
                        rtl: r,
                        gate: g,
                    });
                }
            }
            Ok(())
        };

    let mut checked_cycles = 0;
    for cycle in 0..options.stimulus_cycles {
        for (name, mask) in &ports {
            let v = rng.gen::<u64>() & mask;
            rtl.poke_by_name(name, v).expect("validated port");
            gate.poke_port_broadcast(name, v).expect("validated port");
        }
        compare(&mut rtl, &mut gate, cycle)?;
        rtl.step();
        gate.step();
        checked_cycles += 1;
    }

    // ---- state-injection validation --------------------------------------------
    let mut injections = 0;
    if name_map.retimed.is_empty() {
        for round in 0..options.state_injections {
            // Scramble the RTL state randomly, push it through the map,
            // and require continued equivalence.
            let reg_ids: Vec<_> = design
                .registers()
                .map(|(id, r)| (id, r.width().mask(), r.name().to_owned()))
                .collect();
            for (id, mask, name) in &reg_ids {
                let v = rng.gen::<u64>() & mask;
                rtl.set_reg_value(*id, v);
                for (i, dff) in name_map.regs[name].iter().enumerate() {
                    gate.set_dff_lane(dff, 0, (v >> i) & 1 == 1)
                        .expect("matched dff");
                }
            }
            let mem_ids: Vec<_> = design
                .memories()
                .map(|(id, m)| (id, m.width().mask(), m.depth(), m.name().to_owned()))
                .collect();
            for (id, mask, depth, name) in &mem_ids {
                let macro_name = &name_map.mems[name];
                for addr in 0..*depth {
                    let v = rng.gen::<u64>() & mask;
                    rtl.set_mem_value(*id, addr, v);
                    gate.set_sram_word_lane(macro_name, 0, addr, v)
                        .expect("matched macro");
                }
            }
            for cycle in 0..options.post_injection_cycles {
                for (name, mask) in &ports {
                    let v = rng.gen::<u64>() & mask;
                    rtl.poke_by_name(name, v).expect("validated port");
                    gate.poke_port_broadcast(name, v).expect("validated port");
                }
                compare(&mut rtl, &mut gate, cycle)?;
                rtl.step();
                gate.step();
                checked_cycles += 1;
            }
            injections = round + 1;
        }
    }

    Ok(MatchReport {
        name_map,
        matched_regs,
        matched_mems,
        checked_cycles,
        state_injections: injections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_dsl::Ctx;
    use strober_rtl::Width;
    use strober_synth::{synthesize, SynthOptions};

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    fn build() -> (Design, SynthResult) {
        let ctx = Ctx::new("dut");
        let en = ctx.input("en", Width::BIT);
        let r = ctx.scope("core", |c| c.reg("acc", w(16), 0));
        let m = ctx.scope("core", |c| c.mem("scratch", w(16), 16));
        let addr = r.out().bits(3, 0);
        let rd = m.read(&addr);
        r.set_en(&(&r.out() + &rd).add_lit(1), &en);
        m.write(&addr, &r.out(), &en);
        ctx.output("acc", &r.out());
        let design = ctx.finish().unwrap();
        let synth = synthesize(&design, &SynthOptions::default()).unwrap();
        (design, synth)
    }

    #[test]
    fn matching_succeeds_on_honest_synthesis() {
        let (design, synth) = build();
        let report = match_designs(&design, &synth, &MatchOptions::default()).unwrap();
        assert_eq!(report.matched_regs, 1);
        assert_eq!(report.matched_mems, 1);
        assert!(report.checked_cycles > 200);
        assert_eq!(report.state_injections, 3);
        assert_eq!(report.name_map.mapped_bits(), 16);
    }

    #[test]
    fn corrupted_reg_map_detected() {
        let (design, mut synth) = build();
        synth.info.reg_map.get_mut("core/acc").unwrap().pop();
        let err = match_designs(&design, &synth, &MatchOptions::default()).unwrap_err();
        assert!(matches!(err, FormalError::UnmatchedRegister { .. }));
    }

    #[test]
    fn missing_dff_instance_detected() {
        let (design, mut synth) = build();
        synth.info.reg_map.get_mut("core/acc").unwrap()[0] = "bogus".to_owned();
        let err = match_designs(&design, &synth, &MatchOptions::default()).unwrap_err();
        assert!(matches!(err, FormalError::UnmatchedRegister { .. }));
    }

    #[test]
    fn missing_mem_map_detected() {
        let (design, mut synth) = build();
        synth.info.mem_map.clear();
        let err = match_designs(&design, &synth, &MatchOptions::default()).unwrap_err();
        assert!(matches!(err, FormalError::UnmatchedMemory { .. }));
    }

    #[test]
    fn swapped_bit_mapping_caught_by_state_injection() {
        let (design, mut synth) = build();
        // Reverse the bit order: structurally fine, behaviourally wrong
        // for any non-palindromic injected value.
        let map = synth.info.reg_map.get_mut("core/acc").unwrap();
        map.reverse();
        let err = match_designs(&design, &synth, &MatchOptions::default()).unwrap_err();
        assert!(
            matches!(err, FormalError::NotEquivalent { .. }),
            "expected NotEquivalent, got {err:?}"
        );
    }

    #[test]
    fn retimed_designs_match_without_state_injection() {
        let ctx = Ctx::new("dut");
        let a = ctx.input("a", w(8));
        let s1 = ctx.scope("fpu", |c| c.reg("s1", w(8), 0));
        let s2 = ctx.scope("fpu", |c| c.reg("s2", w(8), 0));
        s1.set(&a.add_lit(3));
        s2.set(&s1.out().add_lit(5));
        ctx.output("o", &s2.out());
        let design = ctx.finish().unwrap();
        let synth = synthesize(
            &design,
            &SynthOptions {
                retime_prefixes: vec!["fpu/".to_owned()],
                ..SynthOptions::default()
            },
        )
        .unwrap();
        let report = match_designs(&design, &synth, &MatchOptions::default()).unwrap();
        assert_eq!(report.state_injections, 0);
        assert_eq!(report.name_map.retimed.len(), 2);
        // Random-stimulus equivalence still ran from reset.
        assert_eq!(
            report.checked_cycles,
            MatchOptions::default().stimulus_cycles
        );
    }
}
