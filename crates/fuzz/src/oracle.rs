//! The N-way oracle matrix.
//!
//! One genome is run through every semantically-equivalent execution
//! path in the workspace and all of them must agree:
//!
//! | oracle      | engine                                   | compared against |
//! |-------------|------------------------------------------|------------------|
//! | `naive`     | tree-walking interpreter                 | (reference)      |
//! | `tape`      | compiled op-tape, optimizing compiler    | `naive`          |
//! | `tape-jit`  | rustc-compiled native settle + register capture dylib | `naive` |
//! | `tape-run`  | the guarded run loop (`Simulator::run_guarded`), interpreted and native, with a random guard and budgets | per-cycle `step` on the same engine |
//! | `fame`      | FAME1 hub with `fire` held high          | `naive`          |
//! | `naive-gate` | netlist evaluated gate by gate (`NaiveGateSim`) | `naive` |
//! | `batch@L`   | L-lane bit-parallel gate-level sim       | `naive-gate`     |
//! | `flow`      | sample → snapshot → replay round trip at 1, 7 and 64 lanes | [`reference_replay`] on `naive-gate` |
//! | `capture-direct` | snapshots read out of hub simulator storage | `capture-scan` (shifted through the scan chains) |
//!
//! Agreement covers per-cycle outputs, final architectural state, toggle
//! counts per energy class, power totals, and — for the two capture paths —
//! snapshots and platform statistics: the quantities Strober's energy
//! numbers are built from. The optional [`InjectedBug`] mutates the
//! synthesized netlist the way a buggy gate lowering would, letting the
//! corpus tests prove the harness catches (and the shrinker minimizes)
//! real divergences.

use crate::genome::{stimulus, Genome};
use rand::{rngs::StdRng, Rng, SeedableRng};
use strober::{HubEngine, ReplayResult, StroberConfig, StroberError, StroberFlow};
use strober_fame::{transform, FameConfig, FameSnapshot};
use strober_gates::{CellKind, CellLibrary, Gate, Netlist};
use strober_gatesim::{ActivityReport, BatchSim, NaiveGateSim};
use strober_platform::{HostModel, OutputView, PlatformConfig, TargetInput, ZynqHost};
use strober_power::PowerAnalyzer;
use strober_sim::{Guard, NaiveInterpreter, Simulator};
use strober_synth::{synthesize, SynthOptions};

/// A deliberately-introduced netlist bug, applied after synthesis to
/// model a broken gate lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum InjectedBug {
    /// Every 2-input XOR cell is replaced by an OR cell — wrong only
    /// when both inputs are high, so it survives sparse stimulus and
    /// exercises the shrinker on a realistic miscompile.
    XorAsOr,
}

/// What to run and how.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OracleConfig {
    /// Batch lane counts to cross-check against the naive gate engine.
    pub lanes: Vec<usize>,
    /// Whether to run the full `StroberFlow` round trip (skipped
    /// automatically for designs with no I/O and for injected-bug runs).
    pub flow: bool,
    /// The netlist mutation to apply, if any.
    pub inject: Option<InjectedBug>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            lanes: vec![1, 7, 63, 64],
            flow: true,
            inject: None,
        }
    }
}

/// A disagreement between two oracles (or a hard failure inside one).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Divergence {
    /// An output value differed from the reference at some cycle.
    Output {
        /// The oracle that produced the wrong value.
        oracle: String,
        /// The oracle that produced the reference value.
        reference: String,
        /// Output port name.
        output: String,
        /// Cycle at which the values differed.
        cycle: u64,
        /// Batch lane (0 for scalar oracles).
        lane: usize,
        /// Reference value.
        expected: u64,
        /// Observed value.
        got: u64,
    },
    /// Final architectural state differed.
    State {
        /// The oracle with the wrong state.
        oracle: String,
        /// The reference oracle.
        reference: String,
        /// Human-readable difference.
        detail: String,
    },
    /// Gate-level toggle counts differed between lanes/engines.
    Toggles {
        /// The oracle with the wrong count.
        oracle: String,
        /// The reference oracle.
        reference: String,
        /// Batch lane.
        lane: usize,
        /// Reference total toggle count.
        expected: u64,
        /// Observed total toggle count.
        got: u64,
    },
    /// Power totals differed between lanes/engines.
    Power {
        /// The oracle with the wrong total.
        oracle: String,
        /// The reference oracle.
        reference: String,
        /// Batch lane.
        lane: usize,
        /// Reference total power, mW.
        expected_mw: f64,
        /// Observed total power, mW.
        got_mw: f64,
    },
    /// The sample→snapshot→replay round trip disagreed with the
    /// reference replay (or a capture path with the other).
    Flow {
        /// Human-readable difference.
        detail: String,
    },
    /// An oracle failed outright (build, synthesis, or replay error).
    Error {
        /// The failing oracle.
        oracle: String,
        /// The error text.
        detail: String,
    },
}

impl Divergence {
    /// A stable label for the divergence's kind — the shrinker requires
    /// the kind (and oracle) to stay fixed while it minimizes.
    pub fn kind(&self) -> &'static str {
        match self {
            Divergence::Output { .. } => "output",
            Divergence::State { .. } => "state",
            Divergence::Toggles { .. } => "toggles",
            Divergence::Power { .. } => "power",
            Divergence::Flow { .. } => "flow",
            Divergence::Error { .. } => "error",
        }
    }

    /// The oracle the divergence was observed in.
    pub fn oracle(&self) -> &str {
        match self {
            Divergence::Output { oracle, .. }
            | Divergence::State { oracle, .. }
            | Divergence::Toggles { oracle, .. }
            | Divergence::Power { oracle, .. }
            | Divergence::Error { oracle, .. } => oracle,
            Divergence::Flow { .. } => "flow",
        }
    }

    /// Whether `other` is "the same bug" for shrinking purposes: same
    /// kind, observed in the same oracle.
    pub fn same_bug(&self, other: &Divergence) -> bool {
        self.kind() == other.kind() && self.oracle() == other.oracle()
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Output {
                oracle,
                reference,
                output,
                cycle,
                lane,
                expected,
                got,
            } => write!(
                f,
                "{oracle} vs {reference}: output `{output}` lane {lane} cycle {cycle}: expected {expected:#x}, got {got:#x}"
            ),
            Divergence::State {
                oracle,
                reference,
                detail,
            } => write!(f, "{oracle} vs {reference}: state diverged: {detail}"),
            Divergence::Toggles {
                oracle,
                reference,
                lane,
                expected,
                got,
            } => write!(
                f,
                "{oracle} vs {reference}: toggle count lane {lane}: expected {expected}, got {got}"
            ),
            Divergence::Power {
                oracle,
                reference,
                lane,
                expected_mw,
                got_mw,
            } => write!(
                f,
                "{oracle} vs {reference}: power lane {lane}: expected {expected_mw} mW, got {got_mw} mW"
            ),
            Divergence::Flow { detail } => write!(f, "flow round trip: {detail}"),
            Divergence::Error { oracle, detail } => write!(f, "{oracle} failed: {detail}"),
        }
    }
}

/// Rebuilds a netlist with the given bug applied.
pub fn inject_bug(netlist: &Netlist, bug: InjectedBug) -> Netlist {
    let mut out = Netlist::new(netlist.name().to_owned());
    for i in 0..netlist.net_count() {
        out.add_net(
            netlist
                .net_name(strober_gates::NetId::from_index(i))
                .to_owned(),
        );
    }
    for region in netlist.regions() {
        out.intern_region(region);
    }
    for (name, net) in netlist.inputs() {
        out.add_input(name.clone(), *net);
    }
    for (name, net) in netlist.outputs() {
        out.add_output(name.clone(), *net);
    }
    for gate in netlist.gates() {
        match gate {
            Gate::Comb {
                kind,
                inputs,
                output,
                region,
            } => {
                let kind = match bug {
                    InjectedBug::XorAsOr if *kind == CellKind::Xor2 => CellKind::Or2,
                    _ => *kind,
                };
                out.add_gate(kind, inputs.clone(), *output, *region);
            }
            Gate::Dff {
                name,
                d,
                q,
                init,
                region,
            } => {
                out.add_dff(name.clone(), *d, *q, *init, *region);
            }
        }
    }
    for sram in netlist.srams() {
        out.add_sram(sram.clone());
    }
    out
}

/// The stimulus stream a lane replays: even lanes drive stream A, odd
/// lanes stream B, so cross-lane bleed in the bit-parallel engine cannot
/// cancel out.
fn lane_stream(genome: &Genome, lane: usize) -> u64 {
    if lane.is_multiple_of(2) {
        genome.stim_seed
    } else {
        genome.stim_seed ^ 0xB00B_5EED_0DD5_EED5
    }
}

struct RtlRun {
    /// `outputs_trace[cycle][output_idx]`.
    outputs_trace: Vec<Vec<u64>>,
    state: strober_sim::SimState,
}

/// Drives a scalar RTL engine with one stimulus stream, recording every
/// output every cycle and the final architectural state.
#[allow(clippy::too_many_arguments)]
fn run_rtl<E>(
    engine: &mut E,
    ports: &[(String, u64)],
    outputs: &[String],
    stream: u64,
    cycles: u32,
    poke: impl Fn(&mut E, &str, u64) -> Result<(), String>,
    peek: impl Fn(&mut E, &str) -> Result<u64, String>,
    step: impl Fn(&mut E),
    state: impl Fn(&E) -> strober_sim::SimState,
) -> Result<RtlRun, String> {
    let mut outputs_trace = Vec::with_capacity(cycles as usize);
    for cycle in 0..u64::from(cycles) {
        for (i, (name, mask)) in ports.iter().enumerate() {
            poke(engine, name, stimulus(stream, i, cycle) & mask)?;
        }
        let mut row = Vec::with_capacity(outputs.len());
        for out in outputs {
            row.push(peek(engine, out)?);
        }
        outputs_trace.push(row);
        step(engine);
    }
    Ok(RtlRun {
        outputs_trace,
        state: state(engine),
    })
}

/// Logs — once per process — that the `tape-jit` oracle lane is being
/// skipped for lack of a `rustc` on PATH, so campaign logs record why
/// the matrix is one lane short rather than silently narrowing.
fn jit_lane_skip_notice() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        strober_probe::warn!("no rustc on PATH; skipping the tape-jit oracle lane");
    });
}

/// Runs the full oracle matrix on one genome.
///
/// `Ok(())` means every oracle agreed on every compared quantity;
/// `Err(d)` reports the first divergence found.
pub fn check(genome: &Genome, cfg: &OracleConfig) -> Result<(), Divergence> {
    let design = genome.build();
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let outputs: Vec<String> = design.outputs().iter().map(|(n, _)| n.clone()).collect();
    let cycles = genome.cycles;
    let err = |oracle: &str, detail: String| Divergence::Error {
        oracle: oracle.to_owned(),
        detail,
    };

    // --- Reference: naive tree-walking interpreter, both streams. ---
    let mut refs = Vec::new();
    for stream_lane in 0..2usize {
        let stream = lane_stream(genome, stream_lane);
        let mut naive = NaiveInterpreter::new(&design).map_err(|e| err("naive", e.to_string()))?;
        let run = run_rtl(
            &mut naive,
            &ports,
            &outputs,
            stream,
            cycles,
            |e, n, v| e.poke_by_name(n, v).map_err(|e| e.to_string()),
            |e, n| e.peek_output(n).map_err(|e| e.to_string()),
            |e| e.step(),
            |e| e.state(),
        )
        .map_err(|d| err("naive", d))?;
        refs.push(run);
    }

    // --- Oracle: optimized, interpreted tape simulator, both streams.
    // Every fuzz seed is a differential test of the optimizer passes
    // against the tree-walking reference.
    let oracle = "tape";
    for (stream_lane, reference) in refs.iter().enumerate() {
        let stream = lane_stream(genome, stream_lane);
        let mut tape = Simulator::new(&design).map_err(|e| err(oracle, e.to_string()))?;
        let run = run_rtl(
            &mut tape,
            &ports,
            &outputs,
            stream,
            cycles,
            |e, n, v| e.poke_by_name(n, v).map_err(|e| e.to_string()),
            |e, n| e.peek_output(n).map_err(|e| e.to_string()),
            |e| e.step(),
            |e| e.state(),
        )
        .map_err(|d| err(oracle, d))?;
        compare_rtl(oracle, &run, reference, &outputs)?;
    }

    // --- Oracle: JIT-compiled native settle code, both streams. The
    // optimized op tape is lowered to Rust, compiled into a dylib and
    // attached as the settle engine, so every fuzz seed differentially
    // tests the codegen (and the dylib loader) against the tree-walking
    // reference. Skipped — with one logged notice per process — when no
    // rustc is on PATH to compile the dylib; the cross-seed file cache
    // makes the second stream's attach a warm hit.
    if strober_jit::rustc_version().is_some() {
        let oracle = "tape-jit";
        let compiler = strober_jit::JitCompiler::in_temp();
        for (stream_lane, reference) in refs.iter().enumerate() {
            let stream = lane_stream(genome, stream_lane);
            let mut tape = Simulator::new(&design).map_err(|e| err(oracle, e.to_string()))?;
            compiler
                .attach(&mut tape)
                .map_err(|e| err(oracle, e.to_string()))?;
            let run = run_rtl(
                &mut tape,
                &ports,
                &outputs,
                stream,
                cycles,
                |e, n, v| e.poke_by_name(n, v).map_err(|e| e.to_string()),
                |e, n| e.peek_output(n).map_err(|e| e.to_string()),
                |e| e.step(),
                |e| e.state(),
            )
            .map_err(|d| err(oracle, d))?;
            compare_rtl(oracle, &run, reference, &outputs)?;
        }
    } else {
        jit_lane_skip_notice();
    }

    check_run_loop(genome, &design, &ports, &outputs)?;

    // --- Oracle: FAME1 hub with fire held high, and the free-run hub
    // production sessions simulate, with fire and every readout control
    // tied off (stream A only). ---
    let fame =
        transform(&design, &FameConfig::default()).map_err(|e| err("fame", e.to_string()))?;
    let free_run = fame
        .free_run()
        .map_err(|e| err("fame-free-run", e.to_string()))?;
    for (oracle, hub_design) in [("fame", &fame.hub), ("fame-free-run", &free_run)] {
        let mut hub = Simulator::new(hub_design).map_err(|e| err(oracle, e.to_string()))?;
        if oracle == "fame" {
            hub.poke_by_name("fame/fire", 1)
                .map_err(|e| err(oracle, e.to_string()))?;
        }
        let stream = lane_stream(genome, 0);
        for cycle in 0..u64::from(cycles) {
            for (i, (name, mask)) in ports.iter().enumerate() {
                hub.poke_by_name(name, stimulus(stream, i, cycle) & mask)
                    .map_err(|e| err(oracle, e.to_string()))?;
            }
            for (oi, out) in outputs.iter().enumerate() {
                let got = hub
                    .peek_output(out)
                    .map_err(|e| err(oracle, e.to_string()))?;
                let expected = refs[0].outputs_trace[cycle as usize][oi];
                if got != expected {
                    return Err(Divergence::Output {
                        oracle: oracle.to_owned(),
                        reference: "naive".to_owned(),
                        output: out.clone(),
                        cycle,
                        lane: 0,
                        expected,
                        got,
                    });
                }
            }
            hub.step();
        }
        let hub_cycle = hub
            .peek_output("fame/cycle")
            .map_err(|e| err(oracle, e.to_string()))?;
        if hub_cycle != u64::from(cycles) {
            return Err(Divergence::State {
                oracle: oracle.to_owned(),
                reference: "naive".to_owned(),
                detail: format!("hub fired {cycles} cycles but fame/cycle reads {hub_cycle}"),
            });
        }
    }

    // --- Oracle: direct snapshot capture against the shifted reference. ---
    check_capture(genome, &design, &ports)?;

    // --- Synthesize (optionally with the injected bug). ---
    let synth =
        synthesize(&design, &SynthOptions::default()).map_err(|e| err("synth", e.to_string()))?;
    let netlist = match cfg.inject {
        Some(bug) => inject_bug(&synth.netlist, bug),
        None => synth.netlist.clone(),
    };
    let lib = CellLibrary::generic_45nm();
    let analyzer = PowerAnalyzer::new(&netlist, &lib, 1.0e9);

    // --- Oracle: the naive gate-level engine, both streams. ---
    let oracle = "naive-gate";
    let mut gate_runs: Vec<(RtlRunGate, ActivityReport)> = Vec::new();
    for (stream_lane, reference) in refs.iter().enumerate() {
        let stream = lane_stream(genome, stream_lane);
        let mut gate = NaiveGateSim::new(&netlist).map_err(|e| err(oracle, e.to_string()))?;
        let mut outputs_trace = Vec::with_capacity(cycles as usize);
        for cycle in 0..u64::from(cycles) {
            for (i, (name, mask)) in ports.iter().enumerate() {
                gate.poke_port(name, stimulus(stream, i, cycle) & mask)
                    .map_err(|e| err(oracle, e.to_string()))?;
            }
            let mut row = Vec::with_capacity(outputs.len());
            for (oi, out) in outputs.iter().enumerate() {
                let got = gate
                    .peek_port(out)
                    .map_err(|e| err(oracle, e.to_string()))?;
                let expected = reference.outputs_trace[cycle as usize][oi];
                if got != expected {
                    return Err(Divergence::Output {
                        oracle: oracle.to_owned(),
                        reference: "naive".to_owned(),
                        output: out.clone(),
                        cycle,
                        lane: stream_lane,
                        expected,
                        got,
                    });
                }
                row.push(got);
            }
            outputs_trace.push(row);
            gate.step();
        }
        let activity = gate.activity();
        gate_runs.push((RtlRunGate { outputs_trace }, activity));
    }

    // --- Oracle: bit-parallel batch sim at each lane count. ---
    for &lanes in &cfg.lanes {
        let mut batch =
            BatchSim::with_lanes(&netlist, lanes).map_err(|e| err("batch", e.to_string()))?;
        let oracle = format!("batch@{lanes}");
        let mut values = vec![0u64; lanes];
        for cycle in 0..u64::from(cycles) {
            for (i, (name, mask)) in ports.iter().enumerate() {
                for (lane, v) in values.iter_mut().enumerate() {
                    *v = stimulus(lane_stream(genome, lane), i, cycle) & mask;
                }
                batch
                    .poke_port_lanes(name, &values)
                    .map_err(|e| err(&oracle, e.to_string()))?;
            }
            for (oi, out) in outputs.iter().enumerate() {
                batch
                    .peek_port_lanes_into(out, &mut values)
                    .map_err(|e| err(&oracle, e.to_string()))?;
                for (lane, &got) in values.iter().enumerate() {
                    let expected = gate_runs[lane % 2].0.outputs_trace[cycle as usize][oi];
                    if got != expected {
                        return Err(Divergence::Output {
                            oracle: oracle.clone(),
                            reference: "naive-gate".to_owned(),
                            output: out.clone(),
                            cycle,
                            lane,
                            expected,
                            got,
                        });
                    }
                }
            }
            batch.step();
        }
        for lane in 0..lanes {
            let activity = batch
                .activity_lane(lane)
                .map_err(|e| err(&oracle, e.to_string()))?;
            let reference = &gate_runs[lane % 2].1;
            if activity != *reference {
                return Err(Divergence::Toggles {
                    oracle: oracle.clone(),
                    reference: "naive-gate".to_owned(),
                    lane,
                    expected: reference.total_toggles(),
                    got: activity.total_toggles(),
                });
            }
            if cycles > 0 {
                let got = analyzer.analyze(&activity);
                let expected = analyzer.analyze(reference);
                if got != expected {
                    return Err(Divergence::Power {
                        oracle: oracle.clone(),
                        reference: "naive-gate".to_owned(),
                        lane,
                        expected_mw: expected.total_mw(),
                        got_mw: got.total_mw(),
                    });
                }
            }
        }
    }

    // --- Oracle: full sample → snapshot → replay round trip. ---
    // Needs real I/O traffic (an empty trace window would make the power
    // model divide by zero cycles) and an unmutated netlist.
    if cfg.flow && cfg.inject.is_none() && !ports.is_empty() && !outputs.is_empty() {
        check_flow(genome, &design, &ports)?;
    }

    Ok(())
}

struct RtlRunGate {
    outputs_trace: Vec<Vec<u64>>,
}

fn compare_rtl(
    oracle: &str,
    run: &RtlRun,
    reference: &RtlRun,
    outputs: &[String],
) -> Result<(), Divergence> {
    for (cycle, (row, ref_row)) in run
        .outputs_trace
        .iter()
        .zip(&reference.outputs_trace)
        .enumerate()
    {
        for (oi, (&got, &expected)) in row.iter().zip(ref_row).enumerate() {
            if got != expected {
                return Err(Divergence::Output {
                    oracle: oracle.to_owned(),
                    reference: "naive".to_owned(),
                    output: outputs[oi].clone(),
                    cycle: cycle as u64,
                    lane: 0,
                    expected,
                    got,
                });
            }
        }
    }
    if run.state != reference.state {
        return Err(Divergence::State {
            oracle: oracle.to_owned(),
            reference: "naive".to_owned(),
            detail: format!(
                "regs {:x?} vs {:x?}; mems differ: {}",
                run.state.regs,
                reference.state.regs,
                run.state.mems != reference.state.mems
            ),
        });
    }
    Ok(())
}

/// `tape-run`: the guarded run loop against per-cycle stepping, on the
/// interpreted tape and, with a `rustc`, on native code. A genome-seeded
/// draw picks one output and mask as the guard; each segment drives fresh
/// stimulus and runs a random budget (0 included). After every loop exit
/// the cycles clocked, the state and every output must equal what
/// stepping cycle by cycle, checking the guard before each step, left.
fn check_run_loop(
    genome: &Genome,
    design: &strober_rtl::Design,
    ports: &[(String, u64)],
    outputs: &[String],
) -> Result<(), Divergence> {
    let oracle = "tape-run";
    let err = |detail: String| Divergence::Error {
        oracle: oracle.to_owned(),
        detail,
    };
    let interp = Simulator::new(design).map_err(|e| err(e.to_string()))?;
    let mut engines = vec![interp.clone()];
    if strober_jit::rustc_version().is_some() {
        let mut native = interp;
        strober_jit::JitCompiler::in_temp()
            .attach(&mut native)
            .map_err(|e| err(e.to_string()))?;
        engines.push(native);
    }
    let mut rng = StdRng::seed_from_u64(genome.stim_seed ^ 0x7A9E_5EED_0F4A_1100);
    let Some(watched) = outputs.get(rng.gen_range(0..outputs.len().max(1))) else {
        return Ok(());
    };
    let node = engines[0]
        .resolve_output(watched)
        .map_err(|e| err(e.to_string()))?;
    let width = design.width(node).mask();
    // Half the guards watch one bit, half a random set of them.
    let mask = match rng.gen_range(0..2) {
        0 => 1u64 << rng.gen_range(0..width.count_ones()),
        _ => (rng.gen::<u64>() & width).max(1),
    };
    let budgets: Vec<u64> = (0..u64::from(genome.cycles))
        .map(|_| rng.gen_range(0..=24))
        .collect();
    let stream = lane_stream(genome, 0);
    for mut sim in engines {
        let guard = [Guard::new(sim.output_slot(node).expect("an output"), mask)];
        let mut reference = sim.clone();
        let (mut cycle, mut segment) = (0u64, 0usize);
        while cycle < u64::from(genome.cycles) {
            for (i, (name, port_mask)) in ports.iter().enumerate() {
                let value = stimulus(stream, i, segment as u64) & port_mask;
                sim.poke_by_name(name, value)
                    .and_then(|()| reference.poke_by_name(name, value))
                    .map_err(|e| err(e.to_string()))?;
            }
            let budget = budgets[segment];
            let ran = sim.run_guarded(&guard, budget);
            let mut stepped = 0;
            while stepped < budget && reference.peek(node) & mask == 0 {
                reference.step();
                stepped += 1;
            }
            let label = sim.active_engine_name();
            if ran != stepped || sim.state() != reference.state() {
                return Err(Divergence::State {
                    oracle: oracle.to_owned(),
                    reference: "step".to_owned(),
                    detail: format!(
                        "{label}, segment {segment} (budget {budget}, guard `{watched}` & {mask:#x}): \
                         the loop clocked {ran} cycles to cycle {}, stepping {stepped} to cycle {}",
                        sim.cycle(),
                        reference.cycle()
                    ),
                });
            }
            for out in outputs {
                let (got, expected) = match (sim.peek_output(out), reference.peek_output(out)) {
                    (Ok(got), Ok(expected)) => (got, expected),
                    (Err(e), _) | (_, Err(e)) => return Err(err(e.to_string())),
                };
                if got != expected {
                    return Err(Divergence::Output {
                        oracle: oracle.to_owned(),
                        reference: "step".to_owned(),
                        output: out.clone(),
                        cycle: sim.cycle(),
                        lane: 0,
                        expected,
                        got,
                    });
                }
            }
            // A guard that fired on the budget's first cycle clocked
            // nothing: step over that cycle as the host would tick it.
            if ran == 0 {
                sim.step();
                reference.step();
            }
            cycle = sim.cycle();
            segment += 1;
        }
    }
    Ok(())
}

/// The host model that drives the flow oracle: replays the genome's
/// deterministic stimulus into the FAME1 hub.
#[derive(Debug)]
struct StimDriver {
    inputs: Vec<String>,
    masks: Vec<u64>,
    stream: u64,
    handles: Option<Vec<TargetInput>>,
}

impl HostModel for StimDriver {
    fn tick(&mut self, c: u64, io: &mut OutputView<'_>) {
        let inputs = &self.inputs;
        let handles = self
            .handles
            .get_or_insert_with(|| inputs.iter().map(|n| io.input(n)).collect());
        for (i, &h) in handles.iter().enumerate() {
            io.write(h, stimulus(self.stream, i, c) & self.masks[i]);
        }
    }
}

impl StimDriver {
    fn new(genome: &Genome, ports: &[(String, u64)]) -> Self {
        StimDriver {
            inputs: ports.iter().map(|(n, _)| n.clone()).collect(),
            masks: ports.iter().map(|(_, m)| *m).collect(),
            stream: lane_stream(genome, 0),
            handles: None,
        }
    }
}

/// `capture-direct` vs `capture-scan`: two host sessions over one FAME
/// transform, fed the same stimulus, capture at the same seed-chosen
/// cycles — one on the free-run hub by reading simulator storage (the
/// production path), one on the full hub by shifting the scan chains
/// (the reference). Snapshots, platform statistics and the target state
/// left behind must all be equal.
fn check_capture(
    genome: &Genome,
    design: &strober_rtl::Design,
    ports: &[(String, u64)],
) -> Result<(), Divergence> {
    let cerr = |detail: String| Divergence::Flow {
        detail: format!("capture-direct vs capture-scan: {detail}"),
    };
    let mut rng = StdRng::seed_from_u64(genome.stim_seed);
    // A window of 8–11 cycles in an 8- or 16-deep ring: most captures wrap.
    let config = FameConfig {
        replay_length: 8,
        warmup: rng.gen_range(0..4),
    };
    let fame = transform(design, &config).map_err(|e| cerr(format!("transform: {e}")))?;
    let (mut direct, mut direct_model) = ZynqHost::new(&fame, PlatformConfig::default())
        .map(|host| (host, StimDriver::new(genome, ports)))
        .map_err(|e| cerr(format!("free-run host: {e}")))?;
    let (mut scan, mut scan_model) = ZynqHost::full_hub(&fame, PlatformConfig::default())
        .map(|host| (host, StimDriver::new(genome, ports)))
        .map_err(|e| cerr(format!("full-hub host: {e}")))?;
    for capture in 0..4 {
        let gap = rng.gen_range(0..24);
        let a = direct
            .run(&mut direct_model, gap)
            .and_then(|_| direct.capture_snapshot(&mut direct_model))
            .map_err(|e| cerr(format!("direct: {e}")))?;
        let b = scan
            .run(&mut scan_model, gap)
            .and_then(|_| scan.capture_snapshot_shifted(&mut scan_model))
            .map_err(|e| cerr(format!("scan: {e}")))?;
        if a != b {
            return Err(cerr(format!(
                "capture {capture} at cycle {} (warmup {}): {a:?} vs {b:?}",
                b.cycle, config.warmup
            )));
        }
    }
    let (sa, sb) = (direct.stats(), scan.stats());
    if sa != sb || sa.modeled_seconds.to_bits() != sb.modeled_seconds.to_bits() {
        return Err(cerr(format!("platform stats {sa:?} vs {sb:?}")));
    }
    // One more stretch on, the free-run host's registers and memories,
    // read directly, must be what the full hub's scan chains shift out:
    // the direct path left the target exactly where the scan did.
    let a = direct
        .run(&mut direct_model, 5)
        .and_then(|_| direct.capture_snapshot(&mut direct_model))
        .map_err(|e| cerr(format!("direct readout: {e}")))?;
    let b = scan
        .run(&mut scan_model, 5)
        .and_then(|_| scan.capture_snapshot_shifted(&mut scan_model))
        .map_err(|e| cerr(format!("scan readout: {e}")))?;
    if a != b {
        return Err(cerr(format!("final target state: {a:?} vs {b:?}")));
    }
    Ok(())
}

fn check_flow(
    genome: &Genome,
    design: &strober_rtl::Design,
    ports: &[(String, u64)],
) -> Result<(), Divergence> {
    let ferr = |detail: String| Divergence::Flow { detail };
    let mut config = StroberConfig {
        replay_length: 16,
        warmup: 0,
        sample_size: 4,
        seed: genome.stim_seed,
        ..StroberConfig::default()
    };
    // One flow per genome: the default engine would run `rustc` once per
    // random hub. The `tape-jit` lane above already holds native code to
    // the reference; this lane is about capture and replay.
    config.platform.hub_engine = HubEngine::Interp;
    let flow = StroberFlow::new(design, config).map_err(|e| ferr(format!("prepare: {e}")))?;
    let mut driver = StimDriver::new(genome, ports);
    let max_cycles = u64::from(genome.cycles).max(64) * 4;
    let run = flow
        .run_sampled(&mut driver, max_cycles)
        .map_err(|e| ferr(format!("run_sampled: {e}")))?;
    if run.snapshots.is_empty() {
        return Ok(());
    }
    let reference = run
        .snapshots
        .iter()
        .map(|snap| reference_replay(&flow, snap))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| ferr(format!("reference replay: {e}")))?;
    for lanes in [1, 7, 64] {
        let replayed = flow
            .replay_all_batched(&run.snapshots, 1, lanes)
            .map_err(|e| ferr(format!("{lanes}-lane replay: {e}")))?;
        if replayed != reference {
            return Err(ferr(format!(
                "{lanes}-lane replay and the reference disagree: {replayed:?} vs {reference:?}"
            )));
        }
    }
    if reference.len() >= 2 {
        flow.estimate(&run, &reference)
            .map_err(|e| ferr(format!("estimate: {e}")))?;
    }
    Ok(())
}

/// Replays `snapshot` on the naive gate-level engine with the flow's
/// replay semantics: the reference every flow replay is held to, at any
/// lane count. Forces the recorded inputs through the warmup prefix,
/// loads the scanned state by name through the flow's name map at the
/// window boundary (retimed registers keep what the prefix gave them),
/// resets activity, checks every recorded output inside the window, and
/// prices the window with a `PowerAnalyzer` built as the flow builds its
/// own.
///
/// # Errors
///
/// [`StroberError::UnmappedState`] for state the name map does not
/// cover, [`StroberError::ReplayMismatch`] for an output that differs from
/// the trace, [`StroberError::GateSim`] for a name or address the netlist
/// does not have.
pub fn reference_replay(
    flow: &StroberFlow,
    snapshot: &FameSnapshot,
) -> Result<ReplayResult, StroberError> {
    let netlist = &flow.synth().netlist;
    let map = flow.name_map();
    let unmapped = |name: &String| StroberError::UnmappedState { name: name.clone() };
    let mut sim = NaiveGateSim::new(netlist)?;
    let warmup = flow.config().warmup as usize;
    let mut outputs_checked = 0;
    for t in 0..snapshot.trace_len() {
        for (port, values) in &snapshot.inputs {
            sim.poke_port(port, values[t])?;
        }
        if t == warmup {
            for (name, value) in &snapshot.regs {
                if map.retimed.contains(name) {
                    continue;
                }
                let dffs = map.regs.get(name).ok_or_else(|| unmapped(name))?;
                for (bit, dff) in dffs.iter().enumerate() {
                    sim.set_dff(dff, (value >> bit) & 1 == 1)?;
                }
            }
            for (name, words) in &snapshot.mems {
                let sram = map.mems.get(name).ok_or_else(|| unmapped(name))?;
                for (addr, &word) in words.iter().enumerate() {
                    sim.set_sram_word(sram, addr, word)?;
                }
            }
            sim.reset_activity();
        }
        if t >= warmup {
            for (port, values) in &snapshot.outputs {
                let got = sim.peek_port(port)?;
                if got != values[t] {
                    return Err(StroberError::ReplayMismatch {
                        cycle: snapshot.cycle,
                        output: port.clone(),
                        offset: t,
                        expected: values[t],
                        got,
                    });
                }
                outputs_checked += 1;
            }
        }
        sim.step();
    }
    let analyzer = PowerAnalyzer::new(netlist, flow.library(), flow.config().freq_hz);
    Ok(ReplayResult {
        cycle: snapshot.cycle,
        power: analyzer.analyze(&sim.activity()),
        outputs_checked,
    })
}
