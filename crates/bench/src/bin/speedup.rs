//! The simulator-speed ladder measured on this machine, next to the
//! paper's platform constants — the speed hierarchy the methodology
//! exploits (abstract: two orders of magnitude over microarchitectural
//! simulators, four over commercial gate-level simulation).

use std::time::Instant;
use strober::{HubEngine, PerfModel, StroberConfig, StroberFlow};
use strober_bench::{Workload, MEM_BYTES};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_gatesim::BatchSim;
use strober_isa::Iss;
use strober_sim::NaiveInterpreter;

/// Times one whole run of `image` on the session's hub; returns the
/// engine row's label and its rate in target cycles per second.
fn time_hub(flow: &StroberFlow, image: &[u32]) -> (String, f64) {
    flow.prepare_jit(None);
    let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
    dram.load(image, 0);
    let t0 = Instant::now();
    let stats = flow.run(&mut dram, 100_000_000).expect("run");
    let rate = stats.target_cycles as f64 / t0.elapsed().as_secs_f64();
    let label = format!("FAME1 hub, {}", flow.hub_engine_name());
    (label, rate)
}

fn main() {
    let design = build_core(&CoreConfig::rok());
    let image = Workload::Dhrystone.image();

    // ISS (functional golden model).
    let mut iss = Iss::new(MEM_BYTES);
    iss.load(&image, 0);
    let t0 = Instant::now();
    iss.run(50_000_000).expect("no faults");
    let iss_rate = iss.instret() as f64 / t0.elapsed().as_secs_f64();

    // The FAME1 hub as a whole run drives it (`StroberFlow::run`): under
    // the session's engine rule, and interpreted.
    let flow = StroberFlow::new(&design, StroberConfig::default()).expect("session");
    let (hub_label, hub_rate) = time_hub(&flow, &image);
    let mut interp_config = StroberConfig::default();
    interp_config.platform.hub_engine = HubEngine::Interp;
    let interp = StroberFlow::new(&design, interp_config).expect("session");
    let (interp_label, interp_rate) = time_hub(&interp, &image);

    // Naive tree-walking RTL interpreter (ablation baseline).
    let mut naive = NaiveInterpreter::new(&design).expect("core");
    let t0 = Instant::now();
    let naive_cycles = 2_000u64;
    for _ in 0..naive_cycles {
        naive.step();
    }
    let naive_rate = naive_cycles as f64 / t0.elapsed().as_secs_f64();

    // Gate-level simulation: one run, on a one-lane batch.
    let mut gsim = BatchSim::with_lanes(&flow.synth().netlist, 1).expect("netlist");
    let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
    dram.load(&image, 0);
    let t0 = Instant::now();
    let gate_cycles = 30_000u64;
    for _ in 0..gate_cycles {
        dram.tick_gate(&mut gsim);
    }
    let gate_rate = gate_cycles as f64 / t0.elapsed().as_secs_f64();

    println!("Measured simulator ladder on this machine (Rok, dhrystone):");
    println!("  ISS (functional)            {:>12.0} instr/s", iss_rate);
    println!("  {hub_label:<27} {hub_rate:>12.0} cycles/s");
    println!("  {interp_label:<27} {interp_rate:>12.0} cycles/s");
    println!(
        "  naive RTL interpreter       {:>12.0} cycles/s",
        naive_rate
    );
    println!("  gate-level simulator        {:>12.0} cycles/s", gate_rate);
    println!();
    println!("Measured ratios:");
    println!(
        "  hub vs interpreted hub:     {:>8.1}x",
        hub_rate / interp_rate
    );
    println!(
        "  interpreted hub vs naive:   {:>8.1}x",
        interp_rate / naive_rate
    );
    println!(
        "  hub vs gate-level:          {:>8.1}x",
        hub_rate / gate_rate
    );
    println!();
    let m = PerfModel::paper_example();
    let n = 100_000_000_000u64;
    println!("Paper-platform model (§IV-E constants, 100e9 cycles):");
    println!(
        "  FPGA (3.6 MHz) vs gate-level (12 Hz): {:>10.0}x",
        3.6e6 / 12.0
    );
    println!(
        "  full flow vs gate-level:              {:>10.0}x  (abstract: >= 1e4)",
        m.speedup_vs_gate_level(n)
    );
    println!(
        "  full flow vs 20 kHz uarch simulator:  {:>10.0}x  (abstract: >= 1e2)",
        PerfModel {
            uarch_sim_hz: 20.0e3,
            ..m
        }
        .speedup_vs_uarch(n)
    );
}
