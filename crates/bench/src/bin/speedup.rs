//! The simulator-speed ladder measured on this machine, next to the
//! paper's platform constants — the speed hierarchy the methodology
//! exploits (abstract: two orders of magnitude over microarchitectural
//! simulators, four over commercial gate-level simulation).

use std::time::Instant;
use strober::PerfModel;
use strober_bench::{Workload, MEM_BYTES};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_fame::{transform, FameConfig};
use strober_gatesim::BatchSim;
use strober_isa::Iss;
use strober_platform::{PlatformConfig, ZynqHost};
use strober_sim::{NaiveInterpreter, Simulator};
use strober_synth::{synthesize, SynthOptions};

fn main() {
    let design = build_core(&CoreConfig::rok());
    let image = Workload::Dhrystone.image();

    // ISS (functional golden model).
    let mut iss = Iss::new(MEM_BYTES);
    iss.load(&image, 0);
    let t0 = Instant::now();
    iss.run(50_000_000).expect("no faults");
    let iss_rate = iss.instret() as f64 / t0.elapsed().as_secs_f64();

    // Compiled-tape RTL simulation (the FPGA stand-in).
    let mut sim = Simulator::new(&design).expect("core");
    let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
    dram.load(&image, 0);
    let t0 = Instant::now();
    let mut rtl_cycles = 0u64;
    while dram.exit_code().is_none() {
        dram.tick_raw(&mut sim);
        rtl_cycles += 1;
    }
    let rtl_rate = rtl_cycles as f64 / t0.elapsed().as_secs_f64();

    // Naive tree-walking RTL interpreter (ablation baseline).
    let mut naive = NaiveInterpreter::new(&design).expect("core");
    let t0 = Instant::now();
    let naive_cycles = 2_000u64;
    for _ in 0..naive_cycles {
        naive.step();
    }
    let naive_rate = naive_cycles as f64 / t0.elapsed().as_secs_f64();

    // FAME1 hub on the host platform.
    let fame = transform(&design, &FameConfig::default()).expect("transform");
    let mut host = ZynqHost::new(&fame, PlatformConfig::default()).expect("host");
    let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
    dram.load(&image, 0);
    let t0 = Instant::now();
    host.run(&mut dram, 100_000_000).expect("run");
    let hub_cycles = host.target_cycles();
    let hub_rate = hub_cycles as f64 / t0.elapsed().as_secs_f64();

    // Gate-level simulation: one run, on a one-lane batch.
    let synth = synthesize(&design, &SynthOptions::default()).expect("synth");
    let mut gsim = BatchSim::with_lanes(&synth.netlist, 1).expect("netlist");
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
    println!("  RTL tape simulator          {:>12.0} cycles/s", rtl_rate);
    println!("  FAME1 hub on host platform  {:>12.0} cycles/s", hub_rate);
    println!(
        "  naive RTL interpreter       {:>12.0} cycles/s",
        naive_rate
    );
    println!("  gate-level simulator        {:>12.0} cycles/s", gate_rate);
    println!();
    println!("Measured ratios:");
    println!(
        "  tape vs naive interpreter:  {:>8.1}x",
        rtl_rate / naive_rate
    );
    println!(
        "  tape vs gate-level:         {:>8.1}x",
        rtl_rate / gate_rate
    );
    println!(
        "  hub  vs gate-level:         {:>8.1}x",
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
