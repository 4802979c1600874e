//! Memory-system exploration with the DRAM timing model (the Fig. 7
//! mechanism as a user-facing workflow): sweep the simulated DRAM latency
//! and watch a pointer-chasing workload's performance and DRAM power
//! respond.
//!
//! Run with: `cargo run --release --example dram_explore`

use strober::{StroberConfig, StroberFlow};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel, LpddrPowerParams};
use strober_isa::{assemble, programs};

fn main() {
    let design = build_core(&CoreConfig::rok());
    // One session runs every point: the latency is the host model's.
    let flow = StroberFlow::new(&design, StroberConfig::default()).expect("session");
    // A 64 KiB working set — four times the 16 KiB D$, so every hop goes
    // to memory.
    let src = programs::pointer_chase(16 * 1024, 4, 4096);
    let image = assemble(&src).expect("assembles").words;
    let params = LpddrPowerParams::lpddr2_s4();

    println!(
        "{:>12} {:>12} {:>14} {:>12} {:>12}",
        "DRAM latency", "run cycles", "cycles/load", "activations", "DRAM mW"
    );
    for latency in [25u64, 50, 100, 200, 400] {
        let mut dram = DramModel::new(
            DramConfig {
                cas_latency_cycles: latency,
                ..DramConfig::default()
            },
            programs::MEM_BYTES,
        );
        dram.load(&image, 0);
        let cycles = flow.run(&mut dram, 100_000_000).expect("run").target_cycles;
        let chase_cycles = f64::from(dram.exit_code().expect("did not finish"));
        let power = params.average_power_mw(dram.counters(), cycles, 1.0e9);
        println!(
            "{:>12} {:>12} {:>14.1} {:>12} {:>12.2}",
            latency,
            cycles,
            chase_cycles / 4096.0,
            dram.counters().activations,
            power.total_mw()
        );
    }
    println!();
    println!("Load-to-load latency tracks the simulated DRAM latency, while");
    println!("DRAM power *drops* as latency rises: the same accesses spread");
    println!("over more cycles (background power dominates a stalled system).");
}
