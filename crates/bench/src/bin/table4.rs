//! Table IV — simulated and replayed cycles for each microbenchmark on
//! the Rok processor: 30 random snapshots of 128 cycles cover only a few
//! percent of each run, yet (Fig. 8) predict average power accurately.

use strober::{StroberConfig, StroberFlow};
use strober_bench::{fmt_u64, Workload, MEM_BYTES};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};

fn main() {
    let design = build_core(&CoreConfig::rok());
    let flow = StroberFlow::new(&design, StroberConfig::default()).expect("session");
    let n = flow.config().sample_size as u64;
    let l = u64::from(flow.config().replay_length);

    println!("Table IV: simulated and replayed cycles on Rok (n = {n}, L = {l})");
    println!(
        "{:<12} {:>16} {:>16} {:>10} {:>12}",
        "Benchmark", "Simulated Cycles", "Replayed Cycles", "Coverage", "paper cycles"
    );
    let paper: &[(&str, u64)] = &[
        ("vvadd", 200_521),
        ("towers", 410_752),
        ("dhrystone", 396_790),
        ("qsort", 187_160),
        ("spmv", 927_144),
        ("dgemm", 1_833_075),
    ];
    for (w, &(pname, pcycles)) in Workload::MICRO.iter().zip(paper) {
        assert_eq!(w.name(), pname);
        let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
        dram.load(&w.image(), 0);
        let cycles = flow.run(&mut dram, 50_000_000).expect("run").target_cycles;
        assert!(dram.exit_code().is_some(), "{} must halt", w.name());
        let replayed = n * l;
        let coverage = replayed as f64 / cycles as f64 * 100.0;
        println!(
            "{:<12} {:>16} {:>13}x{:<2} {:>9.2}% {:>12}",
            w.name(),
            fmt_u64(cycles),
            n,
            l,
            coverage,
            fmt_u64(pcycles),
        );
    }
    println!();
    println!("(Workload sizes are scaled so full gate-level reference runs are");
    println!("feasible; relative lengths follow the paper's Table IV.)");
}
