//! Ablation of the sampling parameters (the §III-A design choices):
//! how the theoretical error bound and the actual error respond to the
//! sample size `n` (eq. 8 predicts bound ∝ 1/√n) and to the replay
//! length `L` (longer windows average out within-window variance but
//! cover fewer distinct points for the same replay budget).

use strober::{StroberConfig, StroberFlow};
use strober_bench::{Workload, MEM_BYTES};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_gatesim::BatchSim;
use strober_power::PowerAnalyzer;

fn main() {
    let design = build_core(&CoreConfig::rok());
    let image = Workload::Dhrystone.image();

    // Ground truth once.
    let base_flow = StroberFlow::new(&design, StroberConfig::default()).expect("flow");
    let analyzer = PowerAnalyzer::new(&base_flow.synth().netlist, base_flow.library(), 1.0e9);
    let mut gsim = BatchSim::with_lanes(&base_flow.synth().netlist, 1).expect("netlist");
    let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
    dram.load(&image, 0);
    while dram.exit_code().is_none() {
        dram.tick_gate(&mut gsim);
    }
    let truth = analyzer
        .analyze(&gsim.activity_lane(0).expect("lane 0"))
        .total_mw();
    println!("ground truth (dhrystone on Rok): {truth:.3} mW\n");

    let run_once = |n: usize, l: u32, seed: u64| -> (f64, f64) {
        let flow = StroberFlow::new(
            &design,
            StroberConfig {
                replay_length: l,
                sample_size: n,
                seed,
                ..StroberConfig::default()
            },
        )
        .expect("flow");
        let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
        dram.load(&image, 0);
        let run = flow.run_sampled(&mut dram, 100_000_000).expect("run");
        let results = flow.replay_all(&run.snapshots, 8).expect("replay");
        let est = flow.estimate(&run, &results).expect("estimate");
        (
            est.interval().relative_error_bound() * 100.0,
            (est.mean_power_mw() - truth).abs() / truth * 100.0,
        )
    };

    println!("Sample-size sweep (L = 128; eq. 8 predicts bound ~ 1/sqrt(n)):");
    println!(
        "{:>6} {:>10} {:>10} {:>14}",
        "n", "bound%", "actual%", "bound*sqrt(n)"
    );
    for n in [5usize, 10, 20, 40, 80] {
        let (bound, actual) = run_once(n, 128, 42);
        println!(
            "{n:>6} {bound:>9.2}% {actual:>9.2}% {:>14.1}",
            bound * (n as f64).sqrt()
        );
    }

    println!();
    println!("Replay-length sweep (n = 30; fixed snapshot count):");
    println!(
        "{:>6} {:>10} {:>10} {:>12}",
        "L", "bound%", "actual%", "coverage"
    );
    for l in [32u32, 64, 128, 256, 512] {
        let (bound, actual) = run_once(30, l, 77);
        let coverage = 30.0 * f64::from(l) / 371_000.0 * 100.0;
        println!("{l:>6} {bound:>9.2}% {actual:>9.2}% {coverage:>11.2}%");
    }
    println!();
    println!("Expected shapes: bound*sqrt(n) roughly constant across the n sweep");
    println!("(the CLT scaling of eq. 8); longer windows damp within-window");
    println!("variance so the bound tightens as L grows at fixed n.");
}
