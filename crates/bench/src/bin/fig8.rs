//! Fig. 8 — power validation: for each microbenchmark on Rok, the *true*
//! average power is computed by running the entire benchmark on gate-level
//! simulation; the sample-based estimate (30 random 128-cycle snapshots)
//! is repeated five times, and the actual error is compared against the
//! theoretical 99%-confidence error bound.

use std::time::Instant;
use strober::{StroberConfig, StroberFlow};
use strober_bench::{Workload, MEM_BYTES};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_gatesim::BatchSim;
use strober_power::PowerAnalyzer;

fn main() {
    let design = build_core(&CoreConfig::rok());
    let base_config = StroberConfig {
        replay_length: 128,
        sample_size: 30,
        ..StroberConfig::default()
    };
    let flow = StroberFlow::new(&design, base_config.clone()).expect("flow");
    let analyzer = PowerAnalyzer::new(&flow.synth().netlist, flow.library(), 1.0e9);

    println!("Fig. 8: theoretical 99% error bound vs actual error (Rok, n=30, L=128)");
    println!(
        "{:<11} {:>4} {:>12} {:>12} {:>9} {:>9} {:>7}",
        "benchmark", "rep", "true mW", "est mW", "bound%", "actual%", "within"
    );

    let mut within = 0usize;
    let mut total = 0usize;
    for w in Workload::MICRO {
        let image = w.image();

        // Ground truth: the entire benchmark at gate level.
        let t0 = Instant::now();
        let mut gsim = BatchSim::with_lanes(&flow.synth().netlist, 1).expect("netlist");
        let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
        dram.load(&image, 0);
        let mut cycles = 0u64;
        while dram.exit_code().is_none() {
            dram.tick_gate(&mut gsim);
            cycles += 1;
            assert!(cycles < 60_000_000, "{} did not halt", w.name());
        }
        let true_power = analyzer
            .analyze(&gsim.activity_lane(0).expect("lane 0"))
            .total_mw();
        let truth_secs = t0.elapsed().as_secs_f64();

        for rep in 1..=5 {
            let config = StroberConfig {
                seed: 0xF1_68 + rep,
                ..base_config.clone()
            };
            let flow_rep = StroberFlow::new(&design, config).expect("flow");
            let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
            dram.load(&image, 0);
            let run = flow_rep
                .run_sampled(&mut dram, 100_000_000)
                .expect("sampled run");
            assert!(dram.exit_code().is_some(), "{} hub run must halt", w.name());
            let results = flow_rep
                .replay_all(&run.snapshots, 8)
                .expect("replays verify");
            let est = flow_rep.estimate(&run, &results).expect("estimate");

            let bound = est.interval().relative_error_bound() * 100.0;
            let actual = (est.mean_power_mw() - true_power).abs() / true_power * 100.0;
            let ok = actual <= bound;
            within += usize::from(ok);
            total += 1;
            println!(
                "{:<11} {:>4} {:>12.3} {:>12.3} {:>8.2}% {:>8.2}% {:>7}",
                w.name(),
                rep,
                true_power,
                est.mean_power_mw(),
                bound,
                actual,
                if ok { "yes" } else { "NO" }
            );
        }
        eprintln!(
            "[{}: ground truth {:.1}s for {} cycles]",
            w.name(),
            truth_secs,
            cycles
        );
    }
    println!();
    println!(
        "{within}/{total} repetitions within the 99% bound (occasional excursions are \
expected, as in the paper's towers/qsort cases; all errors should stay small)"
    );
}
