//! The headline integration test: the complete Strober methodology on a
//! real processor running a real workload.
//!
//! This is a miniature Fig. 8 validation: the "true" average power comes
//! from simulating the *entire* workload on gate-level simulation, and the
//! sample-based estimate comes from the full Strober flow (FAME1-hub fast
//! simulation with reservoir-sampled snapshots, gate-level replay of ~2%
//! of the cycles, power analysis, confidence interval). The estimate must
//! land close to the truth.

use strober::{StroberConfig, StroberFlow};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_gatesim::BatchSim;
use strober_isa::{assemble, programs, Iss};
use strober_power::PowerAnalyzer;

const MEM_BYTES: usize = programs::MEM_BYTES;

/// Runs the entire workload on gate-level simulation and returns
/// `(average power mW, cycles, exit code)` — the ground truth.
fn gate_level_truth(flow: &StroberFlow, image: &[u32], max_cycles: u64) -> (f64, u64, u32) {
    let mut sim = BatchSim::with_lanes(&flow.synth().netlist, 1).expect("netlist");
    let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
    dram.load(image, 0);
    let mut cycles = 0u64;
    while cycles < max_cycles {
        dram.tick_gate(&mut sim);
        cycles += 1;
        if dram.exit_code().is_some() {
            break;
        }
    }
    let exit = dram.exit_code().expect("workload must halt at gate level");
    let analyzer = PowerAnalyzer::new(&flow.synth().netlist, flow.library(), flow.config().freq_hz);
    let power = analyzer.analyze(&sim.activity_lane(0).expect("lane 0"));
    (power.total_mw(), cycles, exit)
}

#[test]
fn sampled_estimate_matches_gate_level_truth() {
    // 192 elements (vs the seed's 48) quadruples the cycle count so the
    // larger sample below still covers a small fraction of the run, and it
    // shrinks the weight of the high-power startup phase whose windows
    // otherwise dominate the estimator's variance.
    let src = programs::vvadd(192);
    let image = assemble(&src).unwrap();

    // Reference result from the ISS.
    let mut iss = Iss::new(MEM_BYTES);
    iss.load(&image.words, 0);
    let iss_exit = iss.run(10_000_000).unwrap().unwrap();

    let design = build_core(&CoreConfig::rok_tiny());
    // 60 windows keeps the estimator's noise comfortably inside the 10%
    // assertion below for any reasonable RNG stream (the vendored `rand`
    // stand-in draws a different stream than crates.io rand at n=20).
    let config = StroberConfig {
        replay_length: 128,
        sample_size: 60,
        ..StroberConfig::default()
    };
    let flow = StroberFlow::new(&design, config).unwrap();

    // Ground truth: the whole workload at gate level.
    let (true_power, true_cycles, gate_exit) = gate_level_truth(&flow, &image.words, 400_000);
    assert_eq!(gate_exit, iss_exit, "gate-level run must compute correctly");

    // Strober: fast sampled run + replay.
    let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
    dram.load(&image.words, 0);
    let run = flow
        .run_sampled(&mut dram, 10 * true_cycles)
        .expect("sampled run");
    assert_eq!(
        dram.exit_code(),
        Some(iss_exit),
        "hub run must compute correctly"
    );
    assert!(run.snapshots.len() >= 2, "need snapshots to estimate");

    let results = flow.replay_all(&run.snapshots, 4).expect("replays succeed");
    for r in &results {
        assert!(r.outputs_checked > 0, "replay must verify outputs");
    }
    let estimate = flow.estimate(&run, &results).expect("estimate");

    // The coverage is a few percent of the cycles, as in Table IV.
    let covered =
        results.len() as f64 * f64::from(flow.config().replay_length) / run.target_cycles as f64;
    assert!(
        covered < 0.25,
        "sampling should cover a small fraction, covered {covered:.3}"
    );

    // The estimate must be close to the truth. Fig. 8 sees errors below
    // ~3%; we allow more slack because this run is far shorter than the
    // paper's and the sample smaller.
    let rel_err = (estimate.mean_power_mw() - true_power).abs() / true_power;
    assert!(
        rel_err < 0.10,
        "estimate {:.3} mW vs truth {true_power:.3} mW: {:.1}% error",
        estimate.mean_power_mw(),
        rel_err * 100.0
    );

    // The theoretical error bound should be of sane magnitude too.
    let bound = estimate.interval().relative_error_bound();
    assert!(bound < 0.5, "error bound {bound} is implausibly wide");
}

#[test]
fn snapshot_timestamps_follow_execution() {
    // Fig. 10's mechanism: snapshots carry timestamps spread over the run.
    let src = programs::dhrystone(60);
    let image = assemble(&src).unwrap();
    let design = build_core(&CoreConfig::rok_tiny());
    let config = StroberConfig {
        replay_length: 64,
        sample_size: 8,
        ..StroberConfig::default()
    };
    let flow = StroberFlow::new(&design, config).unwrap();
    let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
    dram.load(&image.words, 0);
    let run = flow.run_sampled(&mut dram, 2_000_000).expect("run");
    assert!(dram.exit_code().is_some());

    let mut cycles: Vec<u64> = run.snapshots.iter().map(|s| s.cycle).collect();
    cycles.sort_unstable();
    cycles.dedup();
    assert_eq!(cycles.len(), run.snapshots.len(), "timestamps unique");
    assert!(*cycles.last().unwrap() <= run.target_cycles);
    // Sampling must reach beyond the first quarter of the execution.
    assert!(*cycles.last().unwrap() > run.target_cycles / 4);
}
