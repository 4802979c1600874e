//! Determinism golden for adaptive stopping on real processor cores.
//!
//! A stopping rule is evaluated at checkpoints — window counts fixed by
//! the rule — over exactly the snapshots the reservoir holds, and a
//! snapshot replays to the same bits whatever it is batched with. So the
//! configuration and seed alone decide the window a run stops at, what
//! it kept and what ε it reports: this suite runs the bundled cores the
//! CLI actually estimates — Rok and Boum, on a real workload — under a
//! rule that fires, at every worker/lane shape, repeatedly, and demands
//! one outcome. (The flow-level unit tests cover small synthetic
//! designs.)
//!
//! The same runs without a rule must equal `run_sampled` followed by
//! `replay_all_batched`: the fixed-size flow is the loop with no
//! checkpoints, not a sibling of it.

use strober::{
    ReplayResult, RunControl, SampledRun, StopReason, StoppingRule, StroberConfig, StroberFlow,
};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_fame::FameSnapshot;
use strober_isa::{assemble, programs};

const MAX_CYCLES: u64 = 2_000_000;
const WORKERS: [usize; 3] = [1, 2, 4];
const LANES: [usize; 3] = [1, 8, 64];
const REPEATS: usize = 3;

/// Everything a run decided, floats by their bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    windows: u64,
    records: u64,
    target_cycles: u64,
    snapshots: Vec<FameSnapshot>,
    results: Vec<ReplayResult>,
    stop: StopReason,
    power_bits: u64,
}

impl Outcome {
    fn new(flow: &StroberFlow, run: SampledRun, results: Vec<ReplayResult>) -> Self {
        let estimate = flow.estimate(&run, &results).expect("estimate");
        if let StopReason::Converged { achieved, target } = run.stop {
            assert!(achieved <= target, "stopped at ε {achieved} > {target}");
            assert_eq!(
                achieved.to_bits(),
                estimate.interval().relative_error_bound().to_bits(),
                "the reported ε is not the estimate's"
            );
        }
        Outcome {
            windows: run.windows,
            records: run.records,
            target_cycles: run.target_cycles,
            snapshots: run.snapshots,
            results,
            stop: run.stop,
            power_bits: estimate.mean_power_mw().to_bits(),
        }
    }
}

fn dram(image: &[u32]) -> DramModel {
    let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
    dram.load(image, 0);
    dram
}

/// `epsilon` is chosen per core to sit *below* what the first checkpoint
/// past the reservoir fill achieves and above what a later one does, so
/// the run passes several checkpoints — with evictions between them —
/// before the rule fires well short of the workload's end.
fn assert_deterministic(
    label: &str,
    core: &CoreConfig,
    (sample_size, replay_length): (usize, u32),
    epsilon: f64,
) {
    let config = StroberConfig {
        sample_size,
        replay_length,
        ..StroberConfig::default()
    };
    let flow = StroberFlow::new(&build_core(core), config).expect("prepare");
    let image = assemble(&programs::vvadd(64)).expect("assemble").words;
    let run = |(workers, lanes), rule| {
        let (run, results) = flow
            .replay_streaming(
                &mut dram(&image),
                MAX_CYCLES,
                workers,
                lanes,
                rule,
                &RunControl::default(),
            )
            .expect("sampled run and replay");
        Outcome::new(&flow, run, results)
    };

    // No rule: the phased flow, by construction.
    let phased = flow
        .run_sampled(&mut dram(&image), MAX_CYCLES)
        .expect("sampled run");
    let results = flow
        .replay_all_batched(&phased.snapshots, 2, 8)
        .expect("replay");
    let phased = Outcome::new(&flow, phased, results);
    assert_eq!(
        phased.stop,
        StopReason::WorkloadDone,
        "{label}: vvadd halts"
    );

    let rule = StoppingRule::new(epsilon, flow.config().confidence, 4).expect("rule");
    let mut stopped: Option<Outcome> = None;
    for workers in WORKERS {
        for lanes in LANES {
            assert_eq!(
                run((workers, lanes), None),
                phased,
                "{label}, {workers}x{lanes}: no rule, yet not the phased run"
            );
            for repeat in 0..REPEATS {
                let outcome = run((workers, lanes), Some(rule));
                assert!(
                    outcome.stop.is_converged(),
                    "{label}: ε = {epsilon} must fire for this golden to mean anything"
                );
                assert!(
                    outcome.records > sample_size as u64 + 4 && outcome.windows < phased.windows,
                    "{label}: stopped at window {} of {} after {} records — not mid-run",
                    outcome.windows,
                    phased.windows,
                    outcome.records
                );
                match &stopped {
                    None => stopped = Some(outcome),
                    Some(first) => assert_eq!(
                        &outcome, first,
                        "{label}, {workers}x{lanes}, repeat {repeat}: the stop moved"
                    ),
                }
            }
        }
    }
}

#[test]
fn the_stop_is_fixed_by_configuration_and_seed_on_the_rok_core() {
    assert_deterministic("rok_tiny", &CoreConfig::rok_tiny(), (8, 32), 0.012);
}

#[test]
fn the_stop_is_fixed_by_configuration_and_seed_on_the_boum_core() {
    assert_deterministic("boum_tiny", &CoreConfig::boum_tiny(1), (6, 64), 0.04);
}
