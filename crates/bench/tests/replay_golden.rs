//! Golden equivalence of batched gate replay on the bundled cores.
//!
//! `replay_all_batched` packs snapshots into the bit-lanes of `BatchSim`,
//! whose SRAM ports and stimulus move through 64×64 bit transposes and
//! whose tape runs in (level, kind) blocks. The reference is
//! `strober_fuzz::reference_replay`: the same snapshots replayed one at a
//! time on `NaiveGateSim`, which evaluates the netlist gate by gate and
//! loads state by name. On the Rok and Boum cores, with a warmup prefix,
//! every batched shape — one partial 64-lane batch, and 7-lane batches
//! with a ragged tail — must return exactly the reference results:
//! cycles, outputs checked and `PowerReport`s, compared with
//! `assert_eq!`, not a tolerance.

use strober::{ReplayResult, StroberConfig, StroberFlow};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_fuzz::reference_replay;
use strober_isa::{assemble, programs};

const MAX_CYCLES: u64 = 2_000_000;

fn assert_batched_matches_reference(label: &str, core: &CoreConfig) {
    let config = StroberConfig {
        sample_size: 10,
        replay_length: 32,
        warmup: 4,
        ..StroberConfig::default()
    };
    let flow = StroberFlow::new(&build_core(core), config).expect("prepare");
    let image = assemble(&programs::vvadd(64)).expect("assemble").words;
    let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
    dram.load(&image, 0);
    let run = flow
        .run_sampled(&mut dram, MAX_CYCLES)
        .expect("sampled run");
    assert_eq!(run.snapshots.len(), 10, "{label}: a full reservoir");

    let reference: Vec<ReplayResult> = run
        .snapshots
        .iter()
        .map(|snap| reference_replay(&flow, snap).expect("reference replay"))
        .collect();
    assert!(reference.iter().all(|r| r.outputs_checked > 0));
    for lanes in [64, 7] {
        let batched = flow
            .replay_all_batched(&run.snapshots, 2, lanes)
            .expect("batched replay");
        assert_eq!(batched, reference, "{label}: {lanes}-lane batches");
    }
}

#[test]
fn batched_replay_matches_the_reference_on_the_rok_core() {
    assert_batched_matches_reference("rok_tiny", &CoreConfig::rok_tiny());
}

#[test]
fn batched_replay_matches_the_reference_on_the_boum_core() {
    assert_batched_matches_reference("boum_tiny", &CoreConfig::boum_tiny(1));
}
