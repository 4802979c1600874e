//! The bit-parallel acceptance gate, enforced: one 64-lane packed pass
//! must deliver at least 5x the single-thread gate-level throughput of
//! 64 sequential one-lane replays on the bundled Rok netlist.
//!
//! Like the probe-overhead check, the comparison uses the minimum over
//! several interleaved trials — the minimum is the run least disturbed
//! by the machine, so the ratio is stable enough to assert on in CI.

use std::hint::black_box;
use std::time::Instant;
use strober::{StroberConfig, StroberFlow};
use strober_cores::{build_core, CoreConfig};
use strober_gatesim::{BatchSim, MAX_LANES};
use strober_platform::{HostModel, OutputView};
use strober_synth::{synthesize, SynthOptions};

const CYCLES: u64 = 512;
const TRIALS: usize = 5;

fn min_nanos(mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos());
    }
    best
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the 5x floor is a property of optimized builds; debug \
              builds don't vectorize the word-parallel inner loop. \
              CI runs this test with --release."
)]
fn packed_64_lane_replay_is_at_least_5x_sequential() {
    let design = build_core(&CoreConfig::rok_tiny());
    let netlist = synthesize(&design, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let mut singles: Vec<BatchSim> = (0..MAX_LANES)
        .map(|_| BatchSim::with_lanes(&netlist, 1).expect("netlist"))
        .collect();
    let mut batch = BatchSim::new(&netlist).expect("netlist");

    // Warm both paths (page in code, settle the frequency governor).
    for s in &mut singles {
        s.step_n(CYCLES);
    }
    batch.step_n(CYCLES);

    let sequential = min_nanos(|| {
        for s in &mut singles {
            s.step_n(CYCLES);
        }
        black_box(singles[MAX_LANES - 1].cycle());
    });
    let packed = min_nanos(|| {
        batch.step_n(CYCLES);
        black_box(batch.cycle());
    });

    let speedup = sequential as f64 / packed as f64;
    println!(
        "64 sequential 1-lane replays: {} ns; one 64-lane packed pass: {} ns; speedup {speedup:.1}x",
        sequential, packed
    );
    assert!(
        speedup >= 5.0,
        "packed replay speedup {speedup:.2}x is below the 5x acceptance floor \
         (sequential {sequential} ns, packed {packed} ns)"
    );
}

struct NoIo;
impl HostModel for NoIo {
    fn tick(&mut self, _c: u64, _io: &mut OutputView<'_>) {}
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing composition is only meaningful on optimized builds; \
              CI runs this test with --release."
)]
fn lanes_compose_with_replay_worker_threads() {
    // The flow-level composition check behind EXPERIMENTS.md's replay
    // table: threads × lanes, measured on real sampled snapshots. The
    // assertion is deliberately loose (batching must not *lose* to one
    // lane per pass); the hard 5x floor lives in the microbenchmark above,
    // where snapshot loading and power analysis don't dilute the ratio.
    let design = build_core(&CoreConfig::rok_tiny());
    let config = StroberConfig {
        replay_length: 64,
        sample_size: 32,
        ..StroberConfig::default()
    };
    let flow = StroberFlow::new(&design, config).expect("prepare");
    let run = flow.run_sampled(&mut NoIo, 40_000).expect("sampled run");
    let threads = StroberFlow::default_parallelism();

    let time = |parallelism: usize, lanes: usize| {
        min_nanos(|| {
            black_box(
                flow.replay_all_batched(&run.snapshots, parallelism, lanes)
                    .expect("replay"),
            );
        })
    };
    let t1_l1 = time(1, 1);
    let t1_l64 = time(1, 64);
    let tn_l1 = time(threads, 1);
    let tn_l64 = time(threads, 64);
    println!(
        "replay of {} snapshots: 1 thread x 1 lane {:.2} ms; 1 thread x 64 lanes {:.2} ms; \
         {threads} threads x 1 lane {:.2} ms; {threads} threads x 64 lanes {:.2} ms",
        run.snapshots.len(),
        t1_l1 as f64 / 1e6,
        t1_l64 as f64 / 1e6,
        tn_l1 as f64 / 1e6,
        tn_l64 as f64 / 1e6,
    );
    assert!(
        t1_l64 < t1_l1,
        "batched replay slower than one lane per pass on one thread: {t1_l64} ns vs {t1_l1} ns"
    );
    assert!(
        tn_l64 <= t1_l1,
        "threads x lanes slower than the one-lane single-thread baseline"
    );
}
