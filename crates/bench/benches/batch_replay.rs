//! Bit-parallel replay throughput (EXPERIMENTS.md "Replay throughput"):
//! one 64-lane pass against 64 sequential one-lane replays of the
//! bundled Rok netlist, plus a single one-lane replay. Throughput is
//! reported in lane-cycles per second — one element = one replay
//! advancing one cycle — so the rows are directly comparable.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use strober_cores::{build_core, CoreConfig};
use strober_gatesim::{BatchSim, MAX_LANES};
use strober_synth::{synthesize, SynthOptions};

const CYCLES: u64 = 256;

fn bench_batch_replay(c: &mut Criterion) {
    let design = build_core(&CoreConfig::rok_tiny());
    let netlist = synthesize(&design, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let mut group = c.benchmark_group("batch_replay");
    // The sequential-64 baseline costs ~0.7 s per iteration; keep the
    // sample count low so the bench finishes in seconds, not minutes.
    group.sample_size(10);

    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("packed_1_lane", |b| {
        let mut sim = BatchSim::with_lanes(&netlist, 1).expect("netlist");
        b.iter(|| {
            sim.step_n(CYCLES);
            black_box(sim.cycle());
        });
    });

    group.throughput(Throughput::Elements(MAX_LANES as u64 * CYCLES));
    group.bench_function("sequential_64x1_lane", |b| {
        let mut sims: Vec<BatchSim> = (0..MAX_LANES)
            .map(|_| BatchSim::with_lanes(&netlist, 1).expect("netlist"))
            .collect();
        b.iter(|| {
            for sim in &mut sims {
                sim.step_n(CYCLES);
            }
            black_box(sims[MAX_LANES - 1].cycle());
        });
    });
    group.bench_function("packed_64_lanes", |b| {
        let mut sim = BatchSim::new(&netlist).expect("netlist");
        b.iter(|| {
            sim.step_n(CYCLES);
            black_box(sim.cycle());
        });
    });

    group.finish();
}

criterion_group!(benches, bench_batch_replay);
criterion_main!(benches);
