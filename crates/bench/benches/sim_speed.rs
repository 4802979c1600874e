//! The simulator-speed ladder (DESIGN.md ablation): compiled-tape RTL
//! simulation vs the naive tree-walking interpreter, on the Rok core.
//! The tape simulator plays the FPGA; the gate-level rung (the simulator
//! that plays VCS) is `batch_replay`'s `packed_1_lane`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use strober_cores::{build_core, CoreConfig};
use strober_sim::{NaiveInterpreter, Simulator};

fn bench_engines(c: &mut Criterion) {
    let design = build_core(&CoreConfig::rok_tiny());

    let mut group = c.benchmark_group("sim_speed");
    group.throughput(Throughput::Elements(256));

    group.bench_function("tape_rtl_256_cycles", |b| {
        let mut sim = Simulator::new(&design).expect("core");
        b.iter(|| {
            sim.step_n(256);
            black_box(sim.cycle());
        });
    });

    group.bench_function("naive_interp_256_cycles", |b| {
        let mut sim = NaiveInterpreter::new(&design).expect("core");
        b.iter(|| {
            sim.step_n(256);
            black_box(sim.cycle());
        });
    });

    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
