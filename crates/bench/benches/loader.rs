//! The §IV-C2 snapshot-loading contrast: the script-driven console loader
//! vs the VPI-style bulk loader. Both load identical state; this bench
//! measures the real in-process apply cost of a one-lane load, and the
//! binary output of the run also reports the *modelled* 400 vs 20 000
//! commands/second gap.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use strober_cores::{build_core, CoreConfig};
use strober_gatesim::{BatchSim, ScriptLoader, Tape, VpiLoader};
use strober_synth::{synthesize, SynthOptions};

fn bench_loaders(c: &mut Criterion) {
    let design = build_core(&CoreConfig::rok_tiny());
    let synth = synthesize(&design, &SynthOptions::default()).expect("synth");
    let tape = Arc::new(Tape::compile(&synth.netlist).expect("netlist"));
    let sim = || BatchSim::with_tape_lanes(Arc::clone(&tape), &synth.netlist, 1).expect("lanes");

    // A full register-state load: every DFF of the core, by index.
    let dff_words: Vec<(usize, u64)> = synth
        .netlist
        .dffs()
        .enumerate()
        .map(|(i, (_, name, _, _, _))| {
            let dff = tape.dff_index(name).expect("flip-flop");
            (dff, u64::from(i % 3 == 0))
        })
        .collect();

    let mut group = c.benchmark_group("state_loading");
    group.throughput(Throughput::Elements(dff_words.len() as u64));

    group.bench_function("vpi_bulk_loader", |b| {
        let mut sim = sim();
        b.iter(|| {
            let stats = VpiLoader::load_batch(&mut sim, &dff_words, &[]).expect("load");
            black_box(stats.commands);
        });
    });

    group.bench_function("script_loader", |b| {
        let mut sim = sim();
        b.iter(|| {
            let stats = ScriptLoader::load_batch(&mut sim, &dff_words, &[]).expect("load");
            black_box(stats.commands);
        });
    });

    group.finish();

    // Report the modelled wall-clock contrast once (the paper's numbers).
    let mut sim = sim();
    let script = ScriptLoader::load_batch(&mut sim, &dff_words, &[]).expect("load");
    let vpi = VpiLoader::load_batch(&mut sim, &dff_words, &[]).expect("load");
    eprintln!(
        "modelled load time for {} commands: script {:.1} s vs VPI {:.3} s ({}x)",
        script.commands,
        script.modeled_seconds,
        vpi.modeled_seconds,
        (script.modeled_seconds / vpi.modeled_seconds) as u64
    );
}

criterion_group!(benches, bench_loaders);
criterion_main!(benches);
