//! Table III — simulation performance with and without sampling on the
//! two-way Boum processor.
//!
//! Two sections:
//! 1. **Paper scale (modelled)** — the paper's own cycle counts (0.5, 3.92
//!    and 73.39 billion cycles) with record counts drawn from the *exact*
//!    reservoir process (skip-based simulation) and times from the
//!    platform cost model with the paper's constants.
//! 2. **Scaled (measured)** — the bundled workloads run end-to-end on this
//!    machine, with and without sampling on one session's hub, reporting
//!    both measured host wall-clock and modelled platform time.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use strober::{StroberConfig, StroberFlow};
use strober_bench::{fmt_u64, Workload, MEM_BYTES};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_fame::{transform, FameConfig};
use strober_platform::PlatformConfig;
use strober_sampling::RecordCountSim;

fn main() {
    let cfg = PlatformConfig::default();

    // ---- paper scale, modelled -----------------------------------------------
    println!("Table III (paper scale, modelled): Boum-2w, n = 100, L = 1000");
    println!(
        "{:<12} {:>14} {:>9} {:>15} {:>15}",
        "benchmark", "cycles (1e9)", "records", "with sampling", "w/o sampling"
    );
    let paper_rows: &[(&str, f64, u64, f64, f64)] = &[
        // name, cycles 1e9, paper records, paper with (min), paper without (min)
        ("LinuxBoot", 0.5, 980, 12.88, 3.68),
        ("Coremark", 3.92, 1116, 32.80, 11.00),
        ("gcc", 73.39, 1497, 344.00, 312.25),
    ];
    // Snapshot capture cost on the real Boum-2w hub.
    let design = build_core(&CoreConfig::boum_2w());
    let fame = transform(
        &design,
        &FameConfig {
            replay_length: 1000,
            warmup: 0,
        },
    )
    .expect("transform");
    let capture_cycles = fame.meta.snapshot_capture_cycles() + 1000;
    let mut rng = StdRng::seed_from_u64(3);
    let sim = RecordCountSim::new(100);
    for &(name, giga, paper_records, paper_with, paper_without) in paper_rows {
        let cycles = (giga * 1e9) as u64;
        let windows = cycles / 1000;
        let records = sim.simulate_records(windows, &mut rng);
        let syncs = cycles / cfg.sync_period;
        let base_s = (cycles + syncs * cfg.sync_penalty_cycles) as f64 / cfg.raw_clock_hz;
        let with_s = base_s
            + records as f64
                * (cfg.record_fixed_seconds + capture_cycles as f64 / cfg.raw_clock_hz);
        println!(
            "{:<12} {:>14.2} {:>9} {:>9.2} min {:>9.2} min   (paper: {} rec, {:.2}/{:.2} min)",
            name,
            giga,
            records,
            with_s / 60.0,
            base_s / 60.0,
            paper_records,
            paper_with,
            paper_without
        );
    }

    // ---- scaled, measured --------------------------------------------------------
    println!();
    println!("Table III (scaled workloads, measured on this machine): Boum-2w, n = 30, L = 128");
    println!(
        "{:<12} {:>12} {:>9} {:>12} {:>12} {:>11} {:>11}",
        "benchmark", "cycles", "records", "with (wall)", "w/o (wall)", "with (mod)", "w/o (mod)"
    );
    let flow = StroberFlow::new(
        &design,
        StroberConfig {
            replay_length: 128,
            sample_size: 30,
            ..StroberConfig::default()
        },
    )
    .expect("flow");
    // Resolve the settle engine before timing: both columns then time the
    // same hub under the same engine.
    flow.prepare_jit(None);
    for w in Workload::CASE_STUDY {
        let image = w.image();

        // With sampling.
        let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
        dram.load(&image, 0);
        let t0 = Instant::now();
        let run = flow.run_sampled(&mut dram, 200_000_000).expect("run");
        let with_wall = t0.elapsed().as_secs_f64();
        assert!(dram.exit_code().is_some(), "{} must halt", w.name());

        // Without sampling: a whole run on the same session's hub.
        let mut dram2 = DramModel::new(DramConfig::default(), MEM_BYTES);
        dram2.load(&image, 0);
        let t0 = Instant::now();
        let without = flow.run(&mut dram2, 200_000_000).expect("run");
        let without_wall = t0.elapsed().as_secs_f64();

        println!(
            "{:<12} {:>12} {:>9} {:>10.2}s {:>10.2}s {:>10.3}s {:>10.3}s",
            w.name(),
            fmt_u64(run.target_cycles),
            run.records,
            with_wall,
            without_wall,
            run.stats.modeled_seconds,
            without.modeled_seconds,
        );
    }
    println!();
    println!("Shape checks: record counts grow only logarithmically with length;");
    println!("the sampling overhead shrinks relatively as runs get longer.");
}
