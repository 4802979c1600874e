//! Whole-workload runs through `StroberFlow::run`, held to pinned values.
//!
//! `strober run`, `table4`, `fig7`, `speedup` and `dram_explore` all run
//! a workload to completion on a session's free-run hub. The pinned
//! `(cycles, instret, exit code)` below are what the bare core printed
//! for every bundled core × workload when it was simulated directly, tape
//! interpreted, the DRAM model ticked on every cycle; none of the 36 runs
//! wrote to the console. The hub must end every run on the same cycle
//! with the same architectural results, under either settle engine.

use strober::{HubEngine, PreparedArtifact, StroberConfig, StroberFlow};
use strober_bench::{Workload, MEM_BYTES};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};

/// `(core, workload, cycles, instret, exit code)`.
type Pin = (&'static str, &'static str, u64, u64, u32);

#[rustfmt::skip]
const PINNED: [Pin; 36] = [
    ("rok-tiny", "vvadd", 205_123, 14_101, 0x0d1b_c000),
    ("rok-tiny", "towers", 331_031, 245_742, 0x0000_3fff),
    ("rok-tiny", "dhrystone", 371_400, 204_797, 0x158b_b928),
    ("rok-tiny", "qsort", 253_604, 105_737, 0x000f_4240),
    ("rok-tiny", "spmv", 1_106_458, 80_157, 0xf5cf_a818),
    ("rok-tiny", "dgemm", 3_876_359, 681_825, 0xb786_46f0),
    ("rok-tiny", "coremark", 976_213, 101_246, 0x0a92_d8be),
    ("rok-tiny", "linux-boot", 321_632, 79_617, 0xb345_319c),
    ("rok-tiny", "gcc", 7_845_781, 958_471, 0x614a_a755),
    ("rok", "vvadd", 205_123, 14_101, 0x0d1b_c000),
    ("rok", "towers", 331_031, 245_742, 0x0000_3fff),
    ("rok", "dhrystone", 371_400, 204_797, 0x158b_b928),
    ("rok", "qsort", 169_796, 105_737, 0x000f_4240),
    ("rok", "spmv", 1_010_730, 80_157, 0xf5cf_a818),
    ("rok", "dgemm", 1_423_399, 681_825, 0xb786_46f0),
    ("rok", "coremark", 131_453, 101_246, 0x0a92_d8be),
    ("rok", "linux-boot", 232_696, 79_617, 0xb345_319c),
    ("rok", "gcc", 4_326_245, 958_471, 0x614a_a755),
    ("boum-1w", "vvadd", 200_165, 14_101, 0x0d1b_c000),
    ("boum-1w", "towers", 310_526, 245_742, 0x0000_3fff),
    ("boum-1w", "dhrystone", 320_829, 204_797, 0x158b_b928),
    ("boum-1w", "qsort", 169_398, 105_737, 0x000f_4240),
    ("boum-1w", "spmv", 983_287, 80_157, 0xf5cf_a818),
    ("boum-1w", "dgemm", 1_185_028, 681_825, 0xb786_46f0),
    ("boum-1w", "coremark", 116_572, 101_246, 0x0a92_d8be),
    ("boum-1w", "linux-boot", 210_886, 79_617, 0xb345_319c),
    ("boum-1w", "gcc", 4_346_450, 958_471, 0x614a_a755),
    ("boum-2w", "vvadd", 196_947, 14_101, 0x0d1b_c000),
    ("boum-2w", "towers", 267_468, 245_742, 0x0000_3fff),
    ("boum-2w", "dhrystone", 264_788, 204_797, 0x158b_b928),
    ("boum-2w", "qsort", 162_078, 105_737, 0x000f_4240),
    ("boum-2w", "spmv", 970_205, 80_157, 0xf5cf_a818),
    ("boum-2w", "dgemm", 1_133_344, 681_825, 0xb786_46f0),
    ("boum-2w", "coremark", 98_239, 101_246, 0x0a92_d8be),
    ("boum-2w", "linux-boot", 194_512, 79_617, 0xb345_319c),
    ("boum-2w", "gcc", 4_270_453, 958_471, 0x614a_a755),
];

fn core_config(name: &str) -> CoreConfig {
    match name {
        "rok-tiny" => CoreConfig::rok_tiny(),
        "rok" => CoreConfig::rok(),
        "boum-1w" => CoreConfig::boum_1w(),
        "boum-2w" => CoreConfig::boum_2w(),
        other => panic!("unknown core {other}"),
    }
}

fn image(workload: &str) -> Vec<u32> {
    Workload::MICRO
        .iter()
        .chain(&Workload::CASE_STUDY)
        .find(|w| w.name() == workload)
        .unwrap_or_else(|| panic!("unknown workload {workload}"))
        .image()
}

/// A second session over `flow`'s prepared parts, with the hub engine
/// forced to `engine`.
fn with_engine(flow: &StroberFlow, engine: HubEngine) -> StroberFlow {
    let mut config = flow.config().clone();
    config.platform.hub_engine = engine;
    StroberFlow::from_parts(
        config,
        PreparedArtifact {
            fame: flow.fame().clone(),
            synth: flow.synth().clone(),
            name_map: flow.name_map().clone(),
        },
    )
}

/// Runs every pin of one core on `flow` and compares it.
fn check(flow: &StroberFlow, pins: &[Pin]) {
    for &(core, workload, cycles, instret, exit_code) in pins {
        let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
        dram.load(&image(workload), 0);
        let stats = flow.run(&mut dram, 50_000_000).expect("run");
        let engine = flow.hub_engine_name();
        let got = (stats.target_cycles, dram.instret(), dram.exit_code());
        assert_eq!(
            got,
            (cycles, instret, Some(exit_code)),
            "{core}/{workload} on {engine}: (cycles, instret, exit code)"
        );
        assert!(
            dram.console().is_empty(),
            "{core}/{workload} on {engine}: console"
        );
    }
}

#[test]
fn rok_tiny_whole_runs_match_the_pins_on_both_engines() {
    let pins: Vec<Pin> = PINNED
        .iter()
        .copied()
        .filter(|p| p.0 == "rok-tiny" && matches!(p.1, "vvadd" | "qsort"))
        .collect();
    assert_eq!(pins.len(), 2);
    let design = build_core(&CoreConfig::rok_tiny());
    // The default engine: native when a `rustc` is at hand, else the tape.
    let flow = StroberFlow::new(&design, StroberConfig::default()).expect("session");
    check(&flow, &pins);
    let interp = with_engine(&flow, HubEngine::Interp);
    check(&interp, &pins);
    assert_eq!(interp.hub_engine_name(), "tape");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "36 whole workloads, ~100 M target cycles in all: minutes \
              on an unoptimized interpreter. CI runs this test with --release."
)]
fn every_core_and_workload_matches_the_pins() {
    for core in ["rok-tiny", "rok", "boum-1w", "boum-2w"] {
        let pins: Vec<Pin> = PINNED.iter().copied().filter(|p| p.0 == core).collect();
        let design = build_core(&core_config(core));
        let flow = StroberFlow::new(&design, StroberConfig::default()).expect("session");
        check(&flow, &pins);
    }
}
