//! Quiet runs on a real core: a [`ZynqHost`] that clocks the cycles the
//! [`DramModel`] declares quiet without ticking it must leave exactly what
//! ticking every cycle leaves — snapshots, [`PlatformStats`],
//! [`DramCounters`], console, `instret`, `tohost`, the exit code and every
//! target output — on both hub engines.
//!
//! The per-cycle twin wraps the same model in a [`HostModel`] that keeps
//! the trait's defaults, so `ZynqHost` ticks it on every cycle. Segment
//! lengths are uneven so that `run` and capture segments end in the middle
//! of quiet runs, and one capture runs after the program has halted, when
//! the `tohost` guard fires on every cycle.
//!
//! The probe registry is process-wide, so the cases run in one test.

use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramCounters, DramModel};
use strober_fame::{transform, FameConfig, FameResult, FameSnapshot};
use strober_isa::{assemble, programs};
use strober_platform::{HostModel, OutputView, PlatformConfig, PlatformStats, ZynqHost};
use strober_sim::Simulator;

/// Ticks the wrapped model on every cycle.
struct PerCycle<'m>(&'m mut DramModel);

impl HostModel for PerCycle<'_> {
    fn tick(&mut self, cycle: u64, io: &mut OutputView<'_>) {
        self.0.tick(cycle, io);
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }
}

/// Writes 24 console bytes, each after a load, before the workload proper,
/// so the console guard fires between quiet runs.
const CONSOLE_PREFIX: &str = r#"
    li   s3, 0x10000
    li   s4, 24
con_loop:
    lw   a0, 0(s3)
    addi a1, s4, 64
    out  a1
    addi s3, s3, 64
    addi s4, s4, -1
    bnez s4, con_loop
"#;

/// What a caller can observe after each segment.
#[derive(Debug, PartialEq)]
struct Segment {
    ran: u64,
    instret: u64,
    counters: DramCounters,
    console: usize,
}

/// Everything a caller can observe during and after a session.
#[derive(Debug, PartialEq)]
struct Observed {
    segments: Vec<Segment>,
    snapshots: Vec<FameSnapshot>,
    stats: PlatformStats,
    counters: DramCounters,
    console: Vec<u8>,
    instret: u64,
    tohost: Option<u64>,
    exit_code: Option<u32>,
    outputs: Vec<u64>,
}

/// Runs a program to completion in uneven `run` and capture segments,
/// then captures once more, ticking every cycle or not.
fn session(fame: &FameResult, hub: &Simulator, image: &[u32], quiet: bool) -> Observed {
    let mut host = ZynqHost::with_sim(fame, PlatformConfig::default(), hub.clone()).unwrap();
    let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
    dram.load(image, 0);
    let window = host.trace_window();
    let mut segments = Vec::new();
    let mut snapshots = Vec::new();
    let mut i = 0u64;
    while !dram.is_done() {
        assert!(host.target_cycles() < 2_000_000, "workload did not halt");
        let mut per_cycle = PerCycle(&mut dram);
        let model: &mut dyn HostModel = if quiet { &mut dram } else { &mut per_cycle };
        let ran = if i % 5 == 2 {
            snapshots.push(host.capture_snapshot(model).unwrap());
            window
        } else {
            host.run(model, window + i % 7).unwrap()
        };
        segments.push(Segment {
            ran,
            instret: dram.instret(),
            counters: *dram.counters(),
            console: dram.console().len(),
        });
        i += 1;
    }
    let mut per_cycle = PerCycle(&mut dram);
    let model: &mut dyn HostModel = if quiet { &mut dram } else { &mut per_cycle };
    snapshots.push(host.capture_snapshot(model).unwrap());
    let outputs = fame
        .free_run()
        .unwrap()
        .outputs()
        .iter()
        .map(|(name, _)| host.peek_output(name).unwrap())
        .collect();
    Observed {
        segments,
        snapshots,
        stats: host.stats(),
        counters: *dram.counters(),
        console: dram.console().to_vec(),
        instret: dram.instret(),
        tohost: dram.tohost(),
        exit_code: dram.exit_code(),
        outputs,
    }
}

fn quiet_cycles() -> u64 {
    strober_probe::snapshot()
        .counter("strober.platform.quiet_cycles")
        .unwrap_or(0)
}

#[test]
fn quiet_runs_on_rok_tiny_match_ticking_every_cycle() {
    strober_probe::enable();
    let fame = transform(
        &build_core(&CoreConfig::rok_tiny()),
        &FameConfig {
            replay_length: 32,
            warmup: 4,
        },
    )
    .unwrap();
    let interp = ZynqHost::lower_free_run(&fame).unwrap();
    let mut hubs = vec![("interp", interp.clone())];
    if strober_jit::rustc_version().is_some() {
        let mut native = interp.clone();
        strober_jit::JitCompiler::in_temp()
            .attach(&mut native)
            .expect("jit attach");
        hubs.push(("native", native));
    } else {
        println!("no rustc on PATH: checking the interpreted loop only");
    }
    for (name, source) in [
        ("vvadd", programs::vvadd(64)),
        ("qsort", programs::qsort(24)),
    ] {
        let image = assemble(&format!("{CONSOLE_PREFIX}{source}"))
            .unwrap()
            .words;
        for (engine, hub) in &hubs {
            let before = quiet_cycles();
            let quiet = session(&fame, hub, &image, true);
            let skipped = quiet_cycles() - before;
            let ticked = session(&fame, hub, &image, false);
            assert_eq!(
                quiet_cycles() - before,
                skipped,
                "{name}/{engine}: the per-cycle twin ran no quiet cycles"
            );
            // Field by field, so that a failure names what differs.
            assert_eq!(quiet.stats, ticked.stats, "{name}/{engine}");
            assert_eq!(quiet.segments, ticked.segments, "{name}/{engine}");
            assert!(
                quiet.snapshots == ticked.snapshots,
                "{name}/{engine}: snapshot {:?} differs",
                (0..quiet.snapshots.len())
                    .find(|&k| quiet.snapshots.get(k) != ticked.snapshots.get(k))
            );
            assert_eq!(quiet, ticked, "{name}/{engine}");
            assert_eq!(quiet.console.len(), 24, "{name}/{engine}: console");
            assert!(quiet.exit_code.is_some(), "{name}/{engine}: halted");
            assert!(
                skipped * 2 > quiet.stats.target_cycles,
                "{name}/{engine}: only {skipped} of {} cycles ran quiet",
                quiet.stats.target_cycles
            );
        }
    }
}
