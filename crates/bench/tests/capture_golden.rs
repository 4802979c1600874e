//! Golden equivalence of the two snapshot capture paths on the bundled
//! cores.
//!
//! `ZynqHost::capture_snapshot` reads state and traces straight out of
//! the hub simulator and books the scan cost by arithmetic;
//! `capture_snapshot_shifted` drives the scan chains, memory scanners and
//! trace read port the FAME transform built. Production runs only the
//! first, and on a different design: the free-run hub, whose scan and
//! readout logic is tied off. So this suite is what keeps it honest: on
//! the Rok and Boum-2w hubs, on both settle engines, with and without a
//! warmup prefix, a free-run host and a full-hub host fed the same
//! stimulus capture at the same cycles, one directly and one by
//! shifting, and must agree on every snapshot, on the platform
//! statistics to the bit, and on the target state they leave behind.
//!
//! The JIT cases skip (with a printed reason) when no `rustc` is on
//! `PATH`, like `jit_golden.rs`.

use strober_cores::{build_core, CoreConfig};
use strober_dsl::Ctx;
use strober_fame::{transform, FameConfig, FameResult};
use strober_platform::{HostModel, HubEngine, OutputView, PlatformConfig, TargetInput, ZynqHost};
use strober_rtl::{Design, Width};

/// Drives every target input with a deterministic per-(port, cycle)
/// value (splitmix64 finalizer), so the core's state keeps moving without
/// a memory system behind it.
struct Stim {
    ports: Vec<(String, u64)>,
    handles: Option<Vec<TargetInput>>,
}

impl Stim {
    fn new(target: &Design) -> Self {
        Stim {
            ports: target
                .ports()
                .iter()
                .map(|p| (p.name().to_owned(), p.width().mask()))
                .collect(),
            handles: None,
        }
    }
}

impl HostModel for Stim {
    fn tick(&mut self, cycle: u64, io: &mut OutputView<'_>) {
        let ports = &self.ports;
        let handles = self
            .handles
            .get_or_insert_with(|| ports.iter().map(|(n, _)| io.input(n)).collect());
        for (i, (&h, (_, mask))) in handles.iter().zip(ports).enumerate() {
            let mut z = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            io.write(h, (z ^ (z >> 31)) & mask);
        }
    }
}

const REPLAY_LENGTH: u32 = 48;

/// Free-running target cycles before each capture: the very first window,
/// three back-to-back captures, then assorted gaps. With a 64-deep trace
/// ring and a 48- or 56-cycle window most of these wrap the ring and the
/// first does not; `assert_paths_agree` checks both happen.
const GAPS: [u64; 8] = [0, 0, 0, 5, 100, 17, 1, 300];

fn engines() -> Vec<HubEngine> {
    if strober_jit::rustc_version().is_some() {
        vec![HubEngine::Interp, HubEngine::Jit]
    } else {
        println!("skipping the jit cases: no rustc on PATH");
        vec![HubEngine::Interp]
    }
}

fn assert_paths_agree(label: &str, target: &Design) {
    for warmup in [0, 8] {
        let fame = transform(
            target,
            &FameConfig {
                replay_length: REPLAY_LENGTH,
                warmup,
            },
        )
        .expect("transform");
        let (window, depth) = (
            u64::from(REPLAY_LENGTH + warmup),
            fame.meta.trace_depth as u64,
        );
        for engine in engines() {
            let case = format!("{label}, warmup {warmup}, {engine}");
            let cfg = PlatformConfig {
                hub_engine: engine,
                ..PlatformConfig::default()
            };
            let (mut direct, mut direct_model) = (
                ZynqHost::new(&fame, cfg.clone()).expect("free-run host"),
                Stim::new(target),
            );
            let (mut shifted, mut shifted_model) = (
                ZynqHost::full_hub(&fame, cfg).expect("full-hub host"),
                Stim::new(target),
            );
            assert!(direct.capture_snapshot_shifted(&mut direct_model).is_err());
            let (mut wrapped, mut unwrapped) = (false, false);
            for (i, gap) in GAPS.into_iter().enumerate() {
                direct.run(&mut direct_model, gap).expect("run");
                shifted.run(&mut shifted_model, gap).expect("run");
                let a = direct.capture_snapshot(&mut direct_model).expect("direct");
                let b = shifted
                    .capture_snapshot_shifted(&mut shifted_model)
                    .expect("shifted");
                if i == 0 {
                    assert_eq!(a.cycle, u64::from(warmup), "{case}: first window");
                }
                assert_eq!(a.trace_len() as u64, window, "{case}: capture {i}");
                assert!(a == b, "{case}: capture {i} at cycle {} differs", a.cycle);
                if (a.cycle - u64::from(warmup)) % depth + window > depth {
                    wrapped = true;
                } else {
                    unwrapped = true;
                }
            }
            assert!(wrapped && unwrapped, "{case}: ring wrap coverage");

            let (sa, sb) = (direct.stats(), shifted.stats());
            assert_eq!(sa, sb, "{case}: platform statistics");
            assert_eq!(
                (sa.modeled_seconds.to_bits(), sa.effective_hz.to_bits()),
                (sb.modeled_seconds.to_bits(), sb.effective_hz.to_bits()),
                "{case}: modelled time"
            );
            // Neither path perturbed the target: after a further stretch
            // the free-run host's storage holds what the full hub's scan
            // chains shift out.
            direct.run(&mut direct_model, 40).expect("run");
            shifted.run(&mut shifted_model, 40).expect("run");
            let a = direct.capture_snapshot(&mut direct_model).expect("readout");
            let b = shifted
                .capture_snapshot_shifted(&mut shifted_model)
                .expect("readout");
            assert!(a == b, "{case}: final target state differs");
        }
    }
}

#[test]
fn capture_paths_agree_on_rok() {
    assert_paths_agree("rok", &build_core(&CoreConfig::rok()));
}

#[test]
fn capture_paths_agree_on_boum_2w() {
    assert_paths_agree("boum-2w", &build_core(&CoreConfig::boum_2w()));
}

fn w(bits: u32) -> Width {
    Width::new(bits).expect("width")
}

/// Two registers, no memory: the scan is the chain alone.
fn no_memory() -> Design {
    let ctx = Ctx::new("nomem");
    let x = ctx.input("x", w(8));
    let a = ctx.reg("a", w(8), 0);
    let b = ctx.reg("b", w(16), 3);
    a.set(&x);
    b.set(&(&b.out() + &a.out().zext(w(16))));
    ctx.output("y", &b.out());
    ctx.finish().expect("design")
}

/// Two memories of unequal depth: they stream side by side, so the
/// deeper one sets the cost.
fn two_memories() -> Design {
    let ctx = Ctx::new("twomem");
    let x = ctx.input("x", w(8));
    let wa = ctx.reg("wa", w(6), 0);
    wa.set(&wa.out().add_lit(1));
    let small = ctx.mem("small", w(8), 4);
    let large = ctx.mem("large", w(8), 40);
    small.write(&wa.out().bits(1, 0), &x, &ctx.lit1(true));
    large.write(&wa.out(), &x, &ctx.lit1(true));
    ctx.output(
        "y",
        &(&small.read(&wa.out().bits(1, 0)) ^ &large.read(&wa.out())),
    );
    ctx.finish().expect("design")
}

/// What one shifted capture adds to `scan_overhead_cycles`.
fn measured_capture_cycles(fame: &FameResult, target: &Design) -> u64 {
    let mut host = ZynqHost::full_hub(fame, PlatformConfig::default()).expect("host");
    let mut model = Stim::new(target);
    host.run(&mut model, 10).expect("run");
    host.capture_snapshot_shifted(&mut model).expect("shifted");
    host.stats().scan_overhead_cycles
}

#[test]
fn capture_cost_formula_is_what_the_shifted_protocol_spends() {
    let config = FameConfig {
        replay_length: 16,
        warmup: 4,
    };
    for (label, target) in [
        ("rok", build_core(&CoreConfig::rok())),
        ("boum-2w", build_core(&CoreConfig::boum_2w())),
        ("no memory", no_memory()),
        ("two memories", two_memories()),
    ] {
        let fame = transform(&target, &config).expect("transform");
        assert_eq!(
            fame.meta.snapshot_capture_cycles() + 20,
            measured_capture_cycles(&fame, &target),
            "{label}: snapshot_capture_cycles() + the 20 traced cycles"
        );
    }
    let fame = transform(&two_memories(), &config).expect("transform");
    // 1 strobe + 1 register + 1 counter reset + the deeper memory's 40 words.
    assert_eq!(fame.meta.snapshot_capture_cycles(), 43);
}
