//! Golden equivalence of the JIT-compiled native settle engine on real
//! processor cores and their FAME1 hubs.
//!
//! The randomized sweep lives in `strober-sim`'s own test suite; this one
//! drives the actual workloads the native engine compiles — a bundled
//! core design and its FAME1-transformed hub (scan chains, trace buffers,
//! fire gating) — checking bit-identical step behavior against the
//! interpreted tape. A flow-level run proves the whole sampled pipeline
//! (reservoir draws, scanned snapshots, traced windows) is unchanged by
//! the engine choice, and a store round-trip proves the second session
//! for the same fingerprint never invokes `rustc`.
//!
//! Every case skips (with a printed reason) when no `rustc` is on
//! `PATH` — the same condition under which the production fallback
//! ladder reverts to the interpreter.

use strober::{HubEngine, StroberConfig, StroberFlow};
use strober_cores::{build_core, CoreConfig};
use strober_fame::{transform, FameConfig};
use strober_jit::{rustc_version, JitCompiler};
use strober_platform::{HostModel, OutputView, PlatformConfig};
use strober_rtl::Design;
use strober_sim::Simulator;
use strober_store::Store;

const CYCLES: u64 = 256;

/// Deterministic per-(port, cycle) stimulus (splitmix64 finalizer).
fn stim(port: usize, cycle: u64) -> u64 {
    let mut z = (port as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// True (with a printed reason) when the JIT cases cannot run here.
fn skip() -> bool {
    if rustc_version().is_none() {
        println!("skipping: no rustc on PATH (the production fallback case)");
        return true;
    }
    false
}

/// A scratch directory unique to this test binary invocation, empty at
/// first and removed on drop, so a run leaves nothing in the temp
/// directory.
struct Scratch(std::path::PathBuf);

fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir()
        .join("strober-jit-golden")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Scratch(dir)
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Steps the design for [`CYCLES`] on the interpreted tape and with the
/// native engine attached, comparing every output every cycle plus the
/// final state.
fn assert_jit_transparent(label: &str, design: &Design) {
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let outputs: Vec<String> = design.outputs().iter().map(|(n, _)| n.clone()).collect();

    let mut golden = Simulator::new(design).expect("valid");
    let mut trace: Vec<Vec<u64>> = Vec::new();
    for cycle in 0..CYCLES {
        for (i, (name, mask)) in ports.iter().enumerate() {
            golden
                .poke_by_name(name, stim(i, cycle) & mask)
                .expect("port");
        }
        trace.push(
            outputs
                .iter()
                .map(|o| golden.peek_output(o).expect("output"))
                .collect(),
        );
        golden.step();
    }
    let golden_state = golden.state();

    let mut sim = Simulator::new(design).expect("valid");
    let outcome = JitCompiler::in_temp().attach(&mut sim).expect("jit attach");
    assert_eq!(sim.active_engine_name(), "tape-jit");
    // The generated crate is `#![no_std]`: the dylib is its own code and
    // a seal, 13-20 KB for the bundled hubs. 4.3 MB means std is back.
    let bytes = std::fs::metadata(&outcome.dylib_path).expect("dylib").len();
    assert!(bytes < 64 * 1024, "{label}: settle dylib is {bytes} bytes");
    for cycle in 0..CYCLES {
        for (i, (name, mask)) in ports.iter().enumerate() {
            sim.poke_by_name(name, stim(i, cycle) & mask).expect("port");
        }
        for (oi, o) in outputs.iter().enumerate() {
            assert_eq!(
                sim.peek_output(o).expect("output"),
                trace[cycle as usize][oi],
                "{label}, jit engine: output `{o}` diverged at cycle {cycle}"
            );
        }
        sim.step();
    }
    assert_eq!(
        sim.state(),
        golden_state,
        "{label}, jit engine: final state diverged"
    );
}

#[test]
fn jit_is_transparent_on_the_rok_core() {
    if skip() {
        return;
    }
    assert_jit_transparent("rok_tiny", &build_core(&CoreConfig::rok_tiny()));
}

#[test]
fn jit_is_transparent_on_the_boum_core() {
    if skip() {
        return;
    }
    assert_jit_transparent("boum_tiny", &build_core(&CoreConfig::boum_tiny(1)));
}

#[test]
fn jit_is_transparent_on_the_fame1_hub() {
    if skip() {
        return;
    }
    // The hub is what the native engine is for: scan-chain
    // padding cats, capture/shift mux cascades, fire gating.
    let design = build_core(&CoreConfig::rok_tiny());
    let fame = transform(&design, &FameConfig::default()).expect("transform");
    assert_jit_transparent("rok_tiny fame1 hub", &fame.hub);
}

#[test]
fn jit_is_transparent_and_small_on_the_full_size_hubs() {
    if skip() {
        return;
    }
    // The two cores the ledger runs, each as the free-run hub `auto`
    // compiles for `--core rok` and `--core boum-2w` at the default
    // window, and as the full hub the shifted capture reference runs.
    for (label, core) in [
        ("rok", CoreConfig::rok()),
        ("boum-2w", CoreConfig::boum_2w()),
    ] {
        let fame = transform(&build_core(&core), &FameConfig::default()).expect("transform");
        let free_run = fame.free_run().expect("free-run hub");
        assert_jit_transparent(&format!("{label} free-run hub"), &free_run);
        assert_jit_transparent(&format!("{label} full fame1 hub"), &fame.hub);
    }
}

struct NoIo;
impl HostModel for NoIo {
    fn tick(&mut self, _c: u64, _io: &mut OutputView<'_>) {}
}

fn sampled_config(hub_engine: HubEngine) -> StroberConfig {
    StroberConfig {
        sample_size: 4,
        replay_length: 16,
        warmup: 0,
        platform: PlatformConfig {
            hub_engine,
            ..PlatformConfig::default()
        },
        ..StroberConfig::default()
    }
}

#[test]
fn sampled_flow_is_identical_across_hub_engines() {
    // End-to-end regression for `--hub-engine`: the full sampled run —
    // reservoir draws, scanned snapshots, traced windows — must not
    // change with the settle engine. (The `interp` baseline runs even
    // without rustc; the native arms are the skippable part.)
    let design = build_core(&CoreConfig::rok_tiny());
    let run_with = |hub_engine: HubEngine| {
        let flow = StroberFlow::new(&design, sampled_config(hub_engine)).expect("prepare");
        let run = flow.run_sampled(&mut NoIo, 20_000).expect("sampled run");
        (run, flow.hub_engine_name())
    };
    let (interpreted, engine) = run_with(HubEngine::Interp);
    assert_eq!(engine, "tape");
    if skip() {
        return;
    }
    for native in [HubEngine::Auto, HubEngine::Jit] {
        let (run, engine) = run_with(native);
        assert_eq!(engine, "tape-jit", "`{native}` runs native code");
        assert_eq!(
            interpreted.snapshots, run.snapshots,
            "the `{native}` settle engine changed the sampled snapshots"
        );
    }
}

#[test]
fn second_flow_for_the_same_fingerprint_skips_rustc() {
    if skip() {
        return;
    }
    // Warm-start through the artifact store: the first session compiles
    // (provenance `cold`) and persists the dylib; a second session for
    // the same tape signature + rustc version attaches
    // from the stored bytes (`store`) without ever invoking rustc — even
    // with the compiler's own file cache wiped.
    let design = build_core(&CoreConfig::rok_tiny());
    let scratch = scratch("store");
    let root = scratch.0.clone();
    let mut store = Store::open(&root).expect("store");

    let first = StroberFlow::new(&design, sampled_config(HubEngine::Jit)).expect("prepare");
    let (provenance, cold_ms) = first
        .prepare_jit(Some(&mut store))
        .expect("jit prepare with rustc present");
    assert_eq!(provenance, "cold", "fresh store must compile");
    assert_eq!(first.hub_engine_name(), "tape-jit");
    drop(first);

    // Wipe the content-addressed file cache so only the store can
    // satisfy the second prepare without a compile.
    std::fs::remove_dir_all(root.join("jit")).expect("wipe file cache");

    let second = StroberFlow::new(&design, sampled_config(HubEngine::Jit)).expect("prepare");
    let (provenance, compile_ms) = second
        .prepare_jit(Some(&mut store))
        .expect("jit prepare from store");
    assert_eq!(
        provenance, "store",
        "second prepare for the same fingerprint must reuse the stored dylib"
    );
    // Store hits report the original compile's wall time as provenance
    // (nothing was compiled now — `rustc` never ran).
    assert_eq!(
        compile_ms, cold_ms,
        "store hits carry the cold compile's wall time"
    );
    assert_eq!(second.hub_engine_name(), "tape-jit");

    // And the restored engine actually runs the sampled flow.
    let outcome = second.run_sampled(&mut NoIo, 20_000).expect("sampled run");
    assert!(!outcome.snapshots.is_empty());

    // The store and its dylib cache go with the scratch directory: a
    // second run of this test adds no files.
    drop((second, store, scratch));
    assert!(!root.exists(), "{} outlived the test", root.display());
}
