//! Warm-start correctness: a session served from the artifact store must
//! be indistinguishable — bit for bit — from one prepared cold.

use std::path::{Path, PathBuf};
use strober::{HubEngine, StroberConfig, StroberFlow};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_isa::{assemble, programs};
use strober_store::Store;

struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(label: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("strober-core-cache-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn small_config() -> StroberConfig {
    StroberConfig {
        replay_length: 64,
        sample_size: 8,
        ..StroberConfig::default()
    }
}

/// Runs the full sampled flow and returns the estimate's raw bits.
fn estimate_bits(flow: &StroberFlow, image: &[u32]) -> (u64, usize) {
    let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
    dram.load(image, 0);
    let run = flow.run_sampled(&mut dram, 2_000_000).expect("sampled run");
    assert!(dram.exit_code().is_some(), "workload must halt");
    let results = flow
        .replay_all(&run.snapshots, StroberFlow::default_parallelism())
        .expect("replays succeed");
    let estimate = flow.estimate(&run, &results).expect("estimate");
    (estimate.mean_power_mw().to_bits(), results.len())
}

#[test]
fn warm_session_estimate_is_bit_identical_to_cold() {
    let dir = TempDir::new("bit_identical");
    let mut store = Store::open(dir.path()).unwrap();

    let design = build_core(&CoreConfig::rok_tiny());
    let src = programs::dhrystone(40);
    let image = assemble(&src).unwrap();

    let (cold, cold_hit) =
        StroberFlow::prepare_cached(&design, small_config(), &mut store).unwrap();
    assert!(!cold_hit, "first preparation must miss");

    let (warm, warm_hit) =
        StroberFlow::prepare_cached(&design, small_config(), &mut store).unwrap();
    assert!(warm_hit, "second preparation must hit");

    let snap = store.metrics();
    assert_eq!(
        (
            snap.counter("strober.store.hits"),
            snap.counter("strober.store.misses")
        ),
        (Some(1), Some(1))
    );

    // The cached artifacts must reproduce preparation exactly.
    assert_eq!(
        warm.synth().netlist.gates().len(),
        cold.synth().netlist.gates().len()
    );
    assert_eq!(warm.name_map(), cold.name_map());
    assert_eq!(warm.fame().meta.to_json(), cold.fame().meta.to_json());

    // Same seed, same design, same workload: the estimate must not drift
    // by even one ulp between a cold and a warm session.
    let (cold_bits, cold_replays) = estimate_bits(&cold, &image.words);
    let (warm_bits, warm_replays) = estimate_bits(&warm, &image.words);
    assert_eq!(cold_replays, warm_replays);
    assert_eq!(
        cold_bits, warm_bits,
        "warm estimate must be bit-identical to cold"
    );
}

#[test]
fn fingerprint_tracks_design_and_config() {
    let design = build_core(&CoreConfig::rok_tiny());
    let base = StroberFlow::prepare_fingerprint(&design, &small_config());
    assert_eq!(
        StroberFlow::prepare_fingerprint(&design, &small_config()),
        base,
        "fingerprint is deterministic"
    );

    let longer_window = StroberConfig {
        replay_length: 128,
        ..small_config()
    };
    assert_ne!(
        StroberFlow::prepare_fingerprint(&design, &longer_window),
        base,
        "config changes change the key"
    );

    let other_design = build_core(&CoreConfig::rok());
    assert_ne!(
        StroberFlow::prepare_fingerprint(&other_design, &small_config()),
        base,
        "design changes change the key"
    );

    let with_warmup = StroberConfig {
        warmup: 4,
        ..small_config()
    };
    assert_ne!(
        StroberFlow::prepare_fingerprint(&design, &with_warmup),
        base,
        "the warmup prefix is part of the FAME window"
    );

    // Knobs preparation never reads stay out of the key.
    assert_eq!(
        StroberFlow::prepare_fingerprint(&design, &run_only_variant()),
        base,
        "seed, sample size, frequency and engine do not re-prepare"
    );
}

/// `small_config()` with every run-only knob changed.
fn run_only_variant() -> StroberConfig {
    let mut config = StroberConfig {
        seed: 2,
        sample_size: 5,
        freq_hz: 2.0e9,
        ..small_config()
    };
    config.platform.hub_engine = HubEngine::Jit;
    config
}

#[test]
fn run_only_knobs_hit_the_store() {
    let dir = TempDir::new("run_only");
    let mut store = Store::open(dir.path()).unwrap();
    let design = build_core(&CoreConfig::rok_tiny());

    let (_, hit) = StroberFlow::prepare_cached(&design, small_config(), &mut store).unwrap();
    assert!(!hit, "first preparation must miss");
    let (flow, hit) = StroberFlow::prepare_cached(&design, run_only_variant(), &mut store).unwrap();
    assert!(hit, "a new seed or engine must not redo FAME/synth/formal");
    // The session still runs under the configuration it was asked for.
    assert_eq!(flow.config().seed, 2);
    assert_eq!(flow.config().platform.hub_engine, HubEngine::Jit);
}
