//! The default hub engine is native. A session that says nothing about
//! engines (`HubEngine::Auto`) and never calls `prepare_jit` must end up
//! on compiled settle code, say how it got it, and agree with the
//! interpreted reference on every bit it produces; a damaged dylib in
//! its store must cost a recompile, never a wrong or slower answer; and
//! on a machine with no compiler it must interpret, say why, and stay
//! quiet about it — wanting the fastest engine *available* and getting
//! the interpreter is not a failure, asking for `jit` by name and not
//! getting it still is. A compiler that dies mid-compile, or hangs until
//! the compile deadline kills it, is the same case, and must leave
//! nothing half-written behind.

use std::process::Command;
use strober::{HubEngine, ReplayResult, SampledRun, StroberConfig, StroberFlow};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_isa::{assemble, programs};
use strober_rtl::Design;
use strober_store::Store;

fn config(hub_engine: HubEngine) -> StroberConfig {
    let mut config = StroberConfig {
        replay_length: 64,
        sample_size: 8,
        ..StroberConfig::default()
    };
    config.platform.hub_engine = hub_engine;
    config
}

fn target() -> (Design, Vec<u32>) {
    let image = assemble(&programs::dhrystone(40)).unwrap().words;
    (build_core(&CoreConfig::rok_tiny()), image)
}

/// Everything one estimate computes, floats as bits.
struct Outcome {
    run: SampledRun,
    results: Vec<ReplayResult>,
    mean_and_half_width: (u64, u64),
}

/// The whole flow on `flow`: sampled run, replay, estimate.
fn estimate(flow: &StroberFlow, image: &[u32]) -> Outcome {
    let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
    dram.load(image, 0);
    let run = flow.run_sampled(&mut dram, 2_000_000).expect("sampled run");
    assert!(dram.exit_code().is_some(), "workload must halt");
    let results = flow.replay_all(&run.snapshots, 2).expect("replays succeed");
    let estimate = flow.estimate(&run, &results).expect("estimate");
    Outcome {
        mean_and_half_width: (
            estimate.mean_power_mw().to_bits(),
            estimate.interval().half_width().to_bits(),
        ),
        run,
        results,
    }
}

fn assert_same_bits(what: &str, got: &Outcome, want: &Outcome) {
    assert_eq!(got.run.snapshots, want.run.snapshots, "{what}: snapshots");
    assert_eq!(got.run.stats, want.run.stats, "{what}: platform stats");
    assert_eq!(
        (got.run.target_cycles, got.run.windows, got.run.records),
        (want.run.target_cycles, want.run.windows, want.run.records),
        "{what}: run counts"
    );
    assert_eq!(got.results, want.results, "{what}: replay results");
    assert_eq!(
        got.mean_and_half_width, want.mean_and_half_width,
        "{what}: estimate bits"
    );
}

#[test]
fn auto_runs_native_without_being_asked_and_equals_interp() {
    if strober_jit::rustc_version().is_none() {
        eprintln!("skipping: no rustc on PATH");
        return;
    }
    let (design, image) = target();

    let interp = StroberFlow::new(&design, config(HubEngine::Interp)).unwrap();
    let reference = estimate(&interp, &image);
    assert_eq!(interp.hub_engine_name(), "tape");
    assert_eq!(interp.hub_engine_reason(), "requested");

    // The first run resolves the engine; nothing here calls prepare_jit.
    assert_eq!(
        StroberConfig::default().platform.hub_engine,
        HubEngine::Auto
    );
    let auto = StroberFlow::new(&design, config(HubEngine::Auto)).unwrap();
    assert_eq!(auto.hub_engine_reason(), "unresolved");
    let native = estimate(&auto, &image);
    assert_eq!(auto.hub_engine_name(), "tape-jit");
    let reason = auto.hub_engine_reason();
    assert!(
        reason == "auto: cache hit" || reason.starts_with("auto: compiled in "),
        "a storeless session gets native code from the temp cache or rustc, not `{reason}`"
    );
    assert_same_bits("auto vs interp", &native, &reference);
}

#[test]
fn a_damaged_dylib_in_the_store_is_recompiled_and_the_estimate_does_not_move() {
    if strober_jit::rustc_version().is_none() {
        eprintln!("skipping: no rustc on PATH");
        return;
    }
    let root = std::env::temp_dir().join(format!("strober-core-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut store = Store::open(&root).unwrap();
    let (design, image) = target();

    let first = StroberFlow::new(&design, config(HubEngine::Auto)).unwrap();
    assert_eq!(first.prepare_jit(Some(&mut store)).unwrap().0, "cold");
    let reference = estimate(&first, &image);

    let second = StroberFlow::new(&design, config(HubEngine::Auto)).unwrap();
    assert_eq!(second.prepare_jit(Some(&mut store)).unwrap().0, "store");
    assert_eq!(second.hub_engine_reason(), "auto: store hit");

    // Flip one bit in the middle of every file the store and its dylib
    // cache hold: the artifact object and its materialized copy alike.
    // (Not under a live session: its dylib is mapped from that file.)
    drop((first, second));
    let mut damaged = 0;
    let mut dirs = vec![root.clone()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "so" || e == "bin") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x04;
                std::fs::write(&path, bytes).unwrap();
                damaged += 1;
            }
        }
    }
    assert!(
        damaged >= 2,
        "expected a store object and a dylib, found {damaged} files"
    );

    let third = StroberFlow::new(&design, config(HubEngine::Auto)).unwrap();
    assert_eq!(
        third.prepare_jit(Some(&mut store)).unwrap().0,
        "cold",
        "neither damaged copy may be loaded"
    );
    assert_eq!(third.hub_engine_name(), "tape-jit");
    assert_same_bits("after damage", &estimate(&third, &image), &reference);

    // The recompile healed both: the next session is a store hit again.
    std::fs::remove_dir_all(root.join("jit")).unwrap();
    let fourth = StroberFlow::new(&design, config(HubEngine::Auto)).unwrap();
    assert_eq!(fourth.prepare_jit(Some(&mut store)).unwrap().0, "store");
    let _ = std::fs::remove_dir_all(&root);
}

/// Printed by [`without_rustc`] between its quiet half and its loud half.
const NAMED_JIT_MARK: &str = "-- jit, by name --";

/// What a process that cannot find `rustc` must do. `rustc` is probed
/// once per process, so this runs in one of its own: the test below
/// starts this binary again with an empty `PATH`.
fn without_rustc() {
    assert!(strober_jit::rustc_version().is_none(), "PATH is empty");
    strober_probe::enable();
    let fallbacks = || {
        strober_probe::snapshot()
            .counter("strober.jit.fallback")
            .unwrap_or(0)
    };
    let (design, image) = target();
    let interp = StroberFlow::new(&design, config(HubEngine::Interp)).unwrap();
    let reference = estimate(&interp, &image);

    let auto = StroberFlow::new(&design, config(HubEngine::Auto)).unwrap();
    assert_same_bits("auto vs interp", &estimate(&auto, &image), &reference);
    assert_eq!(auto.hub_engine_name(), "tape");
    assert_eq!(
        auto.hub_engine_reason(),
        "auto: no rustc on PATH, interpreted"
    );
    assert_eq!(auto.prepare_jit(None), None);
    assert_eq!(fallbacks(), 0, "auto degrading is not a fallback");

    eprintln!("{NAMED_JIT_MARK}");
    let jit = StroberFlow::new(&design, config(HubEngine::Jit)).unwrap();
    assert_same_bits("jit vs interp", &estimate(&jit, &image), &reference);
    assert_eq!(jit.hub_engine_name(), "tape");
    assert_eq!(
        jit.hub_engine_reason(),
        "jit: no rustc on PATH, interpreted"
    );
    assert!(fallbacks() >= 1, "a named jit that interprets is counted");
}

#[test]
fn without_rustc_auto_degrades_quietly_and_jit_loudly() {
    if std::env::var_os("PATH").is_some_and(|p| p.is_empty()) {
        return without_rustc();
    }
    let out = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "without_rustc_auto_degrades_quietly_and_jit_loudly",
        ])
        .arg("--nocapture")
        .env("PATH", "")
        .output()
        .expect("re-run this test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed:\n{stderr}");
    let (quiet, loud) = stderr
        .split_once(NAMED_JIT_MARK)
        .expect("the child reached its second half");
    assert!(
        !quiet.contains("warning:"),
        "auto without rustc must not warn:\n{quiet}"
    );
    assert!(
        quiet.contains("no native settle engine (no rustc on PATH)"),
        "auto says, at info level, what it fell back to:\n{quiet}"
    );
    assert!(
        loud.contains("warning: jit engine unavailable"),
        "a named jit without rustc warns:\n{loud}"
    );
}

/// A `rustc` that answers `--version` and then, asked to compile, writes
/// a partial dylib where `-o` points and is killed by `SIGKILL`.
const DYING_RUSTC: &str = r#"#!/bin/sh
if [ "$1" = "--version" ]; then
    echo "rustc 0.0.0-dying"
    exit 0
fi
prev=""
for arg in "$@"; do
    if [ "$prev" = "-o" ]; then printf 'half a dylib' > "$arg"; fi
    prev="$arg"
done
kill -9 $$
"#;

/// What a process whose `rustc` dies mid-compile must do; the test below
/// starts this binary again with [`DYING_RUSTC`] first on `PATH` and a
/// `TMPDIR` of its own, which holds every cache directory used here.
fn with_dying_rustc() {
    assert_eq!(strober_jit::rustc_version(), Some("rustc 0.0.0-dying"));
    strober_probe::enable();
    let fallbacks = || {
        strober_probe::snapshot()
            .counter("strober.jit.fallback")
            .unwrap_or(0)
    };
    let (design, image) = target();
    let reference = estimate(
        &StroberFlow::new(&design, config(HubEngine::Interp)).unwrap(),
        &image,
    );

    let mut store = Store::open(std::env::temp_dir().join("store")).unwrap();
    let auto = StroberFlow::new(&design, config(HubEngine::Auto)).unwrap();
    assert_eq!(auto.prepare_jit(Some(&mut store)), None);
    assert_same_bits("auto vs interp", &estimate(&auto, &image), &reference);
    assert_eq!(auto.hub_engine_name(), "tape");
    let reason = auto.hub_engine_reason();
    assert!(
        reason.starts_with("auto: rustc failed on generated settle source (signal: 9")
            && reason.ends_with(", interpreted"),
        "the reason names the failed compile: `{reason}`"
    );
    assert_eq!(fallbacks(), 0, "auto degrading is not a fallback");

    let jit = StroberFlow::new(&design, config(HubEngine::Jit)).unwrap();
    assert_same_bits("jit vs interp", &estimate(&jit, &image), &reference);
    assert_eq!(jit.hub_engine_name(), "tape");
    assert!(jit.hub_engine_reason().starts_with("jit: rustc failed"));
    assert!(fallbacks() >= 1, "a named jit that interprets is counted");
}

/// Starts this test binary again to run only `test`, with `script`
/// installed as `rustc` first on `PATH`, `marker` set in the environment
/// and a `TMPDIR` of its own, which holds every cache directory the child
/// uses. Checks the child passed and warned about the named jit, that no
/// half-written dylib or temp file is left anywhere under that `TMPDIR`,
/// and that generated sources reached both the store's and the temp
/// cache; returns the child's stderr.
fn run_with_fake_rustc(test: &str, script: &str, marker: &str) -> String {
    let root = std::env::temp_dir().join(format!("strober-core-{marker}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (bin, tmp) = (root.join("bin"), root.join("tmp"));
    std::fs::create_dir_all(&bin).unwrap();
    std::fs::create_dir_all(&tmp).unwrap();
    let rustc = bin.join("rustc");
    std::fs::write(&rustc, script).unwrap();
    let mut perms = std::fs::metadata(&rustc).unwrap().permissions();
    std::os::unix::fs::PermissionsExt::set_mode(&mut perms, 0o755);
    std::fs::set_permissions(&rustc, perms).unwrap();
    let path = std::env::join_paths(
        std::iter::once(bin).chain(std::env::split_paths(&std::env::var_os("PATH").unwrap())),
    )
    .unwrap();

    let out = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", test, "--nocapture"])
        .env("PATH", path)
        .env("TMPDIR", &tmp)
        .env(marker, "1")
        .output()
        .expect("re-run this test binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "child failed:\n{stderr}");
    assert!(
        stderr.contains("warning: jit engine unavailable"),
        "the named jit warns:\n{stderr}"
    );

    // The store's jit/ dir and the temp cache both saw a compile fail.
    let mut compiles = 0;
    let mut dirs = vec![tmp];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            assert!(
                !name.contains(".tmp.") && !name.ends_with(".so"),
                "{} was left behind",
                path.display()
            );
            compiles += usize::from(name.ends_with(".rs"));
        }
    }
    assert!(
        compiles >= 2,
        "expected sources in both caches, found {compiles}"
    );
    let _ = std::fs::remove_dir_all(&root);
    stderr
}

#[test]
fn a_rustc_killed_mid_compile_leaves_no_debris_and_changes_no_bits() {
    if std::env::var_os("STROBER_TEST_DYING_RUSTC").is_some() {
        return with_dying_rustc();
    }
    run_with_fake_rustc(
        "a_rustc_killed_mid_compile_leaves_no_debris_and_changes_no_bits",
        DYING_RUSTC,
        "STROBER_TEST_DYING_RUSTC",
    );
}

/// A `rustc` that answers `--version` and then, asked to compile, writes
/// a partial dylib where `-o` points and hangs: it sleeps far longer
/// than the deadline [`with_hung_rustc`] sets.
const HUNG_RUSTC: &str = r#"#!/bin/sh
if [ "$1" = "--version" ]; then
    echo "rustc 0.0.0-hung"
    exit 0
fi
prev=""
for arg in "$@"; do
    if [ "$prev" = "-o" ]; then printf 'half a dylib' > "$arg"; fi
    prev="$arg"
done
exec sleep 60
"#;

/// What a process whose `rustc` hangs must do: give up at the compile
/// deadline (shortened here from a minute to a fraction of a second),
/// kill the compiler, and carry on interpreting — quietly under `auto`,
/// with the reason in the session; loudly and counted under `jit`.
fn with_hung_rustc() {
    assert_eq!(strober_jit::rustc_version(), Some("rustc 0.0.0-hung"));
    strober_jit::set_compile_deadline_for_tests(std::time::Duration::from_millis(300));
    strober_probe::enable();
    let fallbacks = || {
        strober_probe::snapshot()
            .counter("strober.jit.fallback")
            .unwrap_or(0)
    };
    let (design, image) = target();
    let reference = estimate(
        &StroberFlow::new(&design, config(HubEngine::Interp)).unwrap(),
        &image,
    );

    let mut store = Store::open(std::env::temp_dir().join("store")).unwrap();
    let auto = StroberFlow::new(&design, config(HubEngine::Auto)).unwrap();
    let started = std::time::Instant::now();
    assert_eq!(auto.prepare_jit(Some(&mut store)), None);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "the hung compile was waited out, not killed"
    );
    assert_same_bits("auto vs interp", &estimate(&auto, &image), &reference);
    assert_eq!(auto.hub_engine_name(), "tape");
    let reason = auto.hub_engine_reason();
    assert!(
        reason.starts_with("auto: rustc did not finish the generated settle source within 0.3 s")
            && reason.ends_with(", interpreted"),
        "the reason names the timeout: `{reason}`"
    );
    assert_eq!(fallbacks(), 0, "auto degrading is not a fallback");

    let jit = StroberFlow::new(&design, config(HubEngine::Jit)).unwrap();
    assert_same_bits("jit vs interp", &estimate(&jit, &image), &reference);
    assert_eq!(jit.hub_engine_name(), "tape");
    assert!(jit
        .hub_engine_reason()
        .starts_with("jit: rustc did not finish"));
    assert!(fallbacks() >= 1, "a named jit that interprets is counted");
}

#[test]
fn a_hung_rustc_is_killed_at_the_deadline_and_changes_no_bits() {
    if std::env::var_os("STROBER_TEST_HUNG_RUSTC").is_some() {
        return with_hung_rustc();
    }
    let started = std::time::Instant::now();
    let stderr = run_with_fake_rustc(
        "a_hung_rustc_is_killed_at_the_deadline_and_changes_no_bits",
        HUNG_RUSTC,
        "STROBER_TEST_HUNG_RUSTC",
    );
    assert!(
        stderr.contains("rustc did not finish"),
        "the warning names the timeout:\n{stderr}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(55),
        "no compile outlived the deadline"
    );
}
