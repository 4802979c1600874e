//! Corpus regression suite.
//!
//! Replays every checked-in reproducer under `fuzz/corpus/` through the
//! full oracle matrix on every `cargo test`, and proves end-to-end that
//! the harness catches and minimizes an artificially-injected bug.

use std::path::Path;
use strober_fuzz::{check, load_corpus, run_fuzz, FuzzOptions, InjectedBug, OracleConfig};

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
}

/// Every corpus entry must replay cleanly on the real (un-injected) code:
/// a fixed bug stays fixed forever. Entries that recorded an injected bug
/// must additionally still *diverge* when the injection is re-applied —
/// the minimized genome keeps exercising the code path that caught it —
/// and diverge exactly as stored: same oracles, port, lane, cycle and
/// values, so a renamed oracle lane or a changed stimulus shows up here
/// instead of as a stale file the next campaign rewrites.
#[test]
fn corpus_replays_clean_and_reinjects_dirty() {
    let entries = load_corpus(&corpus_dir()).expect("corpus loads");
    assert!(
        !entries.is_empty(),
        "fuzz/corpus must hold at least one checked-in reproducer"
    );
    for (path, rep) in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(rep.version, strober_fuzz::CORPUS_VERSION, "{name}: version");
        assert!(
            rep.oracle.inject.is_none(),
            "{name}: stored oracle must not inject"
        );
        if let Err(d) = check(&rep.genome, &rep.oracle) {
            panic!("{name}: regressed — oracles diverge again: {d}");
        }
        if let Some(bug) = rep.inject {
            let dirty = OracleConfig {
                inject: Some(bug),
                ..rep.oracle.clone()
            };
            let d = check(&rep.genome, &dirty).expect_err("re-injected bug must still diverge");
            assert_eq!(
                d, rep.divergence,
                "{name}: re-injection produced a different divergence"
            );
        }
    }
}

/// End-to-end self-test: with a gate-lowering bug injected into the
/// synthesized netlist, a short campaign must catch a divergence and the
/// shrinker must minimize the reproducer to at most 10 design nodes.
#[test]
fn injected_bug_is_caught_and_minimized() {
    let opts = FuzzOptions {
        seed_start: 0,
        seed_end: 8,
        cycles: 24,
        oracle: OracleConfig {
            lanes: vec![1, 64],
            flow: false,
            inject: Some(InjectedBug::XorAsOr),
        },
        corpus_dir: None,
        shrink_evals: 1500,
    };
    let outcome = run_fuzz(&opts, |_, _| {}).expect("campaign runs");
    let failure = outcome
        .failure
        .expect("the injected xor-as-or bug must be caught within 8 seeds");
    assert!(
        failure.min_nodes <= 10,
        "shrinker left {} nodes (want <= 10); genome: {}",
        failure.min_nodes,
        serde_json::to_string(&failure.reproducer.genome).unwrap()
    );
    // The minimized genome still diverges under injection and agrees
    // without it — exactly the contract a corpus entry relies on.
    let g = &failure.reproducer.genome;
    assert!(check(g, &opts.oracle).is_err());
    assert!(check(g, &failure.reproducer.oracle).is_ok());
}

/// A campaign over clean code finds nothing and reports throughput.
#[test]
fn clean_seeds_agree() {
    let opts = FuzzOptions {
        seed_start: 0,
        seed_end: 6,
        cycles: 16,
        oracle: OracleConfig {
            lanes: vec![1, 64],
            flow: false,
            inject: None,
        },
        corpus_dir: None,
        shrink_evals: 100,
    };
    let outcome = run_fuzz(&opts, |_, _| {}).expect("campaign runs");
    assert!(outcome.failure.is_none(), "clean code must not diverge");
    assert_eq!(outcome.designs, 6);
    assert!(outcome.designs_per_sec() > 0.0);
}
