//! The dylib cache under the faults a default-on native engine meets:
//! many threads wanting one cold dylib at once, and cache files or store
//! artifacts that are truncated, bit-flipped or empty. Every case must
//! end in a working engine that is bit-identical to the interpreter, with
//! the damage counted — never in mapped garbage or a silent fallback.
//!
//! The probe registry is process-wide, so the tests of this binary take
//! turns (`serial`) and read counters as deltas.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use strober_dsl::Ctx;
use strober_jit::{rustc_version, JitArtifact, JitCompiler, JitError, JitProvenance};
use strober_rtl::{Design, Width};
use strober_sim::{JitSource, Simulator};

fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    let guard = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    strober_probe::enable();
    guard
}

fn counter(name: &str) -> u64 {
    strober_probe::snapshot().counter(name).unwrap_or(0)
}

/// An enabled counter over a small memory: registers, a memory port and
/// an output, so the settle function has something of each kind.
fn design() -> Design {
    let ctx = Ctx::new("faulty");
    let w8 = Width::new(8).unwrap();
    let en = ctx.input("en", Width::BIT);
    let count = ctx.reg("count", w8, 0);
    count.set_en(&count.out().add_lit(3), &en);
    let mem = ctx.mem("scratch", w8, 16);
    let addr = count.out().bits(3, 0);
    mem.write(&addr, &count.out(), &en);
    ctx.output("value", &(mem.read(&addr) ^ count.out()));
    ctx.finish().unwrap()
}

/// A cache directory that does not exist yet and is removed on drop.
struct EmptyDir(PathBuf);

fn empty_dir(tag: &str) -> EmptyDir {
    let dir = std::env::temp_dir()
        .join("strober-jit-faults")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    EmptyDir(dir)
}

impl Drop for EmptyDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Steps a fresh simulator of [`design`] 200 cycles, natively when
/// `engine` is given, and returns what it computed.
fn run(engine: Option<strober_jit::DylibEngine>) -> (u64, strober_sim::SimState) {
    let mut sim = Simulator::new(&design()).unwrap();
    if let Some(engine) = engine {
        sim.attach_jit(Arc::new(engine)).expect("same tape");
        assert_eq!(sim.active_engine_name(), "tape-jit");
    }
    sim.poke_by_name("en", 1).unwrap();
    sim.step_n(200);
    (sim.peek_output("value").unwrap(), sim.state())
}

fn source() -> JitSource {
    Simulator::new(&design()).unwrap().jit_source()
}

#[test]
fn eight_threads_wanting_one_cold_dylib_compile_it_once() {
    let _turn = serial();
    if rustc_version().is_none() {
        eprintln!("skipping: no rustc on PATH");
        return;
    }
    let dir = empty_dir("concurrent");
    let compiler = JitCompiler::new(&dir.0);
    let source = source();
    let (compiled, fallback) = (
        counter("strober.jit.compiled"),
        counter("strober.jit.fallback"),
    );
    let start = Barrier::new(8);
    let prepared: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    compiler.prepare(&source)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prepare panicked"))
            .collect()
    });
    let reference = run(None);
    let mut cold = 0;
    for result in prepared {
        let (engine, outcome) = result.expect("every caller gets an engine");
        cold += usize::from(outcome.provenance == JitProvenance::Cold);
        assert_eq!(run(Some(engine)), reference);
    }
    assert_eq!(cold, 1, "one caller compiles, seven load its file");
    assert_eq!(counter("strober.jit.compiled") - compiled, 1);
    assert_eq!(counter("strober.jit.fallback") - fallback, 0);
    let strays: Vec<_> = std::fs::read_dir(compiler.cache_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(strays.is_empty(), "temp files left behind: {strays:?}");
}

type Damage = fn(&mut Vec<u8>);

/// The three ways a file goes bad on disk.
const DAMAGE: [(&str, Damage); 3] = [
    ("truncated", |bytes| bytes.truncate(bytes.len() / 2)),
    ("bit-flipped", |bytes| {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
    }),
    ("zero-length", Vec::clear),
];

fn damage_file(path: &Path, how: Damage) {
    let mut bytes = std::fs::read(path).unwrap();
    how(&mut bytes);
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn a_damaged_cache_file_is_recompiled_over_not_loaded() {
    let _turn = serial();
    if rustc_version().is_none() {
        eprintln!("skipping: no rustc on PATH");
        return;
    }
    let reference = run(None);
    let source = source();
    for (what, how) in DAMAGE {
        let dir = empty_dir(what);
        let compiler = JitCompiler::new(&dir.0);
        let (_, cold) = compiler.prepare(&source).expect("cold compile");
        assert_eq!(cold.provenance, JitProvenance::Cold);
        damage_file(&cold.dylib_path, how);

        let corrupt = counter("strober.jit.cache_corrupt");
        let (engine, again) = compiler
            .prepare(&source)
            .unwrap_or_else(|e| panic!("{what} cache file: {e}"));
        assert_eq!(again.provenance, JitProvenance::Cold, "{what}: recompiled");
        assert_eq!(counter("strober.jit.cache_corrupt") - corrupt, 1, "{what}");
        assert_eq!(run(Some(engine)), reference, "{what}");
        // The replacement is whole again: the next caller just loads it.
        let (_, warm) = compiler.prepare(&source).expect("warm load");
        assert_eq!(warm.provenance, JitProvenance::Warm, "{what}");
    }
}

#[test]
fn a_damaged_store_artifact_is_refused_and_a_damaged_copy_of_a_good_one_rewritten() {
    let _turn = serial();
    if rustc_version().is_none() {
        eprintln!("skipping: no rustc on PATH");
        return;
    }
    let reference = run(None);
    let source = source();
    let origin = empty_dir("artifact-origin");
    let (_, cold) = JitCompiler::new(&origin.0)
        .prepare(&source)
        .expect("cold compile");
    let good = JitArtifact {
        rustc: rustc_version().unwrap().to_owned(),
        sig: cold.sig,
        dylib: std::fs::read(&cold.dylib_path).unwrap(),
        compile_ms: cold.compile_ms,
    };
    for (what, how) in DAMAGE {
        // Bad bytes in the artifact itself: refused before anything is
        // written, so the caller falls through to a compile.
        let dir = empty_dir(&format!("artifact-{what}"));
        let compiler = JitCompiler::new(&dir.0);
        let mut bad = good.clone();
        how(&mut bad.dylib);
        let corrupt = counter("strober.jit.cache_corrupt");
        match compiler.prepare_artifact(&source, &bad) {
            Err(JitError::Corrupt) => {}
            other => panic!("{what} artifact: expected Corrupt, got {other:?}"),
        }
        assert_eq!(counter("strober.jit.cache_corrupt") - corrupt, 1, "{what}");
        assert!(
            !compiler.cache_dir().exists(),
            "{what}: nothing materialized"
        );

        // A good artifact whose materialized copy went bad on disk: the
        // copy is rewritten from the artifact, still without `rustc`.
        let (_, first) = compiler.prepare_artifact(&source, &good).expect("restore");
        damage_file(&first.dylib_path, how);
        let (corrupt, compiled) = (
            counter("strober.jit.cache_corrupt"),
            counter("strober.jit.compiled"),
        );
        let (engine, second) = compiler
            .prepare_artifact(&source, &good)
            .unwrap_or_else(|e| panic!("{what} materialized copy: {e}"));
        assert_eq!(second.provenance, JitProvenance::Store);
        assert_eq!(counter("strober.jit.cache_corrupt") - corrupt, 1, "{what}");
        assert_eq!(counter("strober.jit.compiled") - compiled, 0, "{what}");
        assert_eq!(run(Some(engine)), reference, "{what}");
    }
}
