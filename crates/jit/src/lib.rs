//! Tape-to-native codegen: JIT-compile the hub simulator's settle loop.
//!
//! The optimized op tape is still *interpreted* by
//! [`strober_sim::Simulator`]: a dispatch loop, bounds checks and slot
//! indirection on every op, every cycle. This crate removes all three.
//! [`strober_sim::Simulator::jit_source`] lowers the tape to one
//! straight-line Rust function of word ops over the flat value slab
//! (constants, masks and slot indices baked into the instruction
//! stream) that ends by writing every register's next value, so the
//! clock edge's register walk goes native too; [`JitCompiler`] compiles
//! that source with a cached
//! `rustc --crate-type cdylib` invocation and `dlopen`s the result; and
//! [`Simulator::attach_jit`] plugs it in behind the existing facade —
//! callers keep poking, peeking and stepping exactly as before.
//!
//! # Caching
//!
//! Compiled dylibs are content-addressed: the file name is the FNV-1a
//! hash of the generated source plus the `rustc` version, so a second
//! simulator built for the same design loads the existing artifact
//! without invoking `rustc` at all. `strober-core` additionally persists
//! the dylib bytes in the artifact store as a [`JitArtifact`] keyed by
//! the generated source's signature + rustc version, making codegen a
//! warm-start artifact exactly like prepare outputs.
//!
//! Two callers that want the same dylib at once — two server workers on
//! a cold daemon, two test threads — are single-flighted inside the
//! process: the second waits for the first compile and then loads its
//! result. Across processes every writer lands its file by atomic rename
//! from a temp name of its own, so the worst case is one redundant
//! compile, never a torn file.
//!
//! # Integrity, safety and identity
//!
//! `dlopen` maps and runs foreign code, so nothing is loaded on trust.
//! Every dylib this crate writes ends in a 24-byte seal (magic, length
//! and FNV-1a hash of the bytes before it — ELF loaders ignore trailing
//! bytes), and the seal is verified over the file's bytes *before*
//! `dlopen`: a truncated, zero-length or bit-flipped cache file or store
//! artifact is counted (`strober.jit.cache_corrupt`) and recompiled
//! over, never mapped. Every loaded dylib must then export
//! `strober_jit_sig`, whose value is checked against the hash of the
//! source the simulator would generate for its own tape
//! ([`Simulator::attach_jit`] refuses a mismatch), so a stale or foreign
//! dylib is rejected before its settle code can run.
//! Bit-identity with the interpreted tape is enforced by the golden
//! suites (`sim/tests/jit_equivalence.rs`, `bench/tests/jit_golden.rs`)
//! and the fuzz oracle's `tape-jit` lane.
//!
//! # Fallback
//!
//! Everything here degrades gracefully: no `rustc` on `PATH`, a failed
//! compile or a failed `dlopen` all surface as a [`JitError`] that
//! callers turn into a fallback to the interpreted tape walk: loud and
//! counted by `strober.jit.fallback` where the JIT was asked for by name
//! ([`record_fallback`]), quiet where `auto` merely preferred it.
//!
//! [`Simulator::attach_jit`]: strober_sim::Simulator::attach_jit

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod dylib;

pub use dylib::DylibEngine;

use std::collections::BTreeSet;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};
use strober_sim::{JitSource, NativeSettle, Simulator};

/// Errors from compiling or loading a native settle engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum JitError {
    /// No usable `rustc` was found on `PATH`.
    NoRustc,
    /// `rustc` ran but did not produce a dylib: it rejected the generated
    /// source, or it died.
    Compile {
        /// How the compiler exited (`exit status: 1`, `signal: 9 (SIGKILL)`).
        status: String,
        /// The compiler's stderr.
        stderr: String,
    },
    /// The compiled dylib could not be loaded.
    Dlopen(String),
    /// The loaded dylib does not export a required entry point.
    MissingSymbol(&'static str),
    /// The dylib was built from a different tape than the simulator's.
    SignatureMismatch {
        /// Hash of the source the simulator generates.
        expected: u64,
        /// Hash the dylib reports.
        actual: u64,
    },
    /// `rustc` did not finish within the compile deadline
    /// ([`COMPILE_DEADLINE`]); it was killed and reaped, and nothing it
    /// wrote was kept.
    Timeout {
        /// How long it was given.
        after: Duration,
    },
    /// The dylib's bytes do not carry a valid integrity seal: truncated,
    /// altered, or not written by this crate. It was not loaded.
    Corrupt,
    /// Filesystem trouble around the cache directory.
    Io(std::io::Error),
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::NoRustc => write!(f, "no rustc on PATH"),
            JitError::Compile { status, stderr } => {
                write!(f, "rustc failed on generated settle source ({status})")?;
                match stderr.trim() {
                    "" => Ok(()),
                    stderr => write!(f, ": {stderr}"),
                }
            }
            JitError::Timeout { after } => write!(
                f,
                "rustc did not finish the generated settle source within {} s and was killed",
                after.as_secs_f64()
            ),
            JitError::Dlopen(msg) => write!(f, "cannot load settle dylib: {msg}"),
            JitError::MissingSymbol(name) => {
                write!(f, "settle dylib does not export `{name}`")
            }
            JitError::SignatureMismatch { expected, actual } => write!(
                f,
                "settle dylib signature {actual:#x} does not match tape source ({expected:#x})"
            ),
            JitError::Corrupt => write!(f, "settle dylib failed its integrity check"),
            JitError::Io(e) => write!(f, "jit cache i/o error: {e}"),
        }
    }
}

impl std::error::Error for JitError {}

impl From<std::io::Error> for JitError {
    fn from(e: std::io::Error) -> Self {
        JitError::Io(e)
    }
}

/// How long one `rustc` run may take before it is killed and the session
/// walks the tape instead. A cold compile of the largest bundled hub takes
/// ~0.2 s; a minute leaves a loaded machine plenty of room, and a hung
/// compiler none to hang the session.
pub const COMPILE_DEADLINE: Duration = Duration::from_secs(60);

/// The deadline in force, in milliseconds: [`COMPILE_DEADLINE`] unless a
/// test shortened it.
static DEADLINE_MS: AtomicU64 = AtomicU64::new(COMPILE_DEADLINE.as_millis() as u64);

/// Shortens the compile deadline for the rest of the process, so a test
/// can watch a hung `rustc` be killed without waiting a minute.
/// Production code never calls this; there is no flag or variable behind
/// it.
#[doc(hidden)]
pub fn set_compile_deadline_for_tests(deadline: Duration) {
    DEADLINE_MS.store(deadline.as_millis() as u64, Ordering::Relaxed);
}

fn compile_deadline() -> Duration {
    Duration::from_millis(DEADLINE_MS.load(Ordering::Relaxed))
}

/// Waits for `child` to exit, or kills and reaps it once `deadline` has
/// passed (`Ok(None)`). Polls instead of blocking, so no thread is spawned
/// to keep the time.
fn wait_within(child: &mut Child, deadline: Duration) -> std::io::Result<Option<ExitStatus>> {
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Some(status));
        }
        if started.elapsed() >= deadline {
            let _ = child.kill();
            child.wait()?;
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The `rustc --version` string of the compiler on `PATH`, probed once
/// per process, or `None` when no working `rustc` is available (the
/// fallback-to-interpreter case) or it does not answer within the compile
/// deadline. The answer is one line, which the pipe holds until the probe
/// has exited.
pub fn rustc_version() -> Option<&'static str> {
    static VERSION: OnceLock<Option<String>> = OnceLock::new();
    VERSION
        .get_or_init(|| {
            let mut child = Command::new("rustc")
                .arg("--version")
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .ok()?;
            if !wait_within(&mut child, compile_deadline()).ok()??.success() {
                return None;
            }
            let mut out = String::new();
            child.stdout.take()?.read_to_string(&mut out).ok()?;
            let v = out.trim().to_owned();
            (!v.is_empty()).then_some(v)
        })
        .as_deref()
}

/// How an attach was satisfied, mirroring the store's prepare
/// provenance ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitProvenance {
    /// `rustc` was invoked and the dylib compiled fresh.
    Cold,
    /// The dylib came from the content-addressed file cache; no compile.
    Warm,
    /// The dylib bytes came from the artifact store; no compile.
    Store,
}

impl JitProvenance {
    /// The manifest/metrics label (`"cold"`, `"warm"`, `"store"`).
    pub fn as_str(self) -> &'static str {
        match self {
            JitProvenance::Cold => "cold",
            JitProvenance::Warm => "warm",
            JitProvenance::Store => "store",
        }
    }
}

/// The result of a successful [`JitCompiler::attach`].
#[derive(Debug, Clone)]
pub struct JitOutcome {
    /// Whether the dylib was compiled (`Cold`) or reused.
    pub provenance: JitProvenance,
    /// Wall-clock milliseconds spent inside `rustc` (0 on reuse).
    pub compile_ms: u64,
    /// Where the loaded dylib lives on disk.
    pub dylib_path: PathBuf,
    /// The tape source signature (also the dylib's exported sig).
    pub sig: u64,
}

/// A compiled settle dylib plus enough provenance to rebuild the cache
/// entry on another machine: the artifact-store payload for warm-started
/// codegen. Keyed in the store by the generated source's signature +
/// rustc version (see `strober-core`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize, serde::Blob)]
pub struct JitArtifact {
    /// `rustc --version` of the compiler that built the dylib.
    pub rustc: String,
    /// The generated source's FNV-1a signature.
    pub sig: u64,
    /// The compiled dylib, byte for byte.
    pub dylib: Vec<u8>,
    /// Wall-clock milliseconds the original compile took.
    pub compile_ms: u64,
}

/// Compiles generated settle source to dylibs in a content-addressed
/// file cache and attaches the result to simulators.
#[derive(Debug, Clone)]
pub struct JitCompiler {
    cache_dir: PathBuf,
}

impl JitCompiler {
    /// A compiler writing to an explicit cache directory (the store root
    /// in the managed flow).
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        JitCompiler {
            cache_dir: cache_dir.into(),
        }
    }

    /// A compiler writing to `strober-jit` under the system temp
    /// directory — the default for library users with no store.
    pub fn in_temp() -> Self {
        Self::new(std::env::temp_dir().join("strober-jit"))
    }

    /// The cache directory dylibs land in.
    pub fn cache_dir(&self) -> &Path {
        &self.cache_dir
    }

    /// The content-addressed dylib path for a given source: FNV-1a over
    /// the source text and the rustc version, so either changing
    /// invalidates the entry.
    fn dylib_path(&self, source: &JitSource, rustc: &str) -> PathBuf {
        let h = fnv1a(source.source.bytes().chain(rustc.bytes()));
        self.cache_dir.join(format!("strober_jit_{h:016x}.so"))
    }

    /// Compiles (or reuses from the file cache) the native settle engine
    /// for a generated source, without attaching it to anything. The flow
    /// layer uses this to build one engine and share it across every
    /// simulator clone of a run.
    ///
    /// Concurrent calls for one source compile once: the rest wait, then
    /// load the winner's file. A cache file that fails its integrity or
    /// identity check is recompiled over (`strober.jit.cache_corrupt`).
    ///
    /// Emits `strober.jit.compile_ms`, `strober.jit.compiled` and
    /// `strober.jit.cache_hit` probe metrics; callers count
    /// `strober.jit.fallback` where a downgrade on error should be loud
    /// (see [`record_fallback`]).
    ///
    /// # Errors
    ///
    /// [`JitError::NoRustc`] without a compiler on `PATH`, otherwise any
    /// compile/load/signature failure.
    pub fn prepare(&self, source: &JitSource) -> Result<(DylibEngine, JitOutcome), JitError> {
        let rustc = rustc_version().ok_or(JitError::NoRustc)?;
        let path = self.dylib_path(source, rustc);
        let _flight = Flight::enter(&path);
        let (engine, provenance, compile_ms) = match load_cached(&path, source) {
            Some(engine) => (engine, JitProvenance::Warm, 0),
            None => {
                let compile_ms = self.compile(source, &path)?;
                strober_probe::histogram_record("strober.jit.compile_ms", compile_ms as f64);
                (
                    load_verified(&path, source)?,
                    JitProvenance::Cold,
                    compile_ms,
                )
            }
        };
        let outcome = JitOutcome {
            provenance,
            compile_ms,
            dylib_path: path,
            sig: source.sig,
        };
        Ok((engine, outcome))
    }

    /// Materializes a store-loaded [`JitArtifact`] into the file cache
    /// (if a good copy is not already there) and loads it. Never invokes
    /// `rustc`.
    ///
    /// # Errors
    ///
    /// [`JitError::SignatureMismatch`] when the artifact was generated
    /// from a different tape than `source`, [`JitError::Corrupt`]
    /// (counted in `strober.jit.cache_corrupt`) when its bytes fail their
    /// seal, or any load failure.
    pub fn prepare_artifact(
        &self,
        source: &JitSource,
        artifact: &JitArtifact,
    ) -> Result<(DylibEngine, JitOutcome), JitError> {
        if artifact.sig != source.sig {
            return Err(JitError::SignatureMismatch {
                expected: source.sig,
                actual: artifact.sig,
            });
        }
        if !seal_holds(&artifact.dylib) {
            strober_probe::counter_add("strober.jit.cache_corrupt", 1);
            return Err(JitError::Corrupt);
        }
        let path = self.dylib_path(source, &artifact.rustc);
        let _flight = Flight::enter(&path);
        let engine = match load_cached(&path, source) {
            Some(engine) => engine,
            None => {
                std::fs::create_dir_all(&self.cache_dir)?;
                write_atomic(&path, &artifact.dylib)?;
                load_verified(&path, source)?
            }
        };
        let outcome = JitOutcome {
            provenance: JitProvenance::Store,
            compile_ms: 0,
            dylib_path: path,
            sig: source.sig,
        };
        Ok((engine, outcome))
    }

    /// Compiles (or reuses) the native settle engine for `sim`'s tape and
    /// attaches it. On success the simulator's `settle` dispatches to
    /// native code until [`Simulator::detach_jit`] is called.
    ///
    /// # Errors
    ///
    /// See [`JitCompiler::prepare`].
    pub fn attach(&self, sim: &mut Simulator) -> Result<JitOutcome, JitError> {
        let (engine, outcome) = self.prepare(&sim.jit_source())?;
        attach_engine(sim, engine)?;
        Ok(outcome)
    }

    /// Materializes a store-loaded [`JitArtifact`] and attaches it,
    /// never invoking `rustc`.
    ///
    /// # Errors
    ///
    /// See [`JitCompiler::prepare_artifact`].
    pub fn attach_artifact(
        &self,
        sim: &mut Simulator,
        artifact: &JitArtifact,
    ) -> Result<JitOutcome, JitError> {
        let (engine, outcome) = self.prepare_artifact(&sim.jit_source(), artifact)?;
        attach_engine(sim, engine)?;
        Ok(outcome)
    }

    /// Runs `rustc` on the generated source, landing the sealed dylib at
    /// `out` atomically. Returns the compile wall-time in milliseconds. A
    /// compile that outlives [`COMPILE_DEADLINE`] is killed, its partial
    /// output removed, and reported as [`JitError::Timeout`].
    fn compile(&self, source: &JitSource, out: &Path) -> Result<u64, JitError> {
        std::fs::create_dir_all(&self.cache_dir)?;
        let src_path = out.with_extension("rs");
        write_atomic(&src_path, source.source.as_bytes())?;
        let tmp = temp_sibling(out);
        // rustc's diagnostics go to a file, not a pipe: a long error
        // report cannot fill a pipe nobody drains while the deadline runs.
        let log = temp_sibling(&src_path);
        let started = Instant::now();
        let deadline = compile_deadline();
        let spawned = Command::new("rustc")
            .arg("--edition")
            .arg("2021")
            .arg("-O")
            // One codegen unit: the crate is one big settle function and
            // a small commit, so splitting buys no parallelism, only
            // partitioning overhead (~15 ms of a ~150 ms boum-2w hub
            // compile on a 2-core host).
            .arg("-C")
            .arg("codegen-units=1")
            .arg("--crate-type")
            .arg("cdylib")
            .arg("-C")
            .arg("panic=abort")
            .arg("-o")
            .arg(&tmp)
            .arg(&src_path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&log)?)
            .spawn();
        let waited = spawned.map(|mut child| wait_within(&mut child, deadline));
        let compile_ms = started.elapsed().as_millis() as u64;
        let stderr = std::fs::read_to_string(&log).unwrap_or_default();
        let _ = std::fs::remove_file(&log);
        let status = match waited {
            Ok(Ok(Some(status))) => status,
            Ok(Ok(None)) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(JitError::Timeout { after: deadline });
            }
            Ok(Err(e)) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(JitError::Io(e));
            }
            Err(_) => return Err(JitError::NoRustc),
        };
        let landed = if status.success() {
            std::fs::read(&tmp)
                .and_then(|dylib| std::fs::write(&tmp, seal(dylib)))
                .and_then(|()| std::fs::rename(&tmp, out))
                .map_err(JitError::Io)
        } else {
            Err(JitError::Compile {
                status: status.to_string(),
                stderr,
            })
        };
        if landed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        landed?;
        strober_probe::counter_add("strober.jit.compiled", 1);
        Ok(compile_ms)
    }
}

/// FNV-1a, the hash behind both the content-addressed file names and the
/// integrity seal.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// First field of the seal: tells a sealed dylib from any other file.
const SEAL_MAGIC: [u8; 8] = *b"STRBJIT\x01";
/// Magic, dylib length and dylib hash, 8 bytes each.
const SEAL_LEN: usize = 24;

/// Appends the integrity seal to a freshly compiled dylib: everything
/// [`seal_holds`] needs to tell, from the bytes alone, that they are the
/// bytes `rustc` produced.
fn seal(mut dylib: Vec<u8>) -> Vec<u8> {
    let (len, hash) = (dylib.len() as u64, fnv1a(dylib.iter().copied()));
    dylib.extend_from_slice(&SEAL_MAGIC);
    dylib.extend_from_slice(&len.to_le_bytes());
    dylib.extend_from_slice(&hash.to_le_bytes());
    dylib
}

/// Whether `bytes` end in a seal that matches everything before it.
/// Truncation moves or removes the seal, a flipped bit breaks the hash
/// (FNV-1a's steps are invertible, so no single-byte change survives),
/// and a zero-length file has no seal at all.
fn seal_holds(bytes: &[u8]) -> bool {
    let Some(split) = bytes.len().checked_sub(SEAL_LEN) else {
        return false;
    };
    let (dylib, seal) = bytes.split_at(split);
    seal[..8] == SEAL_MAGIC
        && seal[8..16] == (dylib.len() as u64).to_le_bytes()
        && seal[16..] == fnv1a(dylib.iter().copied()).to_le_bytes()
}

/// Loads the cache file at `path` if there is a usable one: `None` when
/// it is missing, and also — counted and logged — when it is there but
/// fails its seal, `dlopen` or the signature check, so that the caller
/// writes a good file over it.
fn load_cached(path: &Path, source: &JitSource) -> Option<DylibEngine> {
    if !path.exists() {
        return None;
    }
    match load_verified(path, source) {
        Ok(engine) => {
            strober_probe::counter_add("strober.jit.cache_hit", 1);
            Some(engine)
        }
        Err(e) => {
            strober_probe::counter_add("strober.jit.cache_corrupt", 1);
            strober_probe::warn!(
                "cached settle dylib {} is unusable ({e}); replacing it",
                path.display()
            );
            None
        }
    }
}

/// The only way this crate maps a dylib: seal first, over the file's
/// bytes, then `dlopen`, then the identity check against `source`.
///
/// The loader dedupes by path: while an engine loaded from `path` is
/// alive in this process, `dlopen` hands back that mapping, whatever is
/// in the file by now. That mapping passed these checks when it was
/// made, and a path names one source, so it is the right code.
fn load_verified(path: &Path, source: &JitSource) -> Result<DylibEngine, JitError> {
    if !seal_holds(&std::fs::read(path)?) {
        return Err(JitError::Corrupt);
    }
    let engine = DylibEngine::load(path)?;
    if engine.signature() != source.sig {
        return Err(JitError::SignatureMismatch {
            expected: source.sig,
            actual: engine.signature(),
        });
    }
    Ok(engine)
}

/// Holds, for as long as it lives, this process's exclusive right to
/// create the dylib at one path. Whoever enters second blocks until the
/// first is done and then finds the file in place, so one tape is
/// compiled once however many threads ask for it together.
struct Flight(PathBuf);

static IN_FLIGHT: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());
static LANDED: Condvar = Condvar::new();

impl Flight {
    fn enter(path: &Path) -> Flight {
        // The set is valid after every statement that touches it, so a
        // panic elsewhere under the lock leaves nothing to repair.
        let mut paths = IN_FLIGHT.lock().unwrap_or_else(PoisonError::into_inner);
        while paths.contains(path) {
            paths = LANDED.wait(paths).unwrap_or_else(PoisonError::into_inner);
        }
        paths.insert(path.to_path_buf());
        Flight(path.to_path_buf())
    }
}

impl Drop for Flight {
    fn drop(&mut self) {
        IN_FLIGHT
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.0);
        LANDED.notify_all();
    }
}

/// A name next to `path` that no other call, thread or process uses:
/// writers fill it and rename it over `path`.
fn temp_sibling(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{seq}", std::process::id()))
}

/// Shared attach tail: map the simulator's signature check into
/// [`JitError`].
fn attach_engine(sim: &mut Simulator, engine: DylibEngine) -> Result<(), JitError> {
    let actual = engine.signature();
    sim.attach_jit(Arc::new(engine))
        .map_err(|_| JitError::SignatureMismatch {
            expected: sim.jit_source().sig,
            actual,
        })
}

/// Counts a downgrade from the JIT engine to the interpreted one and logs
/// why. The flow and platform layers call this where `jit` was asked for
/// by name, so `strober.jit.fallback` tells operators a request for
/// native code was not met; `auto` degrading to the tape walk is not a
/// fallback and is not counted here.
pub fn record_fallback(reason: &str) {
    strober_probe::counter_add("strober.jit.fallback", 1);
    strober_probe::warn!("jit engine unavailable, falling back to interpreter: {reason}");
}

/// Writes `bytes` to `path` via a same-directory temp file and rename,
/// so concurrent readers never observe a torn file.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = temp_sibling(path);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_dsl::Ctx;
    use strober_rtl::{Design, Width};

    fn counter_design() -> Design {
        let ctx = Ctx::new("counter");
        let en = ctx.input("en", Width::BIT);
        let count = ctx.reg("count", Width::new(8).unwrap(), 0);
        count.set_en(&count.out().add_lit(1), &en);
        ctx.output("value", &count.out());
        ctx.finish().unwrap()
    }

    /// A compiler over a cache directory of its own, empty at first and
    /// removed on drop: the cases that expect a cold compile get one, and
    /// a test run leaves nothing behind in the temp directory.
    struct ScratchCompiler(JitCompiler);

    impl std::ops::Deref for ScratchCompiler {
        type Target = JitCompiler;

        fn deref(&self) -> &JitCompiler {
            &self.0
        }
    }

    impl Drop for ScratchCompiler {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.0.cache_dir());
        }
    }

    fn temp_compiler(tag: &str) -> ScratchCompiler {
        let dir = std::env::temp_dir()
            .join("strober-jit-test")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchCompiler(JitCompiler::new(dir))
    }

    #[test]
    fn a_scratch_cache_leaves_nothing_behind() {
        let dir = {
            let compiler = temp_compiler("leaves-nothing");
            if rustc_version().is_some() {
                let mut sim = Simulator::new(&counter_design()).unwrap();
                compiler.attach(&mut sim).expect("attach");
            } else {
                std::fs::create_dir_all(compiler.cache_dir()).unwrap();
                std::fs::write(compiler.cache_dir().join("entry"), b"").unwrap();
            }
            assert!(compiler.cache_dir().read_dir().unwrap().next().is_some());
            compiler.cache_dir().to_path_buf()
        };
        assert!(!dir.exists(), "{} outlived its compiler", dir.display());
    }

    #[test]
    fn compiles_attaches_and_runs_bit_identical() {
        if rustc_version().is_none() {
            eprintln!("skipping: no rustc on PATH");
            return;
        }
        let design = counter_design();
        let mut jit = Simulator::new(&design).unwrap();
        let mut interp = Simulator::new(&design).unwrap();
        let compiler = temp_compiler("basic");
        let outcome = compiler.attach(&mut jit).expect("attach");
        assert_eq!(outcome.provenance, JitProvenance::Cold);
        assert!(jit.has_jit());
        assert_eq!(jit.active_engine_name(), "tape-jit");
        for sim in [&mut jit, &mut interp] {
            sim.poke_by_name("en", 1).unwrap();
            sim.step_n(300);
        }
        assert_eq!(
            jit.peek_output("value").unwrap(),
            interp.peek_output("value").unwrap()
        );
        assert_eq!(jit.state(), interp.state());
    }

    #[test]
    fn second_attach_hits_the_file_cache() {
        if rustc_version().is_none() {
            eprintln!("skipping: no rustc on PATH");
            return;
        }
        let design = counter_design();
        let compiler = temp_compiler("cache");
        let mut first = Simulator::new(&design).unwrap();
        let cold = compiler.attach(&mut first).expect("cold attach");
        assert_eq!(cold.provenance, JitProvenance::Cold);
        let mut second = Simulator::new(&design).unwrap();
        let warm = compiler.attach(&mut second).expect("warm attach");
        assert_eq!(warm.provenance, JitProvenance::Warm);
        assert_eq!(warm.compile_ms, 0);
        assert_eq!(warm.dylib_path, cold.dylib_path);
    }

    #[test]
    fn artifact_round_trips_through_bytes() {
        if rustc_version().is_none() {
            eprintln!("skipping: no rustc on PATH");
            return;
        }
        let design = counter_design();
        let compiler = temp_compiler("artifact");
        let mut sim = Simulator::new(&design).unwrap();
        let outcome = compiler.attach(&mut sim).expect("attach");
        let artifact = JitArtifact {
            rustc: rustc_version().unwrap().to_owned(),
            sig: outcome.sig,
            dylib: std::fs::read(&outcome.dylib_path).unwrap(),
            compile_ms: outcome.compile_ms,
        };
        // A fresh cache directory proves the bytes alone are enough.
        let other = temp_compiler("artifact-other");
        let mut warm = Simulator::new(&design).unwrap();
        let restored = other
            .attach_artifact(&mut warm, &artifact)
            .expect("restore");
        assert_eq!(restored.provenance, JitProvenance::Store);
        warm.poke_by_name("en", 1).unwrap();
        warm.step_n(5);
        assert_eq!(warm.peek_output("value").unwrap(), 5);
    }

    #[test]
    fn a_child_past_its_deadline_is_killed_and_reaped() {
        let started = Instant::now();
        let mut child = Command::new("sleep").arg("30").spawn().expect("spawn");
        let waited = wait_within(&mut child, Duration::from_millis(100)).expect("wait");
        assert!(waited.is_none(), "timed out");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "not waited out"
        );
        assert!(
            child.try_wait().expect("reaped").is_some(),
            "killed and reaped"
        );

        let mut child = Command::new("true").spawn().expect("spawn");
        let waited = wait_within(&mut child, Duration::from_secs(30)).expect("wait");
        assert!(waited.expect("finished in time").success());
    }

    #[test]
    fn seal_catches_truncation_bit_flips_and_empty_files() {
        let sealed = seal(vec![0x7f, b'E', b'L', b'F', 1, 2, 3]);
        assert!(seal_holds(&sealed));
        assert!(!seal_holds(&[]), "a zero-length file has no seal");
        assert!(!seal_holds(&sealed[..SEAL_LEN]), "a bare seal of 7 bytes");
        for cut in 1..sealed.len() {
            assert!(!seal_holds(&sealed[..cut]), "truncated to {cut} bytes");
        }
        for bit in 0..sealed.len() * 8 {
            let mut flipped = sealed.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(!seal_holds(&flipped), "bit {bit} flipped");
        }
    }

    #[test]
    fn stale_artifact_is_rejected() {
        let design = counter_design();
        let mut sim = Simulator::new(&design).unwrap();
        let artifact = JitArtifact {
            rustc: "rustc 0.0.0".to_owned(),
            sig: 0xdead_beef,
            dylib: vec![0x7f, b'E', b'L', b'F'],
            compile_ms: 1,
        };
        let compiler = temp_compiler("stale");
        match compiler.attach_artifact(&mut sim, &artifact) {
            Err(JitError::SignatureMismatch { .. }) => {}
            other => panic!("expected signature mismatch, got {other:?}"),
        }
        assert!(!sim.has_jit());
    }
}
