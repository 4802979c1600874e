//! The end-to-end Strober flow.

use crate::control::{Progress, RunControl};
use crate::error::StroberError;
use crate::estimate::{EnergyEstimate, ReplayResult, SampledRun, StopReason};
use crate::load_plan::LoadPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use strober_fame::{transform, FameConfig, FameResult, FameSnapshot};
use strober_formal::{match_designs, MatchOptions, NameMap};
use strober_gates::CellLibrary;
use strober_gatesim::{BatchSim, GateSimError, Tape, VpiLoader, MAX_LANES};
use strober_jit::{JitArtifact, JitCompiler, JitProvenance};
use strober_platform::{HostModel, HubEngine, PlatformConfig, ZynqHost};
use strober_power::PowerAnalyzer;
use strober_rtl::Design;
use strober_sampling::{Confidence, Reservoir, SampleStats, StopDecision, StoppingRule};
use strober_sim::Simulator;
use strober_store::{fingerprint_parts, Fingerprint, Store};
use strober_synth::{synthesize, SynthOptions, SynthResult};

/// Configuration for a Strober session.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StroberConfig {
    /// Measurement window length `L` in cycles.
    pub replay_length: u32,
    /// Extra leading trace cycles for retimed-datapath recovery (§IV-C3).
    pub warmup: u32,
    /// Reservoir sample size `n` (the paper's validation uses 30).
    pub sample_size: usize,
    /// Confidence level for the power interval (99% in Fig. 8).
    pub confidence: Confidence,
    /// Target clock frequency for power analysis (1 GHz in the paper).
    pub freq_hz: f64,
    /// RNG seed for reservoir sampling.
    pub seed: u64,
    /// Synthesis options (retiming annotations, optimisation, mangling).
    pub synth: SynthOptions,
    /// Host platform cost-model parameters.
    pub platform: PlatformConfig,
}

impl Default for StroberConfig {
    fn default() -> Self {
        StroberConfig {
            replay_length: 128,
            warmup: 0,
            sample_size: 30,
            confidence: Confidence::C99,
            freq_hz: 1.0e9,
            seed: 0x57_0BE5,
            synth: SynthOptions::default(),
            platform: PlatformConfig::default(),
        }
    }
}

/// The cacheable outputs of session preparation: everything
/// [`StroberFlow::new`] derives from the design and configuration that is
/// expensive to rebuild. The cell library and power analyzer are *not*
/// stored — they are cheap pure functions of these parts and the config.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize, serde::Blob)]
pub struct PreparedArtifact {
    /// FAME1 transform output (hub design + metadata).
    pub fame: FameResult,
    /// Synthesis output (netlist + correspondence info).
    pub synth: SynthResult,
    /// Formally verified RTL↔netlist name map.
    pub name_map: NameMap,
}

/// A fully prepared Strober session for one target design: the FAME1 hub,
/// the synthesized netlist and the verified name map.
///
/// A session additionally caches two derived executables the first run
/// builds — the lowered (and tape-optimized) hub simulator and the
/// compiled gate-level op tape — so a long-lived session (the estimation
/// server holds one per design fingerprint) pays lowering and netlist
/// compilation once, not once per job. Reuse is observable through the
/// `strober.core.hub_tape_reused` and `strober.core.gate_tape_reused`
/// probe counters.
#[derive(Debug)]
pub struct StroberFlow {
    config: StroberConfig,
    fame: FameResult,
    synth: SynthResult,
    name_map: NameMap,
    lib: CellLibrary,
    analyzer: PowerAnalyzer,
    /// Pristine lowered hub simulator, cloned per sampled run.
    hub: OnceLock<Simulator>,
    /// Compiled gate-level op tape, shared by every replay engine.
    gate_tape: OnceLock<Arc<Tape>>,
    /// Where batched replay loads snapshot state, resolved against
    /// `gate_tape` on first use.
    load_plan: OnceLock<LoadPlan>,
    /// The settle engine every hub simulator of this session runs under,
    /// resolved once — by [`StroberFlow::prepare_jit`] or by the first
    /// run, whichever comes first — and never revisited.
    engine: OnceLock<EngineChoice>,
}

/// The outcome of resolving [`PlatformConfig::hub_engine`] for a session.
#[derive(Debug)]
struct EngineChoice {
    /// The native settle engine, unless the session walks the tape.
    native: Option<JitPrep>,
    /// Why this engine, for manifests and the CLI (see
    /// [`StroberFlow::hub_engine_reason`]).
    reason: String,
}

/// The session's native settle engine plus its provenance.
#[derive(Debug)]
struct JitPrep {
    /// The pristine hub simulator with the engine attached: the template
    /// every run clones, so all of them share one loaded dylib (via
    /// `Arc`) and none repeats the attach-time signature check.
    hub: Simulator,
    provenance: JitProvenance,
    compile_ms: u64,
}

impl StroberFlow {
    /// Prepares a session: FAME1 transform, synthesis, formal matching.
    ///
    /// # Errors
    ///
    /// Returns a [`StroberError`] if the design is invalid, synthesis
    /// fails, or the formal matcher finds a discrepancy.
    pub fn new(design: &Design, config: StroberConfig) -> Result<Self, StroberError> {
        let _span = strober_probe::span("strober.core.prepare");
        Self::prepare_cold(design, config)
    }

    /// The uninstrumented cold-preparation pipeline, shared by [`Self::new`]
    /// and [`Self::prepare_cached`] so each entry point records exactly one
    /// `strober.core.prepare` span whether the store hits or not.
    fn prepare_cold(design: &Design, config: StroberConfig) -> Result<Self, StroberError> {
        // Reject an invalid confidence level before the expensive pipeline
        // runs: a bad `Level(p)` from a config file or CLI flag would
        // otherwise only surface as a panic inside `estimate`, hours into
        // a sampled run.
        config.confidence.validate()?;
        let fame = transform(
            design,
            &FameConfig {
                replay_length: config.replay_length,
                warmup: config.warmup,
            },
        )?;
        let synth = synthesize(design, &config.synth)?;
        let report = match_designs(design, &synth, &MatchOptions::default())?;
        let lib = CellLibrary::generic_45nm();
        let analyzer = PowerAnalyzer::new(&synth.netlist, &lib, config.freq_hz);
        Ok(StroberFlow {
            config,
            fame,
            synth,
            name_map: report.name_map,
            lib,
            analyzer,
            hub: OnceLock::new(),
            gate_tape: OnceLock::new(),
            load_plan: OnceLock::new(),
            engine: OnceLock::new(),
        })
    }

    /// Reassembles a session from previously prepared artifacts, skipping
    /// the FAME1 transform, synthesis and formal matching. The cheap parts
    /// (cell library, power analyzer) are rebuilt from the config.
    pub fn from_parts(config: StroberConfig, parts: PreparedArtifact) -> Self {
        let lib = CellLibrary::generic_45nm();
        let analyzer = PowerAnalyzer::new(&parts.synth.netlist, &lib, config.freq_hz);
        StroberFlow {
            config,
            fame: parts.fame,
            synth: parts.synth,
            name_map: parts.name_map,
            lib,
            analyzer,
            hub: OnceLock::new(),
            gate_tape: OnceLock::new(),
            load_plan: OnceLock::new(),
            engine: OnceLock::new(),
        }
    }

    /// The stable cache key for preparing `design` under `config`.
    ///
    /// Hashes the canonical serialization of the design and exactly the
    /// configuration preparation consumes — the FAME window
    /// (`replay_length`, `warmup`) and the synthesis options. Run-only
    /// knobs (seed, sample size, confidence, frequency, platform) are
    /// left out on purpose: changing one must hit the store, not redo
    /// FAME/synthesis/formal matching.
    pub fn prepare_fingerprint(design: &Design, config: &StroberConfig) -> Fingerprint {
        let fame_config = FameConfig {
            replay_length: config.replay_length,
            warmup: config.warmup,
        };
        fingerprint_parts(&[&"strober-prepare", design, &config.synth, &fame_config])
    }

    /// Prepares a session through the artifact store: on a hit the
    /// transform/synthesis/matching pipeline is skipped entirely and the
    /// session is rebuilt from the cached [`PreparedArtifact`]; on a miss
    /// the session is prepared cold and the artifacts are stored
    /// (best-effort) for next time.
    ///
    /// Returns the session and whether it was served from the store.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`StroberFlow::new`]; store failures
    /// never surface, they only cost the speedup.
    pub fn prepare_cached(
        design: &Design,
        config: StroberConfig,
        store: &mut Store,
    ) -> Result<(Self, bool), StroberError> {
        let _span = strober_probe::span("strober.core.prepare");
        config.confidence.validate()?;
        let key = Self::prepare_fingerprint(design, &config);
        if let Some(parts) = store.get::<PreparedArtifact>(key) {
            return Ok((Self::from_parts(config, parts), true));
        }
        let flow = Self::prepare_cold(design, config)?;
        store.put(
            key,
            &PreparedArtifact {
                fame: flow.fame.clone(),
                synth: flow.synth.clone(),
                name_map: flow.name_map.clone(),
            },
        );
        Ok((flow, false))
    }

    /// The default replay parallelism: every available hardware thread.
    /// Falls back to 1 when the parallelism cannot be queried.
    pub fn default_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// The session configuration.
    pub fn config(&self) -> &StroberConfig {
        &self.config
    }

    /// The FAME1 transform output (hub design + metadata).
    pub fn fame(&self) -> &FameResult {
        &self.fame
    }

    /// The synthesis output.
    pub fn synth(&self) -> &SynthResult {
        &self.synth
    }

    /// The verified RTL↔netlist name map.
    pub fn name_map(&self) -> &NameMap {
        &self.name_map
    }

    /// The cell library used for power analysis.
    pub fn library(&self) -> &CellLibrary {
        &self.lib
    }

    /// A ready-to-run hub simulator: lowered and tape-optimized on first
    /// use, cloned from the pristine cached copy afterwards. Cloning
    /// reproduces the fresh-lowering state exactly (cycle 0, reset
    /// registers/memories), so reuse is bit-invisible.
    ///
    /// Every clone shares the session's native settle code. If nothing
    /// resolved the engine yet (no [`prepare_jit`](Self::prepare_jit)),
    /// the first call does, through the temp cache — and that fixes it
    /// for the session however short this run is: a compile put off until
    /// a run "proves long" would land in the middle of one.
    fn hub_sim(&self) -> Result<Simulator, StroberError> {
        match self.native_hub(None) {
            Some(native) => Ok(native.clone()),
            None => Ok(self.pristine_hub()?.clone()),
        }
    }

    /// The pristine lowered hub simulator (never stepped, no engine
    /// attached), built on first use from the free-run hub
    /// ([`FameResult::free_run`]): a session captures by reading storage,
    /// never by shifting, so the scan and readout logic is tied off.
    fn pristine_hub(&self) -> Result<&Simulator, StroberError> {
        if let Some(sim) = self.hub.get() {
            strober_probe::counter_add("strober.core.hub_tape_reused", 1);
            return Ok(sim);
        }
        let sim = ZynqHost::lower_free_run(&self.fame)?;
        strober_probe::counter_add("strober.core.hub_tape_lowered", 1);
        // A concurrent first run may have won the race; either copy is
        // equivalent, so the loser's work is merely discarded.
        let _ = self.hub.set(sim);
        Ok(self.hub.get().expect("just set"))
    }

    /// The artifact-store key for this session's compiled settle dylib:
    /// generated-source signature (a content hash of the design's
    /// optimized tape and the codegen revision) + rustc version, so either
    /// changing misses cleanly.
    fn jit_fingerprint(sig: u64, rustc: &str) -> Fingerprint {
        fingerprint_parts(&[&"strober-jit", &sig, &rustc])
    }

    /// Resolves the session's settle engine now, through the artifact
    /// store, so the cost lands in preparation instead of the first run.
    /// [`HubEngine::Auto`] and [`HubEngine::Jit`] both want native code
    /// and take the same ladder, mirroring
    /// [`prepare_cached`](Self::prepare_cached)'s: a stored dylib attaches
    /// without invoking `rustc` (provenance `store`), so does one compiled
    /// earlier into the same cache directory (`warm`), and otherwise one
    /// synchronous `rustc` run compiles it and persists it for next time
    /// (`cold`). They differ only when no native engine can be had: `auto`
    /// asked for the fastest engine *available* and walks the tape
    /// without complaint, `jit` asked for native code by name and says so
    /// (a warning, `strober.jit.fallback`). Results are bit-identical
    /// either way. [`HubEngine::Interp`] never compiles or attaches.
    ///
    /// Returns `(provenance, compile_ms)` when a native engine is ready.
    /// Without a store the compile still runs (and dedupes) through the
    /// on-disk temp cache; only the artifact-store round-trip is skipped.
    /// A session that never calls this resolves the same way, storeless,
    /// on its first run.
    pub fn prepare_jit(&self, store: Option<&mut Store>) -> Option<(&'static str, u64)> {
        self.native_hub(store);
        self.jit_info()
    }

    /// The settle engine this session's hub simulators run under, after
    /// fallback: `tape-jit` only when a compiled engine is actually
    /// prepared, `tape` otherwise (and until `prepare_jit` or a first run
    /// has resolved it). For run manifests and the `engine` metric label.
    pub fn hub_engine_name(&self) -> &'static str {
        if self.jit_info().is_some() {
            "tape-jit"
        } else {
            "tape"
        }
    }

    /// Why the session runs under [`hub_engine_name`](Self::hub_engine_name):
    /// `requested` when the configured engine was named and delivered
    /// (`interp`, or `jit` with native code attached); for `auto`, how
    /// the native engine was had — `auto: store hit`, `auto: cache hit`,
    /// `auto: compiled in 209 ms` — or why it was not —
    /// `auto: no rustc on PATH, interpreted`; the same `jit: …,
    /// interpreted` form when a named `jit` fell back. `unresolved`
    /// before `prepare_jit` or a first run.
    pub fn hub_engine_reason(&self) -> &str {
        self.engine.get().map_or("unresolved", |c| &c.reason)
    }

    /// The prepared native engine's `(provenance, compile_ms)`, if one is
    /// attached to this session. For run manifests.
    pub fn jit_info(&self) -> Option<(&'static str, u64)> {
        let native = self.engine.get()?.native.as_ref()?;
        Some((native.provenance.as_str(), native.compile_ms))
    }

    /// The pristine hub simulator with the session's native settle engine
    /// attached, resolving the engine choice on first use; `None` means
    /// the session walks the tape.
    fn native_hub(&self, store: Option<&mut Store>) -> Option<&Simulator> {
        let choice = self.engine.get_or_init(|| self.resolve_engine(store));
        choice.native.as_ref().map(|p| &p.hub)
    }

    /// Turns the configured [`HubEngine`] into what the session runs.
    fn resolve_engine(&self, store: Option<&mut Store>) -> EngineChoice {
        let requested = self.config.platform.hub_engine;
        if requested == HubEngine::Interp {
            return EngineChoice {
                native: None,
                reason: "requested".to_owned(),
            };
        }
        let _span = strober_probe::span("strober.core.jit_prepare");
        match self.build_native(store) {
            Ok(native) => {
                let reason = match (requested, native.provenance) {
                    (HubEngine::Jit, _) => "requested".to_owned(),
                    (_, JitProvenance::Store) => "auto: store hit".to_owned(),
                    (_, JitProvenance::Warm) => "auto: cache hit".to_owned(),
                    (_, JitProvenance::Cold) => {
                        format!("auto: compiled in {} ms", native.compile_ms)
                    }
                };
                EngineChoice {
                    native: Some(native),
                    reason,
                }
            }
            Err(why) => {
                if requested == HubEngine::Jit {
                    strober_jit::record_fallback(&why);
                } else {
                    strober_probe::info!(
                        "no native settle engine ({why}); interpreting the hub tape"
                    );
                }
                EngineChoice {
                    native: None,
                    reason: format!("{requested}: {why}, interpreted"),
                }
            }
        }
    }

    /// Builds the shared native settle engine: store hit, else file-cache
    /// hit, else one `rustc` run. With a store, compiled dylibs round-trip
    /// through it as [`JitArtifact`]s; without one, the temp-directory
    /// file cache still dedupes compiles across sessions. The error says
    /// why the session has to walk the tape instead.
    fn build_native(&self, store: Option<&mut Store>) -> Result<JitPrep, String> {
        let pristine = self.pristine_hub().map_err(|e| e.to_string())?;
        let source = pristine.jit_source();
        let ready = |engine: strober_jit::DylibEngine, provenance, compile_ms| {
            let mut hub = pristine.clone();
            hub.attach_jit(Arc::new(engine))
                .map_err(|e| e.to_string())?;
            Ok(JitPrep {
                hub,
                provenance,
                compile_ms,
            })
        };
        let rustc = strober_jit::rustc_version().ok_or("no rustc on PATH")?;
        let (compiler, mut store) = match store {
            Some(store) => (JitCompiler::new(store.root().join("jit")), Some(store)),
            None => (JitCompiler::in_temp(), None),
        };
        let key = Self::jit_fingerprint(source.sig, rustc);
        // Store hit: materialize the cached bytes, skip rustc.
        let stored = store.as_deref_mut().and_then(|s| s.get::<JitArtifact>(key));
        let mut restock = false;
        if let Some(artifact) = stored {
            match compiler.prepare_artifact(&source, &artifact) {
                Ok((engine, outcome)) => {
                    strober_probe::counter_add("strober.jit.prepare_store", 1);
                    return ready(engine, outcome.provenance, artifact.compile_ms);
                }
                Err(e) => {
                    // Bytes that fail their seal, or a stale entry under
                    // a content key: replace it with what is built below.
                    strober_probe::warn!("stored jit artifact unusable: {e}");
                    restock = true;
                }
            }
        }
        let (engine, outcome) = compiler.prepare(&source).map_err(|e| e.to_string())?;
        let cold = outcome.provenance == JitProvenance::Cold;
        strober_probe::counter_add(
            if cold {
                "strober.jit.prepare_cold"
            } else {
                "strober.jit.prepare_warm"
            },
            1,
        );
        if let (Some(store), true) = (store, cold || restock) {
            if let Ok(dylib) = std::fs::read(&outcome.dylib_path) {
                store.put(
                    key,
                    &JitArtifact {
                        rustc: rustc.to_owned(),
                        sig: source.sig,
                        dylib,
                        compile_ms: outcome.compile_ms,
                    },
                );
            }
        }
        ready(engine, outcome.provenance, outcome.compile_ms)
    }

    /// The compiled gate-level op tape, built from the synthesized
    /// netlist on first use and shared (via `Arc`) by every subsequent
    /// replay engine.
    fn replay_tape(&self) -> Result<Arc<Tape>, StroberError> {
        if let Some(tape) = self.gate_tape.get() {
            strober_probe::counter_add("strober.core.gate_tape_reused", 1);
            return Ok(tape.clone());
        }
        let tape = Arc::new(Tape::compile(&self.synth.netlist)?);
        strober_probe::counter_add("strober.core.gate_tape_compiled", 1);
        let _ = self.gate_tape.set(tape.clone());
        Ok(tape)
    }

    /// Batched replay's state-load plan, resolved against `tape` (the
    /// session's [`replay_tape`](Self::replay_tape)) on first use.
    fn load_plan(&self, tape: &Tape) -> Result<&LoadPlan, StroberError> {
        if let Some(plan) = self.load_plan.get() {
            return Ok(plan);
        }
        let plan = LoadPlan::new(&self.fame.meta, &self.name_map, tape)?;
        // As with the tape, a concurrent first batch may have won.
        let _ = self.load_plan.set(plan);
        Ok(self.load_plan.get().expect("just set"))
    }

    /// Runs the workload on the host platform with reservoir sampling:
    /// the execution is divided into `L`-cycle windows, each window is a
    /// population element, and selected windows are captured as replayable
    /// snapshots (state scan + I/O trace).
    ///
    /// Stops when the host model reports completion or after `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns a [`StroberError`] if the hub cannot be simulated.
    pub fn run_sampled(
        &self,
        model: &mut dyn HostModel,
        max_cycles: u64,
    ) -> Result<SampledRun, StroberError> {
        let (run, _) = self.sample_windows(model, max_cycles, None, &RunControl::default())?;
        Ok(run)
    }

    /// The one sampling loop, and the one place replay is scheduled:
    /// every `L`-cycle window is offered to the reservoir, selected
    /// windows are captured and the rest run free. Cancellation is
    /// checked at every window boundary and [`Progress::SimWindows`]
    /// reported every [`RunControl::window_stride`] windows.
    ///
    /// With a `replay` plan, whatever the reservoir holds when the loop
    /// ends is replayed and the results come back in slot order; a plan
    /// with a [`StoppingRule`] also replays and evaluates the rule at its
    /// checkpoints ([`StroberFlow::replay_streaming`] has the contract).
    /// Without a plan nothing is replayed and the results are empty.
    fn sample_windows(
        &self,
        model: &mut dyn HostModel,
        max_cycles: u64,
        replay: Option<&ReplayPlan>,
        ctl: &RunControl<'_>,
    ) -> Result<(SampledRun, Vec<ReplayResult>), StroberError> {
        let span = strober_probe::span("strober.core.run_sampled");
        let t0 = std::time::Instant::now();
        let mut host =
            ZynqHost::with_sim(&self.fame, self.config.platform.clone(), self.hub_sim()?)?;
        let window = host.trace_window();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut reservoir: Reservoir<FameSnapshot> = Reservoir::new(self.config.sample_size);
        // One result per reservoir slot; `None` marks a slot placed since
        // it was last replayed.
        let mut results: Vec<Option<ReplayResult>> = Vec::new();
        let mut replay_wall = Duration::ZERO;
        // The rule's schedule, when the plan carries a rule.
        let mut schedule = replay.and_then(|plan| {
            let rule = plan.stopping?;
            Some((plan, rule, rule.checkpoints().peekable()))
        });
        let mut converged = None;

        let stride = ctl.window_stride();
        let mut windows = 0u64;
        // Tracks the window count of the last report, so the completion
        // report is skipped when the count lands exactly on a stride
        // boundary (the in-loop report already covered it).
        let mut last_report = u64::MAX;
        while host.target_cycles() < max_cycles && !model.is_done() {
            if ctl.is_cancelled() {
                return Err(StroberError::Cancelled);
            }
            match reservoir.decide(&mut rng) {
                Some(slot) => {
                    reservoir.place(slot, host.capture_snapshot(model)?)?;
                    if let Some(stale) = results.get_mut(slot) {
                        *stale = None;
                    }
                }
                None => {
                    host.run(model, window)?;
                }
            }
            windows += 1;
            if windows.is_multiple_of(stride) {
                last_report = windows;
                ctl.report(Progress::SimWindows {
                    windows,
                    target_cycles: host.target_cycles(),
                });
            }
            if let Some((plan, rule, checkpoints)) = &mut schedule {
                // While the reservoir still holds every window the
                // "sample" is a census: eq. 6's finite-population
                // correction is exactly zero and any ε is met trivially.
                // Such a checkpoint is passed over; the rule is first
                // consulted once there is something left to infer.
                let sample = reservoir.sample();
                if checkpoints.next_if_eq(&windows).is_some() && windows as usize > sample.len() {
                    replay_wall += self.replay_pending(sample, &mut results, plan, ctl)?;
                    converged = evaluate_stop(rule, &results, windows, ctl);
                    if converged.is_some() {
                        break;
                    }
                }
            }
        }
        if last_report != windows {
            ctl.report(Progress::SimWindows {
                windows,
                target_cycles: host.target_cycles(),
            });
        }

        if strober_probe::enabled() {
            let elapsed = t0.elapsed().saturating_sub(replay_wall).as_secs_f64();
            if elapsed > 0.0 {
                let rate = host.target_cycles() as f64 / elapsed;
                gauge_set("strober.core.sim_cycles_per_sec", ctl, rate);
            }
        }
        drop(span);
        if let Some(plan) = replay {
            replay_wall += self.replay_pending(reservoir.sample(), &mut results, plan, ctl)?;
        }

        let stats = host.stats();
        let run = SampledRun {
            records: reservoir.records(),
            snapshots: reservoir.into_sample(),
            target_cycles: stats.target_cycles,
            windows,
            stats,
            // A rule that fires in the workload's last window stopped
            // nothing: the run covers the whole workload and says so.
            stop: match converged {
                _ if model.is_done() => StopReason::WorkloadDone,
                Some(stop) => stop,
                None => StopReason::MaxCycles,
            },
            replay_wall,
        };
        let results = results
            .into_iter()
            .map(|r| r.expect("every kept snapshot replayed"))
            .collect();
        Ok((run, results))
    }

    /// Replays the slots of `sample` that hold no result yet — those
    /// placed since the last call — and files each result under its slot.
    /// Returns the wall clock this took.
    fn replay_pending(
        &self,
        sample: &[FameSnapshot],
        results: &mut Vec<Option<ReplayResult>>,
        plan: &ReplayPlan,
        ctl: &RunControl<'_>,
    ) -> Result<Duration, StroberError> {
        let t0 = std::time::Instant::now();
        results.resize_with(sample.len(), || None);
        let pending: Vec<usize> = (0..sample.len())
            .filter(|&slot| results[slot].is_none())
            .collect();
        if !pending.is_empty() {
            let snapshots: Vec<&FameSnapshot> = pending.iter().map(|&slot| &sample[slot]).collect();
            let replayed =
                self.replay_all_controlled(&snapshots, plan.parallelism, plan.batch_lanes, ctl)?;
            for (slot, result) in pending.into_iter().zip(replayed) {
                results[slot] = Some(result);
            }
        }
        Ok(t0.elapsed())
    }

    /// Runs the sampled fast simulation and the gate-level replay of the
    /// kept snapshots as one call: `parallelism` worker threads, each
    /// batching up to `batch_lanes` same-length snapshots onto the
    /// bit-parallel engine.
    ///
    /// With `stopping = None` this *is* [`StroberFlow::run_sampled`]
    /// followed by [`StroberFlow::replay_all_batched`] — one loop, one
    /// replay once it ends. With a [`StoppingRule`] the loop also stops
    /// at the rule's [checkpoints](StoppingRule::checkpoints), replays
    /// what was placed since the last one, evaluates the rule over the
    /// current sample (reporting [`Progress::IntervalUpdate`]) and ends
    /// the run as soon as the target relative error is met. The run then
    /// reports [`StopReason::Converged`] with the ε of exactly the sample
    /// [`StroberFlow::estimate`] will see, and the estimate covers the
    /// executed prefix of the workload — not the workload.
    ///
    /// A configuration and seed fix the result, adaptive or not, on any
    /// `parallelism` and `batch_lanes`. [`SampledRun::replay_wall`] says
    /// how much of the call was replay.
    ///
    /// (The name is historical: an earlier pipeline overlapped replay
    /// with capture — DESIGN.md §15.)
    ///
    /// # Errors
    ///
    /// Returns [`StroberError::Cancelled`] when the control's token
    /// trips, [`StroberError::GateSim`] for a `batch_lanes` outside
    /// `1..=64` (before anything is simulated), and otherwise the first
    /// simulation or replay error.
    pub fn replay_streaming(
        &self,
        model: &mut dyn HostModel,
        max_cycles: u64,
        parallelism: usize,
        batch_lanes: usize,
        stopping: Option<StoppingRule>,
        ctl: &RunControl<'_>,
    ) -> Result<(SampledRun, Vec<ReplayResult>), StroberError> {
        check_lanes(batch_lanes)?;
        let plan = ReplayPlan {
            parallelism,
            batch_lanes,
            stopping,
        };
        self.sample_windows(model, max_cycles, Some(&plan), ctl)
    }

    /// Replays up to 64 snapshots at once on the bit-parallel
    /// [`BatchSim`], one per bit-lane. Per lane: forces the recorded
    /// inputs for the `warmup` prefix (recovering retimed-datapath state,
    /// §IV-C3), loads the scanned state through the verified name map
    /// (via the VPI-style bulk loader) at the window boundary, checks
    /// every recorded output inside the window, and measures power over
    /// the `L`-cycle window. Each lane's result is the one it gets alone.
    ///
    /// All snapshots must have the same trace length: lanes share one
    /// instruction stream, hence one cycle count.
    ///
    /// # Errors
    ///
    /// Returns [`StroberError::GateSim`] for an empty or over-64 batch,
    /// [`StroberError::BatchTraceLengthMismatch`] if the snapshots' trace
    /// lengths differ ([`StroberFlow::replay_all_batched`] groups by
    /// length for you), [`StroberError::UnmappedState`] or
    /// [`StroberError::SnapshotLayoutMismatch`] for state the load plan
    /// cannot place, and [`StroberError::ReplayMismatch`] when outputs
    /// diverge from the trace; a mismatch on any lane fails the batch.
    fn replay_batch(&self, snapshots: &[&FameSnapshot]) -> Result<Vec<ReplayResult>, StroberError> {
        let _span = strober_probe::span("strober.core.replay_batch");
        let t0 = strober_probe::enabled().then(std::time::Instant::now);
        let lanes = snapshots.len();
        check_lanes(lanes)?;
        let total = snapshots[0].trace_len();
        for (lane, s) in snapshots.iter().enumerate() {
            if s.trace_len() != total {
                return Err(StroberError::BatchTraceLengthMismatch {
                    expected: total,
                    got: s.trace_len(),
                    lane,
                });
            }
        }
        let tape = self.replay_tape()?;
        let plan = self.load_plan(&tape)?;
        // Stimulus and checked outputs are resolved once per batch and
        // poked and peeked by index every cycle.
        let resolve =
            |ports: &[(String, Vec<u64>)], index: fn(&Tape, &str) -> Option<usize>, kind| {
                ports
                    .iter()
                    .map(|(name, _)| {
                        index(&tape, name).ok_or_else(|| GateSimError::UnknownName {
                            kind,
                            name: name.clone(),
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
            };
        let inputs = resolve(&snapshots[0].inputs, Tape::input_index, "input port")?;
        let outputs = resolve(&snapshots[0].outputs, Tape::output_index, "output port")?;
        let mut sim = BatchSim::with_tape_lanes(Arc::clone(&tape), &self.synth.netlist, lanes)?;
        let mut pack = Duration::ZERO;
        let (dff_words, sram_images) = timed(&mut pack, || plan.pack(snapshots, &self.name_map))?;

        let warmup = self.config.warmup as usize;
        let mut checked_per_lane = 0u64;
        let mut lane_vals = vec![0u64; lanes];
        for t in 0..total {
            for (pi, (port, _)) in snapshots[0].inputs.iter().enumerate() {
                for (lane, snap) in snapshots.iter().enumerate() {
                    debug_assert_eq!(snap.inputs[pi].0, *port);
                    lane_vals[lane] = snap.inputs[pi].1[t];
                }
                sim.poke_port_lanes_at(inputs[pi], &lane_vals)?;
            }
            if t == warmup {
                timed(&mut pack, || {
                    VpiLoader::load_batch(&mut sim, &dff_words, &sram_images)
                })?;
                sim.reset_activity();
            }
            if t >= warmup {
                for (pi, (port, _)) in snapshots[0].outputs.iter().enumerate() {
                    sim.peek_port_lanes_at(outputs[pi], &mut lane_vals)?;
                    for (lane, snap) in snapshots.iter().enumerate() {
                        debug_assert_eq!(snap.outputs[pi].0, *port);
                        let expected = snap.outputs[pi].1[t];
                        if lane_vals[lane] != expected {
                            return Err(StroberError::ReplayMismatch {
                                cycle: snap.cycle,
                                output: port.clone(),
                                offset: t,
                                expected,
                                got: lane_vals[lane],
                            });
                        }
                    }
                    checked_per_lane += 1;
                }
            }
            sim.step();
        }

        let mut power = Duration::ZERO;
        let powers = timed(&mut power, || self.analyzer.analyze_all(&sim.activities()));
        strober_probe::counter_add("strober.core.replay_batches", 1);
        strober_probe::counter_add("strober.core.replay_batch_lanes", lanes as u64);
        if let Some(t0) = t0 {
            let phases = sim.phase_times();
            for (name, time) in [
                ("strober.gatesim.batch_settle_ms", phases.settle),
                ("strober.gatesim.batch_sram_read_ms", phases.sram_read),
                ("strober.gatesim.batch_count_ms", phases.count),
                ("strober.gatesim.batch_sram_ms", phases.sram),
                ("strober.gatesim.batch_latch_ms", phases.latch),
                ("strober.core.replay_batch_pack_ms", pack),
                ("strober.core.replay_batch_power_ms", power),
                ("strober.core.replay_batch_ms", t0.elapsed()),
            ] {
                strober_probe::histogram_record(name, time.as_secs_f64() * 1e3);
            }
        }
        Ok(powers
            .into_iter()
            .zip(snapshots)
            .map(|(power, snap)| ReplayResult {
                cycle: snap.cycle,
                power,
                outputs_checked: checked_per_lane,
            })
            .collect())
    }

    /// Replays all snapshots with bit-parallel batching and worker
    /// threads composed: snapshots are grouped by trace length, packed
    /// into batches of up to `batch_lanes` lanes, and the batches are
    /// distributed over `parallelism` threads (`threads × lanes`
    /// concurrent replays). Results come back in snapshot order and do
    /// not depend on `batch_lanes` or `parallelism`; `batch_lanes == 1`
    /// replays one snapshot per pass.
    ///
    /// # Errors
    ///
    /// Returns [`StroberError::GateSim`] for a `batch_lanes` outside
    /// `1..=64`, otherwise the first replay error encountered.
    pub fn replay_all_batched(
        &self,
        snapshots: &[FameSnapshot],
        parallelism: usize,
        batch_lanes: usize,
    ) -> Result<Vec<ReplayResult>, StroberError> {
        let snapshots: Vec<&FameSnapshot> = snapshots.iter().collect();
        self.replay_all_controlled(&snapshots, parallelism, batch_lanes, &RunControl::default())
    }

    /// [`StroberFlow::replay_all_batched`] with cooperative run control:
    /// the cancellation token is checked before every batch (on every
    /// worker thread), and [`Progress::ReplayBatches`] is reported as
    /// each batch completes. The default control reproduces
    /// [`StroberFlow::replay_all_batched`] exactly — results are
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`StroberError::Cancelled`] when the token trips, and the
    /// same errors as [`StroberFlow::replay_all_batched`] otherwise.
    fn replay_all_controlled(
        &self,
        snapshots: &[&FameSnapshot],
        parallelism: usize,
        batch_lanes: usize,
        ctl: &RunControl<'_>,
    ) -> Result<Vec<ReplayResult>, StroberError> {
        let _span = strober_probe::span("strober.core.replay");
        check_lanes(batch_lanes)?;
        let parallelism = parallelism.max(1);
        let replay_t0 = std::time::Instant::now();

        // Batch formation: group by trace length (lanes share one
        // instruction stream), then cut each group into lane-sized runs,
        // keeping the original order inside every batch.
        let mut by_len: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, s) in snapshots.iter().enumerate() {
            let len = s.trace_len();
            match by_len.iter_mut().find(|(l, _)| *l == len) {
                Some((_, v)) => v.push(i),
                None => by_len.push((len, vec![i])),
            }
        }
        let batches: Vec<&[usize]> = by_len
            .iter()
            .flat_map(|(_, idxs)| idxs.chunks(batch_lanes))
            .collect();

        let total = batches.len() as u64;
        let done = AtomicU64::new(0);
        // One cancellation / progress quantum.
        let run_batch = |batch: &[usize]| -> Result<Vec<ReplayResult>, StroberError> {
            if ctl.is_cancelled() {
                return Err(StroberError::Cancelled);
            }
            let refs: Vec<&FameSnapshot> = batch.iter().map(|&i| snapshots[i]).collect();
            let results = self.replay_batch(&refs)?;
            ctl.report(Progress::ReplayBatches {
                done: done.fetch_add(1, Ordering::Relaxed) + 1,
                total,
            });
            Ok(results)
        };

        let per_batch: Vec<Vec<ReplayResult>> = if parallelism == 1 || batches.len() <= 1 {
            batches
                .iter()
                .map(|b| run_batch(b))
                .collect::<Result<_, _>>()?
        } else {
            // Contiguous blocks of batches per worker, joined in spawn
            // order, so flattening restores batch order.
            let chunk = batches.len().div_ceil(parallelism);
            std::thread::scope(|scope| {
                let handles: Vec<_> = batches
                    .chunks(chunk)
                    .enumerate()
                    .map(|(ci, block)| {
                        let run_batch = &run_batch;
                        scope.spawn(move || {
                            let _span =
                                strober_probe::span(format!("strober.core.replay_worker.{ci}"));
                            block.iter().map(|b| run_batch(b)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("replay worker panicked"))
                    .collect::<Result<_, _>>()
            })?
        };

        let mut slots: Vec<Option<ReplayResult>> = (0..snapshots.len()).map(|_| None).collect();
        for (batch, results) in batches.iter().zip(per_batch) {
            for (&i, r) in batch.iter().zip(results) {
                slots[i] = Some(r);
            }
        }
        record_replay_rate(snapshots.len(), replay_t0, ctl);
        Ok(slots
            .into_iter()
            .map(|r| r.expect("every snapshot replayed"))
            .collect())
    }

    /// Replays all snapshots, distributing them over `parallelism` worker
    /// threads — snapshots are independent, exactly as §III-B observes.
    /// Uses full 64-lane bit-parallel batching; call
    /// [`StroberFlow::replay_all_batched`] to pick the lane count.
    ///
    /// # Errors
    ///
    /// Returns the first replay error encountered.
    pub fn replay_all(
        &self,
        snapshots: &[FameSnapshot],
        parallelism: usize,
    ) -> Result<Vec<ReplayResult>, StroberError> {
        self.replay_all_batched(snapshots, parallelism, MAX_LANES)
    }

    /// Combines a sampled run and its replay results into the final
    /// energy estimate with a confidence interval.
    ///
    /// # Errors
    ///
    /// Returns [`StroberError::Stats`] with fewer than two replay results
    /// or an invalid configured confidence level — both previously
    /// process-aborting panics.
    pub fn estimate(
        &self,
        run: &SampledRun,
        results: &[ReplayResult],
    ) -> Result<EnergyEstimate, StroberError> {
        let _span = strober_probe::span("strober.core.estimate");
        Ok(EnergyEstimate::from_results(
            results,
            run.windows,
            run.target_cycles,
            self.config.freq_hz,
            self.config.confidence,
        )?)
    }
}

/// How [`StroberFlow::sample_windows`] replays what it keeps: the worker
/// and lane shape of every replay, and the rule (if any) whose
/// checkpoints it stops at.
struct ReplayPlan {
    parallelism: usize,
    batch_lanes: usize,
    stopping: Option<StoppingRule>,
}

fn check_lanes(batch_lanes: usize) -> Result<(), StroberError> {
    if batch_lanes == 0 || batch_lanes > MAX_LANES {
        return Err(GateSimError::BadLaneCount { lanes: batch_lanes }.into());
    }
    Ok(())
}

/// Evaluates `rule` at a checkpoint, over exactly the sample the
/// reservoir holds (every slot has a result) with the `windows` simulated
/// so far as the population: reports [`Progress::IntervalUpdate`] and the
/// `strober.sampling.stop.*` series, and returns the stop reason when the
/// rule converged. Its ε is the ε [`StroberFlow::estimate`] computes from
/// the same results — nothing is placed after the decision.
fn evaluate_stop(
    rule: &StoppingRule,
    results: &[Option<ReplayResult>],
    windows: u64,
    ctl: &RunControl<'_>,
) -> Option<StopReason> {
    let powers: Vec<f64> = results
        .iter()
        .flatten()
        .map(|r| r.power.total_mw())
        .collect();
    // Fewer than two kept snapshots: no variance, nothing to evaluate.
    let stats = SampleStats::from_measurements(&powers).ok()?;
    let interval = stats.confidence_interval(windows as usize, rule.confidence());
    let relative_error = interval.relative_error_bound();
    strober_probe::counter_add("strober.sampling.stop.evaluations", 1);
    if relative_error.is_finite() {
        gauge_set("strober.sampling.stop.relative_error", ctl, relative_error);
    }
    ctl.report(Progress::IntervalUpdate {
        samples: stats.size() as u64,
        mean_mw: interval.mean(),
        half_width_mw: interval.half_width(),
        relative_error,
    });
    match rule.evaluate(&stats, windows as usize) {
        StopDecision::Converged { achieved } => {
            strober_probe::counter_add("strober.sampling.stop.converged", 1);
            Some(StopReason::Converged {
                achieved,
                target: rule.target_epsilon(),
            })
        }
        StopDecision::Continue { .. } => None,
    }
}

/// Sets a gauge globally and, when the control carries run labels, as a
/// labeled series too, so live telemetry can attribute it to its job.
fn gauge_set(name: &str, ctl: &RunControl<'_>, value: f64) {
    strober_probe::gauge_set(name, value);
    if let Some(labels) = ctl.labels {
        strober_probe::gauge_set_labeled(name, labels, value);
    }
}

/// Runs `f`, adding its wall clock to `into` while the probe recorder is
/// enabled.
fn timed<T>(into: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !strober_probe::enabled() {
        return f();
    }
    let t0 = std::time::Instant::now();
    let out = f();
    *into += t0.elapsed();
    out
}

/// Records replay throughput (`strober.core.replay_samples_per_sec`).
fn record_replay_rate(samples: usize, since: std::time::Instant, ctl: &RunControl<'_>) {
    if !strober_probe::enabled() {
        return;
    }
    let elapsed = since.elapsed().as_secs_f64();
    if elapsed <= 0.0 {
        return;
    }
    gauge_set(
        "strober.core.replay_samples_per_sec",
        ctl,
        samples as f64 / elapsed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_dsl::Ctx;
    use strober_platform::OutputView;
    use strober_rtl::Width;

    struct NoIo;
    impl HostModel for NoIo {
        fn tick(&mut self, _c: u64, _io: &mut OutputView<'_>) {}
    }

    fn counter_design() -> Design {
        let ctx = Ctx::new("counter");
        let w16 = Width::new(16).unwrap();
        let count = ctx.scope("core", |c| c.reg("count", w16, 0));
        count.set(&count.out().add_lit(1));
        ctx.output("value", &count.out());
        ctx.finish().unwrap()
    }

    /// The designs in this module are throwaways: they walk the tape
    /// rather than pay one `rustc` run each. The native default is tested
    /// where it matters, on the bundled cores (`tests/engine_default.rs`).
    fn small_config() -> StroberConfig {
        let mut config = StroberConfig {
            replay_length: 16,
            sample_size: 5,
            ..StroberConfig::default()
        };
        config.platform.hub_engine = HubEngine::Interp;
        config
    }

    #[test]
    fn end_to_end_counter() {
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let run = flow.run_sampled(&mut NoIo, 2_000).unwrap();
        assert_eq!(run.snapshots.len(), 5);
        assert!(run.target_cycles >= 2_000);
        assert!(run.records >= 5);

        let results = flow.replay_all(&run.snapshots, 2).unwrap();
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.outputs_checked > 0);
            assert!(r.power.total_mw() > 0.0);
        }

        let estimate = flow.estimate(&run, &results).unwrap();
        assert!(estimate.mean_power_mw() > 0.0);
        assert!(estimate.region_mw("core") > 0.0);
        assert!(estimate.total_energy_mj() > 0.0);
    }

    #[test]
    fn estimate_with_too_few_results_is_a_typed_error() {
        // Previously an `expect` panic inside `EnergyEstimate`.
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let run = flow.run_sampled(&mut NoIo, 1_000).unwrap();
        let results = flow.replay_all(&run.snapshots[..1], 1).unwrap();
        let err = flow.estimate(&run, &results).unwrap_err();
        assert!(matches!(err, StroberError::Stats(_)), "{err}");
    }

    #[test]
    fn invalid_confidence_is_rejected_before_the_run() {
        // Previously the bad level would only panic inside `estimate`,
        // after the full sampled run and replay had already been paid for.
        let config = StroberConfig {
            confidence: Confidence::Level(1.5),
            ..small_config()
        };
        let err = StroberFlow::new(&counter_design(), config).unwrap_err();
        assert!(matches!(err, StroberError::Stats(_)), "{err}");
    }

    #[test]
    fn mixed_trace_lengths_are_a_typed_error() {
        // Previously an `assert!` abort inside `replay_batch`.
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let run = flow.run_sampled(&mut NoIo, 1_000).unwrap();
        let mut short = run.snapshots[1].clone();
        for (_, values) in short.inputs.iter_mut().chain(short.outputs.iter_mut()) {
            values.truncate(4);
        }
        let err = flow.replay_batch(&[&run.snapshots[0], &short]).unwrap_err();
        assert!(
            matches!(
                err,
                StroberError::BatchTraceLengthMismatch {
                    lane: 1,
                    got: 4,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn replay_detects_corrupted_snapshots() {
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let run = flow.run_sampled(&mut NoIo, 1_000).unwrap();
        let mut snap = run.snapshots[0].clone();
        // Corrupt the captured register state: the free-running counter's
        // outputs can no longer match the trace.
        snap.regs[0].1 ^= 0x5A;
        let err = flow.replay_batch(&[&snap]).unwrap_err();
        assert!(matches!(err, StroberError::ReplayMismatch { .. }), "{err}");
    }

    #[test]
    fn batched_replay_is_bit_identical_to_sequential() {
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let run = flow.run_sampled(&mut NoIo, 2_000).unwrap();
        let sequential: Vec<ReplayResult> = run
            .snapshots
            .iter()
            .flat_map(|s| flow.replay_batch(&[s]).unwrap())
            .collect();
        // Full-width lanes, narrow lanes, and one lane per pass must all
        // agree exactly — power reports included.
        for lanes in [64, 2, 1] {
            let batched = flow.replay_all_batched(&run.snapshots, 1, lanes).unwrap();
            assert_eq!(batched, sequential, "lane count {lanes} diverged");
        }
    }

    #[test]
    fn batched_replay_detects_corrupted_lanes() {
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let run = flow.run_sampled(&mut NoIo, 1_000).unwrap();
        let mut snapshots = run.snapshots.clone();
        // Corrupt one lane in the middle of the batch: the error names
        // that lane's sample.
        snapshots[2].regs[0].1 ^= 0x5A;
        let err = flow.replay_all_batched(&snapshots, 1, 64).unwrap_err();
        assert!(
            matches!(err, StroberError::ReplayMismatch { cycle, .. } if cycle == snapshots[2].cycle),
            "{err}"
        );
    }

    /// Two registers and a memory: a counter, its previous value and a
    /// 16-word log of it, read back 15 cycles later.
    fn logger_design() -> Design {
        let ctx = Ctx::new("logger");
        let w16 = Width::new(16).unwrap();
        let (count, last, log) = ctx.scope("core", |c| {
            (
                c.reg("count", w16, 0),
                c.reg("last", w16, 0),
                c.mem("log", w16, 16),
            )
        });
        count.set(&count.out().add_lit(1));
        last.set(&count.out());
        log.write(&count.out().bits(3, 0), &count.out(), &ctx.lit1(true));
        let oldest = log.read(&count.out().add_lit(1).bits(3, 0));
        ctx.output("value", &(&oldest ^ &last.out()));
        ctx.finish().unwrap()
    }

    #[test]
    fn batched_replay_reports_unmapped_state_as_the_scalar_replay_does() {
        let flow = StroberFlow::new(&logger_design(), small_config()).unwrap();
        let run = flow.run_sampled(&mut NoIo, 1_000).unwrap();
        assert!(flow.replay_all_batched(&run.snapshots, 1, 64).is_ok());
        let ghost_reg = |s: &mut FameSnapshot| s.regs[1].0 = "core/ghost".to_owned();
        let ghost_mem = |s: &mut FameSnapshot| s.mems[0].0 = "core/ghost".to_owned();
        for corrupt in [ghost_reg, ghost_mem] {
            let mut stray = run.snapshots[1].clone();
            corrupt(&mut stray);
            let alone = flow.replay_batch(&[&stray]).unwrap_err();
            let batched = flow.replay_batch(&[&run.snapshots[0], &stray]).unwrap_err();
            for err in [alone, batched] {
                assert!(
                    matches!(&err, StroberError::UnmappedState { name } if name == "core/ghost"),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn batched_replay_refuses_snapshots_off_the_scan_chain() {
        // Batched replay loads state by scan-chain position, so a lane
        // whose snapshot is ordered or sized differently is refused,
        // naming that snapshot, before anything is loaded.
        let flow = StroberFlow::new(&logger_design(), small_config()).unwrap();
        let run = flow.run_sampled(&mut NoIo, 1_000).unwrap();
        let swapped = |s: &mut FameSnapshot| s.regs.swap(0, 1);
        let short_chain = |s: &mut FameSnapshot| {
            s.regs.pop();
        };
        let short_memory = |s: &mut FameSnapshot| s.mems[0].1.truncate(8);
        let no_memory = |s: &mut FameSnapshot| s.mems.clear();
        for corrupt in [swapped, short_chain, short_memory, no_memory] {
            let mut stray = run.snapshots[2].clone();
            corrupt(&mut stray);
            let err = flow.replay_batch(&[&run.snapshots[0], &stray]).unwrap_err();
            assert!(
                matches!(err, StroberError::SnapshotLayoutMismatch { cycle, .. } if cycle == stray.cycle),
                "{err}"
            );
        }
    }

    #[test]
    fn bad_lane_counts_are_rejected() {
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        for lanes in [0, 65] {
            let err = flow.replay_all_batched(&[], 1, lanes).unwrap_err();
            assert!(matches!(err, StroberError::GateSim(_)), "{err}");
        }
    }

    #[test]
    fn cancelled_token_stops_sim_and_replay() {
        use crate::control::{CancelToken, RunControl};
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl::cancellable(&token);
        let err = flow
            .sample_windows(&mut NoIo, 2_000, None, &ctl)
            .unwrap_err();
        assert!(matches!(err, StroberError::Cancelled), "{err}");

        // Capture a run with an inert control, then cancel its replay.
        let run = flow.run_sampled(&mut NoIo, 2_000).unwrap();
        let snapshots: Vec<&FameSnapshot> = run.snapshots.iter().collect();
        for (parallelism, lanes) in [(1, 64), (2, 64), (1, 1), (2, 1)] {
            let err = flow
                .replay_all_controlled(&snapshots, parallelism, lanes, &ctl)
                .unwrap_err();
            assert!(matches!(err, StroberError::Cancelled), "{err}");
        }
    }

    #[test]
    fn controlled_replay_reports_progress_and_matches_uncontrolled() {
        use crate::control::{Progress, RunControl};
        use std::sync::Mutex;
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let run = flow.run_sampled(&mut NoIo, 2_000).unwrap();
        let baseline = flow.replay_all(&run.snapshots, 1).unwrap();

        let seen = Mutex::new(Vec::new());
        let hook = |p: Progress| seen.lock().unwrap().push(p);
        let ctl = RunControl {
            cancel: None,
            progress: Some(&hook),
            progress_window_stride: 0,
            labels: None,
        };
        let snapshots: Vec<&FameSnapshot> = run.snapshots.iter().collect();
        let controlled = flow.replay_all_controlled(&snapshots, 2, 2, &ctl).unwrap();
        assert_eq!(controlled, baseline, "control must not change results");
        let seen = seen.lock().unwrap();
        let batches: Vec<_> = seen
            .iter()
            .filter(|p| matches!(p, Progress::ReplayBatches { .. }))
            .collect();
        // 5 snapshots at 2 lanes = 3 batches, each reported once.
        assert_eq!(batches.len(), 3, "{seen:?}");
    }

    #[test]
    fn second_run_reuses_the_lowered_hub_and_gate_tape() {
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        assert!(flow.hub.get().is_none() && flow.gate_tape.get().is_none());
        let run = flow.run_sampled(&mut NoIo, 1_000).unwrap();
        let first = flow.replay_all(&run.snapshots, 1).unwrap();

        // The first run populated both caches; the second run must hand
        // back the very same tape (pointer-identical) and the pristine
        // hub clone — and stay bit-identical to the first.
        let tape = flow.gate_tape.get().expect("gate tape cached").clone();
        assert!(flow.hub.get().is_some(), "hub simulator cached");
        let run2 = flow.run_sampled(&mut NoIo, 1_000).unwrap();
        let second = flow.replay_all(&run2.snapshots, 1).unwrap();
        assert!(
            Arc::ptr_eq(&tape, &flow.replay_tape().unwrap()),
            "replays share one compiled tape"
        );
        assert_eq!(first, second);
    }

    #[test]
    fn streaming_matches_sequential_when_stopping_is_disabled() {
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let seq_run = flow.run_sampled(&mut NoIo, 2_000).unwrap();
        let seq_results = flow.replay_all_batched(&seq_run.snapshots, 2, 2).unwrap();

        for (parallelism, lanes) in [(1, 1), (2, 2), (4, 64)] {
            let (run, results) = flow
                .replay_streaming(
                    &mut NoIo,
                    2_000,
                    parallelism,
                    lanes,
                    None,
                    &RunControl::default(),
                )
                .unwrap();
            assert_eq!(run.snapshots, seq_run.snapshots, "sample diverged");
            assert_eq!(run.windows, seq_run.windows);
            assert_eq!(run.records, seq_run.records);
            assert_eq!(run.stop, seq_run.stop);
            assert_eq!(results, seq_results, "{parallelism}x{lanes} diverged");
        }
    }

    /// A counter that gates a multiplier on for 16 cycles in every 64:
    /// unlike [`counter_design`]'s, its 16-cycle windows differ
    /// several-fold in power, so an interval over them is not tight at
    /// once.
    fn bursty_design() -> Design {
        let ctx = Ctx::new("bursty");
        let (w16, w32) = (Width::new(16).unwrap(), Width::new(32).unwrap());
        let count = ctx.scope("core", |c| c.reg("count", w16, 0));
        count.set(&count.out().add_lit(1));
        let work = ctx.scope("core", |c| c.reg("work", w32, 0x1234_5678));
        let busy = count.out().bits(5, 4).eq_lit(3);
        work.set_en(&work.out().mul(&work.out().add_lit(0x9E37_79B9)), &busy);
        ctx.output("value", &(work.out().bits(15, 0) ^ count.out()));
        ctx.finish().unwrap()
    }

    /// A control that carries only a progress hook.
    fn recording<'a>(hook: &'a (dyn Fn(Progress) + Sync)) -> RunControl<'a> {
        RunControl {
            progress: Some(hook),
            ..RunControl::default()
        }
    }

    #[test]
    fn streaming_holds_a_bounded_number_of_snapshots() {
        // Snapshots live in the reservoir and nowhere else, so no replay
        // — checkpoint or final — can be handed more of them than the
        // reservoir holds, and none is replayed that was not recorded.
        // One lane per batch makes `total` a snapshot count.
        use std::sync::Mutex;
        let sample_size = 8;
        let config = StroberConfig {
            sample_size,
            ..small_config()
        };
        let flow = StroberFlow::new(&bursty_design(), config).unwrap();
        let rule = StoppingRule::new(1e-9, Confidence::C99, 4).unwrap();
        let seen = Mutex::new(Vec::new());
        let hook = |p: Progress| seen.lock().unwrap().push(p);
        let (run, results) = flow
            .replay_streaming(&mut NoIo, 40_000, 2, 1, Some(rule), &recording(&hook))
            .unwrap();
        assert_eq!(run.stop, StopReason::MaxCycles, "ε = 1e-9 cannot be met");
        assert_eq!(results.len(), sample_size);

        let mut replays = 0;
        let mut replayed = 0;
        for p in seen.lock().unwrap().iter() {
            match *p {
                Progress::ReplayBatches { done, total } => {
                    assert!(
                        total as usize <= sample_size,
                        "{total} snapshots in one replay"
                    );
                    if done == total {
                        replays += 1;
                        replayed += total;
                    }
                }
                Progress::IntervalUpdate { samples, .. } => {
                    assert_eq!(samples as usize, sample_size, "evaluated a partial sample");
                }
                Progress::SimWindows { .. } => {}
            }
        }
        assert!(replays > 3, "only {replays} replays: no checkpoint ran");
        assert!(
            replayed as usize >= sample_size && replayed <= run.records,
            "{replayed} snapshots replayed of {} recorded",
            run.records
        );
    }

    #[test]
    fn streaming_with_a_loose_rule_converges_early() {
        let config = StroberConfig {
            sample_size: 8,
            ..small_config()
        };
        let flow = StroberFlow::new(&counter_design(), config).unwrap();
        let rule = StoppingRule::new(0.5, Confidence::C99, 4).unwrap();
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let hook = |p: Progress| seen.lock().unwrap().push(p);
        let (run, results) = flow
            .replay_streaming(&mut NoIo, 200_000, 1, 1, Some(rule), &recording(&hook))
            .unwrap();
        let StopReason::Converged { achieved, target } = run.stop else {
            panic!("expected convergence: {:?}", run.stop);
        };
        assert!(achieved <= target, "achieved {achieved} > target {target}");
        // The checkpoints at 4 and 6 windows are a census of a reservoir
        // still filling and are passed over; 9 is the first real one, and
        // the counter's near-identical windows meet a loose ε there.
        assert_eq!(run.windows, 9);
        assert_eq!(results.len(), flow.config().sample_size);
        let updates: Vec<Progress> = seen
            .lock()
            .unwrap()
            .iter()
            .filter(|p| matches!(p, Progress::IntervalUpdate { .. }))
            .copied()
            .collect();
        assert!(
            matches!(
                updates[..],
                [Progress::IntervalUpdate { samples: 8, relative_error, .. }]
                    if relative_error == achieved
            ),
            "{updates:?}"
        );
        // The estimate over the executed prefix is still well-formed.
        let estimate = flow.estimate(&run, &results).unwrap();
        assert!(estimate.mean_power_mw() > 0.0);
    }

    #[test]
    fn a_converged_run_reports_the_epsilon_of_the_sample_it_estimates() {
        // The decision and the report are one evaluation. Over sixteen
        // seeds of a design whose windows differ in power, a converged
        // run's ε is within the target and is, to the bit, the relative
        // error of the estimate built from what the run returned — on
        // any worker/lane shape, which cannot move the stop window either.
        let mut stops = std::collections::BTreeMap::new();
        for seed in 0..16u64 {
            let config = StroberConfig {
                sample_size: 6,
                seed,
                ..small_config()
            };
            let flow = StroberFlow::new(&bursty_design(), config).unwrap();
            let rule = StoppingRule::new(0.7, flow.config().confidence, 4).unwrap();
            let mut reference = None;
            for (parallelism, lanes) in [(1, 1), (2, 4), (3, 64)] {
                let (run, results) = flow
                    .replay_streaming(
                        &mut NoIo,
                        20_000,
                        parallelism,
                        lanes,
                        Some(rule),
                        &RunControl::default(),
                    )
                    .unwrap();
                if let StopReason::Converged { achieved, target } = run.stop {
                    assert!(achieved <= target, "seed {seed}: {achieved} > {target}");
                    let estimate = flow.estimate(&run, &results).unwrap();
                    assert_eq!(
                        estimate.interval().relative_error_bound().to_bits(),
                        achieved.to_bits(),
                        "seed {seed}: the reported ε is not the estimate's"
                    );
                }
                let outcome = (run.windows, run.records, run.stop, results);
                match &reference {
                    None => reference = Some(outcome),
                    Some(first) => assert_eq!(
                        &outcome, first,
                        "seed {seed}: {parallelism}x{lanes} moved the stop"
                    ),
                }
            }
            let (windows, _, stop, _) = reference.unwrap();
            if stop.is_converged() {
                *stops.entry(windows).or_insert(0) += 1;
            }
        }
        // The rule is doing work, not rubber-stamping the first real
        // checkpoint (9 windows): most seeds converge, at several windows.
        assert!(
            stops.values().sum::<u32>() >= 8 && stops.len() >= 3,
            "stop windows and their seed counts: {stops:?}"
        );
    }

    #[test]
    fn streaming_cancellation_is_clean() {
        let flow = StroberFlow::new(&bursty_design(), small_config()).unwrap();
        // Tripped from inside a checkpoint's replay, after its first
        // batch: the remaining batches are skipped and the run ends
        // cancelled, not converged and not with a partial sample.
        let rule = StoppingRule::new(1e-9, Confidence::C99, 4).unwrap();
        for parallelism in [1, 2] {
            let token = crate::control::CancelToken::new();
            let hook = |p: Progress| {
                if matches!(p, Progress::ReplayBatches { .. }) {
                    token.cancel();
                }
            };
            let ctl = RunControl {
                cancel: Some(&token),
                ..recording(&hook)
            };
            let err = flow
                .replay_streaming(&mut NoIo, 40_000, parallelism, 1, Some(rule), &ctl)
                .unwrap_err();
            assert!(matches!(err, StroberError::Cancelled), "{err}");
        }
    }

    #[test]
    fn streaming_surfaces_replay_errors() {
        // An over-wide lane count is the cheapest injectable replay
        // error; it is refused before anything is simulated.
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let err = flow
            .replay_streaming(&mut NoIo, 2_000, 1, 65, None, &RunControl::default())
            .unwrap_err();
        assert!(matches!(err, StroberError::GateSim(_)), "{err}");
    }

    #[test]
    fn sim_progress_is_not_duplicated_on_stride_boundaries() {
        use std::sync::Mutex;
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        // Pick a stride that divides the total window count so the final
        // window lands exactly on a report boundary; the completion
        // report must not repeat it.
        let probe = flow.run_sampled(&mut NoIo, 2_000).unwrap();
        assert!(probe.windows > 1, "need multiple windows");
        let stride = probe.windows;
        let seen = Mutex::new(Vec::new());
        let hook = |p: Progress| seen.lock().unwrap().push(p);
        let ctl = RunControl {
            progress: Some(&hook),
            progress_window_stride: stride,
            ..RunControl::default()
        };
        flow.sample_windows(&mut NoIo, 2_000, None, &ctl).unwrap();
        let sim_reports: Vec<_> = seen
            .lock()
            .unwrap()
            .iter()
            .filter(|p| matches!(p, Progress::SimWindows { .. }))
            .copied()
            .collect();
        assert_eq!(
            sim_reports.len(),
            1,
            "duplicate final report: {sim_reports:?}"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let flow = StroberFlow::new(&counter_design(), small_config()).unwrap();
        let a = flow.run_sampled(&mut NoIo, 3_000).unwrap();
        let b = flow.run_sampled(&mut NoIo, 3_000).unwrap();
        let ca: Vec<u64> = a.snapshots.iter().map(|s| s.cycle).collect();
        let cb: Vec<u64> = b.snapshots.iter().map(|s| s.cycle).collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn retimed_designs_replay_through_warmup() {
        // A two-stage annotated pipeline: its registers retime away, and
        // replay must recover them by forcing inputs for `warmup` cycles.
        let ctx = Ctx::new("pipe");
        let w8 = Width::new(8).unwrap();
        let x = ctx.input("x", w8);
        let s1 = ctx.scope("fpu", |c| c.reg("s1", w8, 0));
        let s2 = ctx.scope("fpu", |c| c.reg("s2", w8, 0));
        s1.set(&x.add_lit(3));
        s2.set(&s1.out().add_lit(5));
        ctx.output("y", &s2.out());
        let design = ctx.finish().unwrap();

        struct Driver;
        impl HostModel for Driver {
            fn tick(&mut self, c: u64, io: &mut OutputView<'_>) {
                io.set("x", c & 0xFF);
            }
        }

        let config = StroberConfig {
            replay_length: 12,
            warmup: 4, // covers the 2-cycle pipeline depth
            sample_size: 4,
            synth: SynthOptions {
                retime_prefixes: vec!["fpu/".to_owned()],
                ..SynthOptions::default()
            },
            ..small_config()
        };
        let flow = StroberFlow::new(&design, config).unwrap();
        assert!(!flow.name_map().retimed.is_empty());
        let run = flow.run_sampled(&mut Driver, 2_000).unwrap();
        let results = flow.replay_all(&run.snapshots, 1).unwrap();
        for r in &results {
            assert!(r.outputs_checked > 0);
        }
    }
}
