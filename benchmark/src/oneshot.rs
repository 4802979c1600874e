//! The one-shot estimate: cold set-up, one whole estimate (DRAM image
//! load → sampled simulation with capture → gate replay → power →
//! estimate) through the library's public functions, and the per-layer
//! breakdown of a traced repetition.

use crate::golden::{powers_agree, GoldenSpec};
use crate::stats::{span_totals, SpanTotal};
use crate::timed_model::{TickStats, TimedModel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use strober::{
    HubEngine, PreparedArtifact, ReplayResult, RunControl, SampledRun, StroberConfig, StroberFlow,
};
use strober_dram::{DramConfig, DramModel};
use strober_gates::CellLibrary;
use strober_gatesim::{BatchSim, Tape};
use strober_isa::programs;
use strober_platform::HostModel;
use strober_power::PowerAnalyzer;
use strober_rtl::Design;
use strober_server::{catalog, replay_fingerprint};
use strober_sim::{Simulator, TapeOptions};
use strober_store::Store;

/// Gate-replay worker threads of every estimate.
pub const REPLAY_WORKERS: usize = 2;
/// Bit-parallel replay lanes per worker.
pub const REPLAY_LANES: usize = 64;
/// Cycle budget of the fast simulation (the CLI default); every bundled
/// workload halts far below it.
pub const MAX_CYCLES: u64 = 200_000_000;
/// A seeded estimate further than this many half-widths from the
/// full-replay truth is a failed operation. A 99 % interval misses once
/// in a hundred seeds, so the check is deliberately loose: it catches a
/// broken estimator, not an unlucky sample.
const SANITY_HALF_WIDTHS: f64 = 3.0;

/// One estimate configuration: what `strober estimate` would be given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Key into `golden.json`.
    pub id: &'static str,
    /// Catalog core name.
    pub core: &'static str,
    /// Catalog workload name.
    pub workload: &'static str,
    /// Reservoir sample size `n`.
    pub samples: usize,
    /// Replay window length `L`.
    pub replay_length: u32,
    /// Hub settle engine.
    pub engine: HubEngine,
}

const fn spec(
    id: &'static str,
    core: &'static str,
    workload: &'static str,
    samples: usize,
    replay_length: u32,
    engine: HubEngine,
) -> Spec {
    Spec {
        id,
        core,
        workload,
        samples,
        replay_length,
        engine,
    }
}

/// The paper's validation point.
pub const ROK_DHRYSTONE: Spec = spec(
    "rok-dhrystone-n30-L128",
    "rok",
    "dhrystone",
    30,
    128,
    HubEngine::Auto,
);
/// The long, settle-bound run.
pub const ROK_GCC: Spec = spec("rok-gcc-n30-L128", "rok", "gcc", 30, 128, HubEngine::Auto);
/// The out-of-order core on the native engine, with long windows.
pub const BOUM2W_DHRYSTONE: Spec = spec(
    "boum2w-dhrystone-n128-L1024",
    "boum-2w",
    "dhrystone",
    128,
    1024,
    HubEngine::Jit,
);
/// The two served jobs.
pub const ROK_VVADD: Spec = spec(
    "rok-vvadd-n30-L128",
    "rok",
    "vvadd",
    30,
    128,
    HubEngine::Auto,
);
/// See [`ROK_VVADD`].
pub const ROK_QSORT: Spec = spec(
    "rok-qsort-n30-L128",
    "rok",
    "qsort",
    30,
    128,
    HubEngine::Auto,
);

/// Every spec with a committed golden.
pub const SPECS: &[Spec] = &[
    ROK_DHRYSTONE,
    ROK_GCC,
    BOUM2W_DHRYSTONE,
    ROK_VVADD,
    ROK_QSORT,
];

/// The `--smoke` stand-ins: the same shapes on the tiny core, with no
/// goldens (cross-path identity and sanity checks still apply).
pub const SMOKE_VVADD: Spec = spec("smoke-vvadd", "rok-tiny", "vvadd", 8, 64, HubEngine::Auto);
/// See [`SMOKE_VVADD`].
pub const SMOKE_QSORT: Spec = spec("smoke-qsort", "rok-tiny", "qsort", 8, 64, HubEngine::Auto);
/// See [`SMOKE_VVADD`].
pub const SMOKE_VVADD_JIT: Spec = spec(
    "smoke-vvadd-jit",
    "rok-tiny",
    "vvadd",
    8,
    64,
    HubEngine::Jit,
);

/// How one estimate drives the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPath {
    /// `run_sampled` → `replay_all_batched` → `estimate`.
    Phased,
    /// `replay_streaming` (no stopping rule) → `estimate`.
    Stream,
}

/// Runs `f` under a harness span (recorded only while the probe is on)
/// and an `Instant` pair; returns the result and the seconds it took.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = strober_probe::span(name);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The session configuration `strober estimate` builds for `spec`.
pub fn session_config(spec: &Spec, seed: u64) -> StroberConfig {
    let mut config = StroberConfig {
        replay_length: spec.replay_length,
        sample_size: spec.samples,
        seed,
        ..StroberConfig::default()
    };
    config.platform.hub_engine = spec.engine;
    config
}

/// Host seconds of one cold set-up, by part.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `StroberFlow::new`: FAME1 transform, synthesis, formal match.
    pub new_s: f64,
    /// Cold `prepare_jit` into an empty store (hub lowering, codegen,
    /// `rustc`, `dlopen`); 0 unless the spec selects the jit engine.
    pub jit_s: f64,
    /// `Simulator::with_options` on the hub — the lowering a first run
    /// pays; 0 on the jit engine, where `prepare_jit` already paid it.
    pub lower_s: f64,
    /// `Tape::compile` on the netlist — the compile a first replay pays.
    pub tape_compile_s: f64,
    /// Ops on the optimized hub tape (0 where `lower_s` is).
    pub hub_tape_ops: usize,
}

impl SetupTimes {
    /// Everything a first estimate waits for before simulating.
    pub fn total_s(&self) -> f64 {
        self.new_s + self.jit_s + self.lower_s + self.tape_compile_s
    }
}

/// What a cold set-up leaves behind for the repetitions: the prepared
/// artifacts, and (jit engine only) a store primed with the compiled
/// settle dylib so later flows attach it without `rustc`.
#[derive(Debug)]
pub struct Prepared {
    parts: PreparedArtifact,
    store: Option<Store>,
}

/// One spec's design and memory image, ready to be set up and run.
#[derive(Debug)]
pub struct Bench {
    /// The spec being run.
    pub spec: Spec,
    design: Design,
    image: Vec<u32>,
}

impl Bench {
    /// Resolves the spec through the shared catalog, exactly as the CLI
    /// and the server do.
    pub fn new(spec: Spec) -> Result<Self, String> {
        let core = catalog::core_config(spec.core)?;
        let image = catalog::image_for(spec.workload, &None)?;
        Ok(Bench {
            spec,
            design: strober_cores::build_core(&core),
            image,
        })
    }

    fn is_jit(&self) -> bool {
        self.spec.engine == HubEngine::Jit
    }

    /// One cold set-up: a full prepare plus everything a first estimate
    /// would lazily build, with `store_dir` an empty directory so the
    /// jit engine really runs `rustc`.
    pub fn cold_setup(&self, store_dir: &Path) -> Result<(Prepared, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let config = session_config(&self.spec, crate::golden::REFERENCE_SEED);
        let (flow, new_s) = timed("ledger.flow_new", || StroberFlow::new(&self.design, config));
        let flow = flow.map_err(|e| format!("flow set-up failed: {e}"))?;
        times.new_s = new_s;

        let store = if self.is_jit() {
            let mut store = Store::open(store_dir)
                .map_err(|e| format!("cannot open store at {}: {e}", store_dir.display()))?;
            let (_, jit_s) = timed("ledger.prepare_jit_cold", || {
                flow.prepare_jit(Some(&mut store))
            });
            times.jit_s = jit_s;
            require_jit(&flow)?;
            Some(store)
        } else {
            let (lowered, lower_s) = timed("ledger.hub_lower", || lower_hub(&flow));
            times.lower_s = lower_s;
            times.hub_tape_ops = lowered?;
            None
        };

        let (tape, tape_compile_s) = timed("ledger.tape_compile", || {
            Tape::compile(&flow.synth().netlist)
        });
        black_box(tape.map_err(|e| format!("gate tape compile failed: {e}"))?);
        times.tape_compile_s = tape_compile_s;

        let parts = PreparedArtifact {
            fame: flow.fame().clone(),
            synth: flow.synth().clone(),
            name_map: flow.name_map().clone(),
        };
        Ok((Prepared { parts, store }, times))
    }

    /// A warm session sampling with `seed`: rebuilt from the prepared
    /// parts (the reservoir seed is part of the session config and has
    /// no setter), with the native engine attached from the primed store
    /// and the lazily built hub simulator and gate tape forced by a
    /// one-window run, so a repetition times an estimate and nothing
    /// else.
    pub fn warm_flow(&self, prepared: &mut Prepared, seed: u64) -> Result<StroberFlow, String> {
        let flow =
            StroberFlow::from_parts(session_config(&self.spec, seed), prepared.parts.clone());
        if self.is_jit() {
            flow.prepare_jit(prepared.store.as_mut());
            require_jit(&flow)?;
        }
        let mut dram = self.fresh_dram();
        let run = flow
            .run_sampled(&mut dram, 1)
            .map_err(|e| format!("warm-up run failed: {e}"))?;
        flow.replay_all_batched(&run.snapshots, 1, REPLAY_LANES)
            .map_err(|e| format!("warm-up replay failed: {e}"))?;
        Ok(flow)
    }

    fn fresh_dram(&self) -> DramModel {
        let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
        dram.load(&self.image, 0);
        dram
    }

    /// One whole estimate on a warm session. With `traced`, the probe
    /// recorder is on for its duration and the DRAM model is wrapped in
    /// a [`TimedModel`].
    pub fn estimate_once(
        &self,
        flow: &StroberFlow,
        path: FlowPath,
        traced: bool,
    ) -> Result<Rep, String> {
        if traced {
            strober_probe::reset();
            strober_probe::enable();
        }
        let out = self.estimate_inner(flow, path, traced);
        if traced {
            strober_probe::disable();
        }
        let mut rep = out?;
        if traced {
            rep.spans = span_totals(&strober_probe::take_events());
            let snap = strober_probe::snapshot();
            let counter = |name: &str| snap.counter(name).unwrap_or(0);
            rep.pipeline = Some(PipelineCounts {
                streamed: counter("strober.core.pipeline.streamed"),
                stale_dropped: counter("strober.core.pipeline.stale_dropped"),
                results_superseded: counter("strober.core.pipeline.results_superseded"),
            });
        }
        Ok(rep)
    }

    fn estimate_inner(
        &self,
        flow: &StroberFlow,
        path: FlowPath,
        traced: bool,
    ) -> Result<Rep, String> {
        let t0 = Instant::now();
        let _span = strober_probe::span("ledger.estimate");
        let (mut dram, dram_load_s) = timed("ledger.dram_load", || self.fresh_dram());

        let (driven, tick) = if traced {
            let mut model = TimedModel::new(&mut dram, "tohost");
            let driven = drive(flow, path, &mut model);
            (driven, Some(model.stats()))
        } else {
            (drive(flow, path, &mut dram), None)
        };
        let Driven {
            run,
            results,
            sim_s,
            replay_s,
        } = driven?;
        if dram.exit_code().is_none() {
            return Err(format!("workload did not halt within {MAX_CYCLES} cycles"));
        }
        let (estimate, estimate_s) =
            timed("ledger.estimate_stats", || flow.estimate(&run, &results));
        let estimate = estimate.map_err(|e| format!("estimate failed: {e}"))?;
        let wall_s = t0.elapsed().as_secs_f64();

        Ok(Rep {
            seed: flow.config().seed,
            path,
            wall_s,
            dram_load_s,
            sim_s,
            replay_s,
            estimate_s,
            target_cycles: run.target_cycles,
            windows: run.windows,
            records: run.records,
            instret: dram.instret(),
            hub_cycles: run.stats.hub_cycles,
            scan_overhead_cycles: run.stats.scan_overhead_cycles,
            samples: results.len(),
            trace_len: run.snapshots.first().map_or(0, |s| s.trace_len()) as u64,
            power_mw: estimate.mean_power_mw(),
            half_width_mw: estimate.interval().half_width(),
            fingerprint: replay_fingerprint(&results),
            tick,
            spans: BTreeMap::new(),
            pipeline: None,
        })
    }

    /// Host seconds of `PowerAnalyzer::analyze_all` on one stepped
    /// 64-lane batch — what every replayed batch pays after its last
    /// cycle.
    pub fn power_analyze_s(&self, prepared: &Prepared) -> Result<f64, String> {
        let netlist = &prepared.parts.synth.netlist;
        let tape = Arc::new(Tape::compile(netlist).map_err(|e| e.to_string())?);
        let mut sim =
            BatchSim::with_tape_lanes(tape, netlist, REPLAY_LANES).map_err(|e| e.to_string())?;
        sim.step_n(u64::from(self.spec.replay_length));
        let analyzer = PowerAnalyzer::new(
            netlist,
            &CellLibrary::generic_45nm(),
            StroberConfig::default().freq_hz,
        );
        let (reports, s) = timed("ledger.power_analyze", || {
            analyzer.analyze_all(&sim.activities())
        });
        black_box(reports);
        Ok(s)
    }
}

/// What driving the flow's simulation and replay entry points returned.
struct Driven {
    run: SampledRun,
    results: Vec<ReplayResult>,
    sim_s: f64,
    replay_s: f64,
}

/// Sampled simulation and gate replay through `path`'s entry points.
fn drive(flow: &StroberFlow, path: FlowPath, model: &mut dyn HostModel) -> Result<Driven, String> {
    match path {
        FlowPath::Phased => {
            let (run, sim_s) = timed("ledger.run_sampled", || flow.run_sampled(model, MAX_CYCLES));
            let run = run.map_err(|e| format!("sampled run failed: {e}"))?;
            let (results, replay_s) = timed("ledger.replay", || {
                flow.replay_all_batched(&run.snapshots, REPLAY_WORKERS, REPLAY_LANES)
            });
            Ok(Driven {
                results: results.map_err(|e| format!("replay failed: {e}"))?,
                run,
                sim_s,
                replay_s,
            })
        }
        FlowPath::Stream => {
            let (out, sim_s) = timed("ledger.replay_streaming", || {
                flow.replay_streaming(
                    model,
                    MAX_CYCLES,
                    REPLAY_WORKERS,
                    REPLAY_LANES,
                    None,
                    &RunControl::default(),
                )
            });
            let (run, results) = out.map_err(|e| format!("streaming run failed: {e}"))?;
            Ok(Driven {
                run,
                results,
                sim_s,
                replay_s: 0.0,
            })
        }
    }
}

fn require_jit(flow: &StroberFlow) -> Result<(), String> {
    match flow.hub_engine_name() {
        "tape-jit" => Ok(()),
        other => Err(format!(
            "jit engine unavailable: the hub would run on `{other}`"
        )),
    }
}

/// Lowers and tape-optimizes the hub the way a flow's first run does;
/// returns the optimized op count.
fn lower_hub(flow: &StroberFlow) -> Result<usize, String> {
    let sim = Simulator::with_options(&flow.fame().hub, &TapeOptions::all())
        .map_err(|e| format!("hub lowering failed: {e}"))?;
    Ok(black_box(sim).pass_stats().ops_final)
}

impl Bench {
    /// The set-up layers of a traced run, keyed by metric name: one cold
    /// set-up under `scratch` (an empty directory) with the probe on —
    /// stage spans from inside `StroberFlow::new` — plus the store and
    /// jit warm paths.
    pub fn traced_setup(
        &self,
        scratch: &Path,
    ) -> Result<(Prepared, BTreeMap<&'static str, f64>), String> {
        strober_probe::reset();
        strober_probe::enable();
        let cold = self.cold_setup(&scratch.join("jit-store"));
        strober_probe::disable();
        let spans = span_totals(&strober_probe::take_events());
        let (mut prepared, times) = cold?;
        let span_s = |name: &str| spans.get(name).map_or(0.0, |s: &SpanTotal| s.total_s);

        let mut m = BTreeMap::new();
        m.insert("fame.transform_s", span_s("strober.fame.transform"));
        m.insert("synth.synthesize_s", span_s("strober.synth.synthesize"));
        m.insert("formal.match_s", span_s("strober.formal.match"));
        m.insert("sim.hub_lower_s", times.lower_s);
        m.insert("sim.hub_tape_ops", times.hub_tape_ops as f64);
        m.insert("gatesim.tape_compile_s", times.tape_compile_s);
        m.insert("jit.compile_s", times.jit_s);
        let config = session_config(&self.spec, crate::golden::REFERENCE_SEED);
        if self.is_jit() {
            // On the jit engine the cold set-up lowered the hub inside
            // `prepare_jit`; time a lowering of its own for the layer row.
            let flow = StroberFlow::from_parts(config.clone(), prepared.parts.clone());
            let (lowered, s) = timed("ledger.hub_lower", || lower_hub(&flow));
            m.insert("sim.hub_tape_ops", lowered? as f64);
            m.insert("sim.hub_lower_s", s);
            let (_, s) = timed("ledger.prepare_jit_store", || {
                flow.prepare_jit(prepared.store.as_mut())
            });
            require_jit(&flow)?;
            m.insert("jit.load_s", s);
        }

        let dir = scratch.join("prepare-store");
        let mut store = Store::open(&dir)
            .map_err(|e| format!("cannot open store at {}: {e}", dir.display()))?;
        let primed = StroberFlow::prepare_cached(&self.design, config.clone(), &mut store)
            .map_err(|e| format!("prepare_cached failed: {e}"))?;
        drop(primed);
        let (hit, s) = timed("ledger.prepare_cached_hit", || {
            StroberFlow::prepare_cached(&self.design, config, &mut store)
        });
        match hit {
            Ok((_, true)) => m.insert("store.prepare_hit_s", s),
            Ok((_, false)) => return Err("prepare_cached missed a store it had just filled".into()),
            Err(e) => return Err(format!("prepare_cached failed: {e}")),
        };

        m.insert(
            "power.analyze_s_per_batch",
            self.power_analyze_s(&prepared)?,
        );
        Ok((prepared, m))
    }
}

/// `strober.core.pipeline.*` counters of one traced repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineCounts {
    /// Snapshots queued for streaming replay.
    pub streamed: u64,
    /// Queued snapshots dropped because their slot was evicted first.
    pub stale_dropped: u64,
    /// Finished replays discarded because their slot was evicted later.
    pub results_superseded: u64,
}

/// Everything one estimate produced and cost.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Reservoir seed.
    pub seed: u64,
    /// Which entry points ran.
    pub path: FlowPath,
    /// Whole estimate, DRAM image load to estimate.
    pub wall_s: f64,
    /// `DramModel::new` + `load`.
    pub dram_load_s: f64,
    /// `run_sampled` (phased) or `replay_streaming` (stream).
    pub sim_s: f64,
    /// `replay_all_batched` (phased only).
    pub replay_s: f64,
    /// `estimate`.
    pub estimate_s: f64,
    /// Target cycles to completion.
    pub target_cycles: u64,
    /// Windows in the execution.
    pub windows: u64,
    /// Snapshot records taken.
    pub records: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Hub cycles advancing the target.
    pub hub_cycles: u64,
    /// Hub cycles scanning and reading traces.
    pub scan_overhead_cycles: u64,
    /// Snapshots replayed.
    pub samples: usize,
    /// Trace length of a snapshot, in cycles.
    pub trace_len: u64,
    /// Sampled mean power, mW.
    pub power_mw: f64,
    /// 99 % half-width, mW.
    pub half_width_mw: f64,
    /// Order-sensitive fingerprint of the replay results.
    pub fingerprint: String,
    /// `TimedModel` accumulators (traced only).
    pub tick: Option<TickStats>,
    /// Probe spans by name (traced only).
    pub spans: BTreeMap<String, SpanTotal>,
    /// Pipeline counters (traced only).
    pub pipeline: Option<PipelineCounts>,
}

impl Rep {
    /// Mismatches against the golden of the reference seed: integers
    /// exactly, powers to 1e-9 relative.
    pub fn check_reference(&self, golden: &GoldenSpec) -> Vec<String> {
        let mut bad = self.check_seed_independent(golden);
        let mut int = |what: &str, got: u64, want: u64| {
            if got != want {
                bad.push(format!("{what}: got {got}, golden {want}"));
            }
        };
        int("target_cycles", self.target_cycles, golden.target_cycles);
        int("records", self.records, golden.records);
        int("hub_cycles", self.hub_cycles, golden.hub_cycles);
        int(
            "scan_overhead_cycles",
            self.scan_overhead_cycles,
            golden.scan_overhead_cycles,
        );
        let mut power = |what: &str, got: f64, want: f64| {
            if !powers_agree(got, want) {
                bad.push(format!("{what}: got {got}, golden {want}"));
            }
        };
        power("sampled_power_mw", self.power_mw, golden.sampled_power_mw);
        power("half_width_mw", self.half_width_mw, golden.half_width_mw);
        bad
    }

    /// Mismatches that hold for every reservoir seed: the workload's own
    /// statistics, and a loose sanity band around the full-replay truth.
    /// A run whose *last* window is sampled captures it whole, past the
    /// halt, so its cycle count may be the golden one rounded up to a
    /// whole window.
    pub fn check_seed_independent(&self, golden: &GoldenSpec) -> Vec<String> {
        let mut bad = Vec::new();
        for (what, got, want) in [
            ("windows", self.windows, golden.windows),
            ("instret", self.instret, golden.instret),
        ] {
            if got != want {
                bad.push(format!("{what}: got {got}, golden {want}"));
            }
        }
        if ![golden.target_cycles, golden.windows * self.trace_len].contains(&self.target_cycles) {
            bad.push(format!(
                "target_cycles: got {}, golden {}",
                self.target_cycles, golden.target_cycles
            ));
        }
        let off = (self.power_mw - golden.truth_power_mw).abs();
        if off.is_nan() || off > SANITY_HALF_WIDTHS * self.half_width_mw {
            bad.push(format!(
                "sampled power {} mW is more than {SANITY_HALF_WIDTHS} half-widths ({} mW) from the full-replay truth {} mW",
                self.power_mw, self.half_width_mw, golden.truth_power_mw
            ));
        }
        bad
    }

    /// Mismatches between two estimates that must be bit-identical
    /// (same seed through different paths).
    pub fn check_identical(&self, other: &Rep) -> Vec<String> {
        let mut bad = Vec::new();
        let a = (
            self.target_cycles,
            self.windows,
            self.records,
            self.instret,
            self.scan_overhead_cycles,
            self.samples,
        );
        let b = (
            other.target_cycles,
            other.windows,
            other.records,
            other.instret,
            other.scan_overhead_cycles,
            other.samples,
        );
        if a != b {
            bad.push(format!("simulated statistics differ: {a:?} vs {b:?}"));
        }
        if self.power_mw.to_bits() != other.power_mw.to_bits()
            || self.half_width_mw.to_bits() != other.half_width_mw.to_bits()
            || self.fingerprint != other.fingerprint
        {
            bad.push(format!(
                "powers differ: {} ± {} ({}) vs {} ± {} ({})",
                self.power_mw,
                self.half_width_mw,
                self.fingerprint,
                other.power_mw,
                other.half_width_mw,
                other.fingerprint
            ));
        }
        bad
    }

    /// The per-layer table of a traced repetition, keyed by metric name.
    /// Derived rows spell their formula here and in the README.
    pub fn layers(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        let span = |name: &str| self.spans.get(name).copied().unwrap_or_default();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        let capture = span("strober.platform.capture_snapshot");
        let records = self.records as f64;
        m.insert("dram.load_s", self.dram_load_s);
        m.insert("platform.capture_s", capture.total_s);
        m.insert(
            "platform.capture_ms_per_record",
            ratio(capture.total_s * 1e3, records),
        );
        m.insert("platform.records", records);
        m.insert("platform.scan_hub_cycles", self.scan_overhead_cycles as f64);
        m.insert("platform.hub_cycles", self.hub_cycles as f64);
        m.insert("sampling.kept_ratio", ratio(self.samples as f64, records));
        m.insert("sampling.estimate_s", self.estimate_s);

        let batches = span("strober.core.replay_batch");
        m.insert("gatesim.replay_batch_s", batches.total_s);
        m.insert("gatesim.batches", batches.count as f64);
        m.insert(
            "gatesim.load_batch_s",
            span("strober.gatesim.load_batch").total_s,
        );

        let tick = self.tick.unwrap_or_default();
        let ticks = tick.ticks as f64;
        // Sampled means scaled to every tick; the model's own share of a
        // tick is what the settle leaves.
        let tick_total_s = tick.tick_mean_s() * ticks;
        let settle_s = tick.settle_mean_s() * ticks;
        m.insert("sim.settle_ns", tick.settle_mean_s() * 1e9);
        m.insert("sim.settle_s", settle_s);
        m.insert("dram.tick_s", tick_total_s - settle_s);
        m.insert(
            "dram.tick_ns_per_cycle",
            (tick.tick_mean_s() - tick.settle_mean_s()) * 1e9,
        );

        match self.path {
            FlowPath::Phased => {
                let lanes_cycles = self.samples as f64 * self.trace_len as f64;
                m.insert("core.run_sampled_s", self.sim_s);
                m.insert("core.replay_s", self.replay_s);
                m.insert(
                    "gatesim.lane_cycles_per_s",
                    ratio(lanes_cycles, self.replay_s),
                );
                // Free-running cycles are those outside captured
                // windows; capture beyond a window's worth of free run
                // is scan shifting and trace read-out.
                let window_cycles = records * self.trace_len as f64;
                let free_cycles = self.target_cycles as f64 - window_cycles;
                let run_s = self.sim_s - capture.total_s;
                let scan_s = capture.total_s - window_cycles * ratio(run_s, free_cycles);
                let edge_s = self.sim_s - tick_total_s - scan_s - tick.settle_time.as_secs_f64();
                m.insert("platform.run_s", run_s);
                m.insert("sim.free_run_cycles_per_s", ratio(free_cycles, run_s));
                m.insert("platform.scan_s", scan_s);
                m.insert("sim.edge_s", edge_s);
                m.insert("sim.step_s", settle_s + edge_s);
            }
            FlowPath::Stream => {
                let p = self.pipeline.unwrap_or_default();
                m.insert("core.stream_wall_s", self.sim_s);
                m.insert("core.pipeline.streamed", p.streamed as f64);
                m.insert("core.pipeline.stale_dropped", p.stale_dropped as f64);
                m.insert(
                    "core.pipeline.results_superseded",
                    p.results_superseded as f64,
                );
                m.insert(
                    "core.pipeline.useful_ratio",
                    ratio(self.samples as f64, p.streamed as f64),
                );
            }
        }
        let attributed = self.dram_load_s + self.sim_s + self.replay_s + self.estimate_s;
        m.insert(
            "core.unattributed_pct",
            ratio((self.wall_s - attributed) * 100.0, self.wall_s),
        );
        m
    }
}
