//! The one spec→estimate driver: what `strober estimate` and a served
//! estimate/replay job both run once they hold a prepared flow. It owns
//! the sequence and the manifest fields that describe it; the wrappers
//! keep what is genuinely served or genuinely one-shot (DESIGN.md §12).
//!
//! Stages are timed here, not derived from probe spans — the recorder
//! is process-global, so a multi-worker daemon's spans mix jobs — under
//! one vocabulary: `prepare`, `sim`, `replay`, `estimate`. Simulation
//! and replay are one flow call; the flow says how much of it was replay
//! (all of it after the last window, unless a stopping rule also
//! replayed at its checkpoints) and `sim` is the rest.

use crate::protocol::{ErrorKind, EstimateSpec, WireError};
use std::time::{Duration, Instant};
use strober::{
    EnergyEstimate, ReplayResult, RunControl, SampledRun, StopReason, StroberError, StroberFlow,
};
use strober_dram::{DramConfig, DramModel, LpddrPowerParams};
use strober_isa::programs;
use strober_store::{CodegenProvenance, RunManifest, SamplingOutcome};

/// What [`drive`] runs.
#[derive(Debug)]
pub struct Inputs<'a> {
    /// The prepared session. A caller that wants the native engine's
    /// compile (or fetch) timed under `prepare`, and served from its
    /// store, runs `prepare_jit` first; otherwise the run resolves it.
    pub flow: &'a StroberFlow,
    /// How `flow` was obtained: `cold`, `store` or `warm`.
    pub provenance: &'a str,
    /// When the caller started preparing; closes the `prepare` stage.
    pub prepare_started: Instant,
    /// The manifest to fill; the caller has set design, workload,
    /// fingerprint and (served) job provenance.
    pub manifest: RunManifest,
    /// The workload's memory image.
    pub image: &'a [u32],
    /// The run knobs.
    pub spec: &'a EstimateSpec,
    /// Replay worker threads, with `spec.parallel == 0` already resolved.
    pub parallel: usize,
    /// Compute the energy estimate (a replay-only job does not).
    pub want_estimate: bool,
}

/// The estimate proper, present when [`Inputs::want_estimate`] was set.
#[derive(Debug)]
pub struct Energy {
    /// Mean core power with its confidence interval, per region.
    pub estimate: EnergyEstimate,
    /// Average DRAM power from the counter-based LPDDR2 model.
    pub dram_power_mw: f64,
    /// Core + DRAM energy per retired instruction.
    pub epi_nj: f64,
}

/// What [`drive`] produced.
#[derive(Debug)]
pub struct Products {
    /// The sampled fast simulation.
    pub run: SampledRun,
    /// One gate-level replay per kept snapshot, in slot order.
    pub results: Vec<ReplayResult>,
    /// Instructions the workload retired.
    pub instret: u64,
    /// The estimate, when one was wanted.
    pub energy: Option<Energy>,
    /// The filled manifest: stages, sampling outcome, engine provenance
    /// and (with an estimate) the metrics snapshot.
    pub manifest: RunManifest,
}

impl Products {
    /// The relative error the stopping rule stopped at, if it fired.
    pub fn achieved_epsilon(&self) -> Option<f64> {
        match self.run.stop {
            StopReason::Converged { achieved, .. } => Some(achieved),
            _ => None,
        }
    }
}

/// How a run ended without producing a result.
#[derive(Debug)]
pub enum Failure {
    /// The run's cancel token tripped; not an error.
    Cancelled,
    /// A real failure, classified the way the wire reports it.
    Error(WireError),
}

impl From<StroberError> for Failure {
    fn from(e: StroberError) -> Self {
        match e {
            StroberError::Cancelled => Failure::Cancelled,
            other => Failure::Error(WireError::new(ErrorKind::Internal, other.to_string())),
        }
    }
}

/// Runs `inputs.spec` on the prepared flow. `on_stage` hears each stage
/// begin (`None`) and end (`Some(elapsed)`); `prepare` began in the
/// caller, so it only ends here, and `replay` runs inside the call that
/// `sim` began, so it only ends too.
///
/// # Errors
///
/// [`Failure::Cancelled`] when `ctl.cancel` trips; otherwise the first
/// simulation, replay or estimation error, or a cycle budget that ran
/// out before the workload halted.
pub fn drive(
    inputs: Inputs<'_>,
    ctl: &RunControl<'_>,
    on_stage: &dyn Fn(&'static str, Option<Duration>),
) -> Result<Products, Failure> {
    let (flow, spec, parallel) = (inputs.flow, inputs.spec, inputs.parallel);
    let mut manifest = inputs.manifest;
    let begin = |name| {
        on_stage(name, None);
        Instant::now()
    };
    let end = |manifest: &mut RunManifest, name, elapsed: Duration| {
        manifest.record(name, elapsed);
        on_stage(name, Some(elapsed));
    };

    manifest.set_prepare(inputs.provenance);
    end(&mut manifest, "prepare", inputs.prepare_started.elapsed());

    let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
    dram.load(inputs.image, 0);
    let rule = spec
        .stopping_rule(flow.config())
        .map_err(|m| Failure::Error(WireError::new(ErrorKind::BadSpec, m)))?;
    let t = begin("sim");
    let (run, results) = flow.replay_streaming(
        &mut dram,
        spec.max_cycles,
        parallel,
        spec.batch_lanes,
        rule,
        ctl,
    )?;
    let elapsed = t.elapsed();
    // The stopping rule may end a run before the workload halts — that
    // is the point — so only a run it did not end must have halted.
    if dram.exit_code().is_none() && !run.stop.is_converged() {
        return Err(Failure::Error(WireError::new(
            ErrorKind::Internal,
            format!("workload did not halt within {} cycles", spec.max_cycles),
        )));
    }
    end(
        &mut manifest,
        "sim",
        elapsed.saturating_sub(run.replay_wall),
    );
    end(&mut manifest, "replay", run.replay_wall);
    // Read after the run: a caller that skipped `prepare_jit` had its
    // engine resolved by the run's first hub simulator.
    manifest.hub_engine = flow.hub_engine_name().to_owned();
    manifest.hub_engine_reason = flow.hub_engine_reason().to_owned();
    manifest.jit = flow
        .jit_info()
        .map(|(provenance, compile_ms)| CodegenProvenance {
            provenance: provenance.to_owned(),
            compile_ms,
        });

    let mut out = Products {
        instret: dram.instret(),
        energy: None,
        run,
        results,
        manifest,
    };
    out.manifest.sampling = Some(SamplingOutcome {
        stop_reason: out.run.stop.as_str().to_owned(),
        target_epsilon: rule.map(|r| r.target_epsilon()),
        achieved_epsilon: out.achieved_epsilon(),
    });
    if inputs.want_estimate {
        let t = begin("estimate");
        let estimate = flow.estimate(&out.run, &out.results)?;
        let (cycles, freq_hz) = (out.run.target_cycles, flow.config().freq_hz);
        let dram_power_mw = LpddrPowerParams::lpddr2_s4()
            .average_power_mw(dram.counters(), cycles, freq_hz)
            .total_mw();
        let epi_nj = (estimate.mean_power_mw() + dram_power_mw) * 1e-3 * (cycles as f64 / freq_hz)
            / out.instret as f64
            * 1e9;
        end(&mut out.manifest, "estimate", t.elapsed());
        out.manifest.metrics = strober_probe::snapshot();
        out.energy = Some(Energy {
            estimate,
            dram_power_mw,
            epi_nj,
        });
    }
    Ok(out)
}
