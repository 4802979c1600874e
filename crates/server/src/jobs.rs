//! Worker-side job execution: from a [`JobSpec`] to a [`JobResult`].
//!
//! The bit-identity contract with the one-shot CLI: a job resolves its
//! design and image through the same [`crate::catalog`], builds the same
//! [`StroberConfig`] and runs the same [`driver::drive`] — the only
//! differences are the warm in-memory flow cache (which changes *where*
//! the prepared artifacts come from, never what they contain) and the
//! cancellation/progress control threaded through the run.

use crate::driver::{self, Failure};
use crate::protocol::{
    ErrorKind, EstimateOutcome, EstimateSpec, Event, FuzzJobOutcome, FuzzSpec, JobResult, JobSpec,
    ReplayOutcome, WireError,
};
use crate::queue::JobEntry;
use crate::{catalog, lock};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use strober::{Progress, ReplayResult, RunControl, StroberConfig, StroberError, StroberFlow};
use strober_cores::build_core;
use strober_fuzz::{run_fuzz_cancellable, FuzzOptions, OracleConfig};
use strober_rtl::Design;
use strober_store::{fingerprint_parts, Fingerprint, Fnv1a, JobProvenance, RunManifest, Store};

fn bad_spec(message: String) -> Failure {
    Failure::Error(WireError::new(ErrorKind::BadSpec, message))
}

/// Checks a spec at submission time, before it costs a queue slot.
pub(crate) fn validate(spec: &JobSpec) -> Result<(), WireError> {
    let bad = |m: String| Err(WireError::new(ErrorKind::BadSpec, m));
    match spec {
        JobSpec::Estimate(e) | JobSpec::Replay(e) => {
            if let Err(m) = e.validate() {
                return bad(m);
            }
        }
        JobSpec::Fuzz(f) => {
            if f.seed_end <= f.seed_start {
                return bad(format!("empty seed range {}..{}", f.seed_start, f.seed_end));
            }
            if f.cycles == 0 {
                return bad("cycles: must be at least 1".to_owned());
            }
        }
    }
    Ok(())
}

/// Order-sensitive fingerprint of a replay's results: each sample's
/// capture cycle, total window power (exact bits) and checked-output
/// count. Two runs agree on this hex string iff they replayed the same
/// snapshots to the same power — the currency of the served-vs-one-shot
/// bit-identity tests.
pub fn replay_fingerprint(results: &[ReplayResult]) -> String {
    let mut h = Fnv1a::new();
    for r in results {
        h.write(&r.cycle.to_le_bytes());
        h.write(&r.power.total_mw().to_bits().to_le_bytes());
        h.write(&r.outputs_checked.to_le_bytes());
    }
    Fingerprint(h.finish()).to_hex()
}

/// The server's warm flow cache: one prepared [`StroberFlow`] per design
/// and session configuration, held for the daemon's lifetime. The key
/// covers the run knobs too — unlike the artifact-store key — because a
/// flow bakes its seed and sample size in: sharing one across seeds
/// would return the first seed's answer. The flow itself caches
/// its lowered hub simulator and compiled gate tape, so a warm hit skips
/// *all* per-design work. Hits and misses are observable as the
/// `strober.server.prepare_{warm,store,cold}` counters.
#[derive(Debug, Default)]
pub(crate) struct FlowCache {
    flows: Mutex<HashMap<String, Arc<StroberFlow>>>,
}

impl FlowCache {
    /// Returns the prepared flow for `design` under `config`, and where
    /// it came from: `warm` (this cache), `store` (artifact store) or
    /// `cold` (full prepare).
    pub(crate) fn obtain(
        &self,
        design: &Design,
        config: StroberConfig,
        store: Option<&Mutex<Store>>,
    ) -> Result<(Arc<StroberFlow>, &'static str), StroberError> {
        let key = fingerprint_parts(&[design, &config]).to_hex();
        if let Some(flow) = lock(&self.flows).get(&key) {
            strober_probe::counter_add("strober.server.prepare_warm", 1);
            return Ok((flow.clone(), "warm"));
        }
        // Prepare outside the cache lock — it can take seconds, and
        // other designs' warm hits must not wait behind it.
        // Unless the spec says `interp`, the native settle dylib is
        // compiled (or fetched) under the same store lock, so its cost
        // lands in the prepare stage of the job that first needs it.
        let (flow, provenance) = match store {
            Some(store) => {
                let mut store = lock(store);
                let (flow, hit) = StroberFlow::prepare_cached(design, config, &mut store)?;
                flow.prepare_jit(Some(&mut store));
                (flow, if hit { "store" } else { "cold" })
            }
            None => {
                let flow = StroberFlow::new(design, config)?;
                flow.prepare_jit(None);
                (flow, "cold")
            }
        };
        strober_probe::counter_add(
            match provenance {
                "store" => "strober.server.prepare_store",
                _ => "strober.server.prepare_cold",
            },
            1,
        );
        let flow = Arc::new(flow);
        let mut flows = lock(&self.flows);
        // If a concurrent job prepared the same design, keep the first —
        // both are bit-identical by construction.
        let kept = flows.entry(key).or_insert_with(|| flow.clone()).clone();
        strober_probe::gauge_set("strober.server.warm_designs", flows.len() as f64);
        Ok((kept, provenance))
    }
}

/// The executing worker's index, derived from the worker thread's name
/// (`strober-worker-<i>`). Jobs run from other threads (tests, direct
/// calls) report `"?"` — still a valid, bounded label value.
pub(crate) fn worker_name() -> String {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("strober-worker-"))
        .unwrap_or("?")
        .to_owned()
}

/// Runs one job to completion on the calling worker thread.
pub(crate) fn run_job(
    job: &JobEntry,
    flows: &FlowCache,
    store: Option<&Mutex<Store>>,
    default_parallelism: usize,
) -> Result<JobResult, Failure> {
    #[cfg(test)]
    if job.client == PANIC_CLIENT {
        let labels = strober_probe::Labels::new().job(job.id);
        strober_probe::counter_add_labeled("strober.server.job_engine", &labels, 1);
        let _store = store.map(lock);
        let _flows = lock(&flows.flows);
        panic!("injected fault in job {}", job.id);
    }
    match &job.spec {
        JobSpec::Estimate(spec) => run_estimate(job, spec, flows, store, default_parallelism, true),
        JobSpec::Replay(spec) => run_estimate(job, spec, flows, store, default_parallelism, false),
        JobSpec::Fuzz(spec) => run_fuzz_job(job, spec),
    }
}

fn run_estimate(
    job: &JobEntry,
    spec: &EstimateSpec,
    flows: &FlowCache,
    store: Option<&Mutex<Store>>,
    default_parallelism: usize,
    want_estimate: bool,
) -> Result<JobResult, Failure> {
    let core = catalog::core_config(&spec.core).map_err(bad_spec)?;
    let image = catalog::image_for(&spec.workload, &spec.asm).map_err(bad_spec)?;
    let design = build_core(&core);
    let session = spec.session_config().map_err(bad_spec)?;

    let workload_desc = if spec.asm.is_some() {
        "inline-asm".to_owned()
    } else {
        spec.workload.clone()
    };
    let worker = worker_name();
    let labels = strober_probe::Labels::new()
        .design(&core.name)
        .job(job.id)
        .worker(&worker);

    let mut manifest = RunManifest::new(core.name.clone(), workload_desc.clone());
    manifest.fingerprint = StroberFlow::prepare_fingerprint(&design, &session).to_hex();
    manifest.job = Some(JobProvenance {
        id: job.id,
        client: job.client.clone(),
        queue_wait_ms: job.queue_wait_ms(),
        worker: worker.clone(),
    });

    let prepare_started = Instant::now();
    let (flow, provenance) = flows.obtain(&design, session, store)?;
    strober_probe::counter_add_labeled(
        "strober.server.job_prepare",
        &labels.clone().provenance(provenance),
        1,
    );
    // Every later labeled series for this job carries the effective
    // engine; this counter pins it even for jobs that finish before
    // their first progress tick (`strober top` reads the label).
    let labels = labels.engine(flow.hub_engine_name());
    strober_probe::counter_add_labeled("strober.server.job_engine", &labels, 1);

    let progress_hook = |p: Progress| {
        let (phase, done, total) = match p {
            Progress::SimWindows { windows, .. } => ("sim", windows, 0),
            Progress::ReplayBatches { done, total } => ("replay", done, total),
            // The stopping rule evaluated the running interval at a
            // checkpoint; the ε itself flows through the labeled
            // `strober.sampling.stop.relative_error` gauge the flow
            // maintains (watch/`strober top` read it from there).
            Progress::IntervalUpdate { samples, .. } => ("interval", samples, 0),
        };
        strober_probe::gauge_set_labeled(
            "strober.server.job_progress",
            &labels.clone().phase(phase),
            done as f64,
        );
        job.publish(Event::Progress {
            job: job.id,
            phase: phase.to_owned(),
            done,
            total,
        });
    };
    let ctl = RunControl {
        cancel: Some(&job.cancel),
        progress: Some(&progress_hook),
        progress_window_stride: 0,
        labels: Some(&labels),
    };
    let out = driver::drive(
        driver::Inputs {
            flow: &flow,
            provenance,
            prepare_started,
            manifest,
            image: &image,
            spec,
            parallel: match spec.parallel {
                0 => default_parallelism,
                n => n,
            },
            want_estimate,
        },
        &ctl,
        &|stage, elapsed| {
            if let Some(elapsed) = elapsed {
                job.publish(Event::Stage {
                    job: job.id,
                    stage: stage.to_owned(),
                    millis: elapsed.as_secs_f64() * 1e3,
                });
            }
        },
    )?;

    let snapshot_fingerprint = replay_fingerprint(&out.results);
    let achieved_epsilon = out.achieved_epsilon();
    let (run, results, manifest) = (out.run, out.results, out.manifest);
    let Some(energy) = out.energy else {
        let mean_power_mw = if results.is_empty() {
            0.0
        } else {
            results.iter().map(|r| r.power.total_mw()).sum::<f64>() / results.len() as f64
        };
        return Ok(JobResult::Replay(ReplayOutcome {
            samples: results.len(),
            mean_power_mw,
            outputs_checked: results.iter().map(|r| r.outputs_checked).sum(),
            snapshot_fingerprint,
            provenance: provenance.to_owned(),
        }));
    };

    if let Some(store) = store {
        let store = lock(store);
        let path = store.root().join(format!("job-{}.json", job.id));
        if let Err(e) = manifest.save(&path) {
            strober_probe::warn!("cannot write job manifest to {}: {e}", path.display());
        }
    }

    Ok(JobResult::Estimate(EstimateOutcome {
        core: core.name.clone(),
        workload: workload_desc,
        cycles: run.target_cycles,
        instret: out.instret,
        windows: run.windows,
        records: run.records,
        samples: results.len(),
        core_power_mw: energy.estimate.mean_power_mw(),
        half_width_mw: energy.estimate.interval().half_width(),
        confidence: energy.estimate.interval().confidence(),
        dram_power_mw: energy.dram_power_mw,
        epi_nj: energy.epi_nj,
        provenance: provenance.to_owned(),
        snapshot_fingerprint,
        stop_reason: run.stop.as_str().to_owned(),
        achieved_epsilon,
        manifest,
    }))
}

fn run_fuzz_job(job: &JobEntry, spec: &FuzzSpec) -> Result<JobResult, Failure> {
    let opts = FuzzOptions {
        seed_start: spec.seed_start,
        seed_end: spec.seed_end,
        cycles: spec.cycles,
        oracle: OracleConfig::default(),
        // Served campaigns never write reproducer files: the divergence
        // report goes back over the wire instead.
        corpus_dir: None,
        shrink_evals: 500,
    };
    let total = spec.seed_end - spec.seed_start;
    let outcome = run_fuzz_cancellable(
        &opts,
        || job.cancel.is_cancelled(),
        |_seed, designs| {
            if designs % 10 == 0 {
                job.publish(Event::Progress {
                    job: job.id,
                    phase: "fuzz".to_owned(),
                    done: designs,
                    total,
                });
            }
        },
    )
    .map_err(|e| Failure::Error(WireError::new(ErrorKind::Internal, e)))?;
    if outcome.cancelled {
        return Err(Failure::Cancelled);
    }
    if let Some(f) = &outcome.failure {
        job.publish(Event::Log {
            job: job.id,
            message: format!(
                "divergence at seed {}: {} (minimized to {} nodes)",
                f.seed,
                f.reproducer.divergence.kind(),
                f.min_nodes
            ),
        });
    }
    Ok(JobResult::Fuzz(FuzzJobOutcome {
        designs: outcome.designs,
        diverged: outcome.failure.is_some(),
        failure_seed: outcome.failure.as_ref().map(|f| f.seed),
        cancelled: false,
    }))
}

/// Jobs submitted by a client of this name panic on their worker while
/// holding the artifact store's and the flow cache's locks, after
/// opening a labeled series: the fault the worker pool must survive.
#[cfg(test)]
pub(crate) const PANIC_CLIENT: &str = "test-fault-panic";
