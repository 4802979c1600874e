//! `strober` — the command-line driver for sample-based energy simulation
//! of the bundled processor designs and workloads.

mod args;

use args::{
    default_cache_dir, CacheAction, CacheArgs, CancelArgs, Command, EstimateArgs, ExportArgs,
    FuzzArgs, JobsArgs, ProbeArgs, RunArgs, ServeArgs, SubmitArgs, TopArgs, HELP,
};
use std::process::ExitCode;
use strober::{RunControl, StroberConfig, StroberFlow};
use strober_cores::build_core;
use strober_dram::{DramConfig, DramModel};
use strober_isa::programs;
use strober_server::catalog::{self, core_config};
use strober_server::protocol::{Event, FuzzSpec, JobResult, JobSpec, Priority, Request, Response};
use strober_server::{driver, Client, Server, ServerConfig};
use strober_store::{RunManifest, Store};

/// Resolves a workload reference the way the CLI spells it: `--asm` is a
/// *path* read from disk, then assembled via the same catalog the server
/// uses for inline sources.
fn load_image(workload: &str, asm: &Option<String>) -> Result<Vec<u32>, String> {
    let inline = read_asm(asm)?;
    catalog::image_for(workload, &inline)
}

/// Reads an `--asm FILE` argument into inline assembly text.
fn read_asm(asm: &Option<String>) -> Result<Option<String>, String> {
    asm.as_ref()
        .map(|path| std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}")))
        .transpose()
}

fn cmd_run(a: &RunArgs) -> Result<(), String> {
    let config = core_config(&a.core)?;
    let image = load_image(&a.workload, &a.asm)?;
    let design = build_core(&config);
    let t0 = std::time::Instant::now();
    let flow = StroberFlow::new(&design, StroberConfig::default())
        .map_err(|e| format!("flow setup failed: {e}"))?;
    flow.prepare_jit(None);
    let prepare_s = t0.elapsed().as_secs_f64();
    let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
    dram.load(&image, 0);
    let t0 = std::time::Instant::now();
    let stats = flow
        .run(&mut dram, a.max_cycles)
        .map_err(|e| format!("run failed: {e}"))?;
    let run_s = t0.elapsed().as_secs_f64();
    let Some(exit) = dram.exit_code() else {
        return Err(format!(
            "workload did not halt within {} cycles",
            a.max_cycles
        ));
    };
    let cycles = stats.target_cycles;
    let instret = dram.instret();
    println!("core:      {}", config.name);
    println!("cycles:    {cycles}");
    println!("instret:   {instret}");
    println!("CPI:       {:.3}", cycles as f64 / instret as f64);
    println!("exit code: {exit:#x}");
    if !dram.console().is_empty() {
        println!("console:   {}", String::from_utf8_lossy(dram.console()));
    }
    println!(
        "engine:    {} ({})",
        flow.hub_engine_name(),
        flow.hub_engine_reason()
    );
    println!("prepare:   {prepare_s:.2} s");
    println!(
        "host:      {run_s:.2} s ({:.0} cycles/s)",
        cycles as f64 / run_s
    );
    Ok(())
}

/// Opens the artifact store for an estimate run, or `None` when caching is
/// disabled or the store directory is unusable (degrades to a cold run).
fn open_store(a: &EstimateArgs) -> Option<Store> {
    if a.no_cache {
        return None;
    }
    let dir = a.cache_dir.clone().unwrap_or_else(default_cache_dir);
    match Store::open(&dir) {
        Ok(store) => Some(store),
        Err(e) => {
            strober_probe::warn!("cannot open artifact store at `{dir}`: {e}; running cold");
            None
        }
    }
}

/// What a run that the stopping rule ended measured: a prefix of the
/// workload, which must never read as the workload's number.
fn prefix_note(cycles: u64, windows: u64) -> String {
    format!(
        "the mean over target cycles 0..{cycles} ({windows} windows); \
         the workload had not halted"
    )
}

fn warn_prefix(cycles: u64, windows: u64) {
    strober_probe::warn!(
        "stopped at the target error: every figure reported is {}",
        prefix_note(cycles, windows)
    );
}

fn cmd_estimate(a: &EstimateArgs) -> Result<(), String> {
    let spec = &a.spec;
    let config = core_config(&spec.core)?;
    let image = load_image(&spec.workload, &spec.asm)?;
    let design = build_core(&config);
    let session = spec.session_config()?;
    let parallel = match spec.parallel {
        0 => StroberFlow::default_parallelism(),
        n => n,
    };
    let mut manifest = RunManifest::new(
        config.name.clone(),
        spec.asm.clone().unwrap_or_else(|| spec.workload.clone()),
    );
    manifest.fingerprint = StroberFlow::prepare_fingerprint(&design, &session).to_hex();

    // The estimate flow always records: the manifest's metrics,
    // --trace-out and --metrics all read from the recorder, and at CLI
    // granularity its cost is far below measurement noise.
    strober_probe::reset();
    strober_probe::enable();

    strober_probe::info!(
        "[1/3] instrumenting, synthesizing and formally matching {} ...",
        config.name
    );
    let prepare_started = std::time::Instant::now();
    let mut store = open_store(a);
    let (flow, cache_hit) = match store.as_mut() {
        Some(store) => StroberFlow::prepare_cached(&design, session, store)
            .map_err(|e| format!("flow setup failed: {e}"))?,
        None => (
            StroberFlow::new(&design, session).map_err(|e| format!("flow setup failed: {e}"))?,
            false,
        ),
    };
    if cache_hit {
        strober_probe::info!("      (prepared artifacts served from the store)");
    }
    // Unless --hub-engine interp, compile (or fetch) the native settle
    // dylib up front, through the store, so the cost is attributed to
    // preparation, not the first simulated window.
    if let Some((provenance, compile_ms)) = flow.prepare_jit(store.as_mut()) {
        strober_probe::info!(
            "      (native settle engine ready: {provenance}, compile {compile_ms} ms)"
        );
    }

    let out = driver::drive(
        driver::Inputs {
            flow: &flow,
            provenance: if cache_hit { "store" } else { "cold" },
            prepare_started,
            manifest,
            image: &image,
            spec,
            parallel,
            want_estimate: true,
        },
        &RunControl::default(),
        &|stage, elapsed| match (stage, elapsed) {
            ("sim", None) => strober_probe::info!(
                "[2/3] fast simulation with reservoir sampling, then gate-level replay of \
                 the kept snapshots ({parallel} workers x {} bit-lanes) ...",
                spec.batch_lanes
            ),
            ("estimate", None) => strober_probe::info!("[3/3] estimating ..."),
            _ => {}
        },
    )
    .map_err(|e| match e {
        driver::Failure::Cancelled => "cancelled".to_owned(),
        driver::Failure::Error(e) => e.message,
    })?;
    let achieved_epsilon = out.achieved_epsilon();
    let (run, results, instret, manifest) = (out.run, out.results, out.instret, out.manifest);
    let energy = out.energy.expect("an estimate was asked for");
    let (estimate, dram_power) = (energy.estimate, energy.dram_power_mw);
    if achieved_epsilon.is_some() {
        warn_prefix(run.target_cycles, run.windows);
    }

    let events = strober_probe::take_events();
    strober_probe::disable();

    if let Some(path) = &a.trace_out {
        std::fs::write(path, strober_probe::chrome_trace_json(&events))
            .map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
        strober_probe::info!("      chrome trace written to {path} (open in Perfetto)");
    }

    let manifest_path = a.manifest.clone().or_else(|| {
        store.as_ref().map(|s| {
            s.root()
                .join("last-run.json")
                .to_string_lossy()
                .into_owned()
        })
    });
    if let Some(path) = manifest_path {
        match manifest.save(std::path::Path::new(&path)) {
            Ok(()) => strober_probe::info!("      run manifest written to {path}"),
            Err(e) => strober_probe::warn!("cannot write run manifest to `{path}`: {e}"),
        }
    }

    if a.json {
        let mut regions = serde_json::Map::new();
        for (region, mw) in estimate.per_region_mw() {
            regions.insert(region.clone(), serde_json::json!(mw));
        }
        let doc = serde_json::json!({
            "core": config.name,
            "workload": spec.workload,
            "cycles": run.target_cycles,
            "instret": instret,
            "cpi": run.target_cycles as f64 / instret as f64,
            "samples": results.len(),
            "windows": run.windows,
            "records": run.records,
            "stop_reason": run.stop.as_str(),
            "target_error": spec.target_error,
            "achieved_epsilon": achieved_epsilon,
            "cache_hit": cache_hit,
            "hub_engine": manifest.hub_engine,
            "hub_engine_reason": manifest.hub_engine_reason,
            "jit_compile_ms": manifest.jit.as_ref().map(|j| j.compile_ms),
            "timings_ms": serde_json::json!({
                "prepare": manifest.stage_millis("prepare"),
                "sim": manifest.stage_millis("sim"),
                "replay": manifest.stage_millis("replay"),
                "estimate": manifest.stage_millis("estimate"),
            }),
            "core_power_mw": estimate.mean_power_mw(),
            "core_power_bound_mw": estimate.interval().half_width(),
            "confidence": estimate.interval().confidence(),
            "dram_power_mw": dram_power,
            "epi_nj": energy.epi_nj,
            "regions": regions,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("serialisable")
        );
        return Ok(());
    }

    println!("core:        {}", config.name);
    println!("workload:    {}", spec.workload);
    println!(
        "engine:      {} ({})",
        manifest.hub_engine, manifest.hub_engine_reason
    );
    println!(
        "cycles:      {} ({} windows of {}; {} records)",
        run.target_cycles, run.windows, spec.replay_length, run.records
    );
    println!(
        "CPI:         {:.3}",
        run.target_cycles as f64 / instret as f64
    );
    if let Some(eps) = achieved_epsilon {
        println!(
            "stopping:    converged at epsilon {eps:.4} (target {:.4}, {} samples)",
            spec.target_error,
            results.len()
        );
        println!(
            "             the figures below are {}",
            prefix_note(run.target_cycles, run.windows)
        );
    }
    println!();
    print!("{estimate}");
    println!(
        "  {:<24} {dram_power:>9.3} mW  (counter-based model)",
        "DRAM"
    );
    println!();
    println!(
        "total (core + DRAM): {:.3} mW;  EPI: {:.3} nJ/instruction",
        estimate.mean_power_mw() + dram_power,
        energy.epi_nj
    );
    if a.metrics {
        println!();
        print!("{}", manifest.metrics);
    }
    Ok(())
}

fn cmd_probe(a: &ProbeArgs) -> Result<(), String> {
    if let Some(path) = &a.trace {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let events = strober_probe::parse_chrome_trace(&text)
            .map_err(|e| format!("`{path}` is not a chrome trace: {e}"))?;
        println!("trace: {path} ({} spans)", events.len());
        print!(
            "{}",
            strober_probe::render_profile(&strober_probe::profile(&events))
        );
    }
    if let Some(path) = &a.manifest {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let manifest = RunManifest::from_json(&text)
            .map_err(|e| format!("`{path}` is not a run manifest: {e}"))?;
        if a.trace.is_some() {
            println!();
        }
        println!("manifest:  {path} (schema v{})", manifest.version);
        println!("design:    {}", manifest.design);
        println!("workload:  {}", manifest.workload);
        println!(
            "prepare:   {} (cache hit: {})",
            manifest.prepare, manifest.cache_hit
        );
        if let Some(job) = &manifest.job {
            println!(
                "job:       #{} from `{}` (queued {:.1} ms)",
                job.id, job.client, job.queue_wait_ms
            );
        }
        for stage in &manifest.stages {
            println!("  {:<20} {:>10.3} ms", stage.name, stage.millis);
        }
        if !manifest.metrics.is_empty() {
            println!();
            print!("{}", manifest.metrics);
        }
    }
    Ok(())
}

fn cmd_export(a: &ExportArgs) -> Result<(), String> {
    let config = core_config(&a.core)?;
    let design = build_core(&config);
    let out = std::path::Path::new(&a.out);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create `{}`: {e}", a.out))?;

    let rtl = strober_rtl::verilog::to_verilog(&design).map_err(|e| e.to_string())?;
    std::fs::write(out.join(format!("{}.v", config.name)), rtl).map_err(|e| e.to_string())?;

    let synth = strober_synth::synthesize(&design, &strober_synth::SynthOptions::default())
        .map_err(|e| e.to_string())?;
    let netlist =
        strober_gates::verilog::to_structural_verilog(&synth.netlist).map_err(|e| e.to_string())?;
    std::fs::write(out.join(format!("{}_netlist.v", config.name)), netlist)
        .map_err(|e| e.to_string())?;

    let fame = strober_fame::transform(&design, &strober_fame::FameConfig::default())
        .map_err(|e| e.to_string())?;
    std::fs::write(
        out.join(format!("{}_fame_meta.json", config.name)),
        fame.meta.to_json(),
    )
    .map_err(|e| e.to_string())?;
    let hub = strober_rtl::verilog::to_verilog(&fame.hub).map_err(|e| e.to_string())?;
    std::fs::write(out.join(format!("{}_hub.v", config.name)), hub).map_err(|e| e.to_string())?;

    println!(
        "wrote {}/{{{n}.v, {n}_netlist.v, {n}_hub.v, {n}_fame_meta.json}}",
        a.out,
        n = config.name
    );
    Ok(())
}

fn cmd_cache(a: &CacheArgs) -> Result<(), String> {
    let dir = a.cache_dir.clone().unwrap_or_else(default_cache_dir);
    let mut store =
        Store::open(&dir).map_err(|e| format!("cannot open artifact store at `{dir}`: {e}"))?;
    match a.action {
        CacheAction::Stats => {
            let snap = store.metrics();
            println!("store: {dir}");
            print!("{snap}");
        }
        CacheAction::Clear => {
            let removed = store
                .clear()
                .map_err(|e| format!("cannot clear store: {e}"))?;
            println!("removed {removed} cached artifacts from {dir}");
        }
    }
    Ok(())
}

fn cmd_fuzz(a: &FuzzArgs) -> Result<(), String> {
    let opts = strober_fuzz::FuzzOptions {
        seed_start: a.seed_start,
        seed_end: a.seed_end,
        cycles: a.cycles,
        oracle: strober_fuzz::OracleConfig {
            lanes: a.lanes.clone(),
            flow: !a.no_flow,
            inject: match a.inject.as_deref() {
                Some("xor-as-or") => Some(strober_fuzz::InjectedBug::XorAsOr),
                Some(other) => return Err(format!("unknown injected bug `{other}`")),
                None => None,
            },
        },
        corpus_dir: Some(std::path::PathBuf::from(&a.corpus)),
        shrink_evals: a.shrink_evals,
    };
    let total = opts.seed_end - opts.seed_start;
    strober_probe::info!(
        "fuzzing seeds {}..{} ({} designs, {} cycles each, lanes {:?}{}{})",
        opts.seed_start,
        opts.seed_end,
        total,
        opts.cycles,
        opts.oracle.lanes,
        if opts.oracle.flow { ", with flow" } else { "" },
        if opts.oracle.inject.is_some() {
            ", bug injected"
        } else {
            ""
        }
    );
    let outcome = strober_fuzz::run_fuzz(&opts, |seed, designs| {
        if designs % 25 == 0 {
            strober_probe::info!("  … seed {seed}: {designs}/{total} designs agree");
        }
    })?;
    match outcome.failure {
        None => {
            println!(
                "fuzz: {} designs, all oracles agree ({:.1} s, {:.1} designs/s)",
                outcome.designs,
                outcome.elapsed_secs,
                outcome.designs_per_sec()
            );
            Ok(())
        }
        Some(f) => {
            println!("fuzz: DIVERGENCE at seed {}", f.seed);
            println!("  original:  {}", f.original);
            println!("  minimized: {}", f.reproducer.divergence);
            println!(
                "  reproducer: {} nodes, {} genes",
                f.min_nodes,
                f.reproducer.genome.gene_count()
            );
            if let Some(path) = &f.written_to {
                println!("  written to {}", path.display());
            }
            Err(format!(
                "oracles diverged at seed {} ({})",
                f.seed,
                f.reproducer.divergence.kind()
            ))
        }
    }
}

fn cmd_serve(a: &ServeArgs) -> Result<(), String> {
    let store_dir = if a.no_cache {
        None
    } else {
        Some(a.cache_dir.clone().unwrap_or_else(default_cache_dir))
    };
    let server = Server::bind(ServerConfig {
        addr: a.addr.clone(),
        unix_socket: a.unix_socket.clone(),
        workers: a.workers,
        store_dir,
        drain_ms: a.drain_ms,
        metrics_addr: a.metrics_addr.clone(),
        flight_interval_ms: a.flight_interval_ms,
        flight_capacity: a.flight_capacity,
    })
    .map_err(|e| format!("cannot bind `{}`: {e}", a.addr))?;
    strober_probe::info!("strober server listening on {}", server.local_addr());
    if let Some(path) = &a.unix_socket {
        strober_probe::info!("  … and on unix socket {path}");
    }
    if let Some(maddr) = server.metrics_local_addr() {
        strober_probe::info!("  … and serving metrics on http://{maddr}/metrics");
    }
    server.run().map_err(|e| format!("server failed: {e}"))
}

/// One active job's row in the `strober top` table, assembled from the
/// per-job labeled series the server publishes while the job runs.
#[derive(Default)]
struct TopJob {
    design: String,
    worker: String,
    phase: String,
    progress: f64,
    sim_rate: Option<f64>,
    replay_rate: Option<f64>,
    epsilon: Option<f64>,
    provenance: String,
    engine: String,
}

/// Orders the pipeline phases so a job's row shows the furthest stage
/// reached (per-phase progress gauges persist until the job's series
/// are retired, so both `sim` and `replay` can be present at once).
fn phase_rank(phase: &str) -> u32 {
    match phase {
        "sim" => 1,
        "replay" => 2,
        // Adaptive runs: one interval observation per replayed batch,
        // reported after the batch itself, so it outranks `replay`.
        "interval" => 3,
        _ => 0,
    }
}

/// Pulls the label value for `key` out of a parsed series label list.
fn label<'a>(labels: &'a [(String, String)], key: &str) -> Option<&'a str> {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Looks up (inserting if new) the row for the `job` label of a series,
/// refreshing the row's design/worker attribution as a side effect.
fn note_job<'a>(
    jobs: &'a mut std::collections::BTreeMap<u64, TopJob>,
    labels: &[(String, String)],
) -> Option<&'a mut TopJob> {
    let id: u64 = label(labels, "job")?.parse().ok()?;
    let row = jobs.entry(id).or_default();
    if let Some(d) = label(labels, "design") {
        row.design = d.to_owned();
    }
    if let Some(w) = label(labels, "worker") {
        row.worker = w.to_owned();
    }
    if let Some(e) = label(labels, "engine") {
        row.engine = e.to_owned();
    }
    Some(row)
}

/// Finds an unlabeled gauge by exact name.
fn gauge(snap: &strober_probe::MetricsSnapshot, name: &str) -> Option<f64> {
    snap.gauges.iter().find(|g| g.name == name).map(|g| g.value)
}

/// Finds an unlabeled counter by exact name (0 when never bumped).
fn counter(snap: &strober_probe::MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// Formats a rate with an SI suffix (`1.2M`, `345k`, `87`).
fn fmt_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Renders one frame of the `strober top` dashboard from the merged
/// metrics snapshot maintained by the watch session.
fn render_top(addr: &str, seq: u64, at_ms: u64, snap: &strober_probe::MetricsSnapshot) {
    println!(
        "strober top — {addr}  (frame {seq}, t+{:.1}s)",
        at_ms as f64 / 1000.0
    );
    println!();

    let accepted = counter(snap, "strober.server.jobs_accepted");
    let completed = counter(snap, "strober.server.jobs_completed");
    let failed = counter(snap, "strober.server.jobs_failed");
    let cancelled = counter(snap, "strober.server.jobs_cancelled");
    println!(
        "jobs:     accepted {accepted}   completed {completed}   failed {failed}   cancelled {cancelled}   queued {:.0}",
        gauge(snap, "strober.server.queue_depth").unwrap_or(0.0)
    );
    println!(
        "prepare:  warm {}   store {}   cold {}   (warm designs {:.0})",
        counter(snap, "strober.server.prepare_warm"),
        counter(snap, "strober.server.prepare_store"),
        counter(snap, "strober.server.prepare_cold"),
        gauge(snap, "strober.server.warm_designs").unwrap_or(0.0)
    );
    if let Some(h) = snap
        .histograms
        .iter()
        .find(|h| h.name == "strober.server.queue_wait_ms")
    {
        println!(
            "queue:    waits {}   mean {:.1} ms   max {:.1} ms",
            h.count,
            h.mean(),
            h.max
        );
    }

    // Per-worker busy/idle flags come from the labeled worker_busy gauge.
    let mut workers: Vec<(String, f64)> = Vec::new();
    let mut jobs: std::collections::BTreeMap<u64, TopJob> = std::collections::BTreeMap::new();
    for g in &snap.gauges {
        let (base, labels) = strober_probe::parse_series(&g.name);
        match base {
            "strober.server.worker_busy" => {
                if let Some(w) = label(&labels, "worker") {
                    workers.push((w.to_owned(), g.value));
                }
            }
            "strober.server.job_progress" => {
                if let Some(row) = note_job(&mut jobs, &labels) {
                    let phase = label(&labels, "phase").unwrap_or("?");
                    if phase_rank(phase) >= phase_rank(&row.phase) {
                        row.phase = phase.to_owned();
                        row.progress = g.value;
                    }
                }
            }
            "strober.core.sim_cycles_per_sec" => {
                if let Some(row) = note_job(&mut jobs, &labels) {
                    row.sim_rate = Some(g.value);
                }
            }
            "strober.core.replay_samples_per_sec" => {
                if let Some(row) = note_job(&mut jobs, &labels) {
                    row.replay_rate = Some(g.value);
                }
            }
            "strober.sampling.stop.relative_error" => {
                if let Some(row) = note_job(&mut jobs, &labels) {
                    row.epsilon = Some(g.value);
                }
            }
            _ => {}
        }
    }
    for c in &snap.counters {
        let (base, labels) = strober_probe::parse_series(&c.name);
        if base == "strober.server.job_prepare" {
            if let Some(row) = note_job(&mut jobs, &labels) {
                if let Some(p) = label(&labels, "provenance") {
                    row.provenance = p.to_owned();
                }
            }
        }
        // The engine rides in every post-prepare labeled series; this
        // counter pins it even before the first progress tick.
        if base == "strober.server.job_engine" {
            note_job(&mut jobs, &labels);
        }
    }

    workers.sort_by(|a, b| a.0.cmp(&b.0));
    let busy = workers.iter().filter(|(_, v)| *v > 0.0).count();
    print!("workers:  {busy}/{} busy ", workers.len());
    for (name, v) in &workers {
        print!(" [{}:{}]", name, if *v > 0.0 { "busy" } else { "idle" });
    }
    println!();
    println!();

    if jobs.is_empty() {
        println!("no active jobs");
    } else {
        println!(
            "{:>5}  {:<14} {:>6}  {:<8} {:>9}  {:>10}  {:>12}  {:>7}  {:<6}  {:<16}",
            "JOB",
            "DESIGN",
            "WORKER",
            "PHASE",
            "PROGRESS",
            "SIM c/s",
            "REPLAY s/s",
            "EPS",
            "CACHE",
            "ENGINE"
        );
        for (id, row) in &jobs {
            println!(
                "{:>5}  {:<14} {:>6}  {:<8} {:>9}  {:>10}  {:>12}  {:>7}  {:<6}  {:<16}",
                id,
                row.design,
                row.worker,
                // A row exists only once a worker emitted a job-labeled
                // series, so pre-progress the job is mid-prepare/sim.
                if row.phase.is_empty() {
                    "running"
                } else {
                    &row.phase
                },
                format!("{:.0}", row.progress),
                row.sim_rate.map_or_else(|| "-".to_owned(), fmt_rate),
                row.replay_rate.map_or_else(|| "-".to_owned(), fmt_rate),
                // Achieved relative error bound of an adaptive job's
                // running estimate (absent for fixed-size runs).
                row.epsilon
                    .map_or_else(|| "-".to_owned(), |e| format!("{e:.3}")),
                row.provenance,
                // The hub settle engine after fallback (tape or
                // tape-jit); unknown until prepare finishes.
                if row.engine.is_empty() {
                    "-"
                } else {
                    &row.engine
                }
            );
        }
    }
}

fn cmd_top(a: &TopArgs) -> Result<(), String> {
    let mut client = dial(&a.addr)?;
    let interval_ms = match client.request(&Request::Watch {
        interval_ms: a.interval_ms,
    }) {
        Ok(Response::Watching { interval_ms }) => interval_ms,
        Ok(other) => return Err(format!("unexpected watch response: {other:?}")),
        Err(e) => return Err(format!("watch failed: {e}")),
    };
    let ansi = !a.plain && a.frames != 1;
    let mut session = strober_server::WatchSession::new();
    let mut rendered = 0u64;
    loop {
        let frame = match client.next_watch() {
            Ok(f) => f,
            // The stream ends when the server shuts down; with a frame
            // budget that is an error (we were cut short), without one
            // it is the normal way out.
            Err(e) if a.frames == 0 => {
                strober_probe::info!("server went away ({e}); exiting");
                return Ok(());
            }
            Err(e) => return Err(format!("watch stream ended early: {e}")),
        };
        let (seq, at_ms) = (frame.seq, frame.at_ms);
        if !session.apply(&frame) {
            // Desynced (missed a frame); skip until the next reset frame.
            continue;
        }
        if ansi {
            // Clear the screen and home the cursor, like top(1).
            print!("\x1b[2J\x1b[H");
        }
        render_top(&a.addr, seq, at_ms, session.metrics());
        if ansi {
            println!();
            println!("refreshing every {interval_ms} ms — press Ctrl-C to quit");
        }
        rendered += 1;
        if a.frames > 0 && rendered >= a.frames {
            return Ok(());
        }
    }
}

/// Dials the server and introduces this process.
fn dial(addr: &str) -> Result<Client, String> {
    let mut client =
        Client::connect(addr).map_err(|e| format!("cannot reach server at `{addr}`: {e}"))?;
    let name = format!("strober-cli[{}]", std::process::id());
    match client.hello(&name) {
        Ok(Response::Hello { protocol, .. })
            if protocol == strober_server::protocol::PROTOCOL_VERSION =>
        {
            Ok(client)
        }
        Ok(Response::Hello { protocol, .. }) => Err(format!(
            "server at `{addr}` speaks protocol v{protocol}, this client v{}",
            strober_server::protocol::PROTOCOL_VERSION
        )),
        Ok(other) => Err(format!("unexpected hello response: {other:?}")),
        Err(e) => Err(format!("hello failed: {e}")),
    }
}

fn submit_spec(a: &SubmitArgs) -> Result<JobSpec, String> {
    // The parsed spec carries the `--asm` path; the wire carries its text.
    let estimate = || -> Result<_, String> {
        let mut spec = a.spec.clone();
        spec.asm = read_asm(&spec.asm)?;
        Ok(spec)
    };
    match a.kind.as_str() {
        "estimate" => Ok(JobSpec::Estimate(estimate()?)),
        "replay" => Ok(JobSpec::Replay(estimate()?)),
        "fuzz" => Ok(JobSpec::Fuzz(FuzzSpec {
            seed_start: a.seed_start,
            seed_end: a.seed_end,
            cycles: a.cycles,
        })),
        other => Err(format!("unknown job kind `{other}`")),
    }
}

fn print_job_result(result: &JobResult, json: bool) {
    if let JobResult::Estimate(o) = result {
        if o.achieved_epsilon.is_some() {
            warn_prefix(o.cycles, o.windows);
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(result).expect("serialisable")
        );
        return;
    }
    match result {
        JobResult::Estimate(o) => {
            println!("core:        {}", o.core);
            println!("workload:    {}", o.workload);
            println!(
                "engine:      {} ({})",
                o.manifest.hub_engine, o.manifest.hub_engine_reason
            );
            println!(
                "cycles:      {} ({} windows; {} records)",
                o.cycles, o.windows, o.records
            );
            println!("CPI:         {:.3}", o.cycles as f64 / o.instret as f64);
            println!("prepare:     {}", o.provenance);
            println!(
                "core power:  {:.3} mW ± {:.3} mW ({:.0}% confidence, {} samples)",
                o.core_power_mw,
                o.half_width_mw,
                o.confidence * 100.0,
                o.samples
            );
            if let Some(eps) = o.achieved_epsilon {
                println!("stopping:    {} at epsilon {eps:.4}", o.stop_reason);
                println!(
                    "             these figures are {}",
                    prefix_note(o.cycles, o.windows)
                );
            }
            println!("DRAM power:  {:.3} mW", o.dram_power_mw);
            println!(
                "total:       {:.3} mW;  EPI: {:.3} nJ/instruction",
                o.core_power_mw + o.dram_power_mw,
                o.epi_nj
            );
        }
        JobResult::Replay(o) => {
            println!(
                "replayed {} samples: mean {:.3} mW, {} outputs checked, prepare {}",
                o.samples, o.mean_power_mw, o.outputs_checked, o.provenance
            );
        }
        JobResult::Fuzz(o) => {
            let status = match (o.diverged, o.cancelled) {
                (true, _) => "DIVERGENCE",
                (false, true) => "cancelled",
                (false, false) => "all oracles agree",
            };
            print!("fuzz: {} designs, {status}", o.designs);
            match o.failure_seed {
                Some(seed) => println!(" (seed {seed})"),
                None => println!(),
            }
        }
    }
}

fn cmd_submit(a: &SubmitArgs) -> Result<(), String> {
    let spec = submit_spec(a)?;
    let priority = match a.priority.as_str() {
        "high" => Priority::High,
        "low" => Priority::Low,
        _ => Priority::Normal,
    };
    let mut client = dial(&a.addr)?;
    let resp = client
        .request(&Request::Submit {
            spec,
            priority,
            follow: !a.detach,
        })
        .map_err(|e| format!("submit failed: {e}"))?;
    let job = match resp {
        Response::Submitted { job } => job,
        Response::Error { error } => return Err(format!("server rejected the job: {error}")),
        other => return Err(format!("unexpected submit response: {other:?}")),
    };
    if a.detach {
        println!("{job}");
        return Ok(());
    }
    strober_probe::info!("job #{job} submitted to {}; following …", a.addr);
    let result = client.wait_result(job, |ev| match ev {
        Event::Started { queue_wait_ms, .. } => {
            strober_probe::info!("  job #{job} started after {queue_wait_ms:.1} ms in queue");
        }
        Event::Stage { stage, millis, .. } => {
            strober_probe::info!("  {stage}: {millis:.1} ms");
        }
        Event::Progress {
            phase, done, total, ..
        } => {
            if *total > 0 {
                strober_probe::debug!("  {phase}: {done}/{total}");
            } else {
                strober_probe::debug!("  {phase}: {done}");
            }
        }
        Event::Log { message, .. } => strober_probe::info!("  {message}"),
        _ => {}
    })?;
    print_job_result(&result, a.json);
    Ok(())
}

fn cmd_jobs(a: &JobsArgs) -> Result<(), String> {
    let mut client = dial(&a.addr)?;
    match client
        .request(&Request::Jobs)
        .map_err(|e| format!("jobs query failed: {e}"))?
    {
        Response::Jobs { jobs } if jobs.is_empty() => println!("no jobs"),
        Response::Jobs { jobs } => {
            println!(
                "{:>5}  {:<9} {:<10} {:<8} {:>12}  CLIENT",
                "ID", "KIND", "STATE", "PRIO", "QUEUED (ms)"
            );
            for j in jobs {
                println!(
                    "{:>5}  {:<9} {:<10} {:<8} {:>12.1}  {}",
                    j.id,
                    j.kind,
                    j.state.as_str(),
                    j.priority.as_str(),
                    j.queue_wait_ms,
                    j.client
                );
            }
        }
        other => return Err(format!("unexpected jobs response: {other:?}")),
    }
    Ok(())
}

fn cmd_cancel(a: &CancelArgs) -> Result<(), String> {
    let mut client = dial(&a.addr)?;
    match client
        .request(&Request::Cancel { job: a.job })
        .map_err(|e| format!("cancel failed: {e}"))?
    {
        Response::Cancelled { job, state } => {
            println!("job #{job}: {}", state.as_str());
            Ok(())
        }
        Response::Error { error } => Err(format!("cancel rejected: {error}")),
        other => Err(format!("unexpected cancel response: {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = argv.iter().map(String::as_str).collect();
    let cli = match args::parse(&refs) {
        Ok(c) => c,
        Err(e) => {
            strober_probe::error!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(level) = cli.log_level {
        strober_probe::set_log_level(level);
    }
    let result = match &cli.command {
        Command::Help => {
            print!("{HELP}");
            Ok(())
        }
        Command::Workloads => {
            println!("bundled workloads (scaled versions of the paper's benchmarks):");
            for (name, _) in catalog::WORKLOADS {
                println!("  {name}");
            }
            Ok(())
        }
        Command::Run(a) => cmd_run(a),
        Command::Estimate(a) => cmd_estimate(a),
        Command::Export(a) => cmd_export(a),
        Command::Cache(a) => cmd_cache(a),
        Command::Probe(a) => cmd_probe(a),
        Command::Fuzz(a) => cmd_fuzz(a),
        Command::Serve(a) => cmd_serve(a),
        Command::Submit(a) => cmd_submit(a),
        Command::Jobs(a) => cmd_jobs(a),
        Command::Cancel(a) => cmd_cancel(a),
        Command::Top(a) => cmd_top(a),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            strober_probe::error!("{e}");
            ExitCode::FAILURE
        }
    }
}
