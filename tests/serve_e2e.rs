//! End-to-end test of the estimation server: a served job must return
//! results bit-identical to the one-shot in-process flow, a second job
//! against the same design must be served from the warm in-memory cache
//! (skipping preparation and lowering entirely), concurrent clients must
//! both get correct results, and running jobs must cancel cooperatively.

use std::net::SocketAddr;
use std::time::{Duration, Instant};
use strober::{StroberConfig, StroberFlow};
use strober_cores::build_core;
use strober_dram::{DramConfig, DramModel, LpddrPowerParams};
use strober_isa::programs;
use strober_server::catalog;
use strober_server::driver::{self, Failure, Products};
use strober_server::protocol::{
    ErrorKind, EstimateOutcome, EstimateSpec, Event, FuzzSpec, JobResult, JobSpec, JobState,
    Priority, Request, Response,
};
use strober_server::{replay_fingerprint, Client, Server, ServerConfig, ServerHandle};

/// The shared job parameters: a tiny core and workload so the whole flow
/// runs in seconds, with explicit parallelism/lanes so the direct run
/// below is exactly comparable.
fn spec() -> EstimateSpec {
    EstimateSpec {
        core: "rok-tiny".to_owned(),
        workload: "inline".to_owned(),
        asm: Some(programs::vvadd(48)),
        samples: 6,
        replay_length: 64,
        seed: 0x57_0BE5,
        max_cycles: 2_000_000,
        parallel: 2,
        batch_lanes: 8,
        hub_engine: "auto".to_owned(),
        target_error: 0.0,
        min_samples: 30,
    }
}

/// What the one-shot flow computes for [`spec`], with f64s kept exact.
struct DirectRun {
    cycles: u64,
    instret: u64,
    windows: u64,
    samples: usize,
    core_power_mw: f64,
    half_width_mw: f64,
    dram_power_mw: f64,
    epi_nj: f64,
    snapshot_fingerprint: String,
}

/// Runs [`spec`] directly in-process, the way `strober estimate` does.
fn direct_run() -> DirectRun {
    let s = spec();
    let core = catalog::core_config(&s.core).unwrap();
    let image = catalog::image_for(&s.workload, &s.asm).unwrap();
    let design = build_core(&core);
    let session = StroberConfig {
        replay_length: s.replay_length,
        sample_size: s.samples,
        seed: s.seed,
        ..StroberConfig::default()
    };
    let flow = StroberFlow::new(&design, session).unwrap();
    let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
    dram.load(&image, 0);
    let run = flow.run_sampled(&mut dram, s.max_cycles).unwrap();
    assert!(dram.exit_code().is_some(), "workload halts");
    let results = flow
        .replay_all_batched(&run.snapshots, s.parallel, s.batch_lanes)
        .unwrap();
    let estimate = flow.estimate(&run, &results).unwrap();
    let instret = dram.instret();
    let dram_power_mw = LpddrPowerParams::lpddr2_s4()
        .average_power_mw(dram.counters(), run.target_cycles, flow.config().freq_hz)
        .total_mw();
    let epi_nj = (estimate.mean_power_mw() + dram_power_mw)
        * 1e-3
        * (run.target_cycles as f64 / flow.config().freq_hz)
        / instret as f64
        * 1e9;
    DirectRun {
        cycles: run.target_cycles,
        instret,
        windows: run.windows,
        samples: results.len(),
        core_power_mw: estimate.mean_power_mw(),
        half_width_mw: estimate.interval().half_width(),
        dram_power_mw,
        epi_nj,
        snapshot_fingerprint: replay_fingerprint(&results),
    }
}

fn start_server(workers: usize) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    start_server_with_store(workers, None)
}

fn start_server_with_store(
    workers: usize,
    store_dir: Option<String>,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        workers,
        store_dir,
        drain_ms: 10_000,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

fn connect(addr: SocketAddr, name: &str) -> Client {
    let mut client = Client::connect(addr).unwrap();
    let hello = client.hello(name).unwrap();
    assert!(
        matches!(
            hello,
            Response::Hello { protocol, .. }
                if protocol == strober_server::protocol::PROTOCOL_VERSION
        ),
        "unexpected hello: {hello:?}"
    );
    client
}

/// Submits a followed job and waits for its terminal event.
fn submit_job(
    client: &mut Client,
    spec: JobSpec,
    seen: &mut Vec<Event>,
) -> Result<JobResult, String> {
    let resp = client
        .request(&Request::Submit {
            spec,
            priority: Priority::Normal,
            follow: true,
        })
        .unwrap();
    let Response::Submitted { job } = resp else {
        panic!("submit rejected: {resp:?}");
    };
    client.wait_result(job, |ev| seen.push(ev.clone()))
}

fn submit_and_wait(client: &mut Client, spec: JobSpec, seen: &mut Vec<Event>) -> EstimateOutcome {
    let JobResult::Estimate(outcome) = submit_job(client, spec, seen).unwrap() else {
        panic!("wrong result kind");
    };
    outcome
}

/// Runs `spec` through the driver directly — the one-shot shape
/// `strober estimate` has: a flow of its own, no daemon, no run control.
/// Also returns the stage names the sink heard end, in order.
fn drive_direct(spec: &EstimateSpec) -> (Result<Products, Failure>, Vec<String>) {
    let core = catalog::core_config(&spec.core).unwrap();
    let image = catalog::image_for(&spec.workload, &spec.asm).unwrap();
    let prepare_started = Instant::now();
    let flow = StroberFlow::new(&build_core(&core), spec.session_config().unwrap()).unwrap();
    flow.prepare_jit(None);
    let stages = std::cell::RefCell::new(Vec::new());
    let out = driver::drive(
        driver::Inputs {
            flow: &flow,
            provenance: "cold",
            prepare_started,
            manifest: strober_store::RunManifest::new(core.name, "inline-asm"),
            image: &image,
            spec,
            parallel: spec.parallel,
            want_estimate: true,
        },
        &strober::RunControl::default(),
        &|stage, elapsed| {
            if elapsed.is_some() {
                stages.borrow_mut().push(stage.to_owned());
            }
        },
    );
    (out, stages.into_inner())
}

fn stage_names(manifest: &strober_store::RunManifest) -> Vec<String> {
    manifest.stages.iter().map(|s| s.name.clone()).collect()
}

fn assert_bit_identical(outcome: &EstimateOutcome, direct: &DirectRun) {
    assert_eq!(outcome.cycles, direct.cycles);
    assert_eq!(outcome.instret, direct.instret);
    assert_eq!(outcome.windows, direct.windows);
    assert_eq!(outcome.samples, direct.samples);
    assert_eq!(
        outcome.core_power_mw.to_bits(),
        direct.core_power_mw.to_bits(),
        "core power must be bit-identical: served {} vs direct {}",
        outcome.core_power_mw,
        direct.core_power_mw
    );
    assert_eq!(
        outcome.half_width_mw.to_bits(),
        direct.half_width_mw.to_bits()
    );
    assert_eq!(
        outcome.dram_power_mw.to_bits(),
        direct.dram_power_mw.to_bits()
    );
    assert_eq!(outcome.epi_nj.to_bits(), direct.epi_nj.to_bits());
    assert_eq!(
        outcome.snapshot_fingerprint, direct.snapshot_fingerprint,
        "every replayed sample must match bit for bit"
    );
}

#[test]
fn served_estimates_are_bit_identical_and_warm_on_the_second_job() {
    let direct = direct_run();
    let (addr, handle, join) = start_server(2);

    // First job: the server has never seen this design — a cold prepare.
    let mut client = connect(addr, "e2e-client");
    let mut events = Vec::new();
    let first = submit_and_wait(&mut client, JobSpec::Estimate(spec()), &mut events);
    assert_eq!(first.provenance, "cold", "first job prepares from scratch");
    assert_bit_identical(&first, &direct);
    assert!(
        events.iter().any(|e| matches!(e, Event::Started { .. })),
        "followed jobs stream a start event"
    );
    for stage in ["prepare", "sim", "replay", "estimate"] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Stage { stage: s, .. } if s == stage)),
            "followed jobs stream the `{stage}` stage"
        );
    }
    assert_event_contract(&events);
    let run_manifest = &first.manifest;
    assert_eq!(run_manifest.prepare, "cold");
    let job = run_manifest
        .job
        .as_ref()
        .expect("served runs carry job provenance");
    assert_eq!(job.client, "e2e-client");

    // Second job, same design: served from the warm in-memory flow —
    // preparation and lowering are skipped entirely. The probe registry
    // is process-global, so the counter is checked as a monotonic delta.
    let warm_before = strober_probe::snapshot()
        .counter("strober.server.prepare_warm")
        .unwrap_or(0);
    let second = submit_and_wait(&mut client, JobSpec::Estimate(spec()), &mut Vec::new());
    assert_eq!(second.provenance, "warm", "second job skips preparation");
    assert_bit_identical(&second, &direct);
    let warm_after = strober_probe::snapshot()
        .counter("strober.server.prepare_warm")
        .unwrap_or(0);
    assert!(
        warm_after > warm_before,
        "warm hit counter must advance ({warm_before} -> {warm_after})"
    );
    assert!(
        second.manifest.cache_hit,
        "warm provenance implies a cache hit in the manifest"
    );

    // Two concurrent clients, both against the warm design: both get
    // the same bit-identical answer.
    let mut threads = Vec::new();
    for i in 0..2 {
        threads.push(std::thread::spawn(move || {
            let mut client = connect(addr, &format!("concurrent-{i}"));
            submit_and_wait(&mut client, JobSpec::Estimate(spec()), &mut Vec::new())
        }));
    }
    for t in threads {
        let outcome = t.join().unwrap();
        assert_eq!(outcome.provenance, "warm");
        assert_bit_identical(&outcome, &direct);
    }

    // The server lists all four jobs as done.
    let resp = client.request(&Request::Jobs).unwrap();
    let Response::Jobs { jobs } = resp else {
        panic!("jobs query failed: {resp:?}");
    };
    assert_eq!(jobs.len(), 4);
    assert!(jobs.iter().all(|j| j.state == JobState::Done));

    handle.shutdown(false);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(handle.is_finished(), "shutdown must complete");
    join.join().unwrap();
}

/// One driver behind both front ends: called directly (as `strober
/// estimate` does) and through a served job it must replay the same
/// snapshots to the same bits, stop for the same reason in the same
/// window and name the same stages — for a fixed-size run, one whose
/// stopping rule never fires and one whose rule does.
#[test]
fn the_driver_and_a_served_job_agree_bit_for_bit() {
    let oracle = direct_run();
    let (addr, handle, join) = start_server(2);
    let mut client = connect(addr, "driver-parity");

    // A rule the workload's power cannot meet: every checkpoint replays
    // and evaluates, and the run still ends with the workload on the
    // sample a fixed-size run keeps.
    let ruled = EstimateSpec {
        target_error: 1e-6,
        min_samples: 4,
        ..spec()
    };
    // A rule that fires, on a workload long enough that it fires well
    // before the end.
    let loose = EstimateSpec {
        workload: "vvadd".to_owned(),
        asm: None,
        target_error: 0.5,
        min_samples: 4,
        ..spec()
    };
    // Which engine every run below must report, and why: `direct_run`
    // above left the hub's dylib in the temp cache, so both sides find it
    // there — or both find no compiler.
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .is_ok_and(|o| o.status.success());
    let expected = if rustc {
        ("tape-jit", "auto: cache hit")
    } else {
        ("tape", "auto: no rustc on PATH, interpreted")
    };
    for (label, spec, stop) in [
        ("fixed", spec(), "workload-done"),
        ("ruled", ruled, "workload-done"),
        ("loose", loose, "converged"),
    ] {
        let (out, heard) = drive_direct(&spec);
        let out = out.unwrap_or_else(|e| panic!("{label}: direct run failed: {e:?}"));
        let energy = out.energy.as_ref().expect("asked for an estimate");
        let served = submit_and_wait(&mut client, JobSpec::Estimate(spec), &mut Vec::new());

        assert_eq!(
            heard.join(" "),
            "prepare sim replay estimate",
            "{label}: stages the sink heard"
        );
        assert_eq!(
            stage_names(&out.manifest),
            heard,
            "{label}: manifest stages"
        );
        assert_eq!(stage_names(&served.manifest), heard, "{label}");
        for side in [&out.manifest, &served.manifest] {
            assert_eq!(
                (side.hub_engine.as_str(), side.hub_engine_reason.as_str()),
                expected,
                "{label}"
            );
        }
        assert_eq!(
            replay_fingerprint(&out.results),
            served.snapshot_fingerprint,
            "{label}"
        );
        assert_eq!(
            energy.estimate.mean_power_mw().to_bits(),
            served.core_power_mw.to_bits(),
            "{label}"
        );
        assert_eq!(
            energy.estimate.interval().half_width().to_bits(),
            served.half_width_mw.to_bits(),
            "{label}"
        );
        assert_eq!(energy.epi_nj.to_bits(), served.epi_nj.to_bits(), "{label}");
        assert_eq!(out.run.windows, served.windows, "{label}");
        assert_eq!(out.run.stop.as_str(), served.stop_reason, "{label}");
        assert_eq!(served.stop_reason, stop, "{label}");
        assert_eq!(
            out.achieved_epsilon().map(f64::to_bits),
            served.achieved_epsilon.map(f64::to_bits),
            "{label}"
        );
        if stop == "converged" {
            assert!(served.achieved_epsilon.unwrap() <= 0.5, "{label}");
        } else {
            // And against the raw flow API, which shares no code with
            // the driver.
            assert_bit_identical(&served, &oracle);
        }
    }

    // A replay-only job replays the same sample and never estimates.
    let mut events = Vec::new();
    let result = submit_job(&mut client, JobSpec::Replay(spec()), &mut events).unwrap();
    let JobResult::Replay(replayed) = result else {
        panic!("wrong result kind: {result:?}");
    };
    assert_eq!(replayed.snapshot_fingerprint, oracle.snapshot_fingerprint);
    assert_eq!(replayed.samples, oracle.samples);
    let heard: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            Event::Stage { stage, .. } => Some(stage.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(heard, ["prepare", "sim", "replay"]);

    // A cycle budget too small to halt in: one message, both front ends.
    let starved = EstimateSpec {
        max_cycles: 1_000,
        ..spec()
    };
    let (out, _) = drive_direct(&starved);
    let Err(Failure::Error(direct)) = out else {
        panic!("a starved run must fail: {out:?}");
    };
    assert_eq!(direct.message, "workload did not halt within 1000 cycles");
    let mut events = Vec::new();
    submit_job(&mut client, JobSpec::Estimate(starved), &mut events).unwrap_err();
    let Some(Event::Failed { error, .. }) = events.last() else {
        panic!("a starved job must fail: {events:?}");
    };
    assert_eq!(error.kind, ErrorKind::Internal);
    assert_eq!(error.message, direct.message);

    handle.shutdown(false);
    join.join().unwrap();
}

/// The artifact store is keyed on what preparation consumes, so a job
/// that differs from an earlier one only in its seed skips
/// FAME/synthesis/formal matching (`store`) — but still gets a flow of
/// its own, because a flow bakes the seed in: the sample must differ.
#[test]
fn a_new_seed_hits_the_store_but_draws_a_new_sample() {
    let dir = std::env::temp_dir().join(format!("strober-e2e-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, handle, join) = start_server_with_store(1, Some(dir.to_string_lossy().into_owned()));
    let mut client = connect(addr, "seeds");

    let first = submit_and_wait(&mut client, JobSpec::Estimate(spec()), &mut Vec::new());
    assert_eq!(first.provenance, "cold");
    let reseeded = EstimateSpec { seed: 2, ..spec() };
    let second = submit_and_wait(&mut client, JobSpec::Estimate(reseeded), &mut Vec::new());
    assert_eq!(second.provenance, "store", "only the seed changed");
    assert_eq!(second.manifest.fingerprint, first.manifest.fingerprint);
    assert_ne!(
        second.snapshot_fingerprint, first.snapshot_fingerprint,
        "a warm flow shared across seeds would repeat the first sample"
    );

    handle.shutdown(false);
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Event-stream contract for followed jobs: the `Started` event arrives
/// before any `Progress`/`Stage` event, and exactly one terminal event
/// (`Done`/`Failed`/`Cancelled`) closes the stream.
fn assert_event_contract(events: &[Event]) {
    let started = events
        .iter()
        .position(|e| matches!(e, Event::Started { .. }))
        .expect("followed jobs stream a start event");
    let first_work = events
        .iter()
        .position(|e| matches!(e, Event::Progress { .. } | Event::Stage { .. }));
    if let Some(first_work) = first_work {
        assert!(
            started < first_work,
            "Started (index {started}) must precede the first Progress/Stage \
             (index {first_work}): {events:?}"
        );
    }
    let terminals: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            matches!(
                e,
                Event::Done { .. } | Event::Failed { .. } | Event::Cancelled { .. }
            )
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        terminals.len(),
        1,
        "exactly one terminal event per followed job: {events:?}"
    );
    assert_eq!(
        terminals[0],
        events.len() - 1,
        "the terminal event must close the stream: {events:?}"
    );
}

/// The live telemetry path end-to-end: a `Watch` subscription streams
/// incremental frames whose merged mirror stays consistent (counters
/// monotone) while concurrent jobs run, per-job labeled series surface
/// in the stream, `Scrape` returns parseable Prometheus exposition, and
/// every followed job honors the event-ordering contract.
#[test]
fn watch_streams_stay_consistent_under_concurrent_jobs() {
    let (addr, handle, join) = start_server(2);

    // Subscribe to the metrics stream on a dedicated connection before
    // any job exists; frame 0 must be a reset carrying a full snapshot.
    let mut watcher = connect(addr, "watcher");
    let resp = watcher
        .request(&Request::Watch { interval_ms: 50 })
        .unwrap();
    assert!(
        matches!(resp, Response::Watching { interval_ms: 50 }),
        "watch rejected: {resp:?}"
    );
    let first = watcher.next_watch().unwrap();
    assert!(first.reset, "the first frame is a full snapshot");
    let mut session = strober_server::WatchSession::new();
    assert!(session.apply(&first));
    // The registry is process-global and other tests in this binary run
    // jobs too, so all counter assertions are deltas from this baseline.
    let completed_of = |s: &strober_server::WatchSession| {
        s.metrics()
            .counters
            .iter()
            .find(|c| c.name == "strober.server.jobs_completed")
            .map_or(0, |c| c.value)
    };
    let baseline = completed_of(&session);

    // Two concurrent followed jobs on their own connections. They must
    // outlive several watch intervals *after* their first progress tick
    // (window 4096), or an optimized build retires the per-job series
    // between two frames: dhrystone in 32-cycle windows has ~11.6k.
    let long = EstimateSpec {
        workload: "dhrystone".to_owned(),
        asm: None,
        replay_length: 32,
        ..spec()
    };
    let mut threads = Vec::new();
    for i in 0..2 {
        let long = long.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = connect(addr, &format!("watched-{i}"));
            let mut events = Vec::new();
            let outcome = submit_and_wait(&mut client, JobSpec::Estimate(long), &mut events);
            (outcome, events)
        }));
    }

    // Drain frames while the jobs run. The merged mirror must never see
    // a counter regress, and the per-job labeled series must appear.
    let mut last = baseline;
    let mut saw_job_series = false;
    let mut frames = 0u32;
    while completed_of(&session) < baseline + 2 {
        let frame = watcher.next_watch().unwrap();
        assert!(
            session.apply(&frame),
            "no frame was dropped, so the mirror must stay in sync"
        );
        let now = completed_of(&session);
        assert!(
            now >= last,
            "jobs_completed regressed across frames: {last} -> {now}"
        );
        last = now;
        saw_job_series |= session.metrics().gauges.iter().any(|g| {
            let (base, labels) = strober_probe::parse_series(&g.name);
            base == "strober.server.job_progress" && labels.iter().any(|(k, _)| k == "job")
        });
        frames += 1;
        assert!(
            frames < 2_000,
            "jobs did not complete within ~100 s of frames"
        );
    }
    assert!(
        saw_job_series,
        "per-job labeled series must surface in the watch stream"
    );

    for t in threads {
        let (outcome, events) = t.join().unwrap();
        assert!(outcome.cycles > 0);
        assert_event_contract(&events);
        let job = outcome.manifest.job.as_ref().expect("job provenance");
        assert!(
            !job.worker.is_empty(),
            "the manifest attributes the job to a worker"
        );
    }

    // After the jobs are done their series are retired from the registry;
    // a fresh scrape must still carry the server-level series, in
    // parseable exposition text.
    let resp = watcher.request(&Request::Scrape).unwrap();
    let Response::Scrape { text } = resp else {
        panic!("scrape failed: {resp:?}");
    };
    for series in [
        "strober_server_jobs_accepted_total",
        "strober_server_jobs_completed_total",
        "strober_server_queue_depth",
        "strober_server_queue_wait_ms_bucket",
        "strober_server_queue_wait_ms_count",
    ] {
        assert!(
            text.contains(series),
            "scrape must expose {series}:\n{text}"
        );
    }
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .expect("exposition line is `series value`");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable sample value in `{line}`"
        );
        let name_end = series.find('{').unwrap_or(series.len());
        assert!(
            series[..name_end]
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name outside the exposition charset in `{line}`"
        );
    }

    handle.shutdown(false);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !handle.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(handle.is_finished(), "shutdown must complete");
    join.join().unwrap();
}

#[test]
fn running_jobs_cancel_cooperatively() {
    let (addr, handle, join) = start_server(1);
    let mut client = connect(addr, "canceller");

    // A fuzz campaign far too large to ever finish; it checks the cancel
    // token between seeds.
    let resp = client
        .request(&Request::Submit {
            spec: JobSpec::Fuzz(FuzzSpec {
                seed_start: 0,
                seed_end: 1_000_000,
                cycles: 48,
            }),
            priority: Priority::High,
            follow: true,
        })
        .unwrap();
    let Response::Submitted { job } = resp else {
        panic!("submit rejected: {resp:?}");
    };

    // Wait until a worker picks it up, then cancel mid-run.
    loop {
        let resp = client.request(&Request::Status { job }).unwrap();
        let Response::Status { job: summary } = resp else {
            panic!("status failed: {resp:?}");
        };
        match summary.state {
            JobState::Running => break,
            JobState::Queued => std::thread::sleep(Duration::from_millis(10)),
            other => panic!("job reached {other:?} before cancellation"),
        }
    }
    let resp = client.request(&Request::Cancel { job }).unwrap();
    assert!(
        matches!(
            resp,
            Response::Cancelled {
                state: JobState::Running | JobState::Cancelled,
                ..
            }
        ),
        "cancel acknowledged: {resp:?}"
    );

    // The follow stream must end with the cancellation, promptly.
    let err = client.wait_result(job, |_| {}).unwrap_err();
    assert!(err.contains("cancelled"), "got: {err}");
    let resp = client.request(&Request::Status { job }).unwrap();
    let Response::Status { job: summary } = resp else {
        panic!("status failed: {resp:?}");
    };
    assert_eq!(summary.state, JobState::Cancelled);

    handle.shutdown(false);
    join.join().unwrap();
}
