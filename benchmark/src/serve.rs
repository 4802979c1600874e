//! The served path: an in-process `strober serve` daemon, a primer job,
//! a closed loop of clients submitting followed jobs, and the run that
//! reduces their bursts to metrics.

use crate::golden::{accuracy, powers_agree, GoldenSpec, REFERENCE_SEED};
use crate::oneshot::{Bench, FlowPath, Rep, Spec, MAX_CYCLES, REPLAY_LANES};
use crate::run::{best_of, keep_going, med, peak_rss_mb, Ops, Options, Outcome, SETUPS};
use crate::stats::{span_totals, SpanTotal};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;
use strober_server::protocol::{
    EstimateOutcome, EstimateSpec, Event, JobResult, JobSpec, Priority, Request, Response,
    PROTOCOL_VERSION,
};
use strober_server::{Client, Server, ServerConfig, ServerHandle};

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Closed-loop clients, each submitting its next job when the previous
/// one returns.
pub const CLIENTS: usize = 2;
/// Followed jobs per client per burst.
pub const JOBS_PER_CLIENT: usize = 6;
/// The same under `--smoke`.
const SMOKE_JOBS_PER_CLIENT: usize = 2;

/// The wire spec of one job: `spec` at `seed`, one replay thread (two
/// jobs share the two cores).
pub fn wire_spec(spec: &Spec, seed: u64) -> EstimateSpec {
    EstimateSpec {
        core: spec.core.to_owned(),
        workload: spec.workload.to_owned(),
        samples: spec.samples,
        replay_length: spec.replay_length,
        seed,
        max_cycles: MAX_CYCLES,
        parallel: 1,
        batch_lanes: REPLAY_LANES,
        hub_engine: spec.engine.name().to_owned(),
        ..EstimateSpec::default()
    }
}

/// A daemon running on its own thread.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds an ephemeral loopback port (no store) and starts serving.
    pub fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServerConfig {
            workers: WORKERS,
            store_dir: None,
            drain_ms: 10_000,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        Ok(Daemon {
            addr: server.local_addr(),
            handle: server.handle(),
            thread: std::thread::spawn(move || server.run()),
        })
    }

    /// Connects and introduces a client.
    pub fn connect(&self, name: &str) -> Result<Client, String> {
        let mut client =
            Client::connect(self.addr).map_err(|e| format!("cannot reach the daemon: {e}"))?;
        match client
            .hello(name)
            .map_err(|e| format!("hello failed: {e}"))?
        {
            Response::Hello { protocol, .. } if protocol == PROTOCOL_VERSION => Ok(client),
            other => Err(format!("unexpected hello: {other:?}")),
        }
    }

    /// Cancels whatever is left and waits for the daemon to exit.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown(false);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }
}

/// One followed job as its client saw it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index into the burst's spec list.
    pub spec: usize,
    /// Submit → result, host seconds.
    pub latency_s: f64,
    /// `Event::Started.queue_wait_ms`, in seconds.
    pub queue_wait_s: f64,
    /// Stage seconds by name, from `Event::Stage.millis`.
    pub stages: Vec<(String, f64)>,
    /// The result payload.
    pub outcome: EstimateOutcome,
}

impl Job {
    /// Σ stage seconds: the time a worker spent on the job.
    pub fn service_s(&self) -> f64 {
        self.stages.iter().map(|(_, s)| s).sum()
    }

    /// Seconds of one named stage (0 if it did not run).
    pub fn stage_s(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, s)| s)
            .sum()
    }

    /// Mismatches against the one-shot golden of the job's spec.
    pub fn check(&self, golden: &GoldenSpec) -> Vec<String> {
        let o = &self.outcome;
        let mut bad = Vec::new();
        for (what, got, want) in [
            ("cycles", o.cycles, golden.target_cycles),
            ("windows", o.windows, golden.windows),
            ("records", o.records, golden.records),
            ("instret", o.instret, golden.instret),
        ] {
            if got != want {
                bad.push(format!("{what}: got {got}, golden {want}"));
            }
        }
        for (what, got, want) in [
            ("core_power_mw", o.core_power_mw, golden.sampled_power_mw),
            ("half_width_mw", o.half_width_mw, golden.half_width_mw),
        ] {
            if !powers_agree(got, want) {
                bad.push(format!("{what}: got {got}, golden {want}"));
            }
        }
        bad
    }
}

/// Submits one followed estimate and waits for its result.
pub fn run_job(client: &mut Client, spec_index: usize, spec: EstimateSpec) -> Result<Job, String> {
    let t0 = Instant::now();
    let response = client
        .request(&Request::Submit {
            spec: JobSpec::Estimate(spec),
            priority: Priority::Normal,
            follow: true,
        })
        .map_err(|e| format!("submit failed: {e}"))?;
    let Response::Submitted { job } = response else {
        return Err(format!("submit rejected: {response:?}"));
    };
    let mut queue_wait_s = 0.0;
    let mut stages = Vec::new();
    let result = client.wait_result(job, |ev| match ev {
        Event::Started { queue_wait_ms, .. } => queue_wait_s = queue_wait_ms * 1e-3,
        Event::Stage { stage, millis, .. } => stages.push((stage.clone(), millis * 1e-3)),
        _ => {}
    })?;
    let latency_s = t0.elapsed().as_secs_f64();
    match result {
        JobResult::Estimate(outcome) => Ok(Job {
            spec: spec_index,
            latency_s,
            queue_wait_s,
            stages,
            outcome,
        }),
        other => Err(format!("job {job}: not an estimate result: {other:?}")),
    }
}

/// The job order of one burst: `jobs_per_client × CLIENTS` spec indices,
/// half of them each spec, shuffled by `seed` and dealt to the clients
/// in order. The reservoir seed of the jobs is fixed — the daemon's warm
/// cache is keyed on the whole session config, seed included, so the
/// benchmark seed varies the traffic, not the sampler.
pub fn burst_plan(specs: usize, jobs_per_client: usize, seed: u64) -> Vec<Vec<usize>> {
    let total = CLIENTS * jobs_per_client;
    let mut order: Vec<usize> = (0..total).map(|i| i % specs).collect();
    let mut state = seed;
    for i in (1..total).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
        .chunks(jobs_per_client)
        .map(<[usize]>::to_vec)
        .collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One burst: every client works through its plan in a closed loop.
#[derive(Debug)]
pub struct Burst {
    /// First submit → last result, host seconds.
    pub wall_s: f64,
    /// Finished jobs.
    pub jobs: Vec<Job>,
    /// Errors of jobs that did not finish.
    pub errors: Vec<String>,
}

/// Runs one burst over already-connected clients.
pub fn run_burst(clients: &mut [Client], plan: &[Vec<usize>], specs: &[EstimateSpec]) -> Burst {
    let t0 = Instant::now();
    let per_client: Vec<Vec<Result<Job, String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plan)
            .map(|(client, jobs)| {
                scope.spawn(move || {
                    jobs.iter()
                        .map(|&i| run_job(client, i, specs[i].clone()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut burst = Burst {
        wall_s,
        jobs: Vec::new(),
        errors: Vec::new(),
    };
    for result in per_client.into_iter().flatten() {
        match result {
            Ok(job) => burst.jobs.push(job),
            Err(e) => burst.errors.push(e),
        }
    }
    burst
}

/// One run of the served workload.
pub struct ServeRun<'a> {
    opts: &'a Options,
    specs: [Spec; 2],
    goldens: [Option<GoldenSpec>; 2],
    ops: Ops,
}

impl<'a> ServeRun<'a> {
    /// A run of `specs` (alternated by the burst plan), checked against
    /// `goldens` where there are any.
    pub fn new(opts: &'a Options, specs: [Spec; 2], goldens: [Option<GoldenSpec>; 2]) -> Self {
        ServeRun {
            opts,
            specs,
            goldens,
            ops: Ops::default(),
        }
    }

    fn wire_specs(&self) -> Vec<EstimateSpec> {
        self.specs
            .iter()
            .map(|s| wire_spec(s, REFERENCE_SEED))
            .collect()
    }

    /// Bind plus one primer job (the first spec, prepared cold).
    fn set_up(&mut self) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let daemon = Daemon::start()?;
        let primer = daemon
            .connect("ledger-primer")
            .and_then(|mut c| run_job(&mut c, 0, self.wire_specs().remove(0)));
        let seconds = t0.elapsed().as_secs_f64();
        let golden = self.goldens[0].clone();
        let job = self.ops.record("primer job", primer, |job| {
            let mut bad = golden.as_ref().map_or(Vec::new(), |g| job.check(g));
            if job.outcome.provenance != "cold" {
                bad.push(format!(
                    "primer was prepared `{}`, expected `cold`",
                    job.outcome.provenance
                ));
            }
            bad
        });
        if job.is_none() {
            let _ = daemon.stop();
            return Err("the primer job failed".to_owned());
        }
        Ok((daemon, seconds))
    }

    /// In smoke mode there is no golden, so each served spec is compared
    /// bit for bit with a one-shot estimate made in this process.
    fn one_shot_references(&mut self) -> Result<Vec<Option<Rep>>, String> {
        if !self.opts.smoke {
            return Ok(vec![None, None]);
        }
        let mut refs = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            let bench = Bench::new(*spec)?;
            let dir = self.opts.scratch.join(format!("one-shot-{i}"));
            let (mut prepared, _) = bench.cold_setup(&dir)?;
            let flow = bench.warm_flow(&mut prepared, REFERENCE_SEED)?;
            let rep = bench.estimate_once(&flow, FlowPath::Phased, false);
            refs.push(self.ops.record("one-shot reference", rep, |_| Vec::new()));
        }
        Ok(refs)
    }

    /// Sets the daemon up, runs the bursts, and reduces them to metrics.
    ///
    /// The daemon of the first set-up serves the bursts, and the peak
    /// resident set is read while it still runs; the remaining set-ups
    /// (timed only, for the median) come after. Done first, each of
    /// them would leave its worker threads' freed heap resident in an
    /// allocator arena of its own, and `peak_rss_mb` would measure how
    /// many arenas five daemons happened to spread over (43–65 MiB run
    /// to run) instead of what one daemon's life costs.
    pub fn run(mut self) -> Result<Outcome, String> {
        let setups = if self.opts.smoke || self.opts.trace {
            1
        } else {
            SETUPS
        };
        let (daemon, first_setup_s) = self.set_up()?;
        let mut setup_s = vec![first_setup_s];
        let setup_spans = span_totals(&strober_probe::take_events());
        let result = self.bursts(&daemon, &setup_spans);
        let stopped = daemon.stop();
        let (mut metrics, mut detail) = result?;
        stopped?;
        for _ in 1..setups {
            let (daemon, s) = self.set_up()?;
            setup_s.push(s);
            daemon.stop()?;
        }
        if !self.opts.trace {
            metrics.insert("setup_s", med(&setup_s));
        }
        detail.object_insert("setups_s", json!(setup_s));
        Ok(self.ops.into_outcome(metrics, detail))
    }

    #[allow(clippy::type_complexity)]
    fn bursts(
        &mut self,
        daemon: &Daemon,
        setup_spans: &BTreeMap<String, SpanTotal>,
    ) -> Result<(BTreeMap<&'static str, f64>, Value), String> {
        let one_shots = self.one_shot_references()?;
        let wire = self.wire_specs();
        let jobs_per_client = if self.opts.smoke {
            SMOKE_JOBS_PER_CLIENT
        } else {
            JOBS_PER_CLIENT
        };
        let plan = burst_plan(self.specs.len(), jobs_per_client, self.opts.seed);
        let mut clients = (0..CLIENTS)
            .map(|i| daemon.connect(&format!("ledger-client-{i}")))
            .collect::<Result<Vec<_>, _>>()?;

        let warm_before = warm_prepares();
        let since = Instant::now();
        let mut bursts: Vec<Burst> = Vec::new();
        let mut spans = BTreeMap::new();
        loop {
            if !keep_going(self.opts, &self.ops, bursts.len(), since) {
                break;
            }
            strober_probe::take_events();
            let burst = run_burst(&mut clients, &plan, &wire);
            // The daemon keeps the recorder on for its whole life, so a
            // traced burst costs what any burst costs; tracing only
            // means its spans are kept (the last burst's).
            let events = strober_probe::take_events();
            if self.opts.trace {
                spans = span_totals(&events);
            }
            for e in &burst.errors {
                self.ops
                    .record::<()>("served job", Err(e.clone()), |_| Vec::new());
            }
            for job in &burst.jobs {
                let golden = &self.goldens[job.spec];
                let one_shot = &one_shots[job.spec];
                self.ops.record("served job", Ok(job), |job| {
                    let mut bad = golden.as_ref().map_or(Vec::new(), |g| job.check(g));
                    if let Some(rep) = one_shot {
                        let o = &job.outcome;
                        if o.core_power_mw.to_bits() != rep.power_mw.to_bits()
                            || o.snapshot_fingerprint != rep.fingerprint
                            || (o.cycles, o.windows, o.records, o.instret)
                                != (rep.target_cycles, rep.windows, rep.records, rep.instret)
                        {
                            bad.push(format!(
                                "served {} mW ({}) differs from one-shot {} mW ({})",
                                o.core_power_mw,
                                o.snapshot_fingerprint,
                                rep.power_mw,
                                rep.fingerprint
                            ));
                        }
                    }
                    bad
                });
            }
            bursts.push(burst);
        }
        drop(clients);

        let jobs: Vec<&Job> = bursts.iter().flat_map(|b| &b.jobs).collect();
        if jobs.is_empty() {
            return Err("no served job finished".to_owned());
        }
        let per_job = |f: &dyn Fn(&Job) -> f64| -> f64 {
            med(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>())
        };
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        if self.opts.trace {
            // Prepare spans of the primer job.
            let span_s = |name: &str| setup_spans.get(name).map_or(0.0, |s| s.total_s);
            m.insert("fame.transform_s", span_s("strober.fame.transform"));
            m.insert("synth.synthesize_s", span_s("strober.synth.synthesize"));
            m.insert("formal.match_s", span_s("strober.formal.match"));
            m.insert("server.queue_wait_s", per_job(&|j| j.queue_wait_s));
            m.insert("server.service_s", per_job(&|j| j.service_s()));
            m.insert(
                "server.overhead_s",
                per_job(&|j| j.latency_s - j.queue_wait_s - j.service_s()),
            );
            let attempted: usize = bursts.iter().map(|b| b.jobs.len() + b.errors.len()).sum();
            m.insert(
                "server.warm_ratio",
                (warm_prepares() - warm_before) as f64 / attempted as f64,
            );
            m.insert(
                "server.jobs_failed",
                bursts.iter().map(|b| b.errors.len()).sum::<usize>() as f64,
            );
            m.insert("core.run_sampled_s", per_job(&|j| j.stage_s("sim")));
            m.insert("core.replay_s", per_job(&|j| j.stage_s("replay")));
            m.insert("sampling.estimate_s", per_job(&|j| j.stage_s("estimate")));
            // Spans of the last kept burst, per job.
            let per_burst_job = (CLIENTS * jobs_per_client) as f64;
            let span = |name: &str| spans.get(name).copied().unwrap_or_default();
            let capture = span("strober.platform.capture_snapshot");
            m.insert("platform.capture_s", capture.total_s / per_burst_job);
            m.insert("platform.records", capture.count as f64 / per_burst_job);
            if capture.count > 0 {
                m.insert(
                    "platform.capture_ms_per_record",
                    capture.total_s * 1e3 / capture.count as f64,
                );
            }
            let batches = span("strober.core.replay_batch");
            m.insert("gatesim.replay_batch_s", batches.total_s / per_burst_job);
            m.insert("gatesim.batches", batches.count as f64 / per_burst_job);
            m.insert(
                "gatesim.load_batch_s",
                span("strober.gatesim.load_batch").total_s / per_burst_job,
            );
        } else {
            // Accuracy of the served estimates, averaged over the specs.
            let served: Vec<(f64, f64)> = self
                .goldens
                .iter()
                .enumerate()
                .filter_map(|(i, golden)| {
                    let o = &jobs.iter().find(|j| j.spec == i)?.outcome;
                    Some(accuracy(o.core_power_mw, o.half_width_mw, golden.as_ref()))
                })
                .collect();
            let mean = |f: fn(&(f64, f64)) -> f64| {
                served.iter().map(f).sum::<f64>() / served.len().max(1) as f64
            };
            // Per burst: the median submit-to-result latency of its jobs,
            // and target cycles served per second of burst wall. Across
            // bursts, the best one (see `best_of`).
            let latency: Vec<f64> = bursts
                .iter()
                .filter(|b| !b.jobs.is_empty())
                .map(|b| med(&b.jobs.iter().map(|j| j.latency_s).collect::<Vec<_>>()))
                .collect();
            let burst_s_per_cycle: Vec<f64> = bursts
                .iter()
                .filter(|b| !b.jobs.is_empty())
                .map(|b| b.wall_s / b.jobs.iter().map(|j| j.outcome.cycles).sum::<u64>() as f64)
                .collect();
            m.insert("estimate_wall_s", best_of(&latency).unwrap_or(0.0));
            m.insert(
                "target_cycles_per_s",
                best_of(&burst_s_per_cycle).map_or(0.0, |s| 1.0 / s),
            );
            // Read here, with the one daemon still up; see `run`.
            m.insert("peak_rss_mb", peak_rss_mb()?);
            m.insert("power_error_pct", mean(|a| a.0));
            m.insert("ci_half_width_pct", mean(|a| a.1));
        }
        let detail = json!({
            "specs": self.specs.iter().map(|s| s.id).collect::<Vec<_>>(),
            "engine": jobs[0].outcome.manifest.hub_engine,
            "reps": bursts.len(),
            "jobs": jobs.len(),
            "seeds": [self.opts.seed],
            "plan": plan,
            "burst_walls_s": bursts.iter().map(|b| b.wall_s).collect::<Vec<_>>(),
            "latencies_s": jobs.iter().map(|j| j.latency_s).collect::<Vec<_>>(),
        });
        Ok((m, detail))
    }
}

/// `strober.server.prepare_warm` so far in this process.
fn warm_prepares() -> u64 {
    strober_probe::snapshot()
        .counter("strober.server.prepare_warm")
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_plans_are_balanced_deterministic_and_seed_dependent() {
        let a = burst_plan(2, JOBS_PER_CLIENT, 7);
        assert_eq!(a, burst_plan(2, JOBS_PER_CLIENT, 7));
        assert_eq!(a.len(), CLIENTS);
        let all: Vec<usize> = a.iter().flatten().copied().collect();
        assert_eq!(all.len(), CLIENTS * JOBS_PER_CLIENT);
        assert_eq!(all.iter().filter(|&&s| s == 0).count(), all.len() / 2);
        assert!(
            (0..16).any(|s| burst_plan(2, JOBS_PER_CLIENT, s) != a),
            "seed has no effect"
        );
    }
}
