//! The estimation daemon: listeners, connection handling, the worker
//! pool, and graceful shutdown.
//!
//! One [`Server`] owns a TCP listener (and optionally a Unix-socket
//! listener), a table of every job it has seen, a priority queue feeding
//! a fixed worker pool, and the warm flow cache. Connections are
//! handled on their own threads; each request gets exactly one response,
//! and followed jobs additionally stream [`Event`]s over the submitting
//! connection. Shutdown — from a `Shutdown` request, SIGINT/SIGTERM, or
//! [`ServerHandle::shutdown`] — stops accepting work, then either drains
//! in-flight jobs (up to the configured deadline, after which their
//! cancel tokens trip) or cancels them immediately, and finally flushes
//! the probe metrics and trace.
//!
//! [`Event`]: crate::protocol::Event

use crate::driver::Failure;
use crate::frame::{decode, read_frame_bytes_while, FrameError};
use crate::jobs::{self, FlowCache};
use crate::lock;
use crate::protocol::{
    ErrorKind, Event, JobState, Request, Response, ServerMsg, WatchFrame, WireError,
    PROTOCOL_VERSION,
};
use crate::queue::{ConnWriter, JobEntry, JobPhase, JobQueue, JobTable};
use crate::signal;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use strober_store::Store;

/// How long accept loops and connection readers sleep between polls.
const POLL: Duration = Duration::from_millis(25);

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address. Port 0 picks an ephemeral port (the bound
    /// address is available from [`Server::local_addr`]).
    pub addr: String,
    /// Additional Unix-socket listen path (Unix targets only).
    pub unix_socket: Option<String>,
    /// Worker threads; 0 = a conservative default of 2.
    pub workers: usize,
    /// Artifact-store directory for prepared designs and job manifests;
    /// `None` disables the on-disk store (the in-memory warm cache
    /// still applies).
    pub store_dir: Option<String>,
    /// Graceful-shutdown drain deadline in milliseconds: how long
    /// in-flight jobs get to finish before their cancel tokens trip.
    pub drain_ms: u64,
    /// Optional HTTP listen address for Prometheus scraping. When set,
    /// a minimal HTTP/1.1 listener answers `GET /metrics` with the text
    /// exposition of the registry (the bound address is available from
    /// [`Server::metrics_local_addr`]). `None` disables the endpoint;
    /// [`Request::Scrape`] over the framed protocol always works.
    ///
    /// [`Request::Scrape`]: crate::protocol::Request::Scrape
    pub metrics_addr: Option<String>,
    /// Flight-recorder frame interval in milliseconds (0 = the probe
    /// default of one frame per second).
    pub flight_interval_ms: u64,
    /// Flight-recorder ring capacity in frames (0 = the probe default
    /// of 600, ten minutes at the default interval).
    pub flight_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            unix_socket: None,
            workers: 0,
            store_dir: None,
            drain_ms: 30_000,
            metrics_addr: None,
            flight_interval_ms: 0,
            flight_capacity: 0,
        }
    }
}

/// State shared by listeners, connection threads and workers.
pub(crate) struct Shared {
    workers: usize,
    per_job_parallelism: usize,
    drain_ms: u64,
    queue: JobQueue,
    table: JobTable,
    flows: FlowCache,
    store: Option<Mutex<Store>>,
    next_id: AtomicU64,
    /// Stop accepting connections and submissions.
    stop: AtomicBool,
    /// On shutdown: `true` = drain in-flight jobs, `false` = cancel.
    drain: AtomicBool,
    /// Workers have exited; readers should hang up.
    done: AtomicBool,
    /// Jobs currently executing.
    active: AtomicUsize,
    /// Streamer threads serving `Watch` subscriptions, joined at
    /// shutdown. Each exits on `done` or when its connection dies.
    watchers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("workers", &self.workers)
            .field("stop", &self.stop.load(Ordering::Relaxed))
            .field("done", &self.done.load(Ordering::Relaxed))
            .finish()
    }
}

impl Shared {
    fn begin_shutdown(&self, drain: bool) {
        self.drain.store(drain, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::triggered()
    }
}

/// A clonable remote control for a running [`Server`] — lets tests and
/// embedding code request shutdown without a connection.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests shutdown: `drain` finishes in-flight jobs (up to the
    /// drain deadline), `!drain` cancels them at the next sample
    /// boundary. Returns immediately; [`Server::run`] unblocks once the
    /// shutdown completes.
    pub fn shutdown(&self, drain: bool) {
        self.shared.begin_shutdown(drain);
    }

    /// Whether the server has fully stopped (workers joined, state
    /// flushed).
    pub fn is_finished(&self) -> bool {
        self.shared.done.load(Ordering::SeqCst)
    }
}

/// A bound-but-not-yet-running daemon.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    tcp: TcpListener,
    addr: SocketAddr,
    #[cfg(unix)]
    unix: Option<std::os::unix::net::UnixListener>,
    unix_path: Option<String>,
    metrics: Option<TcpListener>,
    metrics_addr: Option<SocketAddr>,
    flight: strober_probe::FlightConfig,
}

impl Server {
    /// Binds the listeners and builds the shared state.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a listener cannot be bound. A broken
    /// store directory is not fatal — the server runs storeless.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let tcp = TcpListener::bind(&config.addr)?;
        tcp.set_nonblocking(true)?;
        let addr = tcp.local_addr()?;
        #[cfg(unix)]
        let unix = match &config.unix_socket {
            Some(path) => {
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(path);
                let l = std::os::unix::net::UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let store = config
            .store_dir
            .as_ref()
            .and_then(|dir| match Store::open(dir) {
                Ok(store) => Some(Mutex::new(store)),
                Err(e) => {
                    strober_probe::warn!(
                        "cannot open artifact store at `{dir}`: {e}; running storeless"
                    );
                    None
                }
            });
        let workers = if config.workers == 0 {
            2
        } else {
            config.workers
        };
        // Each job replays on its own worker; split the machine's
        // threads between concurrent jobs instead of oversubscribing.
        let per_job_parallelism = (strober::StroberFlow::default_parallelism() / workers).max(1);
        let metrics = match &config.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = match &metrics {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let flight_defaults = strober_probe::FlightConfig::default();
        let flight = strober_probe::FlightConfig {
            interval_ms: if config.flight_interval_ms == 0 {
                flight_defaults.interval_ms
            } else {
                config.flight_interval_ms
            },
            capacity: if config.flight_capacity == 0 {
                flight_defaults.capacity
            } else {
                config.flight_capacity
            },
        };
        Ok(Server {
            shared: Arc::new(Shared {
                workers,
                per_job_parallelism,
                drain_ms: config.drain_ms,
                queue: JobQueue::new(),
                table: JobTable::default(),
                flows: FlowCache::default(),
                store,
                next_id: AtomicU64::new(1),
                stop: AtomicBool::new(false),
                drain: AtomicBool::new(true),
                done: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                watchers: Mutex::new(Vec::new()),
            }),
            tcp,
            addr,
            #[cfg(unix)]
            unix,
            unix_path: config.unix_socket,
            metrics,
            metrics_addr,
            flight,
        })
    }

    /// The bound TCP address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus HTTP address, when
    /// [`ServerConfig::metrics_addr`] was set (resolves ephemeral
    /// ports).
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A remote control for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Runs the daemon until shutdown completes: accepts connections,
    /// schedules jobs, then drains or cancels and flushes.
    ///
    /// # Errors
    ///
    /// Currently infallible after [`Server::bind`]; the signature leaves
    /// room for listener failures to surface.
    pub fn run(self) -> io::Result<()> {
        signal::install();
        strober_probe::enable();
        // Bounds registration is a no-op while the recorder is disabled,
        // so it must come after `enable` to take effect.
        strober_probe::histogram_with_bounds(
            "strober.server.job_latency_ms",
            &[10.0, 100.0, 1_000.0, 10_000.0, 60_000.0, 600_000.0],
        );
        strober_probe::histogram_with_bounds(
            "strober.server.queue_wait_ms",
            &[1.0, 10.0, 100.0, 1_000.0, 10_000.0, 60_000.0],
        );
        let flight = strober_probe::start_flight_recorder(self.flight);
        let shared = self.shared;

        let worker_handles: Vec<_> = (0..shared.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("strober-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker")
            })
            .collect();

        let metrics_handle = self.metrics.map(|listener| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("strober-metrics-http".to_owned())
                .spawn(move || accept_metrics_http(&shared, &listener))
                .expect("spawn metrics listener")
        });
        if let Some(addr) = self.metrics_addr {
            strober_probe::info!("prometheus exposition on http://{addr}/metrics");
        }

        let mut conn_handles = Vec::new();
        #[cfg(unix)]
        let unix_handle = self.unix.map(|listener| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("strober-accept-unix".to_owned())
                .spawn(move || accept_unix(&shared, &listener))
                .expect("spawn unix acceptor")
        });

        strober_probe::info!(
            "strober-serve listening on {} ({} workers)",
            self.addr,
            shared.workers
        );
        while !shared.stopping() {
            match self.tcp.accept() {
                Ok((stream, peer)) => {
                    let shared = shared.clone();
                    let handle = std::thread::Builder::new()
                        .name("strober-conn".to_owned())
                        .spawn(move || {
                            let _ = serve_tcp_conn(&shared, stream, peer);
                        })
                        .expect("spawn connection");
                    conn_handles.push(handle);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) => {
                    strober_probe::warn!("accept failed: {e}");
                    std::thread::sleep(POLL);
                }
            }
        }

        // ---- graceful shutdown -----------------------------------------
        shared.stop.store(true, Ordering::SeqCst);
        let drain = shared.drain.load(Ordering::SeqCst);
        strober_probe::info!(
            "shutting down ({})",
            if drain {
                "draining in-flight jobs"
            } else {
                "cancelling in-flight jobs"
            }
        );
        for id in shared.queue.close(drain) {
            if let Some(job) = shared.table.get(id) {
                finish_job(&job, Err(Failure::Cancelled));
            }
        }
        if !drain {
            for job in shared.table.open_jobs() {
                job.cancel.cancel();
            }
        }
        // Deadline guard: if draining takes too long, trip every open
        // job's token so the workers come home.
        let deadline = Instant::now() + Duration::from_millis(shared.drain_ms);
        let guard = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("strober-drain-guard".to_owned())
                .spawn(move || {
                    while Instant::now() < deadline && !shared.done.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    if !shared.done.load(Ordering::SeqCst) {
                        for job in shared.table.open_jobs() {
                            job.cancel.cancel();
                        }
                    }
                })
                .expect("spawn drain guard")
        };
        for handle in worker_handles {
            let _ = handle.join();
        }
        shared.done.store(true, Ordering::SeqCst);
        let _ = guard.join();
        #[cfg(unix)]
        if let Some(handle) = unix_handle {
            let _ = handle.join();
        }
        if let Some(handle) = metrics_handle {
            let _ = handle.join();
        }
        for handle in conn_handles {
            let _ = handle.join();
        }
        for handle in lock(&shared.watchers).drain(..).collect::<Vec<_>>() {
            let _ = handle.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }

        // Flush what the probe recorder captured over the daemon's life.
        let events = strober_probe::take_events();
        let flight_frames = flight.stop();
        if let Some(store) = &shared.store {
            let store = lock(store);
            let trace = store.root().join("server-trace.json");
            if std::fs::write(&trace, strober_probe::chrome_trace_json(&events)).is_ok() {
                strober_probe::info!("server trace written to {}", trace.display());
            }
            let metrics = store.root().join("server-metrics.json");
            let snap = strober_probe::snapshot();
            let _ = std::fs::write(
                &metrics,
                serde_json::to_string_pretty(&snap).expect("metrics serialize"),
            );
            let flight_path = store.root().join("server-flight.json");
            let _ = std::fs::write(
                &flight_path,
                serde_json::to_string_pretty(&flight_frames).expect("flight serialize"),
            );
        }
        strober_probe::info!("server metrics at exit:\n{}", strober_probe::snapshot());
        Ok(())
    }
}

/// One worker: pull, execute, publish, repeat until the queue closes.
fn worker_loop(shared: &Arc<Shared>, index: usize) {
    let worker_labels = strober_probe::Labels::new().worker(&index.to_string());
    // Publish the idle gauge up front so every worker has a series from
    // startup — `strober top` shows the full pool, not just workers that
    // have already run a job.
    strober_probe::gauge_set_labeled("strober.server.worker_busy", &worker_labels, 0.0);
    while let Some(id) = shared.queue.pop() {
        let Some(job) = shared.table.get(id) else {
            continue;
        };
        let started = Instant::now();
        *lock(&job.phase) = JobPhase::Running { started };
        let queue_wait_ms = job.queue_wait_ms();
        strober_probe::histogram_record("strober.server.queue_wait_ms", queue_wait_ms);
        job.publish(Event::Started {
            job: job.id,
            queue_wait_ms,
        });
        let busy = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
        strober_probe::gauge_set("strober.server.workers_busy", busy as f64);
        strober_probe::gauge_set_labeled("strober.server.worker_busy", &worker_labels, 1.0);
        // A panicking job fails alone: the worker, its gauges and the
        // job's labeled series are restored as for any failed job.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            jobs::run_job(
                &job,
                &shared.flows,
                shared.store.as_ref(),
                shared.per_job_parallelism,
            )
        }))
        .unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string payload".to_owned());
            Err(Failure::Error(WireError::new(
                ErrorKind::Internal,
                format!("job panicked: {message}"),
            )))
        });
        let busy = shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
        strober_probe::gauge_set("strober.server.workers_busy", busy as f64);
        strober_probe::gauge_set_labeled("strober.server.worker_busy", &worker_labels, 0.0);
        strober_probe::histogram_record(
            "strober.server.job_latency_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        finish_job(&job, result);
    }
}

/// Moves a job to its terminal phase, tells the followers, and retires
/// the job's labeled series from the registry (its manifest already
/// captured them), so watch streams and scrapes only carry live jobs
/// and registry cardinality stays bounded by concurrency, not history.
fn finish_job(job: &JobEntry, result: Result<crate::protocol::JobResult, Failure>) {
    let waited = job.waited();
    match result {
        Ok(res) => {
            *lock(&job.phase) = JobPhase::Done { waited };
            strober_probe::counter_add("strober.server.jobs_completed", 1);
            job.publish(Event::Done {
                job: job.id,
                result: res,
            });
        }
        Err(Failure::Cancelled) => {
            *lock(&job.phase) = JobPhase::Cancelled { waited };
            strober_probe::counter_add("strober.server.jobs_cancelled", 1);
            job.publish(Event::Cancelled { job: job.id });
        }
        Err(Failure::Error(e)) => {
            *lock(&job.phase) = JobPhase::Failed { waited };
            strober_probe::counter_add("strober.server.jobs_failed", 1);
            strober_probe::warn!("job {} failed: {e}", job.id);
            job.publish(Event::Failed {
                job: job.id,
                error: e,
            });
        }
    }
    strober_probe::remove_series_with_label("job", &job.id.to_string());
}

fn serve_tcp_conn(
    shared: &Arc<Shared>,
    stream: std::net::TcpStream,
    peer: SocketAddr,
) -> Result<(), FrameError> {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| FrameError::Io(e.to_string()))?;
    let _ = stream.set_nodelay(true);
    let writer = stream
        .try_clone()
        .map_err(|e| FrameError::Io(e.to_string()))?;
    serve_conn(shared, stream, Box::new(writer), peer.to_string());
    Ok(())
}

#[cfg(unix)]
fn accept_unix(shared: &Arc<Shared>, listener: &std::os::unix::net::UnixListener) {
    let mut handles = Vec::new();
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name("strober-conn-unix".to_owned())
                    .spawn(move || {
                        if stream
                            .set_read_timeout(Some(Duration::from_millis(100)))
                            .is_err()
                        {
                            return;
                        }
                        let Ok(writer) = stream.try_clone() else {
                            return;
                        };
                        serve_conn(&shared, stream, Box::new(writer), "unix".to_owned());
                    })
                    .expect("spawn unix connection");
                handles.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
}

/// Drives one connection: reads frames until the peer hangs up or the
/// server finishes. A malformed-but-well-framed payload produces a
/// typed `Protocol` error and the connection keeps going; a broken
/// stream (truncation, oversized header, I/O failure) hangs up after a
/// best-effort error frame.
fn serve_conn(
    shared: &Arc<Shared>,
    mut reader: impl Read,
    writer: Box<dyn std::io::Write + Send>,
    peer: String,
) {
    let writer = Arc::new(ConnWriter::new(writer));
    let mut client_name = peer;
    loop {
        let keep_waiting = || !shared.done.load(Ordering::SeqCst);
        match read_frame_bytes_while(&mut reader, keep_waiting) {
            Ok(None) | Err(FrameError::Closed) => break,
            Ok(Some(bytes)) => match decode::<Request>(&bytes) {
                Ok(req) => handle_request(shared, &writer, &mut client_name, req),
                Err(e) => writer.send(&ServerMsg::Response(Response::Error {
                    error: WireError::new(ErrorKind::Protocol, e.to_string()),
                })),
            },
            Err(e) => {
                writer.send(&ServerMsg::Response(Response::Error {
                    error: WireError::new(ErrorKind::Protocol, e.to_string()),
                }));
                break;
            }
        }
    }
}

fn handle_request(
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter>,
    client_name: &mut String,
    req: Request,
) {
    let respond = |r: Response| writer.send(&ServerMsg::Response(r));
    match req {
        Request::Hello { client } => {
            *client_name = client;
            respond(Response::Hello {
                server: format!("strober-serve/{}", env!("CARGO_PKG_VERSION")),
                protocol: PROTOCOL_VERSION,
                workers: shared.workers,
            });
        }
        Request::Submit {
            spec,
            priority,
            follow,
        } => {
            if shared.stopping() {
                return respond(Response::Error {
                    error: WireError::new(ErrorKind::Shutdown, "server is shutting down"),
                });
            }
            if let Err(e) = jobs::validate(&spec) {
                return respond(Response::Error { error: e });
            }
            let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
            let job = Arc::new(JobEntry::new(id, spec, priority, client_name.clone()));
            if follow {
                job.subscribe(writer.clone());
            }
            shared.table.insert(job);
            if !shared.queue.push(id, priority) {
                return respond(Response::Error {
                    error: WireError::new(ErrorKind::Shutdown, "server is shutting down"),
                });
            }
            strober_probe::counter_add("strober.server.jobs_accepted", 1);
            respond(Response::Submitted { job: id });
        }
        Request::Jobs => respond(Response::Jobs {
            jobs: shared.table.summaries(),
        }),
        Request::Status { job } => match shared.table.get(job) {
            Some(entry) => respond(Response::Status {
                job: entry.summary(),
            }),
            None => respond(Response::Error {
                error: WireError::new(ErrorKind::UnknownJob, format!("no job {job}")),
            }),
        },
        Request::Cancel { job } => match shared.table.get(job) {
            Some(entry) => {
                if shared.queue.remove(job) {
                    finish_job(&entry, Err(Failure::Cancelled));
                    respond(Response::Cancelled {
                        job,
                        state: JobState::Cancelled,
                    });
                } else {
                    let state = entry.state();
                    if state == JobState::Running {
                        entry.cancel.cancel();
                    }
                    respond(Response::Cancelled { job, state });
                }
            }
            None => respond(Response::Error {
                error: WireError::new(ErrorKind::UnknownJob, format!("no job {job}")),
            }),
        },
        Request::Metrics => respond(Response::Metrics {
            metrics: strober_probe::snapshot(),
        }),
        Request::Watch { interval_ms } => {
            let interval_ms = interval_ms.clamp(50, 60_000);
            respond(Response::Watching { interval_ms });
            let handle = {
                let shared2 = shared.clone();
                let writer = writer.clone();
                std::thread::Builder::new()
                    .name("strober-watch".to_owned())
                    .spawn(move || watch_loop(&shared2, &writer, interval_ms))
                    .expect("spawn watch streamer")
            };
            lock(&shared.watchers).push(handle);
        }
        Request::Scrape => respond(Response::Scrape {
            text: strober_probe::prometheus_text(&strober_probe::snapshot()),
        }),
        Request::Shutdown { drain } => {
            shared.begin_shutdown(drain);
            respond(Response::ShuttingDown { drain });
        }
        Request::Ping => respond(Response::Pong),
    }
}

/// Streams incremental [`WatchFrame`]s over one subscribed connection
/// until the connection dies or the server finishes. Frame 0 is a full
/// snapshot (`reset`); every later tick diffs the registry against the
/// previous tick and ships only changed entries plus retired names, so
/// steady-state frames are near-empty heartbeats.
fn watch_loop(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, interval_ms: u64) {
    let interval = Duration::from_millis(interval_ms);
    let mut prev = strober_probe::MetricsSnapshot::default();
    let mut seq = 0u64;
    loop {
        let cur = strober_probe::snapshot();
        let frame = WatchFrame {
            seq,
            at_ms: strober_probe::now_ms(),
            reset: seq == 0,
            removed: if seq == 0 {
                Vec::new()
            } else {
                cur.removed_since(&prev)
            },
            metrics: if seq == 0 {
                cur.clone()
            } else {
                cur.delta_from(&prev)
            },
        };
        writer.send(&ServerMsg::Watch(frame));
        prev = cur;
        seq += 1;
        // Sleep in POLL-sized slices so shutdown and hangup are noticed
        // promptly even at long intervals.
        let deadline = Instant::now() + interval;
        loop {
            if shared.done.load(Ordering::SeqCst) || !writer.is_alive() {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep(POLL.min(deadline - now));
        }
    }
}

/// Accepts Prometheus scrapes on the dedicated HTTP listener. Each
/// connection gets one request answered and is closed — the exposition
/// endpoint serves scrapers, not browsers holding keep-alive sockets.
fn accept_metrics_http(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = answer_metrics_http(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Answers one HTTP/1.1 request: `GET /metrics` gets the text
/// exposition, anything else a 404. The request line is all we parse;
/// headers are read until the blank line and ignored.
fn answer_metrics_http(mut stream: std::net::TcpStream) -> io::Result<()> {
    use std::io::{BufRead, BufReader, Write};
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header.trim().is_empty() {
            break;
        }
    }
    let target = request_line.split_whitespace().nth(1).unwrap_or("");
    let response = if target == "/metrics" || target.starts_with("/metrics?") {
        let body = strober_probe::prometheus_text(&strober_probe::snapshot());
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            strober_probe::PROMETHEUS_CONTENT_TYPE,
            body.len(),
            body
        )
    } else {
        let body = "not found; try /metrics\n";
        format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    };
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EstimateSpec, FuzzSpec, JobResult, JobSpec, Priority};

    #[test]
    fn binding_port_zero_yields_an_ephemeral_port() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert!(!server.handle().is_finished());
    }

    #[test]
    fn handle_shutdown_unblocks_run() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        handle.shutdown(true);
        join.join().unwrap().unwrap();
        assert!(handle.is_finished());
    }

    #[cfg(unix)]
    #[test]
    fn clients_reach_the_unix_socket() {
        let path = std::env::temp_dir().join(format!("strober-unix-{}.sock", std::process::id()));
        let server = Server::bind(ServerConfig {
            unix_socket: Some(path.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        })
        .unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let mut client = crate::Client::connect_unix(&path).unwrap();
        assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
        handle.shutdown(false);
        join.join().unwrap().unwrap();
        assert!(!path.exists(), "the socket file is removed at shutdown");
    }

    /// Submits `spec` as `client` and follows it to its end.
    fn run_as(addr: SocketAddr, client: &str, spec: JobSpec) -> (u64, Result<JobResult, String>) {
        // A worker that died with its job would leave the follower
        // waiting forever: bound the wait instead.
        let stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let reader = Box::new(stream.try_clone().unwrap());
        let mut conn = crate::Client::from_parts(reader, Box::new(stream));
        conn.hello(client).unwrap();
        let submit = Request::Submit {
            spec,
            priority: Priority::Normal,
            follow: true,
        };
        let Response::Submitted { job } = conn.request(&submit).unwrap() else {
            panic!("submission refused");
        };
        (job, conn.wait_result(job, |_| {}))
    }

    #[test]
    fn a_panicking_job_fails_alone_and_its_worker_serves_the_next() {
        let dir = std::env::temp_dir().join(format!("strober-panic-store-{}", std::process::id()));
        let server = Server::bind(ServerConfig {
            workers: 1,
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        })
        .unwrap();
        let (addr, handle, shared) = (server.local_addr(), server.handle(), server.shared.clone());
        let join = std::thread::spawn(move || server.run());

        // The job panics holding the store and flow-cache locks.
        let (failed, outcome) =
            run_as(addr, jobs::PANIC_CLIENT, JobSpec::Fuzz(FuzzSpec::default()));
        let error = outcome.unwrap_err();
        assert!(
            error.contains("Internal: job panicked: injected fault"),
            "{error}"
        );
        assert_eq!(shared.table.get(failed).unwrap().state(), JobState::Failed);
        assert_eq!(shared.active.load(Ordering::SeqCst), 0);
        // The series retire just after the terminal event goes out.
        let label = format!("job=\"{failed}\"");
        let labeled = |snapshot: &strober_probe::MetricsSnapshot| {
            snapshot.counters.iter().any(|c| c.name.contains(&label))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut snapshot = strober_probe::snapshot();
        while labeled(&snapshot) && Instant::now() < deadline {
            std::thread::sleep(POLL);
            snapshot = strober_probe::snapshot();
        }
        assert!(
            !labeled(&snapshot),
            "the failed job's labeled series are retired"
        );
        let busy = snapshot.gauges.iter().find(|g| {
            g.name.starts_with("strober.server.worker_busy{") && g.name.contains("\"0\"")
        });
        assert_eq!(busy.map(|g| g.value), Some(0.0), "worker 0 is idle again");
        assert!(shared.store.as_ref().unwrap().is_poisoned());

        // The same (only) worker serves the next job, an estimate that
        // goes through both locks the panic poisoned.
        let spec = EstimateSpec {
            core: "rok-tiny".to_owned(),
            workload: "vvadd".to_owned(),
            samples: 2,
            min_samples: 2,
            replay_length: 16,
            hub_engine: "interp".to_owned(),
            ..EstimateSpec::default()
        };
        let (_, outcome) = run_as(addr, "after-the-fault", JobSpec::Estimate(spec));
        let Ok(JobResult::Estimate(estimate)) = outcome else {
            panic!("the next job must succeed: {outcome:?}");
        };
        assert!(estimate.core_power_mw > 0.0);

        handle.shutdown(true);
        join.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
