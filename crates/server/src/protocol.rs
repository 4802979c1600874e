//! The wire schema shared by server and clients.
//!
//! Everything on the wire is one of three envelopes: clients send
//! [`Request`]s, the server answers each request with exactly one
//! [`Response`], and — for followed jobs — interleaves [`Event`]s on the
//! same connection, multiplexed as [`ServerMsg`]. All types serialize
//! through the vendored `serde`/`serde_json`, so the encoding is plain
//! externally-tagged JSON with every field always present; see
//! [`crate::frame`] for how messages are framed on the socket.

use crate::catalog;
use strober::{HubEngine, StoppingRule, StroberConfig};
use strober_probe::MetricsSnapshot;
use strober_store::RunManifest;

/// Protocol revision spoken by this build. The server reports its
/// revision in [`Response::Hello`]; clients should refuse to talk to a
/// server with a different one.
///
/// Revision 2 added the telemetry surface: [`Request::Watch`],
/// [`Request::Scrape`], and the [`ServerMsg::Watch`] frame.
/// Revision 3 added a settle-thread count to [`EstimateSpec`] for a
/// multi-threaded hub engine; every field is always present on the
/// wire, so older clients cannot interoperate and the revision bumps.
/// Revision 4 added the adaptive sampling surface:
/// [`EstimateSpec::target_error`] and [`EstimateSpec::min_samples`]
/// set a confidence-driven stopping rule, and [`EstimateOutcome`]
/// reports `stop_reason` and `achieved_epsilon`.
/// Revision 5 added [`EstimateSpec::hub_engine`] (explicit hub settle
/// engine selection, including the JIT-compiled native engine) and the
/// manifest carried in [`EstimateOutcome`] moved to schema v6 with
/// codegen provenance.
/// Revision 6 removed revision 3's thread count and that engine's
/// [`EstimateSpec::hub_engine`] value together with the engine itself
/// (DESIGN.md §14). Unknown fields are ignored on decode, so a
/// revision-5 spec still parses; an engine name off the
/// `auto|interp|jit` ladder is rejected, never remapped.
/// Revision 7 moved the manifest carried in [`EstimateOutcome`] to
/// schema v7 (`hub_engine_reason`: which engine ran and why); a
/// revision-6 server's results lack the field, so the revision bumps.
/// The spec is unchanged — `hub_engine: "auto"` now resolves to native
/// code server-side.
/// Revision 8 removed the optimizer on/off switch from [`EstimateSpec`]
/// together with the unoptimized tape it selected (DESIGN.md §11); a
/// revision-7 spec carrying it still decodes and the field is ignored.
pub const PROTOCOL_VERSION: u32 = 8;

/// Scheduling class of a job. Higher classes are always dequeued before
/// lower ones; within a class jobs run in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Priority {
    /// Ahead of everything else.
    High,
    /// The default.
    Normal,
    /// Behind everything else (bulk sweeps).
    Low,
}

impl Priority {
    /// Dequeue rank: lower runs first.
    pub fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Display name (`high`, `normal`, `low`).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished successfully; the result went to followers.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// Display name (`queued`, `running`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// Parameters of an estimate (or replay) job, and the one declaration of
/// the run knobs: `strober estimate` and `strober submit` parse their
/// flags into this struct, the wire carries it, and
/// [`validate`](EstimateSpec::validate) /
/// [`session_config`](EstimateSpec::session_config) are the only bounds
/// check and the only mapping into a [`StroberConfig`]. Designs and
/// workloads are referenced by catalog name so the server rebuilds them
/// deterministically; custom programs travel inline as assembly text in
/// `asm`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EstimateSpec {
    /// Core configuration name (see [`crate::catalog::CORES`]).
    pub core: String,
    /// Bundled workload name (ignored when `asm` is set).
    pub workload: String,
    /// Inline assembly source overriding `workload`.
    pub asm: Option<String>,
    /// Reservoir sample size `n`.
    pub samples: usize,
    /// Replay window length `L` in cycles.
    pub replay_length: u32,
    /// RNG seed for reservoir sampling.
    pub seed: u64,
    /// Cycle budget for the fast simulation.
    pub max_cycles: u64,
    /// Replay worker threads; 0 = every hardware thread of the machine
    /// that runs the job.
    pub parallel: usize,
    /// Bit-parallel replay lanes per worker (1..=64).
    pub batch_lanes: usize,
    /// Hub settle engine: `auto` (native code compiled from the op tape,
    /// or the interpreted tape walk where no `rustc` is available),
    /// `interp` (always the tape walk) or `jit` (`auto`, but ending up
    /// interpreted is a counted, logged fallback). All engines are
    /// bit-identical; the outcome's manifest says which ran and why.
    pub hub_engine: String,
    /// Target relative error ε for the adaptive stopping rule; 0 disables
    /// it and the run ends with the workload. With a value in `(0, 1)`
    /// the run stops at the rule's checkpoints, replays what it placed
    /// since the last one and ends as soon as the confidence interval's
    /// relative error bound is within ε — its figures then describe the
    /// executed prefix, not the workload.
    pub target_error: f64,
    /// Minimum replayed samples before the stopping rule may fire, and
    /// the window count of its first checkpoint (ignored when
    /// `target_error` is 0).
    pub min_samples: usize,
}

impl Default for EstimateSpec {
    fn default() -> Self {
        EstimateSpec {
            core: "rok".to_owned(),
            workload: "dhrystone".to_owned(),
            asm: None,
            samples: 30,
            replay_length: 128,
            seed: 0x57_0BE5,
            max_cycles: 200_000_000,
            parallel: 0,
            batch_lanes: 64,
            hub_engine: "auto".to_owned(),
            target_error: 0.0,
            min_samples: 30,
        }
    }
}

impl EstimateSpec {
    /// The one bounds check of the run knobs, applied where a spec enters
    /// the program: by the CLI parser after the flags are read and by the
    /// server before a job costs a queue slot.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        catalog::core_config(&self.core)?;
        if self.asm.is_none() && !catalog::WORKLOADS.iter().any(|(n, _)| *n == self.workload) {
            return Err(format!("unknown workload `{}`", self.workload));
        }
        if self.samples < 2 {
            return Err("samples: need at least 2 for a variance estimate".to_owned());
        }
        if self.replay_length == 0 {
            return Err("replay_length: must be at least 1".to_owned());
        }
        if self.batch_lanes == 0 || self.batch_lanes > 64 {
            return Err("batch_lanes: must be in 1..=64".to_owned());
        }
        if self.max_cycles == 0 {
            return Err("max_cycles: must be at least 1".to_owned());
        }
        let config = self.session_config()?;
        if self.stopping_rule(&config)?.is_some() && self.min_samples > self.samples {
            return Err(format!(
                "min_samples: floor {} exceeds the sample size {} — the stopping rule could never fire",
                self.min_samples, self.samples
            ));
        }
        Ok(())
    }

    /// The one mapping from the run knobs into a session configuration,
    /// shared by `strober estimate` and the server's workers — the root
    /// of the served-vs-one-shot bit-identity guarantee.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted engines when `hub_engine` is
    /// not one of them; an unknown engine is never mapped to another.
    pub fn session_config(&self) -> Result<StroberConfig, String> {
        let hub_engine = HubEngine::from_name(&self.hub_engine).ok_or_else(|| {
            format!(
                "hub_engine: unknown engine `{}` (must be one of auto|interp|jit)",
                self.hub_engine
            )
        })?;
        let mut config = StroberConfig {
            replay_length: self.replay_length,
            sample_size: self.samples,
            seed: self.seed,
            ..StroberConfig::default()
        };
        config.platform.hub_engine = hub_engine;
        Ok(config)
    }

    /// The adaptive stopping rule this spec asks for, evaluated at the
    /// session's confidence level; `None` when `target_error` is 0
    /// (fixed-size run).
    ///
    /// # Errors
    ///
    /// Returns a message when `target_error` is outside `(0, 1)` or
    /// `min_samples` is below 2.
    pub fn stopping_rule(&self, session: &StroberConfig) -> Result<Option<StoppingRule>, String> {
        if self.target_error == 0.0 {
            return Ok(None);
        }
        StoppingRule::new(self.target_error, session.confidence, self.min_samples)
            .map(Some)
            .map_err(|e| format!("stopping rule: {e}"))
    }
}

/// Parameters of a differential-fuzz job.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FuzzSpec {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Workload length per design, in cycles.
    pub cycles: u32,
}

impl Default for FuzzSpec {
    fn default() -> Self {
        FuzzSpec {
            seed_start: 0,
            seed_end: 50,
            cycles: 48,
        }
    }
}

/// What a job should do.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum JobSpec {
    /// Full flow: sampled simulation, replay, confidence-interval
    /// estimate.
    Estimate(EstimateSpec),
    /// Sampled simulation plus gate-level replay only (no estimate):
    /// validates trace matching and reports per-sample power.
    Replay(EstimateSpec),
    /// Differential fuzz campaign across the execution engines.
    Fuzz(FuzzSpec),
}

impl JobSpec {
    /// Short kind name (`estimate`, `replay`, `fuzz`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Estimate(_) => "estimate",
            JobSpec::Replay(_) => "replay",
            JobSpec::Fuzz(_) => "fuzz",
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Request {
    /// Introduce the client (a display name for job provenance).
    Hello {
        /// Client display name.
        client: String,
    },
    /// Enqueue a job.
    Submit {
        /// What to run.
        spec: JobSpec,
        /// Scheduling class.
        priority: Priority,
        /// Stream this job's [`Event`]s back on this connection.
        follow: bool,
    },
    /// List all jobs the server knows about.
    Jobs,
    /// Query one job.
    Status {
        /// Job id.
        job: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Fetch the server's metrics snapshot.
    Metrics,
    /// Subscribe this connection to the live metric stream: the server
    /// answers [`Response::Watching`], then sends one [`ServerMsg::Watch`]
    /// frame roughly every `interval_ms` until the connection closes or
    /// the server shuts down. The first frame is a full snapshot
    /// (`reset = true`); later frames carry only changed and removed
    /// series.
    Watch {
        /// Requested frame interval in milliseconds (clamped server-side
        /// to a sane minimum).
        interval_ms: u64,
    },
    /// Fetch the metrics registry rendered as Prometheus text exposition
    /// (the same document the HTTP `/metrics` listener serves).
    Scrape,
    /// Ask the server to shut down.
    Shutdown {
        /// `true` = finish queued and running jobs first (up to the
        /// server's drain deadline); `false` = cancel everything now.
        drain: bool,
    },
    /// Liveness check.
    Ping,
}

/// One row of [`Response::Jobs`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobSummary {
    /// Job id.
    pub id: u64,
    /// Job kind (`estimate`, `replay`, `fuzz`).
    pub kind: String,
    /// Current state.
    pub state: JobState,
    /// Scheduling class.
    pub priority: Priority,
    /// Submitting client's display name.
    pub client: String,
    /// Milliseconds spent queued (final once the job starts).
    pub queue_wait_ms: f64,
}

/// Machine-readable error category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ErrorKind {
    /// The frame or request could not be understood. The connection
    /// survives; the offending frame is dropped.
    Protocol,
    /// No job with that id.
    UnknownJob,
    /// The job spec failed validation (unknown core, bad lane count...).
    BadSpec,
    /// The server is shutting down and no longer accepts work.
    Shutdown,
    /// The job (or server) hit an internal error.
    Internal,
}

/// A typed error carried in [`Response::Error`] and [`Event::Failed`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireError {
    /// Error category.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    /// Builds an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

/// The server's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Response {
    /// Answer to [`Request::Hello`].
    Hello {
        /// Server software name and version.
        server: String,
        /// [`PROTOCOL_VERSION`] of the server.
        protocol: u32,
        /// Worker threads in the pool.
        workers: usize,
    },
    /// Answer to [`Request::Submit`]: the job was enqueued.
    Submitted {
        /// Assigned job id.
        job: u64,
    },
    /// Answer to [`Request::Jobs`].
    Jobs {
        /// All jobs, oldest first.
        jobs: Vec<JobSummary>,
    },
    /// Answer to [`Request::Status`].
    Status {
        /// The queried job.
        job: JobSummary,
    },
    /// Answer to [`Request::Cancel`]. `state` is the job's state after
    /// the request: `Cancelled` if it was still queued (or already
    /// finished states are echoed back), `Running` if the cancellation
    /// was requested cooperatively and the job will stop at the next
    /// sample boundary.
    Cancelled {
        /// Job id.
        job: u64,
        /// State after the cancel request.
        state: JobState,
    },
    /// Answer to [`Request::Metrics`].
    Metrics {
        /// Point-in-time copy of the server process's probe registry
        /// (including the `strober.server.*` queue metrics).
        metrics: MetricsSnapshot,
    },
    /// Answer to [`Request::Watch`]: the subscription is live.
    Watching {
        /// The effective frame interval in milliseconds, after clamping.
        interval_ms: u64,
    },
    /// Answer to [`Request::Scrape`].
    Scrape {
        /// Prometheus text exposition (format 0.0.4) of the registry.
        text: String,
    },
    /// Answer to [`Request::Shutdown`].
    ShuttingDown {
        /// Whether in-flight jobs are drained or cancelled.
        drain: bool,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// The request failed.
    Error {
        /// Why.
        error: WireError,
    },
}

/// The numbers `strober estimate` prints, plus provenance — enough for a
/// client to reproduce the one-shot CLI output bit for bit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EstimateOutcome {
    /// Core configuration name.
    pub core: String,
    /// Workload description (name or `inline-asm`).
    pub workload: String,
    /// Target cycles executed.
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Replay windows in the execution (population `N/L`).
    pub windows: u64,
    /// Snapshot record operations performed.
    pub records: u64,
    /// Snapshots replayed.
    pub samples: usize,
    /// Mean core power in milliwatts.
    pub core_power_mw: f64,
    /// Confidence-interval half width in milliwatts.
    pub half_width_mw: f64,
    /// Confidence level of the interval (e.g. 0.99).
    pub confidence: f64,
    /// DRAM power from the counter-based model, in milliwatts.
    pub dram_power_mw: f64,
    /// Energy per instruction in nanojoules (core + DRAM).
    pub epi_nj: f64,
    /// How preparation was served: `cold` (full prepare), `store`
    /// (artifact store hit) or `warm` (in-memory flow reused).
    pub provenance: String,
    /// Order-sensitive fingerprint of every replayed sample
    /// (cycle, per-sample power, outputs checked), as hex.
    pub snapshot_fingerprint: String,
    /// Why the sampled simulation stopped (`workload-done`,
    /// `max-cycles`, or `converged` for adaptive runs).
    pub stop_reason: String,
    /// The relative error bound achieved by the adaptive stopping rule;
    /// `None` for non-adaptive runs.
    pub achieved_epsilon: Option<f64>,
    /// The run manifest (schema v7, with job, worker, sampling and
    /// codegen provenance).
    pub manifest: RunManifest,
}

/// Result of a [`JobSpec::Replay`] job.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplayOutcome {
    /// Snapshots replayed.
    pub samples: usize,
    /// Mean of the per-sample window powers, in milliwatts.
    pub mean_power_mw: f64,
    /// Output-trace values checked across all replays (every one
    /// matched, or the job would have failed).
    pub outputs_checked: u64,
    /// Order-sensitive fingerprint of every replayed sample, as hex.
    pub snapshot_fingerprint: String,
    /// How preparation was served (`cold` / `store` / `warm`).
    pub provenance: String,
}

/// Result of a [`JobSpec::Fuzz`] job.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FuzzJobOutcome {
    /// Designs fully checked.
    pub designs: u64,
    /// Whether the oracles diverged.
    pub diverged: bool,
    /// Seed of the first divergence, if any.
    pub failure_seed: Option<u64>,
    /// Whether the campaign was cut short by cancellation.
    pub cancelled: bool,
}

/// The payload of [`Event::Done`].
// Wire messages are transient (one per frame, serialized immediately), so
// the estimate outcome's size inside the enum is irrelevant; boxing it
// would only complicate every construction and match site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum JobResult {
    /// From an estimate job.
    Estimate(EstimateOutcome),
    /// From a replay job.
    Replay(ReplayOutcome),
    /// From a fuzz job.
    Fuzz(FuzzJobOutcome),
}

/// A streamed progress message for a followed job.
#[allow(clippy::large_enum_variant)] // transient wire message; see JobResult
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Event {
    /// A worker picked the job up.
    Started {
        /// Job id.
        job: u64,
        /// Milliseconds the job waited in the queue.
        queue_wait_ms: f64,
    },
    /// A stage of the flow finished.
    Stage {
        /// Job id.
        job: u64,
        /// Stage name: `prepare`, `sim`, `replay`, `estimate`, in that
        /// order for every estimate job (a replay job has no `estimate`).
        /// `sim` and `replay` are reported together, when the last
        /// replay ends.
        stage: String,
        /// Wall-clock milliseconds the stage took.
        millis: f64,
    },
    /// Periodic progress within a phase. `total` is 0 when the end is
    /// not known in advance (fast-simulation windows).
    Progress {
        /// Job id.
        job: u64,
        /// Phase name (`sim`, `replay`, `fuzz`).
        phase: String,
        /// Units completed (windows, batches, designs).
        done: u64,
        /// Total units, or 0 if unknown.
        total: u64,
    },
    /// Free-form progress line.
    Log {
        /// Job id.
        job: u64,
        /// Message text.
        message: String,
    },
    /// The job finished successfully. Terminal.
    Done {
        /// Job id.
        job: u64,
        /// The result payload.
        result: JobResult,
    },
    /// The job failed. Terminal.
    Failed {
        /// Job id.
        job: u64,
        /// Why.
        error: WireError,
    },
    /// The job was cancelled. Terminal.
    Cancelled {
        /// Job id.
        job: u64,
    },
}

impl Event {
    /// The job this event is about.
    pub fn job(&self) -> u64 {
        match *self {
            Event::Started { job, .. }
            | Event::Stage { job, .. }
            | Event::Progress { job, .. }
            | Event::Log { job, .. }
            | Event::Done { job, .. }
            | Event::Failed { job, .. }
            | Event::Cancelled { job } => job,
        }
    }
}

/// One frame of a [`Request::Watch`] subscription: an incremental
/// metrics update. A frame with `reset = true` carries the complete
/// registry; every other frame carries only the series that changed
/// since the previous frame, plus the names of series that disappeared
/// (e.g. a finished job's labeled gauges). Applying frames in `seq`
/// order with [`strober_probe::MetricsSnapshot::merge`] reconstructs the
/// registry exactly; a gap in `seq` means frames were lost and the
/// client should resubscribe.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WatchFrame {
    /// Frame number within this subscription, starting at 0.
    pub seq: u64,
    /// Milliseconds since the server's probe epoch.
    pub at_ms: u64,
    /// Whether `metrics` is a full snapshot (first frame) rather than a
    /// delta.
    pub reset: bool,
    /// Series present in the previous frame's registry but gone now.
    pub removed: Vec<String>,
    /// New and changed series (or everything, when `reset`).
    pub metrics: MetricsSnapshot,
}

/// Any server-to-client message: responses, job events and watch frames
/// share one connection, so every frame the server writes is tagged with
/// which of the three it carries.
#[allow(clippy::large_enum_variant)] // transient wire message; see JobResult
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ServerMsg {
    /// Answer to a request.
    Response(Response),
    /// Streamed job progress.
    Event(Event),
    /// Streamed metrics for a [`Request::Watch`] subscription.
    Watch(WatchFrame),
}
