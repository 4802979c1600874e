//! Hand-rolled argument parsing (no external dependencies).

use std::fmt;
use strober_server::protocol::EstimateSpec;

/// The fully parsed command line: global options plus one subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Log filter from the global `--log-level` flag (None = default).
    pub log_level: Option<strober_probe::Level>,
    /// The subcommand.
    pub command: Command,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `strober estimate …` — the full sampled-energy flow.
    Estimate(EstimateArgs),
    /// `strober run …` — fast performance-only simulation.
    Run(RunArgs),
    /// `strober workloads` — list bundled workloads.
    Workloads,
    /// `strober export …` — write Verilog/metadata artifacts.
    Export(ExportArgs),
    /// `strober cache …` — inspect or clear the artifact store.
    Cache(CacheArgs),
    /// `strober probe report …` — summarise a recorded trace/manifest.
    Probe(ProbeArgs),
    /// `strober fuzz …` — differential fuzzing of the execution engines.
    Fuzz(FuzzArgs),
    /// `strober serve …` — run the persistent estimation server.
    Serve(ServeArgs),
    /// `strober submit …` — submit a job to a running server.
    Submit(SubmitArgs),
    /// `strober jobs …` — list a running server's jobs.
    Jobs(JobsArgs),
    /// `strober cancel …` — cancel a job on a running server.
    Cancel(CancelArgs),
    /// `strober top …` — live telemetry view of a running server.
    Top(TopArgs),
    /// `strober help` or `--help`.
    Help,
}

/// The default TCP address the server listens on and clients dial.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7207";

/// Arguments of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// TCP listen address (port 0 = ephemeral).
    pub addr: String,
    /// Additional Unix-socket listen path.
    pub unix_socket: Option<String>,
    /// Worker threads (0 = server default).
    pub workers: usize,
    /// Artifact store directory (None = default location).
    pub cache_dir: Option<String>,
    /// Disable the on-disk artifact store.
    pub no_cache: bool,
    /// Graceful-shutdown drain deadline, in milliseconds.
    pub drain_ms: u64,
    /// HTTP listen address for Prometheus `GET /metrics` scraping
    /// (None = no HTTP endpoint; the framed `Scrape` request always
    /// works).
    pub metrics_addr: Option<String>,
    /// Flight-recorder frame interval in milliseconds (0 = default).
    pub flight_interval_ms: u64,
    /// Flight-recorder ring capacity in frames (0 = default).
    pub flight_capacity: usize,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: DEFAULT_ADDR.to_owned(),
            unix_socket: None,
            workers: 0,
            cache_dir: None,
            no_cache: false,
            drain_ms: 30_000,
            metrics_addr: None,
            flight_interval_ms: 0,
            flight_capacity: 0,
        }
    }
}

/// Arguments of the `top` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct TopArgs {
    /// Server address to dial.
    pub addr: String,
    /// Refresh interval in milliseconds.
    pub interval_ms: u64,
    /// Stop after this many rendered frames (0 = run until the server
    /// goes away or the process is interrupted).
    pub frames: u64,
    /// Render plainly without ANSI cursor control (implied by
    /// `frames == 1`).
    pub plain: bool,
}

impl Default for TopArgs {
    fn default() -> Self {
        TopArgs {
            addr: DEFAULT_ADDR.to_owned(),
            interval_ms: 1_000,
            frames: 0,
            plain: false,
        }
    }
}

/// Arguments of the `submit` subcommand. The estimate/replay knobs are
/// the same [`EstimateSpec`] `strober estimate` fills; the fuzz knobs
/// mirror `strober fuzz`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Server address to dial.
    pub addr: String,
    /// Job kind: `estimate`, `replay` or `fuzz`.
    pub kind: String,
    /// Scheduling class: `high`, `normal` or `low`.
    pub priority: String,
    /// Submit and return the job id without streaming events.
    pub detach: bool,
    /// Emit the result as JSON.
    pub json: bool,
    /// The run knobs (estimate/replay). As parsed, `spec.asm` holds the
    /// `--asm` file *path*; the command reads the file and sends its text.
    pub spec: EstimateSpec,
    /// First fuzz seed (inclusive).
    pub seed_start: u64,
    /// Last fuzz seed (exclusive).
    pub seed_end: u64,
    /// Fuzz workload length per design, in cycles.
    pub cycles: u32,
}

impl Default for SubmitArgs {
    fn default() -> Self {
        SubmitArgs {
            addr: DEFAULT_ADDR.to_owned(),
            kind: "estimate".to_owned(),
            priority: "normal".to_owned(),
            detach: false,
            json: false,
            spec: EstimateSpec::default(),
            seed_start: 0,
            seed_end: 50,
            cycles: 48,
        }
    }
}

/// Arguments of the `jobs` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct JobsArgs {
    /// Server address to dial.
    pub addr: String,
}

/// Arguments of the `cancel` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct CancelArgs {
    /// Server address to dial.
    pub addr: String,
    /// Job id to cancel.
    pub job: u64,
}

/// Arguments of the `fuzz` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzArgs {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// Workload length per design, in cycles.
    pub cycles: u32,
    /// Batch lane counts to cross-check.
    pub lanes: Vec<usize>,
    /// Skip the `StroberFlow` round-trip oracle.
    pub no_flow: bool,
    /// Name of the bug to inject (`xor-as-or`), for harness self-tests.
    pub inject: Option<String>,
    /// Directory minimized reproducers are written to.
    pub corpus: String,
    /// Oracle-evaluation budget for the shrinker.
    pub shrink_evals: usize,
}

impl Default for FuzzArgs {
    fn default() -> Self {
        FuzzArgs {
            seed_start: 0,
            seed_end: 200,
            cycles: 48,
            lanes: vec![1, 7, 63, 64],
            no_flow: false,
            inject: None,
            corpus: "fuzz/corpus".to_owned(),
            shrink_evals: 2000,
        }
    }
}

/// Arguments of the `estimate` subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EstimateArgs {
    /// The run knobs, shared flag for flag with `strober submit`. As
    /// parsed, `spec.asm` holds the `--asm` file *path* and
    /// `spec.parallel == 0` means one replay worker per hardware thread.
    pub spec: EstimateSpec,
    /// Emit the result as JSON.
    pub json: bool,
    /// Artifact store directory (None = default location).
    pub cache_dir: Option<String>,
    /// Disable the artifact store entirely.
    pub no_cache: bool,
    /// Where to write the JSON run manifest (None = inside the cache dir).
    pub manifest: Option<String>,
    /// Where to write a chrome://tracing JSON trace of the run.
    pub trace_out: Option<String>,
    /// Print the metrics snapshot table after the results.
    pub metrics: bool,
}

/// Arguments of the `run` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Core configuration name.
    pub core: String,
    /// Bundled workload name.
    pub workload: String,
    /// Path to an assembly file instead of a bundled workload.
    pub asm: Option<String>,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            core: "rok".to_owned(),
            workload: "dhrystone".to_owned(),
            asm: None,
            max_cycles: 200_000_000,
        }
    }
}

/// What `strober cache` should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Print object counts, sizes and behaviour counters.
    Stats,
    /// Delete every cached artifact.
    Clear,
}

/// Arguments of the `cache` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheArgs {
    /// The action to perform.
    pub action: CacheAction,
    /// Artifact store directory (None = default location).
    pub cache_dir: Option<String>,
}

/// The artifact store location used when `--cache-dir` is not given:
/// `$STROBER_CACHE_DIR`, else `$XDG_CACHE_HOME/strober`, else
/// `$HOME/.cache/strober`, else `.strober-cache` in the working directory.
pub fn default_cache_dir() -> String {
    if let Ok(dir) = std::env::var("STROBER_CACHE_DIR") {
        return dir;
    }
    if let Ok(dir) = std::env::var("XDG_CACHE_HOME") {
        return format!("{dir}/strober");
    }
    if let Ok(home) = std::env::var("HOME") {
        return format!("{home}/.cache/strober");
    }
    ".strober-cache".to_owned()
}

/// Arguments of the `probe report` subcommand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeArgs {
    /// Chrome-trace JSON file to profile (as written by `--trace-out`).
    pub trace: Option<String>,
    /// Run manifest whose timings and metrics should be summarised.
    pub manifest: Option<String>,
}

/// Arguments of the `export` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportArgs {
    /// Core configuration name.
    pub core: String,
    /// Output directory.
    pub out: String,
}

/// A parse failure with a message for the user.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn take_value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a str>) -> Result<String, ArgError> {
    it.next()
        .map(str::to_owned)
        .ok_or_else(|| ArgError(format!("flag {flag} expects a value")))
}

/// How a shared run-knob flag lands in the [`EstimateSpec`].
#[derive(Clone, Copy)]
enum SpecSetter {
    /// A flag whose value is taken as is.
    Text(fn(&mut EstimateSpec, String)),
    /// A flag whose value is parsed; the error says what is wrong with it.
    Parsed(fn(&mut EstimateSpec, &str) -> Result<(), String>),
}

fn number<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value.parse().map_err(|_| "not a number".to_owned())
}

/// The run knobs `estimate` and `submit` share, as (spellings, setter) —
/// the only place either command parses them. Bounds live in
/// [`EstimateSpec::validate`], which both commands run once the flags
/// are read.
const SPEC_FLAGS: &[(&[&str], SpecSetter)] = {
    use SpecSetter::{Parsed, Text};
    &[
        (&["--core"], Text(|s, v| s.core = v)),
        (&["--workload"], Text(|s, v| s.workload = v)),
        (&["--asm"], Text(|s, v| s.asm = Some(v))),
        (
            &["-n", "--samples"],
            Parsed(|s, v| number(v).map(|n| s.samples = n)),
        ),
        (
            &["-L", "--replay-length"],
            Parsed(|s, v| number(v).map(|n| s.replay_length = n)),
        ),
        (&["--seed"], Parsed(|s, v| number(v).map(|n| s.seed = n))),
        (
            &["--parallel", "--jobs", "-j"],
            Parsed(|s, v| {
                s.parallel = number(v)?;
                // 0 is how the spec spells "the default"; leaving the
                // flag out asks for that, an explicit 0 is a typo.
                if s.parallel == 0 {
                    return Err("must be at least 1".to_owned());
                }
                Ok(())
            }),
        ),
        (
            &["--batch-lanes"],
            Parsed(|s, v| number(v).map(|n| s.batch_lanes = n)),
        ),
        (
            &["--max-cycles"],
            Parsed(|s, v| number(v).map(|n| s.max_cycles = n)),
        ),
        (&["--hub-engine"], Text(|s, v| s.hub_engine = v)),
        (
            &["--target-error"],
            Parsed(|s, v| number(v).map(|n| s.target_error = n)),
        ),
        (
            &["--min-samples"],
            Parsed(|s, v| number(v).map(|n| s.min_samples = n)),
        ),
    ]
};

/// Applies `flag` to `spec` if it is one of [`SPEC_FLAGS`]; `Ok(false)`
/// leaves it for the caller's own flags.
fn parse_spec_flag<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
    spec: &mut EstimateSpec,
) -> Result<bool, ArgError> {
    let Some((_, setter)) = SPEC_FLAGS.iter().find(|(names, _)| names.contains(&flag)) else {
        return Ok(false);
    };
    match *setter {
        SpecSetter::Text(set) => set(spec, take_value(flag, it)?),
        SpecSetter::Parsed(set) => {
            set(spec, &take_value(flag, it)?).map_err(|m| ArgError(format!("{flag}: {m}")))?;
        }
    }
    Ok(true)
}

/// Parses a command line (without the program name).
///
/// The global `--log-level LEVEL` flag is accepted before the
/// subcommand; everything after the subcommand belongs to it.
///
/// # Errors
///
/// Returns [`ArgError`] with a user-facing message for unknown
/// subcommands, unknown flags or malformed values.
pub fn parse(args: &[&str]) -> Result<Cli, ArgError> {
    let mut it = args.iter().copied();
    let mut log_level = None;
    let sub = loop {
        match it.next() {
            None | Some("help") | Some("--help") | Some("-h") => {
                return Ok(Cli {
                    log_level,
                    command: Command::Help,
                })
            }
            Some("--log-level") => {
                log_level = Some(
                    take_value("--log-level", &mut it)?
                        .parse::<strober_probe::Level>()
                        .map_err(|e| ArgError(e.to_string()))?,
                );
            }
            Some(s) => break s,
        }
    };
    let command = parse_command(sub, &mut it)?;
    Ok(Cli { log_level, command })
}

fn parse_command<'a>(
    sub: &str,
    mut it: &mut impl Iterator<Item = &'a str>,
) -> Result<Command, ArgError> {
    match sub {
        "workloads" => Ok(Command::Workloads),
        "estimate" => {
            let mut a = EstimateArgs::default();
            while let Some(flag) = it.next() {
                if parse_spec_flag(flag, &mut it, &mut a.spec)? {
                    continue;
                }
                match flag {
                    "--json" => a.json = true,
                    "--cache-dir" => a.cache_dir = Some(take_value(flag, &mut it)?),
                    "--no-cache" => a.no_cache = true,
                    "--manifest" => a.manifest = Some(take_value(flag, &mut it)?),
                    "--trace-out" => a.trace_out = Some(take_value(flag, &mut it)?),
                    "--metrics" => a.metrics = true,
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            a.spec.validate().map_err(ArgError)?;
            Ok(Command::Estimate(a))
        }
        "run" => {
            let mut a = RunArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--core" => a.core = take_value(flag, &mut it)?,
                    "--workload" => a.workload = take_value(flag, &mut it)?,
                    "--asm" => a.asm = Some(take_value(flag, &mut it)?),
                    "--max-cycles" => {
                        a.max_cycles = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                    }
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Run(a))
        }
        "cache" => {
            let action = match it.next() {
                Some("stats") => CacheAction::Stats,
                Some("clear") => CacheAction::Clear,
                Some(other) => {
                    return Err(ArgError(format!(
                        "unknown cache action `{other}` (expected stats or clear)"
                    )))
                }
                None => {
                    return Err(ArgError(
                        "cache expects an action: stats or clear".to_owned(),
                    ))
                }
            };
            let mut a = CacheArgs {
                action,
                cache_dir: None,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--cache-dir" => a.cache_dir = Some(take_value(flag, &mut it)?),
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Cache(a))
        }
        "probe" => {
            match it.next() {
                Some("report") => {}
                Some(other) => {
                    return Err(ArgError(format!(
                        "unknown probe action `{other}` (expected report)"
                    )))
                }
                None => return Err(ArgError("probe expects an action: report".to_owned())),
            }
            let mut a = ProbeArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--trace" => a.trace = Some(take_value(flag, &mut it)?),
                    "--manifest" => a.manifest = Some(take_value(flag, &mut it)?),
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            if a.trace.is_none() && a.manifest.is_none() {
                return Err(ArgError(
                    "probe report needs --trace FILE and/or --manifest FILE".to_owned(),
                ));
            }
            Ok(Command::Probe(a))
        }
        "export" => {
            let mut a = ExportArgs {
                core: "rok".to_owned(),
                out: "strober-export".to_owned(),
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--core" => a.core = take_value(flag, &mut it)?,
                    "--out" => a.out = take_value(flag, &mut it)?,
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Export(a))
        }
        "fuzz" => {
            let mut a = FuzzArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--seeds" => {
                        let v = take_value(flag, &mut it)?;
                        let Some((lo, hi)) = v.split_once("..") else {
                            return Err(ArgError(format!("{flag}: expected a range like 0..200")));
                        };
                        a.seed_start = lo
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                        a.seed_end = hi
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                        if a.seed_end <= a.seed_start {
                            return Err(ArgError(format!("{flag}: empty range {v}")));
                        }
                    }
                    "--cycles" => {
                        a.cycles = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                        if a.cycles == 0 {
                            return Err(ArgError(format!("{flag}: must be at least 1")));
                        }
                    }
                    "--lanes" => {
                        let v = take_value(flag, &mut it)?;
                        a.lanes = v
                            .split(',')
                            .map(|s| {
                                s.trim()
                                    .parse::<usize>()
                                    .ok()
                                    .filter(|&l| (1..=64).contains(&l))
                                    .ok_or_else(|| {
                                        ArgError(format!(
                                            "{flag}: `{s}` is not a lane count in 1..=64"
                                        ))
                                    })
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        if a.lanes.is_empty() {
                            return Err(ArgError(format!("{flag}: needs at least one lane count")));
                        }
                    }
                    "--no-flow" => a.no_flow = true,
                    "--inject" => {
                        let v = take_value(flag, &mut it)?;
                        if v != "xor-as-or" {
                            return Err(ArgError(format!(
                                "{flag}: unknown bug `{v}` (expected xor-as-or)"
                            )));
                        }
                        a.inject = Some(v);
                    }
                    "--corpus" => a.corpus = take_value(flag, &mut it)?,
                    "--shrink-evals" => {
                        a.shrink_evals = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                    }
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Fuzz(a))
        }
        "serve" => {
            let mut a = ServeArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => a.addr = take_value(flag, &mut it)?,
                    "--unix-socket" => a.unix_socket = Some(take_value(flag, &mut it)?),
                    "--workers" => {
                        a.workers = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                    }
                    "--cache-dir" => a.cache_dir = Some(take_value(flag, &mut it)?),
                    "--no-cache" => a.no_cache = true,
                    "--drain-ms" => {
                        a.drain_ms = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                    }
                    "--metrics-addr" => a.metrics_addr = Some(take_value(flag, &mut it)?),
                    "--flight-interval-ms" => {
                        a.flight_interval_ms = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                    }
                    "--flight-capacity" => {
                        a.flight_capacity = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                    }
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Serve(a))
        }
        "submit" => {
            let mut a = SubmitArgs::default();
            match it.next() {
                Some(kind @ ("estimate" | "replay" | "fuzz")) => a.kind = kind.to_owned(),
                Some(other) => {
                    return Err(ArgError(format!(
                        "unknown job kind `{other}` (expected estimate, replay or fuzz)"
                    )))
                }
                None => {
                    return Err(ArgError(
                        "submit expects a job kind: estimate, replay or fuzz".to_owned(),
                    ))
                }
            }
            while let Some(flag) = it.next() {
                if parse_spec_flag(flag, &mut it, &mut a.spec)? {
                    continue;
                }
                match flag {
                    "--addr" => a.addr = take_value(flag, &mut it)?,
                    "--priority" => {
                        let v = take_value(flag, &mut it)?;
                        if !matches!(v.as_str(), "high" | "normal" | "low") {
                            return Err(ArgError(format!(
                                "{flag}: `{v}` is not high, normal or low"
                            )));
                        }
                        a.priority = v;
                    }
                    "--detach" => a.detach = true,
                    "--json" => a.json = true,
                    "--seeds" => {
                        let v = take_value(flag, &mut it)?;
                        let Some((lo, hi)) = v.split_once("..") else {
                            return Err(ArgError(format!("{flag}: expected a range like 0..200")));
                        };
                        a.seed_start = lo
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                        a.seed_end = hi
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                        if a.seed_end <= a.seed_start {
                            return Err(ArgError(format!("{flag}: empty range {v}")));
                        }
                    }
                    "--cycles" => {
                        a.cycles = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                    }
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            if a.kind != "fuzz" {
                a.spec.validate().map_err(ArgError)?;
            }
            Ok(Command::Submit(a))
        }
        "jobs" => {
            let mut a = JobsArgs {
                addr: DEFAULT_ADDR.to_owned(),
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => a.addr = take_value(flag, &mut it)?,
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Jobs(a))
        }
        "cancel" => {
            let Some(id) = it.next() else {
                return Err(ArgError("cancel expects a job id".to_owned()));
            };
            let job = id
                .parse()
                .map_err(|_| ArgError(format!("`{id}` is not a job id")))?;
            let mut a = CancelArgs {
                addr: DEFAULT_ADDR.to_owned(),
                job,
            };
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => a.addr = take_value(flag, &mut it)?,
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Cancel(a))
        }
        "top" => {
            let mut a = TopArgs::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => a.addr = take_value(flag, &mut it)?,
                    "--interval-ms" => {
                        a.interval_ms = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                        if a.interval_ms == 0 {
                            return Err(ArgError(format!("{flag}: must be at least 1")));
                        }
                    }
                    "--frames" => {
                        a.frames = take_value(flag, &mut it)?
                            .parse()
                            .map_err(|_| ArgError(format!("{flag}: not a number")))?;
                    }
                    "--once" => a.frames = 1,
                    "--plain" => a.plain = true,
                    other => return Err(ArgError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Top(a))
        }
        other => Err(ArgError(format!(
            "unknown subcommand `{other}` (try `strober help`)"
        ))),
    }
}

/// The help text.
pub const HELP: &str = "\
strober — sample-based energy simulation for arbitrary RTL

USAGE:
  strober [--log-level error|warn|info|debug|trace] <command> …
      The global log filter defaults to info: progress and warnings
      reach stderr, debug chatter does not.

  strober estimate [--core rok|boum-1w|boum-2w] [--workload NAME | --asm FILE]
                   [-n N] [-L CYCLES] [--seed S] [--jobs P]
                   [--batch-lanes K] [--max-cycles N] [--json]
                   [--cache-dir DIR] [--no-cache] [--manifest FILE]
                   [--trace-out FILE] [--metrics]
                   [--hub-engine auto|interp|jit] [--target-error E]
                   [--min-samples M]
      Run the full flow: fast sampled simulation, gate-level replay,
      average power with a 99% confidence interval. Prepared artifacts
      (FAME hub, netlist, name map) are cached content-addressed under
      the cache dir, so repeated runs over the same design start warm;
      a JSON run manifest with per-stage wall-clock timings (prepare,
      sim, replay, estimate) and the full metrics snapshot is written
      next to the cache (or to --manifest FILE). --trace-out writes a chrome://tracing JSON
      trace of the run (open it in Perfetto or chrome://tracing);
      --metrics prints the metrics table after the results. Replay
      uses every hardware thread unless --jobs (alias --parallel)
      says otherwise, and packs up to --batch-lanes snapshots (default
      64, max 64) into the bit-lanes of each gate-level pass; set
      --batch-lanes 1 for the scalar reference replay.
      --hub-engine picks the hub simulator's settle engine; all three
      give the same bits. auto (default) runs native code: the op tape
      is lowered to Rust, compiled once with rustc (~0.2 s, the first
      run per core configuration per machine) into a ~15 KB dylib and
      attached as the settle function; the dylib is kept in the
      artifact store (cache dir, under jit/) or, with --no-cache, in
      $TMPDIR/strober-jit, keyed by tape + rustc version, so later runs
      skip rustc. Without rustc on PATH auto interprets the tape and
      says so; it is not an error. interp always walks the op tape: the
      reference. jit is auto that warns (and counts
      strober.jit.fallback) when it ends up interpreting. The output's
      `engine:` line names the engine that ran (tape-jit or tape) and
      why.
      --target-error E (in (0, 1)) enables confidence-driven adaptive
      stopping: at fixed checkpoints (--min-samples M windows, default
      30, then each 1.5x the last) the snapshots placed since the
      previous checkpoint are replayed and the run stops if the
      confidence interval's relative error bound is within E. Options
      and seed fix the window it stops at, whatever --jobs and
      --batch-lanes are. A run stopped this way did not see the rest of
      the workload: every figure it reports is the mean over target
      cycles 0..K (W windows); the workload had not halted.

  strober run      [--core NAME] [--workload NAME | --asm FILE] [--max-cycles N]
      Fast performance-only simulation (cycles, CPI, exit code).

  strober workloads
      List the bundled workloads.

  strober export   [--core NAME] [--out DIR]
      Write Verilog (RTL, netlist, FAME hub) and host metadata.

  strober cache    (stats | clear) [--cache-dir DIR]
      Inspect or empty the artifact store.

  strober probe    report [--trace FILE] [--manifest FILE]
      Summarise a recorded run: per-span profile of a --trace-out
      file and/or the stage timings and metrics of a run manifest.

  strober fuzz     [--seeds A..B] [--cycles N] [--lanes L1,L2,…]
                   [--no-flow] [--inject xor-as-or] [--corpus DIR]
                   [--shrink-evals N]
      Differential fuzzing: generate one random design per seed and
      drive it through every execution engine — naive interpreter,
      compiled tape, FAME1 hub, scalar gate-level simulation, and the
      bit-parallel batch engine at each --lanes count — plus a full
      sample→replay round trip, failing on any disagreement in
      outputs, architectural state, toggle counts or power. On a
      divergence the design is automatically minimized and a
      reproducer (seed, config, divergence report) is written to the
      corpus dir for the regression suite to replay. --inject plants
      a known bug in the synthesized netlist to self-test the
      harness; --no-flow skips the (slower) flow round trip.

  strober serve    [--addr HOST:PORT] [--unix-socket PATH] [--workers N]
                   [--cache-dir DIR] [--no-cache] [--drain-ms MS]
                   [--metrics-addr HOST:PORT] [--flight-interval-ms MS]
                   [--flight-capacity N]
      Run the persistent estimation server (default 127.0.0.1:7207).
      Prepared designs — FAME hub, synthesized netlist, lowered
      simulator, compiled gate tape — stay hot in memory for the
      daemon's lifetime, so repeat jobs against the same design skip
      preparation entirely and served results stay bit-identical to
      the one-shot flow. Jobs are scheduled by priority class on
      --workers threads; SIGINT/SIGTERM (or a client Shutdown
      request) drains in-flight jobs for up to --drain-ms before
      cancelling them, then flushes the server trace and metrics.
      --metrics-addr additionally serves Prometheus text exposition
      over HTTP at GET /metrics; the flight recorder keeps a bounded
      ring of periodic metric snapshots (--flight-interval-ms between
      frames, --flight-capacity frames) flushed to server-flight.json
      at shutdown.

  strober submit   (estimate | replay | fuzz) [--addr HOST:PORT]
                   [--priority high|normal|low] [--detach] [--json]
                   [estimate/replay: --core NAME, --workload NAME | --asm FILE,
                    -n N, -L CYCLES, --seed S, --jobs P, --batch-lanes K,
                    --max-cycles N, --hub-engine E,
                    --target-error E, --min-samples M]
                   [fuzz: --seeds A..B, --cycles N]
      Submit a job to a running server. By default the client follows
      the job, streaming progress events until the result arrives;
      --detach prints the job id and returns immediately. An --asm
      file is read locally and sent inline as assembly text. The
      estimate/replay flags are the same ones `strober estimate`
      takes, with the same bounds.

  strober jobs     [--addr HOST:PORT]
      List every job the server knows about.

  strober cancel   ID [--addr HOST:PORT]
      Cancel a queued or running job. Running jobs stop cooperatively
      at the next sample-window or replay-batch boundary.

  strober top      [--addr HOST:PORT] [--interval-ms MS] [--frames N]
                   [--once] [--plain]
      Live view of a running server, refreshed from its metric watch
      stream: queue depth, per-worker utilization, and every active
      job's phase, progress, simulation and replay throughput, hub
      engine, and prepare provenance (warm/store/cold). --once renders a single
      frame and exits (for scripts and CI); --frames N stops after N
      frames; --plain skips ANSI screen clearing.

";

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(argv: &[&str]) -> Result<EstimateArgs, ArgError> {
        let mut full = vec!["estimate"];
        full.extend_from_slice(argv);
        match parse(&full)?.command {
            Command::Estimate(a) => Ok(a),
            other => panic!("wrong command: {other:?}"),
        }
    }

    fn submit(argv: &[&str]) -> Result<SubmitArgs, ArgError> {
        let mut full = vec!["submit", "estimate"];
        full.extend_from_slice(argv);
        match parse(&full)?.command {
            Command::Submit(a) => Ok(a),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_estimate_flags() {
        let cli = parse(&[
            "estimate",
            "--core",
            "boum-2w",
            "--workload",
            "coremark",
            "-n",
            "40",
            "-L",
            "256",
            "--json",
            "--trace-out",
            "trace.json",
            "--metrics",
        ])
        .unwrap();
        assert_eq!(cli.log_level, None);
        let Command::Estimate(a) = cli.command else {
            panic!("wrong command")
        };
        assert_eq!(
            a.spec,
            EstimateSpec {
                core: "boum-2w".to_owned(),
                workload: "coremark".to_owned(),
                samples: 40,
                replay_length: 256,
                ..EstimateSpec::default()
            }
        );
        assert!(a.json);
        assert_eq!(a.trace_out.as_deref(), Some("trace.json"));
        assert!(a.metrics);
    }

    /// A legal value for each value-taking shared flag, keyed by its
    /// first spelling. A flag added to the table without one fails here.
    fn sample_value(flag: &str) -> &'static str {
        match flag {
            "--core" => "boum-2w",
            "--workload" => "vvadd",
            "--asm" => "prog.s",
            "-n" => "12",
            "-L" => "64",
            "--seed" => "7",
            "--parallel" => "3",
            "--batch-lanes" => "8",
            "--max-cycles" => "1000",
            "--hub-engine" => "jit",
            "--target-error" => "0.05",
            "--min-samples" => "4",
            other => panic!("no sample value for shared flag {other}"),
        }
    }

    #[test]
    fn every_shared_flag_parses_the_same_under_estimate_and_submit() {
        assert_eq!(estimate(&[]).unwrap().spec, EstimateSpec::default());
        assert_eq!(submit(&[]).unwrap().spec, EstimateSpec::default());
        for (names, _) in SPEC_FLAGS {
            for &name in *names {
                let argv = [name, sample_value(names[0])];
                let one_shot = estimate(&argv).unwrap().spec;
                let served = submit(&argv).unwrap().spec;
                assert_eq!(one_shot, served, "{argv:?}");
                assert_ne!(one_shot, EstimateSpec::default(), "{argv:?} set nothing");
            }
        }
    }

    #[test]
    fn shared_flag_bounds_hold_under_both_commands() {
        let cases: &[(&[&str], &str)] = &[
            (&["--core", "z80"], "unknown core"),
            (&["--workload", "doom"], "unknown workload"),
            (&["-n", "1"], "samples"),
            (&["-n", "abc"], "not a number"),
            (&["-n"], "expects a value"),
            (&["-L", "0"], "replay_length"),
            (&["--jobs", "0"], "at least 1"),
            (&["--batch-lanes", "0"], "1..=64"),
            (&["--batch-lanes", "65"], "1..=64"),
            (&["--batch-lanes", "many"], "not a number"),
            (&["--max-cycles", "0"], "max_cycles"),
            // Any name off the ladder is rejected, never remapped.
            (&["--hub-engine", "llvm"], "auto|interp|jit"),
            (&["--target-error", "1"], "between 0 and 1"),
            (&["--target-error", "1.5"], "between 0 and 1"),
            (&["--target-error", "-0.1"], "between 0 and 1"),
            (&["--target-error", "lots"], "not a number"),
            (
                &["--target-error", "0.1", "--min-samples", "1"],
                "at least 2",
            ),
            (
                &["--target-error", "0.1", "--min-samples", "31"],
                "exceeds the sample size",
            ),
        ];
        for (argv, needle) in cases {
            for err in [estimate(argv).unwrap_err(), submit(argv).unwrap_err()] {
                assert!(err.0.contains(needle), "{argv:?}: {err}");
            }
        }
    }

    #[test]
    fn the_retired_no_tape_opt_flag_is_unknown_under_both_commands() {
        let argv: &[&str] = &["--no-tape-opt"];
        for err in [estimate(argv).unwrap_err(), submit(argv).unwrap_err()] {
            assert_eq!(err.0, "unknown flag `--no-tape-opt`");
        }
    }

    #[test]
    fn global_log_level_precedes_the_subcommand() {
        let cli = parse(&["--log-level", "debug", "run"]).unwrap();
        assert_eq!(cli.log_level, Some(strober_probe::Level::Debug));
        assert!(matches!(cli.command, Command::Run(_)));
        assert!(parse(&["--log-level", "loud", "run"])
            .unwrap_err()
            .0
            .contains("unknown log level"));
        // A bare --log-level still shows help.
        let cli = parse(&["--log-level", "trace"]).unwrap();
        assert_eq!(cli.command, Command::Help);
    }

    #[test]
    fn parses_probe_report() {
        let cli = parse(&["probe", "report", "--trace", "t.json"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Probe(ProbeArgs {
                trace: Some("t.json".to_owned()),
                manifest: None,
            })
        );
        let cli = parse(&["probe", "report", "--manifest", "run.json"]).unwrap();
        let Command::Probe(a) = cli.command else {
            panic!("wrong command")
        };
        assert_eq!(a.manifest.as_deref(), Some("run.json"));
        assert!(parse(&["probe", "report"])
            .unwrap_err()
            .0
            .contains("--trace"));
        assert!(parse(&["probe", "bogus"])
            .unwrap_err()
            .0
            .contains("unknown probe action"));
        assert!(parse(&["probe"])
            .unwrap_err()
            .0
            .contains("expects an action"));
    }

    #[test]
    fn defaults_apply() {
        let Command::Run(a) = parse(&["run"]).unwrap().command else {
            panic!("wrong command")
        };
        assert_eq!(a.core, "rok");
        assert_eq!(a.workload, "dhrystone");
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&["--help"]).unwrap().command, Command::Help);
        assert_eq!(parse(&["help"]).unwrap().command, Command::Help);
    }

    #[test]
    fn parses_cache_flags() {
        let Command::Estimate(a) = parse(&[
            "estimate",
            "--cache-dir",
            "/tmp/store",
            "--manifest",
            "run.json",
            "--jobs",
            "2",
        ])
        .unwrap()
        .command
        else {
            panic!("wrong command")
        };
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/store"));
        assert_eq!(a.manifest.as_deref(), Some("run.json"));
        assert_eq!(a.spec.parallel, 2);
        assert!(!a.no_cache);

        let Command::Estimate(a) = parse(&["estimate", "--no-cache"]).unwrap().command else {
            panic!("wrong command")
        };
        assert!(a.no_cache);
    }

    #[test]
    fn parses_cache_subcommand() {
        assert_eq!(
            parse(&["cache", "stats"]).unwrap().command,
            Command::Cache(CacheArgs {
                action: CacheAction::Stats,
                cache_dir: None,
            })
        );
        assert_eq!(
            parse(&["cache", "clear", "--cache-dir", "/tmp/x"])
                .unwrap()
                .command,
            Command::Cache(CacheArgs {
                action: CacheAction::Clear,
                cache_dir: Some("/tmp/x".to_owned()),
            })
        );
        assert!(parse(&["cache"])
            .unwrap_err()
            .0
            .contains("expects an action"));
        assert!(parse(&["cache", "bogus"])
            .unwrap_err()
            .0
            .contains("unknown cache action"));
    }

    #[test]
    fn parses_fuzz_flags() {
        let Command::Fuzz(a) = parse(&["fuzz"]).unwrap().command else {
            panic!("wrong command")
        };
        assert_eq!(a, FuzzArgs::default());

        let Command::Fuzz(a) = parse(&[
            "fuzz",
            "--seeds",
            "10..20",
            "--cycles",
            "12",
            "--lanes",
            "1,64",
            "--no-flow",
            "--inject",
            "xor-as-or",
            "--corpus",
            "/tmp/corpus",
            "--shrink-evals",
            "500",
        ])
        .unwrap()
        .command
        else {
            panic!("wrong command")
        };
        assert_eq!(a.seed_start, 10);
        assert_eq!(a.seed_end, 20);
        assert_eq!(a.cycles, 12);
        assert_eq!(a.lanes, vec![1, 64]);
        assert!(a.no_flow);
        assert_eq!(a.inject.as_deref(), Some("xor-as-or"));
        assert_eq!(a.corpus, "/tmp/corpus");
        assert_eq!(a.shrink_evals, 500);
    }

    #[test]
    fn fuzz_flag_validation() {
        assert!(parse(&["fuzz", "--seeds", "7"])
            .unwrap_err()
            .0
            .contains("range"));
        assert!(parse(&["fuzz", "--seeds", "9..9"])
            .unwrap_err()
            .0
            .contains("empty range"));
        assert!(parse(&["fuzz", "--cycles", "0"])
            .unwrap_err()
            .0
            .contains("at least 1"));
        assert!(parse(&["fuzz", "--lanes", "1,65"])
            .unwrap_err()
            .0
            .contains("1..=64"));
        assert!(parse(&["fuzz", "--inject", "nop"])
            .unwrap_err()
            .0
            .contains("unknown bug"));
    }

    #[test]
    fn parses_serve_flags() {
        let Command::Serve(a) = parse(&["serve"]).unwrap().command else {
            panic!("wrong command")
        };
        assert_eq!(a, ServeArgs::default());
        assert_eq!(a.addr, DEFAULT_ADDR);

        let Command::Serve(a) = parse(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--unix-socket",
            "/tmp/strober.sock",
            "--workers",
            "4",
            "--no-cache",
            "--drain-ms",
            "5000",
        ])
        .unwrap()
        .command
        else {
            panic!("wrong command")
        };
        assert_eq!(a.addr, "0.0.0.0:9000");
        assert_eq!(a.unix_socket.as_deref(), Some("/tmp/strober.sock"));
        assert_eq!(a.workers, 4);
        assert!(a.no_cache);
        assert_eq!(a.drain_ms, 5000);
    }

    #[test]
    fn parses_submit_flags() {
        let Command::Submit(a) = parse(&["submit", "estimate"]).unwrap().command else {
            panic!("wrong command")
        };
        assert_eq!(a, SubmitArgs::default());

        let Command::Submit(a) = parse(&[
            "submit",
            "replay",
            "--core",
            "rok-tiny",
            "--workload",
            "vvadd",
            "--priority",
            "high",
            "--detach",
            "-n",
            "12",
            "--batch-lanes",
            "8",
        ])
        .unwrap()
        .command
        else {
            panic!("wrong command")
        };
        assert_eq!(a.kind, "replay");
        assert_eq!(a.priority, "high");
        assert!(a.detach);
        assert_eq!(
            a.spec,
            EstimateSpec {
                core: "rok-tiny".to_owned(),
                workload: "vvadd".to_owned(),
                samples: 12,
                batch_lanes: 8,
                ..EstimateSpec::default()
            }
        );

        let Command::Submit(a) = parse(&["submit", "fuzz", "--seeds", "5..9", "--cycles", "16"])
            .unwrap()
            .command
        else {
            panic!("wrong command")
        };
        assert_eq!(a.kind, "fuzz");
        assert_eq!((a.seed_start, a.seed_end, a.cycles), (5, 9, 16));
    }

    #[test]
    fn submit_validation() {
        assert!(parse(&["submit"]).unwrap_err().0.contains("job kind"));
        assert!(parse(&["submit", "bake"])
            .unwrap_err()
            .0
            .contains("unknown job kind"));
        assert!(parse(&["submit", "estimate", "--priority", "urgent"])
            .unwrap_err()
            .0
            .contains("not high, normal or low"));
    }

    #[test]
    fn parses_jobs_and_cancel() {
        let Command::Jobs(a) = parse(&["jobs"]).unwrap().command else {
            panic!("wrong command")
        };
        assert_eq!(a.addr, DEFAULT_ADDR);

        let Command::Cancel(a) = parse(&["cancel", "17", "--addr", "127.0.0.1:9"])
            .unwrap()
            .command
        else {
            panic!("wrong command")
        };
        assert_eq!(a.job, 17);
        assert_eq!(a.addr, "127.0.0.1:9");
        assert!(parse(&["cancel"]).unwrap_err().0.contains("job id"));
        assert!(parse(&["cancel", "soon"])
            .unwrap_err()
            .0
            .contains("not a job id"));
    }

    #[test]
    fn parses_top_flags() {
        let Command::Top(a) = parse(&["top"]).unwrap().command else {
            panic!("wrong command")
        };
        assert_eq!(a, TopArgs::default());

        let Command::Top(a) = parse(&[
            "top",
            "--addr",
            "127.0.0.1:9",
            "--interval-ms",
            "250",
            "--frames",
            "3",
            "--plain",
        ])
        .unwrap()
        .command
        else {
            panic!("wrong command")
        };
        assert_eq!(a.addr, "127.0.0.1:9");
        assert_eq!(a.interval_ms, 250);
        assert_eq!(a.frames, 3);
        assert!(a.plain);

        let Command::Top(a) = parse(&["top", "--once"]).unwrap().command else {
            panic!("wrong command")
        };
        assert_eq!(a.frames, 1);
        assert!(parse(&["top", "--interval-ms", "0"])
            .unwrap_err()
            .0
            .contains("at least 1"));
    }

    #[test]
    fn parses_serve_telemetry_flags() {
        let Command::Serve(a) = parse(&[
            "serve",
            "--metrics-addr",
            "127.0.0.1:9100",
            "--flight-interval-ms",
            "500",
            "--flight-capacity",
            "120",
        ])
        .unwrap()
        .command
        else {
            panic!("wrong command")
        };
        assert_eq!(a.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
        assert_eq!(a.flight_interval_ms, 500);
        assert_eq!(a.flight_capacity, 120);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&["bogus"]).unwrap_err().0.contains("subcommand"));
        assert!(parse(&["estimate", "--nope"])
            .unwrap_err()
            .0
            .contains("unknown flag"));
    }
}
