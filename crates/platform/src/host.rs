//! The host driver loop and its cost model.

use std::collections::HashMap;
use strober_fame::{FameResult, FameSnapshot, HubLayout, SnapshotController};
use strober_rtl::{Design, NodeId, PortId};
use strober_sim::{SimError, Simulator};

/// Host-side models of the target's environment (main memory, I/O
/// devices), serviced once per target cycle — the software half of the
/// paper's Zynq mapping.
pub trait HostModel {
    /// Services one target cycle: read the target's outputs, update model
    /// state (e.g. the DRAM timing model), and drive the target's inputs
    /// for this cycle.
    ///
    /// Outputs read through [`OutputView::get`] reflect the input values
    /// most recently set; targets with registered I/O (all bundled cores)
    /// make the read/write order irrelevant.
    fn tick(&mut self, cycle: u64, io: &mut OutputView<'_>);

    /// Whether the workload has finished (stops [`ZynqHost::run`]).
    fn is_done(&self) -> bool {
        false
    }
}

/// A pre-resolved handle to a target output, obtained from
/// [`OutputView::output`]. Lets host models skip the name hash on every
/// cycle of the hot driver loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetOutput(NodeId);

/// A pre-resolved handle to a target input, obtained from
/// [`OutputView::input`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetInput(PortId);

/// The host model's window onto the target's ports.
#[derive(Debug)]
pub struct OutputView<'a> {
    sim: &'a mut Simulator,
    out_map: &'a HashMap<String, NodeId>,
    in_map: &'a HashMap<String, PortId>,
}

impl OutputView<'_> {
    /// Reads a target output.
    ///
    /// # Panics
    ///
    /// Panics on an unknown output name — a host-model programming error.
    pub fn get(&mut self, name: &str) -> u64 {
        let node = *self
            .out_map
            .get(name)
            .unwrap_or_else(|| panic!("host model read unknown target output `{name}`"));
        self.sim.peek(node)
    }

    /// Drives a target input for this cycle.
    ///
    /// # Panics
    ///
    /// Panics on an unknown input name — a host-model programming error.
    pub fn set(&mut self, name: &str, value: u64) {
        let port = *self
            .in_map
            .get(name)
            .unwrap_or_else(|| panic!("host model drove unknown target input `{name}`"));
        self.sim.poke(port, value);
    }

    /// Resolves a target output name once; pair with
    /// [`read`](OutputView::read) in per-cycle loops.
    ///
    /// # Panics
    ///
    /// Panics on an unknown output name — a host-model programming error.
    pub fn output(&self, name: &str) -> TargetOutput {
        TargetOutput(
            *self
                .out_map
                .get(name)
                .unwrap_or_else(|| panic!("host model resolved unknown target output `{name}`")),
        )
    }

    /// Resolves a target input name once; pair with
    /// [`write`](OutputView::write) in per-cycle loops.
    ///
    /// # Panics
    ///
    /// Panics on an unknown input name — a host-model programming error.
    pub fn input(&self, name: &str) -> TargetInput {
        TargetInput(
            *self
                .in_map
                .get(name)
                .unwrap_or_else(|| panic!("host model resolved unknown target input `{name}`")),
        )
    }

    /// Reads a target output through a pre-resolved handle (no hashing).
    pub fn read(&mut self, port: TargetOutput) -> u64 {
        self.sim.peek(port.0)
    }

    /// Drives a target input through a pre-resolved handle (no hashing).
    pub fn write(&mut self, port: TargetInput, value: u64) {
        self.sim.poke(port.0, value);
    }
}

/// Which settle engine drives the hub simulator.
///
/// Selected with `--hub-engine` on `estimate`/`submit` and threaded
/// through [`PlatformConfig::hub_engine`]. All variants are bit-identical
/// — they differ only in how the combinational settle is evaluated (see
/// DESIGN.md §16's which-engine-when table).
///
/// Who compiles: a `strober` session (`StroberFlow`) resolves the choice
/// once, on `prepare_jit` or its first run, and hands this layer hub
/// simulators with the native engine already attached. A bare
/// [`ZynqHost`] or `Simulator` built by hand is a throwaway as far as
/// this layer can tell, so under `Auto` it never spawns a compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum HubEngine {
    /// The fastest correct engine available: native code compiled from
    /// the tape when the session can get it (artifact store, dylib cache,
    /// or one `rustc` run, ~0.2 s once per core configuration per
    /// machine), the interpreted tape walk when it cannot — no `rustc`
    /// on `PATH`, a failed compile — which is not an error and is not
    /// counted as a fallback. At this layer: keep what the session
    /// attached.
    #[default]
    Auto,
    /// Force the interpreted tape walk, detaching any native engine: the
    /// reference the native engine is held bit-identical to.
    Interp,
    /// Native code, asked for by name: the same ladder as `Auto`, but
    /// ending up on the tape walk (no `rustc` on `PATH`, a failed
    /// compile) is a logged warning counted by `strober.jit.fallback`,
    /// and a bare host compiles into the temp cache by itself.
    Jit,
}

impl HubEngine {
    /// The wire/CLI name (`auto`, `interp`, `jit`).
    pub fn name(self) -> &'static str {
        match self {
            HubEngine::Auto => "auto",
            HubEngine::Interp => "interp",
            HubEngine::Jit => "jit",
        }
    }

    /// Parses a wire/CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "auto" => Some(HubEngine::Auto),
            "interp" => Some(HubEngine::Interp),
            "jit" => Some(HubEngine::Jit),
            _ => None,
        }
    }
}

impl std::fmt::Display for HubEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cost-model parameters for the simulated platform, plus the switch
/// that picks how the hub simulator is settled.
///
/// Defaults reproduce the paper's measured environment: a ~50 MHz fabric
/// clock, a host synchronisation stall every 256 target cycles costing a
/// host round trip (which yields the ~3.9 MHz "without sampling" rate of
/// Table III), and 1.3 s of host readout latency per snapshot record.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PlatformConfig {
    /// Raw FPGA fabric clock in Hz.
    pub raw_clock_hz: f64,
    /// Target cycles between host synchronisations (I/O devices are
    /// host-mapped, §V-B).
    pub sync_period: u64,
    /// Fabric cycles lost per host synchronisation (one host round trip).
    pub sync_penalty_cycles: u64,
    /// Fixed host-side seconds per snapshot record (the paper's measured
    /// 1.3 s per replayable RTL snapshot readout).
    pub record_fixed_seconds: f64,
    /// Which settle engine drives the hub (default [`HubEngine::Auto`]:
    /// native when the session can get it). The CLI `--hub-engine` flag
    /// sets this.
    pub hub_engine: HubEngine,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            raw_clock_hz: 50.0e6,
            sync_period: 256,
            sync_penalty_cycles: 3020,
            record_fixed_seconds: 1.3,
            hub_engine: HubEngine::Auto,
        }
    }
}

/// Aggregate statistics from one host session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformStats {
    /// Target cycles executed (the `fame/cycle` counter).
    pub target_cycles: u64,
    /// Hub cycles spent advancing the target.
    pub hub_cycles: u64,
    /// Hub cycles spent in snapshot capture (scan + trace readout).
    pub scan_overhead_cycles: u64,
    /// Host synchronisations performed.
    pub syncs: u64,
    /// Snapshot records taken.
    pub records: u64,
    /// Modelled wall-clock seconds on the reference platform.
    pub modeled_seconds: f64,
    /// Modelled effective simulation rate in Hz (target cycles per
    /// modelled second).
    pub effective_hz: f64,
}

/// The simulated Zynq host: drives a FAME1 hub, services target I/O
/// through a [`HostModel`], captures snapshots, and maintains the §IV-E
/// cost model.
///
/// # Examples
///
/// ```
/// use strober_dsl::Ctx;
/// use strober_rtl::Width;
/// use strober_fame::{transform, FameConfig};
/// use strober_platform::{HostModel, OutputView, PlatformConfig, ZynqHost};
///
/// struct FreeRun;
/// impl HostModel for FreeRun {
///     fn tick(&mut self, _cycle: u64, _io: &mut OutputView<'_>) {}
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ctx = Ctx::new("counter");
/// let count = ctx.reg("count", Width::new(8)?, 0);
/// count.set(&count.out().add_lit(1));
/// ctx.output("value", &count.out());
/// let fame = transform(&ctx.finish()?, &FameConfig::default())?;
///
/// let mut host = ZynqHost::new(&fame, PlatformConfig::default())?;
/// host.run(&mut FreeRun, 100)?;
/// assert_eq!(host.stats().target_cycles, 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ZynqHost {
    sim: Simulator,
    ctl: SnapshotController,
    layout: HubLayout,
    cfg: PlatformConfig,
    out_map: HashMap<String, NodeId>,
    in_map: HashMap<String, PortId>,
    /// Whether `sim` runs the free-run hub ([`FameResult::free_run`]),
    /// whose scan and readout logic is tied off.
    free_run: bool,
    target_cycles: u64,
    hub_cycles: u64,
    records: u64,
}

/// A hub lowering error as the host reports it.
fn hub_error(e: strober_rtl::RtlError) -> SimError {
    SimError::UnknownName {
        kind: "hub design",
        name: e.to_string(),
    }
}

/// Whether `design` keeps every node, register and memory of `hub` at the
/// same id, which is what lets one [`HubLayout`] index both.
fn same_storage(hub: &Design, design: &Design) -> bool {
    design.node_count() == hub.node_count()
        && design
            .registers()
            .map(|(_, r)| (r.name(), r.width()))
            .eq(hub.registers().map(|(_, r)| (r.name(), r.width())))
        && design
            .memories()
            .map(|(_, m)| (m.name(), m.width(), m.depth()))
            .eq(hub
                .memories()
                .map(|(_, m)| (m.name(), m.width(), m.depth())))
}

/// Applies a [`HubEngine`] choice to a hub simulator handed to a host.
///
/// `Auto` keeps what the session attached and never compiles here (the
/// session already resolved it — see [`HubEngine`]); `Interp` detaches;
/// `Jit` keeps a pre-attached native engine (the store-backed warm path)
/// and otherwise compiles into the temp cache here. A failure falls back
/// to the tape walk and counts `strober.jit.fallback`, so a missing
/// `rustc` degrades a run's speed, never its results.
fn apply_engine(sim: &mut Simulator, engine: HubEngine) {
    match engine {
        HubEngine::Auto => {}
        HubEngine::Interp => sim.detach_jit(),
        HubEngine::Jit => {
            if sim.has_jit() {
                return;
            }
            if let Err(e) = strober_jit::JitCompiler::in_temp().attach(sim) {
                strober_jit::record_fallback(&e.to_string());
            }
        }
    }
}

impl ZynqHost {
    /// Boots a host session for a transformed design on its free-run hub
    /// ([`FameResult::free_run`]): the production host. It captures
    /// snapshots with [`capture_snapshot`](ZynqHost::capture_snapshot);
    /// the scan chains and readout ports are tied off, as idle as they
    /// are on the FPGA during a free run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the hub design is malformed, or the hub's
    /// validation error via `strober-sim`.
    pub fn new(fame: &FameResult, cfg: PlatformConfig) -> Result<Self, SimError> {
        Self::with_sim(fame, cfg, Self::lower_free_run(fame)?)
    }

    /// Lowers the free-run hub ([`FameResult::free_run`]) to a simulator,
    /// as [`new`](ZynqHost::new) does; for sessions that cache the
    /// pristine simulator and boot each host
    /// [`with_sim`](ZynqHost::with_sim).
    ///
    /// # Errors
    ///
    /// As [`new`](ZynqHost::new).
    pub fn lower_free_run(fame: &FameResult) -> Result<Simulator, SimError> {
        Simulator::new(&fame.free_run().map_err(hub_error)?).map_err(hub_error)
    }

    /// Boots a host session on the full hub, `fame.hub`, with the scan
    /// chains, memory scanners and trace read port live: the host
    /// [`capture_snapshot_shifted`](ZynqHost::capture_snapshot_shifted)
    /// needs. Only tests and the fuzz oracle shift; production runs
    /// [`new`](ZynqHost::new)'s free-run hub.
    ///
    /// # Errors
    ///
    /// As [`new`](ZynqHost::new).
    pub fn full_hub(fame: &FameResult, cfg: PlatformConfig) -> Result<Self, SimError> {
        Self::with_sim(fame, cfg, Simulator::new(&fame.hub).map_err(hub_error)?)
    }

    /// Boots a host session from an already-lowered hub simulator,
    /// skipping the lowering + tape-optimization pipeline entirely. The
    /// simulator **must** have been built from `fame.hub` or from
    /// [`fame.free_run()`](FameResult::free_run) (and not yet stepped): a
    /// session that caches the pristine lowered simulator keyed by the
    /// design fingerprint — as `StroberFlow` and the estimation server do
    /// — satisfies this by construction. Which of the two it is decides
    /// whether the host can shift.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the hub's control ports cannot be driven
    /// or `sim` was built from neither design.
    pub fn with_sim(
        fame: &FameResult,
        cfg: PlatformConfig,
        mut sim: Simulator,
    ) -> Result<Self, SimError> {
        let ctl = SnapshotController::new(&fame.meta);
        // The layout is resolved against the full hub, whose readout
        // outputs name the storage behind them; the free-run design keeps
        // every register and memory at the same id.
        let layout = HubLayout::resolve(&fame.meta, &fame.hub)?;
        if !same_storage(&fame.hub, sim.design()) {
            return Err(SimError::UnknownName {
                kind: "hub design",
                name: sim.design().name().to_owned(),
            });
        }
        let free_run = sim.design().port_by_name(&fame.meta.control.fire).is_none();
        let out_map: HashMap<String, NodeId> = sim
            .design()
            .outputs()
            .iter()
            .map(|(n, id)| (n.clone(), *id))
            .collect();
        let in_map: HashMap<String, PortId> = sim
            .design()
            .ports()
            .iter()
            .map(|p| (p.name().to_owned(), p.id()))
            .collect();
        // Single choke point for the engine selection: both the flow's
        // cached-simulator path and `ZynqHost::new` funnel through here.
        apply_engine(&mut sim, cfg.hub_engine);
        if !free_run {
            ctl.set_fire(&mut sim, true)?;
        }
        Ok(ZynqHost {
            sim,
            ctl,
            layout,
            cfg,
            out_map,
            in_map,
            free_run,
            target_cycles: 0,
            hub_cycles: 0,
            records: 0,
        })
    }

    /// The settle engine actually in effect after selection and any
    /// fallback (`"tape"` or `"tape-jit"`).
    pub fn engine_name(&self) -> &'static str {
        self.sim.active_engine_name()
    }

    /// The full traced window length (`replay_length + warmup`) in cycles.
    pub fn trace_window(&self) -> u64 {
        u64::from(self.ctl.meta().replay_length + self.ctl.meta().warmup)
    }

    /// The measurement window length (`replay_length`) in cycles.
    pub fn replay_length(&self) -> u64 {
        u64::from(self.ctl.meta().replay_length)
    }

    /// Advances the target by exactly one cycle, servicing the host model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the hub does not match the metadata.
    pub fn step_target(&mut self, model: &mut dyn HostModel) -> Result<(), SimError> {
        {
            let mut io = OutputView {
                sim: &mut self.sim,
                out_map: &self.out_map,
                in_map: &self.in_map,
            };
            model.tick(self.target_cycles, &mut io);
        }
        self.sim.step();
        self.hub_cycles += 1;
        self.target_cycles += 1;
        Ok(())
    }

    /// Runs up to `max_cycles` target cycles, stopping early when the
    /// model reports completion. Returns the number of cycles run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the hub does not match the metadata.
    pub fn run(&mut self, model: &mut dyn HostModel, max_cycles: u64) -> Result<u64, SimError> {
        let mut ran = 0;
        while ran < max_cycles && !model.is_done() {
            self.step_target(model)?;
            ran += 1;
        }
        Ok(ran)
    }

    /// Captures a complete replayable snapshot: runs the `warmup` prefix
    /// (recorded in the trace so replay can recover retimed datapaths,
    /// §IV-C3), takes the state, runs the `replay_length` measurement
    /// window, takes the traces, and carries on.
    ///
    /// This is the production path. State and traces are read straight
    /// out of the hub simulator's storage; the hub cycles the scan chains
    /// and the trace readout cost on the FPGA are charged to
    /// [`PlatformStats::scan_overhead_cycles`] by arithmetic, as §IV-E
    /// charges them to the fabric clock — the host does not also spend
    /// them stepping the hub. Snapshot and statistics are bit-identical
    /// to [`capture_snapshot_shifted`](ZynqHost::capture_snapshot_shifted).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the hub does not match the metadata.
    pub fn capture_snapshot(
        &mut self,
        model: &mut dyn HostModel,
    ) -> Result<FameSnapshot, SimError> {
        let _span = strober_probe::span("strober.platform.capture_snapshot");
        let scan_before = self.ctl.overhead_cycles();
        let warmup = self.trace_window() - self.replay_length();
        for _ in 0..warmup {
            self.step_target(model)?;
        }
        let pending = self.ctl.read_state(&self.sim, &self.layout);
        for _ in 0..self.replay_length() {
            self.step_target(model)?;
        }
        let snap = self.ctl.read_traces(&self.sim, &self.layout, pending);
        self.count_record(scan_before);
        Ok(snap)
    }

    /// [`capture_snapshot`](ZynqHost::capture_snapshot) through the hub's
    /// own instrumentation: stalls the target, shifts the scan chains and
    /// memory scanners out cycle by cycle and reads the trace buffers
    /// through their read port. The reference that proves the scan-chain
    /// transform and the arithmetic the production path books; only tests
    /// and the fuzz oracle call it, on a [`full_hub`](ZynqHost::full_hub)
    /// host.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FreeRunHub`] on a free-run host, before
    /// stepping anything, and [`SimError`] if the hub does not match the
    /// metadata.
    pub fn capture_snapshot_shifted(
        &mut self,
        model: &mut dyn HostModel,
    ) -> Result<FameSnapshot, SimError> {
        if self.free_run {
            return Err(SimError::FreeRunHub {
                what: "shifted snapshot capture".to_owned(),
            });
        }
        let scan_before = self.ctl.overhead_cycles();
        let warmup = self.trace_window() - self.replay_length();
        for _ in 0..warmup {
            self.step_target(model)?;
        }
        self.ctl.set_fire(&mut self.sim, false)?;
        let pending = self.ctl.begin_snapshot(&mut self.sim)?;
        self.ctl.set_fire(&mut self.sim, true)?;
        for _ in 0..self.replay_length() {
            self.step_target(model)?;
        }
        self.ctl.set_fire(&mut self.sim, false)?;
        let snap = self.ctl.finish_snapshot(&mut self.sim, pending)?;
        self.ctl.set_fire(&mut self.sim, true)?;
        self.count_record(scan_before);
        Ok(snap)
    }

    /// Books one finished record: the session count and the probe
    /// counters, with the scan cycles the capture added since `scan_before`.
    fn count_record(&mut self, scan_before: u64) {
        self.records += 1;
        strober_probe::counter_add("strober.platform.records", 1);
        strober_probe::counter_add(
            "strober.platform.scan_cycles",
            self.ctl.overhead_cycles() - scan_before,
        );
    }

    /// Reads a target output by name (for checking workload completion,
    /// performance counters, etc.).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FreeRunHub`] for a readout output of a
    /// free-run host (a tied-off value is never returned) and
    /// [`SimError::UnknownName`] for an unknown output.
    pub fn peek_output(&mut self, name: &str) -> Result<u64, SimError> {
        match self.out_map.get(name) {
            Some(&node) => Ok(self.sim.peek(node)),
            None if self.free_run && self.ctl.meta().readout_outputs().any(|o| o == name) => {
                Err(SimError::FreeRunHub {
                    what: format!("readout output `{name}`"),
                })
            }
            None => Err(SimError::UnknownName {
                kind: "target output",
                name: name.to_owned(),
            }),
        }
    }

    /// The current target cycle.
    pub fn target_cycles(&self) -> u64 {
        self.target_cycles
    }

    /// Session statistics under the platform cost model.
    pub fn stats(&self) -> PlatformStats {
        let scan = self.ctl.overhead_cycles();
        // The host synchronises after every `sync_period`-th target cycle
        // (never, for a zero period).
        let syncs = self
            .target_cycles
            .checked_div(self.cfg.sync_period)
            .unwrap_or(0);
        let fabric_cycles = self.hub_cycles + scan + syncs * self.cfg.sync_penalty_cycles;
        let modeled_seconds = fabric_cycles as f64 / self.cfg.raw_clock_hz
            + self.records as f64 * self.cfg.record_fixed_seconds;
        PlatformStats {
            target_cycles: self.target_cycles,
            hub_cycles: self.hub_cycles,
            scan_overhead_cycles: scan,
            syncs,
            records: self.records,
            modeled_seconds,
            effective_hz: if modeled_seconds > 0.0 {
                self.target_cycles as f64 / modeled_seconds
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_dsl::Ctx;
    use strober_fame::{transform, FameConfig};
    use strober_rtl::Width;

    struct Echo {
        last: u64,
        limit: u64,
    }

    impl HostModel for Echo {
        fn tick(&mut self, cycle: u64, io: &mut OutputView<'_>) {
            self.last = io.get("value");
            io.set("x", cycle & 0xFF);
        }

        fn is_done(&self) -> bool {
            self.last >= self.limit
        }
    }

    fn fame() -> strober_fame::FameResult {
        let ctx = Ctx::new("acc");
        let x = ctx.input("x", Width::new(8).unwrap());
        let acc = ctx.reg("acc", Width::new(16).unwrap(), 0);
        acc.set(&(&acc.out() + &x.zext(Width::new(16).unwrap())));
        ctx.output("value", &acc.out());
        transform(
            &ctx.finish().unwrap(),
            &FameConfig {
                replay_length: 8,
                warmup: 0,
            },
        )
        .unwrap()
    }

    #[test]
    fn host_services_the_model_every_cycle() {
        let mut host = ZynqHost::new(&fame(), PlatformConfig::default()).unwrap();
        let mut model = Echo {
            last: 0,
            limit: u64::MAX,
        };
        host.run(&mut model, 10).unwrap();
        // acc = 0+1+...+9 = 45.
        assert_eq!(host.peek_output("value").unwrap(), 45);
        assert_eq!(host.stats().target_cycles, 10);
    }

    #[test]
    fn model_done_stops_the_run() {
        let mut host = ZynqHost::new(&fame(), PlatformConfig::default()).unwrap();
        let mut model = Echo { last: 0, limit: 45 };
        let ran = host.run(&mut model, 1_000_000).unwrap();
        assert!(ran < 1000, "run should stop shortly after acc reaches 45");
    }

    #[test]
    fn snapshot_capture_accounts_overhead_and_keeps_running() {
        let mut host = ZynqHost::new(&fame(), PlatformConfig::default()).unwrap();
        let mut model = Echo {
            last: 0,
            limit: u64::MAX,
        };
        host.run(&mut model, 20).unwrap();
        let snap = host.capture_snapshot(&mut model).unwrap();
        assert_eq!(snap.cycle, 20);
        assert_eq!(snap.trace_len(), 8);
        // The trace window advanced the target.
        assert_eq!(host.stats().target_cycles, 28);
        assert_eq!(host.stats().records, 1);
        // 1 capture strobe + 1 register shift, then 8 trace words.
        assert_eq!(host.stats().scan_overhead_cycles, 2 + 8);
        // Execution continues seamlessly.
        host.run(&mut model, 10).unwrap();
        assert_eq!(host.stats().target_cycles, 38);
    }

    #[test]
    fn direct_and_shifted_capture_agree() {
        let fame = fame();
        let session = |shifted: bool| {
            let mut host = if shifted {
                ZynqHost::full_hub(&fame, PlatformConfig::default()).unwrap()
            } else {
                ZynqHost::new(&fame, PlatformConfig::default()).unwrap()
            };
            let mut model = Echo {
                last: 0,
                limit: u64::MAX,
            };
            let mut snaps = Vec::new();
            for gap in [0, 0, 13] {
                host.run(&mut model, gap).unwrap();
                snaps.push(if shifted {
                    host.capture_snapshot_shifted(&mut model).unwrap()
                } else {
                    host.capture_snapshot(&mut model).unwrap()
                });
            }
            host.run(&mut model, 5).unwrap();
            (snaps, host.stats(), host.peek_output("value").unwrap())
        };
        assert_eq!(session(false), session(true));
    }

    #[test]
    fn a_free_run_host_refuses_to_shift_or_read_tied_off_ports() {
        let fame = fame();
        let mut host = ZynqHost::new(&fame, PlatformConfig::default()).unwrap();
        let mut model = Echo {
            last: 0,
            limit: u64::MAX,
        };
        host.run(&mut model, 3).unwrap();
        assert!(matches!(
            host.capture_snapshot_shifted(&mut model),
            Err(SimError::FreeRunHub { .. })
        ));
        assert_eq!(host.target_cycles(), 3, "the refusal stepped nothing");
        for port in fame.meta.readout_outputs() {
            assert!(
                matches!(host.peek_output(port), Err(SimError::FreeRunHub { .. })),
                "{port}"
            );
        }
        assert!(matches!(
            host.peek_output("no/such/output"),
            Err(SimError::UnknownName { .. })
        ));
        // What a free run needs is all there.
        assert_eq!(host.peek_output("fame/cycle").unwrap(), 3);
        assert_eq!(host.peek_output("value").unwrap(), 3);
        assert_eq!(host.capture_snapshot(&mut model).unwrap().cycle, 3);

        // The full hub reads the same ports.
        let mut full = ZynqHost::full_hub(&fame, PlatformConfig::default()).unwrap();
        full.run(&mut model, 3).unwrap();
        assert_eq!(full.peek_output("fame/scan_out").unwrap(), 0);
        assert!(full.capture_snapshot_shifted(&mut model).is_ok());
    }

    #[test]
    fn a_simulator_of_another_design_is_rejected() {
        let fame = fame();
        let other = Simulator::new(
            &transform(&Ctx::new("x").finish().unwrap(), &FameConfig::default())
                .unwrap()
                .hub,
        )
        .unwrap();
        assert!(ZynqHost::with_sim(&fame, PlatformConfig::default(), other).is_err());
    }

    #[test]
    fn cost_model_reproduces_the_papers_effective_rate() {
        // With the default constants, a long sampling-free run lands in the
        // paper's ~3.9 MHz band (Table III, "without sampling").
        let cfg = PlatformConfig::default();
        let cycles = 1_000_000f64;
        let syncs = cycles / cfg.sync_period as f64;
        let modeled = (cycles + syncs * cfg.sync_penalty_cycles as f64) / cfg.raw_clock_hz;
        let effective = cycles / modeled;
        assert!(
            (3.5e6..4.3e6).contains(&effective),
            "effective rate {effective} outside the Table III band"
        );
    }

    /// A native engine that carries the right signature and computes
    /// nothing: enough to observe what `apply_engine` attaches and
    /// detaches without needing `rustc`.
    #[derive(Debug)]
    struct Inert(u64);

    impl strober_sim::NativeSettle for Inert {
        unsafe fn settle(
            &self,
            _: &mut [u64],
            _: &[u64],
            _: &[u64],
            _: &[strober_sim::MemSpan],
            _: &mut [u64],
        ) {
        }

        fn signature(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn apply_engine_has_three_arms() {
        let hub = Simulator::new(&fame().hub).unwrap();
        let attached = || {
            let mut sim = hub.clone();
            let sig = sim.jit_source().sig;
            sim.attach_jit(std::sync::Arc::new(Inert(sig))).unwrap();
            sim
        };

        let mut sim = attached();
        apply_engine(&mut sim, HubEngine::Auto);
        assert!(sim.has_jit(), "auto keeps a pre-attached native engine");
        let mut sim = hub.clone();
        apply_engine(&mut sim, HubEngine::Auto);
        assert!(
            !sim.has_jit(),
            "auto on a bare host spawns no compiler: resolving it is the session's job"
        );

        let mut sim = attached();
        apply_engine(&mut sim, HubEngine::Interp);
        assert_eq!(sim.active_engine_name(), "tape", "interp detaches");

        let mut sim = attached();
        apply_engine(&mut sim, HubEngine::Jit);
        assert!(sim.has_jit(), "jit keeps a pre-attached native engine");
        let mut sim = hub.clone();
        apply_engine(&mut sim, HubEngine::Jit);
        assert_eq!(
            sim.has_jit(),
            strober_jit::rustc_version().is_some(),
            "jit attaches when it can compile, else falls back to the tape"
        );
    }

    #[test]
    fn stats_modeled_seconds_include_records() {
        let mut host = ZynqHost::new(&fame(), PlatformConfig::default()).unwrap();
        let mut model = Echo {
            last: 0,
            limit: u64::MAX,
        };
        host.run(&mut model, 100).unwrap();
        let before = host.stats().modeled_seconds;
        host.capture_snapshot(&mut model).unwrap();
        let after = host.stats().modeled_seconds;
        assert!(after > before + 1.0, "record latency must dominate");
    }
}
