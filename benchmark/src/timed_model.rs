//! A host-model wrapper that attributes per-cycle host time without
//! touching the library.
//!
//! `ZynqHost::step_target` is `model.tick(io)` followed by
//! `Simulator::step`. The hub settles lazily: the model's input writes
//! mark it dirty and its *first output read* runs the whole
//! combinational tape, so the time inside `tick` is hub settle plus the
//! model's own work, and what is left of the cycle is the clock edge.
//!
//! Two systematic samples split that up at a cost of about 2 % of the
//! traced repetition (reading the clock around every one of millions of
//! sub-microsecond ticks would cost several times that):
//!
//! * one tick in [`TICK_SAMPLE_PERIOD`] is timed, and the mean scaled to
//!   all ticks;
//! * one tick in [`SETTLE_SAMPLE_PERIOD`] is preceded by a timed read of
//!   a target output. The hub is dirty after the previous clock edge, so
//!   that read is exactly one extra settle. Settling is a pure function
//!   of inputs and state, and the model's own writes dirty the hub
//!   again, so results are bit-identical (see the transparency test).
//!
//! Both periods are prime so they do not lock onto a loop of the
//! workload, and every sample has the clock's own read-out time — found
//! by timing empty intervals — subtracted.

use std::time::{Duration, Instant};
use strober_platform::{HostModel, OutputView, TargetOutput};

/// One tick in this many is timed.
pub const TICK_SAMPLE_PERIOD: u64 = 13;
/// One tick in this many carries a timed extra settle instead.
pub const SETTLE_SAMPLE_PERIOD: u64 = 67;

/// Sampled host time of a [`TimedModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Ticks serviced (one per target cycle).
    pub ticks: u64,
    /// Ticks timed.
    pub tick_samples: u64,
    /// Host time inside the timed `tick` calls: the hub settle the
    /// model's first output read triggers, plus the model's own work.
    pub tick_time: Duration,
    /// Extra settles timed.
    pub settle_samples: u64,
    /// Host time of those extra settles — time the instrumentation
    /// added to the run.
    pub settle_time: Duration,
    /// What timing an empty interval reads; subtracted from every
    /// sample.
    pub clock_bias: Duration,
}

impl TickStats {
    fn mean_s(&self, total: Duration, samples: u64) -> f64 {
        if samples == 0 {
            return 0.0;
        }
        (total.as_secs_f64() / samples as f64 - self.clock_bias.as_secs_f64()).max(0.0)
    }

    /// Mean host seconds inside one `tick` (hub settle + model).
    pub fn tick_mean_s(&self) -> f64 {
        self.mean_s(self.tick_time, self.tick_samples)
    }

    /// Mean host seconds of one hub settle.
    pub fn settle_mean_s(&self) -> f64 {
        self.mean_s(self.settle_time, self.settle_samples)
    }
}

/// The median reading of an empty timed interval.
fn clock_bias() -> Duration {
    let mut readings: Vec<Duration> = (0..255)
        .map(|_| {
            let t = Instant::now();
            t.elapsed()
        })
        .collect();
    readings.sort();
    readings[readings.len() / 2]
}

/// Wraps a [`HostModel`], sampling the host time spent inside `tick`
/// and the hub's settle cost.
#[derive(Debug)]
pub struct TimedModel<'m, M: HostModel> {
    inner: &'m mut M,
    probe_output: &'static str,
    probe: Option<TargetOutput>,
    stats: TickStats,
}

impl<'m, M: HostModel> TimedModel<'m, M> {
    /// Wraps `inner`. `probe_output` names any output of the target; it
    /// is read (and the value discarded) to force the sampled settles.
    pub fn new(inner: &'m mut M, probe_output: &'static str) -> Self {
        TimedModel {
            inner,
            probe_output,
            probe: None,
            stats: TickStats {
                clock_bias: clock_bias(),
                ..TickStats::default()
            },
        }
    }

    /// The accumulated timings.
    pub fn stats(&self) -> TickStats {
        self.stats
    }
}

impl<M: HostModel> HostModel for TimedModel<'_, M> {
    fn tick(&mut self, cycle: u64, io: &mut OutputView<'_>) {
        let n = self.stats.ticks;
        self.stats.ticks += 1;
        if n.is_multiple_of(SETTLE_SAMPLE_PERIOD) {
            let port = *self
                .probe
                .get_or_insert_with(|| io.output(self.probe_output));
            let t = Instant::now();
            std::hint::black_box(io.read(port));
            self.stats.settle_time += t.elapsed();
            self.stats.settle_samples += 1;
            // This tick's own settle now runs on a warm value slab, so
            // it is not a fair tick sample.
            self.inner.tick(cycle, io);
        } else if n.is_multiple_of(TICK_SAMPLE_PERIOD) {
            let t = Instant::now();
            self.inner.tick(cycle, io);
            self.stats.tick_time += t.elapsed();
            self.stats.tick_samples += 1;
        } else {
            self.inner.tick(cycle, io);
        }
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober::{StroberConfig, StroberFlow};
    use strober_cores::{build_core, CoreConfig};
    use strober_dram::{DramConfig, DramModel};
    use strober_isa::{assemble, programs};

    #[test]
    fn timed_model_is_transparent() {
        let design = build_core(&CoreConfig::rok_tiny());
        let image = assemble(&programs::vvadd(48)).unwrap().words;
        let config = StroberConfig {
            replay_length: 64,
            sample_size: 6,
            ..StroberConfig::default()
        };
        let flow = StroberFlow::new(&design, config).unwrap();
        let fresh = || {
            let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
            dram.load(&image, 0);
            dram
        };

        let mut plain = fresh();
        let bare = flow.run_sampled(&mut plain, 2_000_000).unwrap();
        assert!(plain.exit_code().is_some(), "workload halts");

        let mut wrapped = fresh();
        let mut timed = TimedModel::new(&mut wrapped, "tohost");
        let run = flow.run_sampled(&mut timed, 2_000_000).unwrap();
        let stats = timed.stats();

        assert_eq!(run.stats, bare.stats, "PlatformStats diverged");
        assert_eq!(run.snapshots, bare.snapshots, "snapshots diverged");
        assert_eq!((run.windows, run.records), (bare.windows, bare.records));
        assert_eq!(wrapped.instret(), plain.instret());
        assert_eq!(wrapped.counters(), plain.counters());

        assert_eq!(stats.ticks, run.target_cycles);
        let settles = run.target_cycles.div_ceil(SETTLE_SAMPLE_PERIOD);
        let both = run
            .target_cycles
            .div_ceil(SETTLE_SAMPLE_PERIOD * TICK_SAMPLE_PERIOD);
        assert_eq!(stats.settle_samples, settles);
        assert_eq!(
            stats.tick_samples,
            run.target_cycles.div_ceil(TICK_SAMPLE_PERIOD) - both
        );
        assert!(stats.tick_time > Duration::ZERO && stats.settle_time > Duration::ZERO);
    }
}
