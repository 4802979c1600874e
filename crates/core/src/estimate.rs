//! Run results and the statistical energy estimate.

use std::collections::BTreeMap;
use std::time::Duration;
use strober_fame::FameSnapshot;
use strober_platform::PlatformStats;
use strober_power::PowerReport;
use strober_sampling::{Confidence, ConfidenceInterval, SampleStats, StatsError};

/// Why a sampled run stopped simulating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopReason {
    /// The host model reported workload completion.
    WorkloadDone,
    /// The cycle budget (`max_cycles`) was exhausted first.
    MaxCycles,
    /// The adaptive stopping rule converged at one of its checkpoints,
    /// before the workload ended: the estimate covers the executed
    /// prefix — not the workload — at the requested relative error.
    Converged {
        /// The relative error bound of the sample the run ended with —
        /// the same bits the estimate's interval reports, `≤ target`.
        achieved: f64,
        /// The requested target ε.
        target: f64,
    },
}

impl StopReason {
    /// Whether the run was ended by the adaptive stopping rule.
    pub fn is_converged(self) -> bool {
        matches!(self, StopReason::Converged { .. })
    }

    /// A stable lower-case identifier (`workload-done`, `max-cycles`,
    /// `converged`) for manifests and wire formats.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::WorkloadDone => "workload-done",
            StopReason::MaxCycles => "max-cycles",
            StopReason::Converged { .. } => "converged",
        }
    }
}

/// The product of one sampled fast-simulation run.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// The replayable snapshots selected by reservoir sampling.
    pub snapshots: Vec<FameSnapshot>,
    /// Total target cycles executed.
    pub target_cycles: u64,
    /// Number of disjoint replay windows in the execution (the population
    /// size `N/L` for the confidence interval).
    pub windows: u64,
    /// Snapshot record operations performed (Table III's "Record
    /// Counts").
    pub records: u64,
    /// Platform cost-model statistics.
    pub stats: PlatformStats,
    /// Why the simulation stopped.
    pub stop: StopReason,
    /// Wall clock the run spent in gate-level replay — the checkpoint
    /// replays of an adaptive run plus the replay of what was kept at the
    /// end. Zero from [`crate::StroberFlow::run_sampled`], which replays
    /// nothing.
    pub replay_wall: Duration,
}

/// The product of replaying one snapshot on gate-level simulation.
///
/// Equality is exact: a replay's result does not depend on how many
/// lanes it shared a pass with, and equals the naive reference replay's
/// (`strober-fuzz`), properties the differential test suite leans on.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// The target cycle the snapshot was captured at.
    pub cycle: u64,
    /// Power over the measurement window.
    pub power: PowerReport,
    /// Output-trace values checked against the replay (all matched, or
    /// replay would have failed).
    pub outputs_checked: u64,
}

/// The workload-level energy estimate (§III-A applied to replay power
/// measurements).
#[derive(Debug, Clone)]
pub struct EnergyEstimate {
    interval: ConfidenceInterval,
    per_region_mw: BTreeMap<String, f64>,
    sample_size: usize,
    population: usize,
    target_cycles: u64,
    freq_hz: f64,
}

impl EnergyEstimate {
    /// Builds the estimate from per-snapshot total powers.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::SampleTooSmall`] with fewer than two replay
    /// results (no variance estimate) and
    /// [`StatsError::InvalidParameter`] for a confidence level outside
    /// `(0, 1)` — both previously process-aborting panics.
    pub fn from_results(
        results: &[ReplayResult],
        windows: u64,
        target_cycles: u64,
        freq_hz: f64,
        confidence: Confidence,
    ) -> Result<Self, StatsError> {
        confidence.validate()?;
        let powers: Vec<f64> = results.iter().map(|r| r.power.total_mw()).collect();
        let stats = SampleStats::from_measurements(&powers)?;
        let interval = stats.confidence_interval(windows as usize, confidence);

        let mut per_region_mw = BTreeMap::new();
        for r in results {
            for (region, b) in r.power.by_region() {
                *per_region_mw.entry(region.clone()).or_insert(0.0) += b.total_mw();
            }
        }
        for v in per_region_mw.values_mut() {
            *v /= results.len() as f64;
        }

        Ok(EnergyEstimate {
            interval,
            per_region_mw,
            sample_size: results.len(),
            population: windows as usize,
            target_cycles,
            freq_hz,
        })
    }

    /// The estimated average power in mW.
    pub fn mean_power_mw(&self) -> f64 {
        self.interval.mean()
    }

    /// The confidence interval on average power.
    pub fn interval(&self) -> &ConfidenceInterval {
        &self.interval
    }

    /// Mean power attributed to one component, mW.
    pub fn region_mw(&self, region: &str) -> f64 {
        self.per_region_mw.get(region).copied().unwrap_or(0.0)
    }

    /// The full per-component mean breakdown.
    pub fn per_region_mw(&self) -> &BTreeMap<String, f64> {
        &self.per_region_mw
    }

    /// Number of snapshots replayed.
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// The population size (replay windows in the execution).
    pub fn population(&self) -> usize {
        self.population
    }

    /// Total estimated energy for the run, in millijoules:
    /// `P̄ · cycles / f`.
    pub fn total_energy_mj(&self) -> f64 {
        self.mean_power_mw() * self.target_cycles as f64 / self.freq_hz / 1e3
    }
}

impl std::fmt::Display for EnergyEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "average power: {} (n={} of {} windows)",
            self.interval, self.sample_size, self.population
        )?;
        for (region, mw) in &self.per_region_mw {
            writeln!(f, "  {region:<24} {mw:>9.3} mW")?;
        }
        Ok(())
    }
}
