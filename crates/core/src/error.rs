use std::error::Error;
use std::fmt;

/// Errors from the end-to-end Strober flow.
#[derive(Debug)]
#[non_exhaustive]
pub enum StroberError {
    /// The target design or a generated hub failed validation.
    Rtl(strober_rtl::RtlError),
    /// Synthesis failed.
    Synth(strober_synth::SynthError),
    /// Formal matching / equivalence checking failed.
    Formal(strober_formal::FormalError),
    /// A simulator-level problem (bad port name, state shape).
    Sim(strober_sim::SimError),
    /// A gate-level simulator problem during replay.
    GateSim(strober_gatesim::GateSimError),
    /// A statistics problem: an invalid confidence level in the
    /// configuration, or too few replay results to estimate a variance.
    Stats(strober_sampling::StatsError),
    /// One bit-parallel replay batch mixed trace lengths — lanes share
    /// one instruction stream, so one cycle count.
    /// [`crate::StroberFlow::replay_all_batched`] groups snapshots by
    /// length before it batches them.
    BatchTraceLengthMismatch {
        /// Trace length of the batch's first snapshot.
        expected: usize,
        /// The first diverging trace length.
        got: usize,
        /// Lane (batch index) of the diverging snapshot.
        lane: usize,
    },
    /// A replayed output diverged from the recorded trace — the §IV-C
    /// replay self-check failed.
    ReplayMismatch {
        /// The target cycle of the diverging sample's snapshot, which
        /// names the sample inside a batch.
        cycle: u64,
        /// The output port that diverged.
        output: String,
        /// Cycle offset within the replay window.
        offset: usize,
        /// Value recorded during fast simulation.
        expected: u64,
        /// Value produced by gate-level replay.
        got: u64,
    },
    /// A snapshot referenced state the name map does not cover.
    UnmappedState {
        /// The RTL state element's name.
        name: String,
    },
    /// A snapshot's state is not shaped like the session's scan chain: a
    /// register or memory sits at another position, or a count or memory
    /// depth differs. Batched replay loads state by position, so it
    /// refuses such a snapshot instead of misloading it.
    SnapshotLayoutMismatch {
        /// The target cycle of the offending snapshot.
        cycle: u64,
        /// What differs.
        detail: String,
    },
    /// The run was stopped by its [`crate::CancelToken`] at a sample or
    /// batch boundary — cooperative cancellation, not a failure of the
    /// flow itself.
    Cancelled,
}

impl fmt::Display for StroberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StroberError::Rtl(e) => write!(f, "rtl error: {e}"),
            StroberError::Synth(e) => write!(f, "synthesis error: {e}"),
            StroberError::Formal(e) => write!(f, "formal matching error: {e}"),
            StroberError::Sim(e) => write!(f, "simulation error: {e}"),
            StroberError::GateSim(e) => write!(f, "gate-level simulation error: {e}"),
            StroberError::Stats(e) => write!(f, "statistics error: {e}"),
            StroberError::BatchTraceLengthMismatch {
                expected,
                got,
                lane,
            } => write!(
                f,
                "batched snapshots must share one trace length: lane {lane} has {got} cycles, lane 0 has {expected}"
            ),
            StroberError::ReplayMismatch {
                cycle,
                output,
                offset,
                expected,
                got,
            } => write!(
                f,
                "replay mismatch on `{output}` at window offset {offset} of the sample at cycle {cycle}: expected {expected:#x}, got {got:#x}"
            ),
            StroberError::UnmappedState { name } => {
                write!(f, "snapshot state `{name}` has no netlist mapping")
            }
            StroberError::SnapshotLayoutMismatch { cycle, detail } => write!(
                f,
                "the snapshot at cycle {cycle} does not match the scan chain: {detail}"
            ),
            StroberError::Cancelled => write!(f, "run cancelled"),
        }
    }
}

impl Error for StroberError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StroberError::Rtl(e) => Some(e),
            StroberError::Synth(e) => Some(e),
            StroberError::Formal(e) => Some(e),
            StroberError::Sim(e) => Some(e),
            StroberError::GateSim(e) => Some(e),
            StroberError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<strober_rtl::RtlError> for StroberError {
    fn from(e: strober_rtl::RtlError) -> Self {
        StroberError::Rtl(e)
    }
}

impl From<strober_synth::SynthError> for StroberError {
    fn from(e: strober_synth::SynthError) -> Self {
        StroberError::Synth(e)
    }
}

impl From<strober_formal::FormalError> for StroberError {
    fn from(e: strober_formal::FormalError) -> Self {
        StroberError::Formal(e)
    }
}

impl From<strober_sim::SimError> for StroberError {
    fn from(e: strober_sim::SimError) -> Self {
        StroberError::Sim(e)
    }
}

impl From<strober_gatesim::GateSimError> for StroberError {
    fn from(e: strober_gatesim::GateSimError) -> Self {
        StroberError::GateSim(e)
    }
}

impl From<strober_sampling::StatsError> for StroberError {
    fn from(e: strober_sampling::StatsError) -> Self {
        StroberError::Stats(e)
    }
}
