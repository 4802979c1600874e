use std::error::Error;
use std::fmt;

/// Errors produced by the simulators.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A named port or output does not exist in the design.
    UnknownName {
        /// What kind of thing was looked up.
        kind: &'static str,
        /// The name that was not found.
        name: String,
    },
    /// A poked value does not fit the port's width.
    ValueTooWide {
        /// The port's name.
        port: String,
        /// The value that was poked.
        value: u64,
        /// The port's width in bits.
        width: u32,
    },
    /// A restored state does not match the design's shape.
    StateShapeMismatch {
        /// Description of the mismatch.
        what: &'static str,
    },
    /// The operation needs FAME readout logic (scan chains, memory
    /// scanners, trace read ports) that this simulator's free-run hub has
    /// tied off.
    FreeRunHub {
        /// The operation or port that was asked for.
        what: String,
    },
    /// A native settle engine was compiled from a different tape than the
    /// one it is being attached to (stale dylib, different design or
    /// optimizer revision).
    EngineSignatureMismatch {
        /// The signature the simulator's own tape generates.
        expected: u64,
        /// The signature the offered engine reports.
        actual: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownName { kind, name } => write!(f, "unknown {kind} `{name}`"),
            SimError::ValueTooWide { port, value, width } => {
                write!(f, "value {value:#x} too wide for {width}-bit port `{port}`")
            }
            SimError::StateShapeMismatch { what } => {
                write!(f, "state shape mismatch: {what}")
            }
            SimError::FreeRunHub { what } => write!(
                f,
                "{what} needs the full FAME hub, but this host simulates the \
                 free-run hub, whose scan and readout logic is tied off"
            ),
            SimError::EngineSignatureMismatch { expected, actual } => write!(
                f,
                "native settle engine signature {actual:#x} does not match \
                 this tape's generated source ({expected:#x})"
            ),
        }
    }
}

impl Error for SimError {}
