//! Statistical sampling machinery for sample-based energy simulation.
//!
//! This crate implements §III-A of the Strober paper (ISCA 2016): population
//! and sample statistics (eqs. 1–5), sampling variance (eq. 6), normal-theory
//! confidence intervals (eq. 7), the minimum-sample-size rule (eq. 8), and
//! reservoir sampling (Vitter's Algorithm R) used to select replayable RTL
//! snapshots uniformly at random from an execution whose length is unknown
//! a priori.
//!
//! # Examples
//!
//! Estimate a population mean from a sample and attach a 99% confidence
//! interval:
//!
//! ```
//! use strober_sampling::{SampleStats, Confidence};
//!
//! let measurements = [12.1, 11.8, 12.5, 12.0, 11.9, 12.2, 12.4, 11.7,
//!                     12.3, 12.0, 11.9, 12.1, 12.2, 12.0, 11.8, 12.3,
//!                     12.1, 12.0, 11.9, 12.2, 12.4, 12.0, 11.8, 12.1,
//!                     12.3, 11.9, 12.0, 12.2, 12.1, 12.0];
//! let stats = SampleStats::from_measurements(&measurements).unwrap();
//! let interval = stats.confidence_interval(1_000_000, Confidence::C99);
//! assert!(interval.contains(stats.mean()));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod error;
mod model;
mod normal;
mod reservoir;
mod stats;
mod stop;

pub use error::StatsError;
pub use model::{expected_record_count, paper_record_count_model, RecordCountSim};
pub use normal::{inverse_normal_cdf, normal_cdf, z_quantile};
pub use reservoir::{Reservoir, ReservoirEvent};
pub use stats::{Confidence, ConfidenceInterval, PopulationStats, SampleStats};
pub use stop::{StopDecision, StoppingRule, CHECKPOINT_GROWTH};
