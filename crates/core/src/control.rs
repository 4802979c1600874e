//! Cooperative run control: cancellation tokens and progress reporting.
//!
//! Long flow stages — the sampled fast simulation and the gate-level
//! replay — are divided into natural work quanta (sample windows, replay
//! batches). A [`RunControl`] lets a caller observe those quanta as they
//! complete and stop the run between them: the estimation server checks a
//! per-job [`CancelToken`] at every boundary and streams [`Progress`]
//! callbacks to the submitting client, while the one-shot CLI runs with
//! [`RunControl::default`] (never cancelled, no progress) at zero cost.
//!
//! Cancellation is *cooperative*: a cancelled run finishes its current
//! window or batch, then returns [`StroberError::Cancelled`]
//! deterministically — no partial state is observable.
//!
//! [`StroberError::Cancelled`]: crate::StroberError::Cancelled

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shareable cancellation flag.
///
/// Cloning is cheap (one `Arc` bump) and every clone observes the same
/// flag, so a server can hand one clone to the worker running a job and
/// keep another to trip from a `cancel` request.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// One progress observation from a controlled run, reported at a work
/// quantum boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Progress {
    /// The sampled fast simulation advanced (reported every
    /// [`RunControl::progress_window_stride`] windows and at completion).
    SimWindows {
        /// Replay windows executed so far.
        windows: u64,
        /// Target cycles executed so far.
        target_cycles: u64,
    },
    /// Gate-level replay completed another batch.
    ReplayBatches {
        /// Batches finished so far (across all workers).
        done: u64,
        /// Total batches in this replay. An adaptive run replays at
        /// every checkpoint and once more at the end; each replay counts
        /// from 1 to its own total.
        total: u64,
    },
    /// The adaptive stopping rule evaluated the running estimate at a
    /// checkpoint — `strober top` and `watch` render these as live
    /// convergence.
    IntervalUpdate {
        /// Samples contributing to the estimate so far.
        samples: u64,
        /// Running mean power, mW.
        mean_mw: f64,
        /// Confidence-interval half width, mW.
        half_width_mw: f64,
        /// Relative error bound (half width / mean); infinite while it
        /// cannot be computed.
        relative_error: f64,
    },
}

/// Caller-provided hooks threaded through a controlled run.
///
/// The default control never cancels and reports nothing — exactly the
/// uncontrolled behaviour, with one relaxed atomic load per quantum as
/// the only overhead.
#[derive(Clone, Copy, Default)]
pub struct RunControl<'a> {
    /// Checked at every sample-window and replay-batch boundary; when
    /// tripped the run stops with [`crate::StroberError::Cancelled`].
    pub cancel: Option<&'a CancelToken>,
    /// Invoked with [`Progress`] observations. Must be `Sync`: replay
    /// workers report from their own threads.
    pub progress: Option<&'a (dyn Fn(Progress) + Sync)>,
    /// Simulation windows between `SimWindows` reports (0 = default
    /// stride of 4096). Replay batches always report each batch.
    pub progress_window_stride: u64,
    /// Dimensional labels for the run's throughput metrics. When set,
    /// the flow records `strober.core.sim_cycles_per_sec` and
    /// `strober.core.replay_samples_per_sec` both globally and as
    /// labeled series (the estimation server passes its job/design/
    /// worker labels here so live telemetry can attribute throughput).
    pub labels: Option<&'a strober_probe::Labels>,
}

impl std::fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.map(|_| "Fn(Progress)"))
            .field("progress_window_stride", &self.progress_window_stride)
            .field("labels", &self.labels)
            .finish()
    }
}

impl<'a> RunControl<'a> {
    /// A control that only carries a cancellation token.
    pub fn cancellable(token: &'a CancelToken) -> Self {
        RunControl {
            cancel: Some(token),
            ..RunControl::default()
        }
    }

    /// Whether the token (if any) has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Reports a progress observation to the hook, if one is installed.
    pub fn report(&self, progress: Progress) {
        if let Some(hook) = self.progress {
            hook(progress);
        }
    }

    /// The effective window stride for `SimWindows` reports.
    pub fn window_stride(&self) -> u64 {
        if self.progress_window_stride == 0 {
            4096
        } else {
            self.progress_window_stride
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn default_control_is_inert() {
        let ctl = RunControl::default();
        assert!(!ctl.is_cancelled());
        ctl.report(Progress::SimWindows {
            windows: 1,
            target_cycles: 16,
        });
        assert_eq!(ctl.window_stride(), 4096);
    }

    #[test]
    fn progress_hook_observes_reports() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let hook = |p: Progress| seen.lock().unwrap().push(p);
        let token = CancelToken::new();
        let ctl = RunControl {
            cancel: Some(&token),
            progress: Some(&hook),
            progress_window_stride: 2,
            labels: None,
        };
        ctl.report(Progress::ReplayBatches { done: 1, total: 3 });
        assert_eq!(ctl.window_stride(), 2);
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            &[Progress::ReplayBatches { done: 1, total: 3 }]
        );
    }
}
