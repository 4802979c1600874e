//! Confidence-driven adaptive stopping for the sampled flow.
//!
//! The paper's minimum-sample-size rule (eq. 8) answers "how many samples
//! will I need?" from a pilot sample; a [`StoppingRule`] answers the dual
//! online question "do the samples I already replayed suffice?". The flow
//! asks it at [checkpoints](StoppingRule::checkpoints) — window counts
//! fixed by the rule alone, so the answer never depends on how fast
//! replay ran: once the normal-theory interval (eq. 7, with
//! finite-population correction per eq. 6) is tighter than the requested
//! relative error ε — and the sample has reached the configured minimum
//! floor — capture and replay both cease, making estimation latency
//! rather than simulated cycles the contract.

use crate::error::StatsError;
use crate::stats::{Confidence, SampleStats};

/// Ratio between consecutive [checkpoints](StoppingRule::checkpoints).
///
/// The price of a checkpoint is one replay of the reservoir slots placed
/// since the previous one — about `n·(1 − 1/g)` of a full reservoir of
/// `n` — and a run of `N` windows takes `log_g(N / min_samples)` of them,
/// so a run whose rule never fires replays roughly `n·(g − 1)/g ·
/// log_g(N/n)` snapshots more than a fixed-size run. A larger `g` checks
/// less often (stops later, costs less); at 1.5 that worst case measures
/// 1.6× the fixed-size run on rok/dhrystone (EXPERIMENTS.md, "Adaptive
/// stopping").
pub const CHECKPOINT_GROWTH: f64 = 1.5;

/// The outcome of one [`StoppingRule::evaluate`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopDecision {
    /// The interval is still wider than the target; keep sampling.
    Continue {
        /// The relative error bound of the interval so far. Infinite when
        /// it cannot be computed yet (fewer than two samples, zero mean).
        relative_error: f64,
    },
    /// The interval satisfies the target; sampling may stop.
    Converged {
        /// The achieved relative error bound, `≤` the rule's target ε.
        achieved: f64,
    },
}

impl StopDecision {
    /// Whether this decision allows sampling to stop.
    pub fn is_converged(self) -> bool {
        matches!(self, StopDecision::Converged { .. })
    }

    /// The relative error bound observed at evaluation time, regardless of
    /// which way the decision went.
    pub fn relative_error(self) -> f64 {
        match self {
            StopDecision::Continue { relative_error } => relative_error,
            StopDecision::Converged { achieved } => achieved,
        }
    }
}

/// A convergence criterion: stop once the confidence interval's relative
/// error bound drops to the target ε, but never before `min_samples`
/// measurements have been replayed.
///
/// # Examples
///
/// ```
/// use strober_sampling::{Confidence, SampleStats, StoppingRule};
///
/// let rule = StoppingRule::new(0.05, Confidence::C99, 4).unwrap();
/// // A nearly constant power stream converges as soon as the floor is met.
/// let stats = SampleStats::from_measurements(&[10.0, 10.1, 9.9, 10.0]).unwrap();
/// assert!(rule.evaluate(&stats, 100_000).is_converged());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StoppingRule {
    target_epsilon: f64,
    confidence: Confidence,
    min_samples: usize,
}

impl StoppingRule {
    /// Creates a rule targeting relative error `target_epsilon` at the
    /// given confidence level, with a floor of `min_samples` measurements.
    ///
    /// The paper's eq. 8 floors its sample-size prescription at 30, the
    /// conventional central-limit threshold; a smaller floor is accepted
    /// here (down to 2, the variance estimator's hard minimum) but leaves
    /// the normality assumption to the caller — see
    /// [`SampleStats::satisfies_clt`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `target_epsilon` is
    /// in `(0, 1)`, the confidence level validates, and `min_samples ≥ 2`.
    pub fn new(
        target_epsilon: f64,
        confidence: Confidence,
        min_samples: usize,
    ) -> Result<Self, StatsError> {
        if !(target_epsilon > 0.0 && target_epsilon < 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "target_epsilon",
                constraint: "must be strictly between 0 and 1",
            });
        }
        confidence.validate()?;
        if min_samples < 2 {
            return Err(StatsError::InvalidParameter {
                name: "min_samples",
                constraint: "must be at least 2 for a variance estimate",
            });
        }
        Ok(StoppingRule {
            target_epsilon,
            confidence,
            min_samples,
        })
    }

    /// The target relative error ε.
    pub fn target_epsilon(&self) -> f64 {
        self.target_epsilon
    }

    /// The confidence level the interval is evaluated at.
    pub fn confidence(&self) -> Confidence {
        self.confidence
    }

    /// The minimum number of replayed samples before the rule may fire.
    pub fn min_samples(&self) -> usize {
        self.min_samples
    }

    /// The window counts at which the flow may evaluate this rule: the
    /// floor itself, then each [`CHECKPOINT_GROWTH`] times the last,
    /// rounded up. The schedule depends on nothing but the rule, which is
    /// what makes the window a run stops at a function of its
    /// configuration and seed. (The flow passes over a checkpoint that
    /// lands while its reservoir still holds every window: a census meets
    /// any ε trivially.)
    pub fn checkpoints(&self) -> impl Iterator<Item = u64> {
        std::iter::successors(Some(self.min_samples as u64), |&c| {
            Some((c as f64 * CHECKPOINT_GROWTH).ceil() as u64)
        })
    }

    /// Evaluates the rule against the samples replayed so far.
    ///
    /// `population_size` is the number of disjoint replay windows the
    /// sample was drawn from *at evaluation time*; the finite-population
    /// correction (eq. 6) thus reflects the execution prefix observed so
    /// far, which is exactly the population the estimate extrapolates to
    /// if sampling stops now.
    ///
    /// Never converges while `stats.size() < min_samples`, and a
    /// converged decision always carries `achieved ≤ target ε`.
    pub fn evaluate(&self, stats: &SampleStats, population_size: usize) -> StopDecision {
        let interval = stats.confidence_interval(population_size, self.confidence);
        let relative_error = interval.relative_error_bound();
        if stats.size() >= self.min_samples && relative_error <= self.target_epsilon {
            StopDecision::Converged {
                achieved: relative_error,
            }
        } else {
            StopDecision::Continue { relative_error }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(n: usize) -> Vec<f64> {
        (0..n).map(|i| 50.0 + ((i * 13) % 17) as f64).collect()
    }

    #[test]
    fn constructor_validates_every_parameter() {
        for eps in [0.0, -0.1, 1.0, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    StoppingRule::new(eps, Confidence::C99, 30),
                    Err(StatsError::InvalidParameter {
                        name: "target_epsilon",
                        ..
                    })
                ),
                "ε = {eps} accepted"
            );
        }
        assert!(StoppingRule::new(0.05, Confidence::Level(1.5), 30).is_err());
        for floor in [0usize, 1] {
            assert!(matches!(
                StoppingRule::new(0.05, Confidence::C99, floor),
                Err(StatsError::InvalidParameter {
                    name: "min_samples",
                    ..
                })
            ));
        }
        let rule = StoppingRule::new(0.05, Confidence::C999, 30).unwrap();
        assert_eq!(rule.target_epsilon(), 0.05);
        assert_eq!(rule.confidence(), Confidence::C999);
        assert_eq!(rule.min_samples(), 30);
    }

    #[test]
    fn checkpoints_start_at_the_floor_and_grow_geometrically() {
        let rule = StoppingRule::new(0.05, Confidence::C99, 4).unwrap();
        let first: Vec<u64> = rule.checkpoints().take(8).collect();
        assert_eq!(first, [4, 6, 9, 14, 21, 32, 48, 72]);
        // Even the smallest legal floor advances: ⌈2 × 1.5⌉ = 3.
        let rule = StoppingRule::new(0.05, Confidence::C99, 2).unwrap();
        let mut last = 0;
        for c in rule.checkpoints().take(40) {
            assert!(c > last, "schedule stalled at {c}");
            last = c;
        }
    }

    #[test]
    fn never_fires_below_the_floor() {
        // A perfectly constant stream has zero variance, so the interval
        // is degenerate — still, the floor must hold.
        let rule = StoppingRule::new(0.10, Confidence::C99, 10).unwrap();
        let values = vec![42.0; 9];
        let stats = SampleStats::from_measurements(&values).unwrap();
        let d = rule.evaluate(&stats, 1_000_000);
        assert!(!d.is_converged());
        assert_eq!(d.relative_error(), 0.0);
    }

    #[test]
    fn fires_once_floor_and_target_are_both_met() {
        let rule = StoppingRule::new(0.10, Confidence::C99, 10).unwrap();
        let values = vec![42.0; 10];
        let stats = SampleStats::from_measurements(&values).unwrap();
        match rule.evaluate(&stats, 1_000_000) {
            StopDecision::Converged { achieved } => assert!(achieved <= 0.10),
            other => panic!("expected convergence, got {other:?}"),
        }
    }

    #[test]
    fn does_not_fire_while_the_interval_is_loose() {
        let rule = StoppingRule::new(0.0001, Confidence::C999, 2).unwrap();
        let stats = SampleStats::from_measurements(&noisy(40)).unwrap();
        let d = rule.evaluate(&stats, 1_000_000);
        assert!(!d.is_converged());
        assert!(d.relative_error() > 0.0001);
    }

    #[test]
    fn exhausting_the_population_always_converges_past_the_floor() {
        // n == N leaves no sampling variance (eq. 6), so any target is met.
        let rule = StoppingRule::new(0.01, Confidence::C999, 2).unwrap();
        let stats = SampleStats::from_measurements(&noisy(40)).unwrap();
        assert!(rule.evaluate(&stats, 40).is_converged());
    }

    #[test]
    fn zero_mean_never_converges() {
        // Relative error is undefined (infinite) at zero mean.
        let rule = StoppingRule::new(0.5, Confidence::C95, 2).unwrap();
        let stats = SampleStats::from_measurements(&[0.0, 0.0, 0.0]).unwrap();
        let d = rule.evaluate(&stats, 1_000);
        assert!(!d.is_converged());
        assert!(d.relative_error().is_infinite());
    }
}
