//! Order statistics over a handful of repetitions, and span aggregation.

use std::collections::BTreeMap;
use strober_probe::SpanEvent;

/// The median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The first and third quartile of `values` by the exclusive method —
/// the one Python's `statistics.quantiles(values, n=4)` uses, so spreads
/// printed here match what the acceptance driver computes. `None` with
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        // Position in 1-based ranks over n + 1 gaps; like Python, the end
        // intervals extrapolate when the position falls outside the data.
        let pos = p * (v.len() as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    Some((at(0.25), at(0.75)))
}

/// Inter-quartile range as a share of the median; 0 when it cannot be
/// computed (fewer than two values, or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Per-name totals over a set of span events, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Completed spans of this name.
    pub count: u64,
    /// Sum of durations.
    pub total_s: f64,
    /// Sum of durations minus the time covered by direct child spans on
    /// the same thread.
    pub self_s: f64,
}

/// Aggregates recorded spans by name. Self time comes from
/// [`strober_probe::profile`], so the ledger and `strober probe report`
/// subtract children the same way.
pub fn span_totals(events: &[SpanEvent]) -> BTreeMap<String, SpanTotal> {
    strober_probe::profile(events)
        .into_iter()
        .map(|s| {
            (
                s.name,
                SpanTotal {
                    count: s.count,
                    total_s: s.total_us as f64 * 1e-6,
                    self_s: s.self_us as f64 * 1e-6,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        // statistics.quantiles([7, 1, 3, 9, 5], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 9.0, 5.0]), Some((2.0, 8.0)));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    fn ev(name: &str, tid: u64, depth: u32, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_owned(),
            tid,
            depth,
            seq: start_us,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        let events = [
            ev("replay", 1, 0, 0, 1_000),
            ev("batch", 1, 1, 100, 300),
            ev("batch", 1, 1, 500, 200),
            // A grandchild shortens `batch`, not `replay`.
            ev("load", 1, 2, 120, 50),
            // Another thread's span at the same time is nobody's child.
            ev("batch", 2, 0, 100, 400),
        ];
        let t = span_totals(&events);
        assert_eq!(t["replay"].count, 1);
        assert!((t["replay"].total_s - 1_000e-6).abs() < 1e-12);
        assert!((t["replay"].self_s - 500e-6).abs() < 1e-12);
        assert_eq!(t["batch"].count, 3);
        assert!((t["batch"].total_s - 900e-6).abs() < 1e-12);
        assert!((t["batch"].self_s - 850e-6).abs() < 1e-12);
        assert!((t["load"].self_s - 50e-6).abs() < 1e-12);
    }
}
