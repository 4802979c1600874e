//! `compare A.json B.json`: the bounds of `BENCHMARK.json` applied to
//! two result files.
//!
//! For every (workload, end-to-end metric) the untraced runs of each
//! file are reduced to a median. The row is `worse` when B's median is
//! worse than A's by more than the metric's bound, `unresolved` when
//! either side's own spread (inter-quartile range over median, across
//! its runs) is wider than the bound — a difference that small cannot be
//! told from noise — and `ok` otherwise. The failed share of operations
//! must not rise either.

use crate::stats::{median, spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread lets us say so.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// A side's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Whether larger is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of A's median.
    pub bound: f64,
}

/// The end-to-end metrics of a `BENCHMARK.json` document.
pub fn bounded_metrics(benchmark: &Value) -> Result<Vec<Bounded>, String> {
    let list = benchmark
        .object_get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.object_get(k).and_then(Value::as_str);
            Some(Bounded {
                name: text("name")?.to_owned(),
                higher_is_better: text("better")? == "higher",
                bound: m.object_get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed `end_to_end` entry".to_owned())
}

/// Per workload: metric values across untraced runs, and op counts.
#[derive(Debug, Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    ops: BTreeMap<String, (u64, u64)>,
}

fn read_side(doc: &Value) -> Result<Side, String> {
    let runs = doc
        .object_get("runs")
        .and_then(Value::as_array)
        .ok_or("result file: no `runs` list")?;
    let mut side = Side::default();
    for run in runs {
        if run.object_get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = run
            .object_get("workload")
            .and_then(Value::as_str)
            .ok_or("result file: run without a workload")?;
        let count = |k: &str| run.object_get(k).and_then(Value::as_u64).unwrap_or(0);
        let ops = side.ops.entry(workload.to_owned()).or_default();
        ops.0 += count("attempted");
        ops.1 += count("failed");
        let metrics = run
            .object_get("metrics")
            .and_then(Value::as_object)
            .ok_or("result file: run without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.object_get("value").and_then(Value::as_f64) {
                side.values
                    .entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(side)
}

/// The verdict for one metric given both sides' values.
pub fn judge(metric: &Bounded, a: &[f64], b: &[f64]) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let worsening = if metric.higher_is_better {
        ma - mb
    } else {
        mb - ma
    };
    if worsening > metric.bound * ma.abs() {
        Verdict::Worse
    } else if spread(a) > metric.bound || spread(b) > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compares two result documents; returns the printed rows and the
/// worst verdict seen.
pub fn compare(benchmark: &Value, a: &Value, b: &Value) -> Result<(String, Verdict), String> {
    let metrics = bounded_metrics(benchmark)?;
    let (a, b) = (read_side(a)?, read_side(b)?);
    let mut out = format!(
        "{:<26} {:<22} {:>14} {:>14} {:>8} {:>8}  verdict\n",
        "workload", "metric", "median A", "median B", "change", "spread"
    );
    let mut worst = Verdict::Ok;
    let mut escalate = |v: Verdict| {
        if v == Verdict::Worse || worst == Verdict::Ok {
            worst = v;
        }
    };
    let empty = BTreeMap::new();
    for (workload, a_metrics) in &a.values {
        let b_metrics = b.values.get(workload).unwrap_or(&empty);
        for metric in &metrics {
            let none = Vec::new();
            let va = a_metrics.get(&metric.name).unwrap_or(&none);
            let vb = b_metrics.get(&metric.name).unwrap_or(&none);
            let verdict = judge(metric, va, vb);
            escalate(verdict);
            let (ma, mb) = (
                median(va).unwrap_or(f64::NAN),
                median(vb).unwrap_or(f64::NAN),
            );
            writeln!(
                out,
                "{:<26} {:<22} {:>14.6} {:>14.6} {:>+7.2}% {:>7.2}%  {}",
                workload,
                metric.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                spread(va).max(spread(vb)) * 100.0,
                verdict.as_str()
            )
            .expect("writing to a String");
        }
        let (att_a, fail_a) = a.ops.get(workload).copied().unwrap_or_default();
        let (att_b, fail_b) = b.ops.get(workload).copied().unwrap_or_default();
        let share = |fail: u64, att: u64| {
            if att == 0 {
                1.0
            } else {
                fail as f64 / att as f64
            }
        };
        let verdict = if share(fail_b, att_b) > share(fail_a, att_a) {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
        escalate(verdict);
        writeln!(
            out,
            "{:<26} {:<22} {:>14} {:>14} {:>8} {:>8}  {}",
            workload,
            "ops_failed/ops",
            format!("{fail_a}/{att_a}"),
            format!("{fail_b}/{att_b}"),
            "",
            "",
            verdict.as_str()
        )
        .expect("writing to a String");
    }
    Ok((out, worst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn lower(bound: f64) -> Bounded {
        Bounded {
            name: "estimate_wall_s".to_owned(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.00];
        assert_eq!(judge(&lower(0.10), &steady, &[1.05; 5]), Verdict::Ok);
        assert_eq!(judge(&lower(0.10), &steady, &[1.20; 5]), Verdict::Worse);
        // Getting better is never `worse`.
        assert_eq!(judge(&lower(0.10), &steady, &[0.50; 5]), Verdict::Ok);
        let noisy = [0.8, 1.0, 1.2, 0.7, 1.3];
        assert_eq!(judge(&lower(0.10), &noisy, &steady), Verdict::Unresolved);
        let higher = Bounded {
            higher_is_better: true,
            ..lower(0.10)
        };
        assert_eq!(judge(&higher, &steady, &[0.80; 5]), Verdict::Worse);
        assert_eq!(judge(&higher, &steady, &[1.50; 5]), Verdict::Ok);
        assert_eq!(judge(&lower(0.10), &[], &steady), Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_result_files_and_flags_a_rising_failure_share() {
        // (The vendored `json!` takes nested objects only as expressions.)
        let bench = json!({"end_to_end": [json!(
            {"name": "estimate_wall_s", "unit": "s", "better": "lower", "bound": 0.1}
        )]});
        let run = |trace: bool, failed: u64, metric: &str, value: f64| {
            let mut metrics = serde_json::Map::new();
            metrics.insert(metric.to_owned(), json!({"value": value, "unit": "s"}));
            json!({"workload": "w", "trace": trace, "attempted": 4, "failed": failed,
                "metrics": metrics})
        };
        let file = |wall: f64, failed: u64| {
            json!({"runs": [
                run(false, failed, "estimate_wall_s", wall),
                run(true, 0, "core.replay_s", 9.0),
            ]})
        };
        let (rows, worst) = compare(&bench, &file(1.0, 0), &file(1.02, 0)).unwrap();
        assert_eq!(worst, Verdict::Ok, "{rows}");
        assert!(
            !rows.contains("core.replay_s"),
            "traced runs are not compared"
        );
        let (_, worst) = compare(&bench, &file(1.0, 0), &file(1.5, 0)).unwrap();
        assert_eq!(worst, Verdict::Worse);
        let (_, worst) = compare(&bench, &file(1.0, 0), &file(1.0, 1)).unwrap();
        assert_eq!(worst, Verdict::Worse);
    }
}
