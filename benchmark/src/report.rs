//! Result documents: the one-line result the acceptance driver reads,
//! the human-readable metric table, the result file with its host
//! fingerprint, and `BENCHMARK.json` itself.

use crate::names::{self, MetricDef};
use crate::run::{Options, Outcome};
use serde_json::{json, Map, Value};

/// `{name: {"value": v, "unit": u}}` for every metric of the run's set.
fn metrics_value(outcome: &Outcome, set: &[MetricDef]) -> Value {
    let mut map = Map::new();
    for m in set {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        map.insert(m.name.to_owned(), json!({"value": value, "unit": m.unit}));
    }
    Value::Object(map)
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(opts: &Options, outcome: &Outcome) -> String {
    let doc = json!({
        "correct": outcome.correct(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics_value(outcome, names::metric_set(opts.trace)),
    });
    serde_json::to_string(&doc).expect("a value tree always serializes")
}

/// Every metric by name with its unit, one per line.
pub fn table(opts: &Options, outcome: &Outcome) -> String {
    let mut out = format!(
        "workload {} seed {:#x} trace {} — {} ops, {} failed\n",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        outcome.attempted,
        outcome.failed
    );
    for m in names::metric_set(opts.trace) {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        out.push_str(&format!("  {:<34} {:>16.6} {}\n", m.name, value, m.unit));
    }
    for p in &outcome.problems {
        out.push_str(&format!("  FAILED: {p}\n"));
    }
    out
}

/// The entry a run contributes to a result file.
pub fn run_entry(opts: &Options, outcome: &Outcome) -> Value {
    json!({
        "workload": opts.workload,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "smoke": opts.smoke,
        "correct": outcome.correct(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": metrics_value(outcome, names::metric_set(opts.trace)),
        "detail": outcome.detail,
    })
}

/// A result file: who measured, and what.
pub fn result_file(runs: Vec<Value>) -> Value {
    json!({
        "host": crate::host::fingerprint(),
        "runs": runs,
    })
}

/// `BENCHMARK.json`, generated from the tables in [`names`] so the file
/// and the binary cannot drift apart.
pub fn benchmark_json(run_seconds: u64) -> String {
    let metric = |m: &MetricDef| {
        let mut v = json!({"name": m.name, "unit": m.unit, "better": m.better});
        if let Some(b) = m.bound {
            v.object_insert("bound", json!(b));
        }
        v
    };
    let doc = json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": run_seconds,
        "workloads": names::WORKLOADS
            .iter()
            .map(|(name, why)| json!({"name": name, "why": why}))
            .collect::<Vec<_>>(),
        "end_to_end": names::END_TO_END.iter().map(metric).collect::<Vec<_>>(),
        "per_layer": names::PER_LAYER.iter().map(metric).collect::<Vec<_>>(),
    });
    let mut text = serde_json::to_string_pretty(&doc).expect("a value tree always serializes");
    text.push('\n');
    text
}
