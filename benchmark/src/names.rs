//! The fixed vocabulary of the ledger: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the
//! repository root lists the same names (a unit test keeps the two in
//! step) and later issues cite them, so renaming one is a benchmark
//! change, not a refactor.

/// One metric the binary emits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit (`[A-Za-z0-9_/%.-]+`, at most 16 characters).
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
///
/// Host-dependent metrics carry the widest bound the benchmark contract
/// allows: the host this was written on cannot resolve less (README,
/// "How one run goes"). The two accuracy metrics are exact (they are taken
/// on the fixed reference seed and checked against `golden.json` to
/// 1e-9), so their bound only has to be positive.
pub const END_TO_END: &[MetricDef] = &[
    e2e("estimate_wall_s", "s", "lower", 0.25),
    e2e("target_cycles_per_s", "cycles/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("power_error_pct", "%", "lower", 0.01),
    e2e("ci_half_width_pct", "%", "lower", 0.01),
];

/// Per-layer metrics, reported by every workload on a traced run; a
/// metric whose layer a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Set-up layers.
    layer("fame.transform_s", "s", "lower"),
    layer("synth.synthesize_s", "s", "lower"),
    layer("formal.match_s", "s", "lower"),
    layer("sim.hub_lower_s", "s", "lower"),
    layer("sim.hub_tape_ops", "count", "lower"),
    layer("gatesim.tape_compile_s", "s", "lower"),
    layer("jit.compile_s", "s", "lower"),
    layer("jit.load_s", "s", "lower"),
    layer("store.prepare_hit_s", "s", "lower"),
    // Sampled simulation.
    layer("dram.load_s", "s", "lower"),
    layer("core.run_sampled_s", "s", "lower"),
    layer("platform.capture_s", "s", "lower"),
    layer("platform.capture_ms_per_record", "ms", "lower"),
    layer("platform.records", "count", "lower"),
    layer("platform.scan_hub_cycles", "count", "lower"),
    layer("platform.hub_cycles", "count", "lower"),
    layer("platform.scan_s", "s", "lower"),
    layer("platform.run_s", "s", "lower"),
    layer("sim.free_run_cycles_per_s", "cycles/s", "higher"),
    layer("sim.settle_ns", "ns", "lower"),
    layer("sim.settle_s", "s", "lower"),
    layer("sim.edge_s", "s", "lower"),
    layer("sim.step_s", "s", "lower"),
    layer("dram.tick_s", "s", "lower"),
    layer("dram.tick_ns_per_cycle", "ns", "lower"),
    layer("sampling.kept_ratio", "ratio", "higher"),
    // Gate-level replay and power.
    layer("core.replay_s", "s", "lower"),
    layer("gatesim.replay_batch_s", "s", "lower"),
    layer("gatesim.batches", "count", "lower"),
    layer("gatesim.load_batch_s", "s", "lower"),
    layer("gatesim.lane_cycles_per_s", "lane-cycles/s", "higher"),
    layer("power.analyze_s_per_batch", "s", "lower"),
    layer("sampling.estimate_s", "s", "lower"),
    // Streaming pipeline.
    layer("core.stream_wall_s", "s", "lower"),
    layer("core.pipeline.streamed", "count", "lower"),
    layer("core.pipeline.stale_dropped", "count", "lower"),
    layer("core.pipeline.results_superseded", "count", "lower"),
    layer("core.pipeline.useful_ratio", "ratio", "higher"),
    // Served path.
    layer("server.queue_wait_s", "s", "lower"),
    layer("server.service_s", "s", "lower"),
    layer("server.overhead_s", "s", "lower"),
    layer("server.warm_ratio", "ratio", "higher"),
    layer("server.jobs_failed", "count", "lower"),
    // Bookkeeping.
    layer("core.unattributed_pct", "%", "lower"),
    layer("probe.trace_overhead_pct", "%", "lower"),
];

/// The metric set a run with `--trace <trace>` emits.
pub fn metric_set(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Workload names with their one-line reasons.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "rok-dhrystone-n30",
        "paper's validation point (rok, n=30, L=128); capture-bound: scan-chain capture is ~2/3 of the sampled run, replay ~6%",
    ),
    (
        "rok-gcc-long",
        "4.3M target cycles; settle-bound: the free-running hub is ~80% of wall, so a capture fix barely moves it and an engine change moves it most",
    ),
    (
        "boum2w-dhrystone-replay",
        "out-of-order core on the JIT engine, n=128, L=1024; replay-bound: gate replay is ~60% of wall; a JIT fallback is a failed op",
    ),
    (
        "rok-dhrystone-stream",
        "same spec as rok-dhrystone-n30 through replay_streaming: replay overlaps capture; result must be bit-identical to the phased flow",
    ),
    (
        "serve-rok-burst",
        "served path: 2 closed-loop clients x 6 followed jobs (rok vvadd/qsort) on 2 workers after one primer job; framing, queue and warm cache",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(m.name), "metric name `{}`", m.name);
            assert!(is_unit(m.unit), "unit `{}` of `{}`", m.unit, m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name `{}`", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(is_name(name), "workload name `{name}`");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of `{name}`");
            assert!(seen.insert(name), "duplicate name `{name}`");
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "bound of `{}`", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
