//! Observability integration: a full estimate run must emit the expected
//! span tree, export valid chrome-trace JSON, and fold its spans and
//! metrics into the run manifest.
//!
//! This file holds a single test because the probe recorder is process
//! global; each integration-test file is its own process, so no other
//! test binary can race it.

use strober::{StroberConfig, StroberFlow};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_isa::{assemble, programs};
use strober_store::RunManifest;

#[test]
fn estimate_run_emits_the_expected_span_tree_and_trace_json() {
    let src = programs::vvadd(48);
    let image = assemble(&src).unwrap();
    let design = build_core(&CoreConfig::rok_tiny());
    let config = StroberConfig {
        replay_length: 64,
        sample_size: 4,
        ..StroberConfig::default()
    };

    strober_probe::reset();
    strober_probe::enable();

    let flow = StroberFlow::new(&design, config).unwrap();
    let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
    dram.load(&image.words, 0);
    let run = flow.run_sampled(&mut dram, 2_000_000).expect("sampled run");
    assert!(dram.exit_code().is_some(), "workload must halt");
    assert!(run.snapshots.len() >= 2, "need snapshots to replay");
    // Parallelism 2 with 1 bit-lane puts one-lane batches on both worker
    // threads, so worker spans land on their own chrome-trace tracks and
    // each snapshot gets a replay_batch span.
    let results = flow
        .replay_all_batched(&run.snapshots, 2, 1)
        .expect("replays");
    // The default 64-lane packed path must agree exactly.
    let batched = flow.replay_all(&run.snapshots, 2).expect("batched replays");
    assert_eq!(
        batched, results,
        "packed lanes diverge from one-lane replays"
    );
    let estimate = flow.estimate(&run, &results).expect("estimate");
    assert!(estimate.mean_power_mw() > 0.0);

    let events = strober_probe::take_events();
    let metrics = strober_probe::snapshot();
    strober_probe::disable();

    // The span tree covers every stage of the flow end to end.
    for expected in [
        "strober.core.prepare",
        "strober.fame.transform",
        "strober.synth.synthesize",
        "strober.synth.lower",
        "strober.formal.match",
        "strober.gatesim.batch_compile",
        "strober.core.run_sampled",
        "strober.platform.capture_snapshot",
        "strober.core.replay",
        "strober.core.replay_worker.0",
        "strober.core.replay_worker.1",
        "strober.core.replay_batch",
        "strober.gatesim.load_batch",
        "strober.core.estimate",
    ] {
        assert!(
            events.iter().any(|e| e.name == expected),
            "missing span `{expected}` in {:?}",
            events.iter().map(|e| &e.name).collect::<Vec<_>>()
        );
    }

    // Nesting: prepare is a main-thread top-level span whose transform/
    // synthesis/matching children sit strictly inside it.
    let prepare = events
        .iter()
        .find(|e| e.name == "strober.core.prepare")
        .unwrap();
    assert_eq!(prepare.depth, 0);
    for child in ["strober.fame.transform", "strober.synth.synthesize"] {
        let c = events.iter().find(|e| e.name == child).unwrap();
        assert_eq!(c.tid, prepare.tid, "{child} runs on the prepare thread");
        assert!(c.depth > prepare.depth, "{child} nests inside prepare");
        assert!(c.start_us >= prepare.start_us);
        assert!(c.start_us + c.dur_us <= prepare.start_us + prepare.dur_us);
    }
    // Worker spans are top level on their own threads.
    let workers: Vec<_> = events
        .iter()
        .filter(|e| e.name.starts_with("strober.core.replay_worker."))
        .collect();
    assert_eq!(workers.len(), 2);
    assert!(workers.iter().all(|w| w.depth == 0));
    assert_ne!(workers[0].tid, workers[1].tid, "workers get distinct tids");
    assert!(workers.iter().all(|w| w.tid != prepare.tid));

    // The chrome-trace export is valid JSON with the Trace Event Format
    // shape, and parses back to the same spans.
    let trace = strober_probe::chrome_trace_json(&events);
    let doc: serde_json::Value = serde_json::from_str(&trace).expect("trace is valid JSON");
    let obj = match &doc {
        serde_json::Value::Object(m) => m,
        other => panic!("trace root must be an object, got {other:?}"),
    };
    let (n_spans, n_meta) = match obj.get("traceEvents") {
        Some(serde_json::Value::Array(evs)) => {
            let meta = evs
                .iter()
                .filter(|e| e.object_get("ph").and_then(serde_json::Value::as_str) == Some("M"))
                .count();
            (evs.len() - meta, meta)
        }
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert_eq!(n_spans, events.len());
    // Named threads get `thread_name` metadata events so concurrent
    // workers render on their own labeled rows: at least the
    // orchestrating thread and the two replay workers are named.
    assert!(n_meta >= 3, "expected thread_name metadata, got {n_meta}");
    let back = strober_probe::parse_chrome_trace(&trace).expect("trace parses back");
    assert_eq!(back.len(), events.len());
    let mut names: Vec<_> = back.iter().map(|e| e.name.clone()).collect();
    let mut orig: Vec<_> = events.iter().map(|e| e.name.clone()).collect();
    names.sort();
    orig.sort();
    assert_eq!(names, orig);

    // Spans become manifest stages; worker spans do not.
    let mut manifest = RunManifest::new("rok-tiny", "vvadd");
    manifest.record_spans(&events);
    manifest.metrics = metrics.clone();
    for stage in ["prepare", "run_sampled", "replay", "estimate"] {
        let millis = manifest.stage_millis(stage);
        assert!(
            millis.is_some_and(|ms| ms >= 0.0),
            "stage `{stage}` missing from {:?}",
            manifest.stages
        );
    }
    assert!(manifest
        .stages
        .iter()
        .all(|s| s.name.parse::<u64>().is_err()));

    // The metrics registry saw the run: sampling decisions, snapshot
    // captures, gate-level load commands, the replay histogram and the
    // simulation-rate gauge.
    assert_eq!(
        metrics.counter("strober.platform.records"),
        Some(run.records),
        "every record is one scan-chain capture"
    );
    assert!(metrics.counter("strober.sampling.accepts").unwrap() >= run.snapshots.len() as u64);
    assert!(metrics.counter("strober.gatesim.load_commands").unwrap() > 0);
    assert!(metrics.counter("strober.platform.scan_cycles").unwrap() > 0);
    // The DRAM model lets the host clock its quiet cycles in one loop:
    // most of the run's cycles, in runs of more than one cycle each on
    // average, and never more cycles than the run had.
    let quiet_runs = metrics.counter("strober.platform.quiet_runs").unwrap();
    let quiet_cycles = metrics.counter("strober.platform.quiet_cycles").unwrap();
    assert!(quiet_runs > 0 && quiet_cycles > quiet_runs);
    assert!(
        quiet_cycles * 2 > run.target_cycles && quiet_cycles < run.target_cycles,
        "{quiet_cycles} quiet of {} cycles",
        run.target_cycles
    );
    assert!(metrics.gauge("strober.core.sim_cycles_per_sec").unwrap() > 0.0);

    // The gate-level op tape is compiled on first use and shared by
    // every replay after that — the one-lane workers and the 64-lane
    // pass all reuse it, so no replay compiles its own; the only
    // `batch_compile` span is formal matching's, inside prepare. The
    // two first-replay workers may race the OnceLock (the loser's tape
    // is discarded), so up to `parallelism` compiles are tolerated.
    let compiled = metrics.counter("strober.core.gate_tape_compiled").unwrap();
    assert!((1..=2).contains(&compiled), "compiled {compiled} tapes");
    assert!(metrics.counter("strober.core.gate_tape_reused").unwrap() >= 1);
    assert!(
        events
            .iter()
            .filter(|e| e.name == "strober.gatesim.batch_compile")
            .all(|e| e.tid == prepare.tid
                && e.start_us >= prepare.start_us
                && e.start_us + e.dur_us <= prepare.start_us + prepare.dur_us),
        "batch replay must reuse the session tape, not recompile"
    );

    // Both replays accounted their lanes: one batch per snapshot at one
    // lane, then all snapshots in one 64-lane batch.
    let n = run.snapshots.len() as u64;
    assert_eq!(metrics.counter("strober.core.replay_batches"), Some(n + 1));
    assert_eq!(
        metrics.counter("strober.core.replay_batch_lanes"),
        Some(2 * n)
    );
    let bhist = metrics
        .histogram("strober.core.replay_batch_ms")
        .expect("batch replay histogram");
    assert_eq!(bhist.count, n + 1);

    // And the whole manifest — stages plus metrics — survives the JSON
    // round trip at the current schema version.
    let round = RunManifest::from_json(&manifest.to_json()).unwrap();
    assert_eq!(round, manifest);
    assert_eq!(round.version, strober_store::MANIFEST_VERSION);
}
