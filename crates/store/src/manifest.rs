//! Run manifests: a JSON record of one end-to-end Strober invocation.
//!
//! A manifest names the design and workload, the cache key the prepared
//! artifacts were stored under, whether preparation was served warm, the
//! wall-clock time of each pipeline stage (derived from probe spans via
//! [`RunManifest::record_spans`]) and the run's full metrics snapshot.
//! The CLI writes one per run so speedups and regressions can be diffed
//! across invocations without re-parsing logs.

use crate::envelope::write_atomic;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Manifest schema version. Bumped to 2 when the `version` and `metrics`
/// fields were added and stage timings moved to span-derived values;
/// bumped to 3 when the estimation server landed and manifests grew job
/// provenance (`job`) and prepare provenance (`prepare`); bumped to 4
/// when the telemetry layer added worker attribution (`job.worker`) and
/// the metrics snapshot started carrying labeled per-job series; bumped
/// to 5 when confidence-driven adaptive sampling landed and manifests
/// grew the `sampling` outcome (stop reason, target and achieved ε);
/// bumped to 6 when tape-to-native codegen landed and manifests grew
/// the `hub_engine` name plus the `jit` codegen provenance
/// (cold/warm/store, compile wall-time); bumped to 7 when `auto` began
/// selecting the native engine and manifests grew `hub_engine_reason`
/// (which engine ran *and why*).
/// Older documents no longer parse: every field is required.
pub const MANIFEST_VERSION: u32 = 7;

/// Which job a served run belonged to — absent for one-shot CLI runs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobProvenance {
    /// Server-assigned job id.
    pub id: u64,
    /// Submitting client's display name.
    pub client: String,
    /// Milliseconds the job waited in the queue before a worker
    /// picked it up.
    pub queue_wait_ms: f64,
    /// Index of the server worker that executed the job (the `worker`
    /// label of the run's dimensional metrics).
    pub worker: String,
}

/// How the run's sampling ended — stop reason plus the adaptive
/// stopping rule's target and achieved relative error (both absent for
/// runs without adaptive stopping).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SamplingOutcome {
    /// Why the sampled simulation stopped: `workload-done`, `max-cycles`
    /// or `converged`.
    pub stop_reason: String,
    /// The requested target relative error ε, when adaptive stopping was
    /// enabled.
    pub target_epsilon: Option<f64>,
    /// The relative error bound achieved over the final sample, when
    /// adaptive stopping was enabled.
    pub achieved_epsilon: Option<f64>,
}

/// How the run's JIT-compiled settle engine was served — absent for
/// runs on the interpreted engines.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CodegenProvenance {
    /// Where the compiled dylib came from: `cold` (`rustc` ran this
    /// session), `warm` (compile cache hit on disk) or `store` (artifact
    /// store hit).
    pub provenance: String,
    /// Wall-clock milliseconds the `rustc` invocation took when the
    /// dylib was first compiled (0 only if the compile was immeasurably
    /// fast).
    pub compile_ms: u64,
}

/// One timed pipeline stage.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageTiming {
    /// Stage name (`prepare`, `sim`, `replay`, `power`, ...).
    pub name: String,
    /// Wall-clock milliseconds spent in the stage.
    pub millis: f64,
}

/// The JSON run record.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_VERSION`] for manifests written by this
    /// build).
    pub version: u32,
    /// Target design name.
    pub design: String,
    /// Workload description (program name or image path).
    pub workload: String,
    /// Cache key of the prepared artifacts, as hex.
    pub fingerprint: String,
    /// Whether preparation was served from a cache (`prepare` says
    /// which): `prepare != "cold"`.
    pub cache_hit: bool,
    /// How preparation was served: `cold` (full
    /// transform/synthesis/matching), `store` (artifact store hit) or
    /// `warm` (in-memory prepared flow reused by a long-lived server).
    pub prepare: String,
    /// Job provenance, for runs executed by the estimation server.
    pub job: Option<JobProvenance>,
    /// How sampling ended — absent only for runs that never reached the
    /// sampled simulation (e.g. failed during prepare).
    pub sampling: Option<SamplingOutcome>,
    /// The hub settle engine the sampled simulation ran under, after any
    /// fallback: `tape` or `tape-jit`.
    pub hub_engine: String,
    /// Why that engine: `requested` when `--hub-engine interp|jit` named
    /// it and got it; under `auto`, how native code was had (`auto: store
    /// hit`, `auto: cache hit`, `auto: compiled in 209 ms`) or why it was
    /// not (`auto: no rustc on PATH, interpreted`); `jit: …, interpreted`
    /// when a named `jit` fell back.
    pub hub_engine_reason: String,
    /// Codegen provenance, for runs on the JIT engine.
    pub jit: Option<CodegenProvenance>,
    /// Per-stage wall-clock timings, in execution order.
    pub stages: Vec<StageTiming>,
    /// Every metric the probe registry held at the end of the run.
    pub metrics: strober_probe::MetricsSnapshot,
}

impl RunManifest {
    /// Starts a manifest for one run.
    pub fn new(design: impl Into<String>, workload: impl Into<String>) -> Self {
        RunManifest {
            version: MANIFEST_VERSION,
            design: design.into(),
            workload: workload.into(),
            prepare: "cold".to_owned(),
            hub_engine: "tape".to_owned(),
            ..RunManifest::default()
        }
    }

    /// Records how preparation was served (`cold`, `store`, `warm`),
    /// keeping the boolean `cache_hit` consistent.
    pub fn set_prepare(&mut self, provenance: impl Into<String>) {
        self.prepare = provenance.into();
        self.cache_hit = self.prepare != "cold";
    }

    /// Appends a stage timing.
    pub fn record(&mut self, name: impl Into<String>, elapsed: Duration) {
        self.stages.push(StageTiming {
            name: name.into(),
            millis: elapsed.as_secs_f64() * 1e3,
        });
    }

    /// Derives stage timings from recorded probe spans: every *top-level*
    /// span (nesting depth 0) of the orchestrating thread becomes one
    /// stage, named by the last dot-segment of the span name
    /// (`strober.core.prepare` → `prepare`), in completion order.
    /// Repeated spans merge by summing durations. Worker threads'
    /// top-level spans (parallel replay) are excluded — they remain
    /// visible in the trace and profile, but are not pipeline stages.
    /// Unlike hand-placed `Instant::now()` pairs, these timings measure
    /// exactly the instrumented region and agree with the exported
    /// chrome trace.
    pub fn record_spans(&mut self, events: &[strober_probe::SpanEvent]) {
        // The orchestrating thread completes the first span: worker
        // threads only exist inside an already-open stage span.
        let Some(main_tid) = events.iter().min_by_key(|e| e.seq).map(|e| e.tid) else {
            return;
        };
        for event in events.iter().filter(|e| e.depth == 0 && e.tid == main_tid) {
            let name = event.name.rsplit('.').next().unwrap_or(&event.name);
            let millis = event.dur_us as f64 / 1e3;
            match self.stages.iter_mut().find(|s| s.name == name) {
                Some(stage) => stage.millis += millis,
                None => self.stages.push(StageTiming {
                    name: name.to_owned(),
                    millis,
                }),
            }
        }
    }

    /// Looks up a recorded stage by name.
    pub fn stage_millis(&self, name: &str) -> Option<f64> {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.millis)
    }

    /// Total recorded wall-clock milliseconds.
    pub fn total_millis(&self) -> f64 {
        self.stages.iter().map(|s| s.millis).sum()
    }

    /// Pretty JSON text of the manifest.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("canonical serialization is infallible")
    }

    /// Parses a manifest from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed input.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Writes the manifest atomically.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write or rename.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    #[test]
    fn manifest_round_trips_through_json() {
        let mut manifest = RunManifest::new("rok", "vvadd(192)");
        manifest.fingerprint = String::from("00117a5e57a0be55");
        manifest.cache_hit = true;
        manifest.record("prepare", Duration::from_millis(12));
        manifest.record("sim", Duration::from_millis(340));
        manifest.record("replay", Duration::from_millis(95));
        manifest.record("power", Duration::from_millis(3));
        let back = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.stage_millis("sim"), Some(340.0));
        assert!((back.total_millis() - 450.0).abs() < 1e-9);
    }

    #[test]
    fn schema_version_is_bumped_and_enforced() {
        let manifest = RunManifest::new("rok", "vvadd");
        assert_eq!(manifest.version, MANIFEST_VERSION);
        assert_eq!(MANIFEST_VERSION, 7, "bump this test with the schema");
        let text = manifest.to_json();
        assert!(text.contains("\"version\""));
        assert!(text.contains("\"metrics\""));
        assert!(text.contains("\"prepare\""));
        assert!(text.contains("\"job\""));
        // A version-1 document predates the `version` and `metrics`
        // fields; it must be rejected, not silently half-parsed.
        let v1 = r#"{
            "design": "rok",
            "workload": "vvadd",
            "fingerprint": "00117a5e57a0be55",
            "cache_hit": false,
            "stages": []
        }"#;
        assert!(RunManifest::from_json(v1).is_err());
        // A version-2 document predates the provenance fields; it must
        // be rejected too.
        let v2 = r#"{
            "version": 2,
            "design": "rok",
            "workload": "vvadd",
            "fingerprint": "00117a5e57a0be55",
            "cache_hit": false,
            "stages": [],
            "metrics": {"counters": [], "gauges": [], "histograms": []}
        }"#;
        assert!(RunManifest::from_json(v2).is_err());
        // A version-3 document's job provenance predates worker
        // attribution; a served manifest without it must be rejected.
        let v3 = r#"{
            "version": 3,
            "design": "rok",
            "workload": "vvadd",
            "fingerprint": "00117a5e57a0be55",
            "cache_hit": false,
            "prepare": "cold",
            "job": {"id": 1, "client": "ci", "queue_wait_ms": 0.5},
            "stages": [],
            "metrics": {"counters": [], "gauges": [], "histograms": []}
        }"#;
        assert!(RunManifest::from_json(v3).is_err());
        // A version-4 document predates the sampling outcome; it must be
        // rejected.
        let v4 = r#"{
            "version": 4,
            "design": "rok",
            "workload": "vvadd",
            "fingerprint": "00117a5e57a0be55",
            "cache_hit": false,
            "prepare": "cold",
            "job": null,
            "stages": [],
            "metrics": {"counters": [], "gauges": [], "histograms": []}
        }"#;
        assert!(RunManifest::from_json(v4).is_err());
        // A version-5 document predates the hub-engine and codegen
        // provenance fields; it must be rejected.
        let v5 = r#"{
            "version": 5,
            "design": "rok",
            "workload": "vvadd",
            "fingerprint": "00117a5e57a0be55",
            "cache_hit": false,
            "prepare": "cold",
            "job": null,
            "sampling": null,
            "stages": [],
            "metrics": {"counters": [], "gauges": [], "histograms": []}
        }"#;
        assert!(RunManifest::from_json(v5).is_err());
        // A version-6 document names the engine but not why.
        let v6 = r#"{
            "version": 6,
            "design": "rok",
            "workload": "vvadd",
            "fingerprint": "00117a5e57a0be55",
            "cache_hit": false,
            "prepare": "cold",
            "job": null,
            "sampling": null,
            "hub_engine": "tape",
            "jit": null,
            "stages": [],
            "metrics": {"counters": [], "gauges": [], "histograms": []}
        }"#;
        assert!(RunManifest::from_json(v6).is_err());
    }

    #[test]
    fn codegen_provenance_round_trips() {
        let mut manifest = RunManifest::new("rok", "vvadd");
        assert_eq!(manifest.hub_engine, "tape");
        assert_eq!(manifest.jit, None);
        manifest.hub_engine = "tape-jit".to_owned();
        manifest.hub_engine_reason = "auto: store hit".to_owned();
        manifest.jit = Some(CodegenProvenance {
            provenance: "store".to_owned(),
            compile_ms: 412,
        });
        let back = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.hub_engine, "tape-jit");
        assert_eq!(back.hub_engine_reason, "auto: store hit");
        assert_eq!(back.jit.unwrap().compile_ms, 412);
    }

    #[test]
    fn sampling_outcome_round_trips() {
        let mut manifest = RunManifest::new("rok", "vvadd");
        manifest.sampling = Some(SamplingOutcome {
            stop_reason: "converged".to_owned(),
            target_epsilon: Some(0.05),
            achieved_epsilon: Some(0.031),
        });
        let back = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(back, manifest);
        let sampling = back.sampling.unwrap();
        assert_eq!(sampling.stop_reason, "converged");
        assert_eq!(sampling.achieved_epsilon, Some(0.031));
    }

    #[test]
    fn job_and_prepare_provenance_round_trip() {
        let mut manifest = RunManifest::new("rok", "vvadd");
        assert_eq!(manifest.prepare, "cold");
        assert!(!manifest.cache_hit);
        assert_eq!(manifest.job, None);
        manifest.set_prepare("warm");
        manifest.job = Some(JobProvenance {
            id: 42,
            client: "ci-runner".to_owned(),
            queue_wait_ms: 12.5,
            worker: "1".to_owned(),
        });
        assert!(manifest.cache_hit);
        let back = RunManifest::from_json(&manifest.to_json()).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.job.as_ref().unwrap().id, 42);
        assert_eq!(back.prepare, "warm");
    }

    #[test]
    fn record_spans_derives_stages_from_top_level_spans() {
        let mk =
            |name: &str, tid: u64, depth: u32, seq: u64, dur_us: u64| strober_probe::SpanEvent {
                name: name.to_owned(),
                tid,
                depth,
                seq,
                start_us: 0,
                dur_us,
            };
        let events = vec![
            // Nested spans must not become stages of their own.
            mk("strober.synth.lower", 0, 1, 0, 1_500),
            mk("strober.core.prepare", 0, 0, 1, 2_000),
            mk("strober.core.run_sampled", 0, 0, 2, 40_000),
            // Worker-thread top-level spans are not pipeline stages.
            mk("strober.core.replay_worker.0", 3, 0, 3, 900),
            // Repeated top-level spans merge into one stage.
            mk("strober.core.replay_sample", 0, 0, 4, 600),
            mk("strober.core.replay_sample", 0, 0, 5, 400),
        ];
        let mut manifest = RunManifest::new("rok", "vvadd");
        manifest.record_spans(&events);
        assert_eq!(manifest.stages.len(), 3);
        assert_eq!(manifest.stage_millis("prepare"), Some(2.0));
        assert_eq!(manifest.stage_millis("run_sampled"), Some(40.0));
        assert_eq!(manifest.stage_millis("replay_sample"), Some(1.0));
        assert_eq!(manifest.stage_millis("lower"), None);
        assert_eq!(manifest.stage_millis("0"), None, "no worker stages");
    }

    #[test]
    fn manifest_saves_to_disk() {
        let dir = TempDir::new("manifest_save");
        let path = dir.path().join("run.json");
        let mut manifest = RunManifest::new("boum-2w", "dhrystone");
        manifest.record("prepare", Duration::from_secs(1));
        manifest.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = RunManifest::from_json(&text).unwrap();
        assert_eq!(back, manifest);
    }
}
