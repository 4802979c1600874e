//! `--bless`: regenerate `golden.json`.
//!
//! Each spec is estimated once on the reference seed (the sampled
//! numbers every run is checked against) and once with a reservoir as
//! large as the population, so *every* window is captured and replayed
//! at gate level — the full-replay truth of Fig. 8. Engines are
//! bit-identical, so the long full-replay pass uses the native settle
//! engine whenever a `rustc` is on `PATH`.

use crate::golden::{accuracy, Golden, GoldenSpec, REFERENCE_SEED};
use crate::oneshot::{Bench, FlowPath, Spec, SPECS};
use std::collections::BTreeMap;
use std::path::Path;
use strober::HubEngine;

fn bless_spec(spec: &Spec, scratch: &Path) -> Result<GoldenSpec, String> {
    let bench = Bench::new(*spec)?;
    let (mut prepared, _) = bench.cold_setup(&scratch.join(format!("{}-sampled", spec.id)))?;
    let flow = bench.warm_flow(&mut prepared, REFERENCE_SEED)?;
    let sampled = bench.estimate_once(&flow, FlowPath::Phased, false)?;

    let full = Bench::new(Spec {
        samples: usize::try_from(sampled.windows).expect("window count fits") + 1,
        engine: if strober_jit::rustc_version().is_some() {
            HubEngine::Jit
        } else {
            spec.engine
        },
        ..*spec
    })?;
    let (mut prepared, _) = full.cold_setup(&scratch.join(format!("{}-full", spec.id)))?;
    let flow = full.warm_flow(&mut prepared, REFERENCE_SEED)?;
    let truth = full.estimate_once(&flow, FlowPath::Phased, false)?;
    // The last window is captured whole even if the workload halts inside
    // it, so the full run may overshoot the halt by part of a window; the
    // population it covers is the same.
    if (truth.samples as u64, truth.records, truth.windows)
        != (sampled.windows, sampled.windows, sampled.windows)
    {
        return Err(format!(
            "{}: full replay covered {} of {} windows ({} records, {} windows seen)",
            spec.id, truth.samples, sampled.windows, truth.records, truth.windows
        ));
    }
    Ok(GoldenSpec {
        target_cycles: sampled.target_cycles,
        windows: sampled.windows,
        records: sampled.records,
        instret: sampled.instret,
        hub_cycles: sampled.hub_cycles,
        scan_overhead_cycles: sampled.scan_overhead_cycles,
        sampled_power_mw: sampled.power_mw,
        half_width_mw: sampled.half_width_mw,
        truth_power_mw: truth.power_mw,
    })
}

/// Blesses every spec and rewrites the golden file of the source tree.
pub fn bless(scratch: &Path) -> Result<(), String> {
    let mut specs = BTreeMap::new();
    for spec in SPECS {
        eprintln!("blessing {} ...", spec.id);
        let golden = bless_spec(spec, scratch)?;
        let (error, half_width) =
            accuracy(golden.sampled_power_mw, golden.half_width_mw, Some(&golden));
        eprintln!(
            "  {} windows, sampled {:.6} mW, truth {:.6} mW ({error:.3} % off, ±{half_width:.3} %)",
            golden.windows, golden.sampled_power_mw, golden.truth_power_mw
        );
        specs.insert(spec.id.to_owned(), golden);
    }
    let golden = Golden {
        seed: REFERENCE_SEED,
        specs,
    };
    let mut text = serde_json::to_string_pretty(&golden).expect("goldens serialize");
    text.push('\n');
    std::fs::write(Golden::path(), text)
        .map_err(|e| format!("cannot write {}: {e}", Golden::path()))?;
    eprintln!("wrote {}", Golden::path());
    Ok(())
}
