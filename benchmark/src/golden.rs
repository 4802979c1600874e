//! Committed reference results (`golden.json`): the simulated statistics
//! and powers every run is checked against, and the full-replay truth
//! the accuracy metrics are measured from.

use std::collections::BTreeMap;

/// The reservoir seed goldens are blessed with — the library default.
pub const REFERENCE_SEED: u64 = 0x57_0BE5;

/// Relative tolerance for powers (integers compare exactly). Loose
/// enough for a reassociated floating-point sum, far tighter than any
/// behavioural change.
pub const POWER_REL_TOL: f64 = 1e-9;

/// Reference results of one estimate spec at [`REFERENCE_SEED`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GoldenSpec {
    /// Target cycles to workload completion.
    pub target_cycles: u64,
    /// Replay windows in the execution (the sampled population).
    pub windows: u64,
    /// Snapshot records taken to fill and maintain the reservoir.
    pub records: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Hub cycles spent advancing the target.
    pub hub_cycles: u64,
    /// Hub cycles spent scanning state and reading traces out.
    pub scan_overhead_cycles: u64,
    /// Sampled mean power in mW.
    pub sampled_power_mw: f64,
    /// 99 % confidence half-width of the sampled mean, in mW.
    pub half_width_mw: f64,
    /// Mean power over *every* window replayed at gate level, in mW —
    /// the reference Fig. 8 measures the sampled error against.
    pub truth_power_mw: f64,
}

/// `(power_error_pct, ci_half_width_pct)` of an estimate: |power − truth|
/// ÷ truth and half-width ÷ power, in percent. Without a golden there is
/// no truth to measure the error from, and it reads 0.
pub fn accuracy(power_mw: f64, half_width_mw: f64, golden: Option<&GoldenSpec>) -> (f64, f64) {
    let error = golden.map_or(0.0, |g| {
        (power_mw - g.truth_power_mw).abs() / g.truth_power_mw * 100.0
    });
    (error, half_width_mw / power_mw * 100.0)
}

/// The whole golden file: one entry per estimate spec id.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Golden {
    /// Seed the entries were blessed with (always [`REFERENCE_SEED`]).
    pub seed: u64,
    /// Entries keyed by spec id.
    pub specs: BTreeMap<String, GoldenSpec>,
}

impl Golden {
    /// The goldens compiled into this binary.
    pub fn committed() -> Result<Golden, String> {
        let golden: Golden = serde_json::from_str(include_str!("../golden.json"))
            .map_err(|e| format!("benchmark/golden.json: {e}"))?;
        if golden.seed != REFERENCE_SEED {
            return Err(format!(
                "benchmark/golden.json was blessed with seed {:#x}, not {REFERENCE_SEED:#x}",
                golden.seed
            ));
        }
        Ok(golden)
    }

    /// Where `--bless` writes (the source tree this binary was built
    /// from).
    pub fn path() -> &'static str {
        concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json")
    }
}

/// Whether two powers agree to [`POWER_REL_TOL`].
pub fn powers_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= POWER_REL_TOL * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_goldens_parse_and_cover_every_spec() {
        let golden = Golden::committed().unwrap();
        for spec in crate::oneshot::SPECS {
            let g = golden
                .specs
                .get(spec.id)
                .unwrap_or_else(|| panic!("no golden for `{}`", spec.id));
            assert!(g.truth_power_mw > 0.0 && g.sampled_power_mw > 0.0);
            assert!(g.records >= spec.samples as u64 && g.windows >= g.records);
            assert_eq!(g.hub_cycles, g.target_cycles);
        }
    }

    #[test]
    fn power_tolerance_is_relative() {
        assert!(powers_agree(50.0, 50.0 + 1e-9));
        assert!(!powers_agree(50.0, 50.0 + 1e-6));
        assert!(powers_agree(0.0, 0.0));
    }
}
