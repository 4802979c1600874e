//! Golden equivalence of the optimizing tape compiler on real processor
//! cores and their FAME1 hubs.
//!
//! The randomized sweep lives in `strober-sim`'s own test suite; this one
//! drives the actual workloads the flow runs — bundled core designs and
//! their FAME1-transformed hubs (scan chains, trace buffers, fire gating),
//! including the full-size `rok` and `boum_2w` hubs the ledger steps —
//! through the one pass pipeline, checking bit-identical step behavior
//! against the naive tree-walking reference.

use strober_cores::{build_core, CoreConfig};
use strober_fame::{transform, FameConfig};
use strober_rtl::Design;
use strober_sim::{NaiveInterpreter, Simulator};

const CYCLES: u64 = 256;

/// Deterministic per-(port, cycle) stimulus (splitmix64 finalizer).
fn stim(port: usize, cycle: u64) -> u64 {
    let mut z = (port as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Steps the design for [`CYCLES`] on the naive reference and on the
/// optimized tape, comparing every output every cycle plus the final
/// architectural state.
fn assert_passes_transparent(label: &str, design: &Design) {
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let outputs: Vec<String> = design.outputs().iter().map(|(n, _)| n.clone()).collect();

    let mut naive = NaiveInterpreter::new(design).expect("valid");
    let mut sim = Simulator::new(design).expect("valid");
    for cycle in 0..CYCLES {
        for (i, (name, mask)) in ports.iter().enumerate() {
            let v = stim(i, cycle) & mask;
            naive.poke_by_name(name, v).expect("port");
            sim.poke_by_name(name, v).expect("port");
        }
        for o in &outputs {
            assert_eq!(
                sim.peek_output(o).expect("output"),
                naive.peek_output(o).expect("output"),
                "{label}: output `{o}` diverged at cycle {cycle}"
            );
        }
        naive.step();
        sim.step();
    }
    assert_eq!(sim.state(), naive.state(), "{label}: final state diverged");
}

/// The FAME1 hub of a bundled core: the workload the optimizer was built
/// for — scan-chain padding cats, capture/shift mux cascades, fire gating.
fn hub(core: &CoreConfig) -> Design {
    transform(&build_core(core), &FameConfig::default())
        .expect("transform")
        .hub
}

#[test]
fn passes_are_transparent_on_the_rok_core() {
    assert_passes_transparent("rok_tiny", &build_core(&CoreConfig::rok_tiny()));
}

#[test]
fn passes_are_transparent_on_the_fame1_hub() {
    assert_passes_transparent("rok_tiny fame1 hub", &hub(&CoreConfig::rok_tiny()));
}

#[test]
fn passes_are_transparent_on_the_boum_core() {
    assert_passes_transparent("boum_tiny", &build_core(&CoreConfig::boum_tiny(1)));
}

#[test]
fn passes_are_transparent_on_the_full_rok_hub() {
    assert_passes_transparent("rok fame1 hub", &hub(&CoreConfig::rok()));
}

#[test]
fn passes_are_transparent_on_the_full_boum_2w_hub() {
    assert_passes_transparent("boum_2w fame1 hub", &hub(&CoreConfig::boum_2w()));
}
