//! Statistical-soundness integration tests: the estimator behaves like
//! §III-A promises when the experiment is repeated.

use strober::{HubEngine, StroberConfig, StroberFlow};
use strober_dsl::Ctx;
use strober_platform::{HostModel, OutputView};
use strober_rtl::{Design, Width};

/// A design with two distinct power phases: a wide LFSR bank that only
/// churns when `phase` selects it. The workload alternates phases, so
/// per-window power is bimodal — a stress test for the interval maths.
fn phased_design() -> Design {
    let ctx = Ctx::new("phased");
    let w32 = Width::new(32).unwrap();
    let phase = ctx.input("phase", Width::BIT);
    for i in 0..8 {
        let r = ctx.scope("bank", |c| c.reg(&format!("lfsr{i}"), w32, 0xACE1 + i));
        let taps = r.out().bit(31) ^ r.out().bit(21) ^ (r.out().bit(1) ^ r.out().bit(0));
        let shifted = r.out().shl_lit(1) | &taps.zext(w32);
        r.set_en(&shifted, &phase);
    }
    let counter = ctx.scope("ctr", |c| c.reg("count", w32, 0));
    counter.set(&counter.out().add_lit(1));
    ctx.output("count", &counter.out());
    ctx.finish().unwrap()
}

/// A 32-cycle-window session on [`phased_design`] — a throwaway design,
/// so it walks the tape instead of compiling a native engine for it.
fn session(sample_size: usize, seed: u64) -> StroberConfig {
    let mut config = StroberConfig {
        replay_length: 32,
        sample_size,
        seed,
        ..StroberConfig::default()
    };
    config.platform.hub_engine = HubEngine::Interp;
    config
}

struct PhaseDriver {
    period: u64,
}

impl HostModel for PhaseDriver {
    fn tick(&mut self, cycle: u64, io: &mut OutputView<'_>) {
        io.set("phase", u64::from((cycle / self.period).is_multiple_of(2)));
    }
}

#[test]
fn repeated_estimates_scatter_around_a_common_mean() {
    let design = phased_design();
    let mut estimates = Vec::new();
    for seed in 0..6 {
        let flow = StroberFlow::new(&design, session(24, 1000 + seed)).unwrap();
        let mut driver = PhaseDriver { period: 160 };
        let run = flow.run_sampled(&mut driver, 40_000).unwrap();
        let results = flow.replay_all(&run.snapshots, 4).unwrap();
        let est = flow.estimate(&run, &results).expect("estimate");
        estimates.push((est.mean_power_mw(), est.interval().half_width()));
    }

    let grand_mean: f64 = estimates.iter().map(|(m, _)| m).sum::<f64>() / estimates.len() as f64;
    // Every run's 99% interval should contain the grand mean, and the
    // run-to-run scatter should be comparable to the claimed half-widths
    // (not wildly larger).
    let mut hits = 0;
    for &(mean, half) in &estimates {
        if (mean - grand_mean).abs() <= half {
            hits += 1;
        }
    }
    assert!(
        hits >= estimates.len() - 1,
        "estimates {estimates:?} vs grand mean {grand_mean}"
    );
}

#[test]
fn larger_samples_give_tighter_intervals() {
    let design = phased_design();
    let mut widths = Vec::new();
    for &n in &[8usize, 32] {
        let flow = StroberFlow::new(&design, session(n, 7)).unwrap();
        let mut driver = PhaseDriver { period: 160 };
        let run = flow.run_sampled(&mut driver, 60_000).unwrap();
        let results = flow.replay_all(&run.snapshots, 4).unwrap();
        let est = flow.estimate(&run, &results).expect("estimate");
        widths.push(est.interval().relative_error_bound());
    }
    assert!(
        widths[1] < widths[0],
        "n=32 bound {} should beat n=8 bound {}",
        widths[1],
        widths[0]
    );
}

#[test]
fn phase_power_difference_is_visible_per_snapshot() {
    // Individual snapshot timestamps land in either phase; their measured
    // powers must be bimodal (the LFSR bank churns in one phase only).
    let design = phased_design();
    let flow = StroberFlow::new(&design, session(30, 99)).unwrap();
    let mut driver = PhaseDriver { period: 512 };
    let run = flow.run_sampled(&mut driver, 50_000).unwrap();
    let results = flow.replay_all(&run.snapshots, 4).unwrap();

    let mut powers: Vec<f64> = results.iter().map(|r| r.power.total_mw()).collect();
    powers.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let spread = powers.last().unwrap() / powers.first().unwrap();
    assert!(
        spread > 1.3,
        "expected bimodal snapshot powers, got spread {spread:.2} ({powers:?})"
    );
}
