//! Differential proof for the bit-parallel engine: a `BatchSim` carrying
//! N lanes must be *bit-identical* — outputs, toggle counts and SRAM
//! access counts — to N sequential 1-lane `GateSim` replays of the same
//! stimulus. This is the property that lets the replay flow route every
//! sample through the packed path without changing any result.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use strober_dsl::Ctx;
use strober_gatesim::{BatchSim, GateSim};
use strober_rtl::{Design, Width};
use strober_sim::rand_design::{rand_design, RandDesignConfig};
use strober_synth::{synthesize, SynthOptions};

/// Runs `lanes` scalar sims and one batched sim over identical per-lane
/// random stimulus, checking every output on every cycle and the full
/// activity report at the end. `reset_at` exercises the measurement-window
/// boundary (`reset_activity`) mid-run on both engines; `read_at` lists
/// cycles at which every lane's activity is also compared mid-run, after
/// which both keep stepping.
fn check_batch_equiv(
    design: &Design,
    lanes: usize,
    cycles: u64,
    seed: u64,
    reset_at: Option<u64>,
    read_at: &[u64],
) {
    let netlist = synthesize(design, &SynthOptions::default())
        .expect("synthesis must succeed")
        .netlist;
    let mut scalars: Vec<GateSim> = (0..lanes)
        .map(|_| GateSim::new(&netlist).expect("valid netlist"))
        .collect();
    let mut batch = BatchSim::with_lanes(&netlist, lanes).expect("valid lane count");

    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let outputs: Vec<String> = design.outputs().iter().map(|(n, _)| n.clone()).collect();
    let mut rngs: Vec<StdRng> = (0..lanes)
        .map(|l| StdRng::seed_from_u64(seed ^ (0xBAD5EED + l as u64)))
        .collect();

    let mut lane_vals = vec![0u64; lanes];
    for cycle in 0..cycles {
        for (name, mask) in &ports {
            for lane in 0..lanes {
                lane_vals[lane] = rngs[lane].gen::<u64>() & mask;
                scalars[lane].poke_port(name, lane_vals[lane]).unwrap();
            }
            batch.poke_port_lanes(name, &lane_vals).unwrap();
        }
        if reset_at == Some(cycle) {
            for s in &mut scalars {
                s.reset_activity();
            }
            batch.reset_activity();
        }
        for out in &outputs {
            batch.peek_port_lanes_into(out, &mut lane_vals).unwrap();
            for lane in 0..lanes {
                let scalar = scalars[lane].peek_port(out).unwrap();
                assert_eq!(
                    scalar, lane_vals[lane],
                    "seed {seed}: output `{out}` lane {lane} diverged at cycle {cycle}: \
                     scalar={scalar:#x} batch={:#x}",
                    lane_vals[lane]
                );
                assert_eq!(scalar, batch.peek_port_lane(out, lane).unwrap());
            }
        }
        if read_at.contains(&cycle) {
            check_activity(&scalars, &batch, seed, cycle);
        }
        for s in &mut scalars {
            s.step();
        }
        batch.step();
    }
    check_activity(&scalars, &batch, seed, cycles);
}

/// Every lane's activity report, from both batch readers, against its
/// scalar twin's.
fn check_activity(scalars: &[GateSim], batch: &BatchSim, seed: u64, cycle: u64) {
    let all = batch.activities();
    for (lane, scalar) in scalars.iter().enumerate() {
        let want = scalar.activity();
        let got = batch.activity_lane(lane).unwrap();
        assert_eq!(
            want, got,
            "seed {seed}: lane {lane} activity diverged at cycle {cycle} (toggle or SRAM access counts)"
        );
        assert_eq!(got, all[lane], "activity_lane and activities disagree");
    }
}

#[test]
fn full_64_lane_batch_matches_64_sequential_replays() {
    let design = rand_design(11, &RandDesignConfig::default());
    check_batch_equiv(&design, 64, 50, 11, None, &[]);
}

#[test]
fn partial_batches_match_sequential_replays() {
    // Lane counts that don't fill the word: the tail snapshots of a
    // sample set land in batches like these.
    let design = rand_design(42, &RandDesignConfig::default());
    for lanes in [1, 2, 5, 33, 63] {
        check_batch_equiv(&design, lanes, 30, 42, None, &[]);
    }
}

#[test]
fn activity_windows_match_after_mid_run_reset() {
    // reset_activity mid-run is exactly what replay does at the
    // measurement-window boundary; window semantics must agree per lane.
    let design = rand_design(77, &RandDesignConfig::default());
    check_batch_equiv(&design, 16, 60, 77, Some(25), &[]);
}

#[test]
fn long_windows_match_across_counter_flushes() {
    // The batch keeps live toggle counts in 8-bit planes and flushes them
    // every 255 counted cycles. 700 cycles with a reset at cycle 300 —
    // in the middle of a flush window — cross one flush before the
    // reset, one after it and a partial window; activity is also read
    // mid-window, twice, without disturbing what follows.
    let design = rand_design(77, &RandDesignConfig::default());
    check_batch_equiv(&design, 64, 700, 77, Some(300), &[200, 555, 556, 620]);
}

#[test]
fn sram_heavy_designs_match() {
    // Multiple memories with active read/write traffic, in the port
    // shapes the out-of-order core has: the transposed SRAM port path
    // against the scalar engine's, at 1, 7, 63 and 64 lanes.
    let ctx = Ctx::new("srams");
    let w7 = Width::new(7).unwrap();
    let w8 = Width::new(8).unwrap();
    let w16 = Width::new(16).unwrap();
    let w64 = Width::new(64).unwrap();
    let addr_a = ctx.input("addr_a", Width::new(5).unwrap());
    let addr_b = ctx.input("addr_b", Width::new(4).unwrap());
    let data = ctx.input("data", w16);
    let we = ctx.input("we", Width::BIT);
    let a = ctx.mem("a", w16, 32);
    let b = ctx.mem("b", w8, 16);
    ctx.output("qa", &a.read(&addr_a));
    ctx.output("qb", &b.read(&addr_b));
    a.write(&addr_a, &data, &we);
    b.write(&addr_b, &data.bits(7, 0), &we);

    // 110 words of 64 bits behind 7-bit addresses: 18 of the 128
    // addresses every port can present are past the end. Two write
    // ports; on about half the cycles the second writes the first's
    // address, so with both enabled the later port must win. Four read
    // ports, one of which reads back the address last written.
    let m = ctx.mem("m", w64, 110);
    let wa0 = ctx.input("wa0", w7);
    let same = ctx.input("same", Width::BIT);
    let wa1 = same.mux(&wa0, &ctx.input("wa1", w7));
    let (d0, d1) = (ctx.input("d0", w64), ctx.input("d1", w64));
    m.write(&wa0, &d0, &ctx.input("we0", Width::BIT));
    m.write(&wa1, &d1, &ctx.input("we1", Width::BIT));
    let last = ctx.reg("last_wa", w7, 0);
    last.set(&wa0);
    ctx.output("m_last", &m.read(&last.out()));
    for i in 0..3 {
        let ra = ctx.input(&format!("ra{i}"), w7);
        ctx.output(&format!("m{i}"), &m.read(&ra));
    }
    let design = ctx.finish().unwrap();
    let netlist = synthesize(&design, &SynthOptions::default())
        .unwrap()
        .netlist;
    let m = netlist.srams().iter().find(|s| s.depth == 110).unwrap();
    assert_eq!(
        (m.width, m.read_ports.len(), m.write_ports.len()),
        (64, 4, 2)
    );
    for lanes in [1, 7, 63, 64] {
        check_batch_equiv(&design, lanes, 80, 5, Some(20), &[50]);
    }
}

#[test]
fn extreme_widths_match() {
    // 1-, 7-, 63- and 64-bit ports and registers: the word-packing edge
    // cases (full-width shifts, top-bit lanes).
    let ctx = Ctx::new("widths");
    let w64 = Width::new(64).unwrap();
    let w63 = Width::new(63).unwrap();
    let w7 = Width::new(7).unwrap();
    let x1 = ctx.input("x1", Width::BIT);
    let x7 = ctx.input("x7", w7);
    let x63 = ctx.input("x63", w63);
    let x64 = ctx.input("x64", w64);
    let r64 = ctx.reg("r64", w64, 0);
    let r63 = ctx.reg("r63", w63, 1);
    r64.set(&(&x64 ^ &r64.out()));
    r63.set(&(&x63 + &r63.out()));
    ctx.output("y64", &r64.out());
    ctx.output("y63", &r63.out());
    ctx.output("y1", &(&x1 ^ &r64.out().bit(63)));
    ctx.output("y7", &(&x7 + &r63.out().bits(6, 0)));
    let design = ctx.finish().unwrap();
    check_batch_equiv(&design, 64, 60, 9, None, &[]);
}
