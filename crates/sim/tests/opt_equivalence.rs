//! Golden equivalence tests for the optimizing tape compiler.
//!
//! The pass pipeline must be transparent: a [`Simulator`] must be
//! cycle-for-cycle, bit-for-bit identical to the naive tree-walking
//! reference — per-cycle outputs, final architectural state, and peeks of
//! nodes the optimizer deleted — over a seed sweep of random designs.

use strober_rtl::{BinOp, Design, UnOp, Width};
use strober_sim::rand_design::{rand_design, RandDesignConfig};
use strober_sim::{NaiveInterpreter, Simulator};

const SEEDS: u64 = 30;
const CYCLES: u64 = 32;

/// Deterministic per-(port, cycle) stimulus (splitmix64 finalizer).
fn stim(seed: u64, port: usize, cycle: u64) -> u64 {
    let mut z = seed
        .wrapping_add((port as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `design` for [`CYCLES`] on the optimized tape and asserts every
/// output every cycle (and the final state) matches the naive reference.
fn assert_equivalent(design: &Design, seed: u64) {
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let outputs: Vec<String> = design.outputs().iter().map(|(n, _)| n.clone()).collect();

    let mut naive = NaiveInterpreter::new(design).expect("valid design");
    let mut trace: Vec<Vec<u64>> = Vec::new();
    for cycle in 0..CYCLES {
        for (i, (name, mask)) in ports.iter().enumerate() {
            naive
                .poke_by_name(name, stim(seed, i, cycle) & mask)
                .expect("port");
        }
        trace.push(
            outputs
                .iter()
                .map(|o| naive.peek_output(o).expect("output"))
                .collect(),
        );
        naive.step();
    }
    let golden_state = naive.state();

    let mut sim = Simulator::new(design).expect("valid design");
    let stats = sim.pass_stats();
    assert!(
        stats.ops_final <= stats.ops_initial,
        "seed {seed}: the optimizer grew the tape: {stats:?}"
    );
    for cycle in 0..CYCLES {
        for (i, (name, mask)) in ports.iter().enumerate() {
            sim.poke_by_name(name, stim(seed, i, cycle) & mask)
                .expect("port");
        }
        for (oi, o) in outputs.iter().enumerate() {
            let got = sim.peek_output(o).expect("output");
            let expected = trace[cycle as usize][oi];
            assert_eq!(
                got, expected,
                "seed {seed}: output `{o}` diverged at cycle {cycle}"
            );
        }
        sim.step();
    }
    assert_eq!(
        sim.state(),
        golden_state,
        "seed {seed}: final architectural state diverged"
    );
}

#[test]
fn every_pass_is_transparent_on_random_designs() {
    let cfg = RandDesignConfig::default();
    for seed in 0..SEEDS {
        assert_equivalent(&rand_design(seed, &cfg), seed);
    }
}

#[test]
fn every_pass_is_transparent_without_memories() {
    let cfg = RandDesignConfig {
        with_memory: false,
        regs: 3,
        ops: 40,
        ..RandDesignConfig::default()
    };
    for seed in 0..SEEDS {
        assert_equivalent(&rand_design(1000 + seed, &cfg), 1000 + seed);
    }
}

fn w(bits: u32) -> Width {
    Width::new(bits).expect("static width")
}

#[test]
fn constant_subgraphs_fold_to_nothing() {
    // out = (5 + 3) ^ 6 is compile-time constant; with folding on, the
    // whole expression costs zero tape ops.
    let mut d = Design::new("const");
    let a = d.constant(5, w(8));
    let b = d.constant(3, w(8));
    let sum = d.binary(BinOp::Add, a, b).expect("widths");
    let c = d.constant(6, w(8));
    let x = d.binary(BinOp::Xor, sum, c).expect("widths");
    d.output("out", x).expect("fresh");
    let mut sim = Simulator::new(&d).expect("valid");
    assert_eq!(sim.peek_output("out").expect("out"), (5 + 3) ^ 6);
    let stats = sim.pass_stats();
    assert!(stats.const_folded >= 2, "stats: {stats:?}");
    assert_eq!(stats.ops_final, 0, "stats: {stats:?}");
}

#[test]
fn identity_operations_are_copy_propagated() {
    // out = (x | 0) ^ 0 collapses to x by operand identities alone.
    let mut d = Design::new("ident");
    let x = d.input("x", w(16)).expect("fresh");
    let z = d.constant(0, w(16));
    let or0 = d.binary(BinOp::Or, x, z).expect("widths");
    let xor0 = d.binary(BinOp::Xor, or0, z).expect("widths");
    d.output("out", xor0).expect("fresh");
    let mut sim = Simulator::new(&d).expect("valid");
    sim.poke_by_name("x", 0xBEEF).expect("port");
    assert_eq!(sim.peek_output("out").expect("out"), 0xBEEF);
    // Only the port load for `x` survives; both binaries became copies.
    let stats = sim.pass_stats();
    assert!(stats.copies_propagated >= 2, "stats: {stats:?}");
    assert_eq!(stats.ops_final, 1, "stats: {stats:?}");
}

#[test]
fn common_subexpressions_are_merged() {
    // Two structurally identical adders: CSE keeps one.
    let mut d = Design::new("cse");
    let x = d.input("x", w(8)).expect("fresh");
    let y = d.input("y", w(8)).expect("fresh");
    let s1 = d.binary(BinOp::Add, x, y).expect("widths");
    let s2 = d.binary(BinOp::Add, y, x).expect("widths"); // commuted
    let both = d.binary(BinOp::Xor, s1, s2).expect("widths");
    d.output("out", both).expect("fresh");
    let mut sim = Simulator::new(&d).expect("valid");
    sim.poke_by_name("x", 9).expect("port");
    sim.poke_by_name("y", 4).expect("port");
    // x+y == y+x, so the xor of the two sums is identically zero — and
    // after CSE the fold pass cannot see that, but the tape keeps only
    // one adder.
    assert_eq!(sim.peek_output("out").expect("out"), 0);
    let stats = sim.pass_stats();
    assert!(stats.copies_propagated >= 1, "stats: {stats:?}");
}

#[test]
fn dead_nodes_are_eliminated_but_still_peekable() {
    // `dead` feeds no output, register, memory port or probe: DCE drops
    // it from the tape, and `peek` falls back to direct evaluation.
    let mut d = Design::new("dead");
    let x = d.input("x", w(8)).expect("fresh");
    let dead = d.binary(BinOp::Add, x, x).expect("widths");
    let live = d.unary(UnOp::Not, x);
    d.output("out", live).expect("fresh");
    let mut sim = Simulator::new(&d).expect("valid");
    assert!(sim.pass_stats().dead_eliminated >= 1);
    sim.poke_by_name("x", 200).expect("port");
    assert_eq!(sim.peek_output("out").expect("out"), !200u64 & 0xFF);
    assert_eq!(sim.peek(dead), (200 + 200) & 0xFF);
}

#[test]
fn optimized_simulators_clone_mid_run() {
    // Snapshot replay clones simulators mid-flight; the optimized tape's
    // compacted state must survive that.
    let design = rand_design(11, &RandDesignConfig::default());
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let mut sim = Simulator::new(&design).expect("valid");
    for cycle in 0..10 {
        for (i, (name, mask)) in ports.iter().enumerate() {
            sim.poke_by_name(name, stim(3, i, cycle) & mask)
                .expect("port");
        }
        sim.step();
    }
    let mut fork = sim.clone();
    for cycle in 10..20 {
        for (i, (name, mask)) in ports.iter().enumerate() {
            sim.poke_by_name(name, stim(3, i, cycle) & mask)
                .expect("port");
            fork.poke_by_name(name, stim(3, i, cycle) & mask)
                .expect("port");
        }
        sim.step();
        fork.step();
    }
    assert_eq!(sim.state(), fork.state());
}
