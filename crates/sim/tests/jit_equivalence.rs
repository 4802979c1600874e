//! Golden equivalence tests for the JIT-compiled native settle engine.
//!
//! The compiled dylib must be invisible: a simulator dispatching its
//! combinational settle to native code must be cycle-for-cycle,
//! bit-for-bit identical to the naive tree-walking reference — per-cycle
//! outputs and final architectural state. The sweep covers random
//! designs, plus the degenerate shapes: an empty tape, a detach mid-run,
//! and a clone mid-run sharing the loaded engine.
//!
//! Every case skips (with a printed reason) when no `rustc` is on
//! `PATH` — the same condition under which the production fallback
//! ladder reverts to the interpreter.

use strober_jit::{rustc_version, JitCompiler};
use strober_rtl::{BinOp, Design, Width};
use strober_sim::rand_design::{rand_design, RandDesignConfig};
use strober_sim::{NaiveInterpreter, Simulator};

const SEEDS: u64 = 10;
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

/// One shared content-addressed cache for the whole test binary, so the
/// per-design compile happens once even when several cases reuse a seed.
fn compiler() -> JitCompiler {
    JitCompiler::new(
        std::env::temp_dir()
            .join("strober-jit-equivalence")
            .join(std::process::id().to_string()),
    )
}

/// Runs `design` for [`CYCLES`] with the native engine attached and
/// asserts every output every cycle, and the final state, matches the
/// naive reference.
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
    compiler().attach(&mut sim).expect("jit attach");
    assert_eq!(sim.active_engine_name(), "tape-jit");
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
                "seed {seed}, jit engine: output `{o}` diverged at cycle {cycle}"
            );
        }
        sim.step();
    }
    assert_eq!(
        sim.state(),
        golden_state,
        "seed {seed}, jit engine: final architectural state diverged"
    );
}

/// True (with a printed reason) when the JIT cases cannot run here.
fn skip() -> bool {
    if rustc_version().is_none() {
        println!("skipping: no rustc on PATH (the production fallback case)");
        return true;
    }
    false
}

#[test]
fn jit_engine_is_transparent_on_random_designs() {
    if skip() {
        return;
    }
    let cfg = RandDesignConfig::default();
    for seed in 0..SEEDS {
        assert_equivalent(&rand_design(seed, &cfg), seed);
    }
}

#[test]
fn jit_engine_is_transparent_without_memories() {
    if skip() {
        return;
    }
    let cfg = RandDesignConfig {
        with_memory: false,
        regs: 3,
        ops: 40,
        ..RandDesignConfig::default()
    };
    for seed in 0..SEEDS {
        assert_equivalent(&rand_design(2000 + seed, &cfg), 2000 + seed);
    }
}

fn w(bits: u32) -> Width {
    Width::new(bits).expect("static width")
}

#[test]
fn empty_tape_compiles_and_runs() {
    if skip() {
        return;
    }
    // A fully constant design folds to zero tape ops; the generated
    // settle function is an empty body, which must still compile, attach
    // and leave the folded peeks intact.
    let mut d = Design::new("const");
    let a = d.constant(5, w(8));
    let b = d.constant(3, w(8));
    let sum = d.binary(BinOp::Add, a, b).expect("widths");
    d.output("out", sum).expect("fresh");
    let mut sim = Simulator::new(&d).expect("valid");
    compiler().attach(&mut sim).expect("jit attach");
    assert_eq!(sim.pass_stats().ops_final, 0);
    sim.step_n(3);
    assert_eq!(sim.peek_output("out").expect("out"), 8);
}

#[test]
fn jit_simulators_clone_mid_run() {
    if skip() {
        return;
    }
    // Snapshot replay clones simulators mid-flight; the clone must share
    // the loaded engine (no recompile) and stay bit-identical.
    let design = rand_design(11, &RandDesignConfig::default());
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let mut sim = Simulator::new(&design).expect("valid");
    compiler().attach(&mut sim).expect("jit attach");
    for cycle in 0..10 {
        for (i, (name, mask)) in ports.iter().enumerate() {
            sim.poke_by_name(name, stim(3, i, cycle) & mask)
                .expect("port");
        }
        sim.step();
    }
    let mut fork = sim.clone();
    assert_eq!(fork.active_engine_name(), "tape-jit");
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

#[test]
fn detach_returns_to_the_interpreter_bit_identically() {
    if skip() {
        return;
    }
    // Attach for the first half of a run, detach for the second; the
    // trajectory must match a simulator that interpreted throughout.
    let design = rand_design(7, &RandDesignConfig::default());
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let mut interp = Simulator::new(&design).expect("valid");
    let mut mixed = Simulator::new(&design).expect("valid");
    compiler().attach(&mut mixed).expect("jit attach");
    for cycle in 0..CYCLES {
        if cycle == CYCLES / 2 {
            mixed.detach_jit();
            assert_eq!(mixed.active_engine_name(), "tape");
        }
        for (i, (name, mask)) in ports.iter().enumerate() {
            interp
                .poke_by_name(name, stim(5, i, cycle) & mask)
                .expect("port");
            mixed
                .poke_by_name(name, stim(5, i, cycle) & mask)
                .expect("port");
        }
        interp.step();
        mixed.step();
    }
    assert_eq!(interp.state(), mixed.state());
}
