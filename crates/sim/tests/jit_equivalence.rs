//! Golden equivalence tests for the JIT-compiled native settle engine.
//!
//! The compiled dylib must be invisible: a simulator dispatching its
//! combinational settle to native code must be cycle-for-cycle,
//! bit-for-bit identical to the naive tree-walking reference — per-cycle
//! outputs and final architectural state. The sweep covers random
//! designs, plus the degenerate shapes: an empty tape, a detach mid-run,
//! and a clone mid-run sharing the loaded engine. The native code also
//! captures register next-state inside its settle, so two cases hold
//! that half against the interpreted register walk: registers with and
//! without enables (peeking every next and enable node, which the
//! generated code no longer stores), and a detach, clone, register write
//! or memory write landing between a native settle and the clock edge.
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

/// Settles `native` (engine attached) and `interp` (tape walk) with the
/// same stimulus and checks that every register's next-state and enable
/// node peeks the same on both — those slots live only in the generated
/// code's locals now, so each peek goes through the recompute path.
fn settle_and_compare_register_inputs(
    design: &Design,
    native: &mut Simulator,
    interp: &mut Simulator,
    seed: u64,
    cycle: u64,
) {
    for (i, p) in design.ports().iter().enumerate() {
        let v = stim(seed, i, cycle) & p.width().mask();
        native.poke(p.id(), v);
        interp.poke(p.id(), v);
    }
    native.settle();
    interp.settle();
    for (r, reg) in design.registers() {
        for node in [reg.next(), reg.enable()].into_iter().flatten() {
            assert_eq!(
                native.peek(node),
                interp.peek(node),
                "seed {seed}, cycle {cycle}: register {r:?} input {node:?} after a native settle"
            );
        }
    }
}

#[test]
fn native_register_capture_matches_the_interpreted_walk() {
    if skip() {
        return;
    }
    let cfg = RandDesignConfig::default();
    let (mut enabled, mut free) = (0, 0);
    for seed in 0..SEEDS {
        let design = rand_design(4000 + seed, &cfg);
        for (_, reg) in design.registers() {
            if reg.enable().is_some() {
                enabled += 1;
            } else {
                free += 1;
            }
        }
        let mut interp = Simulator::new(&design).expect("valid");
        let mut native = Simulator::new(&design).expect("valid");
        compiler().attach(&mut native).expect("jit attach");
        for cycle in 0..CYCLES {
            settle_and_compare_register_inputs(&design, &mut native, &mut interp, seed, cycle);
            native.step();
            interp.step();
            assert_eq!(native.state(), interp.state(), "seed {seed}, cycle {cycle}");
        }
    }
    assert!(
        enabled > 0 && free > 0,
        "the sweep must cover registers with ({enabled}) and without ({free}) enables"
    );
}

#[test]
fn state_changes_between_a_native_settle_and_the_edge_are_captured() {
    if skip() {
        return;
    }
    // Native capture happens inside the settle, so whatever touches the
    // simulator between that settle and the clock edge must not leave
    // the edge swapping in a next state computed before it. Each cycle
    // does one such thing to both simulators.
    let design = rand_design(23, &RandDesignConfig::default());
    let regs: Vec<_> = design.registers().map(|(id, _)| id).collect();
    let mems: Vec<_> = design.memories().map(|(id, m)| (id, m.depth())).collect();
    assert!(!regs.is_empty() && !mems.is_empty(), "design 23 has both");
    let mut interp = Simulator::new(&design).expect("valid");
    let mut native = Simulator::new(&design).expect("valid");
    compiler().attach(&mut native).expect("jit attach");
    for cycle in 0..4 * CYCLES {
        if !native.has_jit() {
            compiler().attach(&mut native).expect("jit re-attach");
        }
        settle_and_compare_register_inputs(&design, &mut native, &mut interp, 9, cycle);
        let word = stim(17, 0, cycle);
        match cycle % 4 {
            0 => {
                let reg = regs[cycle as usize / 4 % regs.len()];
                native.set_reg_value(reg, word);
                interp.set_reg_value(reg, word);
            }
            1 => {
                let (mem, depth) = mems[cycle as usize / 4 % mems.len()];
                let addr = (word >> 32) as usize % depth;
                native.set_mem_value(mem, addr, word);
                interp.set_mem_value(mem, addr, word);
            }
            2 => {
                // Continue on a clone: it shares the engine and must
                // start from the original's settled next state.
                native = native.clone();
                assert!(native.has_jit());
            }
            _ => {
                native.detach_jit();
                assert_eq!(native.active_engine_name(), "tape");
            }
        }
        native.clock_edge();
        interp.clock_edge();
        assert_eq!(native.state(), interp.state(), "cycle {cycle}");
    }
}
