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
//! The memory commit at the edge is native too; random designs have one
//! write port per memory, so a hand-built memory holds it to the
//! interpreted commit where ports collide, write past the depth and are
//! tied enabled, across a detach and a re-attach. The native run loop,
//! which clocks whole cycles between host events in generated code, is
//! held to the interpreted loop on random designs, guards and budgets.
//!
//! Every case skips (with a printed reason) when no `rustc` is on
//! `PATH` — the same condition under which the production fallback
//! ladder reverts to the interpreter.

use strober_jit::{rustc_version, JitCompiler};
use strober_rtl::{BinOp, Design, Width};
use strober_sim::rand_design::{rand_design, RandDesignConfig};
use strober_sim::{Guard, NaiveInterpreter, Simulator};

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

/// One shared content-addressed cache, so the per-design compile happens
/// once even when several cases reuse a seed, and a second run of the
/// binary compiles nothing (a directory per process added ~0.46 MB to
/// the temp directory on every run).
fn compiler() -> JitCompiler {
    JitCompiler::new(std::env::temp_dir().join("strober-jit-equivalence"))
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
fn jit_engine_is_transparent_with_tied_inputs() {
    if skip() {
        return;
    }
    // Tying inputs to constants is what turns the FAME hub into its
    // free-run form: constants flow into every op kind, fold whole
    // cones, and a register whose enable is tied to 0 holds. The
    // generated code bakes all of that in as literals.
    let cfg = RandDesignConfig::default();
    let mut shrank = 0;
    for seed in 0..SEEDS {
        let mut design = rand_design(5000 + seed, &cfg);
        let before = Simulator::new(&design)
            .expect("valid")
            .pass_stats()
            .ops_final;
        let names: Vec<(String, u64)> = design
            .ports()
            .iter()
            .map(|p| (p.name().to_owned(), p.width().mask()))
            .collect();
        for (i, (name, mask)) in names.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            let value = if i % 4 == 0 {
                0
            } else {
                stim(seed, i, 0) & mask
            };
            design.tie_input(name, value).expect("tie");
        }
        let after = Simulator::new(&design)
            .expect("valid")
            .pass_stats()
            .ops_final;
        shrank += usize::from(after < before);
        assert_equivalent(&design, 5000 + seed);
    }
    assert!(shrank > 0, "tying inputs must fold something");

    // A register whose enable is tied to 0 holds whatever it is given.
    let mut d = Design::new("held");
    let x = d.input("x", w(8)).expect("fresh");
    let en = d.input("en", w(1)).expect("fresh");
    let r = d.reg("r", w(8), 7).expect("fresh");
    let q = d.reg_out(r);
    let next = d.binary(BinOp::Add, q, x).expect("widths");
    d.connect_reg(r, next, Some(en)).expect("connect");
    d.output("q", q).expect("fresh");
    d.tie_input("en", 0).expect("tie");
    assert_equivalent(&d, 77);
    let mut sim = Simulator::new(&d).expect("valid");
    compiler().attach(&mut sim).expect("jit attach");
    sim.poke_by_name("x", 3).expect("port");
    sim.step_n(4);
    assert_eq!(sim.peek_output("q").expect("q"), 7);
    sim.set_reg_value(r, 42);
    sim.step_n(4);
    assert_eq!(sim.peek_output("q").expect("q"), 42);
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

/// A memory with four write ports that the generated commit has to get
/// right together: two whose data-dependent enables and addresses collide
/// in the same cycle (the later port must win), one whose address runs
/// past the depth half the time (nothing is written), and one whose
/// enable is a constant 1 (a write every edge, with no branch). Two read
/// ports and a register fold what was written back into the next cycle.
/// Returns the design and the node ids the test counts events on.
fn colliding_ports() -> (Design, [strober_rtl::NodeId; 6]) {
    let mut d = Design::new("collide");
    let x = d.input("x", w(16)).expect("fresh");
    let a = d.input("a", w(4)).expect("fresh");
    let b = d.input("b", w(4)).expect("fresh");
    let r = d.reg("r", w(16), 0x1234).expect("fresh");
    let rq = d.reg_out(r);
    // Depth 12 behind a 4-bit address: 12..15 are past the depth.
    let m = d.mem("m", w(16), 12, vec![7; 12]).expect("fresh");
    let bit = |d: &mut Design, n, i| d.slice(n, i, i).expect("bit");

    // Ports 0 and 1: port 1 takes port 0's address whenever r[0] is set.
    let en0 = bit(&mut d, x, 0);
    d.mem_write(m, a, x, en0).expect("port 0");
    let r0 = bit(&mut d, rq, 0);
    let addr1 = d.mux(r0, a, b).expect("mux");
    let (r1, x1) = (bit(&mut d, rq, 1), bit(&mut d, x, 1));
    let en1 = d.binary(BinOp::Xor, r1, x1).expect("xor");
    d.mem_write(m, addr1, rq, en1).expect("port 1");

    // Port 2: b | 8 is 8..15, past the depth half the time.
    let eight = d.constant(8, w(4));
    let addr2 = d.or(b, eight).expect("or");
    let en2 = bit(&mut d, x, 2);
    let data2 = d.binary(BinOp::Add, x, rq).expect("add");
    d.mem_write(m, addr2, data2, en2).expect("port 2");

    // Port 3: always enabled, at r[7:4], which also runs past the depth.
    let one = d.constant(1, Width::BIT);
    let addr3 = d.slice(rq, 7, 4).expect("slice");
    let data3 = d.binary(BinOp::Xor, x, rq).expect("xor");
    d.mem_write(m, addr3, data3, one).expect("port 3");

    let qa = d.mem_read(m, a).expect("read a");
    let qb = d.mem_read(m, b).expect("read b");
    let mix = d.binary(BinOp::Add, qa, qb).expect("add");
    let next = d.binary(BinOp::Xor, mix, x).expect("xor");
    d.connect_reg(r, next, None).expect("connect");
    d.output("qa", qa).expect("fresh");
    d.output("qb", qb).expect("fresh");
    (d, [a, en0, en1, addr1, addr2, en2])
}

#[test]
fn colliding_write_ports_commit_natively_as_interpreted() {
    if skip() {
        return;
    }
    const RUN: u64 = 1200;
    let (design, [a, en0, en1, addr1, addr2, en2]) = colliding_ports();
    let mut interp = Simulator::new(&design).expect("valid");
    let mut native = Simulator::new(&design).expect("valid");
    compiler().attach(&mut native).expect("jit attach");
    let mut naive = NaiveInterpreter::new(&design).expect("valid");
    let (mut collisions, mut past_depth) = (0, 0);
    for cycle in 0..RUN {
        // Off the native engine for the middle third of the run.
        if cycle == RUN / 3 {
            native.detach_jit();
        } else if cycle == 2 * RUN / 3 {
            compiler().attach(&mut native).expect("jit re-attach");
        }
        for (i, p) in design.ports().iter().enumerate() {
            let v = stim(41, i, cycle) & p.width().mask();
            interp.poke(p.id(), v);
            native.poke(p.id(), v);
            naive.poke_by_name(p.name(), v).expect("port");
        }
        let both = interp.peek(en0) & interp.peek(en1) == 1;
        collisions += u64::from(both && interp.peek(addr1) == interp.peek(a));
        past_depth += u64::from(interp.peek(en2) == 1 && interp.peek(addr2) >= 12);
        interp.step();
        native.step();
        naive.step();
        assert_eq!(native.state(), interp.state(), "cycle {cycle}");
    }
    assert_eq!(native.active_engine_name(), "tape-jit");
    assert_eq!(
        interp.state(),
        naive.state(),
        "the tape walk against the reference"
    );
    assert!(
        collisions > 50 && past_depth > 50,
        "the run must collide ({collisions}) and write past the depth ({past_depth}) often"
    );
}

#[test]
fn the_native_run_loop_matches_the_interpreted_loop() {
    if skip() {
        return;
    }
    // Budgets cover 0, 1, even and odd counts (an odd count leaves the
    // native loop's current registers in the other file) and runs long
    // enough to cross several guard stops.
    const BUDGETS: [u64; 8] = [0, 1, 2, 3, 7, 16, 31, 1];
    for seed in 0..SEEDS {
        let design = rand_design(6000 + seed, &RandDesignConfig::default());
        let ports: Vec<(String, u64)> = design
            .ports()
            .iter()
            .map(|p| (p.name().to_owned(), p.width().mask()))
            .collect();
        let outputs: Vec<String> = design.outputs().iter().map(|(n, _)| n.clone()).collect();
        let interp = Simulator::new(&design).expect("valid design");
        let mut native = interp.clone();
        compiler().attach(&mut native).expect("jit attach");
        for (k, out) in outputs.iter().enumerate() {
            let node = interp.resolve_output(out).expect("output");
            let slot = interp.output_slot(node).expect("an output");
            let mask = if k % 2 == 0 { 1 } else { u64::MAX };
            let guard = [Guard::new(slot, mask)];
            let (mut a, mut b) = (interp.clone(), native.clone());
            for (round, &budget) in BUDGETS.iter().cycle().take(24).enumerate() {
                for (i, (name, port_mask)) in ports.iter().enumerate() {
                    let value = stim(seed, i, round as u64) & port_mask;
                    a.poke_by_name(name, value).expect("port");
                    b.poke_by_name(name, value).expect("port");
                }
                let (ran_a, ran_b) = (a.run_guarded(&guard, budget), b.run_guarded(&guard, budget));
                let at = format!("seed {seed}, guard `{out}` & {mask:#x}, round {round}");
                assert_eq!(ran_a, ran_b, "{at}: cycles clocked");
                assert!(ran_a <= budget, "{at}");
                assert_eq!(a.state(), b.state(), "{at}: state");
                for o in &outputs {
                    assert_eq!(
                        a.peek_output(o).expect("output"),
                        b.peek_output(o).expect("output"),
                        "{at}: output `{o}`"
                    );
                }
                if ran_a < budget {
                    assert_ne!(a.peek(node) & mask, 0, "{at}: stopped without a guard");
                    a.step();
                    b.step();
                }
            }
        }
    }
}
