//! End-to-end synthesis correctness: for random RTL designs, the gate-level
//! netlist simulated by a one-lane `BatchSim` must match the RTL tape simulator output
//! cycle-for-cycle — with and without optimisation and mangling. This is
//! the random-vector half of the equivalence evidence a commercial formal
//! tool provides.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use strober_gatesim::BatchSim;
use strober_sim::rand_design::{rand_design, RandDesignConfig};
use strober_sim::Simulator;
use strober_synth::{synthesize, SynthOptions};

fn check_equiv(seed: u64, opts: &SynthOptions, cycles: u64) {
    let cfg = RandDesignConfig::default();
    let design = rand_design(seed, &cfg);
    let result = synthesize(&design, opts).expect("synthesis must succeed");

    let mut rtl = Simulator::new(&design).expect("valid design");
    let mut gate = BatchSim::with_lanes(&result.netlist, 1).expect("valid netlist");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);

    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let outputs: Vec<String> = design.outputs().iter().map(|(n, _)| n.clone()).collect();

    for cycle in 0..cycles {
        for (name, mask) in &ports {
            let v = rng.gen::<u64>() & mask;
            rtl.poke_by_name(name, v).unwrap();
            gate.poke_port_broadcast(name, v).unwrap();
        }
        for out in &outputs {
            let r = rtl.peek_output(out).unwrap();
            let g = gate.peek_port_lane(out, 0).unwrap();
            assert_eq!(
                r, g,
                "seed {seed}: output `{out}` diverged at cycle {cycle}: rtl={r:#x} gate={g:#x}"
            );
        }
        rtl.step();
        gate.step();
    }
}

#[test]
fn unoptimized_netlists_match_rtl() {
    let opts = SynthOptions {
        optimize: false,
        mangle: false,
        retime_prefixes: Vec::new(),
    };
    for seed in 0..25 {
        check_equiv(seed, &opts, 40);
    }
}

#[test]
fn optimized_netlists_match_rtl() {
    let opts = SynthOptions {
        optimize: true,
        mangle: false,
        retime_prefixes: Vec::new(),
    };
    for seed in 0..25 {
        check_equiv(seed, &opts, 40);
    }
}

#[test]
fn mangled_optimized_netlists_match_rtl() {
    let opts = SynthOptions::default();
    for seed in 100..115 {
        check_equiv(seed, &opts, 40);
    }
}

#[test]
fn long_run_equivalence() {
    check_equiv(777, &SynthOptions::default(), 500);
}

#[test]
fn state_loading_by_synthinfo_names_reproduces_rtl_state() {
    // Capture RTL state mid-run, load it into a fresh gate simulation via
    // the SynthInfo name map, and check the two simulations then agree —
    // the essence of snapshot replay.
    let cfg = RandDesignConfig::default();
    let design = rand_design(2024, &cfg);
    let result = synthesize(&design, &SynthOptions::default()).unwrap();

    let mut rtl = Simulator::new(&design).unwrap();
    let mut rng = StdRng::seed_from_u64(55);
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();

    // Run the RTL sim for a while with random stimulus.
    let mut last_inputs = Vec::new();
    for _ in 0..100 {
        last_inputs.clear();
        for (name, mask) in &ports {
            let v = rng.gen::<u64>() & mask;
            rtl.poke_by_name(name, v).unwrap();
            last_inputs.push((name.clone(), v));
        }
        rtl.step();
    }

    // Transfer state into the gate sim via instance names.
    let mut gate = BatchSim::with_lanes(&result.netlist, 1).unwrap();
    for (reg_id, reg) in design.registers() {
        let value = rtl.reg_value(reg_id);
        let dff_names = &result.info.reg_map[reg.name()];
        for (i, dff) in dff_names.iter().enumerate() {
            gate.set_dff_lane(dff, 0, (value >> i) & 1 == 1).unwrap();
        }
    }
    for (mem_id, mem) in design.memories() {
        let macro_name = &result.info.mem_map[mem.name()];
        for addr in 0..mem.depth() {
            gate.set_sram_word_lane(macro_name, 0, addr, rtl.mem_value(mem_id, addr))
                .unwrap();
        }
    }

    // From here the two simulations must track exactly.
    let outputs: Vec<String> = design.outputs().iter().map(|(n, _)| n.clone()).collect();
    for cycle in 0..50 {
        for (name, mask) in &ports {
            let v = rng.gen::<u64>() & mask;
            rtl.poke_by_name(name, v).unwrap();
            gate.poke_port_broadcast(name, v).unwrap();
        }
        for out in &outputs {
            assert_eq!(
                rtl.peek_output(out).unwrap(),
                gate.peek_port_lane(out, 0).unwrap(),
                "diverged at cycle {cycle} after state load"
            );
        }
        rtl.step();
        gate.step();
    }
}
