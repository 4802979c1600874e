//! Differential proof for the bit-parallel engine: a `BatchSim` carrying
//! N lanes must be *bit-identical* — outputs every cycle, final flip-flop
//! and SRAM state, toggle totals per energy class, SRAM access counts and
//! power — to N separate replays of the same stimulus on `NaiveGateSim`,
//! the reference engine that evaluates the netlist gate by gate, counts
//! every net on its own and shares no code with the tape the batch runs
//! but the class map its per-net counts are summed by. This is the
//! property that lets the replay flow route every sample through the
//! packed path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use strober_dsl::Ctx;
use strober_gates::{
    CellKind, CellLibrary, NetId, Netlist, SramMacro, SramReadPort, SramWritePort,
};
use strober_gatesim::{BatchSim, ClassMap, NaiveGateSim, Tape};
use strober_power::PowerAnalyzer;
use strober_rtl::{Design, Width};
use strober_sim::rand_design::{rand_design, RandDesignConfig};
use strober_synth::{synthesize, SynthOptions};

/// A netlist and the word-level ports to drive and watch.
struct Subject {
    netlist: Netlist,
    /// Input ports with their value masks.
    inputs: Vec<(String, u64)>,
    outputs: Vec<String>,
}

impl Subject {
    fn synthesized(design: &Design) -> Self {
        Subject {
            netlist: synthesize(design, &SynthOptions::default())
                .expect("synthesis must succeed")
                .netlist,
            inputs: design
                .ports()
                .iter()
                .map(|p| (p.name().to_owned(), p.width().mask()))
                .collect(),
            outputs: design.outputs().iter().map(|(n, _)| n.clone()).collect(),
        }
    }

    /// Runs `lanes` reference replays and one batch over identical
    /// per-lane random stimulus, checking every output on every cycle and
    /// activity, power and state at the end. `reset_at` exercises the
    /// measurement-window boundary (`reset_activity`) mid-run on both
    /// engines; `read_at` lists cycles at which every lane's activity is
    /// also compared mid-run, after which both keep stepping.
    fn check(&self, lanes: usize, cycles: u64, seed: u64, reset_at: Option<u64>, read_at: &[u64]) {
        let mut naive: Vec<NaiveGateSim> = (0..lanes)
            .map(|_| NaiveGateSim::new(&self.netlist).expect("valid netlist"))
            .collect();
        let mut batch = BatchSim::with_lanes(&self.netlist, lanes).expect("valid lane count");
        let mut rngs: Vec<StdRng> = (0..lanes)
            .map(|l| StdRng::seed_from_u64(seed ^ (0xBAD5EED + l as u64)))
            .collect();

        let mut lane_vals = vec![0u64; lanes];
        for cycle in 0..cycles {
            for (name, mask) in &self.inputs {
                for lane in 0..lanes {
                    lane_vals[lane] = rngs[lane].gen::<u64>() & mask;
                    naive[lane].poke_port(name, lane_vals[lane]).unwrap();
                }
                batch.poke_port_lanes(name, &lane_vals).unwrap();
            }
            if reset_at == Some(cycle) {
                for s in &mut naive {
                    s.reset_activity();
                }
                batch.reset_activity();
            }
            for out in &self.outputs {
                batch.peek_port_lanes_into(out, &mut lane_vals).unwrap();
                for lane in 0..lanes {
                    let want = naive[lane].peek_port(out).unwrap();
                    assert_eq!(
                        want, lane_vals[lane],
                        "seed {seed}: output `{out}` lane {lane} diverged at cycle {cycle}: \
                         naive={want:#x} batch={:#x}",
                        lane_vals[lane]
                    );
                    assert_eq!(want, batch.peek_port_lane(out, lane).unwrap());
                }
            }
            if read_at.contains(&cycle) {
                self.check_activity(&naive, &batch, seed, cycle);
            }
            for s in &mut naive {
                s.step();
            }
            batch.step();
        }
        self.check_activity(&naive, &batch, seed, cycles);
        self.check_state(&naive, &batch, seed);
    }

    /// Every lane's activity report, from both batch readers, and its
    /// price, against its reference replay's. A class whose totals differ
    /// is named with its nets and their reference counts; in the
    /// hand-built netlists every gate has a region of its own, so a class
    /// is one net.
    fn check_activity(&self, naive: &[NaiveGateSim], batch: &BatchSim, seed: u64, cycle: u64) {
        let analyzer = PowerAnalyzer::new(&self.netlist, &CellLibrary::generic_45nm(), 1.0e9);
        let classes = ClassMap::new(&self.netlist);
        let all = batch.activities();
        for (lane, reference) in naive.iter().enumerate() {
            let want = reference.activity();
            let got = batch.activity_lane(lane).unwrap();
            let mismatch =
                (want.class_toggles().iter().zip(got.class_toggles())).position(|(w, g)| w != g);
            if let Some(class) = mismatch {
                let nets: Vec<String> = (0..self.netlist.net_count())
                    .map(NetId::from_index)
                    .filter(|&net| classes.class_of(net) == Some(class))
                    .map(|net| {
                        let count = reference.net_toggles()[net.index()];
                        format!("`{}` ({count})", self.netlist.net_name(net))
                    })
                    .collect();
                panic!(
                    "seed {seed}: lane {lane} toggles diverged at cycle {cycle} in class \
                     {:?}: naive={} batch={}; its {} nets (naive counts): {}",
                    classes.classes()[class],
                    want.class_toggles()[class],
                    got.class_toggles()[class],
                    nets.len(),
                    nets[..nets.len().min(8)].join(", ")
                );
            }
            assert_eq!(
                want, got,
                "seed {seed}: lane {lane} activity diverged at cycle {cycle} (SRAM access counts)"
            );
            assert_eq!(got, all[lane], "activity_lane and activities disagree");
            if want.cycles() > 0 {
                assert_eq!(
                    analyzer.analyze(&want),
                    analyzer.analyze(&got),
                    "seed {seed}: lane {lane} power diverged at cycle {cycle}"
                );
            }
        }
    }

    /// Every lane's flip-flops and SRAM words against its reference's.
    fn check_state(&self, naive: &[NaiveGateSim], batch: &BatchSim, seed: u64) {
        for (lane, reference) in naive.iter().enumerate() {
            for (_, name, _, _, _) in self.netlist.dffs() {
                assert_eq!(
                    reference.dff_value(name).unwrap(),
                    batch.dff_value_lane(name, lane).unwrap(),
                    "seed {seed}: lane {lane} flip-flop `{name}` diverged"
                );
            }
            for s in self.netlist.srams() {
                for addr in 0..s.depth {
                    assert_eq!(
                        reference.sram_word(&s.name, addr).unwrap(),
                        batch.sram_word_lane(&s.name, lane, addr).unwrap(),
                        "seed {seed}: lane {lane} macro `{}` word {addr} diverged",
                        s.name
                    );
                }
            }
        }
    }
}

#[test]
fn full_64_lane_batch_matches_64_sequential_replays() {
    let design = rand_design(11, &RandDesignConfig::default());
    Subject::synthesized(&design).check(64, 50, 11, None, &[]);
}

#[test]
fn partial_batches_match_sequential_replays() {
    // Lane counts that don't fill the word: the tail snapshots of a
    // sample set land in batches like these.
    let subject = Subject::synthesized(&rand_design(42, &RandDesignConfig::default()));
    for lanes in [1, 2, 5, 7, 33, 63] {
        subject.check(lanes, 30, 42, None, &[]);
    }
}

#[test]
fn activity_windows_match_after_mid_run_reset() {
    // reset_activity mid-run is exactly what replay does at the
    // measurement-window boundary; window semantics must agree per lane.
    let design = rand_design(77, &RandDesignConfig::default());
    Subject::synthesized(&design).check(16, 60, 77, Some(25), &[]);
}

#[test]
fn long_windows_match_across_counter_flushes() {
    // The batch keeps live class toggle counts in 16 bit planes and
    // flushes them at least every 256 counted cycles. 700 cycles with a
    // reset at cycle 300 — in the middle of a flush window — cross at
    // least one flush before the reset, one after it and a partial
    // window; activity is also read mid-window, twice, without
    // disturbing what follows.
    let design = rand_design(77, &RandDesignConfig::default());
    Subject::synthesized(&design).check(64, 700, 77, Some(300), &[200, 555, 556, 620]);
}

#[test]
fn sram_heavy_designs_match() {
    // Multiple memories with active read/write traffic, in the port
    // shapes the out-of-order core has: the transposed SRAM port path
    // against the reference, at 1, 7, 63 and 64 lanes.
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
    let subject = Subject::synthesized(&design);
    let m = subject
        .netlist
        .srams()
        .iter()
        .find(|s| s.depth == 110)
        .unwrap();
    assert_eq!(
        (m.width, m.read_ports.len(), m.write_ports.len()),
        (64, 4, 2)
    );
    for lanes in [1, 7, 63, 64] {
        subject.check(lanes, 80, 5, Some(20), &[50]);
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
    Subject::synthesized(&design).check(64, 60, 9, None, &[]);
}

/// The eleven combinational cell kinds.
const COMB_KINDS: [CellKind; 11] = [
    CellKind::Inv,
    CellKind::Buf,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Mux2,
    CellKind::Tie0,
    CellKind::Tie1,
];

/// A hand-built netlist with every combinational kind at two levels and
/// an SRAM macro with two write ports and two read ports — synthesis of
/// the bundled cores emits only some of the kinds. Level 1 reads the
/// inputs `x` and a 3-bit register `s`; level 2 reads level 1. The macro
/// is 6 words deep behind 3-bit addresses, so two of the eight addresses
/// are past its end. With `observe`, every gate drives a bit of output
/// `y` and the read ports drive `q` and `r`; without, nothing is a port,
/// so only toggles, power and state can tell a wrong gate. Every gate and
/// flip-flop has a region of its own, so each energy class is one net
/// and a toggle mismatch names it.
fn cell_kinds_netlist(observe: bool) -> Netlist {
    let mut nl = Netlist::new("cell_kinds");
    let bus = |nl: &mut Netlist, name: &str, bits: usize, input: bool| -> Vec<NetId> {
        (0..bits)
            .map(|i| {
                let net = nl.add_net(format!("{name}[{i}]"));
                if input {
                    nl.add_input(format!("{name}[{i}]"), net);
                }
                net
            })
            .collect()
    };
    let x = bus(&mut nl, "x", 3, true);
    let addr = bus(&mut nl, "addr", 3, true);
    let data = bus(&mut nl, "data", 4, true);
    let we = bus(&mut nl, "we", 2, true);
    let s = bus(&mut nl, "s", 3, false);

    let level = |nl: &mut Netlist, name: &str, sources: &[NetId]| -> Vec<NetId> {
        COMB_KINDS
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let out = nl.add_net(format!("{name}_{kind}"));
                let pins = (0..kind.input_count())
                    .map(|p| sources[(i + p) % sources.len()])
                    .collect();
                let region = nl.intern_region(&format!("{name}_{kind}"));
                nl.add_gate(kind, pins, out, region);
                out
            })
            .collect()
    };
    let sources: Vec<NetId> = x.iter().chain(&s).copied().collect();
    let l1 = level(&mut nl, "l1", &sources);
    // Skip the ties' constant outputs: every level-2 gate reads a gate.
    let l2 = level(&mut nl, "l2", &l1[..9]);

    let q = bus(&mut nl, "q", 4, false);
    let r = bus(&mut nl, "r", 4, false);
    nl.add_sram(SramMacro {
        name: "ram".to_owned(),
        width: 4,
        depth: 6,
        init: vec![3, 9],
        read_ports: vec![
            SramReadPort {
                addr: addr.clone(),
                data: q.clone(),
            },
            SramReadPort {
                addr: s.clone(),
                data: r.clone(),
            },
        ],
        write_ports: vec![
            SramWritePort {
                addr,
                data,
                enable: we[0],
            },
            SramWritePort {
                addr: vec![l2[6], l2[4], x[2]],
                data: vec![l2[5], l2[3], l2[7], l2[8]],
                enable: we[1],
            },
        ],
        region: 0,
    });
    for (i, (&d, &q_net)) in [r[0], l2[8], l2[7]].iter().zip(&s).enumerate() {
        let region = nl.intern_region(&format!("s_reg_{i}_"));
        nl.add_dff(format!("s_reg_{i}_"), d, q_net, i == 1, region);
    }
    if observe {
        for (i, &net) in l1.iter().chain(&l2).enumerate() {
            nl.add_output(format!("y[{i}]"), net);
        }
        for (i, (&qi, &ri)) in q.iter().zip(&r).enumerate() {
            nl.add_output(format!("q[{i}]"), qi);
            nl.add_output(format!("r[{i}]"), ri);
        }
    }
    nl
}

fn cell_kinds_subject(observe: bool) -> Subject {
    Subject {
        netlist: cell_kinds_netlist(observe),
        inputs: [("x", 7), ("addr", 7), ("data", 15), ("we", 3)]
            .into_iter()
            .map(|(n, m)| (n.to_owned(), m))
            .collect(),
        outputs: if observe {
            ["y", "q", "r"].map(str::to_owned).to_vec()
        } else {
            Vec::new()
        },
    }
}

#[test]
fn every_cell_kind_matches() {
    let subject = cell_kinds_subject(true);
    for lanes in [1, 64] {
        subject.check(lanes, 300, 3, Some(40), &[100]);
    }
}

#[test]
fn unobserved_gates_match_through_their_toggles() {
    // No output port: a gate evaluated wrongly changes no value the
    // checker peeks, only the nets it drives — the toggle counts and the
    // power priced from them, as in a replay window.
    let subject = cell_kinds_subject(false);
    for lanes in [1, 64] {
        subject.check(lanes, 300, 4, Some(40), &[100]);
    }
}

#[test]
fn one_class_map_for_the_tape_and_the_analyzer() {
    // The tape counts by the classes the analyzer prices by, on a random
    // design and on the hand-built one, where every gate is a class.
    let lib = CellLibrary::generic_45nm();
    let random = Subject::synthesized(&rand_design(11, &RandDesignConfig::default())).netlist;
    for netlist in [random, cell_kinds_netlist(false)] {
        let tape = Tape::compile(&netlist).unwrap();
        let analyzer = PowerAnalyzer::new(&netlist, &lib, 1.0e9);
        assert_eq!(tape.class_map(), &ClassMap::new(&netlist));
        assert_eq!(tape.class_map().classes(), analyzer.classes());
    }
    let netlist = cell_kinds_netlist(false);
    let classes = ClassMap::new(&netlist);
    let gates = netlist.gates().len();
    assert_eq!(classes.classes().len(), gates, "one class per gate");
}
