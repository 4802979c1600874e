//! State snapshot loaders with modelled wall-clock cost.
//!
//! §IV-C2 of the paper: loading RTL state through the simulator's command
//! console ran at ~400 commands/second (40 minutes for 30 snapshots of a
//! 35k-flop design), while a custom loader using the Verilog Programming
//! Language Interface reached ~20 000 commands/second (54 seconds). Both
//! loaders here perform identical loads; they differ in the *modelled*
//! seconds they report, which feed the replay-time term `T_load` of the
//! §IV-E performance model — and they make the 50× contrast measurable in
//! the benchmark suite.

use crate::batch::BatchSim;
use crate::sim::GateSimError;

/// One lane's contents of one SRAM macro, for a batched load.
#[derive(Debug, Clone, Copy)]
pub struct SramImage<'a> {
    /// The macro, as an index from
    /// [`Tape::sram_index`](crate::Tape::sram_index).
    pub sram: usize,
    /// The lane it is loaded into.
    pub lane: usize,
    /// Its words from address 0 up; later addresses keep their contents.
    pub words: &'a [u64],
}

/// Statistics from one state load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Number of loader commands issued (one per flip-flop bit plus one per
    /// memory word).
    pub commands: u64,
    /// Modelled wall-clock seconds for the load at this loader's command
    /// rate.
    pub modeled_seconds: f64,
}

/// A loader that drives the simulator's interactive console: one command
/// per bit, at the paper's measured ~400 commands/second.
#[derive(Debug)]
pub struct ScriptLoader;

/// A loader compiled into the simulator through the VPI: bulk transfers at
/// the paper's measured ~20 000 commands/second.
#[derive(Debug)]
pub struct VpiLoader;

/// The per-command rates reported in §IV-C2.
impl ScriptLoader {
    /// Commands per second through the interactive console.
    pub const COMMANDS_PER_SECOND: f64 = 400.0;

    /// [`VpiLoader::load_batch`] — same load, same data layout, same
    /// errors and panics — at this loader's command rate.
    pub fn load_batch(
        sim: &mut BatchSim,
        dff_words: &[(usize, u64)],
        sram_images: &[SramImage<'_>],
    ) -> Result<LoadStats, GateSimError> {
        let commands = apply_batch(sim, dff_words, sram_images)?;
        Ok(LoadStats {
            commands,
            modeled_seconds: commands as f64 / Self::COMMANDS_PER_SECOND,
        })
    }
}

impl VpiLoader {
    /// Commands per second through the VPI bulk interface.
    pub const COMMANDS_PER_SECOND: f64 = 20_000.0;

    /// Loads per-lane flip-flop and SRAM state into a batched simulator,
    /// by index: names are resolved once, with
    /// [`Tape::dff_index`](crate::Tape::dff_index) and
    /// [`Tape::sram_index`](crate::Tape::sram_index) on the simulator's
    /// tape, not per load.
    ///
    /// `dff_words` carries one `(flop index, packed word)` per flop (bit
    /// `l` = lane `l`'s value); each [`SramImage`] is one lane's contents
    /// of one macro. The modelled cost is one command per flop per lane
    /// plus one per image word — `lanes ×` the per-snapshot command
    /// count: batching saves *evaluation* time, not the per-snapshot VPI
    /// transfer the §IV-E model charges for.
    ///
    /// # Errors
    ///
    /// Propagates [`GateSimError`] for an image deeper than its macro or
    /// a lane past the batch.
    ///
    /// # Panics
    ///
    /// Panics on a flop or SRAM index that is not from this tape.
    pub fn load_batch(
        sim: &mut BatchSim,
        dff_words: &[(usize, u64)],
        sram_images: &[SramImage<'_>],
    ) -> Result<LoadStats, GateSimError> {
        let commands = apply_batch(sim, dff_words, sram_images)?;
        Ok(LoadStats {
            commands,
            modeled_seconds: commands as f64 / Self::COMMANDS_PER_SECOND,
        })
    }
}

fn apply_batch(
    sim: &mut BatchSim,
    dff_words: &[(usize, u64)],
    sram_images: &[SramImage<'_>],
) -> Result<u64, GateSimError> {
    let _span = strober_probe::span("strober.gatesim.load_batch");
    let words: usize = sram_images.iter().map(|i| i.words.len()).sum();
    let commands = (dff_words.len() * sim.lanes() + words) as u64;
    strober_probe::counter_add("strober.gatesim.load_commands", commands);
    for &(dff, packed) in dff_words {
        sim.set_dff_lanes_at(dff, packed);
    }
    for image in sram_images {
        sim.set_sram_lane(image.sram, image.lane, image.words)?;
    }
    Ok(commands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NaiveGateSim, Tape};
    use std::sync::Arc;
    use strober_dsl::Ctx;
    use strober_gates::Netlist;
    use strober_rtl::Width;
    use strober_synth::{synthesize, SynthOptions};

    fn netlist() -> Netlist {
        let ctx = Ctx::new("t");
        let r = ctx.reg("state", Width::new(4).unwrap(), 0);
        r.set(&r.out());
        ctx.output("o", &r.out());
        let design = ctx.finish().unwrap();
        synthesize(
            &design,
            &SynthOptions {
                optimize: false,
                mangle: false,
                retime_prefixes: Vec::new(),
            },
        )
        .unwrap()
        .netlist
    }

    /// A batch of `lanes` lanes over `nl`, and its tape.
    fn batch(nl: &Netlist, lanes: usize) -> (BatchSim, Arc<Tape>) {
        let tape = Arc::new(Tape::compile(nl).unwrap());
        let sim = BatchSim::with_tape_lanes(Arc::clone(&tape), nl, lanes).unwrap();
        (sim, tape)
    }

    /// `(flop index, packed word)` for `state_reg_{i}_`, bit `l` of the
    /// word from bit `i` of `per_lane[l]`.
    fn state_words(tape: &Tape, per_lane: &[u64]) -> Vec<(usize, u64)> {
        (0..4)
            .map(|i| {
                let word = per_lane
                    .iter()
                    .enumerate()
                    .fold(0, |w, (lane, v)| w | ((v >> i) & 1) << lane);
                (tape.dff_index(&format!("state_reg_{i}_")).unwrap(), word)
            })
            .collect()
    }

    #[test]
    fn both_loaders_load_the_same_state() {
        let nl = netlist();
        let (mut s1, tape) = batch(&nl, 1);
        let (mut s2, _) = batch(&nl, 1);
        let words = state_words(&tape, &[0b0101]);
        let a = ScriptLoader::load_batch(&mut s1, &words, &[]).unwrap();
        let b = VpiLoader::load_batch(&mut s2, &words, &[]).unwrap();
        assert_eq!(
            s1.peek_port_lane("o", 0).unwrap(),
            s2.peek_port_lane("o", 0).unwrap()
        );
        assert_eq!(s1.peek_port_lane("o", 0).unwrap(), 0b0101);
        assert_eq!(a.commands, 4);
        assert_eq!(b.commands, 4);
    }

    #[test]
    fn vpi_is_fifty_times_faster() {
        let nl = netlist();
        let (mut s1, tape) = batch(&nl, 1);
        let (mut s2, _) = batch(&nl, 1);
        let words = state_words(&tape, &[0b1111]);
        let script = ScriptLoader::load_batch(&mut s1, &words, &[]).unwrap();
        let vpi = VpiLoader::load_batch(&mut s2, &words, &[]).unwrap();
        let ratio = script.modeled_seconds / vpi.modeled_seconds;
        assert!((ratio - 50.0).abs() < 1e-9);
    }

    #[test]
    fn batch_load_matches_sequential_loads() {
        // Two lanes, two snapshots, loaded in one call; each lane must
        // hold what loading its snapshot alone, by name, into the
        // reference engine gives.
        let nl = netlist();
        let snapshots = [0b0101u64, 0b1110];
        let (mut sim, tape) = batch(&nl, 2);
        let stats = VpiLoader::load_batch(&mut sim, &state_words(&tape, &snapshots), &[]).unwrap();
        for (lane, &state) in snapshots.iter().enumerate() {
            let mut reference = NaiveGateSim::new(&nl).unwrap();
            for i in 0..4 {
                reference
                    .set_dff(&format!("state_reg_{i}_"), (state >> i) & 1 == 1)
                    .unwrap();
            }
            assert_eq!(reference.peek_port("o").unwrap(), state);
            assert_eq!(sim.peek_port_lane("o", lane).unwrap(), state);
        }
        // Batching does not discount the modelled per-snapshot VPI cost:
        // one command per flop per lane.
        assert_eq!(stats.commands, 2 * 4);
    }

    #[test]
    fn paper_example_magnitudes() {
        // 35k flops × 30 snapshots: 40 minutes by script, under a minute
        // per the paper's VPI fix (54 s for 30 loads of the in-order core).
        let commands = 35_000.0 * 30.0;
        let script_minutes = commands / ScriptLoader::COMMANDS_PER_SECOND / 60.0;
        let vpi_seconds = commands / VpiLoader::COMMANDS_PER_SECOND;
        assert!((script_minutes - 43.75).abs() < 0.1); // "takes 40 minutes"
        assert!(vpi_seconds < 60.0); // "reducing runtime to only 54 seconds"
    }
}
