//! Power analysis from gate-level signal activity.
//!
//! This crate is the PrimeTime PX stage of the Strober replay flow
//! (Fig. 5 of the paper): it consumes the
//! [`strober_gatesim::ActivityReport`] (our SAIF) produced by replaying a
//! snapshot on the gate-level simulator, together with the cell library and
//! netlist, and produces total and per-component average power.
//!
//! The power model is the standard cycle-based decomposition:
//!
//! * **Switching + internal power** — every net toggle charges the driving
//!   cell's internal energy plus the fanout load (`E = E_int + ½·C_load·V²`
//!   from [`strober_gates::CellLibrary::switching_energy_fj`]). That
//!   energy depends only on the net's (region, kind, fanout) class, so
//!   the report's per-class toggle totals are priced as
//!   `Σ_class E_class × T_class` ([`strober_gatesim::ClassMap`]).
//! * **Clock power** — two clock edges per cycle per flip-flop, charged
//!   against the flop's clock pin and clock-tree share.
//! * **SRAM access power** — per-access read/write energy scaled by word
//!   width, with access counts from the simulator.
//! * **Leakage** — per-cell and per-SRAM-bit static power, independent of
//!   activity.
//!
//! Every term is attributed to the floorplan component (region) its cell
//! belongs to, which is what Fig. 9a's stacked bars plot.
//!
//! # Examples
//!
//! ```
//! use strober_dsl::Ctx;
//! use strober_rtl::Width;
//! use strober_synth::{synthesize, SynthOptions};
//! use strober_gatesim::BatchSim;
//! use strober_gates::CellLibrary;
//! use strober_power::PowerAnalyzer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = Ctx::new("counter");
//! let count = ctx.reg("count", Width::new(8)?, 0);
//! count.set(&count.out().add_lit(1));
//! ctx.output("value", &count.out());
//! let synth = synthesize(&ctx.finish()?, &SynthOptions::default())?;
//!
//! let mut sim = BatchSim::with_lanes(&synth.netlist, 1)?;
//! sim.step_n(256);
//!
//! let lib = CellLibrary::generic_45nm();
//! let analyzer = PowerAnalyzer::new(&synth.netlist, &lib, 1.0e9);
//! let report = analyzer.analyze(&sim.activity_lane(0)?);
//! assert!(report.total_mw() > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fmt;
use strober_gates::{CellLibrary, Gate, Netlist};
use strober_gatesim::{ActivityReport, ClassMap, EnergyClass};

/// The power decomposition for one component (or the whole design), in
/// milliwatts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Switching + internal power of combinational cells and flop data
    /// pins.
    pub switching_mw: f64,
    /// Clock-tree and clock-pin power.
    pub clock_mw: f64,
    /// SRAM macro access power.
    pub sram_mw: f64,
    /// Static leakage.
    pub leakage_mw: f64,
}

impl PowerBreakdown {
    /// Sum of all terms.
    pub fn total_mw(&self) -> f64 {
        self.switching_mw + self.clock_mw + self.sram_mw + self.leakage_mw
    }

    fn add(&mut self, other: &PowerBreakdown) {
        self.switching_mw += other.switching_mw;
        self.clock_mw += other.clock_mw;
        self.sram_mw += other.sram_mw;
        self.leakage_mw += other.leakage_mw;
    }
}

/// A power report for one measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    cycles: u64,
    by_region: BTreeMap<String, PowerBreakdown>,
}

impl PowerReport {
    /// The number of cycles the activity covered.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total average power in mW.
    pub fn total_mw(&self) -> f64 {
        self.by_region.values().map(PowerBreakdown::total_mw).sum()
    }

    /// The whole-design breakdown.
    pub fn breakdown(&self) -> PowerBreakdown {
        let mut acc = PowerBreakdown::default();
        for b in self.by_region.values() {
            acc.add(b);
        }
        acc
    }

    /// Per-component breakdowns, keyed by region name.
    pub fn by_region(&self) -> &BTreeMap<String, PowerBreakdown> {
        &self.by_region
    }

    /// Power of one component in mW (zero if the region does not exist).
    pub fn region_mw(&self, region: &str) -> f64 {
        self.by_region
            .get(region)
            .map(PowerBreakdown::total_mw)
            .unwrap_or(0.0)
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "component", "switch mW", "clock mW", "sram mW", "leak mW", "total mW"
        )?;
        for (region, b) in &self.by_region {
            writeln!(
                f,
                "{:<24} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                region,
                b.switching_mw,
                b.clock_mw,
                b.sram_mw,
                b.leakage_mw,
                b.total_mw()
            )?;
        }
        let t = self.breakdown();
        writeln!(
            f,
            "{:<24} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            "TOTAL",
            t.switching_mw,
            t.clock_mw,
            t.sram_mw,
            t.leakage_mw,
            t.total_mw()
        )
    }
}

/// A compiled power model for one netlist at one clock frequency.
///
/// Construction precomputes the switching energy (including fanout
/// load) of every energy class; [`PowerAnalyzer::analyze`] is then one
/// multiply-add per class, so analysis time is independent of how many
/// cycles the activity window covered — the property §IV-E relies on.
#[derive(Debug, Clone)]
pub struct PowerAnalyzer {
    /// The energy classes, as [`ClassMap::classes`] orders them.
    classes: Vec<EnergyClass>,
    /// Per class: energy per toggle in fJ.
    class_energy_fj: Vec<f64>,
    /// Per region: leakage power in nW.
    region_leakage_nw: Vec<f64>,
    /// Per region: clock energy per cycle in fJ.
    region_clock_fj: Vec<f64>,
    /// Per SRAM: (read energy fJ, write energy fJ, region index).
    sram_energy: Vec<(f64, f64, u32)>,
    regions: Vec<String>,
    freq_hz: f64,
}

impl PowerAnalyzer {
    /// Compiles the power model.
    pub fn new(netlist: &Netlist, lib: &CellLibrary, freq_hz: f64) -> Self {
        let n_regions = netlist.regions().len();
        let mut region_leakage_nw = vec![0.0; n_regions];
        let mut region_clock_fj = vec![0.0; n_regions];

        let classes = ClassMap::new(netlist).classes().to_vec();
        let class_energy_fj = classes
            .iter()
            .map(|c| lib.switching_energy_fj(c.kind, c.fanout as usize))
            .collect();
        for g in netlist.gates() {
            let region = g.region();
            region_leakage_nw[region as usize] += lib.cell(g.kind()).leakage_nw;
            if matches!(g, Gate::Dff { .. }) {
                region_clock_fj[region as usize] += lib.clock_energy_per_dff_fj();
            }
        }

        let mut sram_energy = Vec::with_capacity(netlist.srams().len());
        for s in netlist.srams() {
            // Access energy grows with bitline/wordline length: scale by
            // sqrt(depth) relative to a 4096-entry reference array, floored
            // so tiny queue arrays still cost something.
            let depth_scale = ((s.depth as f64) / 4096.0).sqrt().max(0.05);
            let read = lib.sram_read_energy_per_bit_fj * f64::from(s.width) * depth_scale;
            let write = lib.sram_write_energy_per_bit_fj * f64::from(s.width) * depth_scale;
            sram_energy.push((read, write, s.region));
            region_leakage_nw[s.region as usize] +=
                lib.sram_leakage_per_bit_nw * s.capacity_bits() as f64;
        }

        PowerAnalyzer {
            classes,
            class_energy_fj,
            region_leakage_nw,
            region_clock_fj,
            sram_energy,
            regions: netlist.regions().to_vec(),
            freq_hz,
        }
    }

    /// The clock frequency the model was compiled for, in Hz.
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    /// The energy classes an activity report must count by, in order:
    /// [`ClassMap::new`]'s for the netlist the model was compiled from.
    pub fn classes(&self) -> &[EnergyClass] {
        &self.classes
    }

    /// Computes average power over the activity window.
    ///
    /// # Panics
    ///
    /// Panics if the activity report comes from a different netlist (shape
    /// mismatch) or covers zero cycles.
    pub fn analyze(&self, activity: &ActivityReport) -> PowerReport {
        assert!(activity.cycles() > 0, "activity window is empty");
        assert!(
            self.sram_energy.len() == activity.sram_accesses().len()
                && self.classes.len() == activity.class_toggles().len(),
            "activity report is from a different netlist"
        );
        let cycles = activity.cycles() as f64;
        let window_s = cycles / self.freq_hz;

        let mut region_energy_fj = vec![0.0f64; self.regions.len()];
        let priced = self.classes.iter().zip(&self.class_energy_fj);
        for ((class, energy), &toggles) in priced.zip(activity.class_toggles()) {
            region_energy_fj[class.region as usize] += toggles as f64 * energy;
        }

        let mut region_clock_fj_total = vec![0.0f64; self.regions.len()];
        for (r, e) in self.region_clock_fj.iter().enumerate() {
            region_clock_fj_total[r] = e * cycles;
        }

        let mut region_sram_fj = vec![0.0f64; self.regions.len()];
        for (&(read_fj, write_fj, region), &(reads, writes)) in
            self.sram_energy.iter().zip(activity.sram_accesses())
        {
            region_sram_fj[region as usize] += reads as f64 * read_fj + writes as f64 * write_fj;
        }

        let mut by_region = BTreeMap::new();
        for (r, name) in self.regions.iter().enumerate() {
            // fJ over the window → mW: 1 fJ = 1e-15 J; mW = 1e3 · J/s.
            let to_mw = 1e-15 / window_s * 1e3;
            let b = PowerBreakdown {
                switching_mw: region_energy_fj[r] * to_mw,
                clock_mw: region_clock_fj_total[r] * to_mw,
                sram_mw: region_sram_fj[r] * to_mw,
                leakage_mw: self.region_leakage_nw[r] * 1e-6,
            };
            if b.total_mw() > 0.0 {
                by_region.insert(name.clone(), b);
            }
        }

        PowerReport {
            cycles: activity.cycles(),
            by_region,
        }
    }

    /// Computes average power for a batch of activity windows — one
    /// report per window, in order.
    ///
    /// This is the lane-aware entry point for the bit-parallel replay
    /// path: [`strober_gatesim::BatchSim::activities`] yields one
    /// [`ActivityReport`] per bit-lane (each shaped exactly like a
    /// single replay's), and this method prices them against the one
    /// compiled energy model. Because lane activity counts are exact
    /// integers, the per-lane reports are bit-identical to analyzing each
    /// lane's replay on its own.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PowerAnalyzer::analyze`],
    /// for any window in the batch.
    pub fn analyze_all(&self, activities: &[ActivityReport]) -> Vec<PowerReport> {
        activities.iter().map(|a| self.analyze(a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_dsl::Ctx;
    use strober_gatesim::{BatchSim, NaiveGateSim};
    use strober_rtl::Width;
    use strober_synth::{synthesize, SynthOptions};

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    fn counter_report(enabled: bool, cycles: u64) -> PowerReport {
        let ctx = Ctx::new("counter");
        let en = ctx.input("en", Width::BIT);
        let count = ctx.scope("core", |c| c.reg("count", w(16), 0));
        count.set_en(&count.out().add_lit(1), &en);
        ctx.output("value", &count.out());
        let synth = synthesize(&ctx.finish().unwrap(), &SynthOptions::default()).unwrap();
        let mut sim = BatchSim::with_lanes(&synth.netlist, 1).unwrap();
        sim.poke_port_broadcast("en", u64::from(enabled)).unwrap();
        sim.step_n(cycles);
        let lib = CellLibrary::generic_45nm();
        PowerAnalyzer::new(&synth.netlist, &lib, 1.0e9).analyze(&sim.activity_lane(0).unwrap())
    }

    #[test]
    fn active_counter_burns_more_than_idle() {
        let active = counter_report(true, 512);
        let idle = counter_report(false, 512);
        assert!(active.total_mw() > idle.total_mw());
        // Idle still pays clock + leakage.
        assert!(idle.total_mw() > 0.0);
        assert!(idle.breakdown().clock_mw > 0.0);
        assert!(idle.breakdown().leakage_mw > 0.0);
        assert_eq!(idle.breakdown().switching_mw, 0.0);
    }

    #[test]
    fn power_attributed_to_the_right_region() {
        let report = counter_report(true, 256);
        assert!(report.region_mw("core") > 0.0);
        assert_eq!(report.region_mw("nonexistent"), 0.0);
    }

    #[test]
    fn average_power_is_window_invariant_for_steady_activity() {
        // A free-running counter has steady activity, so power over 256
        // cycles ≈ power over 1024 cycles.
        let a = counter_report(true, 256);
        let b = counter_report(true, 1024);
        let rel = (a.total_mw() - b.total_mw()).abs() / b.total_mw();
        assert!(rel < 0.05, "power not window-invariant: {rel}");
    }

    #[test]
    fn sram_power_counts_accesses() {
        let ctx = Ctx::new("ram");
        let m = ctx.scope("dcache", |c| c.mem("data", w(32), 64));
        let addr = ctx.input("addr", w(6));
        let data = ctx.input("data", w(32));
        let we = ctx.input("we", Width::BIT);
        ctx.output("q", &m.read(&addr));
        m.write(&addr, &data, &we);
        let synth = synthesize(&ctx.finish().unwrap(), &SynthOptions::default()).unwrap();
        let lib = CellLibrary::generic_45nm();
        let analyzer = PowerAnalyzer::new(&synth.netlist, &lib, 1.0e9);

        let mut busy = BatchSim::with_lanes(&synth.netlist, 1).unwrap();
        busy.poke_port_broadcast("we", 1).unwrap();
        for i in 0..256u64 {
            busy.poke_port_broadcast("addr", i % 64).unwrap();
            busy.poke_port_broadcast("data", i).unwrap();
            busy.step();
        }
        let busy_power = analyzer.analyze(&busy.activity_lane(0).unwrap());

        let mut quiet = BatchSim::with_lanes(&synth.netlist, 1).unwrap();
        quiet.poke_port_broadcast("we", 0).unwrap();
        quiet.poke_port_broadcast("addr", 1).unwrap();
        quiet.step_n(256);
        let quiet_power = analyzer.analyze(&quiet.activity_lane(0).unwrap());

        assert!(busy_power.breakdown().sram_mw > 10.0 * quiet_power.breakdown().sram_mw);
        assert!(busy_power.region_mw("dcache") > quiet_power.region_mw("dcache"));
    }

    #[test]
    fn batched_lanes_price_identically_to_scalar_replays() {
        let ctx = Ctx::new("counter");
        let en = ctx.input("en", Width::BIT);
        let count = ctx.scope("core", |c| c.reg("count", w(16), 0));
        count.set_en(&count.out().add_lit(1), &en);
        ctx.output("value", &count.out());
        let synth = synthesize(&ctx.finish().unwrap(), &SynthOptions::default()).unwrap();
        let lib = CellLibrary::generic_45nm();
        let analyzer = PowerAnalyzer::new(&synth.netlist, &lib, 1.0e9);

        // Lane 0 active, lane 1 idle; expect exact equality with two
        // runs of the reference engine because activity counts are
        // integers.
        let mut batch = BatchSim::with_lanes(&synth.netlist, 2).unwrap();
        batch.poke_port_lanes("en", &[1, 0]).unwrap();
        batch.step_n(512);
        let reports = analyzer.analyze_all(&batch.activities());

        for (lane, enabled) in [true, false].into_iter().enumerate() {
            let mut sim = NaiveGateSim::new(&synth.netlist).unwrap();
            sim.poke_port("en", u64::from(enabled)).unwrap();
            sim.step_n(512);
            assert_eq!(reports[lane], analyzer.analyze(&sim.activity()));
        }
        assert!(reports[0].total_mw() > reports[1].total_mw());
    }

    #[test]
    fn display_renders_a_table() {
        let report = counter_report(true, 64);
        let text = report.to_string();
        assert!(text.contains("TOTAL"));
        assert!(text.contains("component"));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_window_rejected() {
        let ctx = Ctx::new("t");
        let r = ctx.reg("r", w(4), 0);
        r.set(&r.out());
        ctx.output("o", &r.out());
        let synth = synthesize(&ctx.finish().unwrap(), &SynthOptions::default()).unwrap();
        let sim = NaiveGateSim::new(&synth.netlist).unwrap();
        let lib = CellLibrary::generic_45nm();
        let _ = PowerAnalyzer::new(&synth.netlist, &lib, 1.0e9).analyze(&sim.activity());
    }
}
