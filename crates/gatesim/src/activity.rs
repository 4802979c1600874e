//! The activity report — our switching activity interchange format (SAIF).

/// Toggle counts per energy class and access counts per SRAM macro over
/// a measurement window, as a power analysis tool consumes them.
///
/// The paper's flow writes SAIF files from gate-level simulation and feeds
/// them to PrimeTime PX (§IV-C); this struct is that file, aggregated one
/// step further: a power model prices every net of a class alike
/// ([`crate::ClassMap`]), so the report carries one count per class, not
/// per net. Because each snapshot replay is a fixed number of cycles and
/// SAIF stores aggregate activity, "the power analysis time is independent
/// of the length of each sample snapshot" (§IV-E) — the same property
/// holds here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityReport {
    cycles: u64,
    class_toggles: Vec<u64>,
    sram_accesses: Vec<(u64, u64)>,
}

impl ActivityReport {
    /// Assembles a report.
    pub fn new(cycles: u64, class_toggles: Vec<u64>, sram_accesses: Vec<(u64, u64)>) -> Self {
        ActivityReport {
            cycles,
            class_toggles,
            sram_accesses,
        }
    }

    /// The number of cycles in the measurement window.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Toggles per energy class, indexed like [`crate::ClassMap::classes`].
    pub fn class_toggles(&self) -> &[u64] {
        &self.class_toggles
    }

    /// Total toggles over all nets.
    pub fn total_toggles(&self) -> u64 {
        self.class_toggles.iter().sum()
    }

    /// `(reads, writes)` per SRAM macro, in netlist declaration order.
    pub fn sram_accesses(&self) -> &[(u64, u64)] {
        &self.sram_accesses
    }
}
