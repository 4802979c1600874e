//! Shared harness code for the experiment binaries and Criterion benches.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (see DESIGN.md §3 for the index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table2` | Table II — processor parameters |
//! | `table3` | Table III — simulation performance with/without sampling |
//! | `table4` | Table IV — simulated/replayed cycles and coverage |
//! | `fig7`   | Fig. 7 — DRAM timing model validation (pointer chase) |
//! | `fig8`   | Fig. 8 — theoretical error bounds vs. actual errors |
//! | `fig9`   | Fig. 9a/9b — power breakdown, CPI and EPI per core |
//! | `fig10`  | Fig. 10 — CPI over time with snapshot timestamps |
//! | `perf_model` | §IV-E worked example and speedup claims |
//! | `speedup` | measured simulator-speed ladder on this machine |
//!
//! Absolute numbers differ from the paper (our substrate is a software
//! simulation of the platform, not a zc706 + TSMC 45 nm flow); the
//! *shapes* — who wins, by what rough factor, where the crossovers sit —
//! are the reproduction targets. EXPERIMENTS.md records paper-vs-measured
//! for every row.

use strober_cores::CoreConfig;
use strober_isa::{assemble, programs};
use strober_rtl::Design;

/// Memory size every workload assumes.
pub const MEM_BYTES: usize = programs::MEM_BYTES;

/// The scaled workload suite used across the experiment binaries.
///
/// The paper's benchmark lengths (Table III/IV) are scaled down so that
/// full gate-level reference runs finish in minutes; relative lengths
/// between benchmarks are kept roughly faithful to Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// vvadd (Table IV: 200 521 cycles).
    Vvadd,
    /// towers (Table IV: 410 752 cycles).
    Towers,
    /// dhrystone (Table IV: 396 790 cycles).
    Dhrystone,
    /// qsort (Table IV: 187 160 cycles).
    Qsort,
    /// spmv (Table IV: 927 144 cycles).
    Spmv,
    /// dgemm (Table IV: 1 833 075 cycles).
    Dgemm,
    /// CoreMark (case study).
    Coremark,
    /// Linux boot (case study).
    LinuxBoot,
    /// 403.gcc (case study).
    Gcc,
}

impl Workload {
    /// The six microbenchmarks of Table IV / Fig. 8.
    pub const MICRO: [Workload; 6] = [
        Workload::Vvadd,
        Workload::Towers,
        Workload::Dhrystone,
        Workload::Qsort,
        Workload::Spmv,
        Workload::Dgemm,
    ];

    /// The three case-study workloads of Table III / Fig. 9.
    pub const CASE_STUDY: [Workload; 3] = [Workload::Coremark, Workload::LinuxBoot, Workload::Gcc];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Vvadd => "vvadd",
            Workload::Towers => "towers",
            Workload::Dhrystone => "dhrystone",
            Workload::Qsort => "qsort",
            Workload::Spmv => "spmv",
            Workload::Dgemm => "dgemm",
            Workload::Coremark => "coremark",
            Workload::LinuxBoot => "linux-boot",
            Workload::Gcc => "gcc",
        }
    }

    /// The scaled assembly source.
    pub fn source(self) -> String {
        match self {
            Workload::Vvadd => programs::vvadd(640),
            Workload::Towers => programs::towers(14),
            Workload::Dhrystone => programs::dhrystone(2800),
            Workload::Qsort => programs::qsort(768),
            Workload::Spmv => programs::spmv(256, 12),
            Workload::Dgemm => programs::dgemm(36),
            Workload::Coremark => programs::coremark_like(60),
            Workload::LinuxBoot => programs::linux_boot_like(16, 1500),
            Workload::Gcc => programs::gcc_like(40_000, 2048),
        }
    }

    /// Assembled image.
    ///
    /// # Panics
    ///
    /// Panics if the bundled program fails to assemble (a library bug).
    pub fn image(self) -> Vec<u32> {
        assemble(&self.source())
            .expect("bundled workload assembles")
            .words
    }
}

/// Builds the three Table II cores.
pub fn table2_cores() -> Vec<(CoreConfig, Design)> {
    CoreConfig::table2()
        .into_iter()
        .map(|c| {
            let d = strober_cores::build_core(&c);
            (c, d)
        })
        .collect()
}

/// Synthetic workloads for measuring the disabled-recorder overhead of
/// `strober-probe` instrumentation (see `benches/probe_overhead.rs` and
/// the asserting smoke check in `tests/probe_overhead.rs`).
pub mod overhead {
    /// One unit of deterministic CPU work (~a few hundred nanoseconds of
    /// integer mixing), sized so a single disabled probe call per unit is
    /// well under the 2% overhead budget while still being fine-grained
    /// enough to notice a recorder that stopped being cheap.
    #[inline(never)]
    pub fn work_chunk(seed: u64) -> u64 {
        let mut x = seed | 1;
        for _ in 0..1_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x ^= x >> 29;
        }
        x
    }

    /// The bare workload: `iters` chunks, no instrumentation.
    pub fn run_plain(iters: u64) -> u64 {
        (0..iters).map(work_chunk).fold(0u64, u64::wrapping_add)
    }

    /// The same workload with one span, one counter update and one
    /// *labeled* counter update per chunk — the densest instrumentation
    /// anywhere in the flow, dimensional series included. With the
    /// recorder disabled each probe call is a single relaxed atomic
    /// load; the labeled call in particular must not render or allocate
    /// its series key when disabled.
    pub fn run_probed(iters: u64) -> u64 {
        let labels = strober_probe::Labels::new().phase("bench");
        (0..iters)
            .map(|i| {
                let _span = strober_probe::span("strober.bench.overhead");
                strober_probe::counter_add("strober.bench.overhead_chunks", 1);
                strober_probe::counter_add_labeled("strober.bench.overhead_labeled", &labels, 1);
                work_chunk(i)
            })
            .fold(0u64, u64::wrapping_add)
    }
}

/// Formats a number with thousands separators for table output.
pub fn fmt_u64(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_assemble() {
        for w in Workload::MICRO.iter().chain(&Workload::CASE_STUDY) {
            let img = w.image();
            assert!(!img.is_empty(), "{}", w.name());
        }
    }

    #[test]
    fn fmt_u64_groups_digits() {
        assert_eq!(fmt_u64(0), "0");
        assert_eq!(fmt_u64(999), "999");
        assert_eq!(fmt_u64(1000), "1,000");
        assert_eq!(fmt_u64(1234567), "1,234,567");
    }
}
