//! Differential fuzzing for the Strober reproduction.
//!
//! The workspace carries six semantically-equivalent ways to execute a
//! design — the naive RTL interpreter, the compiled op tape (interpreted
//! and native), the FAME1-transformed hub, the naive gate-level
//! evaluator, and the 64-lane bit-parallel batch engine — plus the full
//! sample→snapshot→replay pipeline built on top of them. The paper's
//! methodology (§III-C) rests on those paths agreeing *bit-for-bit*: any
//! silent divergence corrupts every downstream energy number.
//!
//! This crate turns that invariant into an executable oracle:
//!
//! * [`genome`] — a serializable, totally-interpretable design recipe
//!   (every edit still builds, which the shrinker depends on);
//! * [`oracle`] — the N-way agreement check over outputs, architectural
//!   state, toggle counts, and power totals;
//! * [`mod@shrink`] — greedy structural minimization of a diverging genome;
//! * [`corpus`] — checked-in reproducers replayed forever by the
//!   regression suite;
//! * [`driver`] — the `strober fuzz` campaign loop.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod corpus;
pub mod driver;
pub mod genome;
pub mod oracle;
pub mod shrink;

pub use corpus::{load_corpus, write_reproducer, Reproducer, CORPUS_VERSION};
pub use driver::{
    config_for_seed, run_fuzz, run_fuzz_cancellable, FuzzFailure, FuzzOptions, FuzzOutcome,
};
pub use genome::{rand_genome, stimulus, Genome, MemGene, OpGene, RegGene};
pub use oracle::{check, inject_bug, reference_replay, Divergence, InjectedBug, OracleConfig};
pub use shrink::{shrink, Shrunk};
