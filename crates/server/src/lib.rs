//! Strober-as-a-service: a persistent estimation server.
//!
//! The one-shot CLI pays design preparation — FAME1 transform,
//! synthesis, formal matching, simulator lowering, gate-tape compilation
//! — on every invocation. This crate keeps all of that *hot in memory*
//! in a long-lived daemon: clients submit estimate/replay/fuzz jobs over
//! a socket, a worker pool schedules them by priority, and followed jobs
//! stream progress events back as they run. A second job against an
//! already-prepared design skips preparation and lowering entirely (the
//! `warm` provenance) and returns results bit-identical to the one-shot
//! flow — determinism is load-bearing, so serving is purely a caching
//! layer, never a semantic one.
//!
//! The pieces:
//!
//! * [`protocol`] — the typed [`Request`]/[`Response`]/[`Event`] schema.
//! * [`frame`] — length-prefixed JSON framing with typed errors.
//! * [`catalog`] — the design/workload catalog shared with the CLI.
//! * [`driver`] — the one spec→estimate sequence, run in-process by
//!   `strober estimate` and by every served estimate/replay job.
//! * [`server`] — the daemon: listeners, job queue, worker pool,
//!   graceful shutdown.
//! * [`client`] — a blocking client used by `strober submit`/`jobs`/
//!   `cancel`/`top` and the integration tests, with a [`WatchSession`]
//!   that mirrors the server's registry from incremental watch frames.
//!
//! Live telemetry rides the same connection: `Watch` subscriptions
//! stream labeled metric deltas at a client-chosen interval, `Scrape`
//! (and the optional HTTP `/metrics` listener) serve Prometheus text
//! exposition, and a flight-recorder ring keeps a bounded snapshot
//! history for post-hoc rate analysis.
//!
//! [`Request`]: protocol::Request
//! [`Response`]: protocol::Response
//! [`Event`]: protocol::Event

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod catalog;
pub mod client;
pub mod driver;
pub mod frame;
mod jobs;
pub mod protocol;
mod queue;
pub mod server;
pub mod signal;

pub use client::{Client, WatchSession};
pub use jobs::replay_fingerprint;
pub use server::{Server, ServerConfig, ServerHandle};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m` even if a thread panicked while holding it. A job that
/// panics on a worker is caught and failed, and the daemon must not fail
/// every later job on a poisoned lock. What these locks guard stays
/// valid at every step: the job table, queue, flow cache and connection
/// writers change by single inserts, removals and assignments, and the
/// artifact store reads a damaged index or object as a miss.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
