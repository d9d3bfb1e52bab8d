//! `hvft-sim` — deterministic discrete-event simulation substrate.
//!
//! This crate provides the foundation every other `hvft` crate builds on:
//!
//! - [`time`]: integer-nanosecond simulated time ([`time::SimTime`],
//!   [`time::SimDuration`]) in which all of the paper's constants are exact;
//! - [`sched`]: the shared scheduler kernel — a deterministic
//!   [`sched::Scheduler`] over [`sched::Component`]s with FIFO
//!   tie-breaking, the [`sched::Agenda`] event-source arbiter, and the
//!   conservative-lookahead budget rule every driver in `hvft-core`
//!   runs on;
//! - [`pool`]: a persistent work-stealing worker pool ([`pool::WorkPool`])
//!   for off-thread guest-slice execution — per-worker deques with
//!   stealing, parked idle workers, reused across runs;
//! - [`rng`]: seeded, fork-able pseudo-randomness so "non-deterministic"
//!   hardware behaviour (TLB replacement, transient device faults) is
//!   reproducible;
//! - [`stats`]: the fixed-bucket [`stats::DurationHistogram`] behind the
//!   run report's operation-latency profile.
//!
//! The *shape* of every co-simulation loop lives here in [`sched`]; the
//! drivers in `hvft-core` supply what only they know — the event sources
//! and the lookahead (minimum network latency) that make conservative
//! synchronization safe — and the kernel owns the ordering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use pool::{PoolStats, WorkPool};
pub use rng::SimRng;
pub use sched::{Agenda, Component, Scheduler};
pub use stats::DurationHistogram;
pub use time::{SimDuration, SimTime};
