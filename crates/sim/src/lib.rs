//! `hvft-sim` — deterministic discrete-event simulation substrate.
//!
//! This crate provides the foundation every other `hvft` crate builds on:
//!
//! - [`time`]: integer-nanosecond simulated time ([`time::SimTime`],
//!   [`time::SimDuration`]) in which all of the paper's constants are exact;
//! - [`sched`]: the [`sched::Agenda`] event-source arbiter — earliest
//!   first, first-offered wins ties — that `hvft-core`'s discrete-event
//!   driver takes its next event from (the loop itself lives with the
//!   driver, which knows the event sources and the lookahead);
//! - [`pool`]: a persistent work-stealing worker pool ([`pool::WorkPool`]),
//!   kept only for the repository benchmark, which still names it (no
//!   simulation runs on it);
//! - [`rng`]: seeded, fork-able pseudo-randomness so "non-deterministic"
//!   hardware behaviour (TLB replacement, transient device faults) is
//!   reproducible;
//! - [`stats`]: the fixed-bucket [`stats::DurationHistogram`] behind the
//!   run report's operation-latency profile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use pool::{PoolStats, WorkPool};
pub use rng::SimRng;
pub use sched::Agenda;
pub use stats::DurationHistogram;
pub use time::{SimDuration, SimTime};
