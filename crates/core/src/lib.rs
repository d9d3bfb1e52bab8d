//! `hvft-core` — hypervisor-based fault tolerance: the paper's primary
//! contribution.
//!
//! This crate implements the replica-coordination protocols of
//! Bressoud & Schneider, *Hypervisor-based Fault-tolerance* (SOSP 1995):
//! a primary virtual machine and its backups execute identical
//! instruction streams on simulated processors, coordinated only by the
//! hypervisor (rules P1–P7 of §2, plus the §4.3 revision), so that the
//! environment never observes a primary's failure.
//!
//! The crate is layered the way the paper argues the problem decomposes:
//!
//! - [`protocol`] — the P1–P7 / §4.3 rules as *pure state machines*
//!   ([`protocol::ReplicaEngine`]): one input in, its effects out, no
//!   knowledge of scheduling, channels, or devices. This is the only
//!   place the rules exist.
//! - [`system`] — [`system::FtSystem`], the realistic discrete-event
//!   driver: `t + 1` hosts with their own clocks, modelled link timing,
//!   a shared disk and console, timeout failure detectors, and
//!   cascading failover.
//! - [`chain`] — [`chain::TChain`], the round-synchronous t-fault chain
//!   on instantaneous links; same engines, different machinery.
//! - [`cluster`] — [`cluster::FtCluster`], `N` systems contending for
//!   one shared `Lan`, co-simulated on one schedule on the calling
//!   thread.
//! - [`messages`], [`config`], [`lockstep`] — the wire vocabulary, the
//!   knobs, and the `n`-replica divergence checker.
//! - [`scenario`], [`observer`] — the public front door: the typed,
//!   validating [`scenario::ScenarioBuilder`], the uniform
//!   [`scenario::RunReport`] every driver yields, and the
//!   [`observer::Observer`] hook API onto protocol events.
//!
//! Entry point: [`scenario::Scenario`]. Pick a workload (by name from
//! the `hvft-guest` registry, or by value), configure, run:
//!
//! ```
//! use hvft_core::scenario::Scenario;
//!
//! let report = Scenario::builder()
//!     .workload_named("dhrystone")
//!     .build()
//!     .expect("valid configuration")
//!     .run();
//! assert!(report.exit.is_clean_exit());
//! assert!(report.lockstep_clean);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod cluster;
pub mod config;
pub mod lockstep;
pub mod messages;
mod net;
pub mod observer;
mod plan;
pub mod protocol;
mod report;
pub mod scenario;
pub mod system;

pub use chain::TChain;
pub use cluster::FtCluster;
pub use config::{FtConfig, ProtocolVariant};
pub use lockstep::{Divergence, LockstepChecker};
pub use messages::{DiskCompletion, ForwardedInterrupt, Message};
pub use net::WireFrame;
pub use observer::{DropReason, Observer, RunStats};
pub use protocol::{Effect, Input, ReplicaEngine, ReplicaId};
pub use scenario::{
    ClusterScenario, ConfigError, Driver, ExitStatus, RunReport, Runner, Scenario, ScenarioBuilder,
};
pub use system::{FailoverInfo, FtSystem};
