//! `hvft-net` — the coordination network between the hypervisors.
//!
//! Provides the FIFO channel abstraction the §2 protocols assume,
//! parameterized by a [`link::LinkSpec`] performance model (10 Mbps
//! Ethernet as in the prototype, or the 155 Mbps ATM of §4.3), plus the
//! timeout [`detector::FailureDetector`] that realizes the failstop
//! detection assumption.
//!
//! Two further layers extend the model to the paper's lossy-network
//! setting (§4.3) and to many fault-tolerant systems on one wire:
//!
//! - [`reliable`] — sequence-numbered frames with cumulative
//!   acknowledgments, per-link retransmit timers and duplicate
//!   suppression, so protocol messages survive a network that "can
//!   lose messages";
//! - [`lan`] — a shared-medium [`lan::Lan`] multiplexing many directed
//!   links over one [`link::LinkSpec`], with bandwidth contention and
//!   per-link loss/sever injection.
//!
//! [`transport::InstantLink`] is the untimed medium of the
//! round-synchronous chain driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod detector;
pub mod lan;
pub mod link;
pub mod reliable;
pub mod transport;

pub use channel::{Channel, ChannelStats};
pub use detector::FailureDetector;
pub use lan::{Lan, LanStats, NodeId};
pub use link::LinkSpec;
pub use reliable::{Frame, Outgoing, RecvWindow, SendWindow};
pub use transport::InstantLink;
