//! `hvft-net` — the coordination network between the hypervisors.
//!
//! Provides the FIFO links the §2 protocols assume as one medium model,
//! [`lan::Lan`], parameterized by a [`link::LinkSpec`] performance model
//! (10 Mbps Ethernet as in the prototype, or the 155 Mbps ATM of §4.3),
//! plus the timeout [`detector::FailureDetector`] that realizes the
//! failstop detection assumption:
//!
//! - [`lan`] — directed FIFO links with per-link loss/sever injection,
//!   either each on a medium of its own (one fault-tolerant system's
//!   private network, [`lan::Lan::point_to_point`]) or all on one
//!   shared medium with bandwidth contention (many systems on one
//!   wire, [`lan::Lan::new`]);
//! - [`reliable`] — sequence-numbered frames with cumulative
//!   acknowledgments, per-link retransmit timers and duplicate
//!   suppression, so protocol messages survive a network that "can
//!   lose messages" (§4.3).
//!
//! [`transport::InstantLink`] is the untimed medium of the
//! round-synchronous chain driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod lan;
pub mod link;
pub mod reliable;
pub mod transport;

pub use detector::FailureDetector;
pub use lan::{Lan, LanStats, NodeId};
pub use link::LinkSpec;
pub use reliable::{Frame, Outgoing, RecvWindow, SendWindow};
pub use transport::InstantLink;
