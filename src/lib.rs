//! **hvft** — Hypervisor-based Fault-tolerance, reproduced in Rust.
//!
//! This workspace reproduces Bressoud & Schneider, *Hypervisor-based
//! Fault-tolerance* (SOSP 1995): a primary virtual machine and its
//! backup execute identical instruction streams on two (simulated)
//! processors, coordinated entirely by the hypervisor, so that the
//! environment never notices the primary failing.
//!
//! The crate is an umbrella that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `hvft-core` | [`core::protocol`]: the P1–P7/§4.3 rules as pure engines; [`core::FtSystem`]: the t-replica DES driver; [`core::TChain`]: the round-synchronous chain on the same engines; [`core::FtCluster`]: N systems sharded over one shared LAN |
//! | [`hypervisor`] | `hvft-hypervisor` | the hypervisor and bare machine; [`hypervisor::guest_iface::GuestCtl`], the narrow guest surface the protocols touch |
//! | [`machine`] | `hvft-machine` | CPU, MMU/TLB, recovery counter |
//! | [`isa`] | `hvft-isa` | instruction set and assembler |
//! | [`guest`] | `hvft-guest` | the mini guest OS and workloads |
//! | [`lang`] | `hvft-lang` | the hvft-lang workload compiler, reference interpreter, and random-program generator |
//! | [`devices`] | `hvft-devices` | shared disk (IO1/IO2), console |
//! | [`net`] | `hvft-net` | link models, timed FIFO channels and the shared-medium [`net::lan::Lan`], the chain's [`net::transport::InstantLink`], the failure detector, and the [`net::reliable`] ack/retransmission layer |
//! | [`sim`] | `hvft-sim` | time, event agenda, pool, RNG, histogram |
//! | [`model`] | `hvft-model` | the paper's analytic NP models |
//!
//! # Quickstart
//!
//! ```
//! use hvft::core::scenario::Scenario;
//! use hvft::guest::workload::Dhrystone;
//!
//! let report = Scenario::builder()
//!     .workload(Dhrystone { iters: 100, ..Default::default() })
//!     .build()
//!     .expect("valid configuration")
//!     .run();
//! assert!(report.exit.is_clean_exit());
//! assert!(report.lockstep_clean);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hvft_core as core;
pub use hvft_devices as devices;
pub use hvft_guest as guest;
pub use hvft_hypervisor as hypervisor;
pub use hvft_isa as isa;
pub use hvft_lang as lang;
pub use hvft_machine as machine;
pub use hvft_model as model;
pub use hvft_net as net;
pub use hvft_sim as sim;
