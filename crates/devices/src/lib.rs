//! `hvft-devices` — the simulated I/O environment.
//!
//! The paper's environment is a SCSI disk shared between the two
//! processors plus a remote console. Devices satisfy the §2.2 interface
//! contract (IO1 completion interrupts, IO2 uncertain interrupts with
//! ambiguous effect) and keep environment-visible logs so the test suite
//! can check that failovers are invisible to the outside world
//! ([`environment_equivalent`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod console;
pub mod disk;
pub mod environment;
pub mod mmio;

pub use console::{Console, ConsoleEvent};
pub use disk::{
    check_single_processor_consistency, Disk, DiskCommand, DiskError, DiskLogEntry, DiskSnapshot,
    DiskStatus, BLOCK_SIZE,
};
pub use environment::{environment_equivalent, Environment};
