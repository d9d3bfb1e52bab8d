//! `hvft-machine` — the virtual hardware of the hvft system.
//!
//! This crate implements a deterministic 32-bit RISC processor with the
//! PA-RISC features the paper depends on:
//!
//! - four privilege levels with the leaky `jal`/`probe`/`gate` semantics
//!   that make naive virtualization detectable (paper §3.1);
//! - a software-managed [`tlb::Tlb`] whose replacement policy can be made
//!   **non-deterministic**, reproducing the HP 9000/720 behaviour that
//!   violated the Ordinary Instruction Assumption (paper §3.2);
//! - a **recovery counter** that traps after a programmed number of
//!   retired instructions, the mechanism behind the Instruction-Stream
//!   Interrupt Assumption (paper §2.1);
//! - memory-mapped I/O windows that force device access through the
//!   embedder ([`cpu::Exit::MmioRead`]/[`cpu::Exit::MmioWrite`]);
//! - environment instructions (clock, timer) reported as [`cpu::Exit::Env`]
//!   so the hypervisor can simulate them identically on both replicas.
//!
//! The CPU is policy-free: bare-metal behaviour and hypervised behaviour
//! are both implemented in `hvft-hypervisor` on top of [`cpu::Cpu::step`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod exec;
pub mod hash;
pub mod jit;
pub mod mem;
pub mod psw;
pub mod snapshot;
pub mod statehash;
pub mod tlb;
pub mod trap;

pub use cpu::{Assist, Cpu, EnvOp, Exit, LoadProgram, Resume};
pub use exec::{ExecStats, ExecTier};
pub use mem::{MemFault, Memory, IO_BASE, IO_SIZE, PAGE_SHIFT, PAGE_SIZE};
pub use psw::Psw;
pub use snapshot::{CpuSnapshot, MemSnapshot, TlbSnapshot};
pub use statehash::{vm_state_hash, vm_state_hash_from_scratch};
pub use tlb::{pte, Tlb, TlbAccess, TlbEntry, TlbReplacement, TlbResult};
pub use trap::{irq, Trap};
