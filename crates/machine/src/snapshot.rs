//! Whole-machine snapshot types.
//!
//! A snapshot captures exactly the **canonical** machine state — the
//! state a real processor would have to preserve across a power cycle
//! for execution to continue bit-identically:
//!
//! - every general-purpose and control register, the PC, the PSW and
//!   the retirement counter ([`CpuSnapshot`]);
//! - RAM contents *and* the per-page write generations
//!   ([`MemSnapshot`]);
//! - the TLB slot-by-slot, including the replacement cursor and the
//!   replacement RNG state, plus the hit/miss counters
//!   ([`TlbSnapshot`]).
//!
//! **Derived** state is deliberately absent: the JIT superblock cache,
//! the TLB front cache and `Memory`'s state-digest cache (line marks
//! and line terms), code generations and decoded-byte extents are all rebuilt from
//! scratch after a restore. They are pure accelerations of the
//! canonical state, so dropping them changes *when* recompilation (or
//! rehashing) happens but never *what* the machine computes or what
//! [`vm_state_hash`](crate::statehash::vm_state_hash) returns — the
//! snapshot proptests (`tests/proptest_snapshot.rs`) pin this down
//! on both execution tiers. The digest cache *must* go: its terms
//! describe this machine's old bytes, and a restore installs another
//! machine's bytes (and generations) wholesale, so it marks every line.
//! Per-tier retirement attribution in
//! [`ExecStats`] is carried through so reports stay continuous, even
//! though the caches behind it are not.
//!
//! Snapshot fields are crate-private: a snapshot can only be produced
//! by [`Cpu::snapshot`], [`Memory::snapshot`] and
//! [`Tlb::snapshot_state`], which keeps impossible states (an indexed
//! slot that is empty, a retirement count behind the epoch start)
//! unrepresentable from outside.
//!
//! [`Cpu::snapshot`]: crate::cpu::Cpu::snapshot
//! [`Memory::snapshot`]: crate::mem::Memory::snapshot
//! [`Tlb::snapshot_state`]: crate::tlb::Tlb::snapshot_state

use crate::exec::{ExecStats, ExecTier};
use crate::psw::Psw;
use crate::tlb::{TlbEntry, TlbReplacement};
use hvft_sim::rng::SimRng;

/// Slot-exact TLB state (entries in their physical slots, replacement
/// cursor, replacement RNG, hit/miss counters). The lookup index and
/// the front cache are derived and rebuilt on restore.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TlbSnapshot {
    pub(crate) entries: Vec<Option<TlbEntry>>,
    pub(crate) policy: TlbReplacement,
    pub(crate) rr_next: usize,
    pub(crate) rng: SimRng,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl TlbSnapshot {
    /// Number of valid entries captured (for reports and tests).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

/// Architectural CPU state: registers, PC, PSW, control registers,
/// retirement counter, the selected execution tier with its cumulative
/// counters, and the TLB. The block and superblock caches are derived
/// and start cold after a restore.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CpuSnapshot {
    pub(crate) regs: [u32; 32],
    pub(crate) pc: u32,
    pub(crate) psw: Psw,
    pub(crate) ctl: [u32; 10],
    pub(crate) retired: u64,
    pub(crate) tier: ExecTier,
    pub(crate) exec_stats: ExecStats,
    pub(crate) tlb: TlbSnapshot,
}

impl CpuSnapshot {
    /// Retirement count at the moment of capture.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Execution tier the CPU was using when captured.
    pub fn tier(&self) -> ExecTier {
        self.tier
    }
}

/// Physical memory: RAM bytes plus the per-page write generations,
/// preserved verbatim. The state-digest cache is derived and not
/// captured, and neither is what the
/// code caches compare (`Memory`'s code generations and decoded-byte
/// extents).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MemSnapshot {
    pub(crate) ram: Vec<u8>,
    pub(crate) page_gens: Vec<u64>,
}

impl MemSnapshot {
    /// RAM size captured, in bytes.
    pub fn ram_bytes(&self) -> usize {
        self.ram.len()
    }
}
