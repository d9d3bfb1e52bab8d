//! Execution tiers and the dispatcher state behind [`Cpu::run`].
//!
//! The CPU offers two observably identical ways to execute a budget of
//! instructions:
//!
//! - [`ExecTier::Step`] — the reference interpreter: one fetch,
//!   translate and decode per instruction ([`Cpu::step`] in a loop);
//! - [`ExecTier::Jit`] — threaded-code superblocks ([`crate::jit`]):
//!   hot code is compiled into chains of pre-specialized handler
//!   functions with operands resolved at compile time, entered when a
//!   compiled superblock exists; everywhere else (cold code, faults,
//!   undecodable starts) it *is* the reference interpreter, stepped to
//!   the next point a dispatch belongs at.
//!
//! "Observably identical" is load-bearing: the paper's protocols
//! (Bressoud & Schneider §2.1) require epoch boundaries and interrupt
//! delivery to land at *exact* retirement counts, so both tiers clamp
//! execution to `min(budget, rctr)` and report the same exits at the
//! same retirement counts with the same machine state. The differential
//! oracle in `tests/proptest_step_vs_block.rs` enforces this.
//!
//! [`Cpu::run`]: crate::cpu::Cpu::run
//! [`Cpu::step`]: crate::cpu::Cpu::step

use crate::jit::{Context, JitCache};
use core::fmt;
use std::str::FromStr;

/// Which engine [`Cpu::run`](crate::cpu::Cpu::run) uses to consume its
/// instruction budget.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ExecTier {
    /// Single-step reference interpreter (tier 0).
    Step,
    /// Threaded-code superblock JIT over the reference interpreter
    /// (tier 1, the default: the fastest tier on every workload the
    /// repo benchmark runs, and the one all of its timed passes use).
    #[default]
    Jit,
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecTier::Step => "step",
            ExecTier::Jit => "jit",
        })
    }
}

impl FromStr for ExecTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "step" => Ok(ExecTier::Step),
            "jit" => Ok(ExecTier::Jit),
            other => Err(format!(
                "unknown exec tier {other:?} (expected step or jit)"
            )),
        }
    }
}

/// Per-tier execution counters (for tests, benches and reports).
///
/// The retirement counters attribute instructions to the engine that
/// retired them *inside* [`Cpu::run`](crate::cpu::Cpu::run) — under
/// the jit, the ones its embedder completed from inside a frame
/// included; the few instructions the embedder completes from the run
/// loop's [`Assist::exit`](crate::cpu::Assist::exit) call or between
/// runs (MMIO completions, a hypervisor's emulation of what the step
/// loop trapped on) are counted in
/// [`Cpu::retired`](crate::cpu::Cpu::retired) but not attributed to a
/// tier, so the tier counters sum to slightly less than the total.
///
/// Every counter is a pure function of the sequence of `run` calls
/// (budgets and the embedder's answers included): reports carry them
/// and runs are compared on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired by the single-step loop: all of them under
    /// [`ExecTier::Step`], the cold ones under [`ExecTier::Jit`].
    pub step_retired: u64,
    /// Always zero: no engine increments it (the frozen benchmark sums
    /// the field, so it stays until its owner drops the reads).
    pub block_retired: u64,
    /// Instructions retired inside compiled superblocks, the ones an
    /// assist op handed to the embedder in-frame — or whose exit it
    /// served there — included.
    pub jit_retired: u64,
    /// Superblocks compiled (promotions and stale recompiles).
    pub superblocks_compiled: u64,
    /// Compiled superblocks found stale (self-modifying code or DMA)
    /// and recompiled or discarded.
    pub jit_invalidations: u64,
    /// Subset of `jit_invalidations` where the entry page was intact
    /// and only a *secondary* page of a cross-page trace had been
    /// written.
    pub jit_invalidations_secondary: u64,
    /// `jalr` executions inside superblocks that left their trace by
    /// one of its two return links: same target, same execution
    /// context, entered in-frame on two compares.
    pub ret_cache_hits: u64,
    /// `jalr` executions inside superblocks that left their trace and
    /// that neither return link answered (cold, a third target, or
    /// recorded in another context): they took the full lookup.
    pub ret_cache_misses: u64,
    /// Guarded returns that stayed in their trace: a callee's `jalr`
    /// the trace was compiled past, whose one compare found the return
    /// point the trace holds. Counted by neither of the two above.
    pub ret_inline: u64,
    /// Compiled superblocks whose trace crossed at least one page
    /// boundary (subset of `superblocks_compiled`).
    pub cross_page_superblocks: u64,
    /// Calls of [`Cpu::run`](crate::cpu::Cpu::run) /
    /// [`Cpu::run_with`](crate::cpu::Cpu::run_with).
    pub run_entries: u64,
    /// Turns of the jit tier's dispatcher loop: superblocks entered
    /// from outside a frame plus cold runs stepped.
    pub dispatches: u64,
    /// Times the superblock executor left one trace for the address
    /// the PC went to *without* leaving its frame — by a link, or
    /// translate, look the target up, hop or give up (a `jalr`'s
    /// return is counted by the two counters above instead). A hot loop
    /// that pays one of these per iteration still retires everything in
    /// the jit; only this count tells.
    pub chain_hops: u64,
    /// Subset of `chain_hops` that the exit's link answered: two
    /// compares, no translation, no lookup, no validation.
    pub link_hits: u64,
    /// Loads and stores inside superblocks that the data-page map
    /// answered: a tag compare and a bounds-checked access of RAM (for
    /// a store to a page that holds code, beside its decoded bytes).
    pub data_fast: u64,
    /// Loads and stores inside superblocks that took the full path
    /// (`access_load` / `access_store`): the first access to a page in a
    /// context, every fault, the I/O window, a store to a read-only
    /// page or over decoded code.
    pub data_slow: u64,
    /// Times the data-page map was emptied because the TLB's contents,
    /// some page's decoded code or the superblock cache moved. A PSW
    /// change alone — a trap into a handler and the `rfi` out of it —
    /// flushes nothing: the privilege and translation bits are in the
    /// map's tags.
    pub data_map_flushes: u64,
    /// Subset of `jit_retired`: instructions retired by fast-forwarding
    /// a poll loop — whole iterations of a spin known to repeat itself,
    /// retired in one step (see the jit's "Poll loops").
    pub spin_skipped: u64,
}

/// Dispatcher state owned by the CPU: the selected tier plus the
/// superblock cache. Kept in one boxed struct so
/// [`Cpu::run`](crate::cpu::Cpu::run) can lift it out of the CPU by
/// pointer while executing (superblocks are borrowed from the cache
/// while `execute` borrows the CPU) and put it back on the way out — an
/// embedder that emulates a trap and re-enters pays no allocation and
/// no copy for it.
#[derive(Debug, Default)]
pub struct ExecDispatcher {
    pub(crate) tier: ExecTier,
    pub(crate) jit: JitCache,
    /// What the jit derived from the execution context it last ran in
    /// (the data-page map, the stamp its links are recorded under).
    pub(crate) context: Context,
    pub(crate) stats: ExecStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip_and_an_unknown_one_lists_them() {
        for tier in [ExecTier::Step, ExecTier::Jit] {
            assert_eq!(tier.to_string().parse(), Ok(tier));
        }
        let err = "block".parse::<ExecTier>().unwrap_err();
        assert!(err.contains("step") && err.contains("jit"), "{err}");
    }
}
