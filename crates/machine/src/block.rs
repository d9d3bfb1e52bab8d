//! Predecoded basic blocks and their cache — the interpreter's fast
//! path.
//!
//! A [`DecodedBlock`] is a straight-line run of predecoded instructions
//! starting at a physical fetch address and ending at the first *block
//! terminator* ([`Instruction::is_block_terminator`]: any control
//! transfer or privileged instruction) or at the page boundary,
//! whichever comes first. [`Cpu::run`](crate::cpu::Cpu::run) executes a
//! cached block with **one** address translation and **one** cache
//! lookup, instead of a translate + RAM read + decode for every
//! instruction the way [`Cpu::step`](crate::cpu::Cpu::step) does.
//!
//! # Why block caching preserves the Instruction-Stream Interrupt
//! Assumption
//!
//! The paper's protocols depend on interrupts being deliverable at an
//! *exact* point in the guest instruction stream (§2.1: epochs end
//! after precisely `epoch_len` retired instructions, and interrupts are
//! delivered only at those boundaries). Batching execution must not
//! smear those points, so the block engine is built to be equivalent to
//! single-stepping **instruction for instruction**, not merely "close":
//!
//! - entry into a block is clamped to
//!   `min(block_len, rctr, caller budget)` — the recovery counter can
//!   expire only *between* instructions, at the same retirement count
//!   the per-step path traps at, never mid-block;
//! - pending-interrupt and recovery-counter checks run before every
//!   block entry; nothing *inside* a block can change them, because
//!   every instruction that could (`ssm`/`rsm`, `mtctl`, `rfi`, …) is
//!   privileged and privileged instructions terminate blocks;
//! - address-translation state is likewise constant inside a block
//!   (`tlbi`/`tlbp`/`rfi`/PSW writes all terminate blocks), so the one
//!   translation at entry covers every fetch the block replaces — and
//!   because blocks never cross a page boundary, the single page
//!   translation is exact;
//! - blocks are keyed by **physical** address, so TLB refills,
//!   replacement-policy non-determinism, and remappings can never make
//!   a cached block stale: the same physical words are the same block.
//!
//! # Self-modifying code
//!
//! Staleness therefore has exactly one source: the backing RAM changing
//! (guest stores or device DMA) *under a decoded word*. Every word the
//! decoder reads is registered with [`Memory::note_decoded`], and
//! [`crate::mem::Memory`] bumps the page's **code generation**
//! ([`Memory::code_gen`]) on exactly the writes that overlap registered
//! bytes; a block records its page's code generation at decode time and
//! is rebuilt when they differ. A store to data that merely shares the
//! page (a kernel's save slots beside its trap vectors) leaves every
//! block valid. Two checks make this exact:
//!
//! - on block entry, the cache compares generations and rebuilds on
//!   mismatch (cross-block patching, DMA into code pages);
//! - during block execution, after every retired store, the CPU
//!   re-compares the block's own page generation and abandons the
//!   predecoded tail on mismatch (a block that patches *itself* ahead
//!   of its own program counter re-fetches the patched words exactly
//!   like the per-step path would).
//!
//! The registered extent includes the word that *ended* the block (a
//! terminator, or a word that did not decode): patching it changes
//! where the block ends.
//!
//! # Terminators stay, here
//!
//! The jit ([`crate::jit`]) compiles privileged instructions *into*
//! its traces and re-establishes the entry checks after each one; the
//! block engine keeps ending a block at every privileged instruction,
//! on purpose. A block is what cold code runs in — each address a
//! handful of times before it is promoted or never again — so there is
//! no hot handler here to keep in one piece, and the rule "nothing
//! inside a block changes what was checked at its entry" is what lets
//! the straight-line prefix batch its retirement bookkeeping and skip
//! the privilege check without a second mechanism to re-validate
//! mid-block. A privileged terminator executed above privilege 0 is
//! reported as `Exit::Trap(PrivilegedOp { word })` like the per-step
//! path does; under [`Cpu::run_with`](crate::cpu::Cpu::run_with) the
//! embedder's `exit` hook emulates it inside the run loop, so what a
//! cold trap costs is a dispatcher turn, not a run entry.

use crate::hash::IntBuildHasher;
use crate::mem::{MemFault, Memory, PAGE_SIZE};
use hvft_isa::codec::decode;
use hvft_isa::instruction::Instruction;
use std::collections::HashMap;

/// Cap on cached blocks; crossing it clears the cache wholesale (the
/// working set of real guests is far below this — the cap only guards
/// pathological block fragmentation from eating memory).
const MAX_BLOCKS: usize = 8192;

/// A predecoded straight-line run of instructions.
///
/// Raw words are kept in a parallel array (rather than interleaved)
/// because the hot loop only walks `insns`; a word is consulted only on
/// the rare `PrivilegedOp { word }` trap, which must carry the original
/// encoding.
#[derive(Debug)]
pub struct DecodedBlock {
    /// The instructions, in fetch order.
    pub insns: Box<[Instruction]>,
    /// The raw instruction words, parallel to `insns`.
    pub words: Box<[u32]>,
    /// Code generation ([`Memory::code_gen`]) of the backing page when
    /// the block was decoded.
    pub gen: u64,
}

/// Counters describing cache behaviour (for tests and benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Entries served from the cache with a current generation.
    pub hits: u64,
    /// Entries that decoded a new block.
    pub misses: u64,
    /// Entries that found a block with a stale generation (self-
    /// modifying code or DMA) and rebuilt it.
    pub invalidations: u64,
}

/// Slots in the direct-mapped front table (power of two).
const FRONT_SLOTS: usize = 128;
/// Front tag marking an empty slot. Blocks are only cached for RAM
/// addresses, which are always below the I/O window, so no valid block
/// address collides with it.
const FRONT_EMPTY: u32 = u32::MAX;

/// The block cache: physical fetch address → predecoded block.
///
/// Blocks live in an arena ([`Vec`]) with stable indices; a `HashMap`
/// resolves fetch addresses to indices, and a small direct-mapped front
/// table short-circuits the map for the handful of blocks a guest loop
/// revisits (the common case is one front probe per block entry).
#[derive(Debug)]
pub struct BlockCache {
    arena: Vec<DecodedBlock>,
    map: HashMap<u32, u32, IntBuildHasher>,
    /// `(paddr, arena index)` keyed by `(paddr >> 2) & (FRONT_SLOTS-1)`.
    front: Box<[(u32, u32); FRONT_SLOTS]>,
    stats: BlockCacheStats,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache {
            arena: Vec::new(),
            map: HashMap::default(),
            front: Box::new([(FRONT_EMPTY, 0); FRONT_SLOTS]),
            stats: BlockCacheStats::default(),
        }
    }
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache behaviour counters since construction.
    pub fn stats(&self) -> BlockCacheStats {
        self.stats
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every cached block.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.map.clear();
        self.front.fill((FRONT_EMPTY, 0));
    }

    /// Returns the block starting at physical address `paddr`, decoding
    /// (or re-decoding, if the page changed) as needed. `None` when no
    /// block can start here — the first word is unreadable or
    /// undecodable — in which case the caller must fall back to the
    /// per-step path, which raises the exact trap.
    #[inline]
    pub fn get_or_build(&mut self, paddr: u32, mem: &Memory) -> Option<&DecodedBlock> {
        let gen = mem.code_gen(paddr);
        let fidx = ((paddr >> 2) as usize) & (FRONT_SLOTS - 1);
        let (tag, idx) = self.front[fidx];
        if tag == paddr && self.arena[idx as usize].gen == gen {
            self.stats.hits += 1;
            return Some(&self.arena[idx as usize]);
        }
        self.get_or_build_slow(paddr, gen, fidx, mem)
    }

    fn get_or_build_slow(
        &mut self,
        paddr: u32,
        gen: u64,
        fidx: usize,
        mem: &Memory,
    ) -> Option<&DecodedBlock> {
        let idx = match self.map.get(&paddr) {
            Some(&idx) => {
                let b = &self.arena[idx as usize];
                if b.gen == gen {
                    self.stats.hits += 1;
                } else {
                    self.stats.invalidations += 1;
                    match build_block(paddr, gen, mem) {
                        Some(nb) => self.arena[idx as usize] = nb,
                        None => {
                            // The page changed and no block starts here
                            // any more: unlink the stale entry (the
                            // arena slot becomes an unreachable
                            // tombstone until the next clear).
                            self.map.remove(&paddr);
                            self.front[fidx] = (FRONT_EMPTY, 0);
                            return None;
                        }
                    }
                }
                idx
            }
            None => {
                self.stats.misses += 1;
                let block = build_block(paddr, gen, mem)?;
                if self.arena.len() >= MAX_BLOCKS {
                    self.clear();
                }
                let idx = self.arena.len() as u32;
                self.arena.push(block);
                self.map.insert(paddr, idx);
                idx
            }
        };
        self.front[fidx] = (paddr, idx);
        Some(&self.arena[idx as usize])
    }
}

/// Decodes the block starting at `paddr`: consecutive words up to and
/// including the first terminator, stopping early at the page boundary
/// or at the first unreadable/undecodable word. `gen` must be the
/// page's code generation read *before* this call; every word read is
/// registered so a later write to it moves that generation.
fn build_block(paddr: u32, gen: u64, mem: &Memory) -> Option<DecodedBlock> {
    // u64 arithmetic: the page-end bound must not overflow for fetches
    // in the last page of the 32-bit physical space.
    let page_end = (u64::from(paddr) | u64::from(PAGE_SIZE - 1)) + 1;
    let mut insns = Vec::new();
    let mut words = Vec::new();
    let mut pa = u64::from(paddr);
    while pa < page_end {
        let word = match mem.read_u32(pa as u32) {
            Ok(w) => w,
            Err(MemFault::Io { .. } | MemFault::Unmapped { .. }) => break,
        };
        mem.note_decoded(pa as u32);
        let insn = match decode(word) {
            Ok(i) => i,
            Err(_) => break,
        };
        insns.push(insn);
        words.push(word);
        if insn.is_block_terminator() {
            break;
        }
        pa += 4;
    }
    if insns.is_empty() {
        return None;
    }
    Some(DecodedBlock {
        insns: insns.into_boxed_slice(),
        words: words.into_boxed_slice(),
        gen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvft_isa::asm::assemble;

    fn mem_with(src: &str) -> Memory {
        let prog = assemble(src).unwrap_or_else(|e| panic!("asm: {e}"));
        let mut mem = Memory::new(4 * PAGE_SIZE as usize);
        for seg in &prog.segments {
            mem.write_bytes(seg.base, &seg.data);
        }
        mem
    }

    #[test]
    fn block_ends_at_terminator_inclusive() {
        let mem = mem_with("s: addi r4, r0, 1\n addi r5, r0, 2\n jal ra, s\n nop");
        let mut cache = BlockCache::new();
        let b = cache.get_or_build(0, &mem).expect("block");
        assert_eq!(b.insns.len(), 3, "two addi + the jal terminator");
        assert_eq!(b.words.len(), 3);
        assert!(b.insns[2].is_block_terminator());
    }

    #[test]
    fn block_never_crosses_a_page_boundary() {
        // A page full of nops with no terminator.
        let mut mem = Memory::new(2 * PAGE_SIZE as usize);
        let nop = hvft_isa::codec::encode(Instruction::Nop).unwrap();
        for i in 0..(2 * PAGE_SIZE / 4) {
            mem.write_u32(i * 4, nop).unwrap();
        }
        let mut cache = BlockCache::new();
        let b = cache.get_or_build(16, &mem).expect("block");
        assert_eq!(
            b.insns.len() as u32,
            (PAGE_SIZE - 16) / 4,
            "block stops at the page edge"
        );
    }

    #[test]
    fn undecodable_first_word_yields_no_block() {
        let mem = Memory::new(PAGE_SIZE as usize); // all zeros: .word 0 is illegal
        let mut cache = BlockCache::new();
        assert!(cache.get_or_build(0, &mem).is_none());
    }

    #[test]
    fn undecodable_tail_truncates_the_block() {
        let mem = mem_with("s: addi r4, r0, 1\n .word 0\n");
        let mut cache = BlockCache::new();
        let b = cache.get_or_build(0, &mem).expect("block");
        assert_eq!(b.insns.len(), 1);
    }

    #[test]
    fn stale_generation_rebuilds() {
        let mut mem = mem_with("s: addi r4, r0, 1\n addi r5, r0, 2\n halt");
        let mut cache = BlockCache::new();
        let len1 = cache.get_or_build(0, &mem).expect("block").insns.len();
        assert_eq!(len1, 3);
        assert_eq!(cache.stats().misses, 1);
        // Same generation: hit.
        let _ = cache.get_or_build(0, &mem).expect("block");
        assert_eq!(cache.stats().hits, 1);
        // Patch the second instruction; the cached block must die.
        let halt = hvft_isa::codec::encode(Instruction::Halt).unwrap();
        mem.write_u32(4, halt).unwrap();
        let b3 = cache.get_or_build(0, &mem).expect("block");
        assert_eq!(b3.insns.len(), 2, "rebuilt block sees the patched halt");
        assert!(matches!(b3.insns[1], Instruction::Halt));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn capacity_overflow_clears_rather_than_grows() {
        // 16 pages of `jal` singletons: every word starts its own
        // one-instruction block, giving more distinct keys than
        // MAX_BLOCKS.
        let pages = (MAX_BLOCKS as u32 * 4).div_ceil(PAGE_SIZE) + 1;
        let mut mem = Memory::new((pages * PAGE_SIZE) as usize);
        let jal = hvft_isa::codec::encode(Instruction::Jal {
            rd: hvft_isa::reg::Reg::ZERO,
            offset: 4,
        })
        .unwrap();
        for i in 0..(pages * PAGE_SIZE / 4) {
            mem.write_u32(i * 4, jal).unwrap();
        }
        let mut cache = BlockCache::new();
        for i in 0..(MAX_BLOCKS as u32 + 64) {
            let _ = cache.get_or_build(i * 4, &mem);
        }
        assert!(
            cache.len() <= MAX_BLOCKS,
            "cache must stay bounded, has {}",
            cache.len()
        );
    }

    #[test]
    fn stores_beside_a_cached_block_leave_it_valid() {
        // A kernel-like page: a block at 0x100..0x10C, data around it.
        let mut mem = mem_with(".org 0x100\ns: addi r4, r0, 1\n addi r5, r0, 2\n halt\n nop");
        let mut cache = BlockCache::new();
        assert_eq!(
            cache.get_or_build(0x100, &mem).expect("block").insns.len(),
            3
        );
        mem.write_u32(0x0FC, 7).unwrap(); // ends where the block starts
        mem.write_u32(0x10C, 7).unwrap(); // starts where the block ended
        mem.write_u8(0x0FF, 7).unwrap();
        mem.write_u32(0x400, 7).unwrap();
        let _ = cache.get_or_build(0x100, &mem).expect("block");
        assert_eq!(
            cache.stats(),
            BlockCacheStats {
                hits: 1,
                misses: 1,
                invalidations: 0
            }
        );
    }

    #[test]
    fn stores_at_either_edge_of_a_cached_block_invalidate_it() {
        let halt = hvft_isa::codec::encode(Instruction::Halt).unwrap();
        type Write = fn(&mut Memory, u32);
        let edges: [(&str, Write); 4] = [
            ("first word", |m, w| m.write_u32(0x100, w).unwrap()),
            ("last word (the terminator)", |m, w| {
                m.write_u32(0x108, w).unwrap()
            }),
            ("last byte", |m, _| m.write_u8(0x10B, 0).unwrap()),
            ("bulk write over the tail", |m, w| {
                m.write_bytes(0x106, &[&w.to_le_bytes()[..], &[0; 8]].concat())
            }),
        ];
        for (what, write) in edges {
            let mut mem = mem_with(".org 0x100\ns: addi r4, r0, 1\n addi r5, r0, 2\n halt");
            let mut cache = BlockCache::new();
            let _ = cache.get_or_build(0x100, &mem).expect("block");
            write(&mut mem, halt);
            let _ = cache.get_or_build(0x100, &mem);
            assert_eq!(cache.stats().invalidations, 1, "{what}");
        }
    }

    #[test]
    fn patching_the_word_that_ended_a_block_rebuilds_it_longer() {
        // The block stops at an undecodable word; that word is part of
        // what the block depends on.
        let mut mem = mem_with("s: addi r4, r0, 1\n .word 0\n halt");
        let mut cache = BlockCache::new();
        assert_eq!(cache.get_or_build(0, &mem).expect("block").insns.len(), 1);
        let nop = hvft_isa::codec::encode(Instruction::Nop).unwrap();
        mem.write_u32(4, nop).unwrap();
        assert_eq!(cache.get_or_build(0, &mem).expect("block").insns.len(), 3);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn a_full_cache_still_serves_what_it_holds() {
        // Fill to the cap with one-instruction blocks; the front table
        // has 128 slots, so the first block's slot was long since taken
        // by a colliding address. Re-probing it misses the front table,
        // hits the map, and must not flush 8192 blocks on the way.
        let mut mem = Memory::new(MAX_BLOCKS * 4);
        let jal = hvft_isa::codec::encode(Instruction::Jal {
            rd: hvft_isa::reg::Reg::ZERO,
            offset: 4,
        })
        .unwrap();
        for i in 0..MAX_BLOCKS as u32 {
            mem.write_u32(i * 4, jal).unwrap();
        }
        let mut cache = BlockCache::new();
        for i in 0..MAX_BLOCKS as u32 {
            let _ = cache.get_or_build(i * 4, &mem).expect("block");
        }
        assert_eq!(cache.len(), MAX_BLOCKS);
        let hits = cache.stats().hits;
        let _ = cache.get_or_build(0, &mem).expect("block");
        assert_eq!(cache.len(), MAX_BLOCKS, "a hit must not clear the cache");
        assert_eq!(cache.stats().hits, hits + 1);
        assert_eq!(cache.stats().misses, MAX_BLOCKS as u64);
    }
}
