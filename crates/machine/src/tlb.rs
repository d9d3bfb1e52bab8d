//! The software-managed translation lookaside buffer.
//!
//! On our machine — as on the paper's HP 9000/720 — TLB misses are handled
//! by software, and the hardware replacement policy is
//! **non-deterministic**. The paper's authors (and several HP engineers)
//! were surprised to find this breaks the Ordinary Instruction Assumption:
//! identical reference streams at primary and backup can produce different
//! TLB contents, making miss traps visible at different points in the two
//! instruction streams. Their fix — the hypervisor takes over TLB
//! management — is implemented in `hvft-hypervisor`; this module provides
//! the raw device, with the replacement policy made explicit so both the
//! problem and the fix can be demonstrated.

use crate::mem::{PAGE_SHIFT, PAGE_SIZE};
use hvft_sim::rng::SimRng;

/// PTE/TLB permission and status bits (low 12 bits of a PTE word).
pub mod pte {
    /// Entry is valid.
    pub const V: u32 = 1 << 0;
    /// Readable.
    pub const R: u32 = 1 << 1;
    /// Writable.
    pub const W: u32 = 1 << 2;
    /// Executable.
    pub const X: u32 = 1 << 3;
    /// Accessible from user privilege (level 3).
    pub const U: u32 = 1 << 4;
}

/// One TLB entry: a virtual page mapped to a physical frame with
/// permissions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: u32,
    /// Physical frame number.
    pub pfn: u32,
    /// Permission bits (see [`pte`]).
    pub flags: u32,
}

impl TlbEntry {
    /// Builds an entry from a virtual address and a raw PTE word
    /// (`pfn << 12 | flags`), the operand format of the `tlbi`
    /// instruction.
    pub fn from_pte(vaddr: u32, pte_word: u32) -> TlbEntry {
        TlbEntry {
            vpn: vaddr >> PAGE_SHIFT,
            pfn: pte_word >> PAGE_SHIFT,
            flags: pte_word & 0xFFF,
        }
    }

    /// Translates an address within this entry's page.
    pub fn translate(&self, vaddr: u32) -> u32 {
        (self.pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))
    }
}

/// Replacement policy used when inserting into a full TLB.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TlbReplacement {
    /// Deterministic rotation through the entries.
    RoundRobin,
    /// Victim chosen pseudo-randomly — models the HP 9000/720 behaviour
    /// that broke replica determinism (paper §3.2).
    Random,
}

/// Result of a TLB permission check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TlbAccess {
    /// Instruction fetch.
    Execute,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// Outcome of a lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TlbResult {
    /// Translation found and permitted; the physical address.
    Hit(u32),
    /// No entry for the page.
    Miss,
    /// Entry exists but the access is not permitted.
    Denied,
}

/// Shared permission predicate of [`Tlb::lookup`] and
/// [`Tlb::peek_lookup`] — one definition so the counted and the
/// side-effect-free paths cannot drift.
#[inline]
fn permits(flags: u32, access: TlbAccess, user: bool) -> bool {
    flags & pte::V != 0
        && (!user || flags & pte::U != 0)
        && match access {
            TlbAccess::Execute => flags & pte::X != 0,
            TlbAccess::Read => flags & pte::R != 0,
            TlbAccess::Write => flags & pte::W != 0,
        }
}

/// Size of the direct-mapped front cache (power of two).
const FRONT_SLOTS: usize = 16;
/// Front-cache tag marking an empty slot (no valid vpn reaches it:
/// vpns are at most 20 bits).
const FRONT_EMPTY: u32 = u32::MAX;

/// A fully associative, software-filled TLB.
///
/// # Examples
///
/// ```
/// use hvft_machine::tlb::{pte, Tlb, TlbAccess, TlbReplacement, TlbResult};
///
/// let mut tlb = Tlb::new(16, TlbReplacement::RoundRobin, 0);
/// tlb.insert_pte(0x0000_3000, (5 << 12) | pte::V | pte::R);
/// assert_eq!(
///     tlb.lookup(0x0000_3010, TlbAccess::Read, false),
///     TlbResult::Hit((5 << 12) | 0x10)
/// );
/// ```
pub struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    /// vpn → slot index for O(1) lookup.
    index: std::collections::HashMap<u32, usize, crate::hash::IntBuildHasher>,
    /// Direct-mapped front cache (vpn tag → slot), indexed by the low
    /// vpn bits, for the common case of accesses revisiting a handful
    /// of pages; cleared on any insert or purge. Purely an access-path
    /// shortcut — hit/miss accounting and permission checks are
    /// identical with or without it.
    front: [(u32, u32); FRONT_SLOTS],
    policy: TlbReplacement,
    rr_next: usize,
    rng: SimRng,
    hits: u64,
    misses: u64,
    /// Monotonic generation of the TLB *contents*: bumped by every
    /// insert, purge and restore. Derived-cache validation (the jit's
    /// execution-context stamp) compares generations instead of
    /// re-walking entries; not part of canonical state.
    content_gen: u64,
}

impl Tlb {
    /// Creates an empty TLB with `slots` entries, the given replacement
    /// policy, and an RNG seed (only used by [`TlbReplacement::Random`]).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize, policy: TlbReplacement, seed: u64) -> Self {
        assert!(slots > 0, "TLB needs at least one slot");
        Tlb {
            entries: vec![None; slots],
            index: std::collections::HashMap::default(),
            front: [(FRONT_EMPTY, 0); FRONT_SLOTS],
            policy,
            rr_next: 0,
            rng: SimRng::seed_from_label(seed, "tlb"),
            hits: 0,
            misses: 0,
            content_gen: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.index.len()
    }

    /// Looks up `vaddr` for the given access at the given privilege.
    #[inline]
    pub fn lookup(&mut self, vaddr: u32, access: TlbAccess, user: bool) -> TlbResult {
        let vpn = vaddr >> PAGE_SHIFT;
        let fidx = (vpn as usize) & (FRONT_SLOTS - 1);
        let slot = if self.front[fidx].0 == vpn {
            self.front[fidx].1 as usize
        } else {
            let Some(&slot) = self.index.get(&vpn) else {
                self.misses += 1;
                return TlbResult::Miss;
            };
            self.front[fidx] = (vpn, slot as u32);
            slot
        };
        let entry = self.entries[slot].expect("indexed slot must be valid");
        if permits(entry.flags, access, user) {
            self.hits += 1;
            TlbResult::Hit(entry.translate(vaddr))
        } else {
            TlbResult::Denied
        }
    }

    /// Side-effect-free lookup: same outcome as [`Tlb::lookup`] but
    /// touching neither the front cache nor the hit/miss counters.
    /// Derived-cache validation (the jit re-checking a cross-page
    /// trace's secondary translations) uses this so that validation
    /// frequency — which depends on cache warmth — can never perturb
    /// the snapshotted accounting state.
    #[inline]
    pub fn peek_lookup(&self, vaddr: u32, access: TlbAccess, user: bool) -> TlbResult {
        let vpn = vaddr >> PAGE_SHIFT;
        let Some(&slot) = self.index.get(&vpn) else {
            return TlbResult::Miss;
        };
        let entry = self.entries[slot].expect("indexed slot must be valid");
        if permits(entry.flags, access, user) {
            TlbResult::Hit(entry.translate(vaddr))
        } else {
            TlbResult::Denied
        }
    }

    /// Current content generation (see the field doc).
    #[inline]
    pub fn content_gen(&self) -> u64 {
        self.content_gen
    }

    /// Inserts a mapping, evicting per the replacement policy if full.
    /// An existing entry for the same page is overwritten in place.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.front = [(FRONT_EMPTY, 0); FRONT_SLOTS];
        self.content_gen += 1;
        if let Some(&slot) = self.index.get(&entry.vpn) {
            self.entries[slot] = Some(entry);
            return;
        }
        let slot = match self.entries.iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                let victim = match self.policy {
                    TlbReplacement::RoundRobin => {
                        let v = self.rr_next;
                        self.rr_next = (self.rr_next + 1) % self.entries.len();
                        v
                    }
                    TlbReplacement::Random => {
                        self.rng.gen_range(self.entries.len() as u64) as usize
                    }
                };
                if let Some(old) = self.entries[victim] {
                    self.index.remove(&old.vpn);
                }
                victim
            }
        };
        self.index.insert(entry.vpn, slot);
        self.entries[slot] = Some(entry);
    }

    /// Inserts from `tlbi` operands: a virtual address and a PTE word.
    pub fn insert_pte(&mut self, vaddr: u32, pte_word: u32) {
        self.insert(TlbEntry::from_pte(vaddr, pte_word));
    }

    /// Purges the entry covering `vaddr`, if any.
    pub fn purge(&mut self, vaddr: u32) {
        self.front = [(FRONT_EMPTY, 0); FRONT_SLOTS];
        self.content_gen += 1;
        let vpn = vaddr >> PAGE_SHIFT;
        if let Some(slot) = self.index.remove(&vpn) {
            self.entries[slot] = None;
        }
    }

    /// Purges every entry.
    pub fn purge_all(&mut self) {
        self.front = [(FRONT_EMPTY, 0); FRONT_SLOTS];
        self.content_gen += 1;
        self.index.clear();
        self.entries.iter_mut().for_each(|e| *e = None);
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Counts `n` hits that were served without a [`Tlb::lookup`]: the
    /// jit's data-page map answers a repeated access to a page from the
    /// translation a counted lookup produced, under the same contents
    /// and privilege, and books the lookups it stood in for here — so
    /// the data-side counters read what they would without the map.
    #[inline]
    pub(crate) fn count_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// A canonical (sorted) snapshot of the valid entries, for divergence
    /// analysis in tests.
    pub fn snapshot(&self) -> Vec<TlbEntry> {
        let mut v: Vec<TlbEntry> = self.entries.iter().flatten().copied().collect();
        v.sort_by_key(|e| e.vpn);
        v
    }

    /// Captures slot-exact state for whole-machine snapshots: entries in
    /// their physical slots, the replacement cursor, the replacement RNG
    /// and the hit/miss counters. (Unlike [`Tlb::snapshot`], which sorts
    /// and drops slot positions, this preserves everything future
    /// replacement decisions depend on.)
    pub fn snapshot_state(&self) -> crate::snapshot::TlbSnapshot {
        crate::snapshot::TlbSnapshot {
            entries: self.entries.clone(),
            policy: self.policy,
            rr_next: self.rr_next,
            rng: self.rng.clone(),
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Restores slot-exact state captured by [`Tlb::snapshot_state`].
    /// The lookup index is rebuilt from the entries and the front cache
    /// cleared — both are derived, so subsequent lookups, fills and
    /// evictions behave bit-identically to the captured TLB.
    pub fn restore_state(&mut self, snap: &crate::snapshot::TlbSnapshot) {
        self.entries.clone_from(&snap.entries);
        self.index.clear();
        for (slot, entry) in self.entries.iter().enumerate() {
            if let Some(e) = entry {
                self.index.insert(e.vpn, slot);
            }
        }
        self.front = [(FRONT_EMPTY, 0); FRONT_SLOTS];
        // Derived, not snapshotted: any bump conservatively invalidates
        // stale translation predictions (and restores rebuild the jit
        // caches cold anyway).
        self.content_gen += 1;
        self.policy = snap.policy;
        self.rr_next = snap.rr_next;
        self.rng = snap.rng.clone();
        self.hits = snap.hits;
        self.misses = snap.misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vpn: u32) -> TlbEntry {
        TlbEntry {
            vpn,
            pfn: vpn + 100,
            flags: pte::V | pte::R | pte::W | pte::X | pte::U,
        }
    }

    #[test]
    fn hit_translates_offset() {
        let mut t = Tlb::new(4, TlbReplacement::RoundRobin, 0);
        t.insert(entry(3));
        match t.lookup(3 << PAGE_SHIFT | 0x123, TlbAccess::Read, false) {
            TlbResult::Hit(p) => assert_eq!(p, (103 << PAGE_SHIFT) | 0x123),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn miss_on_absent_page() {
        let mut t = Tlb::new(4, TlbReplacement::RoundRobin, 0);
        assert_eq!(t.lookup(0x5000, TlbAccess::Read, false), TlbResult::Miss);
        assert_eq!(t.stats(), (0, 1));
    }

    #[test]
    fn permission_checks() {
        let mut t = Tlb::new(4, TlbReplacement::RoundRobin, 0);
        t.insert(TlbEntry {
            vpn: 1,
            pfn: 1,
            flags: pte::V | pte::R,
        });
        let va = 1 << PAGE_SHIFT;
        assert!(matches!(
            t.lookup(va, TlbAccess::Read, false),
            TlbResult::Hit(_)
        ));
        assert_eq!(t.lookup(va, TlbAccess::Write, false), TlbResult::Denied);
        assert_eq!(t.lookup(va, TlbAccess::Execute, false), TlbResult::Denied);
        // Kernel-only page denied to user.
        assert_eq!(t.lookup(va, TlbAccess::Read, true), TlbResult::Denied);
    }

    #[test]
    fn user_bit_grants_user_access() {
        let mut t = Tlb::new(4, TlbReplacement::RoundRobin, 0);
        t.insert(TlbEntry {
            vpn: 2,
            pfn: 2,
            flags: pte::V | pte::R | pte::U,
        });
        assert!(matches!(
            t.lookup(2 << PAGE_SHIFT, TlbAccess::Read, true),
            TlbResult::Hit(_)
        ));
    }

    #[test]
    fn reinsert_same_page_overwrites() {
        let mut t = Tlb::new(2, TlbReplacement::RoundRobin, 0);
        t.insert(TlbEntry {
            vpn: 7,
            pfn: 1,
            flags: pte::V | pte::R,
        });
        t.insert(TlbEntry {
            vpn: 7,
            pfn: 2,
            flags: pte::V | pte::R,
        });
        assert_eq!(t.occupancy(), 1);
        match t.lookup(7 << PAGE_SHIFT, TlbAccess::Read, false) {
            TlbResult::Hit(p) => assert_eq!(p >> PAGE_SHIFT, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn round_robin_eviction_is_deterministic() {
        let mut a = Tlb::new(2, TlbReplacement::RoundRobin, 1);
        let mut b = Tlb::new(2, TlbReplacement::RoundRobin, 2);
        for vpn in 0..10 {
            a.insert(entry(vpn));
            b.insert(entry(vpn));
        }
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "round robin must not depend on the seed"
        );
    }

    #[test]
    fn random_eviction_depends_on_seed() {
        // This is the paper's HP 9000/720 surprise in miniature: two TLBs
        // fed the identical insert stream end up with different contents.
        let mut a = Tlb::new(8, TlbReplacement::Random, 1);
        let mut b = Tlb::new(8, TlbReplacement::Random, 2);
        for vpn in 0..256 {
            a.insert(entry(vpn));
            b.insert(entry(vpn));
        }
        assert_ne!(a.snapshot(), b.snapshot(), "different seeds should diverge");
    }

    #[test]
    fn random_eviction_same_seed_is_reproducible() {
        let mut a = Tlb::new(8, TlbReplacement::Random, 42);
        let mut b = Tlb::new(8, TlbReplacement::Random, 42);
        for vpn in 0..256 {
            a.insert(entry(vpn));
            b.insert(entry(vpn));
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn purge() {
        let mut t = Tlb::new(4, TlbReplacement::RoundRobin, 0);
        t.insert(entry(1));
        t.insert(entry(2));
        t.purge(1 << PAGE_SHIFT);
        assert_eq!(
            t.lookup(1 << PAGE_SHIFT, TlbAccess::Read, false),
            TlbResult::Miss
        );
        assert!(matches!(
            t.lookup(2 << PAGE_SHIFT, TlbAccess::Read, false),
            TlbResult::Hit(_)
        ));
        t.purge_all();
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn from_pte_splits_fields() {
        let e = TlbEntry::from_pte(0x0000_5ABC, (9 << 12) | pte::V | pte::W);
        assert_eq!(e.vpn, 5);
        assert_eq!(e.pfn, 9);
        assert_eq!(e.flags, pte::V | pte::W);
    }
}
