//! Physical memory and the memory-mapped I/O window.
//!
//! Like PA-RISC, I/O controller registers live in physical address space
//! and are reached with ordinary loads and stores. Accesses that fall in
//! the I/O window are not satisfied by RAM; the CPU reports them to its
//! embedder (the bare machine routes them to devices, the hypervisor
//! intercepts them — paper §3.2, Environment Instruction Assumption).

use std::cell::Cell;

/// Base physical address of the memory-mapped I/O window.
pub const IO_BASE: u32 = 0xF000_0000;
/// Size of the I/O window in bytes.
pub const IO_SIZE: u32 = 0x0001_0000;

/// Page size (bytes) shared by the MMU and page tables.
pub const PAGE_SIZE: u32 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// A page digest together with the write generation its page had when
/// the digest was computed.
#[derive(Clone, Copy)]
struct CachedDigest {
    gen: u64,
    digest: u64,
}

/// Generations count up from zero, so no page ever reaches this one.
const STALE: CachedDigest = CachedDigest {
    gen: u64::MAX,
    digest: 0,
};

/// Classification of a physical address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AddrKind {
    /// Backed by RAM.
    Ram,
    /// Inside the memory-mapped I/O window.
    Io,
    /// Neither RAM nor I/O.
    Unmapped,
}

/// Byte-addressable little-endian physical memory.
///
/// # Examples
///
/// ```
/// use hvft_machine::mem::Memory;
///
/// let mut m = Memory::new(4096);
/// m.write_u32(8, 0xCAFEBABE).unwrap();
/// assert_eq!(m.read_u32(8), Ok(0xCAFEBABE));
/// ```
#[derive(Clone)]
pub struct Memory {
    ram: Vec<u8>,
    /// Per-page write generation, bumped on every RAM write (CPU store,
    /// program load, device DMA, [`Memory::reset`]). It is the one
    /// signal two consumers share, so the store path pays for it once:
    ///
    /// - *self-modifying code*: the block and superblock caches compare
    ///   a cached block's recorded generation against the current one,
    ///   without any registration protocol;
    /// - *dirty pages*: the state digest below recomputes exactly the
    ///   pages whose generation moved since they were last hashed.
    page_gens: Vec<u64>,
    /// Cached per-page digests for the VM-state hash
    /// ([`crate::statehash`]). Entry `p` is valid iff its recorded
    /// generation equals `page_gens[p]`: within one `Memory` a
    /// generation only ever moves forward and moves on every write, so
    /// an equal generation means unchanged bytes. That inference does
    /// **not** survive [`Memory::restore`], which installs foreign bytes
    /// *and* foreign generations — the cache is dropped there. Derived
    /// state like the block caches: never snapshotted, never on the
    /// wire, and invisible in the digest's value. Filled through `&self`
    /// (a `Memory` is moved between threads, never shared).
    digests: Vec<Cell<CachedDigest>>,
}

/// A physical access that cannot be satisfied by RAM.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// Address is in the I/O window; the embedder must handle it.
    Io {
        /// The physical address.
        paddr: u32,
    },
    /// Address is outside RAM and the I/O window.
    Unmapped {
        /// The physical address.
        paddr: u32,
    },
}

impl Memory {
    /// Allocates zeroed RAM of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the RAM region would overlap the I/O window.
    pub fn new(bytes: usize) -> Self {
        assert!(
            (bytes as u64) <= u64::from(IO_BASE),
            "RAM of {bytes} bytes would overlap the I/O window at {IO_BASE:#x}"
        );
        let pages = bytes.div_ceil(PAGE_SIZE as usize);
        Memory {
            ram: vec![0; bytes],
            page_gens: vec![0; pages],
            digests: vec![Cell::new(STALE); pages],
        }
    }

    /// Write generation of the page containing `paddr`. Returns 0 for
    /// addresses outside RAM (no blocks are ever cached there).
    pub fn page_gen(&self, paddr: u32) -> u64 {
        self.page_gens
            .get((paddr >> PAGE_SHIFT) as usize)
            .copied()
            .unwrap_or(0)
    }

    #[inline]
    fn touch(&mut self, paddr: u32) {
        if let Some(g) = self.page_gens.get_mut((paddr >> PAGE_SHIFT) as usize) {
            *g += 1;
        }
    }

    /// Zeroes all RAM in place (keeping the allocation) and bumps every
    /// page generation so cached blocks over the old contents die.
    pub fn reset(&mut self) {
        self.ram.fill(0);
        for g in &mut self.page_gens {
            *g += 1;
        }
    }

    /// RAM size in bytes.
    pub fn size(&self) -> usize {
        self.ram.len()
    }

    /// Classifies a physical address.
    pub fn kind(&self, paddr: u32) -> AddrKind {
        if (paddr as usize) < self.ram.len() {
            AddrKind::Ram
        } else if (IO_BASE..IO_BASE.wrapping_add(IO_SIZE)).contains(&paddr) {
            AddrKind::Io
        } else {
            AddrKind::Unmapped
        }
    }

    #[inline]
    fn check(&self, paddr: u32, len: u32) -> Result<usize, MemFault> {
        let end = paddr as u64 + u64::from(len);
        if end <= self.ram.len() as u64 {
            Ok(paddr as usize)
        } else if self.kind(paddr) == AddrKind::Io {
            Err(MemFault::Io { paddr })
        } else {
            Err(MemFault::Unmapped { paddr })
        }
    }

    /// Reads a little-endian word. `paddr` must be 4-byte aligned (the CPU
    /// checks alignment before calling).
    #[inline]
    pub fn read_u32(&self, paddr: u32) -> Result<u32, MemFault> {
        let i = self.check(paddr, 4)?;
        let bytes: [u8; 4] = self.ram[i..i + 4].try_into().expect("checked length");
        Ok(u32::from_le_bytes(bytes))
    }

    /// Writes a little-endian word.
    #[inline]
    pub fn write_u32(&mut self, paddr: u32, value: u32) -> Result<(), MemFault> {
        let i = self.check(paddr, 4)?;
        self.ram[i..i + 4].copy_from_slice(&value.to_le_bytes());
        self.touch(paddr);
        // An unaligned word may straddle a page boundary (the CPU checks
        // alignment, but embedders may not).
        if paddr >> PAGE_SHIFT != (paddr + 3) >> PAGE_SHIFT {
            self.touch(paddr + 3);
        }
        Ok(())
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, paddr: u32) -> Result<u8, MemFault> {
        let i = self.check(paddr, 1)?;
        Ok(self.ram[i])
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, paddr: u32, value: u8) -> Result<(), MemFault> {
        let i = self.check(paddr, 1)?;
        self.ram[i] = value;
        self.touch(paddr);
        Ok(())
    }

    /// Copies a slice into RAM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds RAM.
    pub fn write_bytes(&mut self, paddr: u32, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let i = paddr as usize;
        self.ram[i..i + bytes.len()].copy_from_slice(bytes);
        // DMA can span pages; every touched page must invalidate.
        let end = paddr + bytes.len() as u32 - 1;
        for page in (paddr >> PAGE_SHIFT)..=(end >> PAGE_SHIFT) {
            self.touch(page << PAGE_SHIFT);
        }
    }

    /// Reads a slice out of RAM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds RAM.
    pub fn read_bytes(&self, paddr: u32, len: usize) -> &[u8] {
        let i = paddr as usize;
        &self.ram[i..i + len]
    }

    /// Number of pages of RAM (the last one may be partial).
    pub(crate) fn page_count(&self) -> usize {
        self.page_gens.len()
    }

    /// The bytes of page `page`.
    pub(crate) fn page_bytes(&self, page: usize) -> &[u8] {
        let start = page << PAGE_SHIFT;
        let end = self.ram.len().min(start + PAGE_SIZE as usize);
        &self.ram[start..end]
    }

    /// Digest of page `page`'s bytes, recomputed only if the page was
    /// written since it was last asked for.
    pub(crate) fn page_digest(&self, page: usize) -> u64 {
        let gen = self.page_gens[page];
        let slot = &self.digests[page];
        let cached = slot.get();
        if cached.gen == gen {
            return cached.digest;
        }
        let digest = crate::statehash::page_digest(self.page_bytes(page));
        slot.set(CachedDigest { gen, digest });
        digest
    }

    /// Index of the first physical page whose contents differ between
    /// `self` and `other`, judged by the same per-page digests the
    /// VM-state hash folds — so when two state hashes disagree this
    /// names the page responsible (or `None`: the registers are). A
    /// page only one of the memories has counts as differing.
    pub fn first_differing_page(&self, other: &Memory) -> Option<u32> {
        let shared = self.page_count().min(other.page_count());
        (0..shared)
            .find(|&p| self.page_digest(p) != other.page_digest(p))
            .or((self.page_count() != other.page_count()).then_some(shared))
            .map(|p| p as u32)
    }

    /// Captures RAM and the per-page write generations for a
    /// whole-machine snapshot.
    pub fn snapshot(&self) -> crate::snapshot::MemSnapshot {
        crate::snapshot::MemSnapshot {
            ram: self.ram.clone(),
            page_gens: self.page_gens.clone(),
        }
    }

    /// Restores state captured by [`Memory::snapshot`], copying into
    /// the existing buffers. Generations are restored verbatim:
    /// block/superblock caches are rebuilt empty after a restore, so
    /// they can only record generations at or after the captured values
    /// and SMC detection stays sound. The digest cache is dropped for
    /// the same reason: the snapshot may come from another `Memory`
    /// (a donor replica) whose page reached the same generation with
    /// different bytes.
    pub fn restore(&mut self, snap: &crate::snapshot::MemSnapshot) {
        self.ram.clone_from(&snap.ram);
        self.page_gens.clone_from(&snap.page_gens);
        self.digests.clear();
        self.digests.resize(self.page_gens.len(), Cell::new(STALE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_round_trip() {
        let mut m = Memory::new(64);
        m.write_u32(0, 0x0102_0304).unwrap();
        assert_eq!(m.read_u32(0), Ok(0x0102_0304));
        // Little-endian byte order.
        assert_eq!(m.read_u8(0), Ok(0x04));
        assert_eq!(m.read_u8(3), Ok(0x01));
    }

    #[test]
    fn byte_round_trip() {
        let mut m = Memory::new(16);
        m.write_u8(7, 0xAB).unwrap();
        assert_eq!(m.read_u8(7), Ok(0xAB));
    }

    #[test]
    fn io_window_faults_as_io() {
        let m = Memory::new(4096);
        assert_eq!(m.kind(IO_BASE), AddrKind::Io);
        assert_eq!(m.kind(IO_BASE + IO_SIZE - 4), AddrKind::Io);
        assert_eq!(
            m.read_u32(IO_BASE + 8),
            Err(MemFault::Io { paddr: IO_BASE + 8 })
        );
    }

    #[test]
    fn unmapped_faults() {
        let mut m = Memory::new(4096);
        assert_eq!(m.kind(0x8000_0000), AddrKind::Unmapped);
        assert_eq!(m.read_u32(4096), Err(MemFault::Unmapped { paddr: 4096 }));
        assert_eq!(
            m.write_u32(0x7FFF_FFFC, 1),
            Err(MemFault::Unmapped { paddr: 0x7FFF_FFFC })
        );
        // Word straddling the end of RAM is unmapped, not a partial write.
        assert_eq!(
            m.write_u32(4094, 1),
            Err(MemFault::Unmapped { paddr: 4094 })
        );
    }

    #[test]
    fn bulk_access() {
        let mut m = Memory::new(32);
        m.write_bytes(4, &[1, 2, 3]);
        assert_eq!(m.read_bytes(4, 3), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn ram_cannot_reach_io_window() {
        let _ = Memory::new(IO_BASE as usize + 1);
    }

    #[test]
    fn writes_bump_the_page_generation() {
        let mut m = Memory::new(3 * PAGE_SIZE as usize);
        let g0 = m.page_gen(0);
        let g1 = m.page_gen(PAGE_SIZE);
        m.write_u8(4, 1).unwrap();
        assert_ne!(m.page_gen(0), g0, "byte write must bump its page");
        assert_eq!(m.page_gen(PAGE_SIZE), g1, "other pages untouched");
        let g1 = m.page_gen(PAGE_SIZE);
        m.write_u32(PAGE_SIZE + 8, 7).unwrap();
        assert_ne!(m.page_gen(PAGE_SIZE), g1, "word write must bump its page");
        // Reads never bump.
        let g = m.page_gen(0);
        let _ = m.read_u32(0);
        let _ = m.read_u8(1);
        assert_eq!(m.page_gen(0), g);
        // Out-of-RAM queries are harmless.
        assert_eq!(m.page_gen(0x8000_0000), 0);
    }

    #[test]
    fn bulk_writes_bump_every_spanned_page() {
        let mut m = Memory::new(3 * PAGE_SIZE as usize);
        let (g0, g1, g2) = (
            m.page_gen(0),
            m.page_gen(PAGE_SIZE),
            m.page_gen(2 * PAGE_SIZE),
        );
        // DMA spanning pages 0..=2.
        m.write_bytes(PAGE_SIZE - 8, &vec![1; (PAGE_SIZE + 16) as usize]);
        assert_ne!(m.page_gen(0), g0);
        assert_ne!(m.page_gen(PAGE_SIZE), g1);
        assert_ne!(m.page_gen(2 * PAGE_SIZE), g2);
        // Empty writes are a complete no-op (no generation bump).
        let g = m.page_gen(0);
        m.write_bytes(0, &[]);
        assert_eq!(m.page_gen(0), g);
    }

    #[test]
    fn reset_zeroes_and_invalidates() {
        let mut m = Memory::new(2 * PAGE_SIZE as usize);
        m.write_u32(16, 0xDEAD_BEEF).unwrap();
        let g = m.page_gen(16);
        m.reset();
        assert_eq!(m.read_u32(16), Ok(0));
        assert_ne!(m.page_gen(16), g, "reset must invalidate cached blocks");
        assert_eq!(m.size(), 2 * PAGE_SIZE as usize);
    }
}
