//! Physical memory and the memory-mapped I/O window.
//!
//! Like PA-RISC, I/O controller registers live in physical address space
//! and are reached with ordinary loads and stores. Accesses that fall in
//! the I/O window are not satisfied by RAM; the CPU reports them to its
//! embedder (the bare machine routes them to devices, the hypervisor
//! intercepts them — paper §3.2, Environment Instruction Assumption).

use std::cell::{Cell, RefCell};

/// Base physical address of the memory-mapped I/O window.
pub const IO_BASE: u32 = 0xF000_0000;
/// Size of the I/O window in bytes.
pub const IO_SIZE: u32 = 0x0001_0000;

/// Page size (bytes) shared by the MMU and page tables.
pub const PAGE_SIZE: u32 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Bytes per line of the digest's dirty marks: the unit the VM-state
/// digest rereads (see [`crate::statehash`]).
pub const LINE_SIZE: u32 = 128;
/// log2 of [`LINE_SIZE`].
const LINE_SHIFT: u32 = 7;
/// Lines per page: one bit of a page's mark each.
const LINES_PER_PAGE: usize = (PAGE_SIZE / LINE_SIZE) as usize;
const _: () = assert!(LINES_PER_PAGE == u32::BITS as usize);

/// The RAM half of the VM-state digest, kept current by reading only
/// the lines written since it was last read ([`crate::statehash`]).
///
/// **Invariant:** `sum` is the wrapping sum of `terms`, and every line
/// whose bit in `marks` is clear holds the bytes its term was computed
/// from. Marking a line is therefore always safe, and a fresh
/// `Memory`, [`Memory::reset`] and [`Memory::restore`] mark them all.
/// Derived state like the code caches: never snapshotted, never on the
/// wire, and invisible in the digest's value. Read and refilled through
/// `&self` (a `Memory` is moved between threads, never shared).
#[derive(Clone)]
struct LineDigests {
    /// Per page, one bit per line written since the digest last read
    /// it. Set by every write path beside its `page_gens` bump.
    marks: Vec<Cell<u32>>,
    /// Per line, its term of `sum`: `statehash::line_term` of the line
    /// as it was when last read.
    terms: Vec<Cell<u64>>,
    /// Wrapping sum of `terms`.
    sum: Cell<u64>,
    /// RAM bytes read to refresh terms since
    /// [`Memory::take_digest_bytes`] last emptied it.
    bytes_read: Cell<u64>,
}

impl LineDigests {
    /// A cache for `bytes` of RAM with every line marked.
    fn new(bytes: usize) -> Self {
        let mut d = LineDigests {
            marks: Vec::new(),
            terms: Vec::new(),
            sum: Cell::new(0),
            bytes_read: Cell::new(0),
        };
        d.mark_all(bytes);
        d
    }

    /// Marks every line of `bytes` of RAM (and no line past its end),
    /// first fitting the cache to that size if it held another.
    fn mark_all(&mut self, bytes: usize) {
        let lines = bytes.div_ceil(LINE_SIZE as usize);
        if self.terms.len() != lines {
            self.terms = vec![Cell::new(0); lines];
            self.sum.set(0);
            self.marks = vec![Cell::new(0); bytes.div_ceil(PAGE_SIZE as usize)];
        }
        for (page, mark) in self.marks.iter_mut().enumerate() {
            let held = (lines - page * LINES_PER_PAGE).min(LINES_PER_PAGE);
            *mark.get_mut() = u32::MAX >> (LINES_PER_PAGE - held);
        }
    }
}

/// What the code caches need to know about one page: how often bytes
/// they decoded were overwritten, and which bytes those are.
#[derive(Clone)]
struct CodePage {
    /// Bumped by every write that overlaps `[lo, hi)`.
    gen: u64,
    /// Physical address of the first decoded byte (`u32::MAX`: none).
    lo: Cell<u32>,
    /// One past the physical address of the last decoded byte (`0`:
    /// none, so one compare rejects a write to a page without code).
    hi: Cell<u32>,
}

impl CodePage {
    fn no_code() -> CodePage {
        CodePage {
            gen: 0,
            lo: Cell::new(u32::MAX),
            hi: Cell::new(0),
        }
    }

    /// Forgets the extent and kills every trace cached under it.
    fn invalidate(&mut self) {
        *self = CodePage {
            gen: self.gen + 1,
            ..CodePage::no_code()
        };
    }
}

thread_local! {
    /// All-zero RAM buffers of [`Memory`] values this thread dropped,
    /// for its next [`Memory::new`] of the same size. A fresh
    /// `vec![0; n]` of guest-RAM size lands on the chunk the previous
    /// run freed, which the allocator must clear in full: every page of
    /// every new guest becomes resident though a guest writes about a
    /// dozen. A dropped `Memory` knows which pages it wrote and clears
    /// only those. Derived state like the digest cache: a buffer from
    /// here is indistinguishable from a fresh one.
    static ZEROED: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Most buffers [`ZEROED`] keeps (two `t = 3` systems' worth of
/// guests); beyond that the oldest is freed.
const MAX_ZEROED: usize = 16;

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
    /// **Invariant:** a page whose entry in `page_gens` is 0 holds only
    /// zero bytes. Every write path bumps the generation of each page
    /// it lands on, and [`Memory::restore`] and `Clone` copy bytes and
    /// generations together. `Drop` relies on it to hand the buffer on
    /// as all-zero after clearing only the written pages.
    ram: Vec<u8>,
    /// Per-page write generation, bumped on **every** RAM write (CPU
    /// store, program load, device DMA, [`Memory::reset`]). Canonical
    /// state: it travels in [`MemSnapshot`] and on the wire, and `Drop`
    /// reads it to clear only the pages that were written. Neither the
    /// state digest (which reads the finer line marks of `digest`) nor
    /// the code caches read it — a guest kernel that keeps data beside
    /// code in one page (ours does: the trap vectors and the
    /// `r0`-relative save slots share page 0) would recompile on every
    /// store.
    ///
    /// [`MemSnapshot`]: crate::snapshot::MemSnapshot
    page_gens: Vec<u64>,
    /// Per-page *code* generation and decoded-byte extent, read only by
    /// the superblock cache ([`Memory::code_gen`]): a cached trace
    /// records its pages' code generations when it is compiled and is
    /// stale once any of them moved. A write bumps the counter **iff it
    /// overlaps bytes that were decoded into a cached trace** — the
    /// page's `[lo, hi)` extent, which the compiler grows through
    /// [`Memory::note_decoded`] for every word it reads (the word that
    /// ended a trace included: patching it would make the trace
    /// longer). The extent is empty for a page nothing was decoded
    /// from, so a store there pays one load and one compare, and it
    /// only ever grows, so it covers every trace still cached, whenever
    /// that trace was built.
    ///
    /// Derived state, like `digest`: not snapshotted, not
    /// hashed, not on the wire, and — since it follows what the
    /// selected tier happened to decode — not tier-invariant.
    /// [`Memory::reset`] and [`Memory::restore`] replace the bytes
    /// wholesale, so they empty every extent and bump every counter
    /// (a cache that outlived them finds all of its traces stale and
    /// re-registers what it rebuilds). `Clone` copies both: the clone
    /// holds the same bytes, so the same cached code is valid against
    /// it, and writes to it are judged by the same extents.
    code: Vec<CodePage>,
    /// Moves whenever *any* page's code generation moves: one counter
    /// that stands for every `gen` in `code`. The jit reads it into its
    /// execution-context stamp ([`crate::jit`]) and, while it stands,
    /// trusts that a trace it validated is still fresh without looking
    /// at a single page. Derived like `code`, and copied by `Clone` for
    /// the same reason.
    code_epoch: u64,
    /// Moves whenever a page's decoded extent stops (or, wholesale,
    /// starts again) being empty: the set of pages that hold code has
    /// changed. While it stands, a page the jit knows as free of code
    /// is — which is what lets its stores skip the extent compare.
    code_pages: Cell<u64>,
    /// The VM-state digest's cache: per 128-byte line, a dirty mark and
    /// the line's term of one running RAM sum ([`LineDigests`]). Every
    /// write path marks the lines it lands on beside its `page_gens`
    /// bump, so a boundary rereads exactly the lines the epoch wrote.
    digest: LineDigests,
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
        let recycled = ZEROED.with_borrow_mut(|spare| {
            let at = spare.iter().position(|ram| ram.len() == bytes)?;
            Some(spare.swap_remove(at))
        });
        Memory {
            ram: recycled.unwrap_or_else(|| vec![0; bytes]),
            page_gens: vec![0; pages],
            code: vec![CodePage::no_code(); pages],
            code_epoch: 0,
            code_pages: Cell::new(0),
            digest: LineDigests::new(bytes),
        }
    }

    /// Write generation of the page containing `paddr`: moves on every
    /// write to the page. Returns 0 for addresses outside RAM.
    pub fn page_gen(&self, paddr: u32) -> u64 {
        self.page_gens
            .get((paddr >> PAGE_SHIFT) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Code generation of the page containing `paddr`: moves when a
    /// write overlaps bytes of the page that were passed to
    /// [`Memory::note_decoded`]. The superblock cache records it
    /// *before* decoding and compares it on every entry. Returns 0 for
    /// addresses outside RAM (no code is ever cached from there).
    #[inline]
    pub fn code_gen(&self, paddr: u32) -> u64 {
        self.code
            .get((paddr >> PAGE_SHIFT) as usize)
            .map_or(0, |c| c.gen)
    }

    /// Registers the instruction word at `paddr` (4-aligned, so it lies
    /// in one page) as decoded into a cached trace: from now
    /// on a write that overlaps it moves its page's
    /// [`code_gen`](Memory::code_gen). A no-op outside RAM.
    #[inline]
    pub fn note_decoded(&self, paddr: u32) {
        if let Some(c) = self.code.get((paddr >> PAGE_SHIFT) as usize) {
            if c.hi.get() == 0 {
                // The page's first decoded bytes: it is a code page now.
                self.code_pages.set(self.code_pages.get() + 1);
            }
            c.lo.set(c.lo.get().min(paddr));
            c.hi.set(c.hi.get().max(paddr + 4));
        }
    }

    /// The code epoch: moves whenever the [`code_gen`](Memory::code_gen)
    /// of any page moves — so while it stands, every cached trace that
    /// was fresh is fresh.
    #[inline]
    pub fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    /// Moves whenever the set of pages that hold decoded bytes changes:
    /// [`note_decoded`](Memory::note_decoded) registered the first word
    /// of a page, or [`reset`](Memory::reset) / [`restore`](Memory::restore)
    /// emptied every extent — so while it stands, a page that held no
    /// decoded byte holds none.
    #[inline]
    pub fn code_pages(&self) -> u64 {
        self.code_pages.get()
    }

    /// Whether any byte of the page containing `paddr` was registered
    /// with [`note_decoded`](Memory::note_decoded) and not invalidated
    /// since. `false` outside RAM.
    #[inline]
    pub(crate) fn holds_code(&self, paddr: u32) -> bool {
        self.code
            .get((paddr >> PAGE_SHIFT) as usize)
            .is_some_and(|c| c.hi.get() != 0)
    }

    /// Whether a write of `len` bytes at `paddr`, within one page of
    /// RAM, overlaps its page's decoded extent as it is now. `false`
    /// outside RAM.
    #[inline]
    fn overlaps_code(&self, paddr: u32, len: u32) -> bool {
        self.code
            .get((paddr >> PAGE_SHIFT) as usize)
            .is_some_and(|c| paddr < c.hi.get() && paddr + len > c.lo.get())
    }

    /// Accounts a write of `len` bytes at `paddr`, all within one page
    /// of RAM (the callers bounds-check first).
    #[inline]
    fn touch(&mut self, paddr: u32, len: u32) {
        let page = (paddr >> PAGE_SHIFT) as usize;
        self.page_gens[page] += 1;
        let offset = paddr & (PAGE_SIZE - 1);
        let (first, last) = (offset >> LINE_SHIFT, (offset + len - 1) >> LINE_SHIFT);
        *self.digest.marks[page].get_mut() |= (u32::MAX >> (31 - last)) & (u32::MAX << first);
        if self.overlaps_code(paddr, len) {
            self.code[page].gen += 1;
            self.code_epoch += 1;
        }
    }

    /// Accounts a word write that crosses into the next page: each page
    /// is judged by the bytes that landed on it. Only an unaligned
    /// write can — the CPU checks alignment, embedders may not.
    #[cold]
    fn touch_straddling_word(&mut self, paddr: u32) {
        let next_page = (paddr | (PAGE_SIZE - 1)) + 1;
        self.touch(paddr, next_page - paddr);
        self.touch(next_page, paddr + 4 - next_page);
    }

    /// Zeroes all RAM in place (keeping the allocation), bumps every
    /// page generation, marks every line for the digest and kills every
    /// cached trace over the old contents.
    pub fn reset(&mut self) {
        self.ram.fill(0);
        for g in &mut self.page_gens {
            *g += 1;
        }
        self.digest.mark_all(self.ram.len());
        self.invalidate_code();
    }

    /// Accounts a write of at most one word at `i` that lies in one
    /// line, for the three writers that keep only the dirty signals.
    /// A line is written many times between two digests, so its mark
    /// is tested before it is set: the stores after the first leave the
    /// mask alone.
    #[inline]
    fn touch_data(&mut self, i: usize) {
        let page = i >> PAGE_SHIFT;
        self.page_gens[page] += 1;
        let mark = self.digest.marks[page].get_mut();
        let line = 1 << ((i >> LINE_SHIFT) % LINES_PER_PAGE);
        if *mark & line == 0 {
            *mark |= line;
        }
    }

    /// Empties every decoded extent and moves every code generation
    /// (and so both summaries of them): the bytes were replaced
    /// wholesale.
    fn invalidate_code(&mut self) {
        self.code.iter_mut().for_each(CodePage::invalidate);
        self.code_epoch += 1;
        *self.code_pages.get_mut() += 1;
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
        if paddr & (PAGE_SIZE - 1) <= PAGE_SIZE - 4 {
            self.touch(paddr, 4);
        } else {
            self.touch_straddling_word(paddr);
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
        self.touch(paddr, 1);
        Ok(())
    }

    /// [`write_u32`](Memory::write_u32) for the jit's data-page map:
    /// `paddr` is 4-aligned and lies in a page that holds no decoded
    /// byte ([`holds_code`](Memory::holds_code) — the map's write tags
    /// exist only for such pages and die when
    /// [`code_pages`](Memory::code_pages) moves), so the
    /// write can move no code generation and only the dirty signals
    /// (the page's write generation, the line's digest mark) are kept.
    /// `false`, with nothing written, if the word is not in RAM.
    #[inline]
    pub(crate) fn write_data_u32(&mut self, paddr: u32, value: u32) -> bool {
        debug_assert!(paddr.is_multiple_of(4) && !self.holds_code(paddr));
        let i = paddr as usize;
        let Some(word) = self.ram.get_mut(i..i + 4) else {
            return false;
        };
        word.copy_from_slice(&value.to_le_bytes());
        self.touch_data(i);
        true
    }

    /// Byte counterpart of [`write_data_u32`](Memory::write_data_u32).
    #[inline]
    pub(crate) fn write_data_u8(&mut self, paddr: u32, value: u8) -> bool {
        debug_assert!(!self.holds_code(paddr));
        let i = paddr as usize;
        let Some(byte) = self.ram.get_mut(i) else {
            return false;
        };
        *byte = value;
        self.touch_data(i);
        true
    }

    /// [`write_data_u32`](Memory::write_data_u32) for a page that holds
    /// decoded bytes: `bytes` (a word at an aligned `paddr`, or a byte)
    /// are written — keeping only the dirty signals — if they land
    /// in RAM beside the page's decoded extent *as it is now*. `false`,
    /// with nothing written, if they would overlap it: that store is
    /// the full path's, which moves the code generation.
    #[inline]
    pub(crate) fn write_beside_code(&mut self, paddr: u32, bytes: &[u8]) -> bool {
        let i = paddr as usize;
        if self.overlaps_code(paddr, bytes.len() as u32) {
            return false;
        }
        let Some(ram) = self.ram.get_mut(i..i + bytes.len()) else {
            return false;
        };
        ram.copy_from_slice(bytes);
        self.touch_data(i);
        true
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
        // DMA can span pages: account each page's share of the range.
        let end = paddr + bytes.len() as u32;
        let mut at = paddr;
        while at < end {
            let stop = end.min((at | (PAGE_SIZE - 1)) + 1);
            self.touch(at, stop - at);
            at = stop;
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

    /// Brings the digest cache up to date and returns the RAM half of
    /// the VM-state digest: the wrapping sum over every line of its
    /// [`line_term`](crate::statehash::line_term). Only the lines marked
    /// since the last call are read; each one's old term is swapped for
    /// its new one and its mark cleared.
    pub(crate) fn ram_digest(&self) -> u64 {
        let d = &self.digest;
        let mut sum = d.sum.get();
        let mut read = 0;
        // Eight masks at a time: a boundary that wrote little skips
        // most of RAM with one test per 32 KiB.
        for (at, marks) in d.marks.chunks(8).enumerate() {
            if marks.iter().fold(0, |any, m| any | m.get()) == 0 {
                continue;
            }
            for (page, mark) in (at * 8..).zip(marks) {
                let mut lines = mark.take();
                while lines != 0 {
                    let line = page * LINES_PER_PAGE + lines.trailing_zeros() as usize;
                    lines &= lines - 1;
                    let bytes = self.line_bytes(line);
                    let term = crate::statehash::line_term(line, bytes);
                    sum = sum
                        .wrapping_add(term)
                        .wrapping_sub(d.terms[line].replace(term));
                    read += bytes.len();
                }
            }
        }
        d.sum.set(sum);
        d.bytes_read.set(d.bytes_read.get() + read as u64);
        sum
    }

    /// Number of lines of RAM (the last one may be partial).
    pub(crate) fn line_count(&self) -> usize {
        self.digest.terms.len()
    }

    /// The bytes of line `line`.
    pub(crate) fn line_bytes(&self, line: usize) -> &[u8] {
        let start = line << LINE_SHIFT;
        let end = self.ram.len().min(start + LINE_SIZE as usize);
        &self.ram[start..end]
    }

    /// RAM bytes the digest read to refresh its cache since the last
    /// call: what keeping the VM-state hash current cost, by count.
    /// Empties the count.
    pub fn take_digest_bytes(&mut self) -> u64 {
        self.digest.bytes_read.take()
    }

    /// Index of the first physical page whose contents differ between
    /// `self` and `other`, judged by each page's share of the RAM sum
    /// the VM-state hash folds — so when two state hashes disagree this
    /// names the page responsible (or `None`: the registers are). A
    /// page only one of the memories has counts as differing.
    pub fn first_differing_page(&self, other: &Memory) -> Option<u32> {
        let page_sums = |m: &Memory| {
            m.ram_digest();
            m.digest
                .terms
                .chunks(LINES_PER_PAGE)
                .map(|terms| terms.iter().fold(0u64, |s, t| s.wrapping_add(t.get())))
                .collect::<Vec<_>>()
        };
        let (mine, theirs) = (page_sums(self), page_sums(other));
        let shared = mine.len().min(theirs.len());
        (0..shared)
            .find(|&p| mine[p] != theirs[p])
            .or((mine.len() != theirs.len()).then_some(shared))
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
    /// the existing buffers. Write generations are restored verbatim.
    /// Every line is marked for the digest: the bytes were replaced
    /// wholesale, and generations say nothing about whose bytes they
    /// count (a donor replica's page can reach the same generation with
    /// different bytes). The code generations are this
    /// `Memory`'s own and are not in the snapshot: every one is bumped
    /// and every extent emptied, so whatever a code cache built over
    /// the old bytes is stale.
    pub fn restore(&mut self, snap: &crate::snapshot::MemSnapshot) {
        self.ram.clone_from(&snap.ram);
        self.page_gens.clone_from(&snap.page_gens);
        self.digest.mark_all(self.ram.len());
        self.invalidate_code();
        self.code.resize(self.page_gens.len(), CodePage::no_code());
    }
}

impl Drop for Memory {
    /// Clears the pages this memory wrote and leaves the buffer for the
    /// next [`Memory::new`] of its size (see `ZEROED`).
    fn drop(&mut self) {
        let mut ram = std::mem::take(&mut self.ram);
        for (page, &gen) in ram.chunks_mut(PAGE_SIZE as usize).zip(&self.page_gens) {
            if gen != 0 {
                page.fill(0);
            }
        }
        debug_assert!(
            ram.iter().all(|&b| b == 0),
            "a page with write generation 0 held non-zero bytes"
        );
        // `Err`: the thread is exiting and its list is gone already.
        let _ = ZEROED.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() == MAX_ZEROED {
                spare.remove(0);
            }
            spare.push(ram);
        });
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
        assert_ne!(m.page_gen(16), g, "reset must invalidate cached traces");
        assert_eq!(m.size(), 2 * PAGE_SIZE as usize);
    }

    #[test]
    fn a_recycled_buffer_is_indistinguishable_from_a_fresh_one() {
        // Five pages and a partial sixth. The harness runs each test on
        // a thread of its own, so the buffers dropped here are the ones
        // handed back here.
        const BYTES: usize = 5 * PAGE_SIZE as usize + 123;
        let last = BYTES as u32 - 1;
        type Dirty = fn(&mut Memory, u32);
        let cases: [(&str, Dirty); 4] = [
            ("stores at page edges", |m, last| {
                m.write_u8(0, 1).unwrap();
                m.write_u8(PAGE_SIZE - 1, 2).unwrap();
                m.write_u32(2 * PAGE_SIZE - 2, 0xAABB_CCDD).unwrap();
                m.write_bytes(4 * PAGE_SIZE - 3, &[3; 6]);
                m.write_u8(last, 4).unwrap();
            }),
            ("reset", |m, last| {
                m.write_u32(PAGE_SIZE, 5).unwrap();
                m.reset();
                m.write_u8(last, 6).unwrap();
            }),
            ("restore from a donor with different generations", |m, _| {
                // Page 1 is written here and untouched (generation 0)
                // at the donor; page 3 the other way round, and page 2
                // reaches different generations on the two sides.
                let mut donor = Memory::new(BYTES);
                donor.write_u32(3 * PAGE_SIZE, 7).unwrap();
                donor.write_u32(2 * PAGE_SIZE, 8).unwrap();
                donor.write_u32(2 * PAGE_SIZE + 4, 9).unwrap();
                m.write_u32(PAGE_SIZE, 10).unwrap();
                m.write_u32(2 * PAGE_SIZE + 8, 11).unwrap();
                m.restore(&donor.snapshot());
                assert_eq!((m.read_u32(PAGE_SIZE), m.page_gen(PAGE_SIZE)), (Ok(0), 0));
            }),
            ("clone", |m, last| {
                m.write_u32(PAGE_SIZE + 8, 12).unwrap();
                let mut twin = m.clone();
                twin.write_u8(last, 13).unwrap();
                m.write_u8(4 * PAGE_SIZE, 14).unwrap();
            }),
        ];
        let spares = || ZEROED.with_borrow(|spare| spare.len());
        let cpu = crate::cpu::Cpu::new(16, crate::tlb::TlbReplacement::RoundRobin, 0);
        let fresh_hash = crate::statehash::vm_state_hash(&cpu, &Memory::new(BYTES));
        for (what, dirty) in cases {
            let mut m = Memory::new(BYTES);
            dirty(&mut m, last);
            let buffer = m.ram.as_ptr();
            drop(m);
            // Donors and clones were recycled too: take every buffer back.
            let taken: Vec<Memory> = (0..spares()).map(|_| Memory::new(BYTES)).collect();
            assert_eq!(spares(), 0, "{what}: every spare matched the size");
            assert!(taken.iter().any(|t| t.ram.as_ptr() == buffer), "{what}");
            for t in &taken {
                assert!(t.ram.iter().all(|&b| b == 0), "{what}: stale bytes");
                assert!(t.page_gens.iter().all(|&g| g == 0), "{what}");
                assert_eq!(t.code_gen(PAGE_SIZE), 0, "{what}");
                assert_eq!(
                    crate::statehash::vm_state_hash(&cpu, t),
                    fresh_hash,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn the_spare_list_is_bounded() {
        let held: Vec<Memory> = (0..MAX_ZEROED + 3).map(|_| Memory::new(64)).collect();
        drop(held);
        assert_eq!(ZEROED.with_borrow(|spare| spare.len()), MAX_ZEROED);
        // A size nothing asks for again cannot clog the list.
        drop(Memory::new(128));
        let got = ZEROED.with_borrow(|spare| spare.iter().filter(|r| r.len() == 128).count());
        assert_eq!(got, 1);
    }

    /// Page 1 with the words `[lo, hi)` registered as decoded.
    fn mem_with_code(lo: u32, hi: u32) -> Memory {
        let m = Memory::new(4 * PAGE_SIZE as usize);
        for pa in (lo..hi).step_by(4) {
            m.note_decoded(pa);
        }
        m
    }

    #[test]
    fn stores_beside_decoded_bytes_leave_the_code_generation_alone() {
        let (lo, hi) = (PAGE_SIZE + 0x100, PAGE_SIZE + 0x140);
        let mut m = mem_with_code(lo, hi);
        let code = m.code_gen(lo);
        let writes = m.page_gen(lo);
        m.write_u32(lo - 4, 1).unwrap(); // ends at lo
        m.write_u32(hi, 2).unwrap(); // starts at hi
        m.write_u8(lo - 1, 3).unwrap();
        m.write_u8(hi, 4).unwrap();
        m.write_u32(lo - 4 - 3, 5).unwrap(); // unaligned, ends at lo - 3
        m.write_bytes(hi, &[6; 64]);
        m.write_bytes(PAGE_SIZE, &[7; 0x100]); // [page start, lo)
        assert_eq!(m.code_gen(lo), code, "no decoded byte was written");
        assert_eq!(m.page_gen(lo), writes + 7, "every write still counts");
    }

    #[test]
    fn stores_into_decoded_bytes_bump_the_code_generation() {
        let (lo, hi) = (PAGE_SIZE + 0x100, PAGE_SIZE + 0x140);
        type Write = fn(&mut Memory, u32, u32);
        let overlapping: [(&str, Write); 7] = [
            ("word at lo", |m, lo, _| m.write_u32(lo, 1).unwrap()),
            ("word at hi - 4", |m, _, hi| m.write_u32(hi - 4, 1).unwrap()),
            ("last code byte", |m, _, hi| m.write_u8(hi - 1, 1).unwrap()),
            ("first code byte", |m, lo, _| m.write_u8(lo, 1).unwrap()),
            ("unaligned word reaching lo", |m, lo, _| {
                m.write_u32(lo - 3, 1).unwrap()
            }),
            ("bulk write reaching lo", |m, lo, _| {
                m.write_bytes(lo - 8, &[1; 9])
            }),
            ("bulk write from hi - 1", |m, _, hi| {
                m.write_bytes(hi - 1, &[1; 32])
            }),
        ];
        for (what, write) in overlapping {
            let mut m = mem_with_code(lo, hi);
            let code = m.code_gen(lo);
            write(&mut m, lo, hi);
            assert_eq!(m.code_gen(lo), code + 1, "{what}");
            assert_eq!(m.code_gen(0), 0, "{what}: other pages untouched");
        }
    }

    #[test]
    fn stores_beside_code_are_judged_by_the_extent_as_it_is_now() {
        // The jit's data-page map writes to a page that holds code
        // through `write_beside_code`: beside the live extent it writes
        // and keeps only the dirty signals; over it — as the extent
        // is now, grown since or not — it writes nothing, and the full
        // path moves the code generation.
        let (lo, hi) = (PAGE_SIZE + 0x100, PAGE_SIZE + 0x140);
        let mut m = mem_with_code(lo, hi);
        let (code, writes) = (m.code_gen(lo), m.page_gen(lo));
        assert!(m.write_beside_code(lo - 4, &[1, 0, 0, 0]));
        assert!(m.write_beside_code(hi, &[2, 0, 0, 0]));
        assert!(m.write_beside_code(lo - 1, &[3]) && m.write_beside_code(hi, &[4]));
        assert_eq!((m.code_gen(lo), m.page_gen(lo)), (code, writes + 4));
        assert_eq!(m.read_u32(hi), Ok(4), "the word, then its low byte");
        assert!(!m.write_beside_code(lo, &[5, 0, 0, 0]) && !m.write_beside_code(hi - 1, &[6]));
        m.note_decoded(hi);
        assert!(!m.write_beside_code(hi, &[7, 0, 0, 0]), "the extent grew");
        assert_eq!((m.code_gen(lo), m.page_gen(lo)), (code, writes + 4));
        assert_eq!(m.read_u32(lo), Ok(0), "nothing written");
        assert!(!m.write_beside_code(4 * PAGE_SIZE, &[8]), "beyond RAM");
    }

    #[test]
    fn a_page_straddling_word_is_judged_page_by_page() {
        // Code at the very start of page 2 only.
        let (lo, hi) = (2 * PAGE_SIZE, 2 * PAGE_SIZE + 8);
        let mut m = mem_with_code(lo, hi);
        let (g1, g2) = (m.code_gen(PAGE_SIZE), m.code_gen(lo));
        let (w1, w2) = (m.page_gen(PAGE_SIZE), m.page_gen(lo));
        m.write_u32(lo - 2, 0xAABB_CCDD).unwrap();
        assert_eq!(m.code_gen(PAGE_SIZE), g1, "page 1 holds no code");
        assert_eq!(m.code_gen(lo), g2 + 1, "two bytes landed on page 2's code");
        assert_eq!((m.page_gen(PAGE_SIZE), m.page_gen(lo)), (w1 + 1, w2 + 1));
        // The mirror image: code at the very end of page 1 only.
        let (lo, hi) = (2 * PAGE_SIZE - 8, 2 * PAGE_SIZE);
        let mut m = mem_with_code(lo, hi);
        let (g1, g2) = (m.code_gen(lo), m.code_gen(hi));
        m.write_u32(hi - 1, 0xAABB_CCDD).unwrap();
        assert_eq!(m.code_gen(lo), g1 + 1, "one byte landed on page 1's code");
        assert_eq!(m.code_gen(hi), g2, "page 2 holds no code");
    }

    #[test]
    fn a_bulk_write_is_judged_page_by_page() {
        // Code in the middle of pages 1 and 3, none on page 2.
        let mut m = mem_with_code(PAGE_SIZE + 0x800, PAGE_SIZE + 0x810);
        m.note_decoded(3 * PAGE_SIZE + 0x800);
        let gens = |m: &Memory| [1, 2, 3].map(|p| m.code_gen(p * PAGE_SIZE));
        let before = gens(&m);
        // From page 1's code to just short of page 3's.
        m.write_bytes(PAGE_SIZE + 0x80C, &vec![9; (2 * PAGE_SIZE - 0x0C) as usize]);
        assert_eq!(gens(&m), [before[0] + 1, before[1], before[2]]);
    }

    #[test]
    fn the_digest_does_not_depend_on_the_code_extent() {
        // A store into the data part of a page that also holds code is
        // invisible to the code caches but not to the dirty signals
        // or the VM-state hash.
        let cpu = crate::cpu::Cpu::new(16, crate::tlb::TlbReplacement::RoundRobin, 0);
        let mut m = mem_with_code(PAGE_SIZE + 0x100, PAGE_SIZE + 0x140);
        let hash = crate::statehash::vm_state_hash(&cpu, &m);
        let (code, writes) = (m.code_gen(PAGE_SIZE), m.page_gen(PAGE_SIZE));
        m.write_u32(PAGE_SIZE + 0x400, 0xFEED).unwrap();
        assert_eq!(m.code_gen(PAGE_SIZE), code);
        assert_eq!(m.page_gen(PAGE_SIZE), writes + 1);
        assert_ne!(crate::statehash::vm_state_hash(&cpu, &m), hash);
        assert_eq!(
            crate::statehash::vm_state_hash(&cpu, &m),
            crate::statehash::vm_state_hash_from_scratch(&cpu, &m)
        );
    }

    #[test]
    fn reset_and_restore_forget_the_extent_and_kill_cached_code() {
        let (lo, hi) = (PAGE_SIZE + 0x100, PAGE_SIZE + 0x140);
        let mut m = mem_with_code(lo, hi);
        let snap = m.snapshot();
        let code = m.code_gen(lo);
        m.reset();
        assert_eq!(m.code_gen(lo), code + 1, "reset kills cached traces");
        m.write_u32(lo, 1).unwrap();
        assert_eq!(m.code_gen(lo), code + 1, "the extent is empty again");
        m.note_decoded(lo);
        let clean = m.code_gen(0);
        m.restore(&snap);
        assert_eq!(m.code_gen(lo), code + 2, "restore kills cached traces");
        assert_eq!(m.code_gen(0), clean + 1, "on every page");
        m.write_u32(lo, 1).unwrap();
        assert_eq!(m.code_gen(lo), code + 2, "the extent is empty again");
        // A clone carries generation and extent: the same cached code
        // is valid against it, and it judges writes the same way.
        m.note_decoded(lo);
        let mut twin = m.clone();
        assert_eq!(twin.code_gen(lo), m.code_gen(lo));
        twin.write_u32(lo, 2).unwrap();
        assert_eq!(twin.code_gen(lo), m.code_gen(lo) + 1);
    }
}
