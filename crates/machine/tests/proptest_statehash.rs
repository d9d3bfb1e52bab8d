//! Property tests: the VM-state digest is a pure function of (hashed
//! registers, RAM bytes).
//!
//! [`vm_state_hash`] is evaluated incrementally — every RAM write path
//! marks the 128-byte lines it lands on, and `Memory` rereads only the
//! marked lines — so the claim to defend is that no history can be told
//! from the value: after any interleaving of every RAM write path, with
//! the caches warmed at arbitrary points, it equals
//! [`vm_state_hash_from_scratch`] (which ignores the cache) and the
//! digest of a freshly built `Memory` holding the same bytes. A write
//! path that forgot its mark would leave *both* replicas with the same
//! stale digest, and lockstep would miss divergences without an error:
//! so the operations aim at the edges a mark can miss — a line's first
//! and last word, a word across two lines, DMA that starts and ends
//! mid-line, two lines swapped — and the guest stores through each of
//! the jit's fast paths onto lines of their own. The second half pins
//! the digest's sensitivity: any single byte, any two pages or lines
//! swapped.

use hvft_isa::asm::assemble;
use hvft_isa::codec::encode;
use hvft_isa::instruction::{AluImmOp, Instruction};
use hvft_isa::program::Program;
use hvft_isa::reg::Reg;
use hvft_machine::cpu::{Cpu, Exit};
use hvft_machine::exec::ExecTier;
use hvft_machine::mem::{Memory, LINE_SIZE, PAGE_SIZE};
use hvft_machine::snapshot::{CpuSnapshot, MemSnapshot};
use hvft_machine::statehash::{vm_state_hash, vm_state_hash_from_scratch};
use hvft_machine::tlb::TlbReplacement;
use hvft_machine::LoadProgram;
use proptest::prelude::*;

const TIERS: [ExecTier; 2] = [ExecTier::Step, ExecTier::Jit];
const PAGES: u32 = 16;
const RAM: u32 = PAGES * PAGE_SIZE;
/// The guest owns pages 0–2; the test's own writes stay above them so
/// the guest keeps running whatever the interleaving.
const FIRST_FREE: u32 = 3 * PAGE_SIZE;
/// The lines the test's own writes may land on.
const FREE_LINES: std::ops::Range<u32> = FIRST_FREE / LINE_SIZE..RAM / LINE_SIZE;

/// Runs forever. The hot routine starts at the end of page 0 and `jal`s
/// into page 1, so the jit compiles one trace across both pages; every
/// 32nd call a store *inside that trace* patches `slot` (self-modifying
/// code on the trace's second page), alternating between two encodings.
/// Every iteration also stores through each of the jit's fast paths, on
/// a line of its own: a word at the end of a line of page 2 and a byte
/// at the start of another (the data-page map), and a word on page 1
/// beside the trace's code (the map's code-page write tag).
const GUEST: &str = ".org 0
start:
    lw   r21, 512(r0)        ; replacement word A (poked by the test)
    lw   r25, 516(r0)        ; replacement word B (poked by the test)
    addi r27, r0, 4096
outer:
    andi r24, r22, 31
    jal  ra, crosser
    sw   r20, 4220(r27)      ; data store, page 2: last word of line 0
    sb   r22, 4352(r27)      ; data store, page 2: first byte of line 2
    sw   r22, 640(r27)       ; page 1, beside the code: line 5
    addi r22, r22, 1
    jal  r0, outer

    .org 4088
crosser:
    addi r20, r20, 1
    jal  r0, tail            ; crosses into page 1 mid-trace

    .org 4096
tail:
    bne  r24, r0, skip
    sw   r21, 4116(r0)       ; patch `slot` from inside the trace
    add  r26, r21, r0        ; next patch writes the other word
    add  r21, r25, r0
    add  r25, r26, r0
skip:
slot:
    addi r20, r20, 2         ; becomes addi r20, r20, 100, and back
    jalr r0, ra, 0
";

fn addi_r20(imm: i32) -> u32 {
    encode(Instruction::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::of(20),
        rs1: Reg::of(20),
        imm,
    })
    .unwrap()
}

struct Machine {
    cpu: Cpu,
    mem: Memory,
}

impl Machine {
    fn boot(image: &Program, tlb_seed: u64) -> Self {
        let mut m = Machine {
            cpu: Cpu::new(16, TlbReplacement::Random, tlb_seed),
            mem: Memory::new(RAM as usize),
        };
        m.load(image);
        m
    }

    /// Image load: the `write_bytes` path, then two poked words.
    fn load(&mut self, image: &Program) {
        image.load_into_cpu(&mut self.cpu, &mut self.mem);
        self.mem.write_u32(512, addi_r20(100)).unwrap();
        self.mem.write_u32(516, addi_r20(2)).unwrap();
    }

    fn hash(&self) -> u64 {
        vm_state_hash(&self.cpu, &self.mem)
    }
}

#[derive(Clone, Debug)]
enum Op {
    Byte {
        addr: u32,
        value: u8,
    },
    Word {
        addr: u32,
        value: u32,
    },
    /// A word whose four bytes lie on both sides of a page boundary.
    Straddle {
        page: u32,
        back: u32,
        value: u32,
    },
    /// A word at a line's first or last word, or across the boundary
    /// into the next line (`back` bytes before it: 4 is the last word,
    /// 1–3 straddle).
    LineEdge {
        line: u32,
        back: u32,
        value: u32,
    },
    /// DMA that starts `start` bytes into a line and ends `end` bytes
    /// into the line `lines` further on.
    DmaMidLine {
        line: u32,
        start: u32,
        lines: u32,
        end: u32,
        fill: u8,
    },
    /// Two lines exchange their bytes.
    SwapLines {
        a: u32,
        b: u32,
    },
    /// Device DMA: up to three pages in one `write_bytes`.
    Dma {
        addr: u32,
        len: u32,
        fill: u8,
    },
    Reset,
    Snapshot,
    /// Restores the last snapshot, taken on either machine.
    Restore,
    /// Replaces the memory with its own clone.
    Clone,
    Run {
        tier: usize,
        budget: u64,
    },
    /// Warms the cache and checks it.
    Hash,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (FIRST_FREE..RAM, any::<u8>()).prop_map(|(addr, value)| Op::Byte { addr, value }),
        (FIRST_FREE / 4..RAM / 4, any::<u32>())
            .prop_map(|(w, value)| Op::Word { addr: w * 4, value }),
        (4u32..PAGES, 1u32..4, any::<u32>()).prop_map(|(page, back, value)| Op::Straddle {
            page,
            back,
            value
        }),
        (FIRST_FREE..RAM, 1u32..3 * PAGE_SIZE, any::<u8>()).prop_map(|(addr, len, fill)| Op::Dma {
            addr,
            len,
            fill
        }),
        (FREE_LINES, 1u32..=4, any::<u32>()).prop_map(|(line, back, value)| Op::LineEdge {
            line,
            back,
            value
        }),
        (
            FREE_LINES,
            1u32..LINE_SIZE,
            1u32..40,
            1u32..LINE_SIZE,
            any::<u8>()
        )
            .prop_map(|(line, start, lines, end, fill)| Op::DmaMidLine {
                line,
                start,
                lines,
                end,
                fill
            }),
        (FREE_LINES, FREE_LINES).prop_map(|(a, b)| Op::SwapLines { a, b }),
        Just(Op::Reset),
        Just(Op::Snapshot),
        Just(Op::Restore),
        Just(Op::Clone),
        // Listed twice: guest execution and cache warming carry the
        // property, so they get twice the weight of the other arms.
        (0usize..2, 1u64..600).prop_map(|(tier, budget)| Op::Run { tier, budget }),
        (0usize..2, 1u64..600).prop_map(|(tier, budget)| Op::Run { tier, budget }),
        Just(Op::Hash),
        Just(Op::Hash),
    ]
}

/// Device DMA of `len` bytes counting up from `fill`.
fn dma(mem: &mut Memory, addr: u32, len: u32, fill: u8) {
    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
    mem.write_bytes(addr, &data);
}

/// Exchanges the bytes of lines `a` and `b`, one DMA each.
fn swap_lines(mem: &mut Memory, a: u32, b: u32) {
    let bytes = |mem: &Memory, line: u32| {
        mem.read_bytes(line * LINE_SIZE, LINE_SIZE as usize)
            .to_vec()
    };
    let (line_a, line_b) = (bytes(mem, a), bytes(mem, b));
    mem.write_bytes(a * LINE_SIZE, &line_b);
    mem.write_bytes(b * LINE_SIZE, &line_a);
}

/// The three evaluations that must agree: cached, from scratch, and
/// cached on a new `Memory` given the same bytes.
fn check(m: &Machine, what: &str) -> Result<(), TestCaseError> {
    let incremental = m.hash();
    prop_assert_eq!(
        incremental,
        vm_state_hash_from_scratch(&m.cpu, &m.mem),
        "{}: incremental digest differs from the from-scratch one",
        what
    );
    let mut fresh = Memory::new(m.mem.size());
    fresh.write_bytes(0, m.mem.read_bytes(0, m.mem.size()));
    prop_assert_eq!(
        incremental,
        vm_state_hash(&m.cpu, &fresh),
        "{}: digest differs from a fresh memory with the same bytes",
        what
    );
    prop_assert_eq!(m.mem.first_differing_page(&fresh), None);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn incremental_digest_equals_from_scratch_digest(
        ops in prop::collection::vec((0usize..2, arb_op()), 1..120),
    ) {
        let image = assemble(GUEST).expect("asm");
        let mut machines = [Machine::boot(&image, 1), Machine::boot(&image, 99)];
        let mut snapshot: Option<(CpuSnapshot, MemSnapshot)> = None;
        for (step, (which, op)) in ops.into_iter().enumerate() {
            let m = &mut machines[which];
            match op {
                Op::Byte { addr, value } => m.mem.write_u8(addr, value).unwrap(),
                Op::Word { addr, value } => m.mem.write_u32(addr, value).unwrap(),
                Op::Straddle { page, back, value } => {
                    m.mem.write_u32(page * PAGE_SIZE - back, value).unwrap();
                }
                Op::Dma { addr, len, fill } => dma(&mut m.mem, addr, len.min(RAM - addr), fill),
                Op::LineEdge { line, back, value } => {
                    // The first free line's edge is the guest's page's.
                    let at = (line * LINE_SIZE).saturating_sub(back).max(FIRST_FREE);
                    m.mem.write_u32(at, value).unwrap();
                }
                Op::DmaMidLine { line, start, lines, end, fill } => {
                    let from = line * LINE_SIZE + start;
                    let to = ((line + lines) * LINE_SIZE + end).min(RAM);
                    dma(&mut m.mem, from, to.saturating_sub(from), fill);
                }
                Op::SwapLines { a, b } => swap_lines(&mut m.mem, a, b),
                Op::Reset => {
                    m.mem.reset();
                    m.load(&image);
                }
                Op::Snapshot => snapshot = Some((m.cpu.snapshot(), m.mem.snapshot())),
                Op::Restore => {
                    if let Some((cpu, mem)) = &snapshot {
                        m.cpu.restore(cpu);
                        m.mem.restore(mem);
                    }
                }
                Op::Clone => m.mem = m.mem.clone(),
                Op::Run { tier, budget } => {
                    m.cpu.set_exec_tier(TIERS[tier]);
                    let exit = m.cpu.run(&mut m.mem, budget);
                    prop_assert_eq!(exit, Exit::Retired, "the guest never stops");
                }
                Op::Hash => check(m, &format!("step {step}"))?,
            }
        }
        for (i, m) in machines.iter().enumerate() {
            check(m, &format!("machine {i} at the end"))?;
        }
    }

    // The two tiers reach the same digest through different store
    // paths, with the cache warmed at different points on each.
    #[test]
    fn digest_is_tier_and_warmth_invariant(
        chunks in prop::collection::vec((1u64..400, any::<bool>()), 1..40),
    ) {
        let image = assemble(GUEST).expect("asm");
        let mut finals = Vec::new();
        for (t, tier) in TIERS.into_iter().enumerate() {
            let mut m = Machine::boot(&image, 7);
            m.cpu.set_exec_tier(tier);
            for (i, &(budget, warm)) in chunks.iter().enumerate() {
                prop_assert_eq!(m.cpu.run(&mut m.mem, budget), Exit::Retired);
                // Each tier warms its cache at different boundaries.
                if warm == ((i + t) % 2 == 0) {
                    m.hash();
                }
            }
            check(&m, &format!("{tier}"))?;
            finals.push(m);
        }
        for m in &finals[1..] {
            prop_assert_eq!(
                m.hash(),
                finals[0].hash(),
                "tiers disagree; first differing page {:?}",
                m.mem.first_differing_page(&finals[0].mem)
            );
        }
    }

    // Any single byte, in a page written this "epoch" or not, with the
    // cache warm: the digest moves, names the page, and moves back.
    #[test]
    fn flipping_any_single_byte_changes_the_digest(
        addr in 0u32..RAM,
        flip in 1u8..=255,
        ran in 0u64..2000,
    ) {
        let image = assemble(GUEST).expect("asm");
        let mut m = Machine::boot(&image, 3);
        m.cpu.set_exec_tier(ExecTier::Jit);
        if ran > 0 {
            prop_assert_eq!(m.cpu.run(&mut m.mem, ran), Exit::Retired);
        }
        let before = m.hash();
        let pristine = m.mem.clone();
        let old = m.mem.read_u8(addr).unwrap();
        m.mem.write_u8(addr, old ^ flip).unwrap();
        prop_assert!(m.hash() != before, "flip at {:#x} went unnoticed", addr);
        prop_assert_eq!(m.mem.first_differing_page(&pristine), Some(addr / PAGE_SIZE));
        m.mem.write_u8(addr, old).unwrap();
        prop_assert_eq!(m.hash(), before);
        prop_assert_eq!(m.mem.first_differing_page(&pristine), None);
    }

    // Page digests are folded with their index: the same set of pages
    // in another order is another state.
    #[test]
    fn swapping_two_pages_changes_the_digest(
        a in 0u32..PAGES,
        b in 0u32..PAGES,
        seed in any::<u8>(),
    ) {
        prop_assume!(a != b);
        let cpu = Cpu::new(8, TlbReplacement::RoundRobin, 0);
        let mut mem = Memory::new(RAM as usize);
        // Every page distinct, so any swap is a real change.
        for page in 0..PAGES {
            mem.write_u8(page * PAGE_SIZE + 17, seed.wrapping_add(page as u8)).unwrap();
        }
        let before = vm_state_hash(&cpu, &mem);
        let page_a = mem.read_bytes(a * PAGE_SIZE, PAGE_SIZE as usize).to_vec();
        let page_b = mem.read_bytes(b * PAGE_SIZE, PAGE_SIZE as usize).to_vec();
        mem.write_bytes(a * PAGE_SIZE, &page_b);
        mem.write_bytes(b * PAGE_SIZE, &page_a);
        let after = vm_state_hash(&cpu, &mem);
        prop_assert!(after != before, "swapping pages {} and {} went unnoticed", a, b);
        prop_assert_eq!(after, vm_state_hash_from_scratch(&cpu, &mem));
    }

    // Line terms are summed, and a sum does not care about order: the
    // index each term is keyed with is what tells two lines' bytes
    // from the same bytes swapped — within a page or across pages.
    #[test]
    fn swapping_two_lines_changes_the_digest(
        a in 0u32..RAM / LINE_SIZE,
        b in 0u32..RAM / LINE_SIZE,
        at in 0u32..LINE_SIZE,
        seed in any::<u8>(),
    ) {
        prop_assume!(a != b);
        let cpu = Cpu::new(8, TlbReplacement::RoundRobin, 0);
        let mut mem = Memory::new(RAM as usize);
        mem.write_u8(a * LINE_SIZE + at, seed | 1).unwrap();
        mem.write_u8(b * LINE_SIZE + at, (seed | 1).wrapping_add(1)).unwrap();
        let before = vm_state_hash(&cpu, &mem);
        let pristine = mem.clone();
        swap_lines(&mut mem, a, b);
        let after = vm_state_hash(&cpu, &mem);
        prop_assert!(after != before, "swapping lines {} and {} went unnoticed", a, b);
        prop_assert_eq!(after, vm_state_hash_from_scratch(&cpu, &mem));
        let first = a.min(b) * LINE_SIZE / PAGE_SIZE;
        prop_assert_eq!(mem.first_differing_page(&pristine), Some(first));
    }
}

/// The guest does what its comment says: under the jit its hot path is
/// a cross-page trace that keeps invalidating itself — the store paths
/// the properties above are meant to cover.
#[test]
fn the_guest_patches_its_own_cross_page_trace() {
    let image = assemble(GUEST).expect("asm");
    let run = |tier| {
        let mut m = Machine::boot(&image, 1);
        m.cpu.set_exec_tier(tier);
        for _ in 0..40 {
            assert_eq!(m.cpu.run(&mut m.mem, 1_000), Exit::Retired);
            m.hash();
        }
        m
    };
    let (jit, step) = (run(ExecTier::Jit), run(ExecTier::Step));
    let x = jit.cpu.exec_stats();
    assert!(
        x.cross_page_superblocks >= 1 && x.jit_invalidations >= 2,
        "{x:?}"
    );
    assert!(x.jit_retired > 0, "{x:?}");
    assert_eq!(jit.hash(), step.hash());
    assert_eq!(jit.hash(), vm_state_hash_from_scratch(&jit.cpu, &jit.mem));
}

/// Trap 1 at the machine level: equal generations, different bytes.
/// Two memories each take exactly one store to the same page — the
/// page's generation is the same number on both — and both digests are
/// cached. Restoring B's snapshot onto A installs B's bytes *and* B's
/// generations, so A's cached entry for that page carries the right
/// generation and the wrong bytes; the restore must drop it.
#[test]
fn restore_drops_digests_cached_under_equal_generations() {
    let cpu = Cpu::new(8, TlbReplacement::RoundRobin, 0);
    let mut a = Memory::new(RAM as usize);
    let mut b = Memory::new(RAM as usize);
    let target = 5 * PAGE_SIZE + 64;
    a.write_u32(target, 0x1111_1111).unwrap();
    b.write_u32(target, 0x2222_2222).unwrap();
    assert_eq!(a.page_gen(target), b.page_gen(target));
    let (hash_a, hash_b) = (vm_state_hash(&cpu, &a), vm_state_hash(&cpu, &b));
    assert_ne!(hash_a, hash_b);
    assert_eq!(a.first_differing_page(&b), Some(5));

    a.restore(&b.snapshot());
    assert_eq!(a.page_gen(target), b.page_gen(target));
    assert_eq!(vm_state_hash(&cpu, &a), hash_b);
    assert_eq!(vm_state_hash_from_scratch(&cpu, &a), hash_b);
    assert_eq!(a.first_differing_page(&b), None);
}
