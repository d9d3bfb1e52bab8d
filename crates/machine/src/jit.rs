//! The jit tier: template-compiled superblocks.
//!
//! A `SuperBlock` is the unit of compiled code: a run of consecutive
//! instruction words starting at a physical fetch address, translated
//! into an array of compact `Op` records — each a pre-specialized
//! opcode with its operands (register names, immediates, pre-shifted
//! constants, branch wiring) resolved at compile time. Execution is a
//! single dense jump table over the opcode — the safe-Rust analogue of
//! threaded code's computed goto — with every op body inlined into one
//! loop frame: no fetch, no decode, no per-instruction operand
//! unpacking, no call/return per instruction, and the loop state
//! (op index, budget, register-file base) lives in machine registers
//! across ops.
//!
//! Superblocks are larger than basic blocks: compilation is a *trace*
//! — it continues through conditional
//! branches (the not-taken path falls through to the next op) and
//! follows the static target of unconditional `jal`s, so a call and
//! its callee compile into one superblock. Each op records its own
//! entry-relative PC offset, which is what lets the trace leave
//! address order. Any branch or `jal` whose target was compiled into
//! the trace is wired directly to the target op index, so a hot loop —
//! calls included — executes entirely inside one superblock without
//! re-entering the dispatcher.
//!
//! # What ends a trace
//!
//! Only an instruction after which control *always* leaves the
//! straight line and the trace does not know where to: a `jalr`-class
//! register-indirect jump that is not a guarded return (below), an
//! `rfi` (out of a handler), `halt` and `idle`; they compile as the
//! trace's final op. Beyond that, a word that cannot be read or
//! decoded, the edge of the last registered page, and an address the
//! trace has already compiled. A `gate` or `brk` does **not** end a
//! trace: control comes back to `pc + 4` when the handler's `rfi`
//! returns, so compilation goes on there, and the user code around a
//! syscall — the branch that skips it included — is one trace.
//!
//! Privileged and environment instructions do not end a trace either.
//! `ssm`, `rsm`, `tlbi`, `tlbp`, `mftod`, `mftodh`, `mtit`, `mfit`,
//! `diag`, `gate`, `brk`, the control-register moves the frame depends
//! on (below) — and `rfi`, `halt`, `idle` — have no template; they
//! compile into one op kind, the **assist op**, which
//! carries an index into a per-superblock side table of decoded
//! instructions (so `Op` stays 16 bytes and nothing is decoded at run
//! time). Executing one, out of line (`assist_op`): the architectural
//! state is synced; a privileged instruction above privilege 0 is
//! handed, decoded, to the embedder's [`Assist::privileged`] hook
//! in-frame, anything else runs through [`Cpu::execute`], and an exit
//! it ends in is served in-frame too (below); then everything the
//! dispatcher establishes at entry is established again and the frame
//! goes on. A guest kernel's trap handler (`mfctl; sw; mfctl; …; mtctl;
//! rfi`) is therefore one trace, and a guest syscall — the `gate`, the
//! handler, the `rfi` — never leaves the frame it started in.
//!
//! `mfctl` and `mtctl` of any control register but `rctr`, `eiem` and
//! `eirr` — the three whose value the frame itself depends on — are
//! **register moves**: template ops that check the privilege at run
//! time. At privilege 0 one is a load or a store of the control
//! register and nothing else; above it, it is offered to
//! [`Assist::control`], and an embedder that emulates it as a move (a
//! hypervisor simulating its guest kernel's move) answers with how
//! much further the frame may run — nothing else can have moved, so
//! the frame re-derives only the goal. One that declines makes it an
//! assist op like any other.
//!
//! # Exits served in-frame
//!
//! The exit an assist op's instruction ends in — a `gate` or `brk`
//! trap, an environment op at privilege 0 (`mftod`, `mtit`, …),
//! `halt`, `idle`, `diag` — is offered to the embedder's
//! [`Assist::exit`] by the op itself, in exactly the state the run loop
//! would offer it in (PC, retirement count and recovery counter synced,
//! the data-page map's TLB hits booked). `Surface` leaves the frame
//! with the exit; `Continue` re-establishes the dispatcher's predicates
//! as after any assist op, and the frame goes on at the next op if
//! control fell through in the same context (a completed `mftod`) and
//! else by the op's link (a reflected `gate`, into the handler's
//! trace). Only faults of template ops, the pre-dispatch checks and
//! cold code still meet the embedder in the run loop.
//!
//! # Guarded returns
//!
//! A trace that followed a `jal` with a non-zero link register into its
//! callee knows where the callee's return goes: to the `jal`'s `pc +
//! 4`. So the callee's `jalr` does not end the trace; compilation goes
//! on at the return point, and the `jalr` compiles as a **guarded
//! return** that falls through to the op compiled there. Executing it
//! is the `jalr`'s semantics plus one compare: the computed target
//! against the virtual address of that op. Equal — the common case, a
//! callee returning to its caller — and the frame goes on at the next
//! op (`ExecStats::ret_inline`); not equal — a callee that clobbered
//! `ra`, returned to another site or unwound — and it leaves by the
//! trace's return links, like a `jalr` that ends a trace. Nested calls
//! pair with their returns innermost first. A call into code the trace
//! already holds (recursion) is not followed, and a return to a point
//! it already holds ends the trace: going on there would make the next
//! op's index one more load away, and a frame pays for every transfer
//! whose successor it must read from an op record.
//!
//! When the straight line runs into an address it has already compiled
//! the trace has **closed on itself**, and falling off its end
//! continues at that op, in-frame, like any wired branch
//! (`SuperBlock::wrap`). This matters for a loop closed by an
//! unconditional jump — which compilation follows — and entered
//! mid-body: the guest kernel's disk wait (`retry: …; ssm 1; wait: lw;
//! beq wait; rsm 1; …; b retry`) re-entered at `wait` after an
//! interrupt compiles into a trace that ends one op short of its own
//! entry, and without the wiring every spin iteration would leave
//! through `chain!` — translate, look up, re-enter the same trace.
//!
//! A trace may **cross pages**: a `jal` whose
//! target lies in another page (up to `MAX_TRACE_PAGES` per trace)
//! extends the trace when that page translates executably *right
//! now*, and the trace records the secondary page as a
//! `(entry-relative virtual base, physical page, code generation)`
//! dependency. Every entry path that looks a trace up — the dispatcher
//! probe, the front table, and `JitCache::peek` on a hop no link
//! answered — re-validates *all* recorded pages: code generations must be unmoved and each secondary
//! virtual page must still translate to the recorded physical page
//! (via side-effect-free TLB peeks, so validation frequency never
//! perturbs snapshotted accounting). Straight-line flow still stops
//! at an unregistered page edge, which keeps the dependency set tied
//! to explicit call structure.
//!
//! # Leaving a trace: links
//!
//! Every way out of a trace has a `Link`: a cell that remembers where
//! control went the last time it left this way — the virtual target and
//! the arena index of the trace entered there — and the *stamp* of the
//! execution context that answer was validated in (below). An
//! out-of-span branch or `jal`, an assist op that sends control
//! elsewhere and falling off the trace's end each have one cell in a
//! side table beside the arena; the trace's `jalr`s — the one that ends
//! it, and a guarded return whose guard failed — share two, in the
//! superblock itself, tried in order. A hop whose cell names the
//! target it is going to, under the stamp the frame is running in, is
//! two compares and an `enter!`: no translation of the PC, no probe of
//! the front table or the map, no re-validation of the target trace. A
//! hop whose cell does not goes the long way once (`JitCache::hop`:
//! translate, `peek`, which validates everything an entry validates)
//! and records what it found.
//!
//! The `jalr` is almost always a `ret`, and a `ret` has a hot caller —
//! or, in a recursive routine, two: the outer call site and its own.
//! With one cell the second evicts the first on every pass (callstorm:
//! 2 returns in 15 took the long way); with two, a miss overwrites a
//! way that is dead anyway (recorded under another stamp) and else the
//! second, so the first keeps the target that got there first.
//!
//! # Loads and stores: the data-page map
//!
//! Of everything `access_load` / `access_store` do — alignment,
//! translation through the TLB with its permission check and hit
//! counter, the RAM bounds and I/O-window test, for a store the page
//! generation and the decoded-extent compare — only the alignment and
//! the bounds depend on the access in a page without code; the rest
//! depends on the page and the execution context. `Context` keeps a
//! direct-mapped map from virtual page to RAM page with one tag per
//! kind of access, set when an access of that kind went through the
//! full path and succeeded; a load or store whose probe (page bits, PSW
//! key, and for a word the low two address bits) equals the tag is a
//! bounds-checked read or write of RAM and nothing else. A page that
//! holds decoded code gets a write tag of its own, tried out of line
//! when the plain one misses: a store through it is compared with the
//! page's decoded extent *as it is now* (`Memory::write_beside_code`)
//! and written if it lands beside it — the guest kernel's save slots,
//! which share page 0 with its vectors, go so. A miss, a fault, the I/O
//! window, a read-only page and a store over decoded bytes take the
//! full path, unchanged. Each
//! map hit stood in for one counted TLB lookup when translation is on;
//! the frame counts them and books them into the TLB's hit counter
//! before anything can read it.
//!
//! # Poll loops
//!
//! Interrupts are delivered only at epoch boundaries (paper §2.1), so
//! a guest that waits for one — the kernel's disk wait, `lw r28, flag;
//! beq r28, r0, wait` — spins through whole grants whose outcome is
//! known after one iteration. `compile` marks the conditional branch
//! that closes such a loop as a **spin** (`Kind::Spin`) when its
//! target is in-span, the straight line from there (through `wrap`)
//! runs back into it, every op on the way is a template ALU op, `lui`,
//! `nop` or a load, and every register the body or the branch reads is
//! either written nowhere in the body or written earlier in the same
//! iteration. No store, assist op, register move, `probe` or transfer
//! is in the body, and no value is carried from one iteration into the
//! next: what an iteration computes is a function of memory and of
//! registers it does not write.
//!
//! At run time the frame remembers the last take of a spin — its op
//! index, `left` and the map hits so far; a not-taken spin forgets it.
//! When the same spin is taken again exactly one iteration's length
//! later, with a map hit for every load of the body in between, an
//! iteration ran whole from the loop head with every load answered by
//! RAM: memory cannot have changed (the body stores nothing, and
//! nothing else runs inside a frame), so the state it ended in is the
//! state every further iteration ends in. The frame then retires every
//! whole iteration its grant still holds in one step (`left` down by
//! their length, their loads booked as map hits) and runs the rest op
//! by op, so it stops on the very instruction the step tier stops on:
//! at the budget's end, the recovery counter's expiry or mid-body.
//! One iteration is not enough: a loop entered at its branch, with the
//! register it tests not yet loaded, may still fall through after its
//! first take ([`ExecStats::spin_skipped`] counts what was skipped).
//!
//! # Exactness
//!
//! The paper's protocols depend on interrupts being deliverable at an
//! *exact* point in the guest instruction stream (§2.1: epochs end
//! after precisely `epoch_len` retired instructions, and interrupts are
//! delivered only at those boundaries). Batching execution must not
//! smear those points, so the engine preserves the Instruction-Stream
//! Interrupt Assumption by construction — equivalent to single-stepping
//! **instruction for instruction**, not merely "close" — and wherever
//! it has no compiled code it does not batch at all: the dispatcher's
//! cold path is [`Cpu::step`] itself (`Cpu::step_cold`), the reference
//! semantics and every one of its per-instruction checks.
//!
//! - **physical keys**: superblocks are keyed by physical fetch
//!   address, so TLB refills, replacement-policy non-determinism and
//!   remappings can never make compiled code stale — the same physical
//!   words are the same trace — and staleness has exactly one source,
//!   the backing RAM changing under a decoded word (below);
//! - **retirement clamp**: a frame holds a budget of
//!   `min(goal − retired, rctr)` and executes at most that many ops,
//!   each retiring exactly one instruction; internal loop iterations
//!   and closed traces spend budget like any other op — a skipped poll
//!   loop retires whole iterations only, and no more than the budget
//!   holds — so the recovery counter expires between instructions at
//!   the same retirement count the per-step path traps at;
//! - **entry predicates re-checked after every op that can change
//!   them**: the template ops cannot touch the pending-interrupt
//!   predicate, the PSW, the control registers or the translation
//!   state — every instruction that can is an assist op. (A register
//!   move writes a control register none of them reads; above
//!   privilege 0 the embedder that answers for one promises the same,
//!   and the frame re-derives only the goal it hands back.) After each
//!   assist op the frame re-derives the retirement goal (the embedder
//!   may have moved it, serving the op or the exit it ended in), re-runs
//!   the dispatcher's three pre-dispatch
//!   checks (recovery counter, pending enabled interrupt, alignment)
//!   and its batch limit, re-reads the context stamp, and goes on to
//!   the next op in-frame only if control fell through to `pc + 4` and
//!   the stamp is what it was. Otherwise it leaves through `chain!`
//!   under the new stamp — by a link recorded under that very stamp,
//!   or by translating the new PC and `peek`, which validates
//!   everything an entry validates — or returns to the dispatcher. An
//!   `ssm 1` with an interrupt pending, a `mtctl` that unmasks one, a
//!   translation flip, a `tlbp` of the page being executed, an `rfi`
//!   to anywhere: each lands where the per-step path lands;
//! - **one stamp for everything a frame trusts**: what a link skips
//!   (that the target translates, executably, to the entry the trace at
//!   that arena index was compiled for; that the trace's pages are
//!   unwritten and its secondary pages still translate where they did)
//!   and what a data-page map entry asserts (that the page translates
//!   to that RAM page with that permission; for a plain write tag, that
//!   the page holds no decoded byte) are functions of the address, the
//!   PSW key, the TLB's contents, the decoded-code state of memory and
//!   the arena. `Context` folds the last three into an epoch — it moves
//!   when [`Tlb::content_gen`](crate::tlb::Tlb::content_gen),
//!   [`Memory::code_epoch`] (some page's code generation) or the
//!   cache's clear count has moved — and the stamp is the epoch and the
//!   key. Links record the stamp; the map is flushed when the epoch
//!   moves (and when a page gets its first decoded bytes,
//!   [`Memory::code_pages`], which costs it its plain write tag and no
//!   link anything) and carries the key in its tags, so a trap into a
//!   handler and the `rfi` back find their entries and links as they
//!   left them. The stamp is read at frame
//!   entry and re-read after every assist op and after every store
//!   that took the full path — the one template op that can write
//!   decoded bytes, whosever they are; nothing else that runs inside a
//!   frame can move any of its inputs. That is why a followed link
//!   needs no `fresh`: anything that could have made the target stale
//!   since the link was validated would have moved the stamp first.
//!   The budget and alignment tests (`left == 0`, a 4-aligned PC) come
//!   *before* the link is consulted: a link vouches for its target,
//!   not for the frame's right to run it. A guarded return needs
//!   neither: it goes on in-span only to the very address the next op
//!   was compiled from, in the context the trace was entered in;
//! - **TLB accounting**: the data side of
//!   [`Tlb::stats`](crate::tlb::Tlb::stats) reads what the step
//!   engine's data accesses would have counted — the map books the
//!   lookups it stood in for. The *execute* side was
//!   never tier-invariant (the step engine translates every fetch, a
//!   frame only its entries) and has depended on the warmth of the
//!   derived caches since the first return cache, which skipped the
//!   target's translation on a hit; links follow that precedent;
//! - **exact faults**: a faulting op reports the same [`Exit`] as the
//!   per-step path with the PC on the faulting instruction and no
//!   retirement, by routing every load and store the data-page map
//!   does not answer — every one that faults among them: the map holds
//!   only what succeeded — through the same
//!   `access_load`/`access_store` helpers, and assist ops through the
//!   same `execute`, the step loop uses;
//! - **self-modifying code**: the compiler registers every word it
//!   reads — the one that ended the trace included — with
//!   [`Memory::note_decoded`], and a superblock records the *code*
//!   generation ([`Memory::code_gen`]) of every constituent page at
//!   compile time. `Memory` moves a page's code generation on exactly
//!   the writes that overlap registered bytes, so a store into code
//!   kills the traces compiled from that page while a store to data
//!   sharing the page (the guest kernel's `r0`-relative save slots sit
//!   beside its trap vectors) kills nothing. The dispatcher refuses
//!   stale entries, and a compiled store that wrote decoded bytes — and
//!   every assist op, whose embedder may have written memory — moves
//!   the stamp, re-checks all of the superblock's pages so a trace
//!   that patches any page it was compiled from — its own or a
//!   cross-page callee's, an assist op's word like any other — abandons
//!   its compiled tail and re-fetches the patched words like the
//!   per-step path would, and follows no link recorded before the
//!   write, so a trace that patches *another* trace and hops to it
//!   finds it stale;
//! - **cross-page entry validation**: a secondary page's translation
//!   is re-checked against the recorded physical page on every entry,
//!   so a TLB remap, purge or privilege change makes the trace
//!   unreachable (the cold path then takes the exact fault, if any,
//!   at the exact instruction — it is the per-step path).

use crate::cpu::{alu_imm_value, alu_value, extend, Assist, Cpu, Exit, Resume};
use crate::exec::ExecStats;
use crate::hash::IntBuildHasher;
use crate::mem::{Memory, PAGE_SHIFT, PAGE_SIZE};
use crate::tlb::{TlbAccess, TlbResult};
use crate::trap::Trap;
use hvft_isa::codec::decode;
use hvft_isa::instruction::{AluImmOp, AluOp, BranchCond, Instruction, MemWidth};
use hvft_isa::reg::{ControlReg, Reg};
use std::cell::Cell;
use std::collections::HashMap;

/// Executions of a cold address before it is compiled.
pub(crate) const PROMOTE_THRESHOLD: u32 = 16;

/// Cap on compiled superblocks; crossing it clears the cache wholesale
/// (the working set of real guests is far below this — the cap only
/// guards pathological trace fragmentation from eating memory).
const MAX_SUPERBLOCKS: usize = 4096;

/// Cap on tracked cold addresses before the heat table is reset.
const MAX_HEAT_ENTRIES: usize = 1 << 16;

/// Slots in the direct-mapped front table (power of two).
const FRONT_SLOTS: usize = 128;
/// Front tag marking an empty slot. Code is only compiled from RAM,
/// which lies below the I/O window, so no entry address collides.
const FRONT_EMPTY: u32 = u32::MAX;

/// Branch-wiring sentinel: the target is outside the compiled span.
const NO_TARGET: u32 = u32::MAX;

/// Pages a single trace may execute from (entry page included). Every
/// entry validates every recorded page, so the cap bounds both the
/// per-entry validation cost and the blast radius of an invalidation.
pub(crate) const MAX_TRACE_PAGES: usize = 4;

/// [`Op::target`] flag: the transfer leaves the compiled span, and the
/// low bits index the cache's [`Link`] cells instead of the trace's
/// ops. (A trace is at most `MAX_TRACE_PAGES` pages of ops and the link
/// table at most [`MAX_LINKS`] cells, both far below it.)
const LINKED: u32 = 1 << 31;

/// Cap on link cells; crossing it clears the cache wholesale. A trace
/// recompiled in place leaves its old cells behind, so only a guest
/// that keeps rewriting hot code gets here.
const MAX_LINKS: usize = 1 << 16;

/// `vpc` of an empty [`Link`]: not 4-aligned, and a link is consulted
/// only for an aligned PC, so an empty cell can never hit.
const LINK_EMPTY: u32 = 1;

/// Slots in the direct-mapped data-page map (power of two): the whole
/// of the guest layout's 64 mapped pages without a conflict.
const DATA_SLOTS: usize = 64;

/// The address bits a word access may have set below its page — all
/// but the low two, which stay in the probe so that a misaligned word
/// matches no tag — and those of a byte access.
const WORD_IN_PAGE: u32 = (PAGE_SIZE - 1) & !3;
const BYTE_IN_PAGE: u32 = PAGE_SIZE - 1;

/// Tag of an empty [`DataSlot`] half. A live tag — and every probe of an
/// aligned access — has its low two bits clear.
const TAG_EMPTY: u32 = u32::MAX;

/// Pre-specialized opcode of one compiled [`Op`]. One variant per
/// instruction template: the ALU operation, memory width or branch
/// condition is the *variant*, not a field, so the dispatch loop's
/// jump table lands directly in a body with the operation constant
/// already folded in.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    Mul,
    Divu,
    Remu,
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Slli,
    Srli,
    Srai,
    /// The `lui` shift happened at compile time; `imm` is the result.
    Lui,
    Nop,
    Lw,
    Lb,
    Lbu,
    Sw,
    Sb,
    Sbu,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    /// A conditional branch that closes a poll loop (see "Poll loops"):
    /// `rd` carries its condition ([`branch_cond`]) and `imm` — which
    /// an in-span take does not read — the loop's length in ops and
    /// its loads ([`spin_imm`]). `target` is the in-span loop head.
    Spin,
    Jal,
    /// `target` is [`NO_TARGET`] for a `jalr` that ends its trace; for
    /// a guarded return — a callee's `jalr` the trace compiled past —
    /// it is the next op, compiled at the return point, which the
    /// `jalr` falls through to when the target it computes is that op's
    /// address.
    Jalr,
    Probe,
    /// A register move from (`MfCtl`) or to (`MtCtl`) a control
    /// register other than `rctr`, `eiem` and `eirr`: `rs2` carries the
    /// control register's number, and `imm` and `target` are as for an
    /// assist op, which is what the move becomes above privilege 0 when
    /// the embedder does not answer for it ([`Assist::control`]).
    MfCtl,
    MtCtl,
    /// Everything without a template: privileged, environment and
    /// trapping instructions. `imm` indexes the superblock's
    /// [`SuperBlock::assists`] table; see [`assist_op`].
    Assist,
}

/// One compiled instruction: a pre-specialized opcode plus
/// pre-resolved operands — 16 bytes, so op-record indexing is a
/// single shift and four ops share a cache line.
#[derive(Clone, Copy, Debug)]
struct Op {
    kind: Kind,
    /// Destination register (link register for `jal`/`jalr`).
    rd: Reg,
    /// First source: `rs1`, the load/`jalr` base, or the store value.
    rs1: Reg,
    /// Second source: `rs2`, branch comparand, or the store base.
    rs2: Reg,
    /// Immediate, pre-resolved per kind: sign-extended value,
    /// displacement, branch byte offset, the pre-shifted `lui`
    /// constant, or an assist op's index into the side table.
    imm: i32,
    /// Where a transfer goes: the op index of an in-span branch/`jal`
    /// target or of a guarded return's return point, or — flagged
    /// [`LINKED`] — the [`JitCache::links`] cell of a transfer that
    /// leaves the span (an out-of-span branch or `jal`, an assist op or
    /// register move). [`NO_TARGET`] on every other op; a `jalr`'s
    /// links are the superblock's ([`SuperBlock::ret`]).
    target: u32,
    /// Byte offset of this op's virtual PC from the superblock's
    /// entry PC (wrapping). Ops are *not* address-contiguous — a
    /// trace follows `jal`s — so every PC-observing path derives the
    /// PC from this field, never from the op index.
    off: u32,
}

const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// One secondary page of a cross-page trace: where the page sits
/// relative to the entry, and what it must still look like for the
/// compiled code to be entered.
#[derive(Clone, Copy, Debug)]
struct PageDep {
    /// Entry-relative (wrapping) byte offset of the page's virtual
    /// base address. Well-defined for any aliasing entry VPC because
    /// translation preserves the in-page offset.
    voff: u32,
    /// Physical page the virtual page translated to at compile time.
    ppage: u32,
    /// Code generation of that physical page at compile time.
    gen: u64,
}

/// One trace-to-trace link: where control went the last time it left
/// through this exit, and the execution context that answer was
/// validated in. Following it is two compares — the target and the
/// [`Context`] stamp — because everything an entry validates
/// (translation of the target, identity and freshness of the trace at
/// that arena index, translation of its secondary pages) is a function
/// of the target and of what the stamp stands for.
#[derive(Clone, Copy, Debug)]
struct Link {
    /// Virtual target, or [`LINK_EMPTY`].
    vpc: u32,
    /// Arena index of the trace entered there.
    idx: u32,
    /// [`Context::stamp`] the hop was validated under.
    stamp: u64,
}

impl Link {
    const EMPTY: Link = Link {
        vpc: LINK_EMPTY,
        idx: 0,
        stamp: u64::MAX,
    };
}

/// The PSW inputs a translation depends on: the translation-enable bit
/// and the privilege level. Translation is a pure function of (vaddr,
/// these bits, TLB contents).
#[inline]
fn psw_key(cpu: &Cpu) -> u32 {
    (u32::from(cpu.psw.cpl) << 1) | u32::from(cpu.psw.translation)
}

/// One slot of the data-page map: a virtual page under one PSW key and
/// the RAM page it translates to, with a tag per kind of access that
/// has been made *through the full path* — so a tag vouches for the
/// permission as well as the translation.
///
/// A tag is `page-aligned vaddr | psw_key << 2`. The key is part of the
/// tag, not of what flushes the map: a `gate … rfi` round trip changes
/// it twice and finds its entries still there.
#[derive(Clone, Copy, Debug)]
struct DataSlot {
    /// Tag loads may use, or [`TAG_EMPTY`].
    read: u32,
    /// Tag stores may use, or [`TAG_EMPTY`]; only ever set for a page
    /// that holds no decoded byte, so a store through it can move no
    /// code generation.
    write: u32,
    /// Tag stores to a page that holds decoded bytes may use, or
    /// [`TAG_EMPTY`]: a store through it is compared with the page's
    /// decoded extent as it is now, and one that would overlap it takes
    /// the full path. The guest kernel's save slots share page 0 with
    /// its vectors and are written through it.
    code_write: u32,
    /// Physical address of the RAM page.
    base: u32,
}

impl DataSlot {
    const EMPTY: DataSlot = DataSlot {
        read: TAG_EMPTY,
        write: TAG_EMPTY,
        code_write: TAG_EMPTY,
        base: 0,
    };
}

/// Map slot of a virtual address.
#[inline]
fn data_slot(vaddr: u32) -> usize {
    (vaddr >> PAGE_SHIFT) as usize & (DATA_SLOTS - 1)
}

/// The tag bits of a PSW key.
#[inline]
fn key_bits(key: u32) -> u32 {
    key << 2
}

/// The tag bits of the PSW key a stamp was made under.
#[inline]
fn stamp_key_bits(stamp: u64) -> u32 {
    key_bits(stamp as u32 & 7)
}

/// The execution context a frame runs in, and what may be trusted while
/// it stands.
///
/// Three counters say whether anything a validated trace entry or a
/// cached translation depends on — other than the PSW key — has moved:
/// [`Tlb::content_gen`](crate::tlb::Tlb::content_gen),
/// [`Memory::code_epoch`] and the [`JitCache`]'s clear count. Each only
/// ever counts up, so numbering the distinct triples seen (`epoch`)
/// names a context exactly, and `epoch << 3 | psw_key` — the **stamp**
/// — is one word a [`Link`] records and a frame compares. The
/// data-page map carries the key in its tags and is flushed when the
/// epoch moves — and when [`Memory::code_pages`] does: a page that got
/// its first decoded bytes must lose its plain write tag, though no
/// trace and no link is the worse for it.
///
/// The frame reads the stamp at entry and re-reads it wherever it can
/// have moved: after every assist op, and after every store that took
/// the full path (the only template op that can reach `Memory::touch`'s
/// code side). Nothing else that runs in a frame can move it (code is
/// registered by `compile`, between frames).
#[derive(Debug)]
pub(crate) struct Context {
    /// The three counters as last read: TLB contents, code epoch,
    /// cache clears.
    seen: (u64, u64, u64),
    /// How often they have been seen to move.
    epoch: u64,
    /// [`Memory::code_pages`] as last read.
    code_pages: u64,
    data: [DataSlot; DATA_SLOTS],
}

impl Default for Context {
    fn default() -> Self {
        Context {
            seen: (0, 0, 0),
            epoch: 0,
            code_pages: 0,
            data: [DataSlot::EMPTY; DATA_SLOTS],
        }
    }
}

impl Context {
    /// The stamp of the context the CPU is in right now; moves on to a
    /// new epoch if any of the three counters moved since the last
    /// call, and flushes the data-page map if that or the set of code
    /// pages did.
    #[inline]
    fn stamp(&mut self, cpu: &Cpu, mem: &Memory, clears: u64, stats: &mut ExecStats) -> u64 {
        let now = (cpu.tlb.content_gen(), mem.code_epoch(), clears);
        let moved = now != self.seen;
        if moved {
            self.seen = now;
            self.epoch += 1;
        }
        if moved || mem.code_pages() != self.code_pages {
            self.code_pages = mem.code_pages();
            self.data = [DataSlot::EMPTY; DATA_SLOTS];
            stats.data_map_flushes += 1;
        }
        (self.epoch << 3) | u64::from(psw_key(cpu))
    }

    /// Records that an access of kind `access` to `vaddr` just went
    /// through the full path — translation, permission, RAM — so the
    /// next one to the page, under this key and epoch, need not. A
    /// store to a page that holds decoded bytes gets the tag that
    /// compares with the decoded extent (`code_write`).
    fn fill(&mut self, cpu: &Cpu, mem: &Memory, vaddr: u32, access: TlbAccess) {
        let Some(paddr) = cpu.peek_translate(vaddr, access) else {
            return;
        };
        let page_mask = !(PAGE_SIZE - 1);
        let tag = (vaddr & page_mask) | key_bits(psw_key(cpu));
        let slot = &mut self.data[data_slot(vaddr)];
        if slot.read != tag && slot.write != tag && slot.code_write != tag {
            *slot = DataSlot {
                base: paddr & page_mask,
                ..DataSlot::EMPTY
            };
        }
        match access {
            TlbAccess::Write if mem.holds_code(paddr) => slot.code_write = tag,
            TlbAccess::Write => slot.write = tag,
            _ => slot.read = tag,
        }
    }
}

/// A compiled superblock.
#[derive(Debug)]
pub(crate) struct SuperBlock {
    ops: Box<[Op]>,
    /// Page-aligned physical address of the entry page.
    page_addr: u32,
    /// Code generation of the entry page at compile time.
    gen: u64,
    /// Physical address of the entry instruction — the cache key this
    /// superblock was compiled for.
    entry_paddr: u32,
    /// Secondary pages a cross-page trace executes from, in discovery
    /// order; empty for the common single-page trace.
    extra_pages: Box<[PageDep]>,
    /// Entry-relative byte offset of the PC after falling off the
    /// final op (`ops.last().off + 4`).
    end_off: u32,
    /// Op index of the instruction at `end_off` when it is part of this
    /// trace — compilation stopped *because* the straight line ran into
    /// an address it had already compiled — else [`NO_TARGET`]. Falling
    /// off the end then continues there in-frame, like any wired
    /// branch. A loop closed by a followed `jal` and entered mid-body
    /// ends exactly so, one op short of its own entry.
    wrap: u32,
    /// The decoded instruction and raw word of every [`Kind::Assist`]
    /// op, in op order. Out of line so [`Op`] stays 16 bytes; decoded
    /// once, at compile time, so neither the native path nor the
    /// embedder's hook decodes at run time.
    assists: Box<[(Instruction, u32)]>,
    /// The trace's cells of [`JitCache::links`], one per way out of it
    /// that an op or its end is: `first_link` for falling off the end,
    /// then one per op whose [`Op::target`] says [`LINKED`] — an
    /// out-of-span branch or `jal`, an assist op (which may send control
    /// anywhere).
    first_link: u32,
    /// How many cells that is.
    links: u32,
    /// The two-way return link of the trace's `jalr`s: the one that ends
    /// it, if any, and every guarded return whose guard fails (a callee
    /// that returns elsewhere is rare, and a miss is only a lookup).
    /// In the superblock, not in the table: where a return goes next is
    /// the longest dependent chain a call-heavy guest has (link → arena
    /// index → superblock → its `jalr`'s link → …), and a cell reached
    /// through the op record — ops pointer, op, cell — makes every turn
    /// of it two loads longer (a `jal`/`jalr` pair 11.5 ns instead of
    /// 3.3). `Cell` for the reason [`JitCache::links`] gives.
    ret: [Cell<Link>; 2],
}

impl SuperBlock {
    /// Empty marker for an address that does not compile — its word
    /// does not decode — until the word changes: the cold path owns it
    /// and raises the exact trap. `compile` registered the word when
    /// it read and rejected it, so `gen` moves when it is overwritten.
    fn marker(paddr: u32, gen: u64) -> SuperBlock {
        SuperBlock {
            ops: Box::new([]),
            page_addr: paddr & !(PAGE_SIZE - 1),
            gen,
            entry_paddr: paddr,
            extra_pages: Box::new([]),
            end_off: 0,
            wrap: NO_TARGET,
            assists: Box::new([]),
            first_link: 0,
            links: 0,
            ret: [Cell::new(Link::EMPTY), Cell::new(Link::EMPTY)],
        }
    }

    /// True when decoded bytes of any constituent page have been
    /// written since compile time (SMC or DMA): the compiled trace may
    /// no longer match memory.
    #[inline]
    fn pages_stale(&self, mem: &Memory) -> bool {
        mem.code_gen(self.page_addr) != self.gen
            || self
                .extra_pages
                .iter()
                .any(|d| mem.code_gen(d.ppage) != d.gen)
    }

    /// Full entry validation for an entry at virtual PC `vpc`: every
    /// constituent page unwritten since compile time *and* every
    /// secondary virtual page still translating — executably, at the
    /// current privilege — to the physical page the trace was compiled
    /// from. The common single-page trace pays one generation compare.
    #[inline]
    fn fresh(&self, vpc: u32, cpu: &Cpu, mem: &Memory) -> bool {
        !self.pages_stale(mem)
            && self.extra_pages.iter().all(|d| {
                cpu.peek_translate(vpc.wrapping_add(d.voff), TlbAccess::Execute) == Some(d.ppage)
            })
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// Whether a control-register move of `cr` compiles to a register-move
/// op: every register but the three the frame itself reads — the
/// recovery counter (its budget) and the interrupt mask and request
/// (the pending-interrupt check).
fn moves_plainly(cr: ControlReg) -> bool {
    !matches!(cr, ControlReg::Rctr | ControlReg::Eiem | ControlReg::Eirr)
}

/// Builds the op for `insn` (encoded as `word`) at entry-relative byte
/// offset `off`; `index_of` maps compiled offsets to op indices for
/// branch/`jal` wiring, and `ret` is the offset of the return point a
/// `jalr` was compiled past, if it was. An instruction without a
/// template becomes an assist op — a register move keeps one in
/// reserve — and its decoded form is appended to `assists`. Every way
/// out of the span the op has takes the next link cell (`next_link`).
fn build_op(
    (insn, word, off, ret): CompiledInsn,
    index_of: &HashMap<u32, u32, IntBuildHasher>,
    assists: &mut Vec<(Instruction, u32)>,
    next_link: &mut u32,
) -> Op {
    let op = |kind: Kind, rd: Reg, rs1: Reg, rs2: Reg, imm: i32, target: u32| Op {
        kind,
        rd,
        rs1,
        rs2,
        imm,
        target,
        off,
    };
    // Takes the next link cell; its flagged index.
    let mut link = || {
        *next_link += 1;
        LINKED | (*next_link - 1)
    };
    // Wires a PC-relative transfer to the op index of its target when
    // the target was compiled into this trace (misaligned targets are
    // never compiled, so they fall out naturally), and links it
    // otherwise.
    let mut wire = |offset: i32| match index_of.get(&off.wrapping_add(offset as u32)) {
        Some(&at) => at,
        None => link(),
    };
    let z = Reg::ZERO;
    // Files the instruction in the side table and links the op.
    macro_rules! assist {
        ($kind:expr, $rd:expr, $rs1:expr, $rs2:expr) => {{
            assists.push((insn, word));
            op($kind, $rd, $rs1, $rs2, (assists.len() - 1) as i32, link())
        }};
    }
    use Instruction as I;
    match insn {
        I::Alu {
            op: a,
            rd,
            rs1,
            rs2,
        } => {
            let kind = match a {
                AluOp::Add => Kind::Add,
                AluOp::Sub => Kind::Sub,
                AluOp::And => Kind::And,
                AluOp::Or => Kind::Or,
                AluOp::Xor => Kind::Xor,
                AluOp::Sll => Kind::Sll,
                AluOp::Srl => Kind::Srl,
                AluOp::Sra => Kind::Sra,
                AluOp::Slt => Kind::Slt,
                AluOp::Sltu => Kind::Sltu,
                AluOp::Mul => Kind::Mul,
                AluOp::Divu => Kind::Divu,
                AluOp::Remu => Kind::Remu,
            };
            op(kind, rd, rs1, rs2, 0, NO_TARGET)
        }
        I::AluImm {
            op: a,
            rd,
            rs1,
            imm,
        } => {
            let kind = match a {
                AluImmOp::Addi => Kind::Addi,
                AluImmOp::Andi => Kind::Andi,
                AluImmOp::Ori => Kind::Ori,
                AluImmOp::Xori => Kind::Xori,
                AluImmOp::Slti => Kind::Slti,
                AluImmOp::Slli => Kind::Slli,
                AluImmOp::Srli => Kind::Srli,
                AluImmOp::Srai => Kind::Srai,
            };
            op(kind, rd, rs1, z, imm, NO_TARGET)
        }
        I::Lui { rd, imm } => op(Kind::Lui, rd, z, z, (imm << 13) as i32, NO_TARGET),
        I::Nop => op(Kind::Nop, z, z, z, 0, NO_TARGET),
        I::Load {
            width,
            rd,
            base,
            disp,
        } => {
            let kind = match width {
                MemWidth::Word => Kind::Lw,
                MemWidth::Byte => Kind::Lb,
                MemWidth::ByteU => Kind::Lbu,
            };
            op(kind, rd, base, z, disp, NO_TARGET)
        }
        I::Store {
            width,
            rs,
            base,
            disp,
        } => {
            let kind = match width {
                MemWidth::Word => Kind::Sw,
                MemWidth::Byte => Kind::Sb,
                MemWidth::ByteU => Kind::Sbu,
            };
            op(kind, z, rs, base, disp, NO_TARGET)
        }
        I::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            let kind = match cond {
                BranchCond::Eq => Kind::Beq,
                BranchCond::Ne => Kind::Bne,
                BranchCond::Lt => Kind::Blt,
                BranchCond::Ge => Kind::Bge,
                BranchCond::Ltu => Kind::Bltu,
                BranchCond::Geu => Kind::Bgeu,
            };
            op(kind, z, rs1, rs2, offset, wire(offset))
        }
        I::Jal { rd, offset } => op(Kind::Jal, rd, z, z, offset, wire(offset)),
        // A guarded return when its return point compiled next.
        I::Jalr { rd, base, disp } => {
            let ret_at = ret.and_then(|r| index_of.get(&r).copied());
            op(Kind::Jalr, rd, base, z, disp, ret_at.unwrap_or(NO_TARGET))
        }
        I::Probe { rd, rs } => op(Kind::Probe, rd, rs, z, 0, NO_TARGET),
        I::MfCtl { rd, cr } if moves_plainly(cr) => {
            assist!(Kind::MfCtl, rd, z, Reg::of(cr.index()))
        }
        I::MtCtl { cr, rs } if moves_plainly(cr) => {
            assist!(Kind::MtCtl, z, rs, Reg::of(cr.index()))
        }
        I::MfTod { .. }
        | I::MfTodH { .. }
        | I::MtIt { .. }
        | I::MfIt { .. }
        | I::MtCtl { .. }
        | I::MfCtl { .. }
        | I::Rfi
        | I::Tlbi { .. }
        | I::Tlbp { .. }
        | I::Gate { .. }
        | I::Brk { .. }
        | I::Ssm { .. }
        | I::Rsm { .. }
        | I::Halt
        | I::Idle
        | I::Diag { .. } => assist!(Kind::Assist, z, z, z),
    }
}

/// The condition of a conditional branch, as the number a
/// [`Kind::Spin`] carries in `rd` and [`cond_holds`] reads.
fn branch_cond(kind: Kind) -> Option<u8> {
    match kind {
        Kind::Beq => Some(0),
        Kind::Bne => Some(1),
        Kind::Blt => Some(2),
        Kind::Bge => Some(3),
        Kind::Bltu => Some(4),
        Kind::Bgeu => Some(5),
        _ => None,
    }
}

/// Whether the branch condition numbered `cond` ([`branch_cond`]) holds
/// for the operands `a` and `b`.
#[inline]
fn cond_holds(cond: Reg, a: u32, b: u32) -> bool {
    match cond.index() {
        0 => a == b,
        1 => a != b,
        2 => (a as i32) < (b as i32),
        3 => (a as i32) >= (b as i32),
        4 => a < b,
        _ => a >= b,
    }
}

/// A spin's `imm`: the ops of one iteration (the branch included) in
/// the low half, the loads among them in the high half.
fn spin_imm(len: u32, loads: u32) -> i32 {
    (len | loads << 16) as i32
}

/// The registers `op` reads and writes, as bit masks, when it may sit
/// in a poll loop's body: a template ALU op, `lui`, `nop` or a load —
/// nothing that stores, transfers, moves a control register or asks
/// the embedder. A write to `r0` is no write.
fn body_regs(op: &Op) -> Option<(u32, u32)> {
    let bit = |r: Reg| 1u32 << r.index();
    let (reads, writes) = match op.kind {
        Kind::Add
        | Kind::Sub
        | Kind::And
        | Kind::Or
        | Kind::Xor
        | Kind::Sll
        | Kind::Srl
        | Kind::Sra
        | Kind::Slt
        | Kind::Sltu
        | Kind::Mul
        | Kind::Divu
        | Kind::Remu => (bit(op.rs1) | bit(op.rs2), bit(op.rd)),
        Kind::Addi
        | Kind::Andi
        | Kind::Ori
        | Kind::Xori
        | Kind::Slti
        | Kind::Slli
        | Kind::Srli
        | Kind::Srai
        | Kind::Lw
        | Kind::Lb
        | Kind::Lbu => (bit(op.rs1), bit(op.rd)),
        Kind::Lui => (0, bit(op.rd)),
        Kind::Nop => (0, 0),
        _ => return None,
    };
    Some((reads, writes & !1))
}

/// `(len, loads)` of the loop the conditional branch at op index `at`
/// closes, if it is a **poll loop**: its target is in-span, the
/// straight line from there — through the trace's `wrap` — reaches the
/// branch again, every op on the way may sit in a body ([`body_regs`]),
/// and every register the body or the branch reads is either written
/// nowhere in the body or written earlier in the same iteration. No
/// value is then carried from one iteration into the next: an
/// iteration's outcome is a function of memory and of registers it
/// does not write, and one that starts from where another ended repeats
/// it.
fn poll_loop(ops: &[Op], at: usize, wrap: u32) -> Option<(u32, u32)> {
    let branch = &ops[at];
    if branch.target & LINKED != 0 {
        return None;
    }
    // What the body's ops read and write, in the order one iteration
    // runs them.
    let mut body = Vec::new();
    let mut loads = 0;
    let mut j = branch.target as usize;
    while j != at {
        if body.len() == ops.len() {
            // The straight line cycles without meeting the branch.
            return None;
        }
        body.push(body_regs(&ops[j])?);
        loads += u32::from(matches!(ops[j].kind, Kind::Lw | Kind::Lb | Kind::Lbu));
        j += 1;
        if j == ops.len() {
            if wrap == NO_TARGET {
                return None;
            }
            j = wrap as usize;
        }
    }
    let written = body.iter().fold(0, |w, &(_, writes)| w | writes);
    let branch_reads = (1u32 << branch.rs1.index()) | (1u32 << branch.rs2.index());
    let mut settled = 0;
    for &(reads, writes) in body.iter().chain(&[(branch_reads, 0)]) {
        if reads & written & !settled != 0 {
            return None;
        }
        settled |= writes;
    }
    Some((body.len() as u32 + 1, loads))
}

/// Compiles every conditional branch of `ops` that closes a poll loop
/// ([`poll_loop`]) as a [`Kind::Spin`].
fn mark_spins(ops: &mut [Op], wrap: u32) {
    for at in 0..ops.len() {
        let Some(cond) = branch_cond(ops[at].kind) else {
            continue;
        };
        if let Some((len, loads)) = poll_loop(ops, at, wrap) {
            let op = &mut ops[at];
            op.kind = Kind::Spin;
            op.rd = Reg::of(cond);
            op.imm = spin_imm(len, loads);
        }
    }
}

/// One instruction of a trace as `compile` walks it: the decoded
/// instruction, its word, its entry-relative byte offset and — for a
/// `jalr` compilation went on past — the offset of its return point.
type CompiledInsn = (Instruction, u32, u32, Option<u32>);

/// Compiles the superblock (trace) starting at physical address
/// `paddr` with the entry's virtual PC `entry_vpc` (they must agree in
/// their in-page offset — translation preserves it), or `None` when the
/// word there cannot be read or does not decode. `gen` is the entry
/// page's code generation; every word read — the one that ends the
/// trace included — is registered with `mem` so a later write to it
/// moves the generation of its page. `cpu` supplies the *current*
/// translation state: a `jal` whose target lies in another page
/// extends the trace only when that page translates executably right
/// now, and the page is recorded as a dependency every entry
/// re-validates. The trace's link cells are numbered from `first_link`;
/// the caller appends [`SuperBlock::links`] of them to the table.
fn compile(
    paddr: u32,
    entry_vpc: u32,
    gen: u64,
    cpu: &Cpu,
    mem: &Memory,
    first_link: u32,
) -> Option<SuperBlock> {
    debug_assert_eq!(paddr & (PAGE_SIZE - 1), entry_vpc & (PAGE_SIZE - 1));
    let page_mask = !(PAGE_SIZE - 1);
    let page_addr = paddr & page_mask;
    // Constituent pages as (entry-relative byte offset of the page's
    // virtual base, physical page address); the entry page is
    // `pages[0]`. Like op offsets, the page offsets are *wrapping*
    // deltas from `entry_vpc`.
    let mut pages: Vec<(u32, u32)> = vec![(0u32.wrapping_sub(paddr & (PAGE_SIZE - 1)), page_addr)];
    // The trace in compile order. Offsets are *wrapping* deltas — a
    // `jal` redirect may target an address before the entry.
    let mut insns: Vec<CompiledInsn> = Vec::new();
    let mut index_of: HashMap<u32, u32, IntBuildHasher> = HashMap::default();
    // Return points of the calls the trace followed and whose callee
    // has not returned yet, innermost last.
    let mut calls: Vec<u32> = Vec::new();
    let mut off: u32 = 0;
    let mut wrap = NO_TARGET;
    loop {
        // Never compile the same address twice (this also bounds the
        // trace at MAX_TRACE_PAGES pages of ops). The straight line
        // has closed on itself: falling off the end continues at the
        // op already compiled for this address.
        if let Some(&at) = index_of.get(&off) {
            wrap = at;
            break;
        }
        let vaddr = entry_vpc.wrapping_add(off);
        let page_voff = (vaddr & page_mask).wrapping_sub(entry_vpc);
        // Straight-line flow only walks pages the trace has already
        // registered: falling off the edge of the last registered page
        // ends the trace, so the dependency set grows only at explicit
        // cross-page calls.
        let Some(ppage) = pages
            .iter()
            .find_map(|&(v, p)| (v == page_voff).then_some(p))
        else {
            break;
        };
        let pa = ppage | (vaddr & (PAGE_SIZE - 1));
        let Ok(word) = mem.read_u32(pa) else {
            break;
        };
        mem.note_decoded(pa);
        let Ok(insn) = decode(word) else {
            break;
        };
        index_of.insert(off, insns.len() as u32);
        insns.push((insn, word, off, None));
        use Instruction as I;
        match insn {
            // Trace compilation follows the static target of an
            // unconditional `jal` — a call's callee or a jump's
            // continuation lands in the same superblock — when it is
            // 4-aligned and not already compiled (the wiring pass then
            // turns the `jal` into an in-span jump). A target in an
            // unregistered page extends the dependency set if the page
            // translates executably under the current state and the
            // page budget allows; otherwise the `jal` is the final op.
            // A call — a link register — leaves its return point for
            // the callee's `jalr`.
            I::Jal { rd, offset } => {
                let toff = off.wrapping_add(offset as u32);
                if offset % 4 != 0 || index_of.contains_key(&toff) {
                    break;
                }
                let tvoff = (entry_vpc.wrapping_add(toff) & page_mask).wrapping_sub(entry_vpc);
                if !pages.iter().any(|&(v, _)| v == tvoff) {
                    if pages.len() >= MAX_TRACE_PAGES {
                        break;
                    }
                    let vbase = entry_vpc.wrapping_add(tvoff);
                    let Some(pbase) = cpu.peek_translate(vbase, TlbAccess::Execute) else {
                        break;
                    };
                    pages.push((tvoff, pbase & page_mask));
                }
                if rd != Reg::ZERO {
                    calls.push(off.wrapping_add(4));
                }
                off = toff;
            }
            // The innermost followed call's return: compilation goes on
            // at its return point, and the `jalr` is a guarded return if
            // that compiles — unless the trace holds the return point
            // already, and the `jalr` ends it.
            I::Jalr { .. } => match calls.pop() {
                Some(ret) if !index_of.contains_key(&ret) => {
                    insns.last_mut().expect("just pushed").3 = Some(ret);
                    off = ret;
                }
                _ => break,
            },
            // Control always leaves the straight line here — a return
            // from a handler, a stop: final op.
            I::Rfi | I::Halt | I::Idle => break,
            // Straight-line ops, conditional branches (the not-taken
            // path falls through) and every other assist op — a `gate`
            // or `brk` among them, whose handler returns to `pc + 4`;
            // they retire to `pc + 4` unless the embedder says
            // otherwise, which the executor checks — extend the trace.
            _ => off = off.wrapping_add(4),
        }
    }
    let &(_, _, last_off, _) = insns.last()?;
    let mut assists = Vec::new();
    // The first cell is the trace's own: falling off its end.
    let mut next_link = first_link + 1;
    let mut ops: Vec<Op> = insns
        .iter()
        .map(|&insn| build_op(insn, &index_of, &mut assists, &mut next_link))
        .collect();
    mark_spins(&mut ops, wrap);
    // A page registered at a `jal` follow whose first word then failed
    // to compile contributed no ops: drop it rather than record a
    // phantom dependency.
    let extra_pages: Vec<PageDep> = pages[1..]
        .iter()
        .filter(|&&(voff, _)| {
            insns.iter().any(|&(_, _, o, _)| {
                (entry_vpc.wrapping_add(o) & page_mask).wrapping_sub(entry_vpc) == voff
            })
        })
        .map(|&(voff, ppage)| PageDep {
            voff,
            ppage,
            gen: mem.code_gen(ppage),
        })
        .collect();
    Some(SuperBlock {
        ops: ops.into_boxed_slice(),
        page_addr,
        gen,
        entry_paddr: paddr,
        extra_pages: extra_pages.into_boxed_slice(),
        end_off: last_off.wrapping_add(4),
        wrap,
        assists: assists.into_boxed_slice(),
        first_link,
        links: next_link - first_link,
        ret: [Cell::new(Link::EMPTY), Cell::new(Link::EMPTY)],
    })
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

impl SuperBlock {
    /// Number of compiled ops (for tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }
}

/// How a superblock frame — and so a turn of the jit dispatcher — ends
/// when it has something for the run loop.
pub(crate) enum Leave {
    /// An exit for the embedder's [`Assist::exit`]
    /// ([`Exit::Retired`]: the retirement goal is reached).
    Offer(Exit),
    /// The embedder was asked in-frame, by an assist op, and said
    /// surface this.
    Surface(Exit),
}

/// What the frame does after an assist op.
enum After {
    /// Control fell through to the next instruction and the execution
    /// context is the one the trace was entered in: go on at the next
    /// op, with this retirement budget.
    Next(u64),
    /// Execution may go on (budget as above), but control went
    /// elsewhere or the context moved: leave through `chain!`, under
    /// the stamp [`assist_op`] wrote back.
    Chain(u64),
    /// Leave the frame: for the dispatcher (`None`) or the run loop.
    Leave(Option<Leave>),
}

/// What a frame lends its out-of-line helpers: the context and its
/// stamp as the frame last read it, the cache's clear count (the one
/// stamp input that is not the CPU's or the memory's) and the counters.
struct Frame<'a> {
    ctx: &'a mut Context,
    stamp: u64,
    clears: u64,
    stats: &'a mut ExecStats,
}

impl Frame<'_> {
    /// Re-reads the stamp; `true` if it is what the frame last read.
    #[inline]
    fn restamp(&mut self, cpu: &Cpu, mem: &Memory) -> bool {
        let now = self.ctx.stamp(cpu, mem, self.clears, self.stats);
        std::mem::replace(&mut self.stamp, now) == now
    }
}

/// Executes an assist op: the privileged, environment or trapping
/// instruction `insn`, encoded as `word`, compiled into the trace — or
/// (`moves`) a register move met above privilege 0. The caller has
/// synced PC (`vpc`, on the instruction), retirement count, recovery
/// counter and TLB hit count.
///
/// A register move goes to the embedder's [`Assist::control`] first;
/// if it answers, it changed nothing but the goal, and the frame goes
/// on with the budget derived from that. A privileged instruction above
/// privilege 0 goes, decoded, to the embedder's [`Assist::privileged`];
/// anything else runs through [`Cpu::execute`], the function the step
/// engine uses, so the tiers cannot drift, and the exit it ends in, if
/// any, goes to the embedder's [`Assist::exit`] — in the state the run
/// loop would offer it in, so it is served here. Then everything the
/// dispatcher establishes before it enters a trace is established
/// again, in its order: the retirement goal (the hook may have moved
/// it), the three pre-dispatch checks, the batch limit — and the
/// context stamp is read again. The frame goes on to the next op only
/// if, on top of that, control fell through and the stamp is what it
/// was before the op: same PSW key, same TLB contents, no decoded byte
/// written anywhere (this trace's pages included).
///
/// Out of line on purpose: the straight-line arms of `run_chain` keep
/// their registers.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn assist_op(
    (insn, word): (Instruction, u32),
    moves: bool,
    vpc: u32,
    cpu: &mut Cpu,
    mem: &mut Memory,
    goal: &mut u64,
    assist: &mut dyn Assist,
    frame: &mut Frame<'_>,
) -> After {
    if moves {
        if let Some(n) = assist.control(cpu, mem, insn, word) {
            debug_assert_eq!(cpu.pc, vpc.wrapping_add(4), "{insn} moved the PC");
            *goal = cpu.retired().saturating_add(n);
            return After::Next(cpu.batch_limit(*goal));
        }
    }
    let served = if insn.is_privileged() && cpu.psw.cpl != 0 {
        Some(assist.privileged(cpu, mem, insn, word))
    } else {
        match cpu.execute(insn, mem) {
            Exit::Retired => None,
            e => Some(assist.exit(cpu, mem, e)),
        }
    };
    match served {
        Some(Resume::Continue(n)) => *goal = cpu.retired().saturating_add(n),
        Some(Resume::Surface(e)) => return After::Leave(Some(Leave::Surface(e))),
        None => {}
    }
    if cpu.retired() >= *goal {
        return After::Leave(None);
    }
    if let Some(e) = cpu.pre_dispatch_check() {
        return After::Leave(Some(Leave::Offer(e)));
    }
    let budget = cpu.batch_limit(*goal);
    if frame.restamp(cpu, mem) && cpu.pc == vpc.wrapping_add(4) {
        After::Next(budget)
    } else {
        After::Chain(budget)
    }
}

/// Books `fast` accesses the data-page map answered under the tag bits
/// `key`: each stood in for one counted TLB lookup if translation was
/// on. The frame calls it wherever the count could be observed or the
/// key could change — before every assist op and on the way out — so
/// the data-side [`Tlb::stats`](crate::tlb::Tlb::stats) read what the
/// full path would have counted.
#[inline]
fn book_fast(fast: u64, key: u32, cpu: &mut Cpu, stats: &mut ExecStats) {
    stats.data_fast += fast;
    if key & key_bits(1) != 0 {
        cpu.tlb.count_hits(fast);
    }
}

/// A load the data-page map had no answer for: the full path
/// ([`Cpu::access_load`] — alignment, counted translation, RAM or the
/// I/O window), and, when it ends in RAM, a read tag for its page.
/// Out of line: the map's hit is the arm, this is the exception.
#[inline(never)]
fn load_slow(
    width: MemWidth,
    op: &Op,
    cpu: &mut Cpu,
    mem: &Memory,
    frame: &mut Frame<'_>,
) -> Result<u32, Exit> {
    frame.stats.data_slow += 1;
    let v = cpu.access_load(width, op.rd, op.rs1, op.imm, mem)?;
    let vaddr = cpu.reg(op.rs1).wrapping_add(op.imm as u32);
    frame.ctx.fill(cpu, mem, vaddr, TlbAccess::Read);
    Ok(v)
}

/// Store counterpart of [`load_slow`], for a store the map's plain
/// write tag did not answer. A page that holds decoded bytes has a write
/// tag of its own: a store through it that lands beside the page's
/// decoded extent as it is now is the map's like any other — counted
/// and booked as the TLB hit it stood in for. Anything else takes the
/// full path, the one template op that can write decoded bytes, so the
/// stamp is read again behind it: `Ok(false)` says it moved — some
/// page's code generation did, this trace's or another's — and the
/// frame must not go on as if it had not.
#[inline(never)]
fn store_slow(
    width: MemWidth,
    op: &Op,
    cpu: &mut Cpu,
    mem: &mut Memory,
    frame: &mut Frame<'_>,
) -> Result<bool, Exit> {
    let vaddr = cpu.reg(op.rs2).wrapping_add(op.imm as u32);
    let key = stamp_key_bits(frame.stamp);
    let in_page = match width {
        MemWidth::Word => WORD_IN_PAGE,
        MemWidth::Byte | MemWidth::ByteU => BYTE_IN_PAGE,
    };
    let slot = frame.ctx.data[data_slot(vaddr)];
    if slot.code_write == (vaddr & !in_page) | key {
        let paddr = slot.base | (vaddr & (PAGE_SIZE - 1));
        let value = cpu.reg(op.rs1);
        let written = match width {
            MemWidth::Word => mem.write_beside_code(paddr, &value.to_le_bytes()),
            MemWidth::Byte | MemWidth::ByteU => mem.write_beside_code(paddr, &[value as u8]),
        };
        if written {
            book_fast(1, key, cpu, frame.stats);
            return Ok(true);
        }
    }
    frame.stats.data_slow += 1;
    cpu.access_store(width, op.rs1, op.rs2, op.imm, mem)?;
    let same = frame.restamp(cpu, mem);
    frame.ctx.fill(cpu, mem, vaddr, TlbAccess::Write);
    Ok(same)
}

impl JitCache {
    /// Executes the superblock at arena index `start` with the CPU's
    /// PC at the corresponding virtual address, retiring no further
    /// than `goal` (and, under a live recovery counter, its expiry:
    /// [`Cpu::batch_limit`], which must be positive at entry),
    /// *chaining* straight into the next compiled superblock whenever
    /// a transfer leaves one: the op index, budget and retirement
    /// count stay in this one frame across superblock boundaries, and
    /// the architectural sync happens on the way out and before every
    /// assist op. Chaining is sound because the template ops cannot
    /// change the dispatcher's entry predicates, every assist op — the
    /// ops that can — re-establishes them ([`assist_op`]), and the
    /// recovery counter is spent through the budget; anything
    /// irregular — an unaligned or untranslatable target, cold or
    /// stale code — returns to the full dispatcher.
    ///
    /// Returns `None` to go round the dispatcher again, or what the
    /// run loop must see; on return the PC, retired count, recovery
    /// counter and TLB hit count are synced.
    ///
    /// Each op body routes through the same shared semantics helpers
    /// (`alu_value`, `alu_imm_value`, `access_load`, `access_store`,
    /// `execute`) as the step loop, with the operation passed as a
    /// constant that folds away after inlining — so the two engines
    /// cannot drift. A load or store the data-page map of `ctx` answers
    /// skips `access_load`/`access_store` for what the same access,
    /// through them, established earlier in this context.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_chain(
        &self,
        start: u32,
        cpu: &mut Cpu,
        mem: &mut Memory,
        goal: &mut u64,
        assist: &mut dyn Assist,
        ctx: &mut Context,
        stats: &mut ExecStats,
    ) -> Option<Leave> {
        // Retirements the frame may still make, counted *down* so the
        // hot loop carries one counter, and the grant they are counted
        // from (read only when the architectural state is synced).
        let mut granted = cpu.batch_limit(*goal);
        debug_assert!(granted > 0);
        let mut left = granted;
        // The context stamp, the PSW key in it as the data-page map's
        // tags carry it, and the accesses the map has answered since
        // they were last booked. The key can only change where the
        // stamp is re-read, and the count is booked there first.
        let mut stamp = ctx.stamp(cpu, mem, self.clears, stats);
        let mut key = stamp_key_bits(stamp);
        let mut fast: u64 = 0;
        let links = &self.links[..];
        let mut sb = self.get(start);
        let mut ops = &sb.ops[..];
        let mut n = ops.len();
        let mut wrap = sb.wrap;
        let mut entry_vpc = cpu.pc;
        let mut i: usize = 0;
        // The last take of a spin: its op index (`usize::MAX`: none
        // since the last not-taken one), and `left` and `fast` right
        // after it.
        let (mut spin_at, mut spin_left, mut spin_fast) = (usize::MAX, 0u64, 0u64);
        let leave = 'run: loop {
            // Enters superblock `$idx` at its first op, the PC (not
            // yet synced, or already) being `$vpc`.
            macro_rules! enter {
                ($idx:expr, $vpc:expr) => {{
                    sb = self.get($idx);
                    ops = &sb.ops[..];
                    n = ops.len();
                    wrap = sb.wrap;
                    i = 0;
                    entry_vpc = $vpc;
                    continue 'run;
                }};
            }
            if left == 0 {
                // Budget (caller's or the recovery counter's) spent:
                // stop *between* instructions, PC on the next op.
                cpu.pc = entry_vpc.wrapping_add(ops[i].off);
                break None;
            }
            let op = &ops[i];
            // Virtual PC of this op, derived from its recorded entry
            // offset (ops are a trace, not address-contiguous) — only
            // transfers and exits consume it, so straight-line ops
            // never materialize it (`vpc!` is a macro, not a binding,
            // precisely for that).
            macro_rules! vpc {
                () => {
                    entry_vpc.wrapping_add(op.off)
                };
            }

            // Control-flow helpers shared by the op bodies below.
            // `chain!` is the out-of-superblock path: with the PC
            // already set, hop into the trace this exit's link cell
            // names if the cell was recorded for this target in this
            // context, else into whatever compiled superblock a full
            // lookup finds there (fresh and aligned), recording it —
            // else return to the dispatcher. The budget and alignment
            // tests come first: a link vouches for the target trace,
            // not for the frame's right to run it. `fault!` leaves
            // with the PC on the op, which did *not* retire; `taken!`
            // retires a transfer, continuing at a wired in-span op
            // index or chaining at the target.
            macro_rules! chain {
                ($cell:expr) => {{
                    if left == 0 || !cpu.pc.is_multiple_of(4) {
                        break 'run None;
                    }
                    stats.chain_hops += 1;
                    let cell = &links[$cell];
                    let link = cell.get();
                    if link.vpc == cpu.pc && link.stamp == stamp {
                        stats.link_hits += 1;
                        enter!(link.idx, cpu.pc)
                    }
                    match self.hop(cpu, mem) {
                        Some(next) => {
                            cell.set(Link {
                                vpc: cpu.pc,
                                idx: next,
                                stamp,
                            });
                            enter!(next, cpu.pc)
                        }
                        None => break 'run None,
                    }
                }};
            }
            // Lends the frame's context to an out-of-line helper, and
            // takes the stamp back as the helper left it.
            macro_rules! lend {
                (|$frame:ident| $call:expr) => {{
                    let mut $frame = Frame {
                        ctx: &mut *ctx,
                        stamp,
                        clears: self.clears,
                        stats: &mut *stats,
                    };
                    let answer = $call;
                    stamp = $frame.stamp;
                    answer
                }};
            }
            // `advance!` moves to the next op; past the last one it
            // continues at the op the trace closed on, if it did, and
            // else chains. `next!` retires the op first.
            macro_rules! advance {
                () => {{
                    i += 1;
                    if i == n {
                        if wrap != NO_TARGET {
                            i = wrap as usize;
                            continue 'run;
                        }
                        cpu.pc = entry_vpc.wrapping_add(sb.end_off);
                        chain!(sb.first_link as usize)
                    }
                    continue 'run;
                }};
            }
            macro_rules! next {
                () => {{
                    left -= 1;
                    advance!()
                }};
            }
            macro_rules! fault {
                ($e:expr) => {{
                    cpu.pc = vpc!();
                    break 'run Some(Leave::Offer($e));
                }};
            }
            macro_rules! taken {
                ($byte_offset:expr) => {{
                    left -= 1;
                    if op.target & LINKED == 0 {
                        i = op.target as usize;
                        continue 'run;
                    }
                    cpu.pc = vpc!().wrapping_add($byte_offset as u32);
                    chain!((op.target & !LINKED) as usize)
                }};
            }
            macro_rules! alu {
                ($v:ident) => {{
                    let a = cpu.reg(op.rs1);
                    let b = cpu.reg(op.rs2);
                    match alu_value(AluOp::$v, a, b) {
                        Some(v) => {
                            cpu.set_reg(op.rd, v);
                            next!()
                        }
                        None => fault!(Exit::Trap(Trap::ArithmeticError)),
                    }
                }};
            }
            macro_rules! alu_imm {
                ($v:ident) => {{
                    let v = alu_imm_value(AluImmOp::$v, cpu.reg(op.rs1), op.imm);
                    cpu.set_reg(op.rd, v);
                    next!()
                }};
            }
            // Loads and stores ask the data-page map first. A probe is
            // the address with its in-page bits masked off — all but
            // the low two for a word, so a misaligned word matches no
            // tag — over the PSW key; a hit is a slot whose tag for
            // this kind of access equals it, and the access is then a
            // bounds-checked read or write of RAM at the slot's page.
            // Everything else — miss, fault, I/O window, read-only
            // page, a store to a page with code in it — is the full
            // path's, unchanged.
            macro_rules! load {
                ($w:ident, $in_page:expr, $read:ident) => {{
                    let vaddr = cpu.reg(op.rs1).wrapping_add(op.imm as u32);
                    let slot = ctx.data[data_slot(vaddr)];
                    if slot.read == (vaddr & !$in_page) | key {
                        if let Ok(raw) = mem.$read(slot.base | (vaddr & (PAGE_SIZE - 1))) {
                            fast += 1;
                            cpu.set_reg(op.rd, extend(MemWidth::$w, u32::from(raw)));
                            next!()
                        }
                    }
                    match lend!(|f| load_slow(MemWidth::$w, op, cpu, mem, &mut f)) {
                        Ok(v) => {
                            cpu.set_reg(op.rd, v);
                            next!()
                        }
                        Err(e) => fault!(e),
                    }
                }};
            }
            macro_rules! store {
                ($w:ident, $in_page:expr, $write:ident, $ty:ty) => {{
                    let vaddr = cpu.reg(op.rs2).wrapping_add(op.imm as u32);
                    let slot = ctx.data[data_slot(vaddr)];
                    if slot.write == (vaddr & !$in_page) | key
                        && mem.$write(
                            slot.base | (vaddr & (PAGE_SIZE - 1)),
                            cpu.reg(op.rs1) as $ty,
                        )
                    {
                        fast += 1;
                        next!()
                    }
                    match lend!(|f| store_slow(MemWidth::$w, op, cpu, mem, &mut f)) {
                        Ok(true) => next!(),
                        Ok(false) => {
                            // The store wrote decoded bytes somewhere
                            // and the stamp has moved on, so no link
                            // recorded before it will be followed. If
                            // the bytes were this superblock's own —
                            // the entry page's or a cross-page
                            // callee's, ahead of the program counter —
                            // abandon the compiled tail and re-enter
                            // the dispatcher.
                            if sb.pages_stale(mem) {
                                left -= 1;
                                cpu.pc = vpc!().wrapping_add(4);
                                break 'run None;
                            }
                            next!()
                        }
                        Err(e) => fault!(e),
                    }
                }};
            }
            macro_rules! branch {
                (|$a:ident, $b:ident| $cond:expr) => {{
                    let $a = cpu.reg(op.rs1);
                    let $b = cpu.reg(op.rs2);
                    if $cond {
                        taken!(op.imm)
                    }
                    next!()
                }};
            }
            match op.kind {
                Kind::Add => alu!(Add),
                Kind::Sub => alu!(Sub),
                Kind::And => alu!(And),
                Kind::Or => alu!(Or),
                Kind::Xor => alu!(Xor),
                Kind::Sll => alu!(Sll),
                Kind::Srl => alu!(Srl),
                Kind::Sra => alu!(Sra),
                Kind::Slt => alu!(Slt),
                Kind::Sltu => alu!(Sltu),
                Kind::Mul => alu!(Mul),
                Kind::Divu => alu!(Divu),
                Kind::Remu => alu!(Remu),
                Kind::Addi => alu_imm!(Addi),
                Kind::Andi => alu_imm!(Andi),
                Kind::Ori => alu_imm!(Ori),
                Kind::Xori => alu_imm!(Xori),
                Kind::Slti => alu_imm!(Slti),
                Kind::Slli => alu_imm!(Slli),
                Kind::Srli => alu_imm!(Srli),
                Kind::Srai => alu_imm!(Srai),
                Kind::Lui => {
                    // The shift happened at compile time.
                    cpu.set_reg(op.rd, op.imm as u32);
                    next!()
                }
                Kind::Nop => next!(),
                Kind::Lw => load!(Word, WORD_IN_PAGE, read_u32),
                Kind::Lb => load!(Byte, BYTE_IN_PAGE, read_u8),
                Kind::Lbu => load!(ByteU, BYTE_IN_PAGE, read_u8),
                Kind::Sw => store!(Word, WORD_IN_PAGE, write_data_u32, u32),
                Kind::Sb => store!(Byte, BYTE_IN_PAGE, write_data_u8, u8),
                Kind::Sbu => store!(ByteU, BYTE_IN_PAGE, write_data_u8, u8),
                Kind::Beq => branch!(|a, b| a == b),
                Kind::Bne => branch!(|a, b| a != b),
                Kind::Blt => branch!(|a, b| (a as i32) < (b as i32)),
                Kind::Bge => branch!(|a, b| (a as i32) >= (b as i32)),
                Kind::Bltu => branch!(|a, b| a < b),
                Kind::Bgeu => branch!(|a, b| a >= b),
                Kind::Spin => {
                    // A poll loop's closing branch. Taken `len`
                    // retirements after its last take, with a map hit
                    // for every load in between, it has run one whole
                    // iteration from the loop head, and nothing else
                    // runs inside a frame: the state it is in now is
                    // the one every further iteration ends in. So the
                    // whole iterations the grant holds retire at once,
                    // their loads booked as the map hits they are; the
                    // rest runs op by op.
                    if !cond_holds(op.rd, cpu.reg(op.rs1), cpu.reg(op.rs2)) {
                        spin_at = usize::MAX;
                        next!()
                    }
                    left -= 1;
                    let (len, loads) = (u64::from(op.imm as u16), (op.imm >> 16) as u64);
                    if spin_at == i && spin_left == left + len && spin_fast + loads == fast {
                        let whole = left / len;
                        left -= whole * len;
                        fast += whole * loads;
                        stats.spin_skipped += whole * len;
                    }
                    (spin_at, spin_left, spin_fast) = (i, left, fast);
                    i = op.target as usize;
                    continue 'run;
                }
                Kind::Jal => {
                    // PA-RISC quirk: the privilege level rides in the
                    // low bits of the link value (paper §3.1). The
                    // level is read at run time — the same physical
                    // code can execute at any privilege.
                    let link = vpc!().wrapping_add(4) | u32::from(cpu.psw.cpl);
                    cpu.set_reg(op.rd, link);
                    taken!(op.imm)
                }
                Kind::Jalr => {
                    // Target before link: `rd` may alias the base.
                    let target = cpu.reg(op.rs1).wrapping_add(op.imm as u32) & !3;
                    let link = vpc!().wrapping_add(4) | u32::from(cpu.psw.cpl);
                    cpu.set_reg(op.rd, link);
                    left -= 1;
                    // A guarded return: a callee returning to its caller
                    // goes on at the next op, compiled for the return
                    // point. (Falling through keeps the next op's index
                    // off the loads: a frame pays for every transfer
                    // whose successor it must read from an op record.)
                    if op.target != NO_TARGET
                        && target == entry_vpc.wrapping_add(ops[op.target as usize].off)
                    {
                        stats.ret_inline += 1;
                        advance!()
                    }
                    cpu.pc = target;
                    if left == 0 {
                        break 'run None;
                    }
                    // Anything else leaves by the trace's return links.
                    // A `jalr` that leaves is almost always a `ret`, and
                    // a `ret` has a hot caller — or, in a recursive
                    // routine, two: the outer call site and its own. So
                    // there are two links, tried in order (`jalr` masks
                    // the low target bits: no alignment test is needed).
                    let way0 = sb.ret[0].get();
                    if way0.vpc == target && way0.stamp == stamp {
                        stats.ret_cache_hits += 1;
                        enter!(way0.idx, target)
                    }
                    let way1 = sb.ret[1].get();
                    if way1.vpc == target && way1.stamp == stamp {
                        stats.ret_cache_hits += 1;
                        enter!(way1.idx, target)
                    }
                    stats.ret_cache_misses += 1;
                    // Miss: the full lookup, recorded over a way that
                    // is dead anyway (another context's) and else over
                    // the second — the first keeps the target that got
                    // there first, the dominant one, and one more
                    // return site does not evict it every time round.
                    match self.hop(cpu, mem) {
                        Some(next) => {
                            let way = usize::from(way0.stamp == stamp);
                            sb.ret[way].set(Link {
                                vpc: target,
                                idx: next,
                                stamp,
                            });
                            enter!(next, target)
                        }
                        None => break 'run None,
                    }
                }
                Kind::Probe => {
                    // Probe never changes translation state, so it is
                    // safe inside a superblock; its semantics mirror
                    // `Cpu::execute` exactly.
                    let vaddr = cpu.reg(op.rs1);
                    if !cpu.psw.translation {
                        cpu.set_reg(op.rd, 1);
                        next!()
                    }
                    match cpu.tlb.lookup(vaddr, TlbAccess::Read, cpu.psw.is_user()) {
                        TlbResult::Hit(_) => {
                            cpu.set_reg(op.rd, 1);
                            next!()
                        }
                        TlbResult::Denied => {
                            cpu.set_reg(op.rd, 0);
                            next!()
                        }
                        TlbResult::Miss => fault!(Exit::Trap(Trap::TlbMiss {
                            vaddr,
                            write: false,
                        })),
                    }
                }
                Kind::MfCtl | Kind::MtCtl | Kind::Assist => {
                    // A register move at privilege 0 is the move and
                    // nothing else; above it, the embedder's.
                    if cpu.psw.cpl == 0 {
                        match op.kind {
                            Kind::MfCtl => {
                                let v = *cpu.ctl_by_number(op.rs2.index());
                                cpu.set_reg(op.rd, v);
                                next!()
                            }
                            Kind::MtCtl => {
                                *cpu.ctl_by_number(op.rs2.index()) = cpu.reg(op.rs1);
                                next!()
                            }
                            _ => {}
                        }
                    }
                    // Sync, so the instruction (and the embedder) sees
                    // the architectural state; the frame's count
                    // restarts from the budget `assist_op` hands back,
                    // its stamp and key from the stamp it leaves behind.
                    let pc = vpc!();
                    cpu.pc = pc;
                    cpu.sync_retire(granted - left);
                    book_fast(std::mem::take(&mut fast), key, cpu, stats);
                    let insn = sb.assists[op.imm as usize];
                    let moves = !matches!(op.kind, Kind::Assist);
                    let after =
                        lend!(|f| assist_op(insn, moves, pc, cpu, mem, goal, assist, &mut f));
                    key = stamp_key_bits(stamp);
                    match after {
                        After::Next(b) => {
                            (granted, left) = (b, b);
                            advance!()
                        }
                        After::Chain(b) => {
                            (granted, left) = (b, b);
                            chain!((op.target & !LINKED) as usize)
                        }
                        After::Leave(leave) => {
                            left = granted;
                            break 'run leave;
                        }
                    }
                }
            }
        };
        cpu.sync_retire(granted - left);
        book_fast(fast, key, cpu, stats);
        leave
    }

    /// The hop no link answered: translate the PC (already on the
    /// target), look the trace up and validate it like any entry.
    /// Out of line, like everything a frame does rarely.
    #[inline(never)]
    fn hop(&self, cpu: &mut Cpu, mem: &Memory) -> Option<u32> {
        let pa = cpu.translate(cpu.pc, TlbAccess::Execute).ok()?;
        self.peek(pa, cpu, mem)
    }
}

// ---------------------------------------------------------------------
// Cache and promotion
// ---------------------------------------------------------------------

/// Result of a dispatcher probe.
pub(crate) enum Lookup {
    /// A fresh compiled superblock exists at this arena index
    /// (resolve it with [`JitCache::get`]); execute it.
    Compiled(u32),
    /// No compiled code here (cold, not yet hot, or uncompilable):
    /// the caller steps the reference interpreter.
    Cold,
}

/// The superblock cache: physical fetch address → compiled superblock,
/// with an execution-count heat table driving promotion and a
/// direct-mapped front table short-circuiting the map on hot hits —
/// including the hot *misses*: an address whose word does not decode
/// holds an empty-ops marker, and a guest that keeps trapping there
/// re-enters the dispatcher right there.
#[derive(Debug, Default)]
pub(crate) struct JitCache {
    arena: Vec<SuperBlock>,
    map: HashMap<u32, u32, IntBuildHasher>,
    /// Cold-address execution counts; an address is compiled when its
    /// count reaches [`PROMOTE_THRESHOLD`].
    heat: HashMap<u32, u32, IntBuildHasher>,
    /// `(paddr, arena index)` keyed by `(paddr >> 2) & (FRONT_SLOTS-1)`.
    front: Option<Box<[(u32, u32); FRONT_SLOTS]>>,
    /// The trace-to-trace links of every superblock in the arena, in
    /// one table beside it so that the executor reaches a cell from the
    /// op it is on, not through the superblock. `Cell` because links
    /// are recorded while the executor holds a shared borrow of the
    /// cache (`run_chain` takes `&self`); the dispatcher is owned
    /// per-CPU and moved — never shared — across threads, so interior
    /// mutability without `Sync` is exactly the contract.
    links: Vec<Cell<Link>>,
    /// Times the arena was cleared. Arena and link indices are reused
    /// across clears, so the count is part of the [`Context`] stamp a
    /// [`Link`] is recorded under.
    clears: u64,
}

impl JitCache {
    fn front_mut(&mut self) -> &mut [(u32, u32); FRONT_SLOTS] {
        self.front
            .get_or_insert_with(|| Box::new([(FRONT_EMPTY, 0); FRONT_SLOTS]))
    }

    /// Drops every compiled superblock and all heat state.
    fn clear(&mut self) {
        self.clears += 1;
        self.arena.clear();
        self.links.clear();
        self.map.clear();
        self.heat.clear();
        if let Some(front) = &mut self.front {
            front.fill((FRONT_EMPTY, 0));
        }
    }

    /// Resolves an arena index returned by [`JitCache::probe`] or
    /// [`JitCache::peek`].
    #[inline]
    pub(crate) fn get(&self, idx: u32) -> &SuperBlock {
        &self.arena[idx as usize]
    }

    /// The one entry predicate: what arena index `idx` knows about an
    /// entry at physical address `paddr` and virtual PC `vpc` — a
    /// compiled superblock to execute, an address known not to compile
    /// ([`Lookup::Cold`]), or `None` when the slot is for another
    /// address or no longer trustworthy (a recorded page's code was
    /// written, or a secondary page translates elsewhere). Shared by
    /// the front table, the map path and [`Self::peek`], so no lookup
    /// can skip a code-generation or translation check (a followed
    /// [`Link`] is not a lookup: it rests on one of these, made under
    /// the stamp it still carries).
    #[inline]
    fn resolve(&self, idx: u32, paddr: u32, vpc: u32, cpu: &Cpu, mem: &Memory) -> Option<Lookup> {
        let sb = self.arena.get(idx as usize)?;
        if sb.entry_paddr != paddr {
            return None;
        }
        if sb.ops.is_empty() {
            (!sb.pages_stale(mem)).then_some(Lookup::Cold)
        } else {
            sb.fresh(vpc, cpu, mem).then_some(Lookup::Compiled(idx))
        }
    }

    /// The front table's answer for `paddr`, if its slot holds one.
    #[inline]
    fn front_hit(&self, paddr: u32, vpc: u32, cpu: &Cpu, mem: &Memory) -> Option<Lookup> {
        let (tag, idx) = self.front.as_ref()?[front_slot(paddr)];
        if tag != paddr {
            return None;
        }
        self.resolve(idx, paddr, vpc, cpu, mem)
    }

    /// Read-only lookup for superblock chaining: the compiled, fresh
    /// superblock at `paddr`, or `None` (cold, stale or uncompilable —
    /// the caller returns to the full dispatcher, whose [`Self::probe`]
    /// owns promotion and invalidation). The CPU's PC must already be
    /// on the entry's virtual address (`chain!` sets it before
    /// translating); cross-page traces validate their secondary
    /// translations against it. Taking `&self` is the point: the
    /// executing superblock holds a shared borrow of the cache, so
    /// chaining must not mutate it.
    #[inline]
    pub(crate) fn peek(&self, paddr: u32, cpu: &Cpu, mem: &Memory) -> Option<u32> {
        let vpc = cpu.pc;
        let hit = self
            .front_hit(paddr, vpc, cpu, mem)
            .or_else(|| self.resolve(*self.map.get(&paddr)?, paddr, vpc, cpu, mem))?;
        match hit {
            Lookup::Compiled(idx) => Some(idx),
            Lookup::Cold => None,
        }
    }

    /// Looks up the superblock starting at physical address `paddr`
    /// (the translation of the CPU's current PC), compiling it if the
    /// address just crossed the promotion threshold, recompiling if
    /// code of any constituent page changed.
    #[inline]
    pub(crate) fn probe(
        &mut self,
        paddr: u32,
        cpu: &Cpu,
        mem: &Memory,
        stats: &mut ExecStats,
    ) -> Lookup {
        match self.front_hit(paddr, cpu.pc, cpu, mem) {
            Some(hit) => hit,
            None => self.probe_slow(paddr, cpu, mem, stats),
        }
    }

    fn probe_slow(&mut self, paddr: u32, cpu: &Cpu, mem: &Memory, stats: &mut ExecStats) -> Lookup {
        let gen = mem.code_gen(paddr);
        let mut stale = None;
        if let Some(&idx) = self.map.get(&paddr) {
            let sb = &self.arena[idx as usize];
            if !sb.pages_stale(mem) {
                return self.answer(idx, paddr, cpu, mem);
            }
            // Self-modifying code or DMA over decoded bytes of a
            // constituent page: this address is known-hot, recompile
            // in place. An empty-ops marker records an address that no
            // longer compiles (until its word changes again).
            stats.jit_invalidations += 1;
            if mem.code_gen(sb.page_addr) == sb.gen {
                // The entry page is intact: only a *secondary* page of
                // a cross-page trace was written.
                stats.jit_invalidations_secondary += 1;
            }
            stale = Some(idx);
        } else {
            // Cold address: count the execution, promote when hot.
            if self.heat.len() >= MAX_HEAT_ENTRIES {
                self.heat.clear();
            }
            let heat = self.heat.entry(paddr).or_insert(0);
            *heat += 1;
            if *heat < PROMOTE_THRESHOLD {
                return Lookup::Cold;
            }
            self.heat.remove(&paddr);
        }
        if (stale.is_none() && self.arena.len() >= MAX_SUPERBLOCKS) || self.links.len() >= MAX_LINKS
        {
            self.clear();
            stale = None;
        }
        // An uncompilable start (an unreadable or undecodable first
        // word) caches a marker, so the cold path owns the address
        // without compilation being re-attempted.
        let first_link = self.links.len() as u32;
        let sb = match compile(paddr, cpu.pc, gen, cpu, mem, first_link) {
            Some(sb) => {
                stats.superblocks_compiled += 1;
                if !sb.extra_pages.is_empty() {
                    stats.cross_page_superblocks += 1;
                }
                self.links
                    .resize(self.links.len() + sb.links as usize, Cell::new(Link::EMPTY));
                sb
            }
            None => SuperBlock::marker(paddr, gen),
        };
        let idx = match stale {
            Some(idx) => {
                self.arena[idx as usize] = sb;
                idx
            }
            None => {
                self.arena.push(sb);
                let idx = self.arena.len() as u32 - 1;
                self.map.insert(paddr, idx);
                idx
            }
        };
        self.answer(idx, paddr, cpu, mem)
    }

    /// What the mapped arena index `idx` says about an entry at `paddr`
    /// now, noted in the front table when it says anything.
    fn answer(&mut self, idx: u32, paddr: u32, cpu: &Cpu, mem: &Memory) -> Lookup {
        match self.resolve(idx, paddr, cpu.pc, cpu, mem) {
            Some(hit) => {
                self.front_mut()[front_slot(paddr)] = (paddr, idx);
                hit
            }
            // Every page's code is unwritten, but a secondary virtual
            // page no longer translates to the page the trace was
            // compiled from (a remap, a purge, or a privilege change).
            // The code itself is intact, so keep the trace — the
            // mapping usually comes back — and let the cold path own
            // this entry meanwhile; it takes the exact fault, if any,
            // being the per-step path.
            None => Lookup::Cold,
        }
    }
}

/// Front-table slot of a physical fetch address.
#[inline]
fn front_slot(paddr: u32) -> usize {
    ((paddr >> 2) as usize) & (FRONT_SLOTS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecTier;
    use crate::tlb::{pte, TlbReplacement};
    use hvft_isa::asm::assemble;

    fn mem_with(src: &str) -> Memory {
        let prog = assemble(src).unwrap_or_else(|e| panic!("asm: {e}"));
        let mut mem = Memory::new(4 * PAGE_SIZE as usize);
        for seg in &prog.segments {
            mem.write_bytes(seg.base, &seg.data);
        }
        mem
    }

    /// A bare CPU (translation off, kernel privilege) positioned at
    /// `pc`; compile/probe use it for translation peeks, which are
    /// identity here.
    fn cpu_at(pc: u32) -> Cpu {
        let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
        cpu.pc = pc;
        cpu
    }

    fn compile_at(paddr: u32, mem: &Memory) -> Option<SuperBlock> {
        compile(paddr, paddr, mem.code_gen(paddr), &cpu_at(paddr), mem, 0)
    }

    #[test]
    fn superblock_chains_across_not_taken_branches() {
        let mem = mem_with(
            "s: addi r4, r0, 1
                bne  r4, r0, 8
                addi r5, r0, 2
                addi r6, r0, 3
                jal  ra, s",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(
            sb.len(),
            5,
            "compilation must continue through the conditional branch \
             and include the final jal"
        );
    }

    /// The instructions of `sb`'s side table — its assist ops and its
    /// register moves — in op order.
    fn assist_insns(sb: &SuperBlock) -> Vec<Instruction> {
        sb.assists.iter().map(|&(insn, _)| insn).collect()
    }

    #[test]
    fn superblock_stops_at_privileged_instructions() {
        // …at the ones control cannot fall through, that is: a handler
        // compiles whole, its privileged instructions as assist ops —
        // its control-register moves as register moves — and ends
        // *with* its rfi.
        let mem = mem_with(
            "s: mfctl r4, ipsw
                sw   r4, 0x400(r0)
                ssm  1
                mtctl ipsw, r4
                rfi
                nop",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(sb.len(), 5, "the nop after the rfi is not reached");
        let kinds = sb.ops.iter().map(|op| op.kind).collect::<Vec<_>>();
        assert!(
            matches!(
                kinds[..],
                [
                    Kind::MfCtl,
                    Kind::Sw,
                    Kind::Assist,
                    Kind::MtCtl,
                    Kind::Assist
                ]
            ),
            "{kinds:?}"
        );
        let assists = assist_insns(&sb);
        assert_eq!(assists.len(), 4);
        assert!(matches!(assists[0], Instruction::MfCtl { .. }));
        assert!(matches!(assists[1], Instruction::Ssm { imm: 1 }));
        assert_eq!(assists[3], Instruction::Rfi);
        // The three control registers the frame reads are not moves.
        for cr in ["rctr", "eiem", "eirr"] {
            let mem = mem_with(&format!("s: mfctl r4, {cr}\n mtctl {cr}, r4\n halt"));
            let sb = compile_at(0, &mem).expect("sb");
            assert!(
                sb.ops[..2].iter().all(|op| matches!(op.kind, Kind::Assist)),
                "{cr}"
            );
        }
        // The side table keeps the raw word for the PrivilegedOp trap.
        let rfi = hvft_isa::codec::encode(Instruction::Rfi).unwrap();
        assert_eq!(sb.assists.last(), Some(&(Instruction::Rfi, rfi)));
        // halt and idle end a trace the same way.
        for last in ["halt", "idle"] {
            let mem = mem_with(&format!("s: mftod r4\n {last}\n nop"));
            assert_eq!(compile_at(0, &mem).expect("sb").len(), 2, "{last}");
        }
        // Everything else extends it.
        let mem = mem_with(
            "s: mftod r4\n mftodh r5\n mtit r4\n mfit r5\n tlbi r4, r5\n tlbp r4
                rsm 3\n diag r4, 2\n probe r4, r5\n jalr r0, ra, 0",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!((sb.len(), sb.assists.len()), (10, 8));
    }

    #[test]
    fn superblock_runs_through_gate_and_brk() {
        // They are assist ops, and the trace goes on behind them: the
        // handler's `rfi` returns to `pc + 4`.
        let mem = mem_with("s: addi r4, r0, 1\n gate 3\n nop\n halt");
        let sb = compile_at(0, &mem).expect("sb");
        assert_eq!(sb.len(), 4);
        assert_eq!(
            assist_insns(&sb),
            [Instruction::Gate { imm: 3 }, Instruction::Halt]
        );
        let mem = mem_with("s: nop\n brk 0\n nop\n halt");
        let sb = compile_at(0, &mem).expect("sb");
        assert_eq!(sb.len(), 4);
        assert_eq!(
            assist_insns(&sb),
            [Instruction::Brk { imm: 0 }, Instruction::Halt]
        );
    }

    #[test]
    fn a_followed_call_compiles_its_return_as_a_guarded_return() {
        // Nested calls pair with their returns innermost first; a
        // `jalr` with no call left to pair with ends the trace.
        let mem = mem_with(
            "s: jal  ra, f
                addi r4, r4, 1       ; f's return point
                jalr r0, r5, 0
            f:  jal  r6, g
                jalr r0, ra, 0       ; back to s + 4
            g:  addi r7, r7, 1
                jalr r0, r6, 0       ; back to f + 4",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        let kinds = sb.ops.iter().map(|op| op.kind).collect::<Vec<_>>();
        assert!(
            matches!(
                kinds[..],
                [
                    Kind::Jal,
                    Kind::Jal,
                    Kind::Addi,
                    Kind::Jalr,
                    Kind::Jalr,
                    Kind::Addi,
                    Kind::Jalr
                ]
            ),
            "{kinds:?}"
        );
        // g's return falls through to f's `jalr`, f's to the `addi` at
        // s + 4; the last `jalr` ends the trace.
        let targets = [3, 4, 6].map(|k| sb.ops[k].target);
        assert_eq!(targets, [4, 5, NO_TARGET]);
        assert_eq!((sb.ops[4].off, sb.ops[5].off), (16, 4));
        // A jump (no link register) leaves nothing to return to.
        let mem = mem_with("s: jal r0, f\n nop\n f: jalr r0, ra, 0");
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!((sb.len(), sb.ops[1].target), (2, NO_TARGET));
        // A return point the trace holds already — here its entry — is
        // not gone on at: the `jalr` ends the trace.
        let mem = mem_with("c: jal ra, g\n r: addi r4, r4, 1\n jal r0, c\n g: jalr r0, ra, 0");
        let sb = compile_at(4, &mem).expect("superblock");
        let kinds = sb.ops.iter().map(|op| op.kind).collect::<Vec<_>>();
        assert!(
            matches!(kinds[..], [Kind::Addi, Kind::Jal, Kind::Jal, Kind::Jalr]),
            "{kinds:?}"
        );
        assert_eq!(sb.ops[3].target, NO_TARGET);
    }

    #[test]
    fn a_guarded_return_stays_in_the_trace_only_when_its_guard_holds() {
        // f clobbers its return address on odd turns and returns to
        // `away`; both tiers must agree, and only the even returns stay.
        let src = "s:  addi r20, r20, 1
                       andi r21, r20, 1
                       jal  ra, f
                       addi r23, r23, 1
                       jal  r0, s
                   f:  beq  r21, r0, ret
                       la   ra, away
                   ret:
                       jalr r0, ra, 0
                   away:
                       addi r24, r24, 1
                       jal  r0, s";
        let run = |tier| {
            let (mut cpu, mut mem) = cpu_on(tier, src);
            assert_eq!(cpu.run(&mut mem, 20_000), Exit::Retired);
            let regs = [20, 23, 24].map(|r| cpu.reg(Reg::of(r)));
            (regs, cpu.pc, cpu.retired(), cpu.exec_stats())
        };
        let (regs, pc, retired, stats) = run(ExecTier::Jit);
        let (regs_s, pc_s, retired_s, _) = run(ExecTier::Step);
        assert_eq!((regs, pc, retired), (regs_s, pc_s, retired_s));
        let turns = u64::from(regs[0]);
        assert!(stats.ret_inline * 2 + 40 > turns, "{stats:?}");
        assert!(stats.ret_inline * 2 <= turns, "{stats:?}");
    }

    #[test]
    fn uncompilable_start_yields_none() {
        // Only a word that does not decode: `halt` is a one-op trace.
        let mem = mem_with("s: halt");
        assert_eq!(compile_at(0, &mem).expect("sb").len(), 1);
        let zeros = Memory::new(PAGE_SIZE as usize); // .word 0 is illegal
        assert!(compile_at(0, &zeros).is_none());
        // An undecodable word mid-trace ends it before that word.
        let mem = mem_with("s: nop\n mfctl r4, iip\n .word 0\n nop");
        assert_eq!(compile_at(0, &mem).expect("sb").len(), 2);
    }

    #[test]
    fn backward_branches_are_wired_in_span() {
        let mem = mem_with(
            "s: addi r5, r0, 10
            loop:
                addi r6, r6, 1
                addi r5, r5, -1
                bne  r5, r0, loop
                jal  ra, s",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(sb.len(), 5);
        // The bne at index 3 targets index 1.
        assert_eq!(sb.ops[3].target, 1);
        // The jal at index 4 targets index 0.
        assert_eq!(sb.ops[4].target, 0);
    }

    #[test]
    fn forward_branches_out_of_span_are_unwired() {
        let mem = mem_with("s: beq r0, r0, 4096\n jal ra, 0");
        let sb = compile_at(0, &mem).expect("superblock");
        // Unwired, and linked: cell 0 is the trace's end, 1 the branch's,
        // 2 the `jal`'s (its target, the trace's own entry, is already
        // compiled, so it is not followed — and it is in-span: wired).
        assert_eq!(sb.ops[0].target, LINKED | 1);
        assert_eq!(sb.ops[1].target, 0);
        assert_eq!(sb.links, 2);
    }

    #[test]
    fn straight_line_flow_stops_at_the_page_edge() {
        // Only explicit `jal`s extend the page set: a straight-line
        // walk off the entry page still ends the trace.
        let mut mem = Memory::new(2 * PAGE_SIZE as usize);
        let nop = hvft_isa::codec::encode(Instruction::Nop).unwrap();
        for i in 0..(2 * PAGE_SIZE / 4) {
            mem.write_u32(i * 4, nop).unwrap();
        }
        let sb = compile_at(16, &mem).expect("superblock");
        assert_eq!(sb.len() as u32, (PAGE_SIZE - 16) / 4);
        assert!(sb.extra_pages.is_empty());
    }

    #[test]
    fn cross_page_jal_fuses_and_records_the_page_dependency() {
        let mem = mem_with(
            "s: addi r4, r0, 1
                jal  ra, callee
            .org 4096
            callee:
                addi r5, r0, 2
                jalr r0, ra, 0",
        );
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(sb.len(), 4, "call + callee must fuse across the page");
        assert_eq!(sb.extra_pages.len(), 1);
        assert_eq!(sb.extra_pages[0].ppage, PAGE_SIZE);
        assert_eq!(sb.extra_pages[0].voff, PAGE_SIZE);
        assert_eq!(sb.extra_pages[0].gen, mem.code_gen(PAGE_SIZE));
    }

    #[test]
    fn trace_page_set_is_capped() {
        // A call chain touching more pages than MAX_TRACE_PAGES stops
        // extending at the cap.
        let mut src = String::from("s: jal ra, f1\n");
        for p in 1..6 {
            src.push_str(&format!(
                ".org {}\nf{p}: addi r4, r4, {p}\n jal ra, f{}\n",
                p * 4096,
                p + 1
            ));
        }
        src.push_str(".org 24576\nf6: jalr r0, ra, 0\n");
        let mem = {
            let prog = assemble(&src).unwrap_or_else(|e| panic!("asm: {e}"));
            let mut mem = Memory::new(8 * PAGE_SIZE as usize);
            for seg in &prog.segments {
                mem.write_bytes(seg.base, &seg.data);
            }
            mem
        };
        let sb = compile_at(0, &mem).expect("superblock");
        assert_eq!(sb.extra_pages.len(), MAX_TRACE_PAGES - 1);
        // Pages 0..MAX_TRACE_PAGES contribute ops: the jal on the
        // last allowed page ends the trace.
        assert_eq!(sb.len(), 1 + (MAX_TRACE_PAGES - 1) * 2);
    }

    #[test]
    fn secondary_page_write_invalidates_a_cross_page_trace() {
        let mut mem = mem_with(
            "s: addi r4, r0, 1
                jal  ra, callee
            .org 4096
            callee:
                addi r5, r0, 2
                jalr r0, ra, 0",
        );
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        let cpu = cpu_at(0);
        for _ in 0..PROMOTE_THRESHOLD {
            let _ = cache.probe(0, &cpu, &mem, &mut stats);
        }
        assert_eq!(stats.superblocks_compiled, 1);
        assert_eq!(stats.cross_page_superblocks, 1);
        // Write into the *second* page: the entry page's generation is
        // untouched, yet the trace must die.
        mem.write_u32(4096, 0).unwrap();
        match cache.probe(0, &cpu, &mem, &mut stats) {
            Lookup::Compiled(idx) => {
                // Recompiled: the callee's first word no longer
                // decodes, so the trace ends at the jal and is
                // single-page again.
                assert_eq!(cache.get(idx).len(), 2);
                assert!(cache.get(idx).extra_pages.is_empty());
            }
            Lookup::Cold => panic!("hot address must recompile"),
        }
        assert_eq!(stats.jit_invalidations, 1);
        assert_eq!(stats.jit_invalidations_secondary, 1);
    }

    #[test]
    fn cache_promotes_only_hot_addresses() {
        let mem = mem_with("s: addi r4, r0, 1\n jal ra, s");
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        for _ in 0..PROMOTE_THRESHOLD - 1 {
            assert!(matches!(
                cache.probe(0, &cpu_at(0), &mem, &mut stats),
                Lookup::Cold
            ));
        }
        assert!(matches!(
            cache.probe(0, &cpu_at(0), &mem, &mut stats),
            Lookup::Compiled(_)
        ));
        assert_eq!(stats.superblocks_compiled, 1);
        // Subsequent probes hit without recompiling.
        assert!(matches!(
            cache.probe(0, &cpu_at(0), &mem, &mut stats),
            Lookup::Compiled(_)
        ));
        assert_eq!(stats.superblocks_compiled, 1);
    }

    #[test]
    fn cache_invalidates_on_page_writes() {
        let mut mem = mem_with("s: addi r4, r0, 1\n addi r5, r0, 2\n jal ra, s");
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        for _ in 0..PROMOTE_THRESHOLD {
            let _ = cache.probe(0, &cpu_at(0), &mem, &mut stats);
        }
        assert_eq!(stats.superblocks_compiled, 1);
        // Patch the second instruction into a halt: the recompiled
        // superblock ends there, with the halt as its final op.
        let halt = hvft_isa::codec::encode(Instruction::Halt).unwrap();
        mem.write_u32(4, halt).unwrap();
        match cache.probe(0, &cpu_at(0), &mem, &mut stats) {
            Lookup::Compiled(idx) => {
                assert_eq!(cache.get(idx).len(), 2);
                assert_eq!(assist_insns(cache.get(idx)), [Instruction::Halt]);
            }
            Lookup::Cold => panic!("hot address must recompile"),
        }
        assert_eq!(stats.jit_invalidations, 1);
        assert_eq!(stats.superblocks_compiled, 2);
    }

    #[test]
    fn uncompilable_hot_address_caches_a_marker() {
        let mem = mem_with("s: .word 0");
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        for _ in 0..PROMOTE_THRESHOLD + 8 {
            assert!(matches!(
                cache.probe(0, &cpu_at(0), &mem, &mut stats),
                Lookup::Cold
            ));
        }
        assert_eq!(stats.superblocks_compiled, 0);
        assert_eq!(cache.map.len(), 1, "marker cached after promotion");
    }

    #[test]
    fn cache_stays_bounded() {
        let pages = (MAX_SUPERBLOCKS as u32 * 4).div_ceil(PAGE_SIZE) + 1;
        let mut mem = Memory::new((pages * PAGE_SIZE) as usize);
        // Fill with `jalr` so every superblock is a single op: the test
        // exercises cache bounding, not trace formation.
        let jalr = hvft_isa::codec::encode(Instruction::Jalr {
            rd: Reg::ZERO,
            base: Reg::RA,
            disp: 0,
        })
        .unwrap();
        for i in 0..(pages * PAGE_SIZE / 4) {
            mem.write_u32(i * 4, jalr).unwrap();
        }
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        let mut cpu = cpu_at(0);
        for i in 0..(MAX_SUPERBLOCKS as u32 + 64) {
            for _ in 0..PROMOTE_THRESHOLD {
                cpu.pc = i * 4;
                let _ = cache.probe(i * 4, &cpu, &mem, &mut stats);
            }
        }
        assert!(cache.map.len() <= MAX_SUPERBLOCKS);
    }

    /// Probes `paddr` until it is promoted; returns the final answer.
    fn heat_up(cache: &mut JitCache, paddr: u32, mem: &Memory, stats: &mut ExecStats) -> Lookup {
        for _ in 0..PROMOTE_THRESHOLD - 1 {
            assert!(matches!(
                cache.probe(paddr, &cpu_at(paddr), mem, stats),
                Lookup::Cold
            ));
        }
        cache.probe(paddr, &cpu_at(paddr), mem, stats)
    }

    #[test]
    fn data_stores_in_a_code_page_leave_compiled_traces_alone() {
        // Kernel-like page 0: a vector at 0x100 that jumps to a handler
        // at 0x200, save slots at 0x400. The trace is [jal, addi, sw,
        // rfi].
        let mut mem = mem_with(
            ".org 0x100
            vec: jal r0, handler
            .org 0x200
            handler:
                addi r4, r4, 1
                sw   r4, 0x400(r0)
                rfi",
        );
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        let Lookup::Compiled(idx) = heat_up(&mut cache, 0x100, &mem, &mut stats) else {
            panic!("hot vector must compile");
        };
        assert_eq!(cache.get(idx).len(), 4);
        // The handler's own save slot, and the words either side of
        // the page's decoded extent 0x100..0x20C (one interval per
        // page: the gap between vector and handler lies inside it).
        for pa in [0x400, 0x0FC, 0x20C] {
            mem.write_u32(pa, 0xDEAD).unwrap();
        }
        assert!(matches!(
            cache.probe(0x100, &cpu_at(0x100), &mem, &mut stats),
            Lookup::Compiled(i) if i == idx
        ));
        assert_eq!(
            (stats.superblocks_compiled, stats.jit_invalidations),
            (1, 0)
        );
    }

    #[test]
    fn stores_at_the_edges_of_a_trace_invalidate_it() {
        let src = ".org 0x100
            vec: jal r0, handler
            .org 0x200
            handler:
                addi r4, r4, 1
                sw   r4, 0x400(r0)
                rfi";
        let nop = hvft_isa::codec::encode(Instruction::Nop).unwrap();
        // (what, address, ops after recompiling). The word at 0x20C is
        // zero: it does not decode, and every recompiled trace that
        // reaches it ends before it.
        for (what, pa, len) in [
            ("the entry word", 0x100, 1),
            ("a template op", 0x204, 4),
            // A store over an assist op's word recompiles like any
            // other: the nop in the rfi's place is one more op, and the
            // trace runs on to the word that does not decode.
            ("the assist op that ended the trace", 0x208, 4),
        ] {
            let mut mem = mem_with(src);
            let mut cache = JitCache::default();
            let mut stats = ExecStats::default();
            assert!(matches!(
                heat_up(&mut cache, 0x100, &mem, &mut stats),
                Lookup::Compiled(_)
            ));
            mem.write_u32(pa, nop).unwrap();
            match cache.probe(0x100, &cpu_at(0x100), &mem, &mut stats) {
                Lookup::Compiled(idx) => assert_eq!(cache.get(idx).len(), len, "{what}"),
                Lookup::Cold => panic!("{what}: hot address must recompile"),
            }
            assert_eq!(stats.jit_invalidations, 1, "{what}");
        }
        // A byte store to the last byte of the last decoded word — the
        // rfi's: a trace's final op is registered like the others.
        let mut mem = mem_with(src);
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        let _ = heat_up(&mut cache, 0x100, &mem, &mut stats);
        mem.write_u8(0x20C, 0xFF).unwrap();
        let _ = cache.probe(0x100, &cpu_at(0x100), &mem, &mut stats);
        assert_eq!(stats.jit_invalidations, 0, "0x20C was never decoded");
        mem.write_u8(0x20B, 0xFF).unwrap();
        let _ = cache.probe(0x100, &cpu_at(0x100), &mem, &mut stats);
        assert_eq!(stats.jit_invalidations, 1);
    }

    #[test]
    fn a_marker_answers_from_the_front_table_until_its_word_changes() {
        // A word that does not decode: its address never compiles.
        let mut mem = mem_with(".org 0x100\ns: .word 0\n jal r0, s");
        let mut cache = JitCache::default();
        let mut stats = ExecStats::default();
        assert!(matches!(
            heat_up(&mut cache, 0x100, &mem, &mut stats),
            Lookup::Cold
        ));
        let cpu = cpu_at(0x100);
        assert!(
            matches!(
                cache.front_hit(0x100, 0x100, &cpu, &mem),
                Some(Lookup::Cold)
            ),
            "the marker must sit on the front table"
        );
        assert_eq!(cache.peek(0x100, &cpu, &mem), None, "chaining stops at it");
        // Data beside it changes nothing…
        mem.write_u32(0x0FC, 1).unwrap();
        mem.write_u32(0x400, 1).unwrap();
        assert!(matches!(
            cache.front_hit(0x100, 0x100, &cpu, &mem),
            Some(Lookup::Cold)
        ));
        // …but once the word itself is overwritten the marker is stale,
        // and the (known-hot) address compiles.
        let nop = hvft_isa::codec::encode(Instruction::Nop).unwrap();
        mem.write_u32(0x100, nop).unwrap();
        assert!(cache.front_hit(0x100, 0x100, &cpu, &mem).is_none());
        match cache.probe(0x100, &cpu, &mem, &mut stats) {
            Lookup::Compiled(idx) => assert_eq!(cache.get(idx).len(), 2),
            Lookup::Cold => panic!("the patched address compiles"),
        }
        assert_eq!(
            (stats.superblocks_compiled, stats.jit_invalidations),
            (1, 1)
        );
    }

    /// A CPU on `tier` with `src` loaded, at privilege 0.
    fn cpu_on(tier: ExecTier, src: &str) -> (Cpu, Memory) {
        let mut cpu = cpu_at(0);
        cpu.set_exec_tier(tier);
        (cpu, mem_with(src))
    }

    #[test]
    fn a_trace_entered_mid_body_of_a_jump_closed_loop_iterates_in_frame() {
        // The guest kernel's disk wait: closed by an unconditional
        // jump, which compilation follows, with `ssm`/`rsm` inside.
        // Entered at the `beq` — where an interrupt returns to — the
        // trace wraps around and ends one op short of its own entry.
        let src = "retry: sw   r0, 0x400(r0)
                    ssm  1
            wait:   lw   r28, 0x400(r0)
                    beq  r28, r0, wait
                    rsm  1
                    addi r29, r29, 1
                    jal  r0, retry";
        const BEQ: u32 = 12;
        let sb = compile_at(BEQ, &mem_with(src)).expect("superblock");
        assert_eq!(sb.len(), 7, "beq rsm addi jal sw ssm lw");
        assert_eq!(sb.wrap, 0, "falling off the lw continues at the beq");
        assert_eq!(sb.ops[0].target, 6, "the beq is wired to the lw");

        let (mut cpu, mut mem) = cpu_on(ExecTier::Jit, src);
        // Heat the entry (and, as a side effect, the `lw` before it).
        for _ in 0..2 * PROMOTE_THRESHOLD {
            cpu.pc = BEQ;
            assert_eq!(cpu.run(&mut mem, 2), Exit::Retired);
        }
        cpu.pc = BEQ;
        let before = cpu.exec_stats();
        assert_eq!(cpu.run(&mut mem, 10_000), Exit::Retired);
        let after = cpu.exec_stats();
        assert_eq!(after.jit_retired - before.jit_retired, 10_000);
        assert_eq!(
            (
                after.dispatches - before.dispatches,
                after.chain_hops - before.chain_hops
            ),
            (1, 0),
            "5 000 spin iterations, one frame, no hop"
        );
        assert_eq!(cpu.reg(Reg::of(29)), 0, "the wait never fell through");
    }

    /// `(len, loads)` of the spin at op `at` of the trace compiled at
    /// `entry` from `src`, or `None` if that op is no spin.
    fn spin_at(src: &str, entry: u32, at: usize) -> Option<(u32, u32)> {
        let sb = compile_at(entry, &mem_with(src)).expect("superblock");
        let op = sb.ops[at];
        matches!(op.kind, Kind::Spin).then(|| (op.imm as u32 & 0xFFFF, op.imm as u32 >> 16))
    }

    #[test]
    fn a_branch_that_closes_a_poll_loop_compiles_as_a_spin() {
        // The kernel's wait, entered at its load or — wrapping around —
        // at its branch; a branch to itself; a body that derives what
        // the branch reads, from memory and from registers it never
        // writes.
        let wait = "k: lw r28, 0x400(r0)\n beq r28, r0, k\n jal r0, k";
        assert_eq!(spin_at(wait, 0, 1), Some((2, 1)));
        let src = "retry: sw r0, 0x400(r0)\n ssm 1\n wait: lw r28, 0x400(r0)\n \
                   beq r28, r0, wait\n rsm 1\n jal r0, retry";
        assert_eq!(spin_at(src, 12, 0), Some((2, 1)), "entered at the beq");
        assert_eq!(spin_at("s: bne r4, r5, s\n halt", 0, 0), Some((1, 0)));
        let derived = "k: lw r6, 0(r27)\n lbu r7, 4(r27)\n nop\n lui r9, 3\n \
                       andi r8, r6, 7\n add r8, r8, r7\n sltu r8, r8, r5\n bne r8, r0, k\n halt";
        assert_eq!(spin_at(derived, 0, 7), Some((8, 2)));
        // Near misses: the branch stays a branch.
        for (what, src) in [
            (
                "a carried register",
                "k: lw r6, 0(r27)\n addi r5, r5, 1\n beq r6, r0, k\n halt",
            ),
            (
                "a store",
                "k: lw r6, 0(r27)\n sw r6, 8(r27)\n beq r6, r0, k\n halt",
            ),
            (
                "a load base written",
                "k: lw r6, 0(r27)\n addi r27, r4, 0\n beq r6, r0, k\n halt",
            ),
            (
                "the last load decides",
                "k: addi r7, r6, 0\n lw r6, 0(r27)\n beq r7, r0, k\n halt",
            ),
            (
                "an assist op",
                "k: lw r6, 0(r27)\n ssm 1\n beq r6, r0, k\n halt",
            ),
            (
                "a register move",
                "k: mfctl r6, scratch0\n beq r6, r0, k\n halt",
            ),
            ("a probe", "k: probe r6, r27\n beq r6, r0, k\n halt"),
            (
                "a transfer",
                "k: lw r6, 0(r27)\n jal ra, k2\n k2: beq r6, r0, k\n halt",
            ),
        ] {
            let sb = compile_at(0, &mem_with(src)).expect("superblock");
            assert!(
                sb.ops.iter().all(|op| !matches!(op.kind, Kind::Spin)),
                "{what}"
            );
        }
        // A branch out of the span closes nothing the trace holds.
        assert_eq!(spin_at("s: lw r6, 0(r27)\n beq r6, r0, 4096", 0, 1), None);
    }

    #[test]
    fn an_assist_op_that_flips_translation_leaves_through_chain() {
        // With translation on, virtual page 0 is physical page 1, which
        // holds different code at the same offsets: after the `ssm 2`
        // the next instruction is page 1's `addi r6`, not the
        // `addi r5` compiled behind the `ssm` in the page-0 trace.
        let src = ".org 0
            s:  addi r4, r4, 1
                ssm  2
                addi r5, r5, 1      ; never fetched
                nop
                jal  r0, s
            .org 4096 + 8
                addi r6, r6, 1
                rsm  2";
        let sb = compile_at(0, &mem_with(src)).expect("superblock");
        assert_eq!(sb.len(), 5, "the ssm does not end the page-0 trace");
        let run = |tier| {
            let (mut cpu, mut mem) = cpu_on(tier, src);
            cpu.tlb.insert_pte(0, PAGE_SIZE | pte::V | pte::R | pte::X);
            assert_eq!(cpu.run(&mut mem, 2_000), Exit::Retired);
            let regs = [4, 5, 6].map(|r| cpu.reg(Reg::of(r)));
            (regs, cpu.pc, cpu.psw, cpu.exec_stats())
        };
        let (regs, pc, psw, stats) = run(ExecTier::Jit);
        let (regs_s, pc_s, psw_s, _) = run(ExecTier::Step);
        assert_eq!((regs, pc, psw), (regs_s, pc_s, psw_s));
        assert_eq!(regs, [400, 0, 400]);
        assert!(
            stats.jit_retired > 1_500,
            "the loop ran compiled: {stats:?}"
        );
        // Both flips of every compiled pass leave their trace through
        // `chain!`, where the new PC is translated afresh.
        assert!(stats.chain_hops > 600, "{stats:?}");
    }
}
