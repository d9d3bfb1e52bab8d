//! Differential tests: the two execution tiers against each other.
//!
//! `Cpu::run` under both [`ExecTier`]s — the single-step reference
//! interpreter and the threaded-code superblock jit (which steps that
//! same interpreter wherever it has compiled nothing) — must be
//! **observably identical**: same retired
//! counts, same machine-state hashes, same trap sequences at the same
//! instruction-stream points, same console bytes. This file proves it
//! these ways:
//!
//! - **bare differential**: every guest workload runs to completion on
//!   two [`BareHost`]s, one per tier, compared chunk by chunk;
//! - **hypervised differential**: the same workloads run under the full
//!   replicated [`FtSystem`] once per tier (including across a
//!   failover), and the entire observable outcome (checksums, epoch
//!   counts, simulated times, console, disk log) must match — this
//!   exercises privileged simulation, trap reflection, TLB management
//!   and epoch delimitation over the batching engine;
//! - **registry sweep**: every registered workload runs bare under both
//!   tiers with bit-identical exit codes and console streams;
//! - **instruction-soup proptest**: randomized code (valid, privileged,
//!   trapping and garbage words mixed) driven through both tiers with
//!   traps delivered bare-metal style, comparing the full event
//!   sequence and final state hash;
//! - **hot loops**: the soup's privileged words are cold and never
//!   compile, so one weighted grammar generates *hot* loops that put
//!   everything a trace must survive inside compiled traces, together:
//!   control-register, PSW and interrupt-mask writes, TLB purges and
//!   inserts of pages in use, `rfi` to user or kernel, the exits a trace
//!   serves itself (`gate`, `brk`, `mftod`, `mtit`, `diag`, `idle`),
//!   word and byte accesses over three data pages (two sharing a slot of
//!   the jit's data-page map), misaligned and I/O-window accesses, stores
//!   beside and — once — over decoded code, and calls whose callees
//!   return home, clobber `ra`, return elsewhere, misaligned or into
//!   another page, or recurse. Each runs at privilege 0 through
//!   `Cpu::run`, and at privilege 1 under a miniature hypervisor, once
//!   around `Cpu::run` and once as the hook of `Cpu::run_with`, in random
//!   budget chunks, with a snapshot and restore between two of them and
//!   an embedder that may meddle from inside the frame: cut runs short,
//!   surface exits unserved, raise interrupts, rewrite the running loop.
//!   Three entry points each put a floor under one family of items;
//! - **hypervised pauses**: one guest under `HvGuest` in one budget and
//!   in seed-drawn slices, on every tier: every pause agrees on the
//!   event, the consumed time and its split, `nsim`, the reflections,
//!   the retirement count and the state hash.
//!
//! Self-modifying code gets its own section: a guest that patches code
//! the jit has already compiled — on every pass, or once mid-hot-loop —
//! must behave exactly like the interpreter.

mod common;

use common::same_vm_state;
use hvft::guest::layout::RAM_BYTES;
use hvft::guest::{
    build_image, dhrystone_source, hello_source, io_bench_source, mixed_source, IoMode,
    KernelConfig,
};
use hvft::hypervisor::bare::{BareExit, BareHost};
use hvft::hypervisor::cost::CostModel;
use hvft::hypervisor::hvguest::{HvConfig, HvEvent, HvGuest};
use hvft::isa::codec::{decode, encode};
use hvft::isa::instruction::{AluImmOp, AluOp, BranchCond, Instruction, MemWidth};
use hvft::isa::reg::{ControlReg, Reg};
use hvft::machine::cpu::{Assist, Cpu, EnvOp, Exit, Resume};
use hvft::machine::exec::{ExecStats, ExecTier};
use hvft::machine::mem::{Memory, PAGE_SIZE};
use hvft::machine::psw::Psw;
use hvft::machine::tlb::{pte, TlbReplacement};
use hvft::machine::trap::{irq, Trap};
use hvft_core::scenario::{RunReport, Scenario, ScenarioBuilder};
use hvft_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Bare differential: chunked lockstep over complete workloads
// ---------------------------------------------------------------------

fn assert_bare_equivalent(
    name: &str,
    user: &str,
    kcfg: &KernelConfig,
    prep: impl Fn(&mut BareHost),
) {
    let image = build_image(kcfg, user).expect("image builds");
    let mk = |tier: ExecTier| {
        let mut h = BareHost::new(&image, CostModel::hp9000_720(), RAM_BYTES, 32, 7);
        h.set_exec_tier(tier);
        prep(&mut h);
        h
    };
    let mut stepped = mk(ExecTier::Step);
    let mut jitted = mk(ExecTier::Jit);
    // Compare at chunk boundaries so a divergence is localized to
    // within `chunk` instructions of where it first occurred.
    let chunk = 10_000u64;
    let cap = 500_000_000u64;
    let mut limit = 0u64;
    loop {
        limit += chunk;
        let rb = stepped.run(limit);
        let ra = jitted.run(limit);
        assert_eq!(ra.exit, rb.exit, "{name}: exits diverged at limit {limit}");
        assert_eq!(
            ra.retired, rb.retired,
            "{name}: retired counts diverged at limit {limit}"
        );
        assert_eq!(ra.diags, rb.diags, "{name}: diag streams diverged");
        assert_eq!(
            ra.time, rb.time,
            "{name}: simulated time diverged at limit {limit}"
        );
        assert_eq!(
            same_vm_state((&jitted.cpu, &jitted.mem), (&stepped.cpu, &stepped.mem)),
            Ok(()),
            "{name}: state hashes diverged at {} retired",
            ra.retired
        );
        assert_eq!(
            jitted.console.output_string(),
            stepped.console.output_string(),
            "{name}: console bytes diverged"
        );
        if rb.exit != BareExit::InstructionLimit {
            break;
        }
        assert!(limit < cap, "{name}: no exit before {cap} instructions");
    }
}

#[test]
fn bare_dhrystone_with_syscalls_is_engine_invariant() {
    let kcfg = KernelConfig {
        tick_period_us: 200,
        tick_work: 2,
        ..KernelConfig::default()
    };
    assert_bare_equivalent("dhrystone", &dhrystone_source(400, 7), &kcfg, |_| {});
}

#[test]
fn bare_hello_is_engine_invariant() {
    let kcfg = KernelConfig {
        tick_period_us: 1000,
        tick_work: 0,
        ..KernelConfig::default()
    };
    assert_bare_equivalent("hello", &hello_source("jit vs step\n", 2), &kcfg, |_| {});
}

#[test]
fn bare_io_write_is_engine_invariant() {
    assert_bare_equivalent(
        "io-write",
        &io_bench_source(4, IoMode::Write, 16, 9),
        &KernelConfig::default(),
        |_| {},
    );
}

#[test]
fn bare_io_read_is_engine_invariant() {
    let pattern: Vec<u8> = (0..hvft::devices::disk::BLOCK_SIZE)
        .map(|i| (i % 251) as u8)
        .collect();
    assert_bare_equivalent(
        "io-read",
        &io_bench_source(3, IoMode::Read, 16, 5),
        &KernelConfig::default(),
        |h| {
            for b in 0..16 {
                h.disk.poke_block(b, &pattern);
            }
        },
    );
}

#[test]
fn bare_mixed_is_engine_invariant() {
    assert_bare_equivalent(
        "mixed",
        &mixed_source(3, IoMode::Write, 16, 11, 50),
        &KernelConfig::default(),
        |_| {},
    );
}

// ---------------------------------------------------------------------
// Self-modifying guest code (the riskiest code-cache path)
// ---------------------------------------------------------------------

/// Runs `guest`, which loads the word at 512 and stores it over one of
/// its `addi r20, r20, …`, bare to its `halt` on both tiers with that
/// word an `addi r20, r20, 100`; checks that the tiers agree and returns
/// the jit's host.
fn run_patching_guest(guest: &str) -> BareHost {
    let patched = encode(Instruction::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::of(20),
        rs1: Reg::of(20),
        imm: 100,
    })
    .unwrap();
    let image = hvft::isa::asm::assemble(guest).expect("asm");
    let run = |tier: ExecTier| {
        let mut host = BareHost::new(&image, CostModel::hp9000_720(), RAM_BYTES, 16, 0);
        host.set_exec_tier(tier);
        host.mem.write_u32(512, patched).unwrap();
        let r = host.run(100_000);
        (r, host)
    };
    let (rs, host_s) = run(ExecTier::Step);
    let (rj, host_j) = run(ExecTier::Jit);
    assert!(matches!(rj.exit, BareExit::Halted { .. }), "{:?}", rj.exit);
    assert_eq!((rj.exit, rj.retired), (rs.exit, rs.retired));
    assert_eq!(
        same_vm_state((&host_j.cpu, &host_j.mem), (&host_s.cpu, &host_s.mem)),
        Ok(()),
        "patched code must replay exactly like the interpreter"
    );
    host_j
}

/// A bare-metal guest that executes a code sequence, then patches one
/// of its instructions *after it was executed*, and runs it again:
/// iteration 1 executes `addi r20, r20, 1`, every later iteration must
/// execute the patched `addi r20, r20, 100`. The store repeats on every
/// pass, so once the routine is hot each pass writes into the trace
/// compiled from it.
const SMC_GUEST: &str = ".org 0
start:
    addi r22, r0, 40         ; loop counter
    lw   r21, 512(r0)        ; replacement word (poked by the test)
outer:
    jal  ra, patchable
    ; after every pass, overwrite the instruction at `slot`
    sw   r21, 48(r0)
    addi r22, r22, -1
    bne  r22, r0, outer
    halt

    .org 48
patchable:
slot:
    addi r20, r20, 1         ; becomes: addi r20, r20, 100
    jalr r0, ra, 0
";

#[test]
fn self_modifying_guest_invalidates_the_code_cache() {
    let host_a = run_patching_guest(SMC_GUEST);
    // 40 passes: 1 original (+1), 39 patched (+100 each).
    assert_eq!(host_a.cpu.reg(Reg::of(20)), 1 + 39 * 100);
    let x = host_a.exec_stats();
    assert!(
        x.jit_invalidations >= 1,
        "patching a compiled trace must invalidate it: {x:?}"
    );
}

/// Like [`SMC_GUEST`], but hot: the patchable routine is called 60
/// times, far past the jit's promotion threshold, and the patch lands
/// mid-run (when the counter reaches 30) — so it overwrites code inside
/// a *compiled superblock* exactly once.
const SMC_HOT_GUEST: &str = ".org 0
start:
    addi r22, r0, 60         ; loop counter
    lw   r21, 512(r0)        ; replacement word (poked by the test)
outer:
    jal  ra, patchable
    addi r23, r22, -30
    bne  r23, r0, nopatch
    sw   r21, 48(r0)         ; patch `slot` once, mid-hot-loop
nopatch:
    addi r22, r22, -1
    bne  r22, r0, outer
    halt

    .org 48
patchable:
slot:
    addi r20, r20, 1         ; becomes: addi r20, r20, 100
    jalr r0, ra, 0
";

#[test]
fn patching_a_compiled_superblock_invalidates_and_recompiles() {
    let host_j = run_patching_guest(SMC_HOT_GUEST);
    // Calls with r22 = 60..=30 add 1 (31 calls); r22 = 29..=1 add 100.
    assert_eq!(host_j.cpu.reg(Reg::of(20)), 31 + 29 * 100);
    let x = host_j.exec_stats();
    assert!(
        x.superblocks_compiled >= 2,
        "the patched routine must be compiled, invalidated and \
         recompiled: {x:?}"
    );
    assert!(
        x.jit_invalidations >= 1,
        "the mid-loop patch must invalidate a compiled superblock: {x:?}"
    );
    assert!(x.jit_retired > 0, "the hot loop must run compiled: {x:?}");
}

/// A hot loop whose callee sits at the end of page 0 and `jal`s into
/// page 1, so the compiled superblock spans both pages. Mid-hot-loop
/// the guest patches an instruction on the *second* page — the entry
/// page's write generation never changes, so only per-constituent-page
/// validation can catch the staleness.
const SMC_CROSS_PAGE_GUEST: &str = ".org 0
start:
    addi r22, r0, 60         ; loop counter
    lw   r21, 512(r0)        ; replacement word (poked by the test)
outer:
    jal  ra, crosser
    addi r23, r22, -30
    bne  r23, r0, nopatch
    sw   r21, 4096(r0)       ; patch `slot` on the trace's SECOND page
nopatch:
    addi r22, r22, -1
    bne  r22, r0, outer
    halt

    .org 4088
crosser:
    addi r20, r20, 1
    jal  r0, tail            ; crosses into page 1 mid-trace

    .org 4096
tail:
slot:
    addi r20, r20, 2         ; becomes: addi r20, r20, 100
    jalr r0, ra, 0
";

#[test]
fn patching_the_second_page_of_a_cross_page_superblock_invalidates_it() {
    let host_j = run_patching_guest(SMC_CROSS_PAGE_GUEST);
    // Calls with r22 = 60..=30 add 1+2 (31 calls); r22 = 29..=1 add 1+100.
    assert_eq!(host_j.cpu.reg(Reg::of(20)), 31 * 3 + 29 * 101);
    let x = host_j.exec_stats();
    assert!(
        x.cross_page_superblocks >= 1,
        "the crosser must compile into a cross-page trace: {x:?}"
    );
    assert!(
        x.jit_invalidations_secondary >= 1,
        "the patch leaves the entry page intact, so the invalidation \
         must be attributed to a secondary page: {x:?}"
    );
    assert!(x.jit_retired > 0, "the hot loop must run compiled: {x:?}");
}

/// Like [`SMC_CROSS_PAGE_GUEST`], but the patching store executes from
/// *inside* the cross-page trace itself (it sits on the second page,
/// four bytes before the instruction it overwrites), so the store
/// helper must notice the trace it is running in went stale and abandon
/// the compiled tail with the PC advanced past the store.
const SMC_CROSS_PAGE_SELF_GUEST: &str = ".org 0
start:
    addi r22, r0, 60         ; loop counter
    lw   r21, 512(r0)        ; replacement word (poked by the test)
outer:
    addi r24, r22, -30       ; r24 == 0 exactly once, mid-hot-loop
    jal  ra, crosser
    addi r22, r22, -1
    bne  r22, r0, outer
    halt

    .org 4088
crosser:
    addi r20, r20, 1
    jal  r0, tail            ; crosses into page 1 mid-trace

    .org 4096
tail:
    bne  r24, r0, skip
    sw   r21, 4104(r0)       ; patch `slot` from INSIDE the trace
skip:
slot:
    addi r20, r20, 2         ; becomes: addi r20, r20, 100
    jalr r0, ra, 0
";

#[test]
fn a_store_from_inside_a_cross_page_superblock_kills_its_own_trace() {
    let host_j = run_patching_guest(SMC_CROSS_PAGE_SELF_GUEST);
    // r22 = 60..=31: +3 each; r22 = 30 patches then runs the patched
    // slot (+101); r22 = 29..=1: +101 each.
    assert_eq!(host_j.cpu.reg(Reg::of(20)), 30 * 3 + 30 * 101);
    let x = host_j.exec_stats();
    assert!(
        x.cross_page_superblocks >= 1,
        "the crosser must compile into a cross-page trace: {x:?}"
    );
    assert!(
        x.jit_invalidations >= 1,
        "the in-trace patch must invalidate the superblock: {x:?}"
    );
    assert!(x.jit_retired > 0, "the hot loop must run compiled: {x:?}");
}

/// Two traces on two pages that end in a branch to each other, so each
/// turn hops A → B → A inside one frame, by their links once those are
/// recorded. Mid-hot-loop A patches B's first instruction and then
/// hops to it: A's own pages are intact, so nothing A checks about
/// *itself* tells — only a hop that knows decoded bytes moved somewhere
/// looks B up again instead of following the link into the stale trace.
const SMC_FOREIGN_TRACE_GUEST: &str = ".org 0
start:
    addi r22, r0, 60         ; loop counter
    lw   r21, 512(r0)        ; replacement word (poked by the test)
a:
    addi r24, r22, -30       ; r24 == 0 exactly once, mid-hot-loop
    bne  r24, r0, nopatch
    sw   r21, 4096(r0)       ; patch trace B's `slot`, from trace A
nopatch:
    beq  r0, r0, b           ; out of A's span: a hop
    halt                     ; never reached: ends A's trace

    .org 4096
b:
slot:
    addi r20, r20, 1         ; becomes: addi r20, r20, 100
    addi r22, r22, -1
    beq  r22, r0, done
    beq  r0, r0, a           ; out of B's span: the hop back
done:
    halt
";

#[test]
fn a_store_into_another_traces_page_is_seen_by_the_hop_that_follows() {
    let host_j = run_patching_guest(SMC_FOREIGN_TRACE_GUEST);
    // r22 = 60..=31 add 1 (30 turns); r22 = 30 patches first, then it
    // and 29..=1 add 100 (30 turns).
    assert_eq!(host_j.cpu.reg(Reg::of(20)), 30 + 30 * 100);
    let x = host_j.exec_stats();
    assert!(
        x.link_hits >= 60,
        "both hops of most turns must have gone by their links: {x:?}"
    );
    assert!(
        x.jit_invalidations >= 1,
        "the patch must invalidate trace B: {x:?}"
    );
}

// ---------------------------------------------------------------------
// Hypervised differential: the whole replicated system, once per tier
// ---------------------------------------------------------------------

fn ft_outcome(
    image: &hvft::isa::program::Program,
    base: &dyn Fn() -> ScenarioBuilder,
    tier: ExecTier,
) -> RunReport {
    base()
        .image(image.clone())
        .functional_cost()
        .exec_tier(tier)
        .build()
        .expect("differential scenario is valid")
        .run()
}

fn assert_ft_equivalent(
    name: &str,
    user: &str,
    kcfg: &KernelConfig,
    base: &dyn Fn() -> ScenarioBuilder,
) {
    let image = build_image(kcfg, user).expect("image builds");
    let b = ft_outcome(&image, base, ExecTier::Step);
    assert!(b.lockstep_clean, "{name}: step run diverged");
    let tier = ExecTier::Jit;
    let a = ft_outcome(&image, base, tier);
    assert_eq!(a.exit, b.exit, "{name}/{tier}: outcomes diverged");
    assert_eq!(
        a.completion_time, b.completion_time,
        "{name}/{tier}: completion times diverged"
    );
    assert_eq!(a.console, b.console, "{name}/{tier}: console bytes");
    assert_eq!(
        a.console_hosts, b.console_hosts,
        "{name}/{tier}: console hosts"
    );
    assert_eq!(a.disk_log, b.disk_log, "{name}/{tier}: disk logs diverged");
    assert_eq!(a.guest_retries, b.guest_retries, "{name}/{tier}: retries");
    assert_eq!(
        a.messages_per_replica, b.messages_per_replica,
        "{name}/{tier}: message counts diverged"
    );
    assert_eq!(
        a.failovers, b.failovers,
        "{name}/{tier}: failover schedules diverged"
    );
    assert!(a.lockstep_clean, "{name}/{tier}: run diverged");
    assert_eq!(
        a.lockstep_compared, b.lockstep_compared,
        "{name}/{tier}: lockstep comparison counts diverged"
    );
    // Same number of epochs, simulated instructions, reflections and
    // interrupt deliveries on every replica.
    let stats = |r: &RunReport| {
        r.replica_stats
            .iter()
            .map(|s| (s.epochs, s.simulated, s.reflected, s.mmio, s.irqs_delivered))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        stats(&a),
        stats(&b),
        "{name}/{tier}: hypervisor stats diverged"
    );
}

#[test]
fn ft_dhrystone_is_engine_invariant() {
    let kcfg = KernelConfig {
        tick_period_us: 2000,
        tick_work: 2,
        ..KernelConfig::default()
    };
    assert_ft_equivalent(
        "ft-dhrystone",
        &dhrystone_source(800, 7),
        &kcfg,
        &Scenario::builder,
    );
}

#[test]
fn ft_io_write_is_engine_invariant() {
    assert_ft_equivalent(
        "ft-io-write",
        &io_bench_source(3, IoMode::Write, 16, 13),
        &KernelConfig::default(),
        &Scenario::builder,
    );
}

#[test]
fn ft_hello_is_engine_invariant() {
    let kcfg = KernelConfig {
        tick_period_us: 500,
        tick_work: 1,
        ..KernelConfig::default()
    };
    assert_ft_equivalent(
        "ft-hello",
        &hello_source("ft hello\n", 1),
        &kcfg,
        &Scenario::builder,
    );
}

#[test]
fn ft_mixed_is_engine_invariant() {
    assert_ft_equivalent(
        "ft-mixed",
        &mixed_source(2, IoMode::Write, 16, 3, 80),
        &KernelConfig::default(),
        &Scenario::builder,
    );
}

#[test]
fn ft_failover_is_engine_invariant() {
    // A failover mid-run (promotion, P7 bookkeeping, detector re-arm)
    // must land on exactly the same epoch under both engines.
    let kcfg = KernelConfig {
        tick_period_us: 2000,
        tick_work: 2,
        ..KernelConfig::default()
    };
    assert_ft_equivalent("ft-failover", &dhrystone_source(1_500, 9), &kcfg, &|| {
        Scenario::builder().fail_primary_at(SimTime::from_nanos(800_000))
    });
}

// ---------------------------------------------------------------------
// Registry sweep: every built-in workload under every tier
// ---------------------------------------------------------------------

#[test]
fn every_registry_workload_is_tier_invariant() {
    for name in hvft::guest::workload::names() {
        let run = |tier: ExecTier| {
            Scenario::builder()
                .workload_named(&name)
                .bare()
                .exec_tier(tier)
                .build()
                .expect("registry scenario is valid")
                .run()
        };
        let b = run(ExecTier::Step);
        let tier = ExecTier::Jit;
        let a = run(tier);
        assert_eq!(a.exit, b.exit, "{name}/{tier}: exit codes diverged");
        assert_eq!(a.retired, b.retired, "{name}/{tier}: retired diverged");
        assert_eq!(a.console, b.console, "{name}/{tier}: console diverged");
        assert_eq!(
            a.completion_time, b.completion_time,
            "{name}/{tier}: simulated time diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Instruction-soup proptest
// ---------------------------------------------------------------------

/// Deterministically expands one random draw into an instruction word:
/// mostly valid straight-line code, with control transfers, privileged
/// and environment instructions, gates, and raw garbage mixed in.
fn synth_word(r: u64) -> u32 {
    let reg = |n: u64| Reg::of((n % 32) as u8);
    let pick = r % 100;
    let a = r >> 8;
    let insn = if pick < 30 {
        Instruction::Alu {
            op: match a % 13 {
                0 => AluOp::Add,
                1 => AluOp::Sub,
                2 => AluOp::And,
                3 => AluOp::Or,
                4 => AluOp::Xor,
                5 => AluOp::Sll,
                6 => AluOp::Srl,
                7 => AluOp::Sra,
                8 => AluOp::Slt,
                9 => AluOp::Sltu,
                10 => AluOp::Mul,
                11 => AluOp::Divu,
                _ => AluOp::Remu,
            },
            rd: reg(a >> 4),
            rs1: reg(a >> 9),
            rs2: reg(a >> 14),
        }
    } else if pick < 50 {
        Instruction::AluImm {
            op: match a % 8 {
                0 => AluImmOp::Addi,
                1 => AluImmOp::Andi,
                2 => AluImmOp::Ori,
                3 => AluImmOp::Xori,
                4 => AluImmOp::Slti,
                5 => AluImmOp::Slli,
                6 => AluImmOp::Srli,
                _ => AluImmOp::Srai,
            },
            rd: reg(a >> 3),
            rs1: reg(a >> 8),
            imm: if matches!(a % 8, 5..=7) {
                ((a >> 13) % 32) as i32
            } else {
                (((a >> 13) % 4096) as i32) - 2048
            },
        }
    } else if pick < 62 {
        // Loads and stores around the scratch area at 0x2000.
        let width = match a % 3 {
            0 => MemWidth::Word,
            1 => MemWidth::Byte,
            _ => MemWidth::ByteU,
        };
        if a.is_multiple_of(2) {
            Instruction::Load {
                width,
                rd: reg(a >> 4),
                base: Reg::SP,
                disp: ((a >> 9) % 512) as i32 * 4 - 1024,
            }
        } else {
            Instruction::Store {
                width: if width == MemWidth::ByteU {
                    MemWidth::Byte
                } else {
                    width
                },
                rs: reg(a >> 4),
                base: Reg::SP,
                disp: ((a >> 9) % 512) as i32 * 4 - 1024,
            }
        }
    } else if pick < 72 {
        Instruction::Branch {
            cond: match a % 6 {
                0 => BranchCond::Eq,
                1 => BranchCond::Ne,
                2 => BranchCond::Lt,
                3 => BranchCond::Ge,
                4 => BranchCond::Ltu,
                _ => BranchCond::Geu,
            },
            rs1: reg(a >> 3),
            rs2: reg(a >> 8),
            offset: (((a >> 13) % 16) as i32 - 8) * 4,
        }
    } else if pick < 77 {
        Instruction::Jal {
            rd: reg(a),
            offset: (((a >> 6) % 16) as i32 - 8) * 4,
        }
    } else if pick < 80 {
        Instruction::Jalr {
            rd: reg(a),
            base: reg(a >> 5),
            disp: ((a >> 10) % 64) as i32 * 4,
        }
    } else if pick < 84 {
        Instruction::Gate {
            imm: (a % 16) as u32,
        }
    } else if pick < 86 {
        Instruction::Brk {
            imm: (a % 8) as u32,
        }
    } else if pick < 88 {
        Instruction::Probe {
            rd: reg(a),
            rs: reg(a >> 5),
        }
    } else if pick < 96 {
        // Privileged / environment instructions: above privilege 0
        // these all trap; the engines must agree on where.
        match a % 8 {
            0 => Instruction::MfCtl {
                rd: reg(a >> 3),
                cr: hvft::isa::reg::ControlReg::Scratch0,
            },
            1 => Instruction::MtCtl {
                cr: hvft::isa::reg::ControlReg::Scratch1,
                rs: reg(a >> 3),
            },
            2 => Instruction::Ssm {
                imm: ((a >> 3) % 4) as u32,
            },
            3 => Instruction::Rsm {
                imm: ((a >> 3) % 4) as u32,
            },
            4 => Instruction::Tlbp { rs: reg(a >> 3) },
            5 => Instruction::MfTod { rd: reg(a >> 3) },
            6 => Instruction::Idle,
            _ => Instruction::Nop,
        }
    } else if pick < 98 {
        Instruction::Nop
    } else {
        // Raw garbage: undecodable with high probability.
        return (a as u32) | 0xFF00_0000;
    };
    encode(insn).unwrap_or(0)
}

/// Drives one engine until `max_retired` instructions retired or
/// `max_events` non-retired exits, delivering traps the way bare
/// hardware would and logging every event. `use_run = false` bypasses
/// [`Cpu::run`] entirely and single-steps by hand — the most primitive
/// reference there is.
fn drive(
    cpu: &mut Cpu,
    mem: &mut Memory,
    use_run: bool,
    max_retired: u64,
    max_events: u32,
) -> Vec<String> {
    let mut log = Vec::new();
    let mut events = 0u32;
    while cpu.retired() < max_retired && events < max_events {
        let exit = if use_run {
            cpu.run(mem, max_retired - cpu.retired())
        } else {
            cpu.step(mem)
        };
        match exit {
            Exit::Retired => {}
            Exit::Trap(t) => {
                log.push(format!("{t:?} pc={:#x} n={}", cpu.pc, cpu.retired()));
                events += 1;
                cpu.deliver_trap(t);
            }
            other => {
                log.push(format!("{other:?} pc={:#x} n={}", cpu.pc, cpu.retired()));
                break;
            }
        }
    }
    log
}

/// Runs the machine `build` makes to `max_retired` instructions (or 400
/// events), single-stepped by hand and through [`Cpu::run`] on each
/// tier: every run must log the same events and end in the same state.
/// Returns the reference's log and each tier's counters.
fn soup_replays(
    build: impl Fn() -> (Cpu, Memory),
    max_retired: u64,
) -> Result<(Vec<String>, [ExecStats; 2]), TestCaseError> {
    let (mut cpu_b, mut mem_b) = build();
    let log_b = drive(&mut cpu_b, &mut mem_b, false, max_retired, 400);
    let mut stats = [ExecStats::default(); 2];
    for (tier, x) in [ExecTier::Step, ExecTier::Jit].into_iter().zip(&mut stats) {
        let (mut cpu_a, mut mem_a) = build();
        cpu_a.set_exec_tier(tier);
        let log_a = drive(&mut cpu_a, &mut mem_a, true, max_retired, 400);
        prop_assert_eq!(&log_a, &log_b, "event sequences diverged ({})", tier);
        prop_assert_eq!(
            (cpu_a.retired(), cpu_a.pc),
            (cpu_b.retired(), cpu_b.pc),
            "{}",
            tier
        );
        let state = same_vm_state((&cpu_a, &mem_a), (&cpu_b, &mem_b));
        prop_assert_eq!(state, Ok(()), "final states diverged ({})", tier);
        *x = cpu_a.exec_stats();
    }
    Ok((log_b, stats))
}

/// A machine with `image` loaded and `words` — `(address, value)` —
/// stored over it.
fn loaded(image: &hvft::isa::program::Program, words: [(u32, u32); 3]) -> (Cpu, Memory) {
    let mut mem = Memory::new(64 * 1024);
    for seg in &image.segments {
        mem.write_bytes(seg.base, &seg.data);
    }
    for (at, word) in words {
        mem.write_u32(at, word).unwrap();
    }
    (Cpu::new(16, TlbReplacement::RoundRobin, 0), mem)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_code_runs_identically_on_both_engines(
        seeds in prop::collection::vec(any::<u64>(), 48),
        cpl in 0u8..4,
        user_code in any::<bool>(),
    ) {
        let build = || {
            let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
            let mut mem = Memory::new(64 * 1024);
            for (i, &s) in seeds.iter().enumerate() {
                mem.write_u32(i as u32 * 4, synth_word(s)).unwrap();
            }
            // A halt island after the soup so straight runs terminate.
            for i in seeds.len()..seeds.len() + 16 {
                mem.write_u32(i as u32 * 4, encode(Instruction::Halt).unwrap()).unwrap();
            }
            cpu.psw.cpl = cpl;
            cpu.set_reg(Reg::SP, 0x2000);
            cpu.set_reg(Reg::GP, 0x3000);
            for r in 4..12u8 {
                cpu.set_reg(Reg::of(r), (seeds[r as usize] as u32) % 0x4000);
            }
            if user_code {
                // Exercise translation: identity-map the low pages,
                // user-accessible, via the TLB directly.
                cpu.psw.translation = true;
                for page in 0u32..16 {
                    cpu.tlb.insert_pte(
                        page << 12,
                        (page << 12) | hvft::machine::tlb::pte::V
                            | hvft::machine::tlb::pte::R
                            | hvft::machine::tlb::pte::W
                            | hvft::machine::tlb::pte::X
                            | hvft::machine::tlb::pte::U,
                    );
                }
            }
            (cpu, mem)
        };
        soup_replays(build, 5_000)?;
    }

    #[test]
    fn random_recovery_counter_epochs_are_engine_exact(
        seeds in prop::collection::vec(any::<u64>(), 32),
        epoch_len in 1u32..257,
    ) {
        // The Instruction-Stream Interrupt Assumption, adversarially:
        // with the recovery counter armed, both engines must report the
        // epoch boundary at exactly the same retired count, whatever
        // the code does.
        let build = || {
            let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
            let mut mem = Memory::new(64 * 1024);
            for (i, &s) in seeds.iter().enumerate() {
                mem.write_u32(i as u32 * 4, synth_word(s)).unwrap();
            }
            for i in seeds.len()..seeds.len() + 16 {
                mem.write_u32(i as u32 * 4, encode(Instruction::Jal { rd: Reg::ZERO, offset: -((seeds.len() as i32) * 4) }).unwrap()).unwrap();
            }
            cpu.psw.recovery = true;
            cpu.set_ctl(hvft::isa::reg::ControlReg::Rctr, epoch_len);
            cpu.set_reg(Reg::SP, 0x2000);
            (cpu, mem)
        };
        let (mut cpu_b, mut mem_b) = build();
        let (mut cpu_step, mut mem_step) = build();
        cpu_step.set_exec_tier(ExecTier::Step);
        let (mut cpu_jit, mut mem_jit) = build();
        cpu_jit.set_exec_tier(ExecTier::Jit);
        for _ in 0..4 {
            let log_b = drive(&mut cpu_b, &mut mem_b, false, u64::MAX, 200);
            let log_step = drive(&mut cpu_step, &mut mem_step, true, u64::MAX, 200);
            let log_jit = drive(&mut cpu_jit, &mut mem_jit, true, u64::MAX, 200);
            prop_assert_eq!(&log_step, &log_b, "step");
            prop_assert_eq!(&log_jit, &log_b, "jit");
            prop_assert_eq!(cpu_step.retired(), cpu_b.retired());
            prop_assert_eq!(cpu_jit.retired(), cpu_b.retired());
            // Re-arm and continue (drive stops at the event cap or a
            // non-trap exit; RecoveryCounter traps are delivered like
            // any other and vector to low memory).
            cpu_b.set_ctl(hvft::isa::reg::ControlReg::Rctr, epoch_len);
            cpu_step.set_ctl(hvft::isa::reg::ControlReg::Rctr, epoch_len);
            cpu_jit.set_ctl(hvft::isa::reg::ControlReg::Rctr, epoch_len);
        }
        prop_assert_eq!(
            same_vm_state((&cpu_step, &mem_step), (&cpu_b, &mem_b)),
            Ok(())
        );
        prop_assert_eq!(
            same_vm_state((&cpu_jit, &mem_jit), (&cpu_b, &mem_b)),
            Ok(())
        );
    }

    #[test]
    fn random_stores_into_cross_page_traces_are_engine_exact(
        patch_idx in 0u32..4,
        patch_seed in any::<u64>(),
        patch_at in 20u32..45,
        loops in 50u32..70,
    ) {
        // A hot loop whose trace spans two pages, patched at a random
        // word of the SECOND page with a random replacement (valid,
        // control-transfer, trapping or garbage) at a random point
        // after the trace is hot. Both tiers must report the same
        // event log, retired count and final state, whatever the patch
        // turns the code into.
        let src = format!(
            ".org 0
start:
    addi r22, r0, {loops}
    lw   r21, 512(r0)        ; replacement word
    lw   r25, 516(r0)        ; patch address
    lw   r26, 520(r0)        ; patch countdown
outer:
    jal  ra, crosser
    addi r26, r26, -1
    bne  r26, r0, nopatch
    sw   r21, 0(r25)
nopatch:
    addi r22, r22, -1
    bne  r22, r0, outer
    halt
    .org 4088
crosser:
    addi r20, r20, 1
    jal  r0, tail
    .org 4096
tail:
    addi r20, r20, 2
    xor  r20, r20, r22
    addi r20, r20, 3
    jalr r0, ra, 0
"
        );
        let image = hvft::isa::asm::assemble(&src).expect("asm");
        let words = [(512, synth_word(patch_seed)), (516, 4096 + 4 * patch_idx), (520, patch_at)];
        let (_, [_, jit]) = soup_replays(|| loaded(&image, words), 50_000)?;
        prop_assert!(jit.cross_page_superblocks >= 1, "the hot crosser must fuse across the page: {:?}", jit);
    }

    #[test]
    fn random_stores_into_a_page_of_code_and_data_are_engine_exact(
        target in 0u32..19,
        patch_seed in any::<u64>(),
        patch_at in 20u32..45,
        loops in 50u32..70,
    ) {
        // The guest kernel's layout in miniature: trap vector, code and
        // a data array in ONE page, every pass storing to the data (a
        // handler's save slot among it). Once the loop is hot, one
        // store of a random word (valid, control-transfer, trapping or
        // garbage) goes to a data word, to a code word ahead of the pc
        // in the running trace, to a word of the callee, or to the
        // `gate` that *ended* the callee's trace. Invalidation is
        // judged by the bytes a store overlaps, so the data stores must
        // cost nothing and the code stores must not be missed: both
        // tiers report the same event log, retired count and final
        // state.
        let src = format!(
            ".org 0
start:
    addi r22, r0, {loops}
    lw   r21, 1536(r0)       ; replacement word
    lw   r25, 1540(r0)       ; store address
    lw   r26, 1544(r0)       ; store countdown
    jal  r0, outer
    .org 224                 ; the gate vector (iva = 0)
    sw   r20, 1028(r0)       ; a save slot beside the vectors
    rfi
    .org 256
outer:
    jal  ra, work
    addi r26, r26, -1
    bne  r26, r0, nopatch
    sw   r21, 0(r25)         ; the random store
nopatch:
    sw   r22, 1024(r0)
    lw   r23, 1024(r0)
    add  r20, r20, r23
    addi r22, r22, -1
    bne  r22, r0, outer
    halt
    .org 384
work:
    addi r20, r20, 2
    xor  r20, r20, r22
    gate 1                   ; not compilable: ends the trace
    addi r20, r20, 3
    jalr r0, ra, 0
"
        );
        const NOPATCH: u32 = 272;
        const WORK: u32 = 384;
        let (store_to, is_data) = match target {
            0..=7 => (1024 + 4 * target, true),
            8..=13 => (NOPATCH + 4 * (target - 8), false),
            _ => (WORK + 4 * (target - 14), false),
        };
        let image = hvft::isa::asm::assemble(&src).expect("asm");
        let words = [(1536, synth_word(patch_seed)), (1540, store_to), (1544, patch_at)];
        let (log, stats) = soup_replays(|| loaded(&image, words), 50_000)?;
        prop_assert!(log.len() >= 20, "one gate per pass before the store: {:?}", log);
        prop_assert!(stats[1].jit_retired > 0, "the hot loop must run compiled: {:?}", stats[1]);
        for x in stats.iter().filter(|_| is_data) {
            prop_assert_eq!(x.jit_invalidations, 0, "stores to data beside code must invalidate nothing");
        }
    }
}

// ---------------------------------------------------------------------
// Hot loops: one grammar of assist ops, data accesses, exits and calls
// ---------------------------------------------------------------------

/// Where a generated machine keeps things: 16 pages, identity-mapped
/// with every permission when translation is on — but `D1` without the
/// user bit, and see `SHADOW` and `ALIAS`.
mod lay {
    /// Data in the loop's code page, past its code: stores there land
    /// beside the decoded words, not on them.
    pub const CODE_DATA: u32 = 0xE00;
    /// Replacement words for the once-only patch, among that data.
    pub const PATCHES: u32 = CODE_DATA + 0x100;
    /// The interruption vector table (`iva`).
    pub const VECTORS: u32 = 0x1000;
    /// Code in another page: the island every turn calls, `rfi`
    /// targets, callers a leaf returns into.
    pub const ISLANDS: u32 = 0x2000;
    /// Data in the islands' page, past their code.
    pub const ISLAND_DATA: u32 = ISLANDS + 0x800;
    /// The recursion's stack.
    pub const STACK: u32 = 0x3400;
    /// A copy of the code page whose marker instruction counts in twos:
    /// a `tlbi` can map virtual page 0 here, so *which* page executed
    /// shows in a register.
    pub const SHADOW: u32 = 0x4000;
    pub const D0: u32 = 0x5000;
    /// Mapped without the user bit.
    pub const D1: u32 = 0x6000;
    /// A *virtual* page 64 above `D0`, so the two share a slot of the
    /// jit's 64-slot data-page map, backed by `ALIAS_AT` (or, after a
    /// drawn `tlbi`, `ALIAS_ALT`). With translation off it lies beyond
    /// RAM.
    pub const ALIAS: u32 = D0 + (64 << 12);
    pub const ALIAS_AT: u32 = 0x7000;
    pub const ALIAS_ALT: u32 = 0x8000;
    pub const PAGES: u32 = 16;
}

/// Every permission a page can have.
const FULL: u32 = pte::V | pte::R | pte::W | pte::X | pte::U;

/// Handlers for every vector, each within its 32-byte slot. They use
/// r28/r29 only; r12 counts interrupts, r13 folds gate and break
/// arguments. Faults and privileged ops nobody emulates step over the
/// instruction, the TLB-miss handler refills the identity mapping with
/// every permission, and the gate handler returns to kernel privilege,
/// whatever executed the gate.
fn vectors() -> String {
    let vector = |v: u32| {
        let body = match v {
            3 => format!(
                "mfctl r28, traparg\n srli r29, r28, 12\n slli r29, r29, 12\n \
                 ori r29, r29, {FULL}\n tlbi r28, r29\n rfi\n"
            ),
            7 => "mfctl r28, traparg\n add r13, r13, r28\n mfctl r29, ipsw\n \
                  andi r29, r29, 0x1C\n mtctl ipsw, r29\n rfi\n"
                .to_owned(),
            8 => "mfctl r28, traparg\n xor r13, r13, r28\n rfi\n".to_owned(),
            // External interrupt: acknowledge whatever is pending.
            10 => "mfctl r28, eirr\n mtctl eirr, r28\n addi r12, r12, 1\n rfi\n".to_owned(),
            _ => "mfctl r28, iip\n addi r28, r28, 4\n mtctl iip, r28\n rfi\n".to_owned(),
        };
        format!(".org {}\n {body}", lay::VECTORS + 32 * v)
    };
    [1, 2, 3, 4, 5, 6, 7, 8, 10].map(vector).concat()
}

/// One item of a generated loop's body: what it is and how often it is
/// drawn, by [`GRAMMAR`]; what it expands to, by [`loop_source`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Item {
    Filler,
    ReadCtl,
    WriteCtl,
    Mask,
    Request,
    SetReset,
    Purge,
    Insert,
    Rfi,
    UserRfi,
    Gate,
    Brk,
    Env,
    Diag,
    Access,
    Misaligned,
    Mmio,
    BesideCode,
    Flip,
    Call,
    Patch,
}

/// The families an entry point can put a floor under: assist ops, data
/// accesses, exits and returns.
const ASSIST: u8 = 1;
const DATA: u8 = 2;
const EXITS: u8 = 4;

/// The grammar: every item, its weight, and the families whose floor
/// may draw it.
#[rustfmt::skip]
const GRAMMAR: [(Item, u64, u8); 21] = [
    (Item::Filler, 5, 0),                       // an ALU op
    (Item::ReadCtl, 5, ASSIST),                 // `mfctl` of any control register
    (Item::WriteCtl, 3, ASSIST),                // `mtctl` of one the frame never reads
    (Item::Mask, 5, ASSIST | EXITS),            // `mtctl eiem`: mid-trace, an interrupt
                                                // raised earlier becomes deliverable or not
    (Item::Request, 2, ASSIST),                 // `mtctl eirr`
    (Item::SetReset, 5, ASSIST | EXITS),        // `ssm`/`rsm` of interrupts, translation
    (Item::Purge, 5, ASSIST | DATA),            // `tlbp` of all, or of a page in use
    (Item::Insert, 6, ASSIST | DATA),           // `tlbi` of a data page or the code page
    (Item::Rfi, 5, ASSIST),                     // to the next word or an island
    (Item::UserRfi, 4, DATA),                   // the turn's closing `gate` comes back
    (Item::Gate, 5, ASSIST | DATA | EXITS),
    (Item::Brk, 3, EXITS),
    (Item::Env, 5, ASSIST | EXITS),             // `mftod`, `mftodh`, `mfit`, `mtit`, `idle`
    (Item::Diag, 4, ASSIST | EXITS),            // the embedder's cue: see `Embedder::diag`
    (Item::Access, 16, DATA),                   // a word or byte of `D0`, `D1`, `ALIAS`
    (Item::Misaligned, 3, DATA),                // traps before it translates
    (Item::Mmio, 3, DATA),                      // the I/O window: an exit, never RAM
    (Item::BesideCode, 8, DATA | EXITS),        // the loop's code page, the islands'
    (Item::Flip, 3, DATA),                      // translation off, and on three turns later
    (Item::Call, 12, EXITS),                    // and what its callee does with the return
    (Item::Patch, 3, ASSIST | DATA | EXITS),    // once: a drawn word over a decoded one
];

/// The mixed-radix digits of one draw: `pick(n)` takes the next, in
/// `0..n`. A draw of 0 picks the first choice everywhere.
struct Digits(u64);

impl Digits {
    fn pick(&mut self, n: u64) -> u64 {
        let digit = self.0 % n;
        self.0 /= n;
        digit
    }

    fn index(&mut self, n: usize) -> usize {
        self.pick(n as u64) as usize
    }
}

/// One item per seed, drawn from the whole grammar by weight — but every
/// other one only from the items of `floor`'s family, so no mechanism
/// goes without cases.
fn draw_items(seeds: &[u64], floor: u8) -> Vec<(Item, u64)> {
    let items = seeds.iter().enumerate().map(|(k, &seed)| {
        let rows = GRAMMAR
            .iter()
            .filter(move |&&(_, _, family)| k % 2 == 1 || family & floor != 0);
        let mut d = Digits(seed);
        let mut at = d.pick(rows.clone().map(|&(_, weight, _)| weight).sum());
        for &(item, weight, _) in rows {
            if at < weight {
                return (item, d.0);
            }
            at -= weight;
        }
        unreachable!("a draw below the total weight names an item")
    });
    items.collect()
}

/// Expands `items` into a loop of `turns` turns. Every turn calls
/// `fixed` (which always returns) and the island (a trace of its own,
/// entered and left by `jalr`), runs the body, and ends at `victim` —
/// the word the embedder rewrites when it meddles — and, if an item can
/// drop to user privilege, at a `gate` back.
///
/// r20 counts turns; r22–r27 are the bases (code-page data, I/O window,
/// `D0`, `D1`, `ALIAS`, island data); r18/r19 the recursion's stack and
/// depth, r17 a second link register; r30/r31 the items' temporaries;
/// r4–r8 hold data; r9–r11 count.
fn loop_source(items: &[(Item, u64)], turns: u32) -> String {
    let mut body = String::new();
    let mut near = String::new();
    let mut far = String::new();
    let (mut patched, mut user) = (false, false);
    for (k, &(item, draw)) in items.iter().enumerate() {
        let mut d = Digits(draw);
        let r = 4 + d.pick(5);
        // What moves the execution context runs on one turn in `every`,
        // at a drawn phase: in between, the map and the links are warm,
        // and that is what a change must cut through. Behind it, on
        // every turn, a load and a store to the page the base register
        // `witness` names: warm on most turns, and the first thing the
        // frame does in the new context on that one.
        let sometimes = |d: &mut Digits, every: u64, what: &str, witness: u64| {
            format!(
                "andi r31, r20, {}\n addi r31, r31, -{}\n bne r31, r0, skip_{k}\n {what}skip_{k}:\n \
                 lw r{r}, {}(r{witness})\n sb r{r}, {}(r{witness})\n",
                every - 1,
                d.pick(every),
                d.pick(64) * 4,
                d.pick(256),
            )
        };
        let text = match item {
            Item::Filler => format!("addi r{r}, r{}, {}\n", 4 + d.pick(5), d.pick(200)),
            Item::ReadCtl => {
                let cr = [
                    "eirr", "eiem", "ipsw", "iip", "traparg", "scratch0", "scratch1", "iva",
                    "rctr", "ptbr",
                ][d.index(10)];
                format!("mfctl r{r}, {cr}\n")
            }
            Item::WriteCtl => {
                let cr = ["scratch0", "scratch1", "ptbr"][d.index(3)];
                format!("mtctl {cr}, r{r}\n")
            }
            Item::Mask => format!(
                "addi r30, r0, {}\n mtctl eiem, r30\n",
                [3, 0, 1, 2, 7][d.index(5)]
            ),
            Item::Request => format!("addi r30, r0, {}\n mtctl eirr, r30\n", 1 + d.pick(7)),
            Item::SetReset => format!("{} {}\n", ["ssm", "rsm"][d.index(2)], 1 + d.pick(3)),
            Item::Purge => {
                let (what, witness) = match d.pick(6) {
                    0 => ("tlbp r0\n".to_owned(), 24 + d.pick(3)), // everything
                    n @ 1..=3 => (format!("tlbp r{}\n", 23 + n), 23 + n),
                    4 => ("addi r30, r0, 64\n tlbp r30\n".to_owned(), 22), // the executing page
                    _ => (format!("li r30, {}\n tlbp r30\n", lay::ISLANDS), 27),
                };
                let every = [1, 16][d.index(2)];
                sometimes(&mut d, every, &what, witness)
            }
            Item::Insert => {
                let (base, pte_word) = [
                    (24, lay::D0 | pte::V | pte::R | pte::U), // stores now fault
                    (24, lay::D0 | FULL),
                    (25, lay::D1 | FULL), // user may, now
                    (25, lay::D1 | pte::V | pte::R | pte::W),
                    (26, lay::ALIAS_AT | FULL),
                    (26, lay::ALIAS_ALT | FULL), // other bytes, same address
                    (26, lay::ALIAS_AT | pte::V | pte::R | pte::U),
                    (0, lay::SHADOW | FULL), // the code page's twin
                    (0, FULL),
                ][d.index(9)];
                let every = [1, 16][d.index(2)];
                let what = format!("li r30, {pte_word}\n tlbi r{base}, r30\n");
                sometimes(&mut d, every, &what, if base == 0 { 22 } else { base })
            }
            Item::Rfi => {
                // The PSW it installs keeps the privilege level (0; a
                // hypervisor maps it) and draws the other three bits. A
                // recovery counter that is switched on runs from 41.
                let psw = (d.pick(4) << 2) | (u64::from(d.pick(4) == 0) << 4);
                let target = if d.pick(2) == 0 {
                    format!("after_{k}")
                } else {
                    far.push_str(&format!("isl_{k}: addi r10, r10, 3\n jal r0, after_{k}\n"));
                    format!("isl_{k}")
                };
                format!(
                    "addi r30, r0, {psw}\n mtctl ipsw, r30\n la r30, {target}\n \
                     mtctl iip, r30\n rfi\nafter_{k}:\n"
                )
            }
            Item::UserRfi => {
                user = true;
                // Mostly to user privilege, translation mostly on.
                let psw =
                    [3, 3, 0][d.index(3)] | (d.pick(2) << 2) | (u64::from(d.pick(4) != 0) << 3);
                let what = format!(
                    "addi r30, r0, {psw}\n mtctl ipsw, r30\n la r30, skip_{k}\n \
                     mtctl iip, r30\n rfi\n"
                );
                sometimes(&mut d, 8, &what, 25)
            }
            Item::Gate => format!("gate {}\n", d.pick(16)),
            Item::Brk => format!("brk {}\n", d.pick(8)),
            Item::Env => match d.pick(5) {
                4 => "idle\n".to_owned(),
                n => format!("{} r{r}\n", ["mftod", "mftodh", "mfit", "mtit"][n as usize]),
            },
            Item::Diag => format!("diag r{r}, {}\n", d.pick(8)),
            Item::Access => {
                let base = 24 + d.pick(3);
                match d.pick(5) {
                    n @ 0..=1 => {
                        let op = ["lw", "sw"][n as usize];
                        format!("{op} r{r}, {}(r{base})\n", d.pick(512) * 4)
                    }
                    n => {
                        let op = ["lb", "lbu", "sb"][n as usize - 2];
                        format!("{op} r{r}, {}(r{base})\n", d.pick(2048))
                    }
                }
            }
            Item::Misaligned => {
                let op = ["lw", "sw"][d.index(2)];
                let (base, off) = (24 + d.pick(3), 1 + d.pick(3) + d.pick(64) * 4);
                format!("{op} r{r}, {off}(r{base})\n")
            }
            Item::Mmio => format!(
                "{} r{r}, {}(r23)\n",
                ["lw", "sw"][d.index(2)],
                d.pick(8) * 4
            ),
            Item::BesideCode => {
                let (base, off) = ([22, 27][d.index(2)], d.pick(64) * 4);
                match d.pick(3) {
                    0 => format!("sw r{r}, {off}(r{base})\n"),
                    1 => format!("lw r{r}, {off}(r{base})\n"),
                    _ => format!("sb r{r}, {}(r{base})\n", off + 1),
                }
            }
            Item::Flip => {
                let phase = d.pick(8);
                format!(
                    "andi r31, r20, 7\n addi r30, r31, -{phase}\n bne r30, r0, on_{k}\n rsm 2\n\
                     on_{k}:\n addi r30, r31, -{}\n bne r30, r0, skip_{k}\n ssm 2\nskip_{k}:\n \
                     lbu r{r}, {}(r26)\n sw r{r}, {}(r24)\n",
                    (phase + 5) % 8,
                    d.pick(256),
                    d.pick(64) * 4,
                )
            }
            Item::Call => {
                let skip = "addi r10, r10, 100\n";
                match d.pick(6) {
                    0 => {
                        near.push_str(&format!(
                            "f_{k}: addi r10, r10, {}\n jalr r0, ra, 0\n",
                            1 + d.pick(9)
                        ));
                        format!("jal ra, f_{k}\n")
                    }
                    1 => {
                        // Clobbers `ra`: back past the instruction
                        // behind the call.
                        near.push_str(&format!("f_{k}: addi ra, ra, 4\n jalr r0, ra, 0\n"));
                        format!("jal ra, f_{k}\n {skip}")
                    }
                    2 => {
                        near.push_str(&format!(
                            "f_{k}: la r30, away_{k}\n jalr r0, r30, 0\n\
                             away_{k}: addi r10, r10, 7\n jal r0, back_{k}\n"
                        ));
                        format!("jal ra, f_{k}\n {skip}back_{k}:\n")
                    }
                    3 => {
                        // A misaligned return address: `jalr` masks the
                        // low bits, where the privilege level rides — at
                        // 1, +3 carries into the next word.
                        near.push_str(&format!(
                            "f_{k}: addi ra, ra, {}\n jalr r0, ra, 0\n",
                            1 + d.pick(3)
                        ));
                        format!("jal ra, f_{k}\n {skip}")
                    }
                    4 => {
                        // The leaf returns into a caller in another page.
                        far.push_str(&format!(
                            "far_{k}: addi r10, r10, 2\n jal r17, leaf_{k}\n \
                             addi r10, r10, 3\n jalr r0, ra, 0\n"
                        ));
                        near.push_str(&format!("leaf_{k}: xor r10, r10, r20\n jalr r0, r17, 0\n"));
                        format!("jal ra, far_{k}\n")
                    }
                    _ => {
                        near.push_str(&format!(
                            "rec_{k}: beq r19, r0, done_{k}\n addi r19, r19, -1\n sw ra, 0(r18)\n \
                             addi r18, r18, 4\n jal ra, rec_{k}\n addi r18, r18, -4\n \
                             lw ra, 0(r18)\ndone_{k}: addi r10, r10, 1\n jalr r0, ra, 0\n"
                        ));
                        format!(
                            "li r18, {}\n addi r19, r0, {}\n jal ra, rec_{k}\n",
                            lay::STACK,
                            1 + d.pick(5)
                        )
                    }
                }
            }
            Item::Patch if !patched => {
                patched = true;
                let turn = 1 + d.pick(u64::from(turns - 1));
                let word = lay::PATCHES - lay::CODE_DATA + 4 * d.pick(8) as u32;
                let over = ["victim(r0)", "fixed(r0)", "-2048(r27)"][d.index(3)];
                format!(
                    "addi r31, r20, -{turn}\n bne r31, r0, nopatch\n lw r30, {word}(r22)\n \
                     sw r30, {over}\nnopatch:\n"
                )
            }
            Item::Patch => "nop\n".to_owned(),
        };
        body.push_str(&text);
    }
    format!(
        ".org 0
start:
    li   r22, {code_data}
    li   r23, {io}
    li   r24, {d0}
    li   r25, {d1}
    li   r26, {alias}
    li   r27, {island_data}
    addi r20, r0, {turns}
loop:
    addi r11, r11, 1         ; the marker: 2 in the shadow page
    jal  ra, fixed
    la   r30, island
    jalr ra, r30, 0
{body}victim:
    mfctl r9, scratch1
{back}    addi r20, r20, -1
    bne  r20, r0, loop
    halt
fixed:
    addi r10, r10, 1
    jalr r0, ra, 0
{near}end_of_code:
.org {patches}
    nop                      ; the once-only patch's words
    mtctl scratch0, r9
    ssm  1
    gate 9
    mftod r9
    brk  1
    addi r10, r10, 5
    .word 0xFF000000         ; does not decode
.org {islands}
island:
    addi r10, r10, 3
    jalr r0, ra, 0
{far}{vectors}",
        code_data = lay::CODE_DATA,
        io = hvft::machine::mem::IO_BASE,
        d0 = lay::D0,
        d1 = lay::D1,
        alias = lay::ALIAS,
        island_data = lay::ISLAND_DATA,
        back = if user {
            "    gate 0                   ; back to kernel privilege\n"
        } else {
            ""
        },
        patches = lay::PATCHES,
        islands = lay::ISLANDS,
        vectors = vectors(),
    )
}

/// A miniature embedder for the generated machines: delivers traps at
/// `level`, completes environment exits with values that depend only on
/// the retirement count, and — for a guest above privilege 0 — emulates
/// the privileged instructions of code running at `level` the way a
/// hypervisor does: native semantics, virtual clock, `rfi`'s privilege
/// mapped, control-register moves answered as moves. Logs every event.
/// The same emulation runs as the body of a loop around [`Cpu::run`]
/// and as the hook of [`Cpu::run_with`].
struct Embedder {
    level: u8,
    log: Vec<(Happened, u32, u64, Psw)>,
    events_left: u32,
    /// Retirement count the current chunk runs to.
    chunk_goal: u64,
    /// A device write into the code page, `(address, word)`, performed
    /// at the guest's first `diag` once the loop is hot.
    dma: Option<(u32, u32)>,
    /// A word of the running loop and another encoding for it: when
    /// set, the embedder meddles (see [`Meddle`]).
    meddle: Option<(u32, u32)>,
    /// The run is over: a `halt`, or the event cap.
    finished: bool,
}

/// What an [`Embedder`] logs, with the PC, retirement count and PSW at
/// that point: every event it is offered, and how every chunk ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Happened {
    Event(Exit),
    /// The budget ran out.
    Pause,
    /// The run is over.
    Stop,
    /// An exit surfaced unserved.
    Surfaced,
}

/// What a meddling embedder does after the `n`th event it logs — a
/// function of `n` alone, so the same on every tier, which log the same
/// events in the same order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Meddle {
    Nothing,
    /// Serve the event and end the run: `Continue(0)`.
    Cut,
    /// Surface the event unserved (a trap undelivered, an instruction
    /// not retired); `drive_chunks` goes on with the next budget.
    Surface,
    /// Serve the event and raise an interrupt.
    Interrupt,
    /// Serve the event and rewrite a word of the running loop.
    Rewrite,
}

impl Embedder {
    fn new(level: u8, dma: (u32, u32)) -> Self {
        Embedder {
            level,
            log: Vec::new(),
            events_left: 40_000,
            chunk_goal: 0,
            dma: Some(dma),
            meddle: None,
            finished: false,
        }
    }

    /// What follows the `n`th event (see [`Meddle`]).
    fn meddling(&self, n: usize) -> Meddle {
        if self.meddle.is_none() {
            return Meddle::Nothing;
        }
        let h = (n as u64 ^ 0x9E37_79B9).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 58;
        match h {
            0 | 1 => Meddle::Cut,
            2 | 3 => Meddle::Surface,
            4..=6 => Meddle::Interrupt,
            7 | 8 => Meddle::Rewrite,
            _ => Meddle::Nothing,
        }
    }

    /// The meddling that follows a served event.
    fn after_serving(&mut self, cpu: &mut Cpu, mem: &mut Memory, what: Meddle) {
        match what {
            Meddle::Cut => self.chunk_goal = cpu.retired(),
            Meddle::Interrupt => cpu.raise_irq(irq::TIMER),
            Meddle::Rewrite => {
                // Swaps the word in memory with the other one.
                let (at, other) = self.meddle.expect("a meddling embedder");
                let now = mem.read_u32(at).expect("the loop is in RAM");
                mem.write_u32(at, other).expect("the loop is in RAM");
                self.meddle = Some((at, now));
            }
            Meddle::Nothing | Meddle::Surface => {}
        }
    }

    /// `diag` is where this embedder does what embedders do behind a
    /// running trace's back: the first one past 800 instructions (a
    /// good twenty turns: the loop is compiled) lets a "device"
    /// overwrite an instruction of the loop, and an odd code cuts the
    /// current budget to two more instructions. Under the jit at
    /// privilege 1 both happen inside the frame that executed the
    /// `diag`.
    fn diag(&mut self, cpu: &Cpu, mem: &mut Memory, code: u32) {
        if cpu.retired() >= 800 {
            if let Some((addr, word)) = self.dma.take() {
                mem.write_u32(addr, word).expect("the victim is in RAM");
            }
        }
        if code % 2 == 1 {
            // The `diag` itself is about to retire.
            self.chunk_goal = self.chunk_goal.min(cpu.retired() + 3);
        }
    }

    /// Emulates `exit`; `Some` ends the run.
    fn emulate(&mut self, cpu: &mut Cpu, mem: &mut Memory, exit: Exit) -> Option<Exit> {
        match exit {
            Exit::Trap(Trap::PrivilegedOp { word }) => {
                let insn = decode(word).expect("a privileged instruction decodes");
                self.privileged_insn(cpu, mem, insn, word)
            }
            _ => self.other_exit(cpu, mem, exit),
        }
    }

    /// Logs an event; `Some` says what to do after it, `None` that the
    /// run is over.
    fn note(&mut self, cpu: &Cpu, exit: Exit) -> Option<Meddle> {
        self.log
            .push((Happened::Event(exit), cpu.pc, cpu.retired(), cpu.psw));
        self.events_left = self.events_left.saturating_sub(1);
        self.finished = self.events_left == 0;
        (!self.finished).then(|| self.meddling(self.log.len()))
    }

    fn other_exit(&mut self, cpu: &mut Cpu, mem: &mut Memory, exit: Exit) -> Option<Exit> {
        let what = match self.note(cpu, exit) {
            None | Some(Meddle::Surface) => return Some(exit),
            Some(what) => what,
        };
        let clock = cpu.retired() as u32 * 3;
        match exit {
            Exit::Retired => unreachable!("retirement is not an event"),
            // The recovery counter is the embedder's: re-arm it.
            Exit::Trap(Trap::RecoveryCounter) => cpu.set_ctl(ControlReg::Rctr, 41),
            Exit::Trap(t) => cpu.deliver_trap_at(t, self.level),
            Exit::Env(EnvOp::ReadTod { rd }) => cpu.complete_env_read(rd, clock),
            Exit::Env(EnvOp::ReadTodHigh { rd }) => cpu.complete_env_read(rd, 7),
            Exit::Env(EnvOp::ReadTimer { rd }) => cpu.complete_env_read(rd, !clock),
            Exit::MmioRead { rd, width, .. } => cpu.complete_mmio_read(rd, width, 0x5A),
            Exit::Diag { code, .. } => {
                self.diag(cpu, mem, code);
                cpu.complete_env_effect();
            }
            Exit::Env(EnvOp::SetTimer { .. }) | Exit::MmioWrite { .. } | Exit::Idle => {
                cpu.complete_env_effect()
            }
            Exit::Halt => {
                self.finished = true;
                return Some(exit);
            }
        }
        self.after_serving(cpu, mem, what);
        None
    }

    /// A privileged instruction met above privilege 0, decoded.
    fn privileged_insn(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: Instruction,
        word: u32,
    ) -> Option<Exit> {
        let exit = Exit::Trap(Trap::PrivilegedOp { word });
        if cpu.psw.cpl != self.level {
            // Not the guest kernel: its own handler's business.
            return self.other_exit(cpu, mem, exit);
        }
        let what = match self.note(cpu, exit) {
            None | Some(Meddle::Surface) => return Some(exit),
            Some(what) => what,
        };
        let clock = cpu.retired() as u32 * 3;
        match insn {
            Instruction::Halt => {
                self.finished = true;
                return Some(exit);
            }
            Instruction::MfTod { rd } => cpu.complete_env_read(rd, clock),
            Instruction::MfTodH { rd } => cpu.complete_env_read(rd, 7),
            Instruction::MfIt { rd } => cpu.complete_env_read(rd, !clock),
            Instruction::Diag { imm, .. } => {
                self.diag(cpu, mem, imm);
                cpu.retire_skip();
            }
            Instruction::MtIt { .. } | Instruction::Idle => cpu.retire_skip(),
            other => {
                assert_eq!(cpu.execute(other, mem), Exit::Retired, "{other}");
                cpu.psw.cpl = cpu.psw.cpl.max(self.level);
            }
        }
        self.after_serving(cpu, mem, what);
        None
    }

    fn resume(&self, cpu: &Cpu, stop: Option<Exit>) -> Resume {
        match stop {
            Some(exit) => Resume::Surface(exit),
            None => Resume::Continue(self.chunk_goal - cpu.retired()),
        }
    }
}

impl Assist for Embedder {
    fn exit(&mut self, cpu: &mut Cpu, mem: &mut Memory, exit: Exit) -> Resume {
        let stop = self.emulate(cpu, mem, exit);
        self.resume(cpu, stop)
    }

    fn privileged(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: Instruction,
        word: u32,
    ) -> Resume {
        assert_eq!(
            decode(word),
            Ok(insn),
            "a trace's side table matches its words"
        );
        let stop = self.privileged_insn(cpu, mem, insn, word);
        self.resume(cpu, stop)
    }

    /// The guest kernel's control-register moves, answered as moves —
    /// logged like any privileged instruction — unless this is the
    /// event the run ends at or one the embedder meddles after: those
    /// go to `privileged`.
    fn control(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: Instruction,
        word: u32,
    ) -> Option<u64> {
        let next = self.log.len() + 1;
        if cpu.psw.cpl != self.level
            || self.events_left <= 1
            || self.meddling(next) != Meddle::Nothing
        {
            return None;
        }
        assert_eq!(
            self.note(cpu, Exit::Trap(Trap::PrivilegedOp { word })),
            Some(Meddle::Nothing)
        );
        assert_eq!(cpu.execute(insn, mem), Exit::Retired, "{insn}");
        Some(self.chunk_goal - cpu.retired())
    }
}

/// Runs the machine chunk by chunk — `(instructions, interrupt bits to
/// raise first)` — through the embedder, around [`Cpu::run`] or inside
/// [`Cpu::run_with`], logging every pause.
fn drive_chunks(
    cpu: &mut Cpu,
    mem: &mut Memory,
    embedder: &mut Embedder,
    chunks: &[(u64, u32)],
    hooked: bool,
) {
    for &(chunk, raise) in chunks {
        cpu.raise_irq(raise);
        embedder.chunk_goal = cpu.retired() + chunk;
        let stop = if hooked {
            match cpu.run_with(mem, chunk, embedder) {
                Exit::Retired => None,
                exit => Some(exit),
            }
        } else {
            loop {
                let left = embedder.chunk_goal - cpu.retired();
                match cpu.run(mem, left) {
                    Exit::Retired => break None,
                    exit => {
                        if let Some(stop) = embedder.emulate(cpu, mem, exit) {
                            break Some(stop);
                        }
                    }
                }
            }
        };
        let happened = match stop {
            None => Happened::Pause,
            Some(_) if embedder.finished => Happened::Stop,
            Some(_) => Happened::Surfaced,
        };
        embedder
            .log
            .push((happened, cpu.pc, cpu.retired(), cpu.psw));
        if embedder.finished {
            return;
        }
    }
}

/// Everything the tiers must agree on at the end of a run, besides the
/// state hash: registers, PSW, TLB, retirement count, page generations.
fn observable(cpu: &Cpu, mem: &Memory) -> impl PartialEq + std::fmt::Debug {
    let page_gens: Vec<u64> = (0..lay::PAGES)
        .map(|p| mem.page_gen(p * PAGE_SIZE))
        .collect();
    let (regs, ctl, tlb) = (*cpu.regs(), *cpu.ctl_raw(), cpu.tlb.snapshot());
    (regs, cpu.pc, cpu.psw, ctl, tlb, cpu.retired(), page_gens)
}

/// The guest kernel's disk wait in miniature: closed by an unconditional
/// jump, `ssm`/`rsm` inside, left when the interrupt handler sets the
/// flag it polls. r29 counts completed waits.
const WAIT_LOOP_GUEST: &str = ".org 0
start:
    li   r27, 0x3000
    addi r21, r0, 6          ; waits to complete
retry:
    sw   r0, 0(r27)          ; clear the flag
    ssm  1                   ; take interrupts while waiting
wait:
    lw   r28, 0(r27)
    beq  r28, r0, wait
    rsm  1
    addi r29, r29, 1
    addi r21, r21, -1
    beq  r21, r0, done
    jal  r0, retry
done:
    halt
    .org 0x1140              ; vector 10, external interrupt: acknowledge, set the flag
    mfctl r24, eirr
    mtctl eirr, r24
    addi r25, r0, 1
    sw   r25, 0(r27)
    rfi
";

#[test]
fn a_jump_closed_wait_loop_entered_mid_body_is_engine_exact() {
    // Every chunk boundary re-enters the wait mid-body — at the `lw` or
    // at the `beq`, with an odd or an even budget, all four — so both
    // entries get hot, the trace entered at the `beq` wraps around to
    // end one op short of itself, and budgets run out on either side
    // of the wrap. Every 40th chunk an interrupt ends
    // the wait. At privilege 1 the `ssm`/`rsm`/`mfctl`/`mtctl`/`rfi` are
    // the embedder's, in-frame under the jit.
    let image = hvft::isa::asm::assemble(WAIT_LOOP_GUEST).expect("asm");
    let chunks: Vec<(u64, u32)> = (0..400)
        .map(|k| (301 + k % 2, if k % 40 == 39 { irq::TIMER } else { 0 }))
        .collect();
    for level in [0u8, 1] {
        let run = |tier: ExecTier, hooked: bool| {
            let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
            let mut mem = Memory::new((lay::PAGES * PAGE_SIZE) as usize);
            for seg in &image.segments {
                mem.write_bytes(seg.base, &seg.data);
            }
            cpu.set_exec_tier(tier);
            cpu.psw.cpl = level;
            cpu.set_ctl(ControlReg::Iva, lay::VECTORS);
            cpu.set_ctl(ControlReg::Eiem, irq::TIMER);
            cpu.pc = image.entry;
            let mut embedder = Embedder::new(level, (0x3F00, 0));
            drive_chunks(&mut cpu, &mut mem, &mut embedder, &chunks, hooked);
            (cpu, mem, embedder.log)
        };
        let (cpu_ref, mem_ref, log_ref) = run(ExecTier::Step, false);
        assert_eq!(
            cpu_ref.reg(Reg::of(29)),
            6,
            "level {level}: all six waits ended"
        );
        assert!(log_ref.last().is_some_and(|l| l.0 == Happened::Stop));
        for tier in [ExecTier::Step, ExecTier::Jit] {
            for hooked in [false, true] {
                let what = format!("level {level}, {tier}, hooked={hooked}");
                let (cpu, mem, log) = run(tier, hooked);
                assert_eq!(log, log_ref, "{what}");
                assert!(
                    observable(&cpu, &mem) == observable(&cpu_ref, &mem_ref),
                    "{what}"
                );
                assert_eq!(
                    same_vm_state((&cpu, &mem), (&cpu_ref, &mem_ref)),
                    Ok(()),
                    "{what}"
                );
                if tier == ExecTier::Jit {
                    let x = cpu.exec_stats();
                    assert!(
                        x.jit_retired * 10 > cpu.retired() * 9,
                        "{what}: the wait runs compiled: {x:?}"
                    );
                    assert!(
                        x.chain_hops * 20 < x.jit_retired,
                        "{what}: and iterates in-frame from either entry: {x:?}"
                    );
                }
            }
        }
    }
}

/// Runs the loop of `items` (see [`loop_source`]) at privilege 0 —
/// everything native, in-trace under the jit — and at privilege 1 under
/// the miniature hypervisor, where every privileged instruction goes to
/// the embedder as a trap exit or decoded from inside a trace: once on
/// the step tier as the reference, then on both tiers around
/// [`Cpu::run`] and inside [`Cpu::run_with`], in `chunks` (a budget,
/// and the interrupts raised before it). Each run must log the same events and end in the
/// same state. `flags` draws the rest of the case: translation,
/// interrupts, a meddling embedder, the TLB's size, the word a device
/// overwrites at the first `diag` past 800 instructions, and the chunk
/// before which CPU and memory are snapshotted and restored (the jit's
/// caches start cold, every code generation moves).
///
/// Returns the jit runs' counters.
fn hot_loop(
    items: &[(Item, u64)],
    turns: u32,
    chunks: &[(u64, u32)],
    flags: u64,
) -> Result<Vec<ExecStats>, TestCaseError> {
    let source = loop_source(items, turns);
    let image = hvft::isa::asm::assemble(&source).expect("asm");
    prop_assert!(image
        .symbol("end_of_code")
        .is_some_and(|at| at <= lay::CODE_DATA));
    let mut f = Digits(flags);
    let (translation, interrupts, meddles) = (f.pick(2) == 1, f.pick(2) == 1, f.pick(2) == 1);
    let tlb_slots = [16, 32][f.index(2)];
    let word = |insn| encode(insn).expect("encodable");
    let count_by = |rd, imm| {
        word(Instruction::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::of(rd),
            rs1: Reg::of(rd),
            imm,
        })
    };
    let at = |label| image.symbol(label).expect("a label of the template");
    let (marker, victim) = (at("loop"), at("victim"));
    let dma = [
        (victim, count_by(9, 5)),
        (at("island"), count_by(10, 5)),
        (at("fixed"), count_by(10, 9)),
        (lay::PATCHES, 0),
    ][f.index(4)];
    let restore_before = 4 + f.index(12);
    let build = |level: u8, tier: ExecTier| {
        let mut cpu = Cpu::new(tlb_slots, TlbReplacement::RoundRobin, 0);
        let mut mem = Memory::new((lay::PAGES * PAGE_SIZE) as usize);
        for seg in &image.segments {
            mem.write_bytes(seg.base, &seg.data);
        }
        let code = mem.read_bytes(0, PAGE_SIZE as usize).to_vec();
        mem.write_bytes(lay::SHADOW, &code);
        mem.write_u32(lay::SHADOW + marker, count_by(11, 2))
            .unwrap();
        // Every data page starts with bytes of its own.
        for (j, page) in [lay::D0, lay::D1, lay::ALIAS_AT, lay::ALIAS_ALT]
            .into_iter()
            .enumerate()
        {
            let fill: Vec<u8> = (0..PAGE_SIZE)
                .map(|i| (i as u8) ^ (0x35 * (j as u8 + 1)))
                .collect();
            mem.write_bytes(page, &fill);
        }
        cpu.set_exec_tier(tier);
        cpu.psw.cpl = level;
        cpu.psw.translation = translation;
        cpu.psw.interrupts = interrupts;
        cpu.set_ctl(ControlReg::Iva, lay::VECTORS);
        cpu.set_ctl(ControlReg::Eiem, irq::TIMER | irq::DISK);
        for base in (0..lay::PAGES).map(|p| p * PAGE_SIZE) {
            let user = if base == lay::D1 { 0 } else { pte::U };
            cpu.tlb.insert_pte(base, base | (FULL & !pte::U) | user);
        }
        cpu.tlb.insert_pte(lay::ALIAS, lay::ALIAS_AT | FULL);
        cpu.pc = image.entry;
        (cpu, mem)
    };
    let embedder = |level| Embedder {
        meddle: meddles.then_some((victim, count_by(9, 16))),
        ..Embedder::new(level, dma)
    };
    let drive = |cpu: &mut Cpu, mem: &mut Memory, embedder: &mut Embedder, hooked: bool| {
        let (before, after) = chunks.split_at(restore_before);
        drive_chunks(cpu, mem, embedder, before, hooked);
        if !embedder.finished {
            let (c, m) = (cpu.snapshot(), mem.snapshot());
            cpu.restore(&c);
            mem.restore(&m);
            drive_chunks(cpu, mem, embedder, after, hooked);
        }
    };
    let mut jit = Vec::new();
    for level in [0u8, 1] {
        let (mut cpu_ref, mut mem_ref) = build(level, ExecTier::Step);
        let mut reference = embedder(level);
        drive(&mut cpu_ref, &mut mem_ref, &mut reference, false);
        for tier in [ExecTier::Step, ExecTier::Jit] {
            for hooked in [false, true] {
                let (mut cpu, mut mem) = build(level, tier);
                let mut embedder = embedder(level);
                drive(&mut cpu, &mut mem, &mut embedder, hooked);
                let what = format!("level {level}, {tier}, hooked={hooked}");
                prop_assert_eq!(&embedder.log, &reference.log, "{}\n{}", what, source);
                prop_assert_eq!(
                    observable(&cpu, &mem),
                    observable(&cpu_ref, &mem_ref),
                    "{}",
                    what
                );
                let state = same_vm_state((&cpu, &mem), (&cpu_ref, &mem_ref));
                prop_assert_eq!(state, Ok(()), "{}", what);
                if tier == ExecTier::Jit {
                    let x = cpu.exec_stats();
                    // Every turn ran, so the loop head was hot, and
                    // called `fixed`, whose return stays in the trace —
                    // unless the once-only patch made `fixed` leave it.
                    let all = cpu.reg(Reg::of(20)) == 0;
                    let inline = x.ret_inline > 0 || source.contains("fixed(r0)");
                    prop_assert!(!all || x.jit_retired > 0 && inline, "{}: {:?}", what, x);
                    jit.push(x);
                }
            }
        }
    }
    Ok(jit)
}

/// The items, turns, budget chunks and flags of a [`hot_loop`].
type HotCase = (Vec<(Item, u64)>, u32, Vec<(u64, u32)>, u64);

/// A case of [`hot_loop`] whose items put a floor under `family`: 8–20
/// items; 48–111 turns — ≥ 3 × the jit's promotion threshold, so the
/// loop, and the handlers and callees it keeps entering, run compiled
/// for most of them — or, for loads and stores, 80–127 (≥ 5 ×); 96
/// budget chunks; the flags.
fn hot_case(family: u8) -> impl Strategy<Value = HotCase> {
    let seeds = prop::collection::vec(any::<u64>(), 8..21);
    let turns = if family == DATA { 80u32..128 } else { 48..112 };
    // Budgets of 1–9, 10–199 and 200–699 instructions; before one in two
    // (assist ops) or four an interrupt is raised, to become deliverable
    // whenever the code unmasks it.
    let every = if family == ASSIST { 2 } else { 4 };
    let chunk = move |r: u64| {
        let len = match r % 4 {
            0 => 1 + (r >> 8) % 9,
            1 | 2 => 10 + (r >> 8) % 190,
            _ => 200 + (r >> 8) % 500,
        };
        let raise = (r >> 40)
            .is_multiple_of(every)
            .then(|| 1 + ((r >> 44) % 7) as u32);
        (len, raise.unwrap_or(0))
    };
    let schedule = prop::collection::vec(any::<u64>(), 96);
    (seeds, turns, schedule, any::<u64>()).prop_map(move |(seeds, turns, schedule, flags)| {
        let chunks = schedule.into_iter().map(chunk).collect();
        (draw_items(&seeds, family), turns, chunks, flags)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    // Three entry points into one property: each draws every other item
    // from its own family, the rest from the whole grammar.

    #[test]
    fn hot_loops_of_assist_ops_are_engine_exact((items, turns, chunks, flags) in hot_case(ASSIST)) {
        hot_loop(&items, turns, &chunks, flags)?;
    }

    #[test]
    fn hot_loops_of_loads_and_stores_are_engine_exact((items, turns, chunks, flags) in hot_case(DATA)) {
        hot_loop(&items, turns, &chunks, flags)?;
    }

    #[test]
    fn hot_loops_of_exits_and_returns_are_engine_exact((items, turns, chunks, flags) in hot_case(EXITS)) {
        hot_loop(&items, turns, &chunks, flags)?;
    }
}

#[test]
fn one_trace_stores_beside_code_masks_returns_and_hops_by_link() {
    // A store beside the loop's decoded words, `mtctl eiem`, a call
    // whose return is guarded, and a `gate` whose vector the trace hops
    // to by link and back: the stamp, the data-page map, the links and
    // in-frame exits, all in one trace. Draw 0 of each item is exactly
    // that (`sw r4, 0(r22)`, a mask of 3, a callee that returns home,
    // `gate 0`); the translation, interrupts and meddling are off.
    let items = [
        (Item::BesideCode, 0),
        (Item::Mask, 0),
        (Item::Call, 0),
        (Item::Gate, 0),
    ];
    let chunks: Vec<(u64, u32)> = (0..96).map(|k| (200 + k, 1)).collect();
    for x in hot_loop(&items, 64, &chunks, 0).expect("the tiers agree") {
        assert!(
            x.data_fast > 0 && x.ret_inline > 0 && x.link_hits > 0,
            "every path was taken: {x:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Hypervised pauses: one guest, one budget or many slices, every tier
// ---------------------------------------------------------------------

/// Everything a pause of [`HvGuest::run`] shows: the event, the
/// consumed time and its split, `nsim`, the reflections, the retirement
/// count and the state hash.
type Pause = (HvEvent, [SimDuration; 3], [u64; 3], u64);

/// Runs `image` under the hypervisor to its exit, in budgets drawn
/// round-robin from `slices`, playing the protocol layer's part (timer
/// interrupts at epoch boundaries, device registers that read 0), and
/// returns every pause.
fn hypervised_pauses(
    image: &hvft::isa::program::Program,
    cost: CostModel,
    config: HvConfig,
    slices: &[SimDuration],
) -> Vec<Pause> {
    let mut guest = HvGuest::new(image, cost, config);
    let mut pauses = Vec::new();
    for k in 0.. {
        assert!(k < 200_000, "the guest does not come to an end");
        let event = guest.run(slices[k % slices.len()]);
        let stats = guest.stats();
        pauses.push((
            event,
            [guest.elapsed(), stats.hv_time, stats.guest_time],
            [stats.simulated, stats.reflected, guest.cpu.retired()],
            guest.state_hash(),
        ));
        match event {
            HvEvent::BudgetExhausted => {}
            HvEvent::EpochEnd => {
                if guest.vclock.take_expired_timer(guest.cpu.retired()) {
                    guest.assert_irq(irq::TIMER);
                }
                guest.begin_epoch();
            }
            HvEvent::MmioRead { width, rd, .. } => guest.finish_mmio_read(rd, width, 0),
            HvEvent::MmioWrite { .. } => guest.finish_mmio_write(),
            HvEvent::Idle => guest.finish_idle(),
            // `SYS_EXIT`'s diag, or a halt, ends the run; others mark.
            HvEvent::Diag { code, .. } if code != hvft::guest::layout::diag::EXIT => {}
            HvEvent::Diag { .. } | HvEvent::Halted => break,
        }
    }
    pauses
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn hypervised_pauses_are_slicing_and_engine_invariant(
        draws in prop::collection::vec(20u64..10_000, 48),
        epoch_len in 300u32..5_000,
        syscall_every in 1u32..5,
        paper_costs in any::<bool>(),
    ) {
        // Dhrystone with syscalls and a fast tick: gates reflected,
        // handlers' privileged instructions simulated (a clock read
        // among them), timer interrupts delivered at epoch boundaries,
        // TLB misses filled. At the paper's costs one simulated
        // instruction is worth 750 ordinary ones, so most budgets run
        // out *inside* the hypervisor, between two instructions of a
        // handler — under the jit, between two ops of one trace.
        // (The virtual clock counts instructions, so the tick period is
        // the same either way: a tick every 7 500 instructions.)
        let (cost, scale) = if paper_costs {
            (CostModel::hp9000_720(), 32)
        } else {
            (CostModel::functional(), 1)
        };
        let kernel = KernelConfig { tick_period_us: 150, tick_work: 2, ..KernelConfig::default() };
        let image = build_image(&kernel, &dhrystone_source(1_500, syscall_every)).expect("image builds");
        let whole = [SimDuration::from_secs(100)];
        let slices: Vec<SimDuration> =
            draws.iter().map(|&ns| SimDuration::from_nanos(ns * scale)).collect();
        let run = |tier: ExecTier, slices: &[SimDuration]| {
            let config = HvConfig { exec_tier: tier, epoch_len, ..HvConfig::default() };
            hypervised_pauses(&image, cost, config, slices)
        };
        let whole_ref = run(ExecTier::Step, &whole);
        let sliced_ref = run(ExecTier::Step, &slices);
        prop_assert!(whole_ref.len() > 4 && sliced_ref.len() > whole_ref.len() + 8, "{} and {} pauses", whole_ref.len(), sliced_ref.len());
        // Slicing adds pauses and moves nothing: the events of the
        // sliced run are the whole run's, count for count.
        let events = |pauses: &[Pause]| -> Vec<Pause> {
            pauses.iter().filter(|p| p.0 != HvEvent::BudgetExhausted).copied().collect()
        };
        prop_assert_eq!(&events(&sliced_ref), &whole_ref);
        let tier = ExecTier::Jit;
        prop_assert_eq!(&run(tier, &whole), &whole_ref, "one budget, {}", tier);
        prop_assert_eq!(&run(tier, &slices), &sliced_ref, "sliced, {}", tier);
    }
}
