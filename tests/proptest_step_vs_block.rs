//! Differential tests: the three execution tiers against each other.
//!
//! `Cpu::run` under every [`ExecTier`] — the single-step reference
//! interpreter, the predecoded-block engine, and the threaded-code
//! superblock jit — must be **observably identical**: same retired
//! counts, same machine-state hashes, same trap sequences at the same
//! instruction-stream points, same console bytes. This file proves it
//! four ways:
//!
//! - **bare differential**: every guest workload runs to completion on
//!   three [`BareHost`]s, one per tier, compared chunk by chunk;
//! - **hypervised differential**: the same workloads run under the full
//!   replicated [`FtSystem`] once per tier (including across a
//!   failover), and the entire observable outcome (checksums, epoch
//!   counts, simulated times, console, disk log) must match — this
//!   exercises privileged simulation, trap reflection, TLB management
//!   and epoch delimitation over the batching engines;
//! - **registry sweep**: every registered workload runs bare under all
//!   three tiers with bit-identical exit codes and console streams;
//! - **instruction-soup proptest**: randomized code (valid, privileged,
//!   trapping and garbage words mixed) driven through all tiers with
//!   traps delivered bare-metal style, comparing the full event
//!   sequence and final state hash.
//!
//! Self-modifying code gets its own section: a guest that patches a
//! block the engines have already cached (and, for the jit, a compiled
//! superblock mid-hot-loop) must behave exactly like the interpreter.

mod common;

use common::same_vm_state;
use hvft::guest::layout::RAM_BYTES;
use hvft::guest::{
    build_image, dhrystone_source, hello_source, io_bench_source, mixed_source, IoMode,
    KernelConfig,
};
use hvft::hypervisor::bare::{BareExit, BareHost};
use hvft::hypervisor::cost::CostModel;
use hvft::isa::codec::encode;
use hvft::isa::instruction::{AluImmOp, AluOp, BranchCond, Instruction, MemWidth};
use hvft::isa::reg::Reg;
use hvft::machine::cpu::{Cpu, Exit};
use hvft::machine::exec::ExecTier;
use hvft::machine::mem::Memory;
use hvft::machine::tlb::TlbReplacement;
use hvft_core::scenario::{RunReport, Scenario, ScenarioBuilder};
use hvft_sim::time::SimTime;
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
    let mut others = [mk(ExecTier::Block), mk(ExecTier::Jit)];
    // Compare at chunk boundaries so a divergence is localized to
    // within `chunk` instructions of where it first occurred.
    let chunk = 10_000u64;
    let cap = 500_000_000u64;
    let mut limit = 0u64;
    loop {
        limit += chunk;
        let rb = stepped.run(limit);
        for host in &mut others {
            let tier = host.exec_tier();
            let ra = host.run(limit);
            assert_eq!(
                ra.exit, rb.exit,
                "{name}/{tier}: exits diverged at limit {limit}"
            );
            assert_eq!(
                ra.retired, rb.retired,
                "{name}/{tier}: retired counts diverged at limit {limit}"
            );
            assert_eq!(ra.diags, rb.diags, "{name}/{tier}: diag streams diverged");
            assert_eq!(
                ra.time, rb.time,
                "{name}/{tier}: simulated time diverged at limit {limit}"
            );
            assert_eq!(
                same_vm_state((&host.cpu, &host.mem), (&stepped.cpu, &stepped.mem)),
                Ok(()),
                "{name}/{tier}: state hashes diverged at {} retired",
                ra.retired
            );
            assert_eq!(
                host.console.output_string(),
                stepped.console.output_string(),
                "{name}/{tier}: console bytes diverged"
            );
        }
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
    assert_bare_equivalent("hello", &hello_source("block vs step\n", 2), &kcfg, |_| {});
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
// Self-modifying guest code (the riskiest block-cache path)
// ---------------------------------------------------------------------

/// A bare-metal guest that executes a code sequence, then patches one
/// of its instructions *after it was executed (and cached)*, and runs
/// it again: iteration 1 executes `addi r20, r20, 1`, every later
/// iteration must execute the patched `addi r20, r20, 100`.
const SMC_GUEST: &str = ".org 0
start:
    addi r22, r0, 5          ; loop counter
    lw   r21, 512(r0)        ; replacement word (poked by the test)
outer:
    jal  ra, patchable
    ; after the first pass, overwrite the instruction at `slot`
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
fn self_modifying_guest_invalidates_the_block_cache() {
    let patched = encode(Instruction::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::of(20),
        rs1: Reg::of(20),
        imm: 100,
    })
    .unwrap();
    let image = hvft::isa::asm::assemble(SMC_GUEST).expect("asm");
    let run = |tier: ExecTier| {
        let mut host = BareHost::new(&image, CostModel::hp9000_720(), RAM_BYTES, 16, 0);
        host.set_exec_tier(tier);
        host.mem.write_u32(512, patched).unwrap();
        let r = host.run(100_000);
        (r, host)
    };
    let (rb, host_b) = run(ExecTier::Step);
    for tier in [ExecTier::Block, ExecTier::Jit] {
        let (ra, host_a) = run(tier);
        assert!(matches!(ra.exit, BareExit::Halted { .. }), "{:?}", ra.exit);
        assert_eq!(ra.exit, rb.exit, "{tier}");
        assert_eq!(ra.retired, rb.retired, "{tier}");
        assert_eq!(
            same_vm_state((&host_a.cpu, &host_a.mem), (&host_b.cpu, &host_b.mem)),
            Ok(()),
            "self-modifying code must behave identically on every engine ({tier})"
        );
        // 5 passes: 1 original (+1), 4 patched (+100 each).
        assert_eq!(host_a.cpu.reg(Reg::of(20)), 1 + 4 * 100);
        let stats = host_a.cpu.block_cache_stats();
        assert!(
            stats.invalidations >= 1,
            "patching a cached block must invalidate it ({tier}): {stats:?}"
        );
    }
}

/// Like [`SMC_GUEST`], but hot: the patchable routine is called 60
/// times, far past the jit's promotion threshold, and the patch lands
/// mid-run (when the counter reaches 30) — so it overwrites code inside
/// a *compiled superblock*, not just a predecoded block.
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
    let patched = encode(Instruction::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::of(20),
        rs1: Reg::of(20),
        imm: 100,
    })
    .unwrap();
    let image = hvft::isa::asm::assemble(SMC_HOT_GUEST).expect("asm");
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
    assert_eq!(rj.exit, rs.exit);
    assert_eq!(rj.retired, rs.retired);
    assert_eq!(
        same_vm_state((&host_j.cpu, &host_j.mem), (&host_s.cpu, &host_s.mem)),
        Ok(()),
        "a patched superblock must replay exactly like the interpreter"
    );
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
    let patched = encode(Instruction::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::of(20),
        rs1: Reg::of(20),
        imm: 100,
    })
    .unwrap();
    let image = hvft::isa::asm::assemble(SMC_CROSS_PAGE_GUEST).expect("asm");
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
    assert_eq!(rj.exit, rs.exit);
    assert_eq!(rj.retired, rs.retired);
    assert_eq!(
        same_vm_state((&host_j.cpu, &host_j.mem), (&host_s.cpu, &host_s.mem)),
        Ok(()),
        "a cross-page superblock stale on its second page must replay \
         exactly like the interpreter"
    );
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
    let patched = encode(Instruction::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::of(20),
        rs1: Reg::of(20),
        imm: 100,
    })
    .unwrap();
    let image = hvft::isa::asm::assemble(SMC_CROSS_PAGE_SELF_GUEST).expect("asm");
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
    assert_eq!(rj.exit, rs.exit);
    assert_eq!(rj.retired, rs.retired);
    assert_eq!(
        same_vm_state((&host_j.cpu, &host_j.mem), (&host_s.cpu, &host_s.mem)),
        Ok(()),
        "a trace that patches its own second page must replay exactly \
         like the interpreter"
    );
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

// ---------------------------------------------------------------------
// Hypervised differential: the whole replicated system, block on/off
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
    for tier in [ExecTier::Block, ExecTier::Jit] {
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
        for tier in [ExecTier::Block, ExecTier::Jit] {
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
        let (mut cpu_b, mut mem_b) = build();
        let log_b = drive(&mut cpu_b, &mut mem_b, false, 5_000, 400);
        for tier in [ExecTier::Step, ExecTier::Block, ExecTier::Jit] {
            let (mut cpu_a, mut mem_a) = build();
            cpu_a.set_exec_tier(tier);
            let log_a = drive(&mut cpu_a, &mut mem_a, true, 5_000, 400);
            prop_assert_eq!(&log_a, &log_b, "event sequences diverged ({})", tier);
            prop_assert_eq!(cpu_a.retired(), cpu_b.retired(), "{}", tier);
            prop_assert_eq!(cpu_a.pc, cpu_b.pc, "{}", tier);
            prop_assert_eq!(
                same_vm_state((&cpu_a, &mem_a), (&cpu_b, &mem_b)),
                Ok(()),
                "final states diverged ({})",
                tier
            );
        }
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
        let (mut cpu_blk, mut mem_blk) = build();
        let (mut cpu_jit, mut mem_jit) = build();
        cpu_jit.set_exec_tier(ExecTier::Jit);
        for _ in 0..4 {
            let log_b = drive(&mut cpu_b, &mut mem_b, false, u64::MAX, 200);
            let log_blk = drive(&mut cpu_blk, &mut mem_blk, true, u64::MAX, 200);
            let log_jit = drive(&mut cpu_jit, &mut mem_jit, true, u64::MAX, 200);
            prop_assert_eq!(&log_blk, &log_b, "block");
            prop_assert_eq!(&log_jit, &log_b, "jit");
            prop_assert_eq!(cpu_blk.retired(), cpu_b.retired());
            prop_assert_eq!(cpu_jit.retired(), cpu_b.retired());
            // Re-arm and continue (drive stops at the event cap or a
            // non-trap exit; RecoveryCounter traps are delivered like
            // any other and vector to low memory).
            cpu_b.set_ctl(hvft::isa::reg::ControlReg::Rctr, epoch_len);
            cpu_blk.set_ctl(hvft::isa::reg::ControlReg::Rctr, epoch_len);
            cpu_jit.set_ctl(hvft::isa::reg::ControlReg::Rctr, epoch_len);
        }
        prop_assert_eq!(
            same_vm_state((&cpu_blk, &mem_blk), (&cpu_b, &mem_b)),
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
        // after the trace is hot. All three tiers must report the same
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
        let build = || {
            let cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
            let mut mem = Memory::new(64 * 1024);
            for seg in &image.segments {
                mem.write_bytes(seg.base, &seg.data);
            }
            mem.write_u32(512, synth_word(patch_seed)).unwrap();
            mem.write_u32(516, 4096 + 4 * patch_idx).unwrap();
            mem.write_u32(520, patch_at).unwrap();
            (cpu, mem)
        };
        let (mut cpu_b, mut mem_b) = build();
        let log_b = drive(&mut cpu_b, &mut mem_b, false, 50_000, 400);
        for tier in [ExecTier::Step, ExecTier::Block, ExecTier::Jit] {
            let (mut cpu_a, mut mem_a) = build();
            cpu_a.set_exec_tier(tier);
            let log_a = drive(&mut cpu_a, &mut mem_a, true, 50_000, 400);
            prop_assert_eq!(&log_a, &log_b, "event sequences diverged ({})", tier);
            prop_assert_eq!(cpu_a.retired(), cpu_b.retired(), "{}", tier);
            prop_assert_eq!(
                same_vm_state((&cpu_a, &mem_a), (&cpu_b, &mem_b)),
                Ok(()),
                "final states diverged ({})",
                tier
            );
            if tier == ExecTier::Jit {
                let x = cpu_a.exec_stats();
                prop_assert!(
                    x.cross_page_superblocks >= 1,
                    "the hot crosser must fuse across the page: {:?}",
                    x
                );
            }
        }
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
        // cost nothing and the code stores must not be missed: all
        // three tiers report the same event log, retired count and
        // final state.
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
        let build = || {
            let cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
            let mut mem = Memory::new(64 * 1024);
            for seg in &image.segments {
                mem.write_bytes(seg.base, &seg.data);
            }
            mem.write_u32(1536, synth_word(patch_seed)).unwrap();
            mem.write_u32(1540, store_to).unwrap();
            mem.write_u32(1544, patch_at).unwrap();
            (cpu, mem)
        };
        let (mut cpu_b, mut mem_b) = build();
        let log_b = drive(&mut cpu_b, &mut mem_b, false, 50_000, 400);
        prop_assert!(log_b.len() >= 20, "one gate per pass before the store: {:?}", log_b);
        for tier in [ExecTier::Step, ExecTier::Block, ExecTier::Jit] {
            let (mut cpu_a, mut mem_a) = build();
            cpu_a.set_exec_tier(tier);
            let log_a = drive(&mut cpu_a, &mut mem_a, true, 50_000, 400);
            prop_assert_eq!(&log_a, &log_b, "event sequences diverged ({})", tier);
            prop_assert_eq!(cpu_a.retired(), cpu_b.retired(), "{}", tier);
            prop_assert_eq!(
                same_vm_state((&cpu_a, &mem_a), (&cpu_b, &mem_b)),
                Ok(()),
                "final states diverged ({})",
                tier
            );
            let (x, blocks) = (cpu_a.exec_stats(), cpu_a.block_cache_stats());
            if tier == ExecTier::Jit {
                prop_assert!(x.jit_retired > 0, "the hot loop must run compiled: {:?}", x);
            }
            if is_data {
                prop_assert_eq!(
                    (x.jit_invalidations, blocks.invalidations),
                    (0, 0),
                    "{}: stores to data beside code must invalidate nothing",
                    tier
                );
            }
        }
    }
}
