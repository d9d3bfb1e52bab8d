//! Integration tests of the hypervisor's privilege-level machinery —
//! the §3.1 story: guest kernel at real level 1, user at 3, and the
//! leaky instructions (`jal`, `probe`, `gate`) behaving identically on
//! bare hardware and under the hypervisor *as far as a well-behaved
//! guest can tell*.

use hvft_hypervisor::bare::{BareExit, BareHost};
use hvft_hypervisor::cost::CostModel;
use hvft_hypervisor::hvguest::{HvConfig, HvEvent, HvGuest};
use hvft_isa::asm::assemble;
use hvft_sim::time::SimDuration;

/// Assembles a bare kernel-only program (no user mode, no paging).
fn tiny(src: &str) -> hvft_isa::program::Program {
    assemble(src).unwrap_or_else(|e| panic!("asm: {e}"))
}

fn run_hv(image: &hvft_isa::program::Program, max_epochs: u32) -> (HvGuest, Vec<HvEvent>) {
    let mut g = HvGuest::new(image, CostModel::functional(), HvConfig::default());
    let mut events = Vec::new();
    for _ in 0..max_epochs {
        let ev = g.run(SimDuration::from_secs(1));
        events.push(ev);
        match ev {
            HvEvent::EpochEnd => g.begin_epoch(),
            HvEvent::Halted | HvEvent::Diag { .. } => break,
            HvEvent::MmioRead { width, rd, .. } => g.finish_mmio_read(rd, width, 0),
            HvEvent::MmioWrite { .. } => g.finish_mmio_write(),
            other => panic!("unexpected {other:?}"),
        }
    }
    (g, events)
}

#[test]
fn guest_kernel_runs_at_real_level_1() {
    let image = tiny(
        ".org 0x1000
        boot:
            addi r4, r0, 5
            halt",
    );
    let (g, events) = run_hv(&image, 10);
    assert!(matches!(events.last(), Some(HvEvent::Halted)));
    // The halt was *simulated* (trapped as privileged at level 1), not
    // executed at level 0.
    assert!(g.stats().simulated >= 1);
    assert_eq!(g.cpu.psw.cpl, hvft_hypervisor::GUEST_KERNEL_LEVEL);
    assert_eq!(g.cpu.reg(hvft_isa::reg::Reg::of(4)), 5);
}

#[test]
fn jal_link_bits_differ_between_bare_and_hypervised() {
    // The virtualization hole itself: the return address's low bits hold
    // the REAL privilege level — 0 on bare hardware, 1 under the
    // hypervisor. A guest that inspected them could detect the
    // hypervisor ("although if it looked, it could", §3.1).
    let src = ".org 0x1000
        boot:
            jal r5, next
        next:
            halt";
    let image = tiny(src);

    let mut bare = BareHost::new(&image, CostModel::hp9000_720(), 1 << 16, 4, 0);
    let br = bare.run(100);
    assert!(matches!(br.exit, BareExit::Halted { .. }));
    let bare_link = bare.cpu.reg(hvft_isa::reg::Reg::of(5));

    let (g, _) = run_hv(&image, 4);
    let hv_link = g.cpu.reg(hvft_isa::reg::Reg::of(5));

    assert_eq!(bare_link & 3, 0, "bare kernel runs at level 0");
    assert_eq!(hv_link & 3, 1, "hypervised kernel runs at real level 1");
    assert_eq!(
        bare_link & !3,
        hv_link & !3,
        "the address part is identical"
    );
}

#[test]
fn mfctl_rctr_is_virtualized_to_zero() {
    // The recovery counter belongs to the hypervisor; the guest reads 0
    // and its writes are discarded.
    let image = tiny(
        ".org 0x1000
        boot:
            addi r4, r0, 99
            mtctl rctr, r4
            mfctl r5, rctr
            halt",
    );
    let (g, _) = run_hv(&image, 10);
    assert_eq!(g.cpu.reg(hvft_isa::reg::Reg::of(5)), 0);
}

#[test]
fn environment_reads_are_deterministic_in_instruction_count() {
    // Two mftod reads separated by a fixed number of instructions must
    // differ by exactly that instruction count at 50 MIPS — virtual time
    // is derived from the retired count, which both replicas share.
    let image = tiny(
        ".org 0x1000
        boot:
            mftod r5
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            nop
            mftod r6
            halt",
    );
    let (g, _) = run_hv(&image, 10);
    let t0 = g.cpu.reg(hvft_isa::reg::Reg::of(5));
    let t1 = g.cpu.reg(hvft_isa::reg::Reg::of(6));
    // 11 retired instructions between the two reads (10 nops + the first
    // mftod itself), at 50 insns per µs → the µs clock may advance 0 or
    // round, but the relationship must be exact and reproducible.
    let (g2, _) = run_hv(&image, 10);
    assert_eq!(t0, g2.cpu.reg(hvft_isa::reg::Reg::of(5)));
    assert_eq!(t1, g2.cpu.reg(hvft_isa::reg::Reg::of(6)));
    assert!(t1 >= t0);
}

#[test]
fn interval_timer_roundtrip_via_simulation() {
    let image = tiny(
        ".org 0x1000
        boot:
            li   r4, 500        ; arm for 500 µs
            mtit r4
            mfit r5             ; immediately read back
            halt",
    );
    let (g, _) = run_hv(&image, 10);
    let remaining = g.cpu.reg(hvft_isa::reg::Reg::of(5));
    assert!((499..=500).contains(&remaining), "remaining = {remaining}");
    assert!(g.vclock.timer_armed());
}

#[test]
fn epoch_accounting_is_exact_across_simulated_instructions() {
    // Privileged instructions retire through the simulation path; they
    // must still count toward the epoch length exactly once.
    let image = tiny(
        ".org 0x1000
        boot:
            mftod r4
            mftod r4
            mftod r4
            nop
            nop
        spin:
            b spin",
    );
    let mut g = HvGuest::new(
        &image,
        CostModel::functional(),
        HvConfig {
            epoch_len: 100,
            ..HvConfig::default()
        },
    );
    let ev = g.run(SimDuration::from_secs(1));
    assert_eq!(ev, HvEvent::EpochEnd);
    assert_eq!(
        g.cpu.retired(),
        100,
        "epoch must be exactly 100 retired instructions"
    );
}
