//! Property tests: deterministic snapshot/restore and epoch-boundary
//! reintegration.
//!
//! A snapshot captures exactly the canonical machine state; everything
//! derived — decoded blocks, JIT superblocks, the TLB front cache — is
//! dropped and rebuilt after a restore. The claim that makes the
//! subsystem usable for backup reintegration is *bit-identity*: a
//! restored machine must compute exactly what the donor computes from
//! the capture point on, whatever execution tier is in use, however hot
//! the donor's caches were, and even if the guest patches its own code
//! right after the restore lands on a cold cache.
//!
//! Three layers are pinned down:
//!
//! - **machine level**: a hot self-modifying guest is snapshotted at an
//!   arbitrary mid-run point and restored into a freshly constructed
//!   CPU; donor and restoree then run side by side, compared at short
//!   chunk boundaries, for every tier;
//! - **TLB state**: the replacement cursor and RNG are part of the
//!   canonical state, so a restored TLB continues the *same replacement
//!   stream* the donor would have produced;
//! - **system level**: a failstopped backup is repaired mid-run,
//!   reintegrated from a primary snapshot shipped over the (possibly
//!   lossy) coordination network, and must then survive a subsequent
//!   primary failstop — with the checksum, console stream and lockstep
//!   hashes of an undisturbed run.

#![recursion_limit = "256"]

mod common;

use common::same_vm_state;
use hvft::guest::workload::Dhrystone;
use hvft::hypervisor::cost::CostModel;
use hvft::hypervisor::hvguest::{HvConfig, HvEvent, HvGuest};
use hvft::isa::asm::assemble;
use hvft::isa::codec::encode;
use hvft::isa::instruction::{AluImmOp, Instruction};
use hvft::isa::reg::Reg;
use hvft::machine::cpu::{Cpu, Exit};
use hvft::machine::exec::ExecTier;
use hvft::machine::mem::Memory;
use hvft::machine::tlb::TlbReplacement;
use hvft::machine::LoadProgram;
use hvft::net::link::LinkSpec;
use hvft::sim::time::{SimDuration, SimTime};
use hvft_core::scenario::{RunReport, Scenario, ScenarioBuilder};
use proptest::prelude::*;
use std::sync::OnceLock;

const TIERS: [ExecTier; 2] = [ExecTier::Step, ExecTier::Jit];

// ---------------------------------------------------------------------
// Machine level: mid-run capture of a hot, self-modifying guest
// ---------------------------------------------------------------------

/// A guest whose hot inner routine is called far past the JIT promotion
/// threshold and patched *mid-run*: iterations count down from a poked
/// start value, and when the counter hits the poked trigger the word at
/// `slot` is overwritten. Loads and stores in the outer loop keep the
/// memory path (and SMC write generations) busy.
const HOT_SMC_GUEST: &str = ".org 0
start:
    lw   r21, 512(r0)        ; replacement word (poked by the test)
    lw   r22, 516(r0)        ; loop counter start (poked)
    lw   r24, 520(r0)        ; patch trigger value (poked)
outer:
    jal  ra, patchable
    bne  r22, r24, nopatch
    sw   r21, 96(r0)         ; patch `slot` when the counter hits trigger
nopatch:
    sw   r22, 1024(r0)
    lw   r23, 1024(r0)
    addi r22, r22, -1
    bne  r22, r0, outer
    halt

    .org 96
patchable:
slot:
    addi r20, r20, 1         ; becomes: addi r20, r20, 100
    jalr r0, ra, 0
";

/// Builds the guest with `iters` countdown iterations, patching when
/// the counter reaches `trigger`. `tlb_seed` exercises that restore
/// overwrites constructor-chosen TLB state.
fn build_hot_smc(iters: u32, trigger: u32, tier: ExecTier, tlb_seed: u64) -> (Cpu, Memory) {
    let patched = encode(Instruction::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::of(20),
        rs1: Reg::of(20),
        imm: 100,
    })
    .unwrap();
    let image = assemble(HOT_SMC_GUEST).expect("asm");
    let mut cpu = Cpu::new(16, TlbReplacement::Random, tlb_seed);
    cpu.set_exec_tier(tier);
    let mut mem = Memory::new(64 * 1024);
    image.load_into_cpu(&mut cpu, &mut mem);
    mem.write_u32(512, patched).unwrap();
    mem.write_u32(516, iters).unwrap();
    mem.write_u32(520, trigger).unwrap();
    (cpu, mem)
}

/// Runs until `Halt` or until `budget` more instructions retired.
/// Returns true when halted.
fn run_budget(cpu: &mut Cpu, mem: &mut Memory, budget: u64) -> bool {
    let target = cpu.retired() + budget;
    while cpu.retired() < target {
        match cpu.run(mem, target - cpu.retired()) {
            Exit::Retired => {}
            Exit::Halt => return true,
            other => panic!("unexpected exit {other:?} at pc {:#x}", cpu.pc),
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    // Snapshot at an arbitrary mid-run point, restore into a fresh
    // machine (different TLB seed, cold caches), and run donor and
    // restoree side by side to completion: retired counts, PCs and
    // whole-state hashes must stay identical at every comparison
    // chunk, on every tier, even though the patch at `slot` may land
    // on a hot superblock in the donor and a cold cache in the
    // restoree.
    #[test]
    fn mid_run_snapshot_restores_bit_identically(
        tier_idx in 0usize..2,
        iters in 40u32..150,
        trigger_frac in 1u32..1000,
        split_frac in 1u64..1000,
    ) {
        let tier = TIERS[tier_idx];
        let trigger = (iters * trigger_frac / 1000).max(1);

        // Learn the total retirement count once, uninterrupted.
        let (mut ref_cpu, mut ref_mem) = build_hot_smc(iters, trigger, tier, 1);
        prop_assert!(run_budget(&mut ref_cpu, &mut ref_mem, u64::MAX / 2));
        let total = ref_cpu.retired();

        // Donor: run to the split point (possibly mid-hot-loop), capture.
        let split = (total * split_frac / 1000).max(1);
        let (mut donor, mut donor_mem) = build_hot_smc(iters, trigger, tier, 1);
        prop_assert!(!run_budget(&mut donor, &mut donor_mem, split));
        let cpu_snap = donor.snapshot();
        let mem_snap = donor_mem.snapshot();
        prop_assert_eq!(cpu_snap.retired(), split);
        prop_assert_eq!(cpu_snap.tier(), tier);

        // Restoree: a fresh machine with a *different* TLB seed; the
        // restore must overwrite every canonical bit of it.
        let (mut rest, mut rest_mem) = build_hot_smc(iters, trigger, ExecTier::Step, 99);
        rest.restore(&cpu_snap);
        rest_mem.restore(&mem_snap);
        prop_assert_eq!(rest.exec_tier(), tier, "tier travels with the snapshot");
        prop_assert_eq!(
            same_vm_state((&rest, &rest_mem), (&donor, &donor_mem)),
            Ok(()),
            "restored state must hash identically to the donor at capture"
        );

        // Side-by-side to completion, compared at short chunks so a
        // divergence is localized.
        loop {
            let done_d = run_budget(&mut donor, &mut donor_mem, 500);
            let done_r = run_budget(&mut rest, &mut rest_mem, 500);
            prop_assert_eq!(done_d, done_r, "halt points diverged");
            prop_assert_eq!(donor.retired(), rest.retired());
            prop_assert_eq!(donor.pc, rest.pc);
            prop_assert_eq!(
                same_vm_state((&donor, &donor_mem), (&rest, &rest_mem)),
                Ok(()),
                "states diverged at {} retired", donor.retired()
            );
            if done_d {
                break;
            }
        }
        prop_assert_eq!(donor.retired(), total);
        prop_assert_eq!(
            rest.tlb.snapshot_state(),
            donor.tlb.snapshot_state(),
            "TLB state (cursor, RNG, counters) must track the donor"
        );
    }
}

// ---------------------------------------------------------------------
// Machine level: hot cross-page superblocks across a restore
// ---------------------------------------------------------------------

/// Like [`HOT_SMC_GUEST`], but the hot routine sits at the end of page 0
/// and `jal`s into page 1, so the jit's compiled trace spans both pages
/// — and the mid-run patch lands on the *second* page. The snapshot is
/// taken while that cross-page trace is hot; the restoree rebuilds it
/// cold and must still replay bit-identically through the patch.
const HOT_CROSS_PAGE_GUEST: &str = ".org 0
start:
    lw   r21, 512(r0)        ; replacement word (poked by the test)
    lw   r22, 516(r0)        ; loop counter start (poked)
    lw   r24, 520(r0)        ; patch trigger value (poked)
outer:
    jal  ra, crosser
    bne  r22, r24, nopatch
    sw   r21, 4096(r0)       ; patch `slot` on the trace's second page
nopatch:
    sw   r22, 1024(r0)
    lw   r23, 1024(r0)
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

fn build_hot_cross(iters: u32, trigger: u32, tier: ExecTier, tlb_seed: u64) -> (Cpu, Memory) {
    let patched = encode(Instruction::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::of(20),
        rs1: Reg::of(20),
        imm: 100,
    })
    .unwrap();
    let image = assemble(HOT_CROSS_PAGE_GUEST).expect("asm");
    let mut cpu = Cpu::new(16, TlbReplacement::Random, tlb_seed);
    cpu.set_exec_tier(tier);
    let mut mem = Memory::new(64 * 1024);
    image.load_into_cpu(&mut cpu, &mut mem);
    mem.write_u32(512, patched).unwrap();
    mem.write_u32(516, iters).unwrap();
    mem.write_u32(520, trigger).unwrap();
    (cpu, mem)
}

#[test]
fn snapshot_with_hot_cross_page_superblocks_restores_bit_identically() {
    for tier in TIERS {
        let (mut ref_cpu, mut ref_mem) = build_hot_cross(120, 40, tier, 1);
        assert!(run_budget(&mut ref_cpu, &mut ref_mem, u64::MAX / 2));
        let total = ref_cpu.retired();

        // Split mid-hot-loop, well past the promotion threshold and
        // before the patch trigger fires.
        let split = total / 2;
        let (mut donor, mut donor_mem) = build_hot_cross(120, 40, tier, 1);
        assert!(!run_budget(&mut donor, &mut donor_mem, split));
        if tier == ExecTier::Jit {
            let x = donor.exec_stats();
            assert!(
                x.cross_page_superblocks >= 1,
                "the donor must be hot with a cross-page trace at the \
                 capture point: {x:?}"
            );
        }
        let cpu_snap = donor.snapshot();
        let mem_snap = donor_mem.snapshot();

        let (mut rest, mut rest_mem) = build_hot_cross(120, 40, ExecTier::Step, 99);
        rest.restore(&cpu_snap);
        rest_mem.restore(&mem_snap);
        assert_eq!(rest.exec_tier(), tier);
        assert_eq!(
            same_vm_state((&rest, &rest_mem), (&donor, &donor_mem)),
            Ok(())
        );
        loop {
            let done_d = run_budget(&mut donor, &mut donor_mem, 500);
            let done_r = run_budget(&mut rest, &mut rest_mem, 500);
            assert_eq!(done_d, done_r, "{tier}: halt points diverged");
            assert_eq!(donor.retired(), rest.retired(), "{tier}");
            assert_eq!(donor.pc, rest.pc, "{tier}");
            assert_eq!(
                same_vm_state((&donor, &donor_mem), (&rest, &rest_mem)),
                Ok(()),
                "{tier}: states diverged at {} retired",
                donor.retired()
            );
            if done_d {
                break;
            }
        }
        assert_eq!(
            rest.tlb.snapshot_state(),
            donor.tlb.snapshot_state(),
            "{tier}: TLB state must track the donor"
        );
    }
}

// ---------------------------------------------------------------------
// TLB: the replacement stream continues across a restore
// ---------------------------------------------------------------------

#[test]
fn tlb_replacement_stream_continues_after_restore() {
    use hvft::machine::tlb::pte;

    let pte_for = |page: u32| (page << 12) | pte::V | pte::R | pte::W | pte::X;
    // Warm an 8-slot random-replacement TLB past capacity so the
    // replacement RNG has advanced a few draws.
    let mut donor = Cpu::new(8, TlbReplacement::Random, 42);
    for page in 0u32..12 {
        donor.tlb.insert_pte(page << 12, pte_for(page));
    }
    let snap = donor.snapshot();

    // Restore into a CPU built with a different seed and cursor state.
    let mut rest = Cpu::new(8, TlbReplacement::Random, 7);
    rest.tlb.insert_pte(0x8000_0000, pte_for(5));
    rest.restore(&snap);
    assert_eq!(rest.tlb.snapshot_state(), donor.tlb.snapshot_state());

    // The *future* replacement decisions — which slot each insertion
    // evicts — must now be identical draw for draw.
    for page in 12u32..64 {
        donor.tlb.insert_pte(page << 12, pte_for(page));
        rest.tlb.insert_pte(page << 12, pte_for(page));
        assert_eq!(
            rest.tlb.snapshot_state(),
            donor.tlb.snapshot_state(),
            "replacement streams diverged at page {page}"
        );
    }
}

// ---------------------------------------------------------------------
// Hypervisor level: HvGuest round trip
// ---------------------------------------------------------------------

/// Runs `g` up to (not past) its next epoch boundary.
fn run_to_boundary(g: &mut HvGuest) {
    loop {
        match g.run(SimDuration::from_millis(10)) {
            HvEvent::EpochEnd => break,
            HvEvent::BudgetExhausted => {}
            other => panic!("unexpected event {other:?}"),
        }
    }
}

#[test]
fn hvguest_snapshot_round_trip_is_exact() {
    let workload = Dhrystone {
        iters: 5_000,
        syscall_every: 7,
        ..Default::default()
    };
    let image = hvft::guest::workload::Workload::image(&workload).expect("image");
    let mk = || HvGuest::new(&image, CostModel::functional(), HvConfig::default());

    // Run the donor a few epochs in, far enough to warm the TLB and
    // accumulate hypervisor bookkeeping.
    let mut donor = mk();
    for _ in 0..5 {
        match donor.run(SimDuration::from_micros(200)) {
            HvEvent::EpochEnd => donor.begin_epoch(),
            HvEvent::BudgetExhausted => {}
            other => panic!("unexpected event {other:?}"),
        }
    }
    let snap = donor.snapshot();
    assert_eq!(snap.epoch(), donor.epoch());
    assert_eq!(snap.elapsed(), donor.elapsed());
    assert!(snap.wire_bytes() > hvft::guest::layout::RAM_BYTES as u64);

    let mut rest = mk();
    rest.restore(&snap);
    assert_eq!(rest.state_hash(), donor.state_hash());
    assert_eq!(rest.elapsed(), donor.elapsed());
    assert_eq!(rest.epoch(), donor.epoch());
    assert_eq!(rest.epoch_progress(), donor.epoch_progress());

    // Both must reach the next epoch boundary at the same instant with
    // the same state.
    run_to_boundary(&mut donor);
    run_to_boundary(&mut rest);
    assert_eq!(rest.state_hash(), donor.state_hash());
    assert_eq!(rest.elapsed(), donor.elapsed());
    assert_eq!(rest.epoch_progress(), donor.epoch_progress());
}

// ---------------------------------------------------------------------
// System level: reintegration under arbitrary schedules and loss
// ---------------------------------------------------------------------

/// A fast coordination link so the ~266 KB state transfer completes in
/// a couple of simulated milliseconds — the schedules below interleave
/// two failovers around it inside one short run.
fn fast_link() -> LinkSpec {
    LinkSpec {
        bits_per_sec: 1_000_000_000,
        propagation: SimDuration::from_micros(5),
        per_message: SimDuration::from_micros(5),
        mtu: 16384,
    }
}

/// An even fatter link for the loss variant. The receive window accepts
/// chunks strictly in order, so recovery is go-back-N: every lost chunk
/// costs roughly a full drain of the frames queued behind it. Keeping
/// that per-episode cost small keeps the property about protocol
/// correctness (retransmission, abort, successor retry) rather than
/// about link capacity versus the kill schedule.
fn bulk_link() -> LinkSpec {
    LinkSpec {
        bits_per_sec: 10_000_000_000,
        propagation: SimDuration::from_micros(2),
        per_message: SimDuration::from_micros(1),
        mtu: 16384,
    }
}

fn rejoin_base() -> ScenarioBuilder {
    Scenario::builder()
        .workload(Dhrystone {
            iters: 20_000,
            syscall_every: 9,
            ..Default::default()
        })
        .backups(2)
        .functional_cost()
        .link(fast_link())
        .retransmit(SimDuration::from_micros(40))
        .detector_timeout(SimDuration::from_micros(1500))
}

struct Reference {
    total_ns: u64,
    code: u32,
    console: Vec<u8>,
}

fn rejoin_reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let r = rejoin_base().build().expect("valid scenario").run();
        Reference {
            total_ns: r.completion_time.as_nanos(),
            code: r.exit.code().unwrap_or_else(|| panic!("{:?}", r.exit)),
            console: r.console.clone(),
        }
    })
}

/// The undisturbed duration on the bulk link, for scheduling the loss
/// variant (the checksum and console are link-invariant and shared
/// with [`rejoin_reference`]).
fn bulk_total_ns() -> u64 {
    static NS: OnceLock<u64> = OnceLock::new();
    *NS.get_or_init(|| {
        rejoin_base()
            .link(bulk_link())
            .build()
            .expect("valid scenario")
            .run()
            .completion_time
            .as_nanos()
    })
}

/// Kill backup 2 at `t0`‰ of the reference run, repair it `gap`‰
/// later, then failstop two primaries in sequence: the first
/// `transfer_margin`‰ after the repair (wide enough for the state
/// transfer — including loss-retransmission cycles — to complete), the
/// second `kill_gap`‰ after that (wide enough for the rank-scaled
/// detection of the first).
fn rejoin_schedule(
    b: ScenarioBuilder,
    total_ns: u64,
    t0: u64,
    gap: u64,
    transfer_margin: u64,
    kill_gap: u64,
) -> ScenarioBuilder {
    let at = |frac: u64| SimTime::from_nanos((total_ns * frac / 1000).max(1));
    let t1 = t0 + gap;
    b.fail_replica_at(at(t0), 2)
        .rejoin_replica_at(at(t1), 2)
        .fail_primary_at(at(t1 + transfer_margin))
        .fail_primary_at(at(t1 + transfer_margin + kill_gap))
}

/// One full arc, asserting the invariants every variant shares: the
/// repaired replica reintegrates once, both failovers are survived
/// (the second only the reintegrated replica can cover), and the run
/// is observably identical to the undisturbed reference.
fn assert_rejoin_arc(report: &RunReport, label: &str) {
    let reference = rejoin_reference();
    assert_eq!(
        report.reintegrations.len(),
        1,
        "{label}: exactly one reintegration expected, got {:?}",
        report.reintegrations
    );
    assert_eq!(report.reintegrations[0].replica, 2, "{label}");
    assert_eq!(
        report.failovers.len(),
        2,
        "{label}: both failstops must be survived, got {:?}",
        report.failovers
    );
    let code = report
        .exit
        .code()
        .unwrap_or_else(|| panic!("{label}: run ended {:?}", report.exit));
    assert_eq!(
        code, reference.code,
        "{label}: checksum must be transparent"
    );
    assert_eq!(report.console, reference.console, "{label}: console bytes");
    assert!(report.lockstep_clean, "{label}: replicas diverged");
    assert_eq!(
        report.state_transfer_bytes, report.reintegrations[0].bytes,
        "{label}: transfer accounting"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    // Arbitrary (safely-margined) kill/repair times: the reintegrated
    // backup must always carry the run to the reference checksum after
    // the second failover.
    #[test]
    fn reintegrated_backup_survives_a_second_failover(
        t0 in 80u64..220,
        gap in 40u64..120,
    ) {
        let reference = rejoin_reference();
        let report = rejoin_schedule(rejoin_base(), reference.total_ns, t0, gap, 300, 150)
            .build()
            .unwrap()
            .run();
        assert_rejoin_arc(&report, &format!("t0={t0} gap={gap}"));
    }

    // The same arc under message loss: chunks, boundary messages and
    // heartbeats all ride the lossy medium, so the transfer leans on
    // the ack/retransmission layer — and must still reintegrate
    // exactly once and survive both failovers.
    #[test]
    fn reintegration_survives_message_loss(
        loss in 0.01f64..0.12,
        seed in 0u64..1_000,
    ) {
        let report = rejoin_schedule(
            rejoin_base().link(bulk_link()).lossy(loss).seed(seed),
            bulk_total_ns(),
            100,
            50,
            450,
            170,
        )
        .build()
        .unwrap()
        .run();
        assert_rejoin_arc(&report, &format!("loss={loss:.3} seed={seed}"));
        // Loss must actually have bitten for the case to mean anything.
        prop_assert!(
            report.frames_retransmitted > 0,
            "no retransmissions at p={loss}"
        );
    }
}

/// The whole reintegration arc is execution-tier invariant: snapshots
/// taken from a JIT-hot primary restore onto an identically configured
/// replica and the entire observable outcome matches the interpreter
/// tier for tier — including the reintegration epoch and both failover
/// epochs.
#[test]
fn reintegration_is_execution_tier_invariant() {
    let reference = rejoin_reference();
    let run = |tier: ExecTier| {
        let scenario = rejoin_schedule(
            rejoin_base().exec_tier(tier),
            reference.total_ns,
            150,
            80,
            300,
            150,
        )
        .build()
        .unwrap();
        let marks = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut runner = scenario.runner();
        runner.add_observer(Box::new(Timeline(marks.clone())));
        let report = runner.run();
        let stats = runner.ft_mut().expect("replicated driver").run_stats();
        assert_eq!(
            (stats.failstops, stats.repairs, stats.reintegrations),
            (3, 1, 1),
            "{tier}: RunStats counts every processor event"
        );
        (report, marks.take())
    };
    let (base, base_marks) = run(ExecTier::Step);
    assert_rejoin_arc(&base, "step");
    // The whole arc as one observer timeline: the backup dies, is
    // repaired, reintegrates, and only then do the two primaries fall.
    use Mark::*;
    assert_eq!(
        base_marks.iter().map(|&(m, _)| m).collect::<Vec<_>>(),
        [
            Failstopped(2),
            Repaired(2),
            Reintegrated(2),
            Failstopped(0),
            Failover,
            Failstopped(1),
            Failover
        ]
    );
    assert!(
        base_marks.windows(2).all(|w| w[0].1 <= w[1].1),
        "hooks fire in simulated-time order: {base_marks:?}"
    );
    let tier = ExecTier::Jit;
    let (r, marks) = run(tier);
    assert_rejoin_arc(&r, &format!("{tier}"));
    assert_eq!(marks, base_marks, "{tier}: observer timeline");
    assert_eq!(
        r.reintegrations[0].epoch, base.reintegrations[0].epoch,
        "{tier}: reintegration epoch"
    );
    assert_eq!(
        r.reintegrations[0].at, base.reintegrations[0].at,
        "{tier}: reintegration instant"
    );
    assert_eq!(r.failovers[0].epoch, base.failovers[0].epoch, "{tier}");
    assert_eq!(r.failovers[1].epoch, base.failovers[1].epoch, "{tier}");
    assert_eq!(r.completion_time, base.completion_time, "{tier}");
}

/// The processor-level events of a run, as the [`Observer`] hooks
/// announce them.
///
/// [`Observer`]: hvft_core::observer::Observer
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mark {
    Failstopped(usize),
    Repaired(usize),
    Reintegrated(usize),
    Failover,
}

struct Timeline(std::rc::Rc<std::cell::RefCell<Vec<(Mark, SimTime)>>>);

impl hvft_core::observer::Observer for Timeline {
    fn replica_failstopped(&mut self, replica: usize, at: SimTime) {
        self.0.borrow_mut().push((Mark::Failstopped(replica), at));
    }
    fn replica_repaired(&mut self, replica: usize, at: SimTime) {
        self.0.borrow_mut().push((Mark::Repaired(replica), at));
    }
    fn replica_reintegrated(&mut self, replica: usize, _epoch: u64, _bytes: u64, at: SimTime) {
        self.0.borrow_mut().push((Mark::Reintegrated(replica), at));
    }
    fn failover(&mut self, info: &hvft_core::system::FailoverInfo) {
        self.0.borrow_mut().push((Mark::Failover, info.at));
    }
}

// ---------------------------------------------------------------------
// The incremental state digest: the two traps
// ---------------------------------------------------------------------
//
// `Memory` caches each line's digest until a write marks the line.
// Trap 1: a restore installs a donor's bytes *and* its generations
// without a single store, so nothing but the restore itself can mark
// what changed. Trap 2: an oracle that only looks at pages the guest wrote
// would miss a corrupted page the guest never touches.

/// A page no Dhrystone guest writes: it does no disk I/O.
const QUIET_WORD: u32 = hvft::guest::layout::DMA_BUF + 0x100;

/// Trap 1 through `HvGuest::restore`: A and B reach the same boundary,
/// each takes one store of a different value to the same page (equal
/// generations, different bytes), both are hashed so both caches are
/// warm, and B is restored onto A.
#[test]
fn hvguest_restore_drops_digests_cached_under_equal_generations() {
    let workload = Dhrystone {
        iters: 5_000,
        syscall_every: 7,
        ..Default::default()
    };
    let image = hvft::guest::workload::Workload::image(&workload).expect("image");
    for tier in TIERS {
        let mk = || {
            let config = HvConfig {
                exec_tier: tier,
                ..HvConfig::default()
            };
            let mut g = HvGuest::new(&image, CostModel::functional(), config);
            for _ in 0..3 {
                run_to_boundary(&mut g);
                g.state_hash();
                g.begin_epoch();
            }
            g
        };
        let (mut a, mut b) = (mk(), mk());
        assert_eq!(a.state_hash(), b.state_hash(), "{tier}");
        a.mem.write_u32(QUIET_WORD, 0x1111_1111).unwrap();
        b.mem.write_u32(QUIET_WORD, 0x2222_2222).unwrap();
        assert_eq!(a.mem.page_gen(QUIET_WORD), b.mem.page_gen(QUIET_WORD));
        let (before_a, hash_b) = (a.state_hash(), b.state_hash());
        assert_ne!(before_a, hash_b, "{tier}");

        a.restore(&b.snapshot());
        assert_eq!(
            a.state_hash(),
            hash_b,
            "{tier}: restored guest must hash as its donor"
        );
        assert_eq!(
            same_vm_state((&a.cpu, &a.mem), (&b.cpu, &b.mem)),
            Ok(()),
            "{tier}"
        );
    }
}

/// Records the last epoch boundary one replica announced.
struct LastBoundary {
    replica: usize,
    seen: std::rc::Rc<std::cell::Cell<Option<u64>>>,
}

impl hvft_core::observer::Observer for LastBoundary {
    fn epoch_boundary(&mut self, replica: usize, epoch: u64, _at: SimTime) {
        if replica == self.replica {
            self.seen.set(Some(epoch));
        }
    }
}

/// Trap 2: one word of the backup's RAM is corrupted mid-run, in a page
/// the guest does not write. The divergence must be reported at the
/// backup's very next boundary (and at every one after it).
#[test]
fn lockstep_oracle_catches_corruption_in_a_page_the_guest_never_writes() {
    for tier in TIERS {
        let scenario = Scenario::builder()
            .workload(Dhrystone {
                iters: 20_000,
                syscall_every: 9,
                ..Default::default()
            })
            .backups(1)
            .functional_cost()
            .exec_tier(tier)
            .build()
            .expect("valid scenario");
        assert!(scenario.run().lockstep_clean, "{tier}: undisturbed run");

        let seen = std::rc::Rc::new(std::cell::Cell::new(None));
        let mut runner = scenario.runner();
        runner.add_observer(Box::new(LastBoundary {
            replica: 1,
            seen: seen.clone(),
        }));
        let ft = runner.ft_mut().expect("replicated driver");
        while seen.get().is_none_or(|e| e < 10) {
            assert!(ft.step().is_none(), "{tier}: run ended before the fault");
        }
        let last = seen.get().expect("checked above");
        assert_eq!(ft.guest_mem_u32(1, QUIET_WORD), 0, "{tier}: page is quiet");
        ft.corrupt_guest_mem_u32(1, QUIET_WORD, 0xDEAD_BEEF);
        let result = ft.run();

        assert_eq!(
            ft.guest_mem_u32(0, QUIET_WORD),
            0,
            "{tier}: page stayed quiet"
        );
        let divergences = &result.divergences;
        assert!(
            !result.lockstep_clean && !divergences.is_empty(),
            "{tier}: corruption went unnoticed"
        );
        assert_eq!(
            (divergences[0].epoch, divergences[0].replica_b),
            (last + 1, 1),
            "{tier}: the report must name the backup's very next boundary"
        );
        assert_eq!(
            divergences.len() as u64,
            result.lockstep_compared - (last + 1),
            "{tier}: and at every boundary compared after it"
        );
    }
}

/// Trap 1 through a full rejoin. Replica 2 and the other two replicas
/// each take one store of a *different* value to the same quiet page —
/// equal generations, different bytes — and all of them hash it at
/// several boundaries (replica 2 is reported diverged, as it should
/// be). Replica 2 then failstops and is reintegrated from the primary's
/// snapshot: from that boundary on it must hash exactly like its donor.
#[test]
fn rejoin_drops_digests_cached_under_equal_generations() {
    let reference = rejoin_reference();
    let at = |frac: u64| SimTime::from_nanos(reference.total_ns * frac / 1000);
    for tier in TIERS {
        let scenario = rejoin_base()
            .exec_tier(tier)
            .fail_replica_at(at(300), 2)
            .rejoin_replica_at(at(400), 2)
            .build()
            .expect("valid scenario");
        let seen = std::rc::Rc::new(std::cell::Cell::new(None));
        let mut runner = scenario.runner();
        runner.add_observer(Box::new(LastBoundary {
            replica: 2,
            seen: seen.clone(),
        }));
        let ft = runner.ft_mut().expect("replicated driver");
        while ft.next_action_time().expect("mid-run") < at(150) {
            assert!(ft.step().is_none(), "{tier}: run ended before the fault");
        }
        let last = seen.get().expect("replica 2 ran before the fault");
        ft.corrupt_guest_mem_u32(0, QUIET_WORD, 0x2222_2222);
        ft.corrupt_guest_mem_u32(1, QUIET_WORD, 0x2222_2222);
        ft.corrupt_guest_mem_u32(2, QUIET_WORD, 0x1111_1111);
        let result = ft.run();

        assert_eq!(result.reintegrations.len(), 1, "{tier}");
        let rejoined_at = result.reintegrations[0].epoch;
        let divergences = &result.divergences;
        assert!(
            !result.lockstep_clean && !divergences.is_empty(),
            "{tier}: replica 2 hashed its own bytes before it died"
        );
        assert_eq!(
            divergences[0].epoch,
            last + 1,
            "{tier}: the report must name replica 2's very next boundary"
        );
        for d in divergences {
            assert!(
                d.epoch < rejoined_at && (d.replica_a == 2 || d.replica_b == 2),
                "{tier}: divergence after reintegration at epoch {rejoined_at}: {d:?}"
            );
        }
        assert!(
            result.replica_stats[2].epochs > rejoined_at + 5,
            "{tier}: the rejoiner must have been compared again after its restore"
        );
        assert_eq!(ft.guest_mem_u32(2, QUIET_WORD), 0x2222_2222, "{tier}");
        assert_eq!(result.console, reference.console, "{tier}");
    }
}
