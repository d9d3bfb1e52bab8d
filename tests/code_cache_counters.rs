//! Deterministic-counter gate for the code caches.
//!
//! The guest kernel keeps its `r0`-relative save slots in the same page
//! as its trap vectors, so every syscall stores into a page that holds
//! cached code. Invalidation is judged by the bytes a store overlaps,
//! not by its page, and these counts say so: they repeat exactly from
//! run to run, so they are asserted, not archived. Before the rule was
//! write-precise the same workloads compiled one superblock and took
//! one invalidation of each kind *per syscall*.
//!
//! The counters must not simply go quiet either: a guest that patches
//! an instruction it later executes takes its invalidation — once, not
//! once per store.
//!
//! The same goes for what an exit costs, by count: a guest syscall is
//! a `gate`, seven privileged instructions of its handler and an `rfi`,
//! and how often that makes the host leave the run loop (`run_entries`),
//! go round the dispatcher (`dispatches`) or hop between traces
//! (`chain_hops`) is deterministic — and so is how often the user loop
//! around it hops, and how many returns stay in their trace
//! (`ret_inline`). Times are archived (`BENCH_interpreter.json`); these
//! gate.
//!
//! And for how much code runs cold: whatever the jit has not compiled
//! it steps through the reference interpreter, several times dearer per
//! instruction than a trace, so the share of retirements made there and
//! the number of traces compiled are pinned at what was measured.
//!
//! And for what a load, a store, a return and a hop between traces cost
//! inside a frame: each has a fast answer that is valid while the
//! execution context stands (the data-page map, the trace-to-trace
//! links) and a full path behind it, and which one ran is counted
//! (`data_fast` / `data_slow`, `link_hits` of `chain_hops`,
//! `ret_cache_hits` / `ret_cache_misses`, `data_map_flushes`). The full
//! path is for the first touch of a page or an exit in a context —
//! nothing that grows with the run, not even the stores each syscall
//! makes into the page the kernel's vectors are in.
//!
//! And for what a poll loop costs: the kernel's disk wait carries
//! nothing from one iteration into the next, so the jit retires most
//! of it in bulk (`spin_skipped`), while loops that count must run
//! every iteration.

use hvft::core::scenario::Scenario;
use hvft::guest::layout::RAM_BYTES;
use hvft::guest::workload::{CallStorm, Dhrystone, IoBench, Workload};
use hvft::guest::IoMode;
use hvft::hypervisor::bare::{BareExit, BareHost};
use hvft::hypervisor::cost::CostModel;
use hvft::hypervisor::hvguest::{HvConfig, HvEvent, HvGuest};
use hvft::isa::codec::encode;
use hvft::isa::instruction::{AluImmOp, Instruction};
use hvft::isa::reg::Reg;
use hvft::machine::cpu::{Cpu, Exit, LoadProgram};
use hvft::machine::exec::{ExecStats, ExecTier};
use hvft::machine::mem::{Memory, PAGE_SIZE};
use hvft::machine::tlb::{pte, TlbReplacement};
use hvft_sim::time::SimDuration;

fn dhrystone_every(iters: u32, syscall_every: u32) -> Dhrystone {
    Dhrystone {
        iters,
        syscall_every,
        ..Dhrystone::default()
    }
}

fn dhrystone(iters: u32) -> Dhrystone {
    dhrystone_every(iters, 6)
}

fn bare(workload: Dhrystone, tier: ExecTier) -> ExecStats {
    let image = workload.image().expect("image builds");
    let mut host = BareHost::new(&image, CostModel::functional(), RAM_BYTES, 16, 0);
    host.set_exec_tier(tier);
    let run = host.run(u64::MAX);
    assert!(
        matches!(run.exit, BareExit::Halted { .. }),
        "{:?}",
        run.exit
    );
    host.exec_stats()
}

fn hypervised(workload: Dhrystone, tier: ExecTier) -> ExecStats {
    let image = workload.image().expect("image builds");
    let config = HvConfig {
        exec_tier: tier,
        ..HvConfig::default()
    };
    let mut guest = HvGuest::new(&image, CostModel::functional(), config);
    loop {
        match guest.run(SimDuration::from_secs(10)) {
            HvEvent::EpochEnd => guest.begin_epoch(),
            HvEvent::Diag { code: 1, .. } => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    if let Some(gates) = workload.iters.checked_div(workload.syscall_every) {
        assert!(guest.stats().reflected > u64::from(gates), "gates ran");
    }
    guest.stats().exec
}

#[test]
fn syscalls_do_not_churn_the_code_caches() {
    for (what, run) in [
        ("bare", bare as fn(Dhrystone, ExecTier) -> _),
        ("hypervised", hypervised),
    ] {
        let exec = run(dhrystone(20_000), ExecTier::Jit);
        assert!(
            exec.superblocks_compiled < 100,
            "{what}: 3 333 syscalls must not recompile anything: {exec:?}"
        );
        assert_eq!(exec.jit_invalidations, 0, "{what}: {exec:?}");
        assert!(exec.jit_retired > 0, "{what}: the jit ran: {exec:?}");
    }
}

/// `workload` to its exit under the jit, bare or replicated (t = 1).
fn scenario(workload: impl Workload + 'static, bare: bool) -> ExecStats {
    let builder = Scenario::builder()
        .workload(workload)
        .exec_tier(ExecTier::Jit);
    let builder = if bare {
        builder.bare()
    } else {
        builder.functional_cost()
    };
    let report = builder.build().expect("valid configuration").run();
    assert!(report.exit.is_clean_exit(), "{:?}", report.exit);
    report.exec_stats()
}

/// The write-mode `IoBench` the disk-wait and cold-share gates run, bare
/// or replicated, under the jit.
fn io_bench(bare: bool) -> ExecStats {
    let io = IoBench {
        ops: 6,
        mode: IoMode::Write,
        num_blocks: 16,
        seed: 5,
        ..IoBench::default()
    };
    scenario(io, bare)
}

/// Recursion-heavy calls: a `ret` with two return sites.
fn callstorm(bare: bool) -> ExecStats {
    let calls = CallStorm {
        calls: 4_000,
        depth: 12,
        ..CallStorm::default()
    };
    scenario(calls, bare)
}

#[test]
fn cold_code_is_a_sliver_of_what_retires() {
    // (shape, counters, most cold retirements per million, most traces):
    // measured 1 952 / 10, 2 824 / 16, 119 / 9 and 347 / 7, plus a
    // small margin. A trace that stops compiling, or a loop that keeps
    // leaving for the dispatcher, shows here before it shows on a clock.
    for (what, exec, max_cold_ppm, max_compiled) in [
        (
            "bare dhrystone",
            bare(dhrystone(20_000), ExecTier::Jit),
            2_100,
            12,
        ),
        (
            "hypervised dhrystone",
            hypervised(dhrystone(20_000), ExecTier::Jit),
            3_000,
            18,
        ),
        ("bare io", io_bench(true), 150, 11),
        ("replicated io", io_bench(false), 400, 9),
    ] {
        let retired = exec.step_retired + exec.jit_retired;
        let cold_ppm = exec.step_retired * 1_000_000 / retired;
        assert!(
            cold_ppm <= max_cold_ppm,
            "{what}: {cold_ppm} of a million retirements ran cold: {exec:?}"
        );
        assert!(
            exec.superblocks_compiled <= max_compiled,
            "{what}: {exec:?}"
        );
    }
}

#[test]
fn a_syscall_stays_inside_the_run_loop() {
    // A `SYS_GETTIME` in every iteration minus the same iterations with
    // none: what the syscalls alone add. Before trap handlers ran as
    // traces each one cost the hypervised guest 8 run entries and 15
    // dispatcher turns (the bare guest 2 and 15); before the exits of
    // assist ops were served in-frame the `gate` still ended a frame
    // (and the bare `mftod` another). Now a syscall is a few hops
    // between traces by their links, and nothing else.
    const SYSCALLS: u32 = 20_000;
    for (what, run) in [
        ("hypervised", hypervised as fn(Dhrystone, ExecTier) -> _),
        ("bare", bare),
    ] {
        let every = run(dhrystone_every(SYSCALLS, 1), ExecTier::Jit);
        let never = run(dhrystone_every(SYSCALLS, 0), ExecTier::Jit);
        let per_syscall =
            |f: fn(&ExecStats) -> u64| (f(&every) as f64 - f(&never) as f64) / f64::from(SYSCALLS);
        let entries = per_syscall(|x| x.run_entries);
        let dispatches = per_syscall(|x| x.dispatches);
        let hops = per_syscall(|x| x.chain_hops);
        assert!(
            entries <= 0.02 && dispatches <= 0.02,
            "{what}: {entries} run entries, {dispatches} dispatches per syscall\n{every:?}\n{never:?}"
        );
        assert!(
            hops <= 4.0,
            "{what}: {hops} hops per syscall\n{every:?}\n{never:?}"
        );
        // A trap into the handler and the `rfi` out of it change the
        // PSW twice and nothing else: the data-page map keeps its
        // entries (the PSW key is in their tags), every hop of the
        // round trip goes by its link, and the handler's two stores
        // into the page its vectors are in go through the map (they
        // land beside the decoded bytes, not on them).
        let flushes = per_syscall(|x| x.data_map_flushes);
        let unlinked = per_syscall(|x| x.chain_hops - x.link_hits);
        let slow = per_syscall(|x| x.data_slow);
        assert!(
            flushes <= 0.001 && unlinked <= 0.01,
            "{what}: {flushes} map flushes, {unlinked} unlinked hops per syscall\n{every:?}\n{never:?}"
        );
        assert!(
            slow <= 0.001,
            "{what}: {slow} full-path accesses per syscall\n{every:?}\n{never:?}"
        );
    }
}

#[test]
fn dhrystone_iterations_without_a_syscall_do_not_hop() {
    // The user loop around a syscall is one trace: the `gate` does not
    // end it and `u_leaf`'s `ret` is a guarded return, so the branch
    // that skips the syscall stays in-span. Hops come from syscalls
    // alone — as many per syscall as `a_syscall_stays_inside_the_run_loop`
    // counts — plus a warm-up constant.
    const ITERS: u32 = 24_000;
    for (what, run) in [
        ("hypervised", hypervised as fn(Dhrystone, ExecTier) -> _),
        ("bare", bare),
    ] {
        let per_syscall = {
            let every = run(dhrystone_every(ITERS, 1), ExecTier::Jit);
            let never = run(dhrystone_every(ITERS, 0), ExecTier::Jit);
            (every.chain_hops as f64 - never.chain_hops as f64) / f64::from(ITERS)
        };
        let sixth = run(dhrystone_every(ITERS, 6), ExecTier::Jit);
        let (syscalls, skipping) = (f64::from(ITERS / 6), f64::from(ITERS - ITERS / 6));
        let hops = (sixth.chain_hops as f64 - per_syscall * syscalls) / skipping;
        assert!(
            hops <= 0.01,
            "{what}: {hops} hops per iteration without a syscall \
             ({per_syscall} per syscall)\n{sixth:?}"
        );
        // `u_leaf`'s return, every iteration past the warm-up.
        assert!(
            sixth.ret_inline * 100 >= u64::from(ITERS) * 99,
            "{what}: {sixth:?}"
        );
    }
}

#[test]
fn data_accesses_hops_and_returns_take_their_fast_paths() {
    // Measured: 26 / 10 / 33 full-path accesses without a syscall in
    // sight (first touches), 6–38 hops without a link, 8–27 returns
    // without one — constants of the warm-up, whatever the run length.
    for (what, exec) in [
        ("bare dhrystone", bare(dhrystone(20_000), ExecTier::Jit)),
        (
            "hypervised dhrystone",
            hypervised(dhrystone(20_000), ExecTier::Jit),
        ),
        ("bare callstorm", callstorm(true)),
        ("replicated callstorm", callstorm(false)),
        ("bare io", io_bench(true)),
        ("replicated io", io_bench(false)),
    ] {
        let slow = exec.data_slow;
        assert!(
            exec.data_fast as f64 >= 0.999 * (exec.data_fast + slow) as f64,
            "{what}: {slow} of {} data accesses took the full path: {exec:?}",
            exec.data_fast + slow
        );
        let unlinked = exec.chain_hops - exec.link_hits;
        assert!(
            unlinked <= 50 && exec.link_hits * 100 >= exec.chain_hops.saturating_sub(50) * 99,
            "{what}: {unlinked} of {} hops found no link: {exec:?}",
            exec.chain_hops
        );
        assert!(
            exec.ret_cache_misses <= 40,
            "{what}: returns keep missing their links: {exec:?}"
        );
        assert!(exec.data_map_flushes <= 16, "{what}: {exec:?}");
    }
    // The recursive `ret` alternates between the outer call site and
    // its own; one link per `jalr` evicted the dominant one every time
    // round (hit ratio 0.889, 2 misses in 15). The leaf and far calls
    // return inside their caller's trace.
    for (what, exec) in [("bare", callstorm(true)), ("replicated", callstorm(false))] {
        let answered = exec.ret_cache_hits + exec.ret_inline;
        let returns = answered + exec.ret_cache_misses;
        assert!(
            returns > 50_000 && answered as f64 >= 0.999 * returns as f64,
            "{what} callstorm: {exec:?}"
        );
        assert!(exec.ret_inline >= 7_900, "{what} callstorm: {exec:?}");
    }
}

#[test]
fn the_data_page_map_books_the_tlb_hits_it_stood_in_for() {
    // Two loads and two stores per turn, translation on. Whatever
    // answered them, the TLB's hit counter reads what the full path
    // would have counted: four per turn — plus the one counted
    // translation per dispatch, per unlinked hop and per unlinked
    // return that the *fetch* side makes.
    const TURNS: u64 = 10_000;
    let prog = hvft::isa::asm::assemble(
        "l: lw r4, 8(r27)\n sw r4, 12(r27)\n lbu r5, 1(r27)\n sb r5, 2(r27)\n \
         addi r6, r6, 1\n jal r0, l\n",
    )
    .expect("asm");
    let mut mem = Memory::new(4 * PAGE_SIZE as usize);
    let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
    prog.load_into_cpu(&mut cpu, &mut mem);
    cpu.set_exec_tier(ExecTier::Jit);
    cpu.set_reg(Reg::of(27), 2 * PAGE_SIZE);
    for base in (0..4).map(|page| page * PAGE_SIZE) {
        cpu.tlb
            .insert_pte(base, base | pte::V | pte::R | pte::W | pte::X);
    }
    cpu.psw.translation = true;
    assert_eq!(cpu.run(&mut mem, 6 * 100), Exit::Retired, "warm-up");
    let (hits, stats) = (cpu.tlb.stats().0, cpu.exec_stats());
    // In two budgets, so a frame ends and another begins in between.
    assert_eq!(cpu.run(&mut mem, 6 * TURNS / 2), Exit::Retired);
    assert_eq!(cpu.run(&mut mem, 6 * TURNS / 2), Exit::Retired);
    let after = cpu.exec_stats();
    let fetch_side = (after.dispatches - stats.dispatches)
        + (after.chain_hops - after.link_hits - (stats.chain_hops - stats.link_hits))
        + (after.ret_cache_misses - stats.ret_cache_misses);
    assert_eq!(
        (
            after.data_fast - stats.data_fast,
            after.data_slow - stats.data_slow
        ),
        (4 * TURNS, 0),
        "the map answered every access: {after:?}"
    );
    assert_eq!(fetch_side, 2, "one dispatch per budget: {after:?}");
    assert_eq!(cpu.tlb.stats().0 - hits, 4 * TURNS + fetch_side);
}

#[test]
fn a_disk_wait_does_not_hop_between_traces() {
    // The kernel's wait loop is closed by a jump and re-entered
    // mid-body after every interrupt. Wherever its trace starts, the
    // spin must iterate in-frame: a trace that ends one op short of its
    // own entry and leaves through `chain!` every time still retires
    // everything in the jit and dispatches nothing — only the hops
    // tell (about one per two instructions, then).
    for (what, bare) in [("bare", true), ("replicated", false)] {
        let exec = io_bench(bare);
        let retired = exec.jit_retired + exec.step_retired;
        assert!(
            exec.jit_retired as f64 >= 0.99 * retired as f64,
            "{what}: the wait runs compiled: {exec:?}"
        );
        let hops = exec.chain_hops as f64 / retired as f64;
        assert!(
            hops < 0.05,
            "{what}: {hops} chain hops per instruction: {exec:?}"
        );
    }
}

#[test]
fn a_disk_wait_retires_in_bulk_and_nothing_else_does() {
    // The wait (`lw; beq` on the completion flag) carries nothing from
    // one iteration into the next, so after one whole iteration the
    // jit retires the rest of the grant's iterations in one step. The
    // loops of Dhrystone and CallStorm count: none of them may skip.
    for (what, bare) in [("bare", true), ("replicated", false)] {
        let exec = io_bench(bare);
        let retired = exec.jit_retired + exec.step_retired;
        assert!(
            exec.spin_skipped as f64 >= 0.9 * retired as f64,
            "{what} io: {} of {retired} retired in bulk: {exec:?}",
            exec.spin_skipped
        );
        assert!(exec.spin_skipped <= exec.jit_retired, "{what} io: {exec:?}");
    }
    for (what, exec) in [
        ("bare dhrystone", bare(dhrystone(20_000), ExecTier::Jit)),
        (
            "hypervised dhrystone",
            hypervised(dhrystone(20_000), ExecTier::Jit),
        ),
        ("bare callstorm", callstorm(true)),
        ("replicated callstorm", callstorm(false)),
    ] {
        assert_eq!(exec.spin_skipped, 0, "{what}: {exec:?}");
    }
}

#[test]
fn a_replicated_run_compiles_each_superblock_once() {
    let report = Scenario::builder()
        .workload(dhrystone(20_000))
        .functional_cost()
        .exec_tier(ExecTier::Jit)
        .build()
        .expect("valid configuration")
        .run();
    assert!(report.exit.is_clean_exit() && report.lockstep_clean);
    assert_eq!(report.replica_stats.len(), 2);
    for (replica, stats) in report.replica_stats.iter().enumerate() {
        let exec = stats.exec;
        assert!(stats.simulated > 20_000, "replica {replica}: handlers ran");
        assert!(
            exec.superblocks_compiled < 100,
            "replica {replica}: {exec:?}"
        );
        assert_eq!(exec.jit_invalidations, 0, "replica {replica}: {exec:?}");
    }
}

/// A kernel-shaped page: a hot routine, and a save slot it stores to on
/// every call, in the *same* page. Mid-run the caller patches one
/// instruction of the routine, once.
const PATCHING_GUEST: &str = ".org 0
start:
    addi r22, r0, 200        ; loop counter
    lw   r21, 1024(r0)       ; replacement word (poked by the test)
outer:
    jal  ra, routine
    addi r23, r22, -100
    bne  r23, r0, nopatch
    sw   r21, 256(r0)        ; patch `slot`, once, mid-hot-loop
nopatch:
    addi r22, r22, -1
    bne  r22, r0, outer
    halt

    .org 256
routine:
slot:
    addi r20, r20, 1         ; becomes: addi r20, r20, 100
    sw   r20, 1028(r0)       ; a save slot beside the code, every call
    jalr r0, ra, 0
";

#[test]
fn a_real_patch_is_still_counted_and_only_that() {
    let patched = encode(Instruction::AluImm {
        op: AluImmOp::Addi,
        rd: Reg::of(20),
        rs1: Reg::of(20),
        imm: 100,
    })
    .unwrap();
    let image = hvft::isa::asm::assemble(PATCHING_GUEST).expect("asm");
    for tier in [ExecTier::Step, ExecTier::Jit] {
        let mut host = BareHost::new(&image, CostModel::functional(), RAM_BYTES, 16, 0);
        host.set_exec_tier(tier);
        host.mem.write_u32(1024, patched).unwrap();
        let run = host.run(100_000);
        assert!(
            matches!(run.exit, BareExit::Halted { .. }),
            "{:?}",
            run.exit
        );
        // Calls with r22 = 200..=100 add 1 (101 calls), 99..=1 add 100.
        assert_eq!(host.cpu.reg(Reg::of(20)), 101 + 99 * 100, "{tier}");
        if tier == ExecTier::Jit {
            // The routine is hot: the patch lands on a compiled trace.
            let exec = host.exec_stats();
            assert!(
                (1..=4).contains(&exec.jit_invalidations),
                "one patch, 200 data stores: {exec:?}"
            );
            assert!(exec.superblocks_compiled >= 2, "recompiled: {exec:?}");
        }
    }
}
