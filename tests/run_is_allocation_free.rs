//! `Cpu::run` must not allocate once its caches are warm, and neither
//! must the lockstep digest and its checker at an epoch boundary, nor
//! the protocol engines' epoch exchange (the engine allocation gate).
//!
//! A trap-and-emulate embedder re-enters `Cpu::run` after every
//! privileged instruction of its guest — eight times per guest syscall
//! under the hypervisor — so anything `run` does per *entry* is paid
//! millions of times per second. For eight PRs every entry built and
//! dropped a fresh dispatcher (a 1 KiB `Box` and three `HashMap`s) and
//! nothing looked; this test looks.
//!
//! The counting allocator lives here, in a test crate of its own: every
//! library crate of the workspace keeps `#![forbid(unsafe_code)]`. The
//! count is per thread, so the harness's other threads cannot disturb
//! it.

use hvft::core::messages::Message;
use hvft::core::protocol::{Effect, Input, ReplicaEngine};
use hvft::core::scenario::Scenario;
use hvft::core::{FtSystem, LockstepChecker, ProtocolVariant};
use hvft::guest::{build_image, dhrystone_source, KernelConfig};
use hvft::hypervisor::cost::CostModel;
use hvft::hypervisor::hvguest::{HvConfig, HvEvent, HvGuest};
use hvft::hypervisor::vclock::VClock;
use hvft::isa::asm::assemble;
use hvft::machine::cpu::{Cpu, Exit, LoadProgram};
use hvft::machine::exec::ExecTier;
use hvft::machine::mem::{Memory, PAGE_SIZE};
use hvft::machine::statehash::vm_state_hash;
use hvft::machine::tlb::TlbReplacement;
use hvft::machine::trap::Trap;
use hvft_sim::time::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

thread_local! {
    /// Allocations and reallocations made by this thread. `const`
    /// initialised and without a destructor, so reading it from inside
    /// the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: a thread that is being torn down may still free.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn the_counter_counts() {
    let before = allocations();
    let boxed = std::hint::black_box(Box::new(7u64));
    assert_eq!(allocations(), before + 1);
    drop(boxed);
}

#[test]
fn trap_round_trips_do_not_allocate_on_any_tier() {
    const TRIPS: u32 = 10_000;
    // Privilege 1, like a guest kernel under the hypervisor: the
    // `mfctl` traps on every pass and the embedder skips it.
    let prog = assemble("l: addi r4, r4, 1\n mfctl r5, traparg\n jal r0, l\n").unwrap();
    for tier in [ExecTier::Step, ExecTier::Jit] {
        for skip in [false, true] {
            let mut mem = Memory::new(PAGE_SIZE as usize);
            let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
            prog.load_into_cpu(&mut cpu, &mut mem);
            cpu.set_exec_tier(tier);
            cpu.psw.cpl = 1;
            let mut trip = |cpu: &mut Cpu| {
                let exit = cpu.run(&mut mem, 1_000);
                assert!(matches!(exit, Exit::Trap(Trap::PrivilegedOp { .. })));
                if skip {
                    cpu.retire_skip();
                }
            };
            // Warm-up: cross the jit's promotion threshold, let every
            // table reach its working size.
            for _ in 0..1_000 {
                trip(&mut cpu);
            }
            let before = allocations();
            for _ in 0..TRIPS {
                trip(&mut cpu);
            }
            assert_eq!(
                allocations() - before,
                0,
                "{tier}, skip={skip}: {TRIPS} warm round trips allocated"
            );
            let expected = if skip {
                3 * u64::from(1_000 + TRIPS) - 1
            } else {
                1
            };
            assert_eq!(cpu.retired(), expected, "{tier}: the loop really ran");
        }
    }
}

#[test]
fn hypervised_syscalls_do_not_allocate_on_any_tier() {
    // The same question one layer up: the hypervisor lends its parts to
    // a hook for every `HvGuest::run` and simulates a handler's
    // privileged instructions inside the CPU's loop — by reference, not
    // by boxing anything.
    // 64 marks: the code a mark returns to is dispatched once per
    // mark and must be past the jit's promotion threshold too.
    const WARM_UP: u64 = 4_096;
    const SYSCALLS: u64 = 10_240;
    // Dhrystone with a `SYS_GETTIME` in every iteration, plus a
    // `SYS_MARK` in every 64th: the mark surfaces as an event, so every
    // `run` below returns at the same guest PC and a jit that is warm
    // stays warm (a pause at a new PC heats a new entry).
    let user = dhrystone_source((WARM_UP + SYSCALLS + 128) as u32, 1).replace(
        "u_nosys:\n",
        "u_nosys:\n    andi r22, r11, 63\n    bne  r22, r0, u_nomark\n    gate 6\nu_nomark:\n",
    );
    assert!(user.contains("u_nomark"), "the mark was spliced in");
    let image = build_image(&KernelConfig::default(), &user).expect("image builds");
    for tier in [ExecTier::Step, ExecTier::Jit] {
        let config = HvConfig {
            exec_tier: tier,
            // No epoch boundary inside the run, for the same reason.
            epoch_len: 1 << 30,
            ..HvConfig::default()
        };
        let mut guest = HvGuest::new(&image, CostModel::functional(), config);
        let run_marks = |guest: &mut HvGuest, marks: u64| {
            for _ in 0..marks {
                match guest.run(SimDuration::from_secs(10)) {
                    HvEvent::Diag { code: 2, .. } => {}
                    other => panic!("{tier}: unexpected event {other:?}"),
                }
            }
        };
        run_marks(&mut guest, WARM_UP / 64);
        let (before, stats) = (allocations(), *guest.stats());
        run_marks(&mut guest, SYSCALLS / 64);
        assert_eq!(
            allocations() - before,
            0,
            "{tier}: {SYSCALLS} warm syscalls allocated"
        );
        assert!(
            guest.stats().reflected - stats.reflected >= SYSCALLS
                && guest.stats().simulated - stats.simulated >= 7 * SYSCALLS,
            "{tier}: the handlers really ran"
        );
    }
}

#[test]
fn epoch_boundary_digests_and_comparisons_do_not_allocate() {
    // Two replicas of one Dhrystone image, digested and compared at
    // every boundary for well past the checker's retention window, so
    // the window's ring is reused and the digest caches are warm.
    const WARM_UP: u32 = 2_048;
    const BOUNDARIES: u32 = 2_048;
    let image =
        build_image(&KernelConfig::default(), &dhrystone_source(100_000, 6)).expect("image builds");
    let config = HvConfig {
        epoch_len: 256,
        ..HvConfig::default()
    };
    let mut replicas = [(); 2].map(|()| HvGuest::new(&image, CostModel::functional(), config));
    let mut checker = LockstepChecker::new();
    let mut boundary_allocations = 0;
    for epoch in 0..WARM_UP + BOUNDARIES {
        for (i, guest) in replicas.iter_mut().enumerate() {
            match guest.run(SimDuration::from_secs(10)) {
                HvEvent::EpochEnd => {}
                other => panic!("unexpected event {other:?}"),
            }
            let before = allocations();
            checker.record(i, guest.epoch(), vm_state_hash(&guest.cpu, &guest.mem));
            if epoch >= WARM_UP {
                boundary_allocations += allocations() - before;
            }
            guest.begin_epoch();
        }
    }
    assert_eq!(
        boundary_allocations, 0,
        "{BOUNDARIES} warm boundaries allocated"
    );
    assert!(checker.is_clean());
    assert_eq!(checker.compared(), u64::from(WARM_UP + BOUNDARIES));
    assert!(replicas[0].stats().digest_bytes > 0, "the digests read RAM");
}

#[test]
fn warm_engine_epochs_do_not_allocate() {
    // `t + 1` engines driven through whole epochs by hand: every
    // replica reaches its boundary, the primary asks for one I/O, and
    // the messages are delivered in FIFO order until everyone runs
    // again. Effects go to one reused buffer and the links to one
    // reused queue, so what is left to allocate is the engines' own.
    const WARM_UP: u64 = 64;
    const EPOCHS: u64 = 1_000;
    for t in [1, 2] {
        for variant in [ProtocolVariant::Old, ProtocolVariant::New] {
            let mut engines: Vec<ReplicaEngine> = (0..=t)
                .map(|i| match i {
                    0 => ReplicaEngine::new_primary(0, (1..=t).collect(), variant),
                    _ => ReplicaEngine::new_backup(i, 0, variant),
                })
                .collect();
            let mut out = Vec::new();
            let mut wire: VecDeque<(usize, usize, Message)> = VecDeque::new();
            let (mut started, mut released) = (0, 0);
            // Steps engine `i`, then delivers what is on the wire until
            // nothing is.
            let mut step = |engines: &mut [ReplicaEngine], i: usize, input: Input| {
                let mut next = Some((i, input));
                while let Some((i, input)) = next {
                    engines[i].step(input, &mut out);
                    for effect in out.drain(..) {
                        match effect {
                            Effect::Send { to, msg } => wire.push_back((i, to, msg)),
                            Effect::StartEpoch => started += 1,
                            Effect::ReleaseIo => released += 1,
                            _ => {}
                        }
                    }
                    next = wire
                        .pop_front()
                        .map(|(from, to, msg)| (to, Input::Message { from, msg }));
                }
            };
            let mut before = 0;
            for epoch in 0..WARM_UP + EPOCHS {
                if epoch == WARM_UP {
                    before = allocations();
                }
                for i in 0..=t {
                    let vclock = VClock::new();
                    step(&mut engines, i, Input::Boundary { epoch, vclock });
                }
                step(&mut engines, 0, Input::Io);
                assert!(engines.iter().all(ReplicaEngine::is_running));
            }
            assert_eq!(
                allocations() - before,
                0,
                "t={t}, {variant:?}: {EPOCHS} warm engine epochs allocated"
            );
            assert_eq!(started, (WARM_UP + EPOCHS) * (t as u64 + 1));
            assert_eq!(released, WARM_UP + EPOCHS);
        }
    }
}

/// Allocations over `EPOCHS` warm replica-epochs of a whole replicated
/// system — Dhrystone (its syscalls, no I/O), `backups` backups, on the
/// raw link or under the reliable layer — and the replica-epochs run.
fn warm_system_allocations(backups: usize, reliable: bool) -> (u64, u64) {
    // Per replica, long enough for the jit to have compiled every path
    // the guest ever takes: until then, a late first compile allocates.
    const WARM_UP: u64 = 16_384;
    const EPOCHS: u64 = 8_192;
    let image = build_image(&KernelConfig::default(), &dhrystone_source(1_000_000, 6))
        .expect("image builds");
    let mut builder = Scenario::builder()
        .image(image)
        .functional_cost()
        .epoch_len(1_024)
        .backups(backups);
    if reliable {
        builder = builder.retransmit(SimDuration::from_millis(5));
    }
    let mut runner = builder.build().expect("valid scenario").runner();
    let system = runner.ft_mut().expect("a replicated run");
    let step_to = |system: &mut FtSystem, epochs: u64| {
        while system.run_stats().epoch_boundaries < epochs {
            assert!(system.step().is_none(), "the run ended early");
        }
        system.run_stats().epoch_boundaries
    };
    let warm = step_to(system, WARM_UP * (1 + backups as u64));
    let before = allocations();
    let done = step_to(system, warm + EPOCHS);
    (allocations() - before, done - warm)
}

#[test]
fn warm_system_epochs_do_not_allocate() {
    // The whole driver around the engines: planning each step into the
    // system's own buffers, the medium's links and ready index, the
    // reliable layer's windows, the lockstep digests and the observers.
    for backups in [1, 2] {
        for reliable in [false, true] {
            let (allocated, epochs) = warm_system_allocations(backups, reliable);
            assert_eq!(
                allocated, 0,
                "t={backups}, reliable={reliable}: {epochs} warm replica-epochs allocated"
            );
        }
    }
}
