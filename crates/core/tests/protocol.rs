//! Integration tests of the replica-coordination protocols (P1–P7).
//! All runs are assembled through the `Scenario` builder — the single
//! front door since the legacy constructors were removed.

use hvft_core::scenario::{ExitStatus, Protocol, RunReport, Scenario, ScenarioBuilder};
use hvft_devices::disk::check_single_processor_consistency;
use hvft_guest::{
    build_image, dhrystone_source, hello_source, io_bench_source, IoMode, KernelConfig,
};
use hvft_isa::program::Program;
use hvft_sim::time::{SimDuration, SimTime};

/// Functional cost model keeps tests quick; protocol behaviour is
/// identical.
fn fast(image: &Program) -> ScenarioBuilder {
    Scenario::builder().image(image.clone()).functional_cost()
}

fn cpu_image(iters: u32) -> Program {
    build_image(
        &KernelConfig {
            tick_period_us: 2000,
            tick_work: 3,
            ..KernelConfig::default()
        },
        &dhrystone_source(iters, 10),
    )
    .expect("image builds")
}

fn io_image(ops: u32, mode: IoMode) -> Program {
    build_image(&KernelConfig::default(), &io_bench_source(ops, mode, 64, 7)).expect("image builds")
}

fn code_of(r: &RunReport) -> u32 {
    match r.exit {
        ExitStatus::Exit(code) => code,
        other => panic!("expected a clean exit, got {other:?}"),
    }
}

#[test]
fn cpu_workload_lockstep_is_clean() {
    let r = fast(&cpu_image(1200)).build().unwrap().run();
    assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
    assert!(r.lockstep_clean);
    assert!(
        r.lockstep_compared > 2,
        "compared only {} epochs",
        r.lockstep_compared
    );
    assert!(r.failovers.is_empty());
}

#[test]
fn ft_checksum_matches_bare_hardware() {
    // The same image must compute the identical checksum on bare
    // hardware and under replication — transparency in both directions.
    let image = cpu_image(200);
    let bare = Scenario::builder()
        .image(image.clone())
        .bare()
        .build()
        .unwrap()
        .run();
    let bare_code = code_of(&bare);
    let r = fast(&image).build().unwrap().run();
    assert_eq!(code_of(&r), bare_code, "FT checksum differs from bare");
}

#[test]
fn epoch_length_does_not_change_results() {
    let image = cpu_image(150);
    let mut codes = Vec::new();
    for epoch_len in [512, 1024, 4096, 16384] {
        let r = fast(&image).epoch_len(epoch_len).build().unwrap().run();
        assert!(r.lockstep_clean, "EL={epoch_len} diverged");
        codes.push(code_of(&r));
    }
    assert!(
        codes.windows(2).all(|w| w[0] == w[1]),
        "checksums vary with epoch length: {codes:?}"
    );
}

#[test]
fn disk_write_workload_under_replication() {
    let r = fast(&io_image(6, IoMode::Write)).build().unwrap().run();
    assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
    assert!(r.lockstep_clean);
    assert_eq!(r.disk_log.len(), 6);
    assert!(
        r.disk_log.iter().all(|e| e.host == 0),
        "only the primary touches the disk"
    );
    check_single_processor_consistency(&r.disk_log).expect("environment consistency");
    assert_eq!(r.op_latencies.len(), 6);
}

#[test]
fn disk_read_workload_under_replication() {
    let scenario = fast(&io_image(5, IoMode::Read)).build().unwrap();
    let mut runner = scenario.runner();
    // Pre-fill the shared medium so reads return observable data.
    let pattern: Vec<u8> = (0..hvft_devices::disk::BLOCK_SIZE)
        .map(|i| (i % 13) as u8)
        .collect();
    {
        let sys = runner.ft_mut().expect("replicated driver");
        for b in 0..64 {
            sys.disk_mut().poke_block(b, &pattern);
        }
    }
    let r = runner.run();
    assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
    assert!(r.lockstep_clean, "read data must reach both replicas");
    assert_eq!(r.disk_log.len(), 5);
}

#[test]
fn console_output_comes_from_primary_only() {
    let image = build_image(
        &KernelConfig {
            tick_period_us: 500,
            tick_work: 0,
            ..KernelConfig::default()
        },
        &hello_source("ft says hi\n", 2),
    )
    .unwrap();
    let r = fast(&image).build().unwrap().run();
    assert_eq!(r.exit, ExitStatus::Exit(42));
    assert_eq!(String::from_utf8_lossy(&r.console), "ft says hi\n");
    assert_eq!(r.console_hosts, vec![0], "backup output must be suppressed");
}

#[test]
fn new_protocol_produces_identical_results() {
    let image = cpu_image(200);
    let run = |protocol| fast(&image).protocol(protocol).build().unwrap().run();
    let old = run(Protocol::Old);
    let new = run(Protocol::New);
    assert!(old.lockstep_clean && new.lockstep_clean);
    assert_eq!(code_of(&old), code_of(&new));
}

#[test]
fn new_protocol_is_faster_with_real_costs() {
    // Table 1's headline: dropping the boundary ack-wait helps,
    // most of all for CPU-intensive workloads.
    let image = cpu_image(400);
    let run = |protocol| {
        Scenario::builder()
            .image(image.clone())
            .protocol(protocol)
            .epoch_len(1024)
            .build()
            .unwrap()
            .run()
    };
    let old = run(Protocol::Old);
    let new = run(Protocol::New);
    assert!(
        new.completion_time < old.completion_time,
        "new {} should beat old {}",
        new.completion_time,
        old.completion_time
    );
}

#[test]
fn failover_mid_cpu_run_is_transparent() {
    let image = cpu_image(400);
    // Reference: failure-free run.
    let ref_r = fast(&image).build().unwrap().run();
    let ref_code = code_of(&ref_r);

    // Kill the primary mid-run.
    let r = fast(&image)
        .fail_primary_at(SimTime::from_nanos(ref_r.completion_time.as_nanos() / 2))
        .build()
        .unwrap()
        .run();
    let failover = *r.failovers.first().expect("failover must have happened");
    assert!(failover.at > SimTime::ZERO);
    assert_eq!(
        code_of(&r),
        ref_code,
        "promoted backup must produce the identical checksum"
    );
}

#[test]
fn failover_during_disk_write_retries_uncertainly() {
    let image = io_image(6, IoMode::Write);
    // Run once to learn the timing, then kill the primary in the middle
    // of the I/O phase.
    let probe = fast(&image).build().unwrap().run();
    let total = probe.completion_time;

    let r = fast(&image)
        .fail_primary_at(SimTime::from_nanos(total.as_nanos() / 2))
        .build()
        .unwrap()
        .run();
    assert!(!r.failovers.is_empty(), "no failover: {:?}", r.exit);
    assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
    // The environment saw a single-processor-consistent sequence even if
    // commands were repeated after the uncertain interrupt.
    check_single_processor_consistency(&r.disk_log)
        .unwrap_or_else(|e| panic!("environment saw an anomaly: {e}\nlog: {:#?}", r.disk_log));
    // All six logical writes completed from the guest's point of view.
    assert_eq!(code_of(&r), code_of(&probe));
}

#[test]
fn failover_sweep_never_breaks_consistency() {
    // Kill the primary at many different points; every run must end with
    // the reference checksum and a legal environment log.
    let image = io_image(3, IoMode::Write);
    let probe = fast(&image).build().unwrap().run();
    let total_ns = probe.completion_time.as_nanos();
    let ref_code = code_of(&probe);

    for k in 1..10 {
        let t = total_ns * k / 10;
        let r = fast(&image)
            .fail_primary_at(SimTime::from_nanos(t))
            .build()
            .unwrap()
            .run();
        assert_eq!(
            code_of(&r),
            ref_code,
            "fail at {t} ns: checksum mismatch ({:?})",
            r.failovers
        );
        check_single_processor_consistency(&r.disk_log)
            .unwrap_or_else(|e| panic!("fail at {t} ns: {e}"));
    }
}

#[test]
fn console_failover_hands_off_once() {
    // A long console workload killed mid-way: output must be a prefix
    // from host 0 then a suffix from host 1, with the byte stream intact.
    let image = build_image(
        &KernelConfig {
            tick_period_us: 500,
            tick_work: 0,
            ..KernelConfig::default()
        },
        &hello_source("abcdefghijklmnopqrstuvwxyz", 3),
    )
    .unwrap();
    let total = fast(&image).build().unwrap().run().completion_time;

    let r = fast(&image)
        .fail_primary_at(SimTime::from_nanos(total.as_nanos() / 3))
        .build()
        .unwrap()
        .run();
    assert_eq!(r.exit, ExitStatus::Exit(42));
    let s = String::from_utf8_lossy(&r.console).into_owned();
    // The console is our one fire-and-forget device: bytes the primary
    // had not yet emitted when it died, but that fell inside epochs the
    // backup executed with suppression, are lost — the paper's protocols
    // protect request/completion I/O (via P7 retries), not blind output.
    // What must hold: the stream is an in-order subsequence of the
    // expected text with at most one host switch.
    assert!(
        is_subsequence(&s, "abcdefghijklmnopqrstuvwxyz"),
        "console bytes out of order or alien: {s:?}"
    );
    assert!(
        s.starts_with('a'),
        "primary's prefix must be present: {s:?}"
    );
    assert!(r.console_hosts.len() <= 2);
}

fn is_subsequence(needle: &str, hay: &str) -> bool {
    let mut it = hay.chars();
    needle.chars().all(|c| it.any(|h| h == c))
}

#[test]
fn divergence_detector_fires_without_tlb_management() {
    // Reproduce the paper's HP 9000/720 surprise: with hypervisor TLB
    // management disabled and non-deterministic replacement, the two
    // replicas' instruction streams drift apart and the lockstep checker
    // must notice.
    let image = cpu_image(400);
    let r = fast(&image)
        .tlb_managed(false)
        .tlb_slots(4) // tiny TLB forces frequent replacement
        .build()
        .unwrap()
        .run();
    assert!(
        !r.lockstep_clean,
        "expected divergence with unmanaged non-deterministic TLBs (compared {} epochs)",
        r.lockstep_compared
    );
}

#[test]
fn managed_tlb_stays_clean_even_when_tiny() {
    let image = cpu_image(400);
    let r = fast(&image)
        .tlb_managed(true)
        .tlb_slots(4)
        .build()
        .unwrap()
        .run();
    assert!(r.lockstep_clean);
    assert!(r.exit.is_clean_exit());
}

#[test]
fn transient_disk_faults_are_retried_by_the_guest() {
    let image = io_image(8, IoMode::Write);
    let r = fast(&image)
        .disk_fault_prob(0.3)
        .seed(11)
        .build()
        .unwrap()
        .run();
    assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
    assert!(
        r.guest_retries > 0,
        "with 30% fault injection some retries must happen"
    );
    assert!(
        r.lockstep_clean,
        "retries are part of the replicated stream"
    );
    check_single_processor_consistency(&r.disk_log).expect("consistency under faults");
    assert!(r.disk_log.len() > 8, "retries must appear in the log");
}

#[test]
fn interrupt_forwarding_counts_messages() {
    let image = cpu_image(200);
    let r = fast(&image).build().unwrap().run();
    let (from_primary, from_backup) = (r.messages_per_replica[0], r.messages_per_replica[1]);
    // Per epoch: [Tme] + [end] from the primary, at least one ack back.
    assert!(from_primary as i64 >= 2 * r.lockstep_compared as i64 - 2);
    assert!(from_backup > 0);
}

#[test]
fn failure_before_any_epoch_promotes_backup_from_start() {
    let image = cpu_image(100);
    let r = fast(&image)
        .fail_primary_at(SimTime::from_nanos(1_000))
        // Keep the detector snappy so the test is fast.
        .detector_timeout(SimDuration::from_millis(5))
        .build()
        .unwrap()
        .run();
    assert!(!r.failovers.is_empty());
    assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
}

#[test]
fn observer_records_failover_timeline() {
    use hvft_core::observer::Observer;
    use hvft_core::system::FailoverInfo;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, PartialEq)]
    enum Mark {
        Failstopped(usize, SimTime),
        Failover(FailoverInfo),
    }
    struct Timeline(Rc<RefCell<Vec<Mark>>>);
    impl Observer for Timeline {
        fn replica_failstopped(&mut self, replica: usize, at: SimTime) {
            self.0.borrow_mut().push(Mark::Failstopped(replica, at));
        }
        fn failover(&mut self, info: &FailoverInfo) {
            self.0.borrow_mut().push(Mark::Failover(*info));
        }
    }

    let image = io_image(3, IoMode::Write);
    let total = fast(&image).build().unwrap().run().completion_time;
    let fail_at = SimTime::from_nanos(total.as_nanos() / 2);

    let scenario = fast(&image).fail_primary_at(fail_at).build().unwrap();
    let marks = Rc::new(RefCell::new(Vec::new()));
    let mut runner = scenario.runner();
    runner.add_observer(Box::new(Timeline(Rc::clone(&marks))));
    let r = runner.run();

    let marks = marks.borrow();
    let [Mark::Failstopped(0, t1), Mark::Failover(info)] = marks[..] else {
        panic!("expected the primary's failstop, then one promotion: {marks:?}");
    };
    assert_eq!(t1, fail_at, "the failstop fires at its scheduled instant");
    assert!(info.at > t1, "detection takes time: {info:?} vs {t1}");
    assert_eq!(r.failovers, [info], "the hook sees the report's record");
    let stats = runner.ft_mut().expect("replicated driver").run_stats();
    assert_eq!((stats.failstops, stats.failovers), (1, 1));
}

#[test]
fn user_privileged_instruction_is_fatal_via_guest_kernel() {
    // A user program attempting `halt` must be killed by the guest
    // kernel's PrivilegedOp handler — on both replicas identically.
    let user = format!(
        ".org {utext:#x}\nu_main:\n    halt\n",
        utext = hvft_guest::layout::USER_TEXT
    );
    let image = build_image(&KernelConfig::default(), &user).unwrap();
    let r = fast(&image).build().unwrap().run();
    match r.exit {
        ExitStatus::Fatal(Some(2)) => {} // kernel fatal code 2 = privileged op
        other => panic!("expected kernel fatal, got {other:?}"),
    }
    assert!(r.lockstep_clean);
}

#[test]
fn unknown_syscall_is_fatal_via_guest_kernel() {
    let user = format!(
        ".org {utext:#x}\nu_main:\n    gate 999\n    halt\n",
        utext = hvft_guest::layout::USER_TEXT
    );
    let image = build_image(&KernelConfig::default(), &user).unwrap();
    let r = fast(&image).build().unwrap().run();
    match r.exit {
        ExitStatus::Fatal(Some(9)) => {} // kernel fatal code 9 = bad syscall
        other => panic!("expected kernel fatal, got {other:?}"),
    }
}

#[test]
fn user_access_to_unmapped_page_is_fatal() {
    // Touching an address beyond the boot page table: the TLB miss walks
    // to an invalid PTE and the guest's no-map path fires (fatal code 8),
    // identically on both replicas whether the hypervisor or the guest
    // handles the miss.
    let user = format!(
        ".org {utext:#x}\nu_main:\n    li r4, 0x00300000\n    lw r5, 0(r4)\n    halt\n",
        utext = hvft_guest::layout::USER_TEXT
    );
    let image = build_image(&KernelConfig::default(), &user).unwrap();
    for tlb_managed in [true, false] {
        let r = fast(&image).tlb_managed(tlb_managed).build().unwrap().run();
        match r.exit {
            ExitStatus::Fatal(Some(8)) => {}
            other => panic!("tlb_managed={tlb_managed}: expected no-map fatal, got {other:?}"),
        }
    }
}

/// P6 then P7 for one operation: a backup holds the dead primary's
/// buffered disk completion `[E, Int]` for epoch `E` and is promoted
/// at `E`'s boundary with the operation still counted as outstanding,
/// as `FtSystem::failover` counts it (it reads its in-flight record
/// before the engine delivers anything). P6 delivers the completion;
/// P7 must not then synthesize an uncertain one for the same
/// operation, or the guest re-issues a disk operation that completed.
/// Today the engine emits both, so this witness panics; it stays
/// pinned until survivor reconciliation (ROADMAP C1(a)) fixes it.
#[test]
#[should_panic(expected = "a delivered completion and an uncertain one")]
fn a_buffered_completion_is_not_also_synthesized_uncertain() {
    use hvft_core::messages::{DiskCompletion, ForwardedInterrupt, Message};
    use hvft_core::protocol::{Effect, Input, ReplicaEngine};
    use hvft_core::ProtocolVariant;
    use hvft_devices::mmio::disk_status;
    use hvft_hypervisor::vclock::VClock;
    use hvft_machine::trap::irq;

    let completion = ForwardedInterrupt {
        irq_bits: irq::DISK,
        disk: Some(DiskCompletion {
            status: disk_status::DONE,
            data: None,
        }),
    };
    let mut backup = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
    let mut out = Vec::new();
    let msg = Message::Interrupt {
        seq: 1,
        epoch: 0,
        interrupt: completion.clone(),
    };
    backup.step(Input::Message { from: 0, msg }, &mut out);
    let vclock = VClock::new();
    backup.step(Input::Boundary { epoch: 0, vclock }, &mut out);
    out.clear();
    let promote = Input::Promote {
        vclock: VClock::new(),
        outstanding_io: true,
        survivors: vec![],
    };
    backup.step(promote, &mut out);
    let delivered = out.contains(&Effect::DeliverInterrupt(completion));
    assert!(delivered, "P6 delivers the buffered completion: {out:?}");
    assert!(
        !out.contains(&Effect::SynthesizeUncertain),
        "P7 after P6: a delivered completion and an uncertain one for one operation"
    );
}
