//! End-to-end integration tests through the umbrella crate's public
//! API — every run configured through the `Scenario` builder.

use hvft::core::scenario::{Runner, Scenario, ScenarioBuilder};
use hvft::devices::check_single_processor_consistency;
use hvft::guest::workload::{Dhrystone, Hello, IoBench};
use hvft::guest::{IoMode, KernelConfig};
use hvft::net::link::LinkSpec;
use hvft::sim::time::{SimDuration, SimTime};

fn io_workload(ops: u32, mode: IoMode, num_blocks: u32, seed: u32) -> IoBench {
    IoBench {
        ops,
        mode,
        num_blocks,
        seed,
        ..Default::default()
    }
}

#[test]
fn the_full_stack_holds_together() {
    // Assemble a guest with every subsystem in play: timer ticks, user
    // mode, syscalls, console output, and disk I/O — then run it bare
    // and replicated and compare the guest-visible world.
    let workload = IoBench {
        ops: 4,
        mode: IoMode::Write,
        num_blocks: 32,
        seed: 5,
        kernel: KernelConfig {
            tick_period_us: 2000,
            tick_work: 5,
            ..KernelConfig::default()
        },
    };
    let bare = Scenario::builder()
        .workload(workload)
        .bare()
        .disk_blocks(32)
        .build()
        .unwrap()
        .run();
    let bare_code = bare.exit.code().expect("bare run exits");

    let r = Scenario::builder()
        .workload(workload)
        .functional_cost()
        .disk_blocks(32)
        .build()
        .unwrap()
        .run();
    assert_eq!(r.exit.code(), Some(bare_code));
    assert!(r.lockstep_clean);
    check_single_processor_consistency(&r.disk_log).unwrap();
}

#[test]
fn replicated_disk_state_matches_bare_disk_state() {
    let workload = io_workload(5, IoMode::Write, 16, 2);
    let run = |builder: ScenarioBuilder| -> Runner {
        let mut runner = builder
            .workload(workload)
            .disk_blocks(16)
            .build()
            .unwrap()
            .runner();
        runner.run();
        runner
    };
    let mut bare = run(Scenario::builder().bare());
    let mut ft = run(Scenario::builder().functional_cost());

    // Every block either matches or was never written by this workload.
    let bare_disk = &mut bare.bare_mut().expect("bare runner").disk;
    let ft_disk = ft.ft_mut().expect("replicated runner").disk_mut();
    for b in 0..16 {
        assert_eq!(
            bare_disk.peek_block(b),
            ft_disk.peek_block(b),
            "block {b} differs between bare and replicated runs"
        );
    }
}

#[test]
fn failover_mid_read_preserves_data_flow() {
    let workload = io_workload(4, IoMode::Read, 16, 9);
    let scenario = |fail_at: Option<SimTime>| {
        let mut b = Scenario::builder()
            .workload(workload)
            .functional_cost()
            .disk_blocks(16);
        if let Some(at) = fail_at {
            b = b.fail_primary_at(at);
        }
        b.build().unwrap()
    };
    // Prefill so the checksum is non-trivial.
    let prefill = |runner: &mut Runner| {
        let pattern: Vec<u8> = (0..hvft::devices::BLOCK_SIZE)
            .map(|i| ((i * 7) % 251) as u8)
            .collect();
        let disk = runner.ft_mut().expect("replicated runner").disk_mut();
        for b in 0..16 {
            disk.poke_block(b, &pattern);
        }
    };
    let mut probe = scenario(None).runner();
    prefill(&mut probe);
    let pr = probe.run();
    let ref_code = pr.exit.code().expect("probe run exits");

    // Kill during the read phase.
    let mut runner = scenario(Some(SimTime::ZERO + pr.completion_time * 2 / 3)).runner();
    prefill(&mut runner);
    let r = runner.run();
    assert!(!r.failovers.is_empty());
    assert_eq!(
        r.exit.code(),
        Some(ref_code),
        "read data must survive failover"
    );
    check_single_processor_consistency(&r.disk_log).unwrap();
}

#[test]
fn both_protocol_variants_survive_failover() {
    use hvft::core::ProtocolVariant;
    let workload = io_workload(3, IoMode::Write, 16, 4);
    let mut probe = Scenario::builder()
        .workload(workload)
        .functional_cost()
        .disk_blocks(16)
        .build()
        .unwrap()
        .runner();
    let pr = probe.run();
    let ref_code = pr.exit.code().expect("probe run exits");
    for protocol in [ProtocolVariant::Old, ProtocolVariant::New] {
        let mut runner = Scenario::builder()
            .workload(workload)
            .functional_cost()
            .disk_blocks(16)
            .protocol(protocol)
            .fail_primary_at(SimTime::ZERO + pr.completion_time / 2)
            .build()
            .unwrap()
            .runner();
        let r = runner.run();
        assert!(!r.failovers.is_empty(), "{protocol:?}: no failover");
        assert_eq!(r.exit.code(), Some(ref_code), "{protocol:?}");
        check_single_processor_consistency(&r.disk_log)
            .unwrap_or_else(|e| panic!("{protocol:?}: {e}"));
        // The strongest environment check: the medium ends up in exactly
        // the state the failure-free run produced.
        let probe_disk = probe.ft_mut().expect("replicated").disk_mut();
        let run_disk = runner.ft_mut().expect("replicated").disk_mut();
        for b in 0..16 {
            assert_eq!(
                probe_disk.peek_block(b),
                run_disk.peek_block(b),
                "{protocol:?}: block {b} differs from failure-free run"
            );
        }
    }
}

#[test]
fn atm_link_beats_ethernet_under_real_costs() {
    let workload = Dhrystone {
        iters: 10_000,
        syscall_every: 0,
        kernel: KernelConfig {
            tick_period_us: 10_000,
            tick_work: 20,
            ..KernelConfig::default()
        },
    };
    let run = |link: LinkSpec| {
        Scenario::builder()
            .workload(workload)
            .link(link)
            .lockstep(false)
            .epoch_len(1024)
            .build()
            .unwrap()
            .run()
            .completion_time
    };
    let eth = run(LinkSpec::ethernet_10mbps());
    let atm = run(LinkSpec::atm_155mbps());
    assert!(atm < eth, "ATM {atm} must beat Ethernet {eth}");
}

#[test]
fn console_transparency_under_failover_subsequence() {
    let msg = "the quick brown fox jumps over the lazy dog";
    let workload = Hello {
        message: msg.into(),
        wait_ticks: 2,
        kernel: KernelConfig {
            tick_period_us: 500,
            tick_work: 0,
            ..KernelConfig::default()
        },
    };
    let total = Scenario::builder()
        .workload(workload.clone())
        .functional_cost()
        .build()
        .unwrap()
        .run()
        .completion_time;

    for frac in [4u64, 2, 1] {
        let r = Scenario::builder()
            .workload(workload.clone())
            .functional_cost()
            .fail_primary_at(SimTime::from_nanos(total.as_nanos() * frac / 5))
            .build()
            .unwrap()
            .run();
        assert_eq!(r.exit.code(), Some(42), "{:?}", r.exit);
        let out = String::from_utf8_lossy(&r.console).into_owned();
        // In-order subsequence (fire-and-forget output may lose bytes in
        // the failover epoch, but never reorders or invents them).
        let mut it = msg.chars();
        assert!(
            out.chars().all(|c| it.any(|m| m == c)),
            "output is not a subsequence: {out:?}"
        );
    }
}

#[test]
fn detector_timeout_scales_run_length() {
    // A larger detector timeout delays promotion but changes nothing
    // else.
    let workload = Dhrystone {
        iters: 2_000,
        syscall_every: 0,
        kernel: KernelConfig::default(),
    };
    let pr = Scenario::builder()
        .workload(workload)
        .functional_cost()
        .build()
        .unwrap()
        .run();
    let ref_code = pr.exit.code().expect("probe run exits");

    let mut ends = Vec::new();
    for timeout_ms in [10u64, 40] {
        let r = Scenario::builder()
            .workload(workload)
            .functional_cost()
            .fail_primary_at(SimTime::ZERO + pr.completion_time / 2)
            .detector_timeout(SimDuration::from_millis(timeout_ms))
            .build()
            .unwrap()
            .run();
        assert_eq!(r.exit.code(), Some(ref_code));
        ends.push(r.completion_time);
    }
    assert!(
        ends[0] < ends[1],
        "longer timeout must delay completion: {ends:?}"
    );
}

#[test]
fn a_guest_dma_address_outside_ram_is_refused_not_a_panic() {
    // A raw guest points the disk's DMA address at a block that does not
    // fit in RAM — straddling its end, or past it — and issues GO, alone
    // or while an operation it started on a block in RAM is in flight.
    // It then polls the status until the last operation is over and
    // exits with it. The controller refuses such a GO the way the disk
    // refuses one — UNCERTAIN and a disk interrupt — on the bare machine
    // and under replication alike: it reaches no disk and leaves the
    // operation in flight to complete as it would have.
    use hvft::devices::mmio::{self, disk_cmd, disk_status};
    use hvft::guest::layout::RAM_BYTES;
    use hvft::machine::mem::IO_BASE;
    for addr in [RAM_BYTES as u32 - 4, RAM_BYTES as u32 + 0x1000] {
        for cmd in [disk_cmd::READ, disk_cmd::WRITE] {
            for busy in [false, true] {
                let first = if busy { RAM_BYTES as u32 / 2 } else { 0 };
                let last = if busy {
                    disk_status::DONE
                } else {
                    disk_status::UNCERTAIN
                };
                let image = hvft::isa::asm::assemble(&format!(
                    ".org 0
start:
    li   r4, {IO_BASE}
    addi r6, r0, {cmd}
    li   r5, {first}
    beq  r5, r0, refused
    sw   r5, {reg_addr}(r4)
    sw   r6, {reg_cmd}(r4)   ; the disk is busy with this one
refused:
    li   r5, {addr}
    sw   r5, {reg_addr}(r4)
    sw   r6, {reg_cmd}(r4)
    addi r8, r0, {last}
wait:
    lw   r7, {reg_status}(r4)
    bne  r7, r8, wait
    diag r7, 1
    halt
",
                    reg_addr = mmio::DISK_REG_ADDR,
                    reg_cmd = mmio::DISK_REG_CMD,
                    reg_status = mmio::DISK_REG_STATUS,
                ))
                .expect("asm");
                for builder in [Scenario::builder().bare(), Scenario::builder()] {
                    let report = builder
                        .image(image.clone())
                        .functional_cost()
                        .build()
                        .expect("a valid scenario")
                        .run();
                    let what = format!("{addr:#x}, command {cmd}, busy {busy}");
                    assert_eq!(report.exit.code(), Some(last), "{what}: {:?}", report.exit);
                    let ops = report.disk_log.len();
                    assert_eq!(ops, usize::from(busy), "{what}: {:?}", report.disk_log);
                }
            }
        }
    }
}
