//! Property tests: failover transparency under *arbitrary* failure
//! times and environment seeds.
//!
//! The paper's correctness claim is universally quantified — "after the
//! primary's processor has failed, exactly one backup generates
//! interactions with the environment and in such a way that the
//! environment is unaware of the primary's failure". These properties
//! sample that space: whenever the primary is killed, and whatever
//! transient faults the disk injects, the promoted backup must finish
//! with the reference checksum and the environment must have seen what
//! the same run without the fault shows it, up to IO2's re-issues
//! (`environment_equivalent`).

use hvft::core::scenario::{Protocol, RunReport, Scenario, ScenarioBuilder};
use hvft::devices::disk::{block_digest, BLOCK_SIZE};
use hvft::devices::environment_equivalent;
use hvft::devices::mmio::{self, disk_cmd};
use hvft::guest::workload::{Dhrystone, IoBench};
use hvft::guest::{IoMode, KernelConfig};
use hvft::isa::program::Program;
use hvft::machine::mem::IO_BASE;
use hvft::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::OnceLock;

fn cpu_workload() -> Dhrystone {
    Dhrystone {
        iters: 2_000,
        syscall_every: 7,
        kernel: KernelConfig {
            tick_period_us: 2000,
            tick_work: 2,
            ..KernelConfig::default()
        },
    }
}

fn io_workload() -> IoBench {
    IoBench {
        ops: 3,
        mode: IoMode::Write,
        num_blocks: 16,
        seed: 13,
        ..Default::default()
    }
}

/// The failure-free run of a workload, and its checksum.
struct Reference {
    total_ns: u64,
    code: u32,
    report: RunReport,
}

fn reference(slot: &'static OnceLock<Reference>, scenario: Scenario) -> &'static Reference {
    slot.get_or_init(|| {
        let report = scenario.run();
        Reference {
            total_ns: report.completion_time.as_nanos(),
            code: report
                .exit
                .code()
                .unwrap_or_else(|| panic!("{:?}", report.exit)),
            report,
        }
    })
}

/// Fails the case unless `run` showed the environment what `reference`
/// did.
fn same_environment(
    reference: &RunReport,
    run: &RunReport,
    case: &str,
) -> Result<(), TestCaseError> {
    environment_equivalent(&reference.environment(), &run.environment())
        .map_err(|e| TestCaseError::fail(format!("{case}: {e}")))
}

fn cpu_reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    reference(
        &REF,
        Scenario::builder()
            .workload(cpu_workload())
            .functional_cost()
            .build()
            .unwrap(),
    )
}

fn io_reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    reference(
        &REF,
        Scenario::builder()
            .workload(io_workload())
            .functional_cost()
            .build()
            .unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn cpu_failover_is_checksum_transparent(frac in 1u64..1000) {
        let reference = cpu_reference();
        let t = reference.total_ns * frac / 1000;
        let r = Scenario::builder()
            .workload(cpu_workload())
            .functional_cost()
            .fail_primary_at(SimTime::from_nanos(t.max(1)))
            .build()
            .unwrap()
            .run();
        match r.exit.code() {
            Some(code) => prop_assert_eq!(code, reference.code),
            None => return Err(TestCaseError::fail(format!("fail at {t}: {:?}", r.exit))),
        }
        same_environment(&reference.report, &r, &format!("fail at {t}"))?;
    }

    #[test]
    fn io_failover_keeps_environment_consistent(
        frac in 1u64..1000,
        protocol_new in any::<bool>(),
    ) {
        let reference = io_reference();
        let t = reference.total_ns * frac / 1000;
        let r = Scenario::builder()
            .workload(io_workload())
            .functional_cost()
            .protocol(if protocol_new { Protocol::New } else { Protocol::Old })
            .fail_primary_at(SimTime::from_nanos(t.max(1)))
            .build()
            .unwrap()
            .run();
        match r.exit.code() {
            Some(code) => prop_assert_eq!(code, reference.code),
            None => return Err(TestCaseError::fail(format!("fail at {t}: {:?}", r.exit))),
        }
        same_environment(&reference.report, &r, &format!("fail at {t}"))?;
    }

    #[test]
    fn disk_faults_never_break_lockstep(fault_seed in 0u64..1_000, prob in 0.0f64..0.4) {
        let run = |prob| Scenario::builder()
            .workload(IoBench { ops: 2, mode: IoMode::Write, num_blocks: 8, seed: 21,
                                ..Default::default() })
            .functional_cost()
            .disk_fault_prob(prob)
            .seed(fault_seed)
            .build()
            .unwrap()
            .run();
        let r = run(prob);
        prop_assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
        prop_assert!(r.lockstep_clean);
        same_environment(&run(0.0), &r, &format!("fault probability {prob}"))?;
    }

    #[test]
    fn epoch_length_invariance(el_exp in 8u32..15) {
        // Checksums are independent of the epoch length (2^8 .. 2^14).
        let reference = cpu_reference();
        let r = Scenario::builder()
            .workload(cpu_workload())
            .functional_cost()
            .epoch_len(1 << el_exp)
            .build()
            .unwrap()
            .run();
        match r.exit.code() {
            Some(code) => prop_assert_eq!(code, reference.code),
            None => return Err(TestCaseError::fail(format!("EL=2^{el_exp}: {:?}", r.exit))),
        }
        prop_assert!(r.lockstep_clean);
    }
}

/// The busy-GO witness: a kernel-level image that writes the disk's GO
/// register a second time while its first write is still in flight —
/// block 1 from a buffer that starts `0xAAAA`, then block 2 from one that
/// starts `0xBBBB` — then waits out the first write (about 40 ms at
/// 50 MIPS against the disk's 26) and exits. The disk refuses the second
/// GO as busy. At `epoch_len` `1 << 22` one epoch holds the whole run,
/// so nothing is delivered before the exit.
fn busy_go_scenario(builder: ScenarioBuilder, epoch_len: u32) -> RunReport {
    let image = hvft::isa::asm::assemble(&format!(
        ".org 0
start:
    li   r4, {IO_BASE}
    li   r5, 0x10000
    li   r6, 0xAAAA
    sw   r6, 0(r5)
    li   r7, 0x20000
    li   r6, 0xBBBB
    sw   r6, 0(r7)
    addi r6, r0, {write}
    addi r8, r0, 1
    sw   r8, {reg_block}(r4)
    sw   r5, {reg_addr}(r4)
    sw   r6, {reg_cmd}(r4)
    addi r8, r0, 2
    sw   r8, {reg_block}(r4)
    sw   r7, {reg_addr}(r4)
    sw   r6, {reg_cmd}(r4)   ; the disk is busy with block 1
    li   r9, 1000000
wait:
    addi r9, r9, -1
    bne  r9, r0, wait
    diag r9, 1
    halt
",
        write = disk_cmd::WRITE,
        reg_block = mmio::DISK_REG_BLOCK,
        reg_addr = mmio::DISK_REG_ADDR,
        reg_cmd = mmio::DISK_REG_CMD,
    ))
    .expect("asm");
    run_image(builder, image, epoch_len)
}

fn run_image(builder: ScenarioBuilder, image: Program, epoch_len: u32) -> RunReport {
    builder
        .image(image)
        .functional_cost()
        .epoch_len(epoch_len)
        .build()
        .expect("a valid scenario")
        .run()
}

/// The bad-block witness: a kernel-level image that writes the disk's
/// GO register for a block off the medium, so the disk refuses it with
/// nothing in flight, then waits about 40 ms and exits.
fn bad_block_scenario(builder: ScenarioBuilder) -> RunReport {
    let image = hvft::isa::asm::assemble(&format!(
        ".org 0
start:
    li   r4, {IO_BASE}
    li   r5, 0x10000
    li   r8, 0xFFFF
    sw   r8, {reg_block}(r4)
    sw   r5, {reg_addr}(r4)
    addi r6, r0, {write}
    sw   r6, {reg_cmd}(r4)   ; the disk has no such block
    li   r9, 1000000
wait:
    addi r9, r9, -1
    bne  r9, r0, wait
    diag r9, 1
    halt
",
        write = disk_cmd::WRITE,
        reg_block = mmio::DISK_REG_BLOCK,
        reg_addr = mmio::DISK_REG_ADDR,
        reg_cmd = mmio::DISK_REG_CMD,
    ))
    .expect("asm");
    run_image(builder, image, 1 << 12)
}

/// A GO the disk refuses as busy must leave the operation in flight
/// alone: block 1 is written from the first buffer, on the bare machine
/// and replicated alike. (The replicated system once kept a per-host
/// copy of the operation, which the refused GO overwrote, and block 1
/// received block 2's data; both embedders now share the disk's one
/// record of it, so the bare run is checked against the first buffer
/// too.)
#[test]
fn a_go_refused_as_busy_leaves_the_write_in_flight_alone() {
    let bare = busy_go_scenario(Scenario::builder().bare(), 1 << 22);
    let replicated = busy_go_scenario(Scenario::builder(), 1 << 22);
    assert_eq!(bare.exit.code(), Some(0), "{:?}", bare.exit);
    assert_eq!(replicated.exit.code(), Some(0), "{:?}", replicated.exit);
    let mut first_buffer = vec![0; BLOCK_SIZE];
    first_buffer[..4].copy_from_slice(&0xAAAAu32.to_le_bytes());
    let [op] = &bare.disk_log[..] else {
        panic!("the second GO reached the disk: {:?}", bare.disk_log);
    };
    assert_eq!((op.block, op.data), (1, block_digest(&first_buffer)));
    environment_equivalent(&bare.environment(), &replicated.environment()).unwrap();
}

/// A GO the disk refuses as busy must leave the latency clock of the
/// write in flight alone: with short epochs the refusal's UNCERTAIN
/// answer reaches the guest long before the write completes, and the
/// run times the write — GO to completion — not the refusal.
#[test]
fn a_go_refused_as_busy_leaves_the_latency_clock_alone() {
    let r = busy_go_scenario(Scenario::builder(), 1 << 12);
    assert_eq!(r.exit.code(), Some(0), "{:?}", r.exit);
    assert_eq!(r.op_latencies, [SimDuration::from_nanos(26_562_240)]);
}

/// A GO the disk refuses with nothing in flight is timed alike at the
/// primary and at a backup, which cannot see the refusal: each times it
/// from its GO to the refusal's UNCERTAIN answer, so a failover after
/// the answer reports the primary's entry and the promoted backup's.
#[test]
fn a_bad_block_refusal_is_timed_at_primary_and_backup_alike() {
    let refusal = SimDuration::from_nanos(347_002);
    let r = bad_block_scenario(Scenario::builder());
    assert_eq!(r.exit.code(), Some(0), "{:?}", r.exit);
    assert_eq!(r.op_latencies, [refusal]);
    let failover = Scenario::builder().fail_primary_at(SimTime::from_nanos(20_000_000));
    let r = bad_block_scenario(failover);
    assert_eq!(r.exit.code(), Some(0), "{:?}", r.exit);
    assert_eq!(r.op_latencies, [refusal, SimDuration::from_nanos(455_003)]);
}
