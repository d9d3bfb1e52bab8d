//! Table-driven builder validation: every invalid `ScenarioBuilder`
//! combination must come back as the *right* structured [`ConfigError`]
//! variant — never a panic, never a wrong variant, and never a silent
//! acceptance that would hang or OOM a run later.

use hvft::core::scenario::{ConfigError, Scenario, ScenarioBuilder, MAX_DISK_BLOCKS};
use hvft::hypervisor::hvguest::HvConfig;
use hvft::machine::mem::{IO_BASE, PAGE_SIZE};
use hvft::sim::time::{SimDuration, SimTime};

/// Discriminant-level expectation (payloads are checked separately
/// where they matter).
fn variant(e: &ConfigError) -> &'static str {
    match e {
        ConfigError::MissingWorkload => "MissingWorkload",
        ConfigError::UnknownWorkload(_) => "UnknownWorkload",
        ConfigError::WorkloadImage(_) => "WorkloadImage",
        ConfigError::NoBackups => "NoBackups",
        ConfigError::LossWithoutRetransmit => "LossWithoutRetransmit",
        ConfigError::RejoinWithoutRetransmit => "RejoinWithoutRetransmit",
        ConfigError::DetectorTooShort { .. } => "DetectorTooShort",
        ConfigError::DiskTooLarge { .. } => "DiskTooLarge",
        ConfigError::EmptyDisk => "EmptyDisk",
        ConfigError::ZeroEpochLen => "ZeroEpochLen",
        ConfigError::NoSuchReplica { .. } => "NoSuchReplica",
        ConfigError::DriverMismatch(_) => "DriverMismatch",
        ConfigError::EmptyTlb => "EmptyTlb",
        ConfigError::OneSlotTlb => "OneSlotTlb",
        ConfigError::RamSize { .. } => "RamSize",
    }
}

fn wl() -> ScenarioBuilder {
    Scenario::builder().workload_named("dhrystone")
}

#[test]
fn every_invalid_combination_yields_its_config_error() {
    let cases: Vec<(&str, ScenarioBuilder, &str)> = vec![
        // The four combinations named in the issue…
        (
            "loss without retransmit",
            wl().lossy(0.2),
            "LossWithoutRetransmit",
        ),
        (
            "detector below 32x rto",
            wl().lossy(0.2)
                .retransmit(SimDuration::from_millis(5))
                .detector_timeout(SimDuration::from_millis(100)),
            "DetectorTooShort",
        ),
        ("zero backups", wl().backups(0), "NoBackups"),
        (
            "oversized disk",
            wl().disk_blocks(MAX_DISK_BLOCKS + 1),
            "DiskTooLarge",
        ),
        // …and the rest of the validation surface.
        ("no workload at all", Scenario::builder(), "MissingWorkload"),
        (
            "unknown workload name",
            Scenario::builder().workload_named("hyperbench-9000"),
            "UnknownWorkload",
        ),
        ("zero-block disk", wl().disk_blocks(0), "EmptyDisk"),
        ("zero epoch length", wl().epoch_len(0), "ZeroEpochLen"),
        (
            "backups on the bare driver",
            wl().bare().backups(2),
            "DriverMismatch",
        ),
        (
            "failstop on the bare driver",
            wl().bare().fail_primary_at(SimTime::from_nanos(1)),
            "DriverMismatch",
        ),
        (
            "epoch-scheduled failure on the DES driver",
            wl().fail_primary_at_epoch(3),
            "DriverMismatch",
        ),
        (
            "time-scheduled failure on the chain driver",
            wl().chain().fail_primary_at(SimTime::from_nanos(1)),
            "DriverMismatch",
        ),
        (
            "replica failstop on the chain driver",
            wl().chain().fail_replica_at(SimTime::from_nanos(1), 1),
            "DriverMismatch",
        ),
        (
            "chain with zero backups",
            wl().chain().backups(0),
            "NoBackups",
        ),
        (
            "lossy chain without retransmit",
            wl().chain().lossy(0.5),
            "LossWithoutRetransmit",
        ),
        (
            "NIC queue bound on the bare driver",
            wl().bare().nic_queue_bound(SimDuration::from_millis(1)),
            "DriverMismatch",
        ),
        (
            "NIC queue bound on the chain driver",
            wl().chain().nic_queue_bound(SimDuration::from_millis(1)),
            "DriverMismatch",
        ),
        (
            "rejoin schedule without the reliable layer",
            wl().rejoin_replica_at(SimTime::from_nanos(1_000_000), 1),
            "RejoinWithoutRetransmit",
        ),
        (
            "rejoin schedule on a chain run",
            wl().chain()
                .retransmit(SimDuration::from_micros(40))
                .rejoin_replica_at(SimTime::from_nanos(1_000_000), 1),
            "DriverMismatch",
        ),
        (
            "failstop of a replica the system does not have",
            wl().fail_replica_at(SimTime::from_nanos(1), 7),
            "NoSuchReplica",
        ),
        (
            "rejoin of a replica the system does not have",
            wl().backups(2)
                .retransmit(SimDuration::from_micros(40))
                .rejoin_replica_at(SimTime::from_nanos(1), 3),
            "NoSuchReplica",
        ),
        ("a TLB of no slots", wl().tlb_slots(0), "EmptyTlb"),
        (
            "a TLB of one slot, which livelocks",
            wl().tlb_slots(1),
            "OneSlotTlb",
        ),
        (
            "a TLB of no slots, through the hypervisor config",
            wl().chain().hv(HvConfig {
                tlb_slots: 0,
                ..HvConfig::default()
            }),
            "EmptyTlb",
        ),
        (
            "RAM over the I/O window",
            wl().hv(HvConfig {
                ram_bytes: IO_BASE as usize + PAGE_SIZE as usize,
                ..HvConfig::default()
            }),
            "RamSize",
        ),
        (
            "RAM smaller than the guest image",
            wl().bare().hv(HvConfig {
                ram_bytes: 4096,
                ..HvConfig::default()
            }),
            "RamSize",
        ),
    ];
    for (label, builder, expected) in cases {
        match builder.build() {
            Err(e) => {
                assert_eq!(
                    variant(&e),
                    expected,
                    "{label}: expected {expected}, got {e:?}"
                );
                // Every error renders a human-readable message.
                assert!(!e.to_string().is_empty(), "{label}: empty Display");
            }
            Ok(s) => panic!("{label}: accepted as {s:?}, expected {expected}"),
        }
    }
}

#[test]
fn detector_error_reports_the_required_bound() {
    let err = wl()
        .lossy(0.1)
        .retransmit(SimDuration::from_millis(7))
        .detector_timeout(SimDuration::from_millis(10))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ConfigError::DetectorTooShort {
            detector: SimDuration::from_millis(10),
            required: SimDuration::from_millis(7) * 32,
        }
    );
}

#[test]
fn disk_error_reports_the_bound() {
    let err = wl().disk_blocks(MAX_DISK_BLOCKS * 2).build().unwrap_err();
    assert_eq!(
        err,
        ConfigError::DiskTooLarge {
            blocks: MAX_DISK_BLOCKS * 2,
            max: MAX_DISK_BLOCKS,
        }
    );
}

#[test]
fn the_boundary_values_are_accepted() {
    // The validation must reject *invalid* configurations only: the
    // extreme-but-legal points all build.
    for builder in [
        wl().disk_blocks(MAX_DISK_BLOCKS),
        wl().disk_blocks(1),
        wl().epoch_len(1),
        wl().tlb_slots(2),
        wl().backups(5),
        wl().lossy(0.0), // zero loss needs no retransmission
        wl().lossy(0.3)
            .retransmit(SimDuration::from_millis(5))
            .detector_timeout(SimDuration::from_millis(5) * 32),
        wl().bare(),
        wl().chain().fail_primary_at_epoch(1),
        wl().nic_queue_bound(SimDuration::from_millis(1)),
    ] {
        builder.build().expect("legal boundary configuration");
    }
}
