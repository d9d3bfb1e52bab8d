//! The configuration fuzzer: every configuration a user can write either
//! fails `build()` (or `ClusterScenario::add`) with a `ConfigError`, or
//! runs to its reports.
//!
//! A case draws one solo `Scenario` (bare, replicated or chain) or a
//! `ClusterScenario` of one to four shards, over: shards and `t`;
//! protocol and cost model; link, loss and retransmission; the detector
//! timeout; failstop and rejoin schedules, replica indices out of range
//! among them; a checkpoint barrier; the NIC queue bound; and the TLB.
//! Workloads are small and the instruction limit bounds every run.
//!
//! A panic fails the property unless its message is one of `PINNED`:
//! defects already known, each with a `#[should_panic]` witness that
//! stays until the defect is fixed. The configurations that reach them
//! stay in the draw space, so a fix shows up as a witness that no
//! longer panics. None is pinned today.

use hvft::core::scenario::{ClusterScenario, Protocol, Scenario, ScenarioBuilder};
use hvft::guest::workload::{Dhrystone, Hello, IoBench};
use hvft::guest::{IoMode, KernelConfig};
use hvft::net::link::LinkSpec;
use hvft::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Panic messages of known defects, each pinned by a witness.
const PINNED: &[&str] = &[];

/// One shard's (or the solo scenario's) drawn knobs.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    workload: u8,
    io_ops: u32,
    io_blocks: u32,
    backups: usize,
    new_protocol: bool,
    functional: bool,
    link: u8,
    loss: u8,
    retransmit_us: u64,
    detector: u8,
    nic_bound_us: u64,
    tlb_slots: usize,
    tlb_managed: bool,
    disk_blocks: u32,
    seed: u64,
}

/// One drawn fault: a kind (primary, replica, rejoin or none), when,
/// and which replica.
type FaultDraw = (u8, u64, usize);

fn knobs() -> impl Strategy<Value = Knobs> {
    (
        (
            0u8..3,
            1u32..5,
            1u32..33,
            (prop::bool::weighted(0.05), 1usize..5),
            any::<bool>(),
        ),
        (any::<bool>(), 0u8..3, 0u8..3, 0u64..3_000),
        (0u8..4, 0u64..3_000, 0usize..33, any::<bool>()),
        (0u32..40, any::<u64>()),
    )
        .prop_map(
            |(
                (workload, io_ops, io_blocks, (no_backups, backups), new_protocol),
                (functional, link, loss, retransmit_us),
                (detector, nic_bound_us, tlb_slots, tlb_managed),
                (disk_blocks, seed),
            )| Knobs {
                workload,
                io_ops,
                io_blocks,
                backups: if no_backups { 0 } else { backups },
                new_protocol,
                functional,
                link,
                loss,
                retransmit_us,
                detector,
                nic_bound_us,
                tlb_slots,
                tlb_managed,
                disk_blocks,
                seed,
            },
        )
}

fn link(k: u8) -> LinkSpec {
    match k {
        0 => LinkSpec::ethernet_10mbps(),
        1 => LinkSpec::atm_155mbps(),
        _ => LinkSpec::instant(),
    }
}

/// The builder one set of knobs and faults describes; `driver` picks
/// bare (0), chain (1) or replicated (anything else).
fn builder(k: &Knobs, driver: u8, faults: &[FaultDraw]) -> ScenarioBuilder {
    let kernel = KernelConfig::default();
    let b = Scenario::builder();
    let mut b = match k.workload {
        0 => b.workload(Hello {
            message: "up\n".into(),
            wait_ticks: 1,
            kernel,
        }),
        1 => b.workload(Dhrystone {
            iters: 60 * k.io_ops,
            syscall_every: 5,
            kernel,
        }),
        _ => b.workload(IoBench {
            ops: k.io_ops,
            mode: if k.io_blocks.is_multiple_of(2) {
                IoMode::Read
            } else {
                IoMode::Write
            },
            num_blocks: k.io_blocks,
            seed: k.seed as u32,
            kernel,
        }),
    };
    b = match driver {
        0 => b.bare(),
        1 => b.chain(),
        _ => b,
    };
    // `backups(0)` is a configuration error everywhere but bare, where
    // any `backups(..)` is one: a bare draw names it one time in five.
    if k.backups != 1 && (driver != 0 || k.backups == 4) {
        b = b.backups(k.backups);
    }
    b = b
        .protocol(if k.new_protocol {
            Protocol::New
        } else {
            Protocol::Old
        })
        .link(link(k.link))
        .seed(k.seed)
        .tlb_managed(k.tlb_managed)
        .max_insns(3_000_000)
        .max_epochs(2_000);
    if k.functional {
        b = b.functional_cost();
    }
    match k.loss {
        0 => {}
        1 => b = b.lossy(0.05),
        _ => b = b.lossy(0.2),
    }
    // One draw in three keeps the raw channel (no retransmission).
    let retransmit = k.retransmit_us >= 1_000;
    if retransmit {
        b = b.retransmit(SimDuration::from_micros(k.retransmit_us));
    }
    let mut detector = match k.detector {
        0 => None,
        1 => Some(SimDuration::from_micros(800)),
        2 => Some(SimDuration::from_millis(300)),
        _ => Some(SimDuration::from_micros(k.retransmit_us * 32)),
    };
    // `build()` asks a detector to outlast 32 retransmission timeouts
    // only under loss. A lossless run with the reliable layer on and a
    // shorter detector builds and never finishes, so the draw keeps to
    // the lossy rule there.
    if k.loss == 0 && retransmit {
        let floor = SimDuration::from_micros(k.retransmit_us * 32);
        detector = Some(detector.map_or(floor, |d| d.max(floor)));
    }
    if let Some(d) = detector {
        b = b.detector_timeout(d);
    }
    // One draw in four bounds the NIC queue (from 1 µs up).
    if k.nic_bound_us < 750 {
        b = b.nic_queue_bound(SimDuration::from_micros(1 + k.nic_bound_us));
    }
    if k.tlb_slots < 32 {
        b = b.tlb_slots(k.tlb_slots);
    }
    if k.disk_blocks > 0 {
        b = b.disk_blocks(k.disk_blocks);
    }
    // The chain schedules failstops by epoch; a timed failstop or a
    // rejoin there is a configuration error, drawn one time in six.
    for &(kind, at_us, replica) in faults {
        let at = SimTime::from_nanos(at_us * 1_000);
        b = match (kind, driver) {
            (4.., _) => b,
            (0..=2, 1) => b.fail_primary_at_epoch(at_us / 100),
            (0, _) => b.fail_primary_at(at),
            (1, _) => b.fail_replica_at(at, replica),
            (2, _) => b.rejoin_replica_at(at, replica),
            (_, _) => b.fail_primary_at_epoch(at_us / 100),
        };
    }
    b
}

/// Builds and runs one drawn configuration: a solo scenario when
/// `solo` (with a checkpoint barrier if drawn), else a cluster of
/// `shards.len()` shards. `Ok` when it ran or a `ConfigError` turned it
/// away, `Err` when a run broke a promise without panicking.
fn build_and_run(
    solo: bool,
    driver: u8,
    checkpoint_us: Option<u64>,
    shards: &[(Knobs, Vec<FaultDraw>)],
) -> Result<(), String> {
    if solo {
        let (k, faults) = &shards[0];
        let Ok(scenario) = builder(k, driver, faults).build() else {
            return Ok(());
        };
        let mut runner = scenario.runner();
        if let (Some(at), Some(sys)) = (checkpoint_us, runner.ft_mut()) {
            sys.schedule_checkpoint(SimTime::from_nanos(at * 1_000));
        }
        runner.run();
        for ck in runner.ft_mut().map_or(&[][..], |sys| sys.checkpoints()) {
            if ck.at < ck.requested {
                return Err(format!("checkpoint at {} before {}", ck.at, ck.requested));
            }
        }
        return Ok(());
    }
    let mut cluster = ClusterScenario::new(link(shards[0].0.link), shards[0].0.seed);
    for (i, (k, faults)) in shards.iter().enumerate() {
        // Shard 0 takes the drawn driver, which `add` must refuse
        // unless it is the replicated one.
        let driver = if i == 0 { driver } else { 2 };
        let Ok(scenario) = builder(k, driver, faults).build() else {
            return Ok(());
        };
        if cluster.add(scenario).is_err() {
            return Ok(());
        }
    }
    let reports = cluster.run();
    if reports.len() != shards.len() {
        return Err(format!(
            "{} reports for {} shards",
            reports.len(),
            shards.len()
        ));
    }
    Ok(())
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_configuration_is_refused_or_runs_to_a_report(
        // 0: a solo scenario; 1..=4: that many shards on one LAN.
        shards in 0usize..5,
        // 0: bare, 1: chain, else replicated.
        driver in 0u8..8,
        checkpoint in (any::<bool>(), 0u64..20_000),
        drawn in prop::collection::vec(
            (knobs(), prop::collection::vec((0u8..7, 0u64..20_000, 0usize..5), 0..3)),
            4,
        ),
    ) {
        let checkpoint_us = checkpoint.0.then_some(checkpoint.1);
        let drawn = &drawn[..shards.max(1)];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            build_and_run(shards == 0, driver, checkpoint_us, drawn)
        }));
        match outcome {
            Ok(result) => {
                if let Err(e) = result {
                    return Err(TestCaseError::fail(e));
                }
            }
            Err(payload) => {
                let msg = panic_text(&*payload);
                prop_assert!(
                    PINNED.iter().any(|p| msg.contains(p)),
                    "unpinned panic: {msg}\nshards {shards}, driver {driver}, \
                     checkpoint {checkpoint_us:?}: {drawn:#?}"
                );
            }
        }
    }
}

/// Four disk-bound shards at `t = backups` under the revised protocol,
/// functional costs, on one 10 Mbps Ethernet with the default 60 ms
/// detector.
fn io_cluster(mode: IoMode, backups: usize) -> ClusterScenario {
    let mut cluster = ClusterScenario::new(LinkSpec::ethernet_10mbps(), 1);
    for _ in 0..4 {
        let shard = Scenario::builder()
            .workload(IoBench {
                ops: 4,
                mode,
                num_blocks: 16,
                ..Default::default()
            })
            .backups(backups)
            .protocol(Protocol::New)
            .functional_cost()
            .build()
            .expect("valid shard");
        cluster.add(shard).expect("replicated shard");
    }
    cluster
}

/// Runs `cluster` and checks that every shard runs to a clean report,
/// and that contention on the shared wire still delays a primary's
/// messages past a backup's detector (C7): no failstop is scheduled, so
/// every failover promoted a backup under a live primary. The disk's
/// completion once reached such a split brain's host with no GO on
/// record and panicked "completion without GO"; the disk now keeps the
/// one record of its operation.
fn runs_to_its_reports_despite_a_false_promotion(cluster: ClusterScenario) {
    let reports = cluster.run();
    for r in &reports {
        assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
    }
    assert!(
        reports.iter().any(|r| !r.failovers.is_empty()),
        "no shard failed over: {:?}",
        reports.iter().map(|r| &r.failovers).collect::<Vec<_>>()
    );
}

#[test]
fn four_write_shards_at_t2_run_to_their_reports() {
    runs_to_its_reports_despite_a_false_promotion(io_cluster(IoMode::Write, 2));
}

#[test]
fn four_read_shards_at_t2_run_to_their_reports() {
    runs_to_its_reports_despite_a_false_promotion(io_cluster(IoMode::Read, 2));
}

#[test]
fn four_read_shards_at_t4_run_to_their_reports() {
    runs_to_its_reports_despite_a_false_promotion(io_cluster(IoMode::Read, 4));
}
