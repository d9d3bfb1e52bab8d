//! Integration tests for the §4.3 lossy-LAN mode: message loss plus
//! link-level retransmission must be invisible to the guest and the
//! environment. All runs are assembled through the `Scenario` builder —
//! the single front door since the legacy constructors were removed.

use hvft_core::scenario::{ClusterScenario, ConfigError, ExitStatus, Scenario, ScenarioBuilder};
use hvft_core::ProtocolVariant;
use hvft_guest::{
    build_image, dhrystone_source, hello_source, io_bench_source, IoMode, KernelConfig,
};
use hvft_isa::program::Program;
use hvft_net::link::LinkSpec;
use hvft_sim::time::{SimDuration, SimTime};

fn base(image: &Program) -> ScenarioBuilder {
    Scenario::builder().image(image.clone()).functional_cost()
}

fn lossy(image: &Program, p: f64) -> ScenarioBuilder {
    base(image)
        .lossy(p)
        .retransmit(SimDuration::from_millis(5))
        // Detection must dominate worst-case recovery: retransmission
        // bursts arrive at most 4 × 5 ms apart (backoff cap), so a
        // 300 ms timeout only fires after ~15 consecutive losses on
        // one link (p ≈ 0.2¹⁵ at the 20% loss rate probed here).
        .detector_timeout(SimDuration::from_millis(300))
}

/// Guest-visible behaviour of a run: what the environment can observe.
fn observable(builder: ScenarioBuilder) -> (String, Vec<u8>, bool) {
    let r = builder.build().expect("valid scenario").run();
    (format!("{:?}", r.exit), r.console, r.lockstep_clean)
}

#[test]
fn cpu_run_is_loss_transparent() {
    let kernel = KernelConfig {
        tick_period_us: 2000,
        tick_work: 3,
        ..KernelConfig::default()
    };
    let image = build_image(&kernel, &dhrystone_source(2_000, 7)).unwrap();
    let clean = observable(lossy(&image, 0.0));
    let lossy_run = observable(lossy(&image, 0.2));
    assert_eq!(
        clean, lossy_run,
        "loss 0.2 + retransmission must be invisible"
    );
    assert!(clean.2, "lockstep hashes stay clean");
}

#[test]
fn io_run_is_loss_transparent() {
    let image = build_image(
        &KernelConfig::default(),
        &io_bench_source(6, IoMode::Write, 32, 4),
    )
    .unwrap();
    assert_eq!(
        observable(lossy(&image, 0.0)),
        observable(lossy(&image, 0.2))
    );
}

#[test]
fn console_stream_is_loss_transparent() {
    let image = build_image(&KernelConfig::default(), &hello_source("lossy hello\n", 2)).unwrap();
    let r = lossy(&image, 0.25).build().unwrap().run();
    assert_eq!(r.exit, ExitStatus::Exit(42));
    assert_eq!(r.console, b"lossy hello\n");
}

#[test]
fn loss_actually_drops_and_recovers() {
    let kernel = KernelConfig {
        tick_period_us: 2000,
        tick_work: 3,
        ..KernelConfig::default()
    };
    let image = build_image(&kernel, &dhrystone_source(2_000, 7)).unwrap();
    let r = lossy(&image, 0.2).build().unwrap().run();
    assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
    assert!(
        r.frames_retransmitted > 0,
        "a 20% loss rate must trigger retransmissions"
    );
    assert!(
        r.frames_suppressed > 0,
        "retransmission must occasionally duplicate (lost acks)"
    );
    // And the lossless run of the same config retransmits nothing.
    let rc = lossy(&image, 0.0).build().unwrap().run();
    assert_eq!(rc.frames_retransmitted, 0);
    assert_eq!(rc.frames_suppressed, 0);
}

#[test]
fn failover_under_loss_is_transparent() {
    // Kill the primary mid-run while the network is dropping messages:
    // the survivor must still produce the reference checksum.
    let kernel = KernelConfig {
        tick_period_us: 2000,
        tick_work: 2,
        ..KernelConfig::default()
    };
    let image = build_image(&kernel, &dhrystone_source(2_000, 7)).unwrap();
    let reference = observable(lossy(&image, 0.0));
    for backups in [1usize, 2] {
        let r = lossy(&image, 0.2)
            .backups(backups)
            .fail_primary_at(SimTime::from_nanos(3_000_000))
            .build()
            .unwrap()
            .run();
        assert_eq!(r.failovers.len(), 1, "t = {backups}");
        assert_eq!(
            format!("{:?}", r.exit),
            reference.0,
            "t = {backups}: survivor must match the loss-free reference"
        );
        assert_eq!(r.console, reference.1, "t = {backups}");
    }
}

#[test]
fn loss_without_retransmission_is_rejected() {
    let image = build_image(&KernelConfig::default(), &hello_source("x", 1)).unwrap();
    let err = base(&image).lossy(0.1).build().unwrap_err();
    assert_eq!(err, ConfigError::LossWithoutRetransmit);
}

/// What a lossy run's wire did, in numbers that move with any change
/// to a loss draw, a serialization clock or a retransmit timer:
/// `(completion ns, messages per replica, retransmitted, suppressed)`.
fn wire_pattern(r: &hvft_core::scenario::RunReport) -> (u64, Vec<u64>, u64, u64) {
    (
        r.completion_time.as_nanos(),
        r.messages_per_replica.clone(),
        r.frames_retransmitted,
        r.frames_suppressed,
    )
}

fn pinned_image() -> Program {
    let kernel = KernelConfig {
        tick_period_us: 2000,
        tick_work: 3,
        ..KernelConfig::default()
    };
    build_image(&kernel, &io_bench_source(6, IoMode::Write, 32, 4)).unwrap()
}

/// The exact loss pattern of a lossy `t = 2` solo run under each
/// protocol. Every directed link draws its losses from its own RNG,
/// seeded by the link's place among the `n × (n − 1)` links, and owns
/// its serialization clock; a slip in either moves these numbers.
#[test]
fn solo_loss_pattern_is_pinned() {
    let image = pinned_image();
    let pinned = [
        (
            ProtocolVariant::Old,
            (330_314_401, vec![334, 161, 155], 135, 52),
        ),
        (
            ProtocolVariant::New,
            (8_175_344_165, vec![39_102, 18_138, 18_972], 28_680, 20_659),
        ),
    ];
    for (protocol, want) in pinned {
        let r = lossy(&image, 0.2)
            .backups(2)
            .protocol(protocol)
            .seed(7)
            .build()
            .unwrap()
            .run();
        assert!(r.exit.is_clean_exit(), "{protocol:?}: {:?}", r.exit);
        assert_eq!(wire_pattern(&r), want, "{protocol:?}");
    }
}

/// The exact loss pattern of a lossy two-shard cluster on one shared
/// medium, whose one serialization clock couples the shards.
#[test]
fn cluster_loss_pattern_is_pinned() {
    let image = pinned_image();
    let mut cluster = ClusterScenario::new(LinkSpec::ethernet_10mbps(), 5);
    for shard in 0..2u64 {
        let scenario = lossy(&image, 0.2).seed(11 + shard).build().unwrap();
        cluster.add(scenario).unwrap();
    }
    let (reports, lan) = cluster.run_with_lan_stats();
    let want = [
        (233_873_587, vec![187, 184], 64, 21),
        (310_207_810, vec![204, 206], 79, 35),
    ];
    for (shard, (r, want)) in reports.iter().zip(want).enumerate() {
        assert!(r.exit.is_clean_exit(), "shard {shard}: {:?}", r.exit);
        assert_eq!(wire_pattern(r), want, "shard {shard}");
    }
    assert_eq!(
        (lan.sent, lan.dropped, lan.delivered, lan.bytes),
        (781, 161, 616, 37_402)
    );
}
