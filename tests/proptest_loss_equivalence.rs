//! The headline lossy-LAN oracle: a multi-system cluster behaves
//! *identically* — exit codes, console streams, disk logs and final
//! disk media (`environment_equivalent`) — whether its shared LAN loses
//! no messages or loses 20% of them, as long as the ack/retransmission
//! layer is running.
//!
//! This is §4.3's claim made executable across the whole stack: the
//! protocol engines, the link-level reliable layer, the shared-medium
//! `Lan`, and the sharded cluster driver together hide message loss
//! from every guest and from the environment, for t = 1 and t = 2, with
//! and without primary failstops, under arbitrary workload mixes.
//! Simulated *time* is allowed to differ (retransmission costs air
//! time); simulated *behaviour* is not.
//!
//! Each shard runs the protocol variant the paper runs its workload
//! under — original §2 for the CPU-bound shard (its boundary ack-wait
//! is the flow control that keeps a shared medium stable) and the §4.3
//! revision for the I/O-bound shard (self-clocked by its disk
//! round-trips, the workload the revision was designed for). A fourth
//! shard, when drawn, runs an `hvft-lang` *generated* program: its
//! gate and branch mix is arbitrary, so its epoch boundaries land in
//! arbitrary spots, and the oracle must not care.

use hvft::core::scenario::{ClusterScenario, Protocol, RunReport, Scenario, ScenarioBuilder};
use hvft::devices::environment_equivalent;
use hvft::guest::workload::{Dhrystone, Hello, IoBench};
use hvft::guest::{CompiledWorkload, IoMode, KernelConfig};
use hvft::lang::genprog::GenConfig;
use hvft::net::link::LinkSpec;
use hvft::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// The shard workloads: one CPU-bound, one I/O-bound, one
/// console-chatty — every cluster mixes all three — and shard 3, a
/// program generated from `seed`. The per-shard protocol variants: §2
/// for the streaming CPU shard and the generated one, §4.3 for the
/// disk shard, caller's choice for the console shard.
fn shard_builder(i: usize, hello_new: bool, seed: u64) -> ScenarioBuilder {
    let b = Scenario::builder().functional_cost();
    match i {
        0 => b
            .workload(Dhrystone {
                iters: 1_200,
                syscall_every: 7,
                kernel: KernelConfig {
                    tick_period_us: 2000,
                    tick_work: 2,
                    ..KernelConfig::default()
                },
            })
            .protocol(Protocol::Old),
        1 => b
            .workload(IoBench {
                ops: 3,
                mode: IoMode::Write,
                num_blocks: 16,
                seed: 9,
                ..Default::default()
            })
            .protocol(Protocol::New),
        2 => b
            .workload(Hello {
                message: "shard up\n".into(),
                wait_ticks: 2,
                kernel: KernelConfig::default(),
            })
            .protocol(if hello_new {
                Protocol::New
            } else {
                Protocol::Old
            }),
        _ => b
            .workload(CompiledWorkload::generated(
                seed.wrapping_mul(31).wrapping_add(i as u64),
                &GenConfig::default(),
            ))
            .protocol(Protocol::Old),
    }
}

fn cluster(
    shards: usize,
    backups: usize,
    hello_new: bool,
    seed: u64,
    loss: f64,
    fail_shard: Option<(usize, u64)>,
) -> ClusterScenario {
    let mut cluster = ClusterScenario::new(LinkSpec::ethernet_10mbps(), seed);
    for i in 0..shards {
        // Detection dominates recovery: retransmissions (the stalled
        // primary's only heartbeat) arrive at least every 4 × 5 ms, so
        // a false suspicion needs ~15 consecutive losses per window
        // (p ≈ 0.2¹⁵). Applied to BOTH sides of the comparison — the
        // lossless run must differ from the lossy one in the loss draws
        // alone, not in the recovery machinery or detection margins.
        let mut b = shard_builder(i, hello_new, seed)
            .backups(backups)
            .seed(seed.wrapping_add(i as u64))
            .retransmit(SimDuration::from_millis(5))
            .detector_timeout(SimDuration::from_millis(300));
        if loss > 0.0 {
            b = b.lossy(loss);
        }
        if let Some((shard, at_ns)) = fail_shard {
            if shard == i {
                b = b.fail_primary_at(SimTime::from_nanos(at_ns));
            }
        }
        cluster
            .add(b.build().expect("valid shard scenario"))
            .expect("replicated shard");
    }
    cluster
}

/// Checks that every shard of `run` ended as its counterpart in
/// `reference` did and showed the environment what it showed, up to
/// IO2's re-issues.
fn same_outcome(reference: &[RunReport], run: &[RunReport]) -> Result<(), String> {
    assert_eq!(reference.len(), run.len());
    for (i, (a, b)) in reference.iter().zip(run).enumerate() {
        if a.exit != b.exit {
            return Err(format!("shard {i}: exit {:?} against {:?}", a.exit, b.exit));
        }
        environment_equivalent(&a.environment(), &b.environment())
            .map_err(|e| format!("shard {i}: {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    // The oracle: loss 0.0 vs 0.2-with-retransmission on a 3- or
    // 4-system shared LAN, t ∈ {1, 2}, arbitrary seeds.
    #[test]
    fn cluster_is_loss_equivalent(
        seed in 0u64..1_000,
        hello_new in any::<bool>(),
        shards in 3usize..5,
    ) {
        for backups in [1usize, 2] {
            let clean = cluster(shards, backups, hello_new, seed, 0.0, None).run();
            let lossy = cluster(shards, backups, hello_new, seed, 0.2, None).run();
            if let Err(e) = same_outcome(&clean, &lossy) {
                return Err(TestCaseError::fail(format!(
                    "t = {backups}, seed {seed}: guest-visible behaviour diverged under loss: {e}"
                )));
            }
            for (i, (c, l)) in clean.iter().zip(&lossy).enumerate() {
                prop_assert!(c.exit.is_clean_exit(), "shard {} did not exit cleanly: {:?}", i, c.exit);
                prop_assert!(c.lockstep_clean && l.lockstep_clean, "shard {} lockstep divergence", i);
            }
        }
    }

    // Same oracle with a primary failstop injected into one shard:
    // failover and loss recovery compose. Only the *environment's*
    // view is compared here: lockstep hashes against the dead primary's
    // final epochs may legitimately differ under loss, because a
    // primary may deliver an interrupt to its own guest and die before
    // the (dropped) `[E, Int]` is ever retransmitted — §4.3's invariant
    // is precisely that such state is never *revealed*, the primary
    // having initiated no I/O past an unacknowledged message. The
    // reference keeps the failstop: console output is fire-and-forget,
    // so bytes a failover loses are lost with or without loss.
    #[test]
    fn cluster_failover_is_loss_equivalent(
        seed in 0u64..1_000,
        shards in 3usize..5,
        fail_shard in 0usize..4,
        frac in 1u64..20,
    ) {
        let fail_shard = fail_shard % shards;
        // Fail somewhere inside the shard's active window: the hello
        // shard finishes in ~10 ms simulated, the others later.
        let at_ns = 500_000 + frac * 400_000;
        let fail = Some((fail_shard, at_ns));
        for backups in [1usize, 2] {
            let clean = cluster(shards, backups, false, seed, 0.0, fail).run();
            let lossy = cluster(shards, backups, false, seed, 0.2, fail).run();
            if let Err(e) = same_outcome(&clean, &lossy) {
                return Err(TestCaseError::fail(format!(
                    "t = {backups}, seed {seed}, kill shard {fail_shard} at {at_ns} ns: \
                     diverged under loss: {e}"
                )));
            }
        }
    }
}

/// Deterministic pin of the oracle at one known point, so a regression
/// is caught even if the sampled cases shift.
#[test]
fn pinned_cluster_loss_equivalence() {
    let clean = cluster(3, 2, true, 7, 0.0, None).run();
    let (results, lan_stats) = cluster(3, 2, true, 7, 0.2, None).run_with_lan_stats();
    same_outcome(&clean, &results).unwrap();
    assert_eq!(clean[2].console.as_slice(), b"shard up\n");
    // And the lossy cluster really did lose traffic (the equivalence is
    // not vacuous).
    assert!(lan_stats.dropped > 0, "no messages were lost");
    assert!(
        results.iter().map(|r| r.frames_retransmitted).sum::<u64>() > 0,
        "no retransmissions happened"
    );
    for r in &results {
        assert!(r.exit.is_clean_exit());
        assert!(r.lockstep_clean);
        assert!(
            r.failovers.is_empty(),
            "no failures were injected, so no promotions may happen: {:?}",
            r.failovers
        );
    }
}

/// Deterministic pin of the generated shard, at t = 1 and t = 2: with
/// no fault every shard exits cleanly and in lockstep, and a primary
/// failstop halfway through the generated shard's run is hidden from
/// the environment too.
#[test]
fn pinned_generated_shard_loss_equivalence() {
    for backups in [1usize, 2] {
        let clean = cluster(4, backups, false, 1995, 0.0, None).run();
        let lossy = cluster(4, backups, false, 1995, 0.2, None).run();
        same_outcome(&clean, &lossy).unwrap_or_else(|e| panic!("t = {backups}: {e}"));
        for r in clean.iter().chain(&lossy) {
            assert!(r.exit.is_clean_exit(), "t = {backups}: {:?}", r.exit);
            assert!(r.lockstep_clean, "t = {backups}: lockstep divergence");
        }
        // Mid-run, however short the generated program is.
        let fail = Some((3, clean[3].completion_time.as_nanos() / 2));
        let clean = cluster(4, backups, false, 1995, 0.0, fail).run();
        let lossy = cluster(4, backups, false, 1995, 0.2, fail).run();
        same_outcome(&clean, &lossy).unwrap_or_else(|e| panic!("t = {backups}, failover: {e}"));
        assert_eq!(
            clean[3].failovers.len(),
            1,
            "t = {backups}: the failstop fired"
        );
    }
}
