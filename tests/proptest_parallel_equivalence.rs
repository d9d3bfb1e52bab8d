//! The frozen `ClusterScenario::parallelism` knob changes nothing: a
//! cluster asked for `Parallelism::Threads(n)` produces **bit-identical**
//! `RunReport`s to one asked for `Parallelism::Sequential`.
//!
//! Every cluster runs its one plan/commit schedule on the calling
//! thread; the knob survives only because the repository benchmark
//! still calls it. This oracle keeps that promise honest on the
//! adversarial end of the workload space: every shard runs an
//! `hvft-lang` *generated* program (arbitrary gate/branch mix, so epoch
//! boundaries land in arbitrary spots) through the full replication
//! protocol, with LAN loss, retransmission and a mid-run backup failstop
//! always on. Nothing the report can express may differ between the two
//! requests: exit codes, console streams, epoch counts, completion
//! clocks, per-replica message counters, retransmission and suppression
//! totals, failover records, operation latencies.

use hvft::core::scenario::{ClusterScenario, Parallelism, RunReport, Scenario};
use hvft::guest::CompiledWorkload;
use hvft::lang::genprog::GenConfig;
use hvft::net::link::LinkSpec;
use hvft::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// A cluster whose shards all run generated programs, each a different
/// one (seed-offset), with loss and a mid-run backup failstop.
fn lang_cluster(shards: usize, backups: usize, seed: u64) -> ClusterScenario {
    let mut cluster = ClusterScenario::new(LinkSpec::ethernet_10mbps(), seed);
    for i in 0..shards {
        let workload = CompiledWorkload::generated(
            seed.wrapping_mul(31).wrapping_add(i as u64),
            &GenConfig::default(),
        );
        let b = Scenario::builder()
            .functional_cost()
            .workload(workload)
            .backups(backups)
            .seed(seed.wrapping_add(i as u64))
            .lossy(0.15)
            .retransmit(SimDuration::from_millis(5))
            .detector_timeout(SimDuration::from_millis(300))
            .fail_replica_at(SimTime::from_nanos(1_200_000), 1 + i % backups);
        cluster
            .add(b.build().expect("valid generated-workload shard"))
            .expect("replicated shard");
    }
    cluster
}

/// Everything a `RunReport` can express, flattened for exact comparison.
fn fingerprint(reports: &[RunReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            format!(
                "{}|{:?}|{}|{:?}|{:?}|{}|{}|{:?}|{:?}|{}|{}|{:?}|{}|{:?}",
                r.label,
                r.exit,
                r.completion_time,
                r.console,
                r.console_hosts,
                r.epochs,
                r.retired,
                r.failovers,
                r.messages_per_replica,
                r.frames_retransmitted,
                r.frames_suppressed,
                r.op_latencies,
                r.lockstep_compared,
                r.disk_log.len(),
            )
        })
        .collect()
}

fn lang_modes_agree(shards: usize, backups: usize, seed: u64) {
    let mut sequential = lang_cluster(shards, backups, seed);
    sequential.parallelism(Parallelism::Sequential);
    let seq = fingerprint(&sequential.run());

    let mut threads = lang_cluster(shards, backups, seed);
    threads.parallelism(Parallelism::Threads(4));
    let thr = fingerprint(&threads.run());

    assert_eq!(
        seq, thr,
        "generated workloads: a Threads(4) request diverged from Sequential \
         (shards={shards}, t={backups}, seed={seed})"
    );
    assert!(
        seq.iter().any(|f| f.contains("Exit")),
        "degenerate generated sweep: no shard exited (seed={seed})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]
    #[test]
    fn generated_workloads_parallel_equals_sequential(
        seed in 0u64..1 << 32,
        shards in 2usize..4,
        backups in 1usize..3,
    ) {
        lang_modes_agree(shards, backups, seed);
    }
}
