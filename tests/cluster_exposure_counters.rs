//! Deterministic-counter gate for the work-first cluster executor.
//!
//! `FtCluster` runs a guest slice on the coordinator when its commit
//! turn comes and *publishes* to the worker pool only the surplus — the
//! slices that were planned while the coordinator had another one to
//! run first. Which slices those are follows from the plan/commit order
//! alone, so `FtCluster::slice_stats()` repeats exactly from run to
//! run, machine to machine and thread count to thread count: the counts
//! are asserted, not archived. Who ends up running a published slice is
//! a race, and nothing here (or anywhere) may depend on it — the last
//! test takes every worker away and expects the same reports.
//!
//! A `t = 1` pair under the paper's protocol takes turns (P2: the
//! primary awaits its acks at every boundary; P4/P5: the backup trails
//! one message behind), and at functional costs a 4096-instruction
//! epoch is 82 µs of guest time against several hundred of wire, so the
//! repo benchmark's `cluster-lan` has next to no surplus: a slice is
//! picked the very step after the delivery that enabled it. Charge the
//! paper's HP 9000/720 costs instead and the guests, not the wire, are
//! what a run waits for: a third of the slices of a disk-bound `t = 4`
//! chain are planned while another one is running.

use hvft::core::cluster::{FtCluster, Parallelism, SliceStats};
use hvft::core::scenario::{Protocol, RunReport, Scenario, ScenarioBuilder};
use hvft::guest::workload::{Dhrystone, IoBench};
use hvft::guest::IoMode;
use hvft::net::link::LinkSpec;
use hvft::sim::pool::WorkPool;
use hvft::sim::time::SimDuration;
use std::sync::mpsc;

/// Most threads any test in this file asks for; the liveness test
/// holds this many workers, so the pool never has a free one.
const MAX_THREADS: usize = 5;

/// Shard `i` of the repo benchmark's `cluster-lan` (even shards compute,
/// odd shards write to disk), less the cost model.
fn shard(i: usize) -> ScenarioBuilder {
    let b = Scenario::builder()
        .seed(7 + i as u64)
        .detector_timeout(SimDuration::from_millis(300));
    if i.is_multiple_of(2) {
        b.workload(Dhrystone {
            iters: 60_000,
            syscall_every: 0,
            ..Default::default()
        })
    } else {
        b.workload(IoBench {
            ops: 12,
            mode: IoMode::Write,
            num_blocks: 16,
            seed: 11 + i as u32,
            ..Default::default()
        })
    }
}

/// Runs the shards on one 10 Mbps LAN; returns everything the reports
/// can express, and the executor's counts.
fn run(shards: &[Scenario], parallelism: Parallelism) -> (Vec<String>, SliceStats) {
    let mut cluster = FtCluster::new(LinkSpec::ethernet_10mbps(), 7);
    for s in shards {
        cluster.add_system(s.image(), *s.config());
    }
    let reports: Vec<RunReport> = cluster.run_with(parallelism);
    for r in &reports {
        assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
        assert!(r.lockstep_clean);
    }
    let reports = reports.iter().map(|r| format!("{r:?}")).collect();
    (reports, cluster.slice_stats())
}

/// Four `t = 1` shards at functional costs: `cluster-lan` itself.
fn lan_shaped() -> Vec<Scenario> {
    (0..4)
        .map(|i| shard(i).functional_cost().build().unwrap())
        .collect()
}

#[test]
fn t1_shards_taking_turns_publish_almost_nothing() {
    let shards = lan_shaped();
    let (sequential, seq_stats) = run(&shards, Parallelism::Sequential);
    assert_eq!(seq_stats.published, 0, "no pool, nothing to publish to");
    assert!(seq_stats.executed > 2_000, "{seq_stats:?}");
    let (threaded, stats) = run(&shards, Parallelism::Threads(2));
    assert_eq!(threaded, sequential);
    assert_eq!(stats.executed, seq_stats.executed);
    assert!(
        stats.published * 50 <= stats.executed,
        "a t = 1 pair takes turns; more than 2 % surplus means slices \
         are being shipped before anyone waits for them: {stats:?}"
    );
    // Which slices are exposed, pinned: a coordinator that publishes
    // more (or less) than the surplus shows here first.
    assert_eq!((stats.executed, stats.published), (2_717, 27));
    // Counts, not timings: the same again, and at any thread count.
    assert_eq!(run(&shards, Parallelism::Threads(2)).1, stats);
    assert_eq!(run(&shards, Parallelism::Threads(MAX_THREADS)).1, stats);
    assert_eq!(run(&shards, Parallelism::Threads(1)).1, seq_stats);
}

#[test]
fn a_t4_chain_has_surplus_and_still_equals_sequential() {
    let shards = [shard(1).backups(4).build().unwrap()];
    let (sequential, seq_stats) = run(&shards, Parallelism::Sequential);
    let (threaded, stats) = run(&shards, Parallelism::Threads(MAX_THREADS));
    assert_eq!(threaded, sequential);
    assert_eq!(stats.executed, seq_stats.executed);
    assert!(
        stats.published * 4 > stats.executed,
        "at the paper's costs the five guests' slices overlap: {stats:?}"
    );
    assert_eq!(run(&shards, Parallelism::Threads(2)).1, stats);
}

#[test]
fn a_run_never_depends_on_a_free_worker() {
    // Every worker of the global pool is held inside a foreign job.
    // An executor that ships a slice and waits for the reply would
    // wait forever; this one runs what it waits for itself.
    let pool = WorkPool::global();
    pool.ensure_workers(MAX_THREADS - 1);
    let (started_tx, started_rx) = mpsc::channel();
    let releases: Vec<mpsc::Sender<()>> = (0..pool.workers())
        .map(|_| {
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let started_tx = started_tx.clone();
            pool.submit(move || {
                started_tx.send(()).unwrap();
                // Returns once the sender is dropped, on unwind too.
                let _ = release_rx.recv();
            });
            release_tx
        })
        .collect();
    for _ in &releases {
        started_rx.recv().unwrap();
    }
    let jobs_before = pool.stats().jobs;

    // `cluster-lan` plus a shard whose primary runs ahead of its acks.
    let mut shards = lan_shaped();
    let revised = shard(3).functional_cost().protocol(Protocol::New);
    shards.push(revised.backups(2).build().unwrap());
    let (sequential, _) = run(&shards, Parallelism::Sequential);
    let (threaded, stats) = run(&shards, Parallelism::Threads(2));
    assert_eq!(threaded, sequential);
    assert!(stats.published > 100, "§4.3 has surplus: {stats:?}");
    assert_eq!(pool.stats().jobs, jobs_before, "no worker was free");
    drop(releases);
}
