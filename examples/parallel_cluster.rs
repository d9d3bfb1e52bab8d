//! A machine-room cluster on every core — with a bit-identity proof.
//!
//! ```text
//! cargo run --release --example parallel_cluster
//! ```
//!
//! Six replicated VMs (CPU-, I/O- and console-bound mixes, one with an
//! injected primary failstop, all over one contended 10 Mbps Ethernet)
//! are run twice: once on the strict sequential schedule, once with
//! guest execution shared between the calling thread and pool workers
//! under conservative synchronization (`Parallelism::Threads`). The executor never
//! speculates — every shared-medium effect commits in exact global-time
//! order — so the two runs must agree on *everything* the reports can
//! express. The example hashes both report sets and asserts the digests
//! are equal; CI runs it as the parallel-determinism gate.
//!
//! The wall-clock times printed at the end are the point of the
//! feature; the equal digests are the license to use it.

use hvft::core::scenario::{ClusterScenario, Parallelism, Protocol, RunReport, Scenario};
use hvft::guest::workload::{Dhrystone, Hello, IoBench};
use hvft::guest::{IoMode, KernelConfig};
use hvft::net::link::LinkSpec;
use hvft::sim::time::{SimDuration, SimTime};
use std::time::Instant;

const SHARDS: usize = 6;

fn build_cluster() -> ClusterScenario {
    let mut cluster = ClusterScenario::new(LinkSpec::ethernet_10mbps(), 77);
    for i in 0..SHARDS {
        // Six shards contending for one wire can delay a frame past the
        // default detection timeout, so every shard's detector gets the
        // same generous margin the lossy-LAN example uses — detection
        // must dominate queueing, or contention forges suspicions.
        let b = Scenario::builder()
            .functional_cost()
            .seed(77 + i as u64)
            .detector_timeout(SimDuration::from_millis(300));
        let b = match i % 3 {
            0 => b
                .workload(Dhrystone {
                    iters: 2_500,
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
                    ops: 4,
                    mode: IoMode::Write,
                    num_blocks: 16,
                    seed: 5,
                    ..Default::default()
                })
                .protocol(Protocol::New),
            _ => b.workload(Hello {
                message: "hello from a parallel cluster\n".into(),
                wait_ticks: 2,
                kernel: KernelConfig::default(),
            }),
        };
        // Shard 1 loses its primary mid-run: failover must be
        // schedule-invariant too.
        let b = if i == 1 {
            b.backups(2).fail_primary_at(SimTime::from_nanos(2_000_000))
        } else {
            b
        };
        cluster
            .add(b.build().expect("valid shard scenario"))
            .expect("replicated shard");
    }
    cluster
}

/// FNV-1a over everything the reports can express, so "bit-identical"
/// is one number.
fn digest(reports: &[RunReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for r in reports {
        eat(format!(
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
            r.disk_log,
        )
        .as_bytes());
    }
    h
}

fn main() {
    // HVFT_THREADS forces an exact thread count, the caller included
    // (CI pins 4 so the determinism gate exercises intra-shard replica
    // slots even on a small runner); otherwise, at least two even on a
    // single-core box — the machine decides the speedup, the digests
    // decide the correctness.
    let threads = match std::env::var("HVFT_THREADS") {
        Ok(v) => v
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("HVFT_THREADS must be a thread count, got {v:?}"))
            .max(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, SHARDS),
    };

    println!("=== sequential schedule ===");
    let t0 = Instant::now();
    let mut sequential = build_cluster();
    sequential.parallelism(Parallelism::Sequential);
    let seq_reports = sequential.run();
    let seq_wall = t0.elapsed();
    for (i, r) in seq_reports.iter().enumerate() {
        println!(
            "  shard {i} ({}): {:?} after {} ({} failovers)",
            r.label,
            r.exit,
            r.completion_time,
            r.failovers.len(),
        );
    }

    println!("\n=== same cluster, {threads} threads ===");
    let t0 = Instant::now();
    let mut parallel = build_cluster();
    parallel.parallelism(Parallelism::Threads(threads));
    let par_reports = parallel.run();
    let par_wall = t0.elapsed();

    let seq_digest = digest(&seq_reports);
    let par_digest = digest(&par_reports);
    println!("  sequential digest: {seq_digest:#018x}  ({seq_wall:?})");
    println!("  parallel digest:   {par_digest:#018x}  ({par_wall:?})");
    assert_eq!(
        seq_digest, par_digest,
        "parallel execution must be bit-identical to the sequential schedule"
    );
    assert!(
        seq_reports.iter().all(|r| r.exit.is_clean_exit()),
        "every shard must finish cleanly"
    );
    assert_eq!(
        seq_reports[1].failovers.len(),
        1,
        "the injected failstop must promote exactly once — in both modes"
    );
    println!(
        "\nidentical digests across schedules — conservative sync holds ✓ \
         (sequential {seq_wall:?} vs {threads}-thread {par_wall:?})"
    );
}
