//! Cluster scaling on the one schedule — recorded to
//! `BENCH_cluster_scale.json` for the CI artifact.
//!
//! One workload mix, swept across shards × replicas (`t` backups), on
//! the default execution tier. Each `cluster_scale/<shards>sys_t<t>_jit_seq`
//! entry times building the shards and one deterministic simulated run
//! to completion; every cluster runs on the calling thread, so the rows
//! are the cost of the shared-medium co-simulation as shards and
//! replicas are added.
//! `elements_per_sec` is guest instructions retired per wall-clock
//! second across every replica of every shard, via
//! [`Throughput::Elements`].

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hvft_core::scenario::{ClusterScenario, RunReport, Scenario};
use hvft_guest::workload::{Dhrystone, IoBench};
use hvft_guest::{IoMode, KernelConfig};
use hvft_net::link::LinkSpec;

/// The sweep's cluster: CPU-bound and disk-bound shards alternating on
/// one 10 Mbps Ethernet.
fn cluster(shards: usize, backups: usize) -> ClusterScenario {
    let mut cluster = ClusterScenario::new(LinkSpec::ethernet_10mbps(), 13);
    for i in 0..shards {
        let b = Scenario::builder()
            .functional_cost()
            .seed(13 + i as u64)
            .backups(backups)
            // Contention on a crowded wire must not forge suspicions.
            .detector_timeout(hvft_sim::time::SimDuration::from_millis(300));
        let b = if i % 2 == 0 {
            b.workload(Dhrystone {
                iters: 500,
                syscall_every: 0,
                kernel: KernelConfig {
                    tick_period_us: 2000,
                    tick_work: 2,
                    ..KernelConfig::default()
                },
            })
        } else {
            b.workload(IoBench {
                ops: 2,
                mode: IoMode::Write,
                num_blocks: 16,
                seed: 4,
                ..Default::default()
            })
        };
        cluster
            .add(b.build().expect("valid shard"))
            .expect("replicated shard");
    }
    cluster
}

/// Guest instructions retired across every replica of every shard —
/// the work the cluster actually performed, whatever tier retired it.
fn guest_insns(reports: &[RunReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| &r.replica_stats)
        .map(|s| s.exec.step_retired + s.exec.jit_retired)
        .sum()
}

/// Shards × replicas sweep: whole cluster runs to completion.
fn bench_cluster_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_scale");
    g.sample_size(3);
    for shards in [2usize, 4, 8] {
        for backups in [1usize, 2] {
            let label = format!("{shards}sys_t{backups}_jit_seq");
            // Untimed probe: the guest-instruction total for the rate.
            let reports = cluster(shards, backups).run();
            for r in &reports {
                assert!(r.exit.is_clean_exit(), "{label}: {:?}", r.exit);
            }
            g.throughput(Throughput::Elements(guest_insns(&reports)));
            // Timed: building the shards' images, then the run.
            g.bench_function(label, |b| b.iter(|| cluster(shards, backups).run().len()));
        }
    }
    g.finish();
}

fn save(c: &mut Criterion) {
    // Machine-readable record for the CI artifact, at the workspace
    // root next to BENCH_interpreter.json.
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_cluster_scale.json"
    );
    c.save_json(out)
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}

criterion_group!(benches, bench_cluster_scale, save);
criterion_main!(benches);
