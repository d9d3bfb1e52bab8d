//! Cluster scaling under the parallel conservative-sync executor —
//! recorded to `BENCH_cluster_scale.json` for the CI artifact.
//!
//! One workload mix, swept across shards × replicas (`t` backups) ×
//! execution modes, on the default execution tier. Each
//! `cluster_scale/<shards>sys_t<t>_jit_<mode>` entry times the *same*
//! deterministic simulated run, so the wall-clock ratios between modes
//! are the scaling curve of the executor itself.
//!
//! Every row records enough to make regressions attributable:
//!
//! - `elements_per_sec` — guest instructions retired per wall-clock
//!   second (the throughput that actually matters), via
//!   [`Throughput::Elements`];
//! - `requested_workers` / `effective_workers` — what the mode asked
//!   for (clamped to the cluster's slice slots,
//!   `shards × replicas`) and what the machine can actually deliver
//!   (further clamped to cores);
//! - `pool_utilization` (thread rows only) — the fraction of
//!   `effective_workers × wall` the persistent pool's workers spent
//!   executing guest slices, observed via [`WorkPool::stats`];
//! - `published_slices` / `executed_slices` (thread rows only) — how
//!   many of the run's guest slices the work-first executor exposed to
//!   the pool at all ([`FtCluster::slice_stats`]; deterministic). The
//!   coordinator runs every slice it would otherwise wait for, so a
//!   row with next to nothing published has nothing to gain from
//!   threads whatever the machine.
//!
//! Thread rows are labelled with the *effective* parallelism: a
//! `Threads(4)` request on a one-core CI runner reads `4thr_eff1` —
//! archived numbers never claim parallelism the hardware didn't
//! deliver. On a many-core box the thread rows shrink toward `1/eff`
//! of the sequential row; either way the recorded curve is honest for
//! the hardware that produced it, and the bit-identity micro-assert
//! below is the part that must hold everywhere.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hvft_core::cluster::FtCluster;
use hvft_core::scenario::{Parallelism, RunReport, Scenario};
use hvft_guest::workload::{Dhrystone, IoBench};
use hvft_guest::{IoMode, KernelConfig};
use hvft_net::link::LinkSpec;
use hvft_sim::WorkPool;
use std::time::Instant;

/// The sweep's cluster, driven directly (not through `ClusterScenario`)
/// so the executor's slice counts can be read back after a run.
fn cluster(shards: usize, backups: usize) -> FtCluster {
    let mut cluster = FtCluster::new(LinkSpec::ethernet_10mbps(), 13);
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
        let shard = b.build().expect("valid shard");
        cluster.add_system(shard.image(), *shard.config());
    }
    cluster
}

/// The full observable surface of a shard's report, for bit-identity
/// checks across execution modes.
fn fingerprint(reports: &[RunReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            format!(
                "{:?}|{}|{:?}|{:?}|{:?}|{}|{}|{}",
                r.exit,
                r.completion_time,
                r.console,
                r.failovers,
                r.messages_per_replica,
                r.frames_retransmitted,
                r.frames_suppressed,
                r.lockstep_compared,
            )
        })
        .collect()
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

/// `seq`, or `<n>thr_eff<e>` with the effective worker count for this
/// slot count on this machine baked into the archived label.
fn mode_label(par: Parallelism, slots: usize) -> String {
    match par {
        Parallelism::Sequential => "seq".to_owned(),
        Parallelism::Threads(t) => {
            format!("{t}thr_eff{}", par.effective_workers(slots))
        }
    }
}

/// Shards × replicas × threads sweep: whole cluster runs to
/// completion.
fn bench_cluster_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster_scale");
    g.sample_size(3);
    // (sweep point, mode, fingerprint): modes must agree per point.
    let mut fingerprints: Vec<(String, String, Vec<String>)> = Vec::new();
    for shards in [2usize, 4, 8] {
        for backups in [1usize, 2] {
            let point = format!("{shards}sys_t{backups}_jit");
            for par in [
                Parallelism::Sequential,
                Parallelism::Threads(2),
                Parallelism::Threads(4),
            ] {
                let run = || cluster(shards, backups).run_with(par);
                // Untimed probe: observed pool utilization, the
                // executor's slice counts and the guest-instruction
                // total for the throughput rate.
                let mut probe = cluster(shards, backups);
                let slots = probe.slice_slots();
                let eff = par.effective_workers(slots);
                let pool_before = WorkPool::global().stats();
                let wall = Instant::now();
                let reports = probe.run_with(par);
                let wall = wall.elapsed();
                let pool_delta = WorkPool::global().stats().busy_nanos - pool_before.busy_nanos;
                let utilization = pool_delta as f64 / (wall.as_nanos().max(1) as f64 * eff as f64);
                let insns = guest_insns(&reports);
                let mode = mode_label(par, slots);
                let label = format!("{point}_{mode}");
                for r in &reports {
                    assert!(r.exit.is_clean_exit(), "{label}: {:?}", r.exit);
                }
                fingerprints.push((point.clone(), mode, fingerprint(&reports)));
                g.throughput(Throughput::Elements(insns));
                g.bench_function(label, |b| b.iter(|| run().len()));
                g.annotate("requested_workers", par.requested_workers(slots) as f64)
                    .annotate("effective_workers", eff as f64);
                if !matches!(par, Parallelism::Sequential) {
                    let slices = probe.slice_stats();
                    g.annotate("pool_utilization", utilization)
                        .annotate("published_slices", slices.published as f64)
                        .annotate("executed_slices", slices.executed as f64);
                }
            }
        }
    }
    g.finish();
    // Micro-assert: every execution mode of a given sweep point is
    // bit-identical — the determinism oracle, archived alongside the
    // timings it licenses.
    let points: Vec<String> = {
        let mut seen = Vec::new();
        for (p, _, _) in &fingerprints {
            if !seen.contains(p) {
                seen.push(p.clone());
            }
        }
        seen
    };
    for point in points {
        let of_point: Vec<_> = fingerprints
            .iter()
            .filter(|(p, _, _)| *p == point)
            .collect();
        let (_, seq_label, reference) = of_point.first().expect("sequential row present");
        assert_eq!(seq_label, "seq");
        for (_, mode, fp) in &of_point[1..] {
            assert_eq!(
                fp, reference,
                "{point}: mode {mode} diverged from sequential"
            );
        }
    }
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
