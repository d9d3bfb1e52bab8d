//! Per-layer attribution from outside the crates: direct timing of
//! public calls, differential runs through the builder's switches, the
//! deterministic counters of `RunReport` / `LanStats` / `PoolStats`, and
//! the host timestamps of the `Observer` hooks.
//!
//! Nothing here feeds an end-to-end host metric; those come from the
//! untraced timed passes only.

use crate::names::{END_TO_END, PER_LAYER};
use crate::stats::{median, quantile};
use crate::trace::{timed, Tracer};
use crate::workloads::{
    build_runnable, report_insns, run_pass, Kind, Pass, Prepared, Sizes, Variant,
};
use hvft_core::scenario::{ExecTier, RunReport};
use hvft_guest::{build_image, CompiledWorkload};
use hvft_hypervisor::cost::CostModel;
use hvft_hypervisor::hvguest::{HvConfig, HvGuest};
use hvft_net::lan::Lan;
use hvft_net::link::LinkSpec;
use hvft_sim::pool::WorkPool;
use hvft_sim::time::SimTime;
use std::collections::BTreeMap;
use std::hint::black_box;

/// The paper's Table 1 row EL = 1024, Old protocol: CPU, read, write —
/// the order of `paper-el1k`'s parts.
pub const PAPER_NP: [f64; 3] = [22.24, 2.32, 1.87];

/// Values for the traced run's result line; a metric never set reads 0,
/// which is how a workload says it bypasses that layer.
#[derive(Default)]
pub struct Attribution {
    values: BTreeMap<&'static str, f64>,
}

impl Attribution {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name) || END_TO_END.iter().any(|m| m.name == name),
            "{name} is not a declared metric"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ns_per_insn(pass: &Pass) -> f64 {
    ratio(pass.wall_ns as f64, pass.insns as f64)
}

/// ns/insn of the part whose instruction stream is the same bare and
/// replicated: the first (compute) part, or every shard of a cluster.
/// `paper-el1k`'s I/O guests busy-wait on the bare machine and idle
/// under the hypervisor, so their bare and replicated ns/insn are not
/// about the same instructions.
fn compute_ns_per_insn(pass: &Pass) -> f64 {
    if pass.lan.is_some() {
        return ns_per_insn(pass);
    }
    ratio(
        pass.part_wall_ns[0] as f64,
        report_insns(&pass.reports[0]) as f64,
    )
}

fn median_wall_ns(passes: &[Pass]) -> f64 {
    median(&passes.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>())
}

/// Σ N′ ÷ Σ N against the bare runs of the same images.
fn sim_np(prepared: &Prepared, pass: &Pass) -> f64 {
    let n: u64 = prepared.references.iter().map(|r| r.n.as_nanos()).sum();
    ratio(pass.sim.as_nanos() as f64, n as f64)
}

/// The simulated, user-visible results of one pass that are defined on
/// some workloads only (the universal ones are computed in `main.rs`).
pub fn simulated_results(prepared: &Prepared, pass: &Pass, out: &mut Attribution) {
    let kind = prepared.def.kind;
    if matches!(
        kind,
        Kind::ReplCpu | Kind::ReplMem | Kind::PaperEl1k | Kind::FaultLossy
    ) {
        out.set("sim_np", sim_np(prepared, pass));
    }
    if kind == Kind::PaperEl1k {
        let mut worst = 0.0f64;
        for (((r, reference), paper), part) in pass
            .reports
            .iter()
            .zip(&prepared.references)
            .zip(PAPER_NP)
            .zip(["cpu", "read", "write"])
        {
            let np = ratio(
                r.completion_time.as_nanos() as f64,
                reference.n.as_nanos() as f64,
            );
            let err = (np - paper).abs() / paper;
            worst = worst.max(err);
            let (np_name, err_name) = match part {
                "cpu" => ("model.np_cpu", "model.np_err_cpu"),
                "read" => ("model.np_read", "model.np_err_read"),
                _ => ("model.np_write", "model.np_err_write"),
            };
            out.set(np_name, np);
            out.set(err_name, err);
        }
        out.set("np_err_vs_paper", worst);
        let latencies: Vec<f64> = pass
            .reports
            .iter()
            .flat_map(|r| r.op_latencies.iter().map(|d| d.as_millis_f64()))
            .collect();
        out.set("io_op_sim_ms_p50", quantile(&latencies, 0.5));
        out.set("io_op_sim_ms_p95", quantile(&latencies, 0.95));
    }
    if let (Some(faults), Some(r)) = (prepared.faults, pass.reports.first()) {
        if let Some(f) = r.failovers.first() {
            out.set(
                "failover_outage_sim_ms",
                f.at.since(faults.kill_primary).as_millis_f64(),
            );
        }
        if let Some(j) = r.reintegrations.first() {
            out.set("rejoin_sim_ms", j.at.since(faults.rejoin).as_millis_f64());
        }
    }
}

/// The deterministic counters the reports of one pass carry.
fn counters(prepared: &Prepared, pass: &Pass, out: &mut Attribution) {
    let kind = prepared.def.kind;
    let reports = &pass.reports;
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;

    let jit = sum(&|r| r.exec_stats().jit_retired);
    let all_tiers = sum(&|r| {
        let x = r.exec_stats();
        x.step_retired + x.block_retired + x.jit_retired
    });
    out.set("machine.jit.retired_ratio", ratio(jit, all_tiers));
    out.set(
        "machine.jit.superblocks_compiled",
        sum(&|r| r.exec_stats().superblocks_compiled),
    );
    out.set(
        "machine.jit.invalidations",
        sum(&|r| r.exec_stats().jit_invalidations),
    );
    let hits = sum(&|r| r.exec_stats().ret_cache_hits);
    let misses = sum(&|r| r.exec_stats().ret_cache_misses);
    out.set(
        "machine.jit.ret_cache_hit_ratio",
        ratio(hits, hits + misses),
    );
    out.set("machine.tlb.fills", sum(&|r| r.primary_stats.tlb_fills));

    out.set("devices.disk.ops", sum(&|r| r.disk_log.len() as u64));
    out.set(
        "devices.disk.guest_retries",
        sum(&|r| u64::from(r.guest_retries)),
    );
    if !kind.replicated() {
        return;
    }

    let epochs = sum(&|r| r.epochs);
    out.set("hypervisor.hvguest.epochs", epochs);
    out.set(
        "hypervisor.hvguest.nsim",
        sum(&|r| r.primary_stats.simulated),
    );
    out.set("hypervisor.hvguest.mmio", sum(&|r| r.primary_stats.mmio));
    out.set(
        "hypervisor.hvguest.irqs_delivered",
        sum(&|r| r.primary_stats.irqs_delivered),
    );
    // The paper's NP decomposition on the acting primary: time in guest
    // instructions, time in the hypervisor, and the rest (boundary
    // ack-wait and I/O wait).
    let completion = pass.sim.as_nanos() as f64;
    let guest = sum(&|r| r.primary_stats.guest_time.as_nanos());
    let hv = sum(&|r| r.primary_stats.hv_time.as_nanos());
    out.set("hypervisor.sim_guest_share", ratio(guest, completion));
    out.set("hypervisor.sim_hv_share", ratio(hv, completion));
    out.set(
        "hypervisor.sim_wait_share",
        (1.0 - ratio(guest + hv, completion)).max(0.0),
    );

    let frames = sum(&|r| r.messages_per_replica.iter().sum());
    out.set("core.protocol.frames_per_epoch", ratio(frames, epochs));
    out.set("core.lockstep.compared", sum(&|r| r.lockstep_compared));
    out.set("core.system.failovers", sum(&|r| r.failovers.len() as u64));
    out.set(
        "core.system.reintegrations",
        sum(&|r| r.reintegrations.len() as u64),
    );
    out.set(
        "core.system.state_transfer_bytes",
        sum(&|r| r.state_transfer_bytes),
    );
    let retransmitted = sum(&|r| r.frames_retransmitted);
    out.set("net.reliable.retransmitted", retransmitted);
    out.set("net.reliable.suppressed", sum(&|r| r.frames_suppressed));
    out.set(
        "net.reliable.retransmit_ratio",
        ratio(retransmitted, frames),
    );

    if kind.lockstep() {
        // Every live replica hashes all of RAM at each of its boundaries.
        let boundaries = sum(&|r| r.replica_stats.iter().map(|s| s.epochs).sum());
        out.set(
            "machine.statehash.bytes_hashed",
            boundaries * HvConfig::default().ram_bytes as f64,
        );
    }
    if let Some(lan) = pass.lan {
        out.set("net.lan.sent", lan.sent as f64);
        out.set("net.lan.delivered", lan.delivered as f64);
        out.set("net.lan.dropped", lan.dropped as f64);
        out.set("net.lan.bytes", lan.bytes as f64);
        out.set("sim.pool.jobs", pass.pool.jobs as f64);
        out.set(
            "sim.pool.utilization",
            ratio(
                pass.pool.busy_nanos as f64,
                pass.wall_ns as f64 * crate::workloads::threads() as f64,
            ),
        );
    }
}

/// Host time per epoch of replica 0 (the initial primary, until it
/// failstops).
fn epoch_host_times(tracer: &Tracer, out: &mut Attribution) {
    let gaps = tracer.epoch_gaps_us(0);
    if !gaps.is_empty() {
        out.set(
            "hypervisor.hvguest.host_us_per_epoch_p50",
            quantile(&gaps, 0.5),
        );
        out.set(
            "hypervisor.hvguest.host_us_per_epoch_p99",
            quantile(&gaps, 0.99),
        );
    }
}

/// Bare runs of the workload's own images at each tier: what guest
/// execution alone costs. The step run is capped at a tenth of the
/// instructions the default-tier run retired. Returns what
/// [`compute_ns_per_insn`] covers, bare, at the tier the timed
/// configuration uses.
fn exec_tiers(prepared: &Prepared, tracer: &Tracer, out: &mut Attribution) -> f64 {
    let def = &prepared.def;
    let mut full_retired = vec![u64::MAX; def.guests.len()];
    let mut same_tier = 0.0;
    for (metric, tier, span) in [
        ("machine.exec.default_ns_per_insn", None, "bare.default"),
        (
            "machine.exec.step_ns_per_insn",
            Some(ExecTier::Step),
            "bare.step",
        ),
        (
            "machine.exec.jit_ns_per_insn",
            Some(ExecTier::Jit),
            "bare.jit",
        ),
    ] {
        let (mut wall, mut insns) = (0u64, 0u64);
        let mut first_part = 0.0;
        for (part, full) in full_retired.iter_mut().enumerate() {
            let mut b = def.base(part, tier).bare();
            if tier == Some(ExecTier::Step) {
                b = b.max_insns((*full / 10).max(1));
            }
            let scenario = b.build().expect("bare tier scenario");
            let (r, ns) = timed(Some(tracer), span, "hvft-machine", || scenario.run());
            if tier.is_none() {
                *full = r.retired;
            }
            wall += ns;
            insns += r.retired;
            if part == 0 {
                first_part = ratio(ns as f64, r.retired as f64);
            }
        }
        let all_parts = ratio(wall as f64, insns as f64);
        out.set(metric, all_parts);
        if tier == def.kind.tier() {
            same_tier = match def.kind {
                Kind::ClusterLan => all_parts,
                _ => first_part,
            };
        }
    }
    same_tier
}

/// Direct timing of `HvGuest`'s public calls on a freshly booted guest
/// of the workload's first image.
fn hvguest_micro(prepared: &Prepared, sizes: &Sizes, tracer: &Tracer, out: &mut Attribution) {
    let image = prepared.def.guests[0]
        .workload()
        .image()
        .expect("guest image");
    let n = sizes.micro_iters;
    let cost = CostModel::functional();
    let us = |ns: u64, calls: usize| ns as f64 / 1000.0 / calls as f64;

    let creations = (n / 10).max(2);
    let (mut guest, ns) = timed(Some(tracer), "HvGuest::new", "hvft-hypervisor", || {
        let mut last = HvGuest::new(&image, cost, HvConfig::default());
        for _ in 1..creations {
            last = black_box(HvGuest::new(&image, cost, HvConfig::default()));
        }
        last
    });
    out.set("hypervisor.hvguest.new_us", us(ns, creations));

    let (_, ns) = timed(Some(tracer), "HvGuest::state_hash", "hvft-machine", || {
        for _ in 0..n {
            black_box(black_box(&guest).state_hash());
        }
    });
    out.set("machine.statehash.us_per_call", us(ns, n));

    let copies = (n / 10).max(2);
    let (snapshot, ns) = timed(Some(tracer), "HvGuest::snapshot", "hvft-hypervisor", || {
        let mut last = guest.snapshot();
        for _ in 1..copies {
            last = black_box(guest.snapshot());
        }
        last
    });
    out.set("hypervisor.hvguest.snapshot_us", us(ns, copies));
    out.set(
        "hypervisor.hvguest.snapshot_bytes",
        snapshot.wire_bytes() as f64,
    );
    let (_, ns) = timed(Some(tracer), "HvGuest::restore", "hvft-hypervisor", || {
        for _ in 0..copies {
            guest.restore(black_box(&snapshot));
        }
    });
    out.set("hypervisor.hvguest.restore_us", us(ns, copies));
}

/// Send + `pop_ready` on a six-station `Lan`.
fn lan_micro(sizes: &Sizes, seed: u64, tracer: &Tracer, out: &mut Attribution) {
    let messages = sizes.micro_iters * 300;
    let mut lan: Lan<u32> = Lan::new(LinkSpec::ethernet_10mbps(), seed);
    for _ in 0..6 {
        lan.add_node();
    }
    let (_, ns) = timed(Some(tracer), "Lan::send+pop_ready", "hvft-net", || {
        let mut now = SimTime::ZERO;
        for i in 0..messages {
            lan.send(now, i % 6, (i + 1) % 6, 64, i as u32);
            if i % 16 == 15 {
                while let Some(t) = lan.next_delivery() {
                    now = t;
                    black_box(lan.pop_ready(now));
                }
            }
        }
        while let Some(t) = lan.next_delivery() {
            black_box(lan.pop_ready(t));
        }
    });
    out.set("net.lan.ns_per_msg", ns as f64 / messages as f64);
}

/// Empty-job submit + `wait_idle` on a private pool.
fn pool_micro(sizes: &Sizes, tracer: &Tracer, out: &mut Attribution) {
    let jobs = sizes.micro_iters * 100;
    let pool = WorkPool::new(2);
    let (_, ns) = timed(
        Some(tracer),
        "WorkPool::submit+wait_idle",
        "hvft-sim",
        || {
            for batch in 0..jobs / 4 {
                for _ in 0..4 {
                    pool.submit(move || {
                        black_box(batch);
                    });
                }
                pool.wait_idle();
            }
        },
    );
    out.set("sim.pool.us_per_job", ns as f64 / 1000.0 / jobs as f64);
}

/// Image assembly, and for `repl-mem` the hvft-lang compiler and
/// reference interpreter.
fn guest_micro(prepared: &Prepared, tracer: &Tracer, out: &mut Attribution) {
    let (_, ns) = timed(Some(tracer), "build_image", "hvft-guest", || {
        for guest in &prepared.def.guests {
            let w = guest.workload();
            black_box(build_image(&w.kernel(), &w.user_source()).expect("image builds"));
        }
    });
    out.set("guest.image.build_ms", ns as f64 / 1e6);
    if let Some(source) = &prepared.def.lang_source {
        let (_, ns) = timed(Some(tracer), "CompiledWorkload::new", "hvft-lang", || {
            black_box(CompiledWorkload::new("memsweep", source).expect("compiles"))
        });
        out.set("lang.compile_ms", ns as f64 / 1e6);
        let (_, ns) = timed(Some(tracer), "hvft_lang::interpret", "hvft-lang", || {
            black_box(hvft_lang::interpret(source, u64::MAX).expect("terminates"))
        });
        out.set("lang.eval_ms", ns as f64 / 1e6);
    }
}

/// A differential run shorter than this is repeated, and the fastest
/// of up to three kept: a 60 ms run is at the mercy of one thread
/// wake-up.
const SHORT_VARIANT_NS: u64 = 300_000_000;

/// One differential run of the timed configuration with `variant`'s
/// switches flipped (and, with `faults` false, no scheduled faults).
fn variant_pass(
    prepared: &Prepared,
    variant: Variant,
    faults: bool,
    span: &str,
    tracer: &Tracer,
) -> Pass {
    let faults = prepared.faults.filter(|_| faults);
    let runnable = build_runnable(&prepared.def, variant, faults);
    let mut best = tracer.span(span, "hvft-core", || run_pass(&runnable));
    for _ in 0..2 {
        if best.wall_ns >= SHORT_VARIANT_NS {
            break;
        }
        let again = tracer.span(span, "hvft-core", || run_pass(&runnable));
        if again.wall_ns < best.wall_ns {
            best = again;
        }
    }
    best
}

/// Everything the traced run measures besides its passes. `untraced`
/// and `traced` are passes of the timed configuration without and with
/// the hook recorder; `sequential` is `cluster-lan`'s Sequential pass.
pub fn attribute(
    prepared: &Prepared,
    sizes: &Sizes,
    tracer: &Tracer,
    untraced: &[Pass],
    traced: &[Pass],
    sequential: Option<&Pass>,
) -> Attribution {
    let kind = prepared.def.kind;
    let mut out = Attribution::default();
    let pass = traced.last().expect("at least one traced pass");
    let wall = median_wall_ns(untraced);
    // Fastest against fastest, over as many untraced passes (the latest)
    // as traced ones: hooks add a fixed cost, interference only ever
    // adds, and a pass without observers (bare, cluster) must read 1.
    let fastest = |passes: &[Pass]| passes.iter().map(|p| p.wall_ns).min().unwrap_or(0) as f64;
    let latest = &untraced[untraced.len().saturating_sub(traced.len())..];
    out.set(
        "trace.overhead_ratio",
        ratio(fastest(traced), fastest(latest)),
    );
    out.set("core.scenario.build_ms", prepared.build_ms);

    simulated_results(prepared, pass, &mut out);
    counters(prepared, pass, &mut out);
    epoch_host_times(tracer, &mut out);
    let bare_same_tier = exec_tiers(prepared, tracer, &mut out);

    // What is left of the timed configuration once hashing is off; for
    // `paper-el1k` that is the timed configuration itself.
    let lockstep_off = kind.lockstep().then(|| {
        let off = Variant {
            lockstep_off: true,
            ..Variant::default()
        };
        let p = variant_pass(prepared, off, true, "variant.lockstep_off", tracer);
        out.set(
            "machine.statehash.share",
            (1.0 - ratio(p.wall_ns as f64, wall)).max(0.0),
        );
        p
    });
    if kind.replicated() {
        let residual = match (kind, &lockstep_off) {
            // A reintegrated replica inherits its donor's retirement
            // counters, so a faulted run over-counts instructions: the
            // driver's share is taken on the unfaulted lossless run.
            (Kind::FaultLossy, _) => {
                let quiet = Variant {
                    lockstep_off: true,
                    lossless: true,
                    ..Variant::default()
                };
                compute_ns_per_insn(&variant_pass(
                    prepared,
                    quiet,
                    false,
                    "variant.unfaulted",
                    tracer,
                ))
            }
            (_, Some(p)) => compute_ns_per_insn(p),
            (_, None) => median(&untraced.iter().map(compute_ns_per_insn).collect::<Vec<_>>()),
        };
        out.set("core.system.driver_ns_per_insn", residual - bare_same_tier);
    }

    match kind {
        Kind::ReplCpu => {
            let more = Variant {
                extra_backup: true,
                ..Variant::default()
            };
            let p = variant_pass(prepared, more, true, "variant.extra_backup", tracer);
            out.set(
                "core.system.backup_marginal_ratio",
                ratio(p.wall_ns as f64, wall),
            );
        }
        Kind::FaultLossy => {
            let lossless = Variant {
                lossless: true,
                ..Variant::default()
            };
            let p = variant_pass(prepared, lossless, true, "variant.lossless", tracer);
            out.set(
                "net.reliable.loss_host_ratio",
                ratio(wall, p.wall_ns as f64),
            );
            out.set(
                "net.reliable.loss_sim_ratio",
                ratio(pass.sim.as_nanos() as f64, p.sim.as_nanos() as f64),
            );
        }
        Kind::ClusterLan => {
            let seq = sequential.expect("cluster-lan passes its Sequential run");
            out.set("core.cluster.seq_ns_per_insn", ns_per_insn(seq));
            out.set("core.cluster.par_speedup", ratio(seq.wall_ns as f64, wall));
            let one = Variant {
                one_shard: true,
                ..Variant::default()
            };
            let p = variant_pass(prepared, one, true, "variant.one_shard", tracer);
            out.set(
                "core.cluster.shard_scaling",
                ratio(ratio(wall, pass.insns as f64), ns_per_insn(&p)),
            );
        }
        _ => {}
    }

    hvguest_micro(prepared, sizes, tracer, &mut out);
    lan_micro(sizes, prepared.def.seed, tracer, &mut out);
    pool_micro(sizes, tracer, &mut out);
    guest_micro(prepared, tracer, &mut out);
    out
}
