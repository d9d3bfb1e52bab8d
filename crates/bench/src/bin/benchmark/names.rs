//! The fixed vocabulary of the benchmark: workload and metric names,
//! units, directions, bounds and targets. `BENCHMARK.json` and the
//! README repeat these; a unit test keeps `BENCHMARK.json` in step.
//!
//! Naming rule: `host_*`, `*_s`, `*_us`, `*_ns` are wall clock of the
//! simulator; `sim_*` / `*_sim_*` / `np_*` are simulated time (or ratios
//! of it) and repeat bit-exactly at a fixed seed. Simulated milliseconds
//! carry the unit `sim_ms`, so that no reader takes them for measured time.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadName {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadName; 6] = [
    WorkloadName {
        name: "bare-cpu",
        why: "Bare dhrystone + callstorm under the jit: guest execution is all of the time, \
              hypervisor, protocol, network and hashing are bypassed.",
    },
    WorkloadName {
        name: "repl-cpu",
        why: "Replicated t=1 dhrystone with lockstep on: few pages dirtied per epoch, state \
              hashing is ~90% of wall; the case an incremental digest must move.",
    },
    WorkloadName {
        name: "repl-mem",
        why: "Replicated t=1 hvft-lang memsweep dirtying all 12 data pages every epoch: an \
              incremental digest gains least, a per-store tracking cost shows.",
    },
    WorkloadName {
        name: "paper-el1k",
        why: "Paper Table 1 row EL=1024 (Old protocol, HP 9000/720 costs, lockstep off): \
              accuracy anchor and the epoch/driver/protocol/disk path with hashing bypassed.",
    },
    WorkloadName {
        name: "fault-lossy",
        why: "t=2 over a 5%-loss ATM link with backup failstop, rejoin and primary failstop: \
              the only user of the reliable layer, detector, failover and reintegration.",
    },
    WorkloadName {
        name: "cluster-lan",
        why: "Four t=1 shards on one 10 Mbps LAN under Threads(min(2,nproc)): the only \
              multi-threaded path (wave planning, work pool, shared-medium contention).",
    },
];

/// Every workload, for metrics defined on all of them.
pub const ALL: &[&str] = &[
    "bare-cpu",
    "repl-cpu",
    "repl-mem",
    "paper-el1k",
    "fault-lossy",
    "cluster-lan",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share by which the metric may worsen between two commits (the
    /// gate in `BENCHMARK.json`, whose runs differ in seed).
    pub bound: f64,
    /// Share by which two runs of one commit at one seed may differ
    /// (`--repeat-check`); 0 = bit-identical.
    pub repeat_bound: f64,
    /// Workloads the metric is defined on.
    pub on: &'static [&'static str],
}

const REPLICATED: &[&str] = &["repl-cpu", "repl-mem", "paper-el1k", "fault-lossy"];

/// The 11 end-to-end metrics. Those defined on [`ALL`] workloads (bar
/// `fail_ratio`, which the result line carries as `failed`/`attempted`)
/// are the `end_to_end` list of `BENCHMARK.json`, whose contract wants
/// every such metric on every workload and never 0; the rest sit in its
/// `per_layer` list under the same names and read 0 where undefined.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "host_ns_per_insn",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        repeat_bound: 0.10,
        on: ALL,
    },
    EndToEnd {
        name: "sim_completion_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.25,
        repeat_bound: 0.0,
        on: ALL,
    },
    EndToEnd {
        name: "sim_np",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        repeat_bound: 0.0,
        on: REPLICATED,
    },
    EndToEnd {
        name: "np_err_vs_paper",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        repeat_bound: 0.0,
        on: &["paper-el1k"],
    },
    EndToEnd {
        name: "io_op_sim_ms_p50",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.0,
        repeat_bound: 0.0,
        on: &["paper-el1k"],
    },
    EndToEnd {
        name: "io_op_sim_ms_p95",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.0,
        repeat_bound: 0.0,
        on: &["paper-el1k"],
    },
    EndToEnd {
        name: "failover_outage_sim_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.0,
        repeat_bound: 0.0,
        on: &["fault-lossy"],
    },
    EndToEnd {
        name: "rejoin_sim_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.0,
        repeat_bound: 0.0,
        on: &["fault-lossy"],
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        repeat_bound: 0.20,
        on: ALL,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        repeat_bound: 0.10,
        on: ALL,
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        repeat_bound: 0.0,
        on: ALL,
    },
];

impl EndToEnd {
    pub fn defined_on(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }

    /// Whether the metric belongs to `BENCHMARK.json`'s `end_to_end`.
    pub fn gated(&self) -> bool {
        self.on.len() == ALL.len() && self.name != "fail_ratio"
    }
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate (and module) the number belongs to.
    pub layer: &'static str,
    /// The end-to-end metric and workload it should move.
    pub target: (&'static str, &'static str),
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    target: (&'static str, &'static str),
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        target,
    }
}

use Better::{Higher, Lower};

const HOST: &str = "host_ns_per_insn";

pub const PER_LAYER: [PerLayer; 60] = [
    // hvft-machine: execution tiers.
    layer(
        "machine.exec.step_ns_per_insn",
        "ns",
        Lower,
        "hvft-machine",
        (HOST, "bare-cpu"),
    ),
    layer(
        "machine.exec.default_ns_per_insn",
        "ns",
        Lower,
        "hvft-machine",
        (HOST, "bare-cpu"),
    ),
    layer(
        "machine.exec.jit_ns_per_insn",
        "ns",
        Lower,
        "hvft-machine",
        (HOST, "bare-cpu"),
    ),
    layer(
        "machine.jit.retired_ratio",
        "ratio",
        Higher,
        "hvft-machine",
        (HOST, "bare-cpu"),
    ),
    layer(
        "machine.jit.superblocks_compiled",
        "count",
        Lower,
        "hvft-machine",
        (HOST, "repl-cpu"),
    ),
    layer(
        "machine.jit.invalidations",
        "count",
        Lower,
        "hvft-machine",
        (HOST, "repl-cpu"),
    ),
    layer(
        "machine.jit.ret_cache_hit_ratio",
        "ratio",
        Higher,
        "hvft-machine",
        (HOST, "bare-cpu"),
    ),
    layer(
        "machine.tlb.fills",
        "count",
        Lower,
        "hvft-machine",
        (HOST, "paper-el1k"),
    ),
    // hvft-machine: the lockstep state hash.
    layer(
        "machine.statehash.us_per_call",
        "us",
        Lower,
        "hvft-machine",
        (HOST, "repl-cpu"),
    ),
    layer(
        "machine.statehash.share",
        "ratio",
        Lower,
        "hvft-machine",
        (HOST, "repl-cpu"),
    ),
    layer(
        "machine.statehash.bytes_hashed",
        "bytes",
        Lower,
        "hvft-machine",
        (HOST, "repl-mem"),
    ),
    // hvft-hypervisor: one hypervised guest.
    layer(
        "hypervisor.hvguest.new_us",
        "us",
        Lower,
        "hvft-hypervisor",
        (HOST, "fault-lossy"),
    ),
    layer(
        "hypervisor.hvguest.snapshot_us",
        "us",
        Lower,
        "hvft-hypervisor",
        (HOST, "fault-lossy"),
    ),
    layer(
        "hypervisor.hvguest.restore_us",
        "us",
        Lower,
        "hvft-hypervisor",
        (HOST, "fault-lossy"),
    ),
    layer(
        "hypervisor.hvguest.snapshot_bytes",
        "bytes",
        Lower,
        "hvft-hypervisor",
        ("rejoin_sim_ms", "fault-lossy"),
    ),
    layer(
        "hypervisor.hvguest.epochs",
        "count",
        Lower,
        "hvft-hypervisor",
        (HOST, "paper-el1k"),
    ),
    layer(
        "hypervisor.hvguest.nsim",
        "count",
        Lower,
        "hvft-hypervisor",
        ("sim_np", "paper-el1k"),
    ),
    layer(
        "hypervisor.hvguest.mmio",
        "count",
        Lower,
        "hvft-hypervisor",
        ("sim_np", "paper-el1k"),
    ),
    layer(
        "hypervisor.hvguest.irqs_delivered",
        "count",
        Lower,
        "hvft-hypervisor",
        ("sim_np", "paper-el1k"),
    ),
    layer(
        "hypervisor.hvguest.host_us_per_epoch_p50",
        "us",
        Lower,
        "hvft-hypervisor",
        (HOST, "paper-el1k"),
    ),
    layer(
        "hypervisor.hvguest.host_us_per_epoch_p99",
        "us",
        Lower,
        "hvft-hypervisor",
        (HOST, "repl-cpu"),
    ),
    layer(
        "hypervisor.sim_guest_share",
        "ratio",
        Higher,
        "hvft-hypervisor",
        ("sim_np", "paper-el1k"),
    ),
    layer(
        "hypervisor.sim_hv_share",
        "ratio",
        Lower,
        "hvft-hypervisor",
        ("sim_np", "paper-el1k"),
    ),
    layer(
        "hypervisor.sim_wait_share",
        "ratio",
        Lower,
        "hvft-hypervisor",
        ("sim_np", "paper-el1k"),
    ),
    // hvft-core: the replicated driver, protocol and lockstep checker.
    layer(
        "core.system.driver_ns_per_insn",
        "ns",
        Lower,
        "hvft-core",
        (HOST, "paper-el1k"),
    ),
    layer(
        "core.system.backup_marginal_ratio",
        "ratio",
        Lower,
        "hvft-core",
        (HOST, "repl-cpu"),
    ),
    layer(
        "core.protocol.frames_per_epoch",
        "ratio",
        Lower,
        "hvft-core",
        ("sim_np", "paper-el1k"),
    ),
    layer(
        "core.lockstep.compared",
        "count",
        Lower,
        "hvft-core",
        (HOST, "repl-cpu"),
    ),
    layer(
        "core.system.failovers",
        "count",
        Lower,
        "hvft-core",
        ("failover_outage_sim_ms", "fault-lossy"),
    ),
    layer(
        "core.system.reintegrations",
        "count",
        Lower,
        "hvft-core",
        ("rejoin_sim_ms", "fault-lossy"),
    ),
    layer(
        "core.system.state_transfer_bytes",
        "bytes",
        Lower,
        "hvft-core",
        ("rejoin_sim_ms", "fault-lossy"),
    ),
    layer(
        "core.scenario.build_ms",
        "ms",
        Lower,
        "hvft-core",
        ("setup_s", "paper-el1k"),
    ),
    // hvft-core: the sharded cluster.
    layer(
        "core.cluster.seq_ns_per_insn",
        "ns",
        Lower,
        "hvft-core",
        (HOST, "cluster-lan"),
    ),
    layer(
        "core.cluster.par_speedup",
        "ratio",
        Higher,
        "hvft-core",
        (HOST, "cluster-lan"),
    ),
    layer(
        "core.cluster.shard_scaling",
        "ratio",
        Lower,
        "hvft-core",
        (HOST, "cluster-lan"),
    ),
    // hvft-net.
    layer(
        "net.lan.ns_per_msg",
        "ns",
        Lower,
        "hvft-net",
        (HOST, "cluster-lan"),
    ),
    layer(
        "net.lan.sent",
        "count",
        Lower,
        "hvft-net",
        (HOST, "cluster-lan"),
    ),
    layer(
        "net.lan.delivered",
        "count",
        Lower,
        "hvft-net",
        (HOST, "cluster-lan"),
    ),
    layer(
        "net.lan.dropped",
        "count",
        Lower,
        "hvft-net",
        (HOST, "cluster-lan"),
    ),
    layer(
        "net.lan.bytes",
        "bytes",
        Lower,
        "hvft-net",
        ("sim_completion_ms", "cluster-lan"),
    ),
    layer(
        "net.reliable.retransmitted",
        "count",
        Lower,
        "hvft-net",
        ("sim_completion_ms", "fault-lossy"),
    ),
    layer(
        "net.reliable.suppressed",
        "count",
        Lower,
        "hvft-net",
        (HOST, "fault-lossy"),
    ),
    layer(
        "net.reliable.retransmit_ratio",
        "ratio",
        Lower,
        "hvft-net",
        ("sim_completion_ms", "fault-lossy"),
    ),
    layer(
        "net.reliable.loss_host_ratio",
        "ratio",
        Lower,
        "hvft-net",
        (HOST, "fault-lossy"),
    ),
    layer(
        "net.reliable.loss_sim_ratio",
        "ratio",
        Lower,
        "hvft-net",
        ("sim_completion_ms", "fault-lossy"),
    ),
    // hvft-sim: the work pool.
    layer(
        "sim.pool.utilization",
        "ratio",
        Higher,
        "hvft-sim",
        (HOST, "cluster-lan"),
    ),
    layer(
        "sim.pool.jobs",
        "count",
        Lower,
        "hvft-sim",
        (HOST, "cluster-lan"),
    ),
    layer(
        "sim.pool.us_per_job",
        "us",
        Lower,
        "hvft-sim",
        (HOST, "cluster-lan"),
    ),
    // hvft-devices.
    layer(
        "devices.disk.ops",
        "count",
        Lower,
        "hvft-devices",
        ("io_op_sim_ms_p50", "paper-el1k"),
    ),
    layer(
        "devices.disk.guest_retries",
        "count",
        Lower,
        "hvft-devices",
        ("sim_completion_ms", "fault-lossy"),
    ),
    // hvft-guest and hvft-lang.
    layer(
        "guest.image.build_ms",
        "ms",
        Lower,
        "hvft-guest",
        ("setup_s", "bare-cpu"),
    ),
    layer(
        "lang.compile_ms",
        "ms",
        Lower,
        "hvft-lang",
        ("setup_s", "repl-mem"),
    ),
    layer(
        "lang.eval_ms",
        "ms",
        Lower,
        "hvft-lang",
        ("setup_s", "repl-mem"),
    ),
    // hvft-model: measured NP against the paper's Table 1, EL 1024, Old.
    layer(
        "model.np_cpu",
        "ratio",
        Lower,
        "hvft-model",
        ("np_err_vs_paper", "paper-el1k"),
    ),
    layer(
        "model.np_read",
        "ratio",
        Lower,
        "hvft-model",
        ("np_err_vs_paper", "paper-el1k"),
    ),
    layer(
        "model.np_write",
        "ratio",
        Lower,
        "hvft-model",
        ("np_err_vs_paper", "paper-el1k"),
    ),
    layer(
        "model.np_err_cpu",
        "ratio",
        Lower,
        "hvft-model",
        ("np_err_vs_paper", "paper-el1k"),
    ),
    layer(
        "model.np_err_read",
        "ratio",
        Lower,
        "hvft-model",
        ("np_err_vs_paper", "paper-el1k"),
    ),
    layer(
        "model.np_err_write",
        "ratio",
        Lower,
        "hvft-model",
        ("np_err_vs_paper", "paper-el1k"),
    ),
    // The benchmark's own tracing.
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "trace",
        (HOST, "paper-el1k"),
    ),
];

/// Names of the traced run's result line (`--trace 1`), in order: the
/// per-layer metrics, then the end-to-end metrics that are not defined
/// on every workload.
#[cfg(test)]
pub fn traced_names() -> Vec<(&'static str, &'static str, Better)> {
    PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(
            END_TO_END
                .iter()
                .filter(|m| !m.gated())
                .map(|m| (m.name, m.unit, m.better)),
        )
        .collect()
}
