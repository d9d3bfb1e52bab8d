//! The one run-result type: every driver — bare, [`FtSystem`], [`TChain`],
//! [`FtCluster`] — yields a [`RunReport`] ending in an [`ExitStatus`].
//! Re-exported from [`crate::scenario`], the public front door.
//!
//! [`FtSystem`]: crate::system::FtSystem
//! [`TChain`]: crate::chain::TChain
//! [`FtCluster`]: crate::cluster::FtCluster

use crate::lockstep::Divergence;
use crate::system::{FailoverInfo, ReintegrationInfo};
use hvft_devices::disk::DiskLogEntry;
use hvft_devices::environment::Environment;
use hvft_hypervisor::hvguest::HvStats;
use hvft_machine::ExecStats;
use hvft_sim::stats::DurationHistogram;
use hvft_sim::time::SimDuration;

/// How a scenario's workload ended, uniform across drivers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExitStatus {
    /// The workload called `SYS_EXIT` with this code (checksum).
    Exit(u32),
    /// The guest halted without a clean exit (kernel fatal path, or a
    /// bare guest with no wake-up source).
    Fatal(Option<u32>),
    /// The per-guest instruction limit tripped.
    InsnLimit,
    /// More processors failed than the chain tolerates.
    Exhausted,
    /// Replicas diverged at this epoch boundary (protocol violation).
    Diverged(u64),
    /// The chain's epoch budget ran out.
    EpochLimit,
}

impl ExitStatus {
    /// Whether the workload finished with a clean `SYS_EXIT`.
    pub fn is_clean_exit(&self) -> bool {
        matches!(self, ExitStatus::Exit(_))
    }

    /// The exit code, if the workload exited cleanly.
    pub fn code(&self) -> Option<u32> {
        match self {
            ExitStatus::Exit(c) => Some(*c),
            _ => None,
        }
    }
}

/// The uniform result of running any scenario under any driver.
///
/// Fields a driver cannot measure are empty/zero and documented per
/// driver on [`crate::scenario::Runner::run`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// `workload@driver` label, for logs and bench records (empty when
    /// a driver is run directly rather than through a scenario).
    pub label: String,
    /// How the workload ended.
    pub exit: ExitStatus,
    /// Simulated completion time on the acting primary's clock (the
    /// paper's `N′`; the bare driver's `N`).
    pub completion_time: SimDuration,
    /// Bytes the environment's console received, in order.
    pub console: Vec<u8>,
    /// Replicas that wrote to the console, in order of first write
    /// (more than one entry only across a failover).
    pub console_hosts: Vec<u8>,
    /// Epochs completed at the acting primary.
    pub epochs: u64,
    /// Guest instructions retired at the acting primary.
    pub retired: u64,
    /// Every failover, in promotion order (cascading failures produce
    /// one entry per promotion).
    pub failovers: Vec<FailoverInfo>,
    /// Acting primary's hypervisor statistics.
    pub primary_stats: HvStats,
    /// Hypervisor statistics per replica, in chain order.
    pub replica_stats: Vec<HvStats>,
    /// Frames sent per replica (incl. retransmissions and acks).
    pub messages_per_replica: Vec<u64>,
    /// Data frames re-sent by the reliable layer.
    pub frames_retransmitted: u64,
    /// Duplicate frames suppressed by receivers.
    pub frames_suppressed: u64,
    /// Every completed backup reintegration, in completion order
    /// (replicated driver only).
    pub reintegrations: Vec<ReintegrationInfo>,
    /// Modelled bytes of completed reintegration state transfers.
    pub state_transfer_bytes: u64,
    /// Epoch-boundary state-hash comparisons performed.
    pub lockstep_compared: u64,
    /// Whether every compared boundary hashed identically.
    pub lockstep_clean: bool,
    /// Every boundary at which two replicas hashed differently, in
    /// detection order: `divergences[0]` names the first differing
    /// epoch and the disagreeing pair.
    pub divergences: Vec<Divergence>,
    /// The disk's environment-visible operation log.
    pub disk_log: Vec<DiskLogEntry>,
    /// [`hvft_devices::disk::Disk::medium_digest`] of the medium the run
    /// left (0 for a driver without a disk).
    pub disk_digest: u64,
    /// Disk-driver retries recorded by the guest kernel.
    pub guest_retries: u32,
    /// Guest-visible latency of each completed disk operation at the
    /// acting primary (GO to interrupt delivery).
    pub op_latencies: Vec<SimDuration>,
}

impl RunReport {
    /// A report of a run that ended with `exit` at `completion_time`
    /// and measured nothing else; each driver overrides the fields it
    /// can fill.
    pub(crate) fn new(exit: ExitStatus, completion_time: SimDuration) -> Self {
        RunReport {
            label: String::new(),
            exit,
            completion_time,
            console: Vec::new(),
            console_hosts: Vec::new(),
            epochs: 0,
            retired: 0,
            failovers: Vec::new(),
            primary_stats: HvStats::default(),
            replica_stats: Vec::new(),
            messages_per_replica: Vec::new(),
            frames_retransmitted: 0,
            frames_suppressed: 0,
            reintegrations: Vec::new(),
            state_transfer_bytes: 0,
            lockstep_compared: 0,
            lockstep_clean: true,
            divergences: Vec::new(),
            disk_log: Vec::new(),
            disk_digest: 0,
            guest_retries: 0,
            op_latencies: Vec::new(),
        }
    }

    /// [`op_latencies`](RunReport::op_latencies) as a histogram (1 ms
    /// buckets — the paper's operations sit around 26 ms).
    pub fn op_latency_hist(&self) -> DurationHistogram {
        let mut hist = DurationHistogram::new(SimDuration::from_millis(1), 64);
        for &d in &self.op_latencies {
            hist.record(d);
        }
        hist
    }

    /// What the outside world saw of the run: console, disk log and
    /// final medium, for [`hvft_devices::environment_equivalent`].
    pub fn environment(&self) -> Environment<'_> {
        Environment {
            console: &self.console,
            disk_log: &self.disk_log,
            medium: self.disk_digest,
        }
    }

    /// The acting primary's execution-tier breakdown: instructions
    /// retired per engine, superblocks compiled, jit invalidations.
    /// Per-replica breakdowns live in each
    /// [`replica_stats`](RunReport::replica_stats) entry.
    pub fn exec_stats(&self) -> ExecStats {
        self.primary_stats.exec
    }
}
