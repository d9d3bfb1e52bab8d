//! The unified scenario API: one validated, observable front door for
//! every way this reproduction can run a guest.
//!
//! The paper evaluates one protocol under three workloads; the harness
//! around this crate wants *arbitrary* combinations — any registered
//! [`Workload`], any driver (bare baseline, the realistic DES
//! [`FtSystem`], the round-synchronous [`TChain`], a sharded
//! [`FtCluster`]), any protocol variant, loss model and failure
//! schedule. Historically each harness hand-rolled an [`FtConfig`]
//! struct literal and called one of four incompatible entry points;
//! invalid combinations panicked from asserts buried in the drivers.
//!
//! [`Scenario`] replaces that:
//!
//! - [`ScenarioBuilder`] is the typed, validating constructor — invalid
//!   combinations come back as structured [`ConfigError`]s instead of
//!   panics;
//! - workloads plug in by value or **by name** from the
//!   [`hvft_guest::workload::registry`];
//! - every driver yields the same [`RunReport`] (exit, console, epochs,
//!   failovers, per-replica stats, timing histogram), so harnesses
//!   compare runs across drivers without per-driver adapters;
//! - [`Runner`] accepts [`Observer`]s for protocol-event hooks.
//!
//! # Examples
//!
//! ```
//! use hvft_core::scenario::Scenario;
//! use hvft_guest::workload::Dhrystone;
//!
//! // The paper's prototype: 1 backup, §2 protocol, 10 Mbps Ethernet.
//! let report = Scenario::builder()
//!     .workload(Dhrystone { iters: 200, ..Default::default() })
//!     .build()
//!     .expect("valid configuration")
//!     .run();
//! assert!(report.exit.is_clean_exit());
//! assert!(report.lockstep_clean);
//!
//! // Invalid combinations are structured errors, not panics.
//! use hvft_core::scenario::ConfigError;
//! let err = Scenario::builder()
//!     .workload(Dhrystone::default())
//!     .lossy(0.2) // loss without retransmission can never finish
//!     .build()
//!     .unwrap_err();
//! assert_eq!(err, ConfigError::LossWithoutRetransmit);
//! ```
//!
//! Selecting a workload by name (the CLI/CI path):
//!
//! ```
//! use hvft_core::scenario::Scenario;
//!
//! let report = Scenario::builder()
//!     .workload_named("sieve")
//!     .backups(2)
//!     .build()
//!     .unwrap()
//!     .run();
//! assert!(report.exit.is_clean_exit());
//! ```

use crate::chain::TChain;
use crate::cluster::FtCluster;
use crate::config::{FtConfig, ProtocolVariant};
use crate::observer::Observer;
use crate::system::{Fault, FtSystem};
use hvft_guest::workload::{by_name, UnknownWorkload, Workload};
use hvft_hypervisor::bare::{BareExit, BareHost};
use hvft_hypervisor::cost::CostModel;
use hvft_hypervisor::hvguest::{HvConfig, HvStats};
use hvft_isa::program::Program;
use hvft_machine::mem::IO_BASE;
use hvft_net::link::LinkSpec;
use hvft_sim::time::{SimDuration, SimTime};
use std::fmt;

// The knobs a builder user names directly and the result every run
// yields, re-exported so scenario call sites need only this module.
pub use crate::config::ProtocolVariant as Protocol;
pub use crate::report::{ExitStatus, RunReport};
pub use hvft_machine::{ExecStats, ExecTier};

/// The argument of [`ClusterScenario::parallelism`], which ignores it:
/// every cluster runs on the calling thread. Kept only because the
/// frozen benchmark names both variants.
#[derive(Clone, Copy, Debug)]
pub enum Parallelism {
    /// The one schedule.
    Sequential,
    /// Runs exactly as [`Parallelism::Sequential`] does.
    Threads(usize),
}

/// Upper bound on the configurable disk size. The simulated medium is
/// held in memory (8 KB per block); a configuration above this bound is
/// almost certainly a typo and would silently allocate gigabytes.
pub const MAX_DISK_BLOCKS: u32 = 1 << 15;

/// Why a scenario configuration was rejected.
///
/// Every variant corresponds to a combination the drivers previously
/// rejected with a panic (or worse, accepted and hung on).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// No workload (or raw image) was supplied.
    MissingWorkload,
    /// [`ScenarioBuilder::workload_named`] named nothing in the
    /// [`hvft_guest::workload::registry`]; the payload carries the
    /// failed name *and* every registered name.
    UnknownWorkload(UnknownWorkload),
    /// The workload's guest image failed to assemble.
    WorkloadImage(String),
    /// A replicated driver was configured with zero backups.
    NoBackups,
    /// Message loss was enabled without the ack/retransmission layer: a
    /// single lost `[Tme]` or `[end]` would stall its epoch boundary
    /// forever.
    LossWithoutRetransmit,
    /// A rejoin schedule was configured without the ack/retransmission
    /// layer. Reintegration rides the reliable-framed transport, and
    /// only reliable mode sends the heartbeats that keep backup
    /// detectors quiet while the boundary stalls behind a state
    /// transfer.
    RejoinWithoutRetransmit,
    /// The failure-detection timeout does not dominate worst-case loss
    /// recovery, so an unlucky drop burst would promote a backup under
    /// a live primary.
    DetectorTooShort {
        /// The configured detection timeout.
        detector: SimDuration,
        /// The minimum the retransmission timeout demands (32 × rto).
        required: SimDuration,
    },
    /// The disk exceeds [`MAX_DISK_BLOCKS`].
    DiskTooLarge {
        /// Configured number of blocks.
        blocks: u32,
        /// The bound.
        max: u32,
    },
    /// A zero-block disk cannot complete any I/O workload.
    EmptyDisk,
    /// A zero-length epoch never reaches a boundary.
    ZeroEpochLen,
    /// A failstop or rejoin names a replica the system does not have.
    NoSuchReplica {
        /// The replica index asked for.
        replica: usize,
        /// How many replicas there are (`1 + backups`).
        replicas: usize,
    },
    /// An option was combined with a driver that cannot honour it (the
    /// payload says which and why).
    DriverMismatch(&'static str),
    /// A TLB needs at least one slot.
    EmptyTlb,
    /// The machine's RAM must hold the guest image and end below the
    /// I/O window.
    RamSize {
        /// The configured RAM size in bytes.
        ram_bytes: usize,
        /// Where the guest image ends: the least RAM that holds it.
        min: usize,
        /// The I/O window's base: the most RAM there can be.
        max: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MissingWorkload => {
                write!(
                    f,
                    "no workload: call workload(..), workload_named(..) or image(..)"
                )
            }
            ConfigError::UnknownWorkload(e) => write!(f, "{e}"),
            ConfigError::WorkloadImage(e) => write!(f, "workload image failed to assemble: {e}"),
            ConfigError::NoBackups => {
                write!(f, "a fault-tolerant scenario needs backups >= 1")
            }
            ConfigError::LossWithoutRetransmit => write!(
                f,
                "message loss without retransmission stalls the first dropped \
                 epoch boundary forever (add retransmit(..))"
            ),
            ConfigError::RejoinWithoutRetransmit => write!(
                f,
                "reintegration needs the reliable layer: state transfers ride \
                 its framing and its heartbeats keep detectors quiet during \
                 the transfer (add retransmit(..))"
            ),
            ConfigError::DetectorTooShort { detector, required } => write!(
                f,
                "detector_timeout ({detector}) must be at least 32x the \
                 retransmission timeout ({required} required) or loss bursts \
                 falsely promote a backup under a live primary"
            ),
            ConfigError::DiskTooLarge { blocks, max } => {
                write!(f, "disk of {blocks} blocks exceeds the {max}-block bound")
            }
            ConfigError::EmptyDisk => write!(f, "a disk needs at least one block"),
            ConfigError::ZeroEpochLen => write!(f, "epoch length must be at least 1 instruction"),
            ConfigError::NoSuchReplica { replica, replicas } => write!(
                f,
                "no replica {replica}: the system has replicas 0..{replicas} \
                 (primary + backups)"
            ),
            ConfigError::DriverMismatch(why) => write!(f, "driver mismatch: {why}"),
            ConfigError::EmptyTlb => write!(f, "a TLB needs at least one slot"),
            ConfigError::RamSize {
                ram_bytes,
                min,
                max,
            } => write!(
                f,
                "RAM of {ram_bytes} bytes: the guest image needs {min} and the \
                 I/O window leaves room for {max}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which machinery executes the scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Driver {
    /// The guest directly on simulated hardware — the paper's `RT`
    /// baseline. No replication, no protocol.
    Bare,
    /// The realistic discrete-event system ([`FtSystem`]): modelled
    /// link timing, timeout failure detectors, shared disk and console.
    #[default]
    Replicated,
    /// The round-synchronous t-fault chain ([`TChain`]) on instant
    /// links: same engines, abstract machinery, failures scheduled by
    /// epoch.
    Chain,
}

/// What the builder was given as the guest.
enum WorkloadSpec {
    Named(String),
    Custom(Box<dyn Workload>),
    Image(Program),
}

/// Typed, validating builder for [`Scenario`] — the single public way
/// to configure a run. See the [module docs](self) for examples.
pub struct ScenarioBuilder {
    workload: Option<WorkloadSpec>,
    driver: Driver,
    cfg: FtConfig,
    backups: Option<usize>,
    faults: Vec<(SimTime, Fault)>,
    chain_failures_at: Vec<u64>,
    max_epochs: u64,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            workload: None,
            driver: Driver::default(),
            cfg: FtConfig::default(),
            backups: None,
            faults: Vec::new(),
            chain_failures_at: Vec::new(),
            max_epochs: 1_000_000,
        }
    }
}

impl ScenarioBuilder {
    /// Sets the guest workload by value.
    pub fn workload(mut self, w: impl Workload + 'static) -> Self {
        self.workload = Some(WorkloadSpec::Custom(Box::new(w)));
        self
    }

    /// Sets the guest workload by registry name (see
    /// [`hvft_guest::workload::names`]).
    pub fn workload_named(mut self, name: impl Into<String>) -> Self {
        self.workload = Some(WorkloadSpec::Named(name.into()));
        self
    }

    /// Escape hatch: run a pre-assembled guest image (differential
    /// tests with synthetic instruction streams).
    pub fn image(mut self, image: Program) -> Self {
        self.workload = Some(WorkloadSpec::Image(image));
        self
    }

    /// Selects the driver (default: [`Driver::Replicated`]).
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = driver;
        self
    }

    /// Shorthand for `driver(Driver::Bare)`.
    pub fn bare(self) -> Self {
        self.driver(Driver::Bare)
    }

    /// Shorthand for `driver(Driver::Chain)`.
    pub fn chain(self) -> Self {
        self.driver(Driver::Chain)
    }

    /// Selects the protocol variant (default: the §2 original).
    pub fn protocol(mut self, p: ProtocolVariant) -> Self {
        self.cfg.protocol = p;
        self
    }

    /// Number of ordered backups (`t`); default 1, the paper's
    /// prototype.
    pub fn backups(mut self, t: usize) -> Self {
        self.backups = Some(t);
        self
    }

    /// Per-message loss probability on every coordination link
    /// (requires [`ScenarioBuilder::retransmit`]).
    pub fn lossy(mut self, p: f64) -> Self {
        self.cfg.loss_prob = p;
        self
    }

    /// Enables the link-level ack/retransmission layer with this
    /// timeout.
    pub fn retransmit(mut self, rto: SimDuration) -> Self {
        self.cfg.retransmit = Some(rto);
        self
    }

    /// Bounded NIC-queue backpressure: a sender whose outbound queueing
    /// delay (`busy_until - now`) exceeds `bound` blocks until the
    /// queue drains, making the §4.3 (New) saturated regime physical
    /// instead of infinite-buffer. Off by default, so Table 1 runs are
    /// unchanged. Replicated/cluster driver only.
    pub fn nic_queue_bound(mut self, bound: SimDuration) -> Self {
        self.cfg.nic_queue_bound = Some(bound);
        self
    }

    /// Backup failure-detection timeout (rank-scaled per backup).
    pub fn detector_timeout(mut self, d: SimDuration) -> Self {
        self.cfg.detector_timeout = d;
        self
    }

    /// Failstops the acting primary at `at` (repeatable: later calls
    /// schedule cascading failures of whoever is then primary).
    pub fn fail_primary_at(mut self, at: SimTime) -> Self {
        self.faults.push((at, Fault::Primary));
        self
    }

    /// Failstops a specific replica at `at` (backup processor death).
    pub fn fail_replica_at(mut self, at: SimTime, replica: usize) -> Self {
        self.faults.push((at, Fault::Replica(replica)));
        self
    }

    /// Puts a failstopped replica back on the LAN at `at` (the repaired
    /// processor of §5's future work). It waits for a whole-state
    /// snapshot the acting primary takes at its next epoch boundary,
    /// restores it, and rejoins the chain as a live backup — restoring
    /// `t`-fault coverage, so a *subsequent* primary failure can again
    /// be survived. A replica that is not failstopped at `at` is left
    /// alone. Requires [`ScenarioBuilder::retransmit`]; replicated
    /// driver only.
    pub fn rejoin_replica_at(mut self, at: SimTime, replica: usize) -> Self {
        self.faults.push((at, Fault::Rejoin(replica)));
        self
    }

    /// Chain driver only: failstop the acting primary at this epoch
    /// (repeatable, ascending).
    pub fn fail_primary_at_epoch(mut self, epoch: u64) -> Self {
        self.chain_failures_at.push(epoch);
        self
    }

    /// Chain driver only: epoch budget guard (default 1 000 000).
    pub fn max_epochs(mut self, epochs: u64) -> Self {
        self.max_epochs = epochs;
        self
    }

    /// Epoch length in instructions.
    pub fn epoch_len(mut self, el: u32) -> Self {
        self.cfg.hv.epoch_len = el;
        self
    }

    /// Timing cost model (default: calibrated HP 9000/720).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Shorthand for [`CostModel::functional`] — near-zero hypervisor
    /// overheads for functional (non-performance) runs.
    pub fn functional_cost(self) -> Self {
        self.cost(CostModel::functional())
    }

    /// Coordination link model (default: 10 Mbps Ethernet).
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.cfg.link = link;
        self
    }

    /// Full per-guest hypervisor configuration (epoch length, TLB
    /// policy, execution tier…), for knobs without a dedicated setter.
    pub fn hv(mut self, hv: HvConfig) -> Self {
        self.cfg.hv = hv;
        self
    }

    /// Whether the hypervisor manages the TLB (the §3.2 fix; default
    /// true — disabling reproduces the replica-divergence surprise).
    pub fn tlb_managed(mut self, managed: bool) -> Self {
        self.cfg.hv.tlb_managed = managed;
        self
    }

    /// TLB slots of the simulated machine (at least 1).
    pub fn tlb_slots(mut self, slots: usize) -> Self {
        self.cfg.hv.tlb_slots = slots;
        self
    }

    /// Selects the execution engine for every guest — the single-step
    /// reference interpreter or the threaded-code jit (the default).
    /// The two are observably identical; see the differential oracle in
    /// `tests/proptest_step_vs_block.rs`.
    pub fn exec_tier(mut self, tier: ExecTier) -> Self {
        self.cfg.hv.exec_tier = tier;
        self
    }

    /// Disk size in blocks (1 ..= [`MAX_DISK_BLOCKS`]).
    pub fn disk_blocks(mut self, blocks: u32) -> Self {
        self.cfg.disk_blocks = blocks;
        self
    }

    /// Probability a disk operation reports an uncertain outcome (IO2).
    pub fn disk_fault_prob(mut self, p: f64) -> Self {
        self.cfg.disk_fault_prob = p;
        self
    }

    /// Base RNG seed for the environment (disk faults, loss draws).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Safety limit on retired instructions per guest.
    pub fn max_insns(mut self, n: u64) -> Self {
        self.cfg.max_insns = n;
        self
    }

    /// Whether to hash replica states at every boundary (default on;
    /// costs wall time, not simulated time).
    pub fn lockstep(mut self, check: bool) -> Self {
        self.cfg.lockstep_check = check;
        self
    }

    /// Validates the configuration and produces a runnable
    /// [`Scenario`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the combination violates; see
    /// the variants for the rules.
    pub fn build(mut self) -> Result<Scenario, ConfigError> {
        let (image, name) = match self.workload.take() {
            None => return Err(ConfigError::MissingWorkload),
            Some(WorkloadSpec::Named(name)) => {
                let w = by_name(&name).map_err(ConfigError::UnknownWorkload)?;
                let img = w
                    .image()
                    .map_err(|e| ConfigError::WorkloadImage(e.to_string()))?;
                (img, w.name())
            }
            Some(WorkloadSpec::Custom(w)) => {
                let img = w
                    .image()
                    .map_err(|e| ConfigError::WorkloadImage(e.to_string()))?;
                (img, w.name())
            }
            Some(WorkloadSpec::Image(img)) => (img, "image".to_owned()),
        };
        if self.cfg.hv.epoch_len == 0 {
            return Err(ConfigError::ZeroEpochLen);
        }
        if self.cfg.hv.tlb_slots == 0 {
            return Err(ConfigError::EmptyTlb);
        }
        let ram_bytes = self.cfg.hv.ram_bytes;
        let min = image.segments.iter().map(|s| s.end() as usize).max();
        let (min, max) = (min.unwrap_or(0), IO_BASE as usize);
        if !(min..=max).contains(&ram_bytes) {
            return Err(ConfigError::RamSize {
                ram_bytes,
                min,
                max,
            });
        }
        if self.cfg.disk_blocks == 0 {
            return Err(ConfigError::EmptyDisk);
        }
        if self.cfg.disk_blocks > MAX_DISK_BLOCKS {
            return Err(ConfigError::DiskTooLarge {
                blocks: self.cfg.disk_blocks,
                max: MAX_DISK_BLOCKS,
            });
        }
        let rejoins = |(_, f): &(SimTime, Fault)| matches!(f, Fault::Rejoin(_));
        if self.faults.iter().any(rejoins) {
            if self.driver != Driver::Replicated {
                return Err(ConfigError::DriverMismatch(
                    "reintegration rides the replicated DES's timed network \
                     (bare and chain runs cannot rejoin a repaired replica)",
                ));
            }
            if self.cfg.retransmit.is_none() {
                return Err(ConfigError::RejoinWithoutRetransmit);
            }
        }
        if self.driver != Driver::Replicated && self.cfg.nic_queue_bound.is_some() {
            return Err(ConfigError::DriverMismatch(
                "the NIC queue bound shapes the replicated DES's timed \
                 coordination network (bare and chain runs have none)",
            ));
        }
        match self.driver {
            Driver::Bare => {
                if self.backups.is_some() {
                    return Err(ConfigError::DriverMismatch(
                        "the bare baseline has no replicas (drop backups(..))",
                    ));
                }
                // (Rejoins were turned away above: what is left of the
                // schedule on a non-replicated driver is failstops.)
                if !self.faults.is_empty() || !self.chain_failures_at.is_empty() {
                    return Err(ConfigError::DriverMismatch(
                        "the bare baseline has no processors to failstop",
                    ));
                }
            }
            Driver::Replicated => {
                if !self.chain_failures_at.is_empty() {
                    return Err(ConfigError::DriverMismatch(
                        "epoch-scheduled failures need the chain driver \
                         (use fail_primary_at(..) with simulated times)",
                    ));
                }
            }
            Driver::Chain => {
                if !self.faults.is_empty() {
                    return Err(ConfigError::DriverMismatch(
                        "the round-synchronous chain schedules failures by epoch \
                         (use fail_primary_at_epoch(..))",
                    ));
                }
            }
        }
        if let Some(t) = self.backups {
            if t == 0 && self.driver != Driver::Bare {
                return Err(ConfigError::NoBackups);
            }
            self.cfg.backups = t;
        }
        let replicas = 1 + self.cfg.backups;
        for &(_, fault) in &self.faults {
            if let Fault::Replica(replica) | Fault::Rejoin(replica) = fault {
                if replica >= replicas {
                    return Err(ConfigError::NoSuchReplica { replica, replicas });
                }
            }
        }
        if self.cfg.loss_prob > 0.0 {
            let Some(rto) = self.cfg.retransmit else {
                return Err(ConfigError::LossWithoutRetransmit);
            };
            let required = rto * 32;
            if self.cfg.detector_timeout < required {
                return Err(ConfigError::DetectorTooShort {
                    detector: self.cfg.detector_timeout,
                    required,
                });
            }
        }
        self.chain_failures_at.sort_unstable();
        Ok(Scenario {
            label: format!("{name}@{:?}", self.driver).to_lowercase(),
            image,
            cfg: self.cfg,
            driver: self.driver,
            faults: self.faults,
            chain_failures_at: self.chain_failures_at,
            max_epochs: self.max_epochs,
        })
    }
}

/// A validated, runnable configuration: workload image + driver +
/// knobs. Obtained from [`Scenario::builder`]; immutable thereafter, so
/// one scenario can be run (or sharded into a cluster) any number of
/// times.
pub struct Scenario {
    label: String,
    image: Program,
    cfg: FtConfig,
    driver: Driver,
    /// Every failstop and rejoin asked for, in the order asked.
    faults: Vec<(SimTime, Fault)>,
    chain_failures_at: Vec<u64>,
    max_epochs: u64,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("label", &self.label)
            .field("driver", &self.driver)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// Starts a builder with the paper-prototype defaults (1 backup, §2
    /// protocol, 10 Mbps Ethernet, lossless links, calibrated costs).
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The scenario's `workload@driver` label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The validated low-level configuration (the scenario layer is the
    /// only sanctioned producer of these).
    pub fn config(&self) -> &FtConfig {
        &self.cfg
    }

    /// The assembled guest image.
    pub fn image(&self) -> &Program {
        &self.image
    }

    /// Instantiates the driver. Use this instead of [`Scenario::run`]
    /// to attach [`Observer`]s or to touch the underlying system
    /// (pre-filling disk blocks, scheduling checkpoints) before running.
    pub fn runner(&self) -> Runner {
        match self.driver {
            Driver::Bare => {
                let mut host = BareHost::new(
                    &self.image,
                    self.cfg.cost,
                    self.cfg.hv.ram_bytes,
                    self.cfg.disk_blocks,
                    self.cfg.seed,
                );
                host.set_exec_tier(self.cfg.hv.exec_tier);
                host.set_tlb(self.cfg.hv.tlb_slots, self.cfg.hv.tlb_policy);
                host.disk.set_fault_probability(self.cfg.disk_fault_prob);
                Runner::Bare {
                    host,
                    max_insns: self.cfg.max_insns,
                    label: self.label.clone(),
                }
            }
            Driver::Replicated => {
                let mut system = FtSystem::from_config(&self.image, self.cfg);
                self.schedule_faults(&mut system);
                Runner::Replicated {
                    system,
                    label: self.label.clone(),
                }
            }
            Driver::Chain => Runner::Chain {
                chain: TChain::build(
                    &self.image,
                    self.cfg.backups,
                    self.cfg.cost,
                    self.cfg.hv,
                    self.cfg.protocol,
                ),
                failures_at: self.chain_failures_at.clone(),
                max_epochs: self.max_epochs,
                label: self.label.clone(),
            },
        }
    }

    /// Puts this scenario's fault schedule on a freshly built
    /// replicated system.
    fn schedule_faults(&self, system: &mut FtSystem) {
        for &(at, fault) in &self.faults {
            system.schedule_fault(at, fault);
        }
    }

    /// Runs the scenario to completion.
    pub fn run(&self) -> RunReport {
        self.runner().run()
    }
}

/// A driver instance ready to run one scenario — the uniform wrapper
/// over [`BareHost`], [`FtSystem`] and [`TChain`] that makes every run
/// yield a [`RunReport`].
pub enum Runner {
    /// The bare baseline.
    Bare {
        /// The bare machine.
        host: BareHost,
        /// Instruction guard.
        max_insns: u64,
        /// Report label.
        label: String,
    },
    /// The realistic DES.
    Replicated {
        /// The t-replica system.
        system: FtSystem,
        /// Report label.
        label: String,
    },
    /// The round-synchronous chain.
    Chain {
        /// The replica chain.
        chain: TChain,
        /// Epochs at which the acting primary failstops.
        failures_at: Vec<u64>,
        /// Epoch budget guard.
        max_epochs: u64,
        /// Report label.
        label: String,
    },
}

impl Runner {
    /// Registers a run [`Observer`]. The replicated driver fires every
    /// hook; the chain fires epoch-boundary and failover hooks; the
    /// bare driver has no protocol events and accepts (but never
    /// invokes) observers.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        match self {
            Runner::Bare { .. } => {}
            Runner::Replicated { system, .. } => system.add_observer(observer),
            Runner::Chain { chain, .. } => chain.add_observer(observer),
        }
    }

    /// Removes and returns the registered observers (to read their
    /// accumulated state after [`Runner::run`]).
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        match self {
            Runner::Bare { .. } => Vec::new(),
            Runner::Replicated { system, .. } => system.take_observers(),
            Runner::Chain { chain, .. } => chain.take_observers(),
        }
    }

    /// The underlying [`FtSystem`], when the driver is replicated
    /// (disk pre-filling, checkpoints, extra failure scheduling).
    pub fn ft_mut(&mut self) -> Option<&mut FtSystem> {
        match self {
            Runner::Replicated { system, .. } => Some(system),
            _ => None,
        }
    }

    /// The underlying [`BareHost`], when the driver is bare.
    pub fn bare_mut(&mut self) -> Option<&mut BareHost> {
        match self {
            Runner::Bare { host, .. } => Some(host),
            _ => None,
        }
    }

    /// The underlying [`TChain`], when the driver is the chain.
    pub fn chain_mut(&mut self) -> Option<&mut TChain> {
        match self {
            Runner::Chain { chain, .. } => Some(chain),
            _ => None,
        }
    }

    /// Runs to completion and reports uniformly.
    ///
    /// Driver-specific gaps in the report: the bare driver has no
    /// replicas (replica/lockstep/message fields are empty, epochs 0);
    /// the chain has no timed network or disk (message and latency
    /// fields empty, failover `at` is the promoted replica's guest
    /// time).
    pub fn run(&mut self) -> RunReport {
        let (mut report, label) = match self {
            Runner::Bare {
                host,
                max_insns,
                label,
            } => {
                let r = host.run(*max_insns);
                let exit = match r.exit {
                    BareExit::Halted { code: Some(c) } => ExitStatus::Exit(c),
                    BareExit::Halted { code: None } | BareExit::Stuck => ExitStatus::Fatal(None),
                    BareExit::InstructionLimit => ExitStatus::InsnLimit,
                };
                let report = RunReport {
                    console: host.console.output(),
                    console_hosts: host.console.hosts_seen(),
                    retired: r.retired,
                    primary_stats: HvStats {
                        exec: host.exec_stats(),
                        ..HvStats::default()
                    },
                    disk_log: host.disk.log().to_vec(),
                    disk_digest: host.disk.medium_digest(),
                    guest_retries: host
                        .mem
                        .read_u32(hvft_guest::layout::kdata::RETRIES)
                        .unwrap_or(0),
                    ..RunReport::new(exit, r.time)
                };
                (report, label)
            }
            Runner::Replicated { system, label } => (system.run(), label),
            Runner::Chain {
                chain,
                failures_at,
                max_epochs,
                label,
            } => (chain.run(failures_at, *max_epochs), label),
        };
        report.label.clone_from(label);
        report
    }
}

/// Many replicated scenarios sharded onto one shared LAN — the
/// scenario-level face of [`FtCluster`].
///
/// # Examples
///
/// ```
/// use hvft_core::scenario::{ClusterScenario, Scenario};
/// use hvft_net::link::LinkSpec;
///
/// let mut cluster = ClusterScenario::new(LinkSpec::ethernet_10mbps(), 7);
/// for name in ["hello", "sieve"] {
///     cluster
///         .add(
///             Scenario::builder()
///                 .workload_named(name)
///                 .functional_cost()
///                 .build()
///                 .unwrap(),
///         )
///         .unwrap();
/// }
/// let reports = cluster.run();
/// assert!(reports.iter().all(|r| r.exit.is_clean_exit()));
/// ```
pub struct ClusterScenario {
    link: LinkSpec,
    seed: u64,
    shards: Vec<Scenario>,
}

impl ClusterScenario {
    /// An empty cluster over a shared medium modelled by `link`; `seed`
    /// feeds the medium's per-link loss RNGs.
    pub fn new(link: LinkSpec, seed: u64) -> Self {
        ClusterScenario {
            link,
            seed,
            shards: Vec::new(),
        }
    }

    /// Takes a [`Parallelism`] and drops it: every cluster runs on the
    /// calling thread. The name is kept only for the frozen benchmark.
    pub fn parallelism(&mut self, _: Parallelism) -> &mut Self {
        self
    }

    /// Adds one shard. Only [`Driver::Replicated`] scenarios can share
    /// a LAN.
    ///
    /// # Errors
    ///
    /// [`ConfigError::DriverMismatch`] for bare or chain scenarios.
    pub fn add(&mut self, scenario: Scenario) -> Result<&mut Self, ConfigError> {
        if scenario.driver != Driver::Replicated {
            return Err(ConfigError::DriverMismatch(
                "only replicated scenarios can shard onto a shared LAN",
            ));
        }
        self.shards.push(scenario);
        Ok(self)
    }

    /// Number of shards added so far.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Runs every shard to completion over the shared medium and
    /// returns their reports in shard order.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no shards.
    pub fn run(&self) -> Vec<RunReport> {
        self.run_with_lan_stats().0
    }

    /// [`ClusterScenario::run`] plus the shared medium's traffic
    /// counters (sent/dropped/delivered across every link), for oracles
    /// that must prove the wire actually lost traffic.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no shards.
    pub fn run_with_lan_stats(&self) -> (Vec<RunReport>, hvft_net::lan::LanStats) {
        assert!(!self.shards.is_empty(), "empty cluster scenario");
        let mut cluster = FtCluster::new(self.link, self.seed);
        for shard in &self.shards {
            let i = cluster.add_system(&shard.image, shard.cfg);
            shard.schedule_faults(cluster.system_mut(i));
        }
        let mut reports = cluster.run();
        for (report, shard) in reports.iter_mut().zip(&self.shards) {
            report.label.clone_from(&shard.label);
        }
        (reports, cluster.lan_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvft_guest::workload::{Dhrystone, Hello};

    fn tiny_dhry() -> Dhrystone {
        Dhrystone {
            iters: 150,
            ..Default::default()
        }
    }

    #[test]
    fn default_scenario_is_the_paper_prototype() {
        let s = Scenario::builder()
            .workload(tiny_dhry())
            .build()
            .expect("defaults are valid");
        assert_eq!(s.config().backups, 1);
        assert_eq!(s.config().protocol, ProtocolVariant::Old);
        assert_eq!(s.label(), "dhrystone@replicated");
    }

    #[test]
    fn bare_and_replicated_agree_on_the_checksum() {
        let bare = Scenario::builder()
            .workload(tiny_dhry())
            .bare()
            .build()
            .unwrap()
            .run();
        let ft = Scenario::builder()
            .workload(tiny_dhry())
            .functional_cost()
            .build()
            .unwrap()
            .run();
        let chain = Scenario::builder()
            .workload(tiny_dhry())
            .chain()
            .functional_cost()
            .build()
            .unwrap()
            .run();
        assert!(bare.exit.is_clean_exit());
        assert_eq!(bare.exit.code(), ft.exit.code(), "bare vs DES");
        assert_eq!(bare.exit.code(), chain.exit.code(), "bare vs chain");
        assert!(ft.lockstep_clean && ft.lockstep_compared > 0);
        assert!(bare.retired > 0 && ft.retired > 0);
    }

    #[test]
    fn failure_scheduling_flows_through_the_builder() {
        let probe = Scenario::builder()
            .workload(Hello::default())
            .functional_cost()
            .build()
            .unwrap()
            .run();
        assert!(probe.exit.is_clean_exit());
        let half = SimTime::ZERO + probe.completion_time / 2;
        let r = Scenario::builder()
            .workload(Hello::default())
            .functional_cost()
            .backups(2)
            .fail_primary_at(half)
            .build()
            .unwrap()
            .run();
        assert_eq!(r.exit, ExitStatus::Exit(42));
        assert_eq!(r.failovers.len(), 1);
        assert_eq!(r.console, probe.console, "failover must stay transparent");
    }

    #[test]
    fn chain_failures_schedule_by_epoch() {
        let r = Scenario::builder()
            .workload(tiny_dhry())
            .chain()
            .functional_cost()
            .backups(2)
            .epoch_len(1024)
            .fail_primary_at_epoch(2)
            .fail_primary_at_epoch(4)
            .build()
            .unwrap()
            .run();
        assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
        assert_eq!(r.failovers.len(), 2);
        assert_eq!(
            r.failovers.iter().map(|f| f.epoch).collect::<Vec<_>>(),
            vec![2, 4]
        );
    }

    #[test]
    fn exec_tier_is_selectable_on_every_driver() {
        for tier in [ExecTier::Step, ExecTier::Jit] {
            let run = |driver: Driver| {
                Scenario::builder()
                    .workload(tiny_dhry())
                    .driver(driver)
                    .functional_cost()
                    .exec_tier(tier)
                    .build()
                    .unwrap()
                    .run()
            };
            let bare = run(Driver::Bare);
            let ft = run(Driver::Replicated);
            let chain = run(Driver::Chain);
            assert!(bare.exit.is_clean_exit());
            assert_eq!(bare.exit.code(), ft.exit.code(), "bare vs DES under {tier}");
            assert_eq!(
                bare.exit.code(),
                chain.exit.code(),
                "bare vs chain under {tier}"
            );
            assert!(ft.lockstep_clean && ft.lockstep_compared > 0);
            // The tier breakdown must prove the selected engine ran.
            for (r, who) in [(&bare, "bare"), (&ft, "replicated"), (&chain, "chain")] {
                let x = r.exec_stats();
                match tier {
                    ExecTier::Step => {
                        assert_eq!(x.jit_retired, 0, "{who}: the jit ran under step");
                        assert!(x.step_retired > 0, "{who}: nothing stepped");
                    }
                    ExecTier::Jit => {
                        assert!(x.superblocks_compiled > 0, "{who}: no superblocks compiled");
                        assert!(x.jit_retired > 0, "{who}: nothing retired in superblocks");
                    }
                }
            }
        }
    }

    #[test]
    fn bare_runs_draw_the_disk_faults_replicated_runs_draw() {
        let run = |driver: Driver| {
            Scenario::builder()
                .workload(hvft_guest::workload::IoBench {
                    ops: 4,
                    ..Default::default()
                })
                .driver(driver)
                .disk_fault_prob(0.3)
                .seed(2)
                .build()
                .unwrap()
                .run()
        };
        let (bare, ft) = (run(Driver::Bare), run(Driver::Replicated));
        assert_eq!(ft.guest_retries, 1);
        assert_eq!(
            bare.guest_retries, ft.guest_retries,
            "bare ignored the fault probability"
        );
    }

    #[test]
    fn bare_runs_get_the_tlb_replicated_runs_get() {
        let run = |slots: usize| {
            let scenario = Scenario::builder()
                .workload(tiny_dhry())
                .bare()
                .tlb_slots(slots)
                .build()
                .unwrap();
            let mut runner = scenario.runner();
            let host = runner.bare_mut().expect("bare driver");
            assert_eq!(host.cpu.tlb.capacity(), slots);
            runner.run()
        };
        let (small, default) = (run(2), run(64));
        assert!(small.exit.is_clean_exit() && default.exit.is_clean_exit());
        assert_eq!(small.exit.code(), default.exit.code());
        // The bare guest's kernel refills a two-slot TLB far more often.
        assert!(
            small.retired > default.retired,
            "bare ignored tlb_slots: {} vs {}",
            small.retired,
            default.retired
        );
    }

    #[test]
    fn validation_rejects_the_classic_footguns() {
        let base = || Scenario::builder().workload(tiny_dhry());
        assert_eq!(
            base().lossy(0.1).build().unwrap_err(),
            ConfigError::LossWithoutRetransmit
        );
        assert_eq!(
            base().backups(0).build().unwrap_err(),
            ConfigError::NoBackups
        );
        assert!(matches!(
            base()
                .lossy(0.1)
                .retransmit(SimDuration::from_millis(5))
                .detector_timeout(SimDuration::from_millis(10))
                .build()
                .unwrap_err(),
            ConfigError::DetectorTooShort { .. }
        ));
        assert!(matches!(
            base().disk_blocks(MAX_DISK_BLOCKS + 1).build().unwrap_err(),
            ConfigError::DiskTooLarge { .. }
        ));
        assert_eq!(
            Scenario::builder().build().unwrap_err(),
            ConfigError::MissingWorkload
        );
        let err = Scenario::builder()
            .workload_named("no-such-guest")
            .build()
            .unwrap_err();
        match err {
            ConfigError::UnknownWorkload(u) => {
                assert_eq!(u.name, "no-such-guest");
                assert!(
                    u.registered.iter().any(|n| n == "lang-gcd"),
                    "error must list the registry: {u:?}"
                );
            }
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }
    }

    #[test]
    fn observer_hooks_fire_on_the_replicated_driver() {
        use std::cell::Cell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Counts {
            boundaries: Cell<u64>,
            sends: Cell<u64>,
            interrupts: Cell<u64>,
        }
        struct Obs(Rc<Counts>);
        impl Observer for Obs {
            fn epoch_boundary(&mut self, _r: usize, _e: u64, _at: SimTime) {
                self.0.boundaries.set(self.0.boundaries.get() + 1);
            }
            fn message_sent(&mut self, _f: usize, _t: usize, _b: usize, _at: SimTime) {
                self.0.sends.set(self.0.sends.get() + 1);
            }
            fn interrupt_delivered(&mut self, _r: usize, _irq: u32, _at: SimTime) {
                self.0.interrupts.set(self.0.interrupts.get() + 1);
            }
        }

        // An I/O workload: disk completions flow through the engines'
        // DeliverInterrupt effect (rule P1/P5), which the hook reports.
        let scenario = Scenario::builder()
            .workload(hvft_guest::workload::IoBench::default())
            .functional_cost()
            .build()
            .unwrap();
        let counts = Rc::new(Counts::default());
        let mut runner = scenario.runner();
        runner.add_observer(Box::new(Obs(Rc::clone(&counts))));
        let report = runner.run();
        assert!(report.exit.is_clean_exit());
        assert!(counts.boundaries.get() > 0, "no boundary events seen");
        assert!(counts.sends.get() > 0, "no send events seen");
        assert!(counts.interrupts.get() > 0, "no interrupt events seen");
        // The observer saw every frame the counters counted (a
        // lossless raw-channel run: every offered frame is scheduled,
        // so the two accountings coincide exactly).
        assert_eq!(
            counts.sends.get(),
            report.messages_per_replica.iter().sum::<u64>(),
            "observer and driver counters must agree"
        );
    }

    #[test]
    fn observer_accounting_is_complete_under_loss() {
        use std::cell::Cell;
        use std::rc::Rc;

        // Under loss injection every offered frame must surface through
        // exactly one of message_sent / message_dropped — including
        // retransmissions — so sent + dropped equals the media's own
        // offered-frame counters (no link is ever severed here).
        #[derive(Default)]
        struct Wire {
            sent: Cell<u64>,
            dropped: Cell<u64>,
            retransmit_bursts: Cell<u64>,
        }
        struct Obs(Rc<Wire>);
        impl Observer for Obs {
            fn message_sent(&mut self, _f: usize, _t: usize, _b: usize, _at: SimTime) {
                self.0.sent.set(self.0.sent.get() + 1);
            }
            fn message_dropped(
                &mut self,
                _f: usize,
                _t: usize,
                _at: SimTime,
                _reason: crate::observer::DropReason,
            ) {
                self.0.dropped.set(self.0.dropped.get() + 1);
            }
            fn retransmit(&mut self, _f: usize, _t: usize, _n: usize, _at: SimTime) {
                self.0
                    .retransmit_bursts
                    .set(self.0.retransmit_bursts.get() + 1);
            }
        }

        let scenario = Scenario::builder()
            .workload(tiny_dhry())
            .functional_cost()
            .lossy(0.25)
            .retransmit(SimDuration::from_millis(5))
            .detector_timeout(SimDuration::from_millis(300))
            .build()
            .unwrap();
        let wire = Rc::new(Wire::default());
        let mut runner = scenario.runner();
        runner.add_observer(Box::new(Obs(Rc::clone(&wire))));
        let report = runner.run();
        assert!(report.exit.is_clean_exit(), "{:?}", report.exit);
        assert!(wire.dropped.get() > 0, "the lossy wire must lose frames");
        assert!(
            report.frames_retransmitted > 0 && wire.retransmit_bursts.get() > 0,
            "recovery must happen and be observed"
        );
        assert_eq!(
            wire.sent.get() + wire.dropped.get(),
            report.messages_per_replica.iter().sum::<u64>(),
            "every offered frame must surface through exactly one hook"
        );
    }

    #[test]
    fn observers_do_not_change_the_run() {
        struct Noop;
        impl Observer for Noop {}
        let scenario = Scenario::builder()
            .workload(tiny_dhry())
            .functional_cost()
            .build()
            .unwrap();
        let plain = scenario.run();
        let mut runner = scenario.runner();
        runner.add_observer(Box::new(Noop));
        let observed = runner.run();
        assert_eq!(plain.exit, observed.exit);
        assert_eq!(plain.completion_time, observed.completion_time);
        assert_eq!(plain.messages_per_replica, observed.messages_per_replica);
    }
}
