//! The t-fault-tolerant virtual machine as a discrete-event system:
//! `t + 1` hypervised hosts, the shared environment, and the protocol
//! engines of [`crate::protocol`].
//!
//! [`FtSystem`] is a *driver*: the P1–P7 / §4.3 rule logic lives
//! entirely in [`crate::protocol::ReplicaEngine`], and this module owns
//! what the rules are abstract over — the hosts' simulated clocks, the
//! coordination medium and its reliable layer, the shared disk and
//! console, the timeout failure detectors, and the conservative
//! co-simulation loop.
//!
//! Each host advances its own simulated clock, and a host may never run
//! past the earliest event that could affect it (the link's minimum
//! latency provides the lookahead). The result is a bit-deterministic
//! simulation of the whole prototype of §3 — HP 9000/720-class
//! machines, a shared disk, a console, and a coordination LAN — now
//! generalized from the paper's single backup to an ordered chain of
//! `t ≥ 1` backups with cascading failover:
//!
//! - the acting primary broadcasts `[E, Int]`, `[Tme_p]` and `[end, E]`
//!   to every live backup and counts every backup's acknowledgments;
//! - every backup runs its own failure detector, with a timeout of
//!   `k × base` for rank `k` among the live replicas, so the
//!   next-in-line backup suspects first; a deeper backup that suspects
//!   out of turn re-arms and defers to the chain order, so exactly one
//!   replica promotes even when detectors race;
//! - on promotion with survivors, the new primary completes the
//!   failover epoch for the whole chain (see
//!   [`crate::protocol::Input::Promote`]), and the survivors' detectors
//!   are re-armed against the new primary.
//!
//! # One home for each thing
//!
//! A replica is one host record: guest, clock, engine, device shadows
//! and the failure detector; the disk operation in flight is the disk's
//! own record, whoever issued it. A directed link is a link record at
//! each of its ends, `hosts[h].links[p]`, reached by index: the
//! reliable layer's windows and the instant the link last carried a
//! frame. No per-link lookup can miss. Each recurring mechanism is one
//! function:
//!
//! - **one wire path** — `FtSystem::put_on_wire` puts data frames,
//!   acks, heartbeats and retransmit bursts on the medium: it stamps
//!   the link's quiet-since instant, offers the frame and accounts the
//!   offer through the observers;
//! - **one detector rule** — `FtSystem::arm_detectors` arms every
//!   promotable backup in chain order and clears every other detector;
//!   boot, failover and reintegration each call it;
//! - **one failstop path** — `FtSystem::failstop` kills the acting
//!   primary or a backup through one prefix (clock, `Dead`, hook,
//!   severed links, disarmed windows, the victim's disk operation),
//!   then abandons a primary's state transfer, or takes a backup out of
//!   the primary's peer set and the rejoin pipeline.

use crate::config::FtConfig;
use crate::lockstep::LockstepChecker;
use crate::messages::{ForwardedInterrupt, Message, ReplicaState};
use crate::net::{Net, WireFrame};
use crate::observer::{DropReason, Observer, RunStats};
use crate::plan::{plan_step, EventTag, Planned, SlicePlan, StepPlan};
use crate::protocol::{apply_to_guest, Effect, Input, ReplicaEngine};
use crate::report::{ExitStatus, RunReport};
use hvft_devices::console::Console;
use hvft_devices::disk::Disk;
use hvft_devices::mmio::{self, DiskController, DiskGo};
use hvft_hypervisor::hvguest::{HvEvent, HvGuest};
use hvft_isa::program::Program;
use hvft_net::detector::FailureDetector;
use hvft_net::lan::Lan;
use hvft_net::reliable::{Frame, RecvWindow, SendWindow};
use hvft_sim::sched::Agenda;
use hvft_sim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

mod io;

/// An externally visible I/O the guest asked for, held until the engine
/// releases it: at once, or under §4.3 once acknowledgments complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PendingIo {
    DiskGo(DiskGo),
    ConsoleTx { byte: u8 },
}

/// Host lifecycle, orthogonal to the engine's protocol phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Life {
    /// Participating in the protocol.
    Active,
    /// Finished as acting primary: the run is over.
    Done(ExitStatus),
    /// The guest finished the workload while still an unpromoted backup
    /// (its exit was suppressed); it waits to learn the primary's fate.
    BackupDone(ExitStatus),
    /// Failstopped.
    Dead,
    /// Repaired and back on the LAN, awaiting a state transfer from
    /// the acting primary. A rejoining host receives frames (so the
    /// transfer and its link-level acks flow) but runs no guest
    /// instructions and is not promotable until reintegration
    /// completes.
    Rejoining,
}

/// One replica's host: guest + clock + device shadows + its engine,
/// its failure detector and its end of every link.
struct Host {
    guest: HvGuest,
    engine: ReplicaEngine,
    now: SimTime,
    /// `guest.elapsed()` already folded into `now`.
    synced_elapsed: SimDuration,
    life: Life,
    promoted: bool,
    /// The I/O awaiting the engine's [`Effect::ReleaseIo`] or
    /// [`Effect::SuppressIo`].
    held_io: Option<PendingIo>,
    // The guest-visible disk controller (its status updated only at GO
    // and at delivery points, so all replicas read identical values).
    // The disk itself keeps the operation.
    controller: DiskController,
    /// When this host issued the disk operation `op_latencies` times
    /// next: the first GO, released or suppressed, that found no clock
    /// running.
    issued_at: Option<SimTime>,
    /// The timeout detector watching the acting primary: present only
    /// on a promotable backup (see `FtSystem::arm_detectors`).
    detector: Option<FailureDetector>,
    /// This host's end of its link with each peer, by peer index (its
    /// own slot is never used).
    links: Vec<Link>,
    // Results.
    diags: Vec<(u32, u32)>,
    op_latencies: Vec<SimDuration>,
}

impl Host {
    fn new(guest: HvGuest, engine: ReplicaEngine, links: Vec<Link>) -> Self {
        Host {
            guest,
            engine,
            now: SimTime::ZERO,
            synced_elapsed: SimDuration::ZERO,
            life: Life::Active,
            promoted: false,
            held_io: None,
            controller: DiskController::RESET,
            issued_at: None,
            detector: None,
            links,
            diags: Vec::new(),
            op_latencies: Vec::new(),
        }
    }

    /// Folds freshly accumulated guest time into the host clock.
    fn sync_clock(&mut self) {
        let e = self.guest.elapsed();
        self.now += e - self.synced_elapsed;
        self.synced_elapsed = e;
    }

    /// Charges hypervisor work and advances the host clock.
    fn charge(&mut self, d: SimDuration) {
        self.guest.charge(d);
        self.sync_clock();
    }

    fn runnable(&self) -> bool {
        self.life == Life::Active && self.engine.is_running()
    }

    /// Whether rule P6 may promote this host right now.
    fn waiting_as_backup(&self) -> bool {
        match self.life {
            Life::BackupDone(_) => true,
            Life::Active => !self.engine.is_primary() && self.engine.is_waiting_backup(),
            _ => false,
        }
    }

    fn alive(&self) -> bool {
        matches!(
            self.life,
            Life::Active | Life::BackupDone(_) | Life::Rejoining
        )
    }

    /// Whether this host can serve in the promotion chain right now: a
    /// rejoining replica is alive (it receives frames) but has no
    /// restored state to promote from.
    fn promotable(&self) -> bool {
        matches!(self.life, Life::Active | Life::BackupDone(_))
    }
}

/// Host `h`'s end of its link with peer `p`: `hosts[h].links[p]`.
struct Link {
    /// The reliable layer's state, present exactly when
    /// [`FtConfig::retransmit`] is set.
    windows: Option<Windows>,
    /// When `h` last put a frame on `h → p` (data, ack or heartbeat). A
    /// protocol-stalled acting primary heartbeats a backup when *that
    /// backup's* link has been quiet for a fraction of the detection
    /// timeout — per link, because a primary busy retransmitting to one
    /// lagging backup must not starve the caught-up one of liveness
    /// evidence.
    quiet_since: SimTime,
}

impl Link {
    fn new(rto: Option<SimDuration>) -> Self {
        Link {
            windows: rto.map(Windows::new),
            quiet_since: SimTime::ZERO,
        }
    }
}

/// The link-level ack/retransmission state at one end of a link.
struct Windows {
    /// Stamps, retains and re-sends what `h` sends `p`.
    send: SendWindow<Message>,
    /// Accepts what `p` sends `h`, in sequence.
    recv: RecvWindow,
}

impl Windows {
    fn new(rto: SimDuration) -> Self {
        Windows {
            send: SendWindow::new(rto),
            recv: RecvWindow::new(),
        }
    }
}

/// Information about a completed failover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailoverInfo {
    /// When the backup promoted itself.
    pub at: SimTime,
    /// The failover epoch (rule P6's `E`).
    pub epoch: u64,
    /// Whether rule P7 synthesized an uncertain interrupt.
    pub uncertain_synthesized: bool,
}

/// Information about a completed backup reintegration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReintegrationInfo {
    /// When the repaired replica became a live backup again — the
    /// instant `t`-fault coverage was restored.
    pub at: SimTime,
    /// The rejoining replica's chain position.
    pub replica: usize,
    /// The epoch boundary whose snapshot it restored.
    pub epoch: u64,
    /// Modelled bytes of the state transfer.
    pub bytes: u64,
}

/// One whole-system checkpoint, captured at the acting primary's first
/// epoch boundary at or past the requested barrier instant — the same
/// quiescent point, and the same canonical [`ReplicaState`], that a
/// reintegration transfer ships (see [`FtSystem::schedule_checkpoint`]).
/// Capture is pure — no wire traffic, no engine interaction — so a
/// checkpointed run is bit-identical to an uncheckpointed one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemCheckpoint {
    /// The requested barrier instant.
    pub requested: SimTime,
    /// When the capture actually happened: the acting primary's first
    /// epoch boundary at or past `requested`.
    pub at: SimTime,
    /// The epoch whose boundary was captured.
    pub epoch: u64,
    /// The live guest's VM-state hash at capture. Restoring
    /// `state.guest` into any [`HvGuest`] reproduces exactly this hash
    /// — the restore-exactness check for consumers.
    pub state_hash: u64,
    /// The canonical state, identical in kind to a reintegration
    /// transfer: guest snapshot plus driver-level device shadows.
    pub state: ReplicaState,
}

/// One entry of the fault schedule: a processor failstops or comes
/// back. The derived order is the firing order at equal instants —
/// primary failstop, then replica failstops by replica index, then
/// rejoins by replica index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum Fault {
    /// Failstop whoever is acting primary at that instant.
    Primary,
    /// Failstop this replica (a backup processor dies).
    Replica(usize),
    /// Repair this replica and put it back on the LAN.
    Rejoin(usize),
}

/// The complete §3 prototype, generalized to `t` backups: `t + 1`
/// processors, shared disk, console, coordination LAN.
pub struct FtSystem {
    hosts: Vec<Host>,
    /// The coordination medium carrying `[E, Int]`, `[Tme]`, `[end]`
    /// and acknowledgments between the replicas.
    net: Net,
    disk: Disk,
    console: Console,
    cfg: FtConfig,
    /// The fault schedule, sorted latest first: the next fault to fire
    /// is the last entry.
    faults: Vec<(SimTime, Fault)>,
    /// Repaired replicas on the LAN awaiting a transfer, in repair
    /// order. The acting primary serves the head of this queue at its
    /// next epoch boundary (one transfer at a time).
    pending_rejoins: Vec<usize>,
    /// An in-progress state transfer: `(victim, snapshot epoch)`.
    /// Aborted (and later restarted by the new primary) if the sender
    /// failstops mid-transfer.
    transfer: Option<(usize, u64)>,
    /// Pending checkpoint barriers, sorted by time; each is served at
    /// the acting primary's first epoch boundary at or past it.
    checkpoint_schedule: Vec<SimTime>,
    /// Completed checkpoints, in capture order.
    checkpoints: Vec<SystemCheckpoint>,
    /// Completed reintegrations, in completion order.
    reintegrations: Vec<ReintegrationInfo>,
    failovers: Vec<FailoverInfo>,
    lockstep: LockstepChecker,
    /// Index of the host currently acting as primary.
    acting_primary: usize,
    /// Run observers (see [`crate::observer::Observer`]). Every hook
    /// site lives on a driver event path (never the interpreter's
    /// per-instruction fast path) behind an is-empty check, so an
    /// unobserved run pays nothing.
    observers: Vec<Box<dyn Observer>>,
    /// The default run-long statistics observer, always installed: the
    /// run report's wire counters come from here, fed by the same hook
    /// sites user observers see (see [`RunStats`]).
    stats: RunStats,
    /// The buffer every engine step appends its effects to, drained by
    /// [`FtSystem::engine`] and reused from step to step.
    effects: Vec<Effect>,
    /// The runnable hosts as `(clock, host)`, rebuilt by every
    /// [`FtSystem::plan`] in this reused buffer.
    runnable: Vec<(SimTime, usize)>,
    /// The wave [`FtSystem::step`] plans into and commits from.
    wave: Vec<SlicePlan>,
}

impl FtSystem {
    /// Builds the system: all `1 + cfg.backups` replicas boot the
    /// identical image in the identical state, as §2.1 requires. The
    /// coordination medium is a private point-to-point [`Lan`] over
    /// `cfg.link`, with `cfg.loss_prob` loss injection and, when
    /// `cfg.retransmit` is set, the link-level ack/retransmission layer.
    ///
    /// This is the validated construction path used by the scenario
    /// layer — [`crate::scenario::Scenario::builder`] is the public
    /// front door, and validates configurations (returning
    /// [`crate::scenario::ConfigError`] instead of panicking) before
    /// reaching this.
    pub(crate) fn from_config(image: &Program, cfg: FtConfig) -> Self {
        let lan = Lan::point_to_point(cfg.link, 1 + cfg.backups, cfg.seed);
        Self::new_on_lan(image, cfg, Rc::new(RefCell::new(lan)), 0)
    }

    /// Builds the system as one shard of a multi-system cluster: the
    /// coordination medium is a window onto `lan`, whose nodes
    /// `base .. base + 1 + cfg.backups` must already be registered for
    /// this system (see [`crate::cluster::FtCluster`]). Loss injection
    /// on the shared medium is the cluster's job; `cfg.loss_prob` is
    /// applied to this system's links as a convenience.
    pub(crate) fn new_on_lan(
        image: &Program,
        cfg: FtConfig,
        lan: Rc<RefCell<Lan<WireFrame>>>,
        base: usize,
    ) -> Self {
        let net = Net::new(lan, base, 1 + cfg.backups, cfg.loss_prob);
        Self::build(image, cfg, net)
    }

    /// Validates that a configuration can survive message loss:
    /// retransmission must be enabled (a lost `[Tme]` or `[end]`
    /// otherwise stalls its epoch boundary forever) and detection must
    /// dominate recovery. The paper assumes *accurate* failure
    /// detection; under loss, a stalled primary's retransmissions and
    /// heartbeats arrive at most `4 × rto` apart (bounded-burst
    /// resends, backoff capped at 2²), so demanding
    /// `detector_timeout ≥ 32 × rto` makes a false suspicion require
    /// ≥ 8 consecutive drops on one link.
    ///
    /// Called for `cfg.loss_prob > 0` at construction and again by
    /// [`crate::cluster::FtCluster::set_loss_probability_all`], which
    /// can turn loss on after construction.
    pub(crate) fn assert_loss_tolerant(cfg: &FtConfig) {
        let Some(rto) = cfg.retransmit else {
            panic!(
                "message loss without retransmission stalls the first dropped \
                 boundary (enable FtConfig::retransmit)"
            );
        };
        assert!(
            cfg.detector_timeout >= rto * 32,
            "detector_timeout ({}) must be at least 32 × the retransmission \
             timeout ({}) or unlucky loss bursts will promote a backup under \
             a live primary",
            cfg.detector_timeout,
            rto,
        );
    }

    fn build(image: &Program, cfg: FtConfig, net: Net) -> Self {
        assert!(cfg.backups >= 1, "a fault-tolerant system needs a backup");
        if cfg.loss_prob > 0.0 {
            Self::assert_loss_tolerant(&cfg);
        }
        let n = 1 + cfg.backups;
        let hosts = (0..n)
            .map(|i| {
                let mut hv = cfg.hv;
                // Deliberately different machine-level TLB seeds: the
                // paper's point is that replica coordination must survive
                // hardware non-determinism invisible to the VM state.
                hv.tlb_seed = cfg.seed.wrapping_add(101 * (i as u64 + 1));
                let guest = HvGuest::new(image, cfg.cost, hv);
                let engine = if i == 0 {
                    ReplicaEngine::new_primary(0, (1..n).collect(), cfg.protocol)
                } else {
                    ReplicaEngine::new_backup(i, 0, cfg.protocol)
                };
                let links = (0..n).map(|_| Link::new(cfg.retransmit)).collect();
                Host::new(guest, engine, links)
            })
            .collect();
        let mut disk = Disk::new(cfg.disk_blocks, cfg.seed);
        disk.set_fault_probability(cfg.disk_fault_prob);
        let mut system = FtSystem {
            hosts,
            net,
            disk,
            console: Console::new(),
            cfg,
            faults: Vec::new(),
            pending_rejoins: Vec::new(),
            transfer: None,
            checkpoint_schedule: Vec::new(),
            checkpoints: Vec::new(),
            reintegrations: Vec::new(),
            failovers: Vec::new(),
            lockstep: LockstepChecker::new(),
            acting_primary: 0,
            observers: Vec::new(),
            stats: RunStats::new(n),
            effects: Vec::new(),
            runnable: Vec::new(),
            wave: Vec::new(),
        };
        system.arm_detectors(SimTime::ZERO);
        system
    }

    /// Registers a run observer. Multiple observers fire in
    /// registration order at every hook site.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.observers.push(observer);
    }

    /// Removes and returns the registered observers (to read their
    /// accumulated state after [`FtSystem::run`]).
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        std::mem::take(&mut self.observers)
    }

    /// The default run-long statistics observer's accumulated state
    /// (installed on every run; see [`RunStats`]).
    pub fn run_stats(&self) -> &RunStats {
        &self.stats
    }

    /// Fans an event out to the always-installed [`RunStats`] observer
    /// and then every registered user observer — one fan-out, one
    /// accounting, so the run report and user observers can never see
    /// different events. Hook sites call this on driver event paths
    /// only (never the interpreter fast path).
    fn notify(&mut self, f: impl Fn(&mut dyn Observer)) {
        f(&mut self.stats);
        for obs in &mut self.observers {
            f(obs.as_mut());
        }
    }

    /// Number of replicas (1 primary + `t` backups).
    pub fn replicas(&self) -> usize {
        self.hosts.len()
    }

    /// The configuration this system was built with.
    pub(crate) fn config(&self) -> &FtConfig {
        &self.cfg
    }

    /// Puts a fault on the schedule. Faults fire in time order
    /// regardless of insertion order, and in [`Fault`] order at equal
    /// instants. Panics if the fault names a replica out of range.
    pub(crate) fn schedule_fault(&mut self, at: SimTime, fault: Fault) {
        if let Fault::Replica(replica) | Fault::Rejoin(replica) = fault {
            assert!(replica < self.hosts.len(), "no replica {replica}");
        }
        self.faults.push((at, fault));
        self.faults.sort_by(|a, b| b.cmp(a));
    }

    /// Schedules a failstop of the then-acting primary at `at`
    /// (repeatable: cascading failures for `t ≥ 2` systems).
    pub fn schedule_failure(&mut self, at: SimTime) {
        self.schedule_fault(at, Fault::Primary);
    }

    /// Schedules a failstop of a *specific* replica at `at` — the way
    /// backup processors die. If the replica is the acting primary when
    /// the failure fires, this is equivalent to a primary failstop;
    /// otherwise the chain loses a backup: the acting primary stops
    /// counting it toward the acknowledgment condition
    /// ([`crate::protocol::Input::PeerLost`]) and the run continues with
    /// the survivors.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn schedule_replica_failure(&mut self, at: SimTime, replica: usize) {
        self.schedule_fault(at, Fault::Replica(replica));
    }

    /// Schedules the repair of a failstopped replica at `at`: its links
    /// are reopened and it waits on the LAN for a state transfer. At
    /// the acting primary's next epoch boundary the whole replica state
    /// is snapshotted and shipped in bounded-size chunks; once the
    /// final chunk arrives the replica restores it, rejoins the chain
    /// as a live backup, and every backup's failure detector is
    /// re-armed by recomputed rank — restoring `t`-fault coverage. If
    /// the replica is not failstopped when the event fires, it is a
    /// no-op.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn schedule_rejoin(&mut self, at: SimTime, replica: usize) {
        self.schedule_fault(at, Fault::Rejoin(replica));
    }

    /// Schedules a whole-system checkpoint barrier at `at`: at the
    /// acting primary's first epoch boundary at or past `at`, the same
    /// canonical state a reintegration transfer ships
    /// ([`ReplicaState`]) is captured into a [`SystemCheckpoint`],
    /// retrievable via [`FtSystem::checkpoints`]. The capture is pure —
    /// no wire traffic, no engine interaction — so a checkpointed run
    /// is observably identical to an uncheckpointed one.
    pub fn schedule_checkpoint(&mut self, at: SimTime) {
        self.checkpoint_schedule.push(at);
        self.checkpoint_schedule.sort();
    }

    /// Checkpoints captured so far, in capture order.
    pub fn checkpoints(&self) -> &[SystemCheckpoint] {
        &self.checkpoints
    }

    /// Shared-disk access for test setup (pre-filling blocks).
    pub fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    /// Reads a word of a host's guest memory (test inspection).
    pub fn guest_mem_u32(&self, host: usize, paddr: u32) -> u32 {
        self.hosts[host].guest.mem.read_u32(paddr).unwrap_or(0)
    }

    /// Overwrites a word of one host's guest memory behind the
    /// protocol's back — fault injection for tests of the lockstep
    /// oracle, which must report the replica as diverged at its next
    /// epoch boundary.
    ///
    /// # Panics
    ///
    /// Panics if `paddr` is not a word of guest RAM.
    pub fn corrupt_guest_mem_u32(&mut self, host: usize, paddr: u32, value: u32) {
        self.hosts[host]
            .guest
            .mem
            .write_u32(paddr, value)
            .expect("corruption target must be guest RAM");
    }

    // -----------------------------------------------------------------
    // Engine-effect execution
    // -----------------------------------------------------------------

    /// Feeds `input` to host `i`'s engine and carries out the effects
    /// it answers with, in order. Returns whether the engine
    /// synthesized an uncertain interrupt (rule P7). The buffer is
    /// taken out of `self` for the duration, so an effect whose handling
    /// steps the engine again (a released disk GO the disk refuses
    /// raises an interrupt) drains a buffer of its own.
    fn engine(&mut self, i: usize, input: Input) -> bool {
        let mut effects = std::mem::take(&mut self.effects);
        self.hosts[i].engine.step(input, &mut effects);
        let synthesized = effects.contains(&Effect::SynthesizeUncertain);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => self.transmit(i, to, msg),
                Effect::DeliverInterrupt(fwd) => self.deliver_interrupt(i, &fwd),
                Effect::SynthesizeUncertain => {
                    self.deliver_interrupt(i, &ForwardedInterrupt::UNCERTAIN)
                }
                Effect::ReleaseIo => self.answer_io(i, true),
                Effect::SuppressIo => self.answer_io(i, false),
                guest_local => apply_to_guest(&guest_local, &mut self.hosts[i].guest),
            }
        }
        self.effects = effects;
        synthesized
    }

    fn transmit(&mut self, from: usize, to: usize, msg: Message) {
        // Bounded NIC-queue backpressure: when enabled, a sender whose
        // outbound queue is more than the bound ahead of its clock
        // blocks until the queue drains to the bound — the §4.3 (New)
        // streaming primary can no longer run arbitrarily ahead of a
        // saturated medium. Protocol data only; acks, retransmissions,
        // heartbeats and state-transfer chunks are the NIC's own
        // control traffic.
        if let Some(bound) = self.cfg.nic_queue_bound {
            let queue_head = self.net.busy_until_of(from, to);
            if queue_head > self.hosts[from].now + bound {
                self.hosts[from].now = queue_head - bound;
            }
        }
        self.transmit_unclamped(from, to, msg);
    }

    /// The wire mechanics of sending `msg` at the sender's clock,
    /// without the NIC-queue clamp.
    fn transmit_unclamped(&mut self, from: usize, to: usize, msg: Message) {
        let bytes = msg.wire_bytes();
        let now = self.hosts[from].now;
        let frame = match &mut self.hosts[from].links[to].windows {
            // Reliable mode: stamp a link-level sequence number and
            // retain a copy until the receiver's cumulative ack covers
            // it.
            Some(w) => w.send.wrap(bytes, msg),
            // Raw mode (the §2 lossless assumption): unsequenced frame,
            // wire timing identical to a bare `Message` channel.
            None => Frame::Data {
                seq: 0,
                payload: msg,
            },
        };
        let tx_end = self.put_on_wire(now, from, to, bytes, frame);
        // The retransmit timer starts at the frame's serialization end
        // (a frame queued behind a backlog is not "lost").
        if let Some(w) = &mut self.hosts[from].links[to].windows {
            w.send.arm(tx_end);
        }
    }

    // -----------------------------------------------------------------
    // Messaging
    // -----------------------------------------------------------------

    /// The one way onto the wire: offers `frame`, carrying `bytes` of
    /// payload (acks and heartbeats carry none), on `from → to` at `at`,
    /// stamps the link's quiet-since instant and accounts the offer —
    /// exactly one of `message_sent`/`message_dropped`, with severed
    /// links told apart from loss so wire-occupancy counts stay exact.
    /// Returns the instant the frame's serialization ends, known to the
    /// sender's NIC whether or not the frame is then lost.
    fn put_on_wire(
        &mut self,
        at: SimTime,
        from: usize,
        to: usize,
        bytes: usize,
        frame: WireFrame,
    ) -> SimTime {
        let link = &mut self.hosts[from].links[to];
        link.quiet_since = link.quiet_since.max(at);
        let bytes = frame.wire_bytes(bytes);
        let (tx_end, accepted) = self.net.send(at, from, to, bytes, frame);
        if accepted {
            self.notify(|o| o.message_sent(from, to, bytes, at));
        } else {
            let reason = if self.net.is_severed(from, to) {
                DropReason::Severed
            } else {
                DropReason::Loss
            };
            self.notify(|o| o.message_dropped(from, to, at, reason));
        }
        tx_end
    }

    fn deliver_frame(&mut self, to: usize, from: usize, at: SimTime, frame: WireFrame) {
        if !self.hosts[to].alive() {
            // A failstopped (or finished) processor takes no further
            // part in the protocol: messages still draining from the
            // channels are dropped, never fed to its engine — a late
            // acknowledgment must not release a dead primary's held
            // I/O.
            return;
        }
        let host = &mut self.hosts[to];
        host.now = host.now.max(at);
        host.charge(self.cfg.cost.hv_msg_recv);
        if let Some(d) = &mut host.detector {
            // Any frame — data, duplicate, or link-level ack — proves
            // the sender alive.
            d.heard(at);
        }
        let now = host.now;
        let payload = match frame {
            Frame::Ack { cum } => {
                // A link-level ack for data *we* sent to `from`.
                if let Some(w) = &mut host.links[from].windows {
                    w.send.on_ack(now, cum);
                }
                return;
            }
            Frame::Data { seq, payload } => {
                if let Some(w) = &mut host.links[from].windows {
                    // Accept in sequence; answer every data frame —
                    // fresh or duplicate — with the cumulative ack, so
                    // the sender's window drains even when acks drop.
                    let fresh = w.recv.accept(seq);
                    let ack = Frame::Ack {
                        cum: w.recv.cumulative_ack(),
                    };
                    self.put_on_wire(now, to, from, 0, ack);
                    if !fresh {
                        self.notify(|o| o.duplicate_suppressed(from, to, now));
                        return;
                    }
                }
                payload
            }
            Frame::Heartbeat => {
                // Pure liveness: the detector reset above is the whole
                // point.
                return;
            }
        };
        if let Message::StateChunk {
            epoch,
            index,
            total,
            state,
            ..
        } = payload
        {
            if state.is_some() {
                debug_assert_eq!(index + 1, total, "state object rides the final chunk");
            }
            self.receive_chunk(to, from, at, epoch, state);
            return;
        }
        if self.hosts[to].life == Life::Rejoining {
            // A rejoining host has no live engine yet; anything but the
            // state transfer reaching it is stale traffic.
            return;
        }
        self.engine(to, Input::Message { from, msg: payload });
    }

    /// Earliest armed retransmit timer, with its link, considering only
    /// links whose sender can still retransmit. Used by both the event
    /// horizon and the dispatcher so they can never disagree.
    fn next_retransmit(&self) -> Option<(SimTime, (usize, usize))> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.alive())
            .flat_map(|(from, h)| {
                h.links.iter().enumerate().filter_map(move |(to, l)| {
                    Some((l.windows.as_ref()?.send.deadline()?, (from, to)))
                })
            })
            .min()
    }

    /// A retransmit timer fired: re-send the window's unacknowledged
    /// tail, or disarm it if the destination is beyond reach (dead peer
    /// or severed link) so the timer cannot fire forever.
    fn fire_retransmit(&mut self, t: SimTime, from: usize, to: usize) {
        let unreachable = !self.hosts[to].alive() || self.net.is_severed(from, to);
        // Only a reliable link arms a timer.
        let Some(w) = &mut self.hosts[from].links[to].windows else {
            return;
        };
        if unreachable {
            w.send.disarm();
            return;
        }
        // Retransmission is NIC/controller work: it occupies the wire
        // but charges no guest time and does not move the host clock.
        // Bounded-burst with exponential backoff — see the congestion
        // notes on `hvft_net::reliable`.
        let burst = w.send.retransmit();
        let frames = burst.len();
        if frames == 0 {
            return;
        }
        // Re-sent frames take the wire path of first transmissions, so
        // an observer's wire view stays complete under loss; the
        // aggregate retransmit hook reports the burst itself.
        let mut tx_end = t;
        for out in burst {
            tx_end = self.put_on_wire(t, from, to, out.bytes, out.frame);
        }
        if let Some(w) = &mut self.hosts[from].links[to].windows {
            w.send.rearm(tx_end);
        }
        self.notify(|o| o.retransmit(from, to, frames, t));
    }

    /// How often a protocol-stalled acting primary beacons its
    /// liveness: enough heartbeat opportunities fit into the detection
    /// timeout that a false suspicion needs a long run of consecutive
    /// heartbeat losses on top of a long stall.
    fn heartbeat_period(&self) -> SimDuration {
        SimDuration::from_nanos((self.cfg.detector_timeout.as_nanos() / 16).max(1))
    }

    /// The next heartbeat instant, if one is needed. A heartbeat is
    /// needed only while the acting primary is stalled by the protocol
    /// (awaiting boundary or I/O acknowledgments): a running primary
    /// streams coordination messages anyway, and once its send windows
    /// drain a stalled one would otherwise fall silent — failure
    /// detectors must measure liveness, not protocol progress. The
    /// deadline is per peer link: the earliest quiet one governs.
    ///
    /// Heartbeats belong to the lossy-LAN machinery: without the
    /// reliable layer the §2 lossless-network assumption is in force,
    /// every send is a delivery, and the configured detection timeout
    /// already bounds every legitimate gap — so raw-channel runs stay
    /// bit-identical to the original prototype.
    fn next_heartbeat(&self) -> Option<SimTime> {
        self.cfg.retransmit?;
        let host = &self.hosts[self.acting_primary];
        if host.life != Life::Active || !host.engine.is_primary() || host.engine.is_running() {
            return None;
        }
        host.engine
            .peers()
            .iter()
            .filter(|&&p| self.hosts[p].alive())
            .map(|&p| host.links[p].quiet_since + self.heartbeat_period())
            .min()
    }

    fn fire_heartbeat(&mut self, t: SimTime) {
        let i = self.acting_primary;
        let host = &self.hosts[i];
        let due: Vec<usize> = host
            .engine
            .peers()
            .iter()
            .copied()
            .filter(|&p| {
                self.hosts[p].alive() && host.links[p].quiet_since + self.heartbeat_period() <= t
            })
            .collect();
        for p in due {
            self.put_on_wire(t, i, p, 0, Frame::Heartbeat);
        }
    }

    // -----------------------------------------------------------------
    // Epoch boundaries
    // -----------------------------------------------------------------

    fn epoch_end(&mut self, i: usize) {
        let epoch = self.hosts[i].guest.epoch();
        if self.cfg.lockstep_check {
            let hash = self.hosts[i].guest.state_hash();
            self.lockstep.record(i, epoch, hash);
        }
        self.hosts[i].charge(self.cfg.cost.hv_epoch_cpu);
        let at = self.hosts[i].now;
        self.notify(|o| o.epoch_boundary(i, epoch, at));
        if i == self.acting_primary {
            self.maybe_take_checkpoint(i, epoch);
            // Reintegration transfers start here — before this
            // boundary's `[Tme]`/`[end]` broadcast, so the rejoiner's
            // restore precedes every engine message on the FIFO link.
            self.maybe_start_transfer(i, epoch);
        }
        let vclock = self.hosts[i].guest.vclock.snapshot();
        self.engine(i, Input::Boundary { epoch, vclock });
    }

    // -----------------------------------------------------------------
    // Failover (rules P6/P7)
    // -----------------------------------------------------------------

    /// Live backups after `of`, in chain (promotion) order. A replica
    /// mid-reintegration is on the LAN but holds no usable state, so it
    /// is not a survivor.
    fn survivors_after(&self, of: usize) -> Vec<usize> {
        (0..self.hosts.len())
            .filter(|&j| j != of && j != self.acting_primary && self.hosts[j].promotable())
            .collect()
    }

    /// The backup next in line for promotion, if any.
    fn next_in_line(&self) -> Option<usize> {
        (0..self.hosts.len()).find(|&j| j != self.acting_primary && self.hosts[j].promotable())
    }

    /// The one detector rule: every promotable backup, in chain order,
    /// watches the acting primary with a timeout of its rank ×
    /// `detector_timeout`, heard from at `at` — the next in line
    /// suspects first, deeper backups wait out the promotion hand-over,
    /// and rank 1 is always [`FtSystem::next_in_line`]. Every other host
    /// (the acting primary, the dead, a rejoiner) has no detector.
    fn arm_detectors(&mut self, at: SimTime) {
        let (ap, timeout) = (self.acting_primary, self.cfg.detector_timeout);
        let mut rank = 0u64;
        for (j, host) in self.hosts.iter_mut().enumerate() {
            host.detector = (j != ap && host.promotable()).then(|| {
                rank += 1;
                let mut d = FailureDetector::new(timeout * rank);
                d.heard(at);
                d
            });
        }
    }

    fn failover(&mut self, i: usize, at: SimTime) {
        let survivors = self.survivors_after(i);
        self.acting_primary = i;
        let host = &mut self.hosts[i];
        host.now = host.now.max(at);
        host.promoted = true;
        // The failover epoch is the boundary the backup waits at.
        let epoch = host.guest.epoch();
        let mut uncertain_synthesized = false;
        if let Life::BackupDone(end) = host.life {
            // The backup's guest already finished the whole workload;
            // the primary's failure makes that (suppressed) completion
            // real.
            host.life = Life::Done(end);
        } else {
            let vclock = host.guest.vclock.snapshot();
            uncertain_synthesized = self.engine(i, Input::Promote { vclock, survivors });
        }
        // Survivors re-arm against the new primary, ranks shifted up.
        let now = self.hosts[i].now;
        self.arm_detectors(now);
        let info = FailoverInfo {
            at: now,
            epoch,
            uncertain_synthesized,
        };
        self.failovers.push(info);
        self.notify(|o| o.failover(&info));
    }

    // -----------------------------------------------------------------
    // Failure injection
    // -----------------------------------------------------------------

    /// Failstops `victim` at `at`, whether it is the acting primary or a
    /// backup. In-flight messages still arrive (the backup "detects the
    /// primary's failure only after receiving the last message sent"),
    /// but nothing further leaves the dead processor, and nothing is
    /// worth sending to it. A dead or finished replica is left alone,
    /// and so is an acting primary that was repaired before anyone
    /// promoted (it is rejoining, not serving).
    fn failstop(&mut self, at: SimTime, victim: usize) {
        let primary = victim == self.acting_primary;
        let host = &mut self.hosts[victim];
        let serving = if primary {
            host.promotable()
        } else {
            host.alive()
        };
        if !serving {
            return;
        }
        host.now = host.now.max(at);
        host.life = Life::Dead;
        host.detector = None;
        self.notify(|o| o.replica_failstopped(victim, at));
        self.net.sever_all_of(victim);
        // The dead processor re-sends nothing, and frames addressed to
        // it are no longer worth recovering.
        self.for_links_of(victim, |l| {
            if let Some(w) = &mut l.windows {
                w.send.disarm();
            }
        });
        // A disk operation in flight from the dead host, whatever its
        // role, is abandoned: the medium may or may not have absorbed it,
        // and no interrupt will ever be delivered for it — the §2.2
        // two-generals corner.
        let issuer = self.disk.due().map(|(_, by)| usize::from(by));
        if issuer == Some(victim) {
            self.disk.abandon();
        }
        if primary {
            // A state transfer in flight from the dead primary is
            // aborted; the rejoiner stays queued and the successor
            // restarts the transfer from its own boundary snapshot.
            // Chunks already on the wire are rejected by the receiver's
            // sender check.
            self.transfer = None;
        } else {
            // The acting primary detects the backup's silence (modelled
            // at the failure instant, like the instruction-limit path)
            // and stops counting it toward the acknowledgment condition.
            let ap = self.acting_primary;
            if self.hosts[ap].alive() {
                self.engine(ap, Input::PeerLost(victim));
            }
            // A repaired replica that dies again mid-reintegration
            // leaves the rejoin pipeline entirely.
            if self.transfer.is_some_and(|(v, _)| v == victim) {
                self.transfer = None;
            }
            self.pending_rejoins.retain(|&v| v != victim);
        }
    }

    /// Applies `f` to the link records at both ends of every link
    /// touching `victim`.
    fn for_links_of(&mut self, victim: usize, mut f: impl FnMut(&mut Link)) {
        for (h, host) in self.hosts.iter_mut().enumerate() {
            for (p, link) in host.links.iter_mut().enumerate() {
                if h == victim || p == victim {
                    f(link);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Reintegration: epoch-boundary state transfer to a repaired backup
    // -----------------------------------------------------------------

    /// The rejoin schedule fired: put the repaired processor back on
    /// the LAN. Its links reopen, its link-layer windows restart, and
    /// it queues for a state transfer at the acting primary's next
    /// epoch boundary. A replica that is not failstopped is left alone.
    fn begin_rejoin(&mut self, at: SimTime, victim: usize) {
        if self.hosts[victim].life != Life::Dead {
            return;
        }
        self.net.unsever_all_of(victim);
        // Fresh windows at both ends: the reconnect starts a new frame
        // sequence space on both sides, mirroring the fresh engine
        // sequence space the rejoiner gets at restore.
        let rto = self.cfg.retransmit;
        self.for_links_of(victim, |l| l.windows = rto.map(Windows::new));
        let h = &mut self.hosts[victim];
        h.life = Life::Rejoining;
        h.now = h.now.max(at);
        h.held_io = None;
        h.issued_at = None;
        h.controller.status = mmio::disk_status::IDLE;
        self.pending_rejoins.push(victim);
        self.notify(|o| o.replica_repaired(victim, at));
    }

    /// Serves the checkpoint schedule at the acting primary's epoch
    /// boundary: every barrier at or before this boundary captures the
    /// canonical state — the guest snapshot plus device shadows that a
    /// reintegration transfer would ship — without touching the wire or
    /// the engine, so the run proceeds exactly as if no checkpoint had
    /// been taken.
    fn maybe_take_checkpoint(&mut self, i: usize, epoch: u64) {
        let now = self.hosts[i].now;
        while self
            .checkpoint_schedule
            .first()
            .is_some_and(|&req| req <= now)
        {
            let requested = self.checkpoint_schedule.remove(0);
            let state = self.capture_replica_state(i);
            let bytes = state.guest.wire_bytes();
            self.notify(|o| o.snapshot_taken(i, epoch, bytes, now));
            self.checkpoints.push(SystemCheckpoint {
                requested,
                at: now,
                epoch,
                state_hash: self.hosts[i].guest.state_hash(),
                state,
            });
        }
    }

    /// Serves the rejoin queue at the acting primary's epoch boundary:
    /// snapshots this replica's whole canonical state, streams it to
    /// the repaired backup in bounded-size chunks, and admits the
    /// backup to the engine's peer set — in that order, and all before
    /// this boundary's `[Tme]`/`[end]` broadcast, so the re-forwarded
    /// interrupts and the boundary sequence queue behind the transfer
    /// on the same FIFO link and reach the rejoiner only after its
    /// restore. One transfer runs at a time; further repaired replicas
    /// wait for a later boundary.
    fn maybe_start_transfer(&mut self, i: usize, epoch: u64) {
        if self.transfer.is_some() {
            return;
        }
        self.pending_rejoins
            .retain(|&v| self.hosts[v].life == Life::Rejoining);
        let Some(&victim) = self.pending_rejoins.first() else {
            return;
        };
        let state = self.capture_replica_state(i);
        let total_bytes = state.guest.wire_bytes();
        self.transfer = Some((victim, epoch));
        let at = self.hosts[i].now;
        self.notify(|o| o.snapshot_taken(i, epoch, total_bytes, at));
        const CHUNK: u64 = 8192;
        let total = total_bytes.div_ceil(CHUNK).max(1) as u32;
        let state = Rc::new(state);
        for index in 0..total {
            let bytes = if index + 1 == total {
                (total_bytes - u64::from(index) * CHUNK) as u32
            } else {
                CHUNK as u32
            };
            // Only the final chunk carries the state object: the
            // simulation ships structure once, the link model charges
            // per-chunk bytes.
            let payload = (index + 1 == total).then(|| Rc::clone(&state));
            // Unclamped: the transfer is controller-driven background
            // traffic that occupies the wire but must not stall the
            // primary's guest, exactly like retransmissions.
            self.transmit_unclamped(
                i,
                victim,
                Message::StateChunk {
                    epoch,
                    index,
                    total,
                    bytes,
                    state: payload,
                },
            );
        }
        self.engine(i, Input::PeerJoined(victim));
    }

    /// Captures the canonical state shipped during reintegration: the
    /// guest snapshot, the driver-level device shadows and the engine's
    /// count of outstanding disk operations. The shared disk and
    /// console are environment, not replica state — they are never
    /// shipped.
    fn capture_replica_state(&self, i: usize) -> ReplicaState {
        let h = &self.hosts[i];
        ReplicaState {
            guest: h.guest.snapshot(),
            controller: h.controller,
            outstanding: h.engine.outstanding(),
        }
    }

    /// A state-transfer chunk reached a rejoining replica. Chunks from
    /// anyone but the current transfer's sender — e.g. still in flight
    /// from a primary that died mid-transfer — are dropped; the
    /// successor restarts the transfer from its own boundary snapshot.
    fn receive_chunk(
        &mut self,
        to: usize,
        from: usize,
        at: SimTime,
        epoch: u64,
        state: Option<Rc<ReplicaState>>,
    ) {
        if self.hosts[to].life != Life::Rejoining
            || from != self.acting_primary
            || self.transfer != Some((to, epoch))
        {
            return;
        }
        if let Some(state) = state {
            self.finish_reintegration(to, from, epoch, &state, at);
        }
    }

    /// The final chunk arrived: restore the replica, give it a fresh
    /// backup engine acknowledging toward the sender, readmit it to the
    /// detector rank order, and declare `t`-fault coverage restored.
    ///
    /// The restored guest is parked at the end of the snapshot epoch
    /// (recovery counter expired), so its next slice re-raises
    /// [`HvEvent::EpochEnd`]: it records the same lockstep hash the
    /// donor did, then waits for the `[Tme]`/`[end]` queued right
    /// behind the transfer — from there on it is an ordinary backup.
    fn finish_reintegration(
        &mut self,
        victim: usize,
        from: usize,
        epoch: u64,
        state: &ReplicaState,
        at: SimTime,
    ) {
        let bytes = state.guest.wire_bytes();
        {
            let h = &mut self.hosts[victim];
            h.guest.restore(&state.guest);
            h.synced_elapsed = h.guest.elapsed();
            h.now = h.now.max(at);
            h.controller = state.controller;
            h.issued_at = (state.outstanding > 0).then_some(h.now);
            h.held_io = None;
            let engine = ReplicaEngine::new_backup(victim, from, self.cfg.protocol);
            h.engine = engine.with_outstanding(state.outstanding);
            h.life = Life::Active;
        }
        self.transfer = None;
        self.pending_rejoins.retain(|&v| v != victim);
        // Every live backup re-arms by recomputed rank: the rejoiner
        // slots back into the chain order, shifting deeper backups'
        // timeouts so exactly one replica still suspects first.
        self.arm_detectors(at);
        let info = ReintegrationInfo {
            at,
            replica: victim,
            epoch,
            bytes,
        };
        self.reintegrations.push(info);
        self.notify(|o| o.replica_reintegrated(victim, epoch, bytes, at));
    }

    // -----------------------------------------------------------------
    // The conservative co-simulation loop
    // -----------------------------------------------------------------

    /// Handles one guest-level event from host `i`'s hypervisor.
    fn dispatch_guest_event(&mut self, i: usize, ev: HvEvent) {
        match ev {
            HvEvent::BudgetExhausted => {}
            HvEvent::EpochEnd => self.epoch_end(i),
            HvEvent::MmioRead { paddr, width, rd } => self.handle_mmio_read(i, paddr, width, rd),
            HvEvent::MmioWrite { paddr, value } => self.handle_mmio_write(i, paddr, value),
            HvEvent::Diag { value, code } => {
                self.hosts[i].diags.push((value, code));
                let end = if code == hvft_guest::layout::diag::EXIT {
                    Some(ExitStatus::Exit(value))
                } else if code == hvft_guest::layout::diag::FATAL {
                    Some(ExitStatus::Fatal(Some(value)))
                } else {
                    None
                };
                if let Some(end) = end {
                    self.finish_host(i, end);
                }
            }
            HvEvent::Halted => {
                let code = self.hosts[i]
                    .diags
                    .iter()
                    .rev()
                    .find(|(_, c)| *c == hvft_guest::layout::diag::EXIT)
                    .map(|(v, _)| *v);
                self.finish_host(i, code.map_or(ExitStatus::Fatal(None), ExitStatus::Exit));
            }
            HvEvent::Idle => {
                // Our guests spin rather than idle; treat as a fatal
                // condition so tests catch unexpected kernels.
                self.finish_host(i, ExitStatus::Fatal(None));
            }
        }
    }

    /// Marks a host's workload as finished. At the acting primary this
    /// ends the run; at an unpromoted backup the (suppressed) exit parks
    /// the host until it learns the primary's fate.
    fn finish_host(&mut self, i: usize, end: ExitStatus) {
        if self.hosts[i].engine.is_primary() {
            self.hosts[i].life = Life::Done(end);
        } else {
            self.hosts[i].life = Life::BackupDone(end);
        }
    }

    /// Builds this instant's event agenda: every pending event source,
    /// offered in fixed priority order — the fault schedule, the disk's
    /// completion, deliveries, retransmit timers,
    /// heartbeat, detectors (backup order). The heartbeat precedes the
    /// detectors so a stalled-but-live primary beats suspicion to the
    /// same instant. [`FtSystem::plan`] takes the one pick per step that
    /// says both when the next event is and which event fires.
    fn event_agenda(&self) -> Agenda<EventTag> {
        let mut agenda = Agenda::new();
        agenda.offer(self.faults.last().map(|&(t, _)| t), EventTag::Fault);
        if let Some((due, issuer)) = self.disk.due() {
            agenda.offer(Some(due), EventTag::DiskCompletion(issuer.into()));
        }
        agenda.offer(self.net.next_delivery(), EventTag::Delivery);
        if let Some((due, (from, to))) = self.next_retransmit() {
            agenda.offer(Some(due), EventTag::Retransmit(from, to));
        }
        agenda.offer(self.next_heartbeat(), EventTag::Heartbeat);
        for (b, host) in self.hosts.iter().enumerate() {
            if b != self.acting_primary && host.waiting_as_backup() {
                agenda.offer(host.detector.map(|d| d.deadline()), EventTag::Detector(b));
            }
        }
        agenda
    }

    /// Fires the event the agenda picked at plan time, due at `t`.
    fn fire_event(&mut self, t: SimTime, tag: EventTag) {
        match tag {
            EventTag::Fault => match self.faults.pop().expect("planned from this fault").1 {
                Fault::Primary => self.failstop(t, self.acting_primary),
                Fault::Replica(victim) => self.failstop(t, victim),
                Fault::Rejoin(victim) => self.begin_rejoin(t, victim),
            },
            EventTag::DiskCompletion(i) => {
                let host = &mut self.hosts[i];
                host.now = host.now.max(t);
                self.disk_completion(i);
            }
            EventTag::Delivery => {
                if let Some((from, to, frame)) = self.net.pop_due(t) {
                    self.deliver_frame(to, from, t, frame);
                }
            }
            EventTag::Retransmit(from, to) => self.fire_retransmit(t, from, to),
            EventTag::Heartbeat => self.fire_heartbeat(t),
            EventTag::Detector(b) => {
                let next = self.next_in_line();
                let Some(det) = &mut self.hosts[b].detector else {
                    return;
                };
                if Some(b) == next {
                    if det.expired(t) {
                        self.failover(b, t);
                    }
                } else {
                    // Suspecting out of turn (an earlier live backup has
                    // promotion priority): defer to the chain order and
                    // re-arm rather than risk two promoters.
                    det.heard(t);
                }
            }
        }
    }

    /// Runs the system until the acting primary's workload completes.
    pub fn run(&mut self) -> RunReport {
        loop {
            if let Some(report) = self.step() {
                return report;
            }
        }
    }

    /// The earliest instant at which this system can do anything — the
    /// `at` of its next scheduling decision: its next pending event, or
    /// the clock of its laggiest runnable host. `None` means finished
    /// (or deadlocked): the next step yields the report.
    pub fn next_action_time(&mut self) -> Option<SimTime> {
        let mut wave = std::mem::take(&mut self.wave);
        let at = self.plan(&mut wave).at;
        self.wave = wave;
        at
    }

    /// Decides the system's next scheduling action and when it is due:
    /// the single answer to "what next, and when" (see
    /// [`crate::plan`]). Whoever asks holds the answer until it passes
    /// it to [`FtSystem::commit`]; nothing is cached here.
    ///
    /// The decision depends only on this system's own state — never on
    /// what other shards sharing a medium have done since this system
    /// last committed — which is what lets the cluster coordinator hold
    /// it and order shards by its `at`. A wave is planned into `wave`,
    /// the caller's buffer, which is emptied for any other decision.
    pub(crate) fn plan(&mut self, wave: &mut Vec<SlicePlan>) -> Planned {
        let finished = matches!(self.hosts[self.acting_primary].life, Life::Done(_));
        if !finished {
            // Instruction-limit guard (idempotent: a tripped host is no
            // longer runnable on the second look).
            for i in 0..self.hosts.len() {
                if self.hosts[i].runnable()
                    && self.hosts[i].guest.cpu.retired() >= self.cfg.max_insns
                {
                    self.hosts[i].life = Life::Done(ExitStatus::InsnLimit);
                    if i != self.acting_primary {
                        self.engine(self.acting_primary, Input::PeerLost(i));
                    }
                }
            }
        }
        let mut runnable = std::mem::take(&mut self.runnable);
        runnable.clear();
        let hosts = self.hosts.iter().enumerate();
        runnable.extend(hosts.filter(|(_, h)| h.runnable()).map(|(i, h)| (h.now, i)));
        runnable.sort_unstable();
        let mut planned = plan_step(
            &runnable,
            self.event_agenda().into_earliest(),
            self.cfg.link.min_latency(),
            self.cfg.cost.insn,
            wave,
        );
        self.runnable = runnable;
        if finished {
            // The acting primary is done: whatever else is pending only
            // says when the report is due.
            planned.step = StepPlan::Finished;
            wave.clear();
        }
        planned
    }

    /// Produces the run's report after a [`StepPlan::Finished`] plan.
    ///
    /// The report is *moved* out of the system, not copied: the failover
    /// and reintegration lists, the lockstep divergences and the
    /// operation latencies are taken, so a second call reports them
    /// empty. The console and the disk log are copied — both devices
    /// stay inspectable (e.g. [`FtSystem::disk_mut`]) after the run.
    fn finish_run(&mut self) -> RunReport {
        let ap = self.acting_primary;
        let exit = match self.hosts[ap].life {
            Life::Done(e) => e,
            _ => ExitStatus::Fatal(None),
        };
        // Latencies the guest observed while a host was (or became) the
        // acting primary, in chain order.
        let mut op_latencies = std::mem::take(&mut self.hosts[0].op_latencies);
        for host in &mut self.hosts[1..] {
            if host.promoted {
                op_latencies.append(&mut host.op_latencies);
            }
        }
        // Reports are kept by the run's caller (a benchmark keeps every
        // pass's): the lists go into them at exactly their length.
        fn exact<T>(mut v: Vec<T>) -> Vec<T> {
            v.shrink_to_fit();
            v
        }
        let divergences = self.lockstep.take_divergences();
        let primary = &self.hosts[ap].guest;
        // Wire counters come from the default RunStats observer — the
        // same hooks any user observer sees.
        RunReport {
            console: self.console.output(),
            console_hosts: self.console.hosts_seen(),
            epochs: primary.stats().epochs,
            retired: primary.cpu.retired(),
            failovers: exact(std::mem::take(&mut self.failovers)),
            primary_stats: *primary.stats(),
            replica_stats: self.hosts.iter().map(|h| *h.guest.stats()).collect(),
            messages_per_replica: self.stats.frames_per_replica.clone(),
            frames_retransmitted: self.stats.frames_retransmitted,
            frames_suppressed: self.stats.frames_suppressed,
            reintegrations: exact(std::mem::take(&mut self.reintegrations)),
            state_transfer_bytes: self.stats.state_transfer_bytes,
            lockstep_compared: self.lockstep.compared(),
            lockstep_clean: divergences.is_empty(),
            divergences,
            disk_log: self.disk.log().to_vec(),
            disk_digest: self.disk.medium_digest(),
            guest_retries: primary
                .mem
                .read_u32(hvft_guest::layout::kdata::RETRIES)
                .unwrap_or(0),
            op_latencies: exact(op_latencies),
            ..RunReport::new(exit, self.hosts[ap].now - SimTime::ZERO)
        }
    }

    /// Carries out a planned decision — the one place the three kinds
    /// of step are told apart — and returns the run's report once the
    /// run is over. A wave, the `wave` the decision was planned into,
    /// runs and commits in plan order.
    pub(crate) fn commit(&mut self, step: StepPlan, wave: &[SlicePlan]) -> Option<RunReport> {
        match step {
            StepPlan::Finished => return Some(self.finish_run()),
            StepPlan::Event(t, tag) => self.fire_event(t, tag),
            StepPlan::Slices => {
                for &s in wave {
                    let host = &mut self.hosts[s.host];
                    let event = host.guest.run(s.budget);
                    host.sync_clock();
                    self.dispatch_guest_event(s.host, event);
                }
            }
        }
        None
    }

    /// Advances the system by one scheduling decision — one event, or
    /// one wave of conservative guest slices — and returns the run's
    /// report once the run is over. [`FtSystem::run`] is exactly this
    /// in a loop; a cluster driver interleaves the same plan/commit
    /// pairs across systems sharing a medium.
    ///
    /// The report is yielded **once**: its lists are moved out of the
    /// system, so stepping a finished system again reports them empty.
    pub fn step(&mut self) -> Option<RunReport> {
        let mut wave = std::mem::take(&mut self.wave);
        let step = self.plan(&mut wave).step;
        let report = self.commit(step, &wave);
        self.wave = wave;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvft_guest::{build_image, dhrystone_source, hello_source, KernelConfig};
    use hvft_hypervisor::cost::CostModel;
    use hvft_net::link::LinkSpec;

    #[test]
    fn faults_fire_by_time_then_primary_replica_rejoin_then_replica_index() {
        let image = build_image(&KernelConfig::default(), &hello_source("x", 1)).unwrap();
        let cfg = FtConfig {
            backups: 2,
            ..FtConfig::default()
        };
        let mut sys = FtSystem::from_config(&image, cfg);
        let t = SimTime::from_nanos;
        let firing_order = [
            (t(3), Fault::Replica(2)),
            (t(5), Fault::Primary),
            (t(5), Fault::Replica(1)),
            (t(5), Fault::Replica(2)),
            (t(5), Fault::Rejoin(0)),
            (t(5), Fault::Rejoin(2)),
            (t(9), Fault::Primary),
        ];
        // Scheduled scrambled; the next to fire is the last entry.
        for k in [5, 3, 6, 4, 1, 2, 0] {
            sys.schedule_fault(firing_order[k].0, firing_order[k].1);
        }
        sys.faults.reverse();
        assert_eq!(sys.faults, firing_order);
    }

    /// Boot, a failover and a reintegration each re-arm the chain: the
    /// promotable backups, in chain order, are due at `at + rank ×
    /// detector_timeout` from the instant the arming happened, and the
    /// acting primary and the dead watch no one.
    #[test]
    fn every_arming_ranks_the_promotable_backups_in_chain_order() {
        let image = build_image(&KernelConfig::default(), &dhrystone_source(10_000, 9)).unwrap();
        let timeout = SimDuration::from_micros(1500);
        let cfg = FtConfig {
            backups: 3,
            cost: CostModel::functional(),
            link: LinkSpec {
                bits_per_sec: 1_000_000_000,
                propagation: SimDuration::from_micros(5),
                per_message: SimDuration::from_micros(5),
                mtu: 16384,
            },
            retransmit: Some(SimDuration::from_micros(40)),
            detector_timeout: timeout,
            ..FtConfig::default()
        };
        let mut sys = FtSystem::from_config(&image, cfg);
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        sys.schedule_failure(ms(1));
        sys.schedule_rejoin(ms(4), 0);
        let assert_armed = |sys: &FtSystem, at: SimTime, ranks: [Option<u64>; 4], when: &str| {
            let deadlines: Vec<_> = sys
                .hosts
                .iter()
                .map(|h| h.detector.map(|d| d.deadline()))
                .collect();
            let expected: Vec<_> = ranks.iter().map(|r| r.map(|r| at + timeout * r)).collect();
            assert_eq!(deadlines, expected, "{when}");
        };
        assert_armed(
            &sys,
            SimTime::ZERO,
            [None, Some(1), Some(2), Some(3)],
            "at boot",
        );
        let (mut failed_over, mut reintegrated) = (false, false);
        while sys.step().is_none() {
            if !failed_over && !sys.failovers.is_empty() {
                failed_over = true;
                // 0 is dead, 1 acts as primary.
                let at = sys.failovers[0].at;
                assert_armed(
                    &sys,
                    at,
                    [None, None, Some(1), Some(2)],
                    "after the failover",
                );
            }
            if !reintegrated && !sys.reintegrations.is_empty() {
                reintegrated = true;
                // 0 is back, first in chain order.
                let at = sys.reintegrations[0].at;
                assert_armed(
                    &sys,
                    at,
                    [Some(1), None, Some(2), Some(3)],
                    "after the rejoin",
                );
            }
        }
        assert!(
            failed_over && reintegrated,
            "the run must fail over and reintegrate"
        );
    }
}
