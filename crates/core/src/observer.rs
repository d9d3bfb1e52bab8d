//! Run-observer hooks: a uniform window onto the low-frequency protocol
//! events of every driver.
//!
//! The drivers used to grow a bespoke counter for each question anyone
//! asked of a run ("how many frames were re-sent?", "when did the
//! failover land?"). An [`Observer`] inverts that: the driver announces
//! each protocol-level event — epoch boundaries, processor failstops
//! and repairs ([`Observer::replica_failstopped`],
//! [`Observer::replica_repaired`]), failovers, snapshots and
//! reintegrations, message sends/drops/retransmissions, interrupt
//! deliveries — and whoever needs a statistic or a timeline accumulates
//! it outside the driver. This is the only observability channel: there
//! is no separate trace sink.
//!
//! Hooks fire only on the *driver's* event paths (a few per epoch),
//! never inside the interpreter's per-instruction fast path, and each
//! site is guarded by an is-empty check on the observer list — so an
//! unobserved run does exactly the work it did before the hooks
//! existed. The interpreter's own fast path (`hvft-machine`'s
//! superblock executor) is untouched; its branch-free discipline is
//! preserved by construction.
//!
//! # Examples
//!
//! ```
//! use hvft_core::observer::Observer;
//! use hvft_core::scenario::Scenario;
//! use hvft_core::system::FailoverInfo;
//! use hvft_sim::time::SimTime;
//!
//! /// Counts epoch boundaries per replica.
//! #[derive(Default)]
//! struct Boundaries(std::collections::BTreeMap<usize, u64>);
//!
//! impl Observer for Boundaries {
//!     fn epoch_boundary(&mut self, replica: usize, _epoch: u64, _at: SimTime) {
//!         *self.0.entry(replica).or_default() += 1;
//!     }
//! }
//!
//! let scenario = Scenario::builder()
//!     .workload(hvft_guest::workload::Hello::default())
//!     .build()
//!     .unwrap();
//! let mut runner = scenario.runner();
//! runner.add_observer(Box::new(Boundaries::default()));
//! let report = runner.run();
//! assert!(report.exit.is_clean_exit());
//! ```

use crate::system::FailoverInfo;
use hvft_sim::time::SimTime;

/// Why an offered frame never produced a delivery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Loss injection consumed the frame. It still occupied the medium
    /// (drops burn air time), so it counts toward wire occupancy.
    Loss,
    /// The link — or one of its endpoints — was severed; the frame
    /// never touched the medium at all.
    Severed,
}

/// Hooks into a run's protocol-level events. Every method has an empty
/// default body: implement only what you care about.
///
/// Replica indices are chain positions (0 = the initial primary).
/// Message hooks see link-level traffic: payload frames, acks and
/// heartbeats alike, because that is what occupies the wire.
pub trait Observer {
    /// A replica's guest reached an epoch boundary (rule P2/P5
    /// processing follows).
    fn epoch_boundary(&mut self, _replica: usize, _epoch: u64, _at: SimTime) {}

    /// A backup promoted itself (rules P6/P7); `info` is the same
    /// record the run report carries.
    fn failover(&mut self, _info: &FailoverInfo) {}

    /// A frame was offered to the coordination medium and a delivery
    /// was scheduled. Fires for first transmissions and retransmissions
    /// alike, so `message_sent + message_dropped` is the complete wire
    /// view. (The run report's `messages_per_replica` counts frames
    /// that *occupied the medium* — which includes loss-consumed ones —
    /// so the two agree exactly on lossless runs and differ by the drop
    /// count under loss injection.)
    fn message_sent(&mut self, _from: usize, _to: usize, _bytes: usize, _at: SimTime) {}

    /// A frame was offered but never produced a delivery; `reason`
    /// distinguishes loss injection (the frame still burned air time)
    /// from a severed link (it never reached the medium).
    fn message_dropped(&mut self, _from: usize, _to: usize, _at: SimTime, _reason: DropReason) {}

    /// A retransmit timer fired and re-sent `frames` unacknowledged
    /// frames on `from → to` (each also reported individually through
    /// [`Observer::message_sent`]/[`Observer::message_dropped`]).
    fn retransmit(&mut self, _from: usize, _to: usize, _frames: usize, _at: SimTime) {}

    /// A receiver discarded a duplicate or out-of-order data frame
    /// (the reliable layer's dup/gap suppression; it still re-acked).
    fn duplicate_suppressed(&mut self, _from: usize, _to: usize, _at: SimTime) {}

    /// An interrupt was delivered into a replica's guest (rule P5 at
    /// backups, the buffered delivery point at the primary, or a P7
    /// synthesized uncertain completion).
    fn interrupt_delivered(&mut self, _replica: usize, _irq_bits: u32, _at: SimTime) {}

    /// A processor failstopped — the acting primary or a backup, by the
    /// failure schedule. Nothing further leaves it; if it was the acting
    /// primary, a [`Observer::failover`] follows once a backup's
    /// detector times out.
    fn replica_failstopped(&mut self, _replica: usize, _at: SimTime) {}

    /// A failstopped processor was repaired and is back on the LAN,
    /// awaiting a state transfer ([`Observer::snapshot_taken`], then
    /// [`Observer::replica_reintegrated`]).
    fn replica_repaired(&mut self, _replica: usize, _at: SimTime) {}

    /// The acting primary captured a whole-replica snapshot at the
    /// boundary of `epoch` — to stream it to a repaired replica, or for
    /// a scheduled checkpoint; `bytes` is its modelled size.
    fn snapshot_taken(&mut self, _replica: usize, _epoch: u64, _bytes: u64, _at: SimTime) {}

    /// A repaired replica finished restoring a state transfer and
    /// rejoined the chain as a live backup at the boundary of `epoch` —
    /// the instant `t`-fault coverage is restored.
    fn replica_reintegrated(&mut self, _replica: usize, _epoch: u64, _bytes: u64, _at: SimTime) {}
}

/// The run-long statistics observer installed by default on every
/// [`crate::system::FtSystem`] run.
///
/// This is what subsumed the drivers' bespoke counter plumbing: the run
/// report's `messages_per_replica`, `frames_retransmitted` and
/// `frames_suppressed` are accumulated here, from the same hooks any
/// user [`Observer`] sees, instead of being scraped out of the
/// medium's per-link [`hvft_net::lan::LanStats`] or `SendWindow`
/// internals after the fact. One set of hooks, one accounting.
///
/// `frames_per_replica[i]` counts frames from replica `i` that
/// *occupied the medium* — accepted transmissions plus loss-consumed
/// ones (drops burn air time), but not sends into severed links, which
/// never reach the wire. That is exactly the semantics the old
/// per-link counter plumbing reported, so reports are unchanged.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Medium-occupying frames offered per replica, in chain order.
    pub frames_per_replica: Vec<u64>,
    /// Data frames re-sent by the ack/retransmission layer.
    pub frames_retransmitted: u64,
    /// Duplicate/out-of-order frames suppressed by receivers.
    pub frames_suppressed: u64,
    /// Frames consumed by loss injection.
    pub frames_lost: u64,
    /// Frames swallowed by severed links.
    pub frames_severed: u64,
    /// Epoch boundaries reached, across all replicas.
    pub epoch_boundaries: u64,
    /// Promotions (rules P6/P7).
    pub failovers: u64,
    /// Interrupts delivered into guests.
    pub interrupts_delivered: u64,
    /// Processors failstopped by the failure schedule.
    pub failstops: u64,
    /// Failstopped processors repaired and put back on the LAN.
    pub repairs: u64,
    /// Whole-replica snapshots captured for reintegration transfers.
    pub snapshots_taken: u64,
    /// Repaired replicas readmitted as live backups.
    pub reintegrations: u64,
    /// Modelled bytes of completed reintegration state transfers.
    pub state_transfer_bytes: u64,
}

impl RunStats {
    /// Zeroed statistics for a system of `replicas` replicas.
    pub fn new(replicas: usize) -> Self {
        RunStats {
            frames_per_replica: vec![0; replicas],
            ..RunStats::default()
        }
    }
}

impl Observer for RunStats {
    fn epoch_boundary(&mut self, _replica: usize, _epoch: u64, _at: SimTime) {
        self.epoch_boundaries += 1;
    }

    fn failover(&mut self, _info: &FailoverInfo) {
        self.failovers += 1;
    }

    fn message_sent(&mut self, from: usize, _to: usize, _bytes: usize, _at: SimTime) {
        self.frames_per_replica[from] += 1;
    }

    fn message_dropped(&mut self, from: usize, _to: usize, _at: SimTime, reason: DropReason) {
        match reason {
            DropReason::Loss => {
                self.frames_per_replica[from] += 1;
                self.frames_lost += 1;
            }
            DropReason::Severed => self.frames_severed += 1,
        }
    }

    fn retransmit(&mut self, _from: usize, _to: usize, frames: usize, _at: SimTime) {
        self.frames_retransmitted += frames as u64;
    }

    fn duplicate_suppressed(&mut self, _from: usize, _to: usize, _at: SimTime) {
        self.frames_suppressed += 1;
    }

    fn interrupt_delivered(&mut self, _replica: usize, _irq_bits: u32, _at: SimTime) {
        self.interrupts_delivered += 1;
    }

    fn replica_failstopped(&mut self, _replica: usize, _at: SimTime) {
        self.failstops += 1;
    }

    fn replica_repaired(&mut self, _replica: usize, _at: SimTime) {
        self.repairs += 1;
    }

    fn snapshot_taken(&mut self, _replica: usize, _epoch: u64, _bytes: u64, _at: SimTime) {
        self.snapshots_taken += 1;
    }

    fn replica_reintegrated(&mut self, _replica: usize, _epoch: u64, bytes: u64, _at: SimTime) {
        self.reintegrations += 1;
        self.state_transfer_bytes += bytes;
    }
}
