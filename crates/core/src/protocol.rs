//! The replica-coordination engine: rules P1–P7 and the §4.3 revision
//! as pure state machines.
//!
//! This module is the single home of the paper's protocol logic. The
//! engines know nothing about discrete-event scheduling, channels,
//! devices, or [`hvft_hypervisor::hvguest::HvGuest`]: each takes one
//! [`Input`] at a time (an epoch boundary was reached, a message
//! arrived, a device interrupt was raised, the guest asked for I/O, a
//! peer was lost or joined, the failure detector fired) through
//! [`ReplicaEngine::step`] and appends the [`Effect`]s it answers with
//! (send a message, assign the clock, deliver buffered interrupts,
//! start the next epoch, release the I/O) to a buffer its driver owns.
//! Two very different drivers run the same engines:
//!
//! - [`crate::system::FtSystem`] — the realistic DES with modelled link
//!   timing, a shared disk, and a timeout failure detector;
//! - [`crate::chain::TChain`] — the round-synchronous t-fault chain
//!   whose transport is an instantaneous FIFO link.
//!
//! That both produce identical guest-visible behaviour is exactly the
//! paper's claim that the protocol is independent of the machinery
//! underneath — and it is enforced by an equivalence property test.
//!
//! # Rules, by their paper names
//!
//! - **P1**: an interrupt arriving at the primary during epoch `E` is
//!   buffered for delivery at the end of `E` and forwarded as `[E, Int]`
//!   ([`Input::Interrupt`]);
//! - **P2**: at the end of epoch `E` the primary sends `[Tme_p]`,
//!   (original protocol) awaits acknowledgments for everything sent,
//!   delivers buffered interrupts, sends `[end, E]`, and starts `E + 1`
//!   ([`Input::Boundary`]);
//! - **P3**: interrupts destined for an unpromoted backup VM are
//!   ignored — realized by suppressing the backup's own I/O: its
//!   guest's GO and console output are answered with
//!   [`Effect::SuppressIo`], so its devices never start anything that
//!   could interrupt it ([`Input::Io`]);
//! - **P4**: the backup acknowledges and buffers `[E, Int]`
//!   ([`Input::Message`]);
//! - **P5**: at the end of its epoch `E` the backup awaits `[Tme_p]`,
//!   assigns it, awaits `[end, E]`, delivers the epoch-`E` buffer, and
//!   starts `E + 1`;
//! - **P6**: if instead the failure detector fires, the backup delivers
//!   what it buffered and promotes itself ([`Input::Promote`]);
//! - **P7**: a disk operation still outstanding once P6 has delivered
//!   what the backup buffered gets a synthesized *uncertain* interrupt
//!   so the replayed driver retries. The engine counts the disk GOs its
//!   guest started less the disk interrupts it delivered, so it needs
//!   no device to ask;
//! - **§4.3 revision**: the boundary ack-wait of P2 is dropped;
//!   acknowledgments must instead be complete before the primary
//!   initiates any I/O ([`Input::Io`]).
//!
//! # The t-fault generalization
//!
//! The paper calls generalizing to `t` backups "straightforward"; the
//! engine makes the three ingredients explicit. A primary broadcasts to
//! every live backup with per-peer sequence numbers and treats "all
//! acknowledged" as *every* live peer having acknowledged. A backup
//! always acknowledges toward whichever replica most recently sent it a
//! sequenced message (promotion transfers that role). On promotion with
//! survivors, the new primary completes the failover epoch `E` the way
//! the old primary would have: it re-issues `[Tme_p]` for `E` only if
//! the dead primary never managed to send it (every live backup saw the
//! same message prefix — FIFO channels deliver a crashed sender's
//! in-flight messages), forwards a synthesized uncertain interrupt for
//! an outstanding disk operation so *all* survivors retire it at the
//! same stream point, and announces `[end, E]`.

use crate::config::ProtocolVariant;
use crate::messages::{ForwardedInterrupt, Message};
use hvft_hypervisor::guest_iface::GuestCtl;
use hvft_hypervisor::vclock::VClock;
use hvft_machine::trap::irq;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

/// Identifies a replica by its position in the chain order (0 is the
/// initial primary; backups follow in promotion order).
pub type ReplicaId = usize;

/// One event an engine reacts to: the labels of its transitions.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// The replica's guest reached the end of `epoch`; `vclock` is its
    /// clock snapshot at the boundary (the primary's `[Tme_p]`). Rules
    /// P2 and P5.
    Boundary {
        /// The epoch that ended.
        epoch: u64,
        /// The guest's clock at the boundary.
        vclock: VClock,
    },
    /// A protocol message arrived from replica `from` (P2/P4 and
    /// acknowledgments).
    ///
    /// Sequenced messages are *resend-tolerant*: a message whose
    /// sequence number was already received (a retransmission whose
    /// original, or whose acknowledgment, the lossy network dropped) is
    /// re-acknowledged but changes no protocol state, so a driver may
    /// replay `[E, Int]`, `[Tme_p]` or `[end, E]` any number of times
    /// without double-buffering an interrupt or re-assigning a clock.
    Message {
        /// The sender.
        from: ReplicaId,
        /// The message.
        msg: Message,
    },
    /// Rule P1: a device interrupt was raised at the acting primary
    /// while its guest is at epoch `guest_epoch`. It is buffered
    /// locally and forwarded as `[E, Int]` to every live backup;
    /// interrupts arriving while boundary processing for `E` is under
    /// way belong to `E + 1`.
    Interrupt {
        /// The guest's epoch when the interrupt arrived.
        guest_epoch: u64,
        /// The interrupt and its device payload.
        fwd: ForwardedInterrupt,
    },
    /// The replica's guest asked for an externally visible I/O: a disk
    /// GO (`disk`) or a console byte. Every replica's guest asks, at
    /// the same point of its instruction stream. At the acting primary
    /// [`Effect::ReleaseIo`] answers at once, or — under §4.3, while a
    /// coordination message is unacknowledged — once the last
    /// acknowledgment is in: I/O is the only way VM state is revealed.
    /// At a backup [`Effect::SuppressIo`] answers at once (rule P3).
    /// Either way a disk GO counts as outstanding until a disk
    /// interrupt is delivered (rule P7).
    Io {
        /// Whether the I/O is a disk GO.
        disk: bool,
    },
    /// A live peer failstopped or finished: it stops counting toward
    /// the acknowledgment condition (which may resume a stalled
    /// primary).
    PeerLost(ReplicaId),
    /// Reintegration: a repaired replica rejoins the chain as a live
    /// backup of this primary. The driver feeds it at the epoch
    /// boundary whose snapshot the rejoiner restores, *before* that
    /// boundary's [`Input::Boundary`], so the new peer receives the
    /// complete boundary sequence over a fresh sequence space.
    ///
    /// Interrupts currently buffered here were broadcast while the
    /// rejoiner was dead; its restored state expects them (the snapshot
    /// predates their delivery), so they are re-forwarded as freshly
    /// sequenced `[E, Int]` messages — without this the rejoiner would
    /// miss a delivery and diverge one epoch later.
    PeerJoined(ReplicaId),
    /// This replica becomes the acting primary, coordinating
    /// `survivors` (the remaining live backups, in chain order).
    ///
    /// From a running replica (the round-synchronous chain promotes
    /// between epochs) only the role switches. From a backup waiting at
    /// an epoch boundary this is rules P6 + P7, `vclock` being the
    /// replica's own clock snapshot. With no survivors (the paper's
    /// 1-fault prototype) everything buffered is delivered, and then a
    /// disk operation still outstanding gets an uncertain interrupt.
    /// With survivors, the new primary instead *completes the failover
    /// epoch as a primary*: a disk operation that no buffered interrupt
    /// answers gets an uncertain one, forwarded like any other so every
    /// replica retires it at the same instruction-stream point,
    /// `[Tme_p]` is re-issued only if the dead primary never sent it,
    /// and `[end, E]` closes the epoch.
    Promote {
        /// The replica's clock at its boundary.
        vclock: VClock,
        /// The live backups the new primary coordinates.
        survivors: Vec<ReplicaId>,
    },
}

/// What an engine asks its driver to do.
///
/// Effects are emitted in the exact order they must be carried out;
/// message sends on one FIFO transport preserve that order on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// Transmit `msg` to replica `to` (sequence number already stamped).
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The protocol message.
        msg: Message,
    },
    /// `Tme_b := Tme_p` — assign the received clock state (rule P5).
    AssignClock(VClock),
    /// Deliver the interval-timer interrupt if the virtual timer has
    /// expired ("interrupts based on Tme", rules P2/P5).
    DeliverTimer,
    /// Deliver one buffered interrupt into the guest; the driver also
    /// applies any device payload (disk status/data) it carries.
    DeliverInterrupt(ForwardedInterrupt),
    /// Rule P7: deliver a synthesized uncertain disk interrupt
    /// ([`ForwardedInterrupt::UNCERTAIN`]) for the replica's outstanding
    /// disk operation, after the failover epoch's buffered interrupts.
    SynthesizeUncertain,
    /// Re-arm the recovery counter: the next epoch begins.
    StartEpoch,
    /// The acting primary's answer to [`Input::Io`]: perform the I/O
    /// now and complete the guest's stalled MMIO instruction.
    ReleaseIo,
    /// A backup's answer to [`Input::Io`] (rule P3): complete the
    /// guest's stalled MMIO instruction without performing the I/O.
    SuppressIo,
}

/// Protocol phase of one replica.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    /// Guest instructions are executing.
    Running,
    /// Primary, original protocol: boundary of `epoch` reached, awaiting
    /// acknowledgments (rule P2).
    AwaitBoundaryAcks {
        /// The boundary's epoch.
        epoch: u64,
    },
    /// Primary, revised protocol: an I/O is held until acknowledgments
    /// complete (§4.3).
    AwaitIoAcks,
    /// Backup at the boundary of `epoch`, awaiting `[Tme_p]` (rule P5).
    AwaitTime {
        /// The boundary's epoch.
        epoch: u64,
    },
    /// Backup, clock assigned, awaiting `[end, epoch]` (rule P5).
    AwaitEnd {
        /// The boundary's epoch.
        epoch: u64,
    },
}

/// The pure protocol state machine for one replica.
///
/// A replica starts as the primary or as a backup and may switch role
/// exactly once per promotion; a `t`-fault system drives `t + 1` of
/// these, re-wiring roles as primaries failstop. The engine is a plain
/// value — it compares and hashes by its whole state — and
/// [`ReplicaEngine::step`] is its one mutator.
///
/// # Examples
///
/// One original-protocol epoch boundary between a primary and a
/// backup, the driver's message routing done by hand:
///
/// ```
/// use hvft_core::config::ProtocolVariant;
/// use hvft_core::protocol::{Effect, Input, ReplicaEngine};
/// use hvft_hypervisor::vclock::VClock;
///
/// let mut primary = ReplicaEngine::new_primary(0, vec![1], ProtocolVariant::Old);
/// let mut backup = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
/// let boundary = Input::Boundary { epoch: 0, vclock: VClock::new() };
/// let mut out = Vec::new();
///
/// // The primary's guest reaches the end of epoch 0: [Tme] goes out
/// // and the boundary stalls awaiting its acknowledgment (rule P2).
/// primary.step(boundary.clone(), &mut out);
/// let Some(Effect::Send { to: 1, msg }) = out.pop() else { unreachable!() };
/// assert!(!primary.is_running());
///
/// // The backup waits at its own boundary for [Tme] (rule P5), then
/// // assigns the clock and acknowledges.
/// backup.step(boundary, &mut out);
/// assert!(out.is_empty());
/// backup.step(Input::Message { from: 0, msg }, &mut out);
/// let Effect::Send { msg: ack, .. } = out[0].clone() else { unreachable!() };
///
/// // The acknowledgment releases the primary into epoch 1.
/// out.clear();
/// primary.step(Input::Message { from: 1, msg: ack }, &mut out);
/// assert!(primary.is_running());
/// assert!(out.contains(&Effect::StartEpoch));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReplicaEngine {
    id: ReplicaId,
    variant: ProtocolVariant,
    is_primary: bool,
    phase: Phase,
    /// Live backups, in chain order (primary role only).
    peers: Vec<ReplicaId>,
    /// Per-peer count of sequenced messages sent (primary role).
    next_seq: BTreeMap<ReplicaId, u64>,
    /// Per-peer highest cumulative acknowledgment received (primary).
    acked: BTreeMap<ReplicaId, u64>,
    /// The replica we acknowledge to (backup role): whoever most
    /// recently sent us a sequenced message.
    primary: ReplicaId,
    /// Highest sequence number received from the current primary.
    highest_recv: u64,
    /// `[Tme_p]` payloads received, by epoch (backup role).
    got_time: BTreeMap<u64, VClock>,
    /// `[end, E]` notices received (backup role).
    got_end: BTreeSet<u64>,
    /// Interrupts buffered for delivery, with their delivery epochs, in
    /// (epoch, arrival) order (rules P1/P4). One buffer, drained in
    /// place, so warm epochs reuse its capacity.
    buffered: Vec<(u64, ForwardedInterrupt)>,
    /// Disk GOs the guest started less disk interrupts delivered
    /// (rule P7). Saturating at 0: a replica fed by two acting
    /// primaries (a false suspicion) can be delivered more than it
    /// started.
    outstanding: u32,
}

impl ReplicaEngine {
    /// The engine for the initial primary, coordinating `peers` (the
    /// backups, in chain order).
    pub fn new_primary(id: ReplicaId, peers: Vec<ReplicaId>, variant: ProtocolVariant) -> Self {
        ReplicaEngine {
            is_primary: true,
            peers,
            ..ReplicaEngine::new_backup(id, id, variant)
        }
    }

    /// The engine for a backup acknowledging toward `primary`.
    pub fn new_backup(id: ReplicaId, primary: ReplicaId, variant: ProtocolVariant) -> Self {
        ReplicaEngine {
            id,
            variant,
            is_primary: false,
            phase: Phase::Running,
            peers: Vec::new(),
            next_seq: BTreeMap::new(),
            acked: BTreeMap::new(),
            primary,
            highest_recv: 0,
            got_time: BTreeMap::new(),
            got_end: BTreeSet::new(),
            buffered: Vec::new(),
            outstanding: 0,
        }
    }

    /// This engine with `outstanding` disk operations counted as
    /// started and unanswered: a rejoiner's engine takes its donor's
    /// count with the donor's guest state.
    pub fn with_outstanding(mut self, outstanding: u32) -> Self {
        self.outstanding = outstanding;
        self
    }

    /// This replica's chain position.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Whether this replica currently acts as the primary.
    pub fn is_primary(&self) -> bool {
        self.is_primary
    }

    /// Whether guest instructions may execute right now.
    pub fn is_running(&self) -> bool {
        self.phase == Phase::Running
    }

    /// Whether the replica is a backup waiting at an epoch boundary
    /// (the states from which rule P6 may promote it).
    pub fn is_waiting_backup(&self) -> bool {
        matches!(self.phase, Phase::AwaitTime { .. } | Phase::AwaitEnd { .. })
    }

    /// Whether a §4.3 held I/O is pending acknowledgment completion.
    pub fn holds_io(&self) -> bool {
        self.phase == Phase::AwaitIoAcks
    }

    /// Live backups this primary coordinates (empty for backups).
    pub fn peers(&self) -> &[ReplicaId] {
        &self.peers
    }

    /// Disk GOs the guest started that no delivered disk interrupt has
    /// answered yet.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Takes one input and appends the effects it causes to `out`, in
    /// the order the driver must carry them out. `out` is the driver's
    /// buffer: nothing in it is read or removed, so a driver that
    /// drains and reuses one buffer makes warm epochs allocation-free.
    pub fn step(&mut self, input: Input, out: &mut Vec<Effect>) {
        match input {
            Input::Boundary { epoch, vclock } => {
                debug_assert_eq!(self.phase, Phase::Running, "boundary while not running");
                if !self.is_primary {
                    self.phase = Phase::AwaitTime { epoch };
                    return self.try_advance(out);
                }
                self.broadcast(out, |seq| Message::Time { seq, epoch, vclock });
                if self.variant == ProtocolVariant::Old && !self.all_acked() {
                    self.phase = Phase::AwaitBoundaryAcks { epoch };
                } else {
                    self.finish_boundary(epoch, out);
                }
            }
            Input::Message { from, msg } => self.receive(from, msg, out),
            Input::Interrupt { guest_epoch, fwd } => {
                debug_assert!(self.is_primary, "interrupts are buffered at the primary");
                let epoch = match self.phase {
                    Phase::AwaitBoundaryAcks { epoch } => epoch + 1,
                    _ => guest_epoch,
                };
                self.broadcast(out, |seq| Message::Interrupt {
                    seq,
                    epoch,
                    interrupt: fwd.clone(),
                });
                self.buffer(epoch, fwd);
            }
            Input::Io { disk } => {
                self.outstanding += u32::from(disk);
                if !self.is_primary {
                    out.push(Effect::SuppressIo);
                } else if self.variant == ProtocolVariant::New && !self.all_acked() {
                    self.phase = Phase::AwaitIoAcks;
                } else {
                    out.push(Effect::ReleaseIo);
                }
            }
            Input::PeerLost(peer) => {
                self.peers.retain(|&p| p != peer);
                self.resume_if_acked(out);
            }
            Input::PeerJoined(peer) => {
                debug_assert!(self.is_primary, "only the acting primary admits peers");
                if !self.peers.contains(&peer) {
                    self.peers.push(peer);
                    self.peers.sort_unstable();
                }
                self.acked.insert(peer, 0);
                let mut seq = 0;
                for (epoch, interrupt) in &self.buffered {
                    seq += 1;
                    out.push(Effect::Send {
                        to: peer,
                        msg: Message::Interrupt {
                            seq,
                            epoch: *epoch,
                            interrupt: interrupt.clone(),
                        },
                    });
                }
                self.next_seq.insert(peer, seq);
            }
            Input::Promote { vclock, survivors } => self.promote(vclock, survivors, out),
        }
    }

    fn all_acked(&self) -> bool {
        self.peers.iter().all(|p| {
            self.acked.get(p).copied().unwrap_or(0) >= self.next_seq.get(p).copied().unwrap_or(0)
        })
    }

    /// Stamps and queues one sequenced message per live peer.
    fn broadcast(&mut self, out: &mut Vec<Effect>, make: impl Fn(u64) -> Message) {
        for &to in &self.peers {
            let seq = self.next_seq.entry(to).or_insert(0);
            *seq += 1;
            out.push(Effect::Send {
                to,
                msg: make(*seq),
            });
        }
    }

    /// Buffers `fwd` for delivery at the end of `epoch`, behind every
    /// interrupt already buffered for it.
    fn buffer(&mut self, epoch: u64, fwd: ForwardedInterrupt) {
        let at = self.buffered.partition_point(|&(e, _)| e <= epoch);
        self.buffered.insert(at, (epoch, fwd));
    }

    /// Delivers the timer check and every interrupt buffered for
    /// `epochs`, in order; each disk interrupt answers one outstanding
    /// disk operation.
    fn deliver(&mut self, epochs: RangeInclusive<u64>, out: &mut Vec<Effect>) {
        out.push(Effect::DeliverTimer);
        let from = self.buffered.partition_point(|&(e, _)| e < *epochs.start());
        let to = self.buffered.partition_point(|&(e, _)| e <= *epochs.end());
        let outstanding = &mut self.outstanding;
        out.extend(self.buffered.drain(from..to).map(|(_, fwd)| {
            if fwd.irq_bits & irq::DISK != 0 {
                *outstanding = outstanding.saturating_sub(1);
            }
            Effect::DeliverInterrupt(fwd)
        }));
    }

    /// Rule P2, second half: deliver, announce, start the next epoch.
    fn finish_boundary(&mut self, epoch: u64, out: &mut Vec<Effect>) {
        self.deliver(epoch..=epoch, out);
        self.broadcast(out, |seq| Message::EpochEnd { seq, epoch });
        out.push(Effect::StartEpoch);
        self.phase = Phase::Running;
    }

    /// Rule P5's waiting sequence, re-evaluated whenever state changes.
    fn try_advance(&mut self, out: &mut Vec<Effect>) {
        if let Phase::AwaitTime { epoch } = self.phase {
            let Some(vc) = self.got_time.remove(&epoch) else {
                return;
            };
            out.push(Effect::AssignClock(vc));
            self.phase = Phase::AwaitEnd { epoch };
        }
        if let Phase::AwaitEnd { epoch } = self.phase {
            if self.got_end.remove(&epoch) {
                self.deliver(epoch..=epoch, out);
                out.push(Effect::StartEpoch);
                self.phase = Phase::Running;
            }
        }
    }

    fn receive(&mut self, from: ReplicaId, msg: Message, out: &mut Vec<Effect>) {
        if let Some(seq) = msg.seq() {
            if self.is_duplicate(from, seq) {
                return self.ack(from, seq, out);
            }
        }
        match msg {
            Message::Ack { upto } => {
                let slot = self.acked.entry(from).or_insert(0);
                *slot = (*slot).max(upto);
                return self.resume_if_acked(out);
            }
            Message::Interrupt {
                seq,
                epoch,
                interrupt,
            } => {
                self.ack(from, seq, out);
                self.buffer(epoch, interrupt);
            }
            Message::Time { seq, epoch, vclock } => {
                self.ack(from, seq, out);
                self.got_time.insert(epoch, vclock);
            }
            Message::EpochEnd { seq, epoch } => {
                self.ack(from, seq, out);
                self.got_end.insert(epoch);
            }
            // State-transfer chunks are driver traffic: the driver
            // intercepts them before the engine and restores the replica
            // itself. A stray chunk (e.g. one still in flight from a
            // primary that since died) is a protocol no-op.
            Message::StateChunk { .. } => return,
        }
        self.try_advance(out);
    }

    /// Whether a sequenced message from `from` was already processed.
    /// A message from a *new* sender is never a duplicate — a new
    /// primary's sequence space starts fresh.
    fn is_duplicate(&self, from: ReplicaId, seq: u64) -> bool {
        from == self.primary && seq <= self.highest_recv
    }

    /// Cumulatively acknowledges everything received from the sender;
    /// a sequenced message from a *new* sender means a new primary has
    /// taken over (its sequence space starts fresh).
    fn ack(&mut self, from: ReplicaId, seq: u64, out: &mut Vec<Effect>) {
        if from != self.primary {
            self.primary = from;
            self.highest_recv = 0;
        }
        self.highest_recv = self.highest_recv.max(seq);
        out.push(Effect::Send {
            to: self.primary,
            msg: Message::Ack {
                upto: self.highest_recv,
            },
        });
    }

    /// Resumes a primary stalled on acknowledgments, if they are in.
    fn resume_if_acked(&mut self, out: &mut Vec<Effect>) {
        if !self.all_acked() {
            return;
        }
        match self.phase {
            Phase::AwaitBoundaryAcks { epoch } => self.finish_boundary(epoch, out),
            Phase::AwaitIoAcks => {
                self.phase = Phase::Running;
                out.push(Effect::ReleaseIo);
            }
            _ => {}
        }
    }

    /// [`Input::Promote`].
    fn promote(&mut self, vclock: VClock, survivors: Vec<ReplicaId>, out: &mut Vec<Effect>) {
        let waiting = match self.phase {
            Phase::Running => None,
            Phase::AwaitTime { epoch } => Some((epoch, false)),
            Phase::AwaitEnd { epoch } => Some((epoch, true)),
            other => unreachable!("promotion outside a waiting state: {other:?}"),
        };
        self.is_primary = true;
        self.peers = survivors;
        let Some((epoch, time_already_assigned)) = waiting else {
            // Between epochs only the role switches; coordination
            // resumes at the next boundary.
            return;
        };
        // Rule P7 asks whether a disk operation is outstanding that no
        // buffered disk interrupt answers: P6 delivers every one of
        // them, now or (with survivors) at its own epoch's boundary.
        let held = self.buffered.iter();
        let held = held.filter(|(_, f)| f.irq_bits & irq::DISK != 0).count();
        let uncertain = self.outstanding as usize > held;
        if self.peers.is_empty() {
            // No replica is left to stay in step with: deliver the
            // boundary epoch (with its timer check) and every later
            // buffered epoch — holding epoch-tagged completions any
            // longer would only delay the driver.
            self.deliver(epoch..=u64::MAX, out);
        } else {
            // Survivors remain: finish epoch `E` the way the dead
            // primary would have. Every live backup received the same
            // message prefix, so `[Tme_p]` is re-sent exactly when
            // nobody has it.
            if uncertain {
                self.broadcast(out, |seq| Message::Interrupt {
                    seq,
                    epoch,
                    interrupt: ForwardedInterrupt::UNCERTAIN,
                });
            }
            if !time_already_assigned {
                out.push(Effect::AssignClock(vclock));
                self.broadcast(out, |seq| Message::Time { seq, epoch, vclock });
            }
            self.deliver(epoch..=epoch, out);
        }
        if uncertain {
            self.outstanding -= 1;
            out.push(Effect::SynthesizeUncertain);
        }
        self.broadcast(out, |seq| Message::EpochEnd { seq, epoch });
        out.push(Effect::StartEpoch);
        self.phase = Phase::Running;
    }
}

/// Applies the guest-local part of an effect through the narrow
/// [`GuestCtl`] surface. Driver-specific parts — transmitting
/// [`Effect::Send`], device payloads of [`Effect::DeliverInterrupt`],
/// releasing I/O — remain the driver's job.
pub fn apply_to_guest<G: GuestCtl>(effect: &Effect, guest: &mut G) {
    match effect {
        Effect::AssignClock(vc) => guest.vclock_assign(*vc),
        Effect::DeliverTimer => {
            if guest.timer_expired() {
                guest.assert_irq(irq::TIMER);
            }
        }
        Effect::DeliverInterrupt(fwd) => guest.assert_irq(fwd.irq_bits),
        Effect::StartEpoch => guest.begin_epoch(),
        Effect::Send { .. }
        | Effect::SynthesizeUncertain
        | Effect::ReleaseIo
        | Effect::SuppressIo => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VClock {
        VClock::new()
    }

    /// One input, its effects in a buffer of their own.
    fn step(engine: &mut ReplicaEngine, input: Input) -> Vec<Effect> {
        let mut out = Vec::new();
        engine.step(input, &mut out);
        out
    }

    fn boundary(epoch: u64) -> Input {
        Input::Boundary {
            epoch,
            vclock: vc(),
        }
    }

    fn receive(engine: &mut ReplicaEngine, from: ReplicaId, msg: Message) -> Vec<Effect> {
        step(engine, Input::Message { from, msg })
    }

    fn promote(survivors: Vec<ReplicaId>) -> Input {
        Input::Promote {
            vclock: vc(),
            survivors,
        }
    }

    const DISK_GO: Input = Input::Io { disk: true };

    fn sends(effects: &[Effect]) -> Vec<(ReplicaId, &Message)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    /// Routes every Send effect to its destination engine, to a
    /// fixpoint; returns the non-Send effects each engine emitted.
    fn pump(engines: &mut [ReplicaEngine], initial: Vec<(ReplicaId, Effect)>) -> Vec<Vec<Effect>> {
        let mut local: Vec<Vec<Effect>> = engines.iter().map(|_| Vec::new()).collect();
        let mut queue: Vec<(ReplicaId, ReplicaId, Message)> = Vec::new();
        for (from, e) in initial {
            match e {
                Effect::Send { to, msg } => queue.push((from, to, msg)),
                other => local[from].push(other),
            }
        }
        while !queue.is_empty() {
            let (from, to, msg) = queue.remove(0);
            for e in receive(&mut engines[to], from, msg) {
                match e {
                    Effect::Send { to: t2, msg } => queue.push((to, t2, msg)),
                    other => local[to].push(other),
                }
            }
        }
        local
    }

    #[test]
    fn old_protocol_full_epoch_cycle() {
        let mut p = ReplicaEngine::new_primary(0, vec![1], ProtocolVariant::Old);
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);

        // Primary hits the boundary first: sends [Tme], then stalls on
        // the acknowledgment (rule P2, original protocol).
        let pe = step(&mut p, boundary(0));
        assert_eq!(sends(&pe).len(), 1);
        assert!(matches!(sends(&pe)[0].1, Message::Time { epoch: 0, .. }));
        assert!(!p.is_running(), "P2 waits for acks before finishing");

        // Backup reaches its boundary: waits for [Tme].
        let be = step(&mut b, boundary(0));
        assert!(be.is_empty());
        assert!(b.is_waiting_backup());

        // Deliver [Tme] to the backup: it acks and assigns.
        let [(_, time)] = sends(&pe)[..] else {
            panic!()
        };
        let be = receive(&mut b, 0, time.clone());
        assert!(matches!(
            be[0],
            Effect::Send {
                to: 0,
                msg: Message::Ack { upto: 1 }
            }
        ));
        assert!(be.contains(&Effect::AssignClock(vc())));

        // The ack releases the primary: deliver + [end] + next epoch.
        let ack = match &be[0] {
            Effect::Send { msg, .. } => msg.clone(),
            _ => panic!(),
        };
        let pe = receive(&mut p, 1, ack);
        assert!(pe.contains(&Effect::DeliverTimer));
        assert!(pe.contains(&Effect::StartEpoch));
        assert!(p.is_running());
        let end = sends(&pe)
            .into_iter()
            .find(|(_, m)| matches!(m, Message::EpochEnd { .. }))
            .expect("[end, 0] must be announced")
            .1
            .clone();

        // [end] lets the backup start the next epoch.
        let be = receive(&mut b, 0, end);
        assert!(be.iter().any(|e| matches!(e, Effect::StartEpoch)));
        assert!(b.is_running());
    }

    #[test]
    fn new_protocol_gates_io_not_boundaries() {
        let mut p = ReplicaEngine::new_primary(0, vec![1], ProtocolVariant::New);
        // The boundary does not wait even though nothing is acked yet.
        let pe = step(&mut p, boundary(0));
        assert!(p.is_running(), "§4.3 drops the boundary ack-wait");
        assert!(pe.contains(&Effect::StartEpoch));
        // But I/O is gated until the outstanding [Tme]/[end] are acked.
        assert!(step(&mut p, DISK_GO).is_empty());
        assert!(p.holds_io());
        // The cumulative ack for both messages releases it.
        let pe = receive(&mut p, 1, Message::Ack { upto: 2 });
        assert_eq!(pe, vec![Effect::ReleaseIo]);
        assert!(p.is_running());
        // With everything acked, further I/O is released immediately.
        assert_eq!(step(&mut p, DISK_GO), vec![Effect::ReleaseIo]);
    }

    #[test]
    fn boundary_interrupts_tag_the_next_epoch() {
        let mut p = ReplicaEngine::new_primary(0, vec![1], ProtocolVariant::Old);
        let _ = step(&mut p, boundary(3));
        assert!(!p.is_running(), "stalled on acks");
        let fwd = ForwardedInterrupt {
            irq_bits: irq::DISK,
            disk: None,
        };
        let effects = step(
            &mut p,
            Input::Interrupt {
                guest_epoch: 3,
                fwd,
            },
        );
        match sends(&effects)[0].1 {
            Message::Interrupt { epoch, .. } => assert_eq!(
                *epoch, 4,
                "interrupts during boundary processing of E belong to E+1"
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_backup_suppresses_its_io_and_counts_its_disk_gos() {
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::New);
        assert_eq!(step(&mut b, DISK_GO), vec![Effect::SuppressIo]);
        let console = step(&mut b, Input::Io { disk: false });
        assert_eq!(console, vec![Effect::SuppressIo]);
        assert_eq!(b.outstanding(), 1, "only the disk GO is outstanding");
        assert!(b.is_running());
    }

    #[test]
    fn promotion_without_survivors_flushes_everything() {
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        let _ = step(&mut b, DISK_GO);
        // Buffer interrupts for the boundary epoch and a later epoch.
        let f0 = ForwardedInterrupt {
            irq_bits: irq::DISK,
            disk: None,
        };
        let f1 = ForwardedInterrupt {
            irq_bits: irq::TIMER,
            disk: None,
        };
        let _ = receive(
            &mut b,
            0,
            Message::Interrupt {
                seq: 1,
                epoch: 2,
                interrupt: f0.clone(),
            },
        );
        let _ = receive(
            &mut b,
            0,
            Message::Interrupt {
                seq: 2,
                epoch: 3,
                interrupt: f1.clone(),
            },
        );
        let _ = step(&mut b, boundary(2));
        let effects = step(&mut b, promote(Vec::new()));
        assert!(b.is_primary() && b.is_running());
        // Both buffers delivered, epoch started; the disk interrupt
        // answers the GO, so P7 synthesizes nothing after P6.
        assert!(effects.contains(&Effect::DeliverInterrupt(f0)));
        assert!(effects.contains(&Effect::DeliverInterrupt(f1)));
        assert!(!effects.contains(&Effect::SynthesizeUncertain));
        assert_eq!(b.outstanding(), 0);
        assert_eq!(effects.last(), Some(&Effect::StartEpoch));
    }

    #[test]
    fn promotion_without_survivors_answers_an_unanswered_go_uncertain() {
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        let _ = step(&mut b, DISK_GO);
        let _ = step(&mut b, boundary(2));
        let effects = step(&mut b, promote(Vec::new()));
        let tail = &effects[effects.len() - 2..];
        assert_eq!(tail, [Effect::SynthesizeUncertain, Effect::StartEpoch]);
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn promotion_with_survivors_resends_time_only_if_missing() {
        // Case 1: promoted from AwaitTime — nobody got [Tme, E]; the new
        // primary must issue it.
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        let _ = step(&mut b, boundary(5));
        let effects = step(&mut b, promote(vec![2]));
        let msgs: Vec<_> = sends(&effects);
        assert!(
            msgs.iter()
                .any(|(to, m)| *to == 2 && matches!(m, Message::Time { epoch: 5, .. })),
            "[Tme] re-issued to the survivor: {msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|(_, m)| matches!(m, Message::EpochEnd { epoch: 5, .. })),
            "[end, 5] closes the failover epoch"
        );
        assert!(b.is_running());

        // Case 2: promoted from AwaitEnd — [Tme, E] was already
        // broadcast by the dead primary; only [end] goes out.
        let mut c = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        let _ = step(&mut c, boundary(7));
        let _ = receive(
            &mut c,
            0,
            Message::Time {
                seq: 1,
                epoch: 7,
                vclock: vc(),
            },
        );
        assert!(c.is_waiting_backup());
        let effects = step(&mut c, promote(vec![2]));
        let msgs = sends(&effects);
        assert!(
            !msgs.iter().any(|(_, m)| matches!(m, Message::Time { .. })),
            "already-assigned [Tme] must not be re-sent: {msgs:?}"
        );
        assert!(msgs
            .iter()
            .any(|(_, m)| matches!(m, Message::EpochEnd { epoch: 7, .. })));
    }

    #[test]
    fn promotion_with_survivors_forwards_the_uncertain_interrupt() {
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::New);
        let _ = step(&mut b, DISK_GO);
        let _ = step(&mut b, boundary(4));
        let effects = step(&mut b, promote(vec![2, 3]));
        // The uncertain completion travels as [E, Int] to every
        // survivor AND is delivered locally at the boundary.
        let ints: Vec<_> = sends(&effects)
            .into_iter()
            .filter(|(_, m)| {
                matches!(m, Message::Interrupt { epoch: 4, interrupt, .. }
                    if *interrupt == ForwardedInterrupt::UNCERTAIN)
            })
            .collect();
        assert_eq!(ints.len(), 2, "one copy per survivor");
        assert!(effects.contains(&Effect::SynthesizeUncertain));
    }

    #[test]
    fn a_disk_interrupt_held_for_a_later_epoch_answers_the_go() {
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::New);
        let _ = step(&mut b, DISK_GO);
        let completion = ForwardedInterrupt {
            irq_bits: irq::DISK,
            disk: None,
        };
        let int = Message::Interrupt {
            seq: 1,
            epoch: 5,
            interrupt: completion.clone(),
        };
        let _ = receive(&mut b, 0, int);
        let _ = step(&mut b, boundary(4));
        let effects = step(&mut b, promote(vec![2]));
        assert!(!effects.contains(&Effect::SynthesizeUncertain));
        assert_eq!(b.outstanding(), 1, "answered at epoch 5's boundary");
        let effects = step(&mut b, boundary(5));
        assert!(effects.contains(&Effect::DeliverInterrupt(completion)));
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn promotion_between_epochs_only_switches_the_role() {
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::New);
        assert!(step(&mut b, promote(vec![2])).is_empty());
        assert!(b.is_primary() && b.is_running());
        assert_eq!(b.peers(), &[2]);
    }

    #[test]
    fn t2_primary_needs_every_backup_ack() {
        let mut p = ReplicaEngine::new_primary(0, vec![1, 2], ProtocolVariant::Old);
        let mut b1 = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        let mut b2 = ReplicaEngine::new_backup(2, 0, ProtocolVariant::Old);
        let pe = step(&mut p, boundary(0));
        assert_eq!(sends(&pe).len(), 2, "[Tme] broadcast to both backups");
        assert!(!p.is_running());
        // One ack is not enough.
        let _ = receive(&mut b1, 0, sends(&pe)[0].1.clone());
        let pe2 = receive(&mut p, 1, Message::Ack { upto: 1 });
        assert!(pe2.is_empty() && !p.is_running());
        // The second releases the boundary.
        let _ = receive(&mut b2, 0, sends(&pe)[1].1.clone());
        let pe3 = receive(&mut p, 2, Message::Ack { upto: 1 });
        assert!(pe3.contains(&Effect::StartEpoch));
        assert!(p.is_running());
    }

    #[test]
    fn a_full_t2_epoch_round_trips_through_the_pump() {
        let mut engines = vec![
            ReplicaEngine::new_primary(0, vec![1, 2], ProtocolVariant::Old),
            ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old),
            ReplicaEngine::new_backup(2, 0, ProtocolVariant::Old),
        ];
        let mut initial = Vec::new();
        for (i, engine) in engines.iter_mut().enumerate() {
            for e in step(engine, boundary(0)) {
                initial.push((i, e));
            }
        }
        let locals = pump(&mut engines, initial);
        for (i, engine) in engines.iter().enumerate() {
            assert!(engine.is_running(), "replica {i} stuck: {engine:?}");
            assert!(
                locals[i].contains(&Effect::StartEpoch),
                "replica {i} never started epoch 1: {:?}",
                locals[i]
            );
        }
    }

    #[test]
    fn duplicate_messages_reack_without_state_changes() {
        let mut b = ReplicaEngine::new_backup(1, 0, ProtocolVariant::Old);
        let int = Message::Interrupt {
            seq: 1,
            epoch: 0,
            interrupt: ForwardedInterrupt {
                irq_bits: irq::DISK,
                disk: None,
            },
        };
        let _ = receive(&mut b, 0, int.clone());
        // The retransmitted copy must be acked but not re-buffered.
        let effects = receive(&mut b, 0, int);
        assert_eq!(
            effects,
            vec![Effect::Send {
                to: 0,
                msg: Message::Ack { upto: 1 }
            }],
            "a duplicate produces exactly a re-ack"
        );
        let _ = step(&mut b, boundary(0));
        let time = Message::Time {
            seq: 2,
            epoch: 0,
            vclock: vc(),
        };
        let first = receive(&mut b, 0, time.clone());
        assert!(first.contains(&Effect::AssignClock(vc())));
        let second = receive(&mut b, 0, time);
        assert!(
            !second.contains(&Effect::AssignClock(vc())),
            "a duplicate [Tme] must not re-assign the clock: {second:?}"
        );
        // Delivery of [end, 0] releases exactly one buffered interrupt.
        let effects = receive(&mut b, 0, Message::EpochEnd { seq: 3, epoch: 0 });
        let delivered = effects
            .iter()
            .filter(|e| matches!(e, Effect::DeliverInterrupt(_)))
            .count();
        assert_eq!(delivered, 1, "the duplicate was not double-buffered");
    }

    #[test]
    fn backup_switches_allegiance_to_a_new_primary() {
        let mut b = ReplicaEngine::new_backup(2, 0, ProtocolVariant::Old);
        let _ = receive(&mut b, 0, Message::EpochEnd { seq: 9, epoch: 0 });
        assert_eq!(b.highest_recv, 9);
        // Replica 1 promoted and starts its own sequence space.
        let effects = receive(&mut b, 1, Message::EpochEnd { seq: 1, epoch: 1 });
        match &effects[0] {
            Effect::Send {
                to,
                msg: Message::Ack { upto },
            } => {
                assert_eq!(*to, 1, "acks go to the new primary");
                assert_eq!(*upto, 1, "sequence tracking restarted");
            }
            other => panic!("{other:?}"),
        }
    }
}
