//! An ack/retransmission layer over lossy FIFO media.
//!
//! §4.3 of the paper drops the assumption that the coordination network
//! never loses messages: "the network used by the hypervisors … can
//! lose messages", so every sequenced protocol message must be
//! acknowledged and retransmitted until it is. This module is the
//! transport half of that machinery, deliberately kept below the
//! replica-coordination protocol: frames carry *any* payload type, and
//! the P1–P7 engines never learn that a drop happened.
//!
//! Three pieces cooperate, wired together by a driver that owns the
//! simulated clock:
//!
//! - [`Frame`] — the wire envelope: either a sequence-numbered
//!   [`Frame::Data`] carrying one payload, or a cumulative
//!   [`Frame::Ack`];
//! - [`SendWindow`] — the sender side of one directed link: stamps
//!   sequence numbers, keeps unacknowledged frames, and exposes a
//!   retransmit deadline the driver treats as an event source;
//! - [`RecvWindow`] — the receiver side: accepts exactly the next
//!   expected sequence number, suppresses duplicates and gaps, and
//!   says what cumulative acknowledgment to return.
//!
//! The split mirrors how acknowledgments actually travel: data frames
//! cross on the `(a → b)` channel while their acks return on `(b → a)`,
//! so a single object cannot own both directions. Drivers — see
//! `FtSystem` in `hvft-core` — keep, at each end of a link, the
//! `SendWindow` of the direction it sends on and the `RecvWindow` of the
//! direction it receives on. Run-level counts (frames re-sent,
//! duplicates suppressed) are the driver's to keep, where it sees every
//! frame.
//!
//! # Congestion sanity
//!
//! A naive fixed-interval, whole-tail retransmitter melts down the
//! moment the medium saturates: if the timeout is shorter than the
//! backlog's drain time, every firing re-sends everything, which grows
//! the backlog, which guarantees the next firing — a quadratic storm.
//! Three standard defenses keep recovery cheap no matter how loaded
//! the wire is:
//!
//! - **serialization-aware arming** — the driver arms the timer from
//!   the instant the frame finished serializing ([`SendWindow::arm`]),
//!   which a real NIC knows exactly, so a frame queued behind a long
//!   backlog is not declared lost while it is still waiting its turn;
//! - **bounded-burst retransmission** — a timeout re-sends the oldest
//!   unacknowledged frames, at most [`RETX_BURST`] of them, so each
//!   firing adds a hard-bounded amount of traffic (closer to TCP's
//!   RTO behaviour than to naive whole-window go-back-N);
//! - **exponential backoff** — each consecutive timeout without ack
//!   progress doubles the effective timeout (capped); progress resets
//!   it.
//!
//! # Examples
//!
//! A full lose-retransmit-deliver cycle, clocks driven by hand:
//!
//! ```
//! use hvft_net::reliable::{Frame, RecvWindow, SendWindow};
//! use hvft_sim::time::{SimDuration, SimTime};
//!
//! let rto = SimDuration::from_millis(5);
//! let mut tx: SendWindow<&str> = SendWindow::new(rto);
//! let mut rx = RecvWindow::new();
//!
//! // Sender wraps a payload; suppose the network drops it. The driver
//! // arms the timer from the frame's serialization end.
//! let t0 = SimTime::ZERO;
//! let _lost = tx.wrap(16, "hello");
//! tx.arm(t0);
//! assert_eq!(tx.deadline(), Some(t0 + rto));
//!
//! // The retransmit timer fires: the head frame is re-sent, arrives,
//! // and the receiver's cumulative ack drains the sender's window.
//! let t1 = t0 + rto;
//! let resent = tx.retransmit();
//! tx.rearm(t1);
//! let Frame::Data { seq, payload } = resent[0].frame.clone() else {
//!     unreachable!()
//! };
//! assert!(rx.accept(seq), "first delivery of seq 1 is fresh");
//! assert_eq!(payload, "hello");
//! tx.on_ack(t1, rx.cumulative_ack());
//! assert_eq!(tx.deadline(), None, "nothing left to retransmit");
//! ```

use hvft_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Wire size of a [`Frame::Ack`], matching the calibration of the other
/// small control messages (protocol acks are 26 bytes).
pub const ACK_WIRE_BYTES: usize = 26;

/// Most frames a single timeout firing re-sends.
///
/// One would be TCP-style head-of-line recovery, but this receiver
/// discards gap frames outright (no out-of-order buffer), so a deep
/// backlog behind one loss would then drain at a single frame per
/// timeout. A small burst recovers a lost prefix quickly while still
/// bounding the worst-case traffic a firing can add to a saturated
/// medium.
pub const RETX_BURST: usize = 8;

/// Consecutive no-progress timeouts after which the backoff multiplier
/// stops doubling (`rto × 2^2 = 4 × rto`).
///
/// The cap is deliberately low. Retransmissions double as the
/// *heartbeat* a waiting backup's failure detector listens for: while a
/// primary is stalled awaiting acknowledgments it sends nothing new,
/// so retransmitted copies are its only signs of life. An aggressive
/// backoff would open silence gaps approaching the detection timeout
/// and turn an unlucky loss streak into a false promotion; the
/// [`RETX_BURST`] bound already caps the recovery traffic each timeout
/// can add, so there is little congestion left for backoff to fight.
/// Detection timeouts must still dominate `4 × rto` by a comfortable
/// multiple (see `FtConfig::retransmit` in `hvft-core`).
pub const MAX_BACKOFF_EXP: u32 = 2;

/// The wire envelope of the reliable layer.
///
/// `Data` frames are sequence-numbered per directed link (starting at
/// 1); `Ack` frames cumulatively acknowledge every sequence number up
/// to and including `cum`. Acks are themselves unsequenced and may be
/// lost — a lost ack is recovered by the sender's retransmission, which
/// provokes a fresh (duplicate-suppressed) delivery and a re-ack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame<M> {
    /// A sequenced payload frame.
    Data {
        /// Link-level sequence number (1-based, per directed link).
        seq: u64,
        /// The payload being carried.
        payload: M,
    },
    /// Cumulative acknowledgment of every `Data` frame up to `cum`.
    Ack {
        /// Highest sequence number delivered in order.
        cum: u64,
    },
    /// A liveness beacon: unsequenced, unacknowledged, carrying
    /// nothing. A protocol-stalled sender emits these periodically so
    /// that timeout failure detectors measure *liveness* rather than
    /// protocol progress — retransmissions alone stop flowing the
    /// moment every outstanding frame is acknowledged, which is
    /// precisely when a stalled-but-live sender falls silent.
    Heartbeat,
}

impl<M> Frame<M> {
    /// Wire size of this frame given the payload's own wire size.
    ///
    /// `Data` framing is considered part of the payload's calibrated
    /// size (the protocol messages already budget their headers), so a
    /// data frame costs exactly `payload_bytes`; an ack costs
    /// [`ACK_WIRE_BYTES`].
    pub fn wire_bytes(&self, payload_bytes: usize) -> usize {
        match self {
            Frame::Data { .. } => payload_bytes,
            Frame::Ack { .. } | Frame::Heartbeat => ACK_WIRE_BYTES,
        }
    }
}

/// One frame queued for (re)transmission: the envelope plus the payload
/// size the link model should charge for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// The frame to put on the wire.
    pub frame: Frame<M>,
    /// Payload wire size in bytes (see [`Frame::wire_bytes`]).
    pub bytes: usize,
}

/// One retained unacknowledged frame.
#[derive(Clone, Debug)]
struct Pending<M> {
    seq: u64,
    bytes: usize,
    payload: M,
    /// When this frame's first transmission finished serializing onto
    /// the medium (recorded by [`SendWindow::arm`]); `None` until the
    /// driver reports it. Re-arms after ack progress never set a
    /// deadline earlier than this — a frame still on the adapter's
    /// queue cannot be lost yet.
    tx_end: Option<SimTime>,
}

/// The sender half of one reliable directed link.
///
/// Stamps per-link sequence numbers and retains every unacknowledged
/// frame (payloads must therefore be `Clone`). The driver owns the
/// clock, so timer management is split into explicit calls:
/// [`SendWindow::wrap`] stamps and retains, [`SendWindow::arm`] starts
/// the timer from the frame's serialization end, the driver polls
/// [`SendWindow::deadline`] as an event source, and a firing calls
/// [`SendWindow::retransmit`] (head frame only) followed by
/// [`SendWindow::rearm`] from the copy's serialization end.
#[derive(Clone, Debug)]
pub struct SendWindow<M> {
    rto: SimDuration,
    next_seq: u64,
    unacked: VecDeque<Pending<M>>,
    deadline: Option<SimTime>,
    /// Consecutive timeouts without ack progress.
    backoff: u32,
}

impl<M: Clone> SendWindow<M> {
    /// A window with the given base retransmission timeout.
    ///
    /// # Panics
    ///
    /// Panics if `rto` is zero (a zero timeout would retransmit in a
    /// busy loop at one instant of simulated time).
    pub fn new(rto: SimDuration) -> Self {
        assert!(
            rto > SimDuration::ZERO,
            "retransmission timeout must be positive"
        );
        SendWindow {
            rto,
            next_seq: 0,
            unacked: VecDeque::new(),
            deadline: None,
            backoff: 0,
        }
    }

    /// The backoff-scaled effective timeout.
    fn effective_rto(&self) -> SimDuration {
        self.rto * (1u64 << self.backoff.min(MAX_BACKOFF_EXP))
    }

    /// Stamps `payload` with the next sequence number and retains a
    /// copy for retransmission; returns the frame to transmit now. The
    /// driver must follow up with [`SendWindow::arm`] once it knows
    /// when the frame's serialization completes.
    pub fn wrap(&mut self, bytes: usize, payload: M) -> Frame<M> {
        self.next_seq += 1;
        let seq = self.next_seq;
        self.unacked.push_back(Pending {
            seq,
            bytes,
            payload: payload.clone(),
            tx_end: None,
        });
        Frame::Data { seq, payload }
    }

    /// Arms the retransmit timer at `tx_end + rto`, where `tx_end` is
    /// the instant the just-wrapped frame finished serializing onto the
    /// medium. A timer already running (for an older frame) is left
    /// alone — the oldest unacknowledged frame's deadline governs — but
    /// the serialization end is recorded on the frame either way, so
    /// later re-arms know when it actually left the adapter.
    pub fn arm(&mut self, tx_end: SimTime) {
        if let Some(last) = self.unacked.back_mut() {
            if last.tx_end.is_none() {
                last.tx_end = Some(tx_end);
            }
            if self.deadline.is_none() {
                self.deadline = Some(tx_end + self.effective_rto());
            }
        }
    }

    /// Processes a cumulative acknowledgment: frames up to `cum` are
    /// dropped from the window. Progress resets the backoff and
    /// restarts the timer; a stale ack changes nothing.
    ///
    /// The restarted deadline is anchored at the *later* of `now` and
    /// the oldest remaining frame's serialization end: during a bulk
    /// burst (say, a reintegration state transfer) acks for early
    /// frames arrive while later frames are still serializing, and
    /// `now + rto` alone would declare those queued frames lost on a
    /// medium slower than the rto — a spurious-retransmit storm that
    /// feeds itself by adding yet more backlog.
    pub fn on_ack(&mut self, now: SimTime, cum: u64) {
        let before = self.unacked.len();
        while self.unacked.front().is_some_and(|p| p.seq <= cum) {
            self.unacked.pop_front();
        }
        if self.unacked.is_empty() {
            self.deadline = None;
            self.backoff = 0;
        } else if self.unacked.len() != before {
            self.backoff = 0;
            let pending = self
                .unacked
                .front()
                .and_then(|p| p.tx_end)
                .map_or(now, |t| t.max(now));
            self.deadline = Some(pending + self.effective_rto());
        }
    }

    /// The instant the retransmit timer fires, if armed.
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// The retransmit timer fired: returns copies of the oldest (up to
    /// [`RETX_BURST`]) unacknowledged frames, oldest first, and
    /// escalates the backoff. The driver must transmit the copies in
    /// order and then call [`SendWindow::rearm`] with the last copy's
    /// serialization end. Returns an empty vector (and disarms) if
    /// nothing is pending.
    pub fn retransmit(&mut self) -> Vec<Outgoing<M>> {
        if self.unacked.is_empty() {
            self.deadline = None;
            return Vec::new();
        }
        self.backoff = self.backoff.saturating_add(1);
        // The driver rearms; clear so a driver that forgets cannot spin
        // at one instant forever.
        self.deadline = None;
        self.unacked
            .iter()
            .take(RETX_BURST)
            .map(|p| Outgoing {
                frame: Frame::Data {
                    seq: p.seq,
                    payload: p.payload.clone(),
                },
                bytes: p.bytes,
            })
            .collect()
    }

    /// Restarts the timer after a retransmission whose copy finished
    /// serializing at `tx_end`.
    pub fn rearm(&mut self, tx_end: SimTime) {
        if !self.unacked.is_empty() {
            self.deadline = Some(tx_end + self.effective_rto());
        }
    }

    /// Permanently disarms the window (the peer failstopped or the link
    /// was severed): pending frames are dropped and the timer cleared.
    pub fn disarm(&mut self) {
        self.unacked.clear();
        self.deadline = None;
        self.backoff = 0;
    }

    /// Whether any frame awaits acknowledgment.
    pub fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }
}

/// The receiver half of one reliable directed link.
///
/// Accepts data frames strictly in sequence: `seq == cum + 1` is fresh,
/// anything at or below `cum` is a duplicate (the ack acknowledging it
/// was lost), anything above `cum + 1` is a gap (an earlier frame was
/// lost and will be retransmitted first — FIFO links mean a gap can
/// only follow a drop). Both are suppressed; the receiver answers every
/// data frame, fresh or not, with [`RecvWindow::cumulative_ack`].
#[derive(Clone, Debug, Default)]
pub struct RecvWindow {
    cum: u64,
}

impl RecvWindow {
    /// A window expecting sequence number 1 first.
    pub fn new() -> Self {
        RecvWindow::default()
    }

    /// Offers a received sequence number; `true` means the frame is
    /// fresh and its payload should be delivered upward.
    pub fn accept(&mut self, seq: u64) -> bool {
        let fresh = seq == self.cum + 1;
        if fresh {
            self.cum = seq;
        }
        fresh
    }

    /// The cumulative acknowledgment to send back: the highest sequence
    /// number delivered in order so far.
    pub fn cumulative_ack(&self) -> u64 {
        self.cum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + ms(n)
    }

    #[test]
    fn sequences_start_at_one_and_increment() {
        let mut tx: SendWindow<u8> = SendWindow::new(ms(5));
        for expect in 1..=4u64 {
            match tx.wrap(1, expect as u8) {
                Frame::Data { seq, .. } => assert_eq!(seq, expect),
                f => panic!("{f:?}"),
            }
        }
    }

    #[test]
    fn arm_uses_serialization_end_not_send_time() {
        let mut tx: SendWindow<u8> = SendWindow::new(ms(5));
        tx.wrap(1, 1);
        // The frame sat behind a 30 ms backlog; the timer starts when
        // it actually left the adapter.
        tx.arm(at(30));
        assert_eq!(tx.deadline(), Some(at(35)));
        // A second frame does not move the older frame's deadline.
        tx.wrap(1, 2);
        tx.arm(at(60));
        assert_eq!(tx.deadline(), Some(at(35)));
    }

    #[test]
    fn ack_prunes_resets_backoff_and_rearms() {
        let mut tx: SendWindow<u8> = SendWindow::new(ms(5));
        tx.wrap(1, 1);
        tx.arm(at(0));
        tx.wrap(1, 2);
        tx.wrap(1, 3);
        // Two timeouts escalate the backoff.
        let _ = tx.retransmit();
        tx.rearm(at(5));
        assert_eq!(tx.deadline(), Some(at(15)), "backoff doubles: 5 + 2×5");
        let _ = tx.retransmit();
        tx.rearm(at(15));
        assert_eq!(tx.deadline(), Some(at(35)), "15 + 4×5");
        // Partial ack: window shrinks, backoff resets, timer restarts.
        tx.on_ack(at(20), 2);
        assert!(tx.has_unacked());
        assert_eq!(tx.deadline(), Some(at(25)), "progress resets to base rto");
        // Full ack clears the timer.
        tx.on_ack(at(21), 3);
        assert!(!tx.has_unacked());
        assert_eq!(tx.deadline(), None);
    }

    #[test]
    fn stale_ack_does_not_rearm() {
        let mut tx: SendWindow<u8> = SendWindow::new(ms(5));
        tx.wrap(1, 1);
        tx.arm(at(0));
        let d = tx.deadline();
        // A duplicate ack for nothing new must not push the deadline out
        // (otherwise a chatty duplicate stream could starve recovery).
        tx.on_ack(at(4), 0);
        assert_eq!(tx.deadline(), d);
    }

    #[test]
    fn retransmit_bursts_oldest_first_and_bounded() {
        let mut tx: SendWindow<u32> = SendWindow::new(ms(5));
        for p in 0..12u32 {
            tx.wrap(10 + p as usize, p);
        }
        tx.arm(at(0));
        let out = tx.retransmit();
        assert_eq!(out.len(), RETX_BURST, "burst is bounded");
        let seqs: Vec<u64> = out
            .iter()
            .map(|o| match o.frame {
                Frame::Data { seq, .. } => seq,
                _ => panic!(),
            })
            .collect();
        assert_eq!(seqs, (1..=RETX_BURST as u64).collect::<Vec<_>>());
        assert_eq!(out[0].bytes, 10);
        tx.rearm(at(5));
        assert_eq!(tx.deadline(), Some(at(15)), "one timeout: 5 + 2×5");
        // The cumulative ack for the burst covers later frames too if
        // they arrived meanwhile.
        tx.on_ack(at(6), 12);
        assert!(!tx.has_unacked());
    }

    #[test]
    fn backoff_caps() {
        let mut tx: SendWindow<u8> = SendWindow::new(ms(1));
        tx.wrap(1, 1);
        tx.arm(at(0));
        for _ in 0..10 {
            let _ = tx.retransmit();
            tx.rearm(at(100));
        }
        assert_eq!(
            tx.deadline(),
            Some(at(100) + ms(1) * (1 << MAX_BACKOFF_EXP)),
            "backoff saturates at 2^{MAX_BACKOFF_EXP}"
        );
    }

    /// A bulk burst on a medium slower than the rto: each frame takes
    /// 3 ms to serialize against a 2 ms rto, and acks land 1 ms after
    /// each serialization end. The re-armed deadline must respect the
    /// next frame's still-pending serialization instead of firing in
    /// the gap between consecutive acks — the spurious-retransmit storm
    /// that would otherwise melt a reintegration state transfer.
    #[test]
    fn in_order_acks_on_slow_medium_never_time_out() {
        let mut tx: SendWindow<u8> = SendWindow::new(ms(2));
        for p in 0..10u8 {
            tx.wrap(1, p);
            tx.arm(at(3 * (p as u64 + 1)));
        }
        for p in 0..10u64 {
            let ack_at = at(3 * (p + 1) + 1);
            assert!(
                tx.deadline().is_none_or(|d| d > ack_at),
                "timer would fire before the ack for frame {} arrived",
                p + 1
            );
            tx.on_ack(ack_at, p + 1);
        }
        assert!(!tx.has_unacked());
    }

    #[test]
    fn retransmit_when_empty_disarms() {
        let mut tx: SendWindow<u8> = SendWindow::new(ms(5));
        assert!(tx.retransmit().is_empty());
        assert_eq!(tx.deadline(), None);
        // …and counts no timeout: the next frame gets the base rto.
        tx.wrap(1, 1);
        tx.arm(at(0));
        assert_eq!(tx.deadline(), Some(at(5)));
    }

    #[test]
    fn disarm_clears_everything() {
        let mut tx: SendWindow<u8> = SendWindow::new(ms(5));
        tx.wrap(1, 1);
        tx.arm(at(0));
        tx.disarm();
        assert!(!tx.has_unacked());
        assert_eq!(tx.deadline(), None);
        assert!(tx.retransmit().is_empty());
    }

    #[test]
    fn receiver_accepts_in_order_only() {
        let mut rx = RecvWindow::new();
        assert!(rx.accept(1));
        assert!(!rx.accept(1), "duplicate suppressed");
        assert!(!rx.accept(3), "gap suppressed (2 was lost)");
        assert_eq!(rx.cumulative_ack(), 1);
        assert!(rx.accept(2));
        assert!(rx.accept(3), "retransmitted 3 is fresh after 2 arrives");
        assert_eq!(rx.cumulative_ack(), 3);
    }

    #[test]
    fn frame_wire_bytes() {
        let d: Frame<u8> = Frame::Data { seq: 1, payload: 0 };
        assert_eq!(d.wire_bytes(512), 512);
        let a: Frame<u8> = Frame::Ack { cum: 7 };
        assert_eq!(a.wire_bytes(512), ACK_WIRE_BYTES);
        let h: Frame<u8> = Frame::Heartbeat;
        assert_eq!(h.wire_bytes(512), ACK_WIRE_BYTES);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rto_rejected() {
        let _: SendWindow<u8> = SendWindow::new(SimDuration::ZERO);
    }

    /// End-to-end over a lossy `Channel`: every payload is eventually
    /// delivered exactly once, in order, despite drops of data and acks.
    #[test]
    fn survives_a_lossy_channel() {
        use crate::channel::Channel;
        use crate::link::LinkSpec;

        let rto = ms(2);
        let mut data_ch: Channel<Frame<u32>> = Channel::new(LinkSpec::ethernet_10mbps(), 7);
        let mut ack_ch: Channel<Frame<u32>> = Channel::new(LinkSpec::ethernet_10mbps(), 8);
        data_ch.set_loss_probability(0.4);
        ack_ch.set_loss_probability(0.4);
        let mut tx: SendWindow<u32> = SendWindow::new(rto);
        let mut rx = RecvWindow::new();

        let mut now = SimTime::ZERO;
        let mut delivered: Vec<u32> = Vec::new();
        let (mut resent, mut suppressed) = (0, 0);
        for p in 0..20 {
            let f = tx.wrap(64, p);
            let bytes = f.wire_bytes(64);
            let _ = data_ch.send(now, bytes, f);
            tx.arm(data_ch.busy_until());
        }
        // Drive the three event sources to quiescence.
        while tx.has_unacked() {
            let next = [
                data_ch.next_delivery(),
                ack_ch.next_delivery(),
                tx.deadline(),
            ]
            .into_iter()
            .flatten()
            .min()
            .expect("retransmission keeps the system live");
            now = now.max(next);
            while let Some(Frame::Data { seq, payload }) = data_ch.pop_ready(now) {
                if rx.accept(seq) {
                    delivered.push(payload);
                } else {
                    suppressed += 1;
                }
                let ack: Frame<u32> = Frame::Ack {
                    cum: rx.cumulative_ack(),
                };
                let bytes = ack.wire_bytes(0);
                let _ = ack_ch.send(now, bytes, ack);
            }
            while let Some(Frame::Ack { cum }) = ack_ch.pop_ready(now) {
                tx.on_ack(now, cum);
            }
            if tx.deadline().is_some_and(|d| d <= now) {
                for o in tx.retransmit() {
                    resent += 1;
                    let bytes = o.frame.wire_bytes(o.bytes);
                    let _ = data_ch.send(now, bytes, o.frame);
                }
                tx.rearm(data_ch.busy_until());
            }
        }
        assert_eq!(delivered, (0..20).collect::<Vec<u32>>());
        assert!(resent > 0, "loss at 0.4 must cause resends");
        assert!(suppressed > 0, "dup/gap suppression must trigger");
    }
}
