//! A unidirectional FIFO message channel over a modelled link.
//!
//! The protocol exposition in §2 assumes "FIFO communications channels"
//! between the processors. [`Channel`] provides exactly that: messages
//! are delivered in send order, never earlier than the link model allows,
//! with optional loss injection (used to probe the revised protocol of
//! §4.3, which tolerates unacknowledged messages until the next I/O).

use crate::link::LinkSpec;
use hvft_sim::rng::SimRng;
use hvft_sim::time::SimTime;
use std::collections::VecDeque;

/// Channel statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages accepted for transmission.
    pub sent: u64,
    /// Messages dropped by loss injection.
    pub dropped: u64,
    /// Messages delivered to the receiver.
    pub delivered: u64,
    /// Total payload bytes accepted.
    pub bytes: u64,
}

/// The per-link state and semantics shared by [`Channel`] (a private
/// point-to-point medium) and [`crate::lan::Lan`] (a shared one): FIFO
/// delivery no earlier than serialization + propagation allow, loss
/// drawn per message *after* the air time is charged, and
/// sever-with-drain. The serialization clock (`busy_until`) is owned
/// by the caller — per channel for a private link, per medium for a
/// shared one — which is the only difference between the two media.
#[derive(Clone)]
pub(crate) struct FifoCore<M> {
    queue: VecDeque<(SimTime, M)>,
    rng: SimRng,
    loss_prob: f64,
    severed: bool,
    stats: ChannelStats,
}

impl<M> FifoCore<M> {
    pub(crate) fn new(rng: SimRng) -> Self {
        FifoCore {
            queue: VecDeque::new(),
            rng,
            loss_prob: 0.0,
            severed: false,
            stats: ChannelStats::default(),
        }
    }

    pub(crate) fn set_loss_probability(&mut self, p: f64) {
        self.loss_prob = p.clamp(0.0, 1.0);
    }

    pub(crate) fn sever(&mut self) {
        self.severed = true;
    }

    pub(crate) fn unsever(&mut self) {
        self.severed = false;
    }

    pub(crate) fn is_severed(&self) -> bool {
        self.severed
    }

    /// Offers a message for transmission at `now`, advancing the
    /// caller's serialization clock. Severed links accept (and count)
    /// nothing; lost messages still burn air time.
    pub(crate) fn offer(
        &mut self,
        spec: &LinkSpec,
        busy_until: &mut SimTime,
        now: SimTime,
        bytes: usize,
        msg: M,
    ) -> Option<SimTime> {
        if self.severed {
            return None;
        }
        self.stats.sent += 1;
        self.stats.bytes += bytes as u64;
        // Serialization occupies the medium even if the message is then
        // lost (collisions/drops still burn air time).
        let n_msgs = spec.messages_for(bytes) as u64;
        let tx_time = spec.per_message * n_msgs + spec.transfer_time(bytes);
        let start = (*busy_until).max(now);
        let tx_end = start + tx_time;
        *busy_until = tx_end;
        if self.loss_prob > 0.0 && self.rng.gen_bool(self.loss_prob) {
            self.stats.dropped += 1;
            return None;
        }
        let deliver = tx_end + spec.propagation;
        self.queue.push_back((deliver, msg));
        Some(deliver)
    }

    pub(crate) fn next_delivery(&self) -> Option<SimTime> {
        self.queue.front().map(|(t, _)| *t)
    }

    pub(crate) fn pop_ready(&mut self, now: SimTime) -> Option<M> {
        match self.queue.front() {
            Some((t, _)) if *t <= now => {
                self.stats.delivered += 1;
                self.queue.pop_front().map(|(_, m)| m)
            }
            _ => None,
        }
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn stats(&self) -> ChannelStats {
        self.stats
    }
}

/// A unidirectional FIFO channel carrying messages of type `M`.
///
/// # Examples
///
/// ```
/// use hvft_net::channel::Channel;
/// use hvft_net::link::LinkSpec;
/// use hvft_sim::time::SimTime;
///
/// let mut ch: Channel<&str> = Channel::new(LinkSpec::ethernet_10mbps(), 1);
/// let t = ch.send(SimTime::ZERO, 16, "hello").unwrap();
/// assert!(ch.pop_ready(SimTime::ZERO).is_none(), "not delivered instantly");
/// assert_eq!(ch.pop_ready(t), Some("hello"));
/// ```
#[derive(Clone)]
pub struct Channel<M> {
    link: LinkSpec,
    /// Time the transmitter finishes serializing the last accepted
    /// message (models link occupancy).
    busy_until: SimTime,
    core: FifoCore<M>,
}

impl<M> Channel<M> {
    /// Creates an idle channel over `link`.
    pub fn new(link: LinkSpec, seed: u64) -> Self {
        Channel {
            link,
            busy_until: SimTime::ZERO,
            core: FifoCore::new(SimRng::seed_from_label(seed, "channel")),
        }
    }

    /// The underlying link model.
    pub fn link(&self) -> &LinkSpec {
        &self.link
    }

    /// Enables random message loss with probability `p` per message.
    pub fn set_loss_probability(&mut self, p: f64) {
        self.core.set_loss_probability(p);
    }

    /// Permanently severs the channel: future sends vanish, but messages
    /// already in flight are still delivered. This models a sender crash:
    /// the paper assumes the backup "detects the primary's processor
    /// failure only after receiving the last message sent".
    pub fn sever(&mut self) {
        self.core.sever();
    }

    /// Whether the channel has been severed.
    pub fn is_severed(&self) -> bool {
        self.core.is_severed()
    }

    /// Reopens a severed channel — the physical repair that precedes a
    /// failstopped station rejoining service. Messages offered while the
    /// channel was down stay lost; only future sends go through.
    pub fn unsever(&mut self) {
        self.core.unsever();
    }

    /// Sends a message of `bytes` payload bytes at time `now`.
    ///
    /// Returns the delivery time, or `None` if the message was lost
    /// (loss injection) or the channel is severed. Delivery order is
    /// FIFO even when a short message follows a long one.
    pub fn send(&mut self, now: SimTime, bytes: usize, msg: M) -> Option<SimTime> {
        self.core
            .offer(&self.link, &mut self.busy_until, now, bytes, msg)
    }

    /// Time the next message becomes deliverable, if any.
    pub fn next_delivery(&self) -> Option<SimTime> {
        self.core.next_delivery()
    }

    /// Pops the next message if its delivery time has arrived.
    pub fn pop_ready(&mut self, now: SimTime) -> Option<M> {
        self.core.pop_ready(now)
    }

    /// Number of messages in flight.
    pub fn in_flight(&self) -> usize {
        self.core.in_flight()
    }

    /// The instant the transmitter finishes serializing everything
    /// accepted so far — when the last bit of the most recent send left
    /// the adapter. A sender's NIC knows this exactly, which is what
    /// makes serialization-aware retransmit timers honest (see
    /// [`crate::reliable::SendWindow::arm`]).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Counters.
    pub fn stats(&self) -> ChannelStats {
        self.core.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvft_sim::time::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut ch: Channel<u32> = Channel::new(LinkSpec::ethernet_10mbps(), 0);
        // A big message then a small one: the small one must not overtake.
        let d1 = ch.send(SimTime::ZERO, 8192, 1).unwrap();
        let d2 = ch.send(SimTime::ZERO, 4, 2).unwrap();
        assert!(d2 > d1, "FIFO: {d2} must follow {d1}");
        let far = t(1_000_000_000);
        assert_eq!(ch.pop_ready(far), Some(1));
        assert_eq!(ch.pop_ready(far), Some(2));
    }

    #[test]
    fn delivery_respects_latency() {
        let mut ch: Channel<&str> = Channel::new(LinkSpec::ethernet_10mbps(), 0);
        let d = ch.send(SimTime::ZERO, 100, "m").unwrap();
        assert!(ch.pop_ready(d - SimDuration::from_nanos(1)).is_none());
        assert_eq!(ch.pop_ready(d), Some("m"));
    }

    #[test]
    fn link_occupancy_serializes_sends() {
        let mut ch: Channel<u8> = Channel::new(LinkSpec::ethernet_10mbps(), 0);
        let d1 = ch.send(SimTime::ZERO, 1024, 1).unwrap();
        let d2 = ch.send(SimTime::ZERO, 1024, 2).unwrap();
        // Second message's delivery is pushed by the first's serialization.
        let gap = d2 - d1;
        assert!(gap >= ch.link().transfer_time(1024), "gap {gap} too small");
    }

    #[test]
    fn loss_injection_drops_messages() {
        let mut ch: Channel<u32> = Channel::new(LinkSpec::instant(), 42);
        ch.set_loss_probability(0.5);
        let mut lost = 0;
        for i in 0..100 {
            if ch.send(SimTime::ZERO, 8, i).is_none() {
                lost += 1;
            }
        }
        assert!(lost > 20 && lost < 80, "loss rate wildly off: {lost}/100");
        assert_eq!(ch.stats().dropped, lost);
        assert_eq!(ch.stats().sent, 100);
    }

    #[test]
    fn sever_stops_new_but_delivers_in_flight() {
        let mut ch: Channel<&str> = Channel::new(LinkSpec::ethernet_10mbps(), 0);
        let d = ch.send(SimTime::ZERO, 8, "in-flight").unwrap();
        ch.sever();
        assert_eq!(ch.send(d, 8, "late"), None);
        assert_eq!(ch.pop_ready(d), Some("in-flight"));
        assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn next_delivery_peeks() {
        let mut ch: Channel<u8> = Channel::new(LinkSpec::ethernet_10mbps(), 0);
        assert_eq!(ch.next_delivery(), None);
        let d = ch.send(SimTime::ZERO, 8, 1).unwrap();
        assert_eq!(ch.next_delivery(), Some(d));
    }

    #[test]
    fn stats_track_delivery() {
        let mut ch: Channel<u8> = Channel::new(LinkSpec::instant(), 0);
        let d = ch.send(SimTime::ZERO, 3, 1).unwrap();
        ch.pop_ready(d);
        let s = ch.stats();
        assert_eq!(s.sent, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.bytes, 3);
    }
}
