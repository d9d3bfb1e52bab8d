//! The coordination network as one fault-tolerant system sees it:
//! the frame type the medium carries and the handle through which a
//! driver reaches its links, with replica indices local to the system.

use crate::messages::Message;
use hvft_net::lan::Lan;
use hvft_net::reliable::Frame;
use hvft_sim::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// What the coordination network actually carries: protocol messages
/// wrapped in the reliable layer's envelope. Runs without
/// retransmission ([`crate::config::FtConfig::retransmit`] `None`) send
/// unsequenced `Data` frames and never generate `Ack` frames, so the
/// wire timing is identical to raw [`Message`] channels.
pub type WireFrame = Frame<Message>;

/// One fault-tolerant system's window onto a [`Lan`]: replica `i` is
/// station `base + i`, for the system's `n` replicas. A solo system
/// owns a point-to-point LAN at base 0 (the paper's dedicated
/// coordination network, each directed link serializing on its own);
/// a shard of [`crate::cluster::FtCluster`] shares one medium with the
/// other shards.
pub(crate) struct Net {
    lan: Rc<RefCell<Lan<WireFrame>>>,
    base: usize,
    n: usize,
}

impl Net {
    /// Opens the window onto stations `base .. base + n` of `lan`,
    /// which must already be registered, and sets each of its links'
    /// loss probability to `loss_prob` (when positive).
    pub(crate) fn new(
        lan: Rc<RefCell<Lan<WireFrame>>>,
        base: usize,
        n: usize,
        loss_prob: f64,
    ) -> Self {
        {
            let mut l = lan.borrow_mut();
            assert!(
                base + n <= l.nodes(),
                "LAN nodes {base}..{} not registered",
                base + n
            );
            if loss_prob > 0.0 {
                for from in base..base + n {
                    for to in (base..base + n).filter(|&to| to != from) {
                        l.set_loss_probability(from, to, loss_prob);
                    }
                }
            }
        }
        Net { lan, base, n }
    }

    /// Offers a frame for transmission; returns the instant its
    /// serialization onto the medium completes (known to the sender's
    /// NIC whether or not the frame is then lost), which anchors the
    /// retransmit timer, plus whether the frame actually entered the
    /// wire (false: loss injection or a severed link consumed it).
    pub(crate) fn send(
        &mut self,
        now: SimTime,
        from: usize,
        to: usize,
        bytes: usize,
        frame: WireFrame,
    ) -> (SimTime, bool) {
        let (from, to) = (self.base + from, self.base + to);
        let mut lan = self.lan.borrow_mut();
        let accepted = lan.send(now, from, to, bytes, frame).is_some();
        (lan.busy_until(from, to), accepted)
    }

    /// Earliest pending delivery addressed to this system.
    pub(crate) fn next_delivery(&self) -> Option<SimTime> {
        self.lan
            .borrow()
            .next_delivery_within(self.base, self.base + self.n)
    }

    /// Pops the earliest delivery due at `t`; ties break in
    /// `(from, to)` order for determinism.
    pub(crate) fn pop_due(&mut self, t: SimTime) -> Option<(usize, usize, WireFrame)> {
        let (from, to, frame) =
            self.lan
                .borrow_mut()
                .pop_ready_within(self.base, self.base + self.n, t)?;
        Some((from - self.base, to - self.base, frame))
    }

    /// Severs every link touching `victim` (its processor failstopped).
    pub(crate) fn sever_all_of(&mut self, victim: usize) {
        self.lan.borrow_mut().sever_node(self.base + victim);
    }

    /// Reopens every link touching `victim` — the physical repair that
    /// precedes reintegration. Frames offered while the links were down
    /// stay lost.
    pub(crate) fn unsever_all_of(&mut self, victim: usize) {
        self.lan.borrow_mut().unsever_node(self.base + victim);
    }

    pub(crate) fn is_severed(&self, from: usize, to: usize) -> bool {
        self.lan
            .borrow()
            .is_severed(self.base + from, self.base + to)
    }

    /// The instant the medium carrying `from → to` finishes serializing
    /// everything accepted so far — the sender's NIC-queue horizon: the
    /// directed link's own clock point to point, the whole medium's
    /// when it is shared.
    pub(crate) fn busy_until_of(&self, from: usize, to: usize) -> SimTime {
        self.lan
            .borrow()
            .busy_until(self.base + from, self.base + to)
    }
}
