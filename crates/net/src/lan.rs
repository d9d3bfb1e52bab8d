//! The coordination medium: FIFO links between stations over one
//! [`LinkSpec`].
//!
//! The §2 protocols assume "FIFO communications channels" between the
//! processors. A [`Lan`] provides them: messages on a directed link are
//! delivered in send order, never earlier than serialization and
//! propagation allow, with per-link loss injection (used to probe the
//! revised protocol of §4.3, which tolerates unacknowledged messages
//! until the next I/O) and severing (plus node-level severing for
//! failstops).
//!
//! Two media share every one of those semantics and differ only in who
//! owns the serialization clock:
//!
//! - [`Lan::new`] is one **shared medium**, the paper's Ethernet scaled
//!   to many fault-tolerant systems: every transmission, whichever
//!   directed link it belongs to, occupies the same air time and delays
//!   everyone else's;
//! - [`Lan::point_to_point`] gives **each directed link a medium of its
//!   own**: the private coordination network of one fault-tolerant
//!   system, where the primary's `[E, Int]` burst and a backup's ack do
//!   not contend.
//!
//! Each link names the clock its transmissions charge, so a send takes
//! the same path on both. Loss draws come from a per-link RNG seeded
//! from the link's endpoints, so one link's loss pattern depends only
//! on its own traffic, not on how other nodes' sends interleave.
//!
//! # Examples
//!
//! ```
//! use hvft_net::lan::Lan;
//! use hvft_net::link::LinkSpec;
//! use hvft_sim::time::SimTime;
//!
//! let mut lan: Lan<&str> = Lan::new(LinkSpec::ethernet_10mbps(), 1);
//! let a = lan.add_node();
//! let b = lan.add_node();
//! let c = lan.add_node();
//!
//! // Two senders contend for the one medium: b's message serializes
//! // after a's even though both were offered at t = 0.
//! let d1 = lan.send(SimTime::ZERO, a, b, 1024, "a to b").unwrap();
//! let d2 = lan.send(SimTime::ZERO, c, b, 1024, "c to b").unwrap();
//! assert!(d2 > d1, "shared medium serializes transmissions");
//! assert_eq!(lan.pop_ready(d1), Some((a, b, "a to b")));
//! assert_eq!(lan.pop_ready(d2), Some((c, b, "c to b")));
//!
//! // Point to point, the same two sends do not wait for each other.
//! let mut p2p: Lan<&str> = Lan::point_to_point(LinkSpec::ethernet_10mbps(), 3, 1);
//! let d1 = p2p.send(SimTime::ZERO, a, b, 1024, "a to b").unwrap();
//! let d2 = p2p.send(SimTime::ZERO, c, b, 1024, "c to b").unwrap();
//! assert_eq!(d1, d2, "private links serialize independently");
//! ```

use crate::link::LinkSpec;
use hvft_sim::rng::SimRng;
use hvft_sim::time::SimTime;
use std::collections::VecDeque;

/// Identifies a station on the LAN (assigned by [`Lan::add_node`], or
/// `0 .. n` on [`Lan::point_to_point`]).
pub type NodeId = usize;

/// Traffic counters, of one directed link or summed over the medium.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LanStats {
    /// Messages accepted for transmission.
    pub sent: u64,
    /// Messages dropped by loss injection.
    pub dropped: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Payload bytes accepted.
    pub bytes: u64,
}

/// One directed link: FIFO delivery no earlier than serialization +
/// propagation allow, loss drawn per message *after* the air time is
/// charged, and sever-with-drain. The serialization clock it charges is
/// the LAN's `clocks[medium]`.
#[derive(Clone)]
struct FifoCore<M> {
    queue: VecDeque<(SimTime, M)>,
    rng: SimRng,
    loss_prob: f64,
    severed: bool,
    medium: usize,
    stats: LanStats,
}

impl<M> FifoCore<M> {
    fn new(rng: SimRng, medium: usize) -> Self {
        FifoCore {
            queue: VecDeque::new(),
            rng,
            loss_prob: 0.0,
            severed: false,
            medium,
            stats: LanStats::default(),
        }
    }

    /// Offers a message for transmission at `now`, advancing the
    /// medium's serialization clock. Severed links accept (and count)
    /// nothing; lost messages still burn air time.
    fn offer(
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
        let tx_end = (*busy_until).max(now) + tx_time;
        *busy_until = tx_end;
        if self.loss_prob > 0.0 && self.rng.gen_bool(self.loss_prob) {
            self.stats.dropped += 1;
            return None;
        }
        let deliver = tx_end + spec.propagation;
        self.queue.push_back((deliver, msg));
        Some(deliver)
    }

    fn next_delivery(&self) -> Option<SimTime> {
        self.queue.front().map(|(t, _)| *t)
    }

    fn pop_ready(&mut self, now: SimTime) -> Option<M> {
        match self.queue.front() {
            Some((t, _)) if *t <= now => {
                self.stats.delivered += 1;
                self.queue.pop_front().map(|(_, m)| m)
            }
            _ => None,
        }
    }
}

/// Marks a directed link that has not carried traffic yet in
/// [`Lan::slot`].
const NO_LINK: u32 = u32::MAX;

/// FIFO links between stations over one link model: one shared medium
/// ([`Lan::new`]) or one medium per directed link
/// ([`Lan::point_to_point`]).
#[derive(Clone)]
pub struct Lan<M> {
    link: LinkSpec,
    seed: u64,
    nodes: usize,
    /// One serialization clock per medium: the instant it finishes
    /// serializing the last accepted message. A shared LAN has exactly
    /// one; a point-to-point LAN has one per directed link.
    clocks: Vec<SimTime>,
    /// `slot[from * nodes + to]` is where the link `from → to` sits in
    /// `links`, or [`NO_LINK`] while it has carried nothing.
    slot: Vec<u32>,
    links: Vec<FifoCore<M>>,
    /// Ready-time index: one `(front delivery time, link)` entry per
    /// link with pending deliveries, sorted, kept in sync with the
    /// links' FIFO heads. `pop_ready*`/`next_delivery*` walk it in time
    /// order instead of scanning every link per call — the difference
    /// between O(pending links) and O(registered links²) per pop once a
    /// cluster grows past a few dozen nodes. Ties break in `(from, to)`
    /// order. A sorted `Vec`: the pending links are few, and it stops
    /// allocating once it has held the most there ever were.
    ready: Vec<(SimTime, (NodeId, NodeId))>,
    severed_nodes: Vec<bool>,
}

impl<M> Lan<M> {
    /// An empty shared-medium LAN over `link`; `seed` feeds every
    /// link's loss RNG.
    pub fn new(link: LinkSpec, seed: u64) -> Self {
        Lan {
            link,
            seed,
            nodes: 0,
            clocks: vec![SimTime::ZERO],
            slot: Vec::new(),
            links: Vec::new(),
            ready: Vec::new(),
            severed_nodes: Vec::new(),
        }
    }

    /// A LAN of the `n` stations `0 .. n` whose every directed link is
    /// a medium of its own. The link `from → to` is the `k`-th of the
    /// `n × (n − 1)` links in `(from, to)` order, self-links left out,
    /// and draws its losses from `seed ^ (0xA + k)`.
    pub fn point_to_point(link: LinkSpec, n: usize, seed: u64) -> Self {
        let mut lan = Lan {
            nodes: n,
            clocks: vec![SimTime::ZERO; n * n.saturating_sub(1)],
            slot: vec![NO_LINK; n * n],
            severed_nodes: vec![false; n],
            ..Lan::new(link, seed)
        };
        for (from, to) in (0..n).flat_map(|f| (0..n).map(move |t| (f, t))) {
            if from != to {
                let k = lan.links.len();
                let rng = SimRng::seed_from_label(seed ^ (0xA + k as u64), "channel");
                lan.slot[from * n + to] = k as u32;
                lan.links.push(FifoCore::new(rng, k));
            }
        }
        lan
    }

    /// Registers a new station on a shared medium and returns its id.
    ///
    /// # Panics
    ///
    /// On a point-to-point LAN, whose stations are fixed at
    /// construction.
    pub fn add_node(&mut self) -> NodeId {
        // Only a shared medium has exactly one clock.
        assert_eq!(
            self.clocks.len(),
            1,
            "a point-to-point LAN has fixed stations"
        );
        let old = self.nodes;
        self.nodes += 1;
        let mut slot = vec![NO_LINK; self.nodes * self.nodes];
        for from in 0..old {
            let row = from * self.nodes;
            slot[row..row + old].copy_from_slice(&self.slot[from * old..(from + 1) * old]);
        }
        self.slot = slot;
        self.severed_nodes.push(false);
        old
    }

    /// Number of registered stations.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The underlying link model.
    pub fn link(&self) -> &LinkSpec {
        &self.link
    }

    fn index(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let k = self.slot[from * self.nodes + to];
        (k != NO_LINK).then_some(k as usize)
    }

    /// Where the link `from → to` sits in `links`, materialized on its
    /// first use (only a shared medium has links that have not been).
    fn materialize(&mut self, from: NodeId, to: NodeId) -> usize {
        assert!(
            from < self.nodes && to < self.nodes && from != to,
            "bad link ({from}, {to})"
        );
        if self.index(from, to).is_none() {
            let seed = self.seed ^ ((from as u64) << 32) ^ (to as u64);
            self.slot[from * self.nodes + to] = self.links.len() as u32;
            let rng = SimRng::seed_from_label(seed, "lan-link");
            self.links.push(FifoCore::new(rng, 0));
        }
        self.slot[from * self.nodes + to] as usize
    }

    /// Sets the per-message loss probability (clamped to `[0, 1]`) of
    /// the directed link `from → to`.
    pub fn set_loss_probability(&mut self, from: NodeId, to: NodeId, p: f64) {
        let k = self.materialize(from, to);
        self.links[k].loss_prob = p.clamp(0.0, 1.0);
    }

    /// Sets the loss probability of every link between registered nodes.
    pub fn set_loss_probability_all(&mut self, p: f64) {
        for from in 0..self.nodes {
            for to in 0..self.nodes {
                if from != to {
                    self.set_loss_probability(from, to, p);
                }
            }
        }
    }

    /// Permanently severs the directed link `from → to`: future sends
    /// vanish, in-flight messages still arrive.
    pub fn sever_link(&mut self, from: NodeId, to: NodeId) {
        let k = self.materialize(from, to);
        self.links[k].severed = true;
    }

    /// Sets the sever flag of `node` and of every link touching it.
    fn set_node_severed(&mut self, node: NodeId, severed: bool) {
        assert!(node < self.nodes, "no node {node}");
        self.severed_nodes[node] = severed;
        for peer in 0..self.nodes {
            let both = [self.index(node, peer), self.index(peer, node)];
            for k in both.into_iter().flatten() {
                self.links[k].severed = severed;
            }
        }
    }

    /// Severs every link touching `node` (the station failstopped).
    pub fn sever_node(&mut self, node: NodeId) {
        self.set_node_severed(node, true);
    }

    /// Reconnects a previously severed station: clears the node-level
    /// flag and reopens every link touching `node` (the physical repair
    /// that precedes reintegration). Messages offered while it was down
    /// stay lost. Links severed *individually* via [`Lan::sever_link`]
    /// on other node pairs are untouched.
    pub fn unsever_node(&mut self, node: NodeId) {
        self.set_node_severed(node, false);
    }

    /// Whether the directed link `from → to` is severed (either
    /// explicitly or via a severed endpoint).
    pub fn is_severed(&self, from: NodeId, to: NodeId) -> bool {
        self.severed_nodes[from]
            || self.severed_nodes[to]
            || self.index(from, to).is_some_and(|k| self.links[k].severed)
    }

    /// Offers a message of `bytes` payload bytes on `from → to` at
    /// `now`. Returns the delivery time, or `None` if the link is
    /// severed or loss injection dropped the message. The link's medium
    /// is charged either way (drops still burn air time). Delivery
    /// order is FIFO even when a short message follows a long one.
    pub fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        msg: M,
    ) -> Option<SimTime> {
        if self.severed_nodes[from] || self.severed_nodes[to] {
            return None;
        }
        let spec = self.link;
        let k = self.materialize(from, to);
        let link = &mut self.links[k];
        let before = link.next_delivery();
        let delivery = link.offer(&spec, &mut self.clocks[link.medium], now, bytes, msg);
        let after = link.next_delivery();
        self.reindex((from, to), before, after);
        delivery
    }

    /// Restores the ready-time index invariant for one link after its
    /// FIFO head may have changed.
    fn reindex(&mut self, pair: (NodeId, NodeId), before: Option<SimTime>, after: Option<SimTime>) {
        if before == after {
            return;
        }
        if let Some(t) = before {
            let at = self.ready.binary_search(&(t, pair)).expect("indexed head");
            self.ready.remove(at);
        }
        if let Some(t) = after {
            let at = self.ready.binary_search(&(t, pair)).unwrap_err();
            self.ready.insert(at, (t, pair));
        }
    }

    /// Earliest pending delivery across every link, if any.
    pub fn next_delivery(&self) -> Option<SimTime> {
        self.ready.first().map(|&(t, _)| t)
    }

    /// Earliest pending delivery whose *receiver* lies in
    /// `[lo, hi)` — the view of one fault-tolerant system sharing the
    /// LAN with others.
    pub fn next_delivery_within(&self, lo: NodeId, hi: NodeId) -> Option<SimTime> {
        self.ready
            .iter()
            .find(|(_, (_, to))| (lo..hi).contains(to))
            .map(|&(t, _)| t)
    }

    /// Pops the earliest deliverable message at `now`, if any; ties
    /// break in `(from, to)` order for determinism.
    pub fn pop_ready(&mut self, now: SimTime) -> Option<(NodeId, NodeId, M)> {
        self.pop_ready_within(0, self.nodes, now)
    }

    /// Like [`Lan::pop_ready`], restricted to receivers in `[lo, hi)`.
    ///
    /// Resolved through the ready-time index: the first in-window entry
    /// at or before `now`, in `(time, (from, to))` order — identical to
    /// the minimum a full link scan would select.
    pub fn pop_ready_within(
        &mut self,
        lo: NodeId,
        hi: NodeId,
        now: SimTime,
    ) -> Option<(NodeId, NodeId, M)> {
        let (_, (from, to)) = self
            .ready
            .iter()
            .take_while(|&&(t, _)| t <= now)
            .find(|(_, (_, to))| (lo..hi).contains(to))
            .copied()?;
        let k = self.index(from, to).expect("due link");
        let link = &mut self.links[k];
        let before = link.next_delivery();
        let msg = link.pop_ready(now).expect("due message");
        let after = link.next_delivery();
        self.reindex((from, to), before, after);
        Some((from, to, msg))
    }

    /// The instant the medium carrying `from → to` finishes
    /// serializing everything accepted so far — when the last bit of
    /// the most recent send left the adapter. A sender's NIC knows this
    /// exactly, which is what makes serialization-aware retransmit
    /// timers honest (see [`crate::reliable::SendWindow::arm`]).
    pub fn busy_until(&self, from: NodeId, to: NodeId) -> SimTime {
        // A link that has carried nothing is on a shared medium's one clock.
        let medium = self.index(from, to).map_or(0, |k| self.links[k].medium);
        self.clocks[medium]
    }

    /// Medium-wide counters, aggregated over every link.
    pub fn stats(&self) -> LanStats {
        let mut total = LanStats::default();
        for l in &self.links {
            total.sent += l.stats.sent;
            total.dropped += l.stats.dropped;
            total.delivered += l.stats.delivered;
            total.bytes += l.stats.bytes;
        }
        total
    }

    /// Counters of one directed link (zeroes if it never carried
    /// traffic).
    pub fn link_stats(&self, from: NodeId, to: NodeId) -> LanStats {
        self.index(from, to)
            .map(|k| self.links[k].stats)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvft_sim::time::SimDuration;

    fn lan() -> Lan<u32> {
        Lan::new(LinkSpec::ethernet_10mbps(), 3)
    }

    #[test]
    fn per_link_fifo_is_preserved() {
        let mut l = lan();
        let (a, b) = (l.add_node(), l.add_node());
        let d1 = l.send(SimTime::ZERO, a, b, 8192, 1).unwrap();
        let d2 = l.send(SimTime::ZERO, a, b, 4, 2).unwrap();
        assert!(d2 > d1);
        let far = SimTime::from_nanos(1_000_000_000);
        assert_eq!(l.pop_ready(far), Some((a, b, 1)));
        assert_eq!(l.pop_ready(far), Some((a, b, 2)));
        assert_eq!(l.pop_ready(far), None);
    }

    #[test]
    fn contention_couples_unrelated_links() {
        let mut l = lan();
        let nodes: Vec<_> = (0..4).map(|_| l.add_node()).collect();
        // a→b then c→d: different links, same medium.
        let d1 = l.send(SimTime::ZERO, nodes[0], nodes[1], 1024, 1).unwrap();
        let d2 = l.send(SimTime::ZERO, nodes[2], nodes[3], 1024, 2).unwrap();
        let gap = d2 - d1;
        assert!(
            gap >= l.link().transfer_time(1024),
            "second transmission must wait out the first: gap {gap}"
        );
    }

    #[test]
    fn loss_burns_air_time() {
        let mut l: Lan<u32> = Lan::new(LinkSpec::ethernet_10mbps(), 42);
        let (a, b) = (l.add_node(), l.add_node());
        l.set_loss_probability(a, b, 1.0);
        assert_eq!(l.send(SimTime::ZERO, a, b, 1024, 1), None);
        // The drop still occupied the medium: a follow-up on another
        // link starts after it.
        let c = l.add_node();
        let d = l.send(SimTime::ZERO, a, c, 4, 2).unwrap();
        assert!(d - SimTime::ZERO > l.link().one_way(4), "medium was busy");
        assert_eq!(l.stats().dropped, 1);
        assert_eq!(l.link_stats(a, b).dropped, 1);
    }

    #[test]
    fn sever_node_kills_both_directions() {
        let mut l = lan();
        let (a, b, c) = (l.add_node(), l.add_node(), l.add_node());
        let inflight = l.send(SimTime::ZERO, a, b, 64, 9).unwrap();
        l.sever_node(a);
        assert!(l.is_severed(a, b) && l.is_severed(b, a));
        assert!(!l.is_severed(b, c));
        assert_eq!(l.send(inflight, a, b, 64, 1), None);
        assert_eq!(l.send(inflight, b, a, 64, 2), None);
        // The in-flight message still arrives (failstop semantics).
        assert_eq!(l.pop_ready(inflight), Some((a, b, 9)));
    }

    #[test]
    fn windowed_views_partition_traffic() {
        let mut l = lan();
        let nodes: Vec<_> = (0..4).map(|_| l.add_node()).collect();
        let d1 = l.send(SimTime::ZERO, nodes[0], nodes[1], 64, 1).unwrap();
        let d2 = l.send(SimTime::ZERO, nodes[2], nodes[3], 64, 2).unwrap();
        // System A owns nodes [0, 2); system B owns [2, 4).
        assert_eq!(l.next_delivery_within(0, 2), Some(d1));
        assert_eq!(l.next_delivery_within(2, 4), Some(d2));
        let far = SimTime::from_nanos(1_000_000_000);
        assert_eq!(l.pop_ready_within(2, 4, far), Some((nodes[2], nodes[3], 2)));
        assert_eq!(l.pop_ready_within(2, 4, far), None, "b's view is drained");
        assert_eq!(l.pop_ready_within(0, 2, far), Some((nodes[0], nodes[1], 1)));
    }

    #[test]
    fn equal_time_ties_break_by_link_id() {
        // Instant link: no serialization, both deliveries land at the
        // same instant; (from, to) order decides.
        let mut l: Lan<u32> = Lan::new(LinkSpec::instant(), 0);
        let (a, b, c) = (l.add_node(), l.add_node(), l.add_node());
        let d1 = l.send(SimTime::ZERO, c, b, 4, 1).unwrap();
        let d2 = l.send(SimTime::ZERO, a, b, 4, 2).unwrap();
        assert_eq!(d1, d2, "instant link delivers both at once");
        assert_eq!(l.pop_ready(d1), Some((a, b, 2)), "(0,1) pops before (2,1)");
        assert_eq!(l.pop_ready(d1), Some((c, b, 1)));
    }

    #[test]
    fn loss_pattern_is_per_link_deterministic() {
        // The same link must see the same loss pattern regardless of
        // what other links do in between.
        let drops = |interleave: bool| {
            let mut l: Lan<u32> = Lan::new(LinkSpec::instant(), 99);
            let (a, b, c) = (l.add_node(), l.add_node(), l.add_node());
            l.set_loss_probability(a, b, 0.5);
            let mut pattern = Vec::new();
            for i in 0..64 {
                if interleave {
                    let _ = l.send(SimTime::ZERO, c, b, 4, 0);
                }
                pattern.push(l.send(SimTime::ZERO, a, b, 4, i).is_none());
            }
            pattern
        };
        assert_eq!(drops(false), drops(true));
    }

    #[test]
    fn ready_index_matches_brute_force_scan() {
        // Drive a LAN through an interleaved send/pop/sever workload and
        // check, at every step, that the index-backed queries agree with
        // a brute-force scan over the links (the pre-index algorithm).
        let mut l: Lan<u32> = Lan::new(LinkSpec::ethernet_10mbps(), 17);
        let nodes: Vec<_> = (0..5).map(|_| l.add_node()).collect();
        l.set_loss_probability(nodes[0], nodes[1], 0.3);
        let brute = |l: &Lan<u32>, lo: usize, hi: usize| -> Option<SimTime> {
            (0..l.nodes)
                .flat_map(|from| (lo..hi).map(move |to| (from, to)))
                .filter_map(|(from, to)| l.index(from, to))
                .filter_map(|k| l.links[k].next_delivery())
                .min()
        };
        let mut now = SimTime::ZERO;
        for i in 0..400u64 {
            let from = nodes[(i % 5) as usize];
            let to = nodes[((i * 3 + 1) % 5) as usize];
            if from != to {
                if let Some(d) = l.send(now, from, to, 64 + (i % 512) as usize, i as u32) {
                    now = now.max(d - l.link().min_latency());
                }
            }
            if i == 150 {
                l.sever_node(nodes[4]);
            }
            if i % 3 == 0 {
                let _ = l.pop_ready(now);
            }
            assert_eq!(l.next_delivery(), brute(&l, 0, 5), "step {i}");
            assert_eq!(l.next_delivery_within(1, 3), brute(&l, 1, 3), "step {i}");
        }
        // Drain everything; the index must empty out with the queues.
        let far = now + SimDuration::from_secs(10);
        while l.pop_ready(far).is_some() {}
        assert_eq!(l.next_delivery(), None);
        assert!(l.ready.is_empty(), "stale index entries: {:?}", l.ready);
    }

    #[test]
    #[should_panic(expected = "bad link")]
    fn self_link_rejected() {
        let mut l = lan();
        let a = l.add_node();
        let _ = l.send(SimTime::ZERO, a, a, 4, 1);
    }

    #[test]
    #[should_panic(expected = "fixed stations")]
    fn point_to_point_stations_are_fixed() {
        let mut l: Lan<u32> = Lan::point_to_point(LinkSpec::instant(), 2, 0);
        l.add_node();
    }

    #[test]
    fn per_link_media_do_not_contend() {
        let mut l: Lan<u32> = Lan::point_to_point(LinkSpec::ethernet_10mbps(), 4, 3);
        // a→b and c→d, and b→a beside a→b: each on its own medium.
        let d1 = l.send(SimTime::ZERO, 0, 1, 1024, 1).unwrap();
        let d2 = l.send(SimTime::ZERO, 2, 3, 1024, 2).unwrap();
        let d3 = l.send(SimTime::ZERO, 1, 0, 1024, 3).unwrap();
        assert_eq!(d1 - SimTime::ZERO, l.link().one_way(1024), "nothing waited");
        assert_eq!((d2, d3), (d1, d1), "no transmission waits out another");
        assert_eq!(l.busy_until(0, 1), d1 - l.link().propagation);
        assert_eq!(l.busy_until(0, 2), SimTime::ZERO, "an idle link's clock");
        // The same link still serializes its own sends.
        let d4 = l.send(SimTime::ZERO, 0, 1, 1024, 4).unwrap();
        assert!(d4 - d1 >= l.link().transfer_time(1024));
    }

    /// A point-to-point link between two stations, `0 → 1`.
    fn p2p<M>(link: LinkSpec, seed: u64) -> Lan<M> {
        Lan::point_to_point(link, 2, seed)
    }

    /// What `0 → 1` hands over at `now`.
    fn pop<M>(l: &mut Lan<M>, now: SimTime) -> Option<M> {
        l.pop_ready(now).map(|(_, _, m)| m)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut ch: Lan<u32> = p2p(LinkSpec::ethernet_10mbps(), 0);
        // A big message then a small one: the small one must not overtake.
        let d1 = ch.send(SimTime::ZERO, 0, 1, 8192, 1).unwrap();
        let d2 = ch.send(SimTime::ZERO, 0, 1, 4, 2).unwrap();
        assert!(d2 > d1, "FIFO: {d2} must follow {d1}");
        let far = SimTime::from_nanos(1_000_000_000);
        assert_eq!(pop(&mut ch, far), Some(1));
        assert_eq!(pop(&mut ch, far), Some(2));
    }

    #[test]
    fn delivery_respects_latency() {
        let mut ch: Lan<&str> = p2p(LinkSpec::ethernet_10mbps(), 0);
        let d = ch.send(SimTime::ZERO, 0, 1, 100, "m").unwrap();
        assert!(pop(&mut ch, d - SimDuration::from_nanos(1)).is_none());
        assert_eq!(pop(&mut ch, d), Some("m"));
    }

    #[test]
    fn link_occupancy_serializes_sends() {
        let mut ch: Lan<u8> = p2p(LinkSpec::ethernet_10mbps(), 0);
        let d1 = ch.send(SimTime::ZERO, 0, 1, 1024, 1).unwrap();
        let d2 = ch.send(SimTime::ZERO, 0, 1, 1024, 2).unwrap();
        // Second message's delivery is pushed by the first's serialization.
        let gap = d2 - d1;
        assert!(gap >= ch.link().transfer_time(1024), "gap {gap} too small");
    }

    #[test]
    fn loss_injection_drops_messages() {
        let mut ch: Lan<u32> = p2p(LinkSpec::instant(), 42);
        ch.set_loss_probability(0, 1, 0.5);
        let mut lost = 0;
        for i in 0..100 {
            if ch.send(SimTime::ZERO, 0, 1, 8, i).is_none() {
                lost += 1;
            }
        }
        assert!(lost > 20 && lost < 80, "loss rate wildly off: {lost}/100");
        assert_eq!(ch.link_stats(0, 1).dropped, lost);
        assert_eq!(ch.link_stats(0, 1).sent, 100);
    }

    #[test]
    fn sever_stops_new_but_delivers_in_flight() {
        let mut ch: Lan<&str> = p2p(LinkSpec::ethernet_10mbps(), 0);
        let d = ch.send(SimTime::ZERO, 0, 1, 8, "in-flight").unwrap();
        ch.sever_link(0, 1);
        assert_eq!(ch.send(d, 0, 1, 8, "late"), None);
        assert_eq!(pop(&mut ch, d), Some("in-flight"));
        assert_eq!(ch.next_delivery(), None, "nothing left in flight");
    }

    #[test]
    fn next_delivery_peeks() {
        let mut ch: Lan<u8> = p2p(LinkSpec::ethernet_10mbps(), 0);
        assert_eq!(ch.next_delivery(), None);
        let d = ch.send(SimTime::ZERO, 0, 1, 8, 1).unwrap();
        assert_eq!(ch.next_delivery(), Some(d));
    }

    #[test]
    fn stats_track_delivery() {
        let mut ch: Lan<u8> = p2p(LinkSpec::instant(), 0);
        let d = ch.send(SimTime::ZERO, 0, 1, 3, 1).unwrap();
        pop(&mut ch, d);
        let s = ch.link_stats(0, 1);
        assert_eq!(s.sent, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.bytes, 3);
    }
}
