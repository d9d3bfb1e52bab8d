//! A shared-medium LAN multiplexing many FIFO links.
//!
//! The paper's prototype coordinates one primary/backup pair over a
//! private 10 Mbps Ethernet. Scaling to many fault-tolerant systems on
//! one physical network changes the model in exactly one way: the
//! medium is shared, so every transmission — whichever directed link it
//! belongs to — occupies the same air time and delays everyone else's.
//! [`Lan`] models that: one [`LinkSpec`]-governed medium, any number of
//! registered [`NodeId`]s, and a FIFO queue per directed link with
//! per-link loss injection and severing (plus node-level severing for
//! failstops).
//!
//! Delivery semantics per link are identical to [`Channel`]'s — FIFO,
//! never earlier than serialization + propagation allow, loss burns air
//! time — so a single-system driver behaves the same over a private
//! channel mesh or an uncontended `Lan`. Loss draws come from a
//! per-link RNG seeded from the link's endpoints, so one link's loss
//! pattern depends only on its own traffic, not on how other nodes'
//! sends interleave.
//!
//! [`Channel`]: crate::channel::Channel
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
//! ```

use crate::channel::{ChannelStats, FifoCore};
use crate::link::LinkSpec;
use hvft_sim::rng::SimRng;
use hvft_sim::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Identifies a station on the LAN (assigned by [`Lan::add_node`]).
pub type NodeId = usize;

/// Aggregate counters for the whole medium.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LanStats {
    /// Messages accepted for transmission (all links).
    pub sent: u64,
    /// Messages dropped by loss injection.
    pub dropped: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Payload bytes accepted.
    pub bytes: u64,
}

/// A shared-medium LAN: one link model, many stations, FIFO delivery
/// per directed link, bandwidth contention across all of them.
///
/// Each directed link is the very state machine behind
/// [`Channel`](crate::channel::Channel) (the crate-internal
/// `FifoCore`), so per-link delivery semantics cannot drift between
/// the private-mesh and shared-LAN media; only the serialization clock
/// differs (one per medium here, one per channel there).
#[derive(Clone)]
pub struct Lan<M> {
    link: LinkSpec,
    seed: u64,
    nodes: usize,
    /// Time the medium finishes serializing the last accepted message.
    busy_until: SimTime,
    links: BTreeMap<(NodeId, NodeId), FifoCore<M>>,
    /// Ready-time index: one `(front delivery time, link)` entry per
    /// link with pending deliveries, kept in sync with the links' FIFO
    /// heads. `pop_ready*`/`next_delivery*` walk this set in time order
    /// instead of scanning every link per call — the difference between
    /// O(pending links) and O(registered links²) per pop once a cluster
    /// grows past a few dozen nodes. Iteration order `(time, (from,
    /// to))` is exactly the `(t, pair)` minimum the scan computed, so
    /// delivery order (and thus every seeded simulation) is unchanged.
    ready: BTreeSet<(SimTime, (NodeId, NodeId))>,
    severed_nodes: Vec<bool>,
}

impl<M> Lan<M> {
    /// An empty LAN over `link`; `seed` feeds every link's loss RNG.
    pub fn new(link: LinkSpec, seed: u64) -> Self {
        Lan {
            link,
            seed,
            nodes: 0,
            busy_until: SimTime::ZERO,
            links: BTreeMap::new(),
            ready: BTreeSet::new(),
            severed_nodes: Vec::new(),
        }
    }

    /// Registers a new station and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.nodes;
        self.nodes += 1;
        self.severed_nodes.push(false);
        id
    }

    /// Number of registered stations.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The underlying link model.
    pub fn link(&self) -> &LinkSpec {
        &self.link
    }

    fn link_mut(&mut self, from: NodeId, to: NodeId) -> &mut FifoCore<M> {
        assert!(
            from < self.nodes && to < self.nodes && from != to,
            "bad link ({from}, {to})"
        );
        let seed = self.seed;
        self.links.entry((from, to)).or_insert_with(|| {
            FifoCore::new(SimRng::seed_from_label(
                seed ^ ((from as u64) << 32) ^ (to as u64),
                "lan-link",
            ))
        })
    }

    /// Sets the per-message loss probability of the directed link
    /// `from → to`.
    pub fn set_loss_probability(&mut self, from: NodeId, to: NodeId, p: f64) {
        self.link_mut(from, to).set_loss_probability(p);
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
        self.link_mut(from, to).sever();
    }

    /// Severs every link touching `node` (the station failstopped).
    pub fn sever_node(&mut self, node: NodeId) {
        assert!(node < self.nodes, "no node {node}");
        self.severed_nodes[node] = true;
        for (&(f, t), link) in self.links.iter_mut() {
            if f == node || t == node {
                link.sever();
            }
        }
    }

    /// Reconnects a previously severed station: clears the node-level
    /// flag and reopens every link touching `node` (the physical repair
    /// that precedes reintegration). Links severed *individually* via
    /// [`Lan::sever_link`] on other node pairs are untouched.
    pub fn unsever_node(&mut self, node: NodeId) {
        assert!(node < self.nodes, "no node {node}");
        self.severed_nodes[node] = false;
        for (&(f, t), link) in self.links.iter_mut() {
            if f == node || t == node {
                link.unsever();
            }
        }
    }

    /// Whether the directed link `from → to` is severed (either
    /// explicitly or via a severed endpoint).
    pub fn is_severed(&self, from: NodeId, to: NodeId) -> bool {
        self.severed_nodes[from]
            || self.severed_nodes[to]
            || self.links.get(&(from, to)).is_some_and(|l| l.is_severed())
    }

    /// Offers a message of `bytes` payload bytes on `from → to` at
    /// `now`. Returns the delivery time, or `None` if the link is
    /// severed or loss injection dropped the message. The medium's
    /// occupancy is charged either way (drops still burn air time).
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
        self.link_mut(from, to); // materialize the link
        let link = self.links.get_mut(&(from, to)).expect("just materialized");
        let before = link.next_delivery();
        let delivery = link.offer(&spec, &mut self.busy_until, now, bytes, msg);
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
            self.ready.remove(&(t, pair));
        }
        if let Some(t) = after {
            self.ready.insert((t, pair));
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
        let link = self.links.get_mut(&(from, to)).expect("due link");
        let before = link.next_delivery();
        let msg = link.pop_ready(now).expect("due message");
        let after = link.next_delivery();
        self.reindex((from, to), before, after);
        Some((from, to, msg))
    }

    /// The instant the medium finishes serializing everything accepted
    /// so far (see [`crate::channel::Channel::busy_until`]).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Medium-wide counters, aggregated over every link.
    pub fn stats(&self) -> LanStats {
        let mut total = LanStats::default();
        for l in self.links.values() {
            let s = l.stats();
            total.sent += s.sent;
            total.dropped += s.dropped;
            total.delivered += s.delivered;
            total.bytes += s.bytes;
        }
        total
    }

    /// Counters of one directed link (zeroes if it never carried
    /// traffic).
    pub fn link_stats(&self, from: NodeId, to: NodeId) -> ChannelStats {
        self.links
            .get(&(from, to))
            .map(|l| l.stats())
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
            l.links
                .iter()
                .filter(|(&(_, to), _)| (lo..hi).contains(&to))
                .filter_map(|(_, link)| link.next_delivery())
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
}
