//! Property tests for a point-to-point `Lan` link (`0 → 1`) — the §2
//! protocols assume FIFO delivery, so the link must preserve send order
//! under every schedule of message sizes and send times.

use hvft_net::lan::Lan;
use hvft_net::link::LinkSpec;
use hvft_sim::time::SimTime;
use proptest::prelude::*;

/// What the link `0 → 1` hands over at `now`.
fn pop<M>(ch: &mut Lan<M>, now: SimTime) -> Option<M> {
    ch.pop_ready(now).map(|(_, _, m)| m)
}

fn arb_link() -> impl Strategy<Value = LinkSpec> {
    prop_oneof![
        Just(LinkSpec::ethernet_10mbps()),
        Just(LinkSpec::atm_155mbps()),
        Just(LinkSpec::instant()),
    ]
}

proptest! {
    #[test]
    fn fifo_order_for_any_schedule(
        link in arb_link(),
        sends in prop::collection::vec((0u64..1_000_000, 0usize..20_000), 1..60),
    ) {
        let mut ch: Lan<usize> = Lan::point_to_point(link, 2, 1);
        let mut now = SimTime::ZERO;
        let mut deliveries = Vec::new();
        for (i, (dt, bytes)) in sends.iter().enumerate() {
            now += hvft_sim::time::SimDuration::from_nanos(*dt);
            if let Some(t) = ch.send(now, 0, 1, *bytes, i) {
                deliveries.push(t);
            }
        }
        // Delivery times never regress (FIFO).
        for w in deliveries.windows(2) {
            prop_assert!(w[0] <= w[1], "delivery order violated: {w:?}");
        }
        // Draining yields ascending payload indices.
        let far = SimTime::from_nanos(u64::MAX / 2);
        let mut last = None;
        while let Some(idx) = pop(&mut ch, far) {
            if let Some(prev) = last {
                prop_assert!(idx > prev, "payload {idx} after {prev}");
            }
            last = Some(idx);
        }
    }

    #[test]
    fn delivery_never_precedes_minimum_latency(
        link in arb_link(),
        bytes in 0usize..10_000,
        at_ns in 0u64..1_000_000,
    ) {
        let mut ch: Lan<u8> = Lan::point_to_point(link, 2, 2);
        let at = SimTime::from_nanos(at_ns);
        if let Some(t) = ch.send(at, 0, 1, bytes, 0) {
            prop_assert!(t >= at + link.min_latency() || bytes == 0,
                "delivered at {t}, sent {at}, min latency {}", link.min_latency());
            prop_assert!(t >= at, "delivery {t} precedes send {at}");
        }
    }

    #[test]
    fn lossy_channel_delivers_a_subsequence(
        loss in 0.0f64..1.0,
        n in 1usize..100,
    ) {
        let mut ch: Lan<usize> = Lan::point_to_point(LinkSpec::instant(), 2, 3);
        ch.set_loss_probability(0, 1, loss);
        for i in 0..n {
            let _ = ch.send(SimTime::ZERO, 0, 1, 8, i);
        }
        let far = SimTime::from_nanos(u64::MAX / 2);
        let mut got = Vec::new();
        while let Some(i) = pop(&mut ch, far) {
            got.push(i);
        }
        // In-order subsequence of 0..n.
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(got.iter().all(|&i| i < n));
        let s = ch.link_stats(0, 1);
        prop_assert_eq!(s.sent, n as u64);
        prop_assert_eq!(s.delivered + s.dropped, n as u64);
    }
}
