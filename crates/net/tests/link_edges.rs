//! Edge-path coverage for one point-to-point `Lan` link (`0 → 1`) —
//! the behaviours the lossy-network subsystem (reliable layer, both
//! drivers) builds on:
//! loss-probability clamping and statistics, sever semantics, and
//! `pop_ready` ordering when deliveries tie in time.

use hvft_net::lan::Lan;
use hvft_net::link::LinkSpec;
use hvft_sim::time::{SimDuration, SimTime};

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// What the link `0 → 1` hands over at `now`.
fn pop<M>(ch: &mut Lan<M>, now: SimTime) -> Option<M> {
    ch.pop_ready(now).map(|(_, _, m)| m)
}

#[test]
fn loss_probability_clamps_to_unit_interval() {
    let mut ch: Lan<u8> = Lan::point_to_point(LinkSpec::instant(), 2, 1);
    // Above 1.0 clamps to certain loss…
    ch.set_loss_probability(0, 1, 7.5);
    for i in 0..50 {
        assert_eq!(ch.send(SimTime::ZERO, 0, 1, 1, i), None, "p=1: all lost");
    }
    assert_eq!(ch.link_stats(0, 1).dropped, 50);
    // …and below 0.0 clamps to lossless.
    ch.set_loss_probability(0, 1, -3.0);
    for i in 0..50 {
        assert!(
            ch.send(SimTime::ZERO, 0, 1, 1, i).is_some(),
            "p=0: none lost"
        );
    }
    assert_eq!(ch.link_stats(0, 1).dropped, 50, "no further drops at p=0");
    assert_eq!(ch.link_stats(0, 1).sent, 100);
}

#[test]
fn certain_loss_still_occupies_the_link() {
    // Drops burn air time: a message after a dropped one starts late.
    let mut ch: Lan<u8> = Lan::point_to_point(LinkSpec::ethernet_10mbps(), 2, 1);
    ch.set_loss_probability(0, 1, 1.0);
    assert_eq!(ch.send(SimTime::ZERO, 0, 1, 8192, 1), None);
    ch.set_loss_probability(0, 1, 0.0);
    let d = ch.send(SimTime::ZERO, 0, 1, 4, 2).expect("lossless now");
    assert!(
        d - SimTime::ZERO > ch.link().transfer_time(8192),
        "survivor delayed by the dropped transfer: {d}"
    );
}

#[test]
fn loss_is_per_message_and_deterministic_per_seed() {
    let pattern = |seed: u64| -> Vec<bool> {
        let mut ch: Lan<u32> = Lan::point_to_point(LinkSpec::instant(), 2, seed);
        ch.set_loss_probability(0, 1, 0.5);
        (0..64)
            .map(|i| ch.send(SimTime::ZERO, 0, 1, 4, i).is_none())
            .collect()
    };
    assert_eq!(pattern(11), pattern(11), "same seed, same drops");
    assert_ne!(pattern(11), pattern(12), "different seed, different drops");
    let drops = pattern(11).iter().filter(|&&d| d).count();
    assert!((10..55).contains(&drops), "rate wildly off: {drops}/64");
}

#[test]
fn sever_is_reported_and_permanent() {
    let mut ch: Lan<u8> = Lan::point_to_point(LinkSpec::ethernet_10mbps(), 2, 0);
    assert!(!ch.is_severed(0, 1));
    ch.sever_link(0, 1);
    assert!(ch.is_severed(0, 1));
    // Severing is idempotent and permanent; sends never resume.
    ch.sever_link(0, 1);
    assert!(ch.is_severed(0, 1));
    assert_eq!(ch.send(t(1_000_000_000), 0, 1, 4, 1), None);
    assert_eq!(
        ch.link_stats(0, 1).sent,
        0,
        "severed sends are not counted as offered traffic"
    );
}

#[test]
fn sever_keeps_draining_but_blocks_new_traffic() {
    let mut ch: Lan<&str> = Lan::point_to_point(LinkSpec::ethernet_10mbps(), 2, 0);
    let d1 = ch.send(SimTime::ZERO, 0, 1, 64, "first").unwrap();
    let d2 = ch.send(SimTime::ZERO, 0, 1, 64, "second").unwrap();
    ch.sever_link(0, 1);
    assert_eq!(ch.send(d1, 0, 1, 64, "late"), None);
    // Both in-flight messages arrive in order after the sever.
    assert_eq!(pop(&mut ch, d1), Some("first"));
    assert_eq!(pop(&mut ch, d1), None, "second not due yet");
    assert_eq!(pop(&mut ch, d2), Some("second"));
    assert_eq!(ch.next_delivery(), None, "nothing left in flight");
}

#[test]
fn equal_delivery_times_pop_in_send_order() {
    // An instant link serializes in zero time, so every message sent at
    // one instant becomes deliverable at the same instant: pop_ready
    // must hand them back in send (FIFO) order, one per call.
    let mut ch: Lan<u32> = Lan::point_to_point(LinkSpec::instant(), 2, 0);
    let times: Vec<SimTime> = (0..8)
        .map(|i| ch.send(SimTime::ZERO, 0, 1, 4, i).unwrap())
        .collect();
    assert!(
        times.windows(2).all(|w| w[0] == w[1]),
        "instant link must tie all deliveries: {times:?}"
    );
    assert_eq!(ch.next_delivery(), Some(times[0]));
    for expect in 0..8 {
        assert_eq!(pop(&mut ch, times[0]), Some(expect));
    }
    assert_eq!(pop(&mut ch, times[0]), None);
    assert_eq!(ch.link_stats(0, 1).delivered, 8);
}

#[test]
fn pop_ready_is_strict_about_time() {
    let mut ch: Lan<u8> = Lan::point_to_point(LinkSpec::ethernet_10mbps(), 2, 0);
    let d = ch.send(SimTime::ZERO, 0, 1, 128, 1).unwrap();
    assert_eq!(pop(&mut ch, SimTime::ZERO), None);
    assert_eq!(pop(&mut ch, d - SimDuration::from_nanos(1)), None);
    assert_eq!(
        ch.next_delivery(),
        Some(d),
        "peek unaffected by failed pops"
    );
    assert_eq!(pop(&mut ch, d), Some(1));
    assert_eq!(ch.next_delivery(), None);
}
