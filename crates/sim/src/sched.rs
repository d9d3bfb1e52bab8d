//! The event agenda: deterministic arbitration among one driver's
//! pending event sources.
//!
//! A discrete-event driver repeats one question — "what is the earliest
//! thing that can happen?" — over heterogeneous sources (deliveries,
//! timers, fault schedules…), and must answer it the same way on every
//! run. That is all the shared machinery the drivers need: what to do
//! with the pick — how far guests may run before it, which of several
//! systems goes first — is the driver's own rule and lives with the
//! driver (`hvft-core`'s `plan` module and cluster coordinator).

use crate::time::SimTime;

/// One pick over a driver's event sources. The driver offers each
/// source's next due time, tagged with how to dispatch it, and
/// [`Agenda::into_earliest`] returns the single earliest offer:
///
/// 1. **Earliest first**: nothing may act before the earliest pending
///    action (conservative discrete-event simulation);
/// 2. **FIFO-deterministic tie-breaking**: at equal times, whichever
///    source was offered first acts first, so a run is exactly
///    reproducible regardless of container iteration order.
///
/// Because the same pick answers both "when is the next event" and
/// "which event fires", the two can never drift apart — provided the
/// driver takes the pick once and holds on to it, rather than asking
/// each question separately.
///
/// # Examples
///
/// ```
/// use hvft_sim::sched::Agenda;
/// use hvft_sim::time::SimTime;
///
/// let mut a = Agenda::new();
/// a.offer(Some(SimTime::from_nanos(7)), "timer");
/// a.offer(None, "idle source");
/// a.offer(Some(SimTime::from_nanos(7)), "delivery");
/// // Equal times: the first-offered source wins.
/// assert_eq!(a.into_earliest(), Some((SimTime::from_nanos(7), "timer")));
/// ```
pub struct Agenda<T> {
    /// The best offer so far. A later offer replaces it only on a
    /// *strictly* smaller time, which is exactly the first-offered-
    /// wins-ties rule — so no buffering is needed, and building an
    /// agenda allocates nothing (it sits in every driver's hot loop).
    best: Option<(SimTime, T)>,
}

impl<T> Default for Agenda<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Agenda<T> {
    /// An empty agenda.
    pub fn new() -> Self {
        Agenda { best: None }
    }

    /// Offers a source's next due time; `None` (idle source) is
    /// ignored. Offer order is the tie-breaking priority.
    pub fn offer(&mut self, time: Option<SimTime>, tag: T) {
        if let Some(t) = time {
            if self.best.as_ref().is_none_or(|&(bt, _)| t < bt) {
                self.best = Some((t, tag));
            }
        }
    }

    /// The earliest offer (first-offered wins ties), `None` if no
    /// source is due.
    pub fn into_earliest(self) -> Option<(SimTime, T)> {
        self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn agenda_picks_earliest_with_offer_order_ties() {
        let mut a = Agenda::new();
        a.offer(Some(t(9)), 'a');
        a.offer(Some(t(3)), 'b');
        a.offer(None, 'c');
        a.offer(Some(t(3)), 'd');
        assert_eq!(a.into_earliest(), Some((t(3), 'b')));
    }

    #[test]
    fn empty_agenda_has_no_pick() {
        let mut a: Agenda<u8> = Agenda::new();
        a.offer(None, 1);
        assert_eq!(a.into_earliest(), None);
    }
}
