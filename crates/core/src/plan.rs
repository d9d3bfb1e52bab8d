//! One decision per step: what an [`FtSystem`](crate::system::FtSystem)
//! does next, and when.
//!
//! [`FtSystem::plan`](crate::system::FtSystem::plan) gathers the state
//! — the runnable hosts' clocks, the event agenda's earliest pick — and
//! [`plan_step`] turns it into a [`Planned`] decision by the
//! conservative rule of Chandy and Misra: earliest first, and no guest
//! runs past the point where a peer or an event could affect it. The
//! decision carries the instant a multi-system driver orders shards by,
//! the event to fire and the slices to run, so "when" and "what" are
//! one answer, computed once per step.

use hvft_sim::time::{SimDuration, SimTime};

/// With no event pending and no peer to bound it, a lone runnable host
/// runs this long per slice, so external schedules stay responsive.
const IDLE_GRAIN: SimDuration = SimDuration::from_millis(10);

/// One pending event source of the DES, tagged so one
/// [`hvft_sim::sched::Agenda`] pick answers both "when is the next
/// event" and "which event fires".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum EventTag {
    /// The fault schedule failstops or repairs a processor.
    Fault,
    /// The disk controller completes host `i`'s operation.
    DiskCompletion(usize),
    /// The coordination medium delivers its earliest due frame.
    Delivery,
    /// The `from → to` retransmit timer fires.
    Retransmit(usize, usize),
    /// A protocol-stalled acting primary beacons liveness.
    Heartbeat,
    /// Backup `b`'s failure detector reaches its deadline.
    Detector(usize),
}

/// One planned guest slice: host `host` may run for `budget` without
/// anything external affecting it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SlicePlan {
    /// Which host's guest runs.
    pub host: usize,
    /// The conservative slice budget.
    pub budget: SimDuration,
}

/// The action of a scheduling decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StepPlan {
    /// The run is over; committing yields the report.
    Finished,
    /// Fire this event — the agenda's earliest pick, held from plan
    /// time so the commit cannot pick a different one.
    Event(SimTime, EventTag),
    /// A *wave* of guest slices planned from one state snapshot, held
    /// in the buffer the driver planned into. They touch only
    /// replica-local CPU and memory, and commit in buffer order
    /// (ascending start clock, then host index).
    Slices,
}

/// A system's next scheduling decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Planned {
    /// The earliest instant the system can do anything: its next
    /// pending event, or the clock of its laggiest runnable host.
    /// `None` — neither — means due now: the system is finished (or
    /// deadlocked) and committing yields its report.
    pub at: Option<SimTime>,
    /// What to do then.
    pub step: StepPlan,
}

/// The conservative scheduling rule. `runnable` holds the runnable
/// hosts as `(clock, host)` in ascending order — the commit order —
/// and `event` is the agenda's earliest pick. A wave is planned into
/// `wave`, which is left empty for any other decision; the driver owns
/// the buffer, so a warm step allocates nothing.
///
/// - Nobody runnable: advance by events; with none left either, the
///   run is over (or deadlocked, a protocol bug).
/// - An event at, or within one instruction of, the laggiest clock
///   goes first: a smaller budget could not make progress.
/// - Otherwise a wave: every host gets a slice up to its *horizon*, the
///   earliest thing that could affect it — the next event, or its
///   nearest peer's clock plus `lookahead`, the link's minimum latency
///   (whatever a peer's commit schedules later in this wave lands at or
///   beyond every horizon, which is why one snapshot is enough). A host
///   with no more than one instruction of room sits the wave out —
///   except the laggiest, whose horizon is never behind its own clock,
///   so time cannot stall.
pub(crate) fn plan_step(
    runnable: &[(SimTime, usize)],
    event: Option<(SimTime, EventTag)>,
    lookahead: SimDuration,
    insn: SimDuration,
    wave: &mut Vec<SlicePlan>,
) -> Planned {
    wave.clear();
    let ev_time = event.map(|(t, _)| t);
    let laggiest = runnable.first().map(|&(now, _)| now);
    let step = match (event, laggiest) {
        (None, None) => StepPlan::Finished,
        (Some((t, tag)), lag) if lag.is_none_or(|now| t <= now.saturating_add(insn)) => {
            StepPlan::Event(t, tag)
        }
        _ => {
            wave.extend(runnable.iter().enumerate().filter_map(|(k, &(now, host))| {
                // The clocks ascend, so everyone's nearest peer is the
                // laggiest host, and the laggiest's is the runner-up.
                let peer = runnable.get(usize::from(k == 0));
                let peer_bound = peer.map(|p| p.0.saturating_add(lookahead));
                let budget = match peer_bound.into_iter().chain(ev_time).min() {
                    None => IDLE_GRAIN,
                    Some(h) if k == 0 || h > now.saturating_add(insn) => h - now,
                    Some(_) => return None,
                };
                Some(SlicePlan { host, budget })
            }));
            StepPlan::Slices
        }
    };
    Planned {
        at: ev_time.into_iter().chain(laggiest).min(),
        step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INSN: SimDuration = SimDuration::from_nanos(20);

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Plans `(clock, host)`s and an event time, all in ns, and
    /// returns the decision with the wave it planned.
    fn plan(
        clocks: &[(u64, usize)],
        event: Option<u64>,
        lookahead: u64,
    ) -> (Planned, Vec<SlicePlan>) {
        let runnable: Vec<_> = clocks.iter().map(|&(c, h)| (t(c), h)).collect();
        let event = event.map(|e| (t(e), EventTag::Delivery));
        // A stale slice in the buffer must not survive any decision.
        let mut wave = vec![SlicePlan {
            host: 9,
            budget: INSN,
        }];
        let p = plan_step(
            &runnable,
            event,
            SimDuration::from_nanos(lookahead),
            INSN,
            &mut wave,
        );
        assert!(
            p.step == StepPlan::Slices || wave.is_empty(),
            "{p:?}: {wave:?}"
        );
        (p, wave)
    }

    /// The wave planned on a 1 µs lookahead, as `(host, budget in ns)`.
    fn wave(clocks: &[(u64, usize)], event: Option<u64>) -> Vec<(usize, u64)> {
        let (p, wave) = plan(clocks, event, 1_000);
        assert_eq!(p.step, StepPlan::Slices, "not a wave: {p:?}");
        assert_eq!(p.at, Some(t(clocks[0].0)), "due at the laggiest clock");
        wave.iter().map(|s| (s.host, s.budget.as_nanos())).collect()
    }

    #[test]
    fn the_laggiest_host_always_gets_a_slice() {
        // Zero lookahead and a peer on the same clock leave no room at
        // all, yet host 0 is planned (with the zero budget its horizon
        // leaves): the wave is never empty.
        let (_, planned) = plan(&[(500, 0), (500, 1)], None, 0);
        let budget = SimDuration::ZERO;
        assert_eq!(planned, [SlicePlan { host: 0, budget }]);
        // With room it gets the whole of it.
        assert_eq!(wave(&[(500, 1), (9_000, 0)], None), [(1, 9_500)]);
    }

    #[test]
    fn a_host_more_than_the_lookahead_ahead_of_a_peer_sits_the_wave_out() {
        // Host 1 is 3 µs ahead of host 0; host 2 is within the lookahead
        // and runs up to host 0's clock plus it.
        let w = wave(&[(1_000, 0), (1_600, 2), (4_000, 1)], None);
        assert_eq!(w, [(0, 1_600), (2, 400)]);
        // Exactly one instruction of room is not enough: `>`, not `≥`.
        assert_eq!(wave(&[(1_000, 0), (1_980, 1)], None), [(0, 1_980)]);
        assert_eq!(wave(&[(1_000, 0), (1_979, 1)], None), [(0, 1_979), (1, 21)]);
    }

    #[test]
    fn an_event_within_one_instruction_of_the_laggiest_clock_goes_first() {
        let fires = |e| StepPlan::Event(t(e), EventTag::Delivery);
        for event in [900, 1_000, 1_020] {
            let (p, _) = plan(&[(1_000, 0), (1_200, 1)], Some(event), 1_000);
            assert_eq!((p.at, p.step), (Some(t(event.min(1_000))), fires(event)));
        }
        // One nanosecond later the laggiest guest runs first, up to the
        // event; host 1 is already past it.
        assert_eq!(wave(&[(1_000, 0), (1_200, 1)], Some(1_021)), [(0, 21)]);
        // Nobody runnable: advance by events, and end without them.
        let (p, _) = plan(&[], Some(700), 1_000);
        assert_eq!((p.at, p.step), (Some(t(700)), fires(700)));
        let (p, _) = plan(&[], None, 1_000);
        assert_eq!((p.at, p.step), (None, StepPlan::Finished));
    }

    #[test]
    fn one_runnable_host_and_no_event_gets_the_idle_grain() {
        assert_eq!(wave(&[(123, 3)], None), [(3, 10_000_000)]);
        // An event is a horizon like any other.
        assert_eq!(wave(&[(123, 3)], Some(5_123)), [(3, 5_000)]);
    }

    #[test]
    fn equal_clocks_commit_in_host_index_order() {
        // The caller's `(clock, host)` order is the commit order.
        let w = wave(&[(2_000, 0), (2_000, 1), (2_000, 2)], None);
        assert_eq!(w, [(0, 1_000), (1, 1_000), (2, 1_000)]);
    }

    #[test]
    fn no_budget_exceeds_the_next_event_or_a_peer_plus_the_lookahead() {
        // Every combination of three clocks and an optional event on a
        // coarse grid, against the definition: min over the event and
        // every *other* host's clock + lookahead.
        let grid = [0u64, 10, 500, 990, 1_000, 1_010, 2_500];
        let triples = grid
            .iter()
            .flat_map(|&a| grid.iter().flat_map(move |&b| grid.map(|c| [a, b, c])));
        for [a, b, c] in triples {
            for event in [None, Some(1_500), Some(4_000)] {
                let mut clocks = [(a, 0), (b, 1), (c, 2)];
                clocks.sort_unstable();
                if event.is_some_and(|e| e <= clocks[0].0 + 20) {
                    continue; // The event goes first.
                }
                let w = wave(&clocks, event);
                assert_eq!(w[0].0, clocks[0].1, "the laggiest leads the wave");
                for (host, budget) in w {
                    let now = clocks.iter().find(|x| x.1 == host).unwrap().0;
                    let others = clocks.iter().filter(|x| x.1 != host);
                    let bound = others.map(|x| x.0 + 1_000).chain(event).min();
                    assert_eq!(Some(now + budget), bound, "host {host} of {clocks:?}");
                }
            }
        }
    }
}
