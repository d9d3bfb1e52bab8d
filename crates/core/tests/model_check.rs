//! Exhaustive check of the protocol engine: every interleaving of the
//! inputs `t + 1` engines can see, to a depth of two epochs, over FIFO
//! links — at `t ∈ {1, 2}` lossless and failure-free, and at
//! `t ∈ {1, 2}` under an adversary that failstops a replica and loses
//! what the dead replica sent.
//!
//! The engines are values with one entry point, so a state of the whole
//! system is the engines, which replicas live, the directed links'
//! queues and what each replica's guest has seen so far (its epoch, and
//! the clock and interrupts it was given at each boundary). The search
//! is a depth-first walk over the enabled [`Input`]s with a visited set
//! of state hashes:
//!
//! - a boundary at a running replica below the depth;
//! - delivery of the head of any non-empty link to a live replica;
//! - one disk GO, started by the primary's guest while it runs, in an
//!   epoch the search picks: every guest runs the same instructions, so
//!   each backup's guest starts it too, and its engine is fed the
//!   [`Input::Io`] when that guest passes the GO's epoch (at its
//!   boundary, or at once if it already waits there); a replica
//!   promoted before the GO's epoch starts it again as the primary;
//! - the GO's completion, a device interrupt at the live primary that
//!   released it, in whatever phase the primary is in — mid-boundary
//!   included, where P1 tags it for the next epoch;
//! - failure-free only, one console interrupt at the primary, in
//!   whatever phase it is in and independent of the GO: before it, or
//!   while §4.3 holds it, when the interrupt's `[E, Int]` is one more
//!   message the release must wait out.
//!
//! With failures on, the adversary also may:
//!
//! - failstop one replica: the primary between any two effects of one
//!   of its steps (or between steps), a backup between steps. A dead
//!   backup is an [`Input::PeerLost`] at the primary at once; a dead
//!   primary is an [`Input::Promote`] at the next live backup in chain
//!   order, once it waits at a boundary and every frame the dead primary
//!   sent has arrived or been lost (the detector times out long after
//!   the last frame could arrive);
//! - lose any frame whose sender is dead, together with every later
//!   frame on its link: the reliable layer accepts frames in sequence
//!   and retransmits only while their sender lives, so a dead sender's
//!   link delivers a prefix of what it sent.
//!
//! Rule P7 is the engine's alone: it counts the GOs its guest started
//! and the disk interrupts it delivered, and the search only watches
//! what the guests were given.
//!
//! At every state it asserts at most one live primary, that every two
//! live replicas' guests were given the same clock and interrupts at
//! every epoch both completed, that each live guest was given at most
//! one disk interrupt for the GO it started and exactly one once the
//! epoch that answers it is delivered (the completion's, or the
//! failover epoch if the completion was never raised), that under
//! §4.3 no I/O is released while a sequenced message to a peer is
//! unacknowledged, and that a state with no enabled input has every
//! live replica running at the depth (nothing waits forever). With
//! failures on, a stall of the failure-free system is never such a
//! state — the adversary can still failstop — so the failure-free
//! searches are the ones that check it.

use hvft_core::config::ProtocolVariant;
use hvft_core::messages::{ForwardedInterrupt, Message};
use hvft_core::protocol::{Effect, Input, ReplicaEngine};
use hvft_hypervisor::vclock::VClock;
use hvft_machine::trap::irq;
use std::collections::{HashSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};

/// Epochs each replica runs before the search stops extending it.
const DEPTH: usize = 2;

/// What is explored: the protocol, `t + 1` replicas, and whether the
/// adversary failstops one and loses its frames.
#[derive(Clone, Copy, Debug)]
struct Model {
    variant: ProtocolVariant,
    replicas: usize,
    failures: bool,
}

/// One boundary as a guest saw it: the clock it runs the next epoch
/// with, and the interrupts it was given.
type Boundary = (VClock, Vec<ForwardedInterrupt>);

/// How far one replica's guest and engine are with the disk GO.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Go {
    /// The guest has not reached the GO.
    NotYet,
    /// The engine was fed the GO.
    Started,
    /// The engine released it (an acting primary).
    Released,
    /// The disk completed it at this replica, the acting primary.
    Completed,
}

/// The one state of the whole system the search moves between.
#[derive(Clone)]
struct State {
    model: Model,
    engines: Vec<ReplicaEngine>,
    alive: Vec<bool>,
    /// `links[from][to]` carries messages from replica `from` to `to`.
    links: Vec<Vec<VecDeque<Message>>>,
    /// Per replica, the clock it holds now: its own at a boundary, the
    /// primary's once `[Tme_p]` is assigned.
    clock: Vec<VClock>,
    /// Per replica, what its guest was given at the end of each
    /// completed epoch; its length is the guest's epoch.
    delivered: Vec<Vec<Boundary>>,
    /// The epoch in which the guests start the disk GO, once one has.
    go_epoch: Option<usize>,
    /// Per replica, how far it is with the GO.
    go: Vec<Go>,
    /// The epoch whose boundary answers the GO: the completion's tag,
    /// or the failover epoch of a promoter whose guest started the GO
    /// that no completion was raised for.
    due: Option<usize>,
    /// Whether the primary raised the console interrupt.
    console_raised: bool,
    /// The replica the adversary failstopped, if it has.
    dead: Option<usize>,
    /// `sent[p][q]`: sequenced messages `p` sent `q`; `acked[p][q]`: the
    /// highest cumulative acknowledgment `q` gave `p`.
    sent: Vec<Vec<u64>>,
    acked: Vec<Vec<u64>>,
}

/// The protocol fields of a message; the search never carries state
/// chunks, which are driver traffic.
fn hash_message(msg: &Message, h: &mut DefaultHasher) {
    match msg {
        Message::Interrupt {
            seq,
            epoch,
            interrupt,
        } => (0u8, seq, epoch, interrupt).hash(h),
        Message::Time { seq, epoch, vclock } => (1u8, seq, epoch, vclock).hash(h),
        Message::EpochEnd { seq, epoch } => (2u8, seq, epoch).hash(h),
        Message::Ack { upto } => (3u8, upto).hash(h),
        Message::StateChunk { .. } => unreachable!("no state transfer in the model"),
    }
}

/// Replica `r`'s own clock at the end of `epoch`: distinct per replica
/// and epoch, so an assignment of the wrong `[Tme_p]` shows.
fn own_clock(r: usize, epoch: usize) -> VClock {
    let mut vc = VClock::new();
    vc.set_timer((r * 16 + epoch) as u32 + 1, 0);
    vc
}

impl State {
    fn new(model: Model) -> Self {
        let n = model.replicas;
        State {
            model,
            engines: (0..n)
                .map(|r| match r {
                    0 => ReplicaEngine::new_primary(0, (1..n).collect(), model.variant),
                    _ => ReplicaEngine::new_backup(r, 0, model.variant),
                })
                .collect(),
            alive: vec![true; n],
            links: vec![vec![VecDeque::new(); n]; n],
            clock: vec![VClock::new(); n],
            delivered: vec![Vec::new(); n],
            go_epoch: None,
            go: vec![Go::NotYet; n],
            due: None,
            console_raised: false,
            dead: None,
            sent: vec![vec![0; n]; n],
            acked: vec![vec![0; n]; n],
        }
    }

    fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        (&self.engines, &self.alive).hash(&mut h);
        for link in self.links.iter().flatten() {
            link.len().hash(&mut h);
            for msg in link {
                hash_message(msg, &mut h);
            }
        }
        (&self.clock, &self.delivered).hash(&mut h);
        (self.go_epoch, &self.go, self.due, self.console_raised).hash(&mut h);
        h.finish()
    }

    fn epoch(&self, r: usize) -> usize {
        self.delivered[r].len()
    }

    /// The live replica acting as primary, if any.
    fn primary(&self) -> Option<usize> {
        (0..self.engines.len()).find(|&r| self.alive[r] && self.engines[r].is_primary())
    }

    /// Whether the primary may still raise the console interrupt.
    fn console_due(&self) -> bool {
        !self.model.failures && !self.console_raised
    }

    /// Every move the system can make next.
    fn enabled(&self) -> Vec<Move> {
        let n = self.engines.len();
        let mut moves = Vec::new();
        for r in (0..n).filter(|&r| self.alive[r]) {
            // A primary's guest starts the GO before it passes the GO's
            // epoch, by a move of its own (its engine may hold it).
            let go_ahead = self.engines[r].is_primary()
                && self.go[r] == Go::NotYet
                && self.go_epoch == Some(self.epoch(r));
            if self.engines[r].is_running() && self.epoch(r) < DEPTH && !go_ahead {
                let vclock = own_clock(r, self.epoch(r));
                let epoch = self.epoch(r) as u64;
                moves.push(Move::Step(r, Input::Boundary { epoch, vclock }));
            }
            for from in 0..n {
                if let Some(msg) = self.links[from][r].front() {
                    let msg = msg.clone();
                    moves.push(Move::Step(r, Input::Message { from, msg }));
                }
            }
        }
        if let Some(p) = self.primary() {
            if self.go[p] == Go::Released && self.epoch(p) < DEPTH {
                let fwd = ForwardedInterrupt {
                    irq_bits: irq::DISK,
                    disk: None,
                };
                let guest_epoch = self.epoch(p) as u64;
                moves.push(Move::Step(p, Input::Interrupt { guest_epoch, fwd }));
            }
            if self.console_due() && self.epoch(p) < DEPTH {
                let fwd = ForwardedInterrupt {
                    irq_bits: irq::CONSOLE,
                    disk: None,
                };
                let guest_epoch = self.epoch(p) as u64;
                moves.push(Move::Step(p, Input::Interrupt { guest_epoch, fwd }));
            }
            let now = self.go_epoch.is_none_or(|g| g == self.epoch(p));
            let running = self.engines[p].is_running() && self.epoch(p) < DEPTH;
            if self.go[p] == Go::NotYet && now && running {
                moves.push(Move::Step(p, Input::Io { disk: true }));
            }
        }
        if !self.model.failures {
            return moves;
        }
        match self.dead {
            None => moves.extend((0..n).map(Move::Failstop)),
            Some(dead) => {
                for to in 0..n {
                    if !self.links[dead][to].is_empty() {
                        moves.push(Move::Lose(dead, to));
                    }
                }
                if let Some(promote) = self.promotion(dead) {
                    moves.push(promote);
                }
            }
        }
        moves
    }

    /// Rule P6 at the next live backup, once the dead primary's frames
    /// are all in (or lost) and that backup waits at a boundary.
    fn promotion(&self, dead: usize) -> Option<Move> {
        if self.primary().is_some() || self.links[dead].iter().any(|l| !l.is_empty()) {
            return None;
        }
        let n = self.engines.len();
        let next = (0..n).find(|&r| self.alive[r])?;
        if !self.engines[next].is_waiting_backup() {
            return None;
        }
        Some(Move::Step(
            next,
            Input::Promote {
                vclock: own_clock(next, self.epoch(next)),
                survivors: (next + 1..n).filter(|&r| self.alive[r]).collect(),
            },
        ))
    }

    /// Carries out a move. A step of the primary may be cut short by
    /// its failstop after `crash_after` of its effects.
    fn apply(
        &mut self,
        m: Move,
        crash_after: Option<usize>,
        out: &mut Vec<Effect>,
    ) -> Result<(), String> {
        match m {
            Move::Step(r, input) => self.step(r, input, crash_after, out),
            Move::Failstop(r) => self.failstop(r, out),
            Move::Lose(from, to) => {
                self.links[from][to].pop_back();
                Ok(())
            }
        }
    }

    fn failstop(&mut self, r: usize, out: &mut Vec<Effect>) -> Result<(), String> {
        let was_primary = self.primary() == Some(r);
        self.alive[r] = false;
        self.dead = Some(r);
        for from in 0..self.links.len() {
            self.links[from][r].clear();
        }
        match self.primary() {
            Some(p) if !was_primary => self.step(p, Input::PeerLost(r), None, out),
            _ => Ok(()),
        }
    }

    /// Steps replica `r` and carries out its effects the way a driver
    /// would: sends join the FIFO link (or vanish, to a dead replica),
    /// clocks and deliveries go to the guest's record.
    fn step(
        &mut self,
        r: usize,
        input: Input,
        crash_after: Option<usize>,
        out: &mut Vec<Effect>,
    ) -> Result<(), String> {
        let epoch = self.epoch(r);
        match &input {
            Input::Message { from, msg } => {
                self.links[*from][r].pop_front();
                if let Message::Ack { upto } = msg {
                    let acked = &mut self.acked[r][*from];
                    *acked = (*acked).max(*upto);
                }
            }
            Input::Boundary { vclock, .. } => {
                // A backup's guest starts the GO on its way to the
                // boundary of the GO's epoch.
                if self.go[r] == Go::NotYet && self.go_epoch == Some(epoch) {
                    self.step(r, Input::Io { disk: true }, None, out)?;
                }
                self.clock[r] = *vclock;
            }
            Input::Interrupt { fwd, .. } if fwd.irq_bits == irq::CONSOLE => {
                self.console_raised = true;
            }
            Input::Interrupt { .. } => {
                // P1 tags an interrupt raised mid-boundary for the next
                // epoch.
                let engine = &self.engines[r];
                let mid_boundary = !engine.is_running() && !engine.holds_io();
                self.due = Some(epoch + usize::from(mid_boundary));
                self.go[r] = Go::Completed;
            }
            Input::Io { .. } => {
                self.go_epoch.get_or_insert(epoch);
                self.go[r] = Go::Started;
            }
            Input::Promote { .. } => match self.go[r] {
                // The promoter's guest starts the GO again, as the
                // primary: the dead primary's answer is moot.
                Go::NotYet => self.due = None,
                _ => {
                    self.due.get_or_insert(epoch);
                }
            },
            Input::PeerLost(_) | Input::PeerJoined(_) => {}
        }
        let started_go = matches!(input, Input::Io { .. }) && self.engines[r].is_primary();
        self.engines[r].step(input, out);
        if let Some(k) = crash_after {
            out.truncate(k);
        }
        let mut boundary = Vec::new();
        for effect in out.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    if msg.seq().is_some() {
                        self.sent[r][to] += 1;
                    }
                    if self.alive[to] {
                        self.links[r][to].push_back(msg);
                    }
                }
                Effect::AssignClock(vc) => self.clock[r] = vc,
                Effect::DeliverInterrupt(fwd) => boundary.push(fwd),
                Effect::SynthesizeUncertain => boundary.push(ForwardedInterrupt::UNCERTAIN),
                Effect::StartEpoch => {
                    let given = (self.clock[r], std::mem::take(&mut boundary));
                    self.delivered[r].push(given);
                }
                Effect::ReleaseIo => {
                    if self.primary() != Some(r) || self.go[r] != Go::Started {
                        return Err(format!("replica {r} released an I/O nobody asked for"));
                    }
                    if self.model.variant == ProtocolVariant::New {
                        for &q in self.engines[r].peers() {
                            let (acked, sent) = (self.acked[r][q], self.sent[r][q]);
                            if acked < sent {
                                return Err(format!(
                                    "I/O released with {acked} of {sent} messages to {q} acknowledged"
                                ));
                            }
                        }
                    }
                    self.go[r] = Go::Released;
                }
                Effect::SuppressIo => {
                    if self.primary() == Some(r) {
                        return Err(format!("the primary {r} suppressed its own I/O"));
                    }
                }
                Effect::DeliverTimer => {}
            }
        }
        if crash_after.is_some() {
            // It died partway through: what it was handing its guest
            // dies with it.
            return self.failstop(r, out);
        }
        if !boundary.is_empty() {
            return Err(format!("replica {r} delivered outside a boundary"));
        }
        if started_go {
            // Backups already waiting at the GO's boundary passed it.
            for b in 0..self.engines.len() {
                let passed = self.epoch(b) == epoch && !self.engines[b].is_running();
                if self.alive[b] && self.go[b] == Go::NotYet && passed {
                    self.step(b, Input::Io { disk: true }, None, out)?;
                }
            }
        }
        Ok(())
    }

    /// The properties every reachable state must have.
    fn check(&self) -> Result<(), String> {
        let live = || (0..self.engines.len()).filter(|&r| self.alive[r]);
        if live().filter(|&r| self.engines[r].is_primary()).count() > 1 {
            return Err("two primaries".into());
        }
        for a in live() {
            for b in live().filter(|&b| b > a) {
                let both = self.delivered[a].iter().zip(&self.delivered[b]);
                for (epoch, (x, y)) in both.enumerate() {
                    if x != y {
                        return Err(format!(
                            "replicas {a} and {b} delivered differently at epoch {epoch}: \
                             {x:?} against {y:?}"
                        ));
                    }
                }
            }
        }
        for r in live() {
            let given = self.delivered[r].iter().flat_map(|(_, fwds)| fwds);
            let given = given.filter(|fwd| fwd.irq_bits & irq::DISK != 0).count();
            let started = usize::from(self.go[r] != Go::NotYet);
            let answered = started == 1 && self.due.is_some_and(|due| self.epoch(r) > due);
            if given > started || (answered && given != 1) {
                return Err(format!(
                    "replica {r}'s guest was given {given} disk interrupts for {started} GO \
                     by the end of epoch {}, the GO answered at {:?}",
                    self.epoch(r),
                    self.due,
                ));
            }
        }
        Ok(())
    }
}

/// One move of the search.
#[derive(Clone, Debug)]
enum Move {
    /// Replica `r` takes an input.
    Step(usize, Input),
    /// The adversary failstops a replica.
    Failstop(usize),
    /// The adversary loses the last frame on the link `from → to`.
    Lose(usize, usize),
}

/// What a search saw.
#[derive(Debug, Default)]
struct Explored {
    states: usize,
    terminal: usize,
    /// States whose primary waits out a boundary's acknowledgments with
    /// an interrupt still to raise.
    interrupt_mid_boundary: usize,
    /// States whose primary holds the I/O for acknowledgments.
    io_held: usize,
    /// States whose primary holds the I/O with the console interrupt
    /// still to raise.
    interrupt_while_io_held: usize,
    /// States after a promotion.
    promoted: usize,
}

/// Depth-first search from the initial state; the first violated
/// property, with the moves that led to it, is the error.
fn explore(model: Model) -> Result<Explored, String> {
    let mut seen = HashSet::new();
    // Each move of the trail, with the effects after which the primary
    // taking it died, if it did.
    let mut stack = vec![(State::new(model), Vec::<(Move, Option<usize>)>::new())];
    let mut explored = Explored::default();
    let mut out = Vec::new();
    while let Some((state, trail)) = stack.pop() {
        if !seen.insert(state.key()) {
            continue;
        }
        explored.states += 1;
        let fail = |why: String| format!("{model:?}: {why}\n  after {trail:#?}");
        state.check().map_err(fail)?;
        let enabled = state.enabled();
        if enabled.is_empty() {
            explored.terminal += 1;
            for r in (0..model.replicas).filter(|&r| state.alive[r]) {
                if !state.engines[r].is_running() || state.epoch(r) != DEPTH {
                    return Err(fail(format!(
                        "deadlock: replica {r} stuck at epoch {} ({:?})",
                        state.epoch(r),
                        state.engines[r]
                    )));
                }
            }
        }
        match state.primary() {
            Some(p) if p != 0 => explored.promoted += 1,
            Some(p) => {
                let primary = &state.engines[p];
                let interrupt_due = state.go[p] == Go::Released || state.console_due();
                if !primary.is_running() && !primary.holds_io() && interrupt_due {
                    explored.interrupt_mid_boundary += 1;
                }
                if primary.holds_io() {
                    explored.io_held += 1;
                    explored.interrupt_while_io_held += usize::from(state.console_due());
                }
            }
            None => {}
        }
        for m in enabled {
            // A live primary may also die partway through this step:
            // after each of its effects but the last.
            let crash_points = match &m {
                Move::Step(r, input)
                    if model.failures && state.dead.is_none() && state.primary() == Some(*r) =>
                {
                    let mut engine = state.engines[*r].clone();
                    engine.step(input.clone(), &mut out);
                    let effects = out.len();
                    out.clear();
                    1..effects
                }
                _ => 0..0,
            };
            for crash_after in std::iter::once(None).chain(crash_points.map(Some)) {
                let mut next = state.clone();
                let mut trail = trail.clone();
                trail.push((m.clone(), crash_after));
                if let Err(why) = next.apply(m.clone(), crash_after, &mut out) {
                    return Err(format!("{model:?}: {why}\n  after {trail:#?}"));
                }
                stack.push((next, trail));
            }
        }
    }
    println!("{model:?}: {explored:?}");
    Ok(explored)
}

fn model(variant: ProtocolVariant, replicas: usize, failures: bool) -> Model {
    Model {
        variant,
        replicas,
        failures,
    }
}

#[test]
fn original_protocol_is_safe_and_live_to_depth_two() {
    let explored = explore(model(ProtocolVariant::Old, 2, false)).unwrap_or_else(|e| panic!("{e}"));
    assert!(explored.terminal > 0, "some run finished: {explored:?}");
    assert!(
        explored.interrupt_mid_boundary > 0,
        "an interrupt can arrive during the boundary ack-wait: {explored:?}"
    );
    assert_eq!(explored.io_held, 0, "P2 never holds I/O: {explored:?}");
}

#[test]
fn revised_protocol_is_safe_and_live_to_depth_two() {
    let explored = explore(model(ProtocolVariant::New, 2, false)).unwrap_or_else(|e| panic!("{e}"));
    assert!(explored.terminal > 0, "some run finished: {explored:?}");
    assert!(explored.io_held > 0, "§4.3 holds I/O: {explored:?}");
    assert!(
        explored.interrupt_while_io_held > 0,
        "an interrupt can arrive while §4.3 holds I/O: {explored:?}"
    );
    assert_eq!(
        explored.interrupt_mid_boundary, 0,
        "§4.3 never stalls a boundary: {explored:?}"
    );
}

#[test]
fn both_protocols_are_safe_and_live_at_t2_without_failures() {
    for variant in [ProtocolVariant::Old, ProtocolVariant::New] {
        let explored = explore(model(variant, 3, false)).unwrap_or_else(|e| panic!("{e}"));
        assert!(explored.terminal > 0, "some run finished: {explored:?}");
        let held = explored.interrupt_while_io_held;
        match variant {
            ProtocolVariant::Old => assert_eq!(held, 0, "P2 never holds I/O: {explored:?}"),
            ProtocolVariant::New => assert!(held > 0, "an interrupt while held: {explored:?}"),
        }
    }
}

#[test]
fn both_protocols_survive_a_failstop_at_t1() {
    for variant in [ProtocolVariant::Old, ProtocolVariant::New] {
        let explored = explore(model(variant, 2, true)).unwrap_or_else(|e| panic!("{e}"));
        assert!(explored.promoted > 0, "a backup was promoted: {explored:?}");
    }
}

/// The survivor-disagreement defect (ROADMAP C1(a)): the engine
/// assumes that every live backup saw the same prefix of the dead
/// primary's messages, and the reliable layer does not promise it. The
/// search finds it at once: the primary releases its GO, the
/// completion arrives, and the primary dies after forwarding `[0, Int]`
/// to backup 1 only. Backup 1 promotes at its boundary and delivers the
/// completion, which answers its GO, so P7 adds nothing and it forwards
/// only `[Tme_p]` and `[end, 0]`; backup 2 is given no interrupt at
/// epoch 0. Pinned until survivor reconciliation (C1(a)3) lands; each
/// witness then loses its `should_panic`.
#[test]
#[should_panic(expected = "replicas 1 and 2 delivered differently at epoch 0")]
fn original_protocol_at_t2_survivors_disagree_after_a_primary_failstop() {
    explore(model(ProtocolVariant::Old, 3, true)).unwrap_or_else(|e| panic!("{e}"));
}

/// The same defect under §4.3 (see the original protocol's witness).
#[test]
#[should_panic(expected = "replicas 1 and 2 delivered differently at epoch 0")]
fn revised_protocol_at_t2_survivors_disagree_after_a_primary_failstop() {
    explore(model(ProtocolVariant::New, 3, true)).unwrap_or_else(|e| panic!("{e}"));
}
