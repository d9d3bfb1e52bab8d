//! Exhaustive check of the protocol engine: every interleaving of the
//! inputs `t + 1` engines can see, to a depth of two epochs, over FIFO
//! links — at `t = 1` lossless and failure-free, and at `t ∈ {1, 2}`
//! under an adversary that failstops a replica and loses what the dead
//! replica sent.
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
//! - one device interrupt at the primary, in whatever phase it is in —
//!   mid-boundary included, where P1 tags it for the next epoch;
//! - one I/O request at the primary while its guest runs.
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
//! Here the device interrupt is the completion of the one I/O, so it
//! comes after the release and only from a live issuer, and P7's
//! "outstanding" is the promoted backup's guest having passed the GO's
//! epoch without a disk interrupt delivered.
//!
//! At every state it asserts at most one live primary, that every two
//! live replicas' guests were given the same clock and interrupts at
//! every epoch both completed, that under §4.3 no I/O is released while
//! a sequenced message to a peer is unacknowledged, and that a state
//! with no enabled input has every live replica running at the depth
//! (nothing waits forever). With failures on, a stall of the
//! failure-free system is never such a state — the adversary can still
//! failstop — so the failure-free searches are the ones that check it.

use hvft_core::config::ProtocolVariant;
use hvft_core::messages::{DiskCompletion, ForwardedInterrupt, Message};
use hvft_core::protocol::{Effect, Input, ReplicaEngine};
use hvft_devices::mmio::disk_status;
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
    interrupt_raised: bool,
    io_requested: bool,
    /// Who released the one I/O, and in which epoch.
    io_released: Option<(usize, usize)>,
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

/// The interrupt P7 synthesizes without survivors: what it forwards to
/// survivors when there are some.
fn uncertain() -> ForwardedInterrupt {
    ForwardedInterrupt {
        irq_bits: irq::DISK,
        disk: Some(DiskCompletion {
            status: disk_status::UNCERTAIN,
            data: None,
        }),
    }
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
            interrupt_raised: false,
            io_requested: false,
            io_released: None,
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
        // Who released the I/O, and when, matters only to P7.
        let released = match self.model.failures {
            true => self.io_released,
            false => self.io_released.map(|_| (0, 0)),
        };
        (self.interrupt_raised, self.io_requested, released).hash(&mut h);
        h.finish()
    }

    fn epoch(&self, r: usize) -> usize {
        self.delivered[r].len()
    }

    /// The live replica acting as primary, if any.
    fn primary(&self) -> Option<usize> {
        (0..self.engines.len()).find(|&r| self.alive[r] && self.engines[r].is_primary())
    }

    /// Every move the system can make next.
    fn enabled(&self) -> Vec<Move> {
        let n = self.engines.len();
        let mut moves = Vec::new();
        for r in (0..n).filter(|&r| self.alive[r]) {
            if self.engines[r].is_running() && self.epoch(r) < DEPTH {
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
            // With failures, the interrupt is the I/O's completion.
            let completion_due =
                !self.model.failures || self.io_released.is_some_and(|(issuer, _)| issuer == p);
            if !self.interrupt_raised && completion_due && self.epoch(p) < DEPTH {
                let fwd = ForwardedInterrupt {
                    irq_bits: irq::DISK,
                    disk: None,
                };
                let guest_epoch = self.epoch(p) as u64;
                moves.push(Move::Step(p, Input::Interrupt { guest_epoch, fwd }));
            }
            if !self.io_requested && self.engines[p].is_running() && self.epoch(p) < DEPTH {
                moves.push(Move::Step(p, Input::Io));
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
        let given_disk_interrupt = self.delivered[next]
            .iter()
            .flat_map(|(_, fwds)| fwds)
            .any(|fwd| fwd.irq_bits == irq::DISK);
        let outstanding_io = self
            .io_released
            .is_some_and(|(_, at)| at <= self.epoch(next) && !given_disk_interrupt);
        Some(Move::Step(
            next,
            Input::Promote {
                vclock: own_clock(next, self.epoch(next)),
                outstanding_io,
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
        match &input {
            Input::Message { from, msg } => {
                self.links[*from][r].pop_front();
                if let Message::Ack { upto } = msg {
                    let acked = &mut self.acked[r][*from];
                    *acked = (*acked).max(*upto);
                }
            }
            Input::Boundary { vclock, .. } => self.clock[r] = *vclock,
            Input::Interrupt { .. } => self.interrupt_raised = true,
            Input::Io => self.io_requested = true,
            _ => {}
        }
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
                Effect::SynthesizeUncertain => boundary.push(uncertain()),
                Effect::StartEpoch => {
                    let given = (self.clock[r], std::mem::take(&mut boundary));
                    self.delivered[r].push(given);
                }
                Effect::ReleaseIo => {
                    if self.primary() != Some(r) || self.io_released.is_some() {
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
                    self.io_released = Some((r, self.epoch(r)));
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
    /// the interrupt still to raise.
    interrupt_mid_boundary: usize,
    /// States whose primary holds the I/O for acknowledgments.
    io_held: usize,
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
                if !primary.is_running() && !primary.holds_io() && !state.interrupt_raised {
                    explored.interrupt_mid_boundary += 1;
                }
                if primary.holds_io() {
                    explored.io_held += 1;
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
/// search finds it at once: the primary releases its I/O, the
/// completion arrives, and the primary dies after forwarding `[0, Int]`
/// to backup 1 only. Backup 1 promotes at its boundary, delivers the
/// completion and (P7) an uncertain interrupt; backup 2 is forwarded
/// the uncertain one alone. Pinned until survivor reconciliation
/// (C1(a)3) lands; each witness then loses its `should_panic`.
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
