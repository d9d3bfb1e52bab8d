//! Exhaustive check of the protocol engine at `t = 1`: every
//! interleaving of the inputs two engines can see, to a depth of two
//! epochs, over lossless FIFO links.
//!
//! The engines are values with one entry point, so a state of the whole
//! system is two engines, the two directed links' queues and what each
//! replica's guest has seen so far (its epoch and the interrupts it was
//! given at each boundary). The search is a depth-first walk over the
//! enabled [`Input`]s with a visited set of state hashes:
//!
//! - a boundary at a running replica below the depth;
//! - delivery of the head of either non-empty link;
//! - one device interrupt at the primary, in whatever phase it is in —
//!   mid-boundary included, where P1 tags it for the next epoch;
//! - one I/O request at the primary while its guest runs.
//!
//! At every state it asserts at most one primary, that both replicas
//! delivered the same interrupts at every epoch both completed, that
//! under §4.3 no I/O is released while a sequenced message to the backup
//! is unacknowledged, and that a state with no enabled input has both
//! replicas running at the depth (nothing waits forever).

use hvft_core::config::ProtocolVariant;
use hvft_core::messages::{ForwardedInterrupt, Message};
use hvft_core::protocol::{Effect, Input, ReplicaEngine};
use hvft_hypervisor::vclock::VClock;
use hvft_machine::trap::irq;
use std::collections::{HashSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};

/// Epochs each replica runs before the search stops extending it.
const DEPTH: usize = 2;

/// The one state of the whole `t = 1` system the search moves between.
#[derive(Clone)]
struct State {
    variant: ProtocolVariant,
    engines: [ReplicaEngine; 2],
    /// `links[from]` carries messages from replica `from` to the other.
    links: [VecDeque<Message>; 2],
    /// Per replica, the interrupts its guest was given at the end of
    /// each completed epoch; its length is the guest's epoch.
    delivered: [Vec<Vec<ForwardedInterrupt>>; 2],
    interrupt_raised: bool,
    io_requested: bool,
    io_released: bool,
    /// Sequenced messages the primary sent, and the highest cumulative
    /// acknowledgment it was given.
    sent: u64,
    acked: u64,
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

impl State {
    fn new(variant: ProtocolVariant) -> Self {
        State {
            variant,
            engines: [
                ReplicaEngine::new_primary(0, vec![1], variant),
                ReplicaEngine::new_backup(1, 0, variant),
            ],
            links: Default::default(),
            delivered: Default::default(),
            interrupt_raised: false,
            io_requested: false,
            io_released: false,
            sent: 0,
            acked: 0,
        }
    }

    fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.engines.hash(&mut h);
        for link in &self.links {
            link.len().hash(&mut h);
            for msg in link {
                hash_message(msg, &mut h);
            }
        }
        self.delivered.hash(&mut h);
        (self.interrupt_raised, self.io_requested, self.io_released).hash(&mut h);
        h.finish()
    }

    fn epoch(&self, r: usize) -> usize {
        self.delivered[r].len()
    }

    /// Every input the system can take next, with the replica taking it.
    fn enabled(&self) -> Vec<(usize, Input)> {
        let mut inputs = Vec::new();
        for r in 0..2 {
            if self.engines[r].is_running() && self.epoch(r) < DEPTH {
                let epoch = self.epoch(r) as u64;
                let vclock = VClock::new();
                inputs.push((r, Input::Boundary { epoch, vclock }));
            }
            if let Some(msg) = self.links[r].front() {
                let msg = msg.clone();
                inputs.push((1 - r, Input::Message { from: r, msg }));
            }
        }
        if !self.interrupt_raised && self.epoch(0) < DEPTH {
            let fwd = ForwardedInterrupt {
                irq_bits: irq::DISK,
                disk: None,
            };
            let guest_epoch = self.epoch(0) as u64;
            inputs.push((0, Input::Interrupt { guest_epoch, fwd }));
        }
        if !self.io_requested && self.engines[0].is_running() && self.epoch(0) < DEPTH {
            inputs.push((0, Input::Io));
        }
        inputs
    }

    /// Steps replica `r` and carries out its effects the way a driver
    /// would: sends join the FIFO link, deliveries and epoch starts go
    /// to the guest's record.
    fn step(&mut self, r: usize, input: Input, out: &mut Vec<Effect>) -> Result<(), String> {
        match &input {
            Input::Message { msg, .. } => {
                self.links[1 - r].pop_front();
                if let (0, Message::Ack { upto }) = (r, msg) {
                    self.acked = self.acked.max(*upto);
                }
            }
            Input::Interrupt { .. } => self.interrupt_raised = true,
            Input::Io => self.io_requested = true,
            _ => {}
        }
        self.engines[r].step(input, out);
        let mut boundary = Vec::new();
        for effect in out.drain(..) {
            match effect {
                Effect::Send { msg, .. } => {
                    if r == 0 && msg.seq().is_some() {
                        self.sent += 1;
                    }
                    self.links[r].push_back(msg);
                }
                Effect::DeliverInterrupt(fwd) => boundary.push(fwd),
                Effect::StartEpoch => self.delivered[r].push(std::mem::take(&mut boundary)),
                Effect::ReleaseIo => {
                    if r != 0 || self.io_released {
                        return Err(format!("replica {r} released an I/O nobody asked for"));
                    }
                    if self.variant == ProtocolVariant::New && self.acked < self.sent {
                        return Err(format!(
                            "I/O released with {} of {} messages acknowledged",
                            self.acked, self.sent
                        ));
                    }
                    self.io_released = true;
                }
                Effect::AssignClock(_) | Effect::DeliverTimer => {}
                Effect::SynthesizeUncertain => return Err("no promotion, no P7".into()),
            }
        }
        if !boundary.is_empty() {
            return Err(format!("replica {r} delivered outside a boundary"));
        }
        Ok(())
    }

    /// The properties every reachable state must have.
    fn check(&self) -> Result<(), String> {
        if self.engines.iter().filter(|e| e.is_primary()).count() > 1 {
            return Err("two primaries".into());
        }
        let [a, b] = &self.delivered;
        for (epoch, (x, y)) in a.iter().zip(b).enumerate() {
            if x != y {
                return Err(format!(
                    "epoch {epoch}: primary delivered {x:?}, backup {y:?}"
                ));
            }
        }
        Ok(())
    }
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
}

/// Depth-first search from the initial state; the first violated
/// property, with the inputs that led to it, is the error.
fn explore(variant: ProtocolVariant) -> Result<Explored, String> {
    let mut seen = HashSet::new();
    let mut stack = vec![(State::new(variant), Vec::<(usize, Input)>::new())];
    let mut explored = Explored::default();
    let mut out = Vec::new();
    while let Some((state, trail)) = stack.pop() {
        if !seen.insert(state.key()) {
            continue;
        }
        explored.states += 1;
        let fail = |why: String| format!("{variant:?}: {why}\n  after {trail:#?}");
        state.check().map_err(fail)?;
        let enabled = state.enabled();
        if enabled.is_empty() {
            explored.terminal += 1;
            for r in 0..2 {
                if !state.engines[r].is_running() || state.epoch(r) != DEPTH {
                    return Err(fail(format!(
                        "deadlock: replica {r} stuck at epoch {} ({:?})",
                        state.epoch(r),
                        state.engines[r]
                    )));
                }
            }
        }
        let primary = &state.engines[0];
        if !primary.is_running() && !primary.holds_io() && !state.interrupt_raised {
            explored.interrupt_mid_boundary += 1;
        }
        if primary.holds_io() {
            explored.io_held += 1;
        }
        for (r, input) in enabled {
            let mut next = state.clone();
            let mut trail = trail.clone();
            trail.push((r, input.clone()));
            if let Err(why) = next.step(r, input, &mut out) {
                return Err(format!("{variant:?}: {why}\n  after {trail:#?}"));
            }
            stack.push((next, trail));
        }
    }
    println!("{variant:?}: {explored:?}");
    Ok(explored)
}

#[test]
fn original_protocol_is_safe_and_live_to_depth_two() {
    let explored = explore(ProtocolVariant::Old).unwrap_or_else(|e| panic!("{e}"));
    assert!(explored.terminal > 0, "some run finished: {explored:?}");
    assert!(
        explored.interrupt_mid_boundary > 0,
        "an interrupt can arrive during the boundary ack-wait: {explored:?}"
    );
    assert_eq!(explored.io_held, 0, "P2 never holds I/O: {explored:?}");
}

#[test]
fn revised_protocol_is_safe_and_live_to_depth_two() {
    let explored = explore(ProtocolVariant::New).unwrap_or_else(|e| panic!("{e}"));
    assert!(explored.terminal > 0, "some run finished: {explored:?}");
    assert!(explored.io_held > 0, "§4.3 holds I/O: {explored:?}");
    assert_eq!(
        explored.interrupt_mid_boundary, 0,
        "§4.3 never stalls a boundary: {explored:?}"
    );
}
