//! The `t`-fault-tolerant generalization as a round-synchronous chain.
//!
//! §2 of the paper: "Our protocols are for a single backup, so we
//! implement a 1-fault-tolerant virtual machine; generalization to
//! t-fault-tolerant virtual machines is straightforward." This module
//! implements that generalization as an epoch-synchronous replica
//! chain: one primary plus `t` ordered backups, all executing identical
//! instruction streams; when the current primary failstops, the next
//! live replica in the chain promotes itself, up to `t` times.
//!
//! The chain runs the *same* [`crate::protocol::ReplicaEngine`] state
//! machines as the realistic DES in [`crate::system::FtSystem`] — the
//! P1–P7 rule logic is not re-implemented here. What changes is only
//! the machinery the rules are abstract over: replicas advance in
//! lockstep rounds of one epoch, the transport is hvft-net's
//! [`InstantLink`] (messages reduced to their information content,
//! delivered within the round), and the environment is the console plus
//! timer. That is exactly the part the paper calls straightforward —
//! and this module proves it by running `t + 1` replicas through
//! arbitrary failure schedules and checking that states stay identical
//! and the survivor finishes the workload with the reference result.

use crate::config::ProtocolVariant;
use crate::lockstep::LockstepChecker;
use crate::messages::Message;
use crate::observer::Observer;
use crate::protocol::{apply_to_guest, Effect, Input, ReplicaEngine};
use crate::report::{ExitStatus, RunReport};
use crate::system::FailoverInfo;
use hvft_devices::console::Console;
use hvft_hypervisor::cost::CostModel;
use hvft_hypervisor::hvguest::{HvConfig, HvEvent, HvGuest};
use hvft_isa::program::Program;
use hvft_machine::mem::IO_BASE;
use hvft_net::transport::InstantLink;
use hvft_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One chain member: a hypervised guest plus its protocol engine.
struct Replica {
    guest: HvGuest,
    engine: ReplicaEngine,
}

/// A `t`-fault-tolerant virtual machine: primary + `t` ordered backups.
pub struct TChain {
    replicas: Vec<Option<Replica>>,
    /// Index of the acting primary (first live replica).
    head: usize,
    epoch: u64,
    /// The environment's console; each byte is stamped with the emitting
    /// replica and its accumulated guest time (the chain is
    /// round-synchronous and has no global clock).
    console: Console,
    lockstep: LockstepChecker,
    /// `links[&(i, j)]` carries messages from replica `i` to `j`.
    links: BTreeMap<(usize, usize), InstantLink<Message>>,
    /// Every promotion in order: the epoch it happened at, with `at`
    /// carrying the promoted replica's accumulated guest time.
    promotions: Vec<FailoverInfo>,
    /// Run observers (see [`crate::observer::Observer`]); hook sites
    /// are the chain's round boundaries and promotions.
    observers: Vec<Box<dyn Observer>>,
    /// The buffer every engine step appends its effects to, drained by
    /// [`TChain::engine`] and reused from step to step.
    effects: Vec<Effect>,
}

impl TChain {
    /// Boots `t + 1` replicas of `image`. Each replica's machine gets a
    /// different TLB seed — as in the DES system, hardware
    /// non-determinism must be survivable. The chain's instantaneous
    /// links acknowledge within the round, so both protocol variants
    /// behave identically — running them through the same engine is
    /// precisely the point.
    ///
    /// This is the validated construction path used by the scenario
    /// layer; [`crate::scenario::Scenario::builder`] with
    /// [`crate::scenario::Driver::Chain`] is the public front door and
    /// validates configurations instead of panicking.
    pub(crate) fn build(
        image: &Program,
        t: usize,
        cost: CostModel,
        hv: HvConfig,
        variant: ProtocolVariant,
    ) -> Self {
        assert!(t >= 1, "a t-fault-tolerant chain needs t >= 1");
        let n = t + 1;
        let replicas = (0..n)
            .map(|i| {
                let mut cfg = hv;
                cfg.tlb_seed = hv.tlb_seed.wrapping_add(1 + i as u64);
                let engine = if i == 0 {
                    ReplicaEngine::new_primary(0, (1..n).collect(), variant)
                } else {
                    ReplicaEngine::new_backup(i, 0, variant)
                };
                Some(Replica {
                    guest: HvGuest::new(image, cost, cfg),
                    engine,
                })
            })
            .collect();
        let mut links = BTreeMap::new();
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    links.insert((from, to), InstantLink::new());
                }
            }
        }
        TChain {
            replicas,
            head: 0,
            epoch: 0,
            console: Console::new(),
            lockstep: LockstepChecker::new(),
            links,
            promotions: Vec::new(),
            observers: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// Number of live replicas.
    pub fn live(&self) -> usize {
        self.replicas.iter().flatten().count()
    }

    /// Registers a run observer. The chain fires the epoch-boundary and
    /// failover hooks; its instantaneous links carry no observable wire
    /// traffic.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.observers.push(observer);
    }

    /// Removes and returns the registered observers.
    pub fn take_observers(&mut self) -> Vec<Box<dyn Observer>> {
        std::mem::take(&mut self.observers)
    }

    /// Failstops the acting primary; the next live replica promotes.
    /// Returns `false` if no replica is left to promote.
    pub fn fail_primary(&mut self) -> bool {
        let dead = self.head;
        self.replicas[dead] = None;
        for (&(from, to), link) in self.links.iter_mut() {
            if from == dead || to == dead {
                link.sever();
            }
        }
        match self.replicas.iter().position(Option::is_some) {
            Some(next) => {
                self.head = next;
                let survivors: Vec<usize> = (0..self.replicas.len())
                    .filter(|&j| j != next && self.replicas[j].is_some())
                    .collect();
                let promoted = self.replicas[next].as_ref().expect("next is live");
                let (vclock, at) = (promoted.guest.vclock.snapshot(), promoted.guest.elapsed());
                // Between rounds the promotion only switches the role.
                self.engine(next, Input::Promote { vclock, survivors });
                let info = FailoverInfo {
                    at: SimTime::ZERO + at,
                    epoch: self.epoch,
                    uncertain_synthesized: false,
                };
                self.promotions.push(info);
                for obs in &mut self.observers {
                    obs.failover(&info);
                }
                true
            }
            None => false,
        }
    }

    /// Feeds `input` to live replica `i`'s engine and carries out the
    /// effects it answers with: sends go onto the links, everything else
    /// goes through the shared guest applier. Purely guest-local: the
    /// chain has no disk and holds no I/O.
    fn engine(&mut self, i: usize, input: Input) {
        let Some(r) = self.replicas[i].as_mut() else {
            return;
        };
        let mut effects = std::mem::take(&mut self.effects);
        r.engine.step(input, &mut effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    if let Some(link) = self.links.get_mut(&(i, to)) {
                        link.send(msg);
                    }
                }
                Effect::SynthesizeUncertain | Effect::ReleaseIo | Effect::SuppressIo => {
                    unreachable!("the chain performs no device I/O")
                }
                guest_local => apply_to_guest(&guest_local, &mut r.guest),
            }
        }
        self.effects = effects;
    }

    /// Drains every link to a fixpoint, feeding messages to the
    /// receiving engines in deterministic `(from, to)` order.
    fn pump_messages(&mut self) {
        loop {
            let mut fired = false;
            let pairs: Vec<(usize, usize)> = self.links.keys().copied().collect();
            for (from, to) in pairs {
                let Some(msg) = self
                    .links
                    .get_mut(&(from, to))
                    .and_then(InstantLink::pop_ready)
                else {
                    continue;
                };
                fired = true;
                self.engine(to, Input::Message { from, msg });
            }
            if !fired {
                return;
            }
        }
    }

    /// Runs every live replica through one epoch (or to workload exit).
    ///
    /// Returns `Some(end)` when the run is over.
    fn step_epoch(&mut self, budget: SimDuration) -> Option<ExitStatus> {
        let mut exit_code: Option<u32> = None;
        let head = self.head;
        let mut at_boundary: Vec<usize> = Vec::new();
        for i in 0..self.replicas.len() {
            let is_primary = i == head;
            let Some(replica) = self.replicas[i].as_mut() else {
                continue;
            };
            loop {
                match replica.guest.run(budget) {
                    HvEvent::EpochEnd => {
                        self.lockstep
                            .record(i, replica.guest.epoch(), replica.guest.state_hash());
                        at_boundary.push(i);
                        break;
                    }
                    HvEvent::MmioRead { paddr, width, rd } => {
                        let v = match paddr.wrapping_sub(IO_BASE) {
                            hvft_devices::mmio::CONSOLE_REG_STATUS => 1,
                            _ => 0,
                        };
                        replica.guest.finish_mmio_read(rd, width, v);
                    }
                    HvEvent::MmioWrite { paddr, value } => {
                        // Output suppression at backups, exactly as in
                        // the DES system.
                        if is_primary
                            && paddr.wrapping_sub(IO_BASE) == hvft_devices::mmio::CONSOLE_REG_TX
                        {
                            let at = SimTime::ZERO + replica.guest.elapsed();
                            self.console.write(at, i as u8, value as u8);
                        }
                        replica.guest.finish_mmio_write();
                    }
                    HvEvent::Diag { value, code } => {
                        if code == hvft_guest::layout::diag::EXIT {
                            if is_primary {
                                exit_code = Some(value);
                            }
                            break;
                        }
                    }
                    HvEvent::Halted => break,
                    HvEvent::BudgetExhausted | HvEvent::Idle => {
                        return Some(ExitStatus::EpochLimit)
                    }
                }
            }
        }
        if !self.observers.is_empty() {
            for &i in &at_boundary {
                let (epoch, at) = {
                    let r = self.replicas[i].as_ref().expect("boundary replica is live");
                    (r.guest.epoch(), SimTime::ZERO + r.guest.elapsed())
                };
                for obs in &mut self.observers {
                    obs.epoch_boundary(i, epoch, at);
                }
            }
        }
        self.epoch += 1;
        if !self.lockstep.is_clean() {
            return Some(ExitStatus::Diverged(self.epoch));
        }
        if let Some(code) = exit_code {
            return Some(ExitStatus::Exit(code));
        }
        // Boundary processing through the engines: the primary issues
        // [Tme]/[end], backups wait for them; the instant links resolve
        // the whole exchange (including acknowledgments) within the
        // round.
        for i in at_boundary {
            let Some(r) = self.replicas[i].as_ref() else {
                continue;
            };
            let input = Input::Boundary {
                epoch: r.guest.epoch(),
                vclock: r.guest.vclock.snapshot(),
            };
            self.engine(i, input);
        }
        self.pump_messages();
        for (i, r) in self.replicas.iter().enumerate() {
            if let Some(r) = r {
                debug_assert!(
                    r.engine.is_running(),
                    "replica {i} stuck after the round's message pump"
                );
            }
        }
        None
    }

    /// Runs to completion, failstopping the acting primary at each epoch
    /// number listed in `failures_at` (ascending).
    ///
    /// The chain has no timed network and no disk, so the report's
    /// message, latency and disk fields stay empty; a failover's `at`
    /// and the completion time are the acting primary's accumulated
    /// guest time (zero if the chain was exhausted). Like
    /// [`crate::system::FtSystem::step`], the report is yielded once.
    ///
    /// The chain is round-synchronous, so there is nothing to
    /// arbitrate: each turn of the loop injects a due failstop and
    /// executes one epoch round.
    pub fn run(&mut self, mut failures_at: &[u64], max_epochs: u64) -> RunReport {
        let budget = SimDuration::from_secs(10);
        let exit = loop {
            if self.epoch >= max_epochs {
                break ExitStatus::EpochLimit;
            }
            if let Some((&at, rest)) = failures_at.split_first() {
                if self.epoch >= at {
                    failures_at = rest;
                    if !self.fail_primary() {
                        break ExitStatus::Exhausted;
                    }
                }
            }
            if let Some(exit) = self.step_epoch(budget) {
                break exit;
            }
        };
        self.report(exit)
    }

    fn report(&mut self, exit: ExitStatus) -> RunReport {
        let completion_time = self.replicas[self.head]
            .as_ref()
            .map_or(SimDuration::ZERO, |r| r.guest.elapsed());
        let replica_stats: Vec<_> = self
            .replicas
            .iter()
            .map(|r| r.as_ref().map(|r| *r.guest.stats()).unwrap_or_default())
            .collect();
        let divergences = self.lockstep.take_divergences();
        RunReport {
            console: self.console.output(),
            console_hosts: self.console.hosts_seen(),
            epochs: self.epoch,
            failovers: std::mem::take(&mut self.promotions),
            primary_stats: replica_stats.last().copied().unwrap_or_default(),
            replica_stats,
            lockstep_compared: self.lockstep.compared(),
            lockstep_clean: divergences.is_empty(),
            divergences,
            ..RunReport::new(exit, completion_time)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvft_guest::{build_image, dhrystone_source, hello_source, KernelConfig};

    fn image() -> Program {
        let kernel = KernelConfig {
            tick_period_us: 1000,
            tick_work: 2,
            ..KernelConfig::default()
        };
        build_image(&kernel, &dhrystone_source(1_500, 6)).unwrap()
    }

    fn chain(t: usize) -> TChain {
        let hv = HvConfig {
            epoch_len: 1024,
            ..HvConfig::default()
        };
        TChain::build(
            &image(),
            t,
            CostModel::functional(),
            hv,
            ProtocolVariant::Old,
        )
    }

    fn reference_code() -> u32 {
        let mut c = chain(1);
        let exit = c.run(&[], 100_000).exit;
        exit.code().unwrap_or_else(|| panic!("{exit:?}"))
    }

    #[test]
    fn failure_free_chain_stays_in_lockstep() {
        let mut c = chain(3);
        let r = c.run(&[], 100_000);
        assert!(r.exit.is_clean_exit(), "{:?}", r.exit);
        assert_eq!(c.live(), 4);
        assert!(r.failovers.is_empty());
        // Every boundary compared all four replicas.
        assert!(
            r.lockstep_compared >= 3 * (r.epochs - 1),
            "{:?}",
            r.lockstep_compared
        );
    }

    #[test]
    fn tolerates_exactly_t_failures() {
        let code = reference_code();
        for t in 1..=3usize {
            let mut c = chain(t);
            // Fail one primary every 3 epochs, t times.
            let fails: Vec<u64> = (1..=t as u64).map(|k| k * 3).collect();
            let r = c.run(&fails, 100_000);
            assert_eq!(
                r.exit,
                ExitStatus::Exit(code),
                "t={t}: survivor must produce the reference result"
            );
            assert_eq!(r.failovers.len(), t);
            assert_eq!(c.live(), 1, "t={t}: exactly the survivor remains");
        }
    }

    #[test]
    fn both_protocol_variants_drive_the_chain_identically() {
        let img = image();
        let hv = HvConfig {
            epoch_len: 1024,
            ..HvConfig::default()
        };
        let run = |variant| {
            let mut c = TChain::build(&img, 2, CostModel::functional(), hv, variant);
            let r = c.run(&[4], 100_000);
            let code = r.exit.code();
            assert!(code.is_some(), "{variant:?}: {:?}", r.exit);
            (code, r.epochs)
        };
        assert_eq!(run(ProtocolVariant::Old), run(ProtocolVariant::New));
    }

    #[test]
    fn t_plus_one_failures_exhaust_the_chain() {
        let mut c = chain(2);
        let r = c.run(&[1, 2, 3], 100_000);
        assert_eq!(r.exit, ExitStatus::Exhausted);
        assert_eq!(
            r.failovers.len(),
            2,
            "only two replicas were left to promote"
        );
        assert_eq!(c.live(), 0);
    }

    #[test]
    fn console_output_hands_over_down_the_chain() {
        let kernel = KernelConfig {
            tick_period_us: 200,
            tick_work: 0,
            ..KernelConfig::default()
        };
        let img = build_image(&kernel, &hello_source("abcdefghij", 2)).unwrap();
        let hv = HvConfig {
            epoch_len: 256,
            ..HvConfig::default()
        };
        let mut c = TChain::build(&img, 2, CostModel::functional(), hv, ProtocolVariant::Old);
        let r = c.run(&[2, 4], 100_000);
        assert_eq!(r.exit, ExitStatus::Exit(42));
        // Emitting replica indices never decrease (one-way promotions).
        let emitters: Vec<u8> = c.console.events().iter().map(|e| e.host).collect();
        assert!(emitters.windows(2).all(|w| w[0] <= w[1]), "{emitters:?}");
        // Bytes remain an in-order subsequence of the message.
        let mut it = b"abcdefghij".iter();
        assert!(
            r.console.iter().all(|b| it.any(|m| m == b)),
            "{:?}",
            r.console
        );
    }

    #[test]
    fn divergence_is_detected_across_the_chain() {
        let hv = HvConfig {
            epoch_len: 1024,
            tlb_managed: false,
            tlb_slots: 4,
            ..HvConfig::default()
        };
        let mut c = TChain::build(
            &image(),
            2,
            CostModel::functional(),
            hv,
            ProtocolVariant::Old,
        );
        let r = c.run(&[], 100_000);
        assert!(
            matches!(r.exit, ExitStatus::Diverged(_)) && !r.lockstep_clean,
            "unmanaged random TLBs must diverge somewhere in the chain: {:?}",
            r.exit
        );
        assert!(!r.divergences.is_empty(), "the report names the pair");
    }

    #[test]
    #[should_panic(expected = "t >= 1")]
    fn zero_backups_rejected() {
        let hv = HvConfig::default();
        let _ = TChain::build(
            &image(),
            0,
            CostModel::functional(),
            hv,
            ProtocolVariant::Old,
        );
    }
}
