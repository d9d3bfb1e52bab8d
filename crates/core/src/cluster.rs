//! Many fault-tolerant systems sharing one LAN: the sharded driver.
//!
//! The paper's prototype dedicates a private Ethernet to one
//! primary/backup pair. A machine room does not: many replicated
//! machines contend for the same wire. [`FtCluster`] models exactly
//! that — `N` independent [`FtSystem`] shards, each with its own guest
//! image, replica chain, disk and console, all coordinating over a
//! single shared-medium [`Lan`] so that one system's `[E, Int]` burst
//! delays every other system's epoch boundary.
//!
//! The shards never exchange protocol messages — sharding is by
//! construction total: each guest workload is pinned to one replica
//! chain. What couples them is the *medium*: bandwidth contention
//! (`Lan` serializes all transmissions), plus whatever loss or
//! severing is injected on individual links.
//!
//! # Scheduling
//!
//! Every shard answers "what next, and when" once per step, and the
//! coordinator holds the answers: each turn commits the shard whose
//! plan is due earliest, the lower shard index on ties, then asks that
//! shard — and only that shard — again. A held answer cannot go stale:
//! a shard's plan depends on its own state alone (the shared medium
//! windows deliveries by receiver). So cross-shard contention on the
//! medium is resolved in near-global-time order and a cluster run is
//! exactly reproducible.
//!
//! That loop is the only schedule, and it runs on the calling thread.
//! A committed wave runs its slices one after another in plan order
//! (ascending clock, then replica index), through the same
//! [`FtSystem`] plan/commit pair a solo [`FtSystem::step`] uses.
//!
//! # Examples
//!
//! ```
//! use hvft_core::cluster::FtCluster;
//! use hvft_core::config::FtConfig;
//! use hvft_core::scenario::ExitStatus;
//! use hvft_guest::{build_image, hello_source, KernelConfig};
//! use hvft_net::link::LinkSpec;
//! use hvft_sim::time::SimDuration;
//!
//! let image = build_image(&KernelConfig::default(), &hello_source("hi\n", 1)).unwrap();
//! let mut cluster = FtCluster::new(LinkSpec::ethernet_10mbps(), 7);
//! let cfg = FtConfig {
//!     loss_prob: 0.1,
//!     retransmit: Some(SimDuration::from_millis(5)),
//!     // Detection must dominate worst-case retransmission gaps.
//!     detector_timeout: SimDuration::from_millis(300),
//!     ..FtConfig::default()
//! };
//! for _ in 0..2 {
//!     cluster.add_system(&image, cfg);
//! }
//! let results = cluster.run();
//! for r in &results {
//!     assert_eq!(r.exit, ExitStatus::Exit(42));
//! }
//! ```

use crate::config::FtConfig;
use crate::net::WireFrame;
use crate::plan::{Planned, SlicePlan};
use crate::report::RunReport;
use crate::system::{FtSystem, SystemCheckpoint};
use hvft_isa::program::Program;
use hvft_net::lan::{Lan, LanStats};
use hvft_net::link::LinkSpec;
use hvft_sim::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// `N` independent fault-tolerant systems multiplexed over one shared
/// [`Lan`], co-simulated on one conservative discrete-event schedule.
pub struct FtCluster {
    lan: Rc<RefCell<Lan<WireFrame>>>,
    systems: Vec<FtSystem>,
}

impl FtCluster {
    /// An empty cluster over a shared medium modelled by `link`;
    /// `seed` feeds the medium's per-link loss RNGs.
    pub fn new(link: LinkSpec, seed: u64) -> Self {
        FtCluster {
            lan: Rc::new(RefCell::new(Lan::new(link, seed))),
            systems: Vec::new(),
        }
    }

    /// Adds one fault-tolerant system (a guest image and its
    /// `1 + cfg.backups` replicas) to the cluster; returns its shard
    /// index. The system's replicas get consecutive nodes on the
    /// shared LAN; `cfg.link` is overridden by the cluster's medium.
    pub fn add_system(&mut self, image: &Program, mut cfg: FtConfig) -> usize {
        let base = {
            let mut lan = self.lan.borrow_mut();
            let base = lan.nodes();
            for _ in 0..(1 + cfg.backups) {
                lan.add_node();
            }
            base
        };
        cfg.link = *self.lan.borrow().link();
        let sys = FtSystem::new_on_lan(image, cfg, Rc::clone(&self.lan), base);
        self.systems.push(sys);
        self.systems.len() - 1
    }

    /// Number of shards.
    pub fn systems(&self) -> usize {
        self.systems.len()
    }

    /// Direct access to shard `sys` (failure scheduling, disk
    /// pre-filling, observers).
    ///
    /// # Panics
    ///
    /// Panics if `sys` is out of range.
    pub fn system_mut(&mut self, sys: usize) -> &mut FtSystem {
        &mut self.systems[sys]
    }

    /// Shared access to shard `sys` (checkpoint retrieval, stats).
    ///
    /// # Panics
    ///
    /// Panics if `sys` is out of range.
    pub fn system(&self, sys: usize) -> &FtSystem {
        &self.systems[sys]
    }

    /// Schedules a whole-cluster checkpoint at the global-time barrier
    /// `at`: every shard captures its canonical state — through the
    /// same [`FtSystem::schedule_checkpoint`] API, hence the same
    /// [`crate::messages::ReplicaState`] a reintegration transfer ships
    /// — at its acting primary's first epoch boundary at or past `at`.
    /// The coordinator commits shard actions in global `(time, shard)`
    /// order, so the captures land at a globally consistent cut; capture
    /// is pure, so the run itself is unperturbed. Retrieve per shard via
    /// [`FtCluster::checkpoints`] after (or during) the run.
    pub fn schedule_checkpoint_all(&mut self, at: SimTime) {
        for sys in &mut self.systems {
            sys.schedule_checkpoint(at);
        }
    }

    /// Checkpoints shard `sys` has captured so far, in capture order.
    ///
    /// # Panics
    ///
    /// Panics if `sys` is out of range.
    pub fn checkpoints(&self, sys: usize) -> &[SystemCheckpoint] {
        self.systems[sys].checkpoints()
    }

    /// Sets the loss probability of every link currently registered on
    /// the shared medium (per-system loss can be set via each system's
    /// [`FtConfig::loss_prob`] before [`FtCluster::add_system`]).
    ///
    /// # Panics
    ///
    /// Panics for `p > 0` if any shard's configuration cannot survive
    /// loss — retransmission disabled, or a detection timeout that
    /// does not dominate worst-case recovery. Turning loss on behind a
    /// raw-channel shard would stall its first dropped boundary and
    /// falsely promote a backup under a live primary, the exact
    /// failure the construction-time guard exists to prevent.
    pub fn set_loss_probability_all(&mut self, p: f64) {
        if p > 0.0 {
            for sys in &self.systems {
                FtSystem::assert_loss_tolerant(sys.config());
            }
        }
        self.lan.borrow_mut().set_loss_probability_all(p);
    }

    /// Medium-wide traffic counters.
    pub fn lan_stats(&self) -> LanStats {
        self.lan.borrow().stats()
    }

    /// Runs every shard to completion and returns their results in
    /// shard order (see the [module docs](self)): hold every unfinished
    /// shard's plan, commit the earliest, re-plan the shard that
    /// committed.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no systems.
    pub fn run(&mut self) -> Vec<RunReport> {
        assert!(!self.systems.is_empty(), "empty cluster");
        // One wave buffer per shard, planned into and committed from.
        let mut waves: Vec<Vec<SlicePlan>> = vec![Vec::new(); self.systems.len()];
        let mut plans: Vec<Option<Planned>> = (self.systems.iter_mut().zip(&mut waves))
            .map(|(s, wave)| Some(s.plan(wave)))
            .collect();
        let mut reports: Vec<Option<RunReport>> = vec![None; plans.len()];
        while let Some(i) = pick(&plans) {
            let planned = plans[i].take().expect("picked shard is planned");
            reports[i] = self.systems[i].commit(planned.step, &waves[i]);
            if reports[i].is_none() {
                plans[i] = Some(self.systems[i].plan(&mut waves[i]));
            }
        }
        reports
            .into_iter()
            .map(|r| r.expect("every shard finished"))
            .collect()
    }
}

/// The shard that commits next, given every unfinished shard's held
/// plan: the one due earliest (`at: None` is due now), the lower shard
/// index on ties — a total order, so every run of a cluster commits the
/// same global sequence.
fn pick(plans: &[Option<Planned>]) -> Option<usize> {
    plans
        .iter()
        .enumerate()
        .filter_map(|(shard, plan)| Some((plan.as_ref()?.at.unwrap_or(SimTime::ZERO), shard)))
        .min()
        .map(|(_, shard)| shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StepPlan;
    use crate::report::ExitStatus;
    use hvft_guest::{build_image, dhrystone_source, hello_source, KernelConfig};
    use hvft_hypervisor::cost::CostModel;
    use hvft_sim::time::{SimDuration, SimTime};

    fn fast() -> FtConfig {
        FtConfig {
            cost: CostModel::functional(),
            ..FtConfig::default()
        }
    }

    /// Everything a run report contains that a schedule change could
    /// possibly disturb.
    fn fingerprint(results: &[RunReport]) -> Vec<String> {
        results
            .iter()
            .map(|r| {
                format!(
                    "{:?}|{}|{:?}|{:?}|{:?}|{}|{}|{:?}|{}",
                    r.exit,
                    r.completion_time,
                    r.console,
                    r.failovers,
                    r.messages_per_replica,
                    r.frames_retransmitted,
                    r.frames_suppressed,
                    r.op_latencies,
                    r.lockstep_compared,
                )
            })
            .collect()
    }

    #[test]
    fn the_pick_is_at_then_shard_with_none_due_first() {
        // Per shard: due at an instant, due now (`at: None`), or
        // finished — no plan held.
        let (at, now, done) = (|ns: u64| Some(Some(ns)), Some(None), None);
        let pick_of = |shards: &[Option<Option<u64>>]| {
            let held = |at: Option<u64>| Planned {
                at: at.map(SimTime::from_nanos),
                step: StepPlan::Finished,
            };
            pick(&shards.iter().map(|s| s.map(held)).collect::<Vec<_>>())
        };
        // Earliest first, whatever the shard order; ties to the lower shard.
        assert_eq!(pick_of(&[at(30), at(10), at(20)]), Some(1));
        assert_eq!(pick_of(&[at(20), at(10), at(10)]), Some(1));
        // Due now is ahead of any instant but zero, which it ties.
        assert_eq!(pick_of(&[at(1), now, now]), Some(1));
        assert_eq!(pick_of(&[at(0), now]), Some(0));
        // A finished shard is never picked.
        assert_eq!(pick_of(&[done, at(7), done]), Some(1));
        assert_eq!(pick_of(&[done, done]), None);
    }

    #[test]
    fn three_shards_finish_with_independent_outputs() {
        let hello = build_image(&KernelConfig::default(), &hello_source("a\n", 1)).unwrap();
        let dhry = build_image(&KernelConfig::default(), &dhrystone_source(200, 0)).unwrap();
        let mut cluster = FtCluster::new(LinkSpec::ethernet_10mbps(), 1);
        cluster.add_system(&hello, fast());
        cluster.add_system(&dhry, fast());
        cluster.add_system(&hello, fast());
        let results = cluster.run();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].exit, ExitStatus::Exit(42));
        assert!(results[1].exit.is_clean_exit());
        assert_eq!(results[0].console, b"a\n");
        assert_eq!(results[2].console, b"a\n");
        for r in &results {
            assert!(r.lockstep_clean);
        }
    }

    #[test]
    fn contention_slows_a_shard_down() {
        // One shard alone vs the same shard sharing the wire with two
        // chatty neighbours: the medium is the only coupling, so the
        // lone run must be at least as fast.
        let image = build_image(&KernelConfig::default(), &dhrystone_source(300, 0)).unwrap();
        let solo = {
            let mut c = FtCluster::new(LinkSpec::ethernet_10mbps(), 5);
            c.add_system(&image, fast());
            c.run()[0].completion_time
        };
        let contended = {
            let mut c = FtCluster::new(LinkSpec::ethernet_10mbps(), 5);
            c.add_system(&image, fast());
            c.add_system(&image, fast());
            c.add_system(&image, fast());
            c.run()[0].completion_time
        };
        assert!(
            contended > solo,
            "sharing the medium must cost time: solo {solo}, contended {contended}"
        );
    }

    #[test]
    #[should_panic(expected = "retransmission")]
    fn lan_loss_behind_raw_shards_is_rejected() {
        // Turning loss on after construction must face the same guard
        // as FtConfig::loss_prob: a raw-channel shard would stall its
        // first dropped boundary and falsely promote a backup.
        let image = build_image(&KernelConfig::default(), &hello_source("x", 1)).unwrap();
        let mut c = FtCluster::new(LinkSpec::ethernet_10mbps(), 1);
        c.add_system(&image, fast());
        c.set_loss_probability_all(0.2);
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let image = build_image(&KernelConfig::default(), &dhrystone_source(150, 0)).unwrap();
        let run = || {
            let mut c = FtCluster::new(LinkSpec::ethernet_10mbps(), 9);
            let cfg = FtConfig {
                loss_prob: 0.15,
                retransmit: Some(SimDuration::from_millis(5)),
                detector_timeout: SimDuration::from_millis(300),
                ..fast()
            };
            for _ in 0..3 {
                c.add_system(&image, cfg);
            }
            fingerprint(&c.run())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cluster_checkpoint_is_pure_and_restores_exactly() {
        // Whole-cluster checkpoint at a global-time barrier: every
        // shard captures the same canonical state a reintegration
        // transfer ships, without perturbing the run itself.
        use hvft_hypervisor::hvguest::{HvConfig, HvGuest};
        // Big enough that epoch boundaries keep occurring well past the
        // barrier (the capture rides the first boundary at or after it).
        let image = build_image(&KernelConfig::default(), &dhrystone_source(2000, 5)).unwrap();
        let barrier = SimTime::from_nanos(2_000_000);
        let run = |checkpoint: bool| {
            let mut c = FtCluster::new(LinkSpec::ethernet_10mbps(), 11);
            let cfg = FtConfig {
                backups: 2,
                ..fast()
            };
            for _ in 0..3 {
                c.add_system(&image, cfg);
            }
            if checkpoint {
                c.schedule_checkpoint_all(barrier);
            }
            let fp = fingerprint(&c.run());
            let cks: Vec<Vec<crate::system::SystemCheckpoint>> = (0..c.systems())
                .map(|i| c.checkpoints(i).to_vec())
                .collect();
            (fp, cks)
        };
        let (fp_plain, _) = run(false);
        let (fp, cks) = run(true);
        assert_eq!(fp_plain, fp, "checkpointing must not perturb the run");
        for (sys, cks) in cks.iter().enumerate() {
            assert_eq!(cks.len(), 1, "shard {sys} must capture exactly once");
            let ck = &cks[0];
            assert!(ck.at >= barrier, "shard {sys} captured before the barrier");
            // Restore through the same API reintegration uses: the
            // captured snapshot restored into a fresh guest reproduces
            // the live state exactly.
            let mut guest = HvGuest::new(&image, CostModel::functional(), HvConfig::default());
            guest.restore(&ck.state.guest);
            assert_eq!(guest.state_hash(), ck.state_hash, "shard {sys} restore");
            assert_eq!(guest.epoch(), ck.epoch, "shard {sys} epoch");
        }
    }
}
