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
//! Shards register on the shared kernel's
//! [`hvft_sim::sched::Scheduler`] — every step advances the
//! shard whose [`FtSystem::next_action_time`] is smallest (ties break
//! by shard index), so cross-shard contention on the medium is resolved
//! in near-global-time order and a cluster run is exactly reproducible.
//!
//! # Parallel execution
//!
//! [`FtCluster::run_with`] can run the cluster's guest computations on
//! worker threads ([`Parallelism::Threads`]) while producing results
//! **bit-identical** to the sequential schedule. The unit of
//! parallelism is the *replica slice*, not the shard: a shard's plan
//! step yields a **wave** of independent slices — one per replica whose
//! conservative horizon permits progress — so a `t = 4` system keeps
//! all five of its replicas' guests in flight at once, and a cluster
//! exposes up to `shards × (1 + backups)` concurrent slices. The
//! executor is conservative — it never speculates and never rolls
//! back — and rests on two facts:
//!
//! 1. **Replica-slice independence.** A planned slice runs only the
//!    replica's own guest (CPU + memory); replicas couple exclusively
//!    through protocol messages, which the link delivers no sooner
//!    than the sender's clock plus the link's minimum latency — the
//!    lookahead that bounds every budget in the wave. Whatever an
//!    earlier wave member's commit schedules therefore lands at or
//!    beyond every horizon planned from the snapshot, so slices in a
//!    wave cannot influence one another. Likewise shards exchange no
//!    messages, so another shard reaches this one only through the
//!    medium's serialization clock, read at commit points only.
//! 2. **Commit in order.** Wave slices commit in plan order (ascending
//!    snapshot clock, replica index), and all shared-medium effects
//!    commit on the coordinator thread in the same global
//!    `(time, shard)` order the sequential schedule uses.
//!
//! So the coordinator plans each shard's wave as soon as its previous
//! action commits, ships every slice in the wave to the persistent
//! work-stealing pool ([`hvft_sim::pool::WorkPool`]), and commits
//! strictly in order — banking slices that finish early. Sequential
//! mode executes the *identical* plan/commit sequence inline, which is
//! why the two modes cannot diverge.
//!
//! # Examples
//!
//! ```
//! use hvft_core::cluster::{FtCluster, Parallelism};
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
//! let results = cluster.run_with(Parallelism::Threads(2));
//! for r in &results {
//!     assert_eq!(r.exit, ExitStatus::Exit(42));
//! }
//! ```

use crate::config::FtConfig;
use crate::report::RunReport;
use crate::system::{FtSystem, StepPlan, SystemCheckpoint, WireFrame};
use hvft_hypervisor::hvguest::{HvEvent, HvGuest};
use hvft_isa::program::Program;
use hvft_net::lan::{Lan, LanStats};
use hvft_net::link::LinkSpec;
use hvft_sim::pool::WorkPool;
use hvft_sim::sched::Scheduler;
use hvft_sim::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::mpsc;
use std::thread;

/// How a cluster run distributes its shards' guest computations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Parallelism {
    /// One thread does everything, in exact global-time order.
    #[default]
    Sequential,
    /// Guest slices execute on this many worker threads; all
    /// shared-medium effects still commit in exact global-time order,
    /// so the results are bit-identical to [`Parallelism::Sequential`].
    /// `Threads(0)` degenerates to sequential.
    Threads(usize),
}

impl Parallelism {
    /// How many pool workers a run with this many *slice slots*
    /// (`shards × max replicas per shard`, see
    /// [`FtCluster::slice_slots`]) asks for: the requested thread
    /// count, clamped to the slot count (more workers than
    /// concurrently plannable slices would only ever idle). Sequential
    /// (and `Threads(0)`, its degenerate form) is 1. Unlike
    /// [`Parallelism::effective_workers`], this does **not** clamp to
    /// the machine's cores — it is the pool size, not a speedup bound.
    pub fn requested_workers(&self, slots: usize) -> usize {
        match *self {
            Parallelism::Sequential | Parallelism::Threads(0) => 1,
            Parallelism::Threads(n) => n.min(slots).max(1),
        }
    }

    /// How many guest computations a run with this many slice slots
    /// can actually advance simultaneously in this mode:
    /// [`Parallelism::requested_workers`] further clamped to the
    /// machine's available cores (the OS cannot run more in parallel
    /// than that). Sequential (and `Threads(0)`) is 1.
    ///
    /// Bench labels record this so archived scaling rows are honest: a
    /// `Threads(2)` sweep on a one-core box is effectively sequential,
    /// and its label must say so.
    pub fn effective_workers(&self, slots: usize) -> usize {
        let cores = thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        self.requested_workers(slots).min(cores).max(1)
    }
}

/// `N` independent fault-tolerant systems multiplexed over one shared
/// [`Lan`], co-simulated on one conservative discrete-event schedule.
pub struct FtCluster {
    lan: Rc<RefCell<Lan<WireFrame>>>,
    sched: Scheduler<FtSystem>,
}

impl FtCluster {
    /// An empty cluster over a shared medium modelled by `link`;
    /// `seed` feeds the medium's per-link loss RNGs.
    pub fn new(link: LinkSpec, seed: u64) -> Self {
        FtCluster {
            lan: Rc::new(RefCell::new(Lan::new(link, seed))),
            sched: Scheduler::new(),
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
        self.sched.add(sys)
    }

    /// Number of shards.
    pub fn systems(&self) -> usize {
        self.sched.len()
    }

    /// Upper bound on the number of guest slices this cluster can have
    /// in flight at once: `shards × max replicas per shard`. Each
    /// shard's plan step yields up to one slice per replica (a wave),
    /// so this — not the shard count — is what
    /// [`Parallelism::Threads`] is clamped against.
    pub fn slice_slots(&self) -> usize {
        self.sched
            .components()
            .map(|sys| sys.replicas())
            .max()
            .unwrap_or(1)
            * self.sched.len().max(1)
    }

    /// Direct access to shard `sys` (failure scheduling, disk
    /// pre-filling, observers).
    ///
    /// # Panics
    ///
    /// Panics if `sys` is out of range.
    pub fn system_mut(&mut self, sys: usize) -> &mut FtSystem {
        self.sched.component_mut(sys)
    }

    /// Shared access to shard `sys` (checkpoint retrieval, stats).
    ///
    /// # Panics
    ///
    /// Panics if `sys` is out of range.
    pub fn system(&self, sys: usize) -> &FtSystem {
        self.sched.component(sys)
    }

    /// Schedules a whole-cluster checkpoint at the global-time barrier
    /// `at`: every shard captures its canonical state — through the
    /// same [`FtSystem::schedule_checkpoint`] API, hence the same
    /// [`crate::messages::ReplicaState`] a reintegration transfer ships
    /// — at its acting primary's first epoch boundary at or past `at`.
    /// The kernel commits shard actions in global `(time, shard)` order
    /// in both execution modes, so the captures land at a globally
    /// consistent cut and the resulting [`SystemCheckpoint`]s are
    /// bit-identical between [`Parallelism::Sequential`] and
    /// [`Parallelism::Threads`]; capture is pure, so the run itself is
    /// unperturbed. Retrieve per shard via
    /// [`FtCluster::checkpoints`] after (or during) the run.
    pub fn schedule_checkpoint_all(&mut self, at: SimTime) {
        for i in 0..self.sched.len() {
            self.sched.component_mut(i).schedule_checkpoint(at);
        }
    }

    /// Checkpoints shard `sys` has captured so far, in capture order.
    ///
    /// # Panics
    ///
    /// Panics if `sys` is out of range.
    pub fn checkpoints(&self, sys: usize) -> &[SystemCheckpoint] {
        self.sched.component(sys).checkpoints()
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
            for sys in self.sched.components() {
                FtSystem::assert_loss_tolerant(sys.config());
            }
        }
        self.lan.borrow_mut().set_loss_probability_all(p);
    }

    /// Medium-wide traffic counters.
    pub fn lan_stats(&self) -> LanStats {
        self.lan.borrow().stats()
    }

    /// Runs every shard to completion sequentially and returns their
    /// results in shard order.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no systems.
    pub fn run(&mut self) -> Vec<RunReport> {
        self.run_with(Parallelism::Sequential)
    }

    /// Runs every shard to completion under the given [`Parallelism`]
    /// and returns their results in shard order. The results are
    /// bit-identical whichever mode is chosen (see the
    /// [module docs](self) for why).
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no systems.
    pub fn run_with(&mut self, parallelism: Parallelism) -> Vec<RunReport> {
        assert!(!self.sched.is_empty(), "empty cluster");
        let pool = match parallelism {
            Parallelism::Sequential | Parallelism::Threads(0) => None,
            Parallelism::Threads(_) => {
                let pool = WorkPool::global();
                pool.ensure_workers(parallelism.requested_workers(self.slice_slots()));
                Some(pool)
            }
        };
        self.coordinate(pool)
    }

    /// The coordinator loop shared by both modes: plan each shard's
    /// wave as soon as its previous action commits (shipping every
    /// slice in the wave to the pool, if any), then commit actions
    /// strictly in the kernel's global `(time, shard)` pick order —
    /// and, within a shard's wave, in plan order.
    fn coordinate(&mut self, pool: Option<&'static WorkPool>) -> Vec<RunReport> {
        let n = self.sched.len();
        let mut plans: Vec<Option<StepPlan>> = vec![None; n];
        // Completed off-thread slices' hypervisor events, banked per
        // (shard, host) until their turn in the commit order. The pool
        // is process-global and may carry other runs' jobs, so results
        // come back on this run's own channel, never via pool idleness.
        let mut banked: Vec<BTreeMap<usize, HvEvent>> = (0..n).map(|_| BTreeMap::new()).collect();
        let (done_tx, done_rx) = mpsc::channel::<SliceDone>();
        loop {
            for (i, plan_slot) in plans.iter_mut().enumerate() {
                if plan_slot.is_some() || self.sched.is_finished(i) {
                    continue;
                }
                let plan = self.sched.component_mut(i).plan();
                if let (Some(pool), StepPlan::Slices(wave)) = (pool, &plan) {
                    for s in wave {
                        let (host, budget) = (s.host, s.budget);
                        let mut guest = self.sched.component_mut(i).detach_guest(host);
                        let done_tx = done_tx.clone();
                        pool.submit(move || {
                            // A panicking slice must surface on the
                            // coordinator (as it would sequentially),
                            // not strand it waiting for a reply. The
                            // guest is consumed either way, so no
                            // broken state escapes the unwind boundary.
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                                    let event = guest.run(budget);
                                    (guest, event)
                                }))
                                .map_err(|payload| {
                                    payload
                                        .downcast_ref::<&str>()
                                        .map(|m| (*m).to_owned())
                                        .or_else(|| payload.downcast_ref::<String>().cloned())
                                        .unwrap_or_else(|| "non-string panic payload".to_owned())
                                });
                            let _ = done_tx.send(SliceDone {
                                shard: i,
                                host,
                                outcome,
                            });
                        });
                    }
                }
                *plan_slot = Some(plan);
            }
            let Some(i) = self.sched.pick() else {
                break;
            };
            match plans[i].take().expect("picked shard is planned") {
                StepPlan::Finished => {
                    let result = self.sched.component_mut(i).finish_run();
                    self.sched.record(i, result);
                }
                StepPlan::Event => self.sched.component_mut(i).fire_next_event(),
                StepPlan::Slices(wave) => {
                    // Commit the wave in plan order — the same order
                    // sequential mode executes it inline.
                    for s in wave {
                        let event = match pool {
                            // Conservative barrier: this slice is next
                            // in the commit order, so nothing may
                            // commit until it lands. Other finished
                            // slices are banked along the way.
                            Some(_) => loop {
                                if let Some(ev) = banked[i].remove(&s.host) {
                                    break ev;
                                }
                                let done = done_rx.recv().expect("a worker must answer");
                                let (guest, event) = match done.outcome {
                                    Ok(ok) => ok,
                                    Err(msg) => panic!(
                                        "guest slice panicked on a worker \
                                         (shard {}, host {}): {msg}",
                                        done.shard, done.host
                                    ),
                                };
                                self.sched
                                    .component_mut(done.shard)
                                    .attach_guest(done.host, guest);
                                banked[done.shard].insert(done.host, event);
                            },
                            None => self.sched.component_mut(i).run_slice(s.host, s.budget),
                        };
                        self.sched.component_mut(i).commit_slice(s.host, event);
                    }
                }
            }
        }
        self.sched.take_outputs()
    }
}

/// A completed slice coming back from a pool worker. `outcome` carries
/// the guest back on success, or the panic message if the slice
/// panicked — the coordinator re-raises it instead of deadlocking on a
/// reply that will never come.
struct SliceDone {
    shard: usize,
    host: usize,
    outcome: Result<(HvGuest, HvEvent), String>,
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn parallel_run_is_bit_identical_to_sequential() {
        // The tentpole oracle at unit scope: loss, retransmission and a
        // mid-run primary failstop on one shard, three shards, compared
        // across Sequential / Threads(2) / Threads(8) (more threads
        // than shards exercises the idle-worker path).
        let image = build_image(&KernelConfig::default(), &dhrystone_source(250, 5)).unwrap();
        let build = || {
            let mut c = FtCluster::new(LinkSpec::ethernet_10mbps(), 11);
            let cfg = FtConfig {
                loss_prob: 0.1,
                retransmit: Some(SimDuration::from_millis(5)),
                detector_timeout: SimDuration::from_millis(300),
                backups: 2,
                ..fast()
            };
            for _ in 0..3 {
                c.add_system(&image, cfg);
            }
            c.system_mut(1)
                .schedule_failure(SimTime::from_nanos(2_000_000));
            c
        };
        let sequential = fingerprint(&build().run_with(Parallelism::Sequential));
        for threads in [1, 2, 8] {
            let parallel = fingerprint(&build().run_with(Parallelism::Threads(threads)));
            assert_eq!(
                sequential, parallel,
                "Threads({threads}) diverged from the sequential schedule"
            );
        }
    }

    #[test]
    fn cluster_checkpoint_is_mode_invariant_and_restores_exactly() {
        // Whole-cluster checkpoint at a global-time barrier: every
        // shard captures the same canonical state a reintegration
        // transfer ships, bit-identically in every execution mode,
        // without perturbing the run itself.
        use hvft_hypervisor::hvguest::HvConfig;
        // Big enough that epoch boundaries keep occurring well past the
        // barrier (the capture rides the first boundary at or after it).
        let image = build_image(&KernelConfig::default(), &dhrystone_source(2000, 5)).unwrap();
        let barrier = SimTime::from_nanos(2_000_000);
        let run = |par: Parallelism, checkpoint: bool| {
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
            let fp = fingerprint(&c.run_with(par));
            let cks: Vec<Vec<crate::system::SystemCheckpoint>> = (0..c.systems())
                .map(|i| c.checkpoints(i).to_vec())
                .collect();
            (fp, cks)
        };
        let (fp_plain, _) = run(Parallelism::Sequential, false);
        let (fp_seq, cks_seq) = run(Parallelism::Sequential, true);
        assert_eq!(fp_plain, fp_seq, "checkpointing must not perturb the run");
        for (sys, cks) in cks_seq.iter().enumerate() {
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
        for threads in [2, 8] {
            let (fp_par, cks_par) = run(Parallelism::Threads(threads), true);
            assert_eq!(fp_seq, fp_par, "Threads({threads}) fingerprint diverged");
            assert_eq!(
                cks_seq, cks_par,
                "Threads({threads}) checkpoints diverged from sequential"
            );
        }
    }

    #[test]
    fn threads_zero_degenerates_to_sequential() {
        let image = build_image(&KernelConfig::default(), &hello_source("z\n", 1)).unwrap();
        let run = |par| {
            let mut c = FtCluster::new(LinkSpec::ethernet_10mbps(), 3);
            c.add_system(&image, fast());
            c.add_system(&image, fast());
            fingerprint(&c.run_with(par))
        };
        assert_eq!(run(Parallelism::Threads(0)), run(Parallelism::Sequential));
    }
}
