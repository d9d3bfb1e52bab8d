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
//! # Parallel execution: work first
//!
//! [`FtCluster::run_with`] can run guest computations on worker threads
//! ([`Parallelism::Threads`]) while producing results **bit-identical**
//! to the sequential schedule. The unit of work is the *replica slice*:
//! a shard's plan step yields a **wave** of independent slices — one
//! per replica whose conservative horizon permits progress. The
//! executor is conservative — it never speculates and never rolls back
//! — and rests on two facts:
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
//! **Who runs a slice.** The thread that needs a result is the best
//! place to compute it (the work-first principle of Cilk-5: Frigo,
//! Leiserson and Randall, PLDI '98), so nothing leaves the coordinator
//! at plan time. When the commit order reaches a wave, the coordinator
//! runs the slice it is waiting for itself, through the very call the
//! sequential schedule makes. Only the *surplus* is exposed: just
//! before it starts, the coordinator publishes every other planned
//! slice nobody has published yet — the rest of this wave, then the
//! other shards' pending waves — each as a detached guest and budget
//! in a claim slot, plus one pool job that tries to take it. At a
//! published slice's commit turn the coordinator takes it back and
//! runs it inline if no worker has started it, and waits only for a
//! slice a worker is actually inside. A run therefore never depends on
//! a worker being free: with every worker busy elsewhere it is the
//! sequential schedule plus a few unclaimed publications.
//!
//! **Where surplus comes from.** Under the paper's protocol a `t = 1`
//! pair takes turns: the primary awaits its acknowledgments at every
//! boundary (P2) and the backup trails one message behind (P4/P5).
//! When the wire is what a run waits for — functional costs, where a
//! 4096-instruction epoch is 82 µs of guest time against several
//! hundred of Ethernet per boundary — a slice becomes runnable through
//! a delivery and is picked the very step after it: four such shards
//! on one LAN publish 1 % of their slices, a `t = 4` chain 3 %. Surplus
//! needs guests that are runnable side by side: §4.3's revised
//! protocol, whose primary runs ahead of its acks (25–50 % published
//! at the same costs), and any run charged the paper's HP 9000/720
//! costs, where guests and hypervisor outweigh the wire (a third of a
//! lone `t = 1` pair's slices, 60–90 % from `t ≥ 2` or several shards).
//!
//! *Which* slices are published is a function of the plan/commit order
//! alone, so [`FtCluster::slice_stats`] is deterministic and tests
//! assert it; *who* runs them is a race nothing observable depends on.
//! Sequential mode is the same loop with no pool, which is why the two
//! modes cannot diverge.
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
use crate::plan::{Planned, StepPlan};
use crate::report::RunReport;
use crate::system::{FtSystem, SystemCheckpoint, WireFrame};
use hvft_hypervisor::hvguest::{HvEvent, HvGuest};
use hvft_isa::program::Program;
use hvft_net::lan::{Lan, LanStats};
use hvft_net::link::LinkSpec;
use hvft_sim::pool::{panic_message, WorkPool};
use hvft_sim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

/// How a cluster run distributes its shards' guest computations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Parallelism {
    /// One thread does everything, in exact global-time order.
    #[default]
    Sequential,
    /// Guest slices execute on this many threads, the calling thread
    /// among them: it coordinates, runs every slice it would otherwise
    /// wait for, and exposes the rest to `n − 1` pool workers. All
    /// shared-medium effects still commit in exact global-time order,
    /// so the results are bit-identical to [`Parallelism::Sequential`],
    /// which `Threads(1)` and `Threads(0)` are.
    Threads(usize),
}

impl Parallelism {
    /// How many threads a run with this many *slice slots*
    /// (`shards × max replicas per shard`, see
    /// [`FtCluster::slice_slots`]) runs slices on, the caller included:
    /// the requested thread count, clamped to the slot count (more
    /// threads than concurrently plannable slices would only ever
    /// idle). Sequential (and `Threads(0)`, its degenerate form) is 1;
    /// the pool is asked for one worker fewer than this. Unlike
    /// [`Parallelism::effective_workers`], this does **not** clamp to
    /// the machine's cores — it is a request, not a speedup bound.
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
    systems: Vec<FtSystem>,
    slice_stats: SliceStats,
}

/// What the executor did with the cluster's guest slices so far. Both
/// counts are functions of the plan/commit order alone — the same on
/// every run, machine and thread count ≥ 2 — so tests assert them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SliceStats {
    /// Slices committed, whoever ran them.
    pub executed: u64,
    /// Of those, slices exposed to the pool because the coordinator had
    /// another one to run first (0 without workers). A published slice
    /// runs on a worker, or on the coordinator if none got to it.
    pub published: u64,
}

impl FtCluster {
    /// An empty cluster over a shared medium modelled by `link`;
    /// `seed` feeds the medium's per-link loss RNGs.
    pub fn new(link: LinkSpec, seed: u64) -> Self {
        FtCluster {
            lan: Rc::new(RefCell::new(Lan::new(link, seed))),
            systems: Vec::new(),
            slice_stats: SliceStats::default(),
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

    /// Upper bound on the number of guest slices this cluster can have
    /// planned at once: `shards × max replicas per shard`. Each
    /// shard's plan step yields up to one slice per replica (a wave),
    /// so this — not the shard count — is what
    /// [`Parallelism::Threads`] is clamped against.
    pub fn slice_slots(&self) -> usize {
        self.systems
            .iter()
            .map(|sys| sys.replicas())
            .max()
            .unwrap_or(1)
            * self.systems.len().max(1)
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
    /// order in both execution modes, so the captures land at a globally
    /// consistent cut and the resulting [`SystemCheckpoint`]s are
    /// bit-identical between [`Parallelism::Sequential`] and
    /// [`Parallelism::Threads`]; capture is pure, so the run itself is
    /// unperturbed. Retrieve per shard via
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

    /// Slices executed and published so far (see [`SliceStats`]).
    pub fn slice_stats(&self) -> SliceStats {
        self.slice_stats
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
        assert!(!self.systems.is_empty(), "empty cluster");
        // The caller is one of the requested threads.
        let workers = parallelism.requested_workers(self.slice_slots()) - 1;
        let pool = (workers > 0).then(|| {
            let pool = WorkPool::global();
            pool.ensure_workers(workers);
            pool
        });
        self.coordinate(pool.map(Exposure::new))
    }

    /// The coordinator loop shared by both modes (see the
    /// [module docs](self)): hold every unfinished shard's plan, commit
    /// in [`pick`] order, re-plan the shard that committed. Every slice
    /// runs here, at its commit turn, unless a worker took it first.
    fn coordinate(&mut self, mut exposure: Option<Exposure<'_>>) -> Vec<RunReport> {
        let mut plans: Vec<Option<Planned>> =
            self.systems.iter_mut().map(|s| Some(s.plan())).collect();
        let mut reports: Vec<Option<RunReport>> = vec![None; plans.len()];
        while let Some(i) = pick(&plans) {
            let planned = plans[i].take().expect("picked shard is planned");
            if let (Some(exposure), StepPlan::Slices(wave)) = (&mut exposure, &planned.step) {
                // The surplus: everything planned except the slice
                // about to run here — the rest of this wave, then the
                // other shards' pending waves.
                let pending = plans.iter().enumerate().flat_map(|(j, plan)| {
                    plan.iter().flat_map(|p| p.slices()).map(move |s| (j, s))
                });
                for (j, s) in wave.iter().skip(1).map(|s| (i, s)).chain(pending) {
                    if !exposure.holds((j, s.host)) {
                        let guest = self.systems[j].detach_guest(s.host);
                        exposure.publish((j, s.host), guest, s.budget);
                        self.slice_stats.published += 1;
                    }
                }
            }
            let stats = &mut self.slice_stats;
            reports[i] = self.systems[i].commit(planned.step, |s| {
                stats.executed += 1;
                exposure.as_mut()?.join((i, s.host))
            });
            if reports[i].is_none() {
                plans[i] = Some(self.systems[i].plan());
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
/// index on ties — a total order that does not depend on who executes
/// what, so Sequential and `Threads(n)` commit the same global sequence.
fn pick(plans: &[Option<Planned>]) -> Option<usize> {
    plans
        .iter()
        .enumerate()
        .filter_map(|(shard, plan)| Some((plan.as_ref()?.at.unwrap_or(SimTime::ZERO), shard)))
        .min()
        .map(|(_, shard)| shard)
}

/// `(shard, host)`: names a planned slice.
type SliceId = (usize, usize);

/// A published slice's claim slot: the detached guest and its budget,
/// until the first taker.
type Claim = Arc<Mutex<Option<(HvGuest, SimDuration)>>>;

/// What a worker sends back: the guest and the event its slice ended
/// with, or the panic message if the slice panicked.
type Outcome = Result<(HvGuest, HvEvent), String>;

/// The surplus slices of one run, exposed to a pool. A published slice
/// sits in a claim slot until its first taker — the pool job published
/// with it, or the coordinator at the slice's commit turn — `take`s it;
/// whoever does runs it. The pool may be shared with other runs, so
/// results come back on this run's own channel, never via pool
/// idleness, and a job that finds its slot empty just returns.
struct Exposure<'p> {
    pool: &'p WorkPool,
    /// Claim slots of slices published and not yet joined.
    open: BTreeMap<SliceId, Claim>,
    /// Outcomes that arrived before their slice's commit turn.
    banked: BTreeMap<SliceId, Outcome>,
    done_tx: mpsc::Sender<(SliceId, Outcome)>,
    done_rx: mpsc::Receiver<(SliceId, Outcome)>,
}

impl<'p> Exposure<'p> {
    fn new(pool: &'p WorkPool) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        Exposure {
            pool,
            open: BTreeMap::new(),
            banked: BTreeMap::new(),
            done_tx,
            done_rx,
        }
    }

    /// Whether this planned slice is published already.
    fn holds(&self, id: SliceId) -> bool {
        self.open.contains_key(&id)
    }

    /// Exposes a planned slice: its detached guest and budget go into a
    /// claim slot, and one pool job tries to take them.
    fn publish(&mut self, id: SliceId, guest: HvGuest, budget: SimDuration) {
        let slot: Claim = Arc::new(Mutex::new(Some((guest, budget))));
        self.open.insert(id, Arc::clone(&slot));
        let done_tx = self.done_tx.clone();
        self.pool.submit(move || {
            let claimed = slot.lock().expect("claim slot").take();
            let Some((mut guest, budget)) = claimed else {
                return;
            };
            // A panicking slice must surface on the coordinator (as it
            // would sequentially), not strand it waiting for a reply.
            // The guest is consumed either way, so no broken state
            // escapes the unwind boundary.
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                let event = guest.run(budget);
                (guest, event)
            }))
            .map_err(|payload| panic_message(&*payload));
            let _ = done_tx.send((id, outcome));
        });
    }

    /// At a slice's commit turn: `None` if it was never published. Otherwise the guest comes back — unrun (`None`
    /// event) if no worker had started the slice, else with the event
    /// the worker's run ended in, waited for if need be.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of this slice on a worker, naming the slice.
    fn join(&mut self, id: SliceId) -> Option<(HvGuest, Option<HvEvent>)> {
        let slot = self.open.remove(&id)?;
        if let Some((guest, _)) = slot.lock().expect("claim slot").take() {
            return Some((guest, None));
        }
        // A worker is inside this slice; other outcomes are banked
        // along the way.
        let outcome = loop {
            if let Some(outcome) = self.banked.remove(&id) {
                break outcome;
            }
            let (other, outcome) = self.done_rx.recv().expect("this end holds a sender");
            self.banked.insert(other, outcome);
        };
        match outcome {
            Ok((guest, event)) => Some((guest, Some(event))),
            Err(msg) => {
                let (shard, host) = id;
                panic!("guest slice panicked on a worker (shard {shard}, host {host}): {msg}")
            }
        }
    }
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

    /// A compute-only guest with no driver around it: its slices end
    /// in `EpochEnd` or `BudgetExhausted` until the workload exits.
    fn lone_guest(iters: u32) -> HvGuest {
        use hvft_hypervisor::hvguest::HvConfig;
        let image = build_image(&KernelConfig::default(), &dhrystone_source(iters, 0)).unwrap();
        HvGuest::new(&image, CostModel::functional(), HvConfig::default())
    }

    /// Waits until a worker has taken this published slice.
    fn await_worker(exposure: &Exposure<'_>, id: SliceId) {
        let slot = &exposure.open[&id];
        while slot.lock().unwrap().is_some() {
            thread::yield_now();
        }
    }

    #[test]
    fn a_published_slice_runs_exactly_once_whoever_wins_the_race() {
        // 10 000 rounds of publish-then-join against a free worker,
        // joining after a delay that sweeps the window in which the
        // worker wakes up. Whoever takes the slot runs the slice; a
        // slice run twice, or by nobody, leaves the raced guest's state
        // off the inline twin's.
        let pool = WorkPool::new(1);
        let mut exposure = Exposure::new(&pool);
        let budget = SimDuration::from_nanos(20 * 37);
        let (mut raced, mut inline) = (lone_guest(50_000), lone_guest(50_000));
        let mut on_worker = 0u32;
        for round in 0..10_000u32 {
            exposure.publish((2, 1), raced, budget);
            assert!(exposure.holds((2, 1)));
            for _ in 0..(round % 97) * 40 {
                std::hint::spin_loop();
            }
            let (guest, ran) = exposure.join((2, 1)).expect("published above");
            raced = guest;
            let event = ran.unwrap_or_else(|| raced.run(budget));
            on_worker += u32::from(ran.is_some());
            assert_eq!(event, inline.run(budget), "round {round}");
            if event == HvEvent::EpochEnd {
                raced.begin_epoch();
                inline.begin_epoch();
            }
            assert!(!exposure.holds((2, 1)) && exposure.join((2, 1)).is_none());
        }
        assert_eq!(raced.state_hash(), inline.state_hash());
        assert_eq!(raced.cpu.retired(), inline.cpu.retired());
        assert_eq!(raced.elapsed(), inline.elapsed());
        println!("{on_worker} of 10000 slices ran on the worker");
    }

    #[test]
    fn a_slice_a_worker_started_is_waited_for_not_rerun() {
        // The pinned proof that published slices do execute off-thread:
        // the join below can only be answered by the worker.
        let pool = WorkPool::new(1);
        let mut exposure = Exposure::new(&pool);
        let budget = SimDuration::from_micros(30);
        let mut inline = lone_guest(500);
        exposure.publish((0, 1), lone_guest(500), budget);
        await_worker(&exposure, (0, 1));
        let (guest, ran) = exposure.join((0, 1)).expect("published above");
        assert_eq!(ran, Some(inline.run(budget)), "the worker's event");
        assert_eq!(guest.state_hash(), inline.state_hash());
        assert!(guest.cpu.retired() > 0);
    }

    #[test]
    fn an_unstarted_slice_is_taken_back_and_its_job_finds_nothing() {
        // The only worker is held inside a foreign job: the joiner gets
        // the guest back unrun, and the stale job must not resurrect it.
        let pool = WorkPool::new(1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        started_rx.recv().unwrap();
        let mut exposure = Exposure::new(&pool);
        exposure.publish((1, 0), lone_guest(500), SimDuration::from_micros(30));
        let (guest, ran) = exposure.join((1, 0)).expect("published above");
        assert_eq!(ran, None);
        assert_eq!(guest.cpu.retired(), 0, "nobody ran it");
        drop(release_tx);
        pool.wait_idle();
        assert!(
            exposure.done_rx.try_recv().is_err(),
            "the job found nothing"
        );
    }

    #[test]
    fn a_worker_panic_is_re_raised_at_the_slice_s_own_commit_turn() {
        // A guest at real privilege 0 trips an `unreachable!` in the
        // hypervisor on its first privileged instruction. Its slice is
        // published first and fails first, but an earlier commit turn
        // (another slice's join) must not see the failure; its own
        // does, naming shard and host.
        let pool = WorkPool::new(1);
        let mut exposure = Exposure::new(&pool);
        let budget = SimDuration::from_micros(30);
        let mut broken = lone_guest(500);
        broken.cpu.psw.cpl = 0;
        exposure.publish((3, 1), broken, budget);
        exposure.publish((0, 0), lone_guest(500), budget);
        await_worker(&exposure, (3, 1));
        await_worker(&exposure, (0, 0));
        let (_, ran) = exposure.join((0, 0)).expect("published above");
        assert!(ran.is_some());
        let raised = catch_unwind(AssertUnwindSafe(|| exposure.join((3, 1)).is_some()))
            .expect_err("the slice's panic");
        let msg = panic_message(&*raised);
        assert!(msg.contains("(shard 3, host 1)"), "{msg}");
        assert!(msg.contains("real privilege 0"), "{msg}");
        // Run inline, the same guest panics at the same place: the
        // slice's own turn in the commit order.
        let mut broken = lone_guest(500);
        broken.cpu.psw.cpl = 0;
        let inline =
            catch_unwind(AssertUnwindSafe(|| broken.run(budget))).expect_err("the inline panic");
        assert!(msg.ends_with(&panic_message(&*inline)), "{msg}");
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
