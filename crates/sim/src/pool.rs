//! A persistent work-stealing worker pool for off-thread slice
//! execution.
//!
//! The parallel cluster executor (PR 5) spawned a fresh set of worker
//! threads behind one shared `mpsc` queue on every `run_with` call:
//! thread spawn/join cost on every run, one contended queue for all
//! workers, and no reuse across benchmark iterations. This module
//! replaces that with a reusable pool:
//!
//! - **per-worker deques with stealing** — a submitted job lands on one
//!   worker's queue (round-robin); a worker that drains its own queue
//!   steals from its peers, so a long slice on one worker never strands
//!   runnable jobs behind it;
//! - **parked idle workers** — a worker with nothing to run (own queue
//!   and all peers empty) blocks on a condvar instead of spinning, and
//!   is woken by the next submission;
//! - **persistence** — [`WorkPool::global`] returns a process-wide pool
//!   that survives across `run_with` calls and bench iterations
//!   ([`WorkPool::ensure_workers`] grows it on demand, workers are
//!   never torn down), so steady-state parallel runs pay zero
//!   spawn/join cost;
//! - **panic containment** — a panicking job is caught on the worker,
//!   its message recorded ([`WorkPool::take_panics`]), and the worker
//!   survives to run the next job. Owned pools join every worker on
//!   drop even when jobs panicked.
//!
//! **Scheduling freedom, result determinism.** Which worker runs which
//! job, and in what order, is explicitly nondeterministic (it depends
//! on stealing races). Determinism is the *submitter's* contract:
//! simulation results must depend only on job outputs committed in a
//! deterministic order, never on pool scheduling — which is exactly how
//! the cluster executor uses it (slices are independent; commits happen
//! on the coordinator in its own pick order; a job only *tries* to claim
//! its slice, so nothing waits on a worker that is busy elsewhere).
//!
//! The observed-utilization counters ([`WorkPool::stats`]) are wall
//! clock, not simulated time: they exist so benchmark artifacts can
//! record how much of the pool the executor actually kept busy, making
//! scaling-curve regressions attributable.
//!
//! # Examples
//!
//! ```
//! use hvft_sim::pool::WorkPool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let pool = WorkPool::new(2);
//! let sum = Arc::new(AtomicU64::new(0));
//! for i in 1..=10u64 {
//!     let sum = Arc::clone(&sum);
//!     pool.submit(move || {
//!         sum.fetch_add(i, Ordering::Relaxed);
//!     });
//! }
//! pool.wait_idle();
//! assert_eq!(sum.load(Ordering::Relaxed), 55);
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread;
use std::time::Instant;

/// A unit of work shipped to the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Monotonic counters describing what the pool has done since it was
/// created. Snapshot before and after a run and subtract to attribute
/// work to that run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs executed to completion (including ones that panicked).
    pub jobs: u64,
    /// Wall-clock nanoseconds workers spent executing jobs. Divide a
    /// run's delta by `wall_time × workers` for observed utilization.
    pub busy_nanos: u64,
    /// Jobs a worker took from another worker's queue.
    pub steals: u64,
    /// Times a worker went to sleep on the idle condvar.
    pub parks: u64,
}

/// The message of a caught panic (`catch_unwind`'s `Err` payload), for
/// whoever reports or re-raises it on another thread.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|m| (*m).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// One deque per worker; the list grows (under the write lock) when
    /// [`WorkPool::ensure_workers`] adds workers, and entries are never
    /// removed, so a worker's own index stays valid for its lifetime.
    queues: RwLock<Vec<Arc<Mutex<VecDeque<Job>>>>>,
    /// Round-robin cursor for submissions.
    next_queue: AtomicUsize,
    /// Jobs submitted and not yet finished executing.
    outstanding: Mutex<usize>,
    /// Signalled when `outstanding` reaches zero.
    all_done: Condvar,
    /// Sleeping-worker wakeup: notified on submit and on shutdown.
    idle: Mutex<bool>,
    wake: Condvar,
    /// Panic messages from jobs, in completion order.
    panics: Mutex<Vec<String>>,
    jobs: AtomicU64,
    busy_nanos: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
}

impl Shared {
    /// Takes the next runnable job for worker `me`: own queue first
    /// (submission order), then a steal sweep over the peers starting
    /// at `me + 1` so contention spreads instead of piling onto worker
    /// 0's queue.
    fn take_job(&self, me: usize) -> Option<Job> {
        let queues = self.queues.read().expect("queue list");
        if let Some(job) = queues[me].lock().expect("own queue").pop_front() {
            return Some(job);
        }
        let n = queues.len();
        for k in 1..n {
            let victim = (me + k) % n;
            // Steal from the back: the victim pops its own front, so
            // the two ends only collide on a one-job queue.
            if let Some(job) = queues[victim].lock().expect("peer queue").pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    fn run_job(&self, job: Job) {
        let start = Instant::now();
        // Contain the panic on the worker: the job's submitter observes
        // the failure through its own channel (the cluster executor) or
        // through `take_panics`; the worker itself must survive to run
        // the next job, and an owned pool must still join cleanly.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        self.busy_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if let Err(payload) = outcome {
            let msg = panic_message(&*payload);
            self.panics.lock().expect("panic log").push(msg);
        }
        let mut outstanding = self.outstanding.lock().expect("outstanding");
        *outstanding -= 1;
        if *outstanding == 0 {
            self.all_done.notify_all();
        }
    }

    fn worker_loop(self: &Arc<Self>, me: usize) {
        loop {
            if let Some(job) = self.take_job(me) {
                self.run_job(job);
                continue;
            }
            // Park until new work arrives (or shutdown). Re-check the
            // queues after taking the lock: a submission between the
            // failed sweep and the wait would otherwise be missed.
            let mut shutdown = self.idle.lock().expect("idle lock");
            if *shutdown {
                return;
            }
            if self.has_work() {
                continue;
            }
            self.parks.fetch_add(1, Ordering::Relaxed);
            let guard = self.wake.wait(shutdown).expect("idle wait");
            shutdown = guard;
            if *shutdown {
                return;
            }
        }
    }

    fn has_work(&self) -> bool {
        let queues = self.queues.read().expect("queue list");
        queues.iter().any(|q| !q.lock().expect("queue").is_empty())
    }
}

/// A fixed-or-growing set of worker threads executing submitted jobs
/// with per-worker deques and work stealing. See the [module
/// docs](self).
pub struct WorkPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl WorkPool {
    fn empty() -> Self {
        WorkPool {
            shared: Arc::new(Shared {
                queues: RwLock::new(Vec::new()),
                next_queue: AtomicUsize::new(0),
                outstanding: Mutex::new(0),
                all_done: Condvar::new(),
                idle: Mutex::new(false),
                wake: Condvar::new(),
                panics: Mutex::new(Vec::new()),
                jobs: AtomicU64::new(0),
                busy_nanos: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                parks: AtomicU64::new(0),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// A pool with `workers` worker threads (at least one).
    pub fn new(workers: usize) -> Self {
        let pool = Self::empty();
        pool.ensure_workers(workers.max(1));
        pool
    }

    /// The process-wide persistent pool. Starts with no workers; grow
    /// it with [`WorkPool::ensure_workers`]. Workers, once spawned,
    /// live for the rest of the process — parked when idle — so
    /// repeated parallel runs reuse them instead of respawning.
    pub fn global() -> &'static WorkPool {
        static GLOBAL: OnceLock<WorkPool> = OnceLock::new();
        GLOBAL.get_or_init(Self::empty)
    }

    /// Grows the pool to at least `n` workers (never shrinks — an
    /// over-provisioned worker parks and costs nothing).
    pub fn ensure_workers(&self, n: usize) {
        let mut handles = self.handles.lock().expect("handle list");
        while handles.len() < n {
            let me = {
                let mut queues = self.shared.queues.write().expect("queue list");
                queues.push(Arc::new(Mutex::new(VecDeque::new())));
                queues.len() - 1
            };
            let shared = Arc::clone(&self.shared);
            handles.push(
                thread::Builder::new()
                    .name(format!("hvft-pool-{me}"))
                    .spawn(move || shared.worker_loop(me))
                    .expect("spawn pool worker"),
            );
        }
    }

    /// Current worker count.
    pub fn workers(&self) -> usize {
        self.handles.lock().expect("handle list").len()
    }

    /// Submits a job. Round-robins across the worker deques and wakes
    /// one parked worker.
    ///
    /// # Panics
    ///
    /// Panics if the pool has no workers (submit after
    /// [`WorkPool::ensure_workers`], or construct via
    /// [`WorkPool::new`]).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        // Count the job before publishing it: a worker may pop and
        // finish it the instant it lands on a queue, and the completion
        // decrement must never observe a count the submission hasn't
        // reached yet.
        *self.shared.outstanding.lock().expect("outstanding") += 1;
        {
            let queues = self.shared.queues.read().expect("queue list");
            assert!(!queues.is_empty(), "pool has no workers");
            let k = self.shared.next_queue.fetch_add(1, Ordering::Relaxed) % queues.len();
            queues[k].lock().expect("queue").push_back(Box::new(job));
        }
        // Take the idle lock so the wakeup cannot slip between a
        // worker's failed sweep and its wait.
        let _guard = self.shared.idle.lock().expect("idle lock");
        self.shared.wake.notify_one();
    }

    /// Blocks until every submitted job has finished executing.
    pub fn wait_idle(&self) {
        let mut outstanding = self.shared.outstanding.lock().expect("outstanding");
        while *outstanding > 0 {
            outstanding = self
                .shared
                .all_done
                .wait(outstanding)
                .expect("all_done wait");
        }
    }

    /// Drains the recorded panic messages of jobs that panicked on a
    /// worker, in completion order.
    pub fn take_panics(&self) -> Vec<String> {
        std::mem::take(&mut *self.shared.panics.lock().expect("panic log"))
    }

    /// Monotonic activity counters (see [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            busy_nanos: self.shared.busy_nanos.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        {
            let mut shutdown = self.shared.idle.lock().expect("idle lock");
            *shutdown = true;
            self.shared.wake.notify_all();
        }
        for h in self.handles.lock().expect("handle list").drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn all_jobs_run_exactly_once_regardless_of_worker_count() {
        for workers in [1, 2, 4] {
            let pool = WorkPool::new(workers);
            let seen = Arc::new(Mutex::new(Vec::new()));
            for i in 0..64u32 {
                let seen = Arc::clone(&seen);
                pool.submit(move || seen.lock().unwrap().push(i));
            }
            pool.wait_idle();
            let mut got = seen.lock().unwrap().clone();
            got.sort_unstable();
            assert_eq!(got, (0..64).collect::<Vec<_>>());
            assert_eq!(pool.stats().jobs, 64);
        }
    }

    #[test]
    fn a_free_worker_steals_from_a_busy_one() {
        // One long job occupies a worker while short jobs round-robin
        // onto both queues: the free worker must steal the strandees.
        let pool = WorkPool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..16u64 {
            let done = Arc::clone(&done);
            if i == 0 {
                pool.submit(move || {
                    thread::sleep(Duration::from_millis(100));
                    done.fetch_add(1, Ordering::Relaxed);
                });
            } else {
                pool.submit(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 16);
        assert!(
            pool.stats().steals >= 1,
            "the free worker should have stolen from the occupied one: {:?}",
            pool.stats()
        );
    }

    #[test]
    fn workers_park_and_are_reused_across_batches() {
        let pool = WorkPool::new(3);
        let count = Arc::new(AtomicU64::new(0));
        let batch = |n: u64| {
            for _ in 0..n {
                let count = Arc::clone(&count);
                pool.submit(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait_idle();
        };
        batch(8);
        // Workers drain and park between batches; poll briefly since
        // parking happens just after the last job completes.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.stats().parks == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(pool.stats().parks > 0, "idle workers must park");
        batch(8);
        assert_eq!(count.load(Ordering::Relaxed), 16);
        assert_eq!(pool.workers(), 3, "reuse, not respawn");
        assert_eq!(pool.stats().jobs, 16);
    }

    #[test]
    fn a_panicking_job_is_contained_and_the_pool_survives() {
        let pool = WorkPool::new(2);
        pool.submit(|| panic!("slice exploded"));
        pool.wait_idle();
        let panics = pool.take_panics();
        assert_eq!(panics, vec!["slice exploded".to_owned()]);
        // The worker that caught the panic still runs new jobs, and
        // dropping the pool joins every worker cleanly.
        let ok = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let ok = Arc::clone(&ok);
            pool.submit(move || {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(ok.load(Ordering::Relaxed), 8);
        assert!(pool.take_panics().is_empty());
        drop(pool);
    }

    #[test]
    fn ensure_workers_grows_but_never_shrinks() {
        let pool = WorkPool::new(1);
        assert_eq!(pool.workers(), 1);
        pool.ensure_workers(3);
        assert_eq!(pool.workers(), 3);
        pool.ensure_workers(2);
        assert_eq!(pool.workers(), 3);
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..6 {
            let ran = Arc::clone(&ran);
            pool.submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn global_pool_is_persistent() {
        let a = WorkPool::global() as *const _;
        let b = WorkPool::global() as *const _;
        assert_eq!(a, b);
        WorkPool::global().ensure_workers(2);
        let before = WorkPool::global().stats().jobs;
        let ran = Arc::new(AtomicU64::new(0));
        {
            let ran = Arc::clone(&ran);
            WorkPool::global().submit(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Other tests share the global pool, so wait on our own signal
        // rather than on pool-wide idleness.
        let deadline = Instant::now() + Duration::from_secs(5);
        while ran.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert!(WorkPool::global().stats().jobs > before);
    }
}
