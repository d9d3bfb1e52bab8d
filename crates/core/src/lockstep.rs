//! Lockstep divergence detection across `n` replicas.
//!
//! Rules P1–P6 guarantee that every backup virtual machine "executes the
//! same sequence of instructions (each having the same effect) as the
//! primary virtual machine". This checker verifies that guarantee
//! empirically, for one primary plus any number of ordered backups: each
//! replica reports a hash of its complete VM state at every epoch
//! boundary (taken *before* boundary processing, so all replicas hash at
//! the identical instruction-stream point), and the checker compares
//! every report for an epoch against the first one recorded.
//!
//! A t-fault chain needs exactly this generalization: with `t + 1`
//! replicas, an epoch may receive up to `t + 1` hashes, and a divergence
//! must say *which pair* disagreed so the failing replica can be
//! identified (the reference hash travels with the report that set it).

/// One recorded divergence: a pair of replicas whose state hashes
/// differed at the same epoch boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// Epoch at whose boundary the states differed.
    pub epoch: u64,
    /// The replica whose hash set the epoch's reference (first report).
    pub replica_a: usize,
    /// Reference replica's state hash.
    pub hash_a: u64,
    /// The replica that disagreed with the reference.
    pub replica_b: usize,
    /// Disagreeing replica's state hash.
    pub hash_b: u64,
}

/// Per-epoch record: the epoch, its reference report and how many
/// reports arrived.
#[derive(Clone, Copy, Debug)]
struct EpochRecord {
    epoch: u64,
    reference: (usize, u64),
    reports: u32,
}

/// How many epochs, up to the most recent reported one, records are
/// retained for. Replicas lag each other by at most a couple of epochs
/// (the backup runs one epoch behind the primary, plus channel
/// latency), so a generous window keeps memory O(window) over
/// billion-instruction runs without ever dropping a comparison that
/// could still happen.
const RETAIN_EPOCHS: u64 = 1024;

/// Collects per-epoch state hashes from any number of replicas and
/// reports mismatches.
#[derive(Clone, Debug, Default)]
pub struct LockstepChecker {
    /// A ring of epoch-tagged records: epoch `e` lives in slot
    /// `e % RETAIN_EPOCHS` and is retained while it is in the window.
    /// It grows to its full length over the first window's epochs and
    /// is reused from then on, so a long run allocates nothing per
    /// epoch.
    ring: Vec<Option<EpochRecord>>,
    /// The most recent epoch reported.
    newest: u64,
    compared: u64,
    divergences: Vec<Divergence>,
}

impl LockstepChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `replica` reaching the end of `epoch` with the given
    /// state hash. The first report for an epoch becomes its reference;
    /// every later report is compared against it. Only the last
    /// `RETAIN_EPOCHS` epochs up to the newest reported one are
    /// retained, bounding memory for arbitrarily long runs: a report
    /// for an epoch older than that is neither compared nor kept.
    pub fn record(&mut self, replica: usize, epoch: u64, hash: u64) {
        self.newest = self.newest.max(epoch);
        if epoch + RETAIN_EPOCHS <= self.newest {
            return;
        }
        let at = (epoch % RETAIN_EPOCHS) as usize;
        if at >= self.ring.len() {
            self.ring.resize(at + 1, None);
        }
        // A slot holding another epoch holds an older one, out of the
        // window now: the newer epoch's report takes it over.
        match &mut self.ring[at] {
            Some(rec) if rec.epoch == epoch => {
                rec.reports += 1;
                self.compared += 1;
                let (ref_replica, ref_hash) = rec.reference;
                if hash != ref_hash {
                    self.divergences.push(Divergence {
                        epoch,
                        replica_a: ref_replica,
                        hash_a: ref_hash,
                        replica_b: replica,
                        hash_b: hash,
                    });
                }
            }
            slot => {
                *slot = Some(EpochRecord {
                    epoch,
                    reference: (replica, hash),
                    reports: 1,
                });
            }
        }
    }

    /// Number of cross-replica comparisons performed (an epoch reported
    /// by `k` replicas contributes `k - 1`).
    pub fn compared(&self) -> u64 {
        self.compared
    }

    /// All recorded divergences, in the order they were detected.
    pub fn divergences(&self) -> &[Divergence] {
        &self.divergences
    }

    /// Moves the recorded divergences out (into the run report),
    /// leaving the checker with none.
    pub(crate) fn take_divergences(&mut self) -> Vec<Divergence> {
        std::mem::take(&mut self.divergences)
    }

    /// Whether every comparison matched.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Number of replicas that reported `epoch` so far.
    pub fn reports_for(&self, epoch: u64) -> u32 {
        if epoch + RETAIN_EPOCHS <= self.newest {
            return 0;
        }
        self.ring
            .get((epoch % RETAIN_EPOCHS) as usize)
            .and_then(Option::as_ref)
            .filter(|rec| rec.epoch == epoch)
            .map_or(0, |rec| rec.reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_hashes_are_clean() {
        let mut c = LockstepChecker::new();
        for e in 0..10 {
            c.record(0, e, 0xAB + e);
            c.record(1, e, 0xAB + e);
        }
        assert!(c.is_clean());
        assert_eq!(c.compared(), 10);
    }

    #[test]
    fn mismatch_reports_the_pair() {
        let mut c = LockstepChecker::new();
        c.record(0, 3, 1);
        c.record(1, 3, 2);
        assert!(!c.is_clean());
        assert_eq!(
            c.divergences(),
            &[Divergence {
                epoch: 3,
                replica_a: 0,
                hash_a: 1,
                replica_b: 1,
                hash_b: 2
            }]
        );
    }

    #[test]
    fn out_of_order_and_partial_epochs() {
        let mut c = LockstepChecker::new();
        // The backup lags; epochs arrive interleaved.
        c.record(0, 0, 7);
        c.record(0, 1, 8);
        c.record(1, 0, 7);
        assert_eq!(c.compared(), 1);
        assert!(c.is_clean());
        // Epoch 1 never compared (backup died) — still clean.
        assert_eq!(c.reports_for(1), 1);
    }

    #[test]
    fn n_replicas_compare_against_the_first_report() {
        let mut c = LockstepChecker::new();
        for r in 0..4 {
            c.record(r, 0, 0xFEED);
        }
        assert!(c.is_clean());
        assert_eq!(c.compared(), 3);
        // A fifth replica disagrees: exactly one divergence, naming the
        // reference replica and the deviant.
        c.record(4, 0, 0xBAD);
        assert_eq!(c.divergences().len(), 1);
        let d = c.divergences()[0];
        assert_eq!((d.replica_a, d.replica_b), (0, 4));
        assert_eq!((d.hash_a, d.hash_b), (0xFEED, 0xBAD));
    }

    #[test]
    fn old_records_are_pruned_to_a_window() {
        let mut c = LockstepChecker::new();
        for e in 0..(RETAIN_EPOCHS * 3) {
            c.record(0, e, e);
            c.record(1, e, e);
        }
        assert!(c.is_clean());
        assert_eq!(c.compared(), RETAIN_EPOCHS * 3);
        // Ancient epochs are gone; recent ones remain queryable.
        assert_eq!(c.reports_for(0), 0);
        assert_eq!(c.reports_for(RETAIN_EPOCHS * 3 - 1), 2);
        assert_eq!(c.reports_for(RETAIN_EPOCHS * 2), 2, "the window's oldest");
        assert_eq!(c.reports_for(RETAIN_EPOCHS * 2 - 1), 0, "just behind it");
        assert_eq!(
            c.ring.len() as u64,
            RETAIN_EPOCHS,
            "the ring stopped growing"
        );
    }

    #[test]
    fn a_replica_that_lags_past_the_window_is_not_compared() {
        let mut c = LockstepChecker::new();
        let newest = RETAIN_EPOCHS + 500;
        for e in 0..=newest {
            c.record(0, e, e);
        }
        // The laggard's report for the window's oldest epoch is
        // compared; one epoch older it is neither compared nor kept,
        // even with a hash that would diverge.
        let oldest = newest + 1 - RETAIN_EPOCHS;
        c.record(1, oldest, 0xBAD);
        assert_eq!((c.compared(), c.divergences().len()), (1, 1));
        assert_eq!(c.divergences()[0].epoch, oldest);
        c.record(1, oldest - 1, 0xBAD);
        assert_eq!((c.compared(), c.divergences().len()), (1, 1));
        assert_eq!(c.reports_for(oldest - 1), 0);
        // Its slot is the newest epoch's, which keeps its own record.
        assert_eq!(c.reports_for(newest), 1);
        // A report that moves the window on drops the oldest epoch.
        c.record(0, newest + 1, 0);
        assert_eq!((c.reports_for(oldest), c.reports_for(oldest + 1)), (0, 1));
        // Sparse epochs: a jump past the window forgets everything
        // behind it, though no slot was reused.
        c.record(0, newest + 1 + 5 * RETAIN_EPOCHS, 0);
        assert_eq!(c.reports_for(newest + 1), 0);
    }

    #[test]
    fn divergence_between_two_backups_is_caught() {
        let mut c = LockstepChecker::new();
        c.record(0, 5, 10);
        c.record(1, 5, 10);
        c.record(2, 5, 11);
        assert_eq!(c.compared(), 2);
        assert_eq!(c.divergences().len(), 1);
        assert_eq!(c.divergences()[0].replica_b, 2);
    }
}
