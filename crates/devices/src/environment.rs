//! The environment contract as one oracle.
//!
//! The paper's correctness claim (§2.2) is about what the outside world
//! sees: after a primary fails, exactly one backup interacts with the
//! environment, and in such a way that the environment cannot tell a
//! failure happened. The one visible trace a failover may leave is an
//! operation whose attempt ended in an *uncertain* interrupt being
//! issued again (IO1, IO2). [`environment_equivalent`] holds a run to
//! exactly that against a reference run of the same workload without
//! the faults.

use crate::disk::{check_single_processor_consistency, DiskCommand, DiskLogEntry, DiskStatus};

/// What the outside world saw of one run.
#[derive(Clone, Copy, Debug)]
pub struct Environment<'a> {
    /// The bytes the console received, in order.
    pub console: &'a [u8],
    /// The disk's operation log.
    pub disk_log: &'a [DiskLogEntry],
    /// [`crate::disk::Disk::medium_digest`] of the medium the run left.
    pub medium: u64,
}

/// One operation as the environment saw it: command, block and the
/// digest of the data moved.
type Op = (DiskCommand, u32, u64);

fn op(e: &DiskLogEntry) -> Op {
    (e.cmd, e.block, e.data)
}

/// The operations of `log` that stand, once every re-issued one is
/// dropped. An operation is re-issued when the next one repeats it; one
/// the disk answered uncertain must be. (An operation the disk answered
/// with certainty can be re-issued too: rule P7's synthesized interrupt
/// may follow a completion the new primary's guest never saw, and the
/// log shows the repeat but not the doubt.)
fn standing(log: &[DiskLogEntry]) -> Result<Vec<Op>, String> {
    let mut ops = Vec::with_capacity(log.len());
    for (i, e) in log.iter().enumerate() {
        let reissued = log.get(i + 1).is_some_and(|next| op(next) == op(e));
        if reissued {
            continue;
        }
        if e.status == DiskStatus::Uncertain {
            return Err(format!(
                "op {i} ({:?} of block {}) ended uncertain and was not re-issued",
                e.cmd, e.block
            ));
        }
        ops.push(op(e));
    }
    Ok(ops)
}

/// Checks that `run` showed the environment what `reference` did, up to
/// IO2's re-issues:
///
/// 1. the run's disk log is single-processor consistent
///    ([`check_single_processor_consistency`]);
/// 2. the console streams are equal;
/// 3. with every re-issued operation dropped, the two disk logs are
///    equal as (command, block, data) sequences — and every operation
///    that ended uncertain was re-issued;
/// 4. the final media are equal.
///
/// Returns `Err` naming the first clause that fails.
pub fn environment_equivalent(
    reference: &Environment<'_>,
    run: &Environment<'_>,
) -> Result<(), String> {
    check_single_processor_consistency(run.disk_log)?;
    if reference.console != run.console {
        return Err(format!(
            "console differs: expected {:?}, got {:?}",
            String::from_utf8_lossy(reference.console),
            String::from_utf8_lossy(run.console)
        ));
    }
    let (expected, got) = (standing(reference.disk_log)?, standing(run.disk_log)?);
    if let Some(i) = (0..expected.len().max(got.len())).find(|&i| expected.get(i) != got.get(i)) {
        return Err(format!(
            "disk log differs at standing op {i}: expected {:?}, got {:?}",
            expected.get(i),
            got.get(i)
        ));
    }
    if reference.medium != run.medium {
        return Err(format!(
            "final media differ: {:#x} against {:#x}",
            reference.medium, run.medium
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{block_digest, Disk};
    use hvft_sim::time::SimTime;

    fn entry(host: u8, block: u32, data: u8, status: DiskStatus) -> DiskLogEntry {
        DiskLogEntry {
            issued_at: SimTime::ZERO,
            host,
            cmd: DiskCommand::Write,
            block,
            status,
            applied: true,
            data: block_digest(&[data; 8]),
        }
    }

    fn env(log: &[DiskLogEntry]) -> Environment<'_> {
        Environment {
            console: b"ok",
            disk_log: log,
            medium: 7,
        }
    }

    #[test]
    fn an_uncertain_operation_and_its_reissue_stand_for_one() {
        let reference = [
            entry(0, 1, 1, DiskStatus::Complete),
            entry(0, 2, 2, DiskStatus::Complete),
        ];
        let failover = [
            entry(0, 1, 1, DiskStatus::Complete),
            entry(0, 2, 2, DiskStatus::Uncertain),
            entry(1, 2, 2, DiskStatus::Complete),
        ];
        assert_eq!(
            environment_equivalent(&env(&reference), &env(&failover)),
            Ok(())
        );
        // P7 after a completion the guest never saw: a certain repeat.
        let repeat = [
            entry(0, 1, 1, DiskStatus::Complete),
            entry(0, 2, 2, DiskStatus::Complete),
            entry(1, 2, 2, DiskStatus::Complete),
        ];
        assert_eq!(
            environment_equivalent(&env(&reference), &env(&repeat)),
            Ok(())
        );
    }

    #[test]
    fn each_clause_fails_on_its_own() {
        let reference = [entry(0, 1, 1, DiskStatus::Complete)];
        let fails =
            |run: Environment<'_>| environment_equivalent(&env(&reference), &run).unwrap_err();
        let lost = [
            entry(0, 1, 1, DiskStatus::Uncertain),
            entry(0, 2, 2, DiskStatus::Complete),
        ];
        assert!(fails(env(&lost)).contains("not re-issued"));
        let other_data = [entry(0, 1, 9, DiskStatus::Complete)];
        assert!(fails(env(&other_data)).contains("disk log differs at standing op 0"));
        let extra = [
            entry(0, 1, 1, DiskStatus::Complete),
            entry(0, 2, 2, DiskStatus::Complete),
        ];
        assert!(fails(env(&extra)).contains("disk log differs at standing op 1"));
        let back = [
            entry(1, 1, 1, DiskStatus::Uncertain),
            entry(0, 1, 1, DiskStatus::Complete),
        ];
        assert!(fails(env(&back)).contains("after host 1 took over"));
        let console = Environment {
            console: b"ko",
            ..env(&reference)
        };
        assert!(fails(console).contains("console differs"));
        let medium = Environment {
            medium: 8,
            ..env(&reference)
        };
        assert!(fails(medium).contains("final media differ"));
    }

    #[test]
    fn the_medium_digest_sees_contents_not_history() {
        let mut a = Disk::new(8, 0);
        let b = Disk::new(8, 1);
        assert_eq!(a.medium_digest(), 0, "a blank medium digests to 0");
        a.poke_block(5, &[0; crate::disk::BLOCK_SIZE]);
        assert_eq!(
            a.medium_digest(),
            b.medium_digest(),
            "zeros written are zeros"
        );
        a.poke_block(5, &[1; crate::disk::BLOCK_SIZE]);
        let mut c = Disk::new(8, 2);
        c.poke_block(6, &[1; crate::disk::BLOCK_SIZE]);
        assert_ne!(
            a.medium_digest(),
            c.medium_digest(),
            "the block's place counts"
        );
        c.poke_block(6, &[0; crate::disk::BLOCK_SIZE]);
        c.poke_block(5, &[1; crate::disk::BLOCK_SIZE]);
        assert_eq!(a.medium_digest(), c.medium_digest());
    }
}
