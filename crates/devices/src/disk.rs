//! The shared disk model.
//!
//! The paper's prototype hangs a single SCSI disk off a bus chained to
//! both processors (I/O Device Accessibility Assumption). Every device is
//! required to satisfy the interface contract of §2.2:
//!
//! - **IO1**: if an I/O instruction is issued and performed, the issuing
//!   processor receives a *completion* interrupt;
//! - **IO2**: if the issuing processor receives an *uncertain* interrupt
//!   (SCSI `CHECK_CONDITION`), the I/O may or may not have been performed.
//!
//! Drivers must therefore retry on uncertain interrupts, and the
//! environment must tolerate repeated I/O instructions. Rule P7 exploits
//! exactly this: after failover, outstanding I/O gets a synthesized
//! uncertain interrupt and the (replayed) driver retries.
//!
//! This model implements that contract, including injectable transient
//! faults where the operation's effect *may or may not* have been applied,
//! and keeps an **operation log** so tests can verify that the
//! environment observed a sequence consistent with a single processor.

use crate::mmio::DiskGo;
use hvft_sim::rng::SimRng;
use hvft_sim::time::{SimDuration, SimTime};

/// Disk block size in bytes (the paper's read benchmark uses 8 KB blocks).
pub const BLOCK_SIZE: usize = 8192;

/// A disk command.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskCommand {
    /// Transfer a block from disk to host memory.
    Read,
    /// Transfer a block from host memory to disk.
    Write,
}

/// Status delivered with the completion interrupt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskStatus {
    /// IO1: the operation was performed.
    Complete,
    /// IO2: the operation may or may not have been performed
    /// (SCSI `CHECK_CONDITION`); the driver must retry.
    Uncertain,
}

/// One entry of the environment-visible operation log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiskLogEntry {
    /// Simulated time the command was issued.
    pub issued_at: SimTime,
    /// Which host issued it (0 = primary's processor, 1 = backup's).
    pub host: u8,
    /// The command.
    pub cmd: DiskCommand,
    /// Target block.
    pub block: u32,
    /// Status eventually returned.
    pub status: DiskStatus,
    /// Whether the effect was actually applied (writes) / data actually
    /// transferred (reads). Only meaningful for `Uncertain` outcomes,
    /// where IO2 leaves it ambiguous to the host.
    pub applied: bool,
    /// [`block_digest`] of the block the operation moved, or would have
    /// moved: the data a write offered, the medium's block a read
    /// fetched. The log keeps the digest rather than the block, so a
    /// kept log costs a word per operation. Zero until completion.
    pub data: u64,
}

/// One step of the digests below: for fixed `w` it permutes `h`, and
/// for fixed `h` it permutes `w`.
fn mix(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

/// Digest of the bytes one disk operation moved (see
/// [`DiskLogEntry::data`]).
pub fn block_digest(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let h = words.by_ref().fold(mix(0, bytes.len() as u64), |h, w| {
        mix(h, u64::from_le_bytes(w.try_into().expect("eight bytes")))
    });
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
}

/// Errors from disk command submission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskError {
    /// A command is already in flight (single-threaded controller).
    Busy,
    /// Block number beyond the medium.
    BadBlock {
        /// The offending block number.
        block: u32,
    },
}

impl core::fmt::Display for DiskError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            DiskError::Busy => write!(f, "controller busy"),
            DiskError::BadBlock { block } => write!(f, "block {block} out of range"),
        }
    }
}

impl std::error::Error for DiskError {}

/// The operation in flight, from the GO that started it to its
/// completion or abandonment: the one record of it anywhere.
#[derive(Clone, Debug)]
struct Operation {
    /// The host that issued it.
    issuer: u8,
    /// What the GO started: command, block and DMA address.
    go: DiskGo,
    /// When it completes.
    due: SimTime,
    /// Its entry in the log, patched when it ends.
    log_idx: usize,
}

/// Complete disk state — medium, controller, fault-injection RNG and
/// operation log — captured by [`Disk::snapshot`] for whole-system
/// checkpoints. (Replica reintegration does *not* ship this: the disk
/// is shared environment, accessible to every processor on the bus.)
#[derive(Clone, Debug)]
pub struct DiskSnapshot {
    blocks: Vec<Option<Box<[u8]>>>,
    num_blocks: u32,
    read_time: SimDuration,
    write_time: SimDuration,
    pending: Option<Operation>,
    write_data: Option<Box<[u8]>>,
    log: Vec<DiskLogEntry>,
    rng: SimRng,
    fault_prob: f64,
    force_uncertain: u32,
}

/// The shared disk: storage, timing, fault injection, the environment
/// log, and the one record of the operation in flight.
///
/// The embedding host drives the protocol:
/// 1. [`Disk::submit`] when the guest writes the GO register — the disk
///    takes a write's data then, and refuses a GO while busy without
///    touching the operation in flight;
/// 2. [`Disk::complete`] when [`Disk::due`] comes — applies the effect
///    (subject to injected faults) and returns the GO, the
///    [`DiskStatus`] to post with the interrupt and a read's data;
/// 3. or [`Disk::abandon`] when the issuer dies first.
pub struct Disk {
    /// The medium, one slot per block up to the highest ever written;
    /// a block is materialised by its first write and reads as zeros
    /// until then: most systems own a disk their guest never writes,
    /// and a run should not pay for (or zero) a megabyte it does not
    /// touch. Block by block rather than one growing buffer, so that
    /// what a run allocates depends on which blocks it wrote and not on
    /// the order it wrote them in (a buffer regrown towards a megabyte
    /// in a seed-dependent sequence of steps moved the process's peak
    /// RSS by that megabyte from one seed to the next).
    blocks: Vec<Option<Box<[u8]>>>,
    num_blocks: u32,
    read_time: SimDuration,
    write_time: SimDuration,
    pending: Option<Operation>,
    /// The data of the write in flight, copied at GO into this buffer.
    /// A write that reaches the medium trades it for the block it
    /// overwrites, so the buffer is allocated by the first write (and
    /// by the next after one that materialised a block) and reused.
    write_data: Option<Box<[u8]>>,
    log: Vec<DiskLogEntry>,
    rng: SimRng,
    fault_prob: f64,
    force_uncertain: u32,
}

impl Disk {
    /// Creates a zero-filled disk of `num_blocks` blocks with the paper's
    /// service times (read 24.2 ms, write 26 ms) and no transient faults.
    pub fn new(num_blocks: u32, seed: u64) -> Self {
        Disk {
            blocks: Vec::new(),
            num_blocks,
            read_time: SimDuration::from_micros_f64(24_200.0),
            write_time: SimDuration::from_micros_f64(26_000.0),
            pending: None,
            write_data: None,
            log: Vec::new(),
            rng: SimRng::seed_from_label(seed, "disk"),
            fault_prob: 0.0,
            force_uncertain: 0,
        }
    }

    /// Overrides the service times.
    pub fn set_service_times(&mut self, read: SimDuration, write: SimDuration) {
        self.read_time = read;
        self.write_time = write;
    }

    /// Read service time.
    pub fn read_time(&self) -> SimDuration {
        self.read_time
    }

    /// Write service time.
    pub fn write_time(&self) -> SimDuration {
        self.write_time
    }

    /// Sets the probability that an operation completes with an
    /// *uncertain* interrupt (IO2), exercising driver retry paths.
    pub fn set_fault_probability(&mut self, p: f64) {
        self.fault_prob = p.clamp(0.0, 1.0);
    }

    /// The probability of an uncertain outcome per operation (see
    /// [`Disk::set_fault_probability`]).
    pub fn fault_probability(&self) -> f64 {
        self.fault_prob
    }

    /// Forces the next `n` completions to be uncertain (deterministic
    /// fault injection for tests).
    pub fn force_uncertain(&mut self, n: u32) {
        self.force_uncertain += n;
    }

    /// Number of blocks on the medium.
    pub fn num_blocks(&self) -> u32 {
        self.num_blocks
    }

    /// Whether a command is in flight.
    pub fn is_busy(&self) -> bool {
        self.pending.is_some()
    }

    /// When the operation in flight completes, and which host issued it.
    pub fn due(&self) -> Option<(SimTime, u8)> {
        self.pending.as_ref().map(|op| (op.due, op.issuer))
    }

    /// Starts the operation `go` for host `issuer`; returns how long it
    /// will take. `dma` is the block at `go.addr` in the issuer's RAM: a
    /// write copies it now, into the disk's own buffer. A refused GO
    /// (busy, or a block off the medium) changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if a write's `dma` is not one block.
    pub fn submit(
        &mut self,
        now: SimTime,
        issuer: u8,
        go: DiskGo,
        dma: &[u8],
    ) -> Result<SimDuration, DiskError> {
        if self.pending.is_some() {
            return Err(DiskError::Busy);
        }
        if go.block >= self.num_blocks {
            return Err(DiskError::BadBlock { block: go.block });
        }
        let took = match go.cmd {
            DiskCommand::Read => self.read_time,
            DiskCommand::Write => {
                assert_eq!(dma.len(), BLOCK_SIZE, "writes are whole blocks");
                match &mut self.write_data {
                    Some(buffer) => buffer.copy_from_slice(dma),
                    none => *none = Some(dma.into()),
                }
                self.write_time
            }
        };
        self.pending = Some(Operation {
            issuer,
            go,
            due: now + took,
            log_idx: self.log.len(),
        });
        self.log.push(DiskLogEntry {
            issued_at: now,
            host: issuer,
            cmd: go.cmd,
            block: go.block,
            status: DiskStatus::Complete, // patched when it ends
            applied: false,
            data: 0,
        });
        Ok(took)
    }

    /// Completes the operation in flight. Returns the GO that started
    /// it, the status to deliver with the interrupt and, when a read's
    /// transfer happened, the block for the issuer to DMA to `go.addr`.
    ///
    /// # Panics
    ///
    /// Panics if no operation is in flight.
    pub fn complete(&mut self) -> (DiskGo, DiskStatus, Option<Vec<u8>>) {
        let (status, applied) = self.outcome();
        let go = self.settle(status, applied);
        let read = (applied && go.cmd == DiskCommand::Read).then(|| self.fetch(go.block).to_vec());
        (go, status, read)
    }

    /// Abandons the in-flight operation *without* completing it, as
    /// happens when the issuing processor dies mid-transfer. The
    /// operation's effect is decided now (it may have reached the medium
    /// or not — the essence of the two-generals situation of §2.2), but
    /// no interrupt is ever delivered for it.
    pub fn abandon(&mut self) {
        if self.pending.is_some() {
            // The medium may have absorbed the write before the crash.
            let applied = self.rng.gen_bool(0.5);
            self.settle(DiskStatus::Uncertain, applied);
        }
    }

    /// Ends the operation in flight with `status`, a write reaching the
    /// medium if `applied`, and patches its log entry; returns its GO.
    fn settle(&mut self, status: DiskStatus, applied: bool) -> DiskGo {
        let op = self.pending.take().expect("no operation in flight");
        let data = match op.go.cmd {
            DiskCommand::Write => {
                let data = self
                    .write_data
                    .take()
                    .expect("a write's data is taken at GO");
                let digest = block_digest(&data);
                self.write_data = match applied {
                    true => self.slot(op.go.block).replace(data),
                    false => Some(data),
                };
                digest
            }
            DiskCommand::Read => block_digest(self.fetch(op.go.block)),
        };
        let entry = &mut self.log[op.log_idx];
        entry.status = status;
        entry.applied = applied;
        entry.data = data;
        op.go
    }

    fn outcome(&mut self) -> (DiskStatus, bool) {
        if self.force_uncertain > 0 {
            self.force_uncertain -= 1;
            // IO2: performed-or-not is genuinely ambiguous.
            let applied = self.rng.gen_bool(0.5);
            return (DiskStatus::Uncertain, applied);
        }
        if self.fault_prob > 0.0 && self.rng.gen_bool(self.fault_prob) {
            let applied = self.rng.gen_bool(0.5);
            return (DiskStatus::Uncertain, applied);
        }
        (DiskStatus::Complete, true)
    }

    /// The medium's slot for `block`, grown to hold it.
    fn slot(&mut self, block: u32) -> &mut Option<Box<[u8]>> {
        assert!(block < self.num_blocks, "block {block} is off the medium");
        let at = block as usize;
        if self.blocks.len() <= at {
            self.blocks.resize(at + 1, None);
        }
        &mut self.blocks[at]
    }

    fn store(&mut self, block: u32, data: &[u8]) {
        match self.slot(block) {
            Some(held) => held.copy_from_slice(data),
            unwritten => *unwritten = Some(data.into()),
        }
    }

    fn fetch(&self, block: u32) -> &[u8] {
        static NEVER_WRITTEN: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];
        assert!(block < self.num_blocks, "block {block} is off the medium");
        match self.blocks.get(block as usize) {
            Some(Some(held)) => held,
            _ => &NEVER_WRITTEN,
        }
    }

    /// Direct medium access for test setup and verification (not part of
    /// the device interface).
    pub fn peek_block(&self, block: u32) -> &[u8] {
        self.fetch(block)
    }

    /// Direct medium mutation for test setup.
    pub fn poke_block(&mut self, block: u32, data: &[u8]) {
        assert_eq!(data.len(), BLOCK_SIZE);
        self.store(block, data);
    }

    /// The environment-visible operation log.
    pub fn log(&self) -> &[DiskLogEntry] {
        &self.log
    }

    /// Digest of the whole medium: equal for two disks exactly when
    /// (up to digest collisions) every block holds the same bytes,
    /// whichever blocks were ever written. A never-written medium
    /// digests to 0.
    pub fn medium_digest(&self) -> u64 {
        let zero = block_digest(&[0; BLOCK_SIZE]);
        let mut sum = 0u64;
        for (i, block) in self.blocks.iter().enumerate() {
            let digest = block.as_deref().map_or(zero, block_digest);
            if digest != zero {
                sum = sum.wrapping_add(mix(mix(0x4528_21E6_38D0_1377, i as u64), digest));
            }
        }
        sum
    }

    /// Captures the complete disk state for a system checkpoint.
    pub fn snapshot(&self) -> DiskSnapshot {
        DiskSnapshot {
            blocks: self.blocks.clone(),
            num_blocks: self.num_blocks,
            read_time: self.read_time,
            write_time: self.write_time,
            pending: self.pending.clone(),
            write_data: self.write_data.clone(),
            log: self.log.clone(),
            rng: self.rng.clone(),
            fault_prob: self.fault_prob,
            force_uncertain: self.force_uncertain,
        }
    }

    /// Restores state captured by [`Disk::snapshot`], including the
    /// in-flight operation and the fault-injection RNG stream, so
    /// post-restore outcomes match the uninterrupted run exactly.
    pub fn restore(&mut self, snap: &DiskSnapshot) {
        self.blocks.clone_from(&snap.blocks);
        self.num_blocks = snap.num_blocks;
        self.read_time = snap.read_time;
        self.write_time = snap.write_time;
        self.pending = snap.pending.clone();
        self.write_data.clone_from(&snap.write_data);
        self.log.clone_from(&snap.log);
        self.rng = snap.rng.clone();
        self.fault_prob = snap.fault_prob;
        self.force_uncertain = snap.force_uncertain;
    }
}

/// Checks that an operation log is consistent with what a single
/// processor could have produced.
///
/// The enforceable invariant is that commands come from at most one
/// host at a time, and that hand-overs only ever move *forward* down
/// the replica chain (primary → promoted backup → next promoted backup,
/// for t-fault systems) with no interleaving back to an earlier host.
/// Repeated `(cmd, block)` pairs across a switch are *not* flagged:
/// they are indistinguishable from a program that legitimately
/// re-issues the operation, and IO2 obliges the environment to tolerate
/// repetition anyway — rule P7 leans on exactly that. Whether the
/// *effects* are right is checked separately by comparing final medium
/// state against a failure-free reference run.
///
/// Returns `Err` with a description of the first violation.
pub fn check_single_processor_consistency(log: &[DiskLogEntry]) -> Result<(), String> {
    let mut current_host: Option<u8> = None;
    for (i, e) in log.iter().enumerate() {
        match current_host {
            None => current_host = Some(e.host),
            Some(h) if e.host < h => {
                return Err(format!(
                    "op {i}: command from host {} after host {h} took over",
                    e.host
                ));
            }
            Some(_) => current_host = Some(e.host),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn block_of(byte: u8) -> Vec<u8> {
        vec![byte; BLOCK_SIZE]
    }

    fn go(cmd: DiskCommand, block: u32) -> DiskGo {
        DiskGo {
            cmd,
            block,
            addr: 0x4000,
        }
    }

    /// Starts a write of `byte`s to `block`.
    fn write(d: &mut Disk, block: u32, byte: u8) -> Result<SimDuration, DiskError> {
        d.submit(t0(), 0, go(DiskCommand::Write, block), &block_of(byte))
    }

    fn read(d: &mut Disk, block: u32) -> Result<SimDuration, DiskError> {
        d.submit(t0(), 0, go(DiskCommand::Read, block), &[])
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut d = Disk::new(16, 7);
        let dur = write(&mut d, 3, 0xAA).unwrap();
        assert_eq!(dur, SimDuration::from_micros(26_000));
        assert_eq!(d.due(), Some((t0() + dur, 0)));
        let (done, status, data) = d.complete();
        assert_eq!(
            (done, status, data),
            (go(DiskCommand::Write, 3), DiskStatus::Complete, None)
        );

        read(&mut d, 3).unwrap();
        let (done, status, data) = d.complete();
        assert_eq!(
            (done, status),
            (go(DiskCommand::Read, 3), DiskStatus::Complete)
        );
        assert_eq!(data.unwrap(), block_of(0xAA));
        assert_eq!(d.due(), None);
    }

    #[test]
    fn blocks_materialise_one_by_one_in_any_order() {
        let held = |d: &Disk| d.blocks.iter().flatten().count();
        let mut d = Disk::new(128, 0);
        d.poke_block(100, &block_of(1));
        d.poke_block(3, &block_of(2));
        assert_eq!(held(&d), 2);
        assert_eq!(d.peek_block(50), block_of(0).as_slice());
        assert_eq!(d.peek_block(127), block_of(0).as_slice());

        let snap = d.snapshot();
        d.poke_block(3, &block_of(3));
        d.poke_block(127, &block_of(4));
        assert_eq!(held(&d), 3);
        d.restore(&snap);
        assert_eq!(held(&d), 2);
        assert_eq!(d.peek_block(3), block_of(2).as_slice());
        assert_eq!(d.peek_block(100), block_of(1).as_slice());
        assert_eq!(d.peek_block(127), block_of(0).as_slice());
    }

    #[test]
    fn busy_while_pending() {
        let mut d = Disk::new(4, 0);
        read(&mut d, 0).unwrap();
        assert_eq!(read(&mut d, 1), Err(DiskError::Busy));
        assert!(d.is_busy());
        let _ = d.complete();
        assert!(!d.is_busy());
    }

    #[test]
    fn a_go_refused_as_busy_leaves_the_write_in_flight_alone() {
        let mut d = Disk::new(4, 0);
        let dur = d
            .submit(t0(), 1, go(DiskCommand::Write, 1), &block_of(0xAA))
            .unwrap();
        let later = SimTime::from_nanos(5);
        assert_eq!(
            d.submit(later, 2, go(DiskCommand::Write, 2), &block_of(0xBB)),
            Err(DiskError::Busy)
        );
        assert_eq!(d.due(), Some((t0() + dur, 1)), "still the first write's");
        assert_eq!(d.complete().0, go(DiskCommand::Write, 1));
        assert_eq!(d.peek_block(1), block_of(0xAA).as_slice());
        assert_eq!(d.peek_block(2), block_of(0).as_slice());
        assert_eq!(d.log().len(), 1);
        assert_eq!(d.log()[0].data, block_digest(&block_of(0xAA)));
    }

    #[test]
    fn bad_block_rejected() {
        let mut d = Disk::new(4, 0);
        assert_eq!(read(&mut d, 4), Err(DiskError::BadBlock { block: 4 }));
    }

    #[test]
    fn forced_uncertain_write_may_or_may_not_apply() {
        // Run many injected faults; both "applied" and "not applied"
        // outcomes must occur — IO2's ambiguity is real.
        let mut applied = 0;
        let mut not_applied = 0;
        for seed in 0..32 {
            let mut d = Disk::new(2, seed);
            d.poke_block(1, &block_of(0x00));
            d.force_uncertain(1);
            write(&mut d, 1, 0xBB).unwrap();
            let (_, status, _) = d.complete();
            assert_eq!(status, DiskStatus::Uncertain);
            if d.peek_block(1) == block_of(0xBB).as_slice() {
                applied += 1;
            } else {
                not_applied += 1;
            }
        }
        assert!(applied > 0, "some uncertain writes should reach the medium");
        assert!(not_applied > 0, "some uncertain writes should be lost");
    }

    #[test]
    fn uncertain_read_may_withhold_data() {
        let mut saw_data = false;
        let mut saw_none = false;
        for seed in 0..32 {
            let mut d = Disk::new(2, seed);
            d.force_uncertain(1);
            read(&mut d, 0).unwrap();
            let (_, status, data) = d.complete();
            assert_eq!(status, DiskStatus::Uncertain);
            match data {
                Some(_) => saw_data = true,
                None => saw_none = true,
            }
        }
        assert!(saw_data && saw_none);
    }

    #[test]
    fn retry_after_uncertain_write_is_idempotent() {
        // The driver contract: on uncertain, repeat the same write. The
        // medium must end up with the data exactly once.
        let mut d = Disk::new(2, 3);
        d.force_uncertain(1);
        write(&mut d, 0, 0x42).unwrap();
        assert_eq!(d.complete().1, DiskStatus::Uncertain);
        // Retry.
        write(&mut d, 0, 0x42).unwrap();
        assert_eq!(d.complete().1, DiskStatus::Complete);
        assert_eq!(d.peek_block(0), block_of(0x42).as_slice());
    }

    #[test]
    fn abandon_decides_effect_without_interrupt() {
        let mut d = Disk::new(2, 5);
        write(&mut d, 0, 0x99).unwrap();
        d.abandon();
        assert!(!d.is_busy());
        let e = &d.log()[0];
        assert_eq!(e.status, DiskStatus::Uncertain);
        // Whether it applied is recorded for the environment-consistency
        // check, even though no host ever learns it.
        if e.applied {
            assert_eq!(d.peek_block(0), block_of(0x99).as_slice());
        } else {
            assert_eq!(d.peek_block(0), block_of(0x00).as_slice());
        }
    }

    #[test]
    fn log_records_operations() {
        let mut d = Disk::new(4, 0);
        let at = SimTime::from_nanos;
        d.submit(at(10), 0, go(DiskCommand::Write, 2), &block_of(1))
            .unwrap();
        d.complete();
        d.submit(at(20), 0, go(DiskCommand::Read, 2), &[]).unwrap();
        d.complete();
        let log = d.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].cmd, DiskCommand::Write);
        assert_eq!(log[1].cmd, DiskCommand::Read);
        assert_eq!(log[0].block, 2);
    }

    #[test]
    fn consistency_accepts_single_host() {
        let log = vec![
            DiskLogEntry {
                issued_at: t0(),
                host: 0,
                cmd: DiskCommand::Write,
                block: 1,
                status: DiskStatus::Complete,
                applied: true,
                data: 0,
            };
            5
        ];
        // Identical repeated writes from one host are always fine (the
        // guest may legitimately rewrite a block).
        assert!(check_single_processor_consistency(&log).is_ok());
    }

    #[test]
    fn consistency_accepts_failover_with_uncertain_repeat() {
        let mk = |host, status| DiskLogEntry {
            issued_at: t0(),
            host,
            cmd: DiskCommand::Write,
            block: 7,
            status,
            applied: true,
            data: 0,
        };
        let log = vec![mk(0, DiskStatus::Uncertain), mk(1, DiskStatus::Complete)];
        assert!(check_single_processor_consistency(&log).is_ok());
    }

    #[test]
    fn consistency_allows_cross_host_repeat() {
        // Indistinguishable from a legitimate re-write of the same block
        // (and tolerated by IO2 regardless), so not an anomaly.
        let mk = |host, status| DiskLogEntry {
            issued_at: t0(),
            host,
            cmd: DiskCommand::Write,
            block: 7,
            status,
            applied: true,
            data: 0,
        };
        let log = vec![mk(0, DiskStatus::Complete), mk(1, DiskStatus::Complete)];
        assert!(check_single_processor_consistency(&log).is_ok());
    }

    #[test]
    fn consistency_rejects_switching_back() {
        let mk = |host, block| DiskLogEntry {
            issued_at: t0(),
            host,
            cmd: DiskCommand::Read,
            block,
            status: DiskStatus::Complete,
            applied: true,
            data: 0,
        };
        let log = vec![mk(0, 1), mk(1, 2), mk(0, 3)];
        assert!(check_single_processor_consistency(&log).is_err());
    }

    #[test]
    fn consistency_accepts_cascading_hand_overs() {
        // A t = 2 system hands the disk down the chain: 0 → 1 → 2 is a
        // legal single-processor view; any return to an earlier host is
        // not.
        let mk = |host, block| DiskLogEntry {
            issued_at: t0(),
            host,
            cmd: DiskCommand::Write,
            block,
            status: DiskStatus::Complete,
            applied: true,
            data: 0,
        };
        let ok = vec![mk(0, 1), mk(1, 2), mk(2, 3), mk(2, 4)];
        assert!(check_single_processor_consistency(&ok).is_ok());
        let bad = vec![mk(0, 1), mk(2, 2), mk(1, 3)];
        assert!(check_single_processor_consistency(&bad).is_err());
    }
}
