//! The bare machine: the guest running directly on the (simulated)
//! hardware, with no hypervisor and no replication.
//!
//! This is the paper's baseline: "a workload that requires N seconds on
//! bare hardware" — every normalized-performance figure divides by the
//! completion time this host measures. Environment instructions execute
//! against the host's real (simulated) clock, traps vector straight into
//! the guest, and devices interrupt as soon as they complete.
//!
//! # The firmware runs inside the CPU's loop
//!
//! [`BareHost::run`] serves exits from inside [`Cpu::run_with`]: the
//! host's devices and clock are lent to a `Firmware` hook for the
//! length of a run, and its `exit` is the body of the loop this module
//! used to run around `Cpu::run`, in that loop's order, which simulated
//! time depends on:
//!
//! 1. handle the exit against the clock **as it stood when the hook
//!    last looked** — `mftod` does not see the instructions retired
//!    since — and stop, uncharged, at `halt` or a wake-less `idle`;
//! 2. advance the clock by `cost.insn` per instruction retired since;
//! 3. the head of the next turn: stop at the instruction limit, fire
//!    the timer and disk events that are due, and grant the
//!    instructions the per-step path would retire before the next one.
//!
//! When a grant runs out an event is due (or the limit is reached);
//! `run` charges the retirement and starts the next turn at step 3.

use crate::cost::CostModel;
use hvft_devices::console::Console;
use hvft_devices::disk::{Disk, BLOCK_SIZE};
use hvft_devices::mmio::{self, DiskController, Go};
use hvft_isa::program::Program;
use hvft_machine::cpu::{Assist, Cpu, EnvOp, Exit, LoadProgram, Resume};
use hvft_machine::exec::{ExecStats, ExecTier};
use hvft_machine::mem::{Memory, IO_BASE};
use hvft_machine::tlb::{Tlb, TlbReplacement};
use hvft_machine::trap::irq;
use hvft_sim::time::{SimDuration, SimTime};

/// Why a bare run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BareExit {
    /// The guest executed `halt`; the exit code is whatever `SYS_EXIT`
    /// stored (`diag` code 1), if any.
    Halted {
        /// Workload exit value (from the last `diag` with code 1).
        code: Option<u32>,
    },
    /// The instruction limit was reached (runaway guard).
    InstructionLimit,
    /// The guest idled with no wake-up source armed.
    Stuck,
}

/// Result of a completed bare run.
#[derive(Clone, Debug)]
pub struct BareRunResult {
    /// Why the run ended.
    pub exit: BareExit,
    /// Total simulated time (the paper's `RT` for this workload).
    pub time: SimDuration,
    /// Guest instructions retired.
    pub retired: u64,
    /// `diag` markers observed, in order, as `(value, code)`.
    pub diags: Vec<(u32, u32)>,
}

/// The bare host: one CPU, RAM, a private disk and console.
pub struct BareHost {
    /// The processor.
    pub cpu: Cpu,
    /// RAM.
    pub mem: Memory,
    /// The disk (same model the replicated system shares).
    pub disk: Disk,
    /// The console.
    pub console: Console,
    cost: CostModel,
    board: Board,
    disk_blocks: u32,
    seed: u64,
    /// TLB slots and replacement policy of every CPU this host boots.
    tlb: (usize, TlbReplacement),
}

/// The host's clock, its timer, the disk controller and what the guest
/// reported: everything a run changes besides the CPU, memory, disk
/// (which keeps the operation in flight) and console.
struct Board {
    now: SimTime,
    timer_fires_at: Option<SimTime>,
    controller: DiskController,
    diags: Vec<(u32, u32)>,
    exit_code: Option<u32>,
}

impl Board {
    fn reset() -> Self {
        Board {
            now: SimTime::ZERO,
            timer_fires_at: None,
            controller: DiskController::RESET,
            diags: Vec::new(),
            exit_code: None,
        }
    }
}

impl BareHost {
    /// Boots `image` on bare hardware with a disk of `disk_blocks`
    /// blocks, and a 64-slot TLB with random replacement.
    pub fn new(
        image: &Program,
        cost: CostModel,
        ram_bytes: usize,
        disk_blocks: u32,
        seed: u64,
    ) -> Self {
        let (slots, policy) = Self::DEFAULT_TLB;
        let mut cpu = Cpu::new(slots, policy, seed);
        let mut mem = Memory::new(ram_bytes);
        image.load_into_cpu(&mut cpu, &mut mem);
        BareHost {
            cpu,
            mem,
            disk: Disk::new(disk_blocks, seed),
            console: Console::new(),
            cost,
            board: Board::reset(),
            disk_blocks,
            seed,
            tlb: Self::DEFAULT_TLB,
        }
    }

    /// The TLB a host boots with unless [`BareHost::set_tlb`] chose
    /// another.
    const DEFAULT_TLB: (usize, TlbReplacement) = (64, TlbReplacement::Random);

    /// Gives the machine a TLB of `slots` entries with `policy`
    /// replacement (seeded like the default one). The choice survives
    /// [`BareHost::reset`]. It replaces the TLB wholesale, so it belongs
    /// before the guest runs: after [`BareHost::new`] or a reset.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero, or if the guest has retired an
    /// instruction since it booted.
    pub fn set_tlb(&mut self, slots: usize, policy: TlbReplacement) {
        assert_eq!(
            self.cpu.retired(),
            0,
            "the TLB is chosen before the guest runs"
        );
        self.cpu.tlb = Tlb::new(slots, policy, self.seed);
        self.tlb = (slots, policy);
    }

    /// Selects the execution engine (default: [`ExecTier::Jit`]). The
    /// choice survives [`BareHost::reset`], so benches that re-boot the
    /// host per iteration keep measuring the selected tier.
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.cpu.set_exec_tier(tier);
    }

    /// The selected execution engine.
    pub fn exec_tier(&self) -> ExecTier {
        self.cpu.exec_tier()
    }

    /// The CPU's per-tier execution counters for this boot.
    pub fn exec_stats(&self) -> ExecStats {
        self.cpu.exec_stats()
    }

    /// Re-boots `image` on this host in place, reusing the RAM
    /// allocation. After `reset` the host is observably identical to a
    /// freshly constructed one with the same execution tier, TLB and
    /// disk fault probability — benches use this so repeated runs measure
    /// execution, not allocation.
    pub fn reset(&mut self, image: &Program) {
        let tier = self.cpu.exec_tier();
        self.cpu = Cpu::new(self.tlb.0, self.tlb.1, self.seed);
        self.cpu.set_exec_tier(tier);
        self.mem.reset();
        image.load_into_cpu(&mut self.cpu, &mut self.mem);
        let fault_prob = self.disk.fault_probability();
        self.disk = Disk::new(self.disk_blocks, self.seed);
        self.disk.set_fault_probability(fault_prob);
        self.console = Console::new();
        self.board = Board::reset();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.board.now
    }

    /// Runs the guest to completion (or the instruction limit).
    ///
    /// Execution goes through [`Cpu::run_with`] on the selected tier,
    /// with every grant clamped to the next timer/disk deadline so
    /// devices interrupt at exactly the same instruction as
    /// single-stepping would.
    pub fn run(&mut self, max_insns: u64) -> BareRunResult {
        let start = self.board.now;
        let mut fw = Firmware {
            disk: &mut self.disk,
            console: &mut self.console,
            cost: &self.cost,
            board: &mut self.board,
            max_insns,
            charged_to: self.cpu.retired(),
            ended: None,
        };
        let exit = loop {
            let Some(grant) = fw.next_turn(&mut self.cpu, &mut self.mem) else {
                break BareExit::InstructionLimit;
            };
            self.cpu.run_with(&mut self.mem, grant, &mut fw);
            if let Some(ended) = fw.ended {
                break ended;
            }
            fw.charge_retired(&self.cpu);
        };
        BareRunResult {
            exit,
            time: self.board.now - start,
            retired: self.cpu.retired(),
            diags: self.board.diags.clone(),
        }
    }
}

/// The bare machine's firmware and devices for the length of one
/// [`BareHost::run`]: the parts of the host other than its CPU and
/// memory, which the run loop hands to every hook call. See the module
/// docs for the order [`Assist::exit`] keeps.
struct Firmware<'a> {
    disk: &'a mut Disk,
    console: &'a mut Console,
    cost: &'a CostModel,
    board: &'a mut Board,
    /// Retirement count the run stops at (runaway guard).
    max_insns: u64,
    /// Retirement count up to which the clock has been advanced.
    charged_to: u64,
    /// Why the run ended, once `halt` or a wake-less `idle` has.
    ended: Option<BareExit>,
}

impl Assist for Firmware<'_> {
    fn exit(&mut self, cpu: &mut Cpu, mem: &mut Memory, exit: Exit) -> Resume {
        let b = &mut *self.board;
        match exit {
            Exit::Retired => {}
            Exit::Trap(t) => {
                // Real hardware vectors every trap through the IVT.
                cpu.deliver_trap(t);
            }
            Exit::Env(op) => match op {
                EnvOp::ReadTod { rd } => {
                    let us = b.now.as_nanos() / 1000;
                    cpu.complete_env_read(rd, us as u32);
                }
                EnvOp::ReadTodHigh { rd } => {
                    let us = b.now.as_nanos() / 1000;
                    cpu.complete_env_read(rd, (us >> 32) as u32);
                }
                EnvOp::SetTimer { value } => {
                    b.timer_fires_at = Some(b.now + SimDuration::from_micros(u64::from(value)));
                    cpu.complete_env_effect();
                }
                EnvOp::ReadTimer { rd } => {
                    let rem = match b.timer_fires_at {
                        Some(t) if t > b.now => ((t - b.now).as_nanos() / 1000) as u32,
                        _ => 0,
                    };
                    cpu.complete_env_read(rd, rem);
                }
            },
            Exit::MmioRead { paddr, width, rd } => {
                let v = match paddr.wrapping_sub(IO_BASE) {
                    mmio::CONSOLE_REG_STATUS => 1, // always ready
                    off => b.controller.read(off),
                };
                cpu.complete_mmio_read(rd, width, v);
            }
            Exit::MmioWrite { paddr, value, .. } => {
                self.mmio_write(cpu, mem, paddr, value);
                cpu.complete_env_effect();
            }
            Exit::Diag { value, code } => {
                b.diags.push((value, code));
                if code == hvft_guest::layout::diag::EXIT {
                    b.exit_code = Some(value);
                }
                cpu.complete_env_effect();
            }
            Exit::Halt => {
                self.ended = Some(BareExit::Halted { code: b.exit_code });
                return Resume::Surface(exit);
            }
            Exit::Idle => {
                // Skip forward to the next wake-up source.
                match self.next_event() {
                    Some(t) => {
                        self.board.now = self.board.now.max(t);
                        cpu.complete_env_effect();
                    }
                    None => {
                        self.ended = Some(BareExit::Stuck);
                        return Resume::Surface(exit);
                    }
                }
            }
        }
        self.charge_retired(cpu);
        Resume::Continue(self.next_turn(cpu, mem).unwrap_or(0))
    }
}

impl Firmware<'_> {
    /// Advances the clock by the instruction time of everything retired
    /// since the last look, which also covers gate/brk (they retire
    /// inside a Trap exit).
    fn charge_retired(&mut self, cpu: &Cpu) {
        let delta = cpu.retired() - self.charged_to;
        self.charged_to = cpu.retired();
        if delta > 0 {
            self.board.now += self.cost.insn * delta;
        }
    }

    /// The head of a turn: fires the device events that are due and
    /// returns how many instructions may retire before the next one (or
    /// the limit) — `None` at the instruction limit.
    fn next_turn(&mut self, cpu: &mut Cpu, mem: &mut Memory) -> Option<u64> {
        if cpu.retired() >= self.max_insns {
            return None;
        }
        self.poll_events(cpu, mem);
        Some(
            (self.max_insns - cpu.retired())
                .min(self.insns_until_next_event())
                .max(1),
        )
    }

    /// The earliest pending timer/disk deadline.
    fn next_event(&self) -> Option<SimTime> {
        let disk_due = self.disk.due().map(|(t, _)| t);
        [self.board.timer_fires_at, disk_due]
            .into_iter()
            .flatten()
            .min()
    }

    /// Instructions the per-step path would retire before the earliest
    /// pending timer/disk event fires: events fire when `now` reaches
    /// their deadline, and `now` advances by `cost.insn` per retired
    /// instruction. `u64::MAX` when nothing is pending.
    fn insns_until_next_event(&self) -> u64 {
        let Some(t) = self.next_event() else {
            return u64::MAX;
        };
        let now = self.board.now;
        if t <= now {
            return 0;
        }
        let insn = self.cost.insn.as_nanos();
        if insn == 0 {
            return u64::MAX;
        }
        (t - now).as_nanos().div_ceil(insn)
    }

    fn poll_events(&mut self, cpu: &mut Cpu, mem: &mut Memory) {
        let b = &mut *self.board;
        if let Some(t) = b.timer_fires_at {
            if t <= b.now {
                b.timer_fires_at = None;
                cpu.raise_irq(irq::TIMER);
            }
        }
        if self.disk.due().is_some_and(|(t, _)| t <= b.now) {
            let (go, status, data) = self.disk.complete();
            if let Some(d) = data {
                mem.write_bytes(go.addr, &d);
            }
            b.controller.status = mmio::disk_status::of(status);
            cpu.raise_irq(irq::DISK);
        }
    }

    fn mmio_write(&mut self, cpu: &mut Cpu, mem: &Memory, paddr: u32, value: u32) {
        let b = &mut *self.board;
        let off = paddr.wrapping_sub(IO_BASE);
        match off {
            mmio::DISK_REG_CMD => {
                let started = match b.controller.go(value, mem.size()) {
                    Go::Ignored => return,
                    Go::Refused => false,
                    Go::Start(go) => {
                        let dma = mem.read_bytes(go.addr, BLOCK_SIZE);
                        self.disk.submit(b.now, 0, go, dma).is_ok()
                    }
                };
                if started {
                    b.controller.status = mmio::disk_status::BUSY;
                } else {
                    // Refused, by the controller or the disk: report
                    // uncertainty so the driver retries rather than
                    // wedging.
                    b.controller.status = mmio::disk_status::UNCERTAIN;
                    cpu.raise_irq(irq::DISK);
                }
            }
            mmio::CONSOLE_REG_TX => self.console.write(b.now, 0, value as u8),
            _ => b.controller.write(off, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvft_guest::layout::RAM_BYTES;
    use hvft_guest::{
        build_image, dhrystone_source, hello_source, io_bench_source, IoMode, KernelConfig,
    };

    fn run_bare(user: &str, kcfg: &KernelConfig) -> (BareHost, BareRunResult) {
        let image = build_image(kcfg, user).expect("image builds");
        let mut host = BareHost::new(&image, CostModel::hp9000_720(), RAM_BYTES, 128, 7);
        let result = host.run(2_000_000_000);
        (host, result)
    }

    #[test]
    fn dhrystone_completes_with_checksum() {
        let (_, r) = run_bare(&dhrystone_source(500, 10), &KernelConfig::default());
        match r.exit {
            BareExit::Halted { code: Some(_) } => {}
            other => panic!("unexpected exit {other:?}"),
        }
        // The exit diag carries the checksum.
        assert_eq!(r.diags.last().unwrap().1, hvft_guest::layout::diag::EXIT);
    }

    #[test]
    fn dhrystone_checksum_is_deterministic() {
        let (_, r1) = run_bare(&dhrystone_source(300, 7), &KernelConfig::default());
        let (_, r2) = run_bare(&dhrystone_source(300, 7), &KernelConfig::default());
        assert_eq!(r1.diags, r2.diags);
        assert_eq!(r1.retired, r2.retired);
        assert_eq!(r1.time, r2.time);
    }

    #[test]
    fn the_selected_tier_survives_reset() {
        let image = build_image(&KernelConfig::default(), &dhrystone_source(300, 7)).unwrap();
        let mut host = BareHost::new(&image, CostModel::hp9000_720(), RAM_BYTES, 128, 7);
        host.set_exec_tier(ExecTier::Step);
        let first = host.run(2_000_000_000);
        host.reset(&image);
        assert_eq!(host.exec_tier(), ExecTier::Step);
        let again = host.run(2_000_000_000);
        assert_eq!((again.retired, again.time), (first.retired, first.time));
        let x = host.exec_stats();
        assert_eq!(x.jit_retired, 0, "the re-booted host ran the jit: {x:?}");
        assert!(x.step_retired > 0);
    }

    #[test]
    fn the_disk_fault_probability_survives_reset() {
        let image = build_image(&KernelConfig::default(), &dhrystone_source(10, 0)).unwrap();
        let mut host = BareHost::new(&image, CostModel::hp9000_720(), RAM_BYTES, 16, 3);
        host.disk.set_fault_probability(0.25);
        host.reset(&image);
        assert_eq!(host.disk.fault_probability(), 0.25);
    }

    #[test]
    fn the_tlb_survives_reset() {
        let image = build_image(&KernelConfig::default(), &dhrystone_source(300, 7)).unwrap();
        let mut host = BareHost::new(&image, CostModel::hp9000_720(), RAM_BYTES, 16, 7);
        let default = host.run(2_000_000_000);
        host.reset(&image);
        host.set_tlb(2, TlbReplacement::RoundRobin);
        let small = host.run(2_000_000_000);
        host.reset(&image);
        assert_eq!(host.cpu.tlb.capacity(), 2);
        let again = host.run(2_000_000_000);
        // The guest kernel refills a two-slot TLB far more often.
        assert!(small.retired > default.retired, "{small:?} vs {default:?}");
        assert_eq!((again.retired, again.time), (small.retired, small.time));
    }

    #[test]
    fn timer_ticks_advance() {
        let kcfg = KernelConfig {
            tick_period_us: 100,
            tick_work: 1,
            ..KernelConfig::default()
        };
        let (host, r) = run_bare(&dhrystone_source(20_000, 0), &kcfg);
        assert!(matches!(r.exit, BareExit::Halted { .. }));
        let ticks = host.mem.read_u32(hvft_guest::layout::kdata::TICKS).unwrap();
        assert!(ticks > 2, "expected several ticks, got {ticks}");
    }

    #[test]
    fn console_hello() {
        let kcfg = KernelConfig {
            tick_period_us: 1000,
            tick_work: 0,
            ..KernelConfig::default()
        };
        let (host, r) = run_bare(&hello_source("bare hello\n", 1), &kcfg);
        assert!(matches!(r.exit, BareExit::Halted { code: Some(42) }));
        assert_eq!(host.console.output_string(), "bare hello\n");
    }

    #[test]
    fn disk_write_benchmark_lands_on_disk() {
        let (host, r) = run_bare(
            &io_bench_source(4, IoMode::Write, 64, 9),
            &KernelConfig::default(),
        );
        assert!(matches!(r.exit, BareExit::Halted { .. }), "{:?}", r.exit);
        assert_eq!(host.disk.log().len(), 4);
        // Time must be dominated by 4 × 26 ms.
        assert!(r.time >= SimDuration::from_millis(100), "time {}", r.time);
    }

    #[test]
    fn disk_read_benchmark_returns_data() {
        let image = build_image(
            &KernelConfig::default(),
            &io_bench_source(3, IoMode::Read, 16, 5),
        )
        .unwrap();
        let mut host = BareHost::new(&image, CostModel::hp9000_720(), RAM_BYTES, 16, 3);
        // Pre-fill the medium so reads observe non-zero data.
        let patterned: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        for b in 0..16 {
            host.disk.poke_block(b, &patterned);
        }
        let r = host.run(2_000_000_000);
        assert!(matches!(r.exit, BareExit::Halted { .. }), "{:?}", r.exit);
        assert_eq!(host.disk.log().len(), 3);
        // The DMA buffer holds the last block read.
        let buf = host.mem.read_bytes(hvft_guest::layout::DMA_BUF, 8);
        assert_eq!(buf, &patterned[..8]);
    }

    #[test]
    fn driver_retries_on_uncertain() {
        let image = build_image(
            &KernelConfig::default(),
            &io_bench_source(2, IoMode::Write, 16, 5),
        )
        .unwrap();
        let mut host = BareHost::new(&image, CostModel::hp9000_720(), RAM_BYTES, 16, 3);
        host.disk.force_uncertain(1);
        let r = host.run(2_000_000_000);
        assert!(matches!(r.exit, BareExit::Halted { .. }), "{:?}", r.exit);
        // 2 operations + 1 retry = 3 log entries.
        assert_eq!(host.disk.log().len(), 3);
        let retries = host
            .mem
            .read_u32(hvft_guest::layout::kdata::RETRIES)
            .unwrap();
        assert_eq!(retries, 1, "driver must have recorded one retry");
    }

    #[test]
    fn bare_runtime_close_to_instruction_time() {
        // With no I/O and few ticks, elapsed ≈ retired × 20 ns.
        let kcfg = KernelConfig {
            tick_period_us: 1_000_000,
            tick_work: 0,
            ..KernelConfig::default()
        };
        let (_, r) = run_bare(&dhrystone_source(10_000, 0), &kcfg);
        let ideal = SimDuration::from_nanos(20) * r.retired;
        assert_eq!(
            r.time, ideal,
            "bare hardware charges exactly 0.02 µs per instruction"
        );
    }
}
