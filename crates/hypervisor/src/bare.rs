//! The bare machine: the guest running directly on the (simulated)
//! hardware, with no hypervisor and no replication.
//!
//! This is the paper's baseline: "a workload that requires N seconds on
//! bare hardware" — every normalized-performance figure divides by the
//! completion time this host measures. Environment instructions execute
//! against the host's real (simulated) clock, traps vector straight into
//! the guest, and devices interrupt as soon as they complete.

use crate::cost::CostModel;
use hvft_devices::console::Console;
use hvft_devices::disk::{Disk, DiskCommand, DiskStatus, BLOCK_SIZE};
use hvft_devices::mmio;
use hvft_isa::program::Program;
use hvft_machine::cpu::{Cpu, EnvOp, Exit, LoadProgram};
use hvft_machine::exec::{ExecStats, ExecTier};
use hvft_machine::mem::{Memory, IO_BASE};
use hvft_machine::tlb::TlbReplacement;
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
    now: SimTime,
    timer_fires_at: Option<SimTime>,
    disk_done_at: Option<SimTime>,
    reg_block: u32,
    reg_addr: u32,
    disk_status_reg: u32,
    diags: Vec<(u32, u32)>,
    exit_code: Option<u32>,
    disk_blocks: u32,
    seed: u64,
    exec_tier: ExecTier,
}

impl BareHost {
    /// Boots `image` on bare hardware with a disk of `disk_blocks`
    /// blocks.
    pub fn new(
        image: &Program,
        cost: CostModel,
        ram_bytes: usize,
        disk_blocks: u32,
        seed: u64,
    ) -> Self {
        let mut cpu = Cpu::new(64, TlbReplacement::Random, seed);
        let mut mem = Memory::new(ram_bytes);
        image.load_into_cpu(&mut cpu, &mut mem);
        BareHost {
            cpu,
            mem,
            disk: Disk::new(disk_blocks, seed),
            console: Console::new(),
            cost,
            now: SimTime::ZERO,
            timer_fires_at: None,
            disk_done_at: None,
            reg_block: 0,
            reg_addr: 0,
            disk_status_reg: mmio::disk_status::IDLE,
            diags: Vec::new(),
            exit_code: None,
            disk_blocks,
            seed,
            exec_tier: ExecTier::default(),
        }
    }

    /// Selects the execution engine (default: [`ExecTier::Jit`]). The
    /// choice survives [`BareHost::reset`], so benches that re-boot the
    /// host per iteration keep measuring the selected tier.
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.exec_tier = tier;
        self.cpu.set_exec_tier(tier);
    }

    /// The selected execution engine.
    pub fn exec_tier(&self) -> ExecTier {
        self.exec_tier
    }

    /// The CPU's per-tier execution counters for this boot.
    pub fn exec_stats(&self) -> ExecStats {
        self.cpu.exec_stats()
    }

    /// Re-boots `image` on this host in place, reusing the RAM
    /// allocation. After `reset` the host is observably identical to a
    /// freshly constructed one — benches use this so repeated runs
    /// measure execution, not allocation.
    pub fn reset(&mut self, image: &Program) {
        self.cpu = Cpu::new(64, TlbReplacement::Random, self.seed);
        self.cpu.set_exec_tier(self.exec_tier);
        self.mem.reset();
        image.load_into_cpu(&mut self.cpu, &mut self.mem);
        self.disk = Disk::new(self.disk_blocks, self.seed);
        self.console = Console::new();
        self.now = SimTime::ZERO;
        self.timer_fires_at = None;
        self.disk_done_at = None;
        self.reg_block = 0;
        self.reg_addr = 0;
        self.disk_status_reg = mmio::disk_status::IDLE;
        self.diags.clear();
        self.exit_code = None;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Instructions the per-step path would retire before the earliest
    /// pending timer/disk event fires: events fire when `now` reaches
    /// their deadline, and `now` advances by `cost.insn` per retired
    /// instruction. `u64::MAX` when nothing is pending.
    fn insns_until_next_event(&self) -> u64 {
        let next = [self.timer_fires_at, self.disk_done_at]
            .into_iter()
            .flatten()
            .min();
        let Some(t) = next else {
            return u64::MAX;
        };
        if t <= self.now {
            return 0;
        }
        let insn = self.cost.insn.as_nanos();
        if insn == 0 {
            return u64::MAX;
        }
        (t - self.now).as_nanos().div_ceil(insn)
    }

    fn poll_events(&mut self) {
        if let Some(t) = self.timer_fires_at {
            if t <= self.now {
                self.timer_fires_at = None;
                self.cpu.raise_irq(irq::TIMER);
            }
        }
        if let Some(t) = self.disk_done_at {
            if t <= self.now {
                self.disk_done_at = None;
                self.complete_disk();
            }
        }
    }

    fn complete_disk(&mut self) {
        let pending_cmd = self
            .disk
            .pending()
            .map(|p| p.cmd)
            .expect("disk completion without op");
        let status = match pending_cmd {
            DiskCommand::Write => {
                let data = self.mem.read_bytes(self.reg_addr, BLOCK_SIZE).to_vec();
                self.disk.complete_write(&data)
            }
            DiskCommand::Read => {
                let (status, data) = self.disk.complete_read();
                if let Some(d) = data {
                    self.mem.write_bytes(self.reg_addr, &d);
                }
                status
            }
        };
        self.disk_status_reg = match status {
            DiskStatus::Complete => mmio::disk_status::DONE,
            DiskStatus::Uncertain => mmio::disk_status::UNCERTAIN,
        };
        self.cpu.raise_irq(irq::DISK);
    }

    fn mmio_read(&mut self, paddr: u32) -> u32 {
        match paddr.wrapping_sub(IO_BASE) {
            mmio::DISK_REG_STATUS => self.disk_status_reg,
            mmio::DISK_REG_BLOCK => self.reg_block,
            mmio::DISK_REG_ADDR => self.reg_addr,
            mmio::CONSOLE_REG_STATUS => 1,
            _ => 0,
        }
    }

    fn mmio_write(&mut self, paddr: u32, value: u32) {
        match paddr.wrapping_sub(IO_BASE) {
            mmio::DISK_REG_BLOCK => self.reg_block = value,
            mmio::DISK_REG_ADDR => self.reg_addr = value,
            mmio::DISK_REG_CMD => {
                let cmd = match value {
                    mmio::disk_cmd::READ => DiskCommand::Read,
                    mmio::disk_cmd::WRITE => DiskCommand::Write,
                    _ => return,
                };
                match self.disk.submit(self.now, 0, cmd, self.reg_block) {
                    Ok(dur) => {
                        self.disk_status_reg = mmio::disk_status::BUSY;
                        self.disk_done_at = Some(self.now + dur);
                    }
                    Err(_) => {
                        // Controller rejects: report uncertainty so the
                        // driver retries rather than wedging.
                        self.disk_status_reg = mmio::disk_status::UNCERTAIN;
                        self.cpu.raise_irq(irq::DISK);
                    }
                }
            }
            mmio::CONSOLE_REG_TX => self.console.write(self.now, 0, value as u8),
            _ => {}
        }
    }

    /// Runs the guest to completion (or the instruction limit).
    ///
    /// Execution goes through the predecoded-block engine
    /// ([`Cpu::run`]), entered with a budget clamped to the next
    /// timer/disk deadline so devices interrupt at exactly the same
    /// instruction as single-stepping would.
    pub fn run(&mut self, max_insns: u64) -> BareRunResult {
        let start = self.now;
        let result_exit = loop {
            if self.cpu.retired() >= max_insns {
                break BareExit::InstructionLimit;
            }
            self.poll_events();
            let retired_before = self.cpu.retired();
            let budget = (max_insns - retired_before)
                .min(self.insns_until_next_event())
                .max(1);
            let exit = self.cpu.run(&mut self.mem, budget);
            match exit {
                Exit::Retired => {}
                Exit::Trap(t) => {
                    // Real hardware vectors every trap through the IVT.
                    self.cpu.deliver_trap(t);
                }
                Exit::Env(op) => match op {
                    EnvOp::ReadTod { rd } => {
                        let us = self.now.as_nanos() / 1000;
                        self.cpu.complete_env_read(rd, us as u32);
                    }
                    EnvOp::ReadTodHigh { rd } => {
                        let us = self.now.as_nanos() / 1000;
                        self.cpu.complete_env_read(rd, (us >> 32) as u32);
                    }
                    EnvOp::SetTimer { value } => {
                        self.timer_fires_at =
                            Some(self.now + SimDuration::from_micros(u64::from(value)));
                        self.cpu.complete_env_effect();
                    }
                    EnvOp::ReadTimer { rd } => {
                        let rem = match self.timer_fires_at {
                            Some(t) if t > self.now => ((t - self.now).as_nanos() / 1000) as u32,
                            _ => 0,
                        };
                        self.cpu.complete_env_read(rd, rem);
                    }
                },
                Exit::MmioRead { paddr, width, rd } => {
                    let v = self.mmio_read(paddr);
                    self.cpu.complete_mmio_read(rd, width, v);
                }
                Exit::MmioWrite { paddr, value, .. } => {
                    self.mmio_write(paddr, value);
                    self.cpu.complete_env_effect();
                }
                Exit::Diag { value, code } => {
                    self.diags.push((value, code));
                    if code == hvft_guest::layout::diag::EXIT {
                        self.exit_code = Some(value);
                    }
                    self.cpu.complete_env_effect();
                }
                Exit::Halt => {
                    break BareExit::Halted {
                        code: self.exit_code,
                    }
                }
                Exit::Idle => {
                    // Skip forward to the next wake-up source.
                    let next = [self.timer_fires_at, self.disk_done_at]
                        .into_iter()
                        .flatten()
                        .min();
                    match next {
                        Some(t) => {
                            self.now = self.now.max(t);
                            self.cpu.complete_env_effect();
                        }
                        None => break BareExit::Stuck,
                    }
                }
            }
            // Charge instruction time by retirement delta, which also
            // covers gate/brk (they retire inside a Trap exit).
            let delta = self.cpu.retired() - retired_before;
            if delta > 0 {
                self.now += self.cost.insn * delta;
            }
        };
        BareRunResult {
            exit: result_exit,
            time: self.now - start,
            retired: self.cpu.retired(),
            diags: self.diags.clone(),
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
