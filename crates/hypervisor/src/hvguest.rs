//! The hypervisor's per-guest execution engine.
//!
//! [`HvGuest`] runs one virtual machine the way the paper's augmented
//! hypervisor does:
//!
//! - the guest kernel executes at **real privilege 1** ("virtual
//!   privilege 0", §3.1), so every privileged instruction traps and is
//!   **simulated** here, with identical effects on both replicas
//!   (Environment Instruction Assumption);
//! - the **recovery counter** delimits epochs of exactly `epoch_len`
//!   retired instructions (Instruction-Stream Interrupt Assumption);
//! - the hypervisor **takes over TLB management** (§3.2): misses on
//!   present pages are filled invisibly by walking the guest page table,
//!   so the machine's non-deterministic replacement policy can never
//!   perturb the guest instruction stream (this can be disabled to
//!   reproduce the divergence the paper's authors ran into);
//! - memory-mapped I/O and diagnostic escapes are surfaced to the
//!   caller — the replication protocol decides what they mean at a
//!   primary versus a backup.
//!
//! Every action is charged simulated time per the [`CostModel`].
//!
//! # The hypervisor runs inside the CPU's loop
//!
//! [`HvGuest::run`] makes one [`Cpu::run_with`] call per invocation and
//! lends the hypervisor's parts (virtual clock, cost model, counters,
//! consumed time) to an `Emulation`, the [`Assist`] hook that call
//! serves: every trap, every simulated instruction and every TLB fill
//! happens *inside* the run loop, and under the jit a privileged
//! instruction of a hot handler is an op of its trace, handed here
//! already decoded. The hook is the body of the loop this module used
//! to run around `Cpu::run`, and its order is what keeps every pause
//! point and every charged nanosecond where the per-step path puts
//! them, on both tiers:
//!
//! 1. emulate the exit (charging `hsim`, a reflection, a fill, …);
//! 2. charge `cost.insn` for every instruction retired since the hook
//!    last looked — straight-line retirement, `gate`/`brk` (they retire
//!    inside a trap exit) and the instruction just simulated alike;
//! 3. surface the [`HvEvent`], if the exit produced one;
//! 4. otherwise grant exactly the instructions the per-step path would
//!    retire before the time budget runs out — none, if it has.

use crate::cost::CostModel;
use crate::vclock::VClock;
use hvft_isa::codec::decode;
use hvft_isa::instruction::{Instruction, MemWidth};
use hvft_isa::program::Program;
use hvft_isa::reg::{ControlReg, Reg};
use hvft_machine::cpu::{Assist, Cpu, Exit, LoadProgram, Resume};
use hvft_machine::exec::{ExecStats, ExecTier};
use hvft_machine::mem::{Memory, PAGE_SHIFT};
use hvft_machine::snapshot::{CpuSnapshot, MemSnapshot};
use hvft_machine::statehash::vm_state_hash;
use hvft_machine::tlb::{pte, TlbReplacement};
use hvft_machine::trap::Trap;
use hvft_sim::time::SimDuration;

/// Privilege level the guest kernel really runs at (virtual level 0).
pub const GUEST_KERNEL_LEVEL: u8 = 1;

/// A hypervisor-level event the protocol layer must handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HvEvent {
    /// The recovery counter expired: the epoch is over. No instruction
    /// of the next epoch has executed. Call [`HvGuest::begin_epoch`] to
    /// continue.
    EpochEnd,
    /// The guest read a device register. Complete with
    /// [`HvGuest::finish_mmio_read`], handing `width` and `rd` back.
    MmioRead {
        /// Physical address in the I/O window.
        paddr: u32,
        /// Access width of the load.
        width: MemWidth,
        /// Destination register of the load.
        rd: Reg,
    },
    /// The guest wrote a device register. Complete with
    /// [`HvGuest::finish_mmio_write`].
    MmioWrite {
        /// Physical address in the I/O window.
        paddr: u32,
        /// The stored value.
        value: u32,
    },
    /// The guest executed `diag` (already retired): a harness escape,
    /// e.g. workload exit.
    Diag {
        /// Argument register value.
        value: u32,
        /// Marker code.
        code: u32,
    },
    /// The guest executed `halt` in virtual supervisor mode.
    Halted,
    /// The guest executed `idle` in virtual supervisor mode. Complete
    /// with [`HvGuest::finish_idle`] once an interrupt is pending.
    Idle,
    /// The time budget given to [`HvGuest::run`] ran out mid-epoch.
    BudgetExhausted,
}

/// Counters describing where execution time went.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HvStats {
    /// Privileged/environment instructions simulated (the paper's
    /// `nsim`).
    pub simulated: u64,
    /// Traps reflected into the guest kernel.
    pub reflected: u64,
    /// TLB misses serviced invisibly by the hypervisor.
    pub tlb_fills: u64,
    /// Epochs completed.
    pub epochs: u64,
    /// MMIO intercepts.
    pub mmio: u64,
    /// External interrupts delivered into the guest.
    pub irqs_delivered: u64,
    /// Simulated time spent inside the hypervisor.
    pub hv_time: SimDuration,
    /// Simulated time spent executing guest instructions.
    pub guest_time: SimDuration,
    /// Execution-tier breakdown from the CPU: instructions retired per
    /// engine, superblocks compiled, and jit invalidations.
    pub exec: ExecStats,
    /// RAM bytes the state digest ([`HvGuest::state_hash`]) read,
    /// booked at each [`HvGuest::begin_epoch`]: a multiple of the
    /// 128-byte line for every line written since the previous digest,
    /// and 0 for a boundary with nothing written.
    pub digest_bytes: u64,
}

/// Configuration of one hypervised guest.
#[derive(Clone, Copy, Debug)]
pub struct HvConfig {
    /// Instructions per epoch (the paper sweeps 1 K – 32 K and bounds it
    /// at 385 000 for HP-UX).
    pub epoch_len: u32,
    /// Whether the hypervisor manages the TLB (the §3.2 fix). Disabling
    /// this reproduces the replica-divergence problem.
    pub tlb_managed: bool,
    /// TLB slots.
    pub tlb_slots: usize,
    /// TLB replacement policy of the underlying machine.
    pub tlb_policy: TlbReplacement,
    /// Seed for the machine's non-deterministic TLB replacement.
    pub tlb_seed: u64,
    /// Guest RAM size in bytes.
    pub ram_bytes: usize,
    /// Which execution engine the CPU uses: the single-step reference
    /// interpreter or the threaded-code jit (the default). The two are
    /// observably identical, and the knob lets differential tests prove
    /// that.
    pub exec_tier: ExecTier,
}

impl Default for HvConfig {
    fn default() -> Self {
        HvConfig {
            epoch_len: 4096,
            tlb_managed: true,
            tlb_slots: 64,
            tlb_policy: TlbReplacement::Random,
            tlb_seed: 0,
            ram_bytes: hvft_guest::layout::RAM_BYTES,
            exec_tier: ExecTier::default(),
        }
    }
}

/// Canonical state of one hypervised guest, as captured by
/// [`HvGuest::snapshot`]: the whole virtual machine plus the
/// hypervisor-side bookkeeping (virtual clock, consumed time, epoch
/// progress, counters). The cost model and [`HvConfig`] are *not*
/// captured — a restore target must be built with the same
/// configuration, which is how replicas are constructed anyway.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HvGuestSnapshot {
    cpu: CpuSnapshot,
    mem: MemSnapshot,
    vclock: VClock,
    elapsed: SimDuration,
    epoch_start_retired: u64,
    stats: HvStats,
}

impl HvGuestSnapshot {
    /// Approximate serialized size in bytes, used to charge the network
    /// when a snapshot is shipped for reintegration: RAM dominates; the
    /// registers, TLB and bookkeeping ride in a small fixed overhead.
    pub fn wire_bytes(&self) -> u64 {
        self.mem.ram_bytes() as u64 + 4096
    }

    /// Epoch counter at the moment of capture.
    pub fn epoch(&self) -> u64 {
        self.stats.epochs
    }

    /// Simulated time the captured guest had consumed.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }
}

/// One virtual machine under the hypervisor.
pub struct HvGuest {
    /// The virtual processor.
    pub cpu: Cpu,
    /// Guest physical memory.
    pub mem: Memory,
    /// The virtual clock pair (`Tme` in the protocol).
    pub vclock: VClock,
    cost: CostModel,
    config: HvConfig,
    elapsed: SimDuration,
    /// Retired count at the start of the current epoch.
    epoch_start_retired: u64,
    stats: HvStats,
}

impl HvGuest {
    /// Boots a guest image under the hypervisor: the kernel entry runs at
    /// real privilege 1 with the recovery counter armed for the first
    /// epoch.
    pub fn new(image: &Program, cost: CostModel, config: HvConfig) -> Self {
        let mut cpu = Cpu::new(config.tlb_slots, config.tlb_policy, config.tlb_seed);
        cpu.set_exec_tier(config.exec_tier);
        let mut mem = Memory::new(config.ram_bytes);
        image.load_into_cpu(&mut cpu, &mut mem);
        cpu.psw.cpl = GUEST_KERNEL_LEVEL;
        cpu.psw.recovery = true;
        cpu.set_ctl(ControlReg::Rctr, config.epoch_len);
        HvGuest {
            cpu,
            mem,
            vclock: VClock::new(),
            cost,
            config,
            elapsed: SimDuration::ZERO,
            epoch_start_retired: 0,
            stats: HvStats::default(),
        }
    }

    /// The configuration this guest runs under.
    pub fn config(&self) -> &HvConfig {
        &self.config
    }

    /// Execution statistics.
    pub fn stats(&self) -> &HvStats {
        &self.stats
    }

    /// Simulated time consumed so far (guest + hypervisor).
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Adds an external charge (e.g. protocol message handling) to this
    /// guest's processor time.
    pub fn charge(&mut self, d: SimDuration) {
        self.elapsed += d;
        self.stats.hv_time += d;
    }

    /// Current epoch number (0-based).
    pub fn epoch(&self) -> u64 {
        self.stats.epochs
    }

    /// Instructions retired in the current (incomplete) epoch.
    pub fn epoch_progress(&self) -> u64 {
        self.cpu.retired() - self.epoch_start_retired
    }

    /// Digest of the virtual-machine state (for lockstep checking):
    /// [`vm_state_hash`] of this guest's CPU and memory. Rereads only
    /// the 128-byte lines written since the previous call, so calling it
    /// at every epoch boundary costs in proportion to what the epoch
    /// wrote; [`HvStats::digest_bytes`] counts it.
    pub fn state_hash(&self) -> u64 {
        vm_state_hash(&self.cpu, &self.mem)
    }

    /// Re-arms the recovery counter for the next epoch. Must be called
    /// after [`HvEvent::EpochEnd`]; interrupts to deliver should have
    /// been asserted via [`HvGuest::assert_irq`] first.
    pub fn begin_epoch(&mut self) {
        self.stats.epochs += 1;
        self.stats.digest_bytes += self.mem.take_digest_bytes();
        self.epoch_start_retired = self.cpu.retired();
        self.cpu.set_ctl(ControlReg::Rctr, self.config.epoch_len);
    }

    /// Captures the guest's canonical state. The machine's derived
    /// caches (decoded blocks, JIT superblocks, TLB front array, line
    /// digests) are excluded by construction; see
    /// [`hvft_machine::snapshot`].
    pub fn snapshot(&self) -> HvGuestSnapshot {
        HvGuestSnapshot {
            cpu: self.cpu.snapshot(),
            mem: self.mem.snapshot(),
            vclock: self.vclock,
            elapsed: self.elapsed,
            epoch_start_retired: self.epoch_start_retired,
            stats: self.stats,
        }
    }

    /// Restores state captured by [`HvGuest::snapshot`] onto this guest.
    /// The guest keeps its own cost model and [`HvConfig`] (they must
    /// match the donor's — replicas are always built identically), and
    /// resumes bit-identically to the donor: same PC, same retirement
    /// count, same epoch progress, same TLB replacement stream.
    pub fn restore(&mut self, snap: &HvGuestSnapshot) {
        self.cpu.restore(&snap.cpu);
        self.mem.restore(&snap.mem);
        self.vclock = snap.vclock;
        self.elapsed = snap.elapsed;
        self.epoch_start_retired = snap.epoch_start_retired;
        self.stats = snap.stats;
    }

    /// Asserts external-interrupt bits in the guest's `eirr`. Under the
    /// protocols this happens only at epoch boundaries, which is what
    /// keeps delivery points identical across replicas.
    pub fn assert_irq(&mut self, bits: u32) {
        self.cpu.raise_irq(bits);
    }

    /// Completes an [`HvEvent::MmioRead`] — `rd` and `width` are the
    /// event's — with the value the device (or the protocol layer, at a
    /// backup) supplied.
    pub fn finish_mmio_read(&mut self, rd: Reg, width: MemWidth, value: u32) {
        self.charge_guest(self.cost.insn);
        self.cpu.complete_mmio_read(rd, width, value);
    }

    /// Completes an [`HvEvent::MmioWrite`].
    pub fn finish_mmio_write(&mut self) {
        self.charge_guest(self.cost.insn);
        self.cpu.complete_env_effect();
    }

    /// Completes an [`HvEvent::Idle`].
    pub fn finish_idle(&mut self) {
        self.charge_guest(self.cost.insn);
        self.cpu.complete_env_effect();
    }

    fn charge_guest(&mut self, d: SimDuration) {
        self.elapsed += d;
        self.stats.guest_time += d;
    }

    /// Runs the guest until a hypervisor-level event occurs or `budget`
    /// simulated time has been consumed (measured from this call).
    ///
    /// Execution is one [`Cpu::run_with`] call whose instruction goal
    /// is, at every point the hypervisor looks, exactly the count the
    /// per-step path would retire before exhausting the time budget, so
    /// pause points (and therefore the conservative co-simulation's
    /// horizons) do not depend on the tier.
    pub fn run(&mut self, budget: SimDuration) -> HvEvent {
        let deadline = self.elapsed + budget;
        let mut hv = Emulation {
            vclock: &mut self.vclock,
            cost: &self.cost,
            stats: &mut self.stats,
            elapsed: &mut self.elapsed,
            tlb_managed: self.config.tlb_managed,
            deadline,
            charged_to: self.cpu.retired(),
            event: None,
        };
        let max_insns = hv.insn_budget();
        self.cpu.run_with(&mut self.mem, max_insns, &mut hv);
        hv.charge_retired(&self.cpu);
        let event = hv.event.unwrap_or(HvEvent::BudgetExhausted);
        // Nothing reads the CPU's counters while it runs, so they are
        // copied once per call.
        self.stats.exec = self.cpu.exec_stats();
        event
    }
}

/// The hypervisor for the length of one [`Cpu::run_with`] call: the
/// parts of an [`HvGuest`] other than its CPU and memory, which the
/// run loop hands to every hook call. See the module docs for the
/// order [`Emulation::resume`] keeps.
struct Emulation<'a> {
    vclock: &'a mut VClock,
    cost: &'a CostModel,
    stats: &'a mut HvStats,
    elapsed: &'a mut SimDuration,
    tlb_managed: bool,
    /// Value of `elapsed` at which the run's time budget is spent.
    deadline: SimDuration,
    /// Retirement count up to which `cost.insn` has been charged.
    charged_to: u64,
    /// The event that ended the run, once one has.
    event: Option<HvEvent>,
}

impl Assist for Emulation<'_> {
    fn exit(&mut self, cpu: &mut Cpu, mem: &mut Memory, exit: Exit) -> Resume {
        let event = match exit {
            Exit::Retired => None,
            Exit::Trap(trap) => self.handle_trap(cpu, mem, trap),
            Exit::Env(op) => {
                // Environment instruction at real privilege 0 — the
                // guest kernel runs at 1, so this cannot happen.
                unreachable!("guest reached real privilege 0: {op:?}");
            }
            Exit::MmioRead { paddr, width, rd } => {
                self.stats.mmio += 1;
                self.stats.simulated += 1;
                self.charge_hv(self.cost.hsim());
                Some(HvEvent::MmioRead { paddr, width, rd })
            }
            Exit::MmioWrite { paddr, value, .. } => {
                self.stats.mmio += 1;
                self.stats.simulated += 1;
                self.charge_hv(self.cost.hsim());
                Some(HvEvent::MmioWrite { paddr, value })
            }
            Exit::Halt | Exit::Idle | Exit::Diag { .. } => {
                unreachable!("privileged exit at real privilege 0")
            }
        };
        self.resume(cpu, exit, event)
    }

    fn privileged(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: Instruction,
        word: u32,
    ) -> Resume {
        let trap = Trap::PrivilegedOp { word };
        let event = self.privileged_op(cpu, mem, insn, trap);
        self.resume(cpu, Exit::Trap(trap), event)
    }

    /// The guest kernel's control-register moves are simulated exactly
    /// as `privileged` simulates them — the same charge, count and
    /// effect — and are never events, so they are answered as moves.
    fn control(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: Instruction,
        _word: u32,
    ) -> Option<u64> {
        if cpu.psw.cpl != GUEST_KERNEL_LEVEL {
            return None;
        }
        let event = self.simulate_privileged(cpu, mem, insn);
        debug_assert_eq!(event, None, "{insn} is a move");
        self.charge_retired(cpu);
        Some(self.insn_budget())
    }
}

impl Emulation<'_> {
    fn charge_guest(&mut self, d: SimDuration) {
        *self.elapsed += d;
        self.stats.guest_time += d;
    }

    fn charge_hv(&mut self, d: SimDuration) {
        *self.elapsed += d;
        self.stats.hv_time += d;
    }

    /// Charges instruction time for everything retired since the last
    /// look; this covers plain retirement, gate/brk (which retire
    /// inside a Trap exit) and instructions retired by privileged
    /// simulation.
    fn charge_retired(&mut self, cpu: &Cpu) {
        let delta = cpu.retired() - self.charged_to;
        self.charged_to = cpu.retired();
        if delta > 0 {
            self.charge_guest(self.cost.insn * delta);
        }
    }

    /// Instructions the per-step path would retire before the time
    /// budget is exhausted: none at or past the deadline.
    fn insn_budget(&self) -> u64 {
        if *self.elapsed >= self.deadline {
            return 0;
        }
        let remaining = self.deadline.saturating_sub(*self.elapsed);
        match self.cost.insn.as_nanos() {
            0 => u64::MAX,
            insn_ns => remaining.as_nanos().div_ceil(insn_ns),
        }
    }

    /// The tail of one turn and the head of the next (steps 2–4 of the
    /// module docs); `exit` is what surfaces beside an event.
    fn resume(&mut self, cpu: &Cpu, exit: Exit, event: Option<HvEvent>) -> Resume {
        self.charge_retired(cpu);
        if event.is_some() {
            self.event = event;
            return Resume::Surface(exit);
        }
        Resume::Continue(self.insn_budget())
    }

    /// Handles a trap exit; returns an event if the protocol layer must
    /// intervene.
    fn handle_trap(&mut self, cpu: &mut Cpu, mem: &mut Memory, trap: Trap) -> Option<HvEvent> {
        match trap {
            Trap::RecoveryCounter => {
                self.charge_hv(self.cost.hv_entry_exit);
                Some(HvEvent::EpochEnd)
            }
            Trap::PrivilegedOp { word } => match decode(word) {
                Ok(insn) => self.privileged_op(cpu, mem, insn, trap),
                Err(_) => {
                    self.reflect(cpu, Trap::IllegalInstruction { word });
                    None
                }
            },
            Trap::TlbMiss { vaddr, .. } if self.tlb_managed => {
                if !self.service_tlb_miss(cpu, mem, vaddr) {
                    // Page not present: reflect so the guest's handler
                    // (or fault path) sees it, exactly as §3.2 describes.
                    self.reflect(cpu, trap);
                }
                None
            }
            Trap::ExternalInterrupt => {
                self.stats.irqs_delivered += 1;
                self.charge_hv(self.cost.hv_deliver_irq);
                cpu.deliver_trap_at(trap, GUEST_KERNEL_LEVEL);
                None
            }
            _ => {
                // Gate, break, faults, unmanaged TLB misses: reflect into
                // the guest kernel at virtual privilege 0 (real 1).
                self.reflect(cpu, trap);
                None
            }
        }
    }

    /// A privileged instruction above real privilege 0 (`trap` is the
    /// trap it raises): simulated for the guest kernel, the guest
    /// kernel's business anywhere else.
    fn privileged_op(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: Instruction,
        trap: Trap,
    ) -> Option<HvEvent> {
        if cpu.psw.cpl == GUEST_KERNEL_LEVEL {
            self.simulate_privileged(cpu, mem, insn)
        } else {
            // User-mode privilege violation.
            self.reflect(cpu, trap);
            None
        }
    }

    fn reflect(&mut self, cpu: &mut Cpu, trap: Trap) {
        self.stats.reflected += 1;
        self.charge_hv(self.cost.hv_reflect);
        cpu.deliver_trap_at(trap, GUEST_KERNEL_LEVEL);
    }

    /// Walks the guest page table and fills the TLB; `false` if the page
    /// is absent.
    fn service_tlb_miss(&mut self, cpu: &mut Cpu, mem: &Memory, vaddr: u32) -> bool {
        let ptbr = cpu.ctl(ControlReg::Ptbr);
        let vpn = vaddr >> PAGE_SHIFT;
        let pte_addr = ptbr.wrapping_add(vpn * 4);
        let Ok(pte_word) = mem.read_u32(pte_addr) else {
            return false;
        };
        if pte_word & pte::V == 0 {
            return false;
        }
        self.stats.tlb_fills += 1;
        self.charge_hv(self.cost.hv_tlb_fill);
        cpu.tlb.insert_pte(vaddr, pte_word);
        true
    }

    /// Maps a virtual privilege level (as the guest believes) to the real
    /// level it runs at: virtual 0 becomes real 1 (§3.1).
    fn map_privilege(level: u8) -> u8 {
        if level == 0 {
            GUEST_KERNEL_LEVEL
        } else {
            level
        }
    }

    /// Simulates one privileged instruction for the guest kernel. Only
    /// what the hypervisor *virtualises* is defined here — the recovery
    /// counter (its own), `rfi`'s privilege mapping, the clock and timer
    /// (the virtual ones), and the instructions that are events; what a
    /// guest kernel may do to its own machine is what the machine does
    /// ([`Cpu::execute`]).
    fn simulate_privileged(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: Instruction,
    ) -> Option<HvEvent> {
        self.stats.simulated += 1;
        self.charge_hv(self.cost.hsim());
        let retired = cpu.retired();
        match insn {
            Instruction::MfTod { rd } => {
                let us = self.vclock.tod_us(retired);
                cpu.set_reg(rd, us as u32);
                cpu.retire_skip();
            }
            Instruction::MfTodH { rd } => {
                let us = self.vclock.tod_us(retired);
                cpu.set_reg(rd, (us >> 32) as u32);
                cpu.retire_skip();
            }
            Instruction::MtIt { rs } => {
                let us = cpu.reg(rs);
                self.vclock.set_timer(us, retired);
                cpu.retire_skip();
            }
            Instruction::MfIt { rd } => {
                let rem = self.vclock.timer_remaining_us(retired);
                cpu.set_reg(rd, rem);
                cpu.retire_skip();
            }
            // The recovery counter belongs to the hypervisor: guest
            // writes are ignored (HP-UX never touches it) and reads
            // hide the real one.
            Instruction::MtCtl {
                cr: ControlReg::Rctr,
                ..
            } => cpu.retire_skip(),
            Instruction::MfCtl {
                rd,
                cr: ControlReg::Rctr,
            } => {
                cpu.set_reg(rd, 0);
                cpu.retire_skip();
            }
            Instruction::Rfi => {
                let mut psw = hvft_machine::psw::Psw::unpack(cpu.ctl(ControlReg::Ipsw));
                psw.cpl = Self::map_privilege(psw.cpl);
                // All guest execution is recovery-counted.
                psw.recovery = true;
                let target = cpu.ctl(ControlReg::Iip);
                cpu.retire_to(target);
                cpu.psw = psw;
            }
            Instruction::Diag { rs, imm } => {
                let value = cpu.reg(rs);
                cpu.retire_skip();
                return Some(HvEvent::Diag { value, code: imm });
            }
            Instruction::Halt => return Some(HvEvent::Halted),
            Instruction::Idle => return Some(HvEvent::Idle),
            Instruction::MtCtl { .. }
            | Instruction::MfCtl { .. }
            | Instruction::Ssm { .. }
            | Instruction::Rsm { .. }
            | Instruction::Tlbi { .. }
            | Instruction::Tlbp { .. } => {
                let done = cpu.execute(insn, mem);
                debug_assert_eq!(done, Exit::Retired, "{insn} has no exit");
            }
            other => {
                // A non-privileged instruction cannot raise PrivilegedOp.
                unreachable!("PrivilegedOp trap for {other}")
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvft_guest::{build_image, dhrystone_source, KernelConfig};
    use hvft_sim::time::SimDuration;

    fn boot(epoch_len: u32) -> HvGuest {
        let image = build_image(
            &KernelConfig {
                tick_work: 2,
                ..KernelConfig::default()
            },
            &dhrystone_source(50, 5),
        )
        .expect("image builds");
        let config = HvConfig {
            epoch_len,
            ..HvConfig::default()
        };
        HvGuest::new(&image, CostModel::functional(), config)
    }

    fn big_budget() -> SimDuration {
        SimDuration::from_secs(10)
    }

    #[test]
    fn epochs_have_exact_length() {
        let mut g = boot(1000);
        let mut boundaries = Vec::new();
        loop {
            match g.run(big_budget()) {
                HvEvent::EpochEnd => {
                    boundaries.push(g.cpu.retired());
                    g.begin_epoch();
                }
                HvEvent::Diag { code: 1, .. } => break,
                HvEvent::Halted => break,
                other => panic!("unexpected event {other:?}"),
            }
            if boundaries.len() > 100 {
                break;
            }
        }
        assert!(boundaries.len() >= 2, "workload must span several epochs");
        for w in boundaries.windows(2) {
            assert_eq!(
                w[1] - w[0],
                1000,
                "every epoch is exactly epoch_len instructions"
            );
        }
        assert_eq!(boundaries[0], 1000);
    }

    #[test]
    fn workload_runs_to_exit_and_is_deterministic() {
        let run = |seed: u64| {
            let image = build_image(
                &KernelConfig {
                    tick_work: 2,
                    ..KernelConfig::default()
                },
                &dhrystone_source(100, 10),
            )
            .unwrap();
            let config = HvConfig {
                epoch_len: 4096,
                tlb_seed: seed,
                ..HvConfig::default()
            };
            let mut g = HvGuest::new(&image, CostModel::functional(), config);
            loop {
                match g.run(big_budget()) {
                    HvEvent::EpochEnd => g.begin_epoch(),
                    HvEvent::Diag { code: 1, value } => return (value, g.cpu.retired()),
                    other => panic!("unexpected {other:?}"),
                }
            }
        };
        // Different TLB seeds (non-deterministic replacement) must not
        // change the guest-visible outcome when the hypervisor manages
        // the TLB.
        let (sum1, retired1) = run(1);
        let (sum2, retired2) = run(2);
        assert_eq!(sum1, sum2);
        assert_eq!(retired1, retired2);
    }

    #[test]
    fn privileged_instructions_are_counted() {
        let mut g = boot(100_000);
        loop {
            match g.run(big_budget()) {
                HvEvent::EpochEnd => g.begin_epoch(),
                HvEvent::Diag { code: 1, .. } => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        // Boot alone does several mtctl/mtit/rfi; syscalls add more.
        assert!(g.stats().simulated > 10, "nsim = {}", g.stats().simulated);
        assert!(g.stats().reflected > 0, "gates must reflect");
    }

    #[test]
    fn budget_exhaustion_pauses_mid_epoch() {
        let mut g = boot(1_000_000);
        let ev = g.run(SimDuration::from_micros(5));
        assert_eq!(ev, HvEvent::BudgetExhausted);
        let before = g.cpu.retired();
        // Resuming continues from the pause point.
        let _ = g.run(SimDuration::from_micros(5));
        assert!(g.cpu.retired() > before);
    }

    #[test]
    fn timer_interrupt_fires_via_epoch_boundary() {
        // With a short tick period, the virtual timer must expire and the
        // guest tick counter must advance once the interrupt is delivered
        // at an epoch boundary.
        let image = build_image(
            &KernelConfig {
                tick_period_us: 50,
                tick_work: 1,
                ..KernelConfig::default()
            },
            &dhrystone_source(100_000, 0),
        )
        .unwrap();
        let mut g = HvGuest::new(
            &image,
            CostModel::functional(),
            HvConfig {
                epoch_len: 1000,
                ..HvConfig::default()
            },
        );
        let mut delivered = 0;
        for _ in 0..200 {
            match g.run(big_budget()) {
                HvEvent::EpochEnd => {
                    if g.vclock.take_expired_timer(g.cpu.retired()) {
                        g.assert_irq(hvft_machine::trap::irq::TIMER);
                        delivered += 1;
                    }
                    g.begin_epoch();
                }
                HvEvent::Diag { .. } | HvEvent::Halted => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            delivered > 1,
            "timer should fire repeatedly, got {delivered}"
        );
        // The guest's tick counter lives at kdata::TICKS.
        let ticks = g.mem.read_u32(hvft_guest::layout::kdata::TICKS).unwrap();
        assert!(ticks >= 1, "guest observed {ticks} ticks");
        assert!(g.stats().irqs_delivered >= 1);
    }

    #[test]
    fn state_hash_stable_across_identical_runs() {
        let mut a = boot(500);
        let mut b = boot(500);
        for _ in 0..20 {
            let ea = a.run(big_budget());
            let eb = b.run(big_budget());
            assert_eq!(ea, eb);
            assert_eq!(a.state_hash(), b.state_hash(), "replicas diverged");
            match ea {
                HvEvent::EpochEnd => {
                    a.begin_epoch();
                    b.begin_epoch();
                }
                _ => break,
            }
        }
    }
}
