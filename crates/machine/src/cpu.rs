//! The CPU interpreter.
//!
//! [`Cpu::step`] executes at most one instruction and reports anything the
//! embedding layer must handle as an [`Exit`]. Two embedders exist:
//!
//! - the **bare machine** (`hvft-hypervisor::bare`): handles exits the way
//!   real hardware + firmware would (environment instructions execute
//!   against the real clock, traps vector through the guest's IVT);
//! - the **hypervisor** (`hvft-hypervisor::hvguest`): simulates privileged and
//!   environment instructions so their effects are identical at primary
//!   and backup, and uses the recovery-counter exit to delimit epochs.
//!
//! The split keeps the CPU policy-free: it knows nothing about devices,
//! wall-clock time, or replication.
//!
//! # Serving exits inside the run loop
//!
//! [`Cpu::run`] returns at every exit, and a trap-and-emulate embedder
//! that calls it in a loop pays a full leave-and-re-enter for each
//! privileged instruction of its guest. [`Cpu::run_with`] is the same
//! loop with the embedder's emulation *inside* it: every exit that is
//! not plain retirement is offered to an [`Assist`] hook, which
//! emulates it on the spot and answers with a [`Resume`] — go on for so
//! many more instructions, or surface this exit to the caller.
//! `Cpu::run` is `run_with` and the hook that surfaces everything, so
//! there is one run loop.
//!
//! The hook is called in these places and nowhere else:
//!
//! - [`Assist::exit`], for every exit either tier reports — traps,
//!   environment instructions, MMIO, `halt`/`idle`/`diag` — from the
//!   one `match` in `run_with`'s loop, or, for the exit a jit assist op
//!   ([`crate::jit`]) ends in (a `gate`/`brk` trap, an environment op
//!   at privilege 0, `halt`/`idle`/`diag`), from the op itself, inside
//!   the trace's frame. Either way the architectural state is exactly
//!   what `Cpu::run` would have returned with: PC, retirement count
//!   and recovery counter synced, the faulting instruction not retired
//!   (or, for `gate`/`brk`, retired). The hook completes or delivers it
//!   with the same `complete_*` / `deliver_trap*` / `retire_*` calls an
//!   external loop would use.
//! - [`Assist::privileged`], from a jit assist op that met a
//!   privileged instruction above privilege 0, handed the instruction
//!   **decoded**, in the same synced state with the PC on the
//!   instruction. Its default is `exit(Trap(PrivilegedOp { word }))`,
//!   so an embedder that only implements `exit` sees one stream of
//!   exits on both tiers.
//! - [`Assist::control`], before `privileged`, for a control-register
//!   move of such a trace: an embedder that emulates it as a plain move
//!   says so, and the trace re-derives only its goal; the default
//!   declines, and `privileged` follows.
//!
//! The dispatcher's caches are lifted out of the CPU for the duration
//! of a run, so a hook may read and write every architectural field,
//! the TLB and memory, but must not call `run`/`run_with`,
//! `exec_stats`, `set_exec_tier`, `snapshot` or `restore` on the CPU it
//! was handed. Whatever it changes — the PC, the PSW, control
//! registers, the TLB, code in memory — the engines re-validate before
//! they execute another instruction, exactly as they would at entry.

use crate::exec::{ExecDispatcher, ExecStats, ExecTier};
use crate::jit::{Leave, Lookup};
use crate::mem::{MemFault, Memory, PAGE_SIZE};
use crate::psw::Psw;
use crate::tlb::{Tlb, TlbAccess, TlbReplacement, TlbResult};
use crate::trap::Trap;
use hvft_isa::codec::decode;
use hvft_isa::instruction::{AluImmOp, AluOp, BranchCond, Instruction, MemWidth};
use hvft_isa::reg::{ControlReg, Reg};

/// Number of control registers.
const NUM_CTL: usize = 10;

/// Three-register ALU semantics; `None` flags division by zero (an
/// arithmetic trap). Shared by the step and jit paths so the two
/// cannot drift (the jit's specialized handlers call this with a
/// constant `op`, which folds away after inlining).
#[inline]
pub(crate) fn alu_value(op: AluOp, a: u32, b: u32) -> Option<u32> {
    Some(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Divu => {
            if b == 0 {
                return None;
            }
            a / b
        }
        AluOp::Remu => {
            if b == 0 {
                return None;
            }
            a % b
        }
    })
}

/// Register-immediate ALU semantics; shared by both execution paths.
#[inline]
pub(crate) fn alu_imm_value(op: AluImmOp, a: u32, imm: i32) -> u32 {
    match op {
        AluImmOp::Addi => a.wrapping_add(imm as u32),
        AluImmOp::Andi => a & (imm as u32),
        AluImmOp::Ori => a | (imm as u32),
        AluImmOp::Xori => a ^ (imm as u32),
        AluImmOp::Slti => u32::from((a as i32) < imm),
        AluImmOp::Slli => a.wrapping_shl(imm as u32),
        AluImmOp::Srli => a.wrapping_shr(imm as u32),
        AluImmOp::Srai => ((a as i32).wrapping_shr(imm as u32)) as u32,
    }
}

/// Width extension of a loaded value: a byte load sign-extends.
#[inline]
pub(crate) fn extend(width: MemWidth, raw: u32) -> u32 {
    match width {
        MemWidth::Word | MemWidth::ByteU => raw,
        MemWidth::Byte => (raw as u8) as i8 as i32 as u32,
    }
}

/// An environment operation the embedder must complete.
///
/// These correspond exactly to the paper's *environment instructions*:
/// their results depend on state outside the virtual machine (clocks),
/// so under replication the hypervisor must supply identical results to
/// both virtual machines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnvOp {
    /// `mftod rd`: read low word of the time-of-day clock.
    ReadTod {
        /// Destination register.
        rd: Reg,
    },
    /// `mftodh rd`: read high word of the time-of-day clock.
    ReadTodHigh {
        /// Destination register.
        rd: Reg,
    },
    /// `mtit rs`: arm the interval timer for `value` microseconds.
    SetTimer {
        /// Countdown in microseconds.
        value: u32,
    },
    /// `mfit rd`: read remaining microseconds of the interval timer.
    ReadTimer {
        /// Destination register.
        rd: Reg,
    },
}

/// Why [`Cpu::step`] returned without simply retiring an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Exit {
    /// The instruction retired normally.
    Retired,
    /// A trap must be handled. For restarting traps (`Trap::restarts`)
    /// the PC still addresses the faulting instruction; for `gate`/`brk`
    /// the instruction has retired and the PC addresses its successor.
    Trap(Trap),
    /// An environment instruction at privilege 0 needs the embedder.
    /// Complete with [`Cpu::complete_env_read`] or
    /// [`Cpu::complete_env_effect`].
    Env(EnvOp),
    /// A load reached the memory-mapped I/O window. Complete with
    /// [`Cpu::complete_mmio_read`].
    MmioRead {
        /// Physical address in the I/O window.
        paddr: u32,
        /// Access width.
        width: MemWidth,
        /// Destination register.
        rd: Reg,
    },
    /// A store reached the memory-mapped I/O window. Complete with
    /// [`Cpu::complete_env_effect`].
    MmioWrite {
        /// Physical address in the I/O window.
        paddr: u32,
        /// Access width.
        width: MemWidth,
        /// Value to store (byte stores pass the low 8 bits).
        value: u32,
    },
    /// `halt` at privilege 0: the processor stops. Never retires.
    Halt,
    /// `idle` at privilege 0: wait for an external interrupt. Complete
    /// with [`Cpu::complete_env_effect`] once the wait is over.
    Idle,
    /// `diag` at privilege 0: a harness escape. Complete with
    /// [`Cpu::complete_env_effect`].
    Diag {
        /// Value of the argument register.
        value: u32,
        /// Immediate marker code.
        code: u32,
    },
}

/// The embedder's answer to an exit it was offered inside
/// [`Cpu::run_with`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resume {
    /// The exit is dealt with: keep running, for at most this many more
    /// retired instructions counted from now. `Continue(0)` ends the
    /// run with [`Exit::Retired`].
    Continue(u64),
    /// Return this exit from [`Cpu::run_with`].
    Surface(Exit),
}

/// An embedder's emulation, served inside [`Cpu::run_with`]'s loop
/// instead of around [`Cpu::run`]. See the [module docs](self) for the
/// state a hook is called in and what it may touch.
pub trait Assist {
    /// Offered every exit other than [`Exit::Retired`], by either tier,
    /// in the state [`Cpu::run`] would have returned it in.
    fn exit(&mut self, cpu: &mut Cpu, mem: &mut Memory, exit: Exit) -> Resume;

    /// A privileged instruction met above privilege 0 by a compiled
    /// trace: `insn` is the decoded form of `word`, the PC addresses it
    /// and it has not retired. The default reports it the way the
    /// step loop does.
    fn privileged(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: Instruction,
        word: u32,
    ) -> Resume {
        let _ = insn;
        self.exit(cpu, mem, Exit::Trap(Trap::PrivilegedOp { word }))
    }

    /// A control-register move — `mfctl` or `mtctl` of any register but
    /// `rctr`, `eiem` and `eirr` — met above privilege 0 by a compiled
    /// trace, in the state [`Assist::privileged`] is called in. An
    /// embedder that emulates it as a *move* — reads or writes the
    /// register, retires the instruction and touches nothing else the
    /// run loop checks (the PC beyond `pc + 4`, the PSW, the other
    /// control registers, the TLB, memory) — does so and answers how
    /// many more instructions may retire, as with
    /// [`Resume::Continue`]; the trace then goes on re-deriving only its
    /// goal. `None`, the default, has the instruction handed to
    /// [`Assist::privileged`] like any other.
    fn control(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: Instruction,
        word: u32,
    ) -> Option<u64> {
        let _ = (cpu, mem, insn, word);
        None
    }
}

/// The hook behind [`Cpu::run`]: every exit goes to the caller.
struct SurfaceAll;

impl Assist for SurfaceAll {
    fn exit(&mut self, _cpu: &mut Cpu, _mem: &mut Memory, exit: Exit) -> Resume {
        Resume::Surface(exit)
    }
}

/// The processor: registers, PSW, control registers and TLB.
///
/// # Examples
///
/// ```
/// use hvft_machine::cpu::{Cpu, Exit, LoadProgram};
/// use hvft_machine::mem::Memory;
/// use hvft_isa::asm::assemble;
///
/// let prog = assemble(".org 0\nstart: addi r5, r0, 3\n halt\n").unwrap();
/// let mut mem = Memory::new(4096);
/// let mut cpu = Cpu::new(16, hvft_machine::tlb::TlbReplacement::RoundRobin, 0);
/// prog.load_into_cpu(&mut cpu, &mut mem);
/// assert_eq!(cpu.step(&mut mem), Exit::Retired);
/// assert_eq!(cpu.reg(hvft_isa::reg::Reg::of(5)), 3);
/// assert_eq!(cpu.step(&mut mem), Exit::Halt);
/// ```
// Declaration order, the register file first: the jit's frame reaches
// the registers, the PSW and the control registers from one base
// pointer, which leaves a machine register for the rest of its hot
// state (without it, every compiled load read `mem` from the stack).
#[repr(C)]
pub struct Cpu {
    regs: [u32; 32],
    /// Program counter (address of the next instruction).
    pub pc: u32,
    /// Processor status word.
    pub psw: Psw,
    ctl: [u32; NUM_CTL],
    /// The translation lookaside buffer.
    pub tlb: Tlb,
    retired: u64,
    /// Execution-tier dispatcher backing [`Cpu::run`]: the selected
    /// [`ExecTier`] plus the superblock cache. Boxed and optional so
    /// `run` can lift it out for the duration of a call — one pointer
    /// out, one pointer back — and borrow superblocks from its cache
    /// while `execute` borrows the rest of the CPU. `None` only inside
    /// `run`.
    exec: Option<Box<ExecDispatcher>>,
}

/// Extension trait so programs can be loaded straight into a CPU+memory
/// pair.
pub trait LoadProgram {
    /// Loads the image into memory and points the CPU at the entry.
    fn load_into_cpu(&self, cpu: &mut Cpu, mem: &mut Memory);
}

impl LoadProgram for hvft_isa::program::Program {
    fn load_into_cpu(&self, cpu: &mut Cpu, mem: &mut Memory) {
        for seg in &self.segments {
            mem.write_bytes(seg.base, &seg.data);
        }
        cpu.pc = self.entry;
    }
}

impl Cpu {
    /// Creates a reset CPU with a TLB of `tlb_slots` entries.
    pub fn new(tlb_slots: usize, policy: TlbReplacement, tlb_seed: u64) -> Self {
        Cpu {
            regs: [0; 32],
            pc: 0,
            psw: Psw::reset(),
            ctl: [0; NUM_CTL],
            tlb: Tlb::new(tlb_slots, policy, tlb_seed),
            retired: 0,
            exec: Some(Box::default()),
        }
    }

    fn exec(&self) -> &ExecDispatcher {
        self.exec
            .as_deref()
            .expect("dispatcher is home outside run")
    }

    /// Selects the execution engine behind [`Cpu::run`]. Both tiers are
    /// observably identical — same exits at the same retirement counts
    /// with the same machine state; the knob exists for differential
    /// testing and performance work.
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.exec
            .as_deref_mut()
            .expect("dispatcher is home outside run")
            .tier = tier;
    }

    /// The execution tier [`Cpu::run`] currently uses.
    pub fn exec_tier(&self) -> ExecTier {
        self.exec().tier
    }

    /// Per-tier execution counters since reset.
    pub fn exec_stats(&self) -> ExecStats {
        self.exec().stats
    }

    /// Reads a general-purpose register (`r0` reads as zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Writes a general-purpose register (writes to `r0` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if r.index() != 0 {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Reads a control register.
    pub fn ctl(&self, cr: ControlReg) -> u32 {
        self.ctl[cr.index() as usize]
    }

    /// Writes a control register directly (embedder/hypervisor use).
    pub fn set_ctl(&mut self, cr: ControlReg, value: u32) {
        self.ctl[cr.index() as usize] = value;
    }

    /// The control register whose encoding number is `number` (the
    /// jit's register-move ops carry the number, not the register).
    #[inline]
    pub(crate) fn ctl_by_number(&mut self, number: u8) -> &mut u32 {
        &mut self.ctl[usize::from(number)]
    }

    /// Asserts external-interrupt request bits (`eirr |= bits`).
    pub fn raise_irq(&mut self, bits: u32) {
        self.ctl[ControlReg::Eirr.index() as usize] |= bits;
    }

    /// Pending *enabled* interrupt bits (`eirr & eiem`).
    pub fn pending_irq(&self) -> u32 {
        self.ctl(ControlReg::Eirr) & self.ctl(ControlReg::Eiem)
    }

    /// Total retired instructions since reset.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// All 32 general-purpose registers (for hashing and debug).
    pub fn regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// All control registers in index order (for hashing and debug).
    pub fn ctl_raw(&self) -> &[u32; NUM_CTL] {
        &self.ctl
    }

    /// Captures the architectural CPU state (plus the cumulative
    /// [`ExecStats`]) for a whole-machine snapshot. The superblock
    /// cache is derived state and is not captured.
    pub fn snapshot(&self) -> crate::snapshot::CpuSnapshot {
        crate::snapshot::CpuSnapshot {
            regs: self.regs,
            pc: self.pc,
            psw: self.psw,
            ctl: self.ctl,
            retired: self.retired,
            tier: self.exec().tier,
            exec_stats: self.exec().stats,
            tlb: self.tlb.snapshot_state(),
        }
    }

    /// Restores state captured by [`Cpu::snapshot`]. The dispatcher is
    /// replaced with a cold one (same tier, counters carried over):
    /// superblocks recompile on demand, which changes cache statistics
    /// but never architectural behaviour.
    pub fn restore(&mut self, snap: &crate::snapshot::CpuSnapshot) {
        self.regs = snap.regs;
        self.pc = snap.pc;
        self.psw = snap.psw;
        self.ctl = snap.ctl;
        self.retired = snap.retired;
        self.tlb.restore_state(&snap.tlb);
        self.exec = Some(Box::new(ExecDispatcher {
            tier: snap.tier,
            stats: snap.exec_stats,
            ..ExecDispatcher::default()
        }));
    }

    // -----------------------------------------------------------------
    // Trap delivery and completion helpers
    // -----------------------------------------------------------------

    /// Vectors the CPU through its interrupt vector table for `trap`,
    /// exactly as the hardware would: saves PSW/PC, enters privilege 0
    /// with translation and interrupts off, jumps to `iva + 32 * vector`.
    ///
    /// The recovery-counter enable is preserved: under the hypervisor all
    /// guest execution is counted, handlers included.
    pub fn deliver_trap(&mut self, trap: Trap) {
        self.set_ctl(ControlReg::Ipsw, self.psw.pack());
        self.set_ctl(ControlReg::Iip, self.pc);
        self.set_ctl(ControlReg::TrapArg, trap.trap_arg());
        self.psw = Psw::handler_entry(self.psw.recovery);
        self.pc = self.ctl(ControlReg::Iva) + 32 * trap.vector();
    }

    /// Like [`Cpu::deliver_trap`] but enters at the given privilege level
    /// instead of 0 — the hypervisor uses this to reflect traps into the
    /// guest kernel, which runs at real level 1 (paper §3.1's
    /// privilege-level mapping).
    pub fn deliver_trap_at(&mut self, trap: Trap, level: u8) {
        self.deliver_trap(trap);
        self.psw.cpl = level;
    }

    /// Completes an [`Exit::Env`] or [`Exit::MmioRead`]-style exit that
    /// produces a register value, then retires the instruction.
    pub fn complete_env_read(&mut self, rd: Reg, value: u32) {
        self.set_reg(rd, value);
        self.retire_next();
    }

    /// Completes an exit whose effect is external (timer arm, MMIO write,
    /// `idle` wake-up, `diag`), then retires the instruction.
    pub fn complete_env_effect(&mut self) {
        self.retire_next();
    }

    /// Completes an [`Exit::MmioRead`], applying width extension.
    pub fn complete_mmio_read(&mut self, rd: Reg, width: MemWidth, value: u32) {
        let raw = match width {
            MemWidth::Word => value,
            MemWidth::Byte | MemWidth::ByteU => u32::from(value as u8),
        };
        self.complete_env_read(rd, extend(width, raw));
    }

    /// Skips the instruction at PC without executing it (hypervisor use,
    /// after simulating a privileged instruction).
    pub fn retire_skip(&mut self) {
        self.retire_next();
    }

    /// Retires the current instruction with an explicit successor PC
    /// (hypervisor use, e.g. when simulating `rfi`).
    pub fn retire_to(&mut self, next_pc: u32) {
        self.retire_at(next_pc);
    }

    #[inline]
    fn retire_at(&mut self, next_pc: u32) {
        self.pc = next_pc;
        self.retired += 1;
        if self.psw.recovery {
            let rctr = self.ctl(ControlReg::Rctr);
            // Saturate at zero; the pre-step check raises the trap.
            self.set_ctl(ControlReg::Rctr, rctr.saturating_sub(1));
        }
    }

    #[inline]
    fn retire_next(&mut self) {
        self.retire_at(self.pc.wrapping_add(4));
    }

    // -----------------------------------------------------------------
    // Address translation
    // -----------------------------------------------------------------

    /// Translates a virtual address for the given access, honouring the
    /// PSW translation bit and privilege level.
    #[inline]
    pub fn translate(&mut self, vaddr: u32, access: TlbAccess) -> Result<u32, Trap> {
        if !self.psw.translation {
            return Ok(vaddr);
        }
        let user = self.psw.is_user();
        match self.tlb.lookup(vaddr, access, user) {
            TlbResult::Hit(p) => Ok(p),
            TlbResult::Miss => Err(Trap::TlbMiss {
                vaddr,
                write: access == TlbAccess::Write,
            }),
            TlbResult::Denied => Err(Trap::AccessFault {
                vaddr,
                write: access == TlbAccess::Write,
            }),
        }
    }

    /// Side-effect-free translation probe for derived-cache validation:
    /// the same outcome as [`Cpu::translate`] with every non-hit folded
    /// to `None`, but touching neither the TLB's front cache nor its
    /// hit/miss counters. The jit validates cross-page traces on every
    /// entry, and validation frequency depends on cache warmth — state
    /// that snapshot/restore deliberately drops — so it must not leak
    /// into the snapshotted accounting.
    #[inline]
    pub(crate) fn peek_translate(&self, vaddr: u32, access: TlbAccess) -> Option<u32> {
        if !self.psw.translation {
            return Some(vaddr);
        }
        match self.tlb.peek_lookup(vaddr, access, self.psw.is_user()) {
            TlbResult::Hit(p) => Some(p),
            TlbResult::Miss | TlbResult::Denied => None,
        }
    }

    // -----------------------------------------------------------------
    // Execution
    // -----------------------------------------------------------------

    /// Executes at most one instruction.
    ///
    /// Pre-execution checks, in priority order:
    /// 1. recovery-counter expiry (epoch boundary) when `psw.recovery`;
    /// 2. pending enabled external interrupt when `psw.interrupts`.
    ///
    /// Both are reported as [`Exit::Trap`] *without* executing the
    /// instruction at PC; the embedder decides how to deliver them.
    pub fn step(&mut self, mem: &mut Memory) -> Exit {
        if self.psw.recovery && self.ctl(ControlReg::Rctr) == 0 {
            return Exit::Trap(Trap::RecoveryCounter);
        }
        if self.psw.interrupts && self.pending_irq() != 0 {
            return Exit::Trap(Trap::ExternalInterrupt);
        }

        // Fetch.
        if !self.pc.is_multiple_of(4) {
            return Exit::Trap(Trap::AlignmentFault { vaddr: self.pc });
        }
        let fetch_pa = match self.translate(self.pc, TlbAccess::Execute) {
            Ok(p) => p,
            Err(t) => return Exit::Trap(t),
        };
        let word = match mem.read_u32(fetch_pa) {
            Ok(w) => w,
            Err(MemFault::Io { paddr } | MemFault::Unmapped { paddr }) => {
                return Exit::Trap(Trap::AccessFault {
                    vaddr: paddr,
                    write: false,
                });
            }
        };
        let insn = match decode(word) {
            Ok(i) => i,
            Err(_) => return Exit::Trap(Trap::IllegalInstruction { word }),
        };

        // Privilege check.
        if insn.is_privileged() && self.psw.cpl != 0 {
            return Exit::Trap(Trap::PrivilegedOp { word });
        }

        self.execute(insn, mem)
    }

    /// Executes up to `max_insns` instructions (counted by retirement)
    /// through the selected execution tier, returning at the first exit
    /// the embedder must handle, or [`Exit::Retired`] once the budget
    /// is consumed.
    ///
    /// Both tiers are observably identical — same exits at the same
    /// retirement counts with the same machine state — to calling
    /// [`Cpu::step`] in a loop `max_insns` times and stopping at the
    /// first non-retired exit. See [`crate::jit`] for why batching
    /// cannot move an epoch boundary or an interrupt-delivery point.
    ///
    /// This is [`Cpu::run_with`] and the hook that surfaces every exit.
    pub fn run(&mut self, mem: &mut Memory, max_insns: u64) -> Exit {
        self.run_with(mem, max_insns, &mut SurfaceAll)
    }

    /// [`Cpu::run`] with the embedder's emulation inside the loop:
    /// every exit other than plain retirement is offered to `assist`,
    /// and the run goes on — re-checked as at entry, for as many more
    /// instructions as the hook allows — until the hook surfaces an
    /// exit or the instruction goal is reached ([`Exit::Retired`]).
    ///
    /// Equivalent, exit for exit and state for state, to calling `run`
    /// in a loop and doing the hook's work between the calls; what it
    /// saves is the leaving and re-entering, and under the jit the
    /// frame: a handler's privileged instructions are ops of its trace,
    /// served by [`Assist::privileged`] (a control-register move by
    /// [`Assist::control`]) without leaving it, and so is the exit an
    /// op of a trace ends in — a guest syscall's `gate`, a bare
    /// kernel's `mftod` — which goes to [`Assist::exit`] from inside
    /// the frame. `&mut dyn` on purpose: the superblock executor is the
    /// hottest and most layout-sensitive function there is and must
    /// exist once.
    pub fn run_with(&mut self, mem: &mut Memory, max_insns: u64, assist: &mut dyn Assist) -> Exit {
        let mut goal = self.retired.saturating_add(max_insns);
        // Lift the dispatcher out of `self` so superblocks can be
        // borrowed from its cache while `execute` borrows `self`. This
        // must stay a pointer move: no allocation, no cache is copied.
        let mut exec = self.exec.take().expect("dispatcher is home outside run");
        let d = &mut *exec;
        d.stats.run_entries += 1;
        let exit = loop {
            let before = self.retired;
            let leave = match d.tier {
                ExecTier::Step => {
                    let mut e = Exit::Retired;
                    while self.retired < goal {
                        e = self.step(mem);
                        if e != Exit::Retired {
                            break;
                        }
                    }
                    d.stats.step_retired += self.retired - before;
                    Leave::Offer(e)
                }
                ExecTier::Jit => self.run_tiered(d, mem, &mut goal, assist),
            };
            // Where an exit the frame could not serve meets the embedder:
            // every exit of the step tier and of cold code, a template
            // op's fault or MMIO access, a pre-dispatch check. (A jit
            // assist op serves its own instruction's exit in-frame,
            // and what its hook surfaced arrives here already decided.)
            match leave {
                Leave::Offer(Exit::Retired) => break Exit::Retired,
                Leave::Offer(e) => match assist.exit(self, mem, e) {
                    Resume::Continue(n) => goal = self.retired.saturating_add(n),
                    Resume::Surface(e) => break e,
                },
                Leave::Surface(e) => break e,
            }
        };
        self.exec = Some(exec);
        exit
    }

    /// The jit dispatcher's pre-dispatch checks, identical to the first
    /// checks of [`Cpu::step`]: recovery-counter expiry, pending
    /// enabled interrupt, PC alignment. A superblock re-runs them after
    /// every op that can change their inputs (its assist ops), so
    /// checking here equals checking once per step.
    #[inline]
    pub(crate) fn pre_dispatch_check(&self) -> Option<Exit> {
        if self.psw.recovery && self.ctl(ControlReg::Rctr) == 0 {
            return Some(Exit::Trap(Trap::RecoveryCounter));
        }
        if self.psw.interrupts && self.pending_irq() != 0 {
            return Some(Exit::Trap(Trap::ExternalInterrupt));
        }
        if !self.pc.is_multiple_of(4) {
            return Some(Exit::Trap(Trap::AlignmentFault { vaddr: self.pc }));
        }
        None
    }

    /// The jit tier: compiled superblocks where they exist, the
    /// reference interpreter everywhere else (cold code, faults,
    /// undecodable starts). `goal` is the caller's: an assist op's hook
    /// moves it in-frame.
    fn run_tiered(
        &mut self,
        d: &mut ExecDispatcher,
        mem: &mut Memory,
        goal: &mut u64,
        assist: &mut dyn Assist,
    ) -> Leave {
        while self.retired < *goal {
            if let Some(e) = self.pre_dispatch_check() {
                return Leave::Offer(e);
            }
            // One translation covers the superblock's *entry* page; a
            // cross-page trace records its secondary (page, generation)
            // pairs and the probe re-validates every one before the
            // compiled code is entered.
            let fetch_pa = match self.translate(self.pc, TlbAccess::Execute) {
                Ok(p) => p,
                Err(t) => return Leave::Offer(Exit::Trap(t)),
            };
            d.stats.dispatches += 1;
            let before = self.retired;
            match d.jit.probe(fetch_pa, self, mem, &mut d.stats) {
                Lookup::Compiled(first) => {
                    // Internal superblock loop iterations and chained
                    // superblocks spend the retirement budget like any
                    // other op, so the frame stops at the exact
                    // retirement count.
                    let leave = d.jit.run_chain(
                        first,
                        self,
                        mem,
                        goal,
                        assist,
                        &mut d.context,
                        &mut d.stats,
                    );
                    d.stats.jit_retired += self.retired - before;
                    if let Some(leave) = leave {
                        return leave;
                    }
                }
                Lookup::Cold => {
                    let e = self.step_cold(mem, *goal);
                    d.stats.step_retired += self.retired - before;
                    if e != Exit::Retired {
                        return Leave::Offer(e);
                    }
                }
            }
        }
        Leave::Offer(Exit::Retired)
    }

    /// One cold dispatch of the jit tier: [`Cpu::step`] — every check,
    /// fetch and decode of the reference semantics, per instruction —
    /// until the goal, an exit, or the next address a dispatch (and the
    /// probe's heat count) belongs at: where control left the straight
    /// line, or the first word of the next page.
    fn step_cold(&mut self, mem: &mut Memory, goal: u64) -> Exit {
        loop {
            let next = self.pc.wrapping_add(4);
            let e = self.step(mem);
            if e != Exit::Retired
                || self.retired >= goal
                || self.pc != next
                || next.is_multiple_of(PAGE_SIZE)
            {
                return e;
            }
        }
    }

    /// Load semantics shared by [`Cpu::step`] and the jit so they
    /// cannot drift: alignment check, translation, access and width
    /// extension. `Ok` is the value for `rd`; `Err` is the exit
    /// (trap or MMIO) the caller must surface. Retirement is the
    /// caller's job.
    #[inline]
    pub(crate) fn access_load(
        &mut self,
        width: MemWidth,
        rd: Reg,
        base: Reg,
        disp: i32,
        mem: &Memory,
    ) -> Result<u32, Exit> {
        let vaddr = self.reg(base).wrapping_add(disp as u32);
        if width == MemWidth::Word && !vaddr.is_multiple_of(4) {
            return Err(Exit::Trap(Trap::AlignmentFault { vaddr }));
        }
        let paddr = self.translate(vaddr, TlbAccess::Read).map_err(Exit::Trap)?;
        let result = match width {
            MemWidth::Word => mem.read_u32(paddr),
            MemWidth::Byte | MemWidth::ByteU => mem.read_u8(paddr).map(u32::from),
        };
        match result {
            Ok(raw) => Ok(extend(width, raw)),
            Err(MemFault::Io { paddr }) => Err(Exit::MmioRead { paddr, width, rd }),
            Err(MemFault::Unmapped { paddr }) => Err(Exit::Trap(Trap::AccessFault {
                vaddr: paddr,
                write: false,
            })),
        }
    }

    /// Store counterpart of [`Cpu::access_load`], equally shared by
    /// both engines. `Ok(())` means the store hit RAM; `Err` is the
    /// exit to surface. Retirement is the caller's job.
    ///
    /// Forced inline: with `Memory`'s write accounting inside it the
    /// body is past the inliner's own threshold, and the jit's store
    /// ops must not pay a call per store.
    #[inline(always)]
    pub(crate) fn access_store(
        &mut self,
        width: MemWidth,
        rs: Reg,
        base: Reg,
        disp: i32,
        mem: &mut Memory,
    ) -> Result<(), Exit> {
        let vaddr = self.reg(base).wrapping_add(disp as u32);
        if width == MemWidth::Word && !vaddr.is_multiple_of(4) {
            return Err(Exit::Trap(Trap::AlignmentFault { vaddr }));
        }
        let paddr = self
            .translate(vaddr, TlbAccess::Write)
            .map_err(Exit::Trap)?;
        let value = self.reg(rs);
        let result = match width {
            MemWidth::Word => mem.write_u32(paddr, value),
            MemWidth::Byte | MemWidth::ByteU => mem.write_u8(paddr, value as u8),
        };
        match result {
            Ok(()) => Ok(()),
            Err(MemFault::Io { paddr }) => Err(Exit::MmioWrite {
                paddr,
                width,
                value,
            }),
            Err(MemFault::Unmapped { paddr }) => Err(Exit::Trap(Trap::AccessFault {
                vaddr: paddr,
                write: true,
            })),
        }
    }

    /// The retirement clamp a superblock frame is entered with:
    /// how many instructions may retire before the dispatcher must look
    /// again — the distance to `goal`, and under a live recovery counter
    /// no further than its expiry, so the counter can only expire
    /// *between* instructions, exactly where the per-step path traps.
    #[inline]
    pub(crate) fn batch_limit(&self, goal: u64) -> u64 {
        let to_goal = goal - self.retired;
        if self.psw.recovery {
            to_goal.min(u64::from(self.ctl(ControlReg::Rctr)))
        } else {
            to_goal
        }
    }

    /// Folds `done` retirements into the retired count and the recovery
    /// counter (a superblock's exit path sets the PC itself — it may
    /// have jumped). `done` never exceeds [`Cpu::batch_limit`], so the
    /// recovery counter cannot underflow.
    #[inline]
    pub(crate) fn sync_retire(&mut self, done: u64) {
        self.retired += done;
        if self.psw.recovery && done > 0 {
            let rctr = self.ctl(ControlReg::Rctr);
            self.set_ctl(ControlReg::Rctr, rctr - done as u32);
        }
    }

    /// Applies the architectural semantics of one decoded instruction
    /// to the state at the current PC, as privilege 0 would execute it:
    /// no fetch, **no privilege check**. This is the one definition of
    /// what an instruction does — [`Cpu::step`] and the jit's assist
    /// ops both end here — and the
    /// entry a hypervisor delegates to for every privileged instruction
    /// it does not virtualise. Retires the instruction and returns
    /// [`Exit::Retired`], or returns the exit the embedder must handle
    /// with nothing retired (`gate`/`brk` retire *and* trap).
    pub fn execute(&mut self, insn: Instruction, mem: &mut Memory) -> Exit {
        use Instruction as I;
        match insn {
            I::Alu { op, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let Some(v) = alu_value(op, a, b) else {
                    return Exit::Trap(Trap::ArithmeticError);
                };
                self.set_reg(rd, v);
                self.retire_next();
                Exit::Retired
            }
            I::AluImm { op, rd, rs1, imm } => {
                let v = alu_imm_value(op, self.reg(rs1), imm);
                self.set_reg(rd, v);
                self.retire_next();
                Exit::Retired
            }
            I::Lui { rd, imm } => {
                self.set_reg(rd, imm << 13);
                self.retire_next();
                Exit::Retired
            }
            I::Load {
                width,
                rd,
                base,
                disp,
            } => match self.access_load(width, rd, base, disp, mem) {
                Ok(v) => {
                    self.set_reg(rd, v);
                    self.retire_next();
                    Exit::Retired
                }
                Err(exit) => exit,
            },
            I::Store {
                width,
                rs,
                base,
                disp,
            } => match self.access_store(width, rs, base, disp, mem) {
                Ok(()) => {
                    self.retire_next();
                    Exit::Retired
                }
                Err(exit) => exit,
            },
            I::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                let next = if taken {
                    self.pc.wrapping_add(offset as u32)
                } else {
                    self.pc.wrapping_add(4)
                };
                self.retire_at(next);
                Exit::Retired
            }
            I::Jal { rd, offset } => {
                // PA-RISC quirk: the privilege level rides in the low bits
                // of the return address (paper §3.1).
                let link = self.pc.wrapping_add(4) | u32::from(self.psw.cpl);
                let target = self.pc.wrapping_add(offset as u32);
                self.set_reg(rd, link);
                self.retire_at(target);
                Exit::Retired
            }
            I::Jalr { rd, base, disp } => {
                let target = self.reg(base).wrapping_add(disp as u32) & !3;
                let link = self.pc.wrapping_add(4) | u32::from(self.psw.cpl);
                self.set_reg(rd, link);
                self.retire_at(target);
                Exit::Retired
            }
            I::MfTod { rd } => Exit::Env(EnvOp::ReadTod { rd }),
            I::MfTodH { rd } => Exit::Env(EnvOp::ReadTodHigh { rd }),
            I::MtIt { rs } => Exit::Env(EnvOp::SetTimer {
                value: self.reg(rs),
            }),
            I::MfIt { rd } => Exit::Env(EnvOp::ReadTimer { rd }),
            I::MtCtl { cr, rs } => {
                let v = self.reg(rs);
                if cr == ControlReg::Eirr {
                    // Write-one-to-clear, so handlers can acknowledge.
                    let cur = self.ctl(ControlReg::Eirr);
                    self.set_ctl(ControlReg::Eirr, cur & !v);
                } else {
                    self.set_ctl(cr, v);
                }
                self.retire_next();
                Exit::Retired
            }
            I::MfCtl { rd, cr } => {
                let v = self.ctl(cr);
                self.set_reg(rd, v);
                self.retire_next();
                Exit::Retired
            }
            I::Rfi => {
                let psw = Psw::unpack(self.ctl(ControlReg::Ipsw));
                let pc = self.ctl(ControlReg::Iip);
                // RFI is a retirement too, but the target PC comes from
                // iip; count it before switching context.
                self.retire_at(pc);
                self.psw = psw;
                Exit::Retired
            }
            I::Tlbi { rs1, rs2 } => {
                let vaddr = self.reg(rs1);
                let pte_word = self.reg(rs2);
                self.tlb.insert_pte(vaddr, pte_word);
                self.retire_next();
                Exit::Retired
            }
            I::Tlbp { rs } => {
                if rs.index() == 0 {
                    self.tlb.purge_all();
                } else {
                    let vaddr = self.reg(rs);
                    self.tlb.purge(vaddr);
                }
                self.retire_next();
                Exit::Retired
            }
            I::Gate { imm } => {
                // Retires, then traps: the handler returns to the next
                // instruction.
                self.retire_next();
                Exit::Trap(Trap::Gate { imm })
            }
            I::Brk { imm } => {
                self.retire_next();
                Exit::Trap(Trap::Break { imm })
            }
            I::Probe { rd, rs } => {
                let vaddr = self.reg(rs);
                if !self.psw.translation {
                    self.set_reg(rd, 1);
                    self.retire_next();
                    return Exit::Retired;
                }
                match self.tlb.lookup(vaddr, TlbAccess::Read, self.psw.is_user()) {
                    TlbResult::Hit(_) => {
                        self.set_reg(rd, 1);
                        self.retire_next();
                        Exit::Retired
                    }
                    TlbResult::Denied => {
                        self.set_reg(rd, 0);
                        self.retire_next();
                        Exit::Retired
                    }
                    TlbResult::Miss => Exit::Trap(Trap::TlbMiss {
                        vaddr,
                        write: false,
                    }),
                }
            }
            I::Ssm { imm } => {
                if imm & 1 != 0 {
                    self.psw.interrupts = true;
                }
                if imm & 2 != 0 {
                    self.psw.translation = true;
                }
                self.retire_next();
                Exit::Retired
            }
            I::Rsm { imm } => {
                if imm & 1 != 0 {
                    self.psw.interrupts = false;
                }
                if imm & 2 != 0 {
                    self.psw.translation = false;
                }
                self.retire_next();
                Exit::Retired
            }
            I::Halt => Exit::Halt,
            I::Idle => Exit::Idle,
            I::Diag { rs, imm } => Exit::Diag {
                value: self.reg(rs),
                code: imm,
            },
            I::Nop => {
                self.retire_next();
                Exit::Retired
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::pte;
    use hvft_isa::asm::assemble;

    fn setup(src: &str) -> (Cpu, Memory) {
        let prog = assemble(src).unwrap_or_else(|e| panic!("asm: {e}"));
        let mut mem = Memory::new(64 * 1024);
        let mut cpu = Cpu::new(16, TlbReplacement::RoundRobin, 0);
        prog.load_into_cpu(&mut cpu, &mut mem);
        (cpu, mem)
    }

    fn run_until_halt(cpu: &mut Cpu, mem: &mut Memory, max: u64) {
        for _ in 0..max {
            match cpu.step(mem) {
                Exit::Retired => {}
                Exit::Halt => return,
                other => panic!("unexpected exit {other:?} at pc={:#x}", cpu.pc),
            }
        }
        panic!("did not halt in {max} steps");
    }

    #[test]
    fn arithmetic_and_halt() {
        let (mut cpu, mut mem) = setup(
            "start:
                addi r4, r0, 10
                addi r5, r0, 32
                add  r6, r4, r5
                halt",
        );
        run_until_halt(&mut cpu, &mut mem, 10);
        assert_eq!(cpu.reg(Reg::of(6)), 42);
        assert_eq!(cpu.retired(), 3);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (mut cpu, mut mem) = setup("s: addi r0, r0, 99\n add r4, r0, r0\n halt");
        run_until_halt(&mut cpu, &mut mem, 10);
        assert_eq!(cpu.reg(Reg::ZERO), 0);
        assert_eq!(cpu.reg(Reg::of(4)), 0);
    }

    #[test]
    fn memory_round_trip_and_loop() {
        let (mut cpu, mut mem) = setup(
            "start:
                li   r4, 0x2000      ; buffer
                addi r5, r0, 5       ; counter
                addi r6, r0, 0       ; sum
            loop:
                sw   r5, 0(r4)
                lw   r7, 0(r4)
                add  r6, r6, r7
                addi r5, r5, -1
                bne  r5, r0, loop
                halt",
        );
        run_until_halt(&mut cpu, &mut mem, 100);
        assert_eq!(cpu.reg(Reg::of(6)), 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn byte_loads_sign_extend() {
        let (mut cpu, mut mem) = setup(
            "start:
                li   r4, 0x2000
                addi r5, r0, -1
                sb   r5, 0(r4)
                lb   r6, 0(r4)
                lbu  r7, 0(r4)
                halt",
        );
        run_until_halt(&mut cpu, &mut mem, 10);
        assert_eq!(cpu.reg(Reg::of(6)), 0xFFFF_FFFF);
        assert_eq!(cpu.reg(Reg::of(7)), 0xFF);
    }

    #[test]
    fn divide_by_zero_traps() {
        let (mut cpu, mut mem) = setup("s: addi r4, r0, 1\n divu r5, r4, r0\n halt");
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.step(&mut mem), Exit::Trap(Trap::ArithmeticError));
        // Faulting instruction did not retire.
        assert_eq!(cpu.retired(), 1);
    }

    #[test]
    fn jal_leaks_privilege_level_in_link() {
        let (mut cpu, mut mem) = setup("s: jal ra, target\ntarget: halt");
        cpu.psw.cpl = 3; // pretend user mode; jal is not privileged
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        // Link = (pc+4) | cpl = 4 | 3.
        assert_eq!(cpu.reg(Reg::RA), 4 | 3);
    }

    #[test]
    fn jalr_masks_privilege_bits() {
        let (mut cpu, mut mem) = setup(
            "s:
                jal  ra, sub      ; ra = 4 | cpl
                halt
            sub:
                jalr r0, ra, 0    ; must return to 4 even with dirty bits",
        );
        cpu.psw.cpl = 3;
        assert_eq!(cpu.step(&mut mem), Exit::Retired); // jal
        assert_eq!(cpu.step(&mut mem), Exit::Retired); // jalr back
        assert_eq!(cpu.pc, 4);
    }

    #[test]
    fn privileged_instruction_traps_above_level_0() {
        let (mut cpu, mut mem) = setup("s: halt");
        cpu.psw.cpl = 1;
        match cpu.step(&mut mem) {
            Exit::Trap(Trap::PrivilegedOp { .. }) => {}
            other => panic!("expected PrivilegedOp, got {other:?}"),
        }
        // At level 0 it becomes a Halt exit.
        cpu.psw.cpl = 0;
        assert_eq!(cpu.step(&mut mem), Exit::Halt);
    }

    #[test]
    fn gate_retires_then_traps() {
        let (mut cpu, mut mem) = setup("s: gate 7\n halt");
        cpu.psw.cpl = 3;
        assert_eq!(cpu.step(&mut mem), Exit::Trap(Trap::Gate { imm: 7 }));
        assert_eq!(cpu.retired(), 1);
        assert_eq!(cpu.pc, 4, "gate handler must return past the gate");
    }

    #[test]
    fn trap_delivery_and_rfi() {
        let (mut cpu, mut mem) = setup(
            ".org 0
            boot:
                li   r4, 0x1000
                mtctl iva, r4
                gate 3            ; to handler at iva + 32*7
                addi r5, r0, 77   ; resumed here
                halt
            .org 0x1000 + 224
            gate_handler:
                mfctl r6, traparg
                rfi",
        );
        // boot (li=2 insns, mtctl) then gate.
        for _ in 0..3 {
            assert_eq!(cpu.step(&mut mem), Exit::Retired);
        }
        match cpu.step(&mut mem) {
            Exit::Trap(t @ Trap::Gate { imm: 3 }) => cpu.deliver_trap(t),
            other => panic!("{other:?}"),
        }
        assert_eq!(cpu.pc, 0x1000 + 32 * 7);
        assert_eq!(cpu.psw.cpl, 0);
        // Handler: mfctl, rfi.
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.reg(Reg::of(6)), 3);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        // Resumed after the gate.
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.reg(Reg::of(5)), 77);
        assert_eq!(cpu.step(&mut mem), Exit::Halt);
    }

    #[test]
    fn recovery_counter_delimits_epochs() {
        let (mut cpu, mut mem) = setup("s: nop\n nop\n nop\n nop\n nop\n nop\n nop\n nop\n halt");
        cpu.psw.recovery = true;
        cpu.set_ctl(ControlReg::Rctr, 3);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        // Exactly 3 instructions retired; the 4th step reports the epoch end.
        assert_eq!(cpu.step(&mut mem), Exit::Trap(Trap::RecoveryCounter));
        assert_eq!(cpu.retired(), 3);
        // Re-arming continues execution.
        cpu.set_ctl(ControlReg::Rctr, 2);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.step(&mut mem), Exit::Trap(Trap::RecoveryCounter));
        assert_eq!(cpu.retired(), 5);
    }

    #[test]
    fn external_interrupt_checked_before_instruction() {
        let (mut cpu, mut mem) = setup("s: nop\n halt");
        cpu.psw.interrupts = true;
        cpu.set_ctl(ControlReg::Eiem, 0b1);
        cpu.raise_irq(0b1);
        assert_eq!(cpu.step(&mut mem), Exit::Trap(Trap::ExternalInterrupt));
        // Masked interrupts do not fire.
        cpu.set_ctl(ControlReg::Eiem, 0);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
    }

    #[test]
    fn eirr_write_one_to_clear() {
        let (mut cpu, mut mem) = setup("s: addi r4, r0, 1\n mtctl eirr, r4\n halt");
        cpu.raise_irq(0b11);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.ctl(ControlReg::Eirr), 0b10, "bit 0 cleared, bit 1 kept");
    }

    #[test]
    fn env_instructions_exit_at_level_0() {
        let (mut cpu, mut mem) = setup("s: mftod r4\n halt");
        match cpu.step(&mut mem) {
            Exit::Env(EnvOp::ReadTod { rd }) => {
                cpu.complete_env_read(rd, 123_456);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(cpu.reg(Reg::of(4)), 123_456);
        assert_eq!(cpu.retired(), 1);
        assert_eq!(cpu.step(&mut mem), Exit::Halt);
    }

    #[test]
    fn mmio_exits() {
        let (mut cpu, mut mem) = setup(
            "s:
                li r4, 0xF0000000
                lw r5, 0(r4)
                sw r5, 4(r4)
                halt",
        );
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        match cpu.step(&mut mem) {
            Exit::MmioRead {
                paddr,
                width: MemWidth::Word,
                rd,
            } => {
                assert_eq!(paddr, 0xF000_0000);
                cpu.complete_mmio_read(rd, MemWidth::Word, 0xAB);
            }
            other => panic!("{other:?}"),
        }
        match cpu.step(&mut mem) {
            Exit::MmioWrite { paddr, value, .. } => {
                assert_eq!(paddr, 0xF000_0004);
                assert_eq!(value, 0xAB);
                cpu.complete_env_effect();
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(cpu.step(&mut mem), Exit::Halt);
    }

    #[test]
    fn translation_and_tlb_miss() {
        let (mut cpu, mut mem) = setup("s: nop\n halt");
        // Map virtual page 8 to physical page 0 (where the code is).
        cpu.psw.translation = true;
        cpu.pc = 8 << 12;
        match cpu.step(&mut mem) {
            Exit::Trap(Trap::TlbMiss {
                vaddr,
                write: false,
            }) => assert_eq!(vaddr, 8 << 12),
            other => panic!("{other:?}"),
        }
        cpu.tlb.insert_pte(8 << 12, pte::V | pte::R | pte::X); // pfn 0
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.pc, (8 << 12) + 4);
    }

    #[test]
    fn user_mode_protection() {
        let (mut cpu, mut mem) = setup("s: lw r4, 0(r5)\n halt");
        cpu.psw.translation = true;
        cpu.psw.cpl = 3;
        cpu.set_reg(Reg::of(5), 9 << 12);
        // Executable+user for the code page at vpn 0 → pfn 0.
        cpu.tlb.insert_pte(0, pte::V | pte::R | pte::X | pte::U);
        // Kernel-only data page.
        cpu.tlb
            .insert_pte(9 << 12, (2 << 12) | pte::V | pte::R | pte::W);
        match cpu.step(&mut mem) {
            Exit::Trap(Trap::AccessFault {
                vaddr,
                write: false,
            }) => assert_eq!(vaddr, 9 << 12),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn misaligned_word_access_faults() {
        let (mut cpu, mut mem) = setup("s: li r4, 0x2001\n lw r5, 0(r4)\n halt");
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(
            cpu.step(&mut mem),
            Exit::Trap(Trap::AlignmentFault { vaddr: 0x2001 })
        );
    }

    #[test]
    fn illegal_instruction_traps() {
        let (mut cpu, mut mem) = setup("s: .word 0\n");
        match cpu.step(&mut mem) {
            Exit::Trap(Trap::IllegalInstruction { word: 0 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn probe_reports_accessibility() {
        let (mut cpu, mut mem) = setup("s: probe r4, r5\n probe r6, r7\n halt");
        cpu.psw.translation = true;
        cpu.tlb.insert_pte(0, pte::V | pte::R | pte::X); // code page
        cpu.tlb.insert_pte(5 << 12, (1 << 12) | pte::V | pte::R);
        cpu.set_reg(Reg::of(5), 5 << 12);
        cpu.set_reg(Reg::of(7), 5 << 12);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.reg(Reg::of(4)), 1);
        // Probe from user mode on a kernel page reports inaccessible —
        // this is how probe reveals the (real) privilege level.
        cpu.psw.cpl = 3;
        cpu.tlb.insert_pte(0, pte::V | pte::R | pte::X | pte::U);
        assert_eq!(cpu.step(&mut mem), Exit::Retired);
        assert_eq!(cpu.reg(Reg::of(6)), 0);
    }

    #[test]
    fn run_consumes_exact_budget_mid_straight_line() {
        let (mut cpu, mut mem) = setup("s: nop\n nop\n nop\n nop\n nop\n nop\n halt");
        assert_eq!(cpu.run(&mut mem, 2), Exit::Retired);
        assert_eq!(cpu.retired(), 2);
        assert_eq!(cpu.pc, 8, "budget must stop between instructions");
        assert_eq!(cpu.run(&mut mem, 100), Exit::Halt);
        assert_eq!(cpu.retired(), 6);
    }

    #[test]
    fn run_recovery_counter_is_exact() {
        let (mut cpu, mut mem) = setup("s: nop\n nop\n nop\n nop\n nop\n nop\n nop\n nop\n halt");
        cpu.psw.recovery = true;
        cpu.set_ctl(ControlReg::Rctr, 3);
        assert_eq!(
            cpu.run(&mut mem, 1000),
            Exit::Trap(Trap::RecoveryCounter),
            "the counter expires between instructions, at the exact count"
        );
        assert_eq!(cpu.retired(), 3);
        cpu.set_ctl(ControlReg::Rctr, 2);
        assert_eq!(cpu.run(&mut mem, 1000), Exit::Trap(Trap::RecoveryCounter));
        assert_eq!(cpu.retired(), 5);
    }

    #[test]
    fn run_reports_pending_interrupt_before_executing() {
        let (mut cpu, mut mem) = setup("s: nop\n nop\n halt");
        cpu.psw.interrupts = true;
        cpu.set_ctl(ControlReg::Eiem, 0b1);
        cpu.raise_irq(0b1);
        assert_eq!(cpu.run(&mut mem, 1000), Exit::Trap(Trap::ExternalInterrupt));
        assert_eq!(cpu.retired(), 0);
    }

    #[test]
    fn run_patching_ahead_within_the_same_trace() {
        // Once the loop is compiled, the store in it rewrites the
        // instruction *right after it in the same trace*. The jit must
        // abandon the compiled tail and re-fetch, exactly like the
        // per-step path: the patched word executes in the very
        // iteration that wrote it.
        let src = "start:
                lw   r4, 768(r0)     ; replacement word, poked below
                addi r5, r0, 100
                addi r7, r0, 40
            loop:
                addi r5, r5, -1
                bne  r5, r7, skip
                sw   r4, 24(r0)      ; iteration 60: patch the insn at `skip`
            skip:
                addi r6, r6, 1       ; address 24 <- patched to addi r6, r6, 10
                bne  r5, r0, loop
                halt";
        let patched = hvft_isa::codec::encode(Instruction::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::of(6),
            rs1: Reg::of(6),
            imm: 10,
        })
        .unwrap();
        let run_tier = |tier: ExecTier| {
            let (mut cpu, mut mem) = setup(src);
            mem.write_u32(768, patched).unwrap();
            cpu.set_exec_tier(tier);
            assert_eq!(cpu.run(&mut mem, 1_000_000), Exit::Halt);
            (cpu.reg(Reg::of(6)), cpu.retired(), cpu.exec_stats())
        };
        let (r6_step, retired_step, _) = run_tier(ExecTier::Step);
        let (r6_jit, retired_jit, stats) = run_tier(ExecTier::Jit);
        assert_eq!(
            r6_step,
            59 + 41 * 10,
            "patched instruction must be executed"
        );
        assert_eq!((r6_jit, retired_jit), (r6_step, retired_step));
        assert!(
            stats.jit_invalidations >= 1,
            "the patch must land in compiled code: {stats:?}"
        );
    }

    #[test]
    fn jit_tier_matches_the_step_loop_on_a_hot_loop() {
        let src = "start:
                addi r5, r0, 200
            loop:
                addi r6, r6, 1
                sw   r6, 512(r0)
                lw   r7, 512(r0)
                addi r5, r5, -1
                bne  r5, r0, loop
                halt";
        let run_tier = |tier: ExecTier| {
            let (mut cpu, mut mem) = setup(src);
            cpu.set_exec_tier(tier);
            assert_eq!(cpu.run(&mut mem, 1_000_000), Exit::Halt);
            (
                cpu.reg(Reg::of(6)),
                cpu.reg(Reg::of(7)),
                cpu.retired(),
                cpu.pc,
            )
        };
        let step = run_tier(ExecTier::Step);
        let jit = run_tier(ExecTier::Jit);
        assert_eq!(step, jit);
    }

    #[test]
    fn jit_tier_promotes_and_retires_in_superblocks() {
        let (mut cpu, mut mem) = setup(
            "start:
                addi r5, r0, 500
            loop:
                addi r6, r6, 1
                addi r5, r5, -1
                bne  r5, r0, loop
                halt",
        );
        cpu.set_exec_tier(ExecTier::Jit);
        assert_eq!(cpu.run(&mut mem, 1_000_000), Exit::Halt);
        assert_eq!(cpu.reg(Reg::of(6)), 500);
        let stats = cpu.exec_stats();
        assert!(stats.superblocks_compiled >= 1, "{stats:?}");
        assert!(
            stats.jit_retired > stats.step_retired,
            "the hot loop must run compiled: {stats:?}"
        );
    }

    #[test]
    fn a_cold_run_ends_at_the_page_edge_where_a_trace_starts() {
        // The loop body falls through from page 0 into page 1. A trace
        // stops at a page edge no `jal` led it across, so the loop is
        // two traces and the second starts at the first word of page 1.
        // The cold run stops there as well, so that address collects
        // its heat from the first iteration on and both halves compile
        // together — not the second one sixteen cold iterations later.
        let (mut cpu, mut mem) = setup(
            "start:
                addi r5, r0, 100
                jal  r0, loop
            .org 4088
            loop:
                addi r6, r6, 1
                addi r5, r5, -1
                addi r7, r7, 1       ; address 4096: page 1
                bne  r5, r0, loop
                halt",
        );
        assert_eq!(cpu.run(&mut mem, 1_000_000), Exit::Halt);
        assert_eq!((cpu.reg(Reg::of(6)), cpu.reg(Reg::of(7))), (100, 100));
        let stats = cpu.exec_stats();
        assert_eq!(stats.superblocks_compiled, 2, "{stats:?}");
        // Two cold instructions to get here, fifteen cold iterations of
        // four, and the `halt`'s own cold attempts retire nothing.
        assert_eq!(stats.step_retired, 2 + 15 * 4, "{stats:?}");
    }

    #[test]
    fn jit_recovery_counter_is_exact_inside_superblock_loops() {
        // The loop is hot enough to be compiled with its backward
        // branch wired in-span; the recovery counter must still expire
        // at the exact retirement count, mid-loop, every epoch.
        let (mut cpu, mut mem) = setup(
            "start:
                addi r5, r0, 1000
            loop:
                addi r6, r6, 1
                addi r5, r5, -1
                bne  r5, r0, loop
                halt",
        );
        cpu.set_exec_tier(ExecTier::Jit);
        cpu.psw.recovery = true;
        let mut retired_expect = 0u64;
        loop {
            cpu.set_ctl(ControlReg::Rctr, 7);
            match cpu.run(&mut mem, 1_000_000) {
                Exit::Trap(Trap::RecoveryCounter) => {
                    retired_expect += 7;
                    assert_eq!(cpu.retired(), retired_expect);
                    assert_eq!(cpu.ctl(ControlReg::Rctr), 0);
                }
                Exit::Halt => break,
                other => panic!("unexpected exit {other:?}"),
            }
        }
        assert_eq!(cpu.reg(Reg::of(6)), 1000);
    }

    #[test]
    fn jit_self_patching_superblock_is_abandoned_and_recompiled() {
        // Warm the loop so it compiles, then let it patch an
        // instruction *inside its own superblock* ahead of the PC.
        // Identical architectural results are required on both tiers.
        let src = "start:
                lw   r4, 768(r0)     ; replacement word, poked below
                addi r5, r0, 100
            loop:
                addi r6, r6, 1       ; address 8 <- patched mid-run
                addi r5, r5, -1
                sw   r4, 8(r0)       ; patch the loop body behind us
                bne  r5, r0, loop
                halt";
        let patched = hvft_isa::codec::encode(Instruction::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::of(6),
            rs1: Reg::of(6),
            imm: 10,
        })
        .unwrap();
        let run_tier = |tier: ExecTier| {
            let (mut cpu, mut mem) = setup(src);
            mem.write_u32(768, patched).unwrap();
            cpu.set_exec_tier(tier);
            assert_eq!(cpu.run(&mut mem, 1_000_000), Exit::Halt);
            (cpu.reg(Reg::of(6)), cpu.retired())
        };
        let step = run_tier(ExecTier::Step);
        let jit = run_tier(ExecTier::Jit);
        assert_eq!(step, jit);
        // The patch landed: 1 iteration of +1, 99 of +10.
        assert_eq!(step.0, 1 + 99 * 10);
    }

    #[test]
    fn idle_and_diag_exits() {
        let (mut cpu, mut mem) = setup("s: diag r4, 9\n idle\n halt");
        cpu.set_reg(Reg::of(4), 0xBEEF);
        assert_eq!(
            cpu.step(&mut mem),
            Exit::Diag {
                value: 0xBEEF,
                code: 9
            }
        );
        cpu.complete_env_effect();
        assert_eq!(cpu.step(&mut mem), Exit::Idle);
        cpu.complete_env_effect();
        assert_eq!(cpu.step(&mut mem), Exit::Halt);
    }
}
