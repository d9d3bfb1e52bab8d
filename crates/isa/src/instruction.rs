//! The hvft instruction set.
//!
//! A 32-bit fixed-width RISC ISA modelled on the features of HP PA-RISC
//! that the paper's protocols depend on:
//!
//! - **ordinary instructions** (ALU, memory, control transfer) whose effect
//!   is fully determined by the virtual-machine state;
//! - **environment instructions** (time-of-day clock, interval timer,
//!   `halt`/`idle`) whose effect is not, and which must therefore be
//!   simulated by the hypervisor;
//! - the PA-RISC *virtualization holes* the paper's §3 works around:
//!   `jal`/`jalr` deposit the current privilege level in the low bits of the
//!   return address, and `probe`/`gate` reveal the privilege level;
//! - a **recovery counter** control register for epoch delimitation.
//!
//! I/O is memory-mapped: loads and stores to device pages reach the devices
//! (or trap to the hypervisor), exactly as on PA-RISC.

use crate::reg::{ControlReg, Reg};
use core::fmt;

/// Three-register ALU operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Two's-complement addition (wrapping).
    Add,
    /// Two's-complement subtraction (wrapping).
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left by `rs2 & 31`.
    Sll,
    /// Logical shift right by `rs2 & 31`.
    Srl,
    /// Arithmetic shift right by `rs2 & 31`.
    Sra,
    /// Signed less-than (result 0 or 1).
    Slt,
    /// Unsigned less-than (result 0 or 1).
    Sltu,
    /// Wrapping multiplication (low 32 bits).
    Mul,
    /// Unsigned division; divide-by-zero raises an arithmetic trap.
    Divu,
    /// Unsigned remainder; divide-by-zero raises an arithmetic trap.
    Remu,
}

/// Register-immediate ALU operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluImmOp {
    /// Add sign-extended 14-bit immediate.
    Addi,
    /// AND with zero-extended 14-bit immediate.
    Andi,
    /// OR with zero-extended 14-bit immediate.
    Ori,
    /// XOR with zero-extended 14-bit immediate.
    Xori,
    /// Signed less-than against sign-extended immediate.
    Slti,
    /// Shift left logical by immediate (0..=31).
    Slli,
    /// Shift right logical by immediate (0..=31).
    Srli,
    /// Shift right arithmetic by immediate (0..=31).
    Srai,
}

/// Memory access widths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemWidth {
    /// 32-bit word (must be 4-byte aligned).
    Word,
    /// Sign-extended byte.
    Byte,
    /// Zero-extended byte (loads only).
    ByteU,
}

/// Branch conditions comparing two registers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

/// A decoded hvft instruction.
///
/// Displayed in assembler syntax:
///
/// ```
/// use hvft_isa::instruction::Instruction;
/// use hvft_isa::reg::Reg;
///
/// let i = Instruction::Jalr { rd: Reg::ZERO, base: Reg::RA, disp: 0 };
/// assert_eq!(format!("{i}"), "jalr r0, r1, 0");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instruction {
    /// Three-register ALU operation: `rd := rs1 op rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Register-immediate ALU operation: `rd := rs1 op imm`.
    AluImm {
        /// Operation.
        op: AluImmOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate; interpretation (sign/zero extension) depends on `op`.
        imm: i32,
    },
    /// Load upper immediate: `rd := imm19 << 13`.
    Lui {
        /// Destination.
        rd: Reg,
        /// 19-bit immediate (stored unshifted).
        imm: u32,
    },
    /// Load from memory: `rd := mem[rs1 + disp]`.
    Load {
        /// Access width.
        width: MemWidth,
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed 14-bit displacement.
        disp: i32,
    },
    /// Store to memory: `mem[rs1 + disp] := rs`.
    Store {
        /// Access width (`ByteU` is invalid for stores).
        width: MemWidth,
        /// Value register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Signed 14-bit displacement.
        disp: i32,
    },
    /// Conditional branch, PC-relative: `if rs1 cond rs2 then pc += offset`.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First comparand.
        rs1: Reg,
        /// Second comparand.
        rs2: Reg,
        /// Byte offset from the branch instruction (multiple of 4).
        offset: i32,
    },
    /// Jump and link, PC-relative.
    ///
    /// **PA-RISC quirk (paper §3.1):** the return address written to `rd`
    /// is `(pc + 4) | cpl` — the current privilege level leaks into the
    /// low bits, which is exactly why HP-UX's boot-time `branch-and-link`
    /// use had to be patched.
    Jal {
        /// Link register (receives `(pc+4) | cpl`).
        rd: Reg,
        /// Byte offset from this instruction (multiple of 4).
        offset: i32,
    },
    /// Jump and link register: `pc := (rs1 + disp) & !3`, same link quirk.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Signed displacement.
        disp: i32,
    },
    /// Read low 32 bits of the time-of-day clock (environment; privileged).
    MfTod {
        /// Destination.
        rd: Reg,
    },
    /// Read high 32 bits of the time-of-day clock (environment; privileged).
    MfTodH {
        /// Destination.
        rd: Reg,
    },
    /// Load the interval timer: an external interrupt fires after `rs`
    /// microseconds (environment; privileged).
    MtIt {
        /// Countdown in microseconds.
        rs: Reg,
    },
    /// Read the interval timer's remaining microseconds (environment;
    /// privileged).
    MfIt {
        /// Destination.
        rd: Reg,
    },
    /// Move to control register (privileged).
    MtCtl {
        /// Destination control register.
        cr: ControlReg,
        /// Source.
        rs: Reg,
    },
    /// Move from control register (privileged).
    MfCtl {
        /// Destination.
        rd: Reg,
        /// Source control register.
        cr: ControlReg,
    },
    /// Return from interruption: `psw := ipsw; pc := iip` (privileged).
    Rfi,
    /// TLB insert: map the page of vaddr `rs1` per PTE word `rs2`
    /// (privileged).
    Tlbi {
        /// Virtual address whose page is being mapped.
        rs1: Reg,
        /// PTE word: `pfn << 12 | flags`.
        rs2: Reg,
    },
    /// TLB purge: remove the entry for vaddr `rs`; purge all if `rs` is
    /// `r0` (privileged).
    Tlbp {
        /// Virtual address selector.
        rs: Reg,
    },
    /// Controlled privilege promotion — traps to the kernel's gate vector
    /// with `imm` as the service number (non-privileged; reveals privilege
    /// by its very semantics, one of the paper's virtualization holes).
    Gate {
        /// Service number, available to the kernel in `traparg`.
        imm: u32,
    },
    /// Probe read access to vaddr `rs` at the current privilege level:
    /// `rd := 1` if readable else 0 (non-privileged; reveals privilege).
    Probe {
        /// Result register.
        rd: Reg,
        /// Address to test.
        rs: Reg,
    },
    /// Set system-mask bits in the PSW (privileged): bit 0 enables
    /// interrupts, bit 1 enables translation.
    Ssm {
        /// Mask of PSW bits to set.
        imm: u32,
    },
    /// Reset system-mask bits in the PSW (privileged); same bit layout as
    /// [`Instruction::Ssm`].
    Rsm {
        /// Mask of PSW bits to clear.
        imm: u32,
    },
    /// Stop the processor (environment; privileged).
    Halt,
    /// Wait until an external interrupt is pending (environment;
    /// privileged).
    Idle,
    /// Breakpoint trap.
    Brk {
        /// Debugger tag.
        imm: u32,
    },
    /// Diagnostic escape: signals the simulation harness (privileged).
    ///
    /// Used by benchmark guests to mark iteration boundaries; a real
    /// machine would treat it as a no-op diagnose instruction.
    Diag {
        /// Argument register.
        rs: Reg,
        /// Marker code.
        imm: u32,
    },
    /// No operation.
    Nop,
}

impl Instruction {
    /// Whether this instruction is **privileged**: executing it at any
    /// privilege level other than 0 raises a `PrivilegedOp` trap.
    ///
    /// Under the hypervisor the guest kernel runs at (real) level 1, so
    /// every privileged instruction traps and is simulated — this is the
    /// mechanism behind the paper's Environment Instruction Assumption.
    pub const fn is_privileged(self) -> bool {
        matches!(
            self,
            Instruction::MfTod { .. }
                | Instruction::MfTodH { .. }
                | Instruction::MtIt { .. }
                | Instruction::MfIt { .. }
                | Instruction::MtCtl { .. }
                | Instruction::MfCtl { .. }
                | Instruction::Rfi
                | Instruction::Tlbi { .. }
                | Instruction::Tlbp { .. }
                | Instruction::Ssm { .. }
                | Instruction::Rsm { .. }
                | Instruction::Halt
                | Instruction::Idle
                | Instruction::Diag { .. }
        )
    }

    /// Whether this is an **environment instruction** in the paper's sense:
    /// its behaviour is *not* fully determined by the virtual-machine state,
    /// so the hypervisor must simulate it identically at primary and backup.
    pub const fn is_environment(self) -> bool {
        matches!(
            self,
            Instruction::MfTod { .. }
                | Instruction::MfTodH { .. }
                | Instruction::MtIt { .. }
                | Instruction::MfIt { .. }
                | Instruction::Halt
                | Instruction::Idle
        )
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction as I;
        match *self {
            I::Alu { op, rd, rs1, rs2 } => {
                let name = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::And => "and",
                    AluOp::Or => "or",
                    AluOp::Xor => "xor",
                    AluOp::Sll => "sll",
                    AluOp::Srl => "srl",
                    AluOp::Sra => "sra",
                    AluOp::Slt => "slt",
                    AluOp::Sltu => "sltu",
                    AluOp::Mul => "mul",
                    AluOp::Divu => "divu",
                    AluOp::Remu => "remu",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            I::AluImm { op, rd, rs1, imm } => {
                let name = match op {
                    AluImmOp::Addi => "addi",
                    AluImmOp::Andi => "andi",
                    AluImmOp::Ori => "ori",
                    AluImmOp::Xori => "xori",
                    AluImmOp::Slti => "slti",
                    AluImmOp::Slli => "slli",
                    AluImmOp::Srli => "srli",
                    AluImmOp::Srai => "srai",
                };
                write!(f, "{name} {rd}, {rs1}, {imm}")
            }
            I::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            I::Load {
                width,
                rd,
                base,
                disp,
            } => {
                let name = match width {
                    MemWidth::Word => "lw",
                    MemWidth::Byte => "lb",
                    MemWidth::ByteU => "lbu",
                };
                write!(f, "{name} {rd}, {disp}({base})")
            }
            I::Store {
                width,
                rs,
                base,
                disp,
            } => {
                let name = match width {
                    MemWidth::Word => "sw",
                    MemWidth::Byte | MemWidth::ByteU => "sb",
                };
                write!(f, "{name} {rs}, {disp}({base})")
            }
            I::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let name = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{name} {rs1}, {rs2}, {offset}")
            }
            I::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            I::Jalr { rd, base, disp } => write!(f, "jalr {rd}, {base}, {disp}"),
            I::MfTod { rd } => write!(f, "mftod {rd}"),
            I::MfTodH { rd } => write!(f, "mftodh {rd}"),
            I::MtIt { rs } => write!(f, "mtit {rs}"),
            I::MfIt { rd } => write!(f, "mfit {rd}"),
            I::MtCtl { cr, rs } => write!(f, "mtctl {cr}, {rs}"),
            I::MfCtl { rd, cr } => write!(f, "mfctl {rd}, {cr}"),
            I::Rfi => write!(f, "rfi"),
            I::Tlbi { rs1, rs2 } => write!(f, "tlbi {rs1}, {rs2}"),
            I::Tlbp { rs } => write!(f, "tlbp {rs}"),
            I::Gate { imm } => write!(f, "gate {imm}"),
            I::Ssm { imm } => write!(f, "ssm {imm}"),
            I::Rsm { imm } => write!(f, "rsm {imm}"),
            I::Probe { rd, rs } => write!(f, "probe {rd}, {rs}"),
            I::Halt => write!(f, "halt"),
            I::Idle => write!(f, "idle"),
            I::Brk { imm } => write!(f, "brk {imm}"),
            I::Diag { rs, imm } => write!(f, "diag {rs}, {imm}"),
            I::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privileged_classification() {
        assert!(Instruction::Halt.is_privileged());
        assert!(Instruction::Rfi.is_privileged());
        assert!(Instruction::MfTod { rd: Reg::of(1) }.is_privileged());
        assert!(!Instruction::Gate { imm: 3 }.is_privileged());
        assert!(!Instruction::Probe {
            rd: Reg::of(1),
            rs: Reg::of(2)
        }
        .is_privileged());
        assert!(!Instruction::Nop.is_privileged());
        assert!(!Instruction::Alu {
            op: AluOp::Add,
            rd: Reg::of(1),
            rs1: Reg::of(2),
            rs2: Reg::of(3)
        }
        .is_privileged());
    }

    #[test]
    fn environment_classification() {
        // Environment instructions are exactly those whose results depend on
        // state outside the virtual machine.
        assert!(Instruction::MfTod { rd: Reg::of(1) }.is_environment());
        assert!(Instruction::MtIt { rs: Reg::of(1) }.is_environment());
        assert!(Instruction::Idle.is_environment());
        // Control-register moves are privileged but their effects are part
        // of the VM state, hence not environment instructions.
        assert!(!Instruction::MtCtl {
            cr: ControlReg::Rctr,
            rs: Reg::of(1)
        }
        .is_environment());
        assert!(!Instruction::Rfi.is_environment());
    }

    #[test]
    fn decoded_storage_is_compact() {
        // Superblock assist tables store decoded instructions by
        // value; keep the enum small enough to stay cache-friendly.
        assert!(std::mem::size_of::<Instruction>() <= 16);
    }

    #[test]
    fn display_forms() {
        use Instruction as I;
        let cases: Vec<(I, &str)> = vec![
            (
                I::Alu {
                    op: AluOp::Add,
                    rd: Reg::of(1),
                    rs1: Reg::of(2),
                    rs2: Reg::of(3),
                },
                "add r1, r2, r3",
            ),
            (
                I::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::of(4),
                    rs1: Reg::ZERO,
                    imm: -5,
                },
                "addi r4, r0, -5",
            ),
            (
                I::Lui {
                    rd: Reg::of(5),
                    imm: 0x1f,
                },
                "lui r5, 0x1f",
            ),
            (
                I::Load {
                    width: MemWidth::Word,
                    rd: Reg::of(6),
                    base: Reg::SP,
                    disp: 8,
                },
                "lw r6, 8(r2)",
            ),
            (
                I::Store {
                    width: MemWidth::Byte,
                    rs: Reg::of(7),
                    base: Reg::GP,
                    disp: -4,
                },
                "sb r7, -4(r3)",
            ),
            (
                I::Branch {
                    cond: BranchCond::Ne,
                    rs1: Reg::of(1),
                    rs2: Reg::ZERO,
                    offset: -8,
                },
                "bne r1, r0, -8",
            ),
            (
                I::Jal {
                    rd: Reg::RA,
                    offset: 16,
                },
                "jal r1, 16",
            ),
            (
                I::MtCtl {
                    cr: ControlReg::Eiem,
                    rs: Reg::of(9),
                },
                "mtctl eiem, r9",
            ),
            (I::Rfi, "rfi"),
            (I::Halt, "halt"),
        ];
        for (insn, expect) in cases {
            assert_eq!(format!("{insn}"), expect);
        }
    }
}
