//! The memory-mapped I/O register map shared by guests and hosts.
//!
//! All device registers live in the physical I/O window (see
//! `hvft_machine::mem::IO_BASE`). Offsets here are relative to that base;
//! the guest mini-OS hard-codes the same constants in its driver.
//!
//! [`DiskController`] is the disk's half of that window as a guest sees
//! it — registers, and what a write of GO starts — kept once per host by
//! every driver.

use crate::disk::{DiskCommand, DiskStatus, BLOCK_SIZE};

/// Disk controller register block offset.
pub const DISK_BASE: u32 = 0x100;
/// Disk: target block number (read/write).
pub const DISK_REG_BLOCK: u32 = DISK_BASE;
/// Disk: DMA physical address in host RAM (read/write).
pub const DISK_REG_ADDR: u32 = DISK_BASE + 0x4;
/// Disk: command/GO register; writing a [`disk_cmd`] value starts the operation.
pub const DISK_REG_CMD: u32 = DISK_BASE + 0x8;
/// Disk: status register (read), a [`disk_status`] value.
pub const DISK_REG_STATUS: u32 = DISK_BASE + 0xC;

/// Console register block offset.
pub const CONSOLE_BASE: u32 = 0x200;
/// Console: transmit register; writing a byte emits it.
pub const CONSOLE_REG_TX: u32 = CONSOLE_BASE;
/// Console: status register (always ready in this model).
pub const CONSOLE_REG_STATUS: u32 = CONSOLE_BASE + 0x4;

/// Values written to [`DISK_REG_CMD`].
pub mod disk_cmd {
    /// Start a block read.
    pub const READ: u32 = 1;
    /// Start a block write.
    pub const WRITE: u32 = 2;
}

/// Values read from [`DISK_REG_STATUS`].
pub mod disk_status {
    /// No operation in flight and none completed since the last command.
    pub const IDLE: u32 = 0;
    /// Operation in flight.
    pub const BUSY: u32 = 1;
    /// Last operation completed successfully (IO1 completion interrupt).
    pub const DONE: u32 = 2;
    /// Last operation's outcome is uncertain (IO2 / SCSI
    /// `CHECK_CONDITION`); the driver must retry.
    pub const UNCERTAIN: u32 = 3;

    /// The status a completion posts.
    pub const fn of(status: super::DiskStatus) -> u32 {
        match status {
            super::DiskStatus::Complete => DONE,
            super::DiskStatus::Uncertain => UNCERTAIN,
        }
    }
}

/// The disk controller as a guest sees it: the block, DMA-address and
/// status registers of one host's I/O window. The bare machine keeps
/// one, and so does every replica (a rejoining one is sent its
/// donor's). Its registers move only at guest writes, at a GO and at a
/// delivery, all points of the guest's instruction stream, so every
/// replica's copy is the same. Which operations are outstanding is not
/// the controller's to say: the disk keeps the one in flight, and a
/// replica's protocol engine counts what rule P7 asks about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DiskController {
    /// [`DISK_REG_BLOCK`].
    pub block: u32,
    /// [`DISK_REG_ADDR`].
    pub addr: u32,
    /// [`DISK_REG_STATUS`], a [`disk_status`] value: a delivered
    /// completion (or a refusal's UNCERTAIN answer) posts it.
    pub status: u32,
}

/// An operation a write of GO started: the command, and the block and
/// DMA address latched at GO.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DiskGo {
    /// The command GO named.
    pub cmd: DiskCommand,
    /// The block register at GO.
    pub block: u32,
    /// The DMA-address register at GO.
    pub addr: u32,
}

/// What a guest's write to GO asks of its host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Go {
    /// The value names no [`disk_cmd`]: the write is ignored.
    Ignored,
    /// The block's DMA range does not lie in RAM, so the controller
    /// refuses the operation before any disk sees it. The host answers
    /// as it does when the disk refuses one — it delivers an UNCERTAIN
    /// status and a disk interrupt, so the driver retries — and nothing
    /// is in flight.
    Refused,
    /// An operation for the disk.
    Start(DiskGo),
}

impl DiskController {
    /// The registers at reset: block and address 0, status idle.
    pub const RESET: DiskController = DiskController {
        block: 0,
        addr: 0,
        status: disk_status::IDLE,
    };

    /// What a guest read of the disk register at offset `off` of the I/O
    /// window returns; 0 for any other offset.
    pub fn read(&self, off: u32) -> u32 {
        match off {
            DISK_REG_STATUS => self.status,
            DISK_REG_BLOCK => self.block,
            DISK_REG_ADDR => self.addr,
            _ => 0,
        }
    }

    /// Latches a guest write at offset `off` of the I/O window into the
    /// block or DMA-address register; a write anywhere else is not the
    /// controller's (GO is [`DiskController::go`]'s).
    pub fn write(&mut self, off: u32, value: u32) {
        match off {
            DISK_REG_BLOCK => self.block = value,
            DISK_REG_ADDR => self.addr = value,
            _ => {}
        }
    }

    /// What a write of `value` to GO does on a host of `ram_bytes` of
    /// RAM, with the registers latched now.
    pub fn go(&self, value: u32, ram_bytes: usize) -> Go {
        let cmd = match value {
            disk_cmd::READ => DiskCommand::Read,
            disk_cmd::WRITE => DiskCommand::Write,
            _ => return Go::Ignored,
        };
        let end = (self.addr as usize).checked_add(BLOCK_SIZE);
        if end.is_none_or(|end| end > ram_bytes) {
            return Go::Refused;
        }
        Go::Start(DiskGo {
            cmd,
            block: self.block,
            addr: self.addr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_blocks_do_not_overlap() {
        let disk = [DISK_REG_BLOCK, DISK_REG_ADDR, DISK_REG_CMD, DISK_REG_STATUS];
        let console = [CONSOLE_REG_TX, CONSOLE_REG_STATUS];
        for d in disk {
            for c in console {
                assert_ne!(d, c);
            }
        }
    }

    #[test]
    fn registers_are_word_aligned() {
        for r in [
            DISK_REG_BLOCK,
            DISK_REG_ADDR,
            DISK_REG_CMD,
            DISK_REG_STATUS,
            CONSOLE_REG_TX,
        ] {
            assert_eq!(r % 4, 0, "register {r:#x} must be aligned");
        }
    }

    #[test]
    fn a_dma_range_past_ram_is_refused_at_go() {
        let mut regs = DiskController::RESET;
        let ram = 4 * BLOCK_SIZE;
        regs.write(DISK_REG_BLOCK, 3);
        regs.write(DISK_REG_ADDR, (ram - BLOCK_SIZE) as u32);
        let last = DiskGo {
            cmd: DiskCommand::Write,
            block: 3,
            addr: (ram - BLOCK_SIZE) as u32,
        };
        assert_eq!(regs.go(disk_cmd::WRITE, ram), Go::Start(last));
        for addr in [ram - BLOCK_SIZE + 1, ram, u32::MAX as usize] {
            regs.write(DISK_REG_ADDR, addr as u32);
            assert_eq!(regs.go(disk_cmd::READ, ram), Go::Refused, "{addr:#x}");
        }
        assert_eq!(regs.go(7, ram), Go::Ignored, "not a command");
        assert_eq!(regs.read(DISK_REG_ADDR), u32::MAX);
    }
}
