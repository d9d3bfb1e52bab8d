//! The disk path of [`FtSystem`]: a guest's MMIO accesses to its
//! device registers, the I/O the engine releases at the acting primary
//! or suppresses at a backup, the disk's completion, and the device
//! half of interrupt delivery.

use super::{FtSystem, PendingIo};
use crate::messages::{DiskCompletion, ForwardedInterrupt};
use crate::protocol::Input;
use hvft_devices::disk::BLOCK_SIZE;
use hvft_devices::mmio::{self, DiskGo, Go};
use hvft_isa::instruction::MemWidth;
use hvft_isa::reg::Reg;
use hvft_machine::mem::IO_BASE;
use hvft_machine::trap::irq;

impl FtSystem {
    // -----------------------------------------------------------------
    // I/O the engine answered
    // -----------------------------------------------------------------

    /// Completes the guest's held MMIO write once the engine answered
    /// it: at the acting primary by performing the I/O (`release`), at
    /// a backup by suppressing it (rule P3). A backup cannot see a GO
    /// the disk refuses, so every replica times its operations from the
    /// first GO that finds no clock running: a busy refusal leaves the
    /// clock of the write in flight alone, and a refusal with nothing in
    /// flight is timed alike at the primary and the backups.
    pub(super) fn answer_io(&mut self, i: usize, release: bool) {
        let host = &mut self.hosts[i];
        let io = host.held_io.take().expect("I/O to answer");
        if let PendingIo::DiskGo(_) = io {
            host.issued_at.get_or_insert(host.now);
        }
        if release {
            self.perform_io(i, io);
        }
        self.hosts[i].guest.finish_mmio_write();
        self.hosts[i].sync_clock();
    }

    /// Carries out an externally visible I/O the engine released.
    fn perform_io(&mut self, i: usize, io: PendingIo) {
        match io {
            PendingIo::DiskGo(go) => self.disk_go(i, go),
            PendingIo::ConsoleTx { byte } => {
                let now = self.hosts[i].now;
                self.console.write(now, i as u8, byte);
            }
        }
    }

    fn disk_go(&mut self, i: usize, go: DiskGo) {
        let host = &mut self.hosts[i];
        let dma = host.guest.mem.read_bytes(go.addr, BLOCK_SIZE);
        if self.disk.submit(host.now, i as u8, go, dma).is_ok() {
            return;
        }
        // The disk refused (bad block / busy) and left any operation in
        // flight alone: surface as an immediate uncertain completion
        // through the normal buffered path so all replicas see it
        // identically.
        let fwd = ForwardedInterrupt::UNCERTAIN;
        let guest_epoch = host.guest.epoch();
        self.engine(i, Input::Interrupt { guest_epoch, fwd });
    }

    /// Rule P1: the disk completes the operation host `i` issued.
    pub(super) fn disk_completion(&mut self, i: usize) {
        self.hosts[i].charge(self.cfg.cost.hv_entry_exit);
        let (go, status, data) = self.disk.complete();
        let fwd = ForwardedInterrupt {
            irq_bits: irq::DISK,
            disk: Some(DiskCompletion {
                status: mmio::disk_status::of(status),
                data: data.map(|block| (go.addr, block)),
            }),
        };
        let guest_epoch = self.hosts[i].guest.epoch();
        self.engine(i, Input::Interrupt { guest_epoch, fwd });
    }

    // -----------------------------------------------------------------
    // MMIO handling
    // -----------------------------------------------------------------

    pub(super) fn handle_mmio_read(&mut self, i: usize, paddr: u32, width: MemWidth, rd: Reg) {
        let value = match paddr.wrapping_sub(IO_BASE) {
            mmio::CONSOLE_REG_STATUS => 1, // always ready
            off => self.hosts[i].controller.read(off),
        };
        self.hosts[i].guest.finish_mmio_read(rd, width, value);
        self.hosts[i].sync_clock();
    }

    pub(super) fn handle_mmio_write(&mut self, i: usize, paddr: u32, value: u32) {
        let off = paddr.wrapping_sub(IO_BASE);
        let h = &mut self.hosts[i];
        let io = match off {
            mmio::DISK_REG_CMD => match h.controller.go(value, h.guest.mem.size()) {
                Go::Ignored => None,
                Go::Refused => {
                    // The refusal depends only on the registers and the
                    // RAM size, so every replica refuses the same GO at
                    // the same instruction: each answers it itself,
                    // outside the message stream, and nothing is in
                    // flight.
                    h.controller.status = mmio::disk_status::UNCERTAIN;
                    h.guest.assert_irq(irq::DISK);
                    None
                }
                Go::Start(go) => Some(PendingIo::DiskGo(go)),
            },
            mmio::CONSOLE_REG_TX => Some(PendingIo::ConsoleTx { byte: value as u8 }),
            // The block and address registers latch.
            _ => {
                h.controller.write(off, value);
                None
            }
        };
        let Some(io) = io else {
            h.guest.finish_mmio_write();
            return h.sync_clock();
        };
        // Every replica's engine sees the GO or the byte; the MMIO
        // completes when it answers (see `FtSystem::answer_io`).
        h.held_io = Some(io);
        let disk = matches!(io, PendingIo::DiskGo(_));
        self.engine(i, Input::Io { disk });
    }

    // -----------------------------------------------------------------
    // Interrupt delivery
    // -----------------------------------------------------------------

    /// Delivers one interrupt into host `i`'s guest, with its device
    /// half: status register, DMA data, and operation-latency
    /// accounting — an operation is timed until the disk interrupt that
    /// leaves nothing outstanding, so a busy refusal's answer does not
    /// stop the clock of the write in flight.
    pub(super) fn deliver_interrupt(&mut self, i: usize, fwd: &ForwardedInterrupt) {
        let host = &mut self.hosts[i];
        host.guest.assert_irq(fwd.irq_bits);
        if let Some(dc) = &fwd.disk {
            host.controller.status = dc.status;
            if let Some((addr, block)) = &dc.data {
                host.guest.mem.write_bytes(*addr, block);
            }
            if host.engine.outstanding() == 0 {
                if let Some(at) = host.issued_at.take() {
                    host.op_latencies.push(host.now - at);
                }
            }
        }
        let at = host.now;
        self.notify(|o| o.interrupt_delivered(i, fwd.irq_bits, at));
    }
}
