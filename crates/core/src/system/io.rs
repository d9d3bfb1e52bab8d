//! The disk path of [`FtSystem`]: a guest's MMIO accesses to its
//! device registers, the I/O the engine releases at the acting primary,
//! the disk's completion, and the device half of interrupt delivery.

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
    // I/O at the acting primary
    // -----------------------------------------------------------------

    /// Carries out an externally visible I/O the engine released.
    pub(super) fn perform_io(&mut self, i: usize, io: PendingIo) {
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
        host.issued_at = Some(host.now);
        let dma = host.guest.mem.read_bytes(go.addr, BLOCK_SIZE);
        if self.disk.submit(host.now, i as u8, go, dma).is_ok() {
            return;
        }
        // The disk refused (bad block / busy) and left any operation in
        // flight alone: surface as an immediate uncertain completion
        // through the normal buffered path so all replicas see it
        // identically.
        let fwd = ForwardedInterrupt {
            irq_bits: irq::DISK,
            disk: Some(DiskCompletion {
                status: mmio::disk_status::UNCERTAIN,
                data: None,
            }),
        };
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
        let is_primary = self.hosts[i].engine.is_primary();
        match off {
            mmio::DISK_REG_CMD => {
                let h = &mut self.hosts[i];
                match h.controller.go(value, h.guest.mem.size()) {
                    Go::Ignored => {}
                    Go::Refused => {
                        // The refusal depends only on the registers and
                        // the RAM size, so every replica refuses the same
                        // GO at the same instruction: each answers it
                        // itself, outside the message stream, and nothing
                        // is in flight.
                        h.controller.deliver(mmio::disk_status::UNCERTAIN);
                        h.guest.assert_irq(irq::DISK);
                    }
                    Go::Start(go) if is_primary => {
                        // The MMIO completes when the engine releases it.
                        h.held_io = Some(PendingIo::DiskGo(go));
                        return self.engine(i, Input::Io);
                    }
                    // Case (i) of §2.2: backup I/O is suppressed; the
                    // controller counts it for rule P7.
                    Go::Start(_) => h.issued_at = Some(h.now),
                }
            }
            mmio::CONSOLE_REG_TX if is_primary => {
                self.hosts[i].held_io = Some(PendingIo::ConsoleTx { byte: value as u8 });
                return self.engine(i, Input::Io);
            }
            // The block and address registers latch; backup console
            // output is suppressed entirely.
            _ => self.hosts[i].controller.write(off, value),
        }
        self.hosts[i].guest.finish_mmio_write();
        self.hosts[i].sync_clock();
    }

    // -----------------------------------------------------------------
    // Interrupt delivery
    // -----------------------------------------------------------------

    /// The device half of interrupt delivery: status register, DMA data,
    /// and operation-latency accounting.
    pub(super) fn apply_interrupt_payload(&mut self, i: usize, fwd: &ForwardedInterrupt) {
        let host = &mut self.hosts[i];
        if let Some(dc) = &fwd.disk {
            host.controller.deliver(dc.status);
            if let Some((addr, block)) = &dc.data {
                host.guest.mem.write_bytes(*addr, block);
            }
            if let Some(at) = host.issued_at.take() {
                host.op_latencies.push(host.now - at);
            }
        }
    }

    /// Rule P7 with no surviving backups: the uncertain interrupt is
    /// applied locally, outside the message stream.
    pub(super) fn synthesize_uncertain(&mut self, i: usize) {
        let host = &mut self.hosts[i];
        host.controller.deliver(mmio::disk_status::UNCERTAIN);
        host.guest.assert_irq(irq::DISK);
        if let Some(at) = host.issued_at.take() {
            host.op_latencies.push(host.now - at);
        }
        let at = self.hosts[i].now;
        self.notify(|o| o.interrupt_delivered(i, irq::DISK, at));
    }
}
