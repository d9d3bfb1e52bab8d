//! Coordination messages between the primary's and backup's hypervisors.
//!
//! These are the messages of §2's protocol: `[E, Int]` interrupt
//! forwarding (P1), the `[Tme_p]` clock state and `[end, E]` epoch
//! completion (P2), and acknowledgments (P4). Each carries a sequence
//! number so the primary can tell when everything it sent has been
//! acknowledged — the condition rule P2 (original protocol) waits for at
//! every epoch boundary, and the revised protocol of §4.3 waits for only
//! before I/O operations.

use hvft_devices::mmio::{disk_status, DiskController};
use hvft_hypervisor::hvguest::HvGuestSnapshot;
use hvft_hypervisor::vclock::VClock;
use hvft_machine::trap::irq;
use std::rc::Rc;

/// A forwarded interrupt: what `[E, Int]` carries.
///
/// For disk completions this includes the data read, because "processing
/// a read request requires the primary's hypervisor to forward a copy of
/// the data read to the backup" (§4.2) — input must reach both replicas.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ForwardedInterrupt {
    /// `eirr` bits to assert at delivery.
    pub irq_bits: u32,
    /// Disk completion payload, if this is a disk interrupt.
    pub disk: Option<DiskCompletion>,
}

impl ForwardedInterrupt {
    /// The disk interrupt that answers an operation of unknown outcome
    /// with [`disk_status::UNCERTAIN`], so the guest driver retries: a
    /// GO the disk refused, and rule P7's.
    pub const UNCERTAIN: ForwardedInterrupt = ForwardedInterrupt {
        irq_bits: irq::DISK,
        disk: Some(DiskCompletion {
            status: disk_status::UNCERTAIN,
            data: None,
        }),
    };
}

/// Payload of a forwarded disk-completion interrupt.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DiskCompletion {
    /// Controller status the guest will read (`disk_status` values).
    pub status: u32,
    /// For a read whose transfer happened, the DMA address its GO
    /// latched (from the disk's record of the operation) and the block
    /// contents to write there: a backup needs no GO record of its own.
    pub data: Option<(u32, Vec<u8>)>,
}

/// The canonical state of one replica, captured at an epoch boundary
/// and shipped to a repaired processor during reintegration: the guest
/// snapshot, the guest-visible disk controller, and the donor engine's
/// count of outstanding disk operations. Derived caches (JIT
/// superblocks, TLB front array) are never shipped — the receiver
/// rebuilds them, invisibly to the VM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaState {
    /// The whole virtual machine plus hypervisor bookkeeping.
    pub guest: HvGuestSnapshot,
    /// The disk controller's registers.
    pub controller: DiskController,
    /// Disk GOs the guest started that no delivered disk interrupt has
    /// answered ([`crate::protocol::ReplicaEngine::outstanding`]): the
    /// receiver's engine starts from it, and rule P7 reads it if the
    /// receiver is promoted.
    pub outstanding: u32,
}

/// A protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// P1: `[E, Int]` — an interrupt received during the primary's epoch
    /// `E`, to be delivered at the end of the backup's epoch `E`.
    Interrupt {
        /// Sender's sequence number.
        seq: u64,
        /// Epoch tag.
        epoch: u64,
        /// The interrupt and any input payload.
        interrupt: ForwardedInterrupt,
    },
    /// P2: `[Tme_p]` — the primary's virtual clock state at the end of
    /// epoch `E`.
    Time {
        /// Sender's sequence number.
        seq: u64,
        /// Epoch whose boundary this snapshot belongs to.
        epoch: u64,
        /// The clock state; the backup performs `Tme_b := Tme_p`.
        vclock: VClock,
    },
    /// P2: `[end, E]` — the primary completed epoch `E`.
    EpochEnd {
        /// Sender's sequence number.
        seq: u64,
        /// The completed epoch.
        epoch: u64,
    },
    /// P4: cumulative acknowledgment of every sequence number up to and
    /// including `upto` (channels are FIFO, so cumulative acks suffice).
    Ack {
        /// Highest sequence number received.
        upto: u64,
    },
    /// Reintegration: one bounded-size chunk of a whole-replica state
    /// transfer taken at an epoch boundary. Chunks are driver traffic —
    /// the receiving engine never sees them — and are unsequenced at
    /// the protocol level (like [`Message::Ack`]); under loss they ride
    /// the link-level ack/retransmission layer like any other frame.
    /// Only the final chunk carries the state object (the simulation
    /// ships structure once; the link model charges per-chunk `bytes`).
    StateChunk {
        /// Epoch boundary at which the snapshot was taken.
        epoch: u64,
        /// Chunk index, `0 .. total`.
        index: u32,
        /// Total chunks in this transfer.
        total: u32,
        /// Modelled payload bytes of this chunk.
        bytes: u32,
        /// The full replica state, present on the final chunk only.
        state: Option<Rc<ReplicaState>>,
    },
}

impl Message {
    /// Approximate wire size in bytes (headers, clock state, protocol
    /// framing), used by the link model. Control messages are one link
    /// message; a forwarded 8 KB disk read becomes the paper's
    /// "9 messages for the data". The `[Tme]` size is calibrated so the
    /// Ethernet→ATM epoch-boundary saving reproduces Figure 4's
    /// 1.84 → 1.66 prediction at 32 K epochs.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Message::Interrupt { interrupt, .. } => {
                let data = interrupt
                    .disk
                    .as_ref()
                    .and_then(|d| d.data.as_ref())
                    .map_or(0, |(_, block)| block.len());
                64 + data
            }
            Message::Time { .. } => 150,
            Message::EpochEnd { .. } => 60,
            Message::Ack { .. } => 26,
            Message::StateChunk { bytes, .. } => 64 + *bytes as usize,
        }
    }

    /// The sender-side sequence number (acks and state-transfer chunks
    /// are unsequenced at the protocol level).
    pub fn seq(&self) -> Option<u64> {
        match *self {
            Message::Interrupt { seq, .. }
            | Message::Time { seq, .. }
            | Message::EpochEnd { seq, .. } => Some(seq),
            Message::Ack { .. } | Message::StateChunk { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        let small = Message::EpochEnd { seq: 1, epoch: 2 };
        assert!(small.wire_bytes() < 100);
        let big = Message::Interrupt {
            seq: 2,
            epoch: 3,
            interrupt: ForwardedInterrupt {
                irq_bits: 2,
                disk: Some(DiskCompletion {
                    status: 2,
                    data: Some((0, vec![0; 8192])),
                }),
            },
        };
        assert!(big.wire_bytes() > 8192);
    }

    #[test]
    fn disk_read_block_is_nine_link_messages() {
        // The paper: "this requires 9 messages for the data and 1 message
        // for an acknowledgement" on the 10 Mbps Ethernet.
        let link = hvft_net::link::LinkSpec::ethernet_10mbps();
        let msg = Message::Interrupt {
            seq: 0,
            epoch: 0,
            interrupt: ForwardedInterrupt {
                irq_bits: 2,
                disk: Some(DiskCompletion {
                    status: 2,
                    data: Some((0, vec![0; 8192])),
                }),
            },
        };
        assert_eq!(link.messages_for(msg.wire_bytes()), 9);
    }

    #[test]
    fn seq_extraction() {
        assert_eq!(Message::Ack { upto: 9 }.seq(), None);
        assert_eq!(Message::EpochEnd { seq: 4, epoch: 0 }.seq(), Some(4));
    }
}
