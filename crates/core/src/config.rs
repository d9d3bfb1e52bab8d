//! Configuration of the fault-tolerant virtual-machine system.

use hvft_hypervisor::cost::CostModel;
use hvft_hypervisor::hvguest::HvConfig;
use hvft_net::link::LinkSpec;
use hvft_sim::time::SimDuration;

/// Which replica-coordination protocol to run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolVariant {
    /// The §2 protocol: at every epoch boundary the primary awaits
    /// acknowledgments for all messages previously sent (rule P2).
    Old,
    /// The §4.3 revision: epoch boundaries do not wait; instead the
    /// primary must have all messages acknowledged before initiating any
    /// I/O operation (the only way VM state is revealed).
    New,
}

/// Full system configuration.
#[derive(Clone, Copy, Debug)]
pub struct FtConfig {
    /// Per-guest hypervisor configuration (epoch length, TLB policy…).
    pub hv: HvConfig,
    /// Timing cost model.
    pub cost: CostModel,
    /// Coordination link between the two hypervisors.
    pub link: LinkSpec,
    /// Protocol variant.
    pub protocol: ProtocolVariant,
    /// Per-message loss probability on every coordination link. The §2
    /// protocols assume a lossless network; any value above `0.0`
    /// models the lossy LAN of §4.3 and requires [`FtConfig::retransmit`]
    /// for the run to make progress (without it, a lost `[Tme]` or
    /// `[end]` permanently stalls an epoch boundary).
    pub loss_prob: f64,
    /// Retransmission timeout of the link-level ack/retransmit layer
    /// (`hvft-net::reliable`), or `None` to run on raw channels as the
    /// §2 prototype does. Should comfortably exceed the worst-case
    /// round trip — an 8 KB disk-read forward takes ≈ 7 ms on the
    /// 10 Mbps Ethernet — and divide the failure-detection timeout many
    /// times over, so a run of unlucky drops is recovered well before a
    /// backup falsely suspects the primary.
    pub retransmit: Option<SimDuration>,
    /// Bounded NIC-queue backpressure: a sender whose outbound queueing
    /// delay (`busy_until - now`) exceeds this bound blocks until the
    /// queue drains below it, making the §4.3 (New) saturated regime
    /// physical instead of infinite-buffer. `None` (the default)
    /// preserves the paper's NP-model assumption of unbounded buffering
    /// — Table 1 runs are unchanged.
    pub nic_queue_bound: Option<SimDuration>,
    /// Number of ordered backups (`t` of the t-fault-tolerant VM). The
    /// paper's prototype is `1`; any `t ≥ 1` runs the same engines with
    /// cascading failover.
    pub backups: usize,
    /// Backup's failure-detection timeout. Must exceed the longest
    /// legitimate message gap (one epoch of execution plus queueing);
    /// the backup only suspects the primary after draining the channel,
    /// matching the paper's detection assumption.
    pub detector_timeout: SimDuration,
    /// Disk size in blocks.
    pub disk_blocks: u32,
    /// Probability a disk operation reports an uncertain outcome (IO2),
    /// independent of failover-synthesized ones.
    pub disk_fault_prob: f64,
    /// Base RNG seed for the shared environment (disk faults, etc.).
    pub seed: u64,
    /// Safety limit on total retired instructions per guest.
    pub max_insns: u64,
    /// Whether to hash both VM states at every epoch boundary and record
    /// divergence (costs simulation wall time, not simulated time).
    pub lockstep_check: bool,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            hv: HvConfig::default(),
            cost: CostModel::hp9000_720(),
            link: LinkSpec::ethernet_10mbps(),
            protocol: ProtocolVariant::Old,
            loss_prob: 0.0,
            retransmit: None,
            nic_queue_bound: None,
            backups: 1,
            detector_timeout: SimDuration::from_millis(60),
            disk_blocks: 128,
            disk_fault_prob: 0.0,
            seed: 0,
            max_insns: 2_000_000_000,
            lockstep_check: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_prototype() {
        let c = FtConfig::default();
        assert_eq!(c.protocol, ProtocolVariant::Old);
        assert_eq!(c.hv.epoch_len, 4096);
        assert_eq!(c.link.bits_per_sec, 10_000_000);
        assert_eq!(c.backups, 1, "the paper's prototype has one backup");
    }

    #[test]
    fn default_network_is_lossless_and_raw() {
        let c = FtConfig::default();
        assert_eq!(c.loss_prob, 0.0);
        assert!(
            c.retransmit.is_none(),
            "the §2 prototype runs on raw lossless channels"
        );
        assert!(
            c.nic_queue_bound.is_none(),
            "the paper's NP model assumes unbounded NIC buffering"
        );
    }

    #[test]
    fn detector_timeout_exceeds_link_latency() {
        let c = FtConfig::default();
        assert!(c.detector_timeout > c.link.payload_latency(9000) * 4);
    }
}
