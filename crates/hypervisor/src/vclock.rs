//! The virtual time-of-day clock and interval timer.
//!
//! Under replication, clock reads are *environment instructions*: their
//! results must be identical at the primary and backup even though the
//! two processors execute at different real times. We realize the
//! paper's `Tme` synchronization by deriving virtual time from the
//! **retired-instruction count** — a quantity the protocols already keep
//! identical — at the nominal 50 MIPS rate. The primary still ships its
//! clock state to the backup each epoch (`Tme_p`, rule P2), and the
//! backup still assigns it (`Tme_b := Tme_p`, rule P5); with this
//! derivation the assignment is also a bit-exact no-op, which makes
//! divergence detectable as a protocol bug.

/// Virtual clock state; part of what the `[Tme]` message carries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VClock {
    /// Virtual nanoseconds accumulated up to `base_retired`.
    base_ns: u64,
    /// Retired-instruction count at which `base_ns` was taken.
    base_retired: u64,
    /// Interval-timer expiry, as a retired-instruction count.
    timer_deadline: Option<u64>,
}

/// Nanoseconds of virtual time per retired instruction (50 MIPS).
pub const NS_PER_INSN: u64 = 20;
/// Instructions per virtual microsecond.
pub const INSNS_PER_US: u64 = 1000 / NS_PER_INSN;

impl VClock {
    /// A clock starting at virtual time zero, timer unarmed.
    pub fn new() -> Self {
        VClock {
            base_ns: 0,
            base_retired: 0,
            timer_deadline: None,
        }
    }

    /// Virtual time in nanoseconds at the given retired count.
    pub fn tod_ns(&self, retired: u64) -> u64 {
        self.base_ns + (retired - self.base_retired) * NS_PER_INSN
    }

    /// Virtual time in microseconds (what `mftod` returns, split into
    /// low/high words).
    pub fn tod_us(&self, retired: u64) -> u64 {
        self.tod_ns(retired) / 1000
    }

    /// Arms the interval timer to fire `us` microseconds from `retired`.
    pub fn set_timer(&mut self, us: u32, retired: u64) {
        self.timer_deadline = Some(retired + u64::from(us) * INSNS_PER_US);
    }

    /// Remaining microseconds on the timer (0 if unarmed or expired).
    pub fn timer_remaining_us(&self, retired: u64) -> u32 {
        match self.timer_deadline {
            Some(d) if d > retired => ((d - retired) / INSNS_PER_US) as u32,
            _ => 0,
        }
    }

    /// If the timer expired at or before `retired`, disarms it and
    /// reports `true`. Called at epoch boundaries: "primary adds to
    /// buffer any interrupts based on Tme_p" (rule P2).
    pub fn take_expired_timer(&mut self, retired: u64) -> bool {
        match self.timer_deadline {
            Some(d) if d <= retired => {
                self.timer_deadline = None;
                true
            }
            _ => false,
        }
    }

    /// Whether the timer is armed.
    pub fn timer_armed(&self) -> bool {
        self.timer_deadline.is_some()
    }

    /// Snapshot for the `[Tme_p]` message.
    pub fn snapshot(&self) -> VClock {
        *self
    }

    /// `Tme_b := Tme_p` (rule P5).
    pub fn assign(&mut self, other: VClock) {
        *self = other;
    }
}

impl Default for VClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tod_advances_with_instructions() {
        let c = VClock::new();
        assert_eq!(c.tod_us(0), 0);
        assert_eq!(c.tod_us(50), 1); // 50 instructions = 1 µs at 50 MIPS
        assert_eq!(c.tod_us(50_000_000), 1_000_000); // 1 simulated second
    }

    #[test]
    fn timer_fires_after_programmed_interval() {
        let mut c = VClock::new();
        c.set_timer(100, 1000); // 100 µs from instruction 1000
        assert!(!c.take_expired_timer(1000 + 99 * INSNS_PER_US));
        assert_eq!(c.timer_remaining_us(1000), 100);
        assert!(c.take_expired_timer(1000 + 100 * INSNS_PER_US));
        // One-shot: a second take reports nothing.
        assert!(!c.take_expired_timer(u64::MAX));
        assert!(!c.timer_armed());
    }

    #[test]
    fn remaining_clamps_to_zero() {
        let mut c = VClock::new();
        c.set_timer(10, 0);
        assert_eq!(c.timer_remaining_us(10 * INSNS_PER_US + 5), 0);
        assert_eq!(VClock::new().timer_remaining_us(123), 0);
    }

    #[test]
    fn snapshot_assign_round_trip() {
        let mut a = VClock::new();
        a.set_timer(500, 42);
        let mut b = VClock::new();
        b.assign(a.snapshot());
        assert_eq!(a, b);
    }
}
