//! The round-synchronous chain's abstract coordination medium.
//!
//! The protocol engines in `hvft-core` are medium-agnostic: the same
//! P1–P7 rule logic drives the realistic DES (whose
//! [`crate::channel::Channel`]s and [`crate::lan::Lan`] model occupancy
//! and propagation) and the t-fault chain, whose [`InstantLink`] reduces
//! messages to their information content.

use std::collections::VecDeque;

/// The t-fault chain's abstract link: FIFO, lossless, and instantaneous
/// (the chain is round-synchronous, so "instantaneous" means "within
/// the same round").
///
/// # Examples
///
/// ```
/// use hvft_net::transport::InstantLink;
///
/// let mut link = InstantLink::new();
/// assert!(link.send(7));
/// link.sever();
/// assert!(!link.send(8), "a severed link accepts nothing");
/// assert_eq!(link.pop_ready(), Some(7), "in-flight messages still arrive");
/// assert_eq!(link.pop_ready(), None);
/// ```
pub struct InstantLink<M> {
    queue: VecDeque<M>,
    severed: bool,
}

impl<M> InstantLink<M> {
    /// An empty link.
    pub fn new() -> Self {
        InstantLink {
            queue: VecDeque::new(),
            severed: false,
        }
    }

    /// Offers `msg` for delivery; returns whether the link accepted it
    /// (a severed link drops everything).
    pub fn send(&mut self, msg: M) -> bool {
        if !self.severed {
            self.queue.push_back(msg);
        }
        !self.severed
    }

    /// Pops the oldest undelivered message.
    pub fn pop_ready(&mut self) -> Option<M> {
        self.queue.pop_front()
    }

    /// Permanently stops accepting new messages; in-flight messages are
    /// still delivered (a crashed sender's last words arrive).
    pub fn sever(&mut self) {
        self.severed = true;
    }
}

impl<M> Default for InstantLink<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_link_is_fifo_and_immediate() {
        let mut l: InstantLink<u32> = InstantLink::new();
        assert!(l.send(1));
        assert!(l.send(2));
        assert_eq!(l.pop_ready(), Some(1));
        assert_eq!(l.pop_ready(), Some(2));
        assert_eq!(l.pop_ready(), None);
    }

    #[test]
    fn instant_link_severs_like_a_channel() {
        let mut l: InstantLink<u8> = InstantLink::new();
        l.send(7);
        l.sever();
        assert!(!l.send(8));
        // The in-flight message still arrives.
        assert_eq!(l.pop_ready(), Some(7));
        assert_eq!(l.pop_ready(), None);
    }
}
