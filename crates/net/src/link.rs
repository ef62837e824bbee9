//! Link types: the lossy in-order front link and the reliable FIFO
//! back link.

use crate::delay::DelayModel;
use crate::loss::LossModel;
use crate::{Rng, Tick};

/// Counters maintained by every link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages handed to the link.
    pub sent: u64,
    /// Messages dropped by the loss model.
    pub dropped: u64,
}

/// Outcome of handing one message to a lossy link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmit {
    /// The message was lost in transit.
    Dropped,
    /// The message will arrive at the given absolute tick.
    DeliverAt {
        /// Absolute arrival time.
        at: Tick,
    },
}

/// A UDP-like front link: per-message loss and delay; delivery order is
/// whatever the delays produce, and the receiver is expected to discard
/// overtaken messages by their seqnos (the paper's "tag all messages
/// with a sequence number and let the receiver discard messages that
/// arrive out of order" — `rcm_transport::SeqGate`).
#[derive(Debug)]
pub struct LossyLink {
    loss: Box<dyn LossModel>,
    delay: Box<dyn DelayModel>,
    stats: LinkStats,
}

impl LossyLink {
    /// Creates the link from a loss and a delay model.
    pub fn new(loss: Box<dyn LossModel>, delay: Box<dyn DelayModel>) -> Self {
        LossyLink { loss, delay, stats: LinkStats::default() }
    }

    /// Hands a message to the link at time `now`.
    pub fn transmit(&mut self, now: Tick, rng: &mut Rng) -> Transmit {
        self.stats.sent += 1;
        if self.loss.drops(rng) {
            self.stats.dropped += 1;
            return Transmit::Dropped;
        }
        Transmit::DeliverAt { at: now + self.delay.sample(rng) }
    }

    /// Link counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Restores the link's initial state (loss model, counters).
    pub fn reset(&mut self) {
        self.loss.reset();
        self.stats = LinkStats::default();
    }
}

/// A TCP-like back link: never drops, never reorders. Delivery time is
/// `max(now + delay, previous delivery)` so later sends cannot overtake
/// earlier ones.
#[derive(Debug)]
pub struct ReliableLink {
    delay: Box<dyn DelayModel>,
    horizon: Tick,
    stats: LinkStats,
}

impl ReliableLink {
    /// Creates the link from a delay model.
    pub fn new(delay: Box<dyn DelayModel>) -> Self {
        ReliableLink { delay, horizon: 0, stats: LinkStats::default() }
    }

    /// Hands a message to the link at time `now`, returning its
    /// arrival time.
    pub fn transmit(&mut self, now: Tick, rng: &mut Rng) -> Tick {
        self.stats.sent += 1;
        let at = (now + self.delay.sample(rng)).max(self.horizon);
        self.horizon = at;
        at
    }

    /// Link counters (nothing is ever dropped).
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Restores the link's initial state.
    pub fn reset(&mut self) {
        self.horizon = 0;
        self.stats = LinkStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bernoulli, ConstantDelay, Lossless, Scripted, UniformDelay};

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn lossless_link_delivers_everything_with_constant_delay() {
        let mut link = LossyLink::new(Box::new(Lossless), Box::new(ConstantDelay::new(3)));
        let mut r = rng(0);
        for now in 0..10 {
            match link.transmit(now, &mut r) {
                Transmit::DeliverAt { at } => assert_eq!(at, now + 3),
                Transmit::Dropped => panic!("lossless link dropped"),
            }
        }
        assert_eq!(link.stats(), LinkStats { sent: 10, dropped: 0 });
    }

    #[test]
    fn scripted_loss_reflected_in_stats() {
        let mut link =
            LossyLink::new(Box::new(Scripted::new([1])), Box::new(ConstantDelay::new(0)));
        let mut r = rng(0);
        assert!(matches!(link.transmit(0, &mut r), Transmit::DeliverAt { .. }));
        assert!(matches!(link.transmit(1, &mut r), Transmit::Dropped));
        assert!(matches!(link.transmit(2, &mut r), Transmit::DeliverAt { .. }));
        assert_eq!(link.stats(), LinkStats { sent: 3, dropped: 1 });
    }

    #[test]
    fn reliable_link_is_fifo_under_random_delays() {
        let mut link = ReliableLink::new(Box::new(UniformDelay::new(0, 20)));
        let mut r = rng(7);
        let mut prev = 0;
        for now in 0..200 {
            let at = link.transmit(now, &mut r);
            assert!(at >= prev, "reordered: {at} < {prev}");
            assert!(at >= now);
            prev = at;
        }
        assert_eq!(link.stats().dropped, 0);
    }

    #[test]
    fn lossy_link_reset_restores_tags_and_counters() {
        // A send's tag is its index on the link, `stats().sent` just
        // before it (the seqno the sender stamps plays that role).
        let mut link =
            LossyLink::new(Box::new(Bernoulli::new(1.0)), Box::new(ConstantDelay::new(0)));
        let mut r = rng(1);
        let _ = link.transmit(0, &mut r);
        link.reset();
        assert_eq!(link.stats(), LinkStats::default());
        let mut link = LossyLink::new(Box::new(Lossless), Box::new(ConstantDelay::new(0)));
        let _ = link.transmit(5, &mut r);
        link.reset();
        assert_eq!(link.stats().sent, 0, "the next send is tag 0 again");
        assert_eq!(link.transmit(6, &mut r), Transmit::DeliverAt { at: 6 });
        assert_eq!(link.stats(), LinkStats { sent: 1, dropped: 0 });
    }

    #[test]
    fn reliable_link_reset_clears_horizon() {
        let mut link = ReliableLink::new(Box::new(ConstantDelay::new(100)));
        let mut r = rng(2);
        let first = link.transmit(0, &mut r);
        assert_eq!(first, 100);
        link.reset();
        assert_eq!(link.transmit(0, &mut r), 100);
    }
}
