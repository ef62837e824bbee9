//! Runtime links: lossy FIFO channels with real serialization — cross,
//! check, forward: every delivered update is encoded and decoded
//! ([`cross_in`]), the copy is checked bit for bit against the
//! original, and the original goes down the channel.
//!
//! LOCK ORDER: no locks — the counters are atomics.

use rcm_sync::atomic::{AtomicU64, Ordering};
use rcm_sync::chan::Sender;
use rcm_sync::Arc;

use rcm_core::Update;
use rcm_net::{LossModel, Rng};
use rcm_transport::FrontLinkStats;

use crate::wire::{cross_in, Message};

/// A UDP-like front link from one DM to one CE replica: FIFO (channels
/// do not reorder) but lossy. Every delivered update crosses the wire
/// codec, so the pipeline exercises real (de)serialization.
///
/// Loss decisions come from a seeded RNG owned by the link, so the
/// *set* of dropped messages is a pure function of the link seed and
/// the loss model — timing only affects interleavings downstream.
pub struct FrontLink {
    tx: Sender<Update>,
    hop: FrontHop,
    counters: Arc<FrontLinkStats<AtomicU64>>,
    /// The frame of the update in flight; cleared and reused per send.
    frame: Vec<u8>,
}

impl std::fmt::Debug for FrontLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontLink").field("stats", &self.counters.snapshot()).finish()
    }
}

impl FrontLink {
    /// Creates the link over an existing channel sender.
    pub fn new(tx: Sender<Update>, loss: Box<dyn LossModel>, seed: u64) -> Self {
        FrontLink {
            tx,
            hop: FrontHop::new(loss, seed),
            counters: Arc::default(),
            frame: Vec::new(),
        }
    }

    /// A handle for reading the link's counters after the DM thread
    /// has taken ownership of the link.
    pub fn counters(&self) -> Arc<FrontLinkStats<AtomicU64>> {
        Arc::clone(&self.counters)
    }

    /// Transmits one update; returns whether it was delivered (the
    /// receiver may still have hung up, which also counts as not
    /// delivered).
    pub fn send(&mut self, update: Update) -> bool {
        let kept = self.hop.pass();
        count(&self.counters, kept);
        if !kept {
            return false;
        }
        cross_in(&mut self.frame, &Message::Update(update));
        self.tx.send(update).is_ok()
    }
}

/// One front link's loss draws: its loss model, drawing from an RNG
/// seeded for that link alone. A system's DM loop keeps one per `(feed,
/// replica)` in either shape, seeded alike, and draws on a feed's hops
/// in replica order for each of its updates, so a link loses the same
/// updates over channels as over sockets.
pub(crate) struct FrontHop {
    loss: Box<dyn LossModel>,
    rng: Rng,
}

impl FrontHop {
    /// A hop drawing its losses from `loss` seeded with `seed`.
    pub(crate) fn new(loss: Box<dyn LossModel>, seed: u64) -> Self {
        FrontHop { loss, rng: Rng::seed_from_u64(seed) }
    }

    /// Draws one update's loss; returns whether it survives.
    pub(crate) fn pass(&mut self) -> bool {
        !self.loss.drops(&mut self.rng)
    }
}

/// Counts one update over a channel link into the [`FrontLinkStats`]
/// block the socket link uses: a channel "frame" is one update, and no
/// wire bytes are counted.
pub(crate) fn count(counters: &FrontLinkStats<AtomicU64>, kept: bool) {
    counters.frames_sent.fetch_add(1, Ordering::SeqCst);
    counters.updates_sent.fetch_add(1, Ordering::SeqCst);
    if !kept {
        counters.frames_dropped.fetch_add(1, Ordering::SeqCst);
        counters.updates_dropped.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::VarId;
    use rcm_net::{Lossless, Scripted};
    use rcm_sync::chan::unbounded;

    fn u(s: u64) -> Update {
        Update::new(VarId::new(0), s, s as f64)
    }

    #[test]
    fn lossless_link_delivers_in_order() {
        let (tx, rx) = unbounded();
        let mut link = FrontLink::new(tx, Box::new(Lossless), 1);
        for s in 1..=5 {
            assert!(link.send(u(s)));
        }
        drop(link);
        let got: Vec<u64> = rx.iter().map(|u| u.seqno.get()).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn scripted_loss_drops_and_counts() {
        let (tx, rx) = unbounded();
        let mut link = FrontLink::new(tx, Box::new(Scripted::new([1])), 1);
        let counters = link.counters();
        assert!(link.send(u(1)));
        assert!(!link.send(u(2))); // dropped
        assert!(link.send(u(3)));
        drop(link);
        let got: Vec<u64> = rx.iter().map(|u| u.seqno.get()).collect();
        assert_eq!(got, vec![1, 3]);
        assert_eq!(
            counters.snapshot(),
            FrontLinkStats {
                frames_sent: 3,
                frames_dropped: 1,
                updates_sent: 3,
                updates_dropped: 1,
                bytes_sent: 0
            }
        );
    }

    #[test]
    fn gate_discards_overtaken_messages() {
        // The channel is FIFO, so the sender stages what a datagram
        // link can do: 2 arrives after 3 (overtaken) and 3 twice
        // (duplicated). The receiver's gate turns both into loss.
        let (tx, rx) = unbounded();
        let mut link = FrontLink::new(tx, Box::new(Lossless), 1);
        for s in [1, 3, 2, 3, 4] {
            assert!(link.send(u(s)));
        }
        drop(link);
        let mut gate = crate::IngestGate::new();
        let (admitted, discarded): (Vec<u64>, Vec<u64>) =
            rx.iter().map(|up| up.seqno.get()).partition(|&s| gate.admit(&u(s)));
        assert_eq!(admitted, vec![1, 3, 4]);
        assert_eq!(discarded, vec![2, 3]);
    }

    #[test]
    fn hung_up_receiver_reports_undelivered() {
        let (tx, rx) = unbounded();
        drop(rx);
        let mut link = FrontLink::new(tx, Box::new(Lossless), 1);
        assert!(!link.send(u(1)));
    }
}
