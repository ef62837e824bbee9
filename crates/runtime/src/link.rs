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
}

impl std::fmt::Debug for FrontLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontLink").field("stats", &self.hop.counters.snapshot()).finish()
    }
}

impl FrontLink {
    /// Creates the link over an existing channel sender.
    pub fn new(tx: Sender<Update>, loss: Box<dyn LossModel>, seed: u64) -> Self {
        FrontLink { tx, hop: FrontHop::new(loss, seed) }
    }

    /// Scripts delivery stalls as `(at_send, stall)` pairs: the link
    /// sleeps `stall` just before its `at_send`-th send (0-based count
    /// of prior sends). Stalls model transient congestion; they reorder
    /// nothing (the channel stays FIFO), they only perturb timing —
    /// which is exactly what the chaos harness wants to shake out of
    /// thread interleavings.
    #[must_use]
    pub fn with_stalls(mut self, stalls: Vec<(u64, std::time::Duration)>) -> Self {
        self.hop = self.hop.with_stalls(stalls);
        self
    }

    /// A handle for reading the link's counters after the DM thread
    /// has taken ownership of the link.
    pub fn counters(&self) -> Arc<FrontLinkStats<AtomicU64>> {
        self.hop.counters()
    }

    /// Transmits one update; returns whether it was delivered (the
    /// receiver may still have hung up, which also counts as not
    /// delivered).
    pub fn send(&mut self, update: Update) -> bool {
        self.hop.pass(&update) && self.tx.send(update).is_ok()
    }
}

/// Everything a [`FrontLink`] does to an update except hand it over:
/// scripted stalls, the seeded loss draw, the counters and the codec
/// crossing. The system's DM loop keeps one per `(feed, replica)` and
/// collects what passes into one round per replica.
///
/// It counts into the [`FrontLinkStats`] block the socket link uses: a
/// channel "frame" is one update, and no wire bytes are counted.
pub(crate) struct FrontHop {
    loss: Box<dyn LossModel>,
    rng: Rng,
    counters: Arc<FrontLinkStats<AtomicU64>>,
    /// The frame of the update in flight; cleared and reused per send.
    frame: Vec<u8>,
    /// Scripted stalls, ascending by send index: `(at_send, stall)`.
    stalls: std::collections::VecDeque<(u64, std::time::Duration)>,
    sends_seen: u64,
}

impl FrontHop {
    /// A hop drawing its losses from `loss` seeded with `seed`.
    pub(crate) fn new(loss: Box<dyn LossModel>, seed: u64) -> Self {
        FrontHop {
            loss,
            rng: Rng::seed_from_u64(seed),
            counters: Arc::default(),
            frame: Vec::new(),
            stalls: std::collections::VecDeque::new(),
            sends_seen: 0,
        }
    }

    /// See [`FrontLink::with_stalls`].
    #[must_use]
    pub(crate) fn with_stalls(mut self, mut stalls: Vec<(u64, std::time::Duration)>) -> Self {
        stalls.sort_by_key(|&(at, _)| at);
        self.stalls = stalls.into();
        self
    }

    /// See [`FrontLink::counters`].
    pub(crate) fn counters(&self) -> Arc<FrontLinkStats<AtomicU64>> {
        Arc::clone(&self.counters)
    }

    /// Carries one update across the link, up to the hand-over: sleeps
    /// a stall that is due, counts the send, draws loss, and crosses
    /// the codec with what survives. Returns whether it survived.
    pub(crate) fn pass(&mut self, update: &Update) -> bool {
        if let Some(&(at, stall)) = self.stalls.front() {
            if self.sends_seen >= at {
                self.stalls.pop_front();
                rcm_sync::thread::sleep(stall);
            }
        }
        self.sends_seen += 1;
        self.counters.frames_sent.fetch_add(1, Ordering::SeqCst);
        self.counters.updates_sent.fetch_add(1, Ordering::SeqCst);
        if self.loss.drops(&mut self.rng) {
            self.counters.frames_dropped.fetch_add(1, Ordering::SeqCst);
            self.counters.updates_dropped.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        cross_in(&mut self.frame, &Message::Update(*update));
        true
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
    fn stalls_delay_but_never_reorder() {
        let (tx, rx) = unbounded();
        let mut link = FrontLink::new(tx, Box::new(Lossless), 1)
            .with_stalls(vec![(1, std::time::Duration::from_millis(30))]);
        let start = rcm_sync::time::Instant::now();
        for s in 1..=3 {
            assert!(link.send(u(s)));
        }
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
        drop(link);
        let got: Vec<u64> = rx.iter().map(|u| u.seqno.get()).collect();
        assert_eq!(got, vec![1, 2, 3]);
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
