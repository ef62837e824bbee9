//! The lossless back link, made honest: severance, reconnect and a
//! bounded resend queue.
//!
//! The paper assumes CE → AD links are in-order and lossless, which a
//! deployment gets from a connection-oriented transport — and
//! connections drop. This link models that over a channel: it follows
//! the [`Outbox`] policy every back link shares (scripted severances
//! that last a number of sends, a bounded FIFO queue while down, the
//! unacked tail re-sent before the queue on reconnect). The first send
//! past an outage reconnects, and [`BackLink::flush`] at end-of-stream
//! reconnects at once: nothing queued is ever abandoned, and only queue
//! overflow can lose (counted, never silent). No clock is read, so what
//! the link delivers is a function of what it was sent. The receiver
//! sees exact duplicates around every reconnect — which is precisely
//! why every AD algorithm must discard duplicate offers.
//!
//! A `BackLink<Alert>` also serialises what it carries — cross, check,
//! forward: each alert is encoded and decoded ([`cross_in`]), the copy
//! is checked field for field (`id` and `snapshot` bits included), and
//! the original is sent, so the alert the AD receives is a handle on
//! the very body the CE recorded.
//!
//! LOCK ORDER: no locks — the counters are atomics.

use rcm_sync::atomic::{AtomicU64, Ordering};
use rcm_sync::chan::Sender;
use rcm_sync::Arc;

use rcm_core::Alert;
use rcm_net::Backoff;
use rcm_transport::{BackLinkStats, Outbox};

use crate::pipeline::AlertDrain;
use crate::wire::{cross_in, Message};

/// A TCP-like back link: FIFO and lossless across transient
/// disconnects, generic over the message type so the severance and
/// reconnect machinery is testable without a full pipeline.
///
/// It counts into the [`BackLinkStats`] block the socket links
/// use; a channel has no wire, so `io_errors` and `bytes_sent` stay 0,
/// `frames_sent` counts what `sent` counts, and every reconnect
/// attempt succeeds.
pub struct BackLink<T> {
    tx: Sender<T>,
    down: bool,
    outbox: Outbox<T>,
    counters: Arc<BackLinkStats<AtomicU64>>,
    /// The frame of the alert last sent (a `BackLink<Alert>` serialises
    /// what it sends); cleared and reused per alert.
    frame: Vec<u8>,
}

impl<T> std::fmt::Debug for BackLink<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackLink")
            .field("down", &self.down)
            .field("outbox", &self.outbox)
            .field("stats", &self.counters.snapshot())
            .finish()
    }
}

impl<T: Clone + Send + 'static> BackLink<T> {
    /// Wraps a channel sender; with no severances scripted the link is
    /// a plain pass-through. A channel reconnects at once, so nothing
    /// paces it: `_backoff` is kept only so that existing callers still
    /// compile, and is never read.
    pub fn new(tx: Sender<T>, _backoff: Backoff) -> Self {
        let counters = Arc::new(BackLinkStats::default());
        BackLink {
            tx,
            down: false,
            outbox: Outbox::new(Vec::new(), Arc::clone(&counters)),
            counters,
            frame: Vec::new(),
        }
    }

    /// Scripts severances as `(at_send, down_sends)` pairs; see
    /// [`Outbox::new`].
    #[must_use]
    pub fn with_severs(mut self, severs: Vec<(u64, u64)>) -> Self {
        self.outbox = Outbox::new(severs, Arc::clone(&self.counters));
        self
    }

    /// A handle for reading the link's counters after the replica has
    /// taken ownership of the link.
    pub fn counters(&self) -> Arc<BackLinkStats<AtomicU64>> {
        Arc::clone(&self.counters)
    }

    /// Sends one message: transmitted immediately when connected,
    /// queued while a scripted outage holds. The first send past an
    /// outage reconnects first.
    pub fn send(&mut self, msg: T) {
        if self.outbox.sever_due() {
            self.down = true;
        }
        if self.down && !self.outbox.outage_holds() {
            self.reconnect();
        }
        if self.down {
            self.outbox.enqueue(msg);
        } else {
            self.transmit(msg);
        }
    }

    /// Ends any outage and transmits everything queued. Call at
    /// end-of-stream: this is what turns "bounded queue while severed"
    /// into the paper's lossless contract.
    pub fn flush(&mut self) {
        if self.down {
            self.reconnect();
        }
    }

    /// Reconnects: the unacked tail goes out again as duplicates, then
    /// the queue in order.
    fn reconnect(&mut self) {
        self.down = false;
        self.counters.attempts.fetch_add(1, Ordering::SeqCst);
        self.counters.reconnects.fetch_add(1, Ordering::SeqCst);
        // The tail's duplicates are exactly the adversarial input the
        // AD filters must tolerate.
        for (msg, resend) in self.outbox.replay() {
            if resend {
                self.counters.resent_duplicates.fetch_add(1, Ordering::SeqCst);
                self.tx.send(msg).expect("back link receiver hung up during resend");
            } else {
                self.transmit(msg);
            }
        }
    }

    fn transmit(&mut self, msg: T) {
        self.outbox.push_unacked(msg.clone());
        self.counters.sent.fetch_add(1, Ordering::SeqCst);
        self.counters.frames_sent.fetch_add(1, Ordering::SeqCst);
        self.tx.send(msg).expect("back link receiver hung up before the stream ended");
    }
}

/// A replica's in-process back link: each alert crosses a real
/// serialization boundary, as on the socket link, and the original
/// goes out — the body the CE recorded. End-of-stream flushes.
impl AlertDrain for BackLink<Alert> {
    fn round(&mut self, alerts: &mut Vec<Alert>) {
        for alert in alerts.drain(..) {
            let msg = Message::Alert(alert);
            cross_in(&mut self.frame, &msg);
            let Message::Alert(alert) = msg else { unreachable!("built as an alert above") };
            self.send(alert);
        }
    }

    fn end_of_stream(&mut self) {
        self.flush();
    }
    // Default `abandoned`: dropping the channel sender is the hangup, and
    // the queued alerts of an abandoned replica are sanctioned loss.
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_sync::chan::unbounded;

    fn link<T: Clone + Send + 'static>(
        severs: Vec<(u64, u64)>,
    ) -> (BackLink<T>, rcm_sync::chan::Receiver<T>) {
        let (tx, rx) = unbounded();
        let backoff = Backoff::new(
            rcm_sync::time::Duration::from_micros(50),
            rcm_sync::time::Duration::from_millis(2),
            7,
        );
        (BackLink::new(tx, backoff).with_severs(severs), rx)
    }

    fn drain(rx: &rcm_sync::chan::Receiver<u64>) -> Vec<u64> {
        rx.try_iter().collect()
    }

    #[test]
    fn passthrough_without_severs() {
        let (mut l, rx) = link(vec![]);
        for m in 0..5 {
            l.send(m);
        }
        l.flush();
        assert_eq!(drain(&rx), vec![0, 1, 2, 3, 4]);
        assert_eq!(l.counters().snapshot().severs, 0);
    }

    #[test]
    fn instant_recovery_resends_unacked_tail_then_message() {
        // down_sends = 0: the severed send itself reconnects.
        let (mut l, rx) = link(vec![(2, 0)]);
        l.send(10);
        l.send(11);
        l.send(12); // sever fires, instantly reconnects: dup 10,11 then 12
        l.flush();
        assert_eq!(drain(&rx), vec![10, 11, 10, 11, 12]);
        let stats = l.counters().snapshot();
        assert_eq!(stats.severs, 1);
        assert_eq!(stats.reconnects, 1);
        assert_eq!(stats.resent_duplicates, 2);
        assert_eq!(stats.lost_overflow, 0);
    }

    #[test]
    fn outage_queues_then_flush_delivers_everything_in_order() {
        // Severed before send 1 for 10 sends: the outage outlasts the
        // stream, so the flush ends it.
        let (mut l, rx) = link(vec![(1, 10)]);
        for m in 0..6 {
            l.send(m);
        }
        // Only the pre-sever message is through; the rest are queued.
        assert_eq!(drain(&rx), vec![0]);
        assert!(l.down);
        l.flush();
        assert!(!l.down);
        assert_eq!(drain(&rx), vec![0, 1, 2, 3, 4, 5], "dup of 0, then the queue in order");
        let stats = l.counters().snapshot();
        assert_eq!((stats.lost_overflow, stats.attempts, stats.reconnects), (0, 1, 1));
        assert_eq!(stats.queued_peak, 5);
    }

    #[test]
    fn an_outage_ends_at_the_send_after_its_last() {
        // Sends 1 and 2 are held; send 3 reconnects: dup of 0, the
        // queue, then 3 itself.
        let (mut l, rx) = link(vec![(1, 2)]);
        for m in 0..3 {
            l.send(m);
        }
        assert_eq!(drain(&rx), vec![0]);
        l.send(3);
        assert_eq!(drain(&rx), vec![0, 1, 2, 3]);
        assert!(!l.down);
    }

    #[test]
    fn undersized_queue_loses_oldest_and_counts() {
        // Severed before the first send, so the tail is empty: the bound
        // plus 3 messages lose the 3 oldest.
        let n = Outbox::<u64>::QUEUE_CAP as u64 + 3;
        let (mut l, rx) = link(vec![(0, n)]);
        for m in 0..n {
            l.send(m);
        }
        l.flush();
        assert_eq!(drain(&rx), (3..n).collect::<Vec<_>>(), "kept the newest, in order");
        let stats = l.counters().snapshot();
        assert_eq!(stats.lost_overflow, 3, "every overflow is counted, as on the socket links");
    }

    #[test]
    fn an_alert_sink_crosses_the_codec_and_forwards_the_original() {
        use crate::wire::{self, BINARY_WIRE_VERSION};
        use rcm_core::{AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};

        let (x, y) = (VarId::new(3), VarId::new(8));
        let newest_first = |newest: u64| (newest - 15..=newest).rev().map(SeqNo::new).collect();
        let alert = |fingerprint, snapshot: Vec<Update>| {
            Alert::new(
                CondId::new(2),
                fingerprint,
                snapshot,
                AlertId { ce: CeId::new(1), index: 9 },
            )
        };
        let one = || HistoryFingerprint::single(x, vec![SeqNo::new(17)]);
        let odd_values = [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        let sent = [
            alert(one(), vec![Update::new(x, 17, 3000.5)]),
            // 2 x 16 seqnos: spilled out of the fingerprint's in-place form.
            alert(
                HistoryFingerprint::new(vec![(x, newest_first(40)), (y, newest_first(90))]),
                (25..=40)
                    .rev()
                    .map(|s| Update::new(x, s, 1.0))
                    .chain((75..=90).rev().map(|s| Update::new(y, s, 2.0)))
                    .collect(),
            ),
            alert(one(), vec![]),
            alert(
                HistoryFingerprint::single(x, (14..=17).rev().map(SeqNo::new).collect()),
                odd_values
                    .iter()
                    .zip((14..=17).rev())
                    .map(|(&v, s)| Update::new(x, s, v))
                    .collect(),
            ),
        ];
        let (mut link, rx) = link::<Alert>(vec![]);
        for sent in sent {
            link.round(&mut vec![sent.clone()]);
            let got = rx.try_recv().expect("the alert went through");
            // Forwarded, not decoded: the very body that was sent.
            assert!(Alert::ptr_eq(&got, &sent), "{sent:?}");
            assert_eq!((&got, got.id), (&sent, sent.id));
            // ...after crossing the codec: the frame it left is the alert's.
            let msg = Message::Alert(sent);
            assert_eq!(link.frame, wire::encode(&msg).expect("encodes"));
            assert_eq!(link.frame[0], BINARY_WIRE_VERSION);
        }
    }

    #[test]
    fn overlapping_severs_extend_the_outage() {
        // (0, 2) holds sends 0 and 1; (1, 3), landing during it, holds
        // sends 1 to 3; the shorter (2, 1) shortens nothing. Send 4
        // reconnects.
        let (mut l, rx) = link(vec![(0, 2), (1, 3), (2, 1)]);
        for m in 0..4 {
            l.send(m);
        }
        assert!(l.down && drain(&rx).is_empty(), "held through send 3");
        l.send(4);
        assert_eq!(drain(&rx), vec![0, 1, 2, 3, 4]);
        let stats = l.counters().snapshot();
        assert_eq!((stats.severs, stats.reconnects), (3, 1));
    }
}
