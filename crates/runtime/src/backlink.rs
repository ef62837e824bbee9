//! The lossless back link, made honest: severance, reconnect with
//! capped backoff, and a bounded resend queue.
//!
//! The paper assumes CE → AD links are in-order and lossless, which a
//! deployment gets from a connection-oriented transport — and
//! connections drop. This link models that: a scripted severance takes
//! it down for a while; sends during the outage go to a bounded FIFO
//! queue; reconnect attempts are paced by a seeded
//! [`Backoff`](rcm_net::Backoff) schedule; and on reconnect the link
//! first *re-sends its unacked tail* (a real transport cannot know
//! which in-flight messages survived the cut), then flushes the queue
//! in order. The receiver therefore sees exact duplicates around every
//! reconnect — which is precisely why every AD algorithm must discard
//! duplicate offers, and why [`BackLink::flush`] at end-of-stream makes
//! the lossless contract hold: nothing queued is ever abandoned, and
//! only a deliberately undersized queue can lose (counted, never
//! silent).
//!
//! A `BackLink<Alert>` also serialises what it carries — cross, check,
//! forward: each alert is encoded and decoded ([`cross_in`]), the copy
//! is checked field for field (`id` and `snapshot` bits included), and
//! the original is sent, so the alert the AD receives is a handle on
//! the very body the CE recorded.
//!
//! LOCK ORDER: the only mutex is the `stats` counter block, a leaf —
//! it is never held across a channel send, a sleep, or any other lock.

use std::collections::VecDeque;

use rcm_sync::chan::Sender;
use rcm_sync::time::{Duration, Instant};
use rcm_sync::{Arc, Mutex};

use rcm_core::Alert;
use rcm_net::Backoff;

use crate::wire::{cross_in, Message};

/// Counters for one back link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackLinkStats {
    /// Messages transmitted (excluding duplicate resends).
    pub sent: u64,
    /// Scripted severances that fired.
    pub severs: u64,
    /// Successful reconnects.
    pub reconnects: u64,
    /// Reconnect attempts (paced by backoff).
    pub attempts: u64,
    /// Duplicate messages re-sent from the unacked tail on reconnect.
    pub resent_duplicates: u64,
    /// Peak resend-queue depth while severed.
    pub queued_peak: u64,
    /// Messages lost to resend-queue overflow.
    pub lost_overflow: u64,
}

/// How many recently-sent messages the link keeps for post-reconnect
/// resend (the "unacked tail" a real transport would retransmit).
const UNACKED_TAIL: usize = 8;

/// A TCP-like back link: FIFO and lossless across transient
/// disconnects, generic over the message type so the severance and
/// reconnect machinery is testable without a full pipeline.
pub struct BackLink<T> {
    tx: Sender<T>,
    /// Pending severances, ascending by send index: `(at_send, down_for)`.
    severs: VecDeque<(u64, Duration)>,
    sends_seen: u64,
    down_until: Option<Instant>,
    next_attempt: Instant,
    backoff: Backoff,
    queue: VecDeque<T>,
    queue_cap: usize,
    unacked: VecDeque<T>,
    unacked_cap: usize,
    stats: Arc<Mutex<BackLinkStats>>,
    /// The frame of the alert last sent (a `BackLink<Alert>` serialises
    /// what it sends); cleared and reused per alert.
    frame: Vec<u8>,
}

impl<T> std::fmt::Debug for BackLink<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackLink")
            .field("down", &self.down_until.is_some())
            .field("queued", &self.queue.len())
            .field("stats", &*self.stats.lock())
            .finish()
    }
}

impl<T: Clone + Send + 'static> BackLink<T> {
    /// Wraps a channel sender; with no severances scripted the link is
    /// a plain pass-through.
    pub fn new(tx: Sender<T>, backoff: Backoff) -> Self {
        BackLink {
            tx,
            severs: VecDeque::new(),
            sends_seen: 0,
            down_until: None,
            next_attempt: Instant::now(),
            backoff,
            queue: VecDeque::new(),
            queue_cap: 1024,
            unacked: VecDeque::new(),
            unacked_cap: UNACKED_TAIL,
            stats: Arc::new(Mutex::new(BackLinkStats::default())),
            frame: Vec::new(),
        }
    }

    /// Scripts severances as `(at_send, down_for)` pairs; `at_send`
    /// counts prior send calls, so `(0, d)` severs before the first.
    /// Pairs are sorted internally.
    #[must_use]
    pub fn with_severs(mut self, mut severs: Vec<(u64, Duration)>) -> Self {
        severs.sort_by_key(|&(at, _)| at);
        self.severs = severs.into();
        self
    }

    /// Bounds the resend queue (default 1024).
    #[must_use]
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Sets the unacked-tail length resent on reconnect (default 8;
    /// 0 disables duplicate resends).
    #[must_use]
    pub fn unacked_cap(mut self, cap: usize) -> Self {
        self.unacked_cap = cap;
        self.unacked.truncate(cap);
        self
    }

    /// A handle for reading the link's counters after the replica has
    /// taken ownership of the link.
    pub fn stats_handle(&self) -> Arc<Mutex<BackLinkStats>> {
        Arc::clone(&self.stats)
    }

    /// Sends one message: transmitted immediately when connected,
    /// queued when severed (a non-blocking reconnect attempt is made
    /// first if the backoff schedule allows one).
    pub fn send(&mut self, msg: T) {
        if let Some(&(at, down_for)) = self.severs.front() {
            if self.sends_seen >= at {
                self.severs.pop_front();
                let until = Instant::now() + down_for;
                // A severance landing while already down extends the
                // outage rather than stacking a second one.
                self.down_until =
                    Some(self.down_until.map_or(until, |existing| existing.max(until)));
                self.next_attempt = Instant::now();
                self.backoff.reset();
                self.stats.lock().severs += 1;
            }
        }
        self.sends_seen += 1;
        if self.down_until.is_some() {
            self.try_reconnect(false);
        }
        if self.down_until.is_some() {
            self.enqueue(msg);
        } else {
            self.transmit(msg);
        }
    }

    /// Blocks until the link is up and everything queued has been
    /// transmitted. Call at end-of-stream: this is what turns "bounded
    /// queue while severed" into the paper's lossless contract.
    pub fn flush(&mut self) {
        if self.down_until.is_some() {
            self.try_reconnect(true);
        }
        debug_assert!(self.queue.is_empty(), "reconnect flushes the queue");
    }

    /// Attempts reconnection, pacing attempts by the backoff schedule.
    /// Blocking mode sleeps between attempts until the link is up;
    /// non-blocking mode makes at most one attempt and returns.
    fn try_reconnect(&mut self, blocking: bool) {
        let Some(until) = self.down_until else { return };
        loop {
            let now = Instant::now();
            if now < self.next_attempt {
                if !blocking {
                    return;
                }
                rcm_sync::thread::sleep(self.next_attempt - now);
            }
            self.stats.lock().attempts += 1;
            if Instant::now() >= until {
                self.down_until = None;
                self.backoff.reset();
                self.stats.lock().reconnects += 1;
                self.resend_unacked();
                self.flush_queue();
                return;
            }
            self.next_attempt = Instant::now() + self.backoff.next_delay();
            if !blocking {
                return;
            }
        }
    }

    /// Re-sends the unacked tail: pure duplicates on an in-memory
    /// channel, exactly the adversarial input the AD filters must
    /// tolerate.
    fn resend_unacked(&mut self) {
        let tail: Vec<T> = self.unacked.iter().cloned().collect();
        self.stats.lock().resent_duplicates += tail.len() as u64;
        for msg in tail {
            self.tx.send(msg).expect("back link receiver hung up during resend");
        }
    }

    /// Drains the severed-period queue in FIFO order.
    fn flush_queue(&mut self) {
        while let Some(msg) = self.queue.pop_front() {
            self.transmit(msg);
        }
    }

    fn transmit(&mut self, msg: T) {
        if self.unacked_cap > 0 {
            if self.unacked.len() == self.unacked_cap {
                self.unacked.pop_front();
            }
            self.unacked.push_back(msg.clone());
        }
        self.stats.lock().sent += 1;
        self.tx.send(msg).expect("back link receiver hung up before the stream ended");
    }

    fn enqueue(&mut self, msg: T) {
        let mut stats = self.stats.lock();
        if self.queue.len() >= self.queue_cap {
            self.queue.pop_front();
            stats.lost_overflow += 1;
        }
        self.queue.push_back(msg);
        stats.queued_peak = stats.queued_peak.max(self.queue.len() as u64);
    }
}

impl crate::actors::AlertSink for BackLink<Alert> {
    fn send_alert(&mut self, alert: Alert) {
        // Cross a real serialization boundary, as the socket link does,
        // then forward the original: the body the CE recorded.
        let msg = Message::Alert(alert);
        cross_in(&mut self.frame, &msg);
        let Message::Alert(alert) = msg else { unreachable!("built as an alert above") };
        self.send(alert);
    }

    fn flush(&mut self) {
        BackLink::flush(self);
    }
    // Default `abandon`: dropping the channel sender is the hangup, and
    // the queued alerts of an abandoned replica are sanctioned loss.
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_sync::chan::unbounded;

    fn link<T: Clone + Send + 'static>(
        severs: Vec<(u64, Duration)>,
    ) -> (BackLink<T>, rcm_sync::chan::Receiver<T>) {
        let (tx, rx) = unbounded();
        let backoff = Backoff::new(Duration::from_micros(50), Duration::from_millis(2), 7);
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
        assert_eq!(l.stats_handle().lock().severs, 0);
    }

    #[test]
    fn instant_recovery_resends_unacked_tail_then_message() {
        // down_for = 0: the first reconnect attempt succeeds, so the
        // whole sequence is deterministic.
        let (mut l, rx) = link(vec![(2, Duration::ZERO)]);
        l.send(10);
        l.send(11);
        l.send(12); // sever fires, instantly reconnects: dup 10,11 then 12
        l.flush();
        assert_eq!(drain(&rx), vec![10, 11, 10, 11, 12]);
        let stats = *l.stats_handle().lock();
        assert_eq!(stats.severs, 1);
        assert_eq!(stats.reconnects, 1);
        assert_eq!(stats.resent_duplicates, 2);
        assert_eq!(stats.lost_overflow, 0);
    }

    #[test]
    fn outage_queues_then_flush_delivers_everything_in_order() {
        let (mut l, rx) = link(vec![(1, Duration::from_millis(150))]);
        for m in 0..6 {
            l.send(m);
        }
        // Only the pre-sever message is through; the rest are queued.
        assert_eq!(drain(&rx), vec![0]);
        assert!(l.down_until.is_some());
        l.flush(); // blocks past the outage
        assert!(l.down_until.is_none());
        assert_eq!(drain(&rx), vec![0, 1, 2, 3, 4, 5], "dup of 0, then the queue in order");
        let stats = *l.stats_handle().lock();
        assert_eq!(stats.lost_overflow, 0);
        assert!(stats.attempts >= 1);
        assert_eq!(stats.queued_peak, 5);
    }

    #[test]
    fn undersized_queue_loses_oldest_and_counts() {
        let (tx, rx) = unbounded();
        let backoff = Backoff::new(Duration::from_micros(50), Duration::from_millis(1), 3);
        let mut l = BackLink::new(tx, backoff)
            .with_severs(vec![(0, Duration::from_millis(100))])
            .unacked_cap(0)
            .queue_cap(2);
        for m in 0..5 {
            l.send(m);
        }
        l.flush();
        assert_eq!(drain(&rx), vec![3, 4], "kept the newest two");
        assert_eq!(l.stats_handle().lock().lost_overflow, 3);
    }

    #[test]
    fn an_alert_sink_crosses_the_codec_and_forwards_the_original() {
        use crate::actors::AlertSink;
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
                vec![Update::new(x, 40, 1.0), Update::new(y, 90, 2.0)],
            ),
            alert(one(), vec![]),
            alert(one(), odd_values.iter().map(|&v| Update::new(x, 17, v)).collect()),
        ];
        let (mut link, rx) = link::<Alert>(vec![]);
        for sent in sent {
            link.send_alert(sent.clone());
            let got = rx.try_recv().expect("the alert went through");
            // Forwarded, not decoded: the very body that was sent.
            assert!(Alert::ptr_eq(&got, &sent), "{sent:?}");
            assert_eq!((&got, got.id), (&sent, sent.id));
            // ...after crossing the codec: the frame it left is the alert's.
            let msg = Message::Alert(sent);
            assert_eq!(link.frame, wire::encode(&msg).expect("encodes"));
            assert_eq!(
                (link.frame[0], link.frame.len()),
                (BINARY_WIRE_VERSION, wire::frame_len(&msg))
            );
        }
    }

    #[test]
    fn overlapping_severs_extend_the_outage() {
        let (mut l, rx) =
            link(vec![(0, Duration::from_millis(60)), (1, Duration::from_millis(120))]);
        let start = Instant::now();
        l.send(1);
        l.send(2); // second sever while down: extends
        l.flush();
        assert!(start.elapsed() >= Duration::from_millis(100), "outage extended past first window");
        assert_eq!(drain(&rx), vec![1, 2]);
        assert_eq!(l.stats_handle().lock().severs, 2);
    }
}
