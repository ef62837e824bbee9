//! The back link's resend policy, written once for every transport.
//!
//! The paper's back link is in order and lossless ("TCP-like"): a
//! deployment gets that from a connection, and connections drop. What
//! a link does about a drop is one policy, whichever transport carries
//! its bytes:
//!
//! * a scripted severance (for chaos tests) takes the link down just
//!   before its `at_send`-th send, for `down_for`; one that lands during
//!   an outage extends it rather than stacking a second;
//! * sends while down wait in a FIFO queue of at most
//!   [`Outbox::QUEUE_CAP`]; overflow drops the oldest and counts it,
//!   never silently;
//! * the last [`Outbox::UNACKED_TAIL`] messages sent are the unacked
//!   tail: a transport cannot know which in-flight messages survived a
//!   cut, so a reconnect re-sends the tail before the queue. The AD sees
//!   exact duplicates around every reconnect, which is precisely the
//!   adversarial input every AD algorithm already discards.
//!
//! An [`Outbox`] holds that state and counts the policy's counters
//! (`severs`, `queued_peak`, `lost_overflow`) into the link's
//! [`BackLinkStats`] block. The links — the in-process `BackLink` of
//! `rcm-runtime`, [`TcpBackLink`](crate::TcpBackLink) and the evented
//! back link — keep only how to send, reconnect and finish, and count
//! their wire counters into the same block at their own moment.
//!
//! LOCK ORDER: no locks — the counters are atomics.

use std::collections::VecDeque;

use rcm_sync::atomic::{AtomicU64, Ordering};
use rcm_sync::time::{Duration, Instant};
use rcm_sync::Arc;

use crate::report::BackLinkStats;

/// One back link's sever schedule, resend queue and unacked tail,
/// generic over the message so the policy is testable without sockets.
pub struct Outbox<T> {
    /// Pending severances, ascending by send index: `(at_send, down_for)`.
    severs: VecDeque<(u64, Duration)>,
    sends_seen: u64,
    /// When the scripted outage in force ends, if one is.
    floor: Option<Instant>,
    queue: VecDeque<T>,
    unacked: VecDeque<T>,
    counters: Arc<BackLinkStats<AtomicU64>>,
}

impl<T> std::fmt::Debug for Outbox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outbox")
            .field("severs", &self.severs)
            .field("queued", &self.queue.len())
            .field("unacked", &self.unacked.len())
            .finish()
    }
}

impl<T: Clone> Outbox<T> {
    /// Most messages queued while the link is down.
    pub const QUEUE_CAP: usize = 1024;

    /// How many recently sent messages a reconnect re-sends.
    pub const UNACKED_TAIL: usize = 8;

    /// An outbox scripting `severs` as `(at_send, down_for)` pairs
    /// (`at_send` counts prior sends, so `(0, d)` severs before the
    /// first; the pairs are sorted here), counting into `counters`.
    pub fn new(mut severs: Vec<(u64, Duration)>, counters: Arc<BackLinkStats<AtomicU64>>) -> Self {
        severs.sort_by_key(|&(at, _)| at);
        Outbox {
            severs: severs.into(),
            sends_seen: 0,
            floor: None,
            queue: VecDeque::new(),
            unacked: VecDeque::new(),
            counters,
        }
    }

    /// Counts one send, about to happen. Returns `true` when a scripted
    /// severance is due before it and the link must go down: the sever
    /// is counted, and the outage ends no earlier than `down_for` from
    /// now. The clock is read only then, not on every send.
    pub fn sever_due(&mut self) -> bool {
        let seen = self.sends_seen;
        self.sends_seen += 1;
        let Some(&(at, down_for)) = self.severs.front() else { return false };
        if seen < at {
            return false;
        }
        self.severs.pop_front();
        let until = Instant::now() + down_for;
        self.floor = Some(self.floor.map_or(until, |floor| floor.max(until)));
        self.counters.severs.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Whether a scripted outage still forbids reconnecting at `now`.
    pub fn outage_holds(&self, now: Instant) -> bool {
        self.floor.is_some_and(|floor| now < floor)
    }

    /// Queues a message the link could not send, dropping (and
    /// counting) the oldest when the queue is full: strictly
    /// non-blocking back-pressure, nothing ever stalls on a down peer.
    pub fn enqueue(&mut self, msg: T) {
        if self.queue.len() >= Self::QUEUE_CAP {
            self.queue.pop_front();
            self.counters.lost_overflow.fetch_add(1, Ordering::SeqCst);
        }
        self.queue.push_back(msg);
        self.counters.observe_queue_depth(self.queue.len() as u64);
    }

    /// Records a message the link has sent as the newest of the unacked
    /// tail.
    pub fn push_unacked(&mut self, msg: T) {
        if self.unacked.len() == Self::UNACKED_TAIL {
            self.unacked.pop_front();
        }
        self.unacked.push_back(msg);
    }

    /// The link is back: ends the scripted outage and hands over what
    /// to send, in order — the unacked tail as duplicates (`true`),
    /// then everything queued (`false`), each oldest first. The tail
    /// stays; the queue is now empty.
    pub fn replay(&mut self) -> Vec<(T, bool)> {
        self.floor = None;
        let tail = self.unacked.iter().map(|msg| (msg.clone(), true));
        tail.chain(self.queue.drain(..).map(|msg| (msg, false))).collect()
    }

    /// Puts messages a send or a [`replay`](Outbox::replay) handed out
    /// but the link never completed back at the front of the queue, in
    /// order: they are older than anything queued after them.
    /// Duplicates (`true`) are dropped: their originals are still in the
    /// tail, and the next reconnect re-sends it.
    pub fn requeue(&mut self, unsent: impl IntoIterator<Item = (T, bool)>) {
        let mut queue: VecDeque<T> =
            unsent.into_iter().filter(|&(_, resend)| !resend).map(|(msg, _)| msg).collect();
        queue.append(&mut self.queue);
        self.queue = queue;
    }

    /// Counts everything still queued as lost and drops it: a finish
    /// whose peer stayed unreachable past its deadline.
    pub fn give_up(&mut self) {
        let lost = self.queue.len() as u64;
        self.queue.clear();
        if lost > 0 {
            self.counters.lost_overflow.fetch_add(lost, Ordering::SeqCst);
        }
    }

    /// Drops the queue and the tail uncounted: an abandoned replica's
    /// alerts are sanctioned loss.
    pub fn abandon(&mut self) {
        self.queue.clear();
        self.unacked.clear();
    }

    /// Messages waiting for a reconnect.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outbox(severs: Vec<(u64, Duration)>) -> Outbox<u64> {
        Outbox::new(severs, Arc::default())
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn a_sever_that_lands_during_an_outage_extends_it() {
        let mut out = outbox(vec![(2, ms(10)), (0, ms(600)), (1, ms(1200))]);
        let before = Instant::now();
        assert!(out.sever_due(), "(0, 600 ms) is due before the first send");
        let first = Instant::now();
        assert!(out.outage_holds(before + ms(599)) && !out.outage_holds(first + ms(600)));
        assert!(out.sever_due(), "(1, 1200 ms) lands during the outage");
        assert!(out.outage_holds(before + ms(1199)), "it extends the outage");
        assert!(out.sever_due(), "(2, 10 ms) would end sooner: it shortens nothing");
        assert!(out.outage_holds(before + ms(1199)));
        let last = Instant::now();
        assert!(!out.outage_holds(last + ms(1200)));
        assert!(!out.sever_due(), "the schedule is spent");
        assert_eq!(out.counters.snapshot().severs, 3);
        out.replay();
        assert!(!out.outage_holds(before), "a reconnect ends the outage");
    }

    #[test]
    fn overflow_drops_the_oldest_entry_and_counts_it() {
        let mut out = outbox(vec![]);
        let cap = Outbox::<u64>::QUEUE_CAP as u64;
        for m in 0..cap + 3 {
            out.enqueue(m);
        }
        assert_eq!(out.queued() as u64, cap);
        let sent: Vec<(u64, bool)> = out.replay();
        assert_eq!(sent, (3..cap + 3).map(|m| (m, false)).collect::<Vec<_>>());
        let stats = out.counters.snapshot();
        assert_eq!((stats.lost_overflow, stats.queued_peak), (3, cap));
    }

    #[test]
    fn the_tail_is_the_last_8_sent() {
        let mut out = outbox(vec![]);
        for m in 0..20 {
            out.push_unacked(m);
        }
        assert_eq!(out.replay(), (12..20).map(|m| (m, true)).collect::<Vec<_>>());
        assert_eq!(out.replay().len(), Outbox::<u64>::UNACKED_TAIL, "a replay keeps the tail");
    }

    #[test]
    fn replay_sends_the_tail_then_the_queue_in_fifo_order() {
        let mut out = outbox(vec![]);
        out.push_unacked(1);
        out.push_unacked(2);
        for m in 3..=5 {
            out.enqueue(m);
        }
        assert_eq!(out.replay(), vec![(1, true), (2, true), (3, false), (4, false), (5, false)]);
        assert_eq!(out.queued(), 0);
    }

    #[test]
    fn requeued_messages_go_first_and_duplicates_go() {
        let mut out = outbox(vec![]);
        out.push_unacked(1);
        out.enqueue(4);
        out.requeue([(1, true), (2, false), (3, false)]);
        assert_eq!(out.replay(), vec![(1, true), (2, false), (3, false), (4, false)]);
    }

    #[test]
    fn giving_up_counts_the_queue_and_abandoning_does_not() {
        let mut out = outbox(vec![]);
        out.push_unacked(1);
        out.enqueue(2);
        out.enqueue(3);
        out.give_up();
        assert_eq!(out.counters.snapshot().lost_overflow, 2);
        out.enqueue(4);
        out.abandon();
        assert_eq!(out.counters.snapshot().lost_overflow, 2);
        assert!(out.replay().is_empty(), "no queue and no tail");
    }
}
