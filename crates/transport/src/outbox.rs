//! The back link's resend policy, written once for every transport.
//!
//! The paper's back link is in order and lossless ("TCP-like"): a
//! deployment gets that from a connection, and connections drop. What
//! a link does about a drop is one policy, whichever transport carries
//! its bytes:
//!
//! * a scripted severance (for chaos tests) takes the link down just
//!   before its `at_send`-th send, for `down_sends` sends: that send and
//!   the next `down_sends − 1` are queued. One that lands during an
//!   outage extends it to whichever end is later, rather than stacking
//!   a second; a flush or finish ends any outage at once. Outages count
//!   sends, not time, so a run with scripted severances replays from
//!   its inputs;
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
//! [`BackLinkStats`] block. The two links — the in-process `BackLink`
//! of `rcm-runtime` and the socket back link on the
//! [`EventLoop`](crate::EventLoop) — keep only how to send, reconnect
//! and finish, and count their wire counters into the same block at
//! their own moment.
//!
//! LOCK ORDER: no locks — the counters are atomics.

use std::collections::VecDeque;

use rcm_sync::atomic::{AtomicU64, Ordering};
use rcm_sync::Arc;

use crate::report::BackLinkStats;

/// One back link's sever schedule, resend queue and unacked tail,
/// generic over the message so the policy is testable without sockets.
pub struct Outbox<T> {
    /// Pending severances, ascending by send index: `(at_send, down_sends)`.
    severs: VecDeque<(u64, u64)>,
    sends_seen: u64,
    /// The index of the first send past the scripted outage in force,
    /// if one is.
    up_at: Option<u64>,
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

    /// An outbox scripting `severs` as `(at_send, down_sends)` pairs
    /// (`at_send` counts prior sends, so `(0, n)` severs before the
    /// first; the pairs are sorted here), counting into `counters`.
    pub fn new(mut severs: Vec<(u64, u64)>, counters: Arc<BackLinkStats<AtomicU64>>) -> Self {
        severs.sort_by_key(|&(at, _)| at);
        Outbox {
            severs: severs.into(),
            sends_seen: 0,
            up_at: None,
            queue: VecDeque::new(),
            unacked: VecDeque::new(),
            counters,
        }
    }

    /// Counts one send, about to happen. Returns `true` when a scripted
    /// severance is due before it and the link must go down: the sever
    /// is counted, and the outage holds this send and the next
    /// `down_sends − 1` at least.
    pub fn sever_due(&mut self) -> bool {
        let seen = self.sends_seen;
        self.sends_seen += 1;
        let Some(&(at, down_sends)) = self.severs.front() else { return false };
        if seen < at {
            return false;
        }
        self.severs.pop_front();
        let up_at = seen.saturating_add(down_sends);
        self.up_at = Some(self.up_at.map_or(up_at, |end| end.max(up_at)));
        self.counters.severs.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Whether the send last counted by [`sever_due`](Outbox::sever_due)
    /// falls inside a scripted outage: the link may not reconnect for it.
    /// A link that flushes or finishes reconnects regardless: nothing is
    /// left to count the outage down.
    pub fn outage_holds(&self) -> bool {
        self.up_at.is_some_and(|up_at| self.sends_seen <= up_at)
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
        self.up_at = None;
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

    fn outbox(severs: Vec<(u64, u64)>) -> Outbox<u64> {
        Outbox::new(severs, Arc::default())
    }

    #[test]
    fn a_sever_that_lands_during_an_outage_extends_it() {
        let mut out = outbox(vec![(3, 1), (0, 2), (1, 4)]);
        assert!(out.sever_due(), "(0, 2) is due before send 0");
        assert!(out.outage_holds(), "send 0 is held");
        assert!(out.sever_due(), "(1, 4) lands during the outage");
        assert!(out.outage_holds(), "it extends the outage to send 4");
        assert!(!out.sever_due() && out.outage_holds(), "send 2 is held");
        assert!(out.sever_due(), "(3, 1) would end sooner: it shortens nothing");
        assert!(out.outage_holds(), "send 3 is held");
        assert!(!out.sever_due() && out.outage_holds(), "send 4 is the last held");
        assert!(
            !out.sever_due() && !out.outage_holds(),
            "(1, 4) held sends 1 to 4: send 5 reconnects"
        );
        assert_eq!(out.counters.snapshot().severs, 3);

        let mut out = outbox(vec![(1, 0)]);
        assert!(!out.sever_due());
        assert!(out.sever_due() && !out.outage_holds(), "zero sends reconnect at once");

        let mut out = outbox(vec![(0, 100)]);
        assert!(out.sever_due() && out.outage_holds());
        out.replay();
        assert!(!out.outage_holds(), "a reconnect ends the outage");
        assert!(!out.sever_due() && !out.outage_holds(), "and it stays ended");
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
