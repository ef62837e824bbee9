//! Lock-free counter blocks for the evented engine, and the one
//! counter block every back link counts into.
//!
//! The event loop cannot share counters through `Arc<Mutex<…>>`
//! handles — this directory bans holding any lock across the poll, and
//! the loop thread is the only writer anyway. Each block here is a set
//! of `rcm_sync` atomics written by one thread and snapshotted into a
//! plain report struct by whoever holds the `Arc`. [`BackLinkCounters`]
//! is also what the in-process and threaded back links count into,
//! through the [`Outbox`](crate::Outbox) they share.
//!
//! Peaks (`queued_peak`) use a load-compare-store pair instead of a
//! fetch-max: a link's sending thread is the sole writer, so the pair
//! cannot race, and the shim's model-checker atomics stay minimal.

// LOCK ORDER: no locks — cross-thread visibility is atomics only.

use rcm_sync::atomic::{AtomicU64, Ordering};

use crate::report::{EngineStats, IngressStats, ListenerStats, TcpLinkStats};

/// Event-loop level counters ([`EngineStats`] as atomics).
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Readiness-wait returns.
    pub wakeups: AtomicU64,
    /// Timer-wheel deadlines fired.
    pub timer_fires: AtomicU64,
    /// Readable events that yielded no progress.
    pub spurious_readiness: AtomicU64,
}

impl EngineCounters {
    /// The counters as a plain [`EngineStats`] block.
    pub fn snapshot(&self) -> EngineStats {
        EngineStats {
            wakeups: self.wakeups.load(Ordering::SeqCst),
            timer_fires: self.timer_fires.load(Ordering::SeqCst),
            spurious_readiness: self.spurious_readiness.load(Ordering::SeqCst),
        }
    }
}

/// Per-ingress counters ([`IngressStats`] as atomics).
#[derive(Debug, Default)]
pub struct IngressCounters {
    /// Datagrams received.
    pub frames_received: AtomicU64,
    /// Updates admitted by the seqno gate.
    pub delivered: AtomicU64,
    /// Updates discarded as reordered/duplicated.
    pub dropped_stale: AtomicU64,
    /// Undecodable (or protocol-abusive) datagrams.
    pub decode_errors: AtomicU64,
    /// Distinct end-of-stream markers seen.
    pub fins: AtomicU64,
    /// Wire bytes received, headers included.
    pub bytes_received: AtomicU64,
}

impl IngressCounters {
    /// The counters as a plain [`IngressStats`] block.
    pub fn snapshot(&self) -> IngressStats {
        IngressStats {
            frames_received: self.frames_received.load(Ordering::SeqCst),
            delivered: self.delivered.load(Ordering::SeqCst),
            dropped_stale: self.dropped_stale.load(Ordering::SeqCst),
            decode_errors: self.decode_errors.load(Ordering::SeqCst),
            fins: self.fins.load(Ordering::SeqCst),
            bytes_received: self.bytes_received.load(Ordering::SeqCst),
        }
    }
}

/// Per-back-link counters ([`TcpLinkStats`] as atomics).
#[derive(Debug, Default)]
pub struct BackLinkCounters {
    /// Alerts transmitted (excluding duplicate resends).
    pub sent: AtomicU64,
    /// Scripted severances fired.
    pub severs: AtomicU64,
    /// Successful reconnects.
    pub reconnects: AtomicU64,
    /// Connect attempts paced by the backoff schedule.
    pub attempts: AtomicU64,
    /// Duplicates re-sent from the unacked tail.
    pub resent_duplicates: AtomicU64,
    /// Peak resend-queue depth (single-writer load/store max).
    pub queued_peak: AtomicU64,
    /// Alerts lost to resend-queue overflow.
    pub lost_overflow: AtomicU64,
    /// Genuine socket errors.
    pub io_errors: AtomicU64,
    /// Alert-bearing frames written, resends included.
    pub frames_sent: AtomicU64,
    /// Wire bytes written, headers included.
    pub bytes_sent: AtomicU64,
    /// Alerts shed non-blockingly past the queue bound.
    pub shed: AtomicU64,
}

impl BackLinkCounters {
    /// Raises `queued_peak` to `depth` if higher. The link's sending
    /// thread only — the single writer makes load-then-store race-free.
    pub fn observe_queue_depth(&self, depth: u64) {
        if depth > self.queued_peak.load(Ordering::SeqCst) {
            self.queued_peak.store(depth, Ordering::SeqCst);
        }
    }

    /// The counters as a plain [`TcpLinkStats`] block.
    pub fn snapshot(&self) -> TcpLinkStats {
        TcpLinkStats {
            sent: self.sent.load(Ordering::SeqCst),
            severs: self.severs.load(Ordering::SeqCst),
            reconnects: self.reconnects.load(Ordering::SeqCst),
            attempts: self.attempts.load(Ordering::SeqCst),
            resent_duplicates: self.resent_duplicates.load(Ordering::SeqCst),
            queued_peak: self.queued_peak.load(Ordering::SeqCst),
            lost_overflow: self.lost_overflow.load(Ordering::SeqCst),
            io_errors: self.io_errors.load(Ordering::SeqCst),
            frames_sent: self.frames_sent.load(Ordering::SeqCst),
            bytes_sent: self.bytes_sent.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
        }
    }
}

/// Listener-side counters ([`ListenerStats`] as atomics).
#[derive(Debug, Default)]
pub struct ListenerCounters {
    /// Connections accepted (reconnects count again).
    pub connections: AtomicU64,
    /// Alert frames received across all connections.
    pub alerts: AtomicU64,
    /// Frames that failed to decode.
    pub decode_errors: AtomicU64,
    /// Distinct end-of-stream markers seen.
    pub fins: AtomicU64,
    /// Wire bytes received across all connections.
    pub bytes_received: AtomicU64,
}

impl ListenerCounters {
    /// The counters as a plain [`ListenerStats`] block.
    pub fn snapshot(&self) -> ListenerStats {
        ListenerStats {
            connections: self.connections.load(Ordering::SeqCst),
            alerts: self.alerts.load(Ordering::SeqCst),
            decode_errors: self.decode_errors.load(Ordering::SeqCst),
            fins: self.fins.load(Ordering::SeqCst),
            bytes_received: self.bytes_received.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_mirror_the_atomic_blocks() {
        let engine = EngineCounters::default();
        engine.wakeups.fetch_add(3, Ordering::SeqCst);
        engine.timer_fires.fetch_add(2, Ordering::SeqCst);
        assert_eq!(
            engine.snapshot(),
            EngineStats { wakeups: 3, timer_fires: 2, spurious_readiness: 0 }
        );

        let back = BackLinkCounters::default();
        back.sent.fetch_add(7, Ordering::SeqCst);
        back.observe_queue_depth(4);
        back.observe_queue_depth(2); // lower: peak sticks
        back.shed.fetch_add(1, Ordering::SeqCst);
        let snap = back.snapshot();
        assert_eq!(snap.sent, 7);
        assert_eq!(snap.queued_peak, 4);
        assert_eq!(snap.shed, 1);

        let ingress = IngressCounters::default();
        ingress.delivered.fetch_add(9, Ordering::SeqCst);
        assert_eq!(ingress.snapshot().delivered, 9);

        let listener = ListenerCounters::default();
        listener.fins.fetch_add(2, Ordering::SeqCst);
        assert_eq!(listener.snapshot().fins, 2);
    }
}
