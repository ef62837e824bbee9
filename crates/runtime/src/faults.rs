//! Fault injection and recovery bookkeeping for the threaded runtime.
//!
//! The paper's availability argument (§4) is that replicating the CE
//! masks crashes — but the happy-path runtime never crashed anything,
//! so the claim went untested. A [`FaultPlan`] makes failure an input:
//! it can kill a CE replica after its N-th arrival, sever a back link
//! for a while, or stall a front link, all scripted or derived from a
//! seed. The runtime's supervisor then has to *earn* the availability
//! number: restart the replica, rebuild its bounded histories from the
//! DM's retained window, and resume without ever violating the
//! orderedness of the replica's recorded input sequence `U_i`.
//!
//! Recovery invariants (what may be lost, what must never be):
//!
//! * updates that arrived while a replica was down **may** be lost —
//!   a crashed replica is just a very lossy front link, which the AD
//!   algorithms already tolerate;
//! * alerts handed to a back link **must not** be lost (severed links
//!   queue and resend; only bounded-queue overflow loses, and is
//!   counted);
//! * each replica's recorded `U_i` **must** stay strictly ordered per
//!   variable across any number of restarts — [`IngestGate`] enforces
//!   this with a per-variable seqno cursor that survives the crash;
//! * alert numbering **must** keep ascending across restarts (the
//!   evaluator keeps its `emitted` counter; only histories are rebuilt).
//!
//! LOCK ORDER: the only mutex is the [`RetainedWindow`] deque, a leaf —
//! push and snapshot each take it alone and release before returning.

use std::collections::VecDeque;
use std::time::Duration;

use rcm_sync::{Arc, Mutex};

use rcm_core::Update;

/// splitmix64, for deriving scripted faults from a seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Kill CE replica `ce` when its arrival counter reaches `at_arrival`
/// (1-based: `at_arrival == 1` kills on the first update pulled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillCe {
    /// Replica index.
    pub ce: usize,
    /// Arrival count that triggers the kill.
    pub at_arrival: u64,
}

/// Sever replica `ce`'s back link just before its `at_send`-th alert
/// transmission (0-based count of prior sends), restoring it after
/// `down_for`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeverBackLink {
    /// Replica index.
    pub ce: usize,
    /// Number of successful sends before the link drops.
    pub at_send: u64,
    /// How long the link stays down.
    pub down_for: Duration,
}

/// Stall the `(feed, ce)` front link for `stall` just before its
/// `at_send`-th transmission (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallFrontLink {
    /// Feed (DM) index, in builder `feed()` order.
    pub feed: usize,
    /// Replica index.
    pub ce: usize,
    /// Number of prior sends before the stall.
    pub at_send: u64,
    /// How long the link stalls.
    pub stall: Duration,
}

/// A complete fault schedule plus the recovery parameters, threaded
/// through [`SystemBuilder::faults`](crate::SystemBuilder::faults).
///
/// The default plan injects nothing but still enables supervision:
/// a genuinely panicking replica gets restarted up to `max_restarts`
/// times.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scripted CE kills.
    pub kills: Vec<KillCe>,
    /// Scripted back-link severances.
    pub severs: Vec<SeverBackLink>,
    /// Scripted front-link stalls.
    pub stalls: Vec<StallFrontLink>,
    /// Restart budget per replica; a replica that exceeds it stays dead.
    pub max_restarts: u32,
    /// How many recent updates each DM retains for recovery replay.
    pub retain_window: usize,
    /// Bound on a severed back link's resend queue; overflow drops the
    /// oldest queued alert and counts it in
    /// [`FaultReport::alerts_lost_overflow`].
    pub resend_queue_cap: usize,
    /// First reconnect backoff delay.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            kills: Vec::new(),
            severs: Vec::new(),
            stalls: Vec::new(),
            max_restarts: 3,
            retain_window: 256,
            resend_queue_cap: 1024,
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(20),
        }
    }
}

impl FaultPlan {
    /// An empty scripted plan (supervision on, nothing injected).
    pub fn scripted() -> Self {
        FaultPlan::default()
    }

    /// Derives a randomized plan from a seed: up to two kills, two
    /// back-link severances and two front-link stalls, spread over
    /// `replicas` CEs, `feeds` DMs and an update horizon.
    ///
    /// The same `(seed, replicas, feeds, horizon)` always yields the
    /// same plan, so chaos runs replay exactly.
    pub fn random(seed: u64, replicas: usize, feeds: usize, horizon: u64) -> Self {
        assert!(replicas > 0 && feeds > 0 && horizon > 0, "fault plan needs a real topology");
        let mut plan = FaultPlan::default();
        let mut state = mix(seed ^ 0xfau64.wrapping_shl(56));
        let mut draw = |modulus: u64| {
            state = mix(state);
            state % modulus.max(1)
        };
        for _ in 0..draw(3) {
            plan.kills
                .push(KillCe { ce: draw(replicas as u64) as usize, at_arrival: 1 + draw(horizon) });
        }
        for _ in 0..draw(3) {
            plan.severs.push(SeverBackLink {
                ce: draw(replicas as u64) as usize,
                at_send: draw(8),
                down_for: Duration::from_micros(draw(15_000)),
            });
        }
        for _ in 0..draw(3) {
            plan.stalls.push(StallFrontLink {
                feed: draw(feeds as u64) as usize,
                ce: draw(replicas as u64) as usize,
                at_send: draw(horizon),
                stall: Duration::from_micros(draw(3_000)),
            });
        }
        plan
    }

    /// Adds a scripted kill.
    #[must_use]
    pub fn kill_ce(mut self, ce: usize, at_arrival: u64) -> Self {
        self.kills.push(KillCe { ce, at_arrival });
        self
    }

    /// Adds a scripted back-link severance.
    #[must_use]
    pub fn sever_back_link(mut self, ce: usize, at_send: u64, down_for: Duration) -> Self {
        self.severs.push(SeverBackLink { ce, at_send, down_for });
        self
    }

    /// Adds a scripted front-link stall.
    #[must_use]
    pub fn stall_front_link(
        mut self,
        feed: usize,
        ce: usize,
        at_send: u64,
        stall: Duration,
    ) -> Self {
        self.stalls.push(StallFrontLink { feed, ce, at_send, stall });
        self
    }

    /// Sets the per-replica restart budget.
    #[must_use]
    pub fn max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Sets the DM retained-window size used for recovery replay.
    #[must_use]
    pub fn retain_window(mut self, retain_window: usize) -> Self {
        self.retain_window = retain_window;
        self
    }

    /// Sets the severed back link's resend-queue bound.
    #[must_use]
    pub fn resend_queue_cap(mut self, cap: usize) -> Self {
        self.resend_queue_cap = cap;
        self
    }

    /// Sets the reconnect backoff schedule parameters.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero or `cap < base` (see
    /// [`rcm_net::Backoff::new`]).
    #[must_use]
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        assert!(!base.is_zero() && cap >= base, "invalid backoff parameters");
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }
}

/// Per-variable seqno cursor guaranteeing a replica's recorded `U_i`
/// stays strictly ordered across crash/replay cycles.
///
/// The evaluator's own staleness check lives in its histories, which a
/// restart wipes — so after recovery it would happily re-accept seqnos
/// it already processed. The gate survives the restart and is consulted
/// on both the live path and the replay path, making ingestion
/// exactly-once per `(variable, seqno)` no matter how live arrivals and
/// window replays interleave.
///
/// The same cursor is what the socket transport's UDP receiver uses to
/// enforce the front-link contract (drop reorders and duplicates), so
/// the implementation lives there and the runtime re-exports it under
/// its historical name.
pub use rcm_transport::SeqGate as IngestGate;

/// A DM's bounded retention buffer: the last `cap` updates it emitted,
/// shared with recovering CE replicas for history replay.
#[derive(Debug, Clone)]
pub struct RetainedWindow {
    inner: Arc<Mutex<VecDeque<Update>>>,
    cap: usize,
}

impl RetainedWindow {
    /// An empty window retaining at most `cap` updates.
    pub fn new(cap: usize) -> Self {
        RetainedWindow { inner: Arc::new(Mutex::new(VecDeque::new())), cap }
    }

    /// Records an emitted update, evicting the oldest at capacity.
    pub fn push(&self, update: Update) {
        if self.cap == 0 {
            return;
        }
        let mut window = self.inner.lock();
        if window.len() == self.cap {
            window.pop_front();
        }
        window.push_back(update);
    }

    /// The retained updates, oldest first.
    pub fn snapshot(&self) -> Vec<Update> {
        self.inner.lock().iter().copied().collect()
    }
}

/// What the fault layer observed over one run; part of
/// [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Scripted kills that actually fired.
    pub kills_injected: u32,
    /// Restarts performed, per replica.
    pub restarts: Vec<u32>,
    /// Replicas that exhausted their restart budget and stayed dead.
    pub replicas_abandoned: u32,
    /// Updates a replica received but lost to a crash: the arrival a
    /// scripted kill fired on, the rest of the round it came in, and the
    /// channel backlog discarded at restart (arrived while the replica
    /// was down).
    pub updates_dropped_down: u64,
    /// Updates re-ingested from DM retained windows during recovery.
    pub updates_replayed: u64,
    /// Wall-clock time from catching each crash to recovery complete.
    pub recovery_latency: Vec<Duration>,
    /// Back-link severances that fired.
    pub backlink_severs: u64,
    /// Successful back-link reconnects.
    pub backlink_reconnects: u64,
    /// Reconnect attempts paced by the backoff schedule.
    pub backlink_attempts: u64,
    /// Duplicate alerts re-offered after reconnect (unacked resends).
    pub backlink_duplicates: u64,
    /// Alerts lost to resend-queue overflow (the only permitted alert
    /// loss, and only under a deliberately undersized queue).
    pub alerts_lost_overflow: u64,
}

impl FaultReport {
    /// An empty report for `replicas` CEs.
    pub fn new(replicas: usize) -> Self {
        FaultReport { restarts: vec![0; replicas], ..FaultReport::default() }
    }

    /// Total restarts across all replicas.
    pub fn total_restarts(&self) -> u32 {
        self.restarts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::VarId;

    fn u(var: u32, seqno: u64) -> Update {
        Update::new(VarId::new(var), seqno, 0.0)
    }

    #[test]
    fn gate_admits_strictly_ascending_per_var() {
        let mut gate = IngestGate::new();
        assert!(gate.admit(&u(0, 1)));
        assert!(gate.admit(&u(0, 3)));
        assert!(!gate.admit(&u(0, 3)), "duplicate rejected");
        assert!(!gate.admit(&u(0, 2)), "stale rejected");
        assert!(gate.admit(&u(1, 2)), "other variable independent");
        assert!(gate.admit(&u(0, 4)));
        assert_eq!(gate.cursor(VarId::new(0)), Some(4));
        assert_eq!(gate.cursor(VarId::new(2)), None);
    }

    /// Deterministic replay of the adversarial interleaving the loom
    /// suite explores exhaustively (`tests/loom.rs`): a restart replays
    /// the retained window through the gate *while* live updates keep
    /// arriving, and replayed updates interleave with — and can even
    /// overtake — live ones. Regression-pins the exactly-once ordering
    /// without needing `--cfg loom`.
    #[test]
    fn replay_interleaved_with_live_feed_admits_exactly_once() {
        let window = RetainedWindow::new(8);
        let mut gate = IngestGate::new();
        let mut admitted = Vec::new();
        let mut offer = |gate: &mut IngestGate, up: Update| {
            if gate.admit(&up) {
                admitted.push(up.seqno.get());
            }
        };

        // Live traffic before the kill; the DM retains what it sent.
        for s in 1..=2 {
            window.push(u(0, s));
            offer(&mut gate, u(0, s));
        }
        // Crash point: the DM races ahead while the CE is down.
        window.push(u(0, 3));
        // Recovery: replay snapshot [1, 2, 3] — 1 and 2 are duplicates
        // of already-ingested updates, 3 overtakes its live delivery.
        for up in window.snapshot() {
            offer(&mut gate, up);
        }
        // The live queue then drains, re-offering 3 and delivering 4.
        offer(&mut gate, u(0, 3));
        window.push(u(0, 4));
        offer(&mut gate, u(0, 4));

        assert_eq!(admitted, vec![1, 2, 3, 4], "exactly-once, in order");
        assert_eq!(gate.cursor(VarId::new(0)), Some(4));
    }

    #[test]
    fn window_evicts_oldest_at_capacity() {
        let w = RetainedWindow::new(3);
        for s in 1..=5 {
            w.push(u(0, s));
        }
        let kept: Vec<u64> = w.snapshot().iter().map(|u| u.seqno.get()).collect();
        assert_eq!(kept, vec![3, 4, 5]);
    }

    #[test]
    fn zero_cap_window_retains_nothing() {
        let w = RetainedWindow::new(0);
        w.push(u(0, 1));
        assert!(w.snapshot().is_empty());
    }

    #[test]
    fn random_plans_are_reproducible_and_in_range() {
        for seed in 0..50u64 {
            let a = FaultPlan::random(seed, 3, 2, 100);
            let b = FaultPlan::random(seed, 3, 2, 100);
            assert_eq!(a, b, "seed {seed}");
            for k in &a.kills {
                assert!(k.ce < 3 && (1..=100).contains(&k.at_arrival));
            }
            for s in &a.severs {
                assert!(s.ce < 3);
            }
            for s in &a.stalls {
                assert!(s.feed < 2 && s.ce < 3 && s.at_send < 100);
            }
        }
    }

    #[test]
    fn random_plans_vary_with_the_seed() {
        let plans: Vec<FaultPlan> = (0..20).map(|s| FaultPlan::random(s, 4, 3, 200)).collect();
        assert!(plans.windows(2).any(|w| w[0] != w[1]));
        // At least one plan actually injects something.
        assert!(plans.iter().any(|p| !p.kills.is_empty() || !p.severs.is_empty()));
    }

    #[test]
    fn scripted_builder_accumulates() {
        let plan = FaultPlan::scripted()
            .kill_ce(1, 40)
            .sever_back_link(0, 2, Duration::from_millis(5))
            .stall_front_link(0, 1, 10, Duration::from_millis(1))
            .max_restarts(1)
            .retain_window(64)
            .resend_queue_cap(8)
            .backoff(Duration::from_millis(1), Duration::from_millis(4));
        assert_eq!(plan.kills, vec![KillCe { ce: 1, at_arrival: 40 }]);
        assert_eq!(plan.severs.len(), 1);
        assert_eq!(plan.stalls.len(), 1);
        assert_eq!(plan.max_restarts, 1);
        assert_eq!(plan.retain_window, 64);
        assert_eq!(plan.resend_queue_cap, 8);
    }
}
