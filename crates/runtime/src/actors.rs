//! The Condition Evaluator replica and the Alert Displayer, each a
//! value its caller drives. A [`Replica`] takes a round at a time:
//! in-process the DM loop ([`dm_loop`](crate::dm::dm_loop)) owns every
//! replica and offers each its share of a round, and over sockets (a
//! system's or an `rcm-ce` node's) the event loop offers one each
//! datagram its ingress admits ([`on_ingress`]). A system replica's
//! supervisor turns injected (or genuine) panics into bounded restarts
//! with history replay. The
//! [`Ad`] takes a burst of alerts at a time, on the thread that
//! received them: the DM loop in-process, the event loop over sockets.
//!
//! LOCK ORDER: a replica and the AD touch only leaf mutexes owned
//! elsewhere (fault report, record/output/arrival/display sinks). Each
//! is taken alone and released before any channel operation or other
//! lock. The thread driving them (the DM loop in-process, the event
//! loop over sockets) takes their leaf locks itself, each alone as
//! well: no thread ever holds two locks, so cross-thread lock cycles
//! are impossible.

use std::panic::{self, AssertUnwindSafe};

use rcm_sync::time::Instant;
use rcm_sync::{Arc, Mutex};

use rcm_core::ad::AlertFilter;
use rcm_core::{Alert, ConditionRegistry, LatencyHistogram, Update};

use crate::dm::ROUND;
use crate::faults::{FaultReport, IngestGate, RetainedWindow};
use crate::pipeline::{AlertDrain, EvalPipeline};
use crate::system::AlertCallback;

/// Per-replica fault configuration handed to a supervised [`Replica`].
pub(crate) struct CeFaultConfig {
    /// Arrival counts (1-based) at which to kill this replica.
    pub kill_at: Vec<u64>,
    /// Restart budget; exceeded ⇒ the replica stays dead.
    pub max_restarts: u32,
    /// Every DM's retained window, for recovery replay.
    pub windows: Vec<RetainedWindow>,
    /// Shared run-wide fault counters.
    pub report: Arc<Mutex<FaultReport>>,
    /// This replica's index into `report.restarts`.
    pub ce_index: usize,
    /// Admits each live and replayed update at most once, in seqno
    /// order per variable. It outlives every crash, so `U_i` stays
    /// strictly ordered however replays and live arrivals interleave.
    pub gate: IngestGate,
}

impl std::fmt::Debug for CeFaultConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CeFaultConfig")
            .field("kill_at", &self.kill_at)
            .field("max_restarts", &self.max_restarts)
            .field("ce_index", &self.ce_index)
            .finish()
    }
}

/// Admitted updates waiting to be evaluated as one round, and when the
/// first of them was admitted (the round's latency clock starts there).
struct Round {
    updates: Vec<Update>,
    opened: Instant,
}

impl Round {
    fn push(&mut self, update: Update) {
        if self.updates.is_empty() {
            self.opened = Instant::now();
        }
        self.updates.push(update);
    }

    /// Records the round in `U_i` (if the replica keeps it) under one
    /// lock, then evaluates it.
    fn dispatch(&mut self, pipe: &mut EvalPipeline, ingested: Option<&Mutex<Vec<Update>>>) {
        if self.updates.is_empty() {
            return;
        }
        if let Some(ingested) = ingested {
            // LOCK ORDER: leaf record mutex, released before evaluation.
            ingested.lock().extend_from_slice(&self.updates);
        }
        pipe.dispatch_round(&self.updates, self.opened);
        self.updates.clear();
    }
}

/// How one offered round ended.
enum Offered {
    /// Every update was taken and what was admitted is evaluated.
    Evaluated,
    /// A scripted kill fired (no unwinding: the crash is simulated by
    /// wiping state exactly as a panic would, without spamming the
    /// global panic hook on every chaos run). What was admitted before
    /// it is evaluated; the rest of the round is left untaken.
    Killed,
}

/// What a replica holds while it is alive: everything a crash keeps
/// (the arrival count, the kill schedule, alert numbering inside the
/// pipeline) and the pipeline whose histories it wipes.
struct Live {
    pipe: EvalPipeline,
    round: Round,
    /// The system's `U_i` record; a node keeps none.
    ingested: Option<Arc<Mutex<Vec<Update>>>>,
    /// Updates offered so far, over the replica's whole life.
    arrivals: u64,
    /// Arrival counts at which to kill, descending: `pop` yields the
    /// earliest.
    kill_at: Vec<u64>,
}

impl Live {
    /// Takes `updates` in order into the round, through `gate` when the
    /// replica is supervised, until a scripted kill fires, then
    /// evaluates what was admitted.
    fn take(
        &mut self,
        updates: &mut impl Iterator<Item = Update>,
        mut gate: Option<&mut IngestGate>,
    ) -> Offered {
        for update in updates {
            self.arrivals += 1;
            if self.kill_at.last().is_some_and(|&k| self.arrivals >= k) {
                self.kill_at.pop();
                self.round.dispatch(&mut self.pipe, self.ingested.as_deref());
                return Offered::Killed;
            }
            if gate.as_mut().is_none_or(|gate| gate.admit(&update)) {
                self.round.push(update);
            } // else a duplicate of a replayed update
        }
        self.round.dispatch(&mut self.pipe, self.ingested.as_deref());
        Offered::Evaluated
    }

    /// Counts `lost` more arrivals that a crash discarded; kill
    /// thresholds they pass never fire.
    fn skip(&mut self, lost: u64) {
        self.arrivals += lost;
        while self.kill_at.last().is_some_and(|&k| self.arrivals >= k) {
            self.kill_at.pop();
        }
    }
}

/// One Condition Evaluator replica, as a value its caller drives:
/// `offer` hands it a round of updates, and `finish` ends its stream.
/// In-process the DM loop owns every replica and offers each its share
/// of a round; over sockets its ingress's `deliver` owns it
/// ([`on_ingress`]). A [`MonitorSystem`](crate::MonitorSystem) and the
/// `rcm-ce` node run this same replica.
///
/// The replica hosts its whole condition set in one [`EvalPipeline`]
/// (condition `i` is `CondId::new(i)`, so a single-condition system
/// emits under `CondId::SINGLE`), whose shards evaluate each round on
/// the caller's thread and its helpers and merge back into the
/// single-threaded emission order; its alerts go to the
/// [`AlertDrain`] it was built with, the back link or a wrapper of it.
///
/// A node's replica is unsupervised: a panic propagates, and it admits
/// every update it is offered, since what reaches it is in order
/// already (its ingress gated each datagram, and an in-process hop
/// neither reorders nor duplicates). A system replica with a
/// [`FaultPlan`](crate::FaultPlan) is supervised; a panic, scripted by
/// the fault plan or genuine, is caught. The rule
/// is one for both transports: a kill loses the rest of the round it
/// fired in and nothing else. Within the restart budget the replica
/// restarts: every condition's histories are wiped (the paper's crash
/// model), the arrival the kill fired on and the rest of its round are
/// counted as lost while down, and the bounded `H_x` histories are
/// rebuilt by replaying the DMs' retained windows through the normal
/// ingest path. A supervised replica runs every live and replayed
/// update through an [`IngestGate`] that outlives every crash, so the
/// recorded `U_i` stays strictly ordered per variable no matter how
/// replays and live arrivals interleave; per-condition alert numbering
/// survives crashes too (the registry keeps it across `restart`). Past
/// the budget the replica is abandoned, and every round offered to it
/// later is counted as lost while down.
pub struct Replica {
    /// `None` once the replica is abandoned.
    live: Option<Live>,
    /// `None` for an unsupervised replica, whose panics propagate.
    faults: Option<CeFaultConfig>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("abandoned", &self.live.is_none())
            .field("faults", &self.faults)
            .finish()
    }
}

impl Replica {
    /// The replica whose conditions `shards` host (see
    /// [`shards`](crate::pipeline::shards); a system gives each replica
    /// copies, [`ConditionRegistry::for_replica`]), its alerts handed to
    /// `drain` and its ingest→emit latencies recorded in `latency`. The
    /// pipeline's helper threads start here.
    pub fn new(
        shards: Vec<ConditionRegistry>,
        latency: Arc<LatencyHistogram>,
        drain: Box<dyn AlertDrain>,
    ) -> Self {
        let live = Live {
            pipe: EvalPipeline::with_shards(shards, drain, latency),
            round: Round { updates: Vec::with_capacity(ROUND), opened: Instant::now() },
            ingested: None,
            arrivals: 0,
            kill_at: Vec::new(),
        };
        Replica { live: Some(live), faults: None }
    }

    /// The system's additions: the replica records its admitted updates
    /// in `ingested` (the paper's `U_i`), and with `faults` it is
    /// supervised under the fault plan.
    pub(crate) fn in_system(
        mut self,
        ingested: Arc<Mutex<Vec<Update>>>,
        faults: Option<CeFaultConfig>,
    ) -> Self {
        if let Some(live) = &mut self.live {
            live.ingested = Some(ingested);
            live.kill_at = faults.iter().flat_map(|f| f.kill_at.iter().copied()).collect();
            live.kill_at.sort_unstable_by(|a, b| b.cmp(a));
        }
        self.faults = faults;
        self
    }

    /// Helper threads the replica's pipeline runs.
    pub fn helpers(&self) -> usize {
        self.live.as_ref().map_or(0, |live| live.pipe.helpers())
    }

    /// Takes every update of `updates`, in order, as one round: admits
    /// it (through the gate, when supervised), evaluates it and drains
    /// its alerts before it returns. A scripted kill inside the round
    /// first evaluates what was admitted before it. `updates` is left
    /// empty, its capacity kept for the caller's next round.
    pub(crate) fn offer(&mut self, updates: &mut Vec<Update>) {
        let Some(live) = &mut self.live else {
            // Abandoned: what it is offered is lost while down.
            if let Some(cfg) = &self.faults {
                cfg.report.lock().updates_dropped_down += updates.len() as u64;
            }
            updates.clear();
            return;
        };
        let mut rest = updates.drain(..);
        let gate = self.faults.as_mut().map(|cfg| &mut cfg.gate);
        let run = panic::catch_unwind(AssertUnwindSafe(|| live.take(&mut rest, gate)));
        let injected = match run {
            Ok(Offered::Evaluated) => return,
            Ok(Offered::Killed) => true,
            Err(payload) => {
                if self.faults.is_none() {
                    panic::resume_unwind(payload); // unsupervised replica: die loudly
                }
                false
            }
        };
        // The update the kill fired on and the rest of its round were
        // never received: loss, exactly like a drop on the front link.
        let unread = rest.len() as u64;
        drop(rest);
        live.skip(unread);
        self.crashed(injected, u64::from(injected) + unread);
    }

    /// Crash handling: counts the crash and the updates it lost, then
    /// restarts within the budget or abandons the replica past it.
    fn crashed(&mut self, injected: bool, lost: u64) {
        let (Some(live), Some(cfg)) = (&mut self.live, &mut self.faults) else {
            return;
        };
        // A genuine panic inside evaluation leaves its round recorded
        // and dispatched; it must not go out twice.
        live.round.updates.clear();
        let recovery_start = Instant::now();
        {
            let mut report = cfg.report.lock();
            if injected {
                report.kills_injected += 1;
            }
            report.updates_dropped_down += lost;
            match report.restarts.get_mut(cfg.ce_index) {
                Some(restarts) if *restarts < cfg.max_restarts => *restarts += 1,
                _ => {
                    report.replicas_abandoned += 1;
                    drop(report);
                    // Budget exhausted: the replica stays dead. The drain
                    // closes the back link without flushing: queued alerts
                    // on a dead replica are the one sanctioned alert loss.
                    // Socket links still send their end-of-stream marker
                    // so the AD listener does not wait on a corpse.
                    if let Some(live) = self.live.take() {
                        live.pipe.abandon();
                    }
                    return;
                }
            }
        }
        // Crash model: histories are gone, alert numbering is not. Every
        // shard wipes its histories before the next round.
        live.pipe.restart();
        // Rebuild bounded histories from every DM's retained window, as
        // one round. The gate admits only seqnos beyond the pre-crash
        // cursor, in the window's (ascending) order, so `U_i` stays
        // ordered and nothing is double-ingested.
        for window in &cfg.windows {
            for update in window.snapshot() {
                if cfg.gate.admit(&update) {
                    live.round.push(update);
                }
            }
        }
        let replayed = live.round.updates.len() as u64;
        live.round.dispatch(&mut live.pipe, live.ingested.as_deref());
        let mut report = cfg.report.lock();
        report.updates_replayed += replayed;
        report.recovery_latency.push(recovery_start.elapsed());
    }

    /// End of stream: the drain flushes the back link. A severed link
    /// must come back up and drain its queue (the lossless contract):
    /// in-process before this returns, over sockets before the event
    /// loop does. An abandoned replica has nothing to finish.
    pub(crate) fn finish(self) {
        if let Some(live) = self.live {
            live.pipe.finish();
        }
    }
}

/// A socket-mode replica as its CE ingress's `deliver`: each datagram's
/// admitted updates are offered as one round, on the event loop's
/// thread, as the datagram is read. The ingress drops the callback when
/// it retires (its Fins, or its idle backstop), and the drop finishes
/// the replica: its back link's drain is submitted to the same loop,
/// which runs until the drain is done.
pub fn on_ingress(replica: Replica) -> impl FnMut(&mut Vec<Update>) + Send {
    let mut replica = FinishOnDrop(Some(replica));
    move |round| {
        if let Some(replica) = &mut replica.0 {
            replica.offer(round);
        }
    }
}

/// Finishes its replica when dropped, unless the thread is unwinding:
/// a replica whose panic propagates is never finished, on any thread.
struct FinishOnDrop(Option<Replica>);

impl Drop for FinishOnDrop {
    fn drop(&mut self) {
        if let Some(replica) = self.0.take() {
            if !rcm_sync::thread::panicking() {
                replica.finish();
            }
        }
    }
}

/// Writes a displayed alert as `rcm-ad` and `rcm-monitor` print it, e.g.
/// `ALERT a(c1, {v0:[3,2]}) values [70.0, 40.0] [from CE0]`: its
/// `Display`, its snapshot's values and its replica. Names never cross
/// the wire, so the line names variables by id.
pub fn write_alert(out: &mut impl std::io::Write, alert: &Alert) -> std::io::Result<()> {
    writeln!(out, "ALERT {alert} values {:?} [from {}]", alert.snapshot, alert.id.ce)
}

/// The Alert Displayer, as a value that does no I/O: it is offered
/// each burst of merged alert arrivals on the thread that received
/// them — in-process the DM loop, after each round's offers; over
/// sockets the event loop, inside the alert listener's `deliver`. A
/// burst is recorded in `arrivals` under one lock, offered to the
/// filter in order, and what it displayed lands in `displayed` under
/// one lock. `on_alert` runs on the same thread, once per displayed
/// alert.
pub(crate) struct Ad {
    filter: Box<dyn AlertFilter>,
    arrivals: Arc<Mutex<Vec<Alert>>>,
    displayed: Arc<Mutex<Vec<Alert>>>,
    on_alert: Option<AlertCallback>,
    /// What the burst being offered displayed; its capacity is reused.
    shown: Vec<Alert>,
}

impl Ad {
    /// An AD running `filter`, recording into `arrivals` and
    /// `displayed`.
    pub(crate) fn new(
        filter: Box<dyn AlertFilter>,
        arrivals: Arc<Mutex<Vec<Alert>>>,
        displayed: Arc<Mutex<Vec<Alert>>>,
        on_alert: Option<AlertCallback>,
    ) -> Self {
        Ad { filter, arrivals, displayed, on_alert, shown: Vec::new() }
    }

    /// Takes every alert of `burst`, in order, leaving it empty with its
    /// capacity kept for the caller's next burst.
    pub(crate) fn offer(&mut self, burst: &mut Vec<Alert>) {
        if burst.is_empty() {
            return;
        }
        // LOCK ORDER: leaf sink mutexes, each taken alone.
        self.arrivals.lock().extend(burst.iter().cloned());
        for alert in burst.drain(..) {
            if self.filter.offer(&alert).is_deliver() {
                if let Some(cb) = &self.on_alert {
                    cb(&alert);
                }
                self.shown.push(alert);
            }
        }
        if !self.shown.is_empty() {
            self.displayed.lock().append(&mut self.shown);
        }
    }
}
