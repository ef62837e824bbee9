//! The Condition Evaluator and Alert Displayer actor bodies — plus the
//! CE supervisor that turns injected (or genuine) panics into bounded
//! restarts with history replay. The Data Monitors run in
//! [`dm_loop`](crate::dm::dm_loop).
//!
//! LOCK ORDER: actor bodies only touch leaf mutexes owned elsewhere
//! (fault report, record/output/arrival/display sinks). Each is taken
//! alone and released before any channel operation; no actor ever
//! holds two locks, so cross-thread lock cycles are impossible.

use std::panic::{self, AssertUnwindSafe};

use rcm_sync::time::Instant;
use rcm_sync::Arc;

/// How one supervised CE run ended.
enum CeExit {
    /// Every DM hung up; the stream is drained.
    EndOfStream,
    /// A scripted kill fired (no unwinding: the crash is simulated by
    /// wiping state exactly as a panic would, without spamming the
    /// global panic hook on every chaos run).
    Killed,
}

use rcm_sync::atomic::AtomicU64;
use rcm_sync::chan::Receiver;
use rcm_sync::Mutex;

use rcm_core::ad::AlertFilter;
use rcm_core::condition::Condition;
use rcm_core::{Alert, CeId, LatencyHistogram, Update};

use crate::dm::ROUND;
use crate::faults::{FaultReport, IngestGate, RetainedWindow};
use crate::pipeline::{AlertDrain, EvalPipeline, PipelineOptions};

/// One CE → AD path, as the CE body sees it: the in-process
/// [`BackLink`](crate::backlink::BackLink) and the socket transport's
/// TCP link implement this.
pub(crate) trait AlertSink: Send {
    /// Sends one alert (queued while the link is down — the link owns
    /// the lossless contract).
    fn send_alert(&mut self, alert: Alert);

    /// Blocks until the link is up and everything queued is out —
    /// called once at end-of-stream.
    fn flush(&mut self);

    /// Closes without flushing: the path for a replica abandoned past
    /// its restart budget, whose queued alerts are sanctioned loss.
    /// Channels need nothing (dropping the sender suffices); socket
    /// links still owe their listener an end-of-stream marker.
    fn abandon(&mut self) {}
}

/// Per-replica fault configuration handed to the supervised CE body.
pub(crate) struct CeFaultConfig {
    /// Arrival counts (1-based) at which to kill this replica, sorted.
    pub kill_at: Vec<u64>,
    /// Restart budget; exceeded ⇒ the replica stays dead.
    pub max_restarts: u32,
    /// Every DM's retained window, for recovery replay.
    pub windows: Vec<RetainedWindow>,
    /// Shared run-wide fault counters.
    pub report: Arc<Mutex<FaultReport>>,
    /// This replica's index into `report.restarts`.
    pub ce_index: usize,
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

/// Evaluation-stage configuration handed to every CE body: the pipeline
/// shape plus the run-wide latency histogram (shared across replicas,
/// snapshotted into the final report).
pub(crate) struct CePipeline {
    /// Shard count.
    pub options: PipelineOptions,
    /// Ingest→alert-emit latency histogram.
    pub latency: Arc<LatencyHistogram>,
}

impl std::fmt::Debug for CePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CePipeline").field("options", &self.options).finish()
    }
}

/// The pipeline's [`AlertDrain`] for a system replica: each merged
/// round lands in the shared `emitted` record and goes out the back
/// link, which the drain owns while the pipeline runs and which is
/// where an alert is serialised — once, in either transport mode.
struct SystemDrain {
    back: Box<dyn AlertSink>,
    emitted: Arc<Mutex<Vec<Alert>>>,
}

impl AlertDrain for SystemDrain {
    fn round(&mut self, alerts: &mut Vec<Alert>) {
        // LOCK ORDER: leaf record mutex, released before the link.
        self.emitted.lock().extend(alerts.iter().cloned());
        for alert in alerts.drain(..) {
            self.back.send_alert(alert);
        }
    }

    fn end_of_stream(&mut self) {
        self.back.flush();
    }

    fn abandoned(&mut self) {
        self.back.abandon();
    }
}

/// Admitted updates waiting to be evaluated as one round, and when the
/// first of them was admitted (the round's latency clock starts there,
/// so the time an update waits while its round gathers counts).
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

    /// Records the round in `U_i` under one lock, then evaluates it.
    fn dispatch(&mut self, pipe: &mut EvalPipeline, ingested: &Mutex<Vec<Update>>) {
        if self.updates.is_empty() {
            return;
        }
        // LOCK ORDER: leaf record mutex, released before evaluation.
        ingested.lock().extend_from_slice(&self.updates);
        pipe.dispatch_round(&self.updates, self.opened);
        self.updates.clear();
    }
}

/// Runs a Condition Evaluator replica under supervision: ingests
/// updates until every DM feeding it hangs up, forwarding alerts over
/// the (severable) lossless back link. The replica hosts its whole
/// condition set in one [`EvalPipeline`] — condition `i` is
/// `CondId::new(i)`, so a single-condition system emits under
/// `CondId::SINGLE` — whose shards evaluate each round on this thread
/// and its helpers and merge back into the single-threaded emission
/// order; the back link lives in the pipeline's [`SystemDrain`].
///
/// Updates are evaluated a round at a time: the updates one message
/// carried (a whole DM round in-process, one update from a socket
/// ingress), topped up with the messages already queued behind it
/// while the round holds fewer than [`ROUND`] admitted updates. The
/// round goes out before the body blocks on its channel and before a
/// scripted kill takes effect, so every admitted update is evaluated.
///
/// A panic — scripted by the fault plan or genuine — is caught; within
/// the restart budget the replica restarts: every condition's
/// histories are wiped (the paper's crash model), the rest of the
/// message the crash interrupted and the channel backlog that piled up
/// "while down" are discarded as loss, and the bounded `H_x` histories
/// are rebuilt by replaying the DMs' retained windows through the
/// normal ingest path. The [`IngestGate`] outlives every crash, so the
/// recorded `U_i` stays strictly ordered per variable no matter how
/// replays and live arrivals interleave; per-condition alert numbering
/// survives crashes too (the registry keeps it across `restart`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ce_body<M>(
    ce: CeId,
    conditions: Vec<Arc<dyn Condition>>,
    rx: Receiver<M>,
    back: Box<dyn AlertSink>,
    ingested: Arc<Mutex<Vec<Update>>>,
    emitted: Arc<Mutex<Vec<Alert>>>,
    faults: Option<CeFaultConfig>,
    pipeline: CePipeline,
) where
    M: IntoIterator<Item = Update> + Send + 'static,
{
    let drain = Box::new(SystemDrain { back, emitted });
    let mut pipe = EvalPipeline::start(
        ce,
        &conditions,
        &pipeline.options,
        drain,
        pipeline.latency,
        Arc::new(AtomicU64::new(0)),
    );
    let mut gate = IngestGate::new();
    let mut arrivals: u64 = 0;
    let mut kill_at: Vec<u64> = faults.as_ref().map(|f| f.kill_at.clone()).unwrap_or_default();
    kill_at.sort_unstable();
    kill_at.reverse(); // pop() yields the earliest threshold

    // The message being taken apart. It outlives a crash, so the rest
    // of a message the replica died in is counted as arrived-while-down.
    let mut message: Option<M::IntoIter> = None;
    let mut round = Round { updates: Vec::with_capacity(ROUND), opened: Instant::now() };

    loop {
        let run = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let Some(update) = message.as_mut().and_then(Iterator::next) else {
                if round.updates.len() < ROUND {
                    if let Ok(next) = rx.try_recv() {
                        message = Some(next.into_iter());
                        continue;
                    }
                }
                round.dispatch(&mut pipe, &ingested);
                match rx.recv() {
                    Ok(next) => {
                        message = Some(next.into_iter());
                        continue;
                    }
                    Err(_) => return CeExit::EndOfStream,
                }
            };
            arrivals += 1;
            if kill_at.last().is_some_and(|&k| arrivals >= k) {
                kill_at.pop();
                // What was admitted before the kill is evaluated.
                round.dispatch(&mut pipe, &ingested);
                return CeExit::Killed;
            }
            if gate.admit(&update) {
                round.push(update);
            } // else a duplicate of a replayed update
        }));
        let injected = match run {
            Ok(CeExit::EndOfStream) => break, // every DM hung up: done
            Ok(CeExit::Killed) => true,
            Err(payload) => {
                if faults.is_none() {
                    panic::resume_unwind(payload); // unsupervised replica: die loudly
                }
                false
            }
        };
        // A genuine panic inside evaluation leaves its round recorded
        // and dispatched; it must not go out twice.
        round.updates.clear();
        let cfg = faults.as_ref().expect("crash handling requires a fault config");
        let recovery_start = Instant::now();
        {
            let mut report = cfg.report.lock();
            if injected {
                report.kills_injected += 1;
            }
            if report.restarts[cfg.ce_index] >= cfg.max_restarts {
                report.replicas_abandoned += 1;
                drop(report);
                // Budget exhausted: the replica stays dead. The drain
                // closes the back link without flushing — queued alerts
                // on a dead replica are the one sanctioned alert loss.
                // Socket links still send their end-of-stream marker so
                // the AD listener does not wait on a corpse.
                pipe.abandon();
                return;
            }
            report.restarts[cfg.ce_index] += 1;
        }
        // Crash model: histories are gone, alert numbering is not. Every
        // shard wipes its histories before the next round.
        pipe.restart();
        // The update the kill fired on, the rest of its message and
        // whatever queued while "down" were never received; they are
        // loss, exactly like a drop on the front link. Kill thresholds
        // that pass during the outage simply never fire.
        let mut discarded = u64::from(injected);
        let rest = message.take().into_iter().flatten();
        for _ in rest.chain(std::iter::from_fn(|| rx.try_recv().ok()).flatten()) {
            arrivals += 1;
            discarded += 1;
        }
        while kill_at.last().is_some_and(|&k| arrivals >= k) {
            kill_at.pop();
        }
        // Rebuild bounded histories from every DM's retained window, as
        // one round. The gate admits only seqnos beyond the pre-crash
        // cursor, in the window's (ascending) order, so `U_i` stays
        // ordered and nothing is double-ingested.
        for window in &cfg.windows {
            for update in window.snapshot() {
                if gate.admit(&update) {
                    round.push(update);
                }
            }
        }
        let replayed = round.updates.len() as u64;
        round.dispatch(&mut pipe, &ingested);
        let mut report = cfg.report.lock();
        report.updates_dropped_down += discarded;
        report.updates_replayed += replayed;
        report.recovery_latency.push(recovery_start.elapsed());
    }
    // End of stream: the drain flushes the back link — a severed link
    // must come back up and drain its queue before the replica exits
    // (the lossless contract).
    pipe.finish();
}

/// Most alerts the AD takes on after a blocking receive, from what is
/// already queued, before it records them.
const AD_BURST: usize = 64;

/// Runs the Alert Displayer: filters merged alert arrivals until every
/// replica hangs up. Each blocking receive opens a burst of what is
/// queued behind it; the burst is recorded in `arrivals` under one
/// lock, offered in order, and what it displayed lands in `displayed`
/// under one lock.
pub(crate) fn ad_body(
    rx: Receiver<Alert>,
    mut filter: Box<dyn AlertFilter>,
    arrivals: Arc<Mutex<Vec<Alert>>>,
    displayed: Arc<Mutex<Vec<Alert>>>,
    on_alert: Option<crate::system::AlertCallback>,
) {
    let mut burst = Vec::with_capacity(AD_BURST + 1);
    let mut shown = Vec::with_capacity(AD_BURST + 1);
    while let Ok(first) = rx.recv() {
        burst.push(first);
        burst.extend(std::iter::from_fn(|| rx.try_recv().ok()).take(AD_BURST));
        // LOCK ORDER: leaf sink mutexes, each taken alone.
        arrivals.lock().extend(burst.iter().cloned());
        for alert in burst.drain(..) {
            if filter.offer(&alert).is_deliver() {
                if let Some(cb) = &on_alert {
                    cb(&alert);
                }
                shown.push(alert);
            }
        }
        if !shown.is_empty() {
            displayed.lock().append(&mut shown);
        }
    }
}
