//! The CE's evaluation stage: one [`EvalPipeline`] behind every
//! supervised CE body and every `rcm-ce` node, for any worker count.
//!
//! With `workers == 0` the pipeline hosts the [`ConditionRegistry`] on
//! the caller's thread: no rings, no threads, nothing to shed — each
//! dispatch is `registry.ingest` → drain → latency record. This is the
//! plain single-threaded evaluator, and the reference the sharded stage
//! is pinned against.
//!
//! With `workers >= 1` evaluation is shard-parallel, with the output
//! byte-for-byte identical:
//!
//! * the **dispatcher** (the supervised CE body) admits updates (ingest
//!   gate, kill/restart/replay protocol) and fans each admitted update
//!   out to every worker over a bounded [`spsc`] ring,
//!   stamped with a global admission index and an admission timestamp;
//! * each **shard worker** owns the `cond_id % workers` slice of the
//!   condition set in a private [`ConditionRegistry`] — this module is
//!   the only code in the workspace that partitions conditions —
//!   evaluates every update against its slice in admission order, and
//!   reports per-update results to the sequencer;
//! * the **sequencer** reassembles rounds in ascending admission index
//!   (each worker's stream is already in that order, so one message per
//!   worker per round suffices), merges each round's alerts in
//!   ascending condition id, and hands them to the [`AlertDrain`] —
//!   reconstructing exactly the unsharded registry's emission order,
//!   alert numbering included.
//!
//! **Determinism argument.** The unsharded registry emits, per update,
//! in ascending condition-id order. Every worker sees the identical
//! admitted update stream in the identical order (rings are FIFO and
//! the dispatcher sheds all-or-nothing, pre-gate), so each condition's
//! state evolution — and therefore its alert stream and `AlertId`
//! numbering — is exactly what the zero-worker stage computes.
//! Sorting each round by condition id (a unique key: one alert per
//! condition per update) is then a permutation-free reconstruction of
//! the unsharded stream. Restart markers flow through the same FIFO
//! rings, so "histories wiped after update k, replay admitted after"
//! holds at the same stream position on every shard.
//!
//! **Batching.** Workers drain their ring in batches (one lock per
//! batch instead of one per job) of at most 64 jobs (`DRAIN_JOBS`), cut
//! no later than 1 ms after the batch opened (`DRAIN_DELAY`) — an empty
//! ring always flushes immediately, so batching adapts to queue depth
//! and never waits for more input.
//!
//! **Shedding.** Rings are bounded; when any ring is full the
//! dispatcher sheds the arrival *before* the ingest gate, so a shed
//! update is indistinguishable from a front-link drop and the paper's
//! per-AD guarantees already cover it. Control markers use the rings'
//! blocking path and are never shed.
//!
//! LOCK ORDER: this module takes only leaf mutexes — a ring's internal
//! state lock (see `rcm_sync::spsc`) and the shared `emitted` record
//! inside the drain implementations, each taken alone and released
//! before any channel operation.

use std::panic::resume_unwind;

use rcm_sync::atomic::{AtomicU64, Ordering};
use rcm_sync::chan::{unbounded, Receiver, Sender};
use rcm_sync::spsc;
use rcm_sync::thread::JoinHandle;
use rcm_sync::time::{Duration, Instant};
use rcm_sync::Arc;

use rcm_core::condition::Condition;
use rcm_core::{Alert, CeId, CondId, ConditionRegistry, LatencyHistogram, Update};

/// Most jobs a worker takes from its ring in one drain.
const DRAIN_JOBS: usize = 64;
/// A worker stops topping a drain up this long after it opened.
const DRAIN_DELAY: Duration = Duration::from_millis(1);

/// Where the pipeline delivers each admitted update's merged alerts.
///
/// The thread that merges owns the drain (the sequencer, or the
/// dispatching thread itself with zero workers), so the CE's back link
/// (channel or socket) moves in here; `rcm-ce` and the scale gauntlet
/// provide their own implementations.
///
/// The pipeline calls [`round`](Self::round) only. A drain implements
/// `round`, or `alerts` if it wants each round as a `Vec` of its own;
/// each forwards to the other, so one of the two must be implemented.
pub trait AlertDrain: Send {
    /// One admitted update's merged alerts, in ascending condition-id
    /// order. Never called with an empty round. The drain takes the
    /// alerts out of `alerts`; the caller keeps the buffer, capacity
    /// and all, and clears it for the next round.
    fn round(&mut self, alerts: &mut Vec<Alert>) {
        self.alerts(std::mem::take(alerts));
    }

    /// [`round`](Self::round) with the alerts handed over.
    fn alerts(&mut self, mut alerts: Vec<Alert>) {
        self.round(&mut alerts);
    }

    /// Every DM hung up and every in-flight update was evaluated: the
    /// lossless path's goodbye (flush the back link).
    fn end_of_stream(&mut self);

    /// The replica exhausted its restart budget: close without
    /// flushing (queued alerts are the one sanctioned loss).
    fn abandoned(&mut self) {}
}

/// Pipeline shape knobs, as set on
/// [`SystemBuilder`](crate::SystemBuilder) or `rcm-ce --workers`.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Shard workers. `0` (the default) evaluates on the dispatching
    /// thread: no pipeline threads are spawned and nothing is shed.
    pub workers: usize,
    /// Bounded ring capacity per worker; a full ring sheds arrivals.
    /// Unused with zero workers.
    pub ring_capacity: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions { workers: 0, ring_capacity: 1024 }
    }
}

impl PipelineOptions {
    /// Options running `workers` shard workers with the defaults.
    pub fn with_workers(workers: usize) -> Self {
        PipelineOptions { workers, ..Self::default() }
    }
}

/// One dispatched unit on a worker ring.
enum Job {
    /// An admitted update, stamped with its global admission index and
    /// admission instant (the latency clock's zero).
    Update { idx: u64, t0: Instant, update: Update },
    /// Crash marker: wipe histories (numbering survives), ack, go on.
    Restart,
    /// Budget-exhausted marker: ack and exit without flushing.
    Abandon,
}

/// One worker → sequencer report.
enum Out {
    /// Update `idx` evaluated against this worker's slice.
    Done {
        idx: u64,
        t0: Instant,
        /// Alerts this shard produced for the update (often empty —
        /// an empty `Vec` never allocated).
        alerts: Vec<Alert>,
    },
    /// Restart marker passed this worker (keeps rounds aligned).
    Restarted,
    /// Abandon marker reached this worker; its stream ends here.
    Abandoned,
}

/// A running evaluation pipeline, owned by the dispatching CE body.
pub struct EvalPipeline {
    stage: Stage,
    next_idx: u64,
    shed: Arc<AtomicU64>,
}

/// Where dispatched updates are evaluated.
// Boxing the large inline registry would add a pointer chase to every
// dispatch; a pipeline holds one stage.
#[allow(clippy::large_enum_variant)]
enum Stage {
    /// `workers == 0`: the registry and the drain live on the
    /// dispatching thread; a dispatch returns once its alerts are out.
    Inline {
        registry: ConditionRegistry,
        drain: Box<dyn AlertDrain>,
        latency: Arc<LatencyHistogram>,
        /// The round being raised, one buffer for the whole run.
        alerts: Vec<Alert>,
    },
    /// `workers >= 1`: one ring and one thread per shard, plus the
    /// sequencer (which owns the drain).
    Sharded {
        rings: Vec<spsc::Producer<Job>>,
        workers: Vec<JoinHandle<()>>,
        sequencer: JoinHandle<()>,
    },
}

impl std::fmt::Debug for EvalPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let workers = match &self.stage {
            Stage::Inline { .. } => 0,
            Stage::Sharded { workers, .. } => workers.len(),
        };
        f.debug_struct("EvalPipeline")
            .field("workers", &workers)
            .field("dispatched", &self.next_idx)
            .finish()
    }
}

impl EvalPipeline {
    /// Starts the evaluation stage: with `options.workers == 0` on the
    /// caller's thread, otherwise on that many shard workers plus the
    /// sequencer. Condition `i` gets global id `CondId::new(i)` and
    /// lives on shard `i % workers`.
    pub fn start(
        ce: CeId,
        conditions: &[Arc<dyn Condition>],
        options: &PipelineOptions,
        drain: Box<dyn AlertDrain>,
        latency: Arc<LatencyHistogram>,
        shed: Arc<AtomicU64>,
    ) -> EvalPipeline {
        // Shard `s` of `n` hosts the conditions with `i % n == s`, in
        // ascending `i`, so it emits in ascending condition id.
        let shard = |s: usize, n: usize| {
            let mut registry = ConditionRegistry::new(ce);
            for (i, cond) in conditions.iter().enumerate().skip(s).step_by(n) {
                registry.insert(CondId::new(i as u32), Arc::clone(cond));
            }
            registry
        };
        let stage = if options.workers == 0 {
            Stage::Inline { registry: shard(0, 1), drain, latency, alerts: Vec::new() }
        } else {
            let mut rings = Vec::with_capacity(options.workers);
            let mut workers = Vec::with_capacity(options.workers);
            let mut outs: Vec<Receiver<Out>> = Vec::with_capacity(options.workers);
            for s in 0..options.workers {
                let shard = shard(s, options.workers);
                let (tx, rx) = spsc::ring::<Job>(options.ring_capacity.max(1));
                let (out_tx, out_rx) = unbounded::<Out>();
                rings.push(tx);
                outs.push(out_rx);
                workers.push(rcm_sync::thread::spawn(move || worker_body(shard, rx, out_tx)));
            }
            let sequencer = rcm_sync::thread::spawn(move || sequencer_body(outs, drain, latency));
            Stage::Sharded { rings, workers, sequencer }
        };
        EvalPipeline { stage, next_idx: 0, shed }
    }

    /// Whether dispatching one more update right now would overflow a
    /// ring (never, with zero workers). The dispatcher is the only
    /// producer, so a `false` answer stays valid until it pushes:
    /// workers only ever *free* space.
    pub fn would_shed(&self) -> bool {
        match &self.stage {
            Stage::Inline { .. } => false,
            Stage::Sharded { rings, .. } => rings.iter().any(spsc::Producer::is_full),
        }
    }

    /// Records one shed arrival (kept with the pipeline so every
    /// dispatcher counts into the same run-wide ledger).
    pub fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Evaluates an admitted update (zero workers) or fans it out to
    /// every shard. Call only after [`EvalPipeline::would_shed`] said
    /// there is room — a race-free protocol for the single dispatcher.
    pub fn dispatch(&mut self, update: Update) {
        self.dispatch_with(update, false);
    }

    /// [`EvalPipeline::dispatch`] on the rings' *blocking* path — the
    /// replay entry: recovery replays are already-admitted history and
    /// must not shed.
    pub fn dispatch_wait(&mut self, update: Update) {
        self.dispatch_with(update, true);
    }

    fn dispatch_with(&mut self, update: Update, wait: bool) {
        let idx = self.next_idx;
        self.next_idx += 1;
        let t0 = Instant::now();
        match &mut self.stage {
            Stage::Inline { registry, drain, latency, alerts } => {
                registry.ingest(update, alerts);
                if !alerts.is_empty() {
                    drain.round(alerts);
                    alerts.clear();
                }
                latency.record(elapsed_nanos(t0));
            }
            Stage::Sharded { rings, .. } => {
                for ring in rings.iter() {
                    let job = Job::Update { idx, t0, update };
                    if wait {
                        let _ = ring.push_wait(job);
                    } else if ring.push(job).is_err() {
                        // Unreachable under the would_shed protocol
                        // (and a dead consumer means the run is tearing
                        // down anyway); losing a push here would desync
                        // shard histories, so account it as shed for
                        // the report's sake.
                        self.shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Updates dispatched so far (the next admission index).
    pub fn dispatched(&self) -> u64 {
        self.next_idx
    }

    /// The crash marker: every shard wipes its histories at the same
    /// stream position (delivered blocking — restarts are control flow,
    /// never shed); alert numbering survives.
    pub fn restart(&mut self) {
        match &mut self.stage {
            Stage::Inline { registry, .. } => registry.restart(),
            Stage::Sharded { rings, .. } => {
                for ring in rings.iter() {
                    let _ = ring.push_wait(Job::Restart);
                }
            }
        }
    }

    /// End of stream: every in-flight update is evaluated, then the
    /// drain's `end_of_stream` runs (flushing the back link) and the
    /// pipeline's threads, if any, are joined.
    pub fn finish(self) {
        match self.stage {
            Stage::Inline { mut drain, .. } => drain.end_of_stream(),
            Stage::Sharded { rings, workers, sequencer } => {
                drop(rings); // dropping the producers closes the rings
                join(workers, sequencer);
            }
        }
    }

    /// Budget exhausted: in-flight updates still evaluate first (they
    /// were admitted), then the drain's `abandoned` runs instead of the
    /// flush.
    pub fn abandon(self) {
        match self.stage {
            Stage::Inline { mut drain, .. } => drain.abandoned(),
            Stage::Sharded { rings, workers, sequencer } => {
                for ring in &rings {
                    let _ = ring.push_wait(Job::Abandon);
                }
                drop(rings);
                join(workers, sequencer);
            }
        }
    }
}

fn join(workers: Vec<JoinHandle<()>>, sequencer: JoinHandle<()>) {
    for handle in workers.into_iter().chain([sequencer]) {
        if let Err(payload) = handle.join() {
            resume_unwind(payload);
        }
    }
}

fn elapsed_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One shard worker: evaluates every update in admission order against
/// its registry slice, reporting per-update results upstream. Ring
/// drains are batched: a deep queue is paid for with one lock per
/// `DRAIN_JOBS` jobs, an empty queue flushes immediately, and a hot
/// stretch is cut no later than `DRAIN_DELAY` after the batch opened.
fn worker_body(mut shard: ConditionRegistry, jobs: spsc::Consumer<Job>, out: Sender<Out>) {
    let mut buf: Vec<Job> = Vec::new();
    while let Some(first) = jobs.pop() {
        let opened = Instant::now();
        buf.push(first);
        while buf.len() < DRAIN_JOBS && opened.elapsed() < DRAIN_DELAY {
            let want = DRAIN_JOBS - buf.len();
            if jobs.drain_into(&mut buf, want) == 0 {
                break; // empty ring: flush what we have, adaptively
            }
        }
        for job in buf.drain(..) {
            match job {
                Job::Update { idx, t0, update } => {
                    let mut alerts = Vec::new();
                    shard.ingest(update, &mut alerts);
                    if out.send(Out::Done { idx, t0, alerts }).is_err() {
                        return; // sequencer gone: run is tearing down
                    }
                }
                Job::Restart => {
                    shard.restart();
                    if out.send(Out::Restarted).is_err() {
                        return;
                    }
                }
                Job::Abandon => {
                    let _ = out.send(Out::Abandoned);
                    return;
                }
            }
        }
    }
}

/// What one worker's stream contributed to the current round.
enum RoundPull {
    Done { idx: u64, t0: Instant, alerts: Vec<Alert> },
    Closed,
    Abandoned,
}

/// Pulls the next significant (non-marker) message from one worker.
fn next_round_pull(rx: &Receiver<Out>) -> RoundPull {
    loop {
        match rx.recv() {
            Ok(Out::Done { idx, t0, alerts }) => return RoundPull::Done { idx, t0, alerts },
            Ok(Out::Restarted) => continue,
            Ok(Out::Abandoned) => return RoundPull::Abandoned,
            Err(_) => return RoundPull::Closed,
        }
    }
}

/// The sequencer: reassembles per-worker result streams into admission
/// order and the per-update ascending-condition-id merge, then records
/// the ingest→alert-emit latency for the round.
///
/// Lockstep invariant: every worker evaluates the identical job
/// sequence, so round `k` is each worker's `k`-th `Done` message — no
/// reorder buffer is needed, and a stream that ends (or abandons) ends
/// for all workers at the same round.
fn sequencer_body(
    outs: Vec<Receiver<Out>>,
    mut drain: Box<dyn AlertDrain>,
    latency: Arc<LatencyHistogram>,
) {
    let mut merged: Vec<Alert> = Vec::new();
    loop {
        merged.clear();
        let mut round: Option<(u64, Instant)> = None;
        let mut closed = false;
        let mut abandoned = false;
        for rx in &outs {
            match next_round_pull(rx) {
                RoundPull::Done { idx, t0, alerts } => {
                    debug_assert!(
                        round.is_none() || round.is_some_and(|(r, _)| r == idx),
                        "workers desynced: round {round:?} saw idx {idx}"
                    );
                    round = Some((idx, t0));
                    merged.extend(alerts);
                }
                RoundPull::Closed => closed = true,
                RoundPull::Abandoned => abandoned = true,
            }
        }
        if abandoned {
            drain.abandoned();
            return;
        }
        if closed {
            drain.end_of_stream();
            return;
        }
        if !merged.is_empty() {
            // One alert per condition per update: the key is unique.
            merged.sort_unstable_by_key(|a| a.cond.index());
            drain.round(&mut merged);
        }
        if let Some((_, t0)) = round {
            latency.record(elapsed_nanos(t0));
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use rcm_core::condition::{Cmp, Threshold};
    use rcm_core::VarId;
    use rcm_sync::Mutex;

    struct VecDrain {
        alerts: Arc<Mutex<Vec<Alert>>>,
        flushed: Arc<Mutex<bool>>,
        abandoned: Arc<Mutex<bool>>,
    }

    impl AlertDrain for VecDrain {
        fn round(&mut self, alerts: &mut Vec<Alert>) {
            assert!(!alerts.is_empty(), "drain must not see empty rounds");
            // LOCK ORDER: leaf test sink, taken alone.
            self.alerts.lock().append(alerts);
        }
        fn end_of_stream(&mut self) {
            *self.flushed.lock() = true;
        }
        fn abandoned(&mut self) {
            *self.abandoned.lock() = true;
        }
    }

    fn family(n: u32) -> Vec<Arc<dyn Condition>> {
        let x = VarId::new(0);
        (0..n)
            .map(|i| Arc::new(Threshold::new(x, Cmp::Gt, f64::from(i % 7))) as Arc<dyn Condition>)
            .collect()
    }

    fn reference(conds: &[Arc<dyn Condition>], updates: &[Update]) -> Vec<Alert> {
        let mut reg = ConditionRegistry::new(CeId::new(0));
        for (i, c) in conds.iter().enumerate() {
            reg.insert(CondId::new(i as u32), Arc::clone(c));
        }
        let mut out = Vec::new();
        reg.ingest_batch(updates, &mut out);
        out
    }

    fn run_pipeline(
        conds: &[Arc<dyn Condition>],
        updates: &[Update],
        workers: usize,
        restart_before: Option<usize>,
    ) -> (Vec<Alert>, bool, bool) {
        let got = Arc::new(Mutex::new(Vec::new()));
        let flushed = Arc::new(Mutex::new(false));
        let abandoned = Arc::new(Mutex::new(false));
        let drain = Box::new(VecDrain {
            alerts: Arc::clone(&got),
            flushed: Arc::clone(&flushed),
            abandoned: Arc::clone(&abandoned),
        });
        let mut pipe = EvalPipeline::start(
            CeId::new(0),
            conds,
            &PipelineOptions::with_workers(workers),
            drain,
            Arc::new(LatencyHistogram::new()),
            Arc::new(AtomicU64::new(0)),
        );
        for (i, &u) in updates.iter().enumerate() {
            if restart_before == Some(i) {
                pipe.restart();
            }
            pipe.dispatch_wait(u);
        }
        pipe.finish();
        let alerts = got.lock().clone();
        let f = *flushed.lock();
        let a = *abandoned.lock();
        (alerts, f, a)
    }

    fn stream(n: u64) -> Vec<Update> {
        let x = VarId::new(0);
        (1..=n).map(|s| Update::new(x, s, (s % 10) as f64)).collect()
    }

    #[test]
    fn pipeline_matches_unsharded_for_any_worker_count() {
        let conds = family(11);
        let updates = stream(60);
        let want = reference(&conds, &updates);
        assert!(!want.is_empty());
        for workers in [0usize, 1, 2, 3, 8] {
            let (got, flushed, abandoned) = run_pipeline(&conds, &updates, workers, None);
            assert_eq!(got, want, "workers = {workers}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "workers = {workers}");
            }
            assert!(flushed && !abandoned);
        }
    }

    #[test]
    fn restart_marker_wipes_all_shards_at_the_same_position() {
        let conds = family(7);
        let updates = stream(40);
        let cut = 23;
        let mut reg = ConditionRegistry::new(CeId::new(0));
        for (i, c) in conds.iter().enumerate() {
            reg.insert(CondId::new(i as u32), Arc::clone(c));
        }
        let mut want = Vec::new();
        reg.ingest_batch(&updates[..cut], &mut want);
        reg.restart();
        reg.ingest_batch(&updates[cut..], &mut want);

        for workers in [0usize, 1, 4] {
            let (got, ..) = run_pipeline(&conds, &updates, workers, Some(cut));
            assert_eq!(got, want, "workers = {workers}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "workers = {workers}");
            }
        }
    }

    #[test]
    fn abandon_skips_the_flush_but_not_inflight_updates() {
        let conds = family(3);
        let updates = stream(10);
        let want = reference(&conds, &updates);
        for workers in [0usize, 2] {
            let got = Arc::new(Mutex::new(Vec::new()));
            let flushed = Arc::new(Mutex::new(false));
            let abandoned = Arc::new(Mutex::new(false));
            let drain = Box::new(VecDrain {
                alerts: Arc::clone(&got),
                flushed: Arc::clone(&flushed),
                abandoned: Arc::clone(&abandoned),
            });
            let mut pipe = EvalPipeline::start(
                CeId::new(0),
                &conds,
                &PipelineOptions::with_workers(workers),
                drain,
                Arc::new(LatencyHistogram::new()),
                Arc::new(AtomicU64::new(0)),
            );
            for &u in &updates {
                pipe.dispatch_wait(u);
            }
            pipe.abandon();
            assert_eq!(got.lock().clone(), want, "workers = {workers}");
            assert!(*abandoned.lock(), "workers = {workers}");
            assert!(!*flushed.lock(), "workers = {workers}");
        }
    }

    #[test]
    fn full_rings_shed_all_or_nothing() {
        let conds = family(2);
        // Tiny rings, no consumers draining yet: would_shed flips once
        // a ring fills.
        let got = Arc::new(Mutex::new(Vec::new()));
        let drain = Box::new(VecDrain {
            alerts: Arc::clone(&got),
            flushed: Arc::new(Mutex::new(false)),
            abandoned: Arc::new(Mutex::new(false)),
        });
        let shed = Arc::new(AtomicU64::new(0));
        let opts = PipelineOptions { workers: 2, ring_capacity: 1 };
        let mut pipe = EvalPipeline::start(
            CeId::new(0),
            &conds,
            &opts,
            drain,
            Arc::new(LatencyHistogram::new()),
            Arc::clone(&shed),
        );
        let x = VarId::new(0);
        let mut dispatched = 0u64;
        for s in 1..=200u64 {
            if pipe.would_shed() {
                pipe.count_shed();
            } else {
                pipe.dispatch(Update::new(x, s, 50.0));
                dispatched += 1;
            }
        }
        pipe.finish();
        let shed = shed.load(Ordering::Relaxed);
        assert_eq!(shed + dispatched, 200);
        // Every dispatched update reached *both* conditions: alerts
        // come in pairs, and both per-condition streams number densely.
        let alerts = got.lock().clone();
        assert_eq!(alerts.len() as u64, dispatched * 2);
        for cond in 0..2u32 {
            let idxs: Vec<u64> =
                alerts.iter().filter(|a| a.cond == CondId::new(cond)).map(|a| a.id.index).collect();
            assert!(idxs.iter().enumerate().all(|(i, &n)| n == i as u64), "{idxs:?}");
        }
    }

    #[test]
    fn latency_histogram_sees_every_round() {
        let conds = family(1);
        let updates = stream(25);
        for workers in [0usize, 2] {
            let latency = Arc::new(LatencyHistogram::new());
            let drain = Box::new(VecDrain {
                alerts: Arc::new(Mutex::new(Vec::new())),
                flushed: Arc::new(Mutex::new(false)),
                abandoned: Arc::new(Mutex::new(false)),
            });
            let mut pipe = EvalPipeline::start(
                CeId::new(0),
                &conds,
                &PipelineOptions::with_workers(workers),
                drain,
                Arc::clone(&latency),
                Arc::new(AtomicU64::new(0)),
            );
            if workers == 0 {
                // No thread and no ring: nothing that could fill.
                assert!(format!("{pipe:?}").contains("workers: 0"), "{pipe:?}");
            }
            for &u in &updates {
                pipe.dispatch_wait(u);
                assert!(workers != 0 || !pipe.would_shed());
            }
            pipe.finish();
            let snap = latency.snapshot();
            assert_eq!(snap.count, 25, "workers = {workers}");
            assert!(snap.p99_ns >= snap.p50_ns);
            assert!(snap.max_ns >= snap.p999_ns);
        }
    }
}
