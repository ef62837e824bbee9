//! The CE's evaluation stage: one [`EvalPipeline`] behind every
//! [`Replica`](crate::Replica) — a system's, an `rcm-ce` node's and the
//! scale gauntlet's flat CE — for any worker count.
//!
//! **Shards are threads.** The conditions are evaluated on
//! `threads = min(max(workers, 1), cpus)` threads, where `cpus` is the
//! caller's [`available_parallelism`] (its affinity mask and CPU quota;
//! no cap when it is unknown). Condition `i` lives on thread
//! `i % threads`, in that thread's one [`ConditionRegistry`], and this
//! module is the only code in the workspace that partitions
//! conditions. Thread 0 is the caller's (the one driving the replica),
//! and every other thread is a helper spawned here. A helper that
//! cannot run beside its caller only adds a hand-off per round, so a
//! caller confined to one CPU spawns nothing and evaluates every
//! condition in one registry. With `workers` 0 or 1 nothing is spawned
//! and the CPU count is not read.
//!
//! **Hosted once.** A [`MonitorSystem`](crate::MonitorSystem) reads the
//! CPU count ([`cpu_budget`]) and hosts its condition set in this shard
//! layout ([`shards`]) once; each replica's pipeline starts from copies
//! of those registries ([`ConditionRegistry::for_replica`]), not from
//! the conditions. A node hosts its one replica's set the same way.
//!
//! [`available_parallelism`]: rcm_sync::thread::available_parallelism
//!
//! **Rounds.** The unit of work is a round: the updates one offer to
//! the replica admitted, handed over in admission order to
//! [`EvalPipeline::dispatch_round`], which forks and joins:
//!
//! 1. each helper is sent the round over its own channel;
//! 2. the caller evaluates its own shard;
//! 3. the caller receives each helper's alerts and per-update counts;
//! 4. for each update in order, the threads' alerts are merged in
//!    ascending condition id and handed to the [`AlertDrain`], and the
//!    update's ingest→emit latency is recorded.
//!
//! A job's buffers (the round, its alerts, its counts) go to the helper
//! and come back with the reply, so the steady state allocates nothing.
//!
//! **One message per channel.** The caller receives every reply before
//! `dispatch_round` returns, so each helper's job channel and reply
//! channel hold at most one message at any time. That is why a plain
//! channel does: nothing can pile up, so there is no ring to bound and
//! nothing to shed. A restart rides on the next round's job rather than
//! being a message of its own, which keeps the count at one.
//!
//! **Determinism.** The unsharded registry emits, per update, in
//! ascending condition-id order. Every shard evaluates the identical
//! admitted updates in the identical order, and a restart wipes every
//! shard's histories between the same two rounds, so each condition's
//! state evolution, and therefore its alert stream and `AlertId`
//! numbering, is exactly what one registry computes. Sorting each
//! update's alerts by condition id (a unique key: one alert per
//! condition per update) then reconstructs the unsharded stream, so the
//! drain sees the same `(update, condition)` order for any worker count.
//!
//! **Failure.** A helper that panics drops its reply sender, so the
//! caller's receive fails; the caller joins the helper and re-raises
//! its payload. A panic on the caller's shard is held until every
//! helper has replied, then re-raised. Either way no job is in flight
//! once `dispatch_round` returns or unwinds, and a pipeline that lost a
//! helper panics on every later round instead of waiting on it.
//!
//! LOCK ORDER: this module takes no lock itself; the drain
//! implementations take their leaf `emitted` record alone.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use rcm_sync::atomic::AtomicU64;
use rcm_sync::chan::{unbounded, Receiver, SendError, Sender};
use rcm_sync::thread::JoinHandle;
use rcm_sync::time::Instant;
use rcm_sync::Arc;

use rcm_core::condition::Condition;
use rcm_core::{Alert, CeId, CondId, ConditionRegistry, LatencyHistogram, Update};

/// Where the pipeline delivers each admitted update's merged alerts.
///
/// The dispatching thread owns the drain, so the CE's back link moves
/// in here: [`BackLink`](crate::BackLink) (a channel) and the socket
/// transport's `EventedBackLink` implement it, and are the drain an
/// `rcm-ce` node's replica runs. A system wraps its link in a drain
/// that also records what the replica emitted; the scale gauntlet
/// fans each alert out on many links.
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

    /// Every DM hung up and every dispatched update was evaluated: the
    /// lossless path's goodbye (flush the back link).
    fn end_of_stream(&mut self);

    /// The replica exhausted its restart budget: close without
    /// flushing (queued alerts are the one sanctioned loss).
    fn abandoned(&mut self) {}
}

/// Pipeline shape, as set on [`SystemBuilder`](crate::SystemBuilder)
/// or `rcm-ce --workers`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineOptions {
    /// The most threads evaluating. `0` (the default) and `1` evaluate
    /// every condition on the dispatching thread. `n >= 2` splits the
    /// conditions into `min(n, cpus)` shards, one per thread: the
    /// dispatching thread and `min(n, cpus) - 1` helpers, where `cpus`
    /// is the dispatching thread's available parallelism. The output is
    /// the same for any `n` and any CPU count.
    pub workers: usize,
}

impl PipelineOptions {
    /// Options running at most `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        PipelineOptions { workers }
    }
}

/// One thread's share of a round: the alerts its shard raised, and how
/// many each update raised. Both are kept reversed, so the next
/// update's alerts sit at the end where [`Evaluated::take_next`] pops
/// them.
#[derive(Default)]
struct Evaluated {
    alerts: Vec<Alert>,
    counts: Vec<usize>,
}

impl Evaluated {
    fn evaluate(&mut self, shard: &mut ConditionRegistry, round: &[Update]) {
        self.alerts.clear();
        self.counts.clear();
        for &update in round {
            #[cfg(test)]
            blow_fuse(shard, update);
            let before = self.alerts.len();
            shard.ingest(update, &mut self.alerts);
            self.counts.push(self.alerts.len() - before);
        }
        self.alerts.reverse();
        self.counts.reverse();
    }

    /// Moves the next update's alerts onto `into`.
    fn take_next(&mut self, into: &mut Vec<Alert>) {
        let count = self.counts.pop().unwrap_or(0);
        into.extend(std::iter::from_fn(|| self.alerts.pop()).take(count));
    }
}

/// A variable that, in a test build, makes the shard hosting a
/// condition over it panic on each of its updates: no expression can
/// panic, and the tests check that a shard's panic surfaces from
/// `dispatch_round`.
#[cfg(test)]
const FUSE: rcm_core::VarId = rcm_core::VarId::new(0xF05E);

#[cfg(test)]
fn blow_fuse(shard: &ConditionRegistry, update: Update) {
    if update.var == FUSE && shard.variables().any(|var| var == FUSE) {
        panic!("fuse blew on {update}");
    }
}

/// One round for a helper, and its reply: the same buffers, `out`
/// filled.
#[derive(Default)]
struct Job {
    /// Wipe the shard's histories before this round (the replica
    /// restarted since the last one).
    restart: bool,
    round: Vec<Update>,
    out: Evaluated,
}

/// One helper thread and its two channels.
struct Helper {
    jobs: Sender<Job>,
    replies: Receiver<Job>,
    /// `None` once the thread has been joined.
    thread: Option<JoinHandle<()>>,
    /// The job's buffers while they are home (between rounds).
    job: Job,
}

impl Helper {
    /// Joins a helper whose channel failed, returning what it died of.
    fn lost(&mut self) -> Box<dyn Any + Send> {
        match self.thread.take().map(JoinHandle::join) {
            Some(Err(payload)) => payload,
            _ => Box::new("an evaluation helper has exited"),
        }
    }
}

/// A running evaluation pipeline, owned by the replica that dispatches
/// to it.
pub struct EvalPipeline {
    /// The shard evaluated on the dispatching thread, shard 0.
    shard: ConditionRegistry,
    own: Evaluated,
    helpers: Vec<Helper>,
    drain: Box<dyn AlertDrain>,
    latency: Arc<LatencyHistogram>,
    /// One update's merged alerts, one buffer for the whole run.
    merged: Vec<Alert>,
}

impl std::fmt::Debug for EvalPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPipeline").field("helpers", &self.helpers.len()).finish()
    }
}

/// The CPU budget [`shards`] splits for: the caller's available
/// parallelism when `workers >= 2`, read once per call, and 1
/// otherwise (no shard count depends on it then).
pub fn cpu_budget(options: &PipelineOptions) -> usize {
    if options.workers >= 2 {
        rcm_sync::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get)
    } else {
        1
    }
}

/// `conditions` hosted for replica `ce` on `min(max(workers, 1), cpus)`
/// shards: shard `t` hosts the conditions with `i % threads == t`, in
/// ascending `i` (condition `i` is `CondId::new(i)`), so it emits in
/// ascending condition id. A system hosts its set once and gives each
/// replica copies ([`ConditionRegistry::for_replica`]); a node hosts
/// its own replica's set.
pub fn shards(
    ce: CeId,
    conditions: &[Arc<dyn Condition>],
    options: &PipelineOptions,
    cpus: usize,
) -> Vec<ConditionRegistry> {
    let threads = options.workers.max(1).min(cpus).max(1);
    (0..threads)
        .map(|t| {
            let mut registry = ConditionRegistry::new(ce);
            for (i, cond) in conditions.iter().enumerate().skip(t).step_by(threads) {
                registry.insert(CondId::new(i as u32), Arc::clone(cond));
            }
            registry
        })
        .collect()
}

impl EvalPipeline {
    /// Starts the evaluation stage: one shard on each of
    /// `min(max(workers, 1), cpus)` threads, the caller's and one helper
    /// per further thread (see the module docs). Condition `i` gets
    /// global id `CondId::new(i)` and lives on shard `i % threads`.
    /// The CPU count is read here, once, and only when `workers >= 2`.
    /// Nothing is ever shed: `_shed` is kept only so that existing
    /// callers still compile, and is never written.
    pub fn start(
        ce: CeId,
        conditions: &[Arc<dyn Condition>],
        options: &PipelineOptions,
        drain: Box<dyn AlertDrain>,
        latency: Arc<LatencyHistogram>,
        _shed: Arc<AtomicU64>,
    ) -> EvalPipeline {
        let shards = shards(ce, conditions, options, cpu_budget(options));
        EvalPipeline::with_shards(shards, drain, latency)
    }

    /// The evaluation stage over shards already hosted: the first on the
    /// caller's thread and one helper thread for each further one (no
    /// shards is one empty shard).
    pub(crate) fn with_shards(
        shards: Vec<ConditionRegistry>,
        drain: Box<dyn AlertDrain>,
        latency: Arc<LatencyHistogram>,
    ) -> EvalPipeline {
        let mut shards = shards.into_iter();
        let shard = shards.next().unwrap_or_else(|| ConditionRegistry::new(CeId::new(0)));
        let helpers = shards
            .map(|registry| {
                let (jobs, job_rx) = unbounded::<Job>();
                let (reply_tx, replies) = unbounded::<Job>();
                let thread =
                    rcm_sync::thread::spawn(move || helper_body(registry, job_rx, reply_tx));
                Helper { jobs, replies, thread: Some(thread), job: Job::default() }
            })
            .collect();
        EvalPipeline {
            shard,
            own: Evaluated::default(),
            helpers,
            drain,
            latency,
            merged: Vec::new(),
        }
    }

    /// Evaluates one round of admitted updates on every shard and
    /// drains its alerts, update by update, before it returns. Each
    /// update's latency is measured from `admitted`, the admission of
    /// the round's first update.
    pub fn dispatch_round(&mut self, round: &[Update], admitted: Instant) {
        if round.is_empty() {
            return;
        }
        let mut lost = None;
        for helper in &mut self.helpers {
            let mut job = std::mem::take(&mut helper.job);
            job.round.clear();
            job.round.extend_from_slice(round);
            if let Err(SendError(job)) = helper.jobs.send(job) {
                helper.job = job;
                let payload = helper.lost();
                lost.get_or_insert(payload);
            }
        }
        let own = catch_unwind(AssertUnwindSafe(|| self.own.evaluate(&mut self.shard, round)));
        for helper in self.helpers.iter_mut().filter(|h| h.thread.is_some()) {
            match helper.replies.recv() {
                Ok(job) => helper.job = job,
                Err(_) => {
                    let payload = helper.lost();
                    lost.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = own.err().or(lost) {
            resume_unwind(payload);
        }

        let EvalPipeline { own, helpers, drain, latency, merged, .. } = self;
        for _ in round {
            own.take_next(merged);
            for helper in helpers.iter_mut() {
                helper.job.out.take_next(merged);
            }
            if !merged.is_empty() {
                // One alert per condition per update: the key is unique.
                merged.sort_unstable_by_key(|a| a.cond.index());
                drain.round(merged);
                merged.clear();
            }
            latency.record(elapsed_nanos(admitted));
        }
    }

    /// Evaluates one admitted update: a round of one.
    pub fn dispatch(&mut self, update: Update) {
        self.dispatch_round(std::slice::from_ref(&update), Instant::now());
    }

    /// Helper threads the pipeline runs: `min(workers, cpus) - 1`.
    pub fn helpers(&self) -> usize {
        self.helpers.len()
    }

    /// The crash marker: every shard's histories are wiped before the
    /// next round (the caller's at once, each helper's with the next
    /// job); alert numbering survives.
    pub fn restart(&mut self) {
        self.shard.restart();
        for helper in &mut self.helpers {
            helper.job.restart = true;
        }
    }

    /// End of stream: the helpers are joined, then the drain's
    /// `end_of_stream` runs (flushing the back link).
    pub fn finish(self) {
        self.close().end_of_stream();
    }

    /// Budget exhausted: the helpers are joined, then the drain's
    /// `abandoned` runs instead of the flush.
    pub fn abandon(self) {
        self.close().abandoned();
    }

    /// Hangs up on every helper and joins it, re-raising a helper's
    /// panic; returns the drain.
    fn close(self) -> Box<dyn AlertDrain> {
        for Helper { jobs, thread, .. } in self.helpers {
            drop(jobs);
            if let Some(Err(payload)) = thread.map(JoinHandle::join) {
                resume_unwind(payload);
            }
        }
        self.drain
    }
}

fn elapsed_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One helper: evaluates each round it is sent against its shard and
/// sends the job back, until the pipeline hangs up.
fn helper_body(mut shard: ConditionRegistry, jobs: Receiver<Job>, replies: Sender<Job>) {
    while let Ok(mut job) = jobs.recv() {
        if std::mem::take(&mut job.restart) {
            shard.restart();
        }
        job.out.evaluate(&mut shard, &job.round);
        if replies.send(job).is_err() {
            return;
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use rcm_core::condition::{cond, Cmp};
    use rcm_core::VarId;
    use rcm_sync::Mutex;

    /// What a `VecDrain` saw, read once the pipeline is done.
    #[derive(Clone, Default)]
    struct Seen {
        alerts: Arc<Mutex<Vec<Alert>>>,
        flushed: Arc<Mutex<bool>>,
        abandoned: Arc<Mutex<bool>>,
    }

    impl Seen {
        fn alerts(&self) -> Vec<Alert> {
            self.alerts.lock().clone()
        }
        fn flushed(&self) -> bool {
            *self.flushed.lock()
        }
        fn abandoned(&self) -> bool {
            *self.abandoned.lock()
        }
    }

    struct VecDrain(Seen);

    impl AlertDrain for VecDrain {
        fn round(&mut self, alerts: &mut Vec<Alert>) {
            assert!(!alerts.is_empty(), "drain must not see empty rounds");
            // LOCK ORDER: leaf test sink, taken alone.
            self.0.alerts.lock().append(alerts);
        }
        fn end_of_stream(&mut self) {
            *self.0.flushed.lock() = true;
        }
        fn abandoned(&mut self) {
            *self.0.abandoned.lock() = true;
        }
    }

    fn family(n: u32) -> Vec<Arc<dyn Condition>> {
        let x = VarId::new(0);
        (0..n)
            .map(|i| Arc::new(cond::threshold(x, Cmp::Gt, f64::from(i % 7))) as Arc<dyn Condition>)
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

    /// CPU budgets every equivalence case runs at: one CPU (no helper),
    /// two, and no cap (a helper per shard past the first).
    const BUDGETS: [usize; 3] = [1, 2, usize::MAX];

    /// A pipeline over `conds` on a budget of `cpus`, whose drain
    /// records into `seen`.
    fn start(
        conds: &[Arc<dyn Condition>],
        workers: usize,
        cpus: usize,
        seen: &Seen,
    ) -> EvalPipeline {
        EvalPipeline::with_shards(
            shards(CeId::new(0), conds, &PipelineOptions::with_workers(workers), cpus),
            Box::new(VecDrain(seen.clone())),
            Arc::new(LatencyHistogram::new()),
        )
    }

    /// Dispatches `updates` in rounds of `round` (a restart before
    /// update `restart_before`, if any), then finishes.
    fn run_pipeline(
        conds: &[Arc<dyn Condition>],
        updates: &[Update],
        (workers, cpus): (usize, usize),
        round: usize,
        restart_before: Option<usize>,
    ) -> Seen {
        let seen = Seen::default();
        let mut pipe = start(conds, workers, cpus, &seen);
        let cut = restart_before.unwrap_or(updates.len());
        let (before, after) = updates.split_at(cut);
        for chunk in before.chunks(round) {
            pipe.dispatch_round(chunk, Instant::now());
        }
        if restart_before.is_some() {
            pipe.restart();
        }
        for chunk in after.chunks(round) {
            pipe.dispatch_round(chunk, Instant::now());
        }
        pipe.finish();
        seen
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
        for workers in 0usize..=8 {
            for cpus in BUDGETS {
                for round in [1usize, 7, 64] {
                    let seen = run_pipeline(&conds, &updates, (workers, cpus), round, None);
                    let got = seen.alerts();
                    let case = format!("workers = {workers}, cpus = {cpus}, round = {round}");
                    assert_eq!(got, want, "{case}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.id, w.id, "{case}");
                    }
                    assert!(seen.flushed() && !seen.abandoned(), "{case}");
                }
            }
        }
    }

    /// Conditions whose alerts show a restart (two sustained ones join
    /// `family(7)`), their stream, the update the restart comes before,
    /// and what one registry restarted there emits.
    struct RestartCase {
        conds: Vec<Arc<dyn Condition>>,
        updates: Vec<Update>,
        cut: usize,
        want: Vec<Alert>,
    }

    fn restart_case() -> RestartCase {
        let mut conds = family(7);
        for _ in 0..2 {
            conds.push(Arc::new(cond::sustained_above(VarId::new(0), 0.5, 3)));
        }
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
        assert_ne!(want, reference(&conds, &updates), "the restart must change the output");
        RestartCase { conds, updates, cut, want }
    }

    #[test]
    fn restart_marker_wipes_all_shards_at_the_same_position() {
        // The sustained conditions, 7 and 8, sit on shards 3 and 0 at
        // four workers uncapped (a helper and the caller), on shards 1
        // and 0 at two CPUs, and both on the caller at one.
        let RestartCase { conds, updates, cut, want } = restart_case();
        for workers in [0usize, 1, 4] {
            for cpus in BUDGETS {
                let got = run_pipeline(&conds, &updates, (workers, cpus), 5, Some(cut)).alerts();
                assert_eq!(got, want, "workers = {workers}, cpus = {cpus}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.id, w.id, "workers = {workers}, cpus = {cpus}");
                }
            }
        }
    }

    #[test]
    fn one_cpu_spawns_no_helper_and_evaluates_every_shard_itself() {
        let RestartCase { conds, updates, cut, want } = restart_case();
        for workers in [2usize, 3, 8] {
            let pipe = start(&conds, workers, 1, &Seen::default());
            assert_eq!(pipe.helpers(), 0, "workers = {workers}");
            pipe.finish();
            let got = run_pipeline(&conds, &updates, (workers, 1), 5, Some(cut)).alerts();
            assert_eq!(got, want, "workers = {workers}");
            assert!(got.iter().zip(&want).all(|(g, w)| g.id == w.id), "workers = {workers}");
        }
    }

    #[test]
    fn the_budget_caps_the_helpers_and_never_adds_one() {
        let conds = family(5);
        for (workers, cpus, helpers) in
            [(0, 4, 0), (1, 4, 0), (2, 1, 0), (2, 0, 0), (3, 2, 1), (4, 3, 2), (4, usize::MAX, 3)]
        {
            let pipe = start(&conds, workers, cpus, &Seen::default());
            assert_eq!(pipe.helpers(), helpers, "workers = {workers}, cpus = {cpus}");
            pipe.finish();
        }
    }

    #[test]
    fn abandon_skips_the_flush_but_not_inflight_updates() {
        let conds = family(3);
        let updates = stream(10);
        let want = reference(&conds, &updates);
        for workers in [0usize, 2] {
            let seen = Seen::default();
            let mut pipe = start(&conds, workers, usize::MAX, &seen);
            for &u in &updates {
                pipe.dispatch(u);
            }
            pipe.abandon();
            assert_eq!(seen.alerts(), want, "workers = {workers}");
            assert!(seen.abandoned(), "workers = {workers}");
            assert!(!seen.flushed(), "workers = {workers}");
        }
    }

    #[test]
    fn latency_histogram_sees_every_round() {
        let conds = family(1);
        let updates = stream(25);
        for workers in [0usize, 1, 2] {
            let latency = Arc::new(LatencyHistogram::new());
            let mut pipe = EvalPipeline::start(
                CeId::new(0),
                &conds,
                &PipelineOptions::with_workers(workers),
                Box::new(VecDrain(Seen::default())),
                Arc::clone(&latency),
                Arc::new(AtomicU64::new(0)),
            );
            // Zero and one worker spawn nothing; n workers on this
            // host's CPUs, min(n, cpus) - 1 helpers.
            let cpus =
                rcm_sync::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get);
            let helpers = workers.min(cpus).saturating_sub(1);
            assert!(format!("{pipe:?}").contains(&format!("helpers: {helpers}")), "{pipe:?}");
            for chunk in updates.chunks(4) {
                pipe.dispatch_round(chunk, Instant::now());
            }
            pipe.finish();
            let snap = latency.snapshot();
            assert_eq!(snap.count, 25, "workers = {workers}");
            assert!(snap.p99_ns >= snap.p50_ns);
            assert!(snap.max_ns >= snap.p999_ns);
        }
    }

    /// Runs `workers(2)` on a budget of `cpus` with a condition over
    /// [`FUSE`] as condition 1 (a helper's at two CPUs, the caller's at
    /// one): it blows in the second round, and that panic must reach
    /// the dispatcher with nothing of the round drained.
    fn the_fuse_blows_through_dispatch_round(cpus: usize, helpers: usize) {
        let x = VarId::new(0);
        let conds: Vec<Arc<dyn Condition>> = vec![
            Arc::new(cond::threshold(x, Cmp::Gt, 0.0)),
            Arc::new(cond::threshold(FUSE, Cmp::Gt, 0.0)),
        ];
        let seen = Seen::default();
        let mut pipe = start(&conds, 2, cpus, &seen);
        assert_eq!(pipe.helpers(), helpers);
        let updates = stream(5);
        pipe.dispatch_round(&updates[..3], Instant::now());
        assert_eq!(seen.alerts().len(), 3, "the first round is whole");
        let blown = catch_unwind(AssertUnwindSafe(|| {
            pipe.dispatch_round(
                &[updates[3], Update::new(FUSE, 1, 1.0), updates[4]],
                Instant::now(),
            );
        }));
        let payload = blown.expect_err("the shard's panic reaches the dispatcher");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("fuse blew"), "{message:?}");
        assert_eq!(seen.alerts().len(), 3, "a failed round drains nothing");
        // A lost helper fails every later round instead of hanging (and
        // the blown fuse on the caller's thread blows again); either way
        // the pipeline still closes.
        let again = catch_unwind(AssertUnwindSafe(|| pipe.dispatch(Update::new(FUSE, 2, 1.0))));
        assert!(again.is_err(), "a pipeline whose shard panicked must not go on");
        pipe.finish();
        assert!(seen.flushed());
    }

    #[test]
    fn a_panic_on_a_helper_shard_surfaces_from_dispatch_round() {
        // Two CPUs give shard 1 a helper thread of its own.
        the_fuse_blows_through_dispatch_round(2, 1);
    }

    #[test]
    fn a_panic_on_a_shard_of_the_caller_surfaces_from_dispatch_round() {
        // One CPU puts the fuse in the caller's one shard.
        the_fuse_blows_through_dispatch_round(1, 0);
    }
}
