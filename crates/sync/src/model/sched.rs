//! The execution engine behind [`model`](crate::model::model): a
//! depth-first explorer over thread schedules.
//!
//! Every modeled synchronization operation funnels through
//! [`Exec::switch_point`]. Exactly one model thread runs between two
//! switch points, so an execution is fully determined by the sequence
//! of scheduling choices — which this module records as a trail and
//! replays with the last choice bumped to its next untried alternative
//! until the (preemption-bounded) space is exhausted.
//!
//! Model threads are real OS threads parked on a condvar; the scheduler
//! grants the token to one at a time, so modeled state needs no finer
//! locking than the single `Inner` mutex.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A model thread id (dense, per execution).
pub(crate) type Tid = usize;
/// A registered sync object id (dense, per execution).
pub(crate) type ObjId = usize;

/// Payload used to unwind model threads when an execution aborts
/// (another thread panicked or a deadlock was detected).
pub(crate) struct AbortUnwind;

/// Why a thread cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Waiting to acquire a model mutex.
    Mutex(ObjId),
    /// Waiting for a message (or disconnect) on a model channel.
    Recv(ObjId),
    /// Waiting for a model thread to finish.
    Join(Tid),
    /// Waiting on any of the channels in the thread's select set
    /// (`Inner::selects`); a wake for any of them wakes it.
    Select,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Running,
    Blocked(BlockKind),
    Finished,
}

/// Shared state of one modeled sync object.
pub(crate) enum Object {
    Mutex { locked: bool },
    Channel { queue: VecDeque<Box<dyn Any + Send>>, senders: usize, receiver_alive: bool },
}

/// One recorded scheduling decision (only decisions with more than one
/// alternative are recorded; forced moves replay themselves).
struct Choice {
    /// Runnable threads at this point, scheduling-preference order.
    alternatives: Vec<Tid>,
    /// Index into `alternatives` taken on this execution.
    chosen: usize,
    /// Preemptions spent strictly before this choice.
    preemptions_before: u32,
    /// The previously running thread, if it was still runnable here
    /// (choosing anything else costs one preemption).
    prev_runnable: Option<Tid>,
}

pub(crate) struct Inner {
    threads: Vec<ThreadState>,
    pub(crate) objects: Vec<Object>,
    active: Option<Tid>,
    last_running: Option<Tid>,
    trail: Vec<Choice>,
    prefix: Vec<usize>,
    cursor: usize,
    preemptions: u32,
    preemption_bound: Option<u32>,
    /// Virtual nanosecond clock; `thread::sleep` advances it.
    pub(crate) clock: u64,
    abort: bool,
    panic_payload: Option<Box<dyn Any + Send>>,
    join_values: Vec<Option<Box<dyn Any + Send>>>,
    /// Per thread: the channels it waits on while blocked in `Select`.
    pub(crate) selects: Vec<Vec<ObjId>>,
}

impl Inner {
    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| *t == ThreadState::Finished)
    }

    fn describe(&self) -> String {
        self.threads
            .iter()
            .enumerate()
            .map(|(i, t)| format!("t{i}:{t:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// One execution's shared scheduler state.
pub(crate) struct Exec {
    inner: Mutex<Inner>,
    cv: Condvar,
    os_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Exec>, Tid)>> =
        const { std::cell::RefCell::new(None) };
}

/// The `(execution, thread id)` of the calling model thread.
///
/// # Panics
///
/// Panics when called outside [`model`](crate::model::model): model
/// sync primitives only work inside a checked closure.
pub(crate) fn current() -> (Arc<Exec>, Tid) {
    CURRENT.with(|c| {
        c.borrow().clone().expect(
            "rcm-sync model primitive used outside model(): under --cfg loom every \
             Mutex/channel/thread must be created and used inside rcm_sync::model::model",
        )
    })
}

fn set_current(exec: Arc<Exec>, tid: Tid) {
    CURRENT.with(|c| *c.borrow_mut() = Some((exec, tid)));
}

fn clear_current() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

impl Exec {
    fn new(prefix: Vec<usize>, preemption_bound: Option<u32>) -> Arc<Self> {
        Arc::new(Exec {
            inner: Mutex::new(Inner {
                threads: Vec::new(),
                objects: Vec::new(),
                active: None,
                last_running: None,
                trail: Vec::new(),
                prefix,
                cursor: 0,
                preemptions: 0,
                preemption_bound,
                clock: 0,
                abort: false,
                panic_payload: None,
                join_values: Vec::new(),
                selects: Vec::new(),
            }),
            cv: Condvar::new(),
            os_handles: Mutex::new(Vec::new()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` against the scheduler state without yielding. Used for
    /// mutations that must stay safe during unwinds (drops).
    pub(crate) fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        let mut g = self.lock();
        let r = f(&mut g);
        drop(g);
        self.cv.notify_all();
        r
    }

    /// Registers a new sync object and returns its id.
    pub(crate) fn register(&self, obj: Object) -> ObjId {
        let mut g = self.lock();
        g.objects.push(obj);
        g.objects.len() - 1
    }

    /// Wakes every thread blocked for `kind`-equal reasons, and for a
    /// channel every thread selecting over it.
    pub(crate) fn wake(inner: &mut Inner, kind: BlockKind) {
        for (tid, t) in inner.threads.iter_mut().enumerate() {
            let selecting = *t == ThreadState::Blocked(BlockKind::Select)
                && matches!(kind, BlockKind::Recv(id) if inner.selects[tid].contains(&id));
            if *t == ThreadState::Blocked(kind) || selecting {
                *t = ThreadState::Runnable;
            }
        }
    }

    /// The heart of the model: the calling thread gives up the token
    /// (entering `state` — `Runnable` for a voluntary yield, `Blocked`
    /// when it cannot progress), the scheduler picks the next thread,
    /// and the call returns once the caller is granted the token again.
    pub(crate) fn switch_point(self: &Arc<Self>, me: Tid, state: Option<BlockKind>) {
        if std::thread::panicking() {
            // Unwinding threads must not schedule (or double-panic);
            // the execution is aborting anyway.
            return;
        }
        let mut g = self.lock();
        if g.abort {
            drop(g);
            resume_unwind(Box::new(AbortUnwind));
        }
        g.threads[me] = match state {
            None => ThreadState::Runnable,
            Some(kind) => ThreadState::Blocked(kind),
        };
        g.active = None;
        Self::pick_next(&mut g);
        self.cv.notify_all();
        while g.active != Some(me) {
            if g.abort {
                drop(g);
                resume_unwind(Box::new(AbortUnwind));
            }
            g = self.cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        g.threads[me] = ThreadState::Running;
    }

    /// Picks the next thread to run (or detects completion/deadlock).
    /// Decisions with more than one alternative are recorded for
    /// backtracking; within the preemption budget the previously
    /// running thread is preferred, then ascending thread id.
    fn pick_next(g: &mut Inner) {
        let mut alts: Vec<Tid> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == ThreadState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if alts.is_empty() {
            if !g.all_finished() && g.threads.iter().any(|t| matches!(t, ThreadState::Blocked(_))) {
                g.abort = true;
                g.panic_payload = Some(Box::new(format!(
                    "model deadlock: no runnable thread [{}] after schedule {:?}",
                    g.describe(),
                    g.trail.iter().map(|c| c.alternatives[c.chosen]).collect::<Vec<_>>(),
                )));
            }
            return;
        }
        let prev_runnable = g.last_running.filter(|p| alts.contains(p));
        if let Some(p) = prev_runnable {
            // Preference order: continue the current thread first.
            alts.retain(|&t| t != p);
            alts.insert(0, p);
            if g.preemption_bound.is_some_and(|b| g.preemptions >= b) {
                // Budget exhausted: a voluntary yield keeps running.
                alts.truncate(1);
            }
        }
        let idx = if g.cursor < g.prefix.len() && alts.len() > 1 { g.prefix[g.cursor] } else { 0 };
        assert!(
            idx < alts.len(),
            "non-deterministic model closure: replayed schedule diverged \
             (choice {} of {} alternatives)",
            idx,
            alts.len()
        );
        let chosen = alts[idx];
        if alts.len() > 1 {
            g.trail.push(Choice {
                alternatives: alts,
                chosen: idx,
                preemptions_before: g.preemptions,
                prev_runnable,
            });
            g.cursor += 1;
        }
        if prev_runnable.is_some_and(|p| chosen != p) {
            g.preemptions += 1;
        }
        g.active = Some(chosen);
        g.last_running = Some(chosen);
    }

    /// Registers a model thread (state `Runnable`) and returns its id.
    fn register_thread(&self) -> Tid {
        let mut g = self.lock();
        g.threads.push(ThreadState::Runnable);
        g.join_values.push(None);
        g.selects.push(Vec::new());
        g.threads.len() - 1
    }

    /// Blocks the calling OS thread until the scheduler grants `tid`
    /// the token for the first time.
    fn wait_first_grant(self: &Arc<Self>, tid: Tid) -> bool {
        let mut g = self.lock();
        while g.active != Some(tid) {
            if g.abort {
                return false;
            }
            g = self.cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        g.threads[tid] = ThreadState::Running;
        true
    }

    /// Marks `tid` finished, stores its result (or the abort payload),
    /// wakes joiners and hands the token on.
    fn finish(
        self: &Arc<Self>,
        tid: Tid,
        result: Result<Box<dyn Any + Send>, Box<dyn Any + Send>>,
    ) {
        let mut g = self.lock();
        match result {
            Ok(v) => g.join_values[tid] = Some(v),
            Err(payload) => {
                if !payload.is::<AbortUnwind>() && !g.abort {
                    g.abort = true;
                    g.panic_payload = Some(payload);
                }
            }
        }
        g.threads[tid] = ThreadState::Finished;
        Self::wake(&mut g, BlockKind::Join(tid));
        if g.active == Some(tid) {
            g.active = None;
        }
        if !g.abort {
            Self::pick_next(&mut g);
        }
        drop(g);
        self.cv.notify_all();
    }

    /// Spawns a model thread running `f`; used by the shim's
    /// `thread::spawn` and for the root closure.
    pub(crate) fn spawn_model<T: Send + 'static>(
        self: &Arc<Self>,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Tid {
        let tid = self.register_thread();
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("model-{tid}"))
            .spawn(move || {
                set_current(Arc::clone(&exec), tid);
                if exec.wait_first_grant(tid) {
                    let result = catch_unwind(AssertUnwindSafe(f))
                        .map(|v| Box::new(v) as Box<dyn Any + Send>);
                    exec.finish(tid, result);
                } else {
                    // Aborted before first grant; record as finished so
                    // the explorer's completion wait terminates.
                    exec.finish(tid, Err(Box::new(AbortUnwind)));
                }
                clear_current();
            })
            .expect("spawning model OS thread");
        self.os_handles.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(handle);
        tid
    }

    /// Takes the value a finished model thread returned.
    pub(crate) fn take_join_value(&self, tid: Tid) -> Option<Box<dyn Any + Send>> {
        self.lock().join_values[tid].take()
    }

    /// Whether `tid` has finished.
    pub(crate) fn is_finished(&self, tid: Tid) -> bool {
        self.lock().threads[tid] == ThreadState::Finished
    }

    /// Advances the virtual clock (a `sleep`). The caller must hold the
    /// token; severance windows and backoff deadlines expire instantly.
    pub(crate) fn advance_clock(&self, d: Duration) {
        let mut g = self.lock();
        g.clock = g.clock.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Reads the virtual clock.
    pub(crate) fn now(&self) -> u64 {
        self.lock().clock
    }
}

/// Computes the next schedule prefix from a finished trail: the
/// deepest choice with an untried alternative, bumped. `None` when the
/// space is exhausted.
fn next_prefix(mut trail: Vec<Choice>, bound: Option<u32>) -> Option<Vec<usize>> {
    while let Some(c) = trail.pop() {
        for idx in c.chosen + 1..c.alternatives.len() {
            let preemptive = c.prev_runnable.is_some_and(|p| c.alternatives[idx] != p);
            let feasible = !preemptive || bound.is_none_or(|b| c.preemptions_before < b);
            if feasible {
                let mut prefix: Vec<usize> = trail.iter().map(|c| c.chosen).collect();
                prefix.push(idx);
                return Some(prefix);
            }
        }
    }
    None
}

/// Configures and runs a bounded-exhaustive model check. See
/// [`model`](crate::model::model) for the default-configured entry.
pub struct Model {
    preemption_bound: Option<u32>,
    max_executions: usize,
}

impl Default for Model {
    /// Defaults: preemption bound 2 (overridable with the
    /// `LOOM_MAX_PREEMPTIONS` environment variable, `0` meaning
    /// unbounded), at most 500 000 executions.
    fn default() -> Self {
        let bound = std::env::var("LOOM_MAX_PREEMPTIONS")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .map_or(Some(2), |n| if n == 0 { None } else { Some(n) });
        Model { preemption_bound: bound, max_executions: 500_000 }
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("preemption_bound", &self.preemption_bound)
            .field("max_executions", &self.max_executions)
            .finish()
    }
}

impl Model {
    /// A model with the default bounds.
    pub fn new() -> Self {
        Model::default()
    }

    /// Sets the preemption bound (`None` = full exhaustive search).
    #[must_use]
    pub fn preemption_bound(mut self, bound: Option<u32>) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Caps the number of explored executions; exceeding it panics
    /// (the test models too much).
    #[must_use]
    pub fn max_executions(mut self, max: usize) -> Self {
        self.max_executions = max;
        self
    }

    /// Runs `f` under every schedule within the bounds and returns how
    /// many executions were explored.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any schedule produced (with the
    /// schedule's choice sequence on stderr), panics on deadlock, on a
    /// non-deterministic closure, and when `max_executions` is
    /// exceeded.
    pub fn check(self, f: impl Fn() + Send + Sync + 'static) -> usize {
        let f = Arc::new(f);
        let mut prefix: Vec<usize> = Vec::new();
        let mut executions = 0usize;
        loop {
            let exec = Exec::new(prefix.clone(), self.preemption_bound);
            let root = Arc::clone(&f);
            exec.spawn_model(move || root());
            {
                // Initial grant.
                let mut g = exec.lock();
                Exec::pick_next(&mut g);
                drop(g);
                exec.cv.notify_all();
            }
            {
                let mut g = exec.lock();
                while !g.all_finished() {
                    g = exec.cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
            for h in
                exec.os_handles.lock().unwrap_or_else(std::sync::PoisonError::into_inner).drain(..)
            {
                let _ = h.join();
            }
            executions += 1;
            let mut g = exec.lock();
            if let Some(payload) = g.panic_payload.take() {
                eprintln!(
                    "model check failed on execution {executions} (schedule prefix {prefix:?})"
                );
                drop(g);
                resume_unwind(payload);
            }
            let trail = std::mem::take(&mut g.trail);
            drop(g);
            assert!(
                executions <= self.max_executions,
                "model check exceeded {} executions; tighten the test or the preemption bound",
                self.max_executions
            );
            match next_prefix(trail, self.preemption_bound) {
                Some(p) => prefix = p,
                None => return executions,
            }
        }
    }
}
