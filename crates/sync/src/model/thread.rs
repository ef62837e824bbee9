//! Model-checked `thread::{spawn, sleep, yield_now}`, a fixed
//! `available_parallelism`, and std's `panicking`.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Duration;

use super::sched::{current, BlockKind, Exec};

/// Whether the current thread is unwinding: a model thread is a real
/// thread, so std's answer holds. Not a schedule point.
pub use std::thread::panicking;

/// Handle to a model thread; `join` blocks (in model time) until it
/// finishes. A panic in any model thread aborts the whole execution,
/// so unlike `std`, `join` only ever returns `Ok`.
pub struct JoinHandle<T> {
    tid: usize,
    exec: Arc<Exec>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle").field("tid", &self.tid).finish()
    }
}

/// Spawns a model thread. Must be called inside
/// [`model`](crate::model::model).
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (exec, me) = current();
    let tid = exec.spawn_model(f);
    // Spawn is a schedule point: the child may run before the parent's
    // next instruction.
    exec.switch_point(me, None);
    JoinHandle { tid, exec, _marker: std::marker::PhantomData }
}

impl<T: Send + 'static> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result.
    pub fn join(self) -> std::thread::Result<T> {
        let (exec, me) = current();
        exec.switch_point(me, None);
        while !self.exec.is_finished(self.tid) {
            exec.switch_point(me, Some(BlockKind::Join(self.tid)));
        }
        let boxed =
            self.exec.take_join_value(self.tid).expect("finished model thread left a join value");
        Ok(*boxed.downcast::<T>().expect("join value has the spawned type"))
    }
}

/// Advances the virtual clock by `d` and yields. Nothing actually
/// sleeps: modeled deadlines (backoff, timeouts) simply
/// expire.
pub fn sleep(d: Duration) {
    let (exec, me) = current();
    exec.advance_clock(d);
    exec.switch_point(me, None);
}

/// A pure schedule point.
pub fn yield_now() {
    let (exec, me) = current();
    exec.switch_point(me, None);
}

/// CPUs a model reports: at least any model's evaluation `workers`, so
/// a model pipeline spawns every helper its shard count asks for.
const MODEL_PARALLELISM: NonZeroUsize = NonZeroUsize::new(8).unwrap();

/// [`std::thread::available_parallelism`] under the model: a fixed 8,
/// whatever the host has. Not a schedule point.
pub fn available_parallelism() -> std::io::Result<NonZeroUsize> {
    Ok(MODEL_PARALLELISM)
}
