//! Model-checked `Mutex` (infallible `lock`, like the production one).

use std::sync::Arc;

use super::sched::{current, BlockKind, Exec, Object};

/// A mutex whose lock/unlock operations are schedule points explored
/// by the model. The data itself lives in an uncontended
/// `std::sync::Mutex` (the scheduler serializes access), so no
/// `unsafe` is needed.
pub struct Mutex<T> {
    id: usize,
    exec: Arc<Exec>,
    data: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a model mutex. Must be called inside
    /// [`model`](crate::model::model).
    pub fn new(value: T) -> Self {
        let (exec, _) = current();
        let id = exec.register(Object::Mutex { locked: false });
        Mutex { id, exec, data: std::sync::Mutex::new(value) }
    }

    /// Acquires the lock, blocking (in model time) until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (exec, me) = current();
        exec.switch_point(me, None);
        loop {
            let acquired = exec.with_inner(|inner| match &mut inner.objects[self.id] {
                Object::Mutex { locked } => {
                    if *locked {
                        false
                    } else {
                        *locked = true;
                        true
                    }
                }
                Object::Channel { .. } => unreachable!("object id points at a channel"),
            });
            if acquired {
                let guard = self.data.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                return MutexGuard { mutex: self, guard: Some(guard) };
            }
            exec.switch_point(me, Some(BlockKind::Mutex(self.id)));
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("id", &self.id).finish_non_exhaustive()
    }
}

/// RAII guard; dropping releases the model lock and wakes waiters.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data lock before the model lock so the next
        // acquirer never contends on the std mutex.
        self.guard = None;
        let exec = &self.mutex.exec;
        let id = self.mutex.id;
        exec.with_inner(|inner| {
            match &mut inner.objects[id] {
                Object::Mutex { locked } => *locked = false,
                Object::Channel { .. } => unreachable!("object id points at a channel"),
            }
            Exec::wake(inner, BlockKind::Mutex(id));
        });
        if !std::thread::panicking() {
            let (exec, me) = current();
            exec.switch_point(me, None); // release is a schedule point
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}
