//! The production `Mutex`: `std::sync::Mutex` with an infallible
//! `lock`. The runtime's actors never leave shared state half-written
//! across a panic point, so a lock poisoned by a panicking holder is
//! simply taken over — the same contract the model-checked mutex has.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

/// Mutual exclusion with an infallible `lock`.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

/// RAII guard; dropping releases the lock.
#[derive(Debug)]
pub struct MutexGuard<'a, T>(sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_excludes_and_increments_are_not_lost() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || (0..10_000).for_each(|_| *m.lock() += 1))
            })
            .collect();
        handles.into_iter().for_each(|h| h.join().unwrap());
        assert_eq!(*m.lock(), 40_000);
    }

    #[test]
    fn a_lock_poisoned_by_a_panicking_holder_is_taken_over() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _guard = m2.lock();
            panic!("holder dies");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(Arc::try_unwrap(m).unwrap().into_inner(), 6);
    }
}
