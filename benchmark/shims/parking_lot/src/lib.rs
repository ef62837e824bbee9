//! std-only stand-in for the `parking_lot` subset behind
//! `rcm_sync::Mutex`: a mutex whose `lock` is infallible. parking_lot
//! has no poisoning, so a lock poisoned by a panicking holder is simply
//! taken over.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

/// Mutual exclusion with an infallible `lock`.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Holds the lock until dropped.
pub struct MutexGuard<'a, T: ?Sized>(sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex and returns its value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Takes the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(MutexGuard(guard)),
            Err(sync::TryLockError::Poisoned(e)) => Some(MutexGuard(e.into_inner())),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
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
    fn try_lock_fails_while_held_and_succeeds_after_release() {
        let m = Arc::new(Mutex::new(1));
        let held = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let holder = {
            let (m, held, release) = (Arc::clone(&m), Arc::clone(&held), Arc::clone(&release));
            thread::spawn(move || {
                let _guard = m.lock();
                held.wait();
                release.wait();
            })
        };
        held.wait();
        assert!(m.try_lock().is_none());
        release.wait();
        holder.join().unwrap();
        assert_eq!(m.try_lock().map(|g| *g), Some(1));
    }

    #[test]
    fn a_panicking_holder_does_not_poison() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _guard = m2.lock();
            panic!("holder dies");
        })
        .join();
        assert_eq!(*m.lock(), 5);
        assert_eq!(Arc::try_unwrap(m).unwrap().into_inner(), 5);
    }
}
