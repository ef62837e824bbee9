//! Virtual time for model executions.
//!
//! [`Instant::now`] reads a per-execution nanosecond counter that only
//! [`thread::sleep`](super::thread::sleep) advances, so timed logic
//! (backoff schedules, timeouts) is fully deterministic under
//! the model: a given schedule always observes the same clock.

use std::time::Duration;

use super::sched::current;

/// A point on the execution's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant {
    nanos: u64,
}

impl Instant {
    /// The current virtual time. Must be called inside
    /// [`model`](crate::model::model).
    pub fn now() -> Instant {
        let (exec, _) = current();
        Instant { nanos: exec.now() }
    }

    /// Virtual time elapsed since `self`.
    pub fn elapsed(&self) -> Duration {
        Instant::now() - *self
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: Instant) -> Instant {
        if other.nanos > self.nanos {
            other
        } else {
            self
        }
    }
}

impl std::ops::Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant {
            nanos: self.nanos.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
        }
    }
}

impl std::ops::Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }
}
