//! # rcm-sync — the runtime's one door to concurrency primitives
//!
//! Every lock, channel, thread and clock the threaded runtime
//! (`rcm-runtime`) uses is imported from this crate, never from
//! `std::sync`/`std::thread` directly (`cargo xtask analyze` enforces
//! this). That indirection buys model checking for free:
//!
//! * **Default build**: the types below are the production primitives,
//!   all of them `std`'s — a [`Mutex`] over `std::sync::Mutex` whose
//!   `lock` takes over a poisoned lock instead of failing, [`chan`]
//!   over `std::sync::mpsc` with a count of the messages in flight,
//!   [`std::thread`], [`std::time::Instant`]. The crate has no
//!   dependencies.
//! * **`RUSTFLAGS="--cfg loom"`**: the same paths resolve to the
//!   bundled deterministic [`model`] checker's instrumented types, and
//!   a test wrapped in [`model::model`] runs under every thread
//!   interleaving (bounded-exhaustive, loom-style) instead of the one
//!   the OS happened to pick.
//!
//! The shim surface is deliberately small — exactly what the runtime
//! needs: `Arc` (always `std::sync::Arc`; reference counting is not
//! schedule-relevant), an infallible-`lock` `Mutex`, unbounded MPSC
//! channels ([`chan`]), [`thread`] spawn/join/sleep/yield and the CPU
//! count, [`time`] instants, sequentially consistent [`atomic`]s, and
//! bounded [`spsc`] rings (built *from* the other primitives, so they
//! model-check too).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(not(loom))]
pub mod chan;
pub mod model;
#[cfg(not(loom))]
mod mutex;
pub mod spsc;

pub use std::sync::Arc;

#[cfg(not(loom))]
pub use mutex::{Mutex, MutexGuard};

#[cfg(loom)]
pub use model::sync::{Mutex, MutexGuard};

/// Unbounded MPSC channels (model-checked).
#[cfg(loom)]
pub mod chan {
    pub use crate::model::chan::{
        unbounded, wait_any, IntoIter, Iter, Receiver, RecvError, SendError, Sender, TryIter,
        TryRecvError,
    };
}

/// Thread spawn/join, sleep and yield, and the CPU count.
#[cfg(not(loom))]
pub mod thread {
    pub use std::thread::{available_parallelism, sleep, spawn, yield_now, JoinHandle};
}

/// Thread spawn/join, sleep and yield, and the CPU count
/// (model-checked).
#[cfg(loom)]
pub mod thread {
    pub use crate::model::thread::{available_parallelism, sleep, spawn, yield_now, JoinHandle};
}

/// Monotonic clock reads.
#[cfg(not(loom))]
pub mod time {
    pub use std::time::{Duration, Instant};
}

/// Monotonic clock reads (virtual under the model).
#[cfg(loom)]
pub mod time {
    pub use crate::model::time::Instant;
    pub use std::time::Duration;
}

/// Sequentially consistent atomics.
#[cfg(not(loom))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Sequentially consistent atomics (model-checked).
#[cfg(loom)]
pub mod atomic {
    pub use crate::model::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}
