//! A small deterministic model checker in the spirit of
//! [loom](https://docs.rs/loom): run a closure under **every** thread
//! interleaving (up to a preemption bound) and let ordinary assertions
//! fail on the schedule that breaks them.
//!
//! The checker is bundled so the repository needs no extra
//! dependency: under `--cfg loom` the crate's shim types
//! ([`Mutex`](crate::Mutex), [`chan`](crate::chan),
//! [`thread`](crate::thread), [`time`](crate::time)) resolve to the
//! instrumented types in this module, and every synchronization
//! operation becomes a schedule point the explorer branches on.
//! Swapping in the real `loom` crate later only changes this module's
//! re-exports — the shim surface is the same.
//!
//! What the model explores and guarantees:
//!
//! * **Exhaustive within bounds** — depth-first over every scheduling
//!   decision with more than one runnable thread, limited by a
//!   preemption bound (default 2, loom's CI default; override with
//!   `LOOM_MAX_PREEMPTIONS`, `0` = unbounded).
//! * **Deterministic virtual time** — `time::Instant` reads a virtual
//!   clock only `thread::sleep` advances, so backoff deadlines and
//!   timeouts are schedule-stable.
//! * **Deadlock detection** — a state with live but only-blocked
//!   threads aborts the execution with the offending schedule.
//! * **Panic replay** — the first failing schedule's choice sequence
//!   is printed so the interleaving can be reconstructed.
//!
//! ```
//! use rcm_sync::model::{model, sync::Mutex};
//! use std::sync::Arc;
//!
//! model(|| {
//!     let m = Arc::new(Mutex::new(0u32));
//!     let m2 = Arc::clone(&m);
//!     let t = rcm_sync::model::thread::spawn(move || *m2.lock() += 1);
//!     *m.lock() += 1;
//!     t.join().expect("model threads do not fail joins");
//!     assert_eq!(*m.lock(), 2);
//! });
//! ```

pub mod atomic;
pub mod chan;
mod sched;
pub mod sync;
pub mod thread;
pub mod time;

pub use sched::Model;

/// Checks `f` under every schedule within the default bounds
/// (preemption bound 2, overridable via `LOOM_MAX_PREEMPTIONS`).
/// Returns the number of executions explored.
pub fn model(f: impl Fn() + Send + Sync + 'static) -> usize {
    Model::new().check(f)
}
