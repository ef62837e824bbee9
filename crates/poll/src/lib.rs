//! # rcm-poll — dependency-free readiness for the evented transport
//!
//! The evented socket engine in `rcm-transport` needs three things the
//! standard library does not provide: a readiness multiplexer, a timer
//! wheel, and a wake/submit handoff that a model checker can exhaust.
//! This crate is all three, with zero external dependencies — the same
//! discipline as `rcm-sync`, and for the same reason: every line the
//! engine's correctness depends on is either model-checked or a thin
//! audited syscall wrapper.
//!
//! * [`Poller`] / [`Waker`] — `poll(2)`, the one readiness backend,
//!   so every platform and every test runs the same code; the
//!   `pollfd` array lives in the poller, so a wait allocates nothing.
//!   EINTR is retried internally with the timeout recomputed; a
//!   [`Waker`] firing surfaces as one [`WAKE_TOKEN`] event, and an fd
//!   closed while still registered as an `error` event.
//! * [`TimerWheel`] — a hashed wheel fed explicit `now` instants
//!   (through the `rcm-sync` clock shim), driving Backoff reconnects,
//!   batch `max_delay` flushes and finish deadlines without a thread
//!   per timer.
//! * [`SubmitQueue`] / [`Wake`] — the Dekker-style sleep/submit
//!   protocol between caller threads and the event loop, written
//!   against the `rcm-sync` shim so `crates/runtime/tests/loom.rs`
//!   can run the handoff under every interleaving.
//!
//! All unsafe code lives in [`sys`], pinned by the workspace unsafe
//! allowlist; the rest of the crate (and everything built on it)
//! stays `deny(unsafe_code)`.

// LOCK ORDER: no locks — the crate's only mutex lives in submit.rs (leaf).

#![cfg(unix)]
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod poller;
mod submit;
mod timer;

#[allow(unsafe_code)]
pub mod sys;

pub use poller::{Event, Interest, Poller, Token, Waker, WAKE_TOKEN};
pub use submit::{SubmitQueue, Wake};
pub use timer::{TimerKey, TimerWheel};
