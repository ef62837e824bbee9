//! # rcm-net — simulated link substrate for replicated condition
//! monitoring
//!
//! The paper's §2.1 assumes two kinds of links:
//!
//! * **front links** (DM → CE) deliver in order but are *potentially
//!   lossy* — the DM is a simple device multicasting numerous updates,
//!   so a UDP-like datagram protocol is appropriate. In-order delivery
//!   is obtained by tagging messages with a sequence number and letting
//!   the receiver discard anything that arrives out of order.
//! * **back links** (CE → AD) are in-order and *lossless* — a TCP-like
//!   protocol is justified because alert traffic is light, the CE
//!   buffers alerts anyway, and losing an alert is far worse than
//!   losing an update.
//!
//! This crate holds what the discrete-event simulator and the runtime
//! share about those links: composable [`LossModel`]s (including a
//! Gilbert–Elliott burst-loss model), the per-link [`LinkStats`], the
//! reconnect [`Backoff`], and the seeded [`Rng`] with its [`cases`]
//! property driver. The simulator's delays and its link horizons live
//! in `rcm-sim` beside the specs that describe them. All randomness
//! flows through caller-supplied RNGs, so every execution is replayable
//! from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backoff;
mod loss;
mod rng;

pub use backoff::Backoff;
pub use loss::{Bernoulli, GilbertElliott, LossModel, Lossless, Scripted};
pub use rng::{cases, Rng};

/// Counters of one front link: what was handed to it and what its loss
/// model dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages handed to the link.
    pub sent: u64,
    /// Messages dropped by the loss model.
    pub dropped: u64,
}
