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
//! This crate provides those links for the discrete-event simulator and
//! the threaded runtime: composable [`LossModel`]s (including a
//! Gilbert–Elliott burst-loss model), [`DelayModel`]s, the lossy
//! in-order [`LossyLink`] and the FIFO lossless [`ReliableLink`]. All
//! randomness flows through caller-supplied RNGs, so every execution is
//! replayable from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backoff;
mod delay;
mod link;
mod loss;
mod rng;

pub use backoff::Backoff;
pub use delay::{ConstantDelay, DelayModel, ExponentialDelay, UniformDelay};
pub use link::{LinkStats, LossyLink, ReliableLink, Transmit};
pub use loss::{Bernoulli, GilbertElliott, LossModel, Lossless, Scripted};
pub use rng::{cases, Rng};

/// Simulated time, in abstract ticks.
pub type Tick = u64;
