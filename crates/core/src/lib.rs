//! # rcm-core — Replicated Condition Monitoring
//!
//! Core library implementing the data model, condition framework,
//! Condition Evaluator and Alert Displayer filtering algorithms from
//! *Replicated condition monitoring* (Huang & Garcia-Molina, PODC 2001).
//!
//! A condition monitoring system tracks real-world variables and alerts
//! users when a predefined condition becomes true. The paper's system has
//! three component classes:
//!
//! * **Data Monitors (DM)** emit [`Update`]s — `u(varname, seqno, value)`
//!   tuples with per-variable consecutive sequence numbers.
//! * **Condition Evaluators (CE)** keep bounded per-variable
//!   [`History`] windows, re-evaluate boolean [`Condition`]s on every
//!   arrival, and emit [`Alert`]s. A [`ConditionRegistry`] is one CE;
//!   [`transduce`] is the paper's `T` transducer mapping update
//!   sequences to alert sequences.
//! * **Alert Displayers (AD)** merge the alert streams of replicated CEs
//!   through a filtering algorithm. The six algorithms from the paper's
//!   Appendix A live in [`ad`], one filter per guarantee over a variable
//!   set: exact-duplicate removal ([`ad::Ad1`]), orderedness
//!   ([`ad::Ad5`]; AD-2 is [`ad::Ad2::new`], AD-5 over one variable),
//!   consistency ([`ad::Ad3`]), and both ([`ad::Ad6`]; AD-4 is
//!   [`ad::Ad4::new`]).
//!
//! The sequence mathematics of the paper's §2.2 (ordered sequences,
//! subsequence tests, ordered union `⊔`, projections `Π_x`, spanning
//! sets) is in [`seq`].
//!
//! Beyond the paper's core algorithms, the crate provides the variants
//! and tooling a deployment needs:
//!
//! * every condition is an **expression**
//!   ([`condition::expr::CompiledCondition`]): written as text, built by
//!   the ready-made constructors of [`condition::cond`] (including the
//!   debounced [`condition::cond::sustained_above`]), or combined with
//!   `&`, `|` and `!`;
//! * checksummed duplicate removal ([`ad::Ad1Digest`], the paper's §2
//!   remark), the §4.2 "delayed displaying" alternative
//!   ([`ad::DelayedOrdered`]), and the AD-6 ablation ([`ad::Ad3`] over
//!   several variables);
//! * **durable state**: every paper filter checkpoints to JSON
//!   (`to_json`, then `from_json`), so a displayer can restart without
//!   forgetting what it promised the user. A CE keeps no checkpoint: a
//!   crashed CE rebuilds its histories from what the DM still holds;
//! * a **multi-condition engine** ([`ConditionRegistry`]): N conditions
//!   hosted over one update stream behind a variable→condition inverted
//!   index, with one history per variable and every subexpression that
//!   conditions share evaluated once per update.
//!
//! ## Quick example
//!
//! ```rust
//! use rcm_core::{transduce, CeId, Update, VarId};
//! use rcm_core::condition::{cond, Cmp};
//! use rcm_core::ad::{Ad1, AlertFilter};
//!
//! let x = VarId::new(0);
//! // c1: "reactor temperature is over 3000 degrees"
//! let c1 = cond::threshold(x, Cmp::Gt, 3000.0);
//!
//! // Two replicated CEs; CE2 misses update 2.
//! let u = |s, v| Update::new(x, s, v);
//! let a = transduce(&c1, CeId::new(1), &[u(1, 2900.0), u(2, 3100.0), u(3, 3200.0)]);
//! let b = transduce(&c1, CeId::new(2), &[u(1, 2900.0), u(3, 3200.0)]);
//! assert_eq!((a.len(), b.len()), (2, 1)); // no alert on 2900
//!
//! // The AD removes the exact duplicate (a[1] and b[0] triggered on the
//! // same update history), so the user sees two alerts, not three.
//! let mut ad = Ad1::new();
//! let shown: Vec<_> = a
//!     .iter()
//!     .chain(&b)
//!     .filter(|alert| ad.offer(alert).is_deliver())
//!     .collect();
//! assert_eq!(shown.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ad;
mod alert;
pub mod condition;
mod derived;
mod error;
mod evaluator;
mod history;
mod latency;
mod registry;
pub mod seq;
mod update;
mod var;

pub use alert::{
    Alert, AlertBody, AlertId, CeId, CondId, FingerprintBuilder, FingerprintError,
    HistoryFingerprint, IntoSnapshot, Snapshot, SnapshotError,
};
pub use condition::{Condition, ConditionExt, Triggering};
pub use derived::{derived_var, is_derived_var, DerivedEmitter, DerivedUpdate, DERIVED_VAR_BASE};
pub use error::{Error, Result};
pub use evaluator::transduce;
pub use history::{History, HistorySet};
pub use latency::{LatencyHistogram, LatencySnapshot};
pub use registry::{ConditionRegistry, RegistryStats};
pub use update::{SeqNo, Update};
pub use var::{VarId, VarRegistry};
