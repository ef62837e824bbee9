//! # rcm — Replicated Condition Monitoring
//!
//! Facade crate re-exporting the whole RCM stack, a from-scratch Rust
//! implementation of *Replicated condition monitoring* (Huang &
//! Garcia-Molina, PODC 2001):
//!
//! * [`core`] — data model, condition expressions, the Condition
//!   Evaluator and the six Alert Displayer filtering algorithms;
//! * [`props`] — exact checkers for the paper's three correctness
//!   properties (orderedness, completeness, consistency) plus
//!   domination and maximality probes;
//! * [`net`] — simulated link substrate (loss, delay, ordering);
//! * [`sim`] — deterministic discrete-event simulator and the
//!   Monte-Carlo harness that regenerates the paper's tables;
//! * [`runtime`] — threaded actor runtime for deploying a monitoring
//!   pipeline in a real process;
//! * [`transport`] — real UDP/TCP socket transport and the topology
//!   spec behind the deployable `rcm-dm`/`rcm-ce`/`rcm-ad` node
//!   binaries;
//! * [`tree`] — hierarchical CE fan-in: aggregation trees of
//!   condition engines whose leaves emit derived verdict streams
//!   upward to a root whose display matches a flat CE byte-for-byte.
//!
//! See `examples/quickstart.rs` for a end-to-end tour, and DESIGN.md /
//! EXPERIMENTS.md for the experiment index.

pub use rcm_core as core;
pub use rcm_net as net;
pub use rcm_props as props;
pub use rcm_runtime as runtime;
pub use rcm_sim as sim;
pub use rcm_transport as transport;
pub use rcm_tree as tree;

/// One-stop imports for the common monitoring workflow.
///
/// ```rust
/// use rcm::prelude::*;
/// # use std::sync::Arc;
///
/// let x = VarId::new(0);
/// let system = MonitorSystem::builder(Arc::new(cond::threshold(x, Cmp::Gt, 100.0)))
///     .replicas(2)
///     .feed(VarFeed::new(x, vec![90.0, 120.0]))
///     .filter(|vars| Box::new(Ad4::new(vars[0])))
///     .start()?;
/// assert_eq!(system.wait().displayed.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub mod prelude {
    pub use rcm_core::ad::{apply_filter, Ad1, Ad2, Ad3, Ad4, Ad5, Ad6, AlertFilter, PerCondition};
    pub use rcm_core::condition::expr::CompiledCondition;
    pub use rcm_core::condition::{cond, Cmp, Condition, ConditionExt, Triggering};
    pub use rcm_core::{
        transduce, Alert, CeId, CondId, ConditionRegistry, SeqNo, Update, VarId, VarRegistry,
    };
    pub use rcm_runtime::{MonitorSystem, VarFeed};
    pub use rcm_sim::{run, Scenario, ScenarioSpec};
}

/// Compiles the README's code blocks as doctests so the front-page
/// examples can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}
