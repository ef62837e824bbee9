//! # rcm-runtime — a deployable actor runtime for condition monitoring
//!
//! The simulator (`rcm-sim`) proves properties; this crate actually
//! *runs* a monitoring pipeline: one OS thread runs every Data Monitor
//! of the system, and each Condition Evaluator replica and the Alert
//! Displayer has its own, wired with FIFO channels standing in for the
//! paper's links:
//!
//! * **front links** are per-`(DM, CE)` loss models (UDP-like: FIFO but
//!   lossy); what survives a DM round reaches each replica as one
//!   channel message;
//! * **back links** are [`BackLink`]s (TCP-like: FIFO and lossless,
//!   surviving scripted severance via backoff-paced reconnect and a
//!   bounded resend queue).
//!
//! Failure is a first-class input: a [`FaultPlan`] can kill CE replicas
//! (the supervisor restarts them and replays the DMs' retained
//! windows), sever back links, and stall front links — see
//! [`SystemBuilder::faults`].
//!
//! A replica is not limited to one condition: each CE hosts its whole
//! condition set in a single [`rcm_core::ConditionRegistry`], routing
//! every arrival through the registry's variable index. Build a
//! multi-condition system with [`MonitorSystem::builder_multi`] or
//! [`SystemBuilder::monitor`]; condition `i` emits under
//! `CondId::new(i)` and the AD can demultiplex per condition with
//! [`rcm_core::ad::PerCondition`].
//!
//! Messages cross links through the length-prefixed [`wire`] codec, so
//! the pipeline exercises real serialization end to end. Shutdown is by
//! ownership: when every feed has ended the DM loop drops its senders;
//! the CEs then drain and exit; when every CE is gone the AD finishes
//! filtering and the system joins.
//!
//! The same pipeline also runs over **real sockets**: bind a
//! [`Topology`] (UDP per front link, TCP per back link — see
//! `rcm_transport`) and hand it to [`SystemBuilder::transport`], or
//! deploy the `rcm-dm` / `rcm-ce` / `rcm-ad` binaries as separate
//! processes. Either way the actor bodies, codec and fault machinery
//! are identical; only the link layer changes.
//!
//! ```rust
//! use rcm_runtime::{MonitorSystem, VarFeed};
//! use rcm_core::condition::{Threshold, Cmp};
//! use rcm_core::ad::Ad1;
//! use rcm_core::VarId;
//! use std::sync::Arc;
//!
//! let x = VarId::new(0);
//! let system = MonitorSystem::builder(Arc::new(Threshold::new(x, Cmp::Gt, 3000.0)))
//!     .replicas(2)
//!     .feed(VarFeed::new(x, vec![2900.0, 3100.0, 3200.0]))
//!     .filter(|_vars| Box::new(Ad1::new()))
//!     .start()
//!     .expect("valid configuration");
//! let report = system.wait();
//! assert_eq!(report.displayed.len(), 2); // duplicate suppressed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod actors;
mod backlink;
mod dm;
mod faults;
mod link;
pub mod pipeline;
mod socket;
mod system;
pub mod wire;

pub use backlink::{BackLink, BackLinkStats};
pub use dm::ROUND;
pub use faults::{
    FaultPlan, FaultReport, IngestGate, KillCe, RetainedWindow, SeverBackLink, StallFrontLink,
};
pub use link::{FrontLink, LinkReport};
pub use pipeline::{AlertDrain, EvalPipeline, PipelineOptions};
pub use rcm_transport::{BoundTopology, Codec, Topology, TransportMode, TransportReport};
pub use system::{ConfigError, MonitorSystem, PipelineReport, RunReport, SystemBuilder, VarFeed};
