//! # rcm-runtime — a deployable actor runtime for condition monitoring
//!
//! The simulator (`rcm-sim`) proves properties; this crate actually
//! *runs* a monitoring pipeline, in-process on one OS thread: it runs
//! every Data Monitor of the system and, in turn, every Condition
//! Evaluator replica and the Alert Displayer. The paper's links stand
//! between them:
//!
//! * **front links** are per-`(DM, CE)` loss models (UDP-like: FIFO but
//!   lossy); what survives a DM round is offered to each replica with a
//!   call, and the replica evaluates it before the loop moves on;
//! * **back links** are [`BackLink`]s over one FIFO channel (TCP-like:
//!   FIFO and lossless, surviving a scripted severance of a number of
//!   sends via a bounded resend queue and a reconnect that re-sends the
//!   unacked tail), which the loop drains into the AD after each round.
//!
//! Replicas of one in-process system therefore take turns rather than
//! run in parallel; [`SystemBuilder::workers`] is the parallelism
//! inside a replica, and placing replicas on machines of their own is
//! the node binaries' job.
//!
//! Failure is a first-class input: a [`FaultPlan`] can kill CE replicas
//! (the supervisor restarts them and replays the DMs' retained
//! windows) and sever back links — see [`SystemBuilder::faults`].
//! Every scripted fault counts events (arrivals, sends), never time,
//! so an in-process run on recorded feeds replays from its builder
//! and seed.
//!
//! A replica is not limited to one condition: each CE hosts its whole
//! condition set in a single [`rcm_core::ConditionRegistry`], routing
//! every arrival through the registry's variable index. Build a
//! multi-condition system with [`MonitorSystem::builder_multi`];
//! condition `i` emits under
//! `CondId::new(i)` and the AD can demultiplex per condition with
//! [`rcm_core::ad::PerCondition`].
//!
//! Messages cross links through the length-prefixed [`wire`] codec, so
//! the pipeline exercises real serialization end to end. Shutdown is by
//! ownership: when every feed has ended the DM loop finishes each
//! replica (flushing its back link) and drops it, offers the AD what
//! the flushes delivered, and ends; the system joins it.
//!
//! The same pipeline also runs over **real sockets**: bind a
//! [`Topology`] (UDP per front link, TCP per back link — see
//! `rcm_transport`) and hand it to [`SystemBuilder::transport`], or
//! deploy the `rcm-dm` / `rcm-ce` / `rcm-ad` binaries as separate
//! processes. Either way the CE is one [`Replica`], placed on the event
//! loop by [`on_ingress`], and the codec is the same: a system adds to
//! its replicas only what it keeps for its report (each replica's `U_i`
//! and emitted alerts) and fault supervision, and an `rcm-ce` node
//! keeps nothing per update. The builder's front-link loss models apply
//! in both shapes, drawn by the DM loop with the same seeds before an
//! update is handed to a channel or put in a replica's datagram.
//! `rcm-ad` runs the chosen filter on each
//! alert as it is read, which is all the system's AD does besides
//! recording. Only the link layer changes, and with it the thread that
//! drives the roles: over sockets the event loop gets a thread of its
//! own, and every replica and the AD run on it, each as its datagrams
//! or alerts arrive. The DM loop is the other thread.
//!
//! ```rust
//! use rcm_runtime::{MonitorSystem, VarFeed};
//! use rcm_core::condition::{cond, Cmp};
//! use rcm_core::ad::Ad1;
//! use rcm_core::VarId;
//! use std::sync::Arc;
//!
//! let x = VarId::new(0);
//! let system = MonitorSystem::builder(Arc::new(cond::threshold(x, Cmp::Gt, 3000.0)))
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

pub use actors::{on_ingress, write_alert, Replica};
pub use backlink::BackLink;
pub use dm::ROUND;
pub use faults::{FaultPlan, FaultReport, IngestGate, KillCe, RetainedWindow, SeverBackLink};
pub use link::FrontLink;
pub use pipeline::{AlertDrain, EvalPipeline, PipelineOptions};
pub use rcm_transport::{BoundTopology, Codec, Topology, TransportMode, TransportReport};
pub use system::{ConfigError, MonitorSystem, PipelineReport, RunReport, SystemBuilder, VarFeed};
