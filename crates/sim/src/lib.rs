//! # rcm-sim — deterministic simulator for replicated condition
//! monitoring
//!
//! A seeded discrete-event simulator of the paper's full system: Data
//! Monitors emitting synthetic update streams, replicated Condition
//! Evaluators fed over lossy in-order front links, and an Alert
//! Displayer receiving the replicas' alert streams over reliable FIFO
//! back links. Every run is a pure function of its [`Scenario`]
//! (including the seed), so any property violation found by the
//! Monte-Carlo harness is replayable.
//!
//! The [`montecarlo`] module regenerates the paper's Tables 1–3 (and
//! the AD-3/AD-4/AD-6 variants described in prose): for each scenario
//! class (lossless links; lossy links with non-historical, conservative
//! or aggressive conditions) it runs many randomized executions,
//! applies an AD algorithm to the merged alert arrivals, and checks the
//! three properties with the exact deciders from `rcm-props`. A √ cell
//! means zero violations across the run budget; an ✗ cell reports the
//! violation count and a replay seed. Cell runs and the table grid
//! execute on the deterministic parallel harness in [`par`]: the
//! `Matrix` produced for a base seed is bit-identical for any worker
//! count (`RCM_THREADS` controls it).
//!
//! The [`availability`] module runs the motivating experiment of the
//! paper's Figure 1: how replication reduces the probability that a
//! critical alert is missed when Condition Evaluators crash or links
//! drop updates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod availability;
mod engine;
mod event;
pub mod montecarlo;
pub mod multicond;
pub mod par;
pub mod report;
mod scenario;
mod spec;
mod workload;

pub use engine::{run, RunResult, RunStats};
pub use event::{EventQueue, SimTime};
pub use scenario::{DelaySpec, LossSpec, Outage, Scenario, VarWorkload};
pub use spec::{ScenarioSpec, WorkloadSpec};
pub use workload::{RandomWalk, Scripted, SineNoise, Spikes, ValueModel, ValueSpec};
