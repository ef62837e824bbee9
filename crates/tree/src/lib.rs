//! # rcm-tree — hierarchical CE fan-in
//!
//! Aggregation trees of Condition Evaluators with derived-update
//! streams, extending the flat DM → CE → AD deployment of *Replicated
//! condition monitoring* (Huang & Garcia-Molina, PODC 2001) to
//! multi-tier fan-in:
//!
//! * **Leaves** ([`LeafCe`]) own disjoint slices of the variable space.
//!   Each hosts the conditions whose variables it owns (a
//!   [`ConditionRegistry`](rcm_core::ConditionRegistry) behind a
//!   [`SeqGate`](rcm_transport::SeqGate)), feeds its own Alert
//!   Displayer, and *additionally* emits
//!   [`DerivedUpdate`](rcm_core::DerivedUpdate)s upward: a per-leaf
//!   verdict stream (its alerts, losslessly) and optionally an
//!   aggregate stream (a numeric fold its parent can monitor like any
//!   other variable).
//! * **Interior tiers** ([`Relay`]) ingest derived streams through the
//!   same `(variable, seqno)` admission contract as raw DM streams and
//!   forward admitted elements verbatim — preserving each stream's
//!   key, which is what lets a subtree be re-parented onto a sibling
//!   or grandparent without renumbering anything.
//! * **The root** ([`RootCe`]) gates once more, renumbers verdict
//!   provenance into its own `AlertId` space, and evaluates root
//!   conditions over aggregate streams.
//!
//! ## The equivalence the keystone test pins
//!
//! Because every raw update is owned by exactly one leaf, and every
//! condition lives on the leaf owning its variables, a two-tier tree
//! displays **byte-identically** the alert sequence of one flat CE fed
//! the combined post-loss stream — same fingerprints, snapshots, and
//! `AlertId` numbering — for *any* leaf count, replica count and
//! relay depth, at any front-link loss rate
//! (`tests/tree_equivalence.rs`). The argument:
//!
//! 1. a leaf's registry is observationally identical to the flat
//!    registry restricted to its conditions (both mirror independent
//!    `Evaluator`s fed the projection of the stream);
//! 2. per update, alerts form one contiguous ascending-`CondId` run
//!    emitted by the single owning leaf — exactly the flat registry's
//!    emission order, so no cross-leaf merge exists to get wrong;
//! 3. tier links are lossless and FIFO, and relays forward verbatim,
//!    so the root receives each condition's verdicts in emission order
//!    and re-stamps indices `0, 1, 2, …` exactly as the flat CE would;
//! 4. replicated leaves fed the same post-loss input are deterministic,
//!    so every replica emits the *same* derived stream and the parent's
//!    seqno gate makes replication invisible (first copy admitted, the
//!    rest are duplicates — the paper's §2.1 front-link contract).
//!
//! ## Failure handling
//!
//! Each emitting node keeps a bounded [`ReplayWindow`] of its recent
//! derived updates. When an interior relay dies, its orphaned children
//! are re-parented onto a live sibling (or, failing that, the dead
//! node's own parent) and replay their windows through the new path;
//! every gate en route discards what it already admitted, so recovery
//! is idempotent and exactly-once survives. Updates lost in flight
//! beyond the window are genuine loss — which the downstream already
//! tolerates, consistency-wise, by the paper's §3 results.
//!
//! [`TreeEval`] wires all of this into one deterministic in-process
//! harness, the workspace's only tree runtime: the keystone tests, the
//! chaos gauntlet, the scale harness and the benchmark all drive it,
//! and its faults are method calls made between updates.

// LOCK ORDER: no locks anywhere in this crate — every type is
// single-threaded by construction; concurrency is the runtime's job.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod eval;
mod leaf;
mod plan;
mod relay;
mod root;
mod window;

pub use error::TreeError;
pub use eval::{NodeRef, TreeEval, TreeStats};
pub use leaf::{AggregateSpec, LeafCe, LeafOutput};
pub use plan::{TreeOptions, TreePlan};
pub use relay::Relay;
pub use root::RootCe;
pub use window::ReplayWindow;

use rcm_core::{derived_var, VarId};

/// The synthetic variable id of the **verdict** stream of node `node`
/// on tier `tier` (tier 0 = leaves). Even node field.
pub fn verdict_stream(tier: u8, node: u32) -> VarId {
    derived_var(tier, node * 2)
}

/// The synthetic variable id of the **aggregate** stream of node
/// `node` on tier `tier`. Odd node field, so a node's two streams are
/// distinct `(variable, seqno)` spaces.
pub fn aggregate_stream(tier: u8, node: u32) -> VarId {
    derived_var(tier, node * 2 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_ids_are_distinct_per_node() {
        assert_ne!(verdict_stream(0, 0), aggregate_stream(0, 0));
        assert_ne!(verdict_stream(0, 1), aggregate_stream(0, 0));
        assert_ne!(verdict_stream(1, 0), verdict_stream(0, 0));
        assert!(rcm_core::is_derived_var(verdict_stream(0, 5)));
        assert!(rcm_core::is_derived_var(aggregate_stream(2, 5)));
    }
}
