//! Derived updates: the stream kind hierarchical tier links carry.
//!
//! The paper's update `u(varname, seqno, value)` is what a Data
//! Monitor observes. An aggregation tree of Condition Evaluators
//! (`rcm-tree`) needs a second stream kind flowing *upward*: each leaf
//! CE, besides feeding its own Alert Displayer, passes its verdicts to
//! its parent. A [`DerivedUpdate`] is one verdict on that stream —
//! keyed deliberately like a raw update so every per-tier mechanism
//! built for updates (seqno gates, retained-window replay) applies
//! unchanged:
//!
//! * a **synthetic variable id** ([`derived_var`]) names the emitting
//!   stream — one id per `(tier, node)` pair, carved out of the top of
//!   the `VarId` space so it can never collide with a real monitored
//!   variable;
//! * a **per-stream consecutive seqno**, stamped by the emitting
//!   node's [`DerivedEmitter`] exactly like a DM stamps raw updates
//!   (`1, 2, 3, …`, no gaps at the source), so the receiving tier's
//!   `SeqGate` admission, duplicate suppression, and replay-window
//!   recovery work verbatim;
//! * the leaf's full triggered [`Alert`], its *verdict*: lossless
//!   fidelity, so the root can renumber its provenance and display it
//!   byte-identically to a flat CE fed the combined stream.
//!
//! Because replicated leaves fed the same post-loss input are
//! deterministic, every replica of a leaf emits the *same* derived
//! stream under the *same* synthetic variable id — so a parent's
//! per-variable seqno gate makes leaf replication transparent: the
//! first copy of `(var, seqno)` is admitted, later copies are
//! duplicates, exactly the front-link contract of the paper's §2.1.

use std::fmt;

use crate::alert::Alert;
use crate::update::SeqNo;
use crate::var::VarId;

/// Base of the synthetic derived-variable id space. Real variables are
/// registered densely from zero; derived ids start at `2^24` so the
/// two spaces cannot collide in any deployment this codebase targets
/// (the registry asserts well below `2^24` conditions).
pub const DERIVED_VAR_BASE: u32 = 1 << 24;

/// Width of the per-tier node field inside a derived variable id.
const NODE_BITS: u32 = 16;

/// The synthetic variable id naming the derived stream of node `node`
/// on tier `tier` (tier 0 = leaves, increasing toward the root).
///
/// # Panics
///
/// Panics if `node` does not fit the 16-bit node field or `tier`
/// overflows the id space — both far beyond any buildable tree.
pub fn derived_var(tier: u8, node: u32) -> VarId {
    assert!(node < (1 << NODE_BITS), "derived node {node} exceeds the 16-bit node field");
    let id = DERIVED_VAR_BASE + (u32::from(tier) << NODE_BITS) + node;
    VarId::new(id)
}

/// Whether `var` names a derived stream rather than a monitored
/// variable.
pub fn is_derived_var(var: VarId) -> bool {
    var.index() >= DERIVED_VAR_BASE
}

/// One element of a derived-update stream on a tier link.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedUpdate {
    /// Synthetic variable id of the emitting stream ([`derived_var`]).
    pub var: VarId,
    /// Per-stream consecutive sequence number (`1, 2, 3, …` at the
    /// emitting node), the same contract a DM keeps per variable.
    pub seqno: SeqNo,
    /// The verdict carried: the alert the emitting leaf raised.
    pub verdict: Alert,
}

impl fmt::Display for DerivedUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}({})={}", self.var, self.seqno, self.verdict)
    }
}

/// Stamps a node's derived stream with consecutive seqnos — the tree
/// tier's equivalent of a DM's per-variable counter. Restart keeps the
/// counter (like `ConditionRegistry::restart` keeps alert numbering), so a
/// recovered node never reuses a seqno its parent may already have
/// admitted.
#[derive(Debug, Clone)]
pub struct DerivedEmitter {
    var: VarId,
    next: u64,
}

impl DerivedEmitter {
    /// An emitter for the derived stream named `var` (see
    /// [`derived_var`]); the first emission carries seqno 1.
    pub fn new(var: VarId) -> Self {
        DerivedEmitter { var, next: 1 }
    }

    /// The stream's synthetic variable id.
    pub fn var(&self) -> VarId {
        self.var
    }

    /// Seqno the next emission will carry.
    pub fn next_seqno(&self) -> SeqNo {
        SeqNo::new(self.next)
    }

    /// Count of derived updates emitted so far.
    pub fn emitted(&self) -> u64 {
        self.next - 1
    }

    /// Wraps `verdict` as the stream's next derived update.
    pub fn emit(&mut self, verdict: Alert) -> DerivedUpdate {
        let seqno = SeqNo::new(self.next);
        self.next += 1;
        DerivedUpdate { var: self.var, seqno, verdict }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{AlertId, CeId, CondId, HistoryFingerprint};

    #[test]
    fn derived_ids_partition_the_var_space() {
        let v = derived_var(2, 5);
        assert!(is_derived_var(v));
        assert_eq!(v.index(), DERIVED_VAR_BASE + (2 << NODE_BITS) + 5);
        assert!(!is_derived_var(VarId::new(123_456)));
        // Distinct (tier, node) pairs never collide.
        assert_ne!(derived_var(0, 1), derived_var(1, 0));
        assert_ne!(derived_var(0, 1), derived_var(0, 2));
    }

    #[test]
    #[should_panic(expected = "16-bit node field")]
    fn oversized_node_rejected() {
        let _ = derived_var(0, 1 << 16);
    }

    fn verdict(seqno: u64) -> Alert {
        Alert::new(
            CondId::new(0),
            HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(seqno)]),
            vec![],
            AlertId { ce: CeId::new(0), index: seqno - 1 },
        )
    }

    #[test]
    fn emitter_stamps_consecutive_seqnos() {
        let mut em = DerivedEmitter::new(derived_var(0, 3));
        assert_eq!(em.emitted(), 0);
        let a = em.emit(verdict(1));
        let b = em.emit(verdict(2));
        assert_eq!(a.seqno, SeqNo::new(1));
        assert_eq!(b.seqno, SeqNo::new(2));
        assert!(a.seqno.precedes(b.seqno));
        assert_eq!(em.emitted(), 2);
        assert_eq!(em.next_seqno(), SeqNo::new(3));
        assert_eq!(a.var, derived_var(0, 3));
        assert_eq!(b.verdict, verdict(2));
    }
}
