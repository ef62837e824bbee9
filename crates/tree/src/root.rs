//! The root CE: final gate and verdict renumbering.

use std::collections::BTreeMap;

use rcm_core::{Alert, AlertId, CeId, CondId, DerivedUpdate};
use rcm_transport::SeqGate;

/// The tree's apex: admits every verdict stream through one last
/// `(variable, seqno)` gate, then re-stamps each verdict into the
/// root's own provenance — `AlertId { ce: root, index }` with a
/// per-condition counter in arrival order — and displays it. Since tier
/// links are FIFO and a condition's verdicts originate at a single
/// leaf, arrival order per condition *is* leaf emission order, so the
/// indices match a flat CE's exactly.
#[derive(Debug)]
pub struct RootCe {
    ce: CeId,
    gate: SeqGate,
    next_index: BTreeMap<CondId, u64>,
    duplicates: u64,
    displayed: u64,
}

impl RootCe {
    /// A root stamping provenance `ce`.
    pub(crate) fn new(ce: CeId) -> Self {
        RootCe {
            ce,
            gate: SeqGate::new(),
            next_index: BTreeMap::new(),
            duplicates: 0,
            displayed: 0,
        }
    }

    /// Offers one derived update, appending the alert it displays, if
    /// any.
    pub fn ingest(&mut self, d: &DerivedUpdate, out: &mut Vec<Alert>) {
        if !self.gate.admit_derived(d) {
            self.duplicates += 1;
            return;
        }
        let alert = &d.verdict;
        let index = self.next_index.entry(alert.cond).or_insert(0);
        out.push(Alert::new(
            alert.cond,
            alert.fingerprint.clone(),
            alert.snapshot.clone(),
            AlertId { ce: self.ce, index: *index },
        ));
        *index += 1;
        self.displayed += 1;
    }

    /// Duplicate derived elements the gate discarded (replica copies,
    /// re-parent replays).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Verdicts displayed.
    pub fn displayed(&self) -> u64 {
        self.displayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::{DerivedEmitter, HistoryFingerprint, SeqNo, Update, VarId};

    fn verdict_from(leaf_ce: u32, cond: u32, seqno: u64) -> Alert {
        Alert::new(
            CondId::new(cond),
            HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(seqno)]),
            vec![Update::new(VarId::new(0), seqno, 42.0)],
            AlertId { ce: CeId::new(leaf_ce), index: seqno - 1 },
        )
    }

    #[test]
    fn verdicts_are_renumbered_into_root_provenance() {
        let mut root = RootCe::new(CeId::new(9));
        let mut em = DerivedEmitter::new(crate::verdict_stream(0, 0));
        let mut out = Vec::new();
        root.ingest(&em.emit(verdict_from(100, 0, 1)), &mut out);
        root.ingest(&em.emit(verdict_from(100, 0, 2)), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, AlertId { ce: CeId::new(9), index: 0 });
        assert_eq!(out[1].id, AlertId { ce: CeId::new(9), index: 1 });
        // Payload identity is untouched — only provenance changes.
        assert_eq!(out[0].fingerprint, verdict_from(100, 0, 1).fingerprint);
        assert_eq!(root.displayed(), 2);
    }

    #[test]
    fn replica_copies_are_transparent() {
        let mut root = RootCe::new(CeId::new(0));
        let mut out = Vec::new();
        // Two replicas of leaf 0 emit the same derived element.
        let mut em_a = DerivedEmitter::new(crate::verdict_stream(0, 0));
        let mut em_b = DerivedEmitter::new(crate::verdict_stream(0, 0));
        root.ingest(&em_a.emit(verdict_from(1, 0, 1)), &mut out);
        root.ingest(&em_b.emit(verdict_from(2, 0, 1)), &mut out);
        assert_eq!(out.len(), 1, "second replica's copy gated out");
        assert_eq!(root.duplicates(), 1);
    }
}
