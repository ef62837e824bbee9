//! The root CE: final gate, verdict renumbering, aggregate conditions.

use std::collections::BTreeMap;

use rcm_core::condition::DynCondition;
use rcm_core::{Alert, AlertId, CeId, CondId, ConditionRegistry, DerivedPayload, DerivedUpdate};
use rcm_transport::SeqGate;

/// The tree's apex: admits every derived stream through one last
/// `(variable, seqno)` gate, then
///
/// * **verdicts** are re-stamped into the root's own provenance —
///   `AlertId { ce: root, index }` with a per-condition counter in
///   arrival order — and displayed. Since tier links are FIFO and a
///   condition's verdicts originate at a single leaf, arrival order
///   per condition *is* leaf emission order, so the indices match a
///   flat CE's exactly;
/// * **aggregates** are shadowed into raw updates
///   ([`DerivedUpdate::as_update`]) and fed to a [`ConditionRegistry`]
///   of root conditions monitoring derived streams as ordinary
///   variables.
#[derive(Debug)]
pub struct RootCe {
    ce: CeId,
    gate: SeqGate,
    next_index: BTreeMap<CondId, u64>,
    registry: ConditionRegistry,
    duplicates: u64,
    displayed: u64,
}

impl RootCe {
    /// A root stamping provenance `ce`, hosting `conds` over derived
    /// streams.
    pub(crate) fn build(ce: CeId, conds: &[(CondId, DynCondition)]) -> Self {
        let mut registry = ConditionRegistry::new(ce);
        for (id, cond) in conds {
            registry.insert(*id, cond.clone());
        }
        RootCe {
            ce,
            gate: SeqGate::new(),
            next_index: BTreeMap::new(),
            registry,
            duplicates: 0,
            displayed: 0,
        }
    }

    /// Offers one derived update, appending any displayed alerts.
    pub fn ingest(&mut self, d: &DerivedUpdate, out: &mut Vec<Alert>) {
        if !self.gate.admit_derived(d) {
            self.duplicates += 1;
            return;
        }
        match &d.payload {
            DerivedPayload::Verdict(alert) => {
                let index = self.next_index.entry(alert.cond).or_insert(0);
                let restamped = Alert::new(
                    alert.cond,
                    alert.fingerprint.clone(),
                    alert.snapshot.clone(),
                    AlertId { ce: self.ce, index: *index },
                );
                *index += 1;
                self.displayed += 1;
                out.push(restamped);
            }
            DerivedPayload::Aggregate(_) => {
                let before = out.len();
                self.registry.ingest(d.as_update(), out);
                self.displayed += (out.len() - before) as u64;
            }
        }
    }

    /// Duplicate derived elements the gate discarded (replica copies,
    /// re-parent replays).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Alerts displayed (re-stamped verdicts plus root-condition
    /// alerts).
    pub fn displayed(&self) -> u64 {
        self.displayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::condition::{Cmp, Threshold};
    use rcm_core::{DerivedEmitter, HistoryFingerprint, SeqNo, Update, VarId};
    use std::sync::Arc;

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
        let mut root = RootCe::build(CeId::new(9), &[]);
        let mut em = DerivedEmitter::new(crate::verdict_stream(0, 0));
        let mut out = Vec::new();
        root.ingest(&em.emit(DerivedPayload::Verdict(verdict_from(100, 0, 1))), &mut out);
        root.ingest(&em.emit(DerivedPayload::Verdict(verdict_from(100, 0, 2))), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, AlertId { ce: CeId::new(9), index: 0 });
        assert_eq!(out[1].id, AlertId { ce: CeId::new(9), index: 1 });
        // Payload identity is untouched — only provenance changes.
        assert_eq!(out[0].fingerprint, verdict_from(100, 0, 1).fingerprint);
        assert_eq!(root.displayed(), 2);
    }

    #[test]
    fn replica_copies_are_transparent() {
        let mut root = RootCe::build(CeId::new(0), &[]);
        let mut out = Vec::new();
        // Two replicas of leaf 0 emit the same derived element.
        let mut em_a = DerivedEmitter::new(crate::verdict_stream(0, 0));
        let mut em_b = DerivedEmitter::new(crate::verdict_stream(0, 0));
        root.ingest(&em_a.emit(DerivedPayload::Verdict(verdict_from(1, 0, 1))), &mut out);
        root.ingest(&em_b.emit(DerivedPayload::Verdict(verdict_from(2, 0, 1))), &mut out);
        assert_eq!(out.len(), 1, "second replica's copy gated out");
        assert_eq!(root.duplicates(), 1);
    }

    #[test]
    fn aggregates_feed_root_conditions() {
        let agg = crate::aggregate_stream(0, 0);
        let conds =
            vec![(CondId::new(5), Arc::new(Threshold::new(agg, Cmp::Gt, 2.5)) as DynCondition)];
        let mut root = RootCe::build(CeId::new(1), &conds);
        let mut em = DerivedEmitter::new(agg);
        let mut out = Vec::new();
        root.ingest(&em.emit(DerivedPayload::Aggregate(1.0)), &mut out);
        assert!(out.is_empty());
        root.ingest(&em.emit(DerivedPayload::Aggregate(3.0)), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cond, CondId::new(5));
        assert_eq!(out[0].id.ce, CeId::new(1));
    }
}
