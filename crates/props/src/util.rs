//! Shared helpers and report types for the property checkers.

use std::collections::BTreeMap;

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::{Alert, CeId, ConditionRegistry, Update, VarId};

/// The paper's `T` over many candidate sequences of one condition: one
/// Condition Evaluator, restarted before each candidate, so a candidate
/// costs its updates rather than an evaluator's construction. Alert
/// numbering runs on across candidates; the checkers compare alerts by
/// identity (condition and fingerprint), which ignores it.
pub(crate) struct Replay(ConditionRegistry);

impl Replay {
    pub(crate) fn new(cond: &CompiledCondition) -> Self {
        let mut ce = ConditionRegistry::new(CeId::new(u32::MAX));
        ce.add_compiled(cond.clone());
        Replay(ce)
    }

    /// `T(updates)`.
    pub(crate) fn run(&mut self, updates: &[Update]) -> Vec<Alert> {
        self.0.restart();
        let mut alerts = Vec::new();
        self.0.ingest_batch(updates, &mut alerts);
        alerts
    }
}

/// Outcome of a completeness check.
#[derive(Debug, Clone, PartialEq)]
pub struct CompleteReport {
    /// Whether `ΦA` equals the expected alert set.
    pub ok: bool,
    /// Alerts the non-replicated reference would display but `A` lacks.
    pub missing: Vec<Alert>,
    /// Alerts in `A` the non-replicated reference would never display.
    pub extraneous: Vec<Alert>,
}

impl CompleteReport {
    pub(crate) fn from_sets(missing: Vec<Alert>, extraneous: Vec<Alert>) -> Self {
        CompleteReport { ok: missing.is_empty() && extraneous.is_empty(), missing, extraneous }
    }
}

/// Outcome of a consistency check.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsistentReport {
    /// Whether some `U' ⊑ U1 ⊔ U2` explains every displayed alert.
    pub ok: bool,
    /// A witness `U'` (per-variable received seqno sets as updates),
    /// present when `ok`.
    pub witness: Option<Vec<Update>>,
    /// Human-readable explanation of the first conflict found, when
    /// not consistent.
    pub conflict: Option<String>,
}

impl ConsistentReport {
    pub(crate) fn consistent(witness: Vec<Update>) -> Self {
        ConsistentReport { ok: true, witness: Some(witness), conflict: None }
    }

    pub(crate) fn inconsistent(conflict: String) -> Self {
        ConsistentReport { ok: false, witness: None, conflict: Some(conflict) }
    }
}

/// Merges what every replica received into the per-variable ordered
/// unions (Appendix C: "the update sequence for variable x is the
/// ordered union of x-updates received by all the CEs").
///
/// Duplicated seqnos keep their first occurrence — updates are full
/// snapshots, so replicas hold identical values for the same seqno.
pub fn merge_per_var(inputs: &[Vec<Update>]) -> BTreeMap<VarId, Vec<Update>> {
    let mut merged: BTreeMap<VarId, BTreeMap<u64, Update>> = BTreeMap::new();
    for input in inputs {
        for &u in input {
            merged.entry(u.var).or_default().entry(u.seqno.get()).or_insert(u);
        }
    }
    merged.into_iter().map(|(var, by_seq)| (var, by_seq.into_values().collect())).collect()
}

/// `U1 ⊔ U2 ⊔ …` for a **single-variable** system: the ordered union of
/// all replicas' received updates.
///
/// # Panics
///
/// Panics if the inputs span more than one variable.
pub fn merge_all_single(inputs: &[Vec<Update>]) -> Vec<Update> {
    let merged = merge_per_var(inputs);
    assert!(
        merged.len() <= 1,
        "merge_all_single is single-variable; found {} variables",
        merged.len()
    );
    merged.into_values().next().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::SeqNo;

    fn u(var: u32, s: u64, v: f64) -> Update {
        Update::new(VarId::new(var), s, v)
    }

    #[test]
    fn merge_all_single_unions_by_seqno() {
        let u1 = vec![u(0, 1, 10.0), u(0, 3, 30.0)];
        let u2 = vec![u(0, 2, 20.0), u(0, 3, 30.0)];
        let merged = merge_all_single(&[u1, u2]);
        let seqs: Vec<u64> = merged.iter().map(|x| x.seqno.get()).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn merge_per_var_separates_streams() {
        let u1 = vec![u(0, 1, 0.0), u(1, 1, 0.0)];
        let u2 = vec![u(0, 2, 0.0)];
        let merged = merge_per_var(&[u1, u2]);
        assert_eq!(merged[&VarId::new(0)].len(), 2);
        assert_eq!(merged[&VarId::new(1)].len(), 1);
        assert_eq!(merged[&VarId::new(0)][1].seqno, SeqNo::new(2));
    }

    #[test]
    fn empty_inputs_merge_to_empty() {
        assert!(merge_all_single(&[]).is_empty());
        assert!(merge_per_var(&[vec![], vec![]]).is_empty());
    }

    #[test]
    #[should_panic(expected = "single-variable")]
    fn merge_all_single_rejects_two_vars() {
        merge_all_single(&[vec![u(0, 1, 0.0)], vec![u(1, 1, 0.0)]]);
    }
}
