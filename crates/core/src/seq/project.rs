//! Projections `Π_x` from alert sequences to per-variable seqno
//! sequences.

use crate::alert::Alert;
use crate::update::SeqNo;
use crate::var::VarId;

/// The paper's `Π_x A`: the sequence `⟨a.seqno.x | a ∈ A⟩`.
///
/// Alerts whose condition does not involve `var` (possible only in
/// multi-condition systems) are skipped.
pub fn project_alerts(alerts: &[Alert], var: VarId) -> Vec<SeqNo> {
    alerts.iter().filter_map(|a| a.seqno(var)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{AlertId, CeId, CondId, HistoryFingerprint};
    use crate::seq::is_ordered;
    use crate::update::Update;

    /// The paper's `Π_x U`: the sequence of seqnos of `var`-updates in `U`,
    /// in their order of appearance.
    fn project_updates(updates: &[Update], var: VarId) -> Vec<SeqNo> {
        updates.iter().filter(|u| u.var == var).map(|u| u.seqno).collect()
    }

    /// Whether the alert sequence is ordered with respect to `var`
    /// (`Π_var A` is non-decreasing).
    fn is_ordered_wrt(alerts: &[Alert], var: VarId) -> bool {
        is_ordered(&project_alerts(alerts, var))
    }

    /// Whether the alert sequence is ordered with respect to *every*
    /// variable in `vars` — the paper's "A is ordered".
    fn alerts_ordered(alerts: &[Alert], vars: &[VarId]) -> bool {
        vars.iter().all(|&v| is_ordered_wrt(alerts, v))
    }

    fn alert2(x_seq: u64, y_seq: u64) -> Alert {
        let x = VarId::new(0);
        let y = VarId::new(1);
        Alert::new(
            CondId::SINGLE,
            HistoryFingerprint::new(vec![
                (x, vec![SeqNo::new(x_seq)]),
                (y, vec![SeqNo::new(y_seq)]),
            ]),
            vec![],
            AlertId { ce: CeId::new(0), index: 0 },
        )
    }

    #[test]
    fn projection_preserves_appearance_order() {
        let x = VarId::new(0);
        let u = vec![
            Update::new(x, 5, 0.0),
            Update::new(VarId::new(1), 9, 0.0),
            Update::new(x, 2, 0.0),
        ];
        assert_eq!(project_updates(&u, x), vec![SeqNo::new(5), SeqNo::new(2)]);
    }

    #[test]
    fn empty_projection_for_unknown_var() {
        let u = vec![Update::new(VarId::new(0), 1, 0.0)];
        assert!(project_updates(&u, VarId::new(7)).is_empty());
    }

    #[test]
    fn multi_var_orderedness_checks_every_variable() {
        // Theorem 10's counterexample: A = ⟨a(2x,1y), a(1x,2y)⟩ is
        // unordered w.r.t. x even though it is ordered w.r.t. y.
        let a = vec![alert2(2, 1), alert2(1, 2)];
        let x = VarId::new(0);
        let y = VarId::new(1);
        assert!(!is_ordered_wrt(&a, x));
        assert!(is_ordered_wrt(&a, y));
        assert!(!alerts_ordered(&a, &[x, y]));
    }

    #[test]
    fn ordered_alert_sequence_passes() {
        let a = vec![alert2(1, 1), alert2(1, 2), alert2(3, 2)];
        assert!(alerts_ordered(&a, &[VarId::new(0), VarId::new(1)]));
    }

    #[test]
    fn empty_alert_sequence_is_ordered() {
        assert!(alerts_ordered(&[], &[VarId::new(0)]));
    }
}
