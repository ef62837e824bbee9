//! The orderedness checker.

use rcm_core::seq::{is_ordered, project_alerts};
use rcm_core::{Alert, SeqNo, VarId};

/// Outcome of an orderedness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderedReport {
    /// Whether `A` is ordered with respect to every variable.
    pub ok: bool,
    /// First inversion found: `(variable, position, earlier seqno,
    /// later-but-smaller seqno)`.
    pub violation: Option<(VarId, usize, SeqNo, SeqNo)>,
}

/// Checks the paper's **orderedness** property: `Π_v A` is
/// non-decreasing for every variable `v` in `vars`.
///
/// ```rust
/// use rcm_props::check_ordered;
/// use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, VarId};
/// let x = VarId::new(0);
/// let mk = |s: u64| Alert::new(CondId::SINGLE,
///     HistoryFingerprint::single(x, vec![SeqNo::new(s)]), vec![],
///     AlertId { ce: CeId::new(0), index: 0 });
/// assert!(check_ordered(&[mk(1), mk(2), mk(2)], &[x]).ok);
/// let bad = check_ordered(&[mk(2), mk(1)], &[x]);
/// assert!(!bad.ok);
/// assert_eq!(bad.violation.unwrap().1, 1); // inversion at position 1
/// ```
pub fn check_ordered(alerts: &[Alert], vars: &[VarId]) -> OrderedReport {
    for &var in vars {
        let proj = project_alerts(alerts, var);
        if is_ordered(&proj) {
            continue;
        }
        for (i, w) in proj.windows(2).enumerate() {
            if w[0] > w[1] {
                return OrderedReport { ok: false, violation: Some((var, i + 1, w[0], w[1])) };
            }
        }
    }
    OrderedReport { ok: true, violation: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::{AlertId, CeId, CondId, HistoryFingerprint};

    fn alert2(x_seq: u64, y_seq: u64) -> Alert {
        Alert::new(
            CondId::SINGLE,
            HistoryFingerprint::new(vec![
                (VarId::new(0), vec![SeqNo::new(x_seq)]),
                (VarId::new(1), vec![SeqNo::new(y_seq)]),
            ]),
            vec![],
            AlertId { ce: CeId::new(0), index: 0 },
        )
    }

    #[test]
    fn multi_var_violation_names_the_variable() {
        let a = vec![alert2(1, 2), alert2(2, 1)];
        let r = check_ordered(&a, &[VarId::new(0), VarId::new(1)]);
        assert!(!r.ok);
        let (var, pos, hi, lo) = r.violation.unwrap();
        assert_eq!(var, VarId::new(1));
        assert_eq!(pos, 1);
        assert_eq!((hi, lo), (SeqNo::new(2), SeqNo::new(1)));
    }

    #[test]
    fn empty_and_singleton_are_ordered() {
        assert!(check_ordered(&[], &[VarId::new(0)]).ok);
        assert!(check_ordered(&[alert2(5, 5)], &[VarId::new(0), VarId::new(1)]).ok);
    }

    #[test]
    fn equal_seqnos_are_ordered() {
        let a = vec![alert2(1, 1), alert2(1, 2)];
        assert!(check_ordered(&a, &[VarId::new(0), VarId::new(1)]).ok);
    }
}
