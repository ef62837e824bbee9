//! The paper's `T` transducer from update sequences to alert
//! sequences, on the one Condition Evaluator there is: a
//! [`ConditionRegistry`] hosting a single condition.

use crate::alert::{Alert, CeId, CondId};
use crate::condition::expr::CompiledCondition;
use crate::registry::ConditionRegistry;
use crate::update::Update;

/// The paper's `T`: runs `updates` through a fresh Condition Evaluator
/// hosting `cond` alone (as [`CondId::SINGLE`], on replica `ce`) and
/// returns the resulting alert sequence. Stale updates and updates of
/// variables outside the condition's set are dropped.
///
/// ```rust
/// use rcm_core::{transduce, Update, VarId, CeId};
/// use rcm_core::condition::{cond, Cmp};
/// let x = VarId::new(0);
/// let c1 = cond::threshold(x, Cmp::Gt, 3000.0);
/// // Example 1: U = ⟨1x(2900), 2x(3100), 3x(3200)⟩ → two alerts.
/// let u = vec![
///     Update::new(x, 1, 2900.0),
///     Update::new(x, 2, 3100.0),
///     Update::new(x, 3, 3200.0),
/// ];
/// let alerts = transduce(&c1, CeId::new(0), &u);
/// assert_eq!(alerts.len(), 2);
/// ```
pub fn transduce(cond: &CompiledCondition, ce: CeId, updates: &[Update]) -> Vec<Alert> {
    let mut ev = ConditionRegistry::new(ce);
    ev.host(CondId::SINGLE, cond);
    let mut alerts = Vec::new();
    ev.ingest_batch(updates, &mut alerts);
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{cond, Cmp};
    use crate::update::SeqNo;
    use crate::var::VarId;

    fn x() -> VarId {
        VarId::new(0)
    }

    fn u(s: u64, v: f64) -> Update {
        Update::new(x(), s, v)
    }

    #[test]
    fn example_1_replicated_trace() {
        // Example 1: c1 over U = ⟨1(2900), 2(3100), 3(3200)⟩;
        // CE1 receives all, CE2 misses 2.
        let c1 = cond::threshold(x(), Cmp::Gt, 3000.0);
        let a1 = transduce(&c1, CeId::new(1), &[u(1, 2900.0), u(2, 3100.0), u(3, 3200.0)]);
        let a2 = transduce(&c1, CeId::new(2), &[u(1, 2900.0), u(3, 3200.0)]);
        assert_eq!(a1.len(), 2);
        assert_eq!(a1[0].seqno(x()), Some(SeqNo::new(2)));
        assert_eq!(a1[1].seqno(x()), Some(SeqNo::new(3)));
        assert_eq!(a2.len(), 1);
        assert_eq!(a2[0].seqno(x()), Some(SeqNo::new(3)));
        // a2 (from CE1, on 3x) and a3 (from CE2, on 3x) are identical.
        assert_eq!(a1[1], a2[0]);
    }

    #[test]
    fn no_alert_until_history_defined() {
        let c = cond::delta_rise(x(), -1e9); // effectively "always true" once defined
        assert!(transduce(&c, CeId::new(0), &[u(1, 0.0)]).is_empty()); // degree 2, one update
        let alerts = transduce(&c, CeId::new(0), &[u(1, 0.0), u(2, 0.0)]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].fingerprint.seqnos(x()), Some(&[SeqNo::new(2), SeqNo::new(1)][..]));
    }

    #[test]
    fn stale_updates_discarded_and_counted() {
        let mut ce = ConditionRegistry::new(CeId::new(0));
        ce.add_compiled(cond::threshold(x(), Cmp::Gt, 0.0));
        let mut alerts = Vec::new();
        ce.ingest_batch(&[u(5, 1.0), u(5, 1.0), u(3, 1.0)], &mut alerts);
        assert_eq!(alerts.len(), 1);
        let stats = ce.stats();
        assert_eq!((stats.dropped_stale, stats.ingested), (2, 1));
        assert_eq!(
            transduce(&cond::threshold(x(), Cmp::Gt, 0.0), CeId::new(0), &[u(5, 1.0), u(3, 1.0)])
                .len(),
            1
        );
    }

    #[test]
    fn restart_clears_history_but_keeps_numbering() {
        let mut ce = ConditionRegistry::new(CeId::new(0));
        ce.add_compiled(cond::delta_rise(x(), -1e9));
        let mut alerts = Vec::new();
        ce.ingest_batch(&[u(1, 1.0), u(2, 1.0)], &mut alerts);
        assert_eq!(alerts[0].id.index, 0);
        ce.restart();
        // Degree 2 again undefined: the history before the restart is gone.
        ce.ingest(u(5, 1.0), &mut alerts);
        assert_eq!(alerts.len(), 1);
        ce.ingest(u(6, 1.0), &mut alerts);
        assert_eq!(alerts[1].id.index, 1);
        assert_eq!(alerts[1].fingerprint.seqnos(x()), Some(&[SeqNo::new(6), SeqNo::new(5)][..]));
    }

    #[test]
    fn alert_provenance_is_recorded() {
        let c = cond::threshold(x(), Cmp::Gt, 0.0);
        let alerts = transduce(&c, CeId::new(7), &[u(1, 1.0), u(2, 1.0)]);
        assert_eq!(alerts[0].id.ce, CeId::new(7));
        assert_eq!(alerts[0].id.index, 0);
        assert_eq!(alerts[1].id.index, 1);
        assert_eq!(alerts[0].cond, CondId::SINGLE);
    }
}
