//! The Condition Evaluator: the paper's `T` transducer from update
//! sequences to alert sequences.

use crate::alert::{Alert, AlertId, CeId, CondId};
use crate::condition::{Condition, ConditionExt};
use crate::error::{Error, Result};
use crate::history::HistorySet;
use crate::update::Update;

/// A Condition Evaluator replica.
///
/// On every received update the evaluator incorporates it into the
/// per-variable histories and re-evaluates the condition; if the
/// condition is satisfied (and every history is defined — the paper's
/// `H` is undefined until `N` updates have been received), an alert is
/// emitted carrying the full history fingerprint.
///
/// The paper's `T` is the *sequence-level* view of this process:
/// [`transduce`] folds a whole update sequence through a fresh
/// evaluator.
///
/// ```rust
/// use rcm_core::{Evaluator, Update, VarId, SeqNo};
/// use rcm_core::condition::DeltaRise;
/// let x = VarId::new(0);
/// // c2: rose more than 200 since last reading received.
/// let mut ce = Evaluator::new(DeltaRise::new(x, 200.0));
/// assert!(ce.ingest(Update::new(x, 1, 400.0)).is_none()); // H undefined
/// let alert = ce.ingest(Update::new(x, 2, 700.0)).unwrap();
/// assert_eq!(alert.seqno(x), Some(SeqNo::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<C> {
    cond: C,
    cond_id: CondId,
    ce: CeId,
    histories: HistorySet,
    emitted: u64,
    ingested: u64,
    dropped_stale: u64,
}

impl<C: Condition> Evaluator<C> {
    /// Creates an evaluator for a single-condition system (condition id
    /// [`CondId::SINGLE`], replica id 0).
    pub fn new(cond: C) -> Self {
        Self::with_ids(cond, CondId::SINGLE, CeId::new(0))
    }

    /// Creates an evaluator with explicit condition and replica ids
    /// (used by replicated and multi-condition systems).
    pub fn with_ids(cond: C, cond_id: CondId, ce: CeId) -> Self {
        let histories = HistorySet::new(cond.history_spec());
        Evaluator { cond, cond_id, ce, histories, emitted: 0, ingested: 0, dropped_stale: 0 }
    }

    /// The monitored condition.
    pub fn condition(&self) -> &C {
        &self.cond
    }

    /// The current history set.
    pub fn histories(&self) -> &HistorySet {
        &self.histories
    }

    /// Number of alerts emitted so far.
    pub fn alerts_emitted(&self) -> u64 {
        self.emitted
    }

    /// Number of updates incorporated so far.
    pub fn updates_ingested(&self) -> u64 {
        self.ingested
    }

    /// Number of stale (out-of-order or duplicate) updates discarded.
    // analyze: allow(reach): registry_shared compares the registry's stale count against it
    pub fn stale_dropped(&self) -> u64 {
        self.dropped_stale
    }

    /// Incorporates an update and re-evaluates the condition.
    ///
    /// Stale updates (seqno not newer than the history head) are
    /// silently discarded — the paper's in-order links discard them at
    /// the receiver, and a defensive evaluator does the same; the
    /// [`Evaluator::stale_dropped`] counter records how many.
    ///
    /// Returns the alert if the condition triggered.
    ///
    /// # Panics
    ///
    /// Panics if the update's variable is not in the condition's
    /// variable set: the CE subscribes only to `V`, so this is a wiring
    /// bug. Use [`Evaluator::try_ingest`] to handle it as an error.
    pub fn ingest(&mut self, update: Update) -> Option<Alert> {
        match self.try_ingest(update) {
            Ok(alert) => alert,
            Err(Error::UnknownVariable(v)) => {
                panic!("update for variable {v} not in condition's variable set")
            }
            Err(_) => None,
        }
    }

    /// Like [`Evaluator::ingest`] but surfaces routing problems.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] for updates outside the
    /// condition's variable set. Stale updates are *not* errors; they
    /// are discarded and counted, returning `Ok(None)`.
    pub fn try_ingest(&mut self, update: Update) -> Result<Option<Alert>> {
        match self.histories.push(update) {
            Ok(()) => {}
            Err(Error::OutOfOrderUpdate { .. }) => {
                self.dropped_stale += 1;
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
        self.ingested += 1;
        if !self.histories.is_defined() || !self.cond.eval(&self.histories) {
            return Ok(None);
        }
        let alert = Alert::new(
            self.cond_id,
            self.histories.fingerprint(),
            self.histories.snapshot(),
            AlertId { ce: self.ce, index: self.emitted },
        );
        self.emitted += 1;
        Ok(Some(alert))
    }

    /// Simulates a crash-restart: all in-memory histories are lost.
    ///
    /// Alert numbering continues (the paper's back links are lossless
    /// and stateful, so a restarted CE does not reuse alert positions).
    pub fn restart(&mut self) {
        self.histories.clear();
    }
}

/// The paper's `T`: runs `updates` through a fresh evaluator and
/// returns the resulting alert sequence.
///
/// ```rust
/// use rcm_core::{transduce, Update, VarId, CeId};
/// use rcm_core::condition::{Threshold, Cmp};
/// let x = VarId::new(0);
/// let c1 = Threshold::new(x, Cmp::Gt, 3000.0);
/// // Example 1: U = ⟨1x(2900), 2x(3100), 3x(3200)⟩ → two alerts.
/// let u = vec![
///     Update::new(x, 1, 2900.0),
///     Update::new(x, 2, 3100.0),
///     Update::new(x, 3, 3200.0),
/// ];
/// let alerts = transduce(&c1, CeId::new(0), &u);
/// assert_eq!(alerts.len(), 2);
/// ```
pub fn transduce<C: Condition>(cond: &C, ce: CeId, updates: &[Update]) -> Vec<Alert> {
    let mut ev = Evaluator::with_ids(cond, CondId::SINGLE, ce);
    updates.iter().filter_map(|&u| ev.ingest(u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Cmp, DeltaRise, Threshold};
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
        let c1 = Threshold::new(x(), Cmp::Gt, 3000.0);
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
        let c = DeltaRise::new(x(), -1e9); // effectively "always true" once defined
        let mut ev = Evaluator::new(c);
        assert!(ev.ingest(u(1, 0.0)).is_none()); // degree 2, only 1 update
        assert!(ev.ingest(u(2, 0.0)).is_some());
        assert_eq!(ev.alerts_emitted(), 1);
        assert_eq!(ev.updates_ingested(), 2);
    }

    #[test]
    fn stale_updates_discarded_and_counted() {
        let c = Threshold::new(x(), Cmp::Gt, 0.0);
        let mut ev = Evaluator::new(c);
        ev.ingest(u(5, 1.0));
        assert!(ev.ingest(u(5, 1.0)).is_none());
        assert!(ev.ingest(u(3, 1.0)).is_none());
        assert_eq!(ev.stale_dropped(), 2);
        assert_eq!(ev.updates_ingested(), 1);
    }

    #[test]
    #[should_panic(expected = "not in condition's variable set")]
    fn unknown_variable_panics_on_ingest() {
        let c = Threshold::new(x(), Cmp::Gt, 0.0);
        let mut ev = Evaluator::new(c);
        ev.ingest(Update::new(VarId::new(9), 1, 1.0));
    }

    #[test]
    fn try_ingest_surfaces_unknown_variable() {
        let c = Threshold::new(x(), Cmp::Gt, 0.0);
        let mut ev = Evaluator::new(c);
        assert!(matches!(
            ev.try_ingest(Update::new(VarId::new(9), 1, 1.0)),
            Err(Error::UnknownVariable(_))
        ));
    }

    #[test]
    fn restart_clears_history_but_keeps_numbering() {
        let c = Threshold::new(x(), Cmp::Gt, 0.0);
        let mut ev = Evaluator::new(c);
        let a0 = ev.ingest(u(1, 1.0)).unwrap();
        assert_eq!(a0.id.index, 0);
        ev.restart();
        assert!(ev.histories().history(x()).unwrap().is_empty());
        let a1 = ev.ingest(u(5, 1.0)).unwrap();
        assert_eq!(a1.id.index, 1);
    }

    #[test]
    fn alert_provenance_is_recorded() {
        let c = Threshold::new(x(), Cmp::Gt, 0.0);
        let alerts = transduce(&c, CeId::new(7), &[u(1, 1.0), u(2, 1.0)]);
        assert_eq!(alerts[0].id.ce, CeId::new(7));
        assert_eq!(alerts[0].id.index, 0);
        assert_eq!(alerts[1].id.index, 1);
    }
}
