//! Algorithm AD-5: orderedness over a variable set (paper Fig. A-5).

use std::collections::BTreeMap;

use rcm_json::{obj, Json};

use crate::alert::Alert;
use crate::update::SeqNo;
use crate::var::VarId;

use super::{per_var_from_json, per_var_to_json, var_map, watermark_from_json};
use super::{AlertFilter, Decision, DiscardReason};

/// Algorithm AD-5: the multi-variable generalization of AD-2
/// (paper §5.1), and AD-2 itself over one variable ([`Ad2`](super::Ad2)).
///
/// For every displayed alert the filter records its seqno with respect
/// to each variable; an arriving alert is discarded if any of its
/// seqnos would *decrease* a recorded watermark (displaying it would
/// produce an output unordered in that variable), or if **all** its
/// seqnos equal the watermarks (a duplicate). An alert that lacks a
/// variable cannot be ordered against anything and is discarded as
/// conflicting.
///
/// Lemma 4 proves the output ordered; Lemma 5 shows AD-5 also makes
/// most systems consistent (all but aggressively triggered historical
/// conditions); Lemma 6 shows multi-variable systems under AD-5 remain
/// incomplete (Table 3). The paper's pseudo-code is for two variables;
/// this implementation generalizes to any number.
#[derive(Debug, Clone)]
pub struct Ad5 {
    pub(super) last: BTreeMap<VarId, Option<SeqNo>>,
}

impl Ad5 {
    /// Creates the filter for the condition's variable set.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or contains duplicates.
    pub fn new(vars: impl IntoIterator<Item = VarId>) -> Self {
        Ad5 { last: var_map(vars, || None) }
    }

    /// The recorded watermark for `var`.
    pub fn watermark(&self, var: VarId) -> Option<SeqNo> {
        self.last.get(&var).copied().flatten()
    }

    /// The filter's state as a checkpoint: one watermark per variable,
    /// `{"last":[[var, seqno|null], …]}`.
    pub fn to_json(&self) -> Json {
        obj([("last", per_var_to_json(&self.last, |l| l.map(SeqNo::get).into()))])
    }

    /// Restores a filter from [`Ad5::to_json`]'s output.
    ///
    /// # Errors
    ///
    /// A document of any other shape, an empty variable set or a
    /// variable listed twice.
    pub fn from_json(j: &Json) -> rcm_json::Result<Self> {
        Ok(Ad5 { last: per_var_from_json(j.field("last")?, watermark_from_json)? })
    }

    /// Decision without committing state (used by AD-6).
    pub(super) fn check(&self, alert: &Alert) -> Decision {
        let mut all_equal = true;
        for (&var, &last) in &self.last {
            let Some(seq) = alert.seqno(var) else {
                return Decision::Discard(DiscardReason::Conflict);
            };
            match last {
                Some(l) if seq < l => return Decision::Discard(DiscardReason::OutOfOrder),
                Some(l) if seq == l => {}
                _ => all_equal = false,
            }
        }
        if all_equal {
            Decision::Discard(DiscardReason::Duplicate)
        } else {
            Decision::Deliver
        }
    }

    /// Records a delivered alert (used by AD-6).
    pub(super) fn commit(&mut self, alert: &Alert) {
        for (&var, last) in self.last.iter_mut() {
            *last = alert.seqno(var);
        }
    }
}

impl AlertFilter for Ad5 {
    fn name(&self) -> &'static str {
        if self.last.len() == 1 {
            "AD-2"
        } else {
            "AD-5"
        }
    }

    fn offer(&mut self, alert: &Alert) -> Decision {
        let d = self.check(alert);
        if d.is_deliver() {
            self.commit(alert);
        }
        d
    }

    fn reset(&mut self) {
        for last in self.last.values_mut() {
            *last = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::testutil::alert2;

    fn ad() -> Ad5 {
        Ad5::new([VarId::new(0), VarId::new(1)])
    }

    #[test]
    fn theorem_10_counterexample_is_filtered() {
        // AD-1 passes both a(2x,1y) and a(1x,2y) (inconsistent, unordered);
        // AD-5 drops the second because x regresses 2 → 1.
        let mut f = ad();
        assert!(f.offer(&alert2(2, 1)).is_deliver());
        assert_eq!(f.offer(&alert2(1, 2)), Decision::Discard(DiscardReason::OutOfOrder));
    }

    #[test]
    fn progress_in_one_variable_suffices() {
        let mut f = ad();
        assert!(f.offer(&alert2(1, 1)).is_deliver());
        assert!(f.offer(&alert2(1, 2)).is_deliver()); // y advances, x equal
        assert!(f.offer(&alert2(2, 2)).is_deliver()); // x advances, y equal
    }

    #[test]
    fn all_equal_is_duplicate() {
        let mut f = ad();
        assert!(f.offer(&alert2(1, 1)).is_deliver());
        assert_eq!(f.offer(&alert2(1, 1)), Decision::Discard(DiscardReason::Duplicate));
    }

    #[test]
    fn regression_in_any_variable_discards() {
        let mut f = ad();
        assert!(f.offer(&alert2(3, 3)).is_deliver());
        assert!(!f.offer(&alert2(4, 2)).is_deliver()); // y regresses
        assert!(!f.offer(&alert2(2, 4)).is_deliver()); // x regresses
        assert!(f.offer(&alert2(4, 3)).is_deliver());
    }

    #[test]
    fn first_alert_always_passes() {
        let mut f = ad();
        assert!(f.offer(&alert2(7, 9)).is_deliver());
        assert_eq!(f.watermark(VarId::new(0)), Some(SeqNo::new(7)));
        assert_eq!(f.watermark(VarId::new(1)), Some(SeqNo::new(9)));
    }

    #[test]
    fn alert_missing_a_variable_is_rejected() {
        let mut f = Ad5::new([VarId::new(0), VarId::new(1), VarId::new(2)]);
        assert!(!f.offer(&alert2(1, 1)).is_deliver()); // no v2 entry
    }

    #[test]
    #[should_panic(expected = "at least one variable")]
    fn empty_variable_set_rejected() {
        Ad5::new(Vec::<VarId>::new());
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_variable_rejected() {
        Ad5::new([VarId::new(0), VarId::new(0)]);
    }

    #[test]
    fn reset_clears_watermarks() {
        let mut f = ad();
        f.offer(&alert2(5, 5));
        f.reset();
        assert!(f.offer(&alert2(1, 1)).is_deliver());
    }
}
