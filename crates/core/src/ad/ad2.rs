//! Algorithm AD-2: orderedness for single-variable systems (paper
//! Fig. A-2), which is AD-5 over one variable.

use crate::var::VarId;

use super::ad5::Ad5;

/// Algorithm AD-2: [`Ad5`] over the system's one variable, named
/// "AD-2". It discards any alert whose seqno is below (*out of order*)
/// or equal to (*duplicate*) the highest displayed one, so the output
/// is ordered in all systems (Table 2). Theorem 5 proves it **maximally
/// ordered**; Theorem 6 records the price, `AD-1 > AD-2`.
///
/// ```rust
/// use rcm_core::ad::{Ad2, AlertFilter};
/// use rcm_core::VarId;
/// # use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo};
/// # let mk = |s: u64| Alert::new(CondId::SINGLE,
/// #     HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(s)]), vec![],
/// #     AlertId { ce: CeId::new(0), index: 0 });
/// let mut ad = Ad2::new(VarId::new(0));
/// assert_eq!(ad.name(), "AD-2");
/// assert!(ad.offer(&mk(2)).is_deliver());
/// assert!(!ad.offer(&mk(1)).is_deliver()); // Example 2: late alert dropped
/// assert!(ad.offer(&mk(3)).is_deliver());
/// ```
#[derive(Debug)]
pub enum Ad2 {}

impl Ad2 {
    /// `Ad5::new([var])`.
    // AD-2 is AD-5 over one variable, so there is no AD-2 value to return.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(var: VarId) -> Ad5 {
        Ad5::new([var])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::testutil::alert1;
    use crate::ad::{AlertFilter, Decision, DiscardReason};
    use crate::update::SeqNo;

    fn ad() -> Ad5 {
        Ad2::new(VarId::new(0))
    }

    #[test]
    fn example_2_incompleteness() {
        // U1 = ⟨1(3100)⟩, U2 = ⟨2(3200)⟩; a2 arrives before a1 → a1 dropped.
        let mut f = ad();
        assert!(f.offer(&alert1(&[2])).is_deliver());
        assert_eq!(f.offer(&alert1(&[1])), Decision::Discard(DiscardReason::OutOfOrder));
    }

    #[test]
    fn equal_seqno_is_duplicate() {
        let mut f = ad();
        f.offer(&alert1(&[2]));
        assert_eq!(f.offer(&alert1(&[2])), Decision::Discard(DiscardReason::Duplicate));
    }

    #[test]
    fn equal_seqno_different_history_also_dropped() {
        // AD-2 is cruder than AD-1: both alerts triggered at 3x but with
        // different histories; AD-2 still drops the second (seqno <= last).
        let mut f = ad();
        assert!(f.offer(&alert1(&[3, 2])).is_deliver());
        assert_eq!(f.offer(&alert1(&[3, 1])), Decision::Discard(DiscardReason::Duplicate));
    }

    #[test]
    fn monotone_sequences_pass_entirely() {
        let mut f = ad();
        for s in 1..=10u64 {
            assert!(f.offer(&alert1(&[s])).is_deliver());
        }
        assert_eq!(f.watermark(VarId::new(0)), Some(SeqNo::new(10)));
    }

    #[test]
    fn alert_missing_variable_is_rejected() {
        let mut f = Ad2::new(VarId::new(9));
        assert_eq!(f.offer(&alert1(&[1])), Decision::Discard(DiscardReason::Conflict));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut f = ad();
        f.offer(&alert1(&[5]));
        f.reset();
        assert!(f.offer(&alert1(&[1])).is_deliver());
    }
}
