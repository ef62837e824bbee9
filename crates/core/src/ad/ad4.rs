//! Algorithm AD-4: orderedness and consistency for single-variable
//! systems (paper Fig. A-4), which is AD-6 over one variable.

use crate::var::VarId;

use super::ad6::Ad6;

/// Algorithm AD-4: [`Ad6`] over the system's one variable, named
/// "AD-4". It discards any alert AD-2 or AD-3 would discard, so every
/// single-variable system is ordered and consistent (Theorem 9:
/// maximally so).
#[derive(Debug)]
pub enum Ad4 {}

impl Ad4 {
    /// `Ad6::new([var])`.
    // AD-4 is AD-6 over one variable, so there is no AD-4 value to return.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(var: VarId) -> Ad6 {
        Ad6::new([var])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::testutil::alert1;
    use crate::ad::{AlertFilter, Decision, DiscardReason};

    fn ad() -> Ad6 {
        Ad4::new(VarId::new(0))
    }

    #[test]
    fn drops_out_of_order_like_ad2() {
        let mut f = ad();
        assert!(f.offer(&alert1(&[3, 2])).is_deliver());
        assert_eq!(f.offer(&alert1(&[2, 1])), Decision::Discard(DiscardReason::OutOfOrder));
    }

    #[test]
    fn drops_conflicts_like_ad3() {
        let mut f = ad();
        assert!(f.offer(&alert1(&[3, 1])).is_deliver());
        assert_eq!(f.offer(&alert1(&[4, 3, 2])), Decision::Discard(DiscardReason::Conflict));
    }

    #[test]
    fn passes_ordered_consistent_streams() {
        let mut f = ad();
        assert!(f.offer(&alert1(&[2, 1])).is_deliver());
        assert!(f.offer(&alert1(&[3, 2])).is_deliver());
        assert!(f.offer(&alert1(&[5, 4])).is_deliver());
    }

    #[test]
    fn rejected_alert_does_not_pollute_state() {
        let mut f = ad();
        assert!(f.offer(&alert1(&[3, 1])).is_deliver()); // Missed = {2}

        // Dropped as out of order; its history must NOT be recorded by
        // the consistency half…
        assert!(!f.offer(&alert1(&[2, 1])).is_deliver());
        // …so an alert consistent with the FIRST alert still passes even
        // though it would conflict with the rejected one.
        assert!(f.offer(&alert1(&[4, 3])).is_deliver());
    }

    #[test]
    fn duplicate_detected() {
        let mut f = ad();
        f.offer(&alert1(&[3, 2]));
        assert_eq!(f.offer(&alert1(&[3, 2])), Decision::Discard(DiscardReason::Duplicate));
    }

    #[test]
    fn reset_clears_both_halves() {
        let mut f = ad();
        f.offer(&alert1(&[3, 1]));
        f.reset();
        assert!(f.offer(&alert1(&[2, 1])).is_deliver());
    }
}
