//! Tests of [`Ad3`](super::Ad3) over several variables ("AD-3/multi"),
//! the ablation of AD-6 that Theorem 10's interleaving cycles pass.

#[cfg(test)]
mod tests {
    use crate::ad::testutil::alert2;
    use crate::ad::{Ad3, Ad6, AlertFilter, Decision, DiscardReason};
    use crate::alert::{Alert, AlertId, CeId, CondId, HistoryFingerprint};
    use crate::update::SeqNo;
    use crate::var::VarId;

    fn x() -> VarId {
        VarId::new(0)
    }
    fn y() -> VarId {
        VarId::new(1)
    }

    #[test]
    fn per_variable_conflicts_still_caught() {
        let alert22 = |xs: &[u64], ys: &[u64]| {
            Alert::new(
                CondId::SINGLE,
                HistoryFingerprint::new(vec![
                    (x(), xs.iter().map(|&s| SeqNo::new(s)).collect()),
                    (y(), ys.iter().map(|&s| SeqNo::new(s)).collect()),
                ]),
                vec![],
                AlertId { ce: CeId::new(0), index: 0 },
            )
        };
        let mut f = Ad3::new([x(), y()]);
        assert!(f.offer(&alert22(&[3, 1], &[1])).is_deliver()); // x: Missed = {2}
        assert_eq!(f.offer(&alert22(&[4, 3, 2], &[2])), Decision::Discard(DiscardReason::Conflict));
    }

    #[test]
    fn theorem_10_cycle_slips_through() {
        // The ablation's defining failure: both Theorem-10 alerts pass
        // (no per-variable conflict), though together they are
        // inconsistent. AD-6 (with the AD-5 half) drops the second.
        let mut ablated = Ad3::new([x(), y()]);
        assert!(ablated.offer(&alert2(2, 1)).is_deliver());
        assert!(ablated.offer(&alert2(1, 2)).is_deliver(), "cycle undetected by design");

        let mut full = Ad6::new([x(), y()]);
        assert!(full.offer(&alert2(2, 1)).is_deliver());
        assert!(!full.offer(&alert2(1, 2)).is_deliver());
    }

    #[test]
    fn duplicates_removed() {
        let mut f = Ad3::new([x(), y()]);
        assert!(f.offer(&alert2(1, 1)).is_deliver());
        assert_eq!(f.offer(&alert2(1, 1)), Decision::Discard(DiscardReason::Duplicate));
    }

    #[test]
    fn reset_clears() {
        let mut f = Ad3::new([x(), y()]);
        f.offer(&alert2(3, 1));
        f.reset();
        assert!(f.offer(&alert2(1, 1)).is_deliver());
    }

    #[test]
    #[should_panic(expected = "at least one variable")]
    fn empty_vars_rejected() {
        Ad3::new(Vec::<VarId>::new());
    }
}
