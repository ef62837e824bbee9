//! Algorithm AD-6: orderedness and consistency over a variable set
//! (paper Fig. A-6).

use rcm_json::{obj, Json};

use crate::alert::Alert;
use crate::var::VarId;

use super::ad3::{ConsistencyState, PerVar, VarConsistency};
use super::ad5::Ad5;
use super::{AlertFilter, Decision, DiscardReason};

/// Algorithm AD-6: combines [`Ad5`] (orderedness) with the
/// multi-variable version of AD-3 (one `Received`/`Missed` pair per
/// variable), enforcing both orderedness and consistency (paper §5.2);
/// over one variable it is AD-4 ([`Ad4`](super::Ad4)).
///
/// An alert is displayed only if neither half would discard it; the
/// ordered half decides first, and a discard by either leaves both
/// halves' state untouched. No `seen` set is needed: an alert equal to
/// a displayed one has every seqno at or below the watermarks, so the
/// ordered half discards it first.
///
/// System properties match Tables 2 and 3 except that the
/// aggressive-triggering row is also consistent.
///
/// Like [`super::Ad3`], the per-variable bookkeeping is pluggable via
/// the `W` parameter; the default is the interval-backed
/// [`VarConsistency`].
#[derive(Debug, Clone)]
pub struct Ad6<W = VarConsistency> {
    ordered: Ad5,
    consistency: PerVar<W>,
}

impl Ad6 {
    /// Creates the filter for the condition's variable set.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or contains duplicates.
    pub fn new(vars: impl IntoIterator<Item = VarId>) -> Self {
        Self::with_state(vars)
    }

    /// The filter's state as a checkpoint: its AD-5 half and one
    /// `Received`/`Missed` pair per variable,
    /// `{"ordered":…,"consistency":[[var,{"received":…,"missed":…}], …]}`.
    pub fn to_json(&self) -> Json {
        obj([("ordered", self.ordered.to_json()), ("consistency", self.consistency.to_json())])
    }

    /// Restores a filter from [`Ad6::to_json`]'s output.
    ///
    /// # Errors
    ///
    /// A document of any other shape, or halves over different
    /// variable sets.
    pub fn from_json(j: &Json) -> rcm_json::Result<Self> {
        let ordered = Ad5::from_json(j.field("ordered")?)?;
        let consistency = PerVar::from_json(j.field("consistency")?)?;
        if !ordered.last.keys().eq(consistency.vars()) {
            return Err(rcm_json::Error::new("AD-6's halves watch different variables"));
        }
        Ok(Ad6 { ordered, consistency })
    }
}

impl<W: ConsistencyState> Ad6<W> {
    /// Creates the filter with an explicit bookkeeping strategy for the
    /// consistency half.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or contains duplicates.
    pub fn with_state(vars: impl IntoIterator<Item = VarId>) -> Self {
        let ordered = Ad5::new(vars);
        let consistency = PerVar::new(ordered.last.keys().copied());
        Ad6 { ordered, consistency }
    }
}

impl<W: ConsistencyState> AlertFilter for Ad6<W> {
    fn name(&self) -> &'static str {
        if self.ordered.last.len() == 1 {
            "AD-4"
        } else {
            "AD-6"
        }
    }

    fn offer(&mut self, alert: &Alert) -> Decision {
        let d5 = self.ordered.check(alert);
        if !d5.is_deliver() {
            return d5;
        }
        if self.consistency.conflicts(alert) {
            return Decision::Discard(DiscardReason::Conflict);
        }
        self.ordered.commit(alert);
        self.consistency.record(alert);
        Decision::Deliver
    }

    fn reset(&mut self) {
        self.ordered.reset();
        self.consistency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{AlertId, CeId, CondId, HistoryFingerprint};
    use crate::update::SeqNo;

    fn x() -> VarId {
        VarId::new(0)
    }
    fn y() -> VarId {
        VarId::new(1)
    }

    /// Two-variable alert with degree-2 histories.
    fn alert22(xs: &[u64], ys: &[u64]) -> Alert {
        Alert::new(
            CondId::SINGLE,
            HistoryFingerprint::new(vec![
                (x(), xs.iter().map(|&s| SeqNo::new(s)).collect()),
                (y(), ys.iter().map(|&s| SeqNo::new(s)).collect()),
            ]),
            vec![],
            AlertId { ce: CeId::new(0), index: 0 },
        )
    }

    fn ad() -> Ad6 {
        Ad6::new([x(), y()])
    }

    #[test]
    fn enforces_order_like_ad5() {
        let mut f = ad();
        assert!(f.offer(&alert22(&[2], &[1])).is_deliver());
        assert_eq!(f.offer(&alert22(&[1], &[2])), Decision::Discard(DiscardReason::OutOfOrder));
    }

    #[test]
    fn enforces_consistency_per_variable() {
        let mut f = ad();
        // First alert: x history {1,3} → x's Missed = {2}.
        assert!(f.offer(&alert22(&[3, 1], &[1])).is_deliver());
        // Second alert advances (order fine) but needs 2x received.
        assert_eq!(f.offer(&alert22(&[4, 3, 2], &[2])), Decision::Discard(DiscardReason::Conflict));
        // Conflict-free advance passes.
        assert!(f.offer(&alert22(&[4, 3], &[2])).is_deliver());
    }

    #[test]
    fn conflict_in_second_variable_detected() {
        let mut f = ad();
        assert!(f.offer(&alert22(&[1], &[3, 1])).is_deliver()); // y Missed = {2}
        assert!(!f.offer(&alert22(&[2], &[4, 3, 2])).is_deliver());
    }

    #[test]
    fn rejected_alert_leaves_state_clean() {
        let mut f = ad();
        assert!(f.offer(&alert22(&[3, 1], &[1])).is_deliver());
        // Dropped for conflict; its y watermark (5) must not stick.
        assert!(!f.offer(&alert22(&[4, 2], &[5])).is_deliver());
        // y = 2 would be out of order had the previous alert committed.
        assert!(f.offer(&alert22(&[4, 3], &[2])).is_deliver());
    }

    #[test]
    fn duplicates_dropped() {
        let mut f = ad();
        assert!(f.offer(&alert22(&[2, 1], &[1])).is_deliver());
        assert_eq!(f.offer(&alert22(&[2, 1], &[1])), Decision::Discard(DiscardReason::Duplicate));
    }

    #[test]
    fn reset_clears_everything() {
        let mut f = ad();
        f.offer(&alert22(&[3, 1], &[1]));
        f.reset();
        assert!(f.offer(&alert22(&[2, 1], &[1])).is_deliver());
    }
}
