//! Multi-condition demultiplexing (paper Appendix D).

use std::collections::BTreeMap;

use crate::alert::{Alert, CondId};

use super::{AlertFilter, Decision};

/// Runs one filter instance per condition (paper Appendix D,
/// Fig. D-7(c)): the AD "can effectively separate the A and B alert
/// streams and run one instance of the filtering algorithm against each
/// stream", reducing a replicated multi-condition system with separate
/// CEs to independent single-condition systems.
///
/// Filter instances are created on demand by the factory closure, from
/// the alert's [`CondId`] ([`new`](Self::new)) or from the condition's
/// first alert ([`at_first_alert`](Self::at_first_alert)).
///
/// ```rust
/// use rcm_core::ad::{Ad2, AlertFilter, PerCondition};
/// use rcm_core::VarId;
/// # use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo};
/// # let mk = |c: u32, s: u64| Alert::new(CondId::new(c),
/// #     HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(s)]), vec![],
/// #     AlertId { ce: CeId::new(0), index: 0 });
/// let mut ad = PerCondition::new(|_cond| Ad2::new(VarId::new(0)));
/// assert!(ad.offer(&mk(0, 2)).is_deliver());
/// assert!(!ad.offer(&mk(0, 1)).is_deliver()); // out of order within c0
/// assert!(ad.offer(&mk(1, 1)).is_deliver());  // c1 has its own stream
/// ```
pub struct PerCondition<F, Make> {
    make: Make,
    filters: BTreeMap<CondId, F>,
}

impl<F, Make> std::fmt::Debug for PerCondition<F, Make>
where
    F: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerCondition").field("filters", &self.filters).finish()
    }
}

// An impl of its own fixes `Make`, so that `PerCondition::new` infers.
impl<F: AlertFilter> PerCondition<F, fn(&Alert) -> F> {
    /// Creates the demultiplexer with a factory of the condition id.
    pub fn new(mut make: impl FnMut(CondId) -> F) -> PerCondition<F, impl FnMut(&Alert) -> F> {
        PerCondition::at_first_alert(move |first: &Alert| make(first.cond))
    }
}

impl<F, Make> PerCondition<F, Make>
where
    F: AlertFilter,
    Make: FnMut(&Alert) -> F,
{
    /// Creates the demultiplexer with a factory of each first alert.
    pub fn at_first_alert(make: Make) -> Self {
        PerCondition { make, filters: BTreeMap::new() }
    }

    /// Number of condition streams seen so far.
    pub fn streams(&self) -> usize {
        self.filters.len()
    }

    /// The filter instance for `cond`, if that stream has been seen.
    pub fn stream(&self, cond: CondId) -> Option<&F> {
        self.filters.get(&cond)
    }
}

impl<F, Make> AlertFilter for PerCondition<F, Make>
where
    F: AlertFilter,
    Make: FnMut(&Alert) -> F + Send,
{
    fn name(&self) -> &'static str {
        "per-condition"
    }

    fn offer(&mut self, alert: &Alert) -> Decision {
        let filter = self.filters.entry(alert.cond).or_insert_with(|| (self.make)(alert));
        filter.offer(alert)
    }

    fn reset(&mut self) {
        self.filters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::testutil::alert_cond;
    use crate::ad::{Ad1, Ad3};
    use crate::var::VarId;

    #[test]
    fn streams_are_independent() {
        let mut ad = PerCondition::new(|_c| Ad3::new([VarId::new(0)]));
        // Condition 0 commits "2 missed"; condition 1 may still claim 2
        // received — the streams never interact (Appendix D).
        assert!(ad.offer(&alert_cond(0, &[3, 1])).is_deliver());
        assert!(ad.offer(&alert_cond(1, &[3, 2])).is_deliver());
        assert!(!ad.offer(&alert_cond(0, &[3, 2])).is_deliver());
        assert_eq!(ad.streams(), 2);
        assert!(ad.stream(CondId::new(0)).is_some());
        assert!(ad.stream(CondId::new(9)).is_none());
    }

    #[test]
    fn duplicates_deduped_within_stream_only() {
        let mut ad = PerCondition::new(|_c| Ad1::new());
        assert!(ad.offer(&alert_cond(0, &[1])).is_deliver());
        assert!(ad.offer(&alert_cond(1, &[1])).is_deliver());
        assert!(!ad.offer(&alert_cond(0, &[1])).is_deliver());
    }

    #[test]
    fn reset_drops_all_streams() {
        let mut ad = PerCondition::new(|_c| Ad1::new());
        ad.offer(&alert_cond(0, &[1]));
        ad.reset();
        assert_eq!(ad.streams(), 0);
        assert!(ad.offer(&alert_cond(0, &[1])).is_deliver());
    }
}
