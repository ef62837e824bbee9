//! Algorithm AD-3: consistency over a variable set (paper Fig. A-3,
//! and the multi-variable version AD-6 is built from, §5.2).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

use rcm_json::{obj, Json};

use crate::alert::Alert;
use crate::seq::{spanning_gaps, spanning_set, IntervalSet};
use crate::update::SeqNo;
use crate::var::VarId;

use super::{alerts_from_json, alerts_to_json, per_var_from_json, per_var_to_json, var_map};
use super::{AlertFilter, Decision, DiscardReason};

/// Per-variable received/missed bookkeeping strategy shared by AD-3
/// and AD-6.
///
/// Displaying an alert asserts that every seqno in its history was
/// *received* by the hypothetical single CE `U'`, and every seqno in a
/// gap of the history's span was *missed*. Two alerts conflict when one
/// needs a seqno received and the other needs it missed.
///
/// The production implementation is [`VarConsistency`], which stores
/// both sets as sorted interval runs. [`BTreeConsistency`] retains the
/// seed's per-seqno `BTreeSet` logic as an executable reference that
/// tests validate the interval path against.
pub trait ConsistencyState: Default + Clone + fmt::Debug + Send {
    /// The paper's `Conflicts(H)` for one variable's newest-first
    /// history seqnos.
    fn conflicts(&self, seqnos: &[SeqNo]) -> bool;

    /// The paper's `UpdateState(H)` for one variable: commits the
    /// history's seqnos as received and its span gaps as missed.
    fn record(&mut self, seqnos: &[SeqNo]);

    /// Seqnos committed as received (the consistency witness `U'`), in
    /// ascending order.
    fn received(&self) -> impl Iterator<Item = u64> + '_;

    /// Forgets all committed state (filter reset).
    fn clear(&mut self);
}

/// Interval-backed received/missed bookkeeping — the production
/// [`ConsistencyState`].
///
/// Histories march forward, so `Received` and `Missed` are unions of a
/// few long runs of consecutive seqnos. Storing them as sorted
/// inclusive intervals ([`IntervalSet`]) makes an offer two binary
/// searches over a handful of runs — no per-offer `BTreeSet` rebuild,
/// no materialized spanning set — and caps memory at the number of
/// *gaps* ever observed instead of the number of updates, fixing
/// unbounded growth in long-running deployments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarConsistency {
    received: IntervalSet,
    missed: IntervalSet,
}

impl ConsistencyState for VarConsistency {
    fn conflicts(&self, seqnos: &[SeqNo]) -> bool {
        // Any history seqno previously recorded as missed?
        if seqnos.iter().any(|s| self.missed.contains(s.get())) {
            return true;
        }
        // Any gap in the history's span previously recorded as
        // received? Seqnos are newest-first strictly decreasing, so the
        // span gaps are exactly the open ranges between adjacent pairs.
        seqnos.windows(2).any(|w| {
            let (hi, lo) = (w[0].get(), w[1].get());
            hi > lo + 1 && self.received.intersects(lo + 1, hi - 1)
        })
    }

    fn record(&mut self, seqnos: &[SeqNo]) {
        for s in seqnos {
            self.received.insert(s.get());
        }
        for w in seqnos.windows(2) {
            let (hi, lo) = (w[0].get(), w[1].get());
            if hi > lo + 1 {
                self.missed.insert_range(lo + 1, hi - 1);
            }
        }
    }

    fn received(&self) -> impl Iterator<Item = u64> + '_ {
        self.received.iter()
    }

    fn clear(&mut self) {
        self.received.clear();
        self.missed.clear();
    }
}

impl VarConsistency {
    /// Memory footprint as `(received_runs, missed_runs)` interval
    /// counts — proportional to observed gaps, not stream length.
    pub fn num_runs(&self) -> (usize, usize) {
        (self.received.num_runs(), self.missed.num_runs())
    }

    /// `{"received":runs,"missed":runs}`, as the filters checkpoint it.
    pub(crate) fn to_json(&self) -> Json {
        obj([("received", self.received.to_json()), ("missed", self.missed.to_json())])
    }

    pub(crate) fn from_json(j: &Json) -> rcm_json::Result<Self> {
        Ok(VarConsistency {
            received: IntervalSet::from_json(j.field("received")?)?,
            missed: IntervalSet::from_json(j.field("missed")?)?,
        })
    }
}

/// The seed's per-seqno `BTreeSet` bookkeeping, kept as an executable
/// reference implementation.
///
/// Every offer rebuilds the history's seqno set and materializes its
/// full spanning set, and both `received` and `missed` grow by one tree
/// node per seqno forever — the costs the interval representation
/// removes. Retained so property tests can check [`VarConsistency`]
/// against it decision-for-decision; not for production use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BTreeConsistency {
    received: BTreeSet<u64>,
    missed: BTreeSet<u64>,
}

impl ConsistencyState for BTreeConsistency {
    fn conflicts(&self, seqnos: &[SeqNo]) -> bool {
        let hx: BTreeSet<u64> = seqnos.iter().map(|s| s.get()).collect();
        if hx.iter().any(|s| self.missed.contains(s)) {
            return true;
        }
        spanning_set(&hx).into_iter().any(|s| !hx.contains(&s) && self.received.contains(&s))
    }

    fn record(&mut self, seqnos: &[SeqNo]) {
        let hx: BTreeSet<u64> = seqnos.iter().map(|s| s.get()).collect();
        self.missed.extend(spanning_gaps(&hx));
        self.received.extend(hx);
    }

    fn received(&self) -> impl Iterator<Item = u64> + '_ {
        self.received.iter().copied()
    }

    fn clear(&mut self) {
        self.received.clear();
        self.missed.clear();
    }
}

/// One received/missed pair per variable: the paper's `Conflicts(H)`
/// and `UpdateState(H)` over a variable set, shared by AD-3 and AD-6.
#[derive(Debug, Clone)]
pub(super) struct PerVar<W>(BTreeMap<VarId, W>);

impl<W: ConsistencyState> PerVar<W> {
    /// # Panics
    ///
    /// Panics if `vars` is empty or contains duplicates.
    pub(super) fn new(vars: impl IntoIterator<Item = VarId>) -> Self {
        PerVar(var_map(vars, W::default))
    }

    pub(super) fn vars(&self) -> impl Iterator<Item = &VarId> {
        self.0.keys()
    }

    /// Whether displaying `alert` would need some update both received
    /// and missed; an alert lacking a variable conflicts.
    pub(super) fn conflicts(&self, alert: &Alert) -> bool {
        self.0.iter().any(|(&var, state)| match alert.fingerprint.seqnos(var) {
            Some(seqnos) => state.conflicts(seqnos),
            None => true,
        })
    }

    pub(super) fn record(&mut self, alert: &Alert) {
        for (&var, state) in self.0.iter_mut() {
            if let Some(seqnos) = alert.fingerprint.seqnos(var) {
                state.record(seqnos);
            }
        }
    }

    pub(super) fn clear(&mut self) {
        self.0.values_mut().for_each(W::clear);
    }
}

impl PerVar<VarConsistency> {
    /// `[[var,{"received":…,"missed":…}], …]`, in variable order.
    pub(super) fn to_json(&self) -> Json {
        per_var_to_json(&self.0, VarConsistency::to_json)
    }

    pub(super) fn from_json(j: &Json) -> rcm_json::Result<Self> {
        per_var_from_json(j, VarConsistency::from_json).map(PerVar)
    }
}

/// Algorithm AD-3: guarantees **consistency** in all single-variable
/// systems by refusing to display two alerts that require some update
/// to be in a conflicting received/missed state.
///
/// For every displayed alert the filter records, per variable, the
/// history's seqnos in a `Received` set and the gaps of the history's
/// span in a `Missed` set; an arriving alert whose history contains a
/// `Missed` seqno, or whose span-gaps contain a `Received` seqno, is
/// discarded (`Conflicts` in Fig. A-3), as is an alert lacking a
/// variable. The `Received` set is itself the witness `U' ⊑ U1 ⊔ U2`
/// of the consistency definition — the proof of Theorem 7 shows
/// `ΦA ⊆ ΦT(Received)` and that AD-3 is **maximally consistent**.
///
/// Exact duplicates are also removed. The paper's Fig. A-3 pseudo-code
/// leaves the duplicate test implicit, but Theorem 8 (`AD-1 > AD-3`,
/// "AD-3 filters out at least all the alerts filtered by AD-1")
/// requires it, so this implementation includes it.
///
/// Over several variables ("AD-3/multi") it is AD-6 with its AD-5 half
/// removed, an ablation: it keeps each variable consistent on its own
/// but not the set. Theorem 10's `a(2x,1y)` and `a(1x,2y)` have no
/// per-variable conflict, yet no arrival order triggers both (the first
/// needs `2x` before `2y`, the second `2y` before `2x`); the proof of
/// Lemma 5 shows it is the orderedness of AD-5's output that excludes
/// such interleaving cycles.
///
/// The bookkeeping strategy is pluggable: `Ad3` defaults to the
/// interval-backed [`VarConsistency`]; `Ad3::<BTreeConsistency>::with_state`
/// builds the reference variant.
#[derive(Debug, Clone)]
pub struct Ad3<W = VarConsistency> {
    consistency: PerVar<W>,
    seen: HashSet<Alert>,
}

impl Ad3 {
    /// Creates the filter for the condition's variable set.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or contains duplicates.
    pub fn new(vars: impl IntoIterator<Item = VarId>) -> Self {
        Self::with_state(vars)
    }

    /// The filter's state as a checkpoint:
    /// `{"consistency":[[var,{"received":…,"missed":…}], …],"seen":[alert, …]}`.
    pub fn to_json(&self) -> Json {
        obj([("consistency", self.consistency.to_json()), ("seen", alerts_to_json(&self.seen))])
    }

    /// Restores a filter from [`Ad3::to_json`]'s output, `Received` and
    /// `Missed` included: the restored filter still refuses what the
    /// original promised the user it never would show.
    ///
    /// # Errors
    ///
    /// A document of any other shape, an empty variable set or a
    /// variable listed twice.
    pub fn from_json(j: &Json) -> rcm_json::Result<Self> {
        Ok(Ad3 {
            consistency: PerVar::from_json(j.field("consistency")?)?,
            seen: alerts_from_json(j.field("seen")?)?,
        })
    }
}

impl<W: ConsistencyState> Ad3<W> {
    /// Creates the filter with an explicit bookkeeping strategy, e.g.
    /// `Ad3::<BTreeConsistency>::with_state([x])` for the reference.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or contains duplicates.
    pub fn with_state(vars: impl IntoIterator<Item = VarId>) -> Self {
        Ad3 { consistency: PerVar::new(vars), seen: HashSet::new() }
    }

    /// The committed `Received` set of `var`: the witness `U'` for
    /// consistency, as ascending seqnos (none for a variable the filter
    /// does not watch).
    pub fn received(&self, var: VarId) -> impl Iterator<Item = SeqNo> + '_ {
        self.consistency.0.get(&var).into_iter().flat_map(|s| s.received().map(SeqNo::new))
    }
}

impl<W: ConsistencyState> AlertFilter for Ad3<W> {
    fn name(&self) -> &'static str {
        if self.consistency.0.len() == 1 {
            "AD-3"
        } else {
            "AD-3/multi"
        }
    }

    fn offer(&mut self, alert: &Alert) -> Decision {
        if self.seen.contains(alert) {
            return Decision::Discard(DiscardReason::Duplicate);
        }
        if self.consistency.conflicts(alert) {
            return Decision::Discard(DiscardReason::Conflict);
        }
        self.consistency.record(alert);
        self.seen.insert(alert.clone());
        Decision::Deliver
    }

    fn reset(&mut self) {
        self.consistency.clear();
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::testutil::alert1;

    fn x() -> VarId {
        VarId::new(0)
    }
    fn y() -> VarId {
        VarId::new(1)
    }

    fn ad() -> Ad3 {
        Ad3::new([x()])
    }

    #[test]
    fn example_3_conflict() {
        // a1 with H = ⟨3x, 1x⟩ displays; records Received {1,3}, Missed {2}.
        // a2 with H = ⟨3x, 2x⟩ would need 2 received → conflict.
        let mut f = ad();
        assert!(f.offer(&alert1(&[3, 1])).is_deliver());
        assert_eq!(f.offer(&alert1(&[3, 2])), Decision::Discard(DiscardReason::Conflict));
    }

    #[test]
    fn reverse_arrival_order_keeps_first() {
        // Symmetric to Example 3: whichever alert arrives first wins.
        let mut f = ad();
        assert!(f.offer(&alert1(&[3, 2])).is_deliver());
        assert!(!f.offer(&alert1(&[3, 1])).is_deliver());
    }

    #[test]
    fn gap_conflicts_with_received() {
        // First alert says 2 was received; second's history {1,3} implies
        // 2 was missed → conflict.
        let mut f = ad();
        assert!(f.offer(&alert1(&[2, 1])).is_deliver());
        assert!(!f.offer(&alert1(&[3, 1])).is_deliver());
    }

    #[test]
    fn non_overlapping_histories_pass() {
        let mut f = ad();
        assert!(f.offer(&alert1(&[2, 1])).is_deliver());
        assert!(f.offer(&alert1(&[4, 3])).is_deliver());
        // Out-of-order arrivals also pass: AD-3 does not enforce order.
        assert!(f.offer(&alert1(&[3, 2])).is_deliver());
    }

    #[test]
    fn exact_duplicates_removed() {
        let mut f = ad();
        assert!(f.offer(&alert1(&[3, 1])).is_deliver());
        assert_eq!(f.offer(&alert1(&[3, 1])), Decision::Discard(DiscardReason::Duplicate));
    }

    #[test]
    fn received_witness_accumulates() {
        let mut f = ad();
        f.offer(&alert1(&[3, 1]));
        f.offer(&alert1(&[5, 4]));
        let w: Vec<u64> = f.received(x()).map(|s| s.get()).collect();
        assert_eq!(w, vec![1, 3, 4, 5]);
        assert_eq!(f.received(y()).count(), 0, "a variable the filter does not watch");
    }

    #[test]
    fn missing_variable_conflicts() {
        let mut f = Ad3::new([VarId::new(9)]);
        assert_eq!(f.offer(&alert1(&[1])), Decision::Discard(DiscardReason::Conflict));
    }

    #[test]
    fn reset_clears_sets() {
        let mut f = ad();
        f.offer(&alert1(&[3, 1]));
        f.reset();
        assert!(f.offer(&alert1(&[3, 2])).is_deliver());
    }

    #[test]
    fn degree_one_histories_never_conflict() {
        // Non-historical conditions: singleton histories have no gaps, so
        // AD-3 passes everything except duplicates (consistent with
        // Theorem 2's systems remaining complete under AD-3's Table-1'
        // variant).
        let mut f = ad();
        for s in [2u64, 1, 3, 1] {
            let d = f.offer(&alert1(&[s]));
            if s == 1 && !d.is_deliver() {
                // second ⟨1⟩ is an exact duplicate
                assert_eq!(d, Decision::Discard(DiscardReason::Duplicate));
            }
        }
    }

    #[test]
    fn reference_variant_agrees_on_the_paper_examples() {
        let mut fast = ad();
        let mut reference = Ad3::<BTreeConsistency>::with_state([x()]);
        for h in [&[3u64, 1][..], &[3, 2], &[2, 1], &[4, 3], &[3, 1], &[7, 4]] {
            let a = alert1(h);
            assert_eq!(fast.offer(&a), reference.offer(&a), "history {h:?}");
        }
        let f: Vec<u64> = fast.received(x()).map(|s| s.get()).collect();
        let r: Vec<u64> = reference.received(x()).map(|s| s.get()).collect();
        assert_eq!(f, r);
    }

    #[test]
    fn interval_state_memory_tracks_gaps_not_stream_length() {
        // A long gap-free stream must collapse to a single received run.
        let mut f = ad();
        for s in 1..=100u64 {
            f.offer(&alert1(&[s + 1, s]));
        }
        assert_eq!(f.consistency.0[&x()].num_runs(), (1, 0));
    }
}
