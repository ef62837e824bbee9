//! Algorithm AD-3: consistency for single-variable systems (paper
//! Fig. A-3).

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use crate::alert::Alert;
use crate::seq::{spanning_gaps, spanning_set, IntervalSet};
use crate::update::SeqNo;
use crate::var::VarId;

use super::{AlertFilter, Decision, DiscardReason};

/// Per-variable received/missed bookkeeping strategy shared by AD-3,
/// AD-4, AD-6 and the [`Ad3Multi`](super::Ad3Multi) ablation.
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
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
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
}

/// The seed's per-seqno `BTreeSet` bookkeeping, kept as an executable
/// reference implementation.
///
/// Every offer rebuilds the history's seqno set and materializes its
/// full spanning set, and both `received` and `missed` grow by one tree
/// node per seqno forever — the costs the interval representation
/// removes. Retained so property tests can check [`VarConsistency`]
/// against it decision-for-decision; not for production use.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
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

/// Algorithm AD-3: guarantees **consistency** in all single-variable
/// systems by refusing to display two alerts that require some update
/// to be in a conflicting received/missed state.
///
/// For every displayed alert the filter records the history's seqnos in
/// a `Received` set and the gaps of the history's span in a `Missed`
/// set; an arriving alert whose history contains a `Missed` seqno, or
/// whose span-gaps contain a `Received` seqno, is discarded
/// (`Conflicts` in Fig. A-3). The `Received` set is itself the witness
/// `U' ⊑ U1 ⊔ U2` of the consistency definition — the proof of
/// Theorem 7 shows `ΦA ⊆ ΦT(Received)` and that AD-3 is **maximally
/// consistent**.
///
/// Exact duplicates are also removed. The paper's Fig. A-3 pseudo-code
/// leaves the duplicate test implicit, but Theorem 8 (`AD-1 > AD-3`,
/// "AD-3 filters out at least all the alerts filtered by AD-1")
/// requires it, so this implementation includes it.
///
/// The bookkeeping strategy is pluggable: `Ad3` defaults to the
/// interval-backed [`VarConsistency`]; `Ad3::<BTreeConsistency>::with_state`
/// builds the reference variant.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Ad3<W = VarConsistency> {
    var: VarId,
    state: W,
    seen: HashSet<Alert>,
}

impl Ad3 {
    /// Creates the filter for the system's single variable.
    pub fn new(var: VarId) -> Self {
        Self::with_state(var)
    }
}

impl<W: ConsistencyState> Ad3<W> {
    /// Creates the filter with an explicit bookkeeping strategy, e.g.
    /// `Ad3::<BTreeConsistency>::with_state(x)` for the reference.
    pub fn with_state(var: VarId) -> Self {
        Ad3 { var, state: W::default(), seen: HashSet::new() }
    }

    /// The committed `Received` set: the witness `U'` for consistency,
    /// as ascending seqnos. Borrows from the filter instead of
    /// materializing a `Vec`, so checkers can poll it per alert for
    /// free.
    pub fn received(&self) -> impl Iterator<Item = SeqNo> + '_ {
        self.state.received().map(SeqNo::new)
    }

    /// Decision without committing state (used by AD-4).
    pub(crate) fn check(&self, alert: &Alert) -> Decision {
        if self.seen.contains(alert) {
            return Decision::Discard(DiscardReason::Duplicate);
        }
        let Some(seqnos) = alert.fingerprint.seqnos(self.var) else {
            return Decision::Discard(DiscardReason::Conflict);
        };
        if self.state.conflicts(seqnos) {
            Decision::Discard(DiscardReason::Conflict)
        } else {
            Decision::Deliver
        }
    }

    /// Records a delivered alert (used by AD-4).
    pub(crate) fn commit(&mut self, alert: &Alert) {
        if let Some(seqnos) = alert.fingerprint.seqnos(self.var) {
            self.state.record(seqnos);
        }
        self.seen.insert(alert.clone());
    }
}

impl<W: ConsistencyState> AlertFilter for Ad3<W> {
    fn name(&self) -> &'static str {
        "AD-3"
    }

    fn offer(&mut self, alert: &Alert) -> Decision {
        let d = self.check(alert);
        if d.is_deliver() {
            self.commit(alert);
        }
        d
    }

    fn reset(&mut self) {
        self.state.clear();
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ad::testutil::alert1;

    fn ad() -> Ad3 {
        Ad3::new(VarId::new(0))
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
        let w: Vec<u64> = f.received().map(|s| s.get()).collect();
        assert_eq!(w, vec![1, 3, 4, 5]);
    }

    #[test]
    fn missing_variable_conflicts() {
        let mut f = Ad3::new(VarId::new(9));
        assert!(!f.offer(&alert1(&[1])).is_deliver());
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
        let mut reference = Ad3::<BTreeConsistency>::with_state(VarId::new(0));
        for h in [&[3u64, 1][..], &[3, 2], &[2, 1], &[4, 3], &[3, 1], &[7, 4]] {
            let a = alert1(h);
            assert_eq!(fast.offer(&a), reference.offer(&a), "history {h:?}");
        }
        let f: Vec<u64> = fast.received().map(|s| s.get()).collect();
        let r: Vec<u64> = reference.received().map(|s| s.get()).collect();
        assert_eq!(f, r);
    }

    #[test]
    fn interval_state_memory_tracks_gaps_not_stream_length() {
        // A long gap-free stream must collapse to a single received run.
        let mut f = ad();
        for s in 1..=100u64 {
            f.offer(&alert1(&[s + 1, s]));
        }
        assert_eq!(f.state.num_runs(), (1, 0));
    }
}
