//! Per-variable update histories maintained by a Condition Evaluator.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::alert::{HistoryFingerprint, Snapshot};
use crate::error::{Error, Result};
use crate::update::{SeqNo, Update};
use crate::var::VarId;

/// The update history `H_x` for one variable: the `N` most recently
/// received updates, where `N` is the history's *degree* (paper §2).
///
/// Index 0 is the most recent update (`H_x[0]`), index `i` the `i`-th
/// most recent (`H_x[-i]` in the paper's notation). The history is
/// *defined* only once `N` updates have been received; conditions are
/// not evaluated before that.
///
/// ```rust
/// use rcm_core::{History, Update, VarId, SeqNo};
/// let x = VarId::new(0);
/// let mut h = History::new(x, 2);
/// h.push(Update::new(x, 5, 100.0)).unwrap();
/// assert!(!h.is_defined());
/// h.push(Update::new(x, 7, 300.0)).unwrap(); // update 6 was lost
/// assert!(h.is_defined());
/// assert_eq!(h.get(0).unwrap().seqno, SeqNo::new(7)); // H[0]
/// assert_eq!(h.get(1).unwrap().seqno, SeqNo::new(5)); // H[-1]
/// assert!(!h.is_consecutive()); // 6 is missing
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct History {
    var: VarId,
    degree: usize,
    /// Front = newest.
    buf: VecDeque<Update>,
}

impl History {
    /// Creates an empty history of the given degree for `var`.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero; every condition needs at least the
    /// current update of each variable it mentions.
    pub fn new(var: VarId, degree: usize) -> Self {
        assert!(degree >= 1, "history degree must be at least 1");
        History { var, degree, buf: VecDeque::with_capacity(degree) }
    }

    /// The variable this history tracks.
    pub fn var(&self) -> VarId {
        self.var
    }

    /// The history's degree `N`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of updates currently held (at most the degree).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no updates have been received yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the history is defined, i.e. `N` updates have been
    /// received.
    pub fn is_defined(&self) -> bool {
        self.buf.len() == self.degree
    }

    /// Incorporates a newly received update.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] if the update is for another
    /// variable, and [`Error::OutOfOrderUpdate`] if its seqno does not
    /// exceed the newest one already held (front links deliver in
    /// order, so this indicates a wiring bug).
    pub fn push(&mut self, update: Update) -> Result<()> {
        if update.var != self.var {
            return Err(Error::UnknownVariable(update.var));
        }
        if let Some(newest) = self.buf.front() {
            if update.seqno <= newest.seqno {
                return Err(Error::OutOfOrderUpdate {
                    var: self.var,
                    got: update.seqno.get(),
                    newest: newest.seqno.get(),
                });
            }
        }
        // Room first: the buffer is allocated for `degree` entries, and
        // pushing into a full one would grow it.
        if self.buf.len() == self.degree {
            self.buf.pop_back();
        }
        self.buf.push_front(update);
        Ok(())
    }

    /// The `i`-th most recent update: `get(0)` is `H[0]`, `get(1)` is
    /// `H[-1]`, and so on. `None` if fewer than `i + 1` updates held.
    pub fn get(&self, i: usize) -> Option<&Update> {
        self.buf.get(i)
    }

    /// Whether the held seqnos are consecutive (no update in the span
    /// was lost). Vacuously true with fewer than two updates.
    pub fn is_consecutive(&self) -> bool {
        self.buf
            .iter()
            .zip(self.buf.iter().skip(1))
            .all(|(newer, older)| older.seqno.precedes(newer.seqno))
    }

    /// Updates newest-first.
    pub fn updates(&self) -> impl Iterator<Item = &Update> {
        self.buf.iter()
    }

    /// Discards all held updates (used when a CE restarts after a
    /// crash: its in-memory history is gone).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H{}⟨", self.var)?;
        for (i, u) in self.buf.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{u}")?;
        }
        write!(f, "⟩")
    }
}

/// The set `H` of update histories a condition is defined on: one
/// [`History`] per variable in the condition's variable set `V`. It is
/// what [`Condition::eval`](crate::Condition::eval), the from-scratch
/// reference, reads; a [`ConditionRegistry`](crate::ConditionRegistry)
/// keeps one shared history per variable instead.
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySet {
    histories: BTreeMap<VarId, History>,
}

impl HistorySet {
    /// Creates a history set from `(variable, degree)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a variable is listed twice or any degree is zero.
    pub fn new(spec: impl IntoIterator<Item = (VarId, usize)>) -> Self {
        let mut histories = BTreeMap::new();
        for (var, degree) in spec {
            let prev = histories.insert(var, History::new(var, degree));
            assert!(prev.is_none(), "variable {var} listed twice in history spec");
        }
        HistorySet { histories }
    }

    /// Incorporates an update into the matching history.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] if no history tracks the
    /// update's variable, or forwards the history's ordering error.
    pub fn push(&mut self, update: Update) -> Result<()> {
        match self.histories.get_mut(&update.var) {
            Some(h) => h.push(update),
            None => Err(Error::UnknownVariable(update.var)),
        }
    }

    /// The history for `var`, if tracked.
    pub fn history(&self, var: VarId) -> Option<&History> {
        self.histories.get(&var)
    }

    /// Whether every history is defined (the CE may evaluate the
    /// condition only then).
    pub fn is_defined(&self) -> bool {
        self.histories.values().all(History::is_defined)
    }

    /// Whether every history's seqnos are consecutive.
    #[cfg(test)]
    pub(crate) fn is_consecutive(&self) -> bool {
        self.histories.values().all(History::is_consecutive)
    }

    /// Convenience accessor: the value of `H_var[-i]`, i.e. `get(i)` on
    /// the variable's history. `None` when out of range or untracked.
    pub fn value(&self, var: VarId, i: usize) -> Option<f64> {
        self.histories.get(&var)?.get(i).map(|u| u.value)
    }

    /// Convenience accessor: the seqno of `H_var[-i]`.
    pub fn seqno(&self, var: VarId, i: usize) -> Option<SeqNo> {
        self.histories.get(&var)?.get(i).map(|u| u.seqno)
    }

    /// Builds the alert fingerprint for the current histories.
    ///
    /// # Panics
    ///
    /// Panics if some history is not yet defined — a condition raises
    /// alerts only on defined history sets.
    pub fn fingerprint(&self) -> HistoryFingerprint {
        assert!(self.is_defined(), "fingerprint of an undefined history set");
        let words = self.histories.values().map(|h| 1 + h.len()).sum();
        HistoryFingerprint::from_histories(
            words,
            self.histories.iter().map(|(&v, h)| (v, h.updates().map(|u| u.seqno))),
        )
    }

    /// Flat snapshot of all held updates, per variable newest-first,
    /// in the form an [`Alert`](crate::Alert) carries.
    pub fn snapshot(&self) -> Snapshot {
        let len = self.histories.values().map(History::len).sum();
        Snapshot::gather(len, self.histories.values().flat_map(History::updates).map(|u| u.value))
    }

    /// Clears every history (CE restart).
    pub fn clear(&mut self) {
        for h in self.histories.values_mut() {
            h.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> VarId {
        VarId::new(0)
    }
    fn y() -> VarId {
        VarId::new(1)
    }

    #[test]
    fn ring_keeps_newest_n() {
        let mut h = History::new(x(), 2);
        for s in 1..=5u64 {
            h.push(Update::new(x(), s, s as f64)).unwrap();
        }
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(0).unwrap().seqno, SeqNo::new(5));
        assert_eq!(h.get(1).unwrap().seqno, SeqNo::new(4));
        assert_eq!(h.get(2), None);
    }

    #[test]
    fn undefined_until_degree_updates() {
        let mut h = History::new(x(), 3);
        h.push(Update::new(x(), 1, 0.0)).unwrap();
        h.push(Update::new(x(), 2, 0.0)).unwrap();
        assert!(!h.is_defined());
        h.push(Update::new(x(), 3, 0.0)).unwrap();
        assert!(h.is_defined());
    }

    #[test]
    fn paper_loss_example_indices() {
        // §2: 5x received, 6x lost, 7x received → H[0]=7x, H[-1]=5x.
        let mut h = History::new(x(), 2);
        h.push(Update::new(x(), 5, 0.0)).unwrap();
        h.push(Update::new(x(), 7, 0.0)).unwrap();
        assert_eq!(h.get(0).unwrap().seqno, SeqNo::new(7));
        assert_eq!(h.get(1).unwrap().seqno, SeqNo::new(5));
        assert!(!h.is_consecutive());
    }

    #[test]
    fn rejects_wrong_variable_and_stale_seqno() {
        let mut h = History::new(x(), 2);
        assert!(matches!(h.push(Update::new(y(), 1, 0.0)), Err(Error::UnknownVariable(_))));
        h.push(Update::new(x(), 4, 0.0)).unwrap();
        assert!(matches!(
            h.push(Update::new(x(), 4, 0.0)),
            Err(Error::OutOfOrderUpdate { got: 4, newest: 4, .. })
        ));
        assert!(matches!(h.push(Update::new(x(), 2, 0.0)), Err(Error::OutOfOrderUpdate { .. })));
    }

    #[test]
    #[should_panic(expected = "degree must be at least 1")]
    fn zero_degree_panics() {
        History::new(x(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut h = History::new(x(), 1);
        h.push(Update::new(x(), 1, 0.0)).unwrap();
        h.clear();
        assert!(h.is_empty());
        // After a restart the DM's stream continues; any seqno is fine.
        h.push(Update::new(x(), 1, 0.0)).unwrap();
        assert!(h.is_defined());
    }

    #[test]
    fn set_routes_and_fingerprints() {
        let mut hs = HistorySet::new([(x(), 2), (y(), 1)]);
        hs.push(Update::new(x(), 1, 10.0)).unwrap();
        hs.push(Update::new(y(), 1, 20.0)).unwrap();
        assert!(!hs.is_defined());
        hs.push(Update::new(x(), 2, 11.0)).unwrap();
        assert!(hs.is_defined());
        let fp = hs.fingerprint();
        assert_eq!(fp.seqnos(x()).unwrap(), &[SeqNo::new(2), SeqNo::new(1)]);
        assert_eq!(fp.seqnos(y()).unwrap(), &[SeqNo::new(1)]);
        assert_eq!(hs.value(x(), 0), Some(11.0));
        assert_eq!(hs.value(x(), 1), Some(10.0));
        assert_eq!(hs.seqno(y(), 0), Some(SeqNo::new(1)));
        assert_eq!(hs.value(VarId::new(9), 0), None);
    }

    #[test]
    fn set_rejects_untracked_variable() {
        let mut hs = HistorySet::new([(x(), 1)]);
        assert!(matches!(hs.push(Update::new(y(), 1, 0.0)), Err(Error::UnknownVariable(_))));
    }

    #[test]
    fn set_consecutiveness_covers_all_vars() {
        let mut hs = HistorySet::new([(x(), 2), (y(), 2)]);
        hs.push(Update::new(x(), 1, 0.0)).unwrap();
        hs.push(Update::new(x(), 2, 0.0)).unwrap();
        hs.push(Update::new(y(), 1, 0.0)).unwrap();
        hs.push(Update::new(y(), 3, 0.0)).unwrap();
        assert!(!hs.is_consecutive()); // y has a gap
    }

    #[test]
    #[should_panic(expected = "undefined history set")]
    fn fingerprint_requires_defined() {
        let hs = HistorySet::new([(x(), 1)]);
        let _ = hs.fingerprint();
    }

    #[test]
    fn display_shows_updates() {
        let mut h = History::new(x(), 2);
        h.push(Update::new(x(), 1, 5.0)).unwrap();
        h.push(Update::new(x(), 2, 6.0)).unwrap();
        assert_eq!(h.to_string(), "Hv0⟨2v0(6), 1v0(5)⟩");
    }
}
