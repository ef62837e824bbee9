//! Receiver-side enforcement of the front-link contract.

use std::collections::HashMap;

use rcm_core::{DerivedUpdate, SeqNo, Update, VarId};

/// Per-variable seqno high-water mark: admits an update iff its seqno
/// strictly advances its variable's cursor.
///
/// This is the paper's cheap ordered-delivery mechanism ("tag all
/// messages with a sequence number and let the receiver discard
/// messages that arrive out of order") applied at the update level: a
/// UDP socket may reorder or duplicate datagrams, and the gate turns
/// both into *loss* — which the downstream CE already tolerates — so
/// the evaluator still sees a strictly-ordered `U_i` per variable.
///
/// The runtime's crash-recovery path re-exports this type as its
/// `IngestGate`, which only a supervised replica holds: surviving a
/// replica restart and surviving datagram reordering are the same
/// invariant (exactly-once, in-order admission
/// per `(variable, seqno)`), so they share one implementation.
#[derive(Debug, Clone, Default)]
pub struct SeqGate {
    cursor: HashMap<VarId, u64>,
}

impl SeqGate {
    /// A gate that admits any first seqno per variable.
    pub fn new() -> Self {
        SeqGate::default()
    }

    /// Admits `update` iff its seqno advances the variable's cursor;
    /// admission advances the cursor.
    pub fn admit(&mut self, update: &Update) -> bool {
        self.admit_at(update.var, update.seqno)
    }

    /// Admits a derived update on a tier link — identical contract,
    /// keyed on the stream's synthetic variable id. Leaves and
    /// interior CEs share one derived-stream `(var, seqno)` space with
    /// raw front links, so one gate instance can front both kinds.
    pub fn admit_derived(&mut self, derived: &DerivedUpdate) -> bool {
        self.admit_at(derived.var, derived.seqno)
    }

    /// The raw admission primitive both entry points share.
    pub fn admit_at(&mut self, var: VarId, seqno: SeqNo) -> bool {
        let cursor = self.cursor.entry(var).or_insert(0);
        if seqno.get() > *cursor {
            *cursor = seqno.get();
            true
        } else {
            false
        }
    }

    /// The highest admitted seqno for `var`, if any.
    pub fn cursor(&self, var: VarId) -> Option<u64> {
        self.cursor.get(&var).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(var: u32, seqno: u64) -> Update {
        Update::new(VarId::new(var), seqno, 0.0)
    }

    #[test]
    fn reorders_and_duplicates_become_loss() {
        let mut gate = SeqGate::new();
        assert!(gate.admit(&u(0, 1)));
        assert!(gate.admit(&u(0, 3)), "gap is fine — that is loss, not reorder");
        assert!(!gate.admit(&u(0, 2)), "overtaken datagram discarded");
        assert!(!gate.admit(&u(0, 3)), "duplicated datagram discarded");
        assert!(gate.admit(&u(0, 4)));
        assert_eq!(gate.cursor(VarId::new(0)), Some(4));
    }

    #[test]
    fn derived_streams_share_the_admission_contract() {
        use rcm_core::{derived_var, Alert, AlertId, CeId, CondId, HistoryFingerprint};
        let mut gate = SeqGate::new();
        let var = derived_var(0, 2);
        let d = |seqno| DerivedUpdate {
            var,
            seqno: SeqNo::new(seqno),
            verdict: Alert::new(
                CondId::new(0),
                HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(1)]),
                vec![],
                AlertId { ce: CeId::new(0), index: 0 },
            ),
        };
        assert!(gate.admit_derived(&d(1)));
        assert!(!gate.admit_derived(&d(1)), "replica duplicate discarded");
        assert!(gate.admit_derived(&d(2)));
        assert!(!gate.admit_derived(&d(2)), "re-parent replay discarded");
        assert_eq!(gate.cursor(var), Some(2));
    }

    #[test]
    fn variables_are_independent() {
        let mut gate = SeqGate::new();
        assert!(gate.admit(&u(0, 5)));
        assert!(gate.admit(&u(1, 1)), "var 1 starts its own cursor");
        assert!(!gate.admit(&u(1, 1)));
        assert_eq!(gate.cursor(VarId::new(1)), Some(1));
        assert_eq!(gate.cursor(VarId::new(2)), None);
    }
}
