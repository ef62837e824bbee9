//! The completeness checker for single-variable systems. Consistency
//! has one checker for any variable count,
//! [`check_consistent_multi`](crate::check_consistent_multi).

use std::collections::HashSet;

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::{transduce, Alert, CeId, Update};

use crate::util::{merge_all_single, CompleteReport};

/// Checks the paper's **completeness** property for a single-variable
/// system: `ΦA = ΦT(U1 ⊔ U2 ⊔ …)` where `inputs[i]` is the update
/// sequence received by replica `i` and `displayed` is the final alert
/// sequence `A`.
///
/// The reference alert set is computed by running a fresh Condition
/// Evaluator (the paper's corresponding non-replicated system `N`) over
/// the ordered union of all replica inputs.
///
/// # Panics
///
/// Panics if the inputs span more than one variable; use
/// [`check_complete_multi`](crate::check_complete_multi) for
/// multi-variable conditions.
pub fn check_complete_single(
    cond: &CompiledCondition,
    inputs: &[Vec<Update>],
    displayed: &[Alert],
) -> CompleteReport {
    let merged = merge_all_single(inputs);
    let expected = transduce(cond, CeId::new(u32::MAX), &merged);
    let expected_set: HashSet<&Alert> = expected.iter().collect();
    let displayed_set: HashSet<&Alert> = displayed.iter().collect();
    let missing = expected.iter().filter(|a| !displayed_set.contains(*a)).cloned().collect();
    let extraneous = displayed.iter().filter(|a| !expected_set.contains(*a)).cloned().collect();
    CompleteReport::from_sets(missing, extraneous)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_consistent_multi;
    use rcm_core::ad::{apply_filter, Ad1, AlertFilter};
    use rcm_core::condition::{cond, Cmp};
    use rcm_core::{SeqNo, VarId};

    fn x() -> VarId {
        VarId::new(0)
    }

    fn u(s: u64, v: f64) -> Update {
        Update::new(x(), s, v)
    }

    /// Runs both replicas and merges their alert streams in the given
    /// arrival order (indices into the concatenation CE1-then-CE2).
    fn run(
        cond: &CompiledCondition,
        u1: &[Update],
        u2: &[Update],
        filter: &mut dyn AlertFilter,
        arrival: &[usize],
    ) -> Vec<Alert> {
        let a1 = transduce(cond, CeId::new(1), u1);
        let a2 = transduce(cond, CeId::new(2), u2);
        let all: Vec<&Alert> = a1.iter().chain(a2.iter()).collect();
        let arrivals: Vec<Alert> = arrival.iter().map(|&i| all[i].clone()).collect();
        apply_filter(filter, &arrivals)
    }

    #[test]
    fn theorem_2_complete_but_unordered() {
        // Non-historical c1, lossy links: complete under AD-1.
        let c1 = cond::threshold(x(), Cmp::Gt, 3000.0);
        let u1 = vec![u(1, 3100.0), u(2, 3500.0)];
        let u2 = vec![u(2, 3500.0)];
        // CE1 produces alerts on 1,2; CE2 on 2. Arrival: CE2's first.
        let a = run(&c1, &u1, &u2, &mut Ad1::new(), &[2, 0, 1]);
        let comp = check_complete_single(&c1, &[u1, u2], &a);
        assert!(comp.ok, "missing={:?} extra={:?}", comp.missing, comp.extraneous);
    }

    #[test]
    fn theorem_3_consistent_but_incomplete() {
        // c3 conservative: U1 = ⟨1(1000),2(1500)⟩, U2 = ⟨3(2000),4(2500)⟩.
        let c3 = cond::conservative(cond::delta_rise(x(), 200.0));
        let u1 = vec![u(1, 1000.0), u(2, 1500.0)];
        let u2 = vec![u(3, 2000.0), u(4, 2500.0)];
        let a = run(&c3, &u1, &u2, &mut Ad1::new(), &[0, 1]);
        // A = ⟨alert@2, alert@4⟩; T(U1⊔U2) = ⟨2,3,4⟩ → incomplete.
        let comp = check_complete_single(&c3, &[u1.clone(), u2.clone()], &a);
        assert!(!comp.ok);
        assert_eq!(comp.missing.len(), 1);
        assert_eq!(comp.missing[0].seqno(x()), Some(SeqNo::new(3)));
        // …but consistent (Theorem 3).
        let cons = check_consistent_multi(&c3, &[u1, u2], &a);
        assert!(cons.ok, "{:?}", cons.conflict);
    }

    #[test]
    fn theorem_4_inconsistent() {
        // c2 aggressive: U = ⟨1(400),2(700),3(720)⟩; U1 = U, U2 = ⟨1,3⟩.
        let c2 = cond::delta_rise(x(), 200.0);
        let u1 = vec![u(1, 400.0), u(2, 700.0), u(3, 720.0)];
        let u2 = vec![u(1, 400.0), u(3, 720.0)];
        let a = run(&c2, &u1, &u2, &mut Ad1::new(), &[0, 1]);
        assert_eq!(a.len(), 2); // alert@2 from CE1, alert@3 from CE2
        let cons = check_consistent_multi(&c2, &[u1, u2], &a);
        assert!(!cons.ok);
        // Update 2 is the pivot: alert@2 needs it received, alert@3 needs
        // it missed.
        assert!(cons.conflict.unwrap().contains('2'));
    }

    #[test]
    fn lossless_links_are_complete_and_consistent() {
        // Theorem 1 instance.
        let c2 = cond::delta_rise(x(), 200.0);
        let uu = vec![u(1, 400.0), u(2, 700.0), u(3, 1000.0)];
        let a = run(&c2, &uu, &uu, &mut Ad1::new(), &[0, 2, 1, 3]);
        let comp = check_complete_single(&c2, &[uu.clone(), uu.clone()], &a);
        assert!(comp.ok);
        let cons = check_consistent_multi(&c2, &[uu.clone(), uu], &a);
        assert!(cons.ok);
    }

    #[test]
    fn empty_execution_is_consistent_and_complete() {
        let c1 = cond::threshold(x(), Cmp::Gt, 0.0);
        assert!(check_complete_single(&c1, &[vec![], vec![]], &[]).ok);
        assert!(check_consistent_multi(&c1, &[vec![], vec![]], &[]).ok);
    }

    #[test]
    fn witness_is_subsequence_of_union() {
        let c2 = cond::delta_rise(x(), 200.0);
        let u1 = vec![u(1, 400.0), u(2, 700.0)];
        let u2 = vec![u(1, 400.0), u(2, 700.0), u(3, 1000.0)];
        let a = run(&c2, &u1, &u2, &mut Ad1::new(), &[0, 1, 2]);
        let cons = check_consistent_multi(&c2, &[u1.clone(), u2.clone()], &a);
        assert!(cons.ok);
        let witness = cons.witness.unwrap();
        let pool = merge_all_single(&[u1, u2]);
        let pool_seqs: Vec<u64> = pool.iter().map(|w| w.seqno.get()).collect();
        let wit_seqs: Vec<u64> = witness.iter().map(|w| w.seqno.get()).collect();
        assert!(rcm_core::seq::is_subsequence(&wit_seqs, &pool_seqs));
    }

    #[test]
    fn alert_with_unknown_seqno_is_inconsistent() {
        let c1 = cond::threshold(x(), Cmp::Gt, 0.0);
        let ghost = transduce(&c1, CeId::new(0), &[u(9, 1.0)]);
        let cons = check_consistent_multi(&c1, &[vec![u(1, 1.0)]], &ghost);
        assert!(!cons.ok);
        assert!(cons.conflict.unwrap().contains("ever received"));
    }
}
