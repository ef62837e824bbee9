//! Empirical probe for the maximality theorems (5, 7 and 9).
//!
//! AD-2 is *maximally ordered*: no filter that guarantees orderedness
//! passes strictly more alerts. The paper proves this by contradiction:
//! any filter whose output strictly contains AD-2's must, at the first
//! extra alert, have displayed something AD-2 dropped — and displaying
//! that alert on top of AD-2's output breaks orderedness. (The same
//! structure proves Theorems 7 and 9 for AD-3 and AD-4.)
//!
//! [`probe_one_extra`] replays that argument on concrete traces: for
//! every alert the filter discards, it forms the hypothetical output of
//! a dominating filter that additionally displays it (the filter's
//! deliveries with the discarded alert spliced in at its arrival
//! position) and checks the property on the result. Maximality predicts
//! **every** such mutant violates the property — orderedness and
//! consistency violations are preserved under supersequences, so a
//! violating splice condemns all dominating filters that pass that
//! alert.

use std::collections::HashSet;

use rcm_core::ad::AlertFilter;
use rcm_core::Alert;

/// Whether no two displayed alerts are identical (same condition and
/// histories).
///
/// The paper's framework takes duplicate elimination as the baseline
/// duty of every AD (Algorithm AD-1 *is* duplicate removal, and
/// Theorems 6/8 presuppose AD-2/AD-3 drop at least what AD-1 drops),
/// so the maximality theorems are about duplicate-free filters:
/// splicing an exact duplicate back into an output never breaks
/// orderedness or consistency, but it does break this predicate. Probe
/// properties should therefore be conjoined with `duplicate_free`.
pub fn duplicate_free(alerts: &[Alert]) -> bool {
    let mut seen: HashSet<&Alert> = HashSet::with_capacity(alerts.len());
    alerts.iter().all(|a| seen.insert(a))
}

/// Whether no two displayed alerts share all their `a.seqno.x` values.
///
/// The paper's orderedness proofs represent each alert by its sequence
/// number(s) (footnote 1: "each update/alert is represented by its
/// sequence number"), so at that abstraction two alerts with equal
/// seqnos in every variable *are* duplicates even when their deeper
/// histories differ — which is exactly what AD-2/AD-5 discard on
/// equality. Probes of the orderedness-maximality theorems (5 and 9)
/// should conjoin this predicate.
pub fn seqno_duplicate_free(alerts: &[Alert], vars: &[rcm_core::VarId]) -> bool {
    let mut seen: HashSet<Vec<u64>> = HashSet::with_capacity(alerts.len());
    alerts.iter().all(|a| {
        let heads: Vec<u64> =
            vars.iter().map(|&v| a.seqno(v).map_or(u64::MAX, |s| s.get())).collect();
        seen.insert(heads)
    })
}

/// Outcome of a one-extra-alert maximality probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReport {
    /// How many discarded alerts were probed.
    pub probed: usize,
    /// How many spliced outputs violated the property (maximality
    /// predicts `violations == probed`).
    pub violations: usize,
    /// Arrival positions whose splice *kept* the property — evidence
    /// against maximality of the filter/property pair.
    pub survivors: Vec<usize>,
}

/// Probes maximality of `filter` with respect to the property decided
/// by `property_holds`, on one arrival sequence.
///
/// `property_holds` receives a candidate displayed sequence and returns
/// whether the property (orderedness, consistency, …) holds for it.
pub fn probe_one_extra<F: AlertFilter>(
    mut make_filter: impl FnMut() -> F,
    arrivals: &[Alert],
    mut property_holds: impl FnMut(&[Alert]) -> bool,
) -> ProbeReport {
    // Base run: record per-arrival decisions.
    let mut base = make_filter();
    let decisions: Vec<bool> = arrivals.iter().map(|a| base.offer(a).is_deliver()).collect();

    let mut probed = 0;
    let mut violations = 0;
    let mut survivors = Vec::new();
    for (k, delivered) in decisions.iter().enumerate() {
        if *delivered {
            continue;
        }
        probed += 1;
        // Hypothetical dominating output: the base deliveries plus the
        // k-th arrival, in arrival order.
        let spliced: Vec<Alert> = arrivals
            .iter()
            .enumerate()
            .filter(|(i, _)| decisions[*i] || *i == k)
            .map(|(_, a)| a.clone())
            .collect();
        if property_holds(&spliced) {
            survivors.push(k);
        } else {
            violations += 1;
        }
    }
    ProbeReport { probed, violations, survivors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_consistent_multi, check_ordered};
    use rcm_core::ad::{Ad1, Ad2, Ad3, Ad4};
    use rcm_core::condition::cond;
    use rcm_core::condition::expr::CompiledCondition;
    use rcm_core::{transduce, CeId, Update, VarId};

    fn x() -> VarId {
        VarId::new(0)
    }

    fn u(s: u64, v: f64) -> Update {
        Update::new(x(), s, v)
    }

    /// Theorem 4's scenario: c2 aggressive, CE2 misses update 2.
    fn conflicting_arrivals() -> (CompiledCondition, Vec<Vec<Update>>, Vec<Alert>) {
        let c2 = cond::delta_rise(x(), 200.0);
        let u1 = vec![u(1, 400.0), u(2, 700.0), u(3, 720.0)];
        let u2 = vec![u(1, 400.0), u(3, 720.0)];
        let a1 = transduce(&c2, CeId::new(1), &u1);
        let a2 = transduce(&c2, CeId::new(2), &u2);
        let arrivals: Vec<Alert> = a2.iter().chain(a1.iter()).cloned().collect();
        (c2, vec![u1, u2], arrivals)
    }

    #[test]
    fn ad2_probe_confirms_theorem_5() {
        let (_, _, arrivals) = conflicting_arrivals();
        let r = probe_one_extra(
            || Ad2::new(x()),
            &arrivals,
            |a| seqno_duplicate_free(a, &[x()]) && check_ordered(a, &[x()]).ok,
        );
        assert!(r.probed > 0);
        assert!(r.survivors.is_empty(), "survivors at {:?}", r.survivors);
    }

    #[test]
    fn ad3_probe_confirms_theorem_7() {
        let (c2, inputs, arrivals) = conflicting_arrivals();
        let r = probe_one_extra(
            || Ad3::new([x()]),
            &arrivals,
            |a| duplicate_free(a) && check_consistent_multi(&c2, &inputs, a).ok,
        );
        assert!(r.probed > 0);
        assert!(r.survivors.is_empty(), "survivors at {:?}", r.survivors);
    }

    #[test]
    fn ad4_probe_confirms_theorem_9() {
        let (c2, inputs, arrivals) = conflicting_arrivals();
        let r = probe_one_extra(
            || Ad4::new(x()),
            &arrivals,
            |a| {
                seqno_duplicate_free(a, &[x()])
                    && check_ordered(a, &[x()]).ok
                    && check_consistent_multi(&c2, &inputs, a).ok
            },
        );
        assert!(r.probed > 0);
        assert!(r.survivors.is_empty(), "survivors at {:?}", r.survivors);
    }

    #[test]
    fn duplicate_free_detects_duplicates() {
        let (_, _, arrivals) = conflicting_arrivals();
        assert!(duplicate_free(&arrivals));
        let doubled: Vec<Alert> = arrivals.iter().chain(arrivals.iter()).cloned().collect();
        assert!(!duplicate_free(&doubled));
        assert!(duplicate_free(&[]));
    }

    #[test]
    fn ad1_is_not_maximally_ordered() {
        // AD-1 only drops duplicates; splicing a duplicate back in does
        // not break orderedness when the stream is monotone — evidence
        // that "maximal" is about the property, not about dropping less.
        let mk = |s: u64| {
            transduce(&cond::delta_rise(x(), -1e18), CeId::new(0), &[u(s - 1, 0.0), u(s, 0.0)])
                .remove(0)
        };
        let a1 = mk(2);
        let arrivals = vec![a1.clone(), a1.clone()];
        let r = probe_one_extra(Ad1::new, &arrivals, |a| check_ordered(a, &[x()]).ok);
        assert_eq!(r.probed, 1);
        assert_eq!(r.survivors, vec![1]); // the duplicate splice stays ordered
    }

    #[test]
    fn no_discards_means_nothing_probed() {
        let (_, _, mut arrivals) = conflicting_arrivals();
        arrivals.truncate(1);
        let r = probe_one_extra(|| Ad2::new(x()), &arrivals, |a| check_ordered(a, &[x()]).ok);
        assert_eq!(r.probed, 0);
        assert!(r.survivors.is_empty());
    }
}
