//! The paper's §3.1 summary claim, as a checkable predicate:
//!
//! > "an ordered and complete replicated system displays exactly the
//! > same alerts as its corresponding non-replicated system, and in
//! > the same order."
//!
//! [`check_equivalent_single`] decides *sequence-level* equality with
//! the corresponding non-replicated system `N` (a single CE fed
//! `U1 ⊔ U2`, no filtering) and the tests establish the summary's
//! equivalence: ordered ∧ complete ⟺ display-equivalent, for
//! duplicate-free displays.

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::{transduce, Alert, CeId, Update};

use crate::util::{merge_all_single, Replay};

/// Outcome of a display-equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceReport {
    /// Whether the displayed sequence equals `T(U1 ⊔ U2)` element for
    /// element, in order.
    pub ok: bool,
    /// First position where the sequences diverge.
    pub first_divergence: Option<usize>,
    /// Length of the reference sequence.
    pub reference_len: usize,
}

/// Checks whether `displayed` is *exactly* what the corresponding
/// non-replicated system would display: same alerts, same order.
///
/// # Panics
///
/// Panics if the inputs span more than one variable.
pub fn check_equivalent_single(
    cond: &CompiledCondition,
    inputs: &[Vec<Update>],
    displayed: &[Alert],
) -> EquivalenceReport {
    let merged = merge_all_single(inputs);
    let reference = transduce(cond, CeId::new(u32::MAX), &merged);
    let first_divergence =
        reference.iter().zip(displayed.iter()).position(|(a, b)| a != b).or_else(|| {
            if reference.len() != displayed.len() {
                Some(reference.len().min(displayed.len()))
            } else {
                None
            }
        });
    EquivalenceReport {
        ok: first_divergence.is_none(),
        first_divergence,
        reference_len: reference.len(),
    }
}

/// Multi-variable display equivalence (the Appendix C analogue): does
/// some interleaving `U_V` of the per-variable ordered unions satisfy
/// `displayed == T(U_V)` **as a sequence** (same alerts, same order)?
///
/// Like [`check_complete_multi`](crate::check_complete_multi) this
/// enumerates interleavings, capped at
/// [`MULTI_ENUM_CAP`](crate::MULTI_ENUM_CAP) combined updates.
///
/// # Panics
///
/// Panics if the combined update count exceeds the cap.
pub fn check_equivalent_multi(
    cond: &CompiledCondition,
    inputs: &[Vec<Update>],
    displayed: &[Alert],
) -> EquivalenceReport {
    let merged = crate::merge_per_var(inputs);
    let lists: Vec<Vec<Update>> = merged.into_values().collect();
    let total: usize = lists.iter().map(Vec::len).sum();
    assert!(
        total <= crate::MULTI_ENUM_CAP,
        "equivalence enumeration capped at {} combined updates, got {total}",
        crate::MULTI_ENUM_CAP
    );
    let mut best: Option<(usize, usize)> = None; // (divergence pos, ref len)
    let mut found = false;
    let mut replay = Replay::new(cond);
    crate::multi::enumerate_merges(&lists, &mut |candidate| {
        let reference = replay.run(candidate);
        let divergence =
            reference.iter().zip(displayed.iter()).position(|(a, b)| a != b).or_else(|| {
                if reference.len() != displayed.len() {
                    Some(reference.len().min(displayed.len()))
                } else {
                    None
                }
            });
        match divergence {
            None => {
                found = true;
                true // stop: witness interleaving found
            }
            Some(pos) => {
                if best.is_none_or(|(b, _)| pos > b) {
                    best = Some((pos, reference.len()));
                }
                false
            }
        }
    });
    if found {
        EquivalenceReport { ok: true, first_divergence: None, reference_len: displayed.len() }
    } else {
        let (pos, reference_len) = best.unwrap_or((0, 0));
        EquivalenceReport { ok: false, first_divergence: Some(pos), reference_len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximality::duplicate_free;
    use crate::{check_complete_multi, check_ordered};
    use rcm_core::ad::{apply_filter, Ad1};
    use rcm_core::condition::{cond, Cmp};
    use rcm_core::VarId;

    fn x() -> VarId {
        VarId::new(0)
    }

    fn u(s: u64, v: f64) -> Update {
        Update::new(x(), s, v)
    }

    #[test]
    fn lossless_ad1_is_display_equivalent() {
        // Theorem 1 + the §3.1 summary: ordered and complete ⇒ exactly N.
        let c = cond::delta_rise(x(), 5.0);
        let uu: Vec<Update> = (1..=10).map(|s| u(s, (s as f64) * 10.0)).collect();
        let a1 = rcm_core::transduce(&c, CeId::new(1), &uu);
        let a2 = rcm_core::transduce(&c, CeId::new(2), &uu);
        // Interleave the two identical streams pairwise.
        let arrivals: Vec<Alert> =
            a1.iter().zip(a2.iter()).flat_map(|(a, b)| [a.clone(), b.clone()]).collect();
        let shown = apply_filter(&mut Ad1::new(), &arrivals);
        let eq = check_equivalent_single(&c, &[uu.clone(), uu], &shown);
        assert!(eq.ok, "diverged at {:?}", eq.first_divergence);
    }

    #[test]
    fn summary_claim_equivalence_on_random_subsets() {
        // For duplicate-free displayed sequences:
        //   ordered ∧ complete ⟺ display-equivalent.
        let c = cond::threshold(x(), Cmp::Gt, 50.0);
        let mut rng = rcm_net::Rng::seed_from_u64(99);
        for _ in 0..200 {
            let uu: Vec<Update> = (1..=8).map(|s| u(s, rng.next_f64() * 100.0)).collect();
            let keep1: Vec<Update> = uu.iter().filter(|_| rng.next_f64() < 0.8).copied().collect();
            let keep2: Vec<Update> = uu.iter().filter(|_| rng.next_f64() < 0.8).copied().collect();
            let mut alerts: Vec<Alert> = rcm_core::transduce(&c, CeId::new(1), &keep1)
                .into_iter()
                .chain(rcm_core::transduce(&c, CeId::new(2), &keep2))
                .collect();
            // Random permutation as a hypothetical display order.
            for i in (1..alerts.len()).rev() {
                let j = (rng.next_f64() * (i + 1) as f64) as usize;
                alerts.swap(i, j);
            }
            let displayed = apply_filter(&mut Ad1::new(), &alerts);
            assert!(duplicate_free(&displayed));
            let inputs = vec![keep1, keep2];
            let lhs = check_ordered(&displayed, &[x()]).ok
                && check_complete_multi(&c, &inputs, &displayed).ok;
            let rhs = check_equivalent_single(&c, &inputs, &displayed).ok;
            assert_eq!(lhs, rhs, "summary claim violated for {displayed:?}");
        }
    }

    #[test]
    fn divergence_position_reported() {
        let c = cond::threshold(x(), Cmp::Gt, 0.0);
        let uu = vec![u(1, 1.0), u(2, 1.0)];
        let alerts = rcm_core::transduce(&c, CeId::new(1), &uu);
        // Reversed order: diverges at position 0.
        let reversed: Vec<Alert> = alerts.iter().rev().cloned().collect();
        let eq = check_equivalent_single(&c, std::slice::from_ref(&uu), &reversed);
        assert!(!eq.ok);
        assert_eq!(eq.first_divergence, Some(0));
        // Truncated: diverges at the missing tail.
        let eq = check_equivalent_single(&c, &[uu], &alerts[..1]);
        assert!(!eq.ok);
        assert_eq!(eq.first_divergence, Some(1));
        assert_eq!(eq.reference_len, 2);
    }

    #[test]
    fn empty_against_empty_is_equivalent() {
        let c = cond::threshold(x(), Cmp::Gt, 0.0);
        assert!(check_equivalent_single(&c, &[vec![]], &[]).ok);
    }

    #[test]
    fn multi_var_equivalence_on_theorem_10_traces() {
        use rcm_core::condition::cond;
        let y = rcm_core::VarId::new(1);
        let cm = cond::abs_difference(x(), y, 100.0);
        let ux = |s, v| Update::new(x(), s, v);
        let uy = |s, v| Update::new(y, s, v);
        let u1 = vec![ux(1, 1000.0), ux(2, 1200.0), uy(1, 1050.0), uy(2, 1150.0)];
        let u2 = vec![uy(1, 1050.0), uy(2, 1150.0), ux(1, 1000.0), ux(2, 1200.0)];
        let a1 = rcm_core::transduce(&cm, CeId::new(1), &u1);
        let a2 = rcm_core::transduce(&cm, CeId::new(2), &u2);
        // Each replica's own output matches its own interleaving of the
        // unions exactly (equivalent)…
        assert!(check_equivalent_multi(&cm, &[u1.clone(), u2.clone()], &a1).ok);
        assert!(check_equivalent_multi(&cm, &[u1.clone(), u2.clone()], &a2).ok);
        // …but the merged pair matches no interleaving (Theorem 10).
        let both: Vec<Alert> = a1.iter().chain(a2.iter()).cloned().collect();
        let eq = check_equivalent_multi(&cm, &[u1, u2], &both);
        assert!(!eq.ok);
        assert!(eq.first_divergence.is_some());
    }

    #[test]
    fn multi_var_equivalence_empty_case() {
        use rcm_core::condition::cond;
        let y = rcm_core::VarId::new(1);
        let cm = cond::abs_difference(x(), y, 1e12); // never satisfied
        let u = vec![Update::new(x(), 1, 1.0), Update::new(y, 1, 2.0)];
        assert!(check_equivalent_multi(&cm, &[u], &[]).ok);
    }
}
