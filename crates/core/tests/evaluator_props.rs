//! Seeded property tests of the Condition Evaluator (`T`) — including
//! mechanized versions of the paper's Lemma 3 and Corollary 2.

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::{cond, Cmp};
use rcm_core::seq::{is_ordered, project_alerts};
use rcm_core::{transduce, CeId, Condition, ConditionExt, Update, VarId};
use rcm_net::{cases, Rng};
use rcm_props::merge_all_single;

fn x() -> VarId {
    VarId::new(0)
}

/// Builds an in-order lossy update stream: `values[i]` is the value of
/// seqno `i + 1`, `mask[i]` whether the replica received it.
fn stream(values: &[f64], mask: &[bool]) -> Vec<Update> {
    values
        .iter()
        .enumerate()
        .zip(mask.iter().cycle())
        .filter(|(_, &keep)| keep)
        .map(|((i, &v), _)| Update::new(x(), i as u64 + 1, v))
        .collect()
}

/// A loss mask of `1..=size` entries (one at size 0).
fn mask(rng: &mut Rng, size: usize) -> Vec<bool> {
    (0..1 + rng.below(size.max(1))).map(|_| rng.below(2) == 1).collect()
}

/// `0..=size` values in `[0, hi)` and a [`mask`] to cycle over them.
fn draw(rng: &mut Rng, size: usize, hi: f64) -> (Vec<f64>, Vec<bool>) {
    let values = (0..rng.below(size + 1)).map(|_| rng.next_f64() * hi).collect();
    (values, mask(rng, size))
}

#[test]
fn t_is_deterministic() {
    cases("t_is_deterministic", 256, 29, |rng, size| {
        let (values, mask) = draw(rng, size, 100.0);
        let u = stream(&values, &mask);
        let c2 = cond::delta_rise(x(), 10.0);
        assert_eq!(transduce(&c2, CeId::new(0), &u), transduce(&c2, CeId::new(1), &u));
    });
}

#[test]
fn t_of_an_ordered_input_is_ordered() {
    cases("t_of_an_ordered_input_is_ordered", 256, 29, |rng, size| {
        // Used implicitly throughout the paper's proofs: alerts are
        // given out in seqno order by a single CE.
        let (values, mask) = draw(rng, size, 100.0);
        let u = stream(&values, &mask);
        for cond in conditions() {
            let alerts = transduce(&cond, CeId::new(0), &u);
            let proj = project_alerts(&alerts, x());
            assert!(is_ordered(&proj), "{}", cond.name());
        }
    });
}

#[test]
fn fingerprints_are_full_degree_and_head_matches() {
    cases("fingerprints_are_full_degree_and_head_matches", 256, 29, |rng, size| {
        let (values, mask) = draw(rng, size, 100.0);
        let u = stream(&values, &mask);
        for cond in conditions() {
            let degree = cond.degree(x());
            for alert in transduce(&cond, CeId::new(0), &u) {
                let seqnos = alert.fingerprint.seqnos(x()).expect("single var");
                assert_eq!(seqnos.len(), degree, "{}", cond.name());
                // a.seqno.x is the newest history entry.
                assert_eq!(alert.seqno(x()), seqnos.first().copied());
            }
        }
    });
}

#[test]
fn conservative_alerts_always_have_consecutive_histories() {
    cases("conservative_alerts_always_have_consecutive_histories", 256, 29, |rng, size| {
        let (values, mask) = draw(rng, size, 1000.0);
        let u = stream(&values, &mask);
        let c3 = cond::conservative(cond::delta_rise(x(), 10.0));
        for alert in transduce(&c3, CeId::new(0), &u) {
            assert!(alert.fingerprint.is_consecutive());
        }
    });
}

#[test]
fn lemma_3_non_historical_t_commutes_with_union() {
    cases("lemma_3_non_historical_t_commutes_with_union", 256, 24, |rng, size| {
        // Lemma 3 / Corollary 2: for non-historical T,
        // ΦT(U1 ⊔ U2) = ΦT(U1) ∪ ΦT(U2).
        let (values, mask1) = draw(rng, size, 100.0);
        let mask2 = mask(rng, size);
        let c1 = cond::threshold(x(), Cmp::Gt, 50.0);
        let u1 = stream(&values, &mask1);
        let u2 = stream(&values, &mask2);
        let merged = transduce(&c1, CeId::new(0), &merge_all_single(&[u1.clone(), u2.clone()]));
        let a1 = transduce(&c1, CeId::new(1), &u1);
        let a2 = transduce(&c1, CeId::new(2), &u2);
        let lhs: std::collections::HashSet<_> = merged.iter().collect();
        let rhs: std::collections::HashSet<_> = a1.iter().chain(a2.iter()).collect();
        assert_eq!(lhs, rhs);
        // And the sequence-level form: Π of the merged run is the
        // ordered union of the two projections — ordered, and holding
        // exactly their seqnos.
        let pm: Vec<u64> = project_alerts(&merged, x()).iter().map(|s| s.get()).collect();
        let p1: Vec<u64> = project_alerts(&a1, x()).iter().map(|s| s.get()).collect();
        let p2: Vec<u64> = project_alerts(&a2, x()).iter().map(|s| s.get()).collect();
        let union: std::collections::BTreeSet<u64> = p1.into_iter().chain(p2).collect();
        assert_eq!(pm, union.into_iter().collect::<Vec<_>>());
    });
}

/// The paper's Theorem-3 inputs: U1 = ⟨1(1000), 2(1500)⟩ and
/// U2 = ⟨3(2000), 4(2500)⟩, under c3.
fn theorem_3_inputs() -> (CompiledCondition, Vec<Update>, Vec<Update>) {
    let c3 = cond::conservative(cond::delta_rise(x(), 200.0));
    let u1 = vec![Update::new(x(), 1, 1000.0), Update::new(x(), 2, 1500.0)];
    let u2 = vec![Update::new(x(), 3, 2000.0), Update::new(x(), 4, 2500.0)];
    (c3, u1, u2)
}

#[test]
fn t_of_the_union_of_theorem_3s_inputs_alerts_on_2_3_4() {
    let (c3, u1, u2) = theorem_3_inputs();
    let merged = transduce(&c3, CeId::new(0), &merge_all_single(&[u1, u2]));
    // T(⟨1,2,3,4⟩) = ⟨2,3,4⟩: each adjacent rise is 500 > 200.
    let seqs: Vec<u64> = merged.iter().map(|a| a.seqno(x()).unwrap().get()).collect();
    assert_eq!(seqs, vec![2, 3, 4]);
}

#[test]
fn lemma_3_fails_for_historical_conditions_sometimes() {
    // Sanity anchor: the commuting property is specifically
    // non-historical. The paper's Theorem-3 inputs break it for c3.
    let (c3, u1, u2) = theorem_3_inputs();
    let merged = transduce(&c3, CeId::new(0), &merge_all_single(&[u1.clone(), u2.clone()]));
    let separate =
        transduce(&c3, CeId::new(1), &u1).len() + transduce(&c3, CeId::new(2), &u2).len();
    assert!(merged.len() > separate); // alert@3 exists only merged
}

fn conditions() -> Vec<CompiledCondition> {
    vec![
        cond::threshold(x(), Cmp::Gt, 50.0),
        cond::delta_rise(x(), 10.0),
        cond::conservative(cond::delta_rise(x(), 10.0)),
    ]
}

#[test]
fn condition_classifications_are_stable() {
    for cond in conditions() {
        let spec = cond.history_spec();
        assert_eq!(spec.len(), 1);
        assert!(spec[0].1 >= 1);
    }
}
