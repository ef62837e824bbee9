//! Seeded cross-validation: the polynomial-time consistency and
//! completeness checkers must agree with the brute-force oracles that
//! literally enumerate the paper's definitions.

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::{cond, Cmp};
use rcm_core::{transduce, Alert, CeId, Update, VarId};
use rcm_net::{cases, Rng};
use rcm_props::brute::{brute_complete_multi, brute_consistent_multi, brute_consistent_single};
use rcm_props::{check_complete_multi, check_consistent_multi};

fn x() -> VarId {
    VarId::new(0)
}
fn y() -> VarId {
    VarId::new(1)
}

/// Merges `left` and `right` into one sequence according to `schedule`:
/// `true` takes the next element of `left`, `false` of `right`, and a
/// side that has run out gives way to the other. What the schedule
/// leaves of either is appended in order.
fn merge_by_schedule(left: &[Update], right: &[Update], schedule: &[bool]) -> Vec<Update> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    for &take_left in schedule {
        if (take_left || j == right.len()) && i < left.len() {
            out.push(left[i]);
            i += 1;
        } else if j < right.len() {
            out.push(right[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

#[test]
fn merge_by_schedule_takes_the_side_the_schedule_names() {
    let (a, c) = (Update::new(x(), 1, 0.0), Update::new(x(), 2, 0.0));
    let (b, d) = (Update::new(y(), 1, 0.0), Update::new(y(), 2, 0.0));
    assert_eq!(merge_by_schedule(&[a, c], &[b, d], &[false, true, true]), vec![b, a, c, d]);
}

#[test]
fn merge_by_schedule_appends_what_the_schedule_leaves() {
    let (a, b) = (Update::new(x(), 1, 0.0), Update::new(y(), 1, 0.0));
    let c = Update::new(x(), 2, 0.0);
    assert_eq!(merge_by_schedule(&[a], &[b], &[]), vec![a, b]);
    assert_eq!(merge_by_schedule(&[a], &[b], &[true]), vec![a, b]);
    assert_eq!(merge_by_schedule(&[], &[], &[true, false]), vec![]);
    // The schedule asks for the right side, which is empty: the left
    // gives way.
    assert_eq!(merge_by_schedule(&[a, c], &[], &[false, false]), vec![a, c]);
}

/// Applies a loss mask to a full update stream (in-order, lossy link).
fn lossy(full: &[Update], mask: &[bool]) -> Vec<Update> {
    full.iter().zip(mask).filter(|(_, &keep)| keep).map(|(u, _)| *u).collect()
}

/// Selects a subsequence of alerts by mask — an arbitrary hypothetical
/// AD output.
fn subset(alerts: &[Alert], mask: &[bool]) -> Vec<Alert> {
    alerts
        .iter()
        .zip(mask.iter().cycle())
        .filter(|(_, &keep)| keep)
        .map(|(a, _)| a.clone())
        .collect()
}

/// Single-variable scenario: full stream of n updates with given
/// values; two replicas with independent loss masks.
fn single_var_updates(values: &[f64]) -> Vec<Update> {
    values.iter().enumerate().map(|(i, &v)| Update::new(x(), i as u64 + 1, v)).collect()
}

fn run_single(
    cond: &CompiledCondition,
    values: &[f64],
    keep1: &[bool],
    keep2: &[bool],
    pick: &[bool],
) -> (Vec<Vec<Update>>, Vec<Alert>) {
    let full = single_var_updates(values);
    let u1 = lossy(&full, keep1);
    let u2 = lossy(&full, keep2);
    let a1 = transduce(cond, CeId::new(1), &u1);
    let a2 = transduce(cond, CeId::new(2), &u2);
    let all: Vec<Alert> = a1.into_iter().chain(a2).collect();
    let displayed = subset(&all, pick);
    (vec![u1, u2], displayed)
}

/// `lo..=lo + size` values in `[0, hi)`.
fn values(rng: &mut Rng, lo: usize, size: usize, hi: f64) -> Vec<f64> {
    (0..lo + rng.below(size + 1)).map(|_| rng.next_f64() * hi).collect()
}

/// `len` fair coin flips.
fn flips(rng: &mut Rng, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.below(2) == 1).collect()
}

/// A single-variable case: values, two replicas' keep masks and a pick
/// mask over their alerts.
fn single_case(rng: &mut Rng, lo: usize, size: usize) -> (Vec<f64>, [Vec<bool>; 3]) {
    let values = values(rng, lo, size, 1000.0);
    (values, [flips(rng, 7), flips(rng, 7), flips(rng, 8)])
}

#[test]
fn single_var_consistency_matches_brute_force_c2() {
    cases("single_var_consistency_matches_brute_force_c2", 128, 4, |rng, size| {
        let (values, [keep1, keep2, pick]) = single_case(rng, 2, size);
        let c2 = cond::delta_rise(x(), 200.0);
        let (inputs, displayed) = run_single(&c2, &values, &keep1, &keep2, &pick);
        let fast = check_consistent_multi(&c2, &inputs, &displayed).ok;
        let slow = brute_consistent_single(&c2, &inputs, &displayed);
        assert_eq!(fast, slow, "displayed = {displayed:?}");
    });
}

#[test]
fn single_var_consistency_matches_brute_force_c3() {
    cases("single_var_consistency_matches_brute_force_c3", 128, 4, |rng, size| {
        let (values, [keep1, keep2, pick]) = single_case(rng, 2, size);
        let c3 = cond::conservative(cond::delta_rise(x(), 200.0));
        let (inputs, displayed) = run_single(&c3, &values, &keep1, &keep2, &pick);
        let fast = check_consistent_multi(&c3, &inputs, &displayed).ok;
        let slow = brute_consistent_single(&c3, &inputs, &displayed);
        assert_eq!(fast, slow);
    });
}

#[test]
fn single_var_consistency_matches_brute_force_c1() {
    cases("single_var_consistency_matches_brute_force_c1", 128, 5, |rng, size| {
        let (values, [keep1, keep2, pick]) = single_case(rng, 1, size);
        let c1 = cond::threshold(x(), Cmp::Gt, 500.0);
        let (inputs, displayed) = run_single(&c1, &values, &keep1, &keep2, &pick);
        let fast = check_consistent_multi(&c1, &inputs, &displayed).ok;
        let slow = brute_consistent_single(&c1, &inputs, &displayed);
        assert_eq!(fast, slow);
    });
}

#[test]
fn multi_var_checkers_match_brute_force() {
    cases("multi_var_checkers_match_brute_force", 128, 2, |rng, size| {
        let (xvals, yvals) = (values(rng, 1, size, 400.0), values(rng, 1, size, 400.0));
        let (sched1, sched2, pick) = (flips(rng, 8), flips(rng, 8), flips(rng, 6));
        let cm = cond::abs_difference(x(), y(), 100.0);
        let xs: Vec<Update> =
            xvals.iter().enumerate().map(|(i, &v)| Update::new(x(), i as u64 + 1, v)).collect();
        let ys: Vec<Update> =
            yvals.iter().enumerate().map(|(i, &v)| Update::new(y(), i as u64 + 1, v)).collect();
        // Lossless links, different interleavings per CE (Theorem 10's
        // setting generalized).
        let u1 = merge_by_schedule(&xs, &ys, &sched1);
        let u2 = merge_by_schedule(&xs, &ys, &sched2);
        let a1 = transduce(&cm, CeId::new(1), &u1);
        let a2 = transduce(&cm, CeId::new(2), &u2);
        let all: Vec<Alert> = a1.into_iter().chain(a2).collect();
        let displayed = subset(&all, &pick);
        let inputs = vec![u1, u2];

        let fast = check_consistent_multi(&cm, &inputs, &displayed).ok;
        let slow = brute_consistent_multi(&cm, &inputs, &displayed);
        assert_eq!(fast, slow, "consistency mismatch: displayed = {displayed:?}");

        let fastc = check_complete_multi(&cm, &inputs, &displayed).ok;
        let slowc = brute_complete_multi(&cm, &inputs, &displayed);
        assert_eq!(fastc, slowc, "completeness mismatch: displayed = {displayed:?}");
    });
}

#[test]
fn three_var_checkers_match_brute_force() {
    cases("three_var_checkers_match_brute_force", 128, 1, |rng, size| {
        use rcm_core::condition::cond;
        let z = VarId::new(2);
        let (xvals, yvals, zvals) =
            (values(rng, 1, size, 400.0), values(rng, 1, size, 400.0), values(rng, 1, size, 400.0));
        let (sched1, sched2, pick) = (flips(rng, 9), flips(rng, 9), flips(rng, 6));
        let cm = cond::abs_difference(x(), y(), 100.0) | cond::abs_difference(y(), z, 100.0);
        let mk = |var: VarId, vals: &[f64]| -> Vec<Update> {
            vals.iter().enumerate().map(|(i, &v)| Update::new(var, i as u64 + 1, v)).collect()
        };
        let xs = mk(x(), &xvals);
        let ys = mk(y(), &yvals);
        let zs = mk(z, &zvals);
        // Two CEs with different three-way interleavings (lossless).
        let xy1 = merge_by_schedule(&xs, &ys, &sched1);
        let u1 = merge_by_schedule(&xy1, &zs, &sched2);
        let xy2 = merge_by_schedule(&ys, &xs, &sched2);
        let u2 = merge_by_schedule(&zs, &xy2, &sched1);
        let a1 = transduce(&cm, CeId::new(1), &u1);
        let a2 = transduce(&cm, CeId::new(2), &u2);
        let all: Vec<Alert> = a1.into_iter().chain(a2).collect();
        let displayed = subset(&all, &pick);
        let inputs = vec![u1, u2];

        let fast = check_consistent_multi(&cm, &inputs, &displayed).ok;
        let slow = brute_consistent_multi(&cm, &inputs, &displayed);
        assert_eq!(fast, slow, "3-var consistency mismatch: {displayed:?}");

        let fastc = check_complete_multi(&cm, &inputs, &displayed).ok;
        let slowc = brute_complete_multi(&cm, &inputs, &displayed);
        assert_eq!(fastc, slowc, "3-var completeness mismatch: {displayed:?}");
    });
}

#[test]
fn consistency_witness_always_verifies() {
    cases("consistency_witness_always_verifies", 128, 4, |rng, size| {
        // The AD-3 filter's output must always be consistent (Theorem 7),
        // and the checker's witness must explain it.
        use rcm_core::ad::{apply_filter, Ad3};
        let values = values(rng, 2, size, 1000.0);
        let (keep1, keep2) = (flips(rng, 7), flips(rng, 7));
        let c2 = cond::delta_rise(x(), 200.0);
        let full = single_var_updates(&values);
        let u1 = lossy(&full, &keep1);
        let u2 = lossy(&full, &keep2);
        let a1 = transduce(&c2, CeId::new(1), &u1);
        let a2 = transduce(&c2, CeId::new(2), &u2);
        let arrivals: Vec<Alert> = a1.into_iter().chain(a2).collect();
        let displayed = apply_filter(&mut Ad3::new([x()]), &arrivals);
        let rep = check_consistent_multi(&c2, &[u1, u2], &displayed);
        assert!(rep.ok, "AD-3 output inconsistent: {:?}", rep.conflict);
        assert!(rep.witness.is_some());
    });
}
