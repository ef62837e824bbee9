//! Integration tests replaying every counterexample from the paper's
//! proofs (Appendix B), end to end through the public API.

use rcm::core::ad::{apply_filter, Ad1, Ad2, Ad5};
use rcm::core::condition::{cond, Cmp};
use rcm::core::{transduce, Alert, CeId, SeqNo, Update, VarId};
use rcm::props::{check_complete_multi, check_consistent_multi, check_ordered};

fn x() -> VarId {
    VarId::new(0)
}
fn y() -> VarId {
    VarId::new(1)
}

fn u(s: u64, v: f64) -> Update {
    Update::new(x(), s, v)
}

/// Theorem 2's counterexample: non-historical + lossy is complete but
/// not ordered under AD-1.
#[test]
fn theorem_2_unordered_counterexample() {
    let c1 = cond::threshold(x(), Cmp::Gt, 3000.0);
    let u1 = vec![u(1, 3100.0), u(2, 3500.0)];
    let u2 = vec![u(2, 3500.0)];
    let a1 = transduce(&c1, CeId::new(1), &u1);
    let a2 = transduce(&c1, CeId::new(2), &u2);
    // Alert 2 from CE2 arrives before both of CE1's alerts.
    let arrivals: Vec<Alert> = a2.iter().chain(a1.iter()).cloned().collect();
    let shown = apply_filter(&mut Ad1::new(), &arrivals);
    // A = ⟨2, 1⟩ (the late 2 is an exact duplicate).
    let seqs: Vec<u64> = shown.iter().map(|a| a.seqno(x()).unwrap().get()).collect();
    assert_eq!(seqs, vec![2, 1]);
    assert!(!check_ordered(&shown, &[x()]).ok);
    assert!(check_complete_multi(&c1, &[u1, u2], &shown).ok);
}

/// Theorem 3's counterexample: conservative + lossy is consistent but
/// neither ordered nor complete.
#[test]
fn theorem_3_incomplete_counterexample() {
    let c3 = cond::conservative(cond::delta_rise(x(), 200.0));
    let u1 = vec![u(1, 1000.0), u(2, 1500.0)];
    let u2 = vec![u(3, 2000.0), u(4, 2500.0)];
    let a1 = transduce(&c3, CeId::new(1), &u1);
    let a2 = transduce(&c3, CeId::new(2), &u2);
    assert_eq!(a1.len(), 1); // alert@2
    assert_eq!(a2.len(), 1); // alert@4
                             // Arrival order a@4 then a@2 → A = ⟨4, 2⟩.
    let arrivals: Vec<Alert> = a2.iter().chain(a1.iter()).cloned().collect();
    let shown = apply_filter(&mut Ad1::new(), &arrivals);
    assert!(!check_ordered(&shown, &[x()]).ok);
    let comp = check_complete_multi(&c3, &[u1.clone(), u2.clone()], &shown);
    assert!(!comp.ok);
    // T(U1 ⊔ U2) = ⟨2, 3, 4⟩: the alert at 3 is missing.
    assert!(comp.missing.iter().any(|a| a.seqno(x()) == Some(SeqNo::new(3))));
    assert!(check_consistent_multi(&c3, &[u1, u2], &shown).ok);
}

/// Theorem 4's counterexample: aggressive + lossy is inconsistent.
#[test]
fn theorem_4_inconsistent_counterexample() {
    let c2 = cond::delta_rise(x(), 200.0);
    let uu = vec![u(1, 400.0), u(2, 700.0), u(3, 720.0)];
    let u1 = uu.clone();
    let u2 = vec![uu[0], uu[2]];
    let a1 = transduce(&c2, CeId::new(1), &u1);
    let a2 = transduce(&c2, CeId::new(2), &u2);
    assert_eq!(a1.len(), 1); // alert@2: 700-400 = 300
    assert_eq!(a2.len(), 1); // alert@3: 720-400 = 320 (aggressive)
    let arrivals: Vec<Alert> = a1.iter().chain(a2.iter()).cloned().collect();
    let shown = apply_filter(&mut Ad1::new(), &arrivals);
    assert_eq!(shown.len(), 2);
    let cons = check_consistent_multi(&c2, &[u1, u2], &shown);
    assert!(!cons.ok);
    // The brute-force oracle agrees: no U' explains both alerts.
    assert!(!rcm::props::brute::brute_consistent_single(
        &c2,
        &[uu.clone(), vec![uu[0], uu[2]]],
        &shown
    ));
}

/// Theorem 5/6 (Example 2): AD-2 enforces orderedness at the price of
/// completeness, and AD-1 strictly dominates it.
#[test]
fn theorem_6_ad1_strictly_dominates_ad2() {
    let c1 = cond::threshold(x(), Cmp::Gt, 3000.0);
    let u1 = vec![u(1, 3100.0)];
    let u2 = vec![u(2, 3200.0)];
    let a1 = transduce(&c1, CeId::new(1), &u1);
    let a2 = transduce(&c1, CeId::new(2), &u2);
    let arrivals: Vec<Alert> = a2.iter().chain(a1.iter()).cloned().collect();
    let report = rcm::props::domination::check_domination(Ad1::new, || Ad2::new(x()), &[arrivals]);
    assert!(report.holds);
    assert!(report.strict);
}

/// Theorem 10's counterexample, end to end.
#[test]
fn theorem_10_multi_var_counterexample() {
    let cm = cond::abs_difference(x(), y(), 100.0);
    let ux = |s, v| Update::new(x(), s, v);
    let uy = |s, v| Update::new(y(), s, v);
    let u1 = vec![ux(1, 1000.0), ux(2, 1200.0), uy(1, 1050.0), uy(2, 1150.0)];
    let u2 = vec![uy(1, 1050.0), uy(2, 1150.0), ux(1, 1000.0), ux(2, 1200.0)];
    let a1 = transduce(&cm, CeId::new(1), &u1);
    let a2 = transduce(&cm, CeId::new(2), &u2);
    let arrivals: Vec<Alert> = a1.iter().chain(a2.iter()).cloned().collect();

    // AD-1: both alerts pass — unordered, inconsistent, incomplete.
    let shown = apply_filter(&mut Ad1::new(), &arrivals);
    assert_eq!(shown.len(), 2);
    assert!(!check_ordered(&shown, &[x(), y()]).ok);
    assert!(!check_consistent_multi(&cm, &[u1.clone(), u2.clone()], &shown).ok);
    assert!(!check_complete_multi(&cm, &[u1.clone(), u2.clone()], &shown).ok);
    assert!(!rcm::props::brute::brute_consistent_multi(&cm, &[u1.clone(), u2.clone()], &shown));

    // AD-5 drops the second alert and restores order + consistency.
    let shown5 = apply_filter(&mut Ad5::new([x(), y()]), &arrivals);
    assert_eq!(shown5.len(), 1);
    assert!(check_ordered(&shown5, &[x(), y()]).ok);
    assert!(check_consistent_multi(&cm, &[u1, u2], &shown5).ok);
}

/// The empty-filter observation from §4.1: dropping everything is
/// trivially ordered and consistent — which is why domination matters.
#[test]
fn drop_all_is_trivially_correct_and_dominated() {
    use rcm::core::ad::DropAll;
    let c2 = cond::delta_rise(x(), 200.0);
    let uu = vec![u(1, 400.0), u(2, 700.0), u(3, 720.0)];
    let a = transduce(&c2, CeId::new(1), &uu);
    let arrivals: Vec<Alert> = a.clone();
    let shown = apply_filter(&mut DropAll::new(), &arrivals);
    assert!(shown.is_empty());
    assert!(check_ordered(&shown, &[x()]).ok);
    assert!(check_consistent_multi(&c2, &[uu], &shown).ok);
    let report = rcm::props::domination::check_domination(Ad1::new, DropAll::new, &[arrivals]);
    assert!(report.holds && report.strict);
}
