//! Integration tests for multi-condition systems (paper Appendix D):
//! per-condition demultiplexing and the disjunction reduction.

use std::sync::Arc;

use rcm::core::ad::{apply_filter, Ad3, AlertFilter, PerCondition};
use rcm::core::condition::expr::CompiledCondition;
use rcm::core::condition::{cond, Cmp};
use rcm::core::{Alert, CeId, CondId, ConditionRegistry, Update, VarId};

fn x() -> VarId {
    VarId::new(0)
}

fn run_ce(cond: &CompiledCondition, cond_id: CondId, ce: u32, updates: &[Update]) -> Vec<Alert> {
    let mut registry = ConditionRegistry::new(CeId::new(ce));
    registry.insert(cond_id, Arc::new(cond.clone()));
    let mut alerts = Vec::new();
    registry.ingest_batch(updates, &mut alerts);
    alerts
}

/// Fig. D-7(c): separate CEs per condition, replicated; the AD runs one
/// AD-3 instance per condition stream, so conflicts are detected within
/// a condition but never across conditions.
#[test]
fn per_condition_filters_are_isolated() {
    let hot = cond::delta_rise(x(), 200.0); // condition A, aggressive
    let warm = cond::delta_rise(x(), 100.0); // condition B, aggressive

    let u_full =
        vec![Update::new(x(), 1, 400.0), Update::new(x(), 2, 700.0), Update::new(x(), 3, 720.0)];
    let u_lossy = vec![u_full[0], u_full[2]]; // missed update 2

    // Condition A replicated on two CEs (one lossy) → conflicting alerts.
    let a_rep1 = run_ce(&hot, CondId::new(0), 1, &u_full);
    let a_rep2 = run_ce(&hot, CondId::new(0), 2, &u_lossy);
    // Condition B monitored by one CE with full input.
    let b_rep = run_ce(&warm, CondId::new(1), 3, &u_full);

    let arrivals: Vec<Alert> =
        a_rep1.iter().chain(a_rep2.iter()).chain(b_rep.iter()).cloned().collect();
    let mut ad = PerCondition::new(|_c| Ad3::new([x()]));
    let shown = apply_filter(&mut ad, &arrivals);

    // Within condition A, the second replica's aggressive alert
    // conflicts and is dropped; condition B's alerts are untouched even
    // though they reference the same updates.
    let a_shown = shown.iter().filter(|a| a.cond == CondId::new(0)).count();
    let b_shown = shown.iter().filter(|a| a.cond == CondId::new(1)).count();
    assert_eq!(a_shown, 1);
    assert_eq!(b_shown, b_rep.len());
    assert_eq!(ad.streams(), 2);
}

/// Fig. D-7(d)/D-8: co-located conditions reduce to C = A ∨ B; a single
/// evaluation per update stream gives one coherent alert stream.
#[test]
fn colocated_conditions_reduce_to_disjunction() {
    let a = cond::threshold(x(), Cmp::Gt, 100.0);
    let b = cond::threshold(x(), Cmp::Lt, 0.0);
    let c = a.clone() | b.clone();
    let updates = vec![
        Update::new(x(), 1, 50.0),  // neither
        Update::new(x(), 2, 150.0), // A
        Update::new(x(), 3, -10.0), // B
        Update::new(x(), 4, 120.0), // A
    ];
    let combined = run_ce(&c, CondId::new(9), 0, &updates);
    let alerts_a = run_ce(&a, CondId::new(0), 0, &updates);
    let alerts_b = run_ce(&b, CondId::new(1), 0, &updates);
    // C triggers exactly when A or B does.
    assert_eq!(combined.len(), alerts_a.len() + alerts_b.len());
    let c_seqs: Vec<u64> = combined.iter().map(|al| al.seqno(x()).unwrap().get()).collect();
    assert_eq!(c_seqs, vec![2, 3, 4]);
}

/// Duplicate suppression is per condition: the same histories under
/// different condition ids are distinct alerts.
#[test]
fn same_history_different_condition_is_not_a_duplicate() {
    use rcm::core::ad::Ad1;
    let a = cond::threshold(x(), Cmp::Gt, 0.0);
    let updates = vec![Update::new(x(), 1, 5.0)];
    let alert_a = run_ce(&a, CondId::new(0), 0, &updates).remove(0);
    let alert_b = run_ce(&a, CondId::new(1), 0, &updates).remove(0);
    let mut ad = Ad1::new();
    assert!(ad.offer(&alert_a).is_deliver());
    assert!(ad.offer(&alert_b).is_deliver());
    assert!(!ad.offer(&alert_a).is_deliver());
}
