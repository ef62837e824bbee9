//! Multiple conditions (paper Appendix D): two interdependent
//! conditions A = "reactor x is hotter than y" and B = "y is hotter
//! than x", monitored together.
//!
//! Demonstrates both constructions from the appendix:
//!
//! * **separate CEs** (Fig. D-7(c)): the AD demultiplexes the alert
//!   streams with [`PerCondition`] and runs one filter instance per
//!   condition;
//! * **co-located CEs** (Fig. D-7(d)/D-8): the two conditions reduce to
//!   the single disjunction `C = A ∨ B`.
//!
//! ```text
//! cargo run --example multi_condition
//! ```

use std::sync::Arc;

use rcm::core::ad::{apply_filter, Ad5, PerCondition};
use rcm::core::condition::expr::CompiledCondition;
use rcm::core::condition::Condition;
use rcm::core::{Alert, CeId, CondId, ConditionRegistry, Update, VarRegistry};

fn main() {
    let mut vars = VarRegistry::new();
    let (x, y) = (vars.register("x"), vars.register("y"));
    // "Reactor x is hotter than y", and the other way round.
    let cond_a = CompiledCondition::compile("x[0].value > y[0].value", &mut vars).unwrap();
    let cond_b = CompiledCondition::compile("y[0].value > x[0].value", &mut vars).unwrap();

    // Example 4's trace: both reactors at 2000, then both rise to 2100 —
    // but A's CE sees the x change first while B's CE sees y first.
    let updates_for_a = vec![
        Update::new(x, 1, 2000.0),
        Update::new(y, 1, 2000.0),
        Update::new(x, 2, 2100.0), // A triggers here: x=2100 > y=2000
        Update::new(y, 2, 2100.0),
    ];
    let updates_for_b = vec![
        Update::new(x, 1, 2000.0),
        Update::new(y, 1, 2000.0),
        Update::new(y, 2, 2100.0), // B triggers here: y=2100 > x=2000
        Update::new(x, 2, 2100.0),
    ];

    // --- Separate CEs per condition (Fig. D-7(c)) -------------------
    let a_alerts = run_ce(&cond_a, CondId::new(0), CeId::new(0), &updates_for_a);
    let b_alerts = run_ce(&cond_b, CondId::new(1), CeId::new(1), &updates_for_b);
    println!("condition A ({}) alerts: {}", cond_a.name(), a_alerts.len());
    println!("condition B ({}) alerts: {}", cond_b.name(), b_alerts.len());
    println!(
        "\nBoth fire even though the reactors were never simultaneously \
         unequal for long — Example 4's conflicting picture."
    );

    // The AD demultiplexes per condition and applies AD-5 to each
    // stream independently.
    let arrivals: Vec<Alert> = a_alerts.iter().chain(b_alerts.iter()).cloned().collect();
    let mut demux = PerCondition::new(|_cond| Ad5::new([x, y]));
    let shown = apply_filter(&mut demux, &arrivals);
    println!(
        "\nSeparate-CE displayer (per-condition AD-5): {} alert(s) shown, \
         {} condition stream(s)",
        shown.len(),
        demux.streams()
    );
    assert_eq!(demux.streams(), 2);

    // --- Co-located CEs: C = A ∨ B (Fig. D-8) -----------------------
    let combined = cond_a.clone() | cond_b.clone();
    // A co-located CE sees ONE interleaving, so the disjunction cannot
    // paint the conflicting picture: at any instant only one of A, B
    // can hold.
    let c_alerts = run_ce(&combined, CondId::new(2), CeId::new(2), &updates_for_a);
    println!(
        "\nCo-located construction C = A ∨ B over a single interleaving: \
         {} alert(s)",
        c_alerts.len()
    );
    assert_eq!(c_alerts.len(), 1, "only the x-first flank fires in this interleaving");

    println!(
        "\nAppendix D's two reductions make multi-condition systems \
         analyzable with the single-condition machinery."
    );
}

/// One CE hosting `cond` as `cond_id`, fed `updates`.
fn run_ce(cond: &CompiledCondition, cond_id: CondId, ce: CeId, updates: &[Update]) -> Vec<Alert> {
    let mut registry = ConditionRegistry::new(ce);
    registry.insert(cond_id, Arc::new(cond.clone()));
    let mut alerts = Vec::new();
    registry.ingest_batch(updates, &mut alerts);
    alerts
}
