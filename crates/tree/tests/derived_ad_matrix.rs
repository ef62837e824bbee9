//! The full AD-1…AD-6 property matrix **over a derived-update
//! stream**: a leaf CE's verdicts, shadowed into raw updates (same
//! variable and seqno, value `1.0`), become the input variable of a
//! replicated parent tier whose Alert Displayer runs each of the
//! paper's six filtering algorithms. The paper's per-algorithm
//! guarantees must hold unchanged — derived streams keep the exact
//! `(variable, seqno, value)` contract raw DM streams have, so the
//! property checkers apply verbatim:
//!
//! | filter | asserted on the derived stream          |
//! |--------|-----------------------------------------|
//! | AD-1   | complete, consistent                    |
//! | AD-2   | ordered                                 |
//! | AD-3   | consistent                              |
//! | AD-4   | ordered, consistent                     |
//! | AD-5   | ordered (multi-variable machinery)      |
//! | AD-6   | consistent (multi-variable machinery)   |

use std::sync::Arc;

use rcm_core::ad::{apply_filter, Ad1, Ad2, Ad3, Ad4, Ad5, Ad6, AlertFilter};
use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::{cond, Cmp};
use rcm_core::{transduce, Alert, CeId, CondId, Update, VarId};
use rcm_net::{cases, Rng};
use rcm_props::{check_complete_single, check_consistent_multi, check_ordered};
use rcm_tree::{verdict_stream, TreeEval, TreeOptions, TreePlan};

/// Runs a one-leaf tree over a seeded raw stream and returns the
/// leaf's verdict stream's raw-update shadow — consecutive seqnos
/// stamped by the leaf's emitter, values all `1.0`. The leaf's replay
/// window holds its whole uplink: 120 readings emit at most 120
/// verdicts.
fn derived_inputs(seed: u64) -> Vec<Update> {
    let x = VarId::new(0);
    let mut plan = TreePlan::new(1);
    plan.own(x, 0);
    plan.add_condition(CondId::new(0), Arc::new(cond::threshold(x, Cmp::Gt, 0.0))).unwrap();
    let mut tree = TreeEval::build(plan, TreeOptions { replay_window: 120, ..Default::default() });

    let mut rng = Rng::seed_from_u64(seed);
    let mut seqno = 0;
    let mut displayed = Vec::new();
    for _ in 0..120 {
        seqno += 1 + rng.below(2) as u64; // gaps model front-link loss
        let value = rng.below(40) as f64 - 10.0;
        tree.ingest(Update::new(x, seqno, value), &mut displayed);
    }
    let updates: Vec<Update> =
        tree.leaf(0, 0).window().iter().map(|d| Update::new(d.var, d.seqno.get(), 1.0)).collect();
    assert!(updates.len() > 20, "seed {seed} produced a trivial stream");
    assert!(updates.iter().all(|u| u.var == verdict_stream(0, 0)));
    updates
}

/// Two parent-tier replicas fed scripted-loss subsequences of the
/// derived stream; their alert streams are interleaved round-robin
/// (worst case for orderedness) into one arrival sequence.
struct Replicated {
    inputs: Vec<Vec<Update>>,
    arrivals: Vec<Alert>,
}

fn replicate(cond: &CompiledCondition, stream: &[Update], seed: u64, loss_pct: u64) -> Replicated {
    let mut rng = Rng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let mut inputs = Vec::new();
    let mut alert_streams: Vec<Vec<Alert>> = Vec::new();
    for replica in 0..2u32 {
        let received: Vec<Update> =
            stream.iter().copied().filter(|_| rng.below(100) as u64 >= loss_pct).collect();
        alert_streams.push(transduce(cond, CeId::new(replica), &received));
        inputs.push(received);
    }
    let mut arrivals = Vec::new();
    let (a, b) = (alert_streams.remove(0), alert_streams.remove(0));
    let (mut ia, mut ib) = (a.into_iter(), b.into_iter());
    loop {
        match (ia.next(), ib.next()) {
            (None, None) => break,
            (x, y) => {
                arrivals.extend(x);
                arrivals.extend(y);
            }
        }
    }
    Replicated { inputs, arrivals }
}

/// A filter with its name and the properties it promises: ordered,
/// complete, consistent.
type FilterCase = (&'static str, Box<dyn AlertFilter>, bool, bool, bool);

fn run_matrix(cond: &CompiledCondition, seed: u64, loss_pct: u64) {
    let stream = derived_inputs(seed);
    let var = verdict_stream(0, 0);
    let rep = replicate(cond, &stream, seed, loss_pct);
    let ctx = format!("seed {seed}, loss {loss_pct}%");

    let filters: Vec<FilterCase> = vec![
        ("AD-1", Box::new(Ad1::new()), false, true, true),
        ("AD-2", Box::new(Ad2::new(var)), true, false, false),
        ("AD-3", Box::new(Ad3::new([var])), false, false, true),
        ("AD-4", Box::new(Ad4::new(var)), true, false, true),
        ("AD-5", Box::new(Ad5::new([var])), true, false, false),
        ("AD-6", Box::new(Ad6::new([var])), false, false, true),
    ];
    for (name, mut filter, ordered, complete, consistent) in filters {
        let displayed = apply_filter(filter.as_mut(), &rep.arrivals);
        if ordered {
            let r = check_ordered(&displayed, &[var]);
            assert!(r.ok, "{ctx}: {name} orderedness violated: {:?}", r.violation);
        }
        if complete {
            let r = check_complete_single(cond, &rep.inputs, &displayed);
            assert!(r.ok, "{ctx}: {name} completeness violated: {r:?}");
        }
        if consistent {
            let r = check_consistent_multi(cond, &rep.inputs, &displayed);
            assert!(r.ok, "{ctx}: {name} consistency violated: {r:?}");
        }
    }
}

#[test]
fn matrix_holds_on_lossless_tier_links() {
    let var = verdict_stream(0, 0);
    for seed in 0..8u64 {
        run_matrix(&cond::threshold(var, Cmp::Gt, 0.5), seed, 0);
    }
}

/// A two-history condition over the derived stream: consistency (and
/// orderedness for the filters that promise it) must survive replica
/// divergence — the interesting regime the paper's §3 is about.
#[test]
fn history_condition_over_derived_stream() {
    let var = verdict_stream(0, 0);
    for seed in 0..8u64 {
        let cond = cond::delta_rise(var, -0.5); // any consecutive pair fires
        let stream = derived_inputs(seed);
        let rep = replicate(&cond, &stream, seed, 20);
        let ctx = format!("seed {seed}");

        let mut ad3 = Ad3::new([var]);
        let displayed = apply_filter(&mut ad3, &rep.arrivals);
        let r = check_consistent_multi(&cond, &rep.inputs, &displayed);
        assert!(r.ok, "{ctx}: AD-3 consistency violated: {r:?}");

        let mut ad4 = Ad4::new(var);
        let displayed = apply_filter(&mut ad4, &rep.arrivals);
        assert!(check_ordered(&displayed, &[var]).ok, "{ctx}: AD-4 orderedness");
        let r = check_consistent_multi(&cond, &rep.inputs, &displayed);
        assert!(r.ok, "{ctx}: AD-4 consistency violated: {r:?}");
    }
}

/// The matrix over drawn seeds and loss rates. Each input is a whole
/// seeded run, so there is no size to shrink.
#[test]
fn matrix_holds_for_any_seed() {
    cases("matrix_holds_for_any_seed", 32 + 8, 0, |rng, _| {
        let (seed, loss_pct) = (rng.below(1_000_000) as u64, *rng.pick(&[0, 20, 50]));
        run_matrix(&cond::threshold(verdict_stream(0, 0), Cmp::Gt, 0.5), seed, loss_pct);
    });
}
