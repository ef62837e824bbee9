//! Property-based equivalence pins for the multi-condition engine:
//!
//! 1. A [`ConditionRegistry`] hosting one compiled condition — the
//!    shared store with nothing to share — raises an alert exactly when
//!    a from-scratch expression walk over a private [`HistorySet`] is
//!    true, for random well-typed expressions × random update streams,
//!    including seqno gaps, stale duplicates, undefined histories and
//!    `consecutive(...)` guards. (The store's own unit tests compare
//!    node values, `None` included, in lockstep with the same walk.)
//! 2. [`ConditionRegistry`] — batched and one-at-a-time — produces
//!    byte-identical alert sequences (fingerprints, snapshots, and
//!    per-condition `AlertId` numbering) to a loop of independent
//!    [`Evaluator`]s over the same stream.
//!
//! `registry_shared.rs` is the dependency-free seeded twin of part 2,
//! with opaque and late-registered conditions mixed in.

use proptest::prelude::*;

use rcm_core::condition::expr::{AggOp, BinOp, CompiledCondition, Expr, Field, UnOp};
use rcm_core::condition::{Condition, ConditionExt};
use rcm_core::{
    CeId, CondId, ConditionRegistry, Evaluator, HistorySet, Update, VarId, VarRegistry,
};

const VARS: [&str; 2] = ["a", "b"];

fn var_name() -> impl Strategy<Value = String> {
    prop_oneof![Just(VARS[0].to_owned()), Just(VARS[1].to_owned())]
}

/// Numeric-typed expression trees (leaves mention variables often
/// enough that whole conditions rarely end up variable-free).
fn num_expr() -> impl Strategy<Value = Expr<String>> {
    let leaf = prop_oneof![
        1 => (0..100u32).prop_map(|n| Expr::Num(f64::from(n))),
        3 => (var_name(), 0i64..3, prop_oneof![Just(Field::Value), Just(Field::Seqno)])
            .prop_map(|(var, i, field)| Expr::Term { var, index: -i, field }),
        1 => (
            prop_oneof![Just(AggOp::Min), Just(AggOp::Max), Just(AggOp::Avg), Just(AggOp::Sum)],
            var_name(),
            1u64..4,
        )
            .prop_map(|(op, var, window)| Expr::Agg { op, var, window }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul), Just(BinOp::Div)]
            )
                .prop_map(|(l, r, op)| Expr::Binary {
                    op,
                    lhs: Box::new(l),
                    rhs: Box::new(r)
                }),
            inner.clone().prop_map(|e| Expr::Unary { op: UnOp::Neg, expr: Box::new(e) }),
            inner.clone().prop_map(|e| Expr::Abs(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Max(Box::new(a), Box::new(b))),
        ]
    })
}

/// Boolean-typed expression trees: comparisons over numeric subtrees,
/// `consecutive(...)` guards, and logical combinators — the shape the
/// type checker accepts, generated directly.
fn bool_expr() -> impl Strategy<Value = Expr<String>> {
    let leaf = prop_oneof![
        4 => (
            num_expr(),
            num_expr(),
            prop_oneof![
                Just(BinOp::Lt),
                Just(BinOp::Le),
                Just(BinOp::Gt),
                Just(BinOp::Ge),
                Just(BinOp::Eq),
                Just(BinOp::Ne),
            ]
        )
            .prop_map(|(l, r, op)| Expr::Binary { op, lhs: Box::new(l), rhs: Box::new(r) }),
        2 => var_name().prop_map(Expr::Consecutive),
        1 => any::<bool>().prop_map(Expr::Bool),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), prop_oneof![Just(BinOp::And), Just(BinOp::Or)])
                .prop_map(|(l, r, op)| Expr::Binary { op, lhs: Box::new(l), rhs: Box::new(r) }),
            inner.prop_map(|e| Expr::Unary { op: UnOp::Not, expr: Box::new(e) }),
        ]
    })
}

/// A random well-typed condition, compiled against `vars`. `None` when
/// the generated tree mentions no variable (rejected by `compile`).
fn compile(ast: &Expr<String>, vars: &mut VarRegistry) -> Option<CompiledCondition> {
    CompiledCondition::compile(&ast.to_string(), vars).ok()
}

/// Update stream steps: which variable, how far its seqno advances
/// (0 ⇒ stale duplicate, ≥2 ⇒ gap), and the value.
fn stream() -> impl Strategy<Value = Vec<(usize, u64, f64)>> {
    prop::collection::vec((0..VARS.len(), 0u64..4, -50.0f64..50.0), 0..40)
}

/// Materializes stream steps into updates with per-variable running
/// seqnos (starting at 1).
fn updates(steps: &[(usize, u64, f64)], ids: &[VarId]) -> Vec<Update> {
    let mut next: Vec<u64> = vec![1; ids.len()];
    let mut out = Vec::with_capacity(steps.len());
    for &(v, gap, value) in steps {
        // gap 0 re-sends the previous seqno (stale); otherwise the
        // seqno jumps by `gap` (1 = consecutive, ≥2 = loss gap).
        let seqno = if gap == 0 { next[v].saturating_sub(1).max(1) } else { next[v] + gap - 1 };
        next[v] = next[v].max(seqno + 1);
        out.push(Update::new(ids[v], seqno, value));
    }
    out
}

/// Registers the canonical variable names in generation order so every
/// compiled condition shares ids.
fn canonical_vars(vars: &mut VarRegistry) -> Vec<VarId> {
    VARS.iter().map(|n| vars.register(n)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shared store agrees with a fresh full eval after every
    /// offered update, accepted or stale.
    #[test]
    fn shared_store_matches_full_eval(ast in bool_expr(), steps in stream()) {
        let mut vars = VarRegistry::new();
        let ids = canonical_vars(&mut vars);
        let Some(cond) = compile(&ast, &mut vars) else { return Ok(()) };
        let mut h = HistorySet::new(cond.history_spec());
        let mut reg = ConditionRegistry::new(CeId::new(0));
        reg.add_compiled(cond.clone());
        let mut out = Vec::new();
        for u in updates(&steps, &ids) {
            if !cond.variables().contains(&u.var) {
                continue;
            }
            let want = h.push(u).is_ok() && h.is_defined() && cond.eval(&h);
            out.clear();
            reg.ingest(u, &mut out);
            prop_assert_eq!(!out.is_empty(), want, "diverged on {} after {:?}", cond.source(), u);
        }
    }

    /// The registry (batched and one-at-a-time) is byte-identical to a
    /// loop of independent evaluators fed the per-condition projection
    /// of the stream.
    #[test]
    fn registry_matches_independent_evaluators(
        asts in prop::collection::vec(bool_expr(), 1..6),
        steps in stream(),
    ) {
        let mut vars = VarRegistry::new();
        let ids = canonical_vars(&mut vars);
        let conds: Vec<CompiledCondition> =
            asts.iter().filter_map(|a| compile(a, &mut vars)).collect();
        if conds.is_empty() {
            return Ok(());
        }
        let ce = CeId::new(7);

        let mut batched = ConditionRegistry::new(ce);
        let mut stepped = ConditionRegistry::new(ce);
        let mut evaluators: Vec<Evaluator<CompiledCondition>> = Vec::new();
        for (i, c) in conds.iter().enumerate() {
            batched.add_compiled(c.clone());
            stepped.add_compiled(c.clone());
            evaluators.push(Evaluator::with_ids(c.clone(), CondId::new(i as u32), ce));
        }

        let stream = updates(&steps, &ids);

        let mut from_batch = Vec::new();
        batched.ingest_batch(&stream, &mut from_batch);

        let mut from_steps = Vec::new();
        for &u in &stream {
            stepped.ingest(u, &mut from_steps);
        }

        let mut want = Vec::new();
        for &u in &stream {
            for (ci, ev) in evaluators.iter_mut().enumerate() {
                if conds[ci].variables().contains(&u.var) {
                    if let Ok(Some(a)) = ev.try_ingest(u) {
                        want.push(a);
                    }
                }
            }
        }

        prop_assert_eq!(from_batch.len(), want.len());
        for (g, w) in from_batch.iter().zip(&want) {
            prop_assert_eq!(g, w); // paper identity: cond + fingerprint
            prop_assert_eq!(g.id, w.id); // provenance numbering
            prop_assert_eq!(&g.snapshot[..], &w.snapshot[..]); // payload bytes
        }
        prop_assert_eq!(&from_batch, &from_steps);
        for (g, w) in from_batch.iter().zip(&from_steps) {
            prop_assert_eq!(g.id, w.id);
            prop_assert_eq!(&g.snapshot[..], &w.snapshot[..]);
        }
        prop_assert_eq!(batched.stats(), stepped.stats());
    }

    /// Restarting the registry mid-stream matches restarting every
    /// independent evaluator at the same point (histories lost, alert
    /// numbering preserved per condition).
    #[test]
    fn registry_restart_matches_evaluator_restarts(
        asts in prop::collection::vec(bool_expr(), 1..4),
        before in stream(),
        after in stream(),
    ) {
        let mut vars = VarRegistry::new();
        let ids = canonical_vars(&mut vars);
        let conds: Vec<CompiledCondition> =
            asts.iter().filter_map(|a| compile(a, &mut vars)).collect();
        if conds.is_empty() {
            return Ok(());
        }
        let ce = CeId::new(0);
        let mut reg = ConditionRegistry::new(ce);
        let mut evaluators: Vec<Evaluator<CompiledCondition>> = Vec::new();
        for (i, c) in conds.iter().enumerate() {
            reg.add_compiled(c.clone());
            evaluators.push(Evaluator::with_ids(c.clone(), CondId::new(i as u32), ce));
        }

        // `after` continues each variable's seqnos past `before`'s
        // (restart must tolerate the in-flight cursor, like a real CE).
        let mut all = before.clone();
        all.extend(after.iter().copied());
        let all = updates(&all, &ids);
        let (first, second) = all.split_at(updates(&before, &ids).len());

        let mut got = Vec::new();
        reg.ingest_batch(first, &mut got);
        reg.restart();
        reg.ingest_batch(second, &mut got);

        let mut want = Vec::new();
        let run = |stream: &[Update], evaluators: &mut Vec<Evaluator<CompiledCondition>>,
                       want: &mut Vec<rcm_core::Alert>| {
            for &u in stream {
                for (ci, ev) in evaluators.iter_mut().enumerate() {
                    if conds[ci].variables().contains(&u.var) {
                        if let Ok(Some(a)) = ev.try_ingest(u) {
                            want.push(a);
                        }
                    }
                }
            }
        };
        run(first, &mut evaluators, &mut want);
        for ev in &mut evaluators {
            ev.restart();
        }
        run(second, &mut evaluators, &mut want);

        prop_assert_eq!(&got, &want);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
        }
    }
}
