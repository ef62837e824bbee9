//! Seeded equivalence pin for the multi-condition engine: a
//! [`ConditionRegistry`] hosting one compiled condition — the shared
//! store with nothing to share — raises an alert exactly when a
//! from-scratch expression walk over a [`HistorySet`] of its own is true,
//! for random well-typed expressions × random update streams, including
//! seqno gaps, stale duplicates, undefined histories and
//! `consecutive(...)` guards. (The store's own unit tests compare node
//! values, `None` included, in lockstep with the same walk.)
//!
//! The registry against independent history-set folds, over many
//! conditions, batched, stepped, chunked, partitioned and restarted, is
//! `registry_shared.rs`.

use rcm_core::condition::expr::{AggOp, BinOp, CompiledCondition, Expr, Field, UnOp};
use rcm_core::condition::{Condition, ConditionExt};
use rcm_core::{CeId, ConditionRegistry, HistorySet, Update, VarId, VarRegistry};
use rcm_net::{cases, Rng};

const VARS: [&str; 2] = ["a", "b"];

fn var_name(rng: &mut Rng) -> String {
    rng.pick(&VARS).to_string()
}

/// Numeric-typed expression trees at most `depth` operators deep
/// (leaves mention variables often enough that whole conditions rarely
/// end up variable-free).
fn num_expr(rng: &mut Rng, depth: usize) -> Expr<String> {
    if depth == 0 || rng.below(3) == 0 {
        // Weights 1 : 3 : 1.
        return match rng.below(5) {
            0 => Expr::Num(rng.below(100) as f64),
            1..=3 => Expr::Term {
                var: var_name(rng),
                index: -(rng.below(3) as i64),
                field: *rng.pick(&[Field::Value, Field::Seqno]),
            },
            _ => Expr::Agg {
                op: *rng.pick(&[AggOp::Min, AggOp::Max, AggOp::Avg, AggOp::Sum]),
                var: var_name(rng),
                window: 1 + rng.below(3) as u64,
            },
        };
    }
    let shape = rng.below(5);
    let mut inner = || Box::new(num_expr(rng, depth - 1));
    match shape {
        0 => {
            let (lhs, rhs) = (inner(), inner());
            let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
            Expr::Binary { op, lhs, rhs }
        }
        1 => Expr::Unary { op: UnOp::Neg, expr: inner() },
        2 => Expr::Abs(inner()),
        3 => Expr::Min(inner(), inner()),
        _ => Expr::Max(inner(), inner()),
    }
}

/// Boolean-typed expression trees: comparisons over numeric subtrees,
/// `consecutive(...)` guards, and logical combinators — the shape the
/// type checker accepts, generated directly. Logic at most `depth`
/// deep, each numeric subtree at most `num_depth`.
fn bool_expr(rng: &mut Rng, depth: usize, num_depth: usize) -> Expr<String> {
    if depth == 0 || rng.below(3) == 0 {
        // Weights 4 : 2 : 1.
        return match rng.below(7) {
            0..=3 => {
                let (lhs, rhs) = (num_expr(rng, num_depth), num_expr(rng, num_depth));
                let ops = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne];
                Expr::Binary { op: *rng.pick(&ops), lhs: Box::new(lhs), rhs: Box::new(rhs) }
            }
            4 | 5 => Expr::Consecutive(var_name(rng)),
            _ => Expr::Bool(rng.below(2) == 1),
        };
    }
    let shape = rng.below(2);
    let mut inner = || Box::new(bool_expr(rng, depth - 1, num_depth));
    if shape == 0 {
        let (lhs, rhs) = (inner(), inner());
        Expr::Binary { op: *rng.pick(&[BinOp::And, BinOp::Or]), lhs, rhs }
    } else {
        Expr::Unary { op: UnOp::Not, expr: inner() }
    }
}

/// `0..=size` update stream steps: which variable, how far its seqno
/// advances (0 ⇒ stale duplicate, ≥2 ⇒ gap), and the value.
fn stream(rng: &mut Rng, size: usize) -> Vec<(usize, u64, f64)> {
    (0..rng.below(size + 1))
        .map(|_| (rng.below(VARS.len()), rng.below(4) as u64, rng.next_f64() * 100.0 - 50.0))
        .collect()
}

/// A random well-typed condition, compiled against `vars`. `None` when
/// the generated tree mentions no variable (rejected by `compile`).
fn compile(ast: &Expr<String>, vars: &mut VarRegistry) -> Option<CompiledCondition> {
    CompiledCondition::compile(&ast.to_string(), vars).ok()
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

/// The shared store agrees with a fresh full eval after every offered
/// update, accepted or stale.
#[test]
fn shared_store_matches_full_eval() {
    cases("shared_store_matches_full_eval", 256, 39, |rng, size| {
        let ast = bool_expr(rng, size.min(3), size.min(3));
        let steps = stream(rng, size);
        let mut vars = VarRegistry::new();
        let ids = canonical_vars(&mut vars);
        let Some(cond) = compile(&ast, &mut vars) else { return };
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
            assert_eq!(!out.is_empty(), want, "diverged on {} after {u:?}", cond.name());
        }
    });
}
