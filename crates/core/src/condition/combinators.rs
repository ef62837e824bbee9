//! Boolean operators over conditions: `a & b`, `a | b` and `!a` build
//! the conjunction, disjunction and negation as one expression.
//!
//! The paper's Appendix D reduces two co-located conditions `A` and `B`
//! to the single combined condition `C = A ∨ B`, which is `a | b`.
//! The triggering class of the result is derived from its expression
//! like any other condition's: a conjunction is conservative when every
//! historical variable is guarded by a conservative operand, a
//! disjunction when both operands guard it, and the negation of a
//! historical condition is aggressive (negating a gap-silenced
//! condition makes it true on gaps).

use std::ops::{BitAnd, BitOr, Not};

use super::expr::{BinOp, CompiledCondition, Expr, UnOp};

/// `op` over two conditions, named after theirs.
fn join(lhs: CompiledCondition, op: BinOp, rhs: CompiledCondition) -> CompiledCondition {
    let ((l_name, lhs), (r_name, rhs)) = (lhs.into_parts(), rhs.into_parts());
    let name = format!("({l_name}) {} ({r_name})", op.symbol());
    CompiledCondition::built(name, Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
}

/// `a & b` holds when both hold.
impl BitAnd for CompiledCondition {
    type Output = CompiledCondition;

    fn bitand(self, rhs: Self) -> Self {
        join(self, BinOp::And, rhs)
    }
}

/// `a | b` holds when either holds.
impl BitOr for CompiledCondition {
    type Output = CompiledCondition;

    fn bitor(self, rhs: Self) -> Self {
        join(self, BinOp::Or, rhs)
    }
}

/// `!a` holds when `a` does not.
impl Not for CompiledCondition {
    type Output = CompiledCondition;

    fn not(self) -> Self {
        let (name, expr) = self.into_parts();
        let expr = Expr::Unary { op: UnOp::Not, expr: Box::new(expr) };
        CompiledCondition::built(format!("!({name})"), expr)
    }
}

#[cfg(test)]
mod tests {
    use crate::condition::cond::{conservative, delta_rise, threshold, Cmp};
    use crate::condition::expr::{BinOp, CompiledCondition, Expr, Field};
    use crate::condition::{Condition, Triggering};
    use crate::history::HistorySet;
    use crate::update::Update;
    use crate::var::VarId;

    fn x() -> VarId {
        VarId::new(0)
    }
    fn y() -> VarId {
        VarId::new(1)
    }

    fn hist1(vals: &[(u64, f64)]) -> HistorySet {
        let mut h = HistorySet::new([(x(), 1)]);
        for &(s, v) in vals {
            h.push(Update::new(x(), s, v)).unwrap();
        }
        h
    }

    #[test]
    fn and_or_not_eval() {
        let hot = threshold(x(), Cmp::Gt, 100.0);
        let cold = threshold(x(), Cmp::Lt, 0.0);
        let h = hist1(&[(1, 150.0)]);
        assert!((hot.clone() | cold.clone()).eval(&h));
        assert!(!(hot.clone() & cold.clone()).eval(&h));
        assert!(!(!hot).eval(&h));
        assert!((!cold).eval(&h));
    }

    #[test]
    fn variable_sets_union_and_degrees_max() {
        let c = threshold(x(), Cmp::Gt, 1.0) & delta_rise(y(), 5.0);
        assert_eq!(c.variables(), vec![x(), y()]);
        assert_eq!(c.degree(x()), 1);
        assert_eq!(c.degree(y()), 2);
        assert_eq!(c.degree(VarId::new(9)), 0);
    }

    #[test]
    fn appendix_d_disjunction() {
        // A: "x hotter than y", B: "y hotter than x"; C = A ∨ B.
        // Both raise from 2000 to 2100; interleaving decides which fires,
        // but C fires whenever either does.
        let value = |var| Box::new(Expr::Term { var, index: 0, field: Field::Value });
        let hotter = |l: VarId, r: VarId| {
            let ast = Expr::Binary { op: BinOp::Gt, lhs: value(l), rhs: value(r) };
            CompiledCondition::from_expr(format!("{l} > {r}"), ast).unwrap()
        };
        let c = hotter(x(), y()) | hotter(y(), x());
        let mut h = HistorySet::new([(x(), 1), (y(), 1)]);
        h.push(Update::new(x(), 1, 2000.0)).unwrap();
        h.push(Update::new(y(), 1, 2000.0)).unwrap();
        assert!(!c.eval(&h));
        h.push(Update::new(x(), 2, 2100.0)).unwrap();
        assert!(c.eval(&h)); // x saw its change first → A fires → C fires
        h.push(Update::new(y(), 2, 2100.0)).unwrap();
        assert!(!c.eval(&h)); // equal again
    }

    #[test]
    fn triggering_classification() {
        let cons = conservative(delta_rise(x(), 1.0));
        let aggr = delta_rise(x(), 1.0);
        // And with a conservative child covering the only variable.
        assert_eq!((cons.clone() & aggr.clone()).triggering(), Triggering::Conservative);
        // Or of conservative+aggressive over the same variable: aggressive.
        assert_eq!((cons.clone() | aggr).triggering(), Triggering::Aggressive);
        // Or of two conservatives over the same variable set: conservative.
        assert_eq!((cons.clone() | cons.clone()).triggering(), Triggering::Conservative);
        // Or of conservatives over different variables: a gap in x silences
        // only the x disjunct → aggressive.
        let cons_y = conservative(delta_rise(y(), 1.0));
        assert_eq!((cons.clone() | cons_y).triggering(), Triggering::Aggressive);
        // Not of a historical condition: aggressive.
        assert_eq!((!cons).triggering(), Triggering::Aggressive);
        // Non-historical combinations are conservative vacuously.
        let t = threshold(x(), Cmp::Gt, 1.0);
        assert_eq!((!t.clone()).triggering(), Triggering::Conservative);
        assert_eq!((t.clone() & t).triggering(), Triggering::Conservative);
    }

    #[test]
    fn names_nest() {
        let t = threshold(x(), Cmp::Gt, 1.0);
        assert_eq!((!(t.clone() | t.clone())).name(), "!((v0[0].value > 1) || (v0[0].value > 1))");
        assert_eq!((t.clone() & t).name(), "(v0[0].value > 1) && (v0[0].value > 1)");
    }
}
