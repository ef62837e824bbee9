//! Static analysis of condition expressions: type checking, variable
//! set, degrees and triggering classification.

use super::ast::{BinOp, Expr, UnOp};
use super::parser::ParseError;
use crate::condition::Triggering;

/// Expression type: every node is a number or a boolean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Numeric expression.
    Num,
    /// Boolean expression.
    Bool,
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ty::Num => write!(f, "number"),
            Ty::Bool => write!(f, "boolean"),
        }
    }
}

/// Result of analysing an expression over variables of type `V`
/// (names as parsed, [`VarId`](crate::VarId)s once resolved).
#[derive(Debug, Clone, PartialEq)]
pub struct ExprInfo<V> {
    /// Per-variable degree, ascending by variable: max history index
    /// used + 1, and at least 1 for variables appearing only in
    /// `consecutive(...)`.
    pub degrees: Vec<(V, usize)>,
    /// Derived triggering classification (see below).
    pub triggering: Triggering,
}

/// Type-checks `expr` (which must be boolean at the root) and derives
/// its [`ExprInfo`].
///
/// The triggering classification is *syntactic and sound*: the
/// expression is classified [`Triggering::Conservative`] iff it is
/// non-historical, or every variable of degree ≥ 2 is guarded by a
/// `consecutive(var)` conjunct at the top level (so any seqno gap
/// forces the whole expression false). A disjunction guards what both
/// of its operands guard. Expressions that happen to be
/// semantically conservative through other means are classified
/// aggressive — a safe over-approximation for the AD algorithms, which
/// never rely on a condition being aggressive.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first type mismatch, or a
/// root expression that is not boolean, or an expression mentioning no
/// variables.
pub fn analyze<V: Ord + Clone>(expr: &Expr<V>) -> Result<ExprInfo<V>, ParseError> {
    let ty = type_of(expr)?;
    if ty != Ty::Bool {
        return Err(err(format!("condition must be boolean, found {ty}")));
    }
    let mut degrees: Vec<(V, usize)> = Vec::new();
    // `var`'s degree, entered at `first` and raised to `need`.
    let mut read =
        |var: &V, first: usize, need: usize| match degrees.binary_search_by(|(v, _)| v.cmp(var)) {
            Ok(at) => degrees[at].1 = degrees[at].1.max(need),
            Err(at) => degrees.insert(at, (var.clone(), first.max(need))),
        };
    expr.visit(&mut |node| match node {
        Expr::Term { var, index, .. } => read(var, 0, index.unsigned_abs() as usize + 1),
        Expr::Consecutive(var) => read(var, 1, 0),
        Expr::Agg { var, window, .. } => read(var, 0, *window as usize),
        _ => {}
    });
    if degrees.is_empty() {
        return Err(err("condition mentions no variables".to_owned()));
    }

    let guarded = guards(expr);
    let conservative =
        degrees.iter().all(|(var, degree)| *degree <= 1 || guarded.iter().any(|g| g == var));
    let triggering = if conservative { Triggering::Conservative } else { Triggering::Aggressive };
    Ok(ExprInfo { degrees, triggering })
}

fn err(message: String) -> ParseError {
    ParseError { offset: 0, message }
}

/// Computes the type of an expression, verifying operand types.
pub fn type_of<V>(expr: &Expr<V>) -> Result<Ty, ParseError> {
    match expr {
        Expr::Num(_) => Ok(Ty::Num),
        Expr::Bool(_) => Ok(Ty::Bool),
        Expr::Term { .. } => Ok(Ty::Num),
        Expr::Consecutive(_) => Ok(Ty::Bool),
        Expr::Agg { .. } => Ok(Ty::Num),
        Expr::Unary { op, expr: inner } => {
            let t = type_of(inner)?;
            match (op, t) {
                (UnOp::Neg, Ty::Num) => Ok(Ty::Num),
                (UnOp::Not, Ty::Bool) => Ok(Ty::Bool),
                (UnOp::Neg, Ty::Bool) => Err(err("cannot negate a boolean with '-'".into())),
                (UnOp::Not, Ty::Num) => Err(err("cannot apply '!' to a number".into())),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let lt = type_of(lhs)?;
            let rt = type_of(rhs)?;
            if op.is_arithmetic() {
                expect_both(*op, lt, rt, Ty::Num)?;
                Ok(Ty::Num)
            } else if op.is_comparison() {
                expect_both(*op, lt, rt, Ty::Num)?;
                Ok(Ty::Bool)
            } else {
                expect_both(*op, lt, rt, Ty::Bool)?;
                Ok(Ty::Bool)
            }
        }
        Expr::Abs(e) => {
            if type_of(e)? != Ty::Num {
                return Err(err("abs() takes a number".into()));
            }
            Ok(Ty::Num)
        }
        Expr::Min(a, b) | Expr::Max(a, b) => {
            if type_of(a)? != Ty::Num || type_of(b)? != Ty::Num {
                return Err(err("min()/max() take numbers".into()));
            }
            Ok(Ty::Num)
        }
    }
}

fn expect_both(op: BinOp, lt: Ty, rt: Ty, want: Ty) -> Result<(), ParseError> {
    if lt != want || rt != want {
        return Err(err(format!(
            "operator '{}' takes {want} operands, found {lt} and {rt}",
            op.symbol()
        )));
    }
    Ok(())
}

/// Variables a seqno gap in which forces `expr` false: those of a
/// `consecutive(...)` conjunct reachable through top-level `&&`, and
/// of a `||` those both operands guard.
fn guards<V: Clone + PartialEq>(expr: &Expr<V>) -> Vec<V> {
    match expr {
        Expr::Consecutive(v) => vec![v.clone()],
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            let mut out = guards(lhs);
            out.extend(guards(rhs));
            out
        }
        Expr::Binary { op: BinOp::Or, lhs, rhs } => {
            let rhs = guards(rhs);
            guards(lhs).into_iter().filter(|v| rhs.contains(v)).collect()
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::expr::parse;

    fn info(src: &str) -> ExprInfo<String> {
        analyze(&parse(src).unwrap()).unwrap()
    }

    impl ExprInfo<String> {
        fn degree(&self, var: &str) -> Option<&usize> {
            self.degrees.iter().find(|(v, _)| v == var).map(|(_, d)| d)
        }
    }

    #[test]
    fn c1_is_degree_one_conservative() {
        let i = info("x[0].value > 3000");
        assert_eq!(i.degree("x"), Some(&1));
        assert_eq!(i.triggering, Triggering::Conservative);
    }

    #[test]
    fn c2_is_degree_two_aggressive() {
        let i = info("x[0].value - x[-1].value > 200");
        assert_eq!(i.degree("x"), Some(&2));
        assert_eq!(i.triggering, Triggering::Aggressive);
    }

    #[test]
    fn c3_is_degree_two_conservative() {
        let i = info("x[0].value - x[-1].value > 200 && consecutive(x)");
        assert_eq!(i.degree("x"), Some(&2));
        assert_eq!(i.triggering, Triggering::Conservative);
    }

    #[test]
    fn sparse_indices_take_max_degree() {
        // A condition using only H[0] and H[-2] is of degree 3 (paper §2).
        let i = info("x[0].value > x[-2].value");
        assert_eq!(i.degree("x"), Some(&3));
    }

    #[test]
    fn guard_under_or_does_not_count() {
        // consecutive(x) under || does not force false on gaps.
        let i = info("x[0].value - x[-1].value > 200 || consecutive(x)");
        assert_eq!(i.triggering, Triggering::Aggressive);
    }

    #[test]
    fn a_disjunction_guards_what_both_operands_guard() {
        let both = info("x[0].value > x[-1].value && consecutive(x) || consecutive(x)");
        assert_eq!(both.triggering, Triggering::Conservative);
        let one = info("x[0].value > x[-1].value && consecutive(x) || x[0].value > 1");
        assert_eq!(one.triggering, Triggering::Aggressive);
    }

    #[test]
    fn negated_guard_does_not_count() {
        let i = info("x[0].value - x[-1].value > 200 && !consecutive(x)");
        assert_eq!(i.triggering, Triggering::Aggressive);
    }

    #[test]
    fn multi_var_guards_must_cover_all_historical_vars() {
        let partial =
            info("x[0].value - x[-1].value > 1 && y[0].value - y[-1].value > 1 && consecutive(x)");
        assert_eq!(partial.triggering, Triggering::Aggressive);
        let full = info(
            "x[0].value - x[-1].value > 1 && y[0].value - y[-1].value > 1 \
             && consecutive(x) && consecutive(y)",
        );
        assert_eq!(full.triggering, Triggering::Conservative);
    }

    #[test]
    fn non_historical_multi_var_is_conservative() {
        let i = info("abs(x[0].value - y[0].value) > 100");
        assert_eq!(i.degree("x"), Some(&1));
        assert_eq!(i.degree("y"), Some(&1));
        assert_eq!(i.triggering, Triggering::Conservative);
    }

    #[test]
    fn type_errors_rejected() {
        assert!(analyze(&parse("x[0].value + 1").unwrap()).is_err()); // not boolean
        assert!(analyze(&parse("1 && true").unwrap()).is_err());
        // '!' on a number is a type error.
        assert!(analyze(&parse("!(x[0].value) && true").unwrap()).is_err());
        assert!(analyze(&parse("consecutive(x) > 1").unwrap()).is_err());
        assert!(analyze(&parse("-consecutive(x) == 1").unwrap()).is_err());
        assert!(analyze(&parse("abs(true) > 1").unwrap()).is_err());
        assert!(analyze(&parse("min(true, 1) > 1").unwrap()).is_err());
    }

    #[test]
    fn no_variables_rejected() {
        assert!(analyze(&parse("true").unwrap()).is_err());
        assert!(analyze(&parse("1 > 2").unwrap()).is_err());
    }

    #[test]
    fn consecutive_only_var_gets_degree_one() {
        let i = info("consecutive(x)");
        assert_eq!(i.degree("x"), Some(&1));
        assert_eq!(i.triggering, Triggering::Conservative);
    }

    #[test]
    fn window_aggregates_set_degree() {
        // "temperature exceeds the maximum of the previous three
        // readings" — the bounded-window version of the high-watermark
        // condition the paper excludes (unbounded state). Degree 4.
        let i = info("x[0].value > max_over(x, 4)");
        assert_eq!(i.degree("x"), Some(&4));
        assert_eq!(i.triggering, Triggering::Aggressive);
        let guarded = info("x[0].value > max_over(x, 4) && consecutive(x)");
        assert_eq!(guarded.triggering, Triggering::Conservative);
    }

    #[test]
    fn aggregate_window_below_index_use_takes_max() {
        let i = info("avg_over(x, 2) > x[-4].value");
        assert_eq!(i.degree("x"), Some(&5));
    }

    #[test]
    fn seqno_terms_count_toward_degree() {
        let i = info("x[0].seqno == x[-1].seqno + 1");
        assert_eq!(i.degree("x"), Some(&2));
        // seqno arithmetic is NOT recognized as a conservativeness guard
        // (syntactic approximation): classified aggressive.
        assert_eq!(i.triggering, Triggering::Aggressive);
    }
}
