//! Abstract syntax tree for condition expressions.

use std::fmt;

/// Which field of a history entry a term reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// The update's value snapshot.
    Value,
    /// The update's sequence number (exact for seqnos below 2^53, which
    /// covers any realistic stream).
    Seqno,
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Value => write!(f, "value"),
            Field::Seqno => write!(f, "seqno"),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Numeric negation `-e`.
    Neg,
    /// Boolean negation `!e`.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Whether this operator takes numeric operands and yields a number.
    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }

    /// Whether this operator takes numeric operands and yields a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }

    /// Whether this operator takes boolean operands.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Source-level symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Window-aggregate operators over the most recent history entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// `min_over(x, k)`: minimum of `H_x[0] … H_x[-(k-1)]` values.
    Min,
    /// `max_over(x, k)`: maximum over the window.
    Max,
    /// `avg_over(x, k)`: arithmetic mean over the window.
    Avg,
    /// `sum_over(x, k)`: sum over the window.
    Sum,
}

impl AggOp {
    /// Source-level function name.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Min => "min_over",
            AggOp::Max => "max_over",
            AggOp::Avg => "avg_over",
            AggOp::Sum => "sum_over",
        }
    }
}

/// An expression node, generic over the variable representation `V`
/// (`String` as parsed, [`VarId`](crate::VarId) after resolution).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<V> {
    /// Numeric literal.
    Num(f64),
    /// Boolean literal (`true` / `false`).
    Bool(bool),
    /// History term `var[index].field`; `index` is the paper's history
    /// index, zero or negative (`x[0]`, `x[-1]`, …).
    Term {
        /// The variable addressed.
        var: V,
        /// History index, `0` for `H[0]`, `-1` for `H[-1]`, etc.
        index: i64,
        /// Which field to read.
        field: Field,
    },
    /// `consecutive(var)`: true iff `H_var` has no seqno gap.
    Consecutive(V),
    /// Window aggregate `op(var, window)` over the newest `window`
    /// history values (contributes `window` to the variable's degree).
    Agg {
        /// Aggregate operator.
        op: AggOp,
        /// The variable aggregated over.
        var: V,
        /// Window size in history entries (≥ 1).
        window: u64,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr<V>>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr<V>>,
        /// Right operand.
        rhs: Box<Expr<V>>,
    },
    /// `abs(e)`.
    Abs(Box<Expr<V>>),
    /// `min(a, b)`.
    Min(Box<Expr<V>>, Box<Expr<V>>),
    /// `max(a, b)`.
    Max(Box<Expr<V>>, Box<Expr<V>>),
}

impl<V> Expr<V> {
    /// Visits every node of the tree (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr<V>)) {
        f(self);
        match self {
            Expr::Num(_)
            | Expr::Bool(_)
            | Expr::Term { .. }
            | Expr::Consecutive(_)
            | Expr::Agg { .. } => {}
            Expr::Unary { expr, .. } | Expr::Abs(expr) => expr.visit(f),
            Expr::Binary { lhs, rhs, .. } | Expr::Min(lhs, rhs) | Expr::Max(lhs, rhs) => {
                lhs.visit(f);
                rhs.visit(f);
            }
        }
    }
}

impl<V: fmt::Display> fmt::Display for Expr<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Term { var, index, field } => write!(f, "{var}[{index}].{field}"),
            Expr::Consecutive(v) => write!(f, "consecutive({v})"),
            Expr::Agg { op, var, window } => write!(f, "{}({var}, {window})", op.name()),
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => write!(f, "-({expr})"),
                UnOp::Not => write!(f, "!({expr})"),
            },
            Expr::Binary { op, lhs, rhs } => {
                write!(f, "({lhs} {} {rhs})", op.symbol())
            }
            Expr::Abs(e) => write!(f, "abs({e})"),
            Expr::Min(a, b) => write!(f, "min({a}, {b})"),
            Expr::Max(a, b) => write!(f, "max({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_reaches_all_nodes() {
        let e: Expr<String> = Expr::Min(
            Box::new(Expr::Abs(Box::new(Expr::Num(1.0)))),
            Box::new(Expr::Consecutive("x".into())),
        );
        let mut count = 0;
        e.visit(&mut |_| count += 1);
        assert_eq!(count, 4);
    }

    #[test]
    fn display_roundtrips_structure() {
        let e: Expr<String> = Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(Expr::Bool(true)),
            rhs: Box::new(Expr::Unary { op: UnOp::Not, expr: Box::new(Expr::Bool(false)) }),
        };
        assert_eq!(e.to_string(), "(true && !(false))");
    }

    #[test]
    fn binop_classification_is_total() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::And,
            BinOp::Or,
        ] {
            let classes = [op.is_arithmetic(), op.is_comparison(), op.is_logical()];
            assert_eq!(classes.iter().filter(|&&b| b).count(), 1, "{op:?}");
        }
    }
}
